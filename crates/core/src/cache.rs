//! The embedding memoization cache (§4.2, Algorithm 3).
//!
//! A sharded concurrent hash table maps the collision-free `(node, time)`
//! key to a cached embedding row. Capacity is bounded by an item limit
//! (paper default 2M ≈ <1 GiB at 100 dims) with FIFO eviction. Each shard
//! also keeps its keys ordered by key time, so the invalidation sweep for
//! an event at `te` (the paper's §7 future work) walks only the entries
//! keyed after `te` instead of the whole table. The paper parallelizes
//! `CacheLookup` and, on the GPU host, `CacheStore` across keys (§5.1.3);
//! here each is one loop over the keys, and the `parallel` arguments that
//! still carry the paper's switch are ignored.

use crate::hash::{first_time_major_after, from_time_major, time_major, unpack_key};
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use tg_error::TgError;
use tg_graph::{NodeId, Time};
use tg_tensor::Tensor;

const NUM_SHARDS: usize = 16;

/// Sharded, size-limited embedding cache with FIFO eviction.
///
/// ```
/// use tgopt::{EmbedCache, pack_key};
/// use tg_tensor::Tensor;
///
/// let cache = EmbedCache::new(1000, 2);
/// let keys = [pack_key(7, 3.0)];
/// cache.store(&keys, &Tensor::from_vec(1, 2, vec![0.5, -0.5]), false).unwrap();
///
/// let mut out = Tensor::zeros(2, 2);
/// let hits = cache.lookup(&[pack_key(7, 3.0), pack_key(8, 3.0)], &mut out, false).unwrap();
/// assert_eq!(hits, vec![true, false]);
/// assert_eq!(out.row(0), &[0.5, -0.5]);
/// ```
pub struct EmbedCache {
    shards: Vec<RwLock<Shard>>,
    /// Insertion order across all shards, for FIFO eviction: one
    /// `(key, stamp)` slot per fresh insert. A slot owns the live entry
    /// under its key iff the stamps match; a slot whose entry was swept
    /// (and perhaps re-stored under a newer stamp) is stale, skipped
    /// wherever it is met and dropped when the queue is compacted.
    fifo: Mutex<VecDeque<(u64, u64)>>,
    /// Source of entry stamps; unique per fresh insert.
    next_stamp: AtomicU64,
    count: AtomicUsize,
    /// Recorded fingerprint pairs (`u64` words) held by live entries, so
    /// `bytes_used` charges constraints as well as embedding rows.
    constraint_words: AtomicUsize,
    limit: usize,
    dim: usize,
    lookups: AtomicU64,
    hits: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    /// Fresh keys actually inserted (a subset of `stores`, which counts
    /// attempted rows). Every inserted entry leaves the cache through
    /// exactly one of eviction, invalidation, or residency, giving the
    /// accounting identity `inserted == evictions + invalidated + len()`
    /// at quiescence (asserted by `tests/streaming_stress.rs`).
    inserted: AtomicU64,
    /// Entries removed by [`EmbedCache::sweep`] (directly or through
    /// `invalidate_node`) or `clear`.
    invalidated: AtomicU64,
    /// Rows silently dropped at admission because a single `store` call
    /// exceeded the whole item limit (the oldest rows of that call). These
    /// never reach a shard and are *not* counted in `stores`.
    store_dropped: AtomicU64,
}

/// A cached embedding row plus its recorded invalidation constraint.
struct Entry {
    row: Box<[f32]>,
    /// Temporal-subgraph fingerprint: packed `(node, time)` pairs whose
    /// most-recent-`k` windows this embedding's computation sampled (the
    /// entry's own `(node, time)` plus every interior pair of its recursive
    /// frontier). A graph event can change the embedding only by changing
    /// one of these windows. Empty means "unrecorded", which
    /// [`EmbedCache::sweep`] reads by the table's depth: a layer-1 entry
    /// depends on its own key alone (the degenerate fingerprint, never
    /// materialized), a deeper one (warm-restored) on an unknown set.
    constraint: Box<[u64]>,
    /// Identity of the insert that made this key live, matched against the
    /// FIFO's `(key, stamp)` slots. An overwrite keeps it (the entry keeps
    /// its queue position); a re-store after removal draws a new one.
    stamp: u64,
}

/// One shard: the entries, plus the same keys in [`time_major`] order so a
/// bounded sweep can start at the first key after `te`. Both live under
/// the shard's one lock and change together.
#[derive(Default)]
struct Shard {
    map: FxHashMap<u64, Entry>,
    by_time: BTreeSet<u64>,
}

impl Shard {
    /// Installs `row` and `constraint` under `key`; returns the live
    /// entry's stamp and the entry it replaced (`None` for a fresh key,
    /// which draws its stamp from `next_stamp` and joins the index).
    fn insert(
        &mut self,
        key: u64,
        row: Box<[f32]>,
        constraint: Box<[u64]>,
        next_stamp: &AtomicU64,
    ) -> (u64, Option<Entry>) {
        let out = match self.map.entry(key) {
            MapEntry::Occupied(mut live) => {
                let stamp = live.get().stamp;
                (stamp, Some(live.insert(Entry { row, constraint, stamp })))
            }
            MapEntry::Vacant(free) => {
                let stamp = next_stamp.fetch_add(1, Ordering::Relaxed);
                free.insert(Entry { row, constraint, stamp });
                // Admission already allocates (the row it owns, map growth);
                // the index adds a B-tree node once per several fresh keys.
                self.by_time.insert(time_major(key));
                (stamp, None)
            }
        };
        debug_assert_eq!(self.map.len(), self.by_time.len());
        out
    }

    /// Removes the entry under `key` if `stamp` still owns it.
    fn remove(&mut self, key: u64, stamp: u64) -> Option<Entry> {
        let MapEntry::Occupied(live) = self.map.entry(key) else { return None };
        if live.get().stamp != stamp {
            return None;
        }
        self.by_time.remove(&time_major(key));
        let entry = live.remove();
        debug_assert_eq!(self.map.len(), self.by_time.len());
        Some(entry)
    }

    /// Drops every entry `dead` says to, asking it of the entries whose
    /// [`time_major`] key is `>= from` in that order, or of all of them
    /// (in map order) when `from` is `None`.
    fn remove_where(&mut self, from: Option<u64>, mut dead: impl FnMut(u64, &Entry) -> bool) {
        let Shard { map, by_time } = self;
        match from {
            Some(from) => by_time
                .extract_if(from.., |&tm| {
                    let key = from_time_major(tm);
                    let gone = map.get(&key).is_some_and(|e| dead(key, e));
                    if gone {
                        map.remove(&key);
                    }
                    gone
                })
                .for_each(drop),
            None => map.retain(|&key, e| {
                let gone = dead(key, e);
                if gone {
                    by_time.remove(&time_major(key));
                }
                !gone
            }),
        }
        debug_assert_eq!(map.len(), by_time.len());
    }
}

#[inline]
fn shard_of(key: u64) -> usize {
    // Spread sequential node ids across shards.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (NUM_SHARDS - 1)
}

impl EmbedCache {
    /// A cache holding at most `limit` embeddings of `dim` floats each.
    ///
    /// Panics on a zero `limit` or `dim`; use [`EmbedCache::try_new`] to
    /// surface those as errors instead.
    pub fn new(limit: usize, dim: usize) -> Self {
        assert!(limit > 0, "cache limit must be positive");
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            shards: (0..NUM_SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            fifo: Mutex::new(VecDeque::new()),
            next_stamp: AtomicU64::new(0),
            count: AtomicUsize::new(0),
            constraint_words: AtomicUsize::new(0),
            limit,
            dim,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            store_dropped: AtomicU64::new(0),
        }
    }

    /// Like [`EmbedCache::new`] but rejects a zero `limit` or `dim` with a
    /// typed error instead of panicking; preferred when the capacity comes
    /// from user configuration or a deserialized snapshot.
    pub fn try_new(limit: usize, dim: usize) -> Result<Self, TgError> {
        if limit == 0 {
            return Err(TgError::InvalidArgument("cache limit must be positive".into()));
        }
        if dim == 0 {
            return Err(TgError::InvalidArgument(
                "embedding dimension must be positive".into(),
            ));
        }
        Ok(Self::new(limit, dim))
    }

    /// `CacheLookup`: fills rows of `out` for hit keys and returns the hit
    /// mask. Missing rows are untouched (the engine fills them after
    /// recomputation), avoiding an intermediate tensor exactly as §4.2.2
    /// describes. Errors if `out` is not `[keys.len(), dim]`.
    ///
    /// # Invariants
    ///
    /// - `out` retains its previous contents in every row whose key missed.
    /// - The hit/lookup counters grow by exactly `keys.len()` attempted and
    ///   `mask.count_ones()` hit; no map or FIFO state changes.
    ///
    /// `_parallel` is ignored; the perf ledger's probe still passes it, and
    /// ROADMAP 5(f) drops it.
    pub fn lookup(&self, keys: &[u64], out: &mut Tensor, _parallel: bool) -> Result<Vec<bool>, TgError> { // alloc-ok: the hit mask is the return value; embedding rows land in the caller's scratch tensor
        if out.shape() != (keys.len(), self.dim) {
            return Err(TgError::shape(
                "EmbedCache::lookup output",
                format_args!("({}, {})", keys.len(), self.dim),
                format_args!("{:?}", out.shape()),
            ));
        }
        self.lookups.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let mut mask = vec![false; keys.len()];
        for ((row, hit), &key) in out.as_mut_slice().chunks_mut(self.dim).zip(&mut mask).zip(keys) {
            let shard = self.shards[shard_of(key)].read();
            if let Some(v) = shard.map.get(&key) {
                row.copy_from_slice(&v.row);
                *hit = true;
            }
        }
        let n_hits = mask.iter().filter(|&&h| h).count() as u64;
        self.hits.fetch_add(n_hits, Ordering::Relaxed);
        Ok(mask)
    }

    /// `CacheStore` (Algorithm 3): evicts FIFO-oldest entries if the new
    /// rows would exceed the limit, then inserts row `i` of `h` under
    /// `keys[i]`. Errors if `h` is not `[keys.len(), dim]`.
    ///
    /// # Invariants
    ///
    /// - `len() <= limit()` holds on return, even under concurrent stores
    ///   (a corrective eviction runs after the FIFO append).
    /// - Re-storing an existing key overwrites in place, keeping the entry's
    ///   stamp and so its FIFO slot, so `len()` only counts distinct live
    ///   keys.
    /// - Every key newly inserted by this call gets a fresh stamp, joins its
    ///   shard's time index under the same lock as the map insert, and is
    ///   appended to the FIFO exactly once, after all older entries; a key
    ///   re-stored after invalidation no longer matches its old slot's
    ///   stamp (the entry's FIFO age restarts from this call).
    /// - A call that inserts a fresh key leaves at most `2 * len() + 1`
    ///   FIFO slots: stale slots are compacted away once they outnumber
    ///   the live ones.
    /// - The `stores` counter grows by the number of *admitted* rows only;
    ///   rows dropped because this one call exceeds the whole limit are
    ///   counted in [`EmbedCache::total_store_dropped`] instead.
    ///
    /// `_parallel` is ignored, as in [`EmbedCache::lookup`].
    pub fn store(&self, keys: &[u64], h: &Tensor, _parallel: bool) -> Result<(), TgError> {
        self.store_impl(keys, h, None)
    }

    /// Like [`EmbedCache::store`] but records `constraints[i]` — the
    /// temporal-subgraph fingerprint, sorted packed `(node, time)` pairs —
    /// beside row `i`, for [`EmbedCache::sweep`] to validate against.
    /// Errors if `constraints.len() != keys.len()`.
    ///
    /// # Invariants
    ///
    /// - Same capacity/FIFO/counter behavior as [`EmbedCache::store`].
    /// - Row `i` and `constraints[i]` are installed atomically under one
    ///   shard lock; an overwrite replaces both, and `bytes_used()` moves
    ///   by the difference.
    pub fn store_with_constraints(
        &self,
        keys: &[u64],
        h: &Tensor,
        constraints: Vec<Box<[u64]>>,
    ) -> Result<(), TgError> {
        if constraints.len() != keys.len() {
            return Err(TgError::shape(
                "EmbedCache::store_with_constraints constraints",
                format_args!("{}", keys.len()),
                format_args!("{}", constraints.len()),
            ));
        }
        self.store_impl(keys, h, Some(constraints))
    }

    fn store_impl( // alloc-ok: cache admission must copy the rows it will own; the fresh-key list is bounded by the batch
        &self,
        keys: &[u64],
        h: &Tensor,
        mut constraints: Option<Vec<Box<[u64]>>>,
    ) -> Result<(), TgError> {
        if h.shape() != (keys.len(), self.dim) {
            return Err(TgError::shape(
                "EmbedCache::store input",
                format_args!("({}, {})", keys.len(), self.dim),
                format_args!("{:?}", h.shape()),
            ));
        }
        if keys.is_empty() {
            return Ok(());
        }
        let incoming = keys.len().min(self.limit);
        // If a single store call exceeds the whole limit, keep the newest.
        let skip = keys.len() - incoming;
        if skip > 0 {
            self.store_dropped.fetch_add(skip as u64, Ordering::Relaxed);
        }
        // Only keys not already cached consume capacity: overwrites keep
        // their slot, and repeated keys within one call insert once.
        let fresh_count = {
            let mut seen = rustc_hash::FxHashSet::default();
            keys[skip..]
                .iter()
                .filter(|&&k| seen.insert(k) && !self.contains(k))
                .count()
        };
        let cur = self.count.load(Ordering::Relaxed);
        if cur + fresh_count > self.limit {
            self.evict((cur + fresh_count).saturating_sub(self.limit));
        }

        // Each fresh key's `(key, stamp)` then needs a FIFO slot.
        let mut fresh = Vec::with_capacity(incoming);
        for (j, (&key, row)) in keys[skip..]
            .iter()
            .zip(h.as_slice()[skip * self.dim..].chunks(self.dim))
            .enumerate()
        {
            let constraint = match constraints.as_mut() {
                Some(v) => std::mem::take(&mut v[skip + j]),
                None => Box::default(),
            };
            let added = constraint.len();
            let row: Box<[f32]> = row.into();
            let mut shard = self.shards[shard_of(key)].write();
            let (stamp, old) = shard.insert(key, row, constraint, &self.next_stamp);
            // Charged before the shard lock is released: a concurrent sweep
            // can remove this entry, and subtract it, only after that, so
            // `count` and `constraint_words` never dip below zero.
            if old.is_none() {
                self.count.fetch_add(1, Ordering::Relaxed);
            }
            let dropped = old.as_ref().map_or(0, |e| e.constraint.len());
            if added > 0 {
                self.constraint_words.fetch_add(added, Ordering::Relaxed);
            }
            if dropped > 0 {
                self.constraint_words.fetch_sub(dropped, Ordering::Relaxed);
            }
            drop(shard);
            if old.is_none() {
                fresh.push((key, stamp));
            }
        }
        self.finish_store(fresh, incoming);
        Ok(())
    }

    fn finish_store(&self, fresh: Vec<(u64, u64)>, admitted: usize) {
        self.stores.fetch_add(admitted as u64, Ordering::Relaxed);
        debug_assert!(
            fresh.len() <= admitted,
            "inserted {} fresh keys out of {admitted} admitted",
            fresh.len()
        );
        if fresh.is_empty() {
            return;
        }
        self.inserted.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        let mut fifo = self.fifo.lock();
        fifo.extend(fresh); // alloc-ok: FIFO admission grows the queue by the fresh keys just inserted — bounded by the batch
        // Concurrent stores may each have passed the pre-insert capacity
        // check; a corrective eviction keeps the limit a hard bound.
        let over = self.count.load(Ordering::Relaxed).saturating_sub(self.limit);
        self.evict_from(&mut fifo, over);
        // Sweeps leave stale slots behind and only eviction pops, so a cache
        // that never fills would grow the queue by one slot per
        // invalidation forever. Every stale slot was paid for by the
        // removal that made it, so dropping them all once they outnumber
        // the live ones is amortised O(1) per store.
        if fifo.len() > 2 * self.len() + 1 {
            fifo.retain(|&slot| self.owned(slot, |_| ()).is_some());
        }
        debug_assert!(
            self.count.load(Ordering::Relaxed) <= self.limit,
            "cache count {} exceeds limit {} after corrective eviction",
            self.count.load(Ordering::Relaxed),
            self.limit
        );
    }

    /// True if `key` is currently cached.
    pub fn contains(&self, key: u64) -> bool {
        self.shards[shard_of(key)].read().map.contains_key(&key)
    }

    /// `read` of the live entry that FIFO slot `(key, stamp)` owns, if any.
    fn owned<R>(&self, (key, stamp): (u64, u64), read: impl FnOnce(&Entry) -> R) -> Option<R> {
        let shard = self.shards[shard_of(key)].read();
        shard.map.get(&key).filter(|e| e.stamp == stamp).map(read)
    }

    /// Snapshot of all live entries in FIFO (oldest-first) order, for
    /// persistence.
    ///
    /// # Invariants
    ///
    /// - Every live entry is emitted exactly once, at the queue position of
    ///   the one slot carrying its stamp: stale slots (swept entries) match
    ///   nothing, and a key re-stored after invalidation appears at its
    ///   re-store position — never as a duplicate row.
    pub fn export_fifo_order(&self) -> Vec<(u64, Box<[f32]>)> {
        let fifo = self.fifo.lock();
        fifo.iter()
            .filter_map(|&slot| Some((slot.0, self.owned(slot, |e| e.row.clone())?)))
            .collect()
    }

    /// Removes the `n` oldest entries.
    fn evict(&self, n: usize) {
        self.evict_from(&mut self.fifo.lock(), n);
    }

    fn evict_from(&self, fifo: &mut VecDeque<(u64, u64)>, n: usize) {
        let mut removed = 0usize;
        let mut words = 0usize;
        // Stale FIFO slots (entry swept, perhaps re-stored under a newer
        // stamp) own nothing and free no capacity, so keep popping until n
        // live entries are gone.
        while removed < n {
            let Some((key, stamp)) = fifo.pop_front() else { break };
            if let Some(e) = self.shards[shard_of(key)].write().remove(key, stamp) {
                removed += 1;
                words += e.constraint.len();
            }
        }
        self.account_removed(removed, words, &self.evictions);
    }

    /// The one invalidation question: is any `(y, t')` pair an entry
    /// depends on stale? Examines every entry (with `after = Some(te)`,
    /// only those keyed strictly after `te` — sampling looks backward, so
    /// every pair of an entry keyed at `t <= te` has `t' <= te` and an
    /// event at `te` cannot reach it) and drops the entry iff `stale`
    /// holds for one of its pairs.
    ///
    /// An entry's pairs are its own key plus its recorded fingerprint
    /// ([`crate::fingerprint::capture`] at `levels`). `levels` is the
    /// sampling depth below this table's entries (layer `l` has
    /// `levels = l - 1`) and settles what a *missing* fingerprint means:
    /// with `levels == 0` the key is the whole fingerprint (layer 1 — no
    /// per-entry storage, same code path), while with `levels > 0` the
    /// entry's reach is unknown (restored from a snapshot, or overwritten
    /// by a plain `store`) and an examined entry is dropped conservatively.
    ///
    /// Returns `(removed, retained)`; `retained` counts the examined
    /// entries that stayed, so `removed + retained` is what the sweep
    /// looked at and entries keyed at `t <= te` appear in neither.
    ///
    /// # Invariants
    ///
    /// - Entries keyed at `t <= te` are untouched, uncounted and — with
    ///   `after = Some(te)` — not visited: each shard's walk starts at the
    ///   first key after `te` in its time-ordered index, so a sweep costs
    ///   what it examines, not what the cache holds. `after = None` (node
    ///   flush, edge deletion) scans every entry.
    /// - "After `te`" is exactly "not `t <= te`": `-0.0` and `0.0` are the
    ///   same instant on either side, and a NaN-timed key (never `<=`
    ///   anything; `store` accepts any key bits, as a snapshot may hold
    ///   them) sorts above `+inf` and is examined by every bounded sweep.
    /// - Index and map change together under the shard's one write lock,
    ///   so no reader or sweep sees a key in one and not the other.
    /// - After return, no examined entry has a pair passing `stale`, and
    ///   no examined deep entry lacks a fingerprint (entries stored
    ///   concurrently are the *caller's* obligation — the serve layer
    ///   replays pending sweeps after each worker wave).
    /// - `len()` decreases by exactly `removed` and `bytes_used()` by the
    ///   removed rows and fingerprints; FIFO slots of removed keys go
    ///   stale and are skipped by eviction without freeing capacity twice.
    pub fn sweep(
        &self,
        after: Option<Time>,
        levels: usize,
        mut stale: impl FnMut(NodeId, Time) -> bool,
    ) -> (usize, usize) {
        let mut pair_stale = |pk: u64| {
            let (y, t) = unpack_key(pk);
            stale(y, t)
        };
        let mut removed = 0usize;
        let mut retained = 0usize;
        let mut words = 0usize;
        let from = after.map(first_time_major_after);
        for shard in &self.shards {
            shard.write().remove_where(from, |key, entry| {
                let fp = &entry.constraint;
                let hit = if fp.is_empty() && levels > 0 {
                    true
                } else {
                    pair_stale(key) || fp.iter().any(|&pk| pk != key && pair_stale(pk))
                };
                if hit {
                    removed += 1;
                    words += fp.len();
                } else {
                    retained += 1;
                }
                hit
            });
        }
        self.account_removed(removed, words, &self.invalidated);
        (removed, retained)
    }

    /// Drops every entry of this table keyed by `node`, and every entry
    /// whose recorded fingerprint sampled `node`'s history (future-work
    /// §7: graph change events such as edge deletion invalidate what was
    /// computed from the node's interactions). Entries without a
    /// fingerprint are judged by their key alone; a holder of deep tables
    /// goes through [`LayerCaches::invalidate_node`], which states each
    /// layer's depth. Returns how many entries were removed.
    ///
    /// # Invariants
    ///
    /// - After return, no key unpacking to `node` is live in any shard.
    /// - `len()` decreases by exactly the returned count (see
    ///   [`EmbedCache::sweep`]).
    pub fn invalidate_node(&self, node: NodeId) -> usize {
        self.sweep(None, 0, |y, _| y == node).0
    }

    /// The one place an entry's departure is accounted, whatever removed
    /// it (`counter` is `evictions` or `invalidated`). FIFO slots are not
    /// excised here: a swept key's slot goes stale, `evict` skips it and
    /// `finish_store` compacts it away.
    fn account_removed(&self, entries: usize, constraint_words: usize, counter: &AtomicU64) {
        if entries > 0 {
            self.count.fetch_sub(entries, Ordering::Relaxed);
            counter.fetch_add(entries as u64, Ordering::Relaxed);
        }
        if constraint_words > 0 {
            self.constraint_words.fetch_sub(constraint_words, Ordering::Relaxed);
        }
    }

    /// Removes everything.
    ///
    /// # Invariants
    ///
    /// - All shards, the FIFO queue, and the live count reset together, so
    ///   `len() == 0` and `bytes_used() == 0` on return.
    /// - Lifetime counters (lookups/hits/stores/evictions) are preserved;
    ///   the dropped entries count as invalidated, keeping the
    ///   `inserted == evictions + invalidated + len()` identity intact.
    pub fn clear(&self) {
        let mut removed = 0usize;
        let mut words = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write();
            removed += shard.map.len();
            words += shard.map.values().map(|e| e.constraint.len()).sum::<usize>();
            shard.map.clear();
            shard.by_time.clear();
        }
        self.fifo.lock().clear();
        self.account_removed(removed, words, &self.invalidated);
    }

    /// Current number of cached embeddings.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Item limit.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Payload memory in bytes: embedding floats plus recorded
    /// fingerprint pairs (FIFO slots, the time index and map overhead are
    /// not counted).
    pub fn bytes_used(&self) -> usize {
        self.len() * self.dim * std::mem::size_of::<f32>()
            + self.constraint_words.load(Ordering::Relaxed) * std::mem::size_of::<u64>()
    }

    /// Total keys looked up.
    pub fn total_lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Total lookup hits.
    pub fn total_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total rows admitted by `store` (rows dropped because a single call
    /// exceeded the whole limit are counted in
    /// [`EmbedCache::total_store_dropped`] instead).
    pub fn total_stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    /// Total rows dropped at admission because one `store` call exceeded
    /// the whole item limit.
    pub fn total_store_dropped(&self) -> u64 {
        self.store_dropped.load(Ordering::Relaxed)
    }

    /// Total evicted entries.
    pub fn total_evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total fresh keys actually inserted (distinct from
    /// [`EmbedCache::total_stores`], which counts attempted rows).
    pub fn total_inserted(&self) -> u64 {
        self.inserted.load(Ordering::Relaxed)
    }

    /// Total entries removed by invalidation sweeps (including `clear`).
    pub fn total_invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Lifetime hit rate.
    pub fn hit_rate(&self) -> f64 {
        let l = self.total_lookups();
        if l == 0 {
            0.0
        } else {
            self.total_hits() as f64 / l as f64
        }
    }
}

/// One [`EmbedCache`] per cached model layer.
///
/// The memoization key is `(node, time)` (§4.1); embeddings of the *same*
/// target at *different layers* differ, so each cached layer gets its own
/// table — sharing one key space across layers would let a layer-1 lookup
/// return a layer-2 embedding. With the paper's configuration (2 layers,
/// last layer uncached) exactly one table exists, matching the paper's
/// single-cache design; deeper models split the item budget evenly.
pub struct LayerCaches {
    per_layer: Vec<Option<EmbedCache>>,
}

impl std::fmt::Debug for LayerCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let layers: Vec<String> = self
            .per_layer
            .iter()
            .map(|c| match c {
                Some(c) => format!("EmbedCache{{len: {}, dim: {}}}", c.len(), c.dim()),
                None => "uncached".to_string(),
            })
            .collect();
        f.debug_struct("LayerCaches").field("per_layer", &layers).finish()
    }
}

impl LayerCaches {
    /// Caches for layers `1..=top` where `top = n_layers - 1` (or
    /// `n_layers` when `cache_last_layer` is set), sharing `total_limit`
    /// items between them.
    pub fn new(n_layers: usize, cache_last_layer: bool, total_limit: usize, dim: usize) -> Self {
        assert!(n_layers >= 1);
        let top = if cache_last_layer { n_layers } else { n_layers - 1 };
        let count = top; // layers 1..=top
        let per = total_limit.checked_div(count).map_or(0, |p| p.max(1));
        let per_layer: Vec<Option<EmbedCache>> = (0..=n_layers)
            .map(|l| (l >= 1 && l <= top).then(|| EmbedCache::new(per, dim)))
            .collect();
        debug_assert!(
            per_layer.iter().flatten().map(|c| c.limit()).sum::<usize>()
                <= total_limit.max(count),
            "per-layer budgets must not exceed the total item budget"
        );
        Self { per_layer }
    }

    /// Rebuilds from explicit per-layer caches (index = layer); used by the
    /// persistence module.
    pub fn from_parts(per_layer: Vec<Option<EmbedCache>>) -> Self {
        Self { per_layer }
    }

    /// Highest addressable layer index (the model's `L`).
    pub fn num_layers(&self) -> usize {
        self.per_layer.len().saturating_sub(1)
    }

    /// The cache for layer `l`, if that layer is cached.
    pub fn layer(&self, l: usize) -> Option<&EmbedCache> {
        self.per_layer.get(l).and_then(|c| c.as_ref())
    }

    fn iter(&self) -> impl Iterator<Item = &EmbedCache> {
        self.per_layer.iter().flatten()
    }

    /// Total cached embeddings across layers.
    pub fn len(&self) -> usize {
        self.iter().map(|c| c.len()).sum()
    }

    /// True if nothing is cached anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes across layers.
    pub fn bytes_used(&self) -> usize {
        self.iter().map(|c| c.bytes_used()).sum()
    }

    /// Total evictions across layers.
    pub fn total_evictions(&self) -> u64 {
        self.iter().map(|c| c.total_evictions()).sum()
    }

    /// Total fresh insertions across layers.
    pub fn total_inserted(&self) -> u64 {
        self.iter().map(|c| c.total_inserted()).sum()
    }

    /// Total invalidated entries across layers.
    pub fn total_invalidated(&self) -> u64 {
        self.iter().map(|c| c.total_invalidated()).sum()
    }

    /// Total rows dropped at store admission across layers.
    pub fn total_store_dropped(&self) -> u64 {
        self.iter().map(|c| c.total_store_dropped()).sum()
    }

    /// Summed item limits across layers.
    pub fn limit(&self) -> usize {
        self.iter().map(|c| c.limit()).sum()
    }

    /// Embedding dimension (uniform across layers); `None` if no layer is
    /// cached.
    pub fn dim(&self) -> Option<usize> {
        self.iter().next().map(|c| c.dim())
    }

    /// [`EmbedCache::sweep`] over every cached layer, stating each layer's
    /// depth (`levels = l - 1`) so a layer-1 entry is its own fingerprint
    /// and a deep entry without one is dropped. `report` receives
    /// `(layer, removed, retained)` once per cached layer.
    ///
    /// # Invariants
    ///
    /// - No cached layer is skipped, so an entry `stale` reaches never
    ///   survives at a deeper layer.
    pub fn sweep(
        &self,
        after: Option<Time>,
        mut stale: impl FnMut(NodeId, Time) -> bool,
        mut report: impl FnMut(usize, usize, usize),
    ) {
        for (l, cache) in self.per_layer.iter().enumerate() {
            if let Some(cache) = cache {
                let (removed, retained) = cache.sweep(after, l.saturating_sub(1), &mut stale);
                report(l, removed, retained);
            }
        }
    }

    /// Drops, in every layer, each entry that sampled the history of one
    /// of `nodes` — keyed by it, or recording it in its fingerprint — which
    /// is what a change to those histories (an edge deleted between two
    /// nodes, a node flushed) can reach at any model depth. Returns total
    /// removals.
    ///
    /// # Invariants
    ///
    /// - One [`LayerCaches::sweep`] with the predicate `y ∈ nodes`; deep
    ///   entries without a fingerprint go too.
    pub fn invalidate_nodes(&self, nodes: &[NodeId]) -> usize {
        let mut total = 0;
        self.sweep(None, |y, _| nodes.contains(&y), |_, removed, _| total += removed);
        total
    }

    /// [`LayerCaches::invalidate_nodes`] for a single node.
    ///
    /// # Invariants
    ///
    /// - After return, no key unpacking to `node` is live in any layer.
    pub fn invalidate_node(&self, node: NodeId) -> usize {
        self.invalidate_nodes(&[node])
    }

    /// Clears every layer.
    ///
    /// # Invariants
    ///
    /// - Every cached layer is cleared; `len() == 0` on return.
    pub fn clear(&self) {
        for c in self.iter() {
            c.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::pack_key;

    fn row_tensor(rows: &[&[f32]]) -> Tensor {
        let cols = rows[0].len();
        let mut data = Vec::new();
        for r in rows {
            data.extend_from_slice(r);
        }
        Tensor::from_vec(rows.len(), cols, data)
    }

    #[test]
    fn store_then_lookup_roundtrip() {
        let cache = EmbedCache::new(10, 3);
        let keys = [pack_key(1, 1.0), pack_key(2, 1.0)];
        cache.store(&keys, &row_tensor(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]), false).unwrap();
        let mut out = Tensor::zeros(3, 3);
        let mask =
            cache.lookup(&[keys[1], pack_key(9, 9.0), keys[0]], &mut out, false).unwrap();
        assert_eq!(mask, vec![true, false, true]);
        assert_eq!(out.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(out.row(1), &[0.0, 0.0, 0.0]);
        assert_eq!(out.row(2), &[1.0, 2.0, 3.0]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.total_hits(), 2);
        assert_eq!(cache.total_lookups(), 3);
    }

    #[test]
    fn mis_shaped_buffers_are_rejected_as_shape_mismatch() {
        // Callers dispatch on the variant (degraded-mode handling must be
        // able to tell a shape bug from an I/O failure), so assert the
        // variant itself, not just that an error came back.
        let cache = EmbedCache::new(10, 3);
        let keys = [pack_key(1, 1.0)];
        let mut narrow = Tensor::zeros(1, 2);
        let err = cache.lookup(&keys, &mut narrow, false).unwrap_err();
        assert!(matches!(err, TgError::ShapeMismatch { ref context, .. } if context.contains("lookup")));
        let err = cache.store(&keys, &Tensor::zeros(2, 3), false).unwrap_err();
        assert!(matches!(err, TgError::ShapeMismatch { ref context, .. } if context.contains("store")));
    }

    #[test]
    fn fifo_eviction_keeps_newest() {
        let cache = EmbedCache::new(3, 1);
        for i in 0..5u32 {
            cache.store(&[pack_key(i, 0.0)], &Tensor::from_vec(1, 1, vec![i as f32]), false).unwrap();
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.total_evictions(), 2);
        let mut out = Tensor::zeros(5, 1);
        let keys: Vec<u64> = (0..5u32).map(|i| pack_key(i, 0.0)).collect();
        let mask = cache.lookup(&keys, &mut out, false).unwrap();
        assert_eq!(mask, vec![false, false, true, true, true]);
    }

    #[test]
    fn never_exceeds_limit() {
        let cache = EmbedCache::new(7, 2);
        for batch in 0..20u32 {
            let keys: Vec<u64> = (0..5u32).map(|i| pack_key(batch * 5 + i, 0.0)).collect();
            let h = Tensor::zeros(5, 2);
            cache.store(&keys, &h, false).unwrap();
            assert!(cache.len() <= 7, "len {} exceeds limit", cache.len());
        }
    }

    #[test]
    fn oversized_single_store_keeps_newest_rows() {
        let cache = EmbedCache::new(2, 1);
        let keys: Vec<u64> = (0..4u32).map(|i| pack_key(i, 0.0)).collect();
        let h = Tensor::from_vec(4, 1, vec![0.0, 1.0, 2.0, 3.0]);
        cache.store(&keys, &h, false).unwrap();
        assert_eq!(cache.len(), 2);
        let mut out = Tensor::zeros(4, 1);
        let mask = cache.lookup(&keys, &mut out, false).unwrap();
        assert_eq!(mask, vec![false, false, true, true]);
        assert_eq!(out.row(3), &[3.0]);
    }

    #[test]
    fn duplicate_store_overwrites_without_growth() {
        let cache = EmbedCache::new(5, 1);
        let k = [pack_key(1, 2.0)];
        cache.store(&k, &Tensor::from_vec(1, 1, vec![1.0]), false).unwrap();
        cache.store(&k, &Tensor::from_vec(1, 1, vec![9.0]), false).unwrap();
        assert_eq!(cache.len(), 1);
        let mut out = Tensor::zeros(1, 1);
        assert_eq!(cache.lookup(&k, &mut out, false).unwrap(), vec![true]);
        assert_eq!(out.get(0, 0), 9.0);
    }

    #[test]
    fn algorithm3_restore_accounting_does_not_evict_for_existing_keys() {
        // DESIGN.md's Algorithm-3 accounting case: the eviction pre-pass
        // must count only *fresh* keys against the limit — re-storing keys
        // that are already cached reuses their slots and must not push
        // anything out.
        let cache = EmbedCache::new(3, 1);
        let keys: Vec<u64> = (0..3).map(|n| pack_key(n, 1.0)).collect();
        cache.store(&keys, &row_tensor(&[&[1.0], &[2.0], &[3.0]]), false).unwrap();
        assert_eq!(cache.len(), 3);

        // Full-capacity re-store of every key: zero evictions, new values.
        cache.store(&keys, &row_tensor(&[&[10.0], &[20.0], &[30.0]]), false).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.total_evictions(), 0, "re-store must not evict");
        let mut out = Tensor::zeros(3, 1);
        assert_eq!(cache.lookup(&keys, &mut out, false).unwrap(), vec![true; 3]);
        assert_eq!(out.as_slice(), &[10.0, 20.0, 30.0]);

        // Mixed batch at capacity: two existing keys plus one fresh key
        // needs exactly one eviction (the FIFO-oldest), not three.
        let mixed = [keys[1], keys[2], pack_key(9, 9.0)];
        cache.store(&mixed, &row_tensor(&[&[21.0], &[31.0], &[91.0]]), false).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.total_evictions(), 1, "only the fresh key needs capacity");
        assert!(!cache.contains(keys[0]), "the FIFO-oldest key makes room");
        assert!(cache.contains(mixed[2]));
    }

    #[test]
    fn invalidate_node_removes_all_times() {
        let cache = EmbedCache::new(10, 1);
        cache.store(
            &[pack_key(1, 1.0), pack_key(1, 2.0), pack_key(2, 1.0)],
            &Tensor::zeros(3, 1),
            false,
        ).unwrap();
        assert_eq!(cache.invalidate_node(1), 2);
        assert_eq!(cache.len(), 1);
        let mut out = Tensor::zeros(3, 1);
        let mask = cache.lookup(
            &[pack_key(1, 1.0), pack_key(1, 2.0), pack_key(2, 1.0)],
            &mut out,
            false,
        ).unwrap();
        assert_eq!(mask, vec![false, false, true]);
    }

    #[test]
    fn sweep_removes_only_entries_whose_key_is_stale() {
        let cache = EmbedCache::new(10, 1);
        let keys = [pack_key(1, 1.0), pack_key(1, 5.0), pack_key(1, 9.0), pack_key(2, 9.0)];
        cache.store(&keys, &Tensor::zeros(4, 1), false).unwrap();
        // Stale: node 1 entries with t > 4.0. Node 2 is untouched even
        // though its time matches. Unbounded, so all four are examined.
        let (removed, retained) = cache.sweep(None, 0, |n, t| n == 1 && t > 4.0);
        assert_eq!((removed, retained), (2, 2));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(keys[0]) && cache.contains(keys[3]));
        assert!(!cache.contains(keys[1]) && !cache.contains(keys[2]));
        assert_eq!(cache.total_invalidated(), 2);
    }

    #[test]
    fn bounded_sweep_examines_only_entries_keyed_after_the_cutoff() {
        let cache = EmbedCache::new(10, 1);
        let keys = [pack_key(1, 1.0), pack_key(2, 5.0), pack_key(3, 9.0)];
        cache.store(&keys, &Tensor::zeros(3, 1), false).unwrap();
        // Even an always-stale predicate cannot reach the entry at t <= te,
        // which is neither removed nor counted as retained.
        let (removed, retained) = cache.sweep(Some(4.0), 0, |_, _| true);
        assert_eq!((removed, retained), (2, 0));
        assert!(cache.contains(keys[0]));
        assert!(!cache.contains(keys[1]) && !cache.contains(keys[2]));
    }

    #[test]
    fn accounting_identity_inserted_equals_evicted_plus_invalidated_plus_resident() {
        let cache = EmbedCache::new(3, 1);
        for i in 0..5u32 {
            cache.store(&[pack_key(i, i as f32)], &Tensor::zeros(1, 1), false).unwrap();
        }
        cache.invalidate_node(3);
        cache.sweep(Some(1.0), 0, |_, _| true);
        cache.store(&[pack_key(9, 1.0)], &Tensor::zeros(1, 1), false).unwrap();
        cache.clear(); // clear counts as invalidation
        cache.store(&[pack_key(10, 1.0)], &Tensor::zeros(1, 1), false).unwrap();
        assert_eq!(
            cache.total_inserted(),
            cache.total_evictions() + cache.total_invalidated() + cache.len() as u64,
            "inserted {} != evicted {} + invalidated {} + resident {}",
            cache.total_inserted(),
            cache.total_evictions(),
            cache.total_invalidated(),
            cache.len()
        );
    }

    #[test]
    fn eviction_skips_invalidated_entries() {
        let cache = EmbedCache::new(3, 1);
        for i in 0..3u32 {
            cache.store(&[pack_key(i, 0.0)], &Tensor::zeros(1, 1), false).unwrap();
        }
        cache.invalidate_node(0);
        assert_eq!(cache.len(), 2);
        // Storing two more must evict exactly one live entry (key 1) while
        // skipping the stale FIFO slot for key 0.
        cache.store(&[pack_key(10, 0.0), pack_key(11, 0.0)], &Tensor::zeros(2, 1), false).unwrap();
        assert!(cache.len() <= 3);
        let mut out = Tensor::zeros(1, 1);
        assert_eq!(cache.lookup(&[pack_key(11, 0.0)], &mut out, false).unwrap(), vec![true]);
    }

    #[test]
    fn oversized_store_counts_only_admitted_rows() {
        // A single call exceeding the whole limit must not inflate the
        // `stores` counter with rows it silently dropped.
        let cache = EmbedCache::new(2, 1);
        let keys: Vec<u64> = (0..4u32).map(|i| pack_key(i, 0.0)).collect();
        cache.store(&keys, &Tensor::zeros(4, 1), false).unwrap();
        assert_eq!(cache.total_stores(), 2, "only admitted rows count as stores");
        assert_eq!(cache.total_store_dropped(), 2, "dropped rows are surfaced");
        // A fitting store drops nothing.
        cache.store(&[pack_key(9, 0.0)], &Tensor::zeros(1, 1), false).unwrap();
        assert_eq!(cache.total_stores(), 3);
        assert_eq!(cache.total_store_dropped(), 2);
    }

    #[test]
    fn restore_after_invalidation_does_not_duplicate_fifo_rows() {
        let cache = EmbedCache::new(10, 1);
        let keys: Vec<u64> = (0..3u32).map(|i| pack_key(i, 1.0)).collect();
        cache.store(&keys, &row_tensor(&[&[0.0], &[1.0], &[2.0]]), false).unwrap();
        cache.invalidate_node(1);
        cache.store(&[keys[1]], &Tensor::from_vec(1, 1, vec![9.0]), false).unwrap();
        let export = cache.export_fifo_order();
        let exported: Vec<u64> = export.iter().map(|(k, _)| *k).collect();
        // Exactly once, at its re-store (newest) position.
        assert_eq!(exported, vec![keys[0], keys[2], keys[1]]);
        assert_eq!(export[2].1.as_ref(), &[9.0]);
    }

    #[test]
    fn eviction_after_restore_treats_the_entry_as_young() {
        let cache = EmbedCache::new(3, 1);
        let keys: Vec<u64> = (0..3u32).map(|i| pack_key(i, 1.0)).collect();
        cache.store(&keys, &Tensor::zeros(3, 1), false).unwrap();
        cache.invalidate_node(0);
        cache.store(&[keys[0]], &Tensor::zeros(1, 1), false).unwrap();
        // FIFO age order is now 1, 2, 0. Two more stores must evict keys 1
        // and 2 — not the re-stored key 0 via its stale front slot.
        cache.store(
            &[pack_key(10, 0.0), pack_key(11, 0.0)],
            &Tensor::zeros(2, 1),
            false,
        ).unwrap();
        assert!(cache.contains(keys[0]), "re-stored entry must survive as youngest");
        assert!(!cache.contains(keys[1]) && !cache.contains(keys[2]));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn fifo_queue_stays_bounded_when_the_cache_never_fills() {
        // Under the limit nothing is ever evicted, so nothing pops: each
        // invalidate + re-store used to leave one more slot queued forever.
        let cache = EmbedCache::new(1000, 1);
        let bystanders: Vec<u64> = (10..14u32).map(|i| pack_key(i, 1.0)).collect();
        cache.store(&bystanders, &Tensor::zeros(4, 1), false).unwrap();
        let k = [pack_key(1, 2.0)];
        for round in 0..10_000 {
            cache.store(&k, &Tensor::from_vec(1, 1, vec![round as f32]), false).unwrap();
            assert_eq!(cache.invalidate_node(1), 1);
            // The store left <= 2 * len + 1 slots; the sweep then took one entry.
            let slots = cache.fifo.lock().len();
            assert!(slots <= 2 * cache.len() + 3, "round {round}: {slots} slots for {} entries", cache.len());
        }
        cache.store(&k, &Tensor::from_vec(1, 1, vec![-1.0]), false).unwrap();
        let export = cache.export_fifo_order();
        let exported: Vec<u64> = export.iter().map(|(key, _)| *key).collect();
        assert_eq!(exported, [&bystanders[..], &k[..]].concat(), "each live key once, re-store last");
        assert_eq!(export[4].1.as_ref(), &[-1.0]);
        assert_eq!(cache.total_inserted(), cache.total_invalidated() + cache.len() as u64);
    }

    #[test]
    fn constraint_sweep_removes_only_entries_whose_sample_is_hit() {
        let cache = EmbedCache::new(10, 1);
        let keys = [pack_key(1, 5.0), pack_key(2, 6.0), pack_key(3, 7.0)];
        // Entry 1's subgraph read node 8's window at t=4; entry 2's read
        // node 9's at t=5; entry 3 has no fingerprint (conservative).
        let constraints = vec![
            vec![pack_key(1, 5.0), pack_key(8, 4.0)].into_boxed_slice(),
            vec![pack_key(2, 6.0), pack_key(9, 5.0)].into_boxed_slice(),
            Box::default(),
        ];
        cache.store_with_constraints(&keys, &Tensor::zeros(3, 1), constraints).unwrap();
        // Edge at te=4.5: only pairs with time > 4.5 can be entered; say
        // the edge lands in node 9's window but not node 1's or 2's own.
        let (removed, retained) = cache.sweep(Some(4.5), 1, |n, t| t > 4.5 && n == 9);
        assert_eq!((removed, retained), (2, 1), "entry 2 (hit) and entry 3 (no fp) go");
        assert!(cache.contains(keys[0]));
        assert!(!cache.contains(keys[1]) && !cache.contains(keys[2]));
        // Entries at t <= te are never examined.
        let (removed, retained) = cache.sweep(Some(9.0), 1, |_, _| true);
        assert_eq!((removed, retained), (0, 0));
        assert!(cache.contains(keys[0]));
        // A node flush is the same question with another predicate: it
        // reaches the survivor through its fingerprint, not its key.
        assert_eq!(cache.invalidate_node(8), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn a_missing_fingerprint_means_what_the_depth_says() {
        // Overwriting a constrained entry through the plain store path
        // leaves it unrecorded, not freshly guaranteed.
        let cache = EmbedCache::new(10, 1);
        let k = [pack_key(1, 5.0)];
        let fp = vec![vec![pack_key(1, 5.0), pack_key(8, 4.0)].into_boxed_slice()];
        cache.store_with_constraints(&k, &Tensor::zeros(1, 1), fp).unwrap();
        cache.store(&k, &Tensor::zeros(1, 1), false).unwrap();
        // In a layer-1 table the key is the whole fingerprint: provably fresh.
        assert_eq!(cache.sweep(Some(4.0), 0, |_, _| false), (0, 1));
        // In a deep table its reach is unknown: dropped without asking.
        assert_eq!(cache.sweep(Some(4.0), 1, |_, _| false), (1, 0));
    }

    #[test]
    fn bytes_used_follows_fingerprints_through_every_way_out() {
        let row = std::mem::size_of::<f32>();
        let pair = std::mem::size_of::<u64>();
        let cache = EmbedCache::new(2, 1);
        let fp = |n: u32| vec![(0..n).map(|i| pack_key(100 + i, 1.0)).collect::<Box<[u64]>>()];
        let (a, b, c) = ([pack_key(1, 5.0)], [pack_key(2, 5.0)], [pack_key(3, 5.0)]);
        cache.store_with_constraints(&a, &Tensor::zeros(1, 1), fp(3)).unwrap();
        assert_eq!(cache.bytes_used(), row + 3 * pair);
        // Overwrite: the old fingerprint's bytes leave with it.
        cache.store_with_constraints(&a, &Tensor::zeros(1, 1), fp(5)).unwrap();
        assert_eq!(cache.bytes_used(), row + 5 * pair);
        // Eviction of `a` (limit 2) takes its five pairs along.
        cache.store_with_constraints(&b, &Tensor::zeros(1, 1), fp(2)).unwrap();
        cache.store_with_constraints(&c, &Tensor::zeros(1, 1), fp(4)).unwrap();
        assert_eq!(cache.total_evictions(), 1);
        assert_eq!(cache.bytes_used(), 2 * row + 6 * pair);
        // Sweep of `b`, then clear of `c`.
        assert_eq!(cache.sweep(None, 1, |n, _| n == 2), (1, 1));
        assert_eq!(cache.bytes_used(), row + 4 * pair);
        cache.clear();
        assert_eq!(cache.bytes_used(), 0);
    }

    #[test]
    fn layer_caches_default_config_has_single_table() {
        // 2 layers, last layer uncached => only layer 1 is cached, with the
        // full budget (the paper's configuration).
        let lc = LayerCaches::new(2, false, 100, 4);
        assert!(lc.layer(0).is_none(), "layer 0 is feature lookup, never cached");
        assert!(lc.layer(1).is_some());
        assert!(lc.layer(2).is_none());
        assert_eq!(lc.limit(), 100);
        assert_eq!(lc.dim(), Some(4));
        assert!(lc.is_empty());
    }

    #[test]
    fn layer_caches_split_budget_when_caching_all_layers() {
        let lc = LayerCaches::new(3, true, 90, 4);
        assert!(lc.layer(1).is_some() && lc.layer(2).is_some() && lc.layer(3).is_some());
        assert_eq!(lc.limit(), 90);
        assert_eq!(lc.layer(1).unwrap().limit(), 30);
    }

    #[test]
    fn layer_caches_same_key_different_layers_do_not_collide() {
        let lc = LayerCaches::new(2, true, 100, 1);
        let key = [pack_key(5, 3.0)];
        lc.layer(1).unwrap().store(&key, &Tensor::from_vec(1, 1, vec![1.0]), false).unwrap();
        lc.layer(2).unwrap().store(&key, &Tensor::from_vec(1, 1, vec![2.0]), false).unwrap();
        let mut o1 = Tensor::zeros(1, 1);
        let mut o2 = Tensor::zeros(1, 1);
        assert_eq!(lc.layer(1).unwrap().lookup(&key, &mut o1, false).unwrap(), vec![true]);
        assert_eq!(lc.layer(2).unwrap().lookup(&key, &mut o2, false).unwrap(), vec![true]);
        assert_eq!(o1.get(0, 0), 1.0);
        assert_eq!(o2.get(0, 0), 2.0);
        assert_eq!(lc.len(), 2);
    }

    #[test]
    fn layer_caches_aggregate_invalidation_and_clear() {
        let lc = LayerCaches::new(2, true, 100, 1);
        lc.layer(1).unwrap().store(&[pack_key(5, 1.0)], &Tensor::zeros(1, 1), false).unwrap();
        lc.layer(2).unwrap().store(&[pack_key(5, 2.0)], &Tensor::zeros(1, 1), false).unwrap();
        assert_eq!(lc.invalidate_node(5), 2);
        lc.layer(1).unwrap().store(&[pack_key(6, 1.0)], &Tensor::zeros(1, 1), false).unwrap();
        lc.clear();
        assert!(lc.is_empty());
        assert_eq!(lc.bytes_used(), 0);
    }

    #[test]
    fn single_layer_model_without_last_layer_caching_caches_nothing() {
        let lc = LayerCaches::new(1, false, 100, 4);
        assert!(lc.layer(1).is_none());
        assert_eq!(lc.dim(), None);
        assert_eq!(lc.limit(), 0);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_on_fresh_cache() {
        let cache = EmbedCache::new(10, 4);
        assert_eq!(cache.total_lookups(), 0);
        assert_eq!(cache.hit_rate(), 0.0);
        assert!(!cache.hit_rate().is_nan());
        // One miss then one hit: rate becomes well-defined and exact.
        let k = [pack_key(1, 1.0)];
        let mut out = Tensor::zeros(1, 4);
        let _ = cache.lookup(&k, &mut out, false).unwrap();
        cache.store(&k, &Tensor::zeros(1, 4), false).unwrap();
        let _ = cache.lookup(&k, &mut out, false).unwrap();
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// The indexed sweep against the scan it replaced: a naive model keeps
    /// the entries in one FIFO-ordered `Vec` and filters *every* key with
    /// the old `unpack_key(key).1 <= te` rule.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        struct Model {
            limit: usize,
            /// `(key, row value, fingerprint)`, oldest first.
            live: Vec<(u64, f32, Vec<u64>)>,
            inserted: u64,
            evicted: u64,
            invalidated: u64,
        }

        impl Model {
            fn evict(&mut self, n: usize) {
                let n = n.min(self.live.len());
                self.live.drain(..n);
                self.evicted += n as u64;
            }

            fn store(&mut self, keys: &[u64], vals: &[f32], fps: &[Vec<u64>]) {
                let skip = keys.len() - keys.len().min(self.limit);
                let mut fresh: Vec<u64> = keys[skip..].to_vec();
                fresh.sort_unstable();
                fresh.dedup();
                fresh.retain(|k| !self.live.iter().any(|e| e.0 == *k));
                self.evict((self.live.len() + fresh.len()).saturating_sub(self.limit));
                for j in skip..keys.len() {
                    let new = (keys[j], vals[j], fps[j].clone());
                    match self.live.iter_mut().find(|e| e.0 == keys[j]) {
                        Some(e) => *e = new,
                        None => {
                            self.live.push(new);
                            self.inserted += 1;
                        }
                    }
                }
                self.evict(self.live.len().saturating_sub(self.limit));
            }

            fn sweep(
                &mut self,
                after: Option<Time>,
                levels: usize,
                stale: impl Fn(NodeId, Time) -> bool,
            ) -> (usize, usize) {
                let pair_stale = |pk: u64| {
                    let (y, t) = unpack_key(pk);
                    stale(y, t)
                };
                let mut retained = 0;
                let before = self.live.len();
                self.live.retain(|(key, _, fp)| {
                    if after.is_some_and(|te| unpack_key(*key).1 <= te) {
                        return true;
                    }
                    let hit = (fp.is_empty() && levels > 0)
                        || pair_stale(*key)
                        || fp.iter().any(|&pk| pair_stale(pk));
                    retained += usize::from(!hit);
                    !hit
                });
                let removed = before - self.live.len();
                self.invalidated += removed as u64;
                (removed, retained)
            }
        }

        const TIMES: [Time; 12] = [
            f32::NEG_INFINITY, -2.0, -0.0, 0.0, 1.0, 1.0000001, 2.0, 3.5, f32::MAX,
            f32::INFINITY, f32::NAN, -f32::NAN,
        ];

        fn key_of(x: u32) -> u64 {
            pack_key(x % 5, TIMES[(x / 5) as usize % TIMES.len()])
        }

        fn check(cache: &EmbedCache, model: &Model) -> Result<(), TestCaseError> {
            let got: Vec<(u64, f32)> =
                cache.export_fifo_order().iter().map(|(k, row)| (*k, row[0])).collect();
            let want: Vec<(u64, f32)> = model.live.iter().map(|e| (e.0, e.1)).collect();
            prop_assert_eq!(got, want, "survivors in FIFO order");
            prop_assert_eq!(cache.len(), model.live.len());
            prop_assert_eq!(
                (cache.total_inserted(), cache.total_evictions(), cache.total_invalidated()),
                (model.inserted, model.evicted, model.invalidated)
            );
            prop_assert_eq!(
                cache.total_inserted(),
                cache.total_evictions() + cache.total_invalidated() + cache.len() as u64
            );
            let words: usize = model.live.iter().map(|e| e.2.len()).sum();
            prop_assert_eq!(cache.bytes_used(), 4 * model.live.len() + 8 * words);
            for shard in &cache.shards {
                let shard = shard.read();
                let indexed: Vec<u64> = shard.by_time.iter().map(|&tm| from_time_major(tm)).collect();
                let mut mapped: Vec<u64> = shard.map.keys().copied().collect();
                mapped.sort_unstable_by_key(|&k| time_major(k));
                prop_assert_eq!(indexed, mapped, "index and map hold the same keys");
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn indexed_sweep_matches_the_full_scan_it_replaced(
                limit in 2usize..24,
                ops in proptest::collection::vec((0u32..10, any::<u32>(), any::<u32>(), any::<u32>()), 1..60),
            ) {
                let cache = EmbedCache::new(limit, 1);
                let mut model =
                    Model { limit, live: Vec::new(), inserted: 0, evicted: 0, invalidated: 0 };
                for (step, &(kind, x, y, z)) in ops.iter().enumerate() {
                    match kind {
                        // Stores of 1..=4 keys (repeats within a call and
                        // overwrites included), half of them fingerprinted,
                        // a fingerprint in three left empty.
                        0..=5 => {
                            let keys: Vec<u64> =
                                (0..1 + z % 4).map(|i| key_of(x.wrapping_add(i.wrapping_mul(y)))).collect();
                            let vals: Vec<f32> = (0..keys.len()).map(|i| (step * 8 + i) as f32).collect();
                            let h = Tensor::from_vec(keys.len(), 1, vals.clone());
                            let fps: Vec<Vec<u64>> = keys.iter().enumerate().map(|(i, &k)| {
                                if kind < 3 || (y as usize + i).is_multiple_of(3) { vec![] } else { vec![k, key_of(y.wrapping_add(i as u32))] }
                            }).collect();
                            if kind < 3 {
                                cache.store(&keys, &h, false).unwrap();
                            } else {
                                let boxed = fps.iter().map(|fp| fp.clone().into_boxed_slice()).collect();
                                cache.store_with_constraints(&keys, &h, boxed).unwrap();
                            }
                            let inserted = model.inserted;
                            model.store(&keys, &vals, &fps);
                            if model.inserted > inserted {
                                prop_assert!(cache.fifo.lock().len() <= 2 * cache.len() + 1);
                            }
                        }
                        6..=8 => {
                            // kind 8 is the unbounded sweep; te also takes
                            // every edge-case time, NaN included.
                            let after = (kind < 8).then(|| TIMES[x as usize % TIMES.len()]);
                            let levels = (y % 2) as usize;
                            let stale = |n: NodeId, t: Time| n % 3 == z % 3 || t.to_bits() % 7 == z % 7;
                            prop_assert_eq!(
                                cache.sweep(after, levels, stale),
                                model.sweep(after, levels, stale),
                                "step {}: sweep({:?}, {})", step, after, levels
                            );
                        }
                        _ => {
                            cache.clear();
                            model.invalidated += model.live.len() as u64;
                            model.live.clear();
                        }
                    }
                    check(&cache, &model)?;
                }
            }
        }
    }

    #[test]
    fn clear_and_bytes_used() {
        let cache = EmbedCache::new(10, 8);
        cache.store(&[pack_key(1, 1.0)], &Tensor::zeros(1, 8), false).unwrap();
        assert_eq!(cache.bytes_used(), 32);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_used(), 0);
    }
}
