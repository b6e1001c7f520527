//! The embedding memoization cache (§4.2, Algorithm 3).
//!
//! A sharded concurrent hash table maps the collision-free `(node, time)`
//! key to a cached embedding row. Capacity is bounded by an item limit
//! (paper default 2M ≈ <1 GiB at 100 dims) with FIFO eviction. A changing
//! graph invalidates nothing (the paper's §7 future work, after comemo's
//! constrained memoization): an entry records what its row depends on
//! (its fingerprint, [`crate::fingerprint`]) and the epoch of the history
//! it was computed over, and a lookup returns it only if every one of
//! those dependencies still holds for the reader's history, a live view
//! or a built graph ([`EmbedCache::lookup_in`]). A cache follows one
//! history: two live graphs that took different appends must not share
//! one. The paper parallelizes
//! `CacheLookup` and, on the GPU host, `CacheStore` across keys (§5.1.3);
//! here each is one loop over the keys, and the `parallel` arguments that
//! still carry the paper's switch are ignored.

#![deny(clippy::disallowed_types)]

use crate::edgeproj::EdgeProjTable;
use crate::hash::unpack_key;
use parking_lot::{Mutex, RwLock};
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use tg_error::TgError;
use tg_graph::{TemporalGraph, Versioned};
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
    shards: Vec<RwLock<FxHashMap<u64, Entry>>>,
    /// The admission lock: every change to the map (store, eviction,
    /// clear) happens under it, so the queue and the totals always agree
    /// with the shards. Lookups take only shard read locks.
    fifo: Mutex<Fifo>,
    limit: usize,
    dim: usize,
    lookups: AtomicU64,
    hits: AtomicU64,
    /// Entries a checked lookup found but refused (counted as misses).
    rejected: AtomicU64,
    /// Checked hits accepted only after the slow path.
    revalidated: AtomicU64,
}

/// The eviction queue and the write-side totals, guarded by
/// [`EmbedCache`]'s `fifo` lock.
#[derive(Default)]
struct Fifo {
    /// The key of every live entry, oldest insert first: exactly one slot
    /// per entry, so `len()` is this queue's length.
    keys: VecDeque<u64>,
    /// Recorded pairs (`u64` words) held by live entries, so `bytes_used`
    /// charges dependency records as well as embedding rows.
    words: usize,
    stores: u64,
    /// Fresh keys actually inserted (a subset of `stores`, which counts
    /// attempted rows). Every inserted entry leaves the cache through
    /// exactly one of eviction, `clear`, or residency, giving the
    /// accounting identity `inserted == evictions + cleared + len()`.
    inserted: u64,
    evictions: u64,
    /// Entries removed by [`EmbedCache::clear`].
    cleared: u64,
    /// Rows silently dropped at admission because a single `store` call
    /// exceeded the whole item limit (the oldest rows of that call). These
    /// never reach a shard and are *not* counted in `stores`.
    store_dropped: u64,
}

/// A cached embedding row plus what it was computed from.
struct Entry {
    row: Box<[f32]>,
    /// Temporal-subgraph fingerprint: packed `(node, time)` pairs whose
    /// most-recent-`k` windows this embedding's computation sampled (the
    /// entry's own `(node, time)` plus every interior pair of its recursive
    /// frontier). Empty means "unrecorded", which is read by the table's
    /// depth: a layer-1 entry depends on its own key alone, a deeper one
    /// (warm-restored, or plain-stored) on an unknown set.
    constraint: Box<[u64]>,
    /// An epoch at which every pair is known to hold: the compute
    /// source's, raised by lookups that re-check the pairs at a later
    /// epoch (0 for a plain-stored entry). The pairs hold at every epoch
    /// from the compute epoch up to this one. An overwrite replaces it
    /// with row and record.
    valid_at: AtomicU64,
}

impl Entry {
    /// The pairs the row depends on: its record, or its key alone where
    /// it recorded nothing (a layer-1 row).
    fn pairs<'a>(&'a self, key: &'a u64) -> &'a [u64] {
        if self.constraint.is_empty() {
            std::slice::from_ref(key)
        } else {
            &self.constraint
        }
    }
}

/// The one-load check: `pair`'s window is the same for the reader as at
/// `valid_at` if its node's last change is at most `min(valid_at, epoch)`.
/// Nothing at or after that epoch reached the node, so the reader's
/// history of it and the one the pair held for contain the same
/// interactions.
fn unchanged<S: Versioned>(source: &S, pair: u64, valid_at: u64) -> bool {
    source.last_change(unpack_key(pair).0).is_some_and(|stamp| stamp <= valid_at.min(source.epoch()))
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
            shards: (0..NUM_SHARDS).map(|_| RwLock::new(FxHashMap::default())).collect(),
            fifo: Mutex::new(Fifo::default()),
            limit,
            dim,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            revalidated: AtomicU64::new(0),
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
    /// mask, taking every live entry at its word. Missing rows are
    /// untouched (the engine fills them after recomputation), avoiding an
    /// intermediate tensor exactly as §4.2.2 describes. Errors if `out` is
    /// not `[keys.len(), dim]`. The engine uses [`EmbedCache::lookup_in`];
    /// the perf ledger's probe uses this one.
    ///
    /// # Invariants
    ///
    /// - `out` retains its previous contents in every row whose key missed.
    /// - The hit/lookup counters grow by exactly `keys.len()` attempted and
    ///   `mask.count_ones()` hit; no map or FIFO state changes.
    ///
    /// `_parallel` is ignored; the perf ledger's probe still passes it, and
    /// ROADMAP 5(f) drops it.
    pub fn lookup(&self, keys: &[u64], out: &mut Tensor, _parallel: bool) -> Result<Vec<bool>, TgError> {
        self.lookup_impl(keys, out, None::<(&TemporalGraph, usize)>, None)
    }

    /// `CacheLookup` for a reader of `source`, a live view or a frozen
    /// graph, in a table whose entries sit `levels` sampling levels above
    /// layer 0 (layer `l` has `levels = l - 1`): a live entry counts as a
    /// hit only if every window it depends on is the same in `source` as
    /// when its row was computed. Otherwise it is *rejected* — a miss the
    /// caller recomputes and overwrites. With `pairs` (one slot per key),
    /// each hit's slot receives the pairs its row depends on, read with
    /// the row; an absent key's slot is left as it was, a rejected one's
    /// may have been overwritten.
    ///
    /// The check per entry: each pair `(y, t')` whose node's
    /// [`Versioned::last_change`] is at most `min(valid_at, epoch)` is
    /// unchanged (one load). The rest are asked of [`Versioned::holds`]
    /// since `valid_at`, after the shard lock is released (a view's check
    /// takes the graph's own lock): did an append between the two epochs
    /// touch `y` strictly before `t'`? If none did the hit is
    /// *revalidated* and the entry's `valid_at` rises to the reader's
    /// epoch, so the next reader takes the one-load path again. A deep
    /// entry without a fingerprint never passes.
    ///
    /// # Invariants
    ///
    /// - Every returned row equals what recomputing its key over `source`
    ///   gives (DESIGN.md "One validity question").
    /// - `out` (and `pairs`) retain their previous contents in every row
    ///   whose key was absent; a rejected row may have been overwritten.
    /// - Counters: lookups grow by `keys.len()`, hits by the accepted
    ///   keys, `rejected` and `revalidated` by their verdicts; the map and
    ///   FIFO do not change, only revalidated entries' `valid_at`.
    pub fn lookup_in<S: Versioned>(
        &self,
        keys: &[u64],
        out: &mut Tensor,
        source: &S,
        levels: usize,
        pairs: Option<&mut [Box<[u64]>]>,
    ) -> Result<Vec<bool>, TgError> {
        self.lookup_impl(keys, out, Some((source, levels)), pairs)
    }

    fn lookup_impl<S: Versioned>(
        &self,
        keys: &[u64],
        out: &mut Tensor,
        under: Option<(&S, usize)>,
        mut pairs: Option<&mut [Box<[u64]>]>,
    ) -> Result<Vec<bool>, TgError> {
        if out.shape() != (keys.len(), self.dim) || pairs.as_ref().is_some_and(|p| p.len() != keys.len()) {
            return Err(TgError::shape(
                "EmbedCache::lookup output",
                format_args!("({}, {})", keys.len(), self.dim),
                format_args!("{:?}", out.shape()),
            ));
        }
        self.lookups.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let mut mask = vec![false; keys.len()];
        let mut recheck = Vec::new(); // the pairs that fail the one-load check
        let (mut rejected, mut revalidated) = (0u64, 0u64);
        for (i, ((row, hit), &key)) in out.as_mut_slice().chunks_mut(self.dim).zip(&mut mask).zip(keys).enumerate() {
            let shard = self.shards[shard_of(key)].read();
            let Some(entry) = shard.get(&key) else { continue };
            let Some((source, levels)) = under else {
                row.copy_from_slice(&entry.row);
                *hit = true;
                continue;
            };
            // A deep entry without a fingerprint cannot be shown to hold.
            if entry.constraint.is_empty() && levels > 0 {
                rejected += 1;
                continue;
            }
            let since = entry.valid_at.load(Ordering::Acquire);
            recheck.clear();
            recheck.extend(entry.pairs(&key).iter().filter(|&&pair| !unchanged(source, pair, since)));
            row.copy_from_slice(&entry.row);
            if let Some(pairs) = pairs.as_deref_mut() {
                pairs[i] = entry.pairs(&key).into();
            }
            drop(shard);
            if !recheck.is_empty() {
                let holds = recheck.iter().all(|&pair| {
                    let (y, t) = unpack_key(pair);
                    source.holds(y, t, since)
                });
                if !holds {
                    rejected += 1;
                    continue;
                }
                revalidated += 1;
                self.restamp(key, since, &recheck, source);
            }
            *hit = true;
        }
        let n_hits = mask.iter().filter(|&&h| h).count() as u64;
        self.hits.fetch_add(n_hits, Ordering::Relaxed);
        if rejected > 0 {
            self.rejected.fetch_add(rejected, Ordering::Relaxed);
        }
        if revalidated > 0 {
            self.revalidated.fetch_add(revalidated, Ordering::Relaxed);
        }
        Ok(mask)
    }

    /// Raises `key`'s `valid_at` to the reader's epoch after the pairs
    /// `held` (sorted, as every record is) were shown unchanged between
    /// `since` and there. Whichever entry now carries the key — the one
    /// checked, or one stored over it since — is raised only if each of
    /// its pairs is in `held` or passes the one-load check, and its
    /// `valid_at` reaches `since`: its pairs hold from its compute epoch
    /// up to its `valid_at`, so that span meets the one just checked (an
    /// older reader's row, recomputed before appends the checked row had
    /// seen, does not).
    fn restamp<S: Versioned>(&self, key: u64, since: u64, held: &[u64], source: &S) {
        let shard = self.shards[shard_of(key)].read();
        if let Some(e) = shard.get(&key) {
            let unmoved = e.pairs(&key).iter().all(|p| held.binary_search(p).is_ok() || unchanged(source, *p, since));
            if e.valid_at.load(Ordering::Acquire) >= since && unmoved {
                e.valid_at.fetch_max(source.epoch(), Ordering::AcqRel);
            }
        }
    }

    /// `CacheStore` (Algorithm 3): evicts FIFO-oldest entries if the new
    /// rows would exceed the limit, then inserts row `i` of `h` under
    /// `keys[i]`, with no dependency record and `valid_at = 0`. Errors if
    /// `h` is not `[keys.len(), dim]`. The engine uses
    /// [`EmbedCache::store_in`]; a warm restore (`persist::load`) and the
    /// perf ledger's probe use this one.
    ///
    /// # Invariants
    ///
    /// - `len() <= limit()` at every instant, under any number of
    ///   concurrent stores: admission runs whole under the `fifo` lock.
    /// - Re-storing an existing key overwrites in place, keeping its FIFO
    ///   slot, so `len()` only counts distinct live keys.
    /// - Every key newly inserted by this call is appended to the FIFO
    ///   exactly once, after all older entries; a key re-stored after
    ///   `clear` starts its FIFO age from this call.
    /// - The `stores` counter grows by the number of *admitted* rows only;
    ///   rows dropped because this one call exceeds the whole limit are
    ///   counted in [`EmbedCache::total_store_dropped`] instead.
    ///
    /// `_parallel` is ignored, as in [`EmbedCache::lookup`].
    pub fn store(&self, keys: &[u64], h: &Tensor, _parallel: bool) -> Result<(), TgError> {
        self.store_impl(keys, h, None, 0)
    }

    /// Like [`EmbedCache::store`] for rows computed over `source`: each is
    /// stamped `valid_at = source.epoch()` and, with `records`, records
    /// `records[i]` beside row `i`. Without `records` an entry depends on
    /// its key alone, which is all a layer-1 row reads. Errors if
    /// `records.len() != keys.len()`.
    ///
    /// # Invariants
    ///
    /// - Same capacity/FIFO/counter behavior as [`EmbedCache::store`].
    /// - Row `i`, its record and its `valid_at` are installed atomically
    ///   under one shard lock; an overwrite replaces all three, and
    ///   `bytes_used()` moves by the difference.
    pub fn store_in<S: Versioned>(
        &self,
        keys: &[u64],
        h: &Tensor,
        records: Option<Vec<Box<[u64]>>>,
        source: &S,
    ) -> Result<(), TgError> {
        self.store_impl(keys, h, records, source.epoch())
    }

    fn store_impl(
        &self,
        keys: &[u64],
        h: &Tensor,
        mut records: Option<Vec<Box<[u64]>>>,
        valid_at: u64,
    ) -> Result<(), TgError> {
        let n_records = records.as_ref().map_or(keys.len(), Vec::len);
        if h.shape() != (keys.len(), self.dim) || n_records != keys.len() {
            return Err(TgError::shape(
                "EmbedCache::store input",
                format_args!("({}, {}), one record per row", keys.len(), self.dim),
                format_args!("{:?}, {n_records} records", h.shape()),
            ));
        }
        if keys.is_empty() {
            return Ok(());
        }
        // If a single store call exceeds the whole limit, keep the newest.
        let skip = keys.len() - keys.len().min(self.limit);
        let entries: Vec<Entry> = h.as_slice()[skip * self.dim..]
            .chunks(self.dim)
            .enumerate()
            .map(|(j, row)| {
                let record = records.as_mut().map(|v| std::mem::take(&mut v[skip + j])).unwrap_or_default();
                Entry { row: row.into(), constraint: record, valid_at: AtomicU64::new(valid_at) }
            })
            .collect();
        let keys = &keys[skip..];
        let distinct: FxHashSet<u64> = keys.iter().copied().collect();

        let mut guard = self.fifo.lock();
        let fifo = &mut *guard;
        fifo.store_dropped += skip as u64;
        fifo.stores += keys.len() as u64;
        // Only keys not already cached consume capacity: overwrites keep
        // their slot, and repeated keys within one call insert once.
        let fresh = distinct.iter().filter(|&&k| !self.contains(k)).count();
        self.evict(fifo, (fifo.keys.len() + fresh).saturating_sub(self.limit));
        for (&key, entry) in keys.iter().zip(entries) {
            fifo.words += entry.constraint.len();
            match self.shards[shard_of(key)].write().entry(key) {
                MapEntry::Occupied(mut live) => fifo.words -= live.insert(entry).constraint.len(),
                MapEntry::Vacant(free) => {
                    free.insert(entry);
                    fifo.keys.push_back(key);
                    fifo.inserted += 1;
                }
            }
        }
        // The eviction above may have taken a key of this call that was
        // cached, which then came back as a fresh insert.
        self.evict(fifo, fifo.keys.len().saturating_sub(self.limit));
        Ok(())
    }

    /// True if `key` is currently cached.
    pub fn contains(&self, key: u64) -> bool {
        self.shards[shard_of(key)].read().contains_key(&key)
    }

    /// Snapshot of all live entries in FIFO (oldest-first) order, for
    /// persistence.
    ///
    /// # Invariants
    ///
    /// - Every live entry is emitted exactly once, at its queue position:
    ///   a key re-stored after `clear` appears at its re-store position.
    pub fn export_fifo_order(&self) -> Vec<(u64, Box<[f32]>)> {
        let fifo = self.fifo.lock();
        let row = |key: u64| Some((key, self.shards[shard_of(key)].read().get(&key)?.row.clone()));
        fifo.keys.iter().filter_map(|&key| row(key)).collect()
    }

    /// Removes the `n` oldest entries (`n <= len()`), under the `fifo` lock.
    fn evict(&self, fifo: &mut Fifo, n: usize) {
        for key in fifo.keys.drain(..n) {
            let entry = self.shards[shard_of(key)].write().remove(&key);
            fifo.words -= entry.map_or(0, |e| e.constraint.len());
        }
        fifo.evictions += n as u64;
    }

    /// Removes everything.
    ///
    /// # Invariants
    ///
    /// - All shards and the FIFO queue empty under one `fifo` critical
    ///   section, so `len() == 0` and `bytes_used() == 0` on return, and
    ///   no concurrent store can leave an entry without its slot.
    /// - Lifetime counters (lookups/hits/stores/evictions) are preserved;
    ///   the dropped entries count as cleared, keeping the
    ///   `inserted == evictions + cleared + len()` identity intact.
    pub fn clear(&self) {
        let mut fifo = self.fifo.lock();
        for shard in &self.shards {
            shard.write().clear();
        }
        fifo.cleared += fifo.keys.len() as u64;
        fifo.keys.clear();
        fifo.words = 0;
    }

    /// Current number of cached embeddings.
    pub fn len(&self) -> usize {
        self.fifo.lock().keys.len()
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

    /// Payload memory in bytes: embedding floats plus recorded pairs (FIFO
    /// slots and map overhead are not counted). Entries no
    /// reader will accept again still count until evicted or overwritten.
    pub fn bytes_used(&self) -> usize {
        let fifo = self.fifo.lock();
        fifo.keys.len() * self.dim * std::mem::size_of::<f32>() + fifo.words * std::mem::size_of::<u64>()
    }

    /// Total keys looked up.
    pub fn total_lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Total lookup hits (rejected entries are not hits).
    pub fn total_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total rows admitted by `store` (rows dropped because a single call
    /// exceeded the whole limit are counted in
    /// [`EmbedCache::total_store_dropped`] instead).
    pub fn total_stores(&self) -> u64 {
        self.fifo.lock().stores
    }

    /// Total rows dropped at admission because one `store` call exceeded
    /// the whole item limit.
    pub fn total_store_dropped(&self) -> u64 {
        self.fifo.lock().store_dropped
    }

    /// Total evicted entries.
    pub fn total_evictions(&self) -> u64 {
        self.fifo.lock().evictions
    }

    /// Total fresh keys actually inserted (distinct from
    /// [`EmbedCache::total_stores`], which counts attempted rows).
    pub fn total_inserted(&self) -> u64 {
        self.fifo.lock().inserted
    }

    /// Total entries removed by [`EmbedCache::clear`].
    pub fn total_cleared(&self) -> u64 {
        self.fifo.lock().cleared
    }

    /// Total entries a checked lookup found and refused.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Total checked hits accepted only after the slow path.
    pub fn total_revalidated(&self) -> u64 {
        self.revalidated.load(Ordering::Relaxed)
    }

    /// Lifetime hit rate.
    #[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
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
    /// Layer-1 edge projections, shared like the embedding tables.
    edge_proj: EdgeProjTable,
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
        f.debug_struct("LayerCaches").field("per_layer", &layers).field("edge_proj", &self.edge_proj.stats()).finish()
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
        Self::from_parts(per_layer)
    }

    /// Rebuilds from explicit per-layer caches (index = layer); used by the
    /// persistence module. The edge-projection table starts empty.
    pub fn from_parts(per_layer: Vec<Option<EmbedCache>>) -> Self {
        Self { per_layer, edge_proj: EdgeProjTable::new() }
    }

    /// The layer-1 edge-projection table every engine over these caches
    /// shares (not counted in [`Self::bytes_used`]: see its own stats).
    pub fn edge_proj(&self) -> &EdgeProjTable {
        &self.edge_proj
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

    /// Total cleared entries across layers.
    pub fn total_cleared(&self) -> u64 {
        self.iter().map(|c| c.total_cleared()).sum()
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
    use crate::fingerprint;
    use crate::hash::pack_key;
    use tg_graph::{Edge, EdgeStream, LiveGraph, TemporalGraph, Time};

    /// A recorded fingerprint.
    fn recorded(pairs: &[u64]) -> Box<[u64]> {
        pairs.into()
    }

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
    fn accounting_identity_inserted_equals_evicted_plus_cleared_plus_resident() {
        let cache = EmbedCache::new(3, 1);
        for i in 0..5u32 {
            cache.store(&[pack_key(i, i as f32)], &Tensor::zeros(1, 1), false).unwrap();
        }
        cache.store(&[pack_key(4, 4.0)], &Tensor::zeros(1, 1), false).unwrap(); // an overwrite
        cache.clear();
        cache.store(&[pack_key(9, 1.0), pack_key(10, 1.0)], &Tensor::zeros(2, 1), false).unwrap();
        assert_eq!((cache.total_inserted(), cache.total_evictions(), cache.total_cleared()), (7, 2, 3));
        assert_eq!(
            cache.total_inserted(),
            cache.total_evictions() + cache.total_cleared() + cache.len() as u64,
            "inserted {} != evicted {} + cleared {} + resident {}",
            cache.total_inserted(),
            cache.total_evictions(),
            cache.total_cleared(),
            cache.len()
        );
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
    fn a_missing_fingerprint_means_what_the_depth_says() {
        // Overwriting a constrained entry through the plain store path
        // leaves it unrecorded, not freshly guaranteed.
        let g = TemporalGraph::from_edges(10, &[]);
        let cache = EmbedCache::new(10, 1);
        let k = [pack_key(1, 5.0)];
        let fp = vec![recorded(&[pack_key(1, 5.0), pack_key(8, 4.0)])];
        cache.store_in(&k, &Tensor::zeros(1, 1), Some(fp), &g).unwrap();
        cache.store(&k, &Tensor::zeros(1, 1), false).unwrap();
        let mut out = Tensor::zeros(1, 1);
        // In a layer-1 table the key is the whole fingerprint: it holds.
        assert_eq!(cache.lookup_in(&k, &mut out, &g, 0, None).unwrap(), [true]);
        // In a deep table its reach is unknown: refused without asking.
        assert_eq!(cache.lookup_in(&k, &mut out, &g, 1, None).unwrap(), [false]);
        assert_eq!(cache.total_rejected(), 1);
    }

    #[test]
    fn bytes_used_follows_fingerprints_through_every_way_out() {
        let row = std::mem::size_of::<f32>();
        let pair = std::mem::size_of::<u64>();
        let g = TemporalGraph::from_edges(0, &[]);
        let cache = EmbedCache::new(2, 1);
        let fp = |n: u32| Some(vec![recorded(&(0..n).map(|i| pack_key(100 + i, 1.0)).collect::<Vec<_>>())]);
        let (a, b, c) = ([pack_key(1, 5.0)], [pack_key(2, 5.0)], [pack_key(3, 5.0)]);
        cache.store_in(&a, &Tensor::zeros(1, 1), fp(3), &g).unwrap();
        assert_eq!(cache.bytes_used(), row + 3 * pair);
        // Overwrite: the old fingerprint's bytes leave with it.
        cache.store_in(&a, &Tensor::zeros(1, 1), fp(5), &g).unwrap();
        assert_eq!(cache.bytes_used(), row + 5 * pair);
        // Eviction of `a` (limit 2) takes its five pairs along.
        cache.store_in(&b, &Tensor::zeros(1, 1), fp(2), &g).unwrap();
        cache.store_in(&c, &Tensor::zeros(1, 1), fp(4), &g).unwrap();
        assert_eq!(cache.total_evictions(), 1);
        assert_eq!(cache.bytes_used(), 2 * row + 6 * pair);
        // A plain overwrite of `b`, then a clear.
        cache.store(&b, &Tensor::zeros(1, 1), false).unwrap();
        assert_eq!(cache.bytes_used(), 2 * row + 4 * pair);
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
    fn layer_caches_aggregate_clear() {
        let lc = LayerCaches::new(2, true, 100, 1);
        lc.layer(1).unwrap().store(&[pack_key(5, 1.0)], &Tensor::zeros(1, 1), false).unwrap();
        lc.layer(2).unwrap().store(&[pack_key(5, 2.0)], &Tensor::zeros(1, 1), false).unwrap();
        lc.clear();
        assert!(lc.is_empty());
        assert_eq!(lc.bytes_used(), 0);
        assert_eq!((lc.total_inserted(), lc.total_cleared()), (2, 2));
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

    /// Stores, checked lookups and clears against a naive model that keeps
    /// the entries in one FIFO-ordered `Vec`: survivors and their order,
    /// every lookup's rows, every counter, the bytes and the accounting
    /// identity agree after each step.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        struct Model {
            limit: usize,
            /// `(key, row value, fingerprint, recorded words)`, oldest first.
            live: Vec<(u64, f32, Vec<u64>, usize)>,
            inserted: u64,
            evicted: u64,
            cleared: u64,
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
                    let words = fps[j].len();
                    let new = (keys[j], vals[j], fps[j].clone(), words);
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

            /// What a checked lookup over a built graph returns:
            /// every live entry's row, a deep table's only with a
            /// fingerprint.
            fn lookup(&self, keys: &[u64], levels: usize) -> Vec<Option<f32>> {
                let live = |k: &u64| self.live.iter().find(|e| e.0 == *k);
                keys.iter().map(|k| live(k).filter(|e| levels == 0 || !e.2.is_empty()).map(|e| e.1)).collect()
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
                (cache.total_inserted(), cache.total_evictions(), cache.total_cleared()),
                (model.inserted, model.evicted, model.cleared)
            );
            prop_assert_eq!(
                cache.total_inserted(),
                cache.total_evictions() + cache.total_cleared() + cache.len() as u64
            );
            let words: usize = model.live.iter().map(|e| e.3).sum();
            prop_assert_eq!(cache.bytes_used(), 4 * model.live.len() + 8 * words);
            let entries: usize = cache.shards.iter().map(|s| s.read().len()).sum();
            prop_assert_eq!(cache.fifo.lock().keys.len(), entries, "one FIFO slot per live entry");
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn store_lookup_clear_and_fifo_match_a_naive_model(
                limit in 2usize..24,
                ops in proptest::collection::vec((0u32..10, any::<u32>(), any::<u32>(), any::<u32>()), 1..60),
            ) {
                let cache = EmbedCache::new(limit, 1);
                let graph = TemporalGraph::from_edges(5, &[]);
                let view = LiveGraph::new(graph.clone()).view();
                let mut model =
                    Model { limit, live: Vec::new(), inserted: 0, evicted: 0, cleared: 0 };
                for (step, &(kind, x, y, z)) in ops.iter().enumerate() {
                    match kind {
                        // Stores of 1..=4 keys (repeats within a call and
                        // overwrites included), half of them fingerprinted
                        // (one in three of those over a view), a fingerprint
                        // in three left empty.
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
                                let records = fps.iter().map(|fp| recorded(fp)).collect();
                                if kind == 5 {
                                    cache.store_in(&keys, &h, Some(records), &view).unwrap();
                                } else {
                                    cache.store_in(&keys, &h, Some(records), &graph).unwrap();
                                }
                            }
                            model.store(&keys, &vals, &fps);
                        }
                        6..=8 => {
                            let levels = (y % 2) as usize;
                            let keys: Vec<u64> =
                                (0..1 + z % 4).map(|i| key_of(x.wrapping_add(i.wrapping_mul(y)))).collect();
                            let mut out = Tensor::zeros(keys.len(), 1);
                            let mask = cache.lookup_in(&keys, &mut out, &graph, levels, None).unwrap();
                            let got: Vec<Option<f32>> =
                                mask.iter().enumerate().map(|(i, &hit)| hit.then(|| out.get(i, 0))).collect();
                            prop_assert_eq!(got, model.lookup(&keys, levels), "step {}: lookup_in(.., {})", step, levels);
                        }
                        _ => {
                            cache.clear();
                            model.cleared += model.live.len() as u64;
                            model.live.clear();
                        }
                    }
                    check(&cache, &model)?;
                }
            }
        }
    }

    #[test]
    fn view_pinned_lookups_reject_revalidate_and_restamp() {
        // Nodes 0 and 2 each have two interactions before t = 5.
        let edges: Vec<Edge> = [(0, 1, 1.0), (0, 1, 2.0), (2, 3, 1.0), (2, 3, 2.0)]
            .into_iter()
            .enumerate()
            .map(|(i, (src, dst, time))| Edge { src, dst, time, eid: i as u32 })
            .collect();
        let live = LiveGraph::new(TemporalGraph::from_edges(6, &edges));
        let v0 = live.view();
        let cache = EmbedCache::new(10, 1);
        let keys = [pack_key(0, 5.0), pack_key(2, 5.0), pack_key(4, 5.0)];
        let records = fingerprint::capture_many(&v0, 2, &[0, 2, 4], &[5.0; 3], 0);
        cache.store_in(&keys, &Tensor::zeros(3, 1), Some(records), &v0).unwrap();
        let valid_at = |key: u64| cache.shards[shard_of(key)].read()[&key].valid_at.load(Ordering::Relaxed);
        assert_eq!(valid_at(keys[0]), 4);

        // Node 0 gains an interaction after t = 5 (its window holds), node
        // 2 one before it (its window moves); node 4 is never touched.
        live.append(&Edge { src: 0, dst: 5, time: 6.0, eid: 4 });
        live.append(&Edge { src: 2, dst: 5, time: 3.0, eid: 5 });
        let v2 = live.view();
        let mut out = Tensor::zeros(3, 1);
        assert_eq!(cache.lookup_in(&keys, &mut out, &v2, 0, None).unwrap(), [true, false, true]);
        assert_eq!((cache.total_revalidated(), cache.total_rejected()), (1, 1));
        assert_eq!(cache.total_hits(), 2, "a rejected entry is not a hit");
        // The revalidated entry now holds at v2's epoch: the next reader
        // there clears it by its stamp alone.
        assert_eq!(valid_at(keys[0]), v2.epoch());
        let mut one = Tensor::zeros(1, 1);
        assert_eq!(cache.lookup_in(&keys[..1], &mut one, &v2, 0, None).unwrap(), [true]);
        assert_eq!(cache.total_revalidated(), 1);
        // A reader at the older view re-reads the postings (node 0's stamp is
        // past its epoch), accepts, and does not lower `valid_at`.
        assert_eq!(cache.lookup_in(&keys[..1], &mut one, &v0, 0, None).unwrap(), [true]);
        assert_eq!((cache.total_revalidated(), valid_at(keys[0])), (2, v2.epoch()));
        // The entry node 2 moved is still there for a reader at v0.
        assert_eq!(cache.lookup_in(&keys[1..2], &mut one, &v0, 0, None).unwrap(), [true]);

        // Plain-stored: valid_at 0, read as the base's history. Node 4
        // never saw an append and node 0's came after t = 5, so their rows
        // pass; node 2's append before t = 5 refuses its row.
        cache.store(&keys, &Tensor::zeros(3, 1), false).unwrap();
        assert_eq!(cache.lookup_in(&keys, &mut out, &v2, 0, None).unwrap(), [true, false, true]);
        // A deep table reads a missing fingerprint as "unknown": rejected.
        assert_eq!(cache.lookup_in(&keys[2..], &mut one, &v2, 1, None).unwrap(), [false]);
        // Without a view, every live entry is taken at its word.
        assert_eq!(cache.lookup(&keys, &mut out, false).unwrap(), [true; 3]);
    }

    #[test]
    fn lookups_after_a_compaction_read_the_folded_log() {
        // Nodes 0, 2 and 4 each have two interactions before t = 5.
        let stream = EdgeStream::new(&[0, 2, 4, 0, 2, 4], &[1, 3, 5, 1, 3, 5], &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        let live = LiveGraph::new(TemporalGraph::from_stream(&stream)).with_compact_threshold(usize::MAX);
        let v0 = live.view();
        let cache = EmbedCache::new(10, 1);
        let keys = [pack_key(0, 5.0), pack_key(2, 5.0), pack_key(4, 5.0)];
        // Layer-1 rows record nothing; a deep row its pairs.
        cache.store_in(&keys, &Tensor::zeros(3, 1), None, &v0).unwrap();
        let deep = EmbedCache::new(10, 1);
        let records = fingerprint::capture_many(&v0, 2, &[0], &[5.0], 1);
        deep.store_in(&keys[..1], &Tensor::zeros(1, 1), Some(records), &v0).unwrap();
        assert_eq!((cache.bytes_used(), deep.bytes_used()), (3 * 4, 4 + 3 * 8));
        let valid_at = |key: u64| cache.shards[shard_of(key)].read()[&key].valid_at.load(Ordering::Relaxed);

        // Node 0 gains an interaction after t = 5; nodes 2 and 4 one
        // before it, node 4's below both of its own. Compaction folds
        // all three into the base, so the view reads them from its log.
        live.append(&Edge { src: 0, dst: 5, time: 6.0, eid: 6 });
        live.append(&Edge { src: 2, dst: 5, time: 3.0, eid: 7 });
        live.append(&Edge { src: 4, dst: 3, time: 0.5, eid: 8 });
        live.compact();
        let v = live.view();
        assert_eq!(v.neighbors_before_vec(4, 5.0).len(), 3);
        let mut out = Tensor::zeros(3, 1);
        assert_eq!(cache.lookup_in(&keys, &mut out, &v, 0, None).unwrap(), [true, false, false]);
        assert_eq!((cache.total_revalidated(), cache.total_rejected()), (1, 2));
        // The row that held now holds at the view's epoch: the next
        // lookup clears it by its last change alone.
        assert_eq!(valid_at(keys[0]), v.epoch());
        let mut one = Tensor::zeros(1, 1);
        assert_eq!(cache.lookup_in(&keys[..1], &mut one, &v, 0, None).unwrap(), [true]);
        assert_eq!(cache.total_revalidated(), 1);
        // The deep row read node 0's window at t = 5 and, as leaves, node
        // 1's at t = 1 and t = 2: node 0's append is after t = 5 and node
        // 1 took none, until one lands below both leaves.
        assert_eq!(deep.lookup_in(&keys[..1], &mut one, &v, 1, None).unwrap(), [true]);
        live.append(&Edge { src: 1, dst: 3, time: 0.5, eid: 9 });
        live.compact();
        assert_eq!(deep.lookup_in(&keys[..1], &mut one, &live.view(), 1, None).unwrap(), [false]);
    }

    #[test]
    fn restamp_raises_only_an_entry_that_held_at_since() {
        // An entry stored at epoch 1; two more appends follow, none near it.
        let live = LiveGraph::new(TemporalGraph::from_edges(6, &[]));
        live.append(&Edge { src: 0, dst: 1, time: 1.0, eid: 0 });
        let cache = EmbedCache::new(10, 1);
        let key = pack_key(4, 5.0);
        cache.store_in(&[key], &Tensor::zeros(1, 1), None, &live.view()).unwrap();
        live.append(&Edge { src: 2, dst: 3, time: 1.0, eid: 1 });
        live.append(&Edge { src: 4, dst: 5, time: 9.0, eid: 2 });
        let v3 = live.view();
        let valid_at = || cache.shards[shard_of(key)].read()[&key].valid_at.load(Ordering::Relaxed);
        // Shown to hold from epoch 2 on: an entry stored over the checked
        // one at epoch 1 is not known to hold at 2, so it keeps its stamp.
        cache.restamp(key, 2, &[key], &v3);
        assert_eq!(valid_at(), 1);
        cache.restamp(key, 1, &[key], &v3);
        assert_eq!(valid_at(), 3);
        // Pairs neither shown to hold nor untouched since block it too.
        let deep = EmbedCache::new(10, 1);
        deep.store_in(&[key], &Tensor::zeros(1, 1), Some(vec![recorded(&[key, pack_key(5, 4.0)])]), &v3).unwrap();
        live.append(&Edge { src: 5, dst: 0, time: 2.0, eid: 3 });
        let v4 = live.view();
        deep.restamp(key, 3, &[key], &v4);
        assert_eq!(deep.shards[shard_of(key)].read()[&key].valid_at.load(Ordering::Relaxed), 3);
        deep.restamp(key, 3, &[key, pack_key(5, 4.0)], &v4);
        assert_eq!(deep.shards[shard_of(key)].read()[&key].valid_at.load(Ordering::Relaxed), 4);
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
