//! Live streaming ingest: an append-friendly delta-log beside an
//! immutable T-CSR, with epoch-stamped consistent views for concurrent
//! readers.
//!
//! The paper's replay workloads build the graph once before inference,
//! but a deployed system interleaves edge arrivals with queries.
//! [`LiveGraph`] keeps the bulk of the adjacency in an immutable
//! [`TemporalGraph`] (*base*) and routes appends into a small per-node
//! sorted *delta* beside it. Readers take a [`GraphView`] — an
//! `Arc`-pinned generation plus an epoch (the count of edges submitted so
//! far) — and see exactly the prefix of the edge stream up to that epoch,
//! no matter how many writers append concurrently.
//!
//! Epoch protocol (modeled in `tests/loom_concurrency.rs`):
//!
//! * `append` holds `gen.read` + `delta.write`, assigns the edge the next
//!   global sequence number, inserts it time-sorted into both endpoints'
//!   delta postings, stamps both endpoints' `last_append` with `seq + 1`,
//!   and only then publishes `epoch = seq + 1` with a `Release` store
//!   (still inside the delta lock).
//! * `view` holds `gen.read`, clones the generation `Arc`, and loads the
//!   epoch with `Acquire` — so a view whose epoch covers an edge is
//!   guaranteed to observe its posting and its endpoints' stamps.
//! * Readers re-filter delta postings by `seq < epoch` under `delta.read`,
//!   so an in-flight sorted insertion that shifts positions can never leak
//!   a too-new edge into an older view. The lookup check
//!   (`Versioned::holds`) alone reads postings past its view's epoch, on
//!   purpose and under the same lock, bounded by the log length it reads
//!   there: postings and log grow together under `delta.write`.
//!
//! Compaction merges the delta log into a fresh base under `gen.write`
//! and swaps in a new generation; pinned views keep the old
//! generation (whose delta is never mutated again) alive through their
//! `Arc`, so a long-running wave stays consistent across any number of
//! compactions.

use crate::graph::AdjEntry;
use crate::{Edge, EdgeId, NodeId, TemporalGraph, Time, Versioned};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Recovers the guard from a poisoned `read`. All guarded state here is
/// kept consistent by construction (sorted inserts never leave a gap), so
/// a panicking writer cannot strand it half-updated.
fn rlock<T>(r: LockResult<RwLockReadGuard<'_, T>>) -> RwLockReadGuard<'_, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

/// Recovers the guard from a poisoned `write` (see [`rlock`]).
fn wlock<T>(r: LockResult<RwLockWriteGuard<'_, T>>) -> RwLockWriteGuard<'_, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

/// One delta posting: an adjacency entry stamped with the global sequence
/// number of the edge that produced it, so readers can filter by epoch.
#[derive(Clone, Copy, Debug)]
struct DeltaEntry {
    entry: AdjEntry,
    seq: u64,
}

/// Mutable tail of a generation: the append log (in submission order) and
/// per-node time-sorted postings with the T-CSR's undirected,
/// equal-times-after semantics.
#[derive(Debug, Default)]
struct DeltaState {
    log: Vec<Edge>,
    postings: Vec<Vec<DeltaEntry>>,
}

impl DeltaState {
    /// Sorted insert matching the T-CSR's merge (`TemporalGraph::from_edges`):
    /// chronological appends are O(1); an out-of-order entry lands *after*
    /// any equal-time entries already present (`time <= entry.time` cut),
    /// so a later submission is always the more recent interaction.
    fn push_posting(&mut self, node: NodeId, entry: AdjEntry, seq: u64) {
        let n = node as usize;
        if n >= self.postings.len() {
            self.postings.resize_with(n + 1, Vec::new);
        }
        let list = &mut self.postings[n];
        match list.last() {
            Some(last) if last.entry.time > entry.time => {
                let pos = list.partition_point(|x| x.entry.time <= entry.time);
                list.insert(pos, DeltaEntry { entry, seq });
            }
            _ => list.push(DeltaEntry { entry, seq }),
        }
    }

    fn node_postings(&self, node: NodeId) -> &[DeltaEntry] {
        self.postings.get(node as usize).map_or(&[], |v| v.as_slice())
    }
}

/// One immutable-base + mutable-delta snapshot unit. A compaction swaps
/// the whole generation; views pin the one they started on.
///
/// The base is held through an `Arc` so a [`LiveGraph`] can share one
/// T-CSR with its owner: a server layers its delta log over the
/// model bundle's graph instead of copying the (large, immutable) base.
struct Generation {
    /// T-CSR holding every edge with `seq < base_seq`.
    base: Arc<TemporalGraph>,
    /// Global sequence number of the first edge *not* in `base`.
    base_seq: u64,
    delta: RwLock<DeltaState>,
}

/// Monotonic ingest counters, read via [`IngestCounters::snapshot`] only
/// (L8): each field is an independent monotonic total, so a snapshot torn
/// across concurrent appends still never goes backwards.
#[derive(Debug, Default)]
struct IngestCounters {
    edges_appended: AtomicU64,
    compactions: AtomicU64,
}

impl IngestCounters {
    fn snapshot(&self) -> (u64, u64) {
        (self.edges_appended.load(Ordering::Relaxed), self.compactions.load(Ordering::Relaxed))
    }
}

/// Point-in-time ingest statistics of a [`LiveGraph`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Edges appended through [`LiveGraph::append`] since construction.
    pub edges_appended: u64,
    /// Delta-into-base compactions performed.
    pub compactions: u64,
    /// Edges currently in the delta log (not yet compacted).
    pub delta_edges: u64,
}

/// Delta log length at which [`LiveGraph::append`] triggers a compaction.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 4096;

/// A temporal graph that accepts concurrent appends while serving
/// consistent epoch-stamped snapshots to readers.
///
/// ```
/// use tg_graph::{Edge, LiveGraph, TemporalGraph};
///
/// let live = LiveGraph::new(TemporalGraph::from_edges(4, &[]));
/// let v0 = live.view();
/// live.append(&Edge { src: 0, dst: 1, time: 1.0, eid: 0 });
/// let v1 = live.view();
/// // v0 was taken before the append and never sees the edge; v1 does.
/// assert_eq!((v0.epoch(), v1.epoch()), (0, 1));
/// ```
pub struct LiveGraph {
    gen: RwLock<Arc<Generation>>,
    /// Published count of appended edges: an edge with global sequence
    /// number `s` is visible to exactly the views with `epoch > s`.
    /// Stored with `Release` *after* its postings land (see module docs);
    /// never used as bare branch-control — readers always confirm under
    /// the delta lock.
    epoch: AtomicU64,
    /// Per node of the base's id range: `seq + 1` of the newest appended
    /// edge touching it, 0 if none. Shared with every view, so a reader
    /// can tell "no append reached this node since epoch `e`" with one
    /// load (see [`GraphView::last_append`]).
    last_append: Arc<[AtomicU64]>,
    counters: IngestCounters,
    compact_threshold: usize,
}

impl LiveGraph {
    /// Wraps a base graph with an empty delta. Edges already in `base`
    /// occupy sequence numbers `0..base.num_edges()`.
    pub fn new(base: TemporalGraph) -> Self {
        Self::from_shared(Arc::new(base))
    }

    /// Wraps an already-shared base without copying it. Several live
    /// graphs built from the same `Arc` each get an independent delta log
    /// over one physical T-CSR. A graph a caller can hold was built, so
    /// its log is empty: a base's log only ever holds the appends this
    /// live graph's compactions fold into it.
    pub fn from_shared(base: Arc<TemporalGraph>) -> Self {
        let base_seq = base.num_edges() as u64;
        let last_append = (0..base.num_nodes()).map(|_| AtomicU64::new(0)).collect();
        Self {
            gen: RwLock::new(Arc::new(Generation {
                base,
                base_seq,
                delta: RwLock::new(DeltaState::default()),
            })),
            epoch: AtomicU64::new(base_seq),
            last_append,
            counters: IngestCounters::default(),
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
        }
    }

    /// Sets the delta-log length that triggers auto-compaction on append.
    /// A threshold of `usize::MAX` disables it (tests compact explicitly).
    pub fn with_compact_threshold(mut self, threshold: usize) -> Self {
        self.compact_threshold = threshold.max(1);
        self
    }

    /// Appends one interaction and returns its global sequence number.
    ///
    /// # Invariants
    ///
    /// * The edge's postings are inserted (both endpoints, time-sorted,
    ///   equal times after existing ones — where a cold rebuild places
    ///   it) and both endpoints' `last_append` stamps
    ///   are raised to `seq + 1` *before* the epoch advances past its
    ///   sequence number, so no view can have a visible-but-absent edge or
    ///   a visible edge its endpoints' stamps do not cover.
    /// * Sequence numbers are contiguous: this edge gets exactly
    ///   `epoch()` as observed before the call by any serialized caller.
    /// * Triggers compaction after releasing the generation lock once the
    ///   delta log reaches the configured threshold.
    pub fn append(&self, e: &Edge) -> u64 {
        match self.append_with(|_| Ok::<Edge, Infallible>(*e)) {
            Ok(seq) => seq,
            Err(never) => match never {},
        }
    }

    /// Appends `(src, dst, time)` as the edge whose id is its own sequence
    /// number, if that id is below `eid_limit` (the number of edge-feature
    /// rows the edge may index); returns the id, or `None` once the rows
    /// are used up. The id is drawn and the bound checked under the same
    /// delta lock the append takes, so concurrent callers get distinct,
    /// contiguous ids with no lock of their own. Same invariants as
    /// [`LiveGraph::append`].
    pub fn append_numbered(&self, src: NodeId, dst: NodeId, time: Time, eid_limit: u64) -> Option<EdgeId> {
        self.append_with(|seq| match EdgeId::try_from(seq) {
            Ok(eid) if seq < eid_limit => Ok(Edge { src, dst, time, eid }),
            _ => Err(()),
        })
        .ok()
        .and_then(|seq| EdgeId::try_from(seq).ok())
    }

    /// The one append path: `edge_at(seq)` names the edge for the next
    /// sequence number, or refuses it (`Err`, and nothing changes).
    fn append_with<E>(&self, edge_at: impl FnOnce(u64) -> Result<Edge, E>) -> Result<u64, E> {
        let (seq, should_compact) = {
            let gen = rlock(self.gen.read());
            let mut delta = wlock(gen.delta.write());
            let seq = gen.base_seq + delta.log.len() as u64;
            let e = edge_at(seq)?;
            delta.log.push(e);
            delta.push_posting(e.src, AdjEntry { time: e.time, ngh: e.dst, eid: e.eid }, seq);
            delta.push_posting(e.dst, AdjEntry { time: e.time, ngh: e.src, eid: e.eid }, seq);
            for node in [e.src, e.dst] {
                if let Some(last_append) = self.last_append.get(node as usize) {
                    // relaxed-ok: appends are serialized by the delta lock, so stamps only grow, and the Release epoch store below publishes this one to every view whose epoch covers `seq`
                    last_append.store(seq + 1, Ordering::Relaxed);
                }
            }
            // Publish while still holding the delta lock: a view taken
            // after this store is guaranteed to find the postings.
            self.epoch.store(seq + 1, Ordering::Release);
            (seq, delta.log.len() >= self.compact_threshold)
        };
        self.counters.edges_appended.fetch_add(1, Ordering::Relaxed);
        if should_compact {
            self.compact();
        }
        Ok(seq)
    }

    /// Takes a consistent snapshot: everything submitted before this call
    /// is visible, nothing submitted after ever becomes visible.
    pub fn view(&self) -> GraphView {
        let gen = rlock(self.gen.read());
        // Acquire pairs with `append`'s Release: an epoch that covers an
        // edge implies its postings are visible to this thread.
        let epoch = self.epoch.load(Ordering::Acquire);
        GraphView { gen: Arc::clone(&gen), epoch, last_append: Arc::clone(&self.last_append) }
    }

    /// Total edges submitted (base + delta). Equals the epoch a fresh
    /// [`LiveGraph::view`] would carry, and the sequence number the next
    /// append will assign if callers serialize their submissions.
    pub fn num_edges_total(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Merges the delta log into a fresh base and swaps in a new
    /// empty-delta generation.
    ///
    /// # Invariants
    ///
    /// * Merges the log, in sequence order, with the base in one pass
    ///   (`TemporalGraph::with_appends`), so the new base is bit-identical
    ///   to a cold rebuild of the full stream prefix. Its log holds
    ///   exactly the appends compacted so far, each at epoch `seq + 1`:
    ///   views ask it about the appends no longer in their postings
    ///   (`Versioned::holds`).
    /// * Existing views keep the old generation alive via their `Arc`;
    ///   its delta is never mutated again, so they stay consistent.
    /// * The epoch does not move: compaction changes representation, not
    ///   visibility.
    pub fn compact(&self) {
        let mut gen_slot = wlock(self.gen.write());
        let folded = {
            let delta = rlock(gen_slot.delta.read());
            if delta.log.is_empty() {
                return;
            }
            let base = gen_slot.base.with_appends(&delta.log, gen_slot.base_seq);
            let base_seq = gen_slot.base_seq + delta.log.len() as u64;
            Generation { base: Arc::new(base), base_seq, delta: RwLock::new(DeltaState::default()) }
        };
        *gen_slot = Arc::new(folded);
        self.counters.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the ingest counters plus the current delta backlog.
    pub fn ingest_stats(&self) -> IngestStats {
        let (edges_appended, compactions) = self.counters.snapshot();
        let delta_edges = {
            let gen = rlock(self.gen.read());
            let delta = rlock(gen.delta.read());
            delta.log.len() as u64
        };
        IngestStats { edges_appended, compactions, delta_edges }
    }
}

/// An epoch-stamped snapshot of a [`LiveGraph`]: a pinned generation plus
/// the visibility horizon. Cheap to clone; safe to hold across
/// compactions and concurrent appends.
#[derive(Clone)]
pub struct GraphView {
    gen: Arc<Generation>,
    epoch: u64,
    last_append: Arc<[AtomicU64]>,
}

impl GraphView {
    /// The visibility horizon: edges with sequence numbers `< epoch` are
    /// visible, everything newer is not.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `seq + 1` of the newest appended edge touching `node` (0 if none),
    /// or `None` for an id past the base graph's node range. It is at
    /// least `s + 1` for every appended edge `s < epoch()` touching
    /// `node`, so a stamp `<= e` (for `e <= epoch()`) proves no append at
    /// or after `e` that this view can see reached `node`. It may already
    /// count appends newer than the view: the stamp is the live graph's,
    /// not the snapshot's.
    pub fn last_append(&self, node: NodeId) -> Option<u64> {
        // relaxed-ok: `view` loaded the epoch with Acquire after every append below it stored its stamps, so each covered stamp is visible; a newer one only makes the answer more conservative
        self.last_append.get(node as usize).map(|last_append| last_append.load(Ordering::Relaxed))
    }

    /// Total visible edges (the stream prefix length this view serves).
    pub fn num_edges(&self) -> u64 {
        self.epoch
    }

    /// Node-id address space: the base graph's, extended by any delta
    /// postings for larger ids.
    pub fn num_nodes(&self) -> usize {
        let delta = rlock(self.gen.delta.read());
        // lint: allow(lock-held-effects, name-only resolution maps this onto the workspace's other num_nodes impls; the receiver is the immutable base snapshot whose num_nodes reads a field and takes no locks)
        self.gen.base.num_nodes().max(delta.postings.len())
    }

    /// Visible interactions of `node` strictly before `t` — the temporal
    /// neighborhood size `|N(node, t)|` this view serves.
    pub fn hist_len_before(&self, node: NodeId, t: Time) -> usize {
        let base = self.gen.base.neighbors_before(node, t);
        let delta = rlock(self.gen.delta.read());
        let d = delta.node_postings(node);
        let cut = d.partition_point(|x| x.entry.time < t);
        base.len() + d[..cut].iter().filter(|x| x.seq < self.epoch).count()
    }

    /// Streams the last `take` visible interactions of `node` strictly
    /// before `t`, in chronological order (`f(slot, entry)` with slot 0
    /// the oldest of the window). `take` must not exceed
    /// [`GraphView::hist_len_before`]; excess slots are left uncalled.
    ///
    /// The merge walks base and delta backward from the `t` cutoff,
    /// preferring delta at equal times (a delta edge was submitted later,
    /// hence is the more recent interaction — matching where a cold
    /// rebuild, `TemporalGraph::from_edges`, places it).
    pub fn most_recent<F: FnMut(usize, AdjEntry)>(&self, node: NodeId, t: Time, take: usize, mut f: F) {
        let base = self.gen.base.neighbors_before(node, t);
        let delta = rlock(self.gen.delta.read());
        let d = delta.node_postings(node);
        let cut = d.partition_point(|x| x.entry.time < t);
        let d = &d[..cut];
        let mut bi = base.len();
        let mut di = d.len();
        let mut slot = take;
        while slot > 0 {
            while di > 0 && d[di - 1].seq >= self.epoch {
                di -= 1;
            }
            slot -= 1;
            if di > 0 && (bi == 0 || d[di - 1].entry.time >= base[bi - 1].time) {
                f(slot, d[di - 1].entry);
                di -= 1;
            } else if bi > 0 {
                f(slot, base[bi - 1]);
                bi -= 1;
            } else {
                // take exceeded the visible history; leave the rest unfilled.
                return;
            }
        }
    }

    /// The `i`-th (0-based, chronological) visible interaction of `node`
    /// strictly before `t`, or `None` past the end. Random access for the
    /// uniform sampling strategy; O(history) forward merge.
    pub fn nth_before(&self, node: NodeId, t: Time, i: usize) -> Option<AdjEntry> {
        let base = self.gen.base.neighbors_before(node, t);
        let delta = rlock(self.gen.delta.read());
        let d = delta.node_postings(node);
        let cut = d.partition_point(|x| x.entry.time < t);
        let mut di = d[..cut].iter().filter(|x| x.seq < self.epoch);
        let mut next_d = di.next();
        let mut bi = base.iter();
        let mut next_b = bi.next();
        let mut idx = 0;
        loop {
            // Forward tie rule: base first (it was submitted earlier).
            let pick_base = match (next_b, next_d) {
                (Some(b), Some(dd)) => b.time <= dd.entry.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => return None,
            };
            let entry = if pick_base {
                let e = *next_b?;
                next_b = bi.next();
                e
            } else {
                let e = next_d?.entry;
                next_d = di.next();
                e
            };
            if idx == i {
                return Some(entry);
            }
            idx += 1;
        }
    }

    /// Collects the visible neighborhood before `t` into a vector
    /// (chronological). Test/diagnostic helper — the samplers use the
    /// streaming accessors above.
    pub fn neighbors_before_vec(&self, node: NodeId, t: Time) -> Vec<AdjEntry> {
        let len = self.hist_len_before(node, t);
        let mut out = vec![AdjEntry { time: 0.0, ngh: 0, eid: 0 }; len];
        self.most_recent(node, t, len, |slot, e| out[slot] = e);
        out
    }
}

/// A live view answers the cache's validity question from its
/// generation's postings.
impl Versioned for GraphView {
    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn last_change(&self, node: NodeId) -> Option<u64> {
        self.last_append(node)
    }

    /// True if no append between `since` and this view's epoch touched
    /// `node` strictly before `t`: the frozen graph's rule. Appends a
    /// compaction folded into the base are in its log; the rest are
    /// postings. A `since` past this view's epoch asks about appends the
    /// view cannot see, which are in its generation's postings unless a
    /// compaction took them to a later generation: then it refuses.
    ///
    /// The node's postings are time-sorted whatever order they arrived
    /// in, so the ones below `t` are a prefix, scanned for a `seq` between
    /// the epochs.
    fn holds(&self, node: NodeId, t: Time, since: u64) -> bool {
        let (lo, hi) = (since.min(self.epoch), since.max(self.epoch));
        let delta = rlock(self.gen.delta.read());
        if !self.gen.base.holds(node, t, lo) || hi > self.gen.base_seq + delta.log.len() as u64 {
            return false;
        }
        let d = delta.node_postings(node);
        d[..d.partition_point(|x| x.entry.time < t)].iter().all(|x| x.seq < lo || x.seq >= hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Versioned;

    fn edge(src: NodeId, dst: NodeId, time: Time, eid: crate::EdgeId) -> Edge {
        Edge { src, dst, time, eid }
    }

    /// Node 0 meets nodes 1, 2 and 3 at times 1, 2 and 3, over 6 node ids.
    fn base_edges() -> Vec<Edge> {
        (1..=3u32).map(|i| edge(0, i, i as Time, i - 1)).collect()
    }

    fn base_line() -> TemporalGraph {
        TemporalGraph::from_edges(6, &base_edges())
    }

    /// Cold rebuild: the base's edges and then `extra`, in submission
    /// order, built at once — the ground truth every view must agree with.
    fn rebuild(extra: &[Edge]) -> TemporalGraph {
        TemporalGraph::from_edges(6, &[base_edges(), extra.to_vec()].concat())
    }

    fn assert_view_matches(view: &GraphView, truth: &TemporalGraph, node: NodeId, t: Time) {
        let expect = truth.neighbors_before(node, t);
        assert_eq!(view.hist_len_before(node, t), expect.len(), "len for ({node}, {t})");
        assert_eq!(view.neighbors_before_vec(node, t), expect.to_vec(), "entries for ({node}, {t})");
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(view.nth_before(node, t, i), Some(*e), "nth {i} for ({node}, {t})");
        }
        assert_eq!(view.nth_before(node, t, expect.len()), None);
    }

    #[test]
    fn view_pins_the_epoch_at_creation() {
        let live = LiveGraph::new(base_line());
        let v0 = live.view();
        assert_eq!(v0.epoch(), 3);
        live.append(&edge(0, 4, 4.0, 3));
        let v1 = live.view();
        assert_eq!(v0.epoch(), 3);
        assert_eq!(v1.epoch(), 4);
        assert_eq!(v0.hist_len_before(0, 10.0), 3, "old view must not see the append");
        assert_eq!(v1.hist_len_before(0, 10.0), 4);
    }

    #[test]
    fn view_equals_cold_rebuild_including_out_of_order_and_ties() {
        let live = LiveGraph::new(base_line());
        let extra = [
            edge(0, 4, 5.0, 3),
            edge(0, 5, 2.0, 4), // out of order: lands between base times 2 and 3
            edge(1, 2, 2.0, 5), // exact tie with base time 2.0 on node 2
            edge(0, 0, 6.0, 6), // self-loop: two postings on node 0
        ];
        for e in &extra {
            live.append(e);
        }
        let truth = rebuild(&extra);
        let view = live.view();
        for node in 0..6u32 {
            for t in [0.5, 2.0, 2.5, 3.0, 5.5, 100.0] {
                assert_view_matches(&view, &truth, node, t);
            }
        }
    }

    #[test]
    fn compaction_preserves_views_and_visibility() {
        let live = LiveGraph::new(base_line());
        // The last two tie with base times at nodes 0, 2 and 3, so the
        // compacted base must place them after the base's entries.
        let extra = [edge(2, 3, 4.0, 3), edge(0, 5, 4.5, 4), edge(0, 4, 2.0, 5), edge(3, 2, 3.0, 6)];
        live.append(&extra[0]);
        let old_view = live.view();
        extra[1..].iter().for_each(|e| {
            live.append(e);
        });
        live.compact();
        assert_eq!(live.ingest_stats().compactions, 1);
        assert_eq!(live.ingest_stats().delta_edges, 0);

        // The pre-compaction view still serves its prefix.
        let truth_old = rebuild(&extra[..1]);
        for node in 0..6u32 {
            assert_view_matches(&old_view, &truth_old, node, 100.0);
        }
        // A fresh view serves everything, now from the compacted base.
        let truth_new = rebuild(&extra);
        let new_view = live.view();
        assert_eq!(new_view.epoch(), 7);
        for node in 0..6u32 {
            for t in [2.5, 3.5, 100.0] {
                assert_view_matches(&new_view, &truth_new, node, t);
            }
        }
        // Appends keep working after compaction, with contiguous seqs.
        assert_eq!(live.append(&edge(1, 4, 6.0, 7)), 7);
        assert_eq!(live.view().hist_len_before(1, 10.0), 2);
    }

    /// The base's epoch and per-node last edits, as a frozen reader sees them.
    fn base_log(live: &LiveGraph) -> (u64, Vec<Option<u64>>) {
        let base = Arc::clone(&rlock(live.gen.read()).base);
        (base.epoch(), (0..base.num_nodes() as NodeId).map(|n| base.last_change(n)).collect())
    }

    #[test]
    fn a_base_logs_only_the_appends_folded_into_it() {
        let built = Arc::new(base_line());
        let live = LiveGraph::from_shared(Arc::clone(&built));
        assert!(Arc::ptr_eq(&rlock(live.gen.read()).base, &built), "a shared base is not copied");
        assert_eq!(base_log(&live), (0, vec![Some(0); 6]), "a built base has logged nothing");
        live.append(&edge(0, 4, 4.0, 3));
        live.compact();
        let folded = |n| Some(if n == 0 || n == 4 { 4 } else { 0 });
        assert_eq!(base_log(&live), (4, (0..6).map(folded).collect()), "seq 3 at epoch 4");
        assert_eq!(built.epoch(), 0, "compaction builds a new base");
    }

    #[test]
    fn holds_asks_whether_an_append_between_the_epochs_reached_below_t() {
        let live = LiveGraph::new(base_line());
        let v3 = live.view();
        live.append(&edge(0, 4, 4.0, 3));
        live.append(&edge(1, 5, 2.0, 4));
        let v5 = live.view();
        // A newer reader: node 0 gained an interaction at 4.0 after epoch 3.
        assert!(v5.holds(0, 4.0, 3) && !v5.holds(0, 4.5, 3));
        assert!(v5.holds(0, 100.0, 5) && v5.holds(2, 100.0, 3), "nothing reached them");
        // An older reader, asked about a row that held at epoch 5: the
        // append it cannot see moved the window all the same.
        assert!(v3.holds(0, 4.0, 5) && !v3.holds(0, 4.5, 5));
        // An out-of-order append takes node 0's postings out of seq order.
        live.append(&edge(0, 5, 3.0, 5));
        let v6 = live.view();
        assert!(!v6.holds(0, 4.5, 4) && v6.holds(0, 3.0, 4));
        assert!(!v6.holds(0, 4.0, 3) && v6.holds(0, 3.0, 3));
        // Compaction folds seqs 3..6 into the base's log: the answers stay.
        live.compact();
        let v6c = live.view();
        assert!(!v6c.holds(0, 4.5, 4) && v6c.holds(0, 3.0, 4) && v6c.holds(2, 100.0, 3));
        assert!(!v6c.holds(1, 2.5, 4) && v6c.holds(1, 2.5, 5));
        // The old generation's postings stop at seq 6: an older reader
        // cannot rule out what was appended after it.
        live.append(&edge(2, 3, 9.0, 6));
        assert!(v6.holds(2, 100.0, 6) && !v6.holds(2, 100.0, 7));
    }

    #[test]
    fn auto_compaction_triggers_at_threshold() {
        let live = LiveGraph::new(base_line()).with_compact_threshold(2);
        live.append(&edge(0, 1, 4.0, 3));
        assert_eq!(live.ingest_stats().compactions, 0);
        live.append(&edge(0, 2, 5.0, 4));
        let stats = live.ingest_stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.delta_edges, 0);
        assert_eq!(stats.edges_appended, 2);
    }

    #[test]
    fn from_shared_gives_independent_deltas_over_one_base() {
        let base = Arc::new(base_line());
        let a = LiveGraph::from_shared(Arc::clone(&base));
        let b = LiveGraph::from_shared(Arc::clone(&base));
        a.append(&edge(0, 4, 4.0, 3));
        // a sees its append; b's delta is untouched.
        assert_eq!(a.view().hist_len_before(0, 10.0), 4);
        assert_eq!(b.view().hist_len_before(0, 10.0), 3);
        assert_eq!(a.view().epoch(), 4);
        assert_eq!(b.view().epoch(), 3);
        // Replicating the same edge into b catches it up to a.
        b.append(&edge(0, 4, 4.0, 3));
        assert_eq!(b.view().neighbors_before_vec(0, 10.0), a.view().neighbors_before_vec(0, 10.0));
    }

    #[test]
    fn node_range_grows_with_delta_postings() {
        let live = LiveGraph::new(base_line());
        assert_eq!(live.view().num_nodes(), 6);
        live.append(&edge(0, 9, 4.0, 3));
        let view = live.view();
        assert_eq!(view.num_nodes(), 10);
        assert_eq!(view.hist_len_before(9, 10.0), 1);
        // Unknown node ids past the range read as empty, not a panic.
        assert_eq!(view.hist_len_before(42, 10.0), 0);
        assert_eq!(view.nth_before(42, 10.0, 0), None);
    }

    #[test]
    fn last_append_stamps_both_endpoints_and_ignores_the_base() {
        let live = LiveGraph::new(base_line());
        let v0 = live.view();
        // Base edges are not appends: every stamp starts at 0.
        assert!((0..6).all(|n| v0.last_append(n) == Some(0)));
        live.append(&edge(0, 4, 4.0, 3));
        live.append(&edge(4, 5, 1.0, 4));
        let v = live.view();
        assert_eq!([0, 4, 5, 1].map(|n| v.last_append(n)), [Some(4), Some(5), Some(5), Some(0)]);
        // The stamp is the live graph's: the older view reads it too.
        assert_eq!(v0.last_append(4), Some(5));
        // Ids past the base's range have no stamp.
        assert_eq!(v.last_append(6), None);
    }

    #[test]
    fn numbered_appends_take_their_seq_as_id_until_the_limit() {
        let live = LiveGraph::new(base_line());
        assert_eq!(live.append_numbered(0, 4, 4.0, 5), Some(3));
        assert_eq!(live.append_numbered(1, 5, 5.0, 5), Some(4));
        // The limit is reached: refused, and nothing changes.
        assert_eq!(live.append_numbered(2, 5, 6.0, 5), None);
        let view = live.view();
        assert_eq!(view.epoch(), 5);
        assert_eq!(view.neighbors_before_vec(5, 10.0).iter().map(|e| e.eid).collect::<Vec<_>>(), [4]);
        assert_eq!(live.ingest_stats().edges_appended, 2);
    }

    #[test]
    fn most_recent_window_matches_suffix_of_rebuild() {
        let live = LiveGraph::new(base_line());
        let extra = [edge(0, 4, 2.5, 3), edge(0, 5, 9.0, 4)];
        for e in &extra {
            live.append(e);
        }
        let truth = rebuild(&extra);
        let view = live.view();
        let full = truth.neighbors_before(0, 100.0);
        for take in 0..=full.len() {
            let mut got = vec![None; take];
            view.most_recent(0, 100.0, take, |slot, e| got[slot] = Some(e));
            let expect: Vec<Option<AdjEntry>> =
                full[full.len() - take..].iter().map(|e| Some(*e)).collect();
            assert_eq!(got, expect, "take={take}");
        }
    }
}
