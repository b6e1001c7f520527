//! Time-sorted adjacency storage for continuous-time dynamic graphs.

use crate::{Edge, EdgeId, EdgeStream, NodeId, Time, Versioned};

/// One adjacency entry: an interaction with `ngh` at `time`, whose features
/// live at row `eid` of the edge feature matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdjEntry {
    pub time: Time,
    pub ngh: NodeId,
    pub eid: EdgeId,
}

/// Physical layout of the adjacency.
///
/// * `Dynamic` — per-node growable vectors; O(1) chronological insertion.
/// * `Frozen` — a single flat CSR buffer (TGL's T-CSR): one allocation,
///   sequential per-node entries, better cache behavior for the sampler's
///   binary search + suffix scan. Built by [`TemporalGraph::freeze`];
///   mutation transparently thaws back to `Dynamic`.
#[derive(Clone, Debug)]
enum Storage {
    Dynamic(Vec<Vec<AdjEntry>>),
    Frozen { indptr: Vec<usize>, entries: Vec<AdjEntry> },
}

/// A dynamic graph as per-node, time-sorted adjacency lists.
///
/// Interactions are undirected (both endpoints see each other), following
/// the paper's treatment of all datasets as undirected graphs (§5.1.1).
/// Each node's list is kept sorted by timestamp so the most-recent sampler
/// can binary-search the temporal cutoff `t_j < t`.
///
/// Every [`TemporalGraph::insert`] and [`TemporalGraph::delete_edge`] is
/// an *edit*: it advances the graph's [`Versioned::epoch`] and is
/// logged at both endpoints, so a row memoized at an earlier epoch can be
/// checked against what changed since ([`Versioned`]).
/// A graph built by [`TemporalGraph::from_stream`] starts at epoch 0 with
/// an empty log. Clones carry the log: a clone edited apart from its
/// original is another history.
#[derive(Clone, Debug)]
pub struct TemporalGraph {
    storage: Storage,
    num_edges: usize,
    edits: Edits,
}

/// The edit log: the number of edits so far, and per node the
/// `(epoch, edge time)` of every edit that touched it, oldest first, so
/// its last element is the node's last-edit epoch. Empty until the first
/// edit; never shrinks.
#[derive(Clone, Debug, Default)]
struct Edits {
    epoch: u64,
    by_node: Vec<Vec<(u64, Time)>>,
}

impl Edits {
    /// Records one edit at time `time` touching `nodes`, as `epoch`.
    fn log(&mut self, nodes: [NodeId; 2], time: Time, epoch: u64) {
        self.epoch = epoch;
        for node in nodes {
            let n = node as usize;
            if n >= self.by_node.len() {
                self.by_node.resize_with(n + 1, Vec::new);
            }
            self.by_node[n].push((self.epoch, time));
        }
    }

    fn of(&self, node: NodeId) -> &[(u64, Time)] {
        self.by_node.get(node as usize).map_or(&[], |v| v.as_slice())
    }
}

impl TemporalGraph {
    /// An empty graph over `num_nodes` node ids.
    pub fn with_nodes(num_nodes: usize) -> Self {
        Self { storage: Storage::Dynamic(vec![Vec::new(); num_nodes]), num_edges: 0, edits: Edits::default() }
    }

    /// Builds a graph containing every interaction of the stream, in the
    /// compact frozen layout (replay workloads are read-only). Building
    /// is not editing: the graph starts at epoch 0 with nothing logged.
    pub fn from_stream(stream: &EdgeStream) -> Self {
        let mut g = Self::with_nodes(stream.num_nodes());
        for e in stream.edges() {
            g.push(e);
        }
        g.freeze();
        g
    }

    /// Compacts the adjacency into a single flat CSR buffer. Idempotent;
    /// afterwards reads are allocation-local and [`TemporalGraph::is_frozen`]
    /// reports true until the next mutation.
    pub fn freeze(&mut self) {
        let Storage::Dynamic(adj) = &self.storage else { return };
        let mut indptr = Vec::with_capacity(adj.len() + 1);
        let total: usize = adj.iter().map(|v| v.len()).sum();
        let mut entries = Vec::with_capacity(total);
        indptr.push(0);
        for list in adj {
            entries.extend_from_slice(list);
            indptr.push(entries.len());
        }
        self.storage = Storage::Frozen { indptr, entries };
    }

    /// True if the adjacency currently uses the compact layout.
    pub fn is_frozen(&self) -> bool {
        matches!(self.storage, Storage::Frozen { .. })
    }

    /// Reverts to the growable layout (no-op if already dynamic).
    fn thaw(&mut self) {
        let Storage::Frozen { indptr, entries } = &self.storage else { return };
        let adj = indptr
            .windows(2)
            .map(|w| entries[w[0]..w[1]].to_vec())
            .collect();
        self.storage = Storage::Dynamic(adj);
    }

    /// Inserts one interaction (both directions), as one logged edit.
    ///
    /// Appending is O(1) when events arrive chronologically (the normal
    /// replay case); out-of-order events fall back to sorted insertion so the
    /// per-node time order invariant always holds. A frozen graph thaws.
    pub fn insert(&mut self, e: &Edge) {
        self.push(e);
        self.edits.log([e.src, e.dst], e.time, self.edits.epoch + 1);
    }

    /// [`TemporalGraph::insert`] without the log entry: for building a
    /// graph nothing has read yet (`from_stream`), and under
    /// [`TemporalGraph::fold`].
    pub(crate) fn push(&mut self, e: &Edge) {
        self.thaw();
        // `thaw` always leaves the storage dynamic, so the guard never skips.
        if let Storage::Dynamic(adj) = &mut self.storage {
            let max = e.src.max(e.dst) as usize;
            if max >= adj.len() {
                adj.resize(max + 1, Vec::new());
            }
            Self::insert_one(&mut adj[e.src as usize], AdjEntry { time: e.time, ngh: e.dst, eid: e.eid });
            Self::insert_one(&mut adj[e.dst as usize], AdjEntry { time: e.time, ngh: e.src, eid: e.eid });
            self.num_edges += 1;
        }
    }

    /// Drops the edit log: the graph starts a new history at epoch 0. For
    /// a graph whose past edits no cache will ask about: one about to be
    /// shared read-only, or a live graph's base, whose log holds only
    /// [`TemporalGraph::fold`]s.
    pub fn forget_edits(&mut self) {
        self.edits = Edits::default();
    }

    /// Adds a live graph's append number `seq` to its compacted base,
    /// logged at epoch `seq + 1`: the epoch of the first view that saw
    /// it, so [`Versioned::holds`] answers for the base as a view does
    /// for its postings.
    pub(crate) fn fold(&mut self, e: &Edge, seq: u64) {
        self.push(e);
        self.edits.log([e.src, e.dst], e.time, seq + 1);
    }

    fn insert_one(list: &mut Vec<AdjEntry>, entry: AdjEntry) {
        match list.last() {
            Some(last) if last.time > entry.time => {
                let pos = list.partition_point(|x| x.time <= entry.time);
                list.insert(pos, entry);
            }
            _ => list.push(entry),
        }
    }

    /// Deletes the interaction identified by `eid` incident to `src`/`dst`
    /// (future-work extension of the paper, §7), as one logged edit at
    /// the deleted interaction's time. Returns true if found.
    pub fn delete_edge(&mut self, src: NodeId, dst: NodeId, eid: EdgeId) -> bool {
        self.thaw();
        let mut removed = None;
        // `thaw` always leaves the storage dynamic, so the guard never skips.
        if let Storage::Dynamic(adj) = &mut self.storage {
            for node in [src, dst] {
                if let Some(list) = adj.get_mut(node as usize) {
                    if let Some(pos) = list.iter().position(|x| x.eid == eid) {
                        removed = Some(list.remove(pos).time);
                    }
                }
            }
        }
        let Some(time) = removed else { return false };
        self.num_edges = self.num_edges.saturating_sub(1);
        self.edits.log([src, dst], time, self.edits.epoch + 1);
        true
    }

    /// Number of node ids the graph can address.
    pub fn num_nodes(&self) -> usize {
        match &self.storage {
            Storage::Dynamic(adj) => adj.len(),
            Storage::Frozen { indptr, .. } => indptr.len() - 1,
        }
    }

    /// Number of undirected interactions inserted.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The full time-sorted adjacency list of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[AdjEntry] {
        let n = node as usize;
        match &self.storage {
            Storage::Dynamic(adj) => adj.get(n).map_or(&[], |v| v.as_slice()),
            Storage::Frozen { indptr, entries } => {
                if n + 1 >= indptr.len() {
                    &[]
                } else {
                    &entries[indptr[n]..indptr[n + 1]]
                }
            }
        }
    }

    /// All interactions of `node` that happened strictly before `t` — the
    /// temporal neighborhood `N(i, t)` of the paper (§2), time-sorted.
    pub fn neighbors_before(&self, node: NodeId, t: Time) -> &[AdjEntry] {
        let list = self.neighbors(node);
        let cut = list.partition_point(|x| x.time < t);
        &list[..cut]
    }

    /// Degree of `node` counting all interactions.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }
}

/// A frozen graph answers the cache's validity question from its edit log.
impl Versioned for TemporalGraph {
    /// The number of edits ([`TemporalGraph::insert`],
    /// [`TemporalGraph::delete_edge`]) made so far: a row computed now
    /// saw every edit up to this epoch.
    fn epoch(&self) -> u64 {
        self.edits.epoch
    }

    /// The epoch of the last edit that touched `node`, 0 if none.
    fn last_change(&self, node: NodeId) -> Option<u64> {
        Some(self.edits.of(node).last().map_or(0, |&(epoch, _)| epoch))
    }

    /// True if no edit after epoch `since` touched `node` strictly before
    /// `t`. Sampling `(node, t)` reads only interactions before `t`, so
    /// then the window `W(node, t)` is the one it was at `since`: an
    /// insert or a deletion at or after `t` cannot move it, and a
    /// deletion plus an insert below `t` is two edits, caught like one.
    fn holds(&self, node: NodeId, t: Time, since: u64) -> bool {
        let log = self.edits.of(node);
        log.iter().rev().take_while(|&&(epoch, _)| epoch > since).all(|&(_, time)| time >= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(src: NodeId, dst: NodeId, time: Time, eid: EdgeId) -> Edge {
        Edge { src, dst, time, eid }
    }

    #[test]
    fn insert_is_bidirectional_and_sorted() {
        let mut g = TemporalGraph::with_nodes(3);
        g.insert(&edge(0, 1, 5.0, 0));
        g.insert(&edge(0, 2, 7.0, 1));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.neighbors(1), &[AdjEntry { time: 5.0, ngh: 0, eid: 0 }]);
        assert_eq!(g.neighbors(2), &[AdjEntry { time: 7.0, ngh: 0, eid: 1 }]);
        assert!(g.neighbors(0).windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn out_of_order_insert_keeps_time_order() {
        let mut g = TemporalGraph::with_nodes(4);
        g.insert(&edge(0, 1, 9.0, 0));
        g.insert(&edge(0, 2, 3.0, 1));
        g.insert(&edge(0, 3, 6.0, 2));
        let times: Vec<Time> = g.neighbors(0).iter().map(|e| e.time).collect();
        assert_eq!(times, vec![3.0, 6.0, 9.0]);
    }

    #[test]
    fn neighbors_before_enforces_strict_inequality() {
        let mut g = TemporalGraph::with_nodes(3);
        g.insert(&edge(0, 1, 5.0, 0));
        g.insert(&edge(0, 2, 7.0, 1));
        // t_j < t is strict: the edge at exactly t=5 is excluded.
        assert_eq!(g.neighbors_before(0, 5.0).len(), 0);
        assert_eq!(g.neighbors_before(0, 5.1).len(), 1);
        assert_eq!(g.neighbors_before(0, 100.0).len(), 2);
    }

    #[test]
    fn insert_grows_node_range() {
        let mut g = TemporalGraph::with_nodes(1);
        g.insert(&edge(0, 10, 1.0, 0));
        assert_eq!(g.num_nodes(), 11);
        assert_eq!(g.degree(10), 1);
    }

    #[test]
    fn from_stream_matches_incremental_and_is_frozen() {
        let s = EdgeStream::new(&[0, 1, 0], &[1, 2, 2], &[1.0, 2.0, 3.0]);
        let g = TemporalGraph::from_stream(&s);
        assert!(g.is_frozen());
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn freeze_preserves_every_read() {
        let mut dynamic = TemporalGraph::with_nodes(6);
        for i in 0..30u32 {
            dynamic.insert(&edge(i % 6, (i * 5 + 1) % 6, i as Time, i));
        }
        let mut frozen = dynamic.clone();
        frozen.freeze();
        assert!(frozen.is_frozen());
        assert!(!dynamic.is_frozen());
        assert_eq!(frozen.num_nodes(), dynamic.num_nodes());
        assert_eq!(frozen.num_edges(), dynamic.num_edges());
        for n in 0..6u32 {
            assert_eq!(frozen.neighbors(n), dynamic.neighbors(n));
            for t in [0.0, 3.0, 15.5, 100.0] {
                assert_eq!(frozen.neighbors_before(n, t), dynamic.neighbors_before(n, t));
            }
        }
        // Idempotent.
        frozen.freeze();
        assert!(frozen.is_frozen());
    }

    #[test]
    fn mutation_thaws_and_stays_correct() {
        let s = EdgeStream::new(&[0, 1], &[1, 2], &[1.0, 2.0]);
        let mut g = TemporalGraph::from_stream(&s);
        assert!(g.is_frozen());
        g.insert(&edge(0, 2, 3.0, 2));
        assert!(!g.is_frozen());
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        g.freeze();
        assert!(g.delete_edge(0, 2, 2));
        assert!(!g.is_frozen());
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn delete_edge_removes_both_directions() {
        let mut g = TemporalGraph::with_nodes(3);
        g.insert(&edge(0, 1, 1.0, 0));
        g.insert(&edge(0, 2, 2.0, 1));
        assert!(g.delete_edge(0, 1, 0));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 0);
        assert!(!g.delete_edge(0, 1, 0), "double delete reports missing");
    }

    #[test]
    fn a_built_graph_has_logged_nothing() {
        let s = EdgeStream::new(&[0, 1, 0], &[1, 2, 2], &[1.0, 2.0, 3.0]);
        let g = TemporalGraph::from_stream(&s);
        assert_eq!(g.epoch(), 0);
        assert!(g.edits.by_node.is_empty(), "from_stream allocates no log");
        assert!((0..4).all(|n| g.last_change(n) == Some(0) && g.holds(n, 10.0, 0)));
    }

    #[test]
    fn edits_are_logged_at_both_endpoints_at_their_time() {
        let s = EdgeStream::new(&[0, 1], &[1, 2], &[1.0, 5.0]);
        let mut g = TemporalGraph::from_stream(&s);
        let last = |g: &TemporalGraph, n| g.last_change(n).unwrap();
        g.insert(&edge(0, 3, 4.0, 2));
        assert_eq!((g.epoch(), last(&g, 0), last(&g, 3), last(&g, 1)), (1, 1, 1, 0));
        // W(0, t) moved for t > 4 only: sampling reads times strictly
        // before t.
        assert!(g.holds(0, 4.0, 0) && !g.holds(0, 4.5, 0));
        assert!(g.holds(0, 100.0, 1), "nothing after epoch 1");
        // A deletion is an edit at the deleted interaction's time.
        assert!(g.delete_edge(1, 2, 1));
        assert_eq!((g.epoch(), last(&g, 1), last(&g, 2)), (2, 2, 2));
        assert!(g.holds(2, 5.0, 1) && !g.holds(2, 5.5, 1));
        // A missing edge is not an edit.
        assert!(!g.delete_edge(1, 2, 1));
        assert_eq!(g.epoch(), 2);
        // Growth past the node range is logged too.
        g.insert(&edge(9, 0, 0.5, 3));
        assert_eq!((last(&g, 9), last(&g, 0)), (3, 3));
        assert!(!g.holds(0, 4.0, 1));
    }

    #[test]
    fn delete_then_insert_below_t_is_seen_though_the_length_is_not() {
        let s = EdgeStream::new(&[0, 0], &[1, 2], &[1.0, 2.0]);
        let mut g = TemporalGraph::from_stream(&s);
        let before = g.neighbors_before(0, 3.0).len();
        assert!(g.delete_edge(0, 1, 0));
        g.insert(&edge(0, 3, 1.5, 2));
        assert_eq!(g.neighbors_before(0, 3.0).len(), before, "same history length");
        assert!(!g.holds(0, 3.0, 0), "the log sees both edits");
        assert!(g.holds(0, 1.0, 0), "both edits at or after t = 1");
    }

    #[test]
    fn unknown_node_has_empty_neighborhood() {
        let g = TemporalGraph::with_nodes(2);
        assert!(g.neighbors(77).is_empty());
        assert!(g.neighbors_before(77, 10.0).is_empty());
    }

    #[test]
    fn multigraph_same_pair_multiple_times() {
        let mut g = TemporalGraph::with_nodes(2);
        g.insert(&edge(0, 1, 1.0, 0));
        g.insert(&edge(0, 1, 2.0, 1));
        g.insert(&edge(0, 1, 2.0, 2));
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.neighbors_before(0, 2.0).len(), 1);
    }
}
