//! Time-sorted adjacency storage for continuous-time dynamic graphs.

use crate::{Edge, EdgeId, EdgeStream, NodeId, Time};

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
#[derive(Clone, Debug)]
pub struct TemporalGraph {
    storage: Storage,
    num_edges: usize,
}

impl TemporalGraph {
    /// An empty graph over `num_nodes` node ids.
    pub fn with_nodes(num_nodes: usize) -> Self {
        Self { storage: Storage::Dynamic(vec![Vec::new(); num_nodes]), num_edges: 0 }
    }

    /// Builds a graph containing every interaction of the stream, in the
    /// compact frozen layout (replay workloads are read-only).
    pub fn from_stream(stream: &EdgeStream) -> Self {
        let mut g = Self::with_nodes(stream.num_nodes());
        for e in stream.edges() {
            g.insert(e);
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

    /// Inserts one interaction (both directions).
    ///
    /// Appending is O(1) when events arrive chronologically (the normal
    /// replay case); out-of-order events fall back to sorted insertion so the
    /// per-node time order invariant always holds. A frozen graph thaws.
    pub fn insert(&mut self, e: &Edge) {
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
    /// (future-work extension of the paper, §7). Returns true if found.
    pub fn delete_edge(&mut self, src: NodeId, dst: NodeId, eid: EdgeId) -> bool {
        self.thaw();
        let mut removed = false;
        // `thaw` always leaves the storage dynamic, so the guard never skips.
        if let Storage::Dynamic(adj) = &mut self.storage {
            for node in [src, dst] {
                if let Some(list) = adj.get_mut(node as usize) {
                    if let Some(pos) = list.iter().position(|x| x.eid == eid) {
                        list.remove(pos);
                        removed = true;
                    }
                }
            }
        }
        if removed {
            self.num_edges = self.num_edges.saturating_sub(1);
        }
        removed
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

    /// Nodes within `hops` undirected hops of `node` (including itself),
    /// ignoring time: the nodes whose layer-`l` embedding can embed a
    /// change to `node`'s history when `l > hops`.
    pub fn k_hop_nodes(&self, node: NodeId, hops: usize) -> Vec<NodeId> {
        let mut seen = std::collections::HashSet::new();
        seen.insert(node);
        let mut frontier = vec![node];
        for _ in 0..hops {
            let mut next = Vec::new();
            for &n in &frontier {
                for e in self.neighbors(n) {
                    if seen.insert(e.ngh) {
                        next.push(e.ngh);
                    }
                }
            }
            frontier = next;
        }
        let mut out: Vec<NodeId> = seen.into_iter().collect();
        out.sort_unstable();
        out
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

    #[test]
    fn k_hop_nodes_expands_by_hops() {
        // Path graph 0-1-2-3-4.
        let mut g = TemporalGraph::with_nodes(5);
        for i in 0..4u32 {
            g.insert(&edge(i, i + 1, (i + 1) as Time, i));
        }
        assert_eq!(g.k_hop_nodes(0, 0), vec![0]);
        assert_eq!(g.k_hop_nodes(0, 1), vec![0, 1]);
        assert_eq!(g.k_hop_nodes(0, 2), vec![0, 1, 2]);
        assert_eq!(g.k_hop_nodes(2, 1), vec![1, 2, 3]);
        assert_eq!(g.k_hop_nodes(2, 10), vec![0, 1, 2, 3, 4]);
    }
}
