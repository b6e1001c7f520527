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

/// A dynamic graph as one time-sorted CSR adjacency (TGL's T-CSR): node
/// `n`'s interactions are `entries[indptr[n]..indptr[n + 1]]`, one flat
/// buffer the sampler's binary search and suffix scan read sequentially.
///
/// Interactions are undirected (both endpoints see each other), following
/// the paper's treatment of all datasets as undirected graphs (§5.1.1).
/// Each node's slice is sorted by timestamp, equal times in submission
/// order, so the most-recent sampler can binary-search the temporal cutoff
/// `t_j < t`.
///
/// Immutable once built. [`TemporalGraph::from_stream`] and
/// [`TemporalGraph::from_edges`] build it with an empty log, at epoch 0.
/// Only a [`crate::LiveGraph`] grows over it; its compaction builds the
/// next base with every append it folded logged at both endpoints, so a
/// view can ask that base what changed since an epoch ([`Versioned`]).
#[derive(Clone, Debug)]
pub struct TemporalGraph {
    indptr: Vec<usize>,
    entries: Vec<AdjEntry>,
    num_edges: usize,
    edits: Edits,
}

/// The log of folded appends, in the adjacency's own layout: the epoch
/// of the last, and node `n`'s appends as `(epoch, edge time)`, oldest
/// first, at `log[indptr[n]..indptr[n + 1]]`, so its last element is the
/// node's last-change epoch. Empty, with no `indptr` either, in a built
/// graph. Copying it is two allocations, however many nodes it has
/// logged.
#[derive(Clone, Debug, Default)]
struct Edits {
    epoch: u64,
    indptr: Vec<usize>,
    log: Vec<(u64, Time)>,
}

impl Edits {
    /// Where node `n`'s appends start; past the log for nodes it has not
    /// reached.
    fn offset(&self, n: usize) -> usize {
        self.indptr.get(n).copied().unwrap_or(self.log.len())
    }

    fn of(&self, node: NodeId) -> &[(u64, Time)] {
        let n = node as usize;
        &self.log[self.offset(n)..self.offset(n + 1)]
    }
}

/// Time order for the stable sort of a node's new entries. `+ 0.0` makes
/// -0.0 equal to 0.0, so ties are exactly those of `<=`; `total_cmp` keeps
/// a NaN time from making the order inconsistent.
fn by_time(a: &AdjEntry, b: &AdjEntry) -> std::cmp::Ordering {
    (a.time + 0.0).total_cmp(&(b.time + 0.0))
}

impl TemporalGraph {
    /// Builds a graph containing every interaction of the stream.
    pub fn from_stream(stream: &EdgeStream) -> Self {
        Self::from_edges(stream.num_nodes(), stream.edges())
    }

    /// Builds a graph over at least `num_nodes` node ids (more if an edge
    /// names a larger one) from `edges` in any time order: each node's
    /// neighbours are ordered by time, equal times in slice order.
    pub fn from_edges(num_nodes: usize, edges: &[Edge]) -> Self {
        let empty = Self { indptr: vec![0; num_nodes + 1], entries: Vec::new(), num_edges: 0, edits: Edits::default() };
        empty.merged(edges, None)
    }

    /// The one routine that orders adjacency: this graph's entries plus
    /// both directions of each of `edges`, as a new graph. With
    /// `first_epoch`, each edge is also logged as its own change, the
    /// first at `first_epoch`, after this graph's log; without, the new
    /// graph logs nothing (a build).
    ///
    /// Per node, the new entries are stably sorted by time (a check when
    /// they arrived in order) and merged with the existing slice, existing
    /// ones first at equal times. That is where inserting the edges one by
    /// one in submission order would put each, so neighbour order never
    /// depends on how the edges were batched. The log keeps submission
    /// order per node. O(V + E + log + new entries).
    fn merged(&self, edges: &[Edge], first_epoch: Option<u64>) -> Self {
        let postings = || {
            (0..).zip(edges).flat_map(|(k, e)| {
                [(e.src, e.dst), (e.dst, e.src)]
                    .map(|(n, ngh)| (n as usize, k, AdjEntry { time: e.time, ngh, eid: e.eid }))
            })
        };
        let num_nodes = postings().map(|(n, ..)| n + 1).max().unwrap_or(0).max(self.num_nodes());
        // Counting sort of the new entries by node, submission order kept.
        let mut start = vec![0; num_nodes + 1];
        for (n, ..) in postings() {
            start[n + 1] += 1;
        }
        for n in 0..num_nodes {
            start[n + 1] += start[n];
        }
        // The log's node `n` holds its prior appends at `prior.offset(n) +
        // start[n]`, then its new ones, each at `prior.offset(n + 1)` plus
        // the node's cursor below.
        let prior = &self.edits;
        let mut edits = Edits { epoch: prior.epoch, ..Edits::default() };
        if first_epoch.is_some() {
            edits.indptr = (0..=num_nodes).map(|n| prior.offset(n) + start[n]).collect();
            edits.log = vec![(0, 0.0); prior.log.len() + 2 * edges.len()];
            for n in 0..num_nodes {
                let (from, to) = (prior.offset(n), prior.offset(n + 1));
                let at = edits.indptr[n];
                edits.log[at..at + to - from].copy_from_slice(&prior.log[from..to]);
            }
        }
        let mut fresh = vec![AdjEntry { time: 0.0, ngh: 0, eid: 0 }; 2 * edges.len()];
        let mut next = start.clone();
        for (n, k, entry) in postings() {
            fresh[next[n]] = entry;
            if let Some(first) = first_epoch {
                edits.epoch = first + k;
                edits.log[prior.offset(n + 1) + next[n]] = (edits.epoch, entry.time);
            }
            next[n] += 1;
        }
        let mut indptr = Vec::with_capacity(num_nodes + 1);
        let mut entries = Vec::with_capacity(self.entries.len() + fresh.len());
        indptr.push(0);
        for (n, w) in start.windows(2).enumerate() {
            let new = &mut fresh[w[0]..w[1]];
            if !new.is_sorted_by(|a, b| a.time <= b.time) {
                new.sort_by(by_time);
            }
            let mut old = self.row(n);
            for &entry in new.iter() {
                let (before, after) = old.split_at(old.partition_point(|o| o.time <= entry.time));
                entries.extend_from_slice(before);
                entries.push(entry);
                old = after;
            }
            entries.extend_from_slice(old);
            indptr.push(entries.len());
        }
        Self { indptr, entries, num_edges: self.num_edges + edges.len(), edits }
    }

    /// A live graph's compacted base: this graph plus its appends `log`,
    /// append `base_seq + i` logged at epoch `base_seq + i + 1`, the epoch
    /// of the first view that saw it, so [`Versioned::holds`] answers for
    /// the base as a view does for its postings.
    pub(crate) fn with_appends(&self, log: &[Edge], base_seq: u64) -> Self {
        self.merged(log, Some(base_seq + 1))
    }

    /// Number of node ids the graph can address.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of undirected interactions it holds.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The full time-sorted adjacency list of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[AdjEntry] {
        self.row(node as usize)
    }

    fn row(&self, n: usize) -> &[AdjEntry] {
        if n + 1 >= self.indptr.len() {
            &[]
        } else {
            &self.entries[self.indptr[n]..self.indptr[n + 1]]
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

/// A compacted base answers the cache's validity question from the log
/// of the appends compaction folded into it; a built graph, whose log is
/// empty, answers that nothing changed.
impl Versioned for TemporalGraph {
    /// The epoch of the last folded append (0 for a built graph): a row
    /// computed now saw every append up to this epoch.
    fn epoch(&self) -> u64 {
        self.edits.epoch
    }

    /// The epoch of the last folded append that touched `node`, 0 if none.
    fn last_change(&self, node: NodeId) -> Option<u64> {
        Some(self.edits.of(node).last().map_or(0, |&(epoch, _)| epoch))
    }

    /// True if no append folded after epoch `since` touched `node`
    /// strictly before `t`. Sampling `(node, t)` reads only interactions
    /// before `t`, so then the window `W(node, t)` is the one it was at
    /// `since`: an append at or after `t` cannot move it.
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
    fn a_build_is_bidirectional_and_sorted() {
        let g = TemporalGraph::from_edges(3, &[edge(0, 1, 5.0, 0), edge(0, 2, 7.0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0).len(), 2);
        assert_eq!(g.neighbors(1), &[AdjEntry { time: 5.0, ngh: 0, eid: 0 }]);
        assert_eq!(g.neighbors(2), &[AdjEntry { time: 7.0, ngh: 0, eid: 1 }]);
        assert!(g.neighbors(0).windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn out_of_order_edges_are_built_in_time_order() {
        let g = TemporalGraph::from_edges(4, &[edge(0, 1, 9.0, 0), edge(0, 2, 3.0, 1), edge(0, 3, 6.0, 2)]);
        let times: Vec<Time> = g.neighbors(0).iter().map(|e| e.time).collect();
        assert_eq!(times, vec![3.0, 6.0, 9.0]);
        // -0.0 ties with 0.0: slice order, as `<=` decides.
        let g = TemporalGraph::from_edges(1, &[edge(0, 1, 1.0, 0), edge(0, 2, 0.0, 1), edge(0, 3, -0.0, 2)]);
        assert_eq!(g.neighbors(0).iter().map(|x| x.ngh).collect::<Vec<_>>(), [2, 3, 1]);
    }

    #[test]
    fn neighbors_before_enforces_strict_inequality() {
        let g = TemporalGraph::from_edges(3, &[edge(0, 1, 5.0, 0), edge(0, 2, 7.0, 1)]);
        // t_j < t is strict: the edge at exactly t=5 is excluded.
        assert_eq!(g.neighbors_before(0, 5.0).len(), 0);
        assert_eq!(g.neighbors_before(0, 5.1).len(), 1);
        assert_eq!(g.neighbors_before(0, 100.0).len(), 2);
    }

    #[test]
    fn edges_grow_the_node_range() {
        let g = TemporalGraph::from_edges(1, &[edge(0, 10, 1.0, 0)]);
        assert_eq!(g.num_nodes(), 11);
        assert_eq!(g.degree(10), 1);
    }

    #[test]
    fn from_stream_matches_one_edge_at_a_time() {
        let s = EdgeStream::new(&[0, 1, 0], &[1, 2, 2], &[1.0, 2.0, 3.0]);
        let g = TemporalGraph::from_stream(&s);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        let one_by_one = s.edges().iter().fold(TemporalGraph::from_edges(3, &[]), |g, e| {
            g.merged(std::slice::from_ref(e), None)
        });
        assert!((0..3).all(|n| g.neighbors(n) == one_by_one.neighbors(n)));
    }

    #[test]
    fn folded_appends_land_after_equal_times() {
        let g = TemporalGraph::from_stream(&EdgeStream::new(&[0, 0], &[1, 2], &[1.0, 3.0]));
        let g = g.with_appends(&[edge(0, 3, 3.0, 2), edge(0, 4, 1.0, 3), edge(0, 5, 0.5, 4), edge(0, 6, 1.0, 5)], 2);
        let order: Vec<NodeId> = g.neighbors(0).iter().map(|x| x.ngh).collect();
        assert_eq!(order, [5, 1, 4, 6, 2, 3]);
        assert_eq!((g.num_edges(), g.epoch(), g.last_change(6)), (6, 6, Some(6)));
    }

    #[test]
    fn a_built_graph_has_logged_nothing() {
        let s = EdgeStream::new(&[0, 1, 0], &[1, 2, 2], &[1.0, 2.0, 3.0]);
        let g = TemporalGraph::from_stream(&s);
        assert_eq!(g.epoch(), 0);
        assert!(g.edits.indptr.is_empty() && g.edits.log.is_empty(), "from_stream allocates no log");
        assert!((0..4).all(|n| g.last_change(n) == Some(0) && g.holds(n, 10.0, 0)));
    }

    #[test]
    fn folded_appends_are_logged_at_both_endpoints_at_their_time() {
        let s = EdgeStream::new(&[0, 1], &[1, 2], &[1.0, 5.0]);
        // Appends 2 and 3 of a live graph over the two-edge stream: first
        // seen at epochs 3 and 4.
        let g = TemporalGraph::from_stream(&s).with_appends(&[edge(0, 3, 4.0, 2), edge(2, 1, 0.5, 3)], 2);
        let last = |n| g.last_change(n).unwrap();
        assert_eq!((g.epoch(), last(0), last(3), last(1), last(2)), (4, 3, 3, 4, 4));
        // W(0, t) moved for t > 4 only: sampling reads times strictly
        // before t.
        assert!(g.holds(0, 4.0, 2) && !g.holds(0, 4.5, 2));
        assert!(g.holds(0, 100.0, 3), "nothing reached node 0 after epoch 3");
        assert!(g.holds(1, 0.5, 3) && !g.holds(1, 0.6, 3));
        // A second fold keeps the first's log and adds after it, growing
        // the node range too.
        let g = g.with_appends(&[edge(9, 0, 0.5, 4)], 4);
        assert_eq!(g.edits.of(0), &[(3, 4.0), (5, 0.5)]);
        assert_eq!(g.edits.of(9), &[(5, 0.5)]);
        assert_eq!(g.edits.of(1), &[(4, 0.5)]);
        assert!((4..9).all(|n| g.edits.of(n).is_empty()));
        assert!(!g.holds(0, 4.0, 3) && g.holds(0, 0.5, 3));
    }

    #[test]
    fn unknown_node_has_empty_neighborhood() {
        let g = TemporalGraph::from_edges(2, &[]);
        assert!(g.neighbors(77).is_empty());
        assert!(g.neighbors_before(77, 10.0).is_empty());
    }

    #[test]
    fn multigraph_same_pair_multiple_times() {
        let g = TemporalGraph::from_edges(2, &[edge(0, 1, 1.0, 0), edge(0, 1, 2.0, 1), edge(0, 1, 2.0, 2)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.neighbors_before(0, 2.0).len(), 1);
    }
}
