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
/// Every edge added by [`TemporalGraph::extend`] (or
/// [`TemporalGraph::insert`]) and every [`TemporalGraph::delete_edge`] is
/// an *edit*: it advances the graph's [`Versioned::epoch`] and is
/// logged at both endpoints, so a row memoized at an earlier epoch can be
/// checked against what changed since ([`Versioned`]).
/// A graph built by [`TemporalGraph::from_stream`] starts at epoch 0 with
/// an empty log. Clones carry the log: a clone edited apart from its
/// original is another history.
#[derive(Clone, Debug)]
pub struct TemporalGraph {
    indptr: Vec<usize>,
    entries: Vec<AdjEntry>,
    num_edges: usize,
    edits: Edits,
}

/// The edit log, in the adjacency's own layout: the number of edits so
/// far, and node `n`'s edits as `(epoch, edge time)`, oldest first, at
/// `log[indptr[n]..indptr[n + 1]]`, so its last element is the node's
/// last-edit epoch. Empty, with no `indptr` either, until the first
/// edit; never shrinks. Copying it is two allocations, however many
/// nodes it has logged.
#[derive(Clone, Debug, Default)]
struct Edits {
    epoch: u64,
    indptr: Vec<usize>,
    log: Vec<(u64, Time)>,
}

impl Edits {
    /// Where node `n`'s edits start; past the log for nodes it has not
    /// reached.
    fn offset(&self, n: usize) -> usize {
        self.indptr.get(n).copied().unwrap_or(self.log.len())
    }

    fn of(&self, node: NodeId) -> &[(u64, Time)] {
        let n = node as usize;
        &self.log[self.offset(n)..self.offset(n + 1)]
    }

    /// Records one edit at time `time` touching `nodes`, as the next
    /// epoch. O(log length), like the deletion that makes it.
    fn record(&mut self, nodes: [NodeId; 2], time: Time) {
        self.epoch += 1;
        for node in nodes {
            let n = node as usize;
            if n + 1 >= self.indptr.len() {
                self.indptr.resize(n + 2, self.log.len());
            }
            self.log.insert(self.indptr[n + 1], (self.epoch, time));
            self.indptr[n + 1..].iter_mut().for_each(|p| *p += 1);
        }
    }
}

/// Time order for the stable sort of a node's new entries. `+ 0.0` makes
/// -0.0 equal to 0.0, so ties are exactly those of `<=`; `total_cmp` keeps
/// a NaN time from making the order inconsistent.
fn by_time(a: &AdjEntry, b: &AdjEntry) -> std::cmp::Ordering {
    (a.time + 0.0).total_cmp(&(b.time + 0.0))
}

impl TemporalGraph {
    /// An empty graph over `num_nodes` node ids.
    pub fn with_nodes(num_nodes: usize) -> Self {
        Self { indptr: vec![0; num_nodes + 1], entries: Vec::new(), num_edges: 0, edits: Edits::default() }
    }

    /// Builds a graph containing every interaction of the stream. Building
    /// is not editing: the graph starts at epoch 0 with nothing logged.
    pub fn from_stream(stream: &EdgeStream) -> Self {
        Self::with_nodes(stream.num_nodes()).merged(stream.edges(), None)
    }

    /// The one routine that orders adjacency: this graph's entries plus
    /// both directions of each of `edges`, as a new graph. With
    /// `first_epoch`, each edge is also logged as its own edit, the first
    /// at `first_epoch`, after this graph's log; without, the new graph
    /// logs nothing (a build).
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
        // The log's node `n` holds its prior edits at `prior.offset(n) +
        // start[n]`, then its new ones, each at `prior.offset(n + 1)` plus
        // the node's cursor below. A deletion may have logged a node past
        // the adjacency; its edits are carried over too.
        let prior = &self.edits;
        let mut edits = Edits { epoch: prior.epoch, ..Edits::default() };
        if first_epoch.is_some() {
            let log_nodes = num_nodes.max(prior.indptr.len().saturating_sub(1));
            edits.indptr =
                (0..=log_nodes).map(|n| prior.offset(n) + start[n.min(num_nodes)]).collect();
            edits.log = vec![(0, 0.0); prior.log.len() + 2 * edges.len()];
            for n in 0..log_nodes {
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

    /// Adds every interaction of `edges` (both directions each), each
    /// logged as its own edit in slice order: the same graph, epochs and
    /// log as calling [`TemporalGraph::insert`] on each in turn, in one
    /// pass over the graph. Out-of-order times are placed by time, after
    /// any equal-time entries already present.
    pub fn extend(&mut self, edges: &[Edge]) {
        *self = self.merged(edges, Some(self.edits.epoch + 1));
    }

    /// Inserts one interaction (both directions), as one logged edit.
    /// O(E): it rewrites the whole adjacency, so add a batch with
    /// [`TemporalGraph::extend`].
    pub fn insert(&mut self, e: &Edge) {
        self.extend(std::slice::from_ref(e));
    }

    /// A live graph's compacted base: this graph plus its appends `log`,
    /// append `base_seq + i` logged at epoch `base_seq + i + 1`, the epoch
    /// of the first view that saw it, so [`Versioned::holds`] answers for
    /// the base as a view does for its postings.
    pub(crate) fn with_appends(&self, log: &[Edge], base_seq: u64) -> Self {
        self.merged(log, Some(base_seq + 1))
    }

    /// Drops the edit log: the graph starts a new history at epoch 0. For
    /// a graph whose past edits no cache will ask about: one about to be
    /// shared read-only, or a live graph's base, whose log holds only
    /// its compacted appends.
    pub fn forget_edits(&mut self) {
        self.edits = Edits::default();
    }

    /// Deletes the interaction identified by `eid` incident to `src`/`dst`
    /// (future-work extension of the paper, §7), as one logged edit at
    /// the deleted interaction's time. Returns true if found. O(E): the
    /// entries after it shift down in place.
    pub fn delete_edge(&mut self, src: NodeId, dst: NodeId, eid: EdgeId) -> bool {
        let mut removed = None;
        for node in [src, dst] {
            let n = node as usize;
            if n + 1 >= self.indptr.len() {
                continue;
            }
            let lo = self.indptr[n];
            if let Some(pos) = self.entries[lo..self.indptr[n + 1]].iter().position(|x| x.eid == eid) {
                removed = Some(self.entries.remove(lo + pos).time);
                self.indptr[n + 1..].iter_mut().for_each(|p| *p -= 1);
            }
        }
        let Some(time) = removed else { return false };
        self.num_edges = self.num_edges.saturating_sub(1);
        self.edits.record([src, dst], time);
        true
    }

    /// Number of node ids the graph can address.
    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of undirected interactions inserted.
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
    fn from_stream_matches_incremental() {
        let s = EdgeStream::new(&[0, 1, 0], &[1, 2, 2], &[1.0, 2.0, 3.0]);
        let g = TemporalGraph::from_stream(&s);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        let mut inserted = TemporalGraph::with_nodes(3);
        s.edges().iter().for_each(|e| inserted.insert(e));
        assert!((0..3).all(|n| g.neighbors(n) == inserted.neighbors(n)));
    }

    #[test]
    fn extend_places_new_entries_after_equal_times() {
        let mut g = TemporalGraph::from_stream(&EdgeStream::new(&[0, 0], &[1, 2], &[1.0, 3.0]));
        g.extend(&[edge(0, 3, 3.0, 2), edge(0, 4, 1.0, 3), edge(0, 5, 0.5, 4), edge(0, 6, 1.0, 5)]);
        let order: Vec<NodeId> = g.neighbors(0).iter().map(|x| x.ngh).collect();
        assert_eq!(order, [5, 1, 4, 6, 2, 3]);
        assert_eq!((g.num_edges(), g.epoch(), g.last_change(6)), (6, 4, Some(4)));
        // -0.0 ties with 0.0: submission order, as `<=` decides.
        let mut g = TemporalGraph::with_nodes(1);
        g.extend(&[edge(0, 1, 1.0, 0), edge(0, 2, 0.0, 1), edge(0, 3, -0.0, 2)]);
        assert_eq!(g.neighbors(0).iter().map(|x| x.ngh).collect::<Vec<_>>(), [2, 3, 1]);
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
        assert!(g.edits.indptr.is_empty() && g.edits.log.is_empty(), "from_stream allocates no log");
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
    fn edits_logged_past_the_adjacency_survive_an_extend() {
        let mut g = TemporalGraph::with_nodes(2);
        g.insert(&edge(0, 1, 1.0, 0));
        // eid 0 is found at node 0; node 5 is past the adjacency but is
        // still logged as an endpoint of the deletion.
        assert!(g.delete_edge(0, 5, 0));
        assert_eq!(g.last_change(5), Some(2));
        g.extend(&[edge(0, 1, 3.0, 1)]);
        assert_eq!(g.epoch(), 3);
        assert_eq!(g.edits.of(5), &[(2, 1.0)]);
        assert_eq!(g.edits.of(0), &[(1, 1.0), (2, 1.0), (3, 3.0)]);
        assert_eq!(g.edits.of(1), &[(1, 1.0), (3, 3.0)]);
        for n in 2..5 {
            assert!(g.edits.of(n).is_empty(), "node {n}: {:?}", g.edits.of(n));
        }
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
