//! The chronological edge-interaction stream a CTDG is built from.

use crate::{EdgeId, NodeId, Time};

/// A single timestamped edge interaction `e_ij(t)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
    pub time: Time,
    /// Index into the edge feature matrix.
    pub eid: EdgeId,
}

/// A chronologically ordered list of edge interactions.
///
/// This is the on-disk / generated representation of a dataset. Inference
/// builds one [`crate::TemporalGraph`] from the whole stream and replays it
/// in batches: sampling at batch `b` sees only interactions before each
/// target's time, by the temporal constraint `t_j < t` (see `sampler`).
/// Training grows a [`crate::LiveGraph`] by appending each batch after it
/// is processed.
#[derive(Clone, Debug, Default)]
pub struct EdgeStream {
    edges: Vec<Edge>,
    num_nodes: usize,
}

impl EdgeStream {
    /// Builds a stream from parallel arrays, assigning edge ids `0..n`.
    ///
    /// # Panics
    /// Panics if the arrays disagree in length or timestamps are not
    /// non-decreasing.
    pub fn new(srcs: &[NodeId], dsts: &[NodeId], times: &[Time]) -> Self {
        assert_eq!(srcs.len(), dsts.len(), "src/dst length mismatch");
        assert_eq!(srcs.len(), times.len(), "src/time length mismatch");
        let mut edges = Vec::with_capacity(srcs.len());
        let mut max_node = 0;
        let mut prev_t = Time::NEG_INFINITY;
        for (i, ((&s, &d), &t)) in srcs.iter().zip(dsts).zip(times).enumerate() {
            assert!(t >= prev_t, "edge {i}: timestamps must be non-decreasing ({t} < {prev_t})");
            prev_t = t;
            max_node = max_node.max(s).max(d);
            #[expect(clippy::cast_possible_truncation, reason = "edge ids are u32 like node ids; a stream holds fewer than 2^32 edges")]
            edges.push(Edge { src: s, dst: d, time: t, eid: i as EdgeId });
        }
        let num_nodes = if edges.is_empty() { 0 } else { max_node as usize + 1 };
        Self { edges, num_nodes }
    }

    /// Builds from a pre-assembled edge list (must be time-sorted).
    pub fn from_edges(edges: Vec<Edge>) -> Self {
        let mut max_node = 0;
        let mut prev_t = Time::NEG_INFINITY;
        for e in &edges {
            assert!(e.time >= prev_t, "timestamps must be non-decreasing");
            prev_t = e.time;
            max_node = max_node.max(e.src).max(e.dst);
        }
        let num_nodes = if edges.is_empty() { 0 } else { max_node as usize + 1 };
        Self { edges, num_nodes }
    }

    /// All interactions, chronologically.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of interactions.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the stream holds no interactions.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Number of distinct node ids (max id + 1).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Largest timestamp, or 0 for an empty stream.
    pub fn max_time(&self) -> Time {
        self.edges.last().map_or(0.0, |e| e.time)
    }

    /// Keeps only the first `n` interactions (used by `--scale` runs).
    pub fn truncate(&mut self, n: usize) {
        self.edges.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_assigns_edge_ids_and_counts_nodes() {
        let s = EdgeStream::new(&[0, 5, 1], &[2, 1, 5], &[1.0, 2.0, 2.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.num_nodes(), 6);
        assert_eq!(s.edges()[1].eid, 1);
        assert_eq!(s.max_time(), 2.0);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn unsorted_times_panic() {
        let _ = EdgeStream::new(&[0, 1], &[1, 0], &[2.0, 1.0]);
    }

    #[test]
    fn empty_stream() {
        let s = EdgeStream::new(&[], &[], &[]);
        assert_eq!(s.num_nodes(), 0);
        assert_eq!(s.max_time(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn truncate_limits_edges() {
        let mut s = EdgeStream::new(&[0, 1, 2], &[1, 2, 0], &[1.0, 2.0, 3.0]);
        s.truncate(2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.max_time(), 2.0);
    }
}
