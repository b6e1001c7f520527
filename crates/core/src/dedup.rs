//! Deduplication of batched `(node, time)` targets (§4.1, Algorithm 2).
//!
//! The filter jointly walks the node and timestamp arrays — no intermediate
//! 2-D tensor is built — using the collision-free packed key as identity.
//! An inverse index maps unique results back to the original positions so
//! output shapes (and semantics) are preserved.

use crate::hash::pack_key;
use rustc_hash::FxHashMap;
use tg_graph::{NodeId, Time};
use tg_tensor::{ops, Tensor};

/// Output of [`dedup_filter`].
#[derive(Clone, Debug, PartialEq)]
pub struct DedupResult {
    /// Unique node ids, in first-appearance order.
    pub ns: Vec<NodeId>,
    /// Unique timestamps, parallel to `ns`.
    pub ts: Vec<Time>,
    /// `inv_idx[i]` is the row in the unique arrays holding original item `i`.
    pub inv_idx: Vec<u32>,
}

impl DedupResult {
    /// Number of unique targets.
    pub fn num_unique(&self) -> usize {
        self.ns.len()
    }

    /// Fraction of the original batch that was duplicated (Table 1's metric).
    pub fn duplication_rate(&self) -> f64 {
        if self.inv_idx.is_empty() {
            return 0.0;
        }
        1.0 - self.ns.len() as f64 / self.inv_idx.len() as f64
    }
}

/// Algorithm 2: produces unique `(node, time)` targets plus the inverse
/// index, preserving first-appearance order.
///
/// ```
/// use tgopt::dedup::dedup_filter;
///
/// // Node 5 at t=1.0 appears twice; node 5 at t=2.0 is distinct.
/// let r = dedup_filter(&[5, 3, 5, 5], &[1.0, 1.0, 1.0, 2.0]);
/// assert_eq!(r.ns, vec![5, 3, 5]);
/// assert_eq!(r.ts, vec![1.0, 1.0, 2.0]);
/// assert_eq!(r.inv_idx, vec![0, 1, 0, 2]);
/// assert_eq!(r.duplication_rate(), 0.25);
/// ```
pub fn dedup_filter(ns: &[NodeId], ts: &[Time]) -> DedupResult {
    assert_eq!(ns.len(), ts.len(), "node/time array length mismatch");
    let mut processed: FxHashMap<u64, u32> = FxHashMap::default();
    processed.reserve(ns.len());
    let mut uniq_ns = Vec::with_capacity(ns.len());
    let mut uniq_ts = Vec::with_capacity(ts.len());
    let mut inv_idx = Vec::with_capacity(ns.len());
    for (&n, &t) in ns.iter().zip(ts) {
        let key = pack_key(n, t);
        let next = uniq_ns.len() as u32; // lint: allow(lossy-cast, dedup index; unique targets per batch fit in u32)
        let idx = *processed.entry(key).or_insert_with(|| {
            uniq_ns.push(n);
            uniq_ts.push(t);
            next
        });
        inv_idx.push(idx);
    }
    DedupResult { ns: uniq_ns, ts: uniq_ts, inv_idx }
}

/// Node-only variant used to measure layer-0 duplication for Table 1 (at
/// layer 0 only the node id matters because features are static, §3.1).
pub fn dedup_nodes_only(ns: &[NodeId]) -> DedupResult {
    let mut processed: FxHashMap<NodeId, u32> = FxHashMap::default();
    let mut uniq_ns = Vec::new();
    let mut inv_idx = Vec::with_capacity(ns.len());
    for &n in ns {
        let next = uniq_ns.len() as u32; // lint: allow(lossy-cast, dedup index; unique targets per batch fit in u32)
        let idx = *processed.entry(n).or_insert_with(|| {
            uniq_ns.push(n);
            next
        });
        inv_idx.push(idx);
    }
    let ts = vec![0.0; uniq_ns.len()];
    DedupResult { ns: uniq_ns, ts, inv_idx }
}

/// `DedupInvert`: expands unique-row results back to the original batch
/// layout (`out.row(i) = h.row(inv_idx[i])`).
pub fn dedup_invert(h: &Tensor, inv_idx: &[u32]) -> Tensor {
    let mut out = Tensor::zeros(inv_idx.len(), h.cols());
    ops::gather_rows_map_into(h, inv_idx.len(), |i| inv_idx[i] as usize, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_keeps_first_appearance_order() {
        let ns = [5u32, 3, 5, 7, 3];
        let ts = [1.0f32, 2.0, 1.0, 1.0, 2.0];
        let r = dedup_filter(&ns, &ts);
        assert_eq!(r.ns, vec![5, 3, 7]);
        assert_eq!(r.ts, vec![1.0, 2.0, 1.0]);
        assert_eq!(r.inv_idx, vec![0, 1, 0, 2, 1]);
        assert_eq!(r.num_unique(), 3);
        assert!((r.duplication_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn same_node_different_time_is_not_a_duplicate() {
        let r = dedup_filter(&[1, 1], &[1.0, 2.0]);
        assert_eq!(r.num_unique(), 2);
        assert_eq!(r.duplication_rate(), 0.0);
    }

    #[test]
    fn invert_reconstructs_original_layout() {
        let ns = [5u32, 3, 5, 7, 3];
        let ts = [1.0f32, 2.0, 1.0, 1.0, 2.0];
        let r = dedup_filter(&ns, &ts);
        // Pretend embeddings: row i = [unique node id as f32]
        let h = Tensor::from_vec(3, 1, r.ns.iter().map(|&n| n as f32).collect());
        let full = dedup_invert(&h, &r.inv_idx);
        let expect: Vec<f32> = ns.iter().map(|&n| n as f32).collect();
        assert_eq!(full.as_slice(), expect.as_slice());
    }

    #[test]
    fn empty_batch() {
        let r = dedup_filter(&[], &[]);
        assert_eq!(r.num_unique(), 0);
        assert_eq!(r.duplication_rate(), 0.0);
        let h = Tensor::zeros(0, 4);
        assert_eq!(dedup_invert(&h, &r.inv_idx).shape(), (0, 4));
    }

    #[test]
    fn nodes_only_ignores_time() {
        let r = dedup_nodes_only(&[1, 2, 1, 1]);
        assert_eq!(r.ns, vec![1, 2]);
        assert_eq!(r.inv_idx, vec![0, 1, 0, 0]);
        assert!((r.duplication_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_duplicates() {
        let r = dedup_filter(&[9; 100], &[4.0; 100]);
        assert_eq!(r.num_unique(), 1);
        assert!((r.duplication_rate() - 0.99).abs() < 1e-12);
    }
}
