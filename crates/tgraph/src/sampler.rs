//! Temporal neighborhood sampling (the `NghLookup` operation of Algorithm 1).
//!
//! Given target pairs `(node, t)` the sampler returns up to `k` neighbors
//! whose interactions satisfy the temporal constraint `t_j < t`. The paper
//! uses *most-recent* sampling (the last `k` interactions before `t`), which
//! is the property its memoization correctness argument rests on (§3.2); a
//! *uniform* strategy is provided for the future-work comparison (§7) — the
//! TGOpt engine automatically bypasses the embedding cache when it is used.

use crate::graph::AdjEntry;
use crate::live::GraphView;
use crate::{EdgeId, NodeId, TemporalGraph, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Edge id marking a padding slot in a sampled neighborhood.
pub const INVALID_EDGE: EdgeId = EdgeId::MAX;

/// Anything the sampler can draw temporal neighborhoods from: the frozen
/// [`TemporalGraph`] or an epoch-stamped live [`GraphView`]. All three
/// accessors describe the same time-sorted sequence — the interactions of
/// `node` strictly before `t` — so any two sources that agree on it sample
/// identically (the streamed-view ≡ cold-rebuild equivalence rests here).
pub trait HistorySource {
    /// `|N(node, t)|`: interactions of `node` strictly before `t`.
    fn hist_len_before(&self, node: NodeId, t: Time) -> usize;
    /// Streams the last `take` interactions before `t` chronologically
    /// (`f(slot, entry)`, slot 0 oldest). `take` must not exceed
    /// [`HistorySource::hist_len_before`].
    fn most_recent<F: FnMut(usize, AdjEntry)>(&self, node: NodeId, t: Time, take: usize, f: F);
    /// Random access: the `i`-th chronological interaction before `t`.
    fn nth_before(&self, node: NodeId, t: Time, i: usize) -> Option<AdjEntry>;
}

impl HistorySource for TemporalGraph {
    fn hist_len_before(&self, node: NodeId, t: Time) -> usize {
        self.neighbors_before(node, t).len()
    }

    fn most_recent<F: FnMut(usize, AdjEntry)>(&self, node: NodeId, t: Time, take: usize, mut f: F) {
        let hist = self.neighbors_before(node, t);
        let tail = &hist[hist.len() - take.min(hist.len())..];
        for (slot, e) in tail.iter().enumerate() {
            f(slot, *e);
        }
    }

    fn nth_before(&self, node: NodeId, t: Time, i: usize) -> Option<AdjEntry> {
        self.neighbors_before(node, t).get(i).copied()
    }
}

impl HistorySource for GraphView {
    fn hist_len_before(&self, node: NodeId, t: Time) -> usize {
        GraphView::hist_len_before(self, node, t)
    }

    fn most_recent<F: FnMut(usize, AdjEntry)>(&self, node: NodeId, t: Time, take: usize, f: F) {
        GraphView::most_recent(self, node, t, take, f)
    }

    fn nth_before(&self, node: NodeId, t: Time, i: usize) -> Option<AdjEntry> {
        GraphView::nth_before(self, node, t, i)
    }
}

/// A [`HistorySource`] that can tell whether a window it served at another
/// epoch is still the same: the question the embedding cache asks of every
/// row at lookup (DESIGN.md "One validity question"). Both sources answer
/// it by one rule: `W(node, t)` is the same at two epochs iff no append
/// between them touched `node` strictly before `t`. A [`TemporalGraph`]
/// reads the log of the appends compaction folded into it (empty for a
/// built graph, which never changes); a live [`GraphView`] reads its
/// base's log and its delta postings' sequence numbers and times.
pub trait Versioned: HistorySource {
    /// The epoch a row computed over this source now is stamped with.
    fn epoch(&self) -> u64;
    /// The fast path: an epoch after which nothing touched `node`, or
    /// `None` if the source cannot tell without [`Versioned::holds`].
    fn last_change(&self, node: NodeId) -> Option<u64>;
    /// The slow path: true if `W(node, t)` is the same here as at epoch
    /// `since`.
    fn holds(&self, node: NodeId, t: Time, since: u64) -> bool;
}

/// How neighbors are picked from the temporal neighborhood.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// The `k` interactions with the largest timestamps below `t`.
    /// Deterministic — this is what makes embedding memoization sound.
    MostRecent,
    /// `k` interactions drawn uniformly (with replacement) from the history.
    /// Seeded per `(node, t)` so a given target is reproducible, but results
    /// change as the history grows, so cached embeddings cannot be reused.
    Uniform { seed: u64 },
}

/// A sampled `k`-neighborhood for each of `n` targets, stored as flat
/// `n * k` arrays (row-major; row `i` is target `i`'s slots).
#[derive(Clone, Debug)]
pub struct NeighborhoodBatch {
    pub n_targets: usize,
    pub k: usize,
    /// Neighbor node ids; padding slots hold 0 and must be masked.
    pub nodes: Vec<NodeId>,
    /// Neighbor interaction timestamps; padding slots hold the target time.
    pub times: Vec<Time>,
    /// Edge feature row per slot; [`INVALID_EDGE`] marks padding.
    pub eids: Vec<EdgeId>,
    /// Time deltas `t - t_j`; 0 for padding slots.
    pub dts: Vec<Time>,
}

impl NeighborhoodBatch {
    /// `n_targets` rows of `k` zeroed slots, for
    /// [`TemporalSampler::sample_rows`] to overwrite: until it has, a slot
    /// reads as edge 0, not as padding.
    pub fn zeroed(n_targets: usize, k: usize) -> Self {
        let slots = n_targets * k;
        Self { n_targets, k, nodes: vec![0; slots], times: vec![0.0; slots], eids: vec![0; slots], dts: vec![0.0; slots] }
    }

    /// Every slot, as one [`SlotRows`].
    pub fn slot_rows(&mut self) -> SlotRows<'_> {
        SlotRows { nodes: &mut self.nodes, times: &mut self.times, eids: &mut self.eids, dts: &mut self.dts }
    }

    /// True if slot `i` holds a real neighbor (not padding).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.eids[i] != INVALID_EDGE
    }

    /// Boolean validity mask over all `n * k` slots.
    pub fn mask(&self) -> Vec<bool> {
        self.eids.iter().map(|&e| e != INVALID_EDGE).collect()
    }

    /// Number of real (non-padding) neighbor slots.
    pub fn num_valid(&self) -> usize {
        self.eids.iter().filter(|&&e| e != INVALID_EDGE).count()
    }
}

/// The slots of a run of consecutive targets of a [`NeighborhoodBatch`],
/// `k` per target in each of its four arrays: what
/// [`TemporalSampler::sample_rows`] fills.
pub struct SlotRows<'a> {
    pub nodes: &'a mut [NodeId],
    pub times: &'a mut [Time],
    pub eids: &'a mut [EdgeId],
    pub dts: &'a mut [Time],
}

impl SlotRows<'_> {
    /// Consecutive runs of `slots` slots (the last may be shorter), in
    /// order.
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub fn chunks(&mut self, slots: usize) -> impl Iterator<Item = SlotRows<'_>> {
        let Self { nodes, times, eids, dts } = self;
        nodes.chunks_mut(slots).zip(times.chunks_mut(slots)).zip(eids.chunks_mut(slots)).zip(dts.chunks_mut(slots)).map(
            |(((nodes, times), eids), dts)| SlotRows { nodes, times, eids, dts },
        )
    }
}

/// Batch temporal sampler.
///
/// ```
/// use tg_graph::{Edge, TemporalGraph, TemporalSampler};
///
/// let edges: Vec<Edge> = [(1u32, 1.0f32), (2, 2.0), (3, 3.0)]
///     .iter()
///     .enumerate()
///     .map(|(i, &(dst, time))| Edge { src: 0, dst, time, eid: i as u32 })
///     .collect();
/// let g = TemporalGraph::from_edges(4, &edges);
/// // Two most-recent neighbors of node 0 strictly before t=3.0:
/// let nb = TemporalSampler::most_recent(2).sample(&g, &[0], &[3.0]);
/// assert_eq!(&nb.nodes[..2], &[1, 2]);     // chronological order
/// assert_eq!(&nb.dts[..2], &[2.0, 1.0]);   // t - t_j
/// assert_eq!(nb.num_valid(), 2);           // the t=3.0 edge is excluded
/// ```
#[derive(Clone, Debug)]
pub struct TemporalSampler {
    k: usize,
    strategy: SamplingStrategy,
}

impl TemporalSampler {
    pub fn new(k: usize, strategy: SamplingStrategy) -> Self {
        assert!(k > 0, "sampler needs k >= 1");
        Self { k, strategy }
    }

    /// Most-recent sampler (the paper's strategy).
    pub fn most_recent(k: usize) -> Self {
        Self::new(k, SamplingStrategy::MostRecent)
    }

    /// Neighbors sampled per target.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured strategy.
    pub fn strategy(&self) -> SamplingStrategy {
        self.strategy
    }

    /// Samples the temporal neighborhood of every `(ns[i], ts[i])` target
    /// from a frozen graph.
    pub fn sample(&self, g: &TemporalGraph, ns: &[NodeId], ts: &[Time]) -> NeighborhoodBatch {
        self.sample_from(g, ns, ts)
    }

    /// Samples from any [`HistorySource`]: over a live view, identical slot
    /// layout and selection to [`TemporalSampler::sample`] on the
    /// equivalent frozen graph (the stream prefix up to the view's epoch).
    pub fn sample_from<S: HistorySource>(&self, src: &S, ns: &[NodeId], ts: &[Time]) -> NeighborhoodBatch {
        let mut out = NeighborhoodBatch::zeroed(ns.len(), self.k);
        self.sample_rows(src, ns, ts, &mut out.slot_rows());
        out
    }

    /// [`TemporalSampler::sample_from`] into the rows of a run of targets:
    /// row `i` of `out` receives `(ns[i], ts[i])`'s neighborhood, padding
    /// included, so every slot is overwritten. A target's slots depend on
    /// nothing but the target, so a batch sampled run by run, in any order
    /// and on any thread, equals one sampled whole.
    ///
    /// # Panics
    /// Panics unless `out` holds `k` slots per target in every array.
    pub fn sample_rows<S: HistorySource>(&self, src: &S, ns: &[NodeId], ts: &[Time], out: &mut SlotRows<'_>) {
        assert_eq!(ns.len(), ts.len(), "node/time target arrays differ in length");
        let k = self.k;
        for len in [out.nodes.len(), out.times.len(), out.eids.len(), out.dts.len()] {
            assert_eq!(len, ns.len() * k, "sample_rows needs k slots per target");
        }
        for (i, SlotRows { nodes, times, eids, dts }) in out.chunks(k).enumerate() {
            nodes.fill(0);
            times.fill(ts[i]);
            eids.fill(INVALID_EDGE);
            dts.fill(0.0);
            let len = src.hist_len_before(ns[i], ts[i]);
            if len == 0 {
                continue;
            }
            match self.strategy {
                SamplingStrategy::MostRecent => {
                    src.most_recent(ns[i], ts[i], len.min(k), |slot, e| {
                        nodes[slot] = e.ngh;
                        times[slot] = e.time;
                        eids[slot] = e.eid;
                        dts[slot] = ts[i] - e.time;
                    });
                }
                SamplingStrategy::Uniform { seed } => {
                    // Deterministic per-target stream: reruns of the same
                    // (node, t) pick the same neighbors.
                    let s = seed
                        ^ (ns[i] as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (ts[i].to_bits() as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
                    let mut rng = StdRng::seed_from_u64(s);
                    for slot in 0..k.min(len) {
                        let Some(e) = src.nth_before(ns[i], ts[i], rng.gen_range(0..len)) else {
                            continue;
                        };
                        nodes[slot] = e.ngh;
                        times[slot] = e.time;
                        eids[slot] = e.eid;
                        dts[slot] = ts[i] - e.time;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Edge;

    /// Node 0 interacts with 1..=5 at times 1..=5.
    fn line_edges() -> Vec<Edge> {
        (1..=5u32).map(|i| Edge { src: 0, dst: i, time: i as Time, eid: i - 1 }).collect()
    }

    fn line_graph() -> TemporalGraph {
        TemporalGraph::from_edges(6, &line_edges())
    }

    #[test]
    fn most_recent_takes_latest_k_in_order() {
        let g = line_graph();
        let s = TemporalSampler::most_recent(3);
        let nb = s.sample(&g, &[0], &[10.0]);
        assert_eq!(nb.num_valid(), 3);
        // latest three interactions, chronological: 3, 4, 5
        assert_eq!(&nb.nodes[..3], &[3, 4, 5]);
        assert_eq!(&nb.times[..3], &[3.0, 4.0, 5.0]);
        assert_eq!(&nb.dts[..3], &[7.0, 6.0, 5.0]);
    }

    #[test]
    fn temporal_constraint_is_strict() {
        let g = line_graph();
        let s = TemporalSampler::most_recent(10);
        let nb = s.sample(&g, &[0], &[3.0]);
        // only interactions with t_j < 3 qualify
        assert_eq!(nb.num_valid(), 2);
        assert!(nb.times[..2].iter().all(|&t| t < 3.0));
    }

    #[test]
    fn padding_has_zero_dt_and_invalid_eid() {
        let g = line_graph();
        let s = TemporalSampler::most_recent(4);
        let nb = s.sample(&g, &[0, 5], &[2.5, 1.0]);
        // target 1 (node 5 at t=1.0) has no earlier interactions
        let row1 = &nb.eids[4..8];
        assert!(row1.iter().all(|&e| e == INVALID_EDGE));
        assert!(nb.dts[4..8].iter().all(|&d| d == 0.0));
        assert_eq!(nb.times[4..8], [1.0; 4]);
        let mask = nb.mask();
        assert_eq!(mask[..4].iter().filter(|&&m| m).count(), 2);
        assert!(mask[4..8].iter().all(|&m| !m));
    }

    #[test]
    fn same_target_same_subgraph() {
        // The memoization premise (§3.2): sampling the same (i, t) after the
        // graph gained new, later interactions yields the identical result.
        let s = TemporalSampler::most_recent(3);
        let before = s.sample(&line_graph(), &[0], &[4.5]);
        let later = [line_edges(), vec![Edge { src: 0, dst: 1, time: 9.0, eid: 99 }]].concat();
        let after = s.sample(&TemporalGraph::from_edges(6, &later), &[0], &[4.5]);
        assert_eq!(before.nodes, after.nodes);
        assert_eq!(before.times, after.times);
        assert_eq!(before.eids, after.eids);
    }

    #[test]
    fn uniform_is_deterministic_per_target_and_respects_time() {
        let g = line_graph();
        let s = TemporalSampler::new(4, SamplingStrategy::Uniform { seed: 7 });
        let a = s.sample(&g, &[0], &[4.0]);
        let b = s.sample(&g, &[0], &[4.0]);
        assert_eq!(a.nodes, b.nodes);
        for i in 0..4 {
            if a.is_valid(i) {
                assert!(a.times[i] < 4.0);
            }
        }
    }

    #[test]
    fn view_and_frozen_graph_sample_identically() {
        use crate::LiveGraph;
        // Split a scrambled-arrival stream: first half becomes the frozen
        // base, the second half is appended live. Sampling the view must
        // equal sampling a cold rebuild of the full stream — for both
        // strategies, including the seeded uniform draws.
        let mut edges = Vec::new();
        for i in 0..120u32 {
            let t = if i % 7 == 0 { (i / 2) as Time } else { i as Time }; // some out-of-order
            edges.push(Edge { src: i % 10, dst: (i * 3 + 1) % 10, time: t, eid: i });
        }
        let truth = TemporalGraph::from_edges(10, &edges);
        let live = LiveGraph::new(TemporalGraph::from_edges(10, &edges[..60]));
        for e in &edges[60..] {
            live.append(e);
        }
        let view = live.view();
        let ns: Vec<NodeId> = (0..100).map(|i| i % 10).collect();
        let ts: Vec<Time> = (0..100).map(|i| 20.0 + i as Time).collect();
        for sampler in [
            TemporalSampler::most_recent(5),
            TemporalSampler::new(4, SamplingStrategy::Uniform { seed: 11 }),
        ] {
            let frozen = sampler.sample(&truth, &ns, &ts);
            let streamed = sampler.sample_from(&view, &ns, &ts);
            assert_eq!(frozen.nodes, streamed.nodes);
            assert_eq!(frozen.times, streamed.times);
            assert_eq!(frozen.eids, streamed.eids);
            assert_eq!(frozen.dts, streamed.dts);
        }
    }

    #[test]
    fn runs_sampled_out_of_order_over_stale_slots_equal_one_whole_sample() {
        // Rows of 3 targets, sampled last run first into slots holding
        // another batch's values: padding is rewritten, not assumed.
        let g = line_graph();
        let ns: Vec<NodeId> = (0..10).map(|i| [0, 5, 0, 3][i % 4]).collect();
        let ts: Vec<Time> = (0..10).map(|i| 0.5 + i as Time * 0.6).collect();
        for sampler in [TemporalSampler::most_recent(3), TemporalSampler::new(3, SamplingStrategy::Uniform { seed: 5 })] {
            let whole = sampler.sample(&g, &ns, &ts);
            let mut runs = sampler.sample(&g, &[0; 10], &[9.0; 10]);
            let mut all = runs.slot_rows();
            let mut chunks: Vec<_> = all.chunks(3 * 3).enumerate().collect();
            while let Some((c, mut rows)) = chunks.pop() {
                let span = c * 3..(c * 3 + 3).min(ns.len());
                sampler.sample_rows(&g, &ns[span.clone()], &ts[span], &mut rows);
            }
            assert_eq!((runs.nodes, runs.times), (whole.nodes, whole.times));
            assert_eq!((runs.eids, runs.dts), (whole.eids, whole.dts));
        }
    }

    #[test]
    fn empty_targets() {
        let g = line_graph();
        let nb = TemporalSampler::most_recent(3).sample(&g, &[], &[]);
        assert_eq!(nb.n_targets, 0);
        assert!(nb.nodes.is_empty());
    }
}
