//! The baseline (unoptimized) recursive inference engine.
//!
//! This mirrors the official TGAT implementation's batched computation: for
//! each batch of targets it samples temporal neighborhoods, recursively
//! computes previous-layer embeddings for targets and neighbors together,
//! and applies the attention operator — with no deduplication, memoization,
//! or time-encoding reuse. TGOpt (`crates/core`) is the drop-in optimized
//! replacement that must produce identical outputs.
//!
//! Edge features are not gathered per batch: the engine hands the attention
//! layer the whole feature table plus the sampled edge ids
//! ([`attention::forward_by_eid`]), and each 64-target block copies the rows
//! it needs straight into its own `z_ngh`. A frontier with at least two
//! blocks (or two 2,048-row time-encode chunks) per core is fanned out over
//! the engine's helper scratches (DESIGN.md "Fan-out").

use crate::attention::{self, AttentionInputs};
use crate::params::TgatParams;
use crate::stats::{OpKind, OpStats};
use tg_graph::{NodeId, TemporalGraph, TemporalSampler, Time, INVALID_EDGE};
use tg_tensor::fanout::host_cores;
use tg_tensor::{ops, Scratch, Tensor};

/// Borrowed views of everything an engine reads: the evolving graph plus the
/// static feature matrices.
#[derive(Clone, Copy)]
pub struct GraphContext<'a> {
    pub graph: &'a TemporalGraph,
    /// `[num_nodes, dim]` node features (`h^(0)`).
    pub node_features: &'a Tensor,
    /// `[num_edges, edge_dim]` edge features, indexed by edge id.
    pub edge_features: &'a Tensor,
}

impl<'a> GraphContext<'a> {
    /// Gathers node feature rows for the given ids.
    pub fn gather_node_features(&self, ns: &[NodeId]) -> Tensor {
        let idx: Vec<usize> = ns.iter().map(|&n| n as usize).collect();
        ops::gather_rows(self.node_features, &idx)
    }

    /// [`Self::gather_node_features`] into a scratch-provided destination.
    /// Translates ids on the fly so no index buffer is allocated per batch.
    pub fn gather_node_features_with(&self, ns: &[NodeId], scratch: &mut Scratch) -> Tensor {
        let mut out = scratch.take(ns.len(), self.node_features.cols());
        ops::gather_rows_map_into(self.node_features, ns.len(), |i| ns[i] as usize, &mut out);
        out
    }

    /// Gathers edge feature rows; padding slots ([`INVALID_EDGE`]) read row 0
    /// — their contribution is masked out of the attention softmax, so any
    /// valid row works.
    pub fn gather_edge_features(&self, eids: &[u32]) -> Tensor {
        let idx: Vec<usize> =
            eids.iter().map(|&e| if e == INVALID_EDGE { 0 } else { e as usize }).collect();
        ops::gather_rows(self.edge_features, &idx)
    }
}

/// Baseline TGAT inference engine.
pub struct BaselineEngine<'a> {
    params: &'a TgatParams,
    sampler: TemporalSampler,
    ctx: GraphContext<'a>,
    stats: OpStats,
    /// Recycled per-batch buffers; owned by the engine so steady-state
    /// batches run allocation-free (see `tg_tensor::scratch`).
    scratch: Scratch,
    /// One scratch per core beyond the caller's: the fan-out width − 1.
    helpers: Vec<Scratch>,
}

impl<'a> BaselineEngine<'a> {
    /// Builds an engine with the model's configured most-recent sampler.
    pub fn new(params: &'a TgatParams, ctx: GraphContext<'a>) -> Self {
        let sampler = TemporalSampler::most_recent(params.cfg.n_neighbors);
        Self::with_sampler(params, ctx, sampler)
    }

    /// Builds an engine with a custom sampler (e.g. uniform, for the
    /// sampling-strategy comparison).
    pub fn with_sampler(
        params: &'a TgatParams,
        ctx: GraphContext<'a>,
        sampler: TemporalSampler,
    ) -> Self {
        Self {
            params,
            sampler,
            ctx,
            stats: OpStats::disabled(),
            scratch: Scratch::new(),
            helpers: Vec::new(),
        }
        .with_cores(host_cores())
    }

    /// Sets how many cores a batch may fan out over, the caller's included
    /// (default: all of the host's). Results are bit-identical at every
    /// value; tests pin it to run real helper threads on any runner.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.helpers.resize_with(cores.saturating_sub(1), Scratch::new);
        self
    }

    /// Turns on per-operation timing (Table 3 reproduction).
    pub fn enable_stats(&mut self) {
        self.stats = OpStats::enabled();
    }

    /// Accumulated operation timings.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Computes final-layer temporal embeddings for the target pairs
    /// `(ns[i], ts[i])`. Returns `[len(ns), dim]`.
    // hot-path-root(alloc)
    pub fn embed_batch(&mut self, ns: &[NodeId], ts: &[Time]) -> Tensor {
        self.embed(self.params.cfg.n_layers, ns, ts)
    }

    fn embed(&mut self, l: usize, ns: &[NodeId], ts: &[Time]) -> Tensor {
        debug_assert_eq!(ns.len(), ts.len());
        if l == 0 {
            return self.ctx.gather_node_features_with(ns, &mut self.scratch);
        }
        if ns.is_empty() {
            return self.scratch.take(0, self.params.cfg.dim);
        }

        let (graph, sampler) = (self.ctx.graph, &self.sampler);
        let nb = self.stats.time(OpKind::NghLookup, || sampler.sample(graph, ns, ts));

        // One recursive call for targets and neighbors together (Algorithm 1
        // line 12: Embed(l-1, ns ∪ ns_ngh, ts ∪ ts_ngh)).
        let mut all_ns = Vec::with_capacity(ns.len() + nb.nodes.len()); // alloc-ok: per-layer id concatenation mirrors reference TGAT; id lists are not poolable f32 scratch
        all_ns.extend_from_slice(ns);
        all_ns.extend_from_slice(&nb.nodes);
        let mut all_ts = Vec::with_capacity(ts.len() + nb.times.len()); // alloc-ok: per-layer time concatenation, same bookkeeping as all_ns
        all_ts.extend_from_slice(ts);
        all_ts.extend_from_slice(&nb.times);
        let h_all = self.embed(l - 1, &all_ns, &all_ts);
        let mut h_src = self.scratch.take(ns.len(), h_all.cols());
        let mut h_ngh = self.scratch.take(nb.nodes.len(), h_all.cols());
        ops::split_rows_into(&h_all, ns.len(), &mut h_src, &mut h_ngh);
        self.scratch.give(h_all);

        let params = self.params;
        let stats = &mut self.stats;
        let scratch = &mut self.scratch;
        let helpers = &mut self.helpers[..];
        let ht0 = stats.time(OpKind::TimeEncodeZero, || {
            let mut t = scratch.take(ns.len(), params.time.dim());
            params.time.encode_zeros_into(&mut t);
            t
        });
        let ht = stats.time(OpKind::TimeEncodeDt, || {
            let mut t = scratch.take(nb.dts.len(), params.time.dim());
            params.time.encode_into_fanned(&nb.dts, &mut t, helpers);
            t
        });
        let mask = nb.mask();

        let layer = &self.params.layers[l - 1];
        let cfg = &self.params.cfg;
        let stats = &mut self.stats;
        let scratch = &mut self.scratch;
        let helpers = &mut self.helpers[..];
        let out = stats.time(OpKind::Attention, || {
            attention::forward_by_eid(
                layer,
                cfg,
                &AttentionInputs {
                    h_src: &h_src,
                    ht0: &ht0,
                    h_ngh: &h_ngh,
                    e_feat: self.ctx.edge_features,
                    ht: &ht,
                    mask: &mask,
                },
                &nb.eids,
                scratch,
                helpers,
            )
        });
        self.scratch.give(ht);
        self.scratch.give(ht0);
        self.scratch.give(h_ngh);
        self.scratch.give(h_src);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TgatConfig;
    use tg_graph::EdgeStream;
    use tg_tensor::init;

    /// A small deterministic world: ring graph with feature matrices.
    pub(crate) fn tiny_world(
        cfg: TgatConfig,
        n_nodes: usize,
        n_edges: usize,
    ) -> (TemporalGraph, Tensor, Tensor) {
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        let mut times = Vec::new();
        for i in 0..n_edges {
            srcs.push((i % n_nodes) as NodeId);
            dsts.push(((i * 3 + 1) % n_nodes) as NodeId);
            times.push((i + 1) as Time);
        }
        let stream = EdgeStream::new(&srcs, &dsts, &times);
        let graph = TemporalGraph::from_stream(&stream);
        let mut rng = init::seeded_rng(5);
        let node_feat = init::normal(&mut rng, n_nodes, cfg.dim, 0.5);
        let edge_feat = init::normal(&mut rng, n_edges, cfg.edge_dim, 0.5);
        (graph, node_feat, edge_feat)
    }

    #[test]
    fn embed_batch_shape_and_finiteness() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 1).unwrap();
        let (graph, nf, ef) = tiny_world(cfg, 10, 50);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = BaselineEngine::new(&params, ctx);
        let h = eng.embed_batch(&[0, 1, 2], &[40.0, 40.0, 45.0]);
        assert_eq!(h.shape(), (3, cfg.dim));
        assert!(h.all_finite());
    }

    #[test]
    fn embedding_is_deterministic() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 1).unwrap();
        let (graph, nf, ef) = tiny_world(cfg, 10, 50);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let h1 = BaselineEngine::new(&params, ctx).embed_batch(&[3, 4], &[30.0, 35.0]);
        let h2 = BaselineEngine::new(&params, ctx).embed_batch(&[3, 4], &[30.0, 35.0]);
        assert_eq!(h1.max_abs_diff(&h2), 0.0);
    }

    #[test]
    fn batching_does_not_change_results() {
        // Embedding targets together vs one-by-one must agree: the batched
        // recursion is semantically a per-target computation.
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 2).unwrap();
        let (graph, nf, ef) = tiny_world(cfg, 12, 60);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let ns: Vec<NodeId> = vec![0, 5, 7, 0];
        let ts: Vec<Time> = vec![50.0, 44.0, 61.0, 50.0];
        let mut eng = BaselineEngine::new(&params, ctx);
        let batched = eng.embed_batch(&ns, &ts);
        for i in 0..ns.len() {
            let single = BaselineEngine::new(&params, ctx).embed_batch(&[ns[i]], &[ts[i]]);
            let row = Tensor::from_vec(1, cfg.dim, batched.row(i).to_vec());
            assert!(single.max_abs_diff(&row) < 1e-4, "target {i} differs");
        }
    }

    #[test]
    fn duplicate_targets_get_identical_rows() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 2).unwrap();
        let (graph, nf, ef) = tiny_world(cfg, 12, 60);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let h = BaselineEngine::new(&params, ctx).embed_batch(&[4, 4], &[33.0, 33.0]);
        let a = Tensor::from_vec(1, cfg.dim, h.row(0).to_vec());
        let b = Tensor::from_vec(1, cfg.dim, h.row(1).to_vec());
        assert!(a.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn isolated_node_embeds_without_neighbors() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 1).unwrap();
        let (graph, nf, ef) = tiny_world(cfg, 10, 20);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        // t=0.5 precedes every edge: all targets have empty neighborhoods.
        let h = BaselineEngine::new(&params, ctx).embed_batch(&[0], &[0.5]);
        assert!(h.all_finite());
    }

    #[test]
    fn stats_capture_baseline_ops_only() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 1).unwrap();
        let (graph, nf, ef) = tiny_world(cfg, 10, 50);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = BaselineEngine::new(&params, ctx);
        eng.enable_stats();
        let _ = eng.embed_batch(&[0, 1], &[30.0, 31.0]);
        let s = eng.stats();
        assert_eq!(s.count(OpKind::NghLookup), cfg.n_layers as u64);
        assert_eq!(s.count(OpKind::Attention), cfg.n_layers as u64);
        assert_eq!(s.count(OpKind::CacheLookup), 0);
        assert_eq!(s.count(OpKind::DedupFilter), 0);
    }
}
