//! Outside-in layer probes: the ledger performs one engine step itself,
//! calling each layer's public function in engine order on a real frontier
//! and timing every call from outside.
//!
//! `TemporalSampler::sample` → `dedup_filter` → `compute_keys` →
//! `EmbedCache::lookup` (read-only, against the workload's own cache) →
//! `TimeCache::encode_into` / `TimeEncoder::encode_into` →
//! `gather_rows_into` → `attention::forward_with` → `matmul_into` /
//! `addmm_into` at the shapes just observed → `EmbedCache::store` (into a
//! private cache, so the workload's state is never changed) →
//! `fingerprint::capture_many`. Work counts are taken at the same
//! boundaries, so every ratio is measured where the work happens. A stage
//! the workload's own engine would skip (dedup with dedup off, the time
//! window with precompute off, …) is skipped here too, and its metrics read
//! 0 on that workload.

use crate::report::WorkloadReport;
use crate::stats::{per_second, ratio};
use crate::trace::Tracer;
use crate::Res;
use std::time::Instant;
use tg_graph::{HistorySource, NodeId, TemporalSampler, Time, INVALID_EDGE};
use tg_tensor::matmul::{addmm_into, matmul_into};
use tg_tensor::{ops, Scratch, Tensor};
use tgat::attention::{self, AttentionInputs};
use tgat::TgatParams;
use tgopt::{dedup_filter, fingerprint, hash::compute_keys, EmbedCache, OptConfig, TimeCache};

/// Work done and time spent in one probed call, summed over every step.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rate {
    pub work: f64,
    pub ns: u64,
}

impl Rate {
    pub fn add(&mut self, work: f64, ns: u64) {
        self.work += work;
        self.ns += ns;
    }

    pub fn per_s(&self) -> f64 {
        per_second(self.work, self.ns)
    }

    /// Microseconds per unit of work.
    pub fn us_per_unit(&self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.work)
    }
}

/// Sums over every probed step of one workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeTotals {
    pub steps: u64,
    /// Neighbor slots filled by `sample` on a frozen graph.
    pub sample: Rate,
    /// Neighbor slots filled by `sample_view` on a live view.
    pub sample_view: Rate,
    pub slots: f64,
    pub valid_slots: f64,
    pub dedup: Rate,
    pub dedup_in: f64,
    pub dedup_unique: f64,
    pub keys: Rate,
    pub lookup: Rate,
    pub lookup_hits: f64,
    pub store: Rate,
    pub timecache: Rate,
    pub time_encode: Rate,
    /// Bytes moved by `gather_rows_into`, computed from shapes.
    pub gather_bytes: Rate,
    pub attention_rows: Rate,
    pub matmul_kv_flop: Rate,
    pub matmul_q_flop: Rate,
    pub addmm_ffn_flop: Rate,
    pub fingerprint: Rate,
}

/// Which history the step samples from.
pub enum History<'a, S> {
    Frozen(&'a S),
    Live(&'a S),
}

/// Long-lived probe state: its own sampler, time window, scratch arena and
/// store-side cache — everything the engine keeps privately.
pub struct Probe<'a> {
    params: &'a TgatParams,
    node_features: &'a Tensor,
    edge_features: &'a Tensor,
    opt: OptConfig,
    sampler: TemporalSampler,
    timecache: TimeCache,
    scratch: Scratch,
    store_cache: EmbedCache,
    /// Capture layer-2 fingerprints (only a workload that caches the last
    /// layer pays for them).
    fingerprints: bool,
    pub totals: ProbeTotals,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, crate::trace::elapsed_ns(start))
}

impl<'a> Probe<'a> {
    pub fn new(
        params: &'a TgatParams,
        node_features: &'a Tensor,
        edge_features: &'a Tensor,
        opt: OptConfig,
        fingerprints: bool,
    ) -> Self {
        Self {
            params,
            node_features,
            edge_features,
            opt,
            sampler: TemporalSampler::most_recent(params.cfg.n_neighbors),
            timecache: TimeCache::precompute(&params.time, opt.time_window.max(1)),
            scratch: Scratch::new(),
            store_cache: EmbedCache::new(opt.cache_limit.max(1), params.cfg.dim),
            fingerprints,
            totals: ProbeTotals::default(),
        }
    }

    fn sample_timed<S: HistorySource + Sync>(
        &mut self,
        history: &History<'_, S>,
        ns: &[NodeId],
        ts: &[Time],
    ) -> tg_graph::NeighborhoodBatch {
        let (src, live) = match history {
            History::Frozen(s) => (*s, false),
            History::Live(s) => (*s, true),
        };
        let (nb, took) = timed(|| self.sampler.sample_from(src, ns, ts));
        let slots = nb.nodes.len() as f64;
        if live {
            self.totals.sample_view.add(slots, took);
        } else {
            self.totals.sample.add(slots, took);
        }
        self.totals.slots += slots;
        self.totals.valid_slots += nb.num_valid() as f64;
        nb
    }

    /// One layer-1 step on the frontier of `(ns, ts)`: the targets plus
    /// their sampled neighbors, exactly the rows the engine's recursion
    /// hands to layer 1. `cache` is the workload's own layer-1 table.
    pub fn layer1_step<S: HistorySource + Sync>(
        &mut self,
        history: &History<'_, S>,
        cache: Option<&EmbedCache>,
        ns: &[NodeId],
        ts: &[Time],
        op: u64,
        tracer: &mut Tracer,
    ) -> Res<()> {
        if ns.is_empty() {
            return Ok(());
        }
        tracer.in_span("layer1_step", op, |_| self.step(history, cache, ns, ts))
    }

    fn step<S: HistorySource + Sync>(
        &mut self,
        history: &History<'_, S>,
        cache: Option<&EmbedCache>,
        ns: &[NodeId],
        ts: &[Time],
    ) -> Res<()> {
        let cfg = self.params.cfg;
        let k = cfg.n_neighbors;
        self.totals.steps += 1;

        // Top layer: sample the targets; their neighbors join the frontier.
        let top = self.sample_timed(history, ns, ts);
        let mut all_ns = ns.to_vec();
        all_ns.extend_from_slice(&top.nodes);
        let mut all_ts = ts.to_vec();
        all_ts.extend_from_slice(&top.times);

        if self.fingerprints {
            let src = match history {
                History::Frozen(s) | History::Live(s) => *s,
            };
            let (fps, took) = timed(|| fingerprint::capture_many(src, k, ns, ts, cfg.n_layers - 1));
            self.totals.fingerprint.add(fps.len() as f64, took);
        }

        // Layer 1, in engine order.
        let (uns, uts) = if self.opt.enable_dedup {
            let (r, took) = timed(|| dedup_filter(&all_ns, &all_ts));
            self.totals.dedup.add(all_ns.len() as f64, took);
            self.totals.dedup_in += all_ns.len() as f64;
            self.totals.dedup_unique += r.num_unique() as f64;
            (r.ns, r.ts)
        } else {
            (all_ns, all_ts)
        };
        let rows = uns.len();

        let keys = if self.opt.enable_cache {
            let parallel = self.opt.parallel_lookup;
            let (keys, took) = timed(|| compute_keys(&uns, &uts, parallel));
            self.totals.keys.add(rows as f64, took);
            if let Some(cache) = cache {
                let mut h = self.scratch.zeros(rows, cfg.dim);
                let (mask, took) = timed(|| cache.lookup(&keys, &mut h, parallel));
                let mask = mask.map_err(|e| format!("probe cache lookup: {e}"))?;
                self.totals.lookup.add(rows as f64, took);
                self.totals.lookup_hits += mask.iter().filter(|&&hit| hit).count() as f64;
                self.scratch.give(h);
            }
            keys
        } else {
            Vec::new()
        };

        let nb = self.sample_timed(history, &uns, &uts);

        let time_dim = self.params.time.dim();
        let mut ht0 = self.scratch.take(rows, time_dim);
        let mut ht = self.scratch.take(nb.dts.len(), time_dim);
        if self.opt.enable_time_precompute {
            self.timecache.encode_zeros_into(&mut ht0);
            let encoder = &self.params.time;
            let (timecache, dts) = (&mut self.timecache, &nb.dts);
            let ((), took) = timed(|| timecache.encode_into(encoder, dts, &mut ht));
            self.totals.timecache.add(nb.dts.len() as f64, took);
        } else {
            self.params.time.encode_zeros_into(&mut ht0);
            let ((), took) = timed(|| self.params.time.encode_into(&nb.dts, &mut ht));
            self.totals.time_encode.add(nb.dts.len() as f64, took);
        }

        let edge_rows: Vec<usize> = nb
            .eids
            .iter()
            .map(|&e| if e == INVALID_EDGE { 0 } else { e as usize })
            .collect();
        let mut e_feat = self
            .scratch
            .take(edge_rows.len(), self.edge_features.cols());
        let ((), took) =
            timed(|| ops::gather_rows_into(self.edge_features, &edge_rows, &mut e_feat));
        // One read and one write of every gathered row.
        self.totals
            .gather_bytes
            .add((2 * e_feat.len() * std::mem::size_of::<f32>()) as f64, took);

        let node_rows: Vec<usize> = uns.iter().map(|&n| n as usize).collect();
        let mut h_src = self.scratch.take(rows, cfg.dim);
        ops::gather_rows_into(self.node_features, &node_rows, &mut h_src);
        let ngh_rows: Vec<usize> = nb.nodes.iter().map(|&n| n as usize).collect();
        let mut h_ngh = self.scratch.take(ngh_rows.len(), cfg.dim);
        ops::gather_rows_into(self.node_features, &ngh_rows, &mut h_ngh);
        let mask = nb.mask();

        let layer = &self.params.layers[0];
        let inputs = AttentionInputs {
            h_src: &h_src,
            ht0: &ht0,
            h_ngh: &h_ngh,
            e_feat: &e_feat,
            ht: &ht,
            mask: &mask,
        };
        let scratch = &mut self.scratch;
        let (h_out, took) = timed(|| attention::forward_with(layer, &cfg, &inputs, scratch));
        self.totals.attention_rows.add(rows as f64, took);

        // The three hot matmul shapes, on the operands attention just used.
        let mut z_src = self.scratch.take(rows, cfg.query_in_dim());
        ops::concat_cols_into(&[&h_src, &ht0], &mut z_src);
        let mut z_ngh = self.scratch.take(nb.nodes.len(), cfg.key_in_dim());
        ops::concat_cols_into(&[&h_ngh, &e_feat, &ht], &mut z_ngh);
        if let Some(head) = layer.heads.first() {
            let mut kv = self.scratch.take(z_ngh.rows(), head.wk.cols());
            let ((), took) = timed(|| matmul_into(&z_ngh, &head.wk, &mut kv));
            self.totals.matmul_kv_flop.add(flop(&z_ngh, &head.wk), took);
            self.scratch.give(kv);
            let mut q = self.scratch.take(rows, head.wq.cols());
            let ((), took) = timed(|| matmul_into(&z_src, &head.wq, &mut q));
            self.totals.matmul_q_flop.add(flop(&z_src, &head.wq), took);
            self.scratch.give(q);
        }
        let mut ffn_in = self.scratch.zeros(rows, layer.fc1_w.rows());
        for r in 0..rows {
            ffn_in.row_mut(r)[..cfg.dim].copy_from_slice(h_out.row(r));
        }
        let mut hidden = self.scratch.take(rows, layer.fc1_w.cols());
        let ((), took) = timed(|| addmm_into(&ffn_in, &layer.fc1_w, &layer.fc1_b, &mut hidden));
        self.totals
            .addmm_ffn_flop
            .add(flop(&ffn_in, &layer.fc1_w), took);

        if self.opt.enable_cache {
            let parallel = self.opt.parallel_store;
            let (stored, took) = timed(|| self.store_cache.store(&keys, &h_out, parallel));
            stored.map_err(|e| format!("probe cache store: {e}"))?;
            self.totals.store.add(rows as f64, took);
        }

        for t in [
            hidden, ffn_in, z_ngh, z_src, h_out, h_ngh, h_src, e_feat, ht, ht0,
        ] {
            self.scratch.give(t);
        }
        Ok(())
    }
}

/// Writes the per-layer metrics the probe steps measured. A stage no step
/// ran reads 0.
pub fn put_probe_layers(report: &mut WorkloadReport, t: &ProbeTotals) {
    report.put_layer("tgraph.sample_neighbors_per_s", "1/s", t.sample.per_s());
    report.put_layer(
        "tgraph.sample_valid_ratio",
        "ratio",
        ratio(t.valid_slots, t.slots),
    );
    report.put_layer(
        "tgraph.sample_view_neighbors_per_s",
        "1/s",
        t.sample_view.per_s(),
    );
    report.put_layer(
        "tensor.matmul_kv_gflops",
        "gflop/s",
        t.matmul_kv_flop.per_s() / 1e9,
    );
    report.put_layer(
        "tensor.matmul_q_gflops",
        "gflop/s",
        t.matmul_q_flop.per_s() / 1e9,
    );
    report.put_layer(
        "tensor.addmm_ffn_gflops",
        "gflop/s",
        t.addmm_ffn_flop.per_s() / 1e9,
    );
    report.put_layer(
        "tensor.gather_gb_per_s",
        "GB/s",
        t.gather_bytes.per_s() / 1e9,
    );
    report.put_layer(
        "tgat.attention_us_per_row",
        "us",
        t.attention_rows.us_per_unit(),
    );
    report.put_layer("tgat.time_encode_rows_per_s", "1/s", t.time_encode.per_s());
    report.put_layer("core.dedup_keys_per_s", "1/s", t.dedup.per_s());
    report.put_layer(
        "core.dedup_unique_ratio",
        "ratio",
        ratio(t.dedup_unique, t.dedup_in),
    );
    report.put_layer("core.keys_per_s", "1/s", t.keys.per_s());
    report.put_layer("core.cache_lookups_per_s", "1/s", t.lookup.per_s());
    report.put_layer("core.cache_stores_per_s", "1/s", t.store.per_s());
    report.put_layer("core.timecache_rows_per_s", "1/s", t.timecache.per_s());
    report.put_layer(
        "core.fingerprint_us_per_entry",
        "us",
        t.fingerprint.us_per_unit(),
    );
}

/// Nominal floating-point operations of `a × b` (two per multiply-add);
/// the kernels skip all-zero prefixes, so this is work asked for, not
/// instructions retired.
fn flop(a: &Tensor, b: &Tensor) -> f64 {
    2.0 * a.rows() as f64 * a.cols() as f64 * b.cols() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{EdgeStream, TemporalGraph};
    use tgat::TgatConfig;

    fn tiny_world() -> (TgatParams, TemporalGraph, Tensor, Tensor) {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 3).unwrap();
        let n = 40u32;
        let srcs: Vec<NodeId> = (0..n).map(|i| i % 6).collect();
        let dsts: Vec<NodeId> = (0..n).map(|i| 6 + i % 4).collect();
        let times: Vec<Time> = (0..n).map(|i| i as Time).collect();
        let graph = TemporalGraph::from_stream(&EdgeStream::new(&srcs, &dsts, &times));
        let nf = Tensor::zeros(10, cfg.dim);
        let ef = Tensor::full(n as usize, cfg.edge_dim, 0.25);
        (params, graph, nf, ef)
    }

    #[test]
    fn step_counts_work_at_every_boundary_with_all_optimizations_on() {
        let (params, graph, nf, ef) = tiny_world();
        let opt = OptConfig::all();
        let cache = EmbedCache::new(100, params.cfg.dim);
        let mut probe = Probe::new(&params, &nf, &ef, opt, true);
        let (ns, ts) = (vec![0, 1, 0], vec![30.0, 30.0, 30.0]);
        probe
            .layer1_step(
                &History::Frozen(&graph),
                Some(&cache),
                &ns,
                &ts,
                0,
                &mut Tracer::off(),
            )
            .unwrap();
        let t = probe.totals;
        let k = params.cfg.n_neighbors as f64;
        assert_eq!(t.steps, 1);
        assert_eq!(t.dedup_in, 3.0 + 3.0 * k);
        assert!(
            t.dedup_unique < t.dedup_in,
            "duplicate targets must collapse"
        );
        assert_eq!(t.keys.work, t.dedup_unique);
        assert_eq!(t.lookup.work, t.dedup_unique);
        assert_eq!(
            t.lookup_hits, 0.0,
            "the workload's cache was empty and must stay empty"
        );
        assert_eq!(cache.len(), 0);
        assert_eq!(t.store.work, t.dedup_unique);
        assert_eq!(t.attention_rows.work, t.dedup_unique);
        assert_eq!(t.timecache.work, t.dedup_unique * k);
        assert_eq!(t.time_encode.work, 0.0);
        assert_eq!(t.fingerprint.work, 3.0);
        assert_eq!(t.slots, 3.0 * k + t.dedup_unique * k);
        assert!(t.valid_slots > 0.0 && t.valid_slots <= t.slots);
        assert!(t.matmul_kv_flop.work > t.matmul_q_flop.work);
        assert_eq!(t.sample_view.work, 0.0);
    }

    #[test]
    fn stages_the_engine_skips_are_skipped() {
        let (params, graph, nf, ef) = tiny_world();
        let mut probe = Probe::new(&params, &nf, &ef, OptConfig::none(), false);
        probe
            .layer1_step(
                &History::Frozen(&graph),
                None,
                &[0, 1, 0],
                &[30.0; 3],
                0,
                &mut Tracer::off(),
            )
            .unwrap();
        let t = probe.totals;
        assert_eq!(
            (t.dedup.work, t.keys.work, t.lookup.work, t.store.work),
            (0.0, 0.0, 0.0, 0.0)
        );
        assert_eq!((t.timecache.work, t.fingerprint.work), (0.0, 0.0));
        let rows = 3.0 + 3.0 * params.cfg.n_neighbors as f64;
        assert_eq!(t.attention_rows.work, rows);
        assert_eq!(t.time_encode.work, rows * params.cfg.n_neighbors as f64);
    }
}
