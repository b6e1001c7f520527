//! The standard inference replay (§5.1): iterate a dataset's edges
//! chronologically in fixed batches, generating temporal embeddings for both
//! endpoints of every edge.

use std::time::Instant;
use tg_datasets::Dataset;
use tg_graph::{BatchIter, TemporalGraph};
use tgat::engine::GraphContext;
use tg_telemetry::Recorder;
use tgat::TgatParams;
use tgopt::{EdgeProjStats, EngineCounters, OptConfig, TgoptEngine};

/// Per-batch observations (drive Figures 3 and 7).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchRecord {
    /// Last edge timestamp in the batch.
    pub time: f32,
    /// Cache probes in this batch.
    pub lookups: u64,
    /// Cache hits (reused embeddings) in this batch.
    pub hits: u64,
    /// Unique embeddings recomputed in this batch.
    pub recomputed: u64,
}

/// Result of one full replay.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall time of the embedding work (graph build excluded, as the paper
    /// also uses a pre-built sampler structure).
    pub seconds: f64,
    pub stats: Recorder,
    pub counters: EngineCounters,
    pub batches: Vec<BatchRecord>,
    /// Cache payload bytes at the end of the run.
    pub cache_bytes: usize,
    /// Cached items at the end of the run.
    pub cache_items: usize,
    /// The layer-1 edge-projection table's counters at the end of the run.
    pub edge_proj: EdgeProjStats,
    /// Embedding checksum (sum of all outputs) — lets callers assert two
    /// configurations did the same computation.
    pub checksum: f64,
}

/// Replays the standard inference task over `dataset` with `params` under
/// `opt` (`OptConfig::none()` is the baseline).
///
/// The temporal graph is built up-front (as in the official TGAT artifact);
/// the strict `t_j < t` sampling constraint ensures a batch never sees
/// same-or-later interactions, so results match incremental insertion.
pub fn replay(
    dataset: &Dataset,
    params: &TgatParams,
    opt: OptConfig,
    batch_size: usize,
    collect_stats: bool,
) -> RunResult {
    let graph = TemporalGraph::from_stream(&dataset.stream);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &dataset.node_features,
        edge_features: &dataset.edge_features,
    };
    let mut batches = Vec::new();
    let mut checksum = 0.0f64;
    let mut eng = TgoptEngine::new(params, ctx, opt);
    if collect_stats {
        eng.enable_stats();
    }
    let start = Instant::now();
    let mut prev = eng.counters();
    for batch in BatchIter::new(&dataset.stream, batch_size) {
        let (ns, ts) = batch.targets();
        let h = eng
            .embed_batch(&ns, &ts)
            .unwrap_or_else(|e| panic!("tgopt replay failed: {e}"));
        checksum += h.as_slice().iter().map(|&v| v as f64).sum::<f64>();
        let now = eng.counters();
        let delta = now.delta_since(&prev);
        prev = now;
        batches.push(BatchRecord {
            time: batch.edges.last().map_or(0.0, |e| e.time),
            lookups: delta.cache_lookups,
            hits: delta.cache_hits,
            recomputed: delta.recomputed,
        });
    }
    let seconds = start.elapsed().as_secs_f64();
    RunResult {
        seconds,
        stats: eng.stats().clone(),
        counters: eng.counters(),
        cache_bytes: eng.cache().bytes_used(),
        cache_items: eng.cache().len(),
        edge_proj: eng.cache().edge_proj().stats(),
        batches,
        checksum,
    }
}

/// Generates the named dataset at the scale/seed given by `args`.
///
/// Node features are zero vectors (Table 2); their width is set to the
/// model dimension so `h^(0)` matches `--dim` even when it differs from the
/// dataset's edge feature dimension.
pub fn dataset_for(args: &crate::ExpArgs, name: &str) -> Dataset {
    let spec = tg_datasets::spec_by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"));
    let mut ds = tg_datasets::generate(&spec, args.scale, args.seed)
        .unwrap_or_else(|e| panic!("failed to generate dataset {name}: {e}"));
    ds.node_features = tg_tensor::Tensor::zeros(ds.node_features.rows(), args.dim);
    ds
}

/// Seeded model parameters sized for `dataset` under `args`.
///
/// Inference runtime is weight-independent, so experiments use seeded
/// random weights; accuracy-sensitive tests train via `tgat::train`.
pub fn params_for(args: &crate::ExpArgs, dataset: &Dataset) -> TgatParams {
    TgatParams::init(args.model_config(dataset.dim()), args.seed)
        .unwrap_or_else(|e| panic!("invalid model configuration: {e}"))
}

/// Mean and sample standard deviation of a series.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

