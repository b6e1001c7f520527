//! The paper's central correctness claim (§5.1.3): TGOpt produces the same
//! embeddings as the baseline TGAT computation, within floating-point
//! tolerance, on every dataset and under every optimization configuration.
//! The reference is the independent tape forward.

use tgopt_repro::datasets::{all_specs, generate};
use tgopt_repro::graph::{BatchIter, TemporalGraph};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::forward_embeddings;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

const TOL: f32 = 1e-4;

fn tiny_cfg(edge_dim: usize) -> TgatConfig {
    TgatConfig { dim: 8, edge_dim, time_dim: 8, n_layers: 2, n_heads: 2, n_neighbors: 5 }
}

/// Replays a dataset through the engine and the tape forward batch by batch
/// and compares every output tensor elementwise.
fn check_dataset(name: &str, opt: OptConfig, batch_size: usize) {
    let spec = all_specs().into_iter().find(|s| s.name == name).unwrap();
    let data = generate(&spec, 0.002, 13).unwrap();
    let cfg = tiny_cfg(data.dim());
    let params = TgatParams::init(cfg, 5).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let mut ours = TgoptEngine::new(&params, ctx, opt);
    for batch in BatchIter::new(&data.stream, batch_size) {
        let (ns, ts) = batch.targets();
        let hb = forward_embeddings(&params, &ctx, &ns, &ts);
        let ho = ours.embed_batch(&ns, &ts).unwrap();
        let diff = hb.max_abs_diff(&ho);
        assert!(
            diff < TOL,
            "{name} batch {}: max abs diff {diff} exceeds tolerance ({opt:?})",
            batch.index
        );
        assert!(ho.all_finite(), "{name}: non-finite embedding");
    }
}

#[test]
fn all_datasets_match_baseline_with_all_optimizations() {
    for spec in all_specs() {
        check_dataset(spec.name, OptConfig::all(), 50);
    }
}

#[test]
fn bipartite_dataset_matches_under_every_ablation_stage() {
    for opt in [
        OptConfig::none(),
        OptConfig::cache_only(),
        OptConfig::cache_dedup(),
        OptConfig::all(),
    ] {
        check_dataset("jodie-wiki", opt, 50);
    }
}

#[test]
fn homogeneous_dataset_matches_under_every_ablation_stage() {
    for opt in [
        OptConfig::none(),
        OptConfig::cache_only(),
        OptConfig::cache_dedup(),
        OptConfig::all(),
    ] {
        check_dataset("snap-msg", opt, 50);
    }
}

#[test]
fn equivalence_holds_under_tiny_cache_and_window() {
    check_dataset("snap-email", OptConfig::all().with_cache_limit(8), 50);
    check_dataset("snap-email", OptConfig::all().with_time_window(1), 50);
}

#[test]
fn equivalence_holds_for_odd_batch_sizes() {
    check_dataset("jodie-mooc", OptConfig::all(), 1);
    check_dataset("jodie-mooc", OptConfig::all(), 7);
    check_dataset("jodie-mooc", OptConfig::all(), 1000);
}

#[test]
fn parallel_store_configuration_matches() {
    let opt = OptConfig { parallel_store: true, ..OptConfig::all() };
    check_dataset("snap-msg", opt, 50);
}

#[test]
fn cache_last_layer_matches() {
    let opt = OptConfig { cache_last_layer: true, ..OptConfig::all() };
    check_dataset("jodie-reddit", opt, 50);
}
