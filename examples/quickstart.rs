//! Quickstart: run TGAT inference with and without TGOpt on a synthetic
//! dynamic graph and verify the outputs agree while TGOpt runs faster.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::time::Instant;
use tgopt_repro::datasets;
use tgopt_repro::graph::{BatchIter, TemporalGraph};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Get a dynamic graph. Here: a synthetic stand-in for the Wikipedia
    //    edit stream (see `tg_datasets` for the full catalog, or
    //    `datasets::load_csv` for your own data).
    let spec = datasets::spec_by_name("jodie-wiki").ok_or("dataset jodie-wiki missing from catalog")?;
    let data = datasets::generate(&spec, 0.02, 42)?;
    println!(
        "dataset: {} — {} interactions among {} nodes, {}-dim edge features",
        data.name,
        data.stream.len(),
        data.stream.num_nodes(),
        data.dim()
    );

    // 2. Build a TGAT model. Real deployments load trained weights
    //    (`TgatParams::load`); inference *runtime* is weight-independent,
    //    so the quickstart uses seeded random parameters.
    let cfg = TgatConfig {
        dim: 32,
        edge_dim: data.dim(),
        time_dim: 32,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 10,
    };
    let params = TgatParams::init(cfg, 42)?;
    println!(
        "model: {} layers, {} heads, {} parameters",
        cfg.n_layers,
        cfg.n_heads,
        params.num_parameters()
    );

    // 3. Replay the interaction stream in batches of 200 edges, computing
    //    temporal embeddings for both endpoints of every edge.
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(graph.num_nodes(), cfg.dim);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };

    // The baseline is the same engine with every optimization off.
    let mut baseline = TgoptEngine::new(&params, ctx, OptConfig::none());
    let start = Instant::now();
    let mut base_sum = 0.0f64;
    for batch in BatchIter::new(&data.stream, 200) {
        let (ns, ts) = batch.targets();
        let h = baseline.embed_batch(&ns, &ts)?;
        base_sum += h.as_slice().iter().map(|&v| v as f64).sum::<f64>();
    }
    let base_s = start.elapsed().as_secs_f64();
    println!("{:<14} {base_s:>7.2}s   (checksum {base_sum:+.4e})", "baseline TGAT");

    let mut optimized = TgoptEngine::new(&params, ctx, OptConfig::all());
    let start = Instant::now();
    let mut opt_sum = 0.0f64;
    for batch in BatchIter::new(&data.stream, 200) {
        let (ns, ts) = batch.targets();
        let h = optimized.embed_batch(&ns, &ts)?;
        opt_sum += h.as_slice().iter().map(|&v| v as f64).sum::<f64>();
    }
    let opt_s = start.elapsed().as_secs_f64();
    println!("{:<14} {opt_s:>7.2}s   (checksum {opt_sum:+.4e})", "TGOpt");

    // 4. Same results, less time.
    let drift = (base_sum - opt_sum).abs() / base_sum.abs().max(1.0);
    println!(
        "\nspeedup: {:.2}x    output drift: {:.2e} (identical within f32 tolerance)",
        base_s / opt_s,
        drift
    );
    println!(
        "cache: {:.1}% hit rate, {} embeddings ({} KiB); dedup removed {} duplicate targets",
        100.0 * optimized.counters().hit_rate(),
        optimized.cache().len(),
        optimized.cache().bytes_used() / 1024,
        optimized.counters().dedup_removed,
    );
    assert!(drift < 1e-3, "engines must agree");
    Ok(())
}
