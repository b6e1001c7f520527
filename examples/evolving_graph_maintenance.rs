//! Maintaining the TGOpt cache while the graph changes — the paper's
//! future-work scenario (§7), implemented here: the cache is carried
//! across edits of the graph, and every lookup asks whether what the row
//! read changed since it was stored. Edge *additions* after a cached time
//! change nothing it read, so reuse is total; an edge *deletion* changes
//! history, and exactly the rows that read it are refused and recomputed.
//! Nothing is invalidated by hand.
//!
//! ```sh
//! cargo run --release --example evolving_graph_maintenance
//! ```

use tgopt_repro::datasets;
use tgopt_repro::graph::{Edge, TemporalGraph};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = datasets::spec_by_name("snap-msg").ok_or("dataset snap-msg missing from catalog")?;
    let data = datasets::generate(&spec, 0.2, 3)?;
    let cfg = TgatConfig {
        dim: 24,
        edge_dim: data.dim(),
        time_dim: 24,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 8,
    };
    let params = TgatParams::init(cfg, 21)?;
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);

    // Phase 1: serve queries over the first 80% of the history.
    let edges = data.stream.edges();
    let split = edges.len() * 8 / 10;
    let mut graph = TemporalGraph::with_nodes(data.stream.num_nodes());
    graph.extend(&edges[..split]);
    let t1 = edges[split - 1].time + 1.0;
    let queries: Vec<u32> = (0..40).map(|i| edges[i * 7 % split].src).collect();
    let qts = vec![t1; queries.len()];

    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut engine = TgoptEngine::new(&params, ctx, OptConfig::all());
    let _ = engine.embed_batch(&queries, &qts)?;
    let warm = engine.cache().len();
    println!("phase 1: warmed cache with {warm} embeddings over {split} edges");

    // Phase 2: the graph grows in time order. Additions after a target's
    // time never change its temporal subgraph (t_j < t screens them out),
    // so the cache is carried over via into_cache/with_cache and every
    // lookup finds its row still valid.
    let (cache, counters) = engine.into_cache();
    graph.extend(&edges[split..]);
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut engine = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let before = engine.counters();
    let h_grown = engine.embed_batch(&queries, &qts)?;
    let delta = engine.counters().delta_since(&before);
    println!(
        "phase 2: after growth, re-query at the same (node, t): {:.0}% served from cache",
        100.0 * delta.hit_rate()
    );
    assert!(delta.hit_rate() >= 0.9, "growth after the cached time must keep reuse: {delta:?}");

    // Sanity: a cold baseline on the grown graph agrees exactly.
    let mut cold = TgoptEngine::new(&params, ctx, OptConfig::none());
    let h_cold = cold.embed_batch(&queries, &qts)?;
    println!(
        "         cached results match a cold baseline within {:.1e}",
        h_grown.max_abs_diff(&h_cold)
    );
    assert!(h_grown.max_abs_diff(&h_cold) < 1e-4);

    // Phase 3: an edge is deleted (retracted message): the most recent
    // interaction of a queried node before its query time, which its
    // cached window holds. Re-serving refuses exactly the rows that read it.
    let victim: Edge = *edges[..split]
        .iter()
        .rev()
        .find(|e| queries.contains(&e.src))
        .ok_or("no queried node has an interaction")?;
    let (cache, counters) = engine.into_cache();
    graph.delete_edge(victim.src, victim.dst, victim.eid);
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut engine = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let h_after = engine.embed_batch(&queries, &qts)?;
    let refused = engine.cache().layer(1).map_or(0, |c| c.total_rejected());
    println!(
        "phase 3: deleted edge ({}, {}, t={}); {refused} cached embeddings refused and recomputed",
        victim.src, victim.dst, victim.time
    );
    assert!(refused > 0, "the deleted edge sat in a cached window");
    assert!(h_after.max_abs_diff(&h_grown) > 1e-6, "the deletion must change some embedding");

    let mut fresh = TgoptEngine::new(&params, ctx, OptConfig::none());
    let h_fresh = fresh.embed_batch(&queries, &qts)?;
    let diff = h_after.max_abs_diff(&h_fresh);
    println!("         post-delete embeddings match a fresh baseline within {diff:.1e}");
    assert!(diff < 1e-4, "every refused row must be recomputed");
    println!("\ncache maintained across growth and deletion without recomputing the world.");
    Ok(())
}
