//! Maintaining the TGOpt cache while the graph changes — the paper's
//! future-work scenario (§7), implemented here: a live graph grows by
//! appends over one shared base, each engine reads it through a pinned
//! view, and every lookup asks whether what the row read changed since it
//! was stored. Appends after a cached time change nothing it read, so
//! reuse is total; a late-arriving edge below a cached time changes
//! history, and exactly the rows that read it are refused and recomputed.
//! Nothing is invalidated by hand, and nothing deletes an edge.
//!
//! ```sh
//! cargo run --release --example evolving_graph_maintenance
//! ```

use std::sync::Arc;
use tgopt_repro::datasets;
use tgopt_repro::graph::{Edge, LiveGraph, TemporalGraph};
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

    // Phase 1: serve queries over the first 80% of the history, a base
    // shared with the live graph that grows over it.
    let edges = data.stream.edges();
    let split = edges.len() * 8 / 10;
    let base = Arc::new(TemporalGraph::from_edges(data.stream.num_nodes(), &edges[..split]));
    let live = LiveGraph::from_shared(Arc::clone(&base));
    let t1 = edges[split - 1].time + 1.0;
    let queries: Vec<u32> = (0..40).map(|i| edges[i * 7 % split].src).collect();
    let qts = vec![t1; queries.len()];

    let ctx = GraphContext { graph: &base, node_features: &node_features, edge_features: &data.edge_features };
    let mut engine = TgoptEngine::new(&params, ctx, OptConfig::all());
    engine.pin_view(live.view());
    let _ = engine.embed_batch(&queries, &qts)?;
    let warm = engine.cache().len();
    println!("phase 1: warmed cache with {warm} embeddings over {split} edges");

    // Phase 2: the graph grows in time order. Additions after a target's
    // time never change its temporal subgraph (t_j < t screens them out),
    // so the cache is carried over via into_cache/with_cache to an engine
    // pinned to a newer view, and every lookup finds its row still valid.
    let (cache, counters) = engine.into_cache();
    edges[split..].iter().for_each(|e| {
        live.append(e);
    });
    let mut engine = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    engine.pin_view(live.view());
    let before = engine.counters();
    let h_grown = engine.embed_batch(&queries, &qts)?;
    let delta = engine.counters().delta_since(&before);
    println!(
        "phase 2: after growth, re-query at the same (node, t): {:.0}% served from cache",
        100.0 * delta.hit_rate()
    );
    assert!(delta.hit_rate() >= 0.9, "growth after the cached time must keep reuse: {delta:?}");

    // Sanity: a cold baseline on a rebuild of the grown graph agrees.
    let mut all = edges.to_vec();
    let grown = TemporalGraph::from_edges(data.stream.num_nodes(), &all);
    let cold_ctx = GraphContext { graph: &grown, node_features: &node_features, edge_features: &data.edge_features };
    let h_cold = TgoptEngine::new(&params, cold_ctx, OptConfig::none()).embed_batch(&queries, &qts)?;
    println!(
        "         cached results match a cold baseline within {:.1e}",
        h_grown.max_abs_diff(&h_cold)
    );
    assert!(h_grown.max_abs_diff(&h_cold) < 1e-4);

    // Phase 3: a late-arriving edge (a delayed message) at a queried node,
    // at the time of its newest interaction before the cached query time,
    // lands in that node's most recent window. Re-serving refuses exactly
    // the rows that read it.
    let newest = *base.neighbors_before(queries[0], t1).last().ok_or("a queried node has no history")?;
    let late = Edge { src: queries[0], dst: queries[1], time: newest.time, eid: newest.eid };
    let (cache, counters) = engine.into_cache();
    live.append(&late);
    all.push(late);
    let mut engine = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    engine.pin_view(live.view());
    let h_after = engine.embed_batch(&queries, &qts)?;
    let refused = engine.cache().layer(1).map_or(0, |c| c.total_rejected());
    println!(
        "phase 3: late edge ({}, {}, t={}) below t={t1}; {refused} cached embeddings refused and recomputed",
        late.src, late.dst, late.time
    );
    assert!(refused > 0, "the late edge reached a cached window");
    assert!(h_after.max_abs_diff(&h_grown) > 1e-6, "the late edge must change some embedding");

    let rebuilt = TemporalGraph::from_edges(data.stream.num_nodes(), &all);
    let fresh_ctx = GraphContext { graph: &rebuilt, node_features: &node_features, edge_features: &data.edge_features };
    let h_fresh = TgoptEngine::new(&params, fresh_ctx, OptConfig::none()).embed_batch(&queries, &qts)?;
    let diff = h_after.max_abs_diff(&h_fresh);
    println!("         post-append embeddings match a fresh baseline within {diff:.1e}");
    assert!(diff < 1e-4, "every refused row must be recomputed");
    println!("\ncache maintained across growth and a late edge without recomputing the world.");
    Ok(())
}
