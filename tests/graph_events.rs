//! Future-work (§7) graph-change events: additions are reuse-safe, cache
//! carry-over across engine rebuilds works, and deletions restore
//! correctness after targeted invalidation.

use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::TemporalGraph;
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::forward_embeddings;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

fn cfg(edge_dim: usize) -> TgatConfig {
    TgatConfig { dim: 8, edge_dim, time_dim: 8, n_layers: 2, n_heads: 2, n_neighbors: 4 }
}

#[test]
fn additions_preserve_cached_results_and_reuse() {
    let spec = spec_by_name("snap-msg").unwrap();
    let data = generate(&spec, 0.05, 9).unwrap();
    let cfg = cfg(data.dim());
    let params = TgatParams::init(cfg, 6).unwrap();
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let edges = data.stream.edges();
    let split = edges.len() / 2;

    let mut graph = TemporalGraph::with_nodes(data.stream.num_nodes());
    for e in &edges[..split] {
        graph.insert(e);
    }
    let t = edges[split - 1].time + 1.0;
    let ns: Vec<u32> = (0..30).map(|i| edges[i * 3 % split].src).collect();
    let ts = vec![t; ns.len()];

    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    let h_before = eng.embed_batch(&ns, &ts).unwrap();

    // Grow the graph; carry the cache.
    let (cache, counters) = eng.into_cache();
    for e in &edges[split..] {
        graph.insert(e);
    }
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let before = eng.counters();
    let h_after = eng.embed_batch(&ns, &ts).unwrap();
    let delta = eng.counters().delta_since(&before);

    // Same (node, t) targets: additions are screened out by t_j < t, so
    // results are identical and reuse is total for the cached layer.
    assert_eq!(h_before.max_abs_diff(&h_after), 0.0);
    assert_eq!(delta.cache_hits, delta.cache_lookups);
    assert_eq!(delta.cache_stores, 0);

    // And the cold tape forward on the grown graph agrees.
    let hb = forward_embeddings(&params, &ctx, &ns, &ts);
    assert!(hb.max_abs_diff(&h_after) < 1e-4);
}

#[test]
fn deletion_with_invalidation_matches_fresh_baseline() {
    let spec = spec_by_name("snap-email").unwrap();
    let data = generate(&spec, 0.01, 9).unwrap();
    let cfg = cfg(data.dim());
    let params = TgatParams::init(cfg, 6).unwrap();
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let mut graph = TemporalGraph::from_stream(&data.stream);
    let edges = data.stream.edges();
    let t = data.stream.max_time() + 1.0;
    let ns: Vec<u32> = (0..40).map(|i| edges[i * 5 % edges.len()].src).collect();
    let ts = vec![t; ns.len()];

    // Warm the cache.
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    let _ = eng.embed_batch(&ns, &ts).unwrap();

    // Delete an edge whose endpoint is among the queried targets.
    let victim = *edges
        .iter()
        .rev()
        .find(|e| ns.contains(&e.src))
        .expect("some queried node has an edge");
    let (cache, counters) = eng.into_cache();
    assert!(graph.delete_edge(victim.src, victim.dst, victim.eid));
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);

    // For a 2-layer model only the endpoints' layer-1 embeddings can embed
    // the deleted interaction, so invalidating them restores correctness.
    eng.invalidate_edge_deletion(victim.src, victim.dst);
    let h_opt = eng.embed_batch(&ns, &ts).unwrap();
    let h_base = forward_embeddings(&params, &ctx, &ns, &ts);
    assert!(
        h_opt.max_abs_diff(&h_base) < 1e-4,
        "deletion + invalidation must match a fresh recomputation"
    );
}

#[test]
fn deep_model_deletion_needs_multi_hop_invalidation() {
    // With 3 layers, layer-2 embeddings of the endpoints' *neighbors* also
    // embed a deleted interaction; `invalidate_edge_deletion` handles the
    // hop expansion that per-endpoint invalidation misses.
    let spec = spec_by_name("snap-msg").unwrap();
    let data = generate(&spec, 0.05, 12).unwrap();
    let cfg3 = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 3,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg3, 6).unwrap();
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg3.dim);
    let mut graph = TemporalGraph::from_stream(&data.stream);
    let edges = data.stream.edges();
    let victim = *edges.last().unwrap();
    let t = data.stream.max_time() * 1.01;
    // Query the victim's most recent *neighbors* too, whose deep embeddings
    // transitively include the deleted edge.
    let mut ns = vec![victim.src, victim.dst];
    ns.extend(graph.k_hop_nodes(victim.src, 1));
    ns.truncate(12);
    let ts = vec![t; ns.len()];

    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    let _ = eng.embed_batch(&ns, &ts).unwrap();

    let (cache, counters) = eng.into_cache();
    assert!(graph.delete_edge(victim.src, victim.dst, victim.eid));
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let removed = eng.invalidate_edge_deletion(victim.src, victim.dst);
    assert!(removed > 0);

    let h_opt = eng.embed_batch(&ns, &ts).unwrap();
    let h_base = forward_embeddings(&params, &ctx, &ns, &ts);
    assert!(
        h_opt.max_abs_diff(&h_base) < 1e-4,
        "multi-hop invalidation must restore correctness for a 3-layer model"
    );
}

#[test]
fn deletion_without_invalidation_can_go_stale() {
    // Documents *why* invalidation is needed: skipping it leaves the cache
    // serving pre-deletion history. (If the deleted edge was not in any
    // sampled neighborhood this can coincide, so pick the victim to be the
    // most recent interaction of a queried node.)
    let spec = spec_by_name("snap-msg").unwrap();
    let data = generate(&spec, 0.05, 10).unwrap();
    let cfg = cfg(data.dim());
    let params = TgatParams::init(cfg, 8).unwrap();
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let mut graph = TemporalGraph::from_stream(&data.stream);
    let edges = data.stream.edges();
    let victim = *edges.last().unwrap();
    // A relative bump: large f32 timestamps have ulp > 1, so `+ 1.0` could
    // round back to max_time and exclude the victim via `t_j < t` already.
    let t = data.stream.max_time() * 1.01;
    let ns = vec![victim.src];
    let ts = vec![t];

    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    let _ = eng.embed_batch(&ns, &ts).unwrap();

    let (cache, counters) = eng.into_cache();
    graph.delete_edge(victim.src, victim.dst, victim.eid);
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut stale = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let h_stale = stale.embed_batch(&ns, &ts).unwrap();
    let h_fresh = forward_embeddings(&params, &ctx, &ns, &ts);

    // The uncached top layer re-samples the mutated graph, but the cached
    // layer-1 embedding of (src, t) still reflects pre-deletion history, so
    // the result no longer matches the fresh graph state...
    assert!(
        h_fresh.max_abs_diff(&h_stale) > 1e-6,
        "deleting a node's most recent edge must change its embedding"
    );
    // ...until the node is invalidated, which restores agreement.
    stale.invalidate_edge_deletion(victim.src, victim.dst);
    let h_repaired = stale.embed_batch(&ns, &ts).unwrap();
    assert!(h_fresh.max_abs_diff(&h_repaired) < 1e-4);
}
