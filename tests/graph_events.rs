//! Future-work (§7) graph-change events on a frozen graph edited between
//! engines that share one cache: additions after a cached time keep every
//! hit, and deletions or out-of-order additions below it are refused at
//! lookup, with nothing invalidated, so every row matches a fresh
//! recomputation.

use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::{Edge, TemporalGraph};
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
    graph.extend(&edges[..split]);
    let t = edges[split - 1].time + 1.0;
    let ns: Vec<u32> = (0..30).map(|i| edges[i * 3 % split].src).collect();
    let ts = vec![t; ns.len()];

    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    let h_before = eng.embed_batch(&ns, &ts).unwrap();

    // Grow the graph; carry the cache.
    let (cache, counters) = eng.into_cache();
    graph.extend(&edges[split..]);
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
fn out_of_order_insert_below_a_cached_time_is_refused() {
    let spec = spec_by_name("snap-msg").unwrap();
    let data = generate(&spec, 0.05, 9).unwrap();
    let cfg = cfg(data.dim());
    let params = TgatParams::init(cfg, 6).unwrap();
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let mut graph = TemporalGraph::from_stream(&data.stream);
    let edges = data.stream.edges();
    let t = data.stream.max_time() * 1.01;
    let ns: Vec<u32> = (0..30).map(|i| edges[edges.len() - 1 - i * 7].src).collect();
    let ts = vec![t; ns.len()];
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    let h_before = eng.embed_batch(&ns, &ts).unwrap();

    // In-order growth after the cached time: every window before `t` is
    // untouched, so every lookup hits and the rows are the same.
    let (cache, counters) = eng.into_cache();
    for (i, &n) in ns.iter().enumerate() {
        graph.insert(&Edge { src: n, dst: ns[(i + 1) % ns.len()], time: t * 1.01, eid: edges[i].eid });
    }
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let before = eng.counters();
    assert_eq!(eng.embed_batch(&ns, &ts).unwrap().max_abs_diff(&h_before), 0.0);
    let delta = eng.counters().delta_since(&before);
    assert_eq!((delta.cache_hits, delta.cache_stores), (delta.cache_lookups, 0), "{delta:?}");

    // An out-of-order insert below it, at the first queried node: the
    // rows that read its window are refused and recomputed.
    let (cache, counters) = eng.into_cache();
    graph.insert(&Edge { src: ns[0], dst: ns[1], time: edges[0].time, eid: edges[0].eid });
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let before = eng.counters();
    let h_after = eng.embed_batch(&ns, &ts).unwrap();
    let delta = eng.counters().delta_since(&before);
    assert!(delta.cache_hits < delta.cache_lookups, "{delta:?}");
    assert!(eng.cache().layer(1).unwrap().total_rejected() > 0);
    let h_fresh = forward_embeddings(&params, &ctx, &ns, &ts);
    assert!(h_fresh.max_abs_diff(&h_before) > 1e-6, "the insert must change some embedding");
    assert!(h_fresh.max_abs_diff(&h_after) < 1e-4);
}

#[test]
fn deletion_matches_fresh_baseline() {
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

    // Every cached row that read the deleted interaction is refused at
    // lookup: nothing is invalidated, and the rows match a fresh
    // recomputation.
    let h_opt = eng.embed_batch(&ns, &ts).unwrap();
    let h_base = forward_embeddings(&params, &ctx, &ns, &ts);
    assert!(eng.cache().layer(1).unwrap().total_rejected() > 0);
    assert!(h_opt.max_abs_diff(&h_base) < 1e-4, "a deletion must match a fresh recomputation");
}

#[test]
fn deep_model_deletion_is_caught_at_every_hop() {
    // With 3 layers, layer-2 embeddings of the endpoints' *neighbors* also
    // embed a deleted interaction; their recorded fingerprints reach it,
    // so the lookup refuses them as well as the endpoints' rows.
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
    ns.extend(graph.neighbors(victim.src).iter().rev().map(|e| e.ngh));
    ns.truncate(12);
    let ts = vec![t; ns.len()];

    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    let _ = eng.embed_batch(&ns, &ts).unwrap();

    let (cache, counters) = eng.into_cache();
    assert!(graph.delete_edge(victim.src, victim.dst, victim.eid));
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let h_opt = eng.embed_batch(&ns, &ts).unwrap();
    let h_base = forward_embeddings(&params, &ctx, &ns, &ts);
    let rejected = |l: usize| eng.cache().layer(l).unwrap().total_rejected();
    assert!(rejected(1) > 0 && rejected(2) > 0, "both cached layers refuse rows");
    assert!(h_opt.max_abs_diff(&h_base) < 1e-4, "a 3-layer model must match a fresh recomputation");
}

#[test]
fn deletion_needs_no_invalidation() {
    // Deleting the most recent interaction of a queried node changes its
    // embedding; the next engine over the same cache sees the change at
    // lookup, with no invalidation call.
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
    let h_before = eng.embed_batch(&ns, &ts).unwrap();

    let (cache, counters) = eng.into_cache();
    graph.delete_edge(victim.src, victim.dst, victim.eid);
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    let h_after = eng.embed_batch(&ns, &ts).unwrap();
    let h_fresh = forward_embeddings(&params, &ctx, &ns, &ts);

    assert!(
        h_fresh.max_abs_diff(&h_before) > 1e-6,
        "deleting a node's most recent edge must change its embedding"
    );
    assert!(h_fresh.max_abs_diff(&h_after) < 1e-4, "the cached layer-1 row of (src, t) is refused");
}
