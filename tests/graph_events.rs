//! Future-work (§7) graph-change events on a live graph that grows between
//! engines sharing one cache, each engine pinned to a view: appends after
//! a cached time keep every hit, and a late append below it is refused at
//! lookup, with nothing invalidated, so every row matches a fresh
//! recomputation over a cold rebuild. Edges are only ever added: nothing
//! deletes one.

use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::{Edge, LiveGraph, TemporalGraph};
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

    let base = TemporalGraph::from_edges(data.stream.num_nodes(), &edges[..split]);
    let live = LiveGraph::new(base.clone());
    let t = edges[split - 1].time + 1.0;
    let ns: Vec<u32> = (0..30).map(|i| edges[i * 3 % split].src).collect();
    let ts = vec![t; ns.len()];

    let ctx = GraphContext { graph: &base, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    eng.pin_view(live.view());
    let h_before = eng.embed_batch(&ns, &ts).unwrap();

    // Grow the graph; carry the cache.
    let (cache, counters) = eng.into_cache();
    edges[split..].iter().for_each(|e| {
        live.append(e);
    });
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    eng.pin_view(live.view());
    let before = eng.counters();
    let h_after = eng.embed_batch(&ns, &ts).unwrap();
    let delta = eng.counters().delta_since(&before);

    // Same (node, t) targets: additions are screened out by t_j < t, so
    // results are identical and reuse is total for the cached layer.
    assert_eq!(h_before.max_abs_diff(&h_after), 0.0);
    assert_eq!(delta.cache_hits, delta.cache_lookups);
    assert_eq!(delta.cache_stores, 0);

    // And the cold tape forward on the grown graph agrees.
    let grown = TemporalGraph::from_stream(&data.stream);
    let ctx = GraphContext { graph: &grown, node_features: &node_features, edge_features: &data.edge_features };
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
    let graph = TemporalGraph::from_stream(&data.stream);
    let live = LiveGraph::new(graph.clone());
    let edges = data.stream.edges();
    let t = data.stream.max_time() * 1.01;
    let ns: Vec<u32> = (0..30).map(|i| edges[edges.len() - 1 - i * 7].src).collect();
    let ts = vec![t; ns.len()];
    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    eng.pin_view(live.view());
    let h_before = eng.embed_batch(&ns, &ts).unwrap();

    // In-order growth after the cached time: every window before `t` is
    // untouched, so every lookup hits and the rows are the same.
    let (cache, counters) = eng.into_cache();
    let mut all = edges.to_vec();
    for (i, &n) in ns.iter().enumerate() {
        all.push(Edge { src: n, dst: ns[(i + 1) % ns.len()], time: t * 1.01, eid: edges[i].eid });
        live.append(all.last().unwrap());
    }
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    eng.pin_view(live.view());
    let before = eng.counters();
    assert_eq!(eng.embed_batch(&ns, &ts).unwrap().max_abs_diff(&h_before), 0.0);
    let delta = eng.counters().delta_since(&before);
    assert_eq!((delta.cache_hits, delta.cache_stores), (delta.cache_lookups, 0), "{delta:?}");

    // An out-of-order append below it, at the first queried node: the
    // rows that read its window are refused and recomputed.
    let (cache, counters) = eng.into_cache();
    all.push(Edge { src: ns[0], dst: ns[1], time: edges[0].time, eid: edges[0].eid });
    live.append(all.last().unwrap());
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    eng.pin_view(live.view());
    let before = eng.counters();
    let h_after = eng.embed_batch(&ns, &ts).unwrap();
    let delta = eng.counters().delta_since(&before);
    assert!(delta.cache_hits < delta.cache_lookups, "{delta:?}");
    assert!(eng.cache().layer(1).unwrap().total_rejected() > 0);
    let cold = TemporalGraph::from_edges(data.stream.num_nodes(), &all);
    let ctx = GraphContext { graph: &cold, node_features: &node_features, edge_features: &data.edge_features };
    let h_fresh = forward_embeddings(&params, &ctx, &ns, &ts);
    assert!(h_fresh.max_abs_diff(&h_before) > 1e-6, "the append must change some embedding");
    assert!(h_fresh.max_abs_diff(&h_after) < 1e-4);
}

#[test]
fn deep_model_deletion_is_caught_at_every_hop() {
    // The change is a late interaction between the victim's endpoints,
    // below every time the cache read. With 3 layers, layer-2 embeddings
    // of the endpoints' *neighbors* also read the endpoints' windows;
    // their recorded fingerprints reach them, so the lookup refuses them
    // as well as the endpoints' rows.
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
    let graph = TemporalGraph::from_stream(&data.stream);
    let live = LiveGraph::new(graph.clone());
    let edges = data.stream.edges();
    let victim = *edges.last().unwrap();
    let t = data.stream.max_time() * 1.01;
    // Query the victim's most recent *neighbors* too, whose deep
    // embeddings transitively read the endpoints' windows.
    let mut ns = vec![victim.src, victim.dst];
    ns.extend(graph.neighbors(victim.src).iter().rev().map(|e| e.ngh));
    ns.truncate(12);
    let ts = vec![t; ns.len()];

    let ctx = GraphContext { graph: &graph, node_features: &node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
    eng.pin_view(live.view());
    let _ = eng.embed_batch(&ns, &ts).unwrap();

    let (cache, counters) = eng.into_cache();
    let late = Edge { time: edges[0].time, ..victim };
    live.append(&late);
    let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), cache, counters);
    eng.pin_view(live.view());
    let h_opt = eng.embed_batch(&ns, &ts).unwrap();
    let cold = TemporalGraph::from_edges(data.stream.num_nodes(), &[edges, &[late]].concat());
    let ctx = GraphContext { graph: &cold, node_features: &node_features, edge_features: &data.edge_features };
    let h_base = forward_embeddings(&params, &ctx, &ns, &ts);
    let rejected = |l: usize| eng.cache().layer(l).unwrap().total_rejected();
    assert!(rejected(1) > 0 && rejected(2) > 0, "both cached layers refuse rows");
    assert!(h_opt.max_abs_diff(&h_base) < 1e-4, "a 3-layer model must match a fresh recomputation");
}
