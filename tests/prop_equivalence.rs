//! The heavyweight property: on *arbitrary* random dynamic graphs, batch
//! compositions, and optimization configurations, TGOpt's embeddings equal
//! the tape forward's within floating-point tolerance.

use proptest::prelude::*;
use tgopt_repro::graph::{Edge, EdgeStream, TemporalGraph};
use tgopt_repro::tensor::init;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::forward_embeddings;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

#[derive(Debug, Clone)]
struct Scenario {
    edges: Vec<(u32, u32, u32)>, // (src, dst, gap)
    queries: Vec<(u32, f32)>,    // (node, time-fraction of max)
    n_layers: usize,
    k: usize,
    opt_variant: u8,
    cache_limit: usize,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec((0u32..12, 0u32..12, 0u32..10), 5..80),
        proptest::collection::vec((0u32..12, 0.0f32..1.5), 1..40),
        1usize..=3,
        1usize..5,
        0u8..5,
        1usize..200,
    )
        .prop_map(|(edges, queries, n_layers, k, opt_variant, cache_limit)| Scenario {
            edges,
            queries,
            n_layers,
            k,
            opt_variant,
            cache_limit,
        })
}

fn opt_for(variant: u8, cache_limit: usize) -> OptConfig {
    let base = match variant {
        0 => OptConfig::none(),
        1 => OptConfig::cache_only(),
        2 => OptConfig::cache_dedup(),
        3 => OptConfig { cache_last_layer: true, ..OptConfig::all() },
        _ => OptConfig::all(),
    };
    OptConfig { cache_limit, ..base }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tgopt_equals_baseline_on_random_graphs(s in scenario()) {
        let mut t = 0.0f32;
        let edges: Vec<Edge> = s
            .edges
            .iter()
            .enumerate()
            .map(|(i, &(src, dst, gap))| {
                t += gap as f32;
                Edge { src, dst, time: t, eid: i as u32 }
            })
            .collect();
        let stream = EdgeStream::from_edges(edges);
        let graph = TemporalGraph::from_stream(&stream);
        let max_t = stream.max_time().max(1.0);

        let cfg = TgatConfig {
            dim: 8,
            edge_dim: 6,
            time_dim: 4,
            n_layers: s.n_layers,
            n_heads: 2,
            n_neighbors: s.k,
        };
        let params = TgatParams::init(cfg, 3).unwrap();
        let mut rng = init::seeded_rng(4);
        let node_features = init::normal(&mut rng, 12, cfg.dim, 0.5);
        let edge_features = init::normal(&mut rng, stream.len(), cfg.edge_dim, 0.5);
        let ctx = GraphContext {
            graph: &graph,
            node_features: &node_features,
            edge_features: &edge_features,
        };

        let mut ours = TgoptEngine::new(&params, ctx, opt_for(s.opt_variant, s.cache_limit));

        // Feed the queries in three chunks so the cache sees repeat targets.
        let ns: Vec<u32> = s.queries.iter().map(|&(n, _)| n).collect();
        let ts: Vec<f32> = s.queries.iter().map(|&(_, f)| f * max_t).collect();
        for chunk in 0..3 {
            let lo = chunk * ns.len() / 3;
            let hi = ((chunk + 2) * ns.len() / 3).min(ns.len()); // overlapping chunks
            if lo >= hi {
                continue;
            }
            let hb = forward_embeddings(&params, &ctx, &ns[lo..hi], &ts[lo..hi]);
            let ho = ours.embed_batch(&ns[lo..hi], &ts[lo..hi]).unwrap();
            let diff = hb.max_abs_diff(&ho);
            prop_assert!(diff < 1e-4, "chunk {chunk}: diff {diff} with {:?}", s);
            prop_assert!(ho.all_finite());
        }
    }
}
