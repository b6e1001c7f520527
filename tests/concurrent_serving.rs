//! Concurrent inference serving: several engines on separate threads share
//! one memoization cache over the same graph. The sharded tables are
//! internally synchronized and every cached value is a deterministic
//! function of its key, so concurrency can only change *who computes* an
//! embedding — never its value.

use std::sync::Arc;
use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::{BatchIter, TemporalGraph};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::forward_embeddings;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

#[test]
fn threads_sharing_a_cache_produce_correct_embeddings() {
    let spec = spec_by_name("snap-email").unwrap();
    let data = generate(&spec, 0.01, 21).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg, 3).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };

    // Overlapping query workloads for 4 serving threads.
    let t = data.stream.max_time() * 1.01;
    let workloads: Vec<(Vec<u32>, Vec<f32>)> = (0..4)
        .map(|w| {
            let ns: Vec<u32> = (0..60)
                .map(|i| data.stream.edges()[(i * (w + 3)) % data.stream.len()].src)
                .collect();
            let ts = vec![t; ns.len()];
            (ns, ts)
        })
        .collect();

    // Ground truth from the tape forward.
    let expected: Vec<Tensor> = workloads
        .iter()
        .map(|(ns, ts)| forward_embeddings(&params, &ctx, ns, ts))
        .collect();

    let seed_engine = TgoptEngine::new(&params, ctx, OptConfig::all());
    let shared = seed_engine.shared_cache();

    let results: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|(ns, ts)| {
                let shared = Arc::clone(&shared);
                let params = &params;
                scope.spawn(move || {
                    let mut eng = TgoptEngine::with_cache(
                        params,
                        ctx,
                        OptConfig::all(),
                        shared,
                        Default::default(),
                    );
                    // Two passes: the second is served mostly from entries
                    // that *other* threads may have stored.
                    let _ = eng.embed_batch(ns, ts).unwrap();
                    eng.embed_batch(ns, ts).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread panicked")).collect()
    });

    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        let diff = got.max_abs_diff(want);
        assert!(diff < 1e-4, "thread {i}: max diff {diff} vs the tape forward");
    }
    assert!(!shared.is_empty(), "threads populated the shared cache");
    assert!(shared.len() <= shared.limit());
}

#[test]
fn shared_cache_under_tiny_limit_stays_bounded_and_correct() {
    let spec = spec_by_name("snap-msg").unwrap();
    let data = generate(&spec, 0.05, 2).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg, 3).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let opt = OptConfig::all().with_cache_limit(32);
    let seed_engine = TgoptEngine::new(&params, ctx, opt);
    let shared = seed_engine.shared_cache();

    let checks: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let params = &params;
                let data = &data;
                scope.spawn(move || {
                    let mut eng = TgoptEngine::with_cache(
                        params,
                        ctx,
                        opt,
                        shared,
                        Default::default(),
                    );
                    let mut sum = 0.0f64;
                    for batch in BatchIter::new(&data.stream, 100) {
                        let (ns, ts) = batch.targets();
                        let h = eng.embed_batch(&ns, &ts).unwrap();
                        sum += h.as_slice().iter().map(|&v| v as f64).sum::<f64>();
                    }
                    sum
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread panicked")).collect()
    });

    // Each thread replayed the identical workload: identical checksums.
    for w in checks.windows(2) {
        let drift = (w[0] - w[1]).abs() / w[0].abs().max(1.0);
        assert!(drift < 1e-9, "threads disagree: {checks:?}");
    }
    assert!(shared.len() <= 32, "shared cache exceeded its limit: {}", shared.len());
    assert!(shared.total_evictions() > 0);
}
