//! Invalidation racing with serving traffic.
//!
//! `LayerCaches::clear`, the cache's one removal path besides eviction,
//! empties the tables while worker threads are looking up and storing into
//! them. Because every cached value is a deterministic function of its key,
//! a race can only change *whether* a key is served from cache — never what
//! value comes back. These tests pin that, plus the accounting invariants:
//! `len` / `bytes_used` / `total_evictions` must never underflow or exceed
//! their bounds no matter how clearing interleaves with stores.

use std::sync::Arc;
use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::{NodeId, TemporalGraph, Time};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer};
use tgopt_repro::tensor::fanout::host_cores;
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::forward_embeddings;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{LayerCaches, OptConfig, TgoptEngine};

fn bundle() -> (Arc<ModelBundle>, usize) {
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
    let num_nodes = data.stream.num_nodes();
    let node_features = Tensor::zeros(num_nodes, cfg.dim);
    let b = ModelBundle::new(params, graph, node_features, data.edge_features).unwrap();
    (Arc::new(b), num_nodes)
}

/// Queries drawn from the busiest sources, all at one post-stream time.
fn workload(bundle: &ModelBundle, n: usize) -> (Vec<NodeId>, Vec<Time>) {
    let mut ns = Vec::with_capacity(n);
    let max_t = {
        let mut t: Time = 0.0;
        for node in 0..bundle.graph.num_nodes() {
            for e in bundle.graph.neighbors(node as NodeId) {
                t = t.max(e.time);
            }
        }
        t
    };
    let t = max_t * 1.01;
    let mut node = 0usize;
    while ns.len() < n {
        if bundle.graph.degree(node as NodeId) > 0 {
            ns.push(node as NodeId);
        }
        node = (node + 1) % bundle.graph.num_nodes();
    }
    (ns, vec![t; n])
}

#[test]
fn workers_that_own_the_cores_serve_with_no_helper_threads() {
    // `workers >= cores`: every engine `TgServer::threaded` builds is handed
    // one core, and an engine with one core holds zero helper scratches, so
    // a wave cannot spawn. One worker alone gets the whole host. Either way
    // the rows are the direct engine's.
    let (bundle, _) = bundle();
    let (ns, ts) = workload(&bundle, 200);
    let cores = host_cores();
    let ctx = bundle.context();
    let mut direct = TgoptEngine::new(&bundle.params, ctx, OptConfig::all()).with_cores(1);
    assert_eq!(direct.helper_count(), 0);
    let expected = direct.embed_batch(&ns, &ts).unwrap();
    for (workers, engine_cores) in [(cores, 1), (cores + 1, 1), (2 * cores, 1), (1, cores)] {
        let cfg = ServeConfig::default().with_workers(workers).with_max_batch(200);
        let server = TgServer::threaded(Arc::clone(&bundle), cfg).unwrap();
        assert_eq!(server.engine_cores(), engine_cores, "{workers} workers on {cores} cores");
        for (i, ticket) in server.submit_many(&ns, &ts).unwrap().into_iter().enumerate() {
            assert_eq!(ticket.wait().unwrap(), expected.row(i), "{workers} workers, query {i}");
        }
        server.shutdown();
    }
}

#[test]
fn invalidation_racing_with_traffic_keeps_values_and_accounting_correct() {
    let (bundle, num_nodes) = bundle();
    let (ns, ts) = workload(&bundle, 30);

    // Ground truth, computed once up front: clearing can only force
    // recomputation, never change a value.
    let expected: Tensor = {
        let ctx = GraphContext {
            graph: &bundle.graph,
            node_features: &bundle.node_features,
            edge_features: &bundle.edge_features,
        };
        forward_embeddings(&bundle.params, &ctx, &ns, &ts)
    };

    let cfg = ServeConfig::default().with_workers(3).with_queue_capacity(4096);
    let server = TgServer::threaded(Arc::clone(&bundle), cfg).unwrap();
    let shared = server.shared_cache();
    let limit = shared.limit();

    std::thread::scope(|scope| {
        // Three client threads replaying the workload repeatedly.
        let mut clients = Vec::new();
        for _ in 0..3 {
            let server = &server;
            let (ns, ts) = (&ns, &ts);
            let expected = &expected;
            clients.push(scope.spawn(move || {
                for _round in 0..6 {
                    let tickets = server.submit_many(ns, ts).unwrap();
                    for (i, ticket) in tickets.into_iter().enumerate() {
                        let row = ticket.wait().unwrap();
                        let diff: f32 = row
                            .iter()
                            .zip(expected.row(i))
                            .map(|(a, b)| (a - b).abs())
                            .fold(0.0, f32::max);
                        assert!(
                            diff < 1e-4,
                            "query {i}: wrong embedding for its key (diff {diff})"
                        );
                    }
                }
            }));
        }

        // Meanwhile, hammer `clear`, once per node, twice around.
        let invalidator = scope.spawn(|| {
            for round in 0..2 {
                for node in 0..num_nodes {
                    shared.clear();
                    if node % 64 == 0 && round == 0 {
                        std::thread::yield_now();
                    }
                }
            }
        });

        for c in clients {
            c.join().expect("client thread panicked");
        }
        invalidator.join().expect("invalidator panicked");
    });

    // Accounting invariants after the storm: the live count is bounded (an
    // underflowing fetch_sub would wrap to a huge usize and trip this),
    // payload bytes follow the count exactly, and evictions are sane.
    assert!(shared.len() <= limit, "len {} exceeds limit {limit}", shared.len());
    let dim = shared.dim().unwrap();
    assert_eq!(shared.bytes_used(), shared.len() * dim * std::mem::size_of::<f32>());

    let stats = server.shutdown();
    assert_eq!(stats.completed, 3 * 6 * 30, "every request must complete");
    assert_eq!(stats.rejected_deadline, 0);

    // Quiesced: one more clear must drain the cache to exactly zero — a
    // leak or an underflow would leave len() != 0 — and every entry ever
    // inserted was evicted or cleared.
    shared.clear();
    assert_eq!(shared.len(), 0, "the cache must be empty after a clear");
    assert_eq!(shared.bytes_used(), 0);
    assert_books(&shared);
}

/// `inserted == evictions + cleared + len()`: every entry ever inserted
/// left through eviction or `clear`, or is still there.
fn assert_books(caches: &LayerCaches) {
    assert_eq!(
        caches.total_inserted(),
        caches.total_evictions() + caches.total_cleared() + caches.len() as u64,
        "cache accounting identity violated"
    );
}

#[test]
fn invalidation_racing_with_tiny_cache_never_breaks_the_limit() {
    // A tiny cache forces constant eviction, maximizing contention between
    // the eviction path's count decrements and `clear`'s.
    let (bundle, num_nodes) = bundle();
    let (ns, ts) = workload(&bundle, 20);

    let opt = tgopt_repro::tgopt::OptConfig::all().with_cache_limit(16);
    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_queue_capacity(4096)
        .with_opt(opt);
    let server = TgServer::threaded(Arc::clone(&bundle), cfg).unwrap();
    let shared = server.shared_cache();

    std::thread::scope(|scope| {
        let client = scope.spawn(|| {
            for _ in 0..8 {
                let tickets = server.submit_many(&ns, &ts).unwrap();
                for t in tickets {
                    t.wait().unwrap();
                }
            }
        });
        let invalidator = scope.spawn(|| {
            for _ in 0..4 * num_nodes {
                shared.clear();
            }
        });
        client.join().expect("client panicked");
        invalidator.join().expect("invalidator panicked");
    });

    assert!(shared.len() <= 16, "limit breached: {}", shared.len());
    let evictions = shared.total_evictions();
    // u64 counter: an underflow would show up as an absurd magnitude.
    assert!(evictions < u64::MAX / 2, "eviction counter wrapped: {evictions}");
    server.shutdown();
    assert_books(&shared);
}
