//! Concurrent ingest + query stress: real threads hammer a live-ingest
//! server while a checker thread reads snapshots and an invalidator clears
//! the cache, then quiescent-state invariants are verified:
//!
//! * **No torn epoch reads** — every `GraphView` taken mid-run has a
//!   monotonically advancing epoch and internally consistent postings
//!   (each visible edge contributes exactly two adjacency entries, so a
//!   half-published edge would break the count identity).
//! * **Cache accounting identity** — at quiescence, every admitted row is
//!   accounted for: `inserted == evictions + cleared + len`, before and
//!   after a final `clear` empties the cache.
//! * **No stale hits** — ingest invalidates nothing, so the cache ends
//!   the run holding rows of many epochs; every sampled entry that a
//!   lookup under the final view accepts must equal a from-scratch
//!   recompute over the fully-rebuilt graph, at layer 1 (a one-layer
//!   engine is the oracle: the layer-1 cache stores exactly the layer-1
//!   embedding of its `(node, time)` key) and at layer 2.
//!
//! A second test pins the *books* under the same kind of race on a
//! generated graph: batched clients, a writer and a clearing invalidator, then
//! every counter the server reports must add up — edges once each, every
//! request completed, telemetry equal to the stats it is built from. A
//! third races four submitters: their edge ids must come out distinct and
//! contiguous with no lock in the server, and the edge-feature bound must
//! still refuse the first edge past it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::error::TgError;
use tgopt_repro::graph::{Edge, EdgeStream, NodeId, TemporalGraph, Time};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer};
use tgopt_repro::tensor::{init, Tensor};
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{unpack_key, LayerCaches, OptConfig, TgoptEngine};

const N_NODES: usize = 16;
const N_BASE: usize = 100;
const N_POOL: usize = 120;
const QUERY_THREADS: usize = 3;
const QUERIES_PER_THREAD: usize = 400;

fn build_world() -> (Arc<ModelBundle>, Vec<Edge>) {
    let cfg = TgatConfig::tiny();
    let params = TgatParams::init(cfg, 13).unwrap();
    let mut srcs = Vec::new();
    let mut dsts = Vec::new();
    let mut times = Vec::new();
    for i in 0..N_BASE {
        srcs.push((i % N_NODES) as NodeId);
        dsts.push(((i * 5 + 2) % N_NODES) as NodeId);
        times.push((i + 1) as Time);
    }
    let stream = EdgeStream::new(&srcs, &dsts, &times);
    let graph = TemporalGraph::from_stream(&stream);
    let mut rng = init::seeded_rng(3);
    let nf = init::normal(&mut rng, N_NODES, cfg.dim, 0.5);
    let ef = init::normal(&mut rng, N_BASE + N_POOL, cfg.edge_dim, 0.5);
    // Live edges: a mix of fresh (past the base) and out-of-order times,
    // including an occasional self-loop and exact tie.
    let pool: Vec<Edge> = (0..N_POOL)
        .map(|i| Edge {
            src: ((i * 3 + 1) % N_NODES) as NodeId,
            dst: if i % 17 == 0 {
                ((i * 3 + 1) % N_NODES) as NodeId
            } else {
                ((i * 11 + 4) % N_NODES) as NodeId
            },
            time: match i % 4 {
                0 | 1 => 101.0 + i as Time * 0.5,
                2 => 20.25 + i as Time * 0.25,
                _ => ((i % N_BASE) + 1) as Time,
            },
            eid: (N_BASE + i) as u32,
        })
        .collect();
    (Arc::new(ModelBundle::new(params, graph, nf, ef).unwrap()), pool)
}

/// Spare edge-feature rows in [`generated_bundle`]: live-ingest capacity.
const N_INGEST: usize = 120;

/// A bundle over a generated `snap-email` graph with [`N_INGEST`] spare
/// edge-feature rows, with its node count and last edge time.
fn generated_bundle() -> (Arc<ModelBundle>, usize, Time) {
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
    let max_t = data.stream.max_time();
    let node_features = Tensor::zeros(num_nodes, cfg.dim);
    let base_rows = data.edge_features.rows();
    let mut rng = init::seeded_rng(9);
    let extra = init::normal(&mut rng, N_INGEST, data.dim(), 0.5);
    let mut all = Vec::with_capacity((base_rows + N_INGEST) * data.dim());
    all.extend_from_slice(data.edge_features.as_slice());
    all.extend_from_slice(extra.as_slice());
    let edge_features = Tensor::from_vec(base_rows + N_INGEST, data.dim(), all);
    let b = ModelBundle::new(params, graph, node_features, edge_features).unwrap();
    (Arc::new(b), num_nodes, max_t)
}

#[test]
fn concurrent_ingest_and_queries_hold_invariants() {
    let (bundle, pool) = build_world();
    let k = bundle.params.cfg.n_neighbors;
    let mut cfg = ServeConfig::default()
        .with_max_batch(16)
        .with_workers(QUERY_THREADS)
        .with_queue_capacity(100_000)
        .with_live_ingest(true)
        .with_compact_threshold(48);
    // Cache the last layer too: the deep-entry oracle below checks that a
    // lookup never accepts a stale layer-2 entry.
    cfg.opt.cache_last_layer = true;
    let server = TgServer::threaded(Arc::clone(&bundle), cfg).unwrap();
    let cache = server.shared_cache();

    let writer_done = AtomicBool::new(false);
    let invalidator_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = &server;
        let pool = &pool;
        let writer_done = &writer_done;
        let invalidator_done = &invalidator_done;
        let cache = &cache;

        scope.spawn(move || {
            for e in pool {
                let eid = server.submit_edge(e.src, e.dst, e.time).unwrap();
                assert_eq!(eid, e.eid, "edge ids must be assigned in submission order");
                std::thread::yield_now();
            }
            writer_done.store(true, Ordering::Release);
        });

        // Snapshot checker: epochs advance monotonically and no view ever
        // exposes a half-published edge (every visible edge posts exactly
        // two adjacency entries, self-loops included).
        scope.spawn(move || {
            let mut last_epoch = 0u64;
            while !writer_done.load(Ordering::Acquire) {
                let v = server.live_view().unwrap();
                let epoch = v.epoch();
                assert!(epoch >= last_epoch, "epoch went backwards: {last_epoch} -> {epoch}");
                last_epoch = epoch;
                let postings: usize =
                    (0..N_NODES).map(|n| v.hist_len_before(n as NodeId, 1e9)).sum();
                assert_eq!(
                    postings as u64,
                    2 * v.num_edges(),
                    "torn view at epoch {epoch}: posting count does not match visible edges"
                );
                std::thread::yield_now();
            }
        });

        // Invalidator: `clear` racing the writer's appends and the
        // workers' lookups and stores. It only removes entries, so every
        // assertion below still holds.
        scope.spawn(move || {
            while !writer_done.load(Ordering::Acquire) {
                for _ in 0..N_NODES {
                    cache.clear();
                    std::thread::yield_now();
                }
            }
            invalidator_done.store(true, Ordering::Release);
        });

        for c in 0..QUERY_THREADS {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xace + c as u64);
                for q in 0..QUERIES_PER_THREAD {
                    // Each thread's last query waits out the invalidator's
                    // last pass, so the cache the oracles sample is never
                    // empty however the writer and the queries interleave.
                    while q + 1 == QUERIES_PER_THREAD && !invalidator_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    let n = rng.gen_range(0..N_NODES as u32) as NodeId;
                    let t = 1.0 + rng.gen_range(0..400) as Time * 0.5;
                    let ticket = server.submit(n, t).unwrap();
                    let row = ticket.wait().unwrap();
                    assert!(
                        row.iter().all(|x| x.is_finite()),
                        "served row must be finite under concurrent ingest"
                    );
                }
            });
        }
    });

    let final_view = server.live_view().unwrap();
    assert_eq!(final_view.num_edges(), (N_BASE + N_POOL) as u64);
    let ingest = server.ingest_stats().unwrap();
    assert_eq!(ingest.edges_appended, N_POOL as u64);
    assert!(ingest.compactions >= 1, "threshold 48 must compact during a 120-edge ingest");

    // Shutdown joins every worker: all stores and counter updates are done
    // before the stats snapshot is taken.
    let stats = server.shutdown();
    assert_eq!(stats.edges_ingested, N_POOL as u64);
    assert_eq!(stats.completed, (QUERY_THREADS * QUERIES_PER_THREAD) as u64);

    // Cache accounting identity at quiescence: every row ever admitted
    // was either evicted, cleared, or is still resident.
    assert_books(&cache);

    // Staleness spot-check: every sampled entry of either layer that a
    // lookup under the final view accepts must match a cold recompute over
    // the final graph.
    let mut full = TemporalGraph::with_nodes(N_NODES);
    let base_edges: Vec<Edge> = {
        // Rebuild the base stream exactly as build_world constructed it.
        let mut v = Vec::new();
        for i in 0..N_BASE {
            v.push(Edge {
                src: (i % N_NODES) as NodeId,
                dst: ((i * 5 + 2) % N_NODES) as NodeId,
                time: (i + 1) as Time,
                eid: i as u32,
            });
        }
        v
    };
    for e in base_edges.iter().chain(&pool) {
        full.insert(e);
    }
    full.freeze();

    let cfg1 = TgatConfig { n_layers: 1, ..bundle.params.cfg };
    assert_eq!(cfg1.n_neighbors, k);
    let params1 = TgatParams {
        cfg: cfg1,
        layers: vec![bundle.params.layers[0].clone()],
        time: bundle.params.time.clone(),
        predictor: bundle.params.predictor.clone(),
    };
    let ctx = GraphContext {
        graph: &full,
        node_features: &bundle.node_features,
        edge_features: &bundle.edge_features,
    };
    for (l, params) in [(1, &params1), (2, &bundle.params)] {
        let layer = cache.layer(l).expect("both layers are cached under cache_last_layer");
        let entries = layer.export_fifo_order();
        assert!(!entries.is_empty(), "stress run must leave layer-{l} entries to spot-check");
        let keys: Vec<u64> = entries.iter().take(256).map(|(key, _)| *key).collect();
        let mut rows = Tensor::zeros(keys.len(), bundle.params.cfg.dim);
        let accepted = layer.lookup_in(&keys, &mut rows, &final_view, l - 1, None).unwrap();
        assert!(accepted.contains(&true), "the final queries' layer-{l} rows hold at the final view");
        let (ns, ts): (Vec<NodeId>, Vec<Time>) = keys.iter().map(|&key| unpack_key(key)).unzip();
        let h = TgoptEngine::new(params, ctx, OptConfig::all()).embed_batch(&ns, &ts).unwrap();
        for (i, _) in accepted.iter().enumerate().filter(|(_, &hit)| hit) {
            assert!(
                rows.row(i).iter().map(|v| v.to_bits()).eq(h.row(i).iter().map(|v| v.to_bits())),
                "stale layer-{l} hit: ({}, {}) differs from its recompute in the bits",
                ns[i],
                ts[i]
            );
        }
    }

    // Quiesced: a clear drains every layer, and the accounting identity
    // survives the drain (an underflow or a missed removal would show up
    // here).
    cache.clear();
    assert_eq!((cache.len(), cache.bytes_used()), (0, 0), "a clear must empty the cache");
    assert_books(&cache);
}

/// `inserted == evictions + cleared + len()` over every layer.
fn assert_books(cache: &LayerCaches) {
    assert_eq!(
        cache.total_inserted(),
        cache.total_evictions() + cache.total_cleared() + cache.len() as u64,
        "cache accounting identity violated"
    );
}

#[test]
fn batched_clients_racing_ingest_and_invalidation_keep_the_books() {
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 6;
    const WAVE: usize = 30;
    let (bundle, num_nodes, max_t) = generated_bundle();
    let t_query = max_t * 1.01;
    // Sources with history, all queried past the stream's end.
    let ns: Vec<NodeId> = (0..num_nodes as NodeId)
        .filter(|&n| bundle.graph.degree(n) > 0)
        .cycle()
        .take(WAVE)
        .collect();
    let ts = vec![t_query; WAVE];
    let base_edges = bundle.graph.num_edges();

    let cfg = ServeConfig::default()
        .with_workers(2)
        .with_queue_capacity(4096)
        .with_live_ingest(true);
    let server = TgServer::threaded(Arc::clone(&bundle), cfg).unwrap();
    let cache = server.shared_cache();

    std::thread::scope(|scope| {
        let server = &server;
        for _ in 0..CLIENTS {
            let (ns, ts) = (&ns, &ts);
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    for ticket in server.submit_many(ns, ts).unwrap() {
                        // Live edges land mid-flight, so values shift by
                        // design; every ticket must still resolve cleanly.
                        let row = ticket.wait().unwrap();
                        assert!(row.iter().all(|x| x.is_finite()), "served row must be finite");
                    }
                }
            });
        }

        // Ingest racing the clients: edge ids stay sequential.
        scope.spawn(move || {
            for i in 0..N_INGEST {
                let src = (i * 7 + 1) as NodeId % num_nodes as NodeId;
                let dst = (i * 11 + 3) as NodeId % num_nodes as NodeId;
                let time = t_query - 0.5 + i as Time * 1e-3;
                let eid = server.submit_edge(src, dst, time).unwrap();
                assert_eq!(eid as usize, base_edges + i, "edge ids must stay sequential");
                if i % 16 == 0 {
                    std::thread::yield_now();
                }
            }
        });

        // And an invalidator clearing the cache, once per node.
        let cache = &cache;
        scope.spawn(move || {
            for _ in 0..num_nodes {
                cache.clear();
            }
        });
    });

    assert_eq!(server.live_view().unwrap().num_edges(), (base_edges + N_INGEST) as u64);
    assert_eq!(server.ingest_stats().unwrap().edges_appended, N_INGEST as u64);

    // Shutdown joins the workers, so the counters and the telemetry built
    // from them are final and taken from the same quiesced state.
    let (stats, telemetry) = server.shutdown_with_telemetry();
    let requests = (CLIENTS * ROUNDS * WAVE) as u64;
    assert_eq!(stats.edges_ingested, N_INGEST as u64, "each edge is counted once");
    assert_eq!(stats.submitted, requests);
    assert_eq!(stats.completed, requests, "every submitted request must complete");
    assert_eq!(stats.rejected_deadline, 0);
    assert_eq!(stats.rejected_overload, 0);
    assert_eq!(stats.batched_requests, requests);
    assert!(stats.unique_rows <= stats.batched_requests, "{stats:?}");

    assert_eq!(telemetry.serve.submitted, stats.submitted);
    assert_eq!(telemetry.serve.completed, stats.completed);
    assert_eq!(telemetry.serve.batches, stats.batches);
    assert_eq!(telemetry.serve.batched_requests, stats.batched_requests);
    assert_eq!(telemetry.serve.unique_rows, stats.unique_rows);
    assert_eq!(telemetry.ingest.edges_appended, N_INGEST as u64);
    assert_eq!(telemetry.ingest.entries_invalidated, stats.entries_invalidated);
    assert_eq!(telemetry.embed_cache.items, cache.len() as u64);

    // Quiesced: a clear leaves the cache empty — an underflow or a
    // leaked entry would show up as a nonzero count.
    cache.clear();
    assert_eq!((cache.len(), cache.bytes_used()), (0, 0), "a clear must empty the cache");
    assert_books(&cache);
}

#[test]
fn concurrent_submitters_get_distinct_contiguous_edge_ids() {
    const SUBMITTERS: usize = 4;
    let (bundle, pool) = build_world();
    let cfg = ServeConfig::default().with_workers(1).with_live_ingest(true).with_compact_threshold(32);
    let server = TgServer::threaded(Arc::clone(&bundle), cfg).unwrap();
    let base = bundle.graph.num_edges() as u32;

    // Four threads share out the pool and submit at once; each keeps the
    // ids it was handed, paired with the edge it sent.
    let mut got: Vec<(u32, Edge)> = std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .chunks(N_POOL / SUBMITTERS)
            .map(|chunk| {
                let server = &server;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|e| (server.submit_edge(e.src, e.dst, e.time).unwrap(), *e))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    got.sort_unstable_by_key(|&(eid, _)| eid);
    let ids: Vec<u32> = got.iter().map(|&(eid, _)| eid).collect();
    assert_eq!(ids, (base..base + N_POOL as u32).collect::<Vec<_>>(), "ids are distinct and contiguous");

    // Each id names the edge it was returned for: the endpoint's history
    // holds that id at that time.
    let view = server.live_view().unwrap();
    assert_eq!(view.num_edges(), (N_BASE + N_POOL) as u64);
    for (eid, e) in &got {
        let hist = view.neighbors_before_vec(e.src, e.time + 1e-3);
        assert!(hist.iter().any(|a| a.eid == *eid && a.time == e.time && a.ngh == e.dst), "edge id {eid}");
    }

    // The edge-feature rows are used up: the next edge is refused as
    // before, and nothing is appended.
    match server.submit_edge(0, 1, 1e6) {
        Err(TgError::InvalidArgument(msg)) => assert_eq!(
            msg,
            format!("edge-feature rows exhausted: {} edges appended, {} rows", N_BASE + N_POOL, N_BASE + N_POOL)
        ),
        other => panic!("expected InvalidArgument, got {other:?}"),
    }
    assert_eq!(server.live_view().unwrap().num_edges(), (N_BASE + N_POOL) as u64);
    assert_eq!(server.shutdown().edges_ingested, N_POOL as u64);
}
