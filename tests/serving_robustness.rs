//! Robustness contracts of the serving layer: backpressure (a saturated
//! bounded queue rejects with `Overloaded`, never blocks), deadlines (an
//! expired request yields `DeadlineExceeded`, never a partial tensor), and
//! degraded store-skipping mode (correct results while the cache stops
//! growing).

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tgopt_repro::graph::{Edge, EdgeStream, NodeId, TemporalGraph, Time, Versioned};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer};
use tgopt_repro::tensor::{init, Tensor};
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};
use tg_error::TgError;

fn world() -> &'static Arc<ModelBundle> {
    static WORLD: OnceLock<Arc<ModelBundle>> = OnceLock::new();
    WORLD.get_or_init(|| {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 11).unwrap();
        let n_nodes = 10;
        let n_edges = 60;
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        let mut times = Vec::new();
        for i in 0..n_edges {
            srcs.push((i % n_nodes) as NodeId);
            dsts.push(((i * 7 + 2) % n_nodes) as NodeId);
            times.push((i + 1) as Time);
        }
        let stream = EdgeStream::new(&srcs, &dsts, &times);
        let graph = TemporalGraph::from_stream(&stream);
        let mut rng = init::seeded_rng(3);
        let nf = init::normal(&mut rng, n_nodes, cfg.dim, 0.5);
        let ef = init::normal(&mut rng, n_edges, cfg.edge_dim, 0.5);
        Arc::new(ModelBundle::new(params, graph, nf, ef).unwrap())
    })
}

#[test]
fn saturated_queue_rejects_overloaded_without_blocking() {
    let cfg = ServeConfig::default().with_queue_capacity(2);
    let server = TgServer::deterministic(Arc::clone(world()), cfg).unwrap();
    let t1 = server.submit(0, 70.0).unwrap();
    let t2 = server.submit(1, 70.0).unwrap();

    // The third submission must return immediately with the typed error —
    // a blocking submit would hang this single-threaded test forever.
    let started = Instant::now();
    match server.submit(2, 70.0) {
        Err(TgError::Overloaded { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(1), "rejection must not block");
    assert_eq!(server.stats().rejected_overload, 1);

    // Draining frees the queue; admission resumes.
    server.drain().unwrap();
    assert!(t1.wait().is_ok() && t2.wait().is_ok());
    let t3 = server.submit(2, 70.0).unwrap();
    server.drain().unwrap();
    assert!(t3.wait().is_ok());
}

#[test]
fn already_expired_deadline_is_rejected_at_submit() {
    let server = TgServer::deterministic(Arc::clone(world()), ServeConfig::default()).unwrap();
    let past = Instant::now();
    std::thread::sleep(Duration::from_millis(2));
    match server.submit_with_deadline(0, 70.0, past) {
        Err(TgError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(server.stats().rejected_deadline, 1);
    assert_eq!(server.queued(), 0, "an expired request must not consume a queue slot");
}

#[test]
fn deadline_expiring_in_queue_yields_error_not_partial_tensor() {
    let server = TgServer::deterministic(Arc::clone(world()), ServeConfig::default()).unwrap();
    // Admitted alive, expires while waiting in the queue.
    let doomed = server
        .submit_with_deadline(0, 70.0, Instant::now() + Duration::from_millis(5))
        .unwrap();
    // Same target, no deadline: must be unaffected by its neighbor's fate.
    let healthy = server.submit(0, 70.0).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    server.drain().unwrap();

    match doomed.wait() {
        Err(TgError::DeadlineExceeded) => {}
        Ok(row) => panic!("expired request returned a tensor of {} floats", row.len()),
        Err(other) => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let row = healthy.wait().unwrap();
    assert!(row.iter().all(|v| v.is_finite()));
    let stats = server.stats();
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn degraded_mode_serves_correct_embeddings_without_growing_the_cache() {
    let bundle = world();
    let cfg = ServeConfig::default().with_max_batch(4).with_memory_budget(0);
    let server = TgServer::deterministic(Arc::clone(bundle), cfg).unwrap();

    let ns: Vec<NodeId> = vec![0, 1, 2, 3, 0, 1];
    let ts: Vec<Time> = vec![70.0; 6];
    // Two passes: the second finds nothing cached (stores were skipped)
    // and must still be exact.
    for _pass in 0..2 {
        let tickets = server.submit_many(&ns, &ts).unwrap();
        server.drain().unwrap();
        let mut direct = TgoptEngine::new(&bundle.params, bundle.context(), cfg.opt);
        let expected = direct.embed_batch(&ns, &ts).unwrap();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let row = ticket.wait().unwrap();
            let diff: f32 = row
                .iter()
                .zip(expected.row(i))
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(
                row.iter().map(|v| v.to_bits()).eq(expected.row(i).iter().map(|v| v.to_bits())),
                "degraded row {i} deviates by {diff}"
            );
        }
    }

    assert!(server.shared_cache().is_empty(), "budget 0 must keep the cache empty");
    let counters = server.engine_counters();
    assert_eq!(counters.cache_stores, 0);
    assert!(counters.stores_skipped > 0);
    let stats = server.shutdown();
    assert_eq!(stats.degraded_batches, stats.batches);
    assert!(stats.batches > 0);
}

#[test]
fn memory_budget_counts_fingerprints_as_well_as_rows() {
    let bundle = world();
    let opt = OptConfig { cache_last_layer: true, ..OptConfig::all() };
    let ns: Vec<NodeId> = (0..10).collect();
    let ts: Vec<Time> = vec![70.0; 10];

    // Unbudgeted, one wave: what the workload's rows cost alone, and what
    // they cost with the last layer's fingerprints.
    let cfg = ServeConfig::default().with_max_batch(ns.len()).with_opt(opt);
    let server = TgServer::deterministic(Arc::clone(bundle), cfg).unwrap();
    server.submit_many(&ns, &ts).unwrap();
    server.drain().unwrap();
    let cache = server.shared_cache();
    let rows = cache.len() * cache.dim().unwrap() * std::mem::size_of::<f32>();
    let total = cache.bytes_used();
    assert!(total > rows, "layer-2 fingerprints must be charged ({total} vs {rows} row bytes)");

    // A budget between the two: rows alone never reach it, rows plus
    // fingerprints do, so the wave after the stores must run degraded.
    let cfg = cfg.with_memory_budget((rows + total) / 2);
    let server = TgServer::deterministic(Arc::clone(bundle), cfg).unwrap();
    server.submit_many(&ns, &ts).unwrap();
    server.drain().unwrap();
    assert_eq!(server.stats().degraded_batches, 0, "the cache was empty when the first wave began");
    server.submit(0, 71.0).unwrap();
    server.drain().unwrap();
    let stats = server.shutdown();
    assert_eq!((stats.batches, stats.degraded_batches), (2, 1));
}

#[test]
fn threaded_server_end_to_end_matches_direct() {
    let bundle = world();
    let cfg = ServeConfig::default().with_workers(2).with_max_batch(8);
    let server = TgServer::threaded(Arc::clone(bundle), cfg).unwrap();

    let ns: Vec<NodeId> = (0..40u32).map(|i| (i % 10) as NodeId).collect();
    let ts: Vec<Time> = (0..40).map(|i| 65.0 + (i % 5) as Time).collect();

    // Two client threads submit the same workload concurrently.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let server = &server;
                let (ns, ts) = (&ns, &ts);
                scope.spawn(move || {
                    let tickets = server.submit_many(ns, ts).unwrap();
                    tickets
                        .into_iter()
                        .map(|t| t.wait().unwrap())
                        .collect::<Vec<Vec<f32>>>()
                })
            })
            .collect();
        let results: Vec<Vec<Vec<f32>>> =
            handles.into_iter().map(|h| h.join().expect("client panicked")).collect();

        let mut direct = TgoptEngine::new(&bundle.params, bundle.context(), cfg.opt);
        let expected = direct.embed_batch(&ns, &ts).unwrap();
        for rows in &results {
            for (i, row) in rows.iter().enumerate() {
                let diff: f32 = row
                    .iter()
                    .zip(expected.row(i))
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f32::max);
                assert!(diff < 1e-4, "threaded row {i} deviates by {diff}");
            }
        }
    });

    let stats = server.shutdown();
    assert_eq!(stats.completed, 80);
    assert!(stats.batches > 0);
    assert!(stats.unique_rows <= stats.batched_requests);
}

#[test]
fn immediate_shutdown_serves_every_admitted_request() {
    let cfg = ServeConfig::default().with_workers(2).with_max_batch(4);
    let server = TgServer::threaded(Arc::clone(world()), cfg).unwrap();
    // Far more than one wave, so the backlog is still queued when `close`
    // lands and the workers have to drain it on their way out.
    let ns: Vec<NodeId> = (0..200u32).map(|i| (i % 10) as NodeId).collect();
    let ts: Vec<Time> = (0..200).map(|i| 65.0 + (i % 7) as Time).collect();
    let tickets = server.submit_many(&ns, &ts).unwrap();
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.completed), (200, 200));
    assert_eq!(stats.batched_requests, 200);
    for (i, t) in tickets.into_iter().enumerate() {
        assert!(t.wait().is_ok(), "ticket {i} did not resolve to a row");
    }
}

#[test]
fn lone_request_on_idle_server_is_one_wave_of_one_row() {
    let server = TgServer::threaded(Arc::clone(world()), ServeConfig::default()).unwrap();
    // No second arrival and no timer: the wait returns only because an
    // idle worker takes the request as its own wave.
    let row = server.submit(3, 70.0).unwrap().wait().unwrap();
    assert_eq!(row.len(), world().params.cfg.dim);
    let stats = server.stats();
    assert_eq!((stats.batches, stats.batched_requests, stats.unique_rows), (1, 1, 1));
    server.shutdown();
}

#[test]
fn invalid_configs_and_mode_misuse_are_typed_errors() {
    let bundle = world();
    assert!(matches!(
        TgServer::threaded(Arc::clone(bundle), ServeConfig::default().with_workers(0)),
        Err(TgError::InvalidConfig(_))
    ));
    assert!(matches!(
        TgServer::deterministic(Arc::clone(bundle), ServeConfig::default().with_max_batch(0)),
        Err(TgError::InvalidConfig(_))
    ));

    // drain() is a deterministic-mode API.
    let threaded = TgServer::threaded(Arc::clone(bundle), ServeConfig::default()).unwrap();
    assert!(matches!(threaded.drain(), Err(TgError::InvalidArgument(_))));
    threaded.shutdown();

    // A node id outside the feature table is refused at submit, so it
    // never reaches a wave: drain() has nothing to panic on.
    let server = TgServer::deterministic(Arc::clone(bundle), ServeConfig::default()).unwrap();
    assert!(matches!(server.submit(10_000, 70.0), Err(TgError::InvalidArgument(_))));
    assert_eq!(server.queued(), 0, "an invalid request must not consume a queue slot");
    assert_eq!(server.drain().unwrap(), 0);
    assert_eq!(server.shutdown().submitted, 0);

    // Submitting after shutdown is a caller bug, not an overload.
    let server = TgServer::deterministic(Arc::clone(bundle), ServeConfig::default()).unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.submitted, 0);
}

#[test]
fn short_feature_tables_are_refused_at_construction() {
    // 10 nodes and 60 edges with 5 edge-feature rows used to pass, and the
    // first request then panicked the worker of a one-worker server, whose
    // next request was never answered. Nine node-feature rows for ten
    // nodes are the same defect.
    let bundle = world();
    let cfg = bundle.params.cfg;
    let mut rng = init::seeded_rng(3);
    let (nf10, nf9) = (init::normal(&mut rng, 10, cfg.dim, 0.5), init::normal(&mut rng, 9, cfg.dim, 0.5));
    let (ef60, ef5) = (init::normal(&mut rng, 60, cfg.edge_dim, 0.5), init::normal(&mut rng, 5, cfg.edge_dim, 0.5));
    let bundle_of = |nf: &Tensor, ef: &Tensor| {
        ModelBundle::new(bundle.params.clone(), (*bundle.graph).clone(), nf.clone(), ef.clone())
    };
    for (nf, ef) in [(&nf10, &ef5), (&nf9, &ef60)] {
        let got = bundle_of(nf, ef);
        assert!(matches!(got, Err(TgError::InvalidArgument(_))), "{:?}", got.err());
    }
    assert!(bundle_of(&nf10, &ef60).is_ok());
}

#[test]
fn a_live_server_shares_an_edited_bundle_graph() {
    // A graph built from edges in any order (here newest first) has
    // logged nothing, so a live-ingest server layers its delta over the
    // bundle's T-CSR instead of copying it, and the graph's history
    // starts at epoch 0.
    let base = world();
    let edges: Vec<Edge> = (0..60)
        .rev()
        .map(|i| Edge { src: (i % 10) as NodeId, dst: ((i * 7 + 2) % 10) as NodeId, time: (i + 1) as Time, eid: i })
        .collect();
    let graph = TemporalGraph::from_edges(10, &edges);
    assert_eq!(graph.epoch(), 0);
    let bundle = Arc::new(
        ModelBundle::new(base.params.clone(), graph, base.node_features.clone(), base.edge_features.clone()).unwrap(),
    );
    assert_eq!(bundle.graph.epoch(), 0);
    let server =
        TgServer::deterministic(Arc::clone(&bundle), ServeConfig::default().with_live_ingest(true)).unwrap();
    assert_eq!(Arc::strong_count(&bundle.graph), 2, "the live graph copied the bundle's base");
    drop(server);
}

#[test]
fn out_of_range_node_is_refused_and_workers_keep_serving() {
    let cfg = ServeConfig::default().with_workers(2);
    let server = TgServer::threaded(Arc::clone(world()), cfg).unwrap();
    // One bad id per worker: if either reached a wave, its worker would
    // panic on the node-feature row and leave the next request unserved.
    let bad: Vec<_> = (0..2).map(|_| server.submit(10_000, 70.0)).collect();
    let good = server.submit(1, 70.0).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().completed == 0 {
        assert!(Instant::now() < deadline, "a valid request went unserved after bad node ids");
        std::thread::sleep(Duration::from_millis(1));
    }
    for r in bad {
        assert!(matches!(r, Err(TgError::InvalidArgument(_))), "{r:?}");
    }
    assert_eq!(good.wait().unwrap().len(), world().params.cfg.dim);
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
}
