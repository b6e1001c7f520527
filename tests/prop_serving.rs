//! Serving-layer equivalence properties: anything served through
//! `tg-serve` must equal a direct `TgoptEngine::embed_batch` call bit for
//! bit, for arbitrary request streams, arrival interleavings, and
//! batch-size configurations — including with deadlines attached
//! and degraded (store-skipping) mode forced on.
//!
//! The deterministic single-threaded mode makes every scheduling
//! decision a pure function of the submit/drain sequence, so each random
//! case is exactly reproducible.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tgopt_repro::graph::{EdgeStream, NodeId, TemporalGraph, Time};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer, Ticket};
use tgopt_repro::tensor::fanout::host_cores;
use tgopt_repro::tensor::init;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

const N_NODES: usize = 12;

/// One shared model + graph world for every case (building it per-case
/// would dominate the run without adding coverage: the randomness that
/// matters is in the request streams and schedules).
fn world() -> &'static Arc<ModelBundle> {
    static WORLD: OnceLock<Arc<ModelBundle>> = OnceLock::new();
    WORLD.get_or_init(|| {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let n_edges = 80;
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        let mut times = Vec::new();
        for i in 0..n_edges {
            srcs.push((i % N_NODES) as NodeId);
            dsts.push(((i * 3 + 1) % N_NODES) as NodeId);
            times.push((i + 1) as Time);
        }
        let stream = EdgeStream::new(&srcs, &dsts, &times);
        let graph = TemporalGraph::from_stream(&stream);
        let mut rng = init::seeded_rng(5);
        let nf = init::normal(&mut rng, N_NODES, cfg.dim, 0.5);
        let ef = init::normal(&mut rng, n_edges, cfg.edge_dim, 0.5);
        Arc::new(ModelBundle::new(params, graph, nf, ef).unwrap())
    })
}

/// Direct (unbatched-by-the-server) reference: one fresh engine, one call.
fn direct_rows(ns: &[NodeId], ts: &[Time], opt: OptConfig) -> Vec<Vec<f32>> {
    let bundle = world();
    let mut eng = TgoptEngine::new(&bundle.params, bundle.context(), opt);
    let h = eng.embed_batch(ns, ts).unwrap();
    (0..ns.len()).map(|i| h.row(i).to_vec()).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Reported on failure, to tell a rounding difference from a wrong row.
fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Decodes a raw proptest tuple into a query on the shared world.
fn decode(node_raw: u32, t_raw: u32) -> (NodeId, Time) {
    ((node_raw % N_NODES as u32) as NodeId, 40.0 + (t_raw % 80) as Time * 0.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: served == direct, bit for bit, under arbitrary
    /// interleavings of submissions and drains, arbitrary micro-batch
    /// sizes, optional (non-expiring) deadlines, and forced degraded mode.
    #[test]
    fn served_equals_direct_under_arbitrary_interleavings(
        reqs in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..40),
        max_batch in 1usize..8,
        workers in 1usize..6,
        use_deadline in any::<bool>(),
        degraded in any::<bool>(),
    ) {
        let bundle = world();
        let mut cfg = ServeConfig::default()
            .with_max_batch(max_batch)
            .with_workers(workers)
            .with_queue_capacity(reqs.len() + 1);
        if degraded {
            // Budget 0: every wave runs lookup-only (stores skipped).
            cfg = cfg.with_memory_budget(0);
        }
        let server = TgServer::deterministic(Arc::clone(bundle), cfg).unwrap();
        // Engines never oversubscribe the host: workers that already own
        // the cores get one each, i.e. no helper scratches, inline waves.
        let cores = server.engine_cores();
        prop_assert!(cores == 1 || cores * workers <= host_cores(), "{cores} x {workers} workers");
        prop_assert!(workers < host_cores() || cores == 1);

        let far_deadline = Instant::now() + Duration::from_secs(3600);
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut ns: Vec<NodeId> = Vec::new();
        let mut ts: Vec<Time> = Vec::new();
        for &(node_raw, t_raw, drain_now) in &reqs {
            let (n, t) = decode(node_raw, t_raw);
            ns.push(n);
            ts.push(t);
            let ticket = if use_deadline {
                server.submit_with_deadline(n, t, far_deadline).unwrap()
            } else {
                server.submit(n, t).unwrap()
            };
            tickets.push(ticket);
            if drain_now {
                server.drain().unwrap();
            }
        }
        server.drain().unwrap();

        let expected = direct_rows(&ns, &ts, cfg.opt);
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait().unwrap();
            prop_assert!(
                bits(&got) == bits(&expected[i]),
                "request {i} ({}, {}): served row deviates by {}",
                ns[i], ts[i], max_abs_diff(&got, &expected[i])
            );
        }

        let stats = server.shutdown();
        prop_assert_eq!(stats.completed, reqs.len() as u64);
        prop_assert_eq!(stats.rejected_deadline, 0);
        prop_assert!(stats.unique_rows <= stats.batched_requests);
        if degraded {
            prop_assert_eq!(stats.degraded_batches, stats.batches);
        }
    }

    /// Duplicate-heavy streams: cross-request dedup collapses repeats, yet
    /// every request still receives its own row in submission order.
    #[test]
    fn row_order_preserved_under_heavy_duplication(
        reqs in proptest::collection::vec((0u32..3, 0u32..2), 2..30),
        max_batch in 1usize..6,
    ) {
        let bundle = world();
        let cfg = ServeConfig::default()
            .with_max_batch(max_batch)
            .with_queue_capacity(reqs.len() + 1);
        let server = TgServer::deterministic(Arc::clone(bundle), cfg).unwrap();

        let ns: Vec<NodeId> = reqs.iter().map(|&(n, t)| decode(n, t).0).collect();
        let ts: Vec<Time> = reqs.iter().map(|&(n, t)| decode(n, t).1).collect();
        let tickets = server.submit_many(&ns, &ts).unwrap();
        server.drain().unwrap();

        let expected = direct_rows(&ns, &ts, cfg.opt);
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait().unwrap();
            prop_assert!(
                bits(&got) == bits(&expected[i]),
                "row {i} out of order or wrong (deviates by {})",
                max_abs_diff(&got, &expected[i])
            );
        }

        let stats = server.shutdown();
        // Only 6 distinct (node, time) targets exist, so any stream longer
        // than 6 must coalesce inside at least one wave unless every wave
        // is tiny.
        prop_assert!(stats.unique_rows <= stats.batched_requests);
        let ratio = stats.cross_dedup_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio), "dedup ratio {ratio} out of range");
    }

    /// Degraded mode really does stop cache growth: with a zero budget the
    /// shared cache never stores anything, and results stay exact.
    #[test]
    fn zero_budget_serves_lookup_only(
        reqs in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..20),
    ) {
        let bundle = world();
        let cfg = ServeConfig::default()
            .with_max_batch(4)
            .with_queue_capacity(reqs.len() + 1)
            .with_memory_budget(0);
        let server = TgServer::deterministic(Arc::clone(bundle), cfg).unwrap();
        let ns: Vec<NodeId> = reqs.iter().map(|&(n, t)| decode(n, t).0).collect();
        let ts: Vec<Time> = reqs.iter().map(|&(n, t)| decode(n, t).1).collect();
        let tickets = server.submit_many(&ns, &ts).unwrap();
        server.drain().unwrap();

        prop_assert!(server.shared_cache().is_empty(), "zero budget must never store");
        let counters = server.engine_counters();
        prop_assert_eq!(counters.cache_stores, 0);
        prop_assert!(counters.stores_skipped > 0, "skipped stores must be counted");

        let expected = direct_rows(&ns, &ts, cfg.opt);
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait().unwrap();
            prop_assert!(
                bits(&got) == bits(&expected[i]),
                "row {i} deviates by {}",
                max_abs_diff(&got, &expected[i])
            );
        }
    }
}
