//! Streaming-ingest equivalence properties: a server whose graph mutates
//! under it must serve exactly what a cold rebuild would.
//!
//! Every case replays a seeded random interleaving of `submit_edge`,
//! query submissions, explicit compactions, and drains against a
//! deterministic live-ingest server, then checks four things:
//!
//! 1. **Embedding equivalence** — every ticket resolved by a drain equals
//!    (bit for bit, in submission-row order) a fresh engine over a graph
//!    rebuilt cold from the full edge sequence visible at that drain.
//! 2. **Sampling equivalence** — `GraphView` neighborhoods (base + delta
//!    merge, across compactions) are bit-identical to a cold rebuild's,
//!    including exact-time ties and out-of-order arrivals.
//! 3. **Deadline behavior** — deadlines on a live server reject exactly
//!    as on a frozen one; expired requests never consume an embedding.
//! 4. **Books** — with cache clears mixed into the script, rows still
//!    match the cold rebuild, and every request and edge is counted
//!    exactly once in the stats and the telemetry built from them.
//!
//! The pool of ingestible edges deliberately mixes late timestamps,
//! mid-stream arrivals (out of order), and exact ties with base edges, so
//! the delta/base merge order is exercised, not just the append fast path.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use tgopt_repro::error::TgError;
use tgopt_repro::graph::{
    Edge, EdgeStream, LiveGraph, NodeId, SamplingStrategy, TemporalGraph, TemporalSampler, Time,
};
use tgopt_repro::serve::{ModelBundle, ServeConfig, TgServer, Ticket};
use tgopt_repro::tensor::init;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::TgoptEngine;

const N_NODES: usize = 12;
const N_BASE: usize = 60;
const N_POOL: usize = 30;

struct World {
    bundle: Arc<ModelBundle>,
    base: Vec<Edge>,
    /// Ingestible edges, eids pre-assigned to the rows `submit_edge` will
    /// hand out (`N_BASE..`). Times mix late, out-of-order, and exact
    /// ties with base timestamps.
    pool: Vec<Edge>,
}

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let mut srcs = Vec::new();
        let mut dsts = Vec::new();
        let mut times = Vec::new();
        for i in 0..N_BASE {
            srcs.push((i % N_NODES) as NodeId);
            dsts.push(((i * 3 + 1) % N_NODES) as NodeId);
            times.push((i + 1) as Time);
        }
        let stream = EdgeStream::new(&srcs, &dsts, &times);
        let base: Vec<Edge> = stream.edges().to_vec();
        let graph = TemporalGraph::from_stream(&stream);
        let mut rng = init::seeded_rng(5);
        let nf = init::normal(&mut rng, N_NODES, cfg.dim, 0.5);
        let ef = init::normal(&mut rng, N_BASE + N_POOL, cfg.edge_dim, 0.5);
        let pool: Vec<Edge> = (0..N_POOL)
            .map(|i| Edge {
                src: ((i * 5 + 2) % N_NODES) as NodeId,
                dst: ((i * 7 + 3) % N_NODES) as NodeId,
                time: match i % 3 {
                    // Past the base stream's end.
                    0 => 61.0 + i as Time,
                    // Out of order: lands mid-stream.
                    1 => 30.5 + i as Time * 0.25,
                    // Exact tie with a base timestamp.
                    _ => (i + 1) as Time,
                },
                eid: (N_BASE + i) as u32,
            })
            .collect();
        World { bundle: Arc::new(ModelBundle::new(params, graph, nf, ef).unwrap()), base, pool }
    })
}

/// The cold oracle: base edges plus the first `n_ingested` pool edges
/// added in submission order to a fresh graph — exactly the history a
/// `GraphView` at that point claims to serve.
fn cold_graph(n_ingested: usize) -> TemporalGraph {
    let w = world();
    TemporalGraph::from_edges(N_NODES, &[&w.base[..], &w.pool[..n_ingested]].concat())
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Reported on failure, to tell a rounding difference from a wrong row.
fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
}

/// Decodes raw proptest ints into a query; times span the base stream,
/// the tie region, and past-the-end so inserts land on both sides.
fn decode(node_raw: u32, t_raw: u32) -> (NodeId, Time) {
    ((node_raw % N_NODES as u32) as NodeId, 10.0 + (t_raw % 180) as Time * 0.5)
}

/// Resolves every pending ticket against a fresh engine over the cold
/// rebuild at `n_ingested` edges, in submission order.
fn check_pending(
    pending: &mut Vec<(Ticket, NodeId, Time)>,
    n_ingested: usize,
) -> Result<(), TestCaseError> {
    if pending.is_empty() {
        return Ok(());
    }
    let w = world();
    let graph = cold_graph(n_ingested);
    let ctx = tgopt_repro::tgat::engine::GraphContext {
        graph: &graph,
        node_features: &w.bundle.node_features,
        edge_features: &w.bundle.edge_features,
    };
    let opt = ServeConfig::default().opt;
    let mut eng = TgoptEngine::new(&w.bundle.params, ctx, opt);
    let ns: Vec<NodeId> = pending.iter().map(|&(_, n, _)| n).collect();
    let ts: Vec<Time> = pending.iter().map(|&(_, _, t)| t).collect();
    let h = eng.embed_batch(&ns, &ts).unwrap();
    for (i, (ticket, n, t)) in pending.drain(..).enumerate() {
        let got = ticket.wait().unwrap();
        prop_assert!(
            bits(&got) == bits(h.row(i)),
            "query {i} ({n}, {t}) after {n_ingested} ingests: served row deviates by {}",
            max_abs_diff(&got, h.row(i))
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: under arbitrary interleavings of ingest,
    /// query, compaction, and drain, every served embedding equals a cold
    /// rebuild of the edge stream visible at its drain, in row order.
    #[test]
    fn streaming_served_equals_cold_rebuild(
        script in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..48),
        max_batch in 1usize..8,
    ) {
        let w = world();
        let cfg = ServeConfig::default()
            .with_max_batch(max_batch)
            .with_queue_capacity(512)
            .with_live_ingest(true)
            // Compaction happens only where the script says so, keeping
            // each case's delta/CSR split reproducible.
            .with_compact_threshold(usize::MAX);
        let server = TgServer::deterministic(Arc::clone(&w.bundle), cfg).unwrap();

        let mut ingested = 0usize;
        let mut pending: Vec<(Ticket, NodeId, Time)> = Vec::new();
        for &(op, a, b) in &script {
            match op % 5 {
                // Ingest ops get 2/5 weight: interleavings where the graph
                // actually moves are the interesting ones.
                0 | 3 => {
                    if ingested < w.pool.len() {
                        let e = w.pool[ingested];
                        let eid = server.submit_edge(e.src, e.dst, e.time).unwrap();
                        prop_assert_eq!(eid as usize, N_BASE + ingested);
                        ingested += 1;
                    }
                }
                1 => {
                    let (n, t) = decode(a, b);
                    pending.push((server.submit(n, t).unwrap(), n, t));
                }
                2 => {
                    server.drain().unwrap();
                    check_pending(&mut pending, ingested)?;
                }
                _ => {
                    prop_assert!(server.compact_live());
                }
            }
        }
        // Flush the tail behind one sentinel query, so the last drain
        // always runs over the final graph.
        let (n, t) = decode(3, 9);
        pending.push((server.submit(n, t).unwrap(), n, t));
        server.drain().unwrap();
        check_pending(&mut pending, ingested)?;

        let stats = server.stats();
        prop_assert_eq!(stats.edges_ingested, ingested as u64);
        let ingest = server.ingest_stats().unwrap();
        prop_assert_eq!(ingest.edges_appended, ingested as u64);
        server.shutdown();
    }

    /// Fingerprint equivalence: with last-layer caching on, a lookup
    /// accepts a deep entry only while every window its recorded
    /// fingerprint sampled is unchanged under the reader's view (DESIGN.md
    /// "One validity question"). Earlier (node, time) pairs are
    /// re-queried after ingests so surviving layer-2 entries are actually
    /// *served*, and every served row must still match a cold rebuild —
    /// a single wrongly-accepted entry surfaces as a row deviation here.
    #[test]
    fn fingerprinted_deep_cache_matches_cold_rebuild(
        script in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..48),
    ) {
        let w = world();
        let mut cfg = ServeConfig::default()
            .with_max_batch(4)
            .with_queue_capacity(512)
            .with_live_ingest(true)
            .with_compact_threshold(usize::MAX);
        cfg.opt.cache_last_layer = true;
        let server = TgServer::deterministic(Arc::clone(&w.bundle), cfg).unwrap();

        let mut ingested = 0usize;
        let mut pending: Vec<(Ticket, NodeId, Time)> = Vec::new();
        let mut history: Vec<(NodeId, Time)> = Vec::new();
        for &(op, a, b) in &script {
            match op % 5 {
                0 | 3 => {
                    if ingested < w.pool.len() {
                        let e = w.pool[ingested];
                        server.submit_edge(e.src, e.dst, e.time).unwrap();
                        ingested += 1;
                    }
                }
                1 => {
                    let (n, t) = decode(a, b);
                    history.push((n, t));
                    pending.push((server.submit(n, t).unwrap(), n, t));
                }
                2 => {
                    // Re-query an earlier pair: its layer-2 entry either
                    // still holds (and must still be right) or is refused
                    // (and recomputed against the moved graph).
                    let (n, t) = match history.get(a as usize % history.len().max(1)) {
                        Some(&pair) => pair,
                        None => decode(a, b),
                    };
                    pending.push((server.submit(n, t).unwrap(), n, t));
                }
                _ => {
                    server.drain().unwrap();
                    check_pending(&mut pending, ingested)?;
                }
            }
        }
        let (n, t) = decode(3, 9);
        pending.push((server.submit(n, t).unwrap(), n, t));
        server.drain().unwrap();
        check_pending(&mut pending, ingested)?;
        server.shutdown();
    }

    /// Cache clears interleaved with ingest, compaction and drains only
    /// force recomputation: every served row still equals the cold
    /// rebuild, deep entries included. At the end the queue is empty and
    /// the books balance — each submission completed once, each edge
    /// ingested once, every entry inserted evicted, cleared or resident,
    /// and the telemetry's serve and ingest sections equal the stats.
    #[test]
    fn invalidation_interleaved_with_ingest_keeps_rows_and_books(
        script in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..48),
        max_batch in 1usize..8,
        deep in any::<bool>(),
    ) {
        let w = world();
        let mut cfg = ServeConfig::default()
            .with_max_batch(max_batch)
            .with_queue_capacity(512)
            .with_live_ingest(true)
            .with_compact_threshold(usize::MAX);
        cfg.opt.cache_last_layer = deep;
        let server = TgServer::deterministic(Arc::clone(&w.bundle), cfg).unwrap();

        let mut ingested = 0usize;
        let mut submitted = 0u64;
        let mut pending: Vec<(Ticket, NodeId, Time)> = Vec::new();
        for &(op, a, b) in &script {
            match op % 6 {
                0 | 3 => {
                    if ingested < w.pool.len() {
                        let e = w.pool[ingested];
                        server.submit_edge(e.src, e.dst, e.time).unwrap();
                        ingested += 1;
                    }
                }
                1 => {
                    let (n, t) = decode(a, b);
                    pending.push((server.submit(n, t).unwrap(), n, t));
                    submitted += 1;
                }
                2 => {
                    server.drain().unwrap();
                    check_pending(&mut pending, ingested)?;
                }
                4 => {
                    prop_assert!(server.compact_live());
                }
                _ => server.shared_cache().clear(),
            }
        }
        let (n, t) = decode(3, 9);
        pending.push((server.submit(n, t).unwrap(), n, t));
        submitted += 1;
        server.drain().unwrap();
        check_pending(&mut pending, ingested)?;

        prop_assert_eq!(server.queued(), 0);
        let stats = server.stats();
        prop_assert_eq!(stats.submitted, submitted);
        prop_assert_eq!(stats.completed, submitted);
        prop_assert_eq!(stats.batched_requests, submitted);
        prop_assert_eq!(stats.rejected_deadline, 0);
        prop_assert_eq!(stats.rejected_overload, 0);
        prop_assert_eq!(stats.edges_ingested, ingested as u64);
        let telemetry = server.telemetry();
        prop_assert_eq!(telemetry.serve.submitted, stats.submitted);
        prop_assert_eq!(telemetry.serve.completed, stats.completed);
        prop_assert_eq!(telemetry.serve.batches, stats.batches);
        prop_assert_eq!(telemetry.serve.unique_rows, stats.unique_rows);
        prop_assert_eq!(telemetry.ingest.edges_appended, ingested as u64);
        prop_assert_eq!(telemetry.ingest.entries_invalidated, stats.entries_invalidated);
        prop_assert_eq!(telemetry.ingest.entries_retained, stats.entries_retained);
        let cache = server.shared_cache();
        prop_assert_eq!(cache.total_inserted(), cache.total_evictions() + cache.total_cleared() + cache.len() as u64);
        let finals = server.shutdown();
        prop_assert_eq!(finals.completed, stats.completed);
    }

    /// `GraphView` neighborhoods are bit-identical to the cold rebuild's,
    /// for both sampling strategies, at every ingest prefix and with a
    /// compaction injected at an arbitrary point.
    #[test]
    fn view_sampling_matches_cold_rebuild(
        n_ingest in 0usize..=N_POOL,
        // Below N_POOL: compact after that ingest; otherwise never.
        compact_raw in 0usize..(2 * N_POOL),
        k in 1usize..6,
        uniform in any::<bool>(),
        t_raw in proptest::collection::vec(any::<u32>(), 1..24),
    ) {
        let w = world();
        let compact_at = (compact_raw < N_POOL).then_some(compact_raw);
        let live = LiveGraph::new(cold_graph(0)).with_compact_threshold(usize::MAX);
        for (i, e) in w.pool[..n_ingest].iter().enumerate() {
            live.append(e);
            if compact_at == Some(i) {
                live.compact();
            }
        }
        let cold = cold_graph(n_ingest);
        let strategy = if uniform {
            SamplingStrategy::Uniform { seed: 11 }
        } else {
            SamplingStrategy::MostRecent
        };
        let sampler = TemporalSampler::new(k, strategy);
        let ns: Vec<NodeId> = t_raw.iter().map(|&r| (r % N_NODES as u32) as NodeId).collect();
        let ts: Vec<Time> = t_raw.iter().map(|&r| 1.0 + (r % 200) as Time * 0.5).collect();
        let view = live.view();
        prop_assert_eq!(view.num_edges(), (N_BASE + n_ingest) as u64);
        let a = sampler.sample(&cold, &ns, &ts);
        let b = sampler.sample_from(&view, &ns, &ts);
        prop_assert_eq!(&a.nodes, &b.nodes);
        prop_assert_eq!(&a.times, &b.times);
        prop_assert_eq!(&a.eids, &b.eids);
        prop_assert_eq!(&a.dts, &b.dts);
    }

    /// Deadlines behave identically on a live server: an expired request
    /// resolves to `DeadlineExceeded` (at submit or at drain), never to a
    /// stale embedding, and live requests still match the cold rebuild.
    #[test]
    fn deadlines_respected_while_ingesting(
        reqs in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..24),
        n_ingest in 0usize..=N_POOL,
    ) {
        let w = world();
        let cfg = ServeConfig::default()
            .with_max_batch(4)
            .with_queue_capacity(512)
            .with_live_ingest(true)
            .with_compact_threshold(usize::MAX);
        let server = TgServer::deterministic(Arc::clone(&w.bundle), cfg).unwrap();
        for e in &w.pool[..n_ingest] {
            server.submit_edge(e.src, e.dst, e.time).unwrap();
        }
        let far = Instant::now() + Duration::from_secs(3600);
        let mut live_tickets: Vec<(Ticket, NodeId, Time)> = Vec::new();
        let mut doomed: Vec<Ticket> = Vec::new();
        let mut rejected_at_submit = 0u64;
        for &(a, b, expire) in &reqs {
            let (n, t) = decode(a, b);
            if expire {
                // A deadline that is already (or imminently) expired: the
                // server may reject at submit or at drain — either way it
                // must be an error, never an embedding.
                match server.submit_with_deadline(n, t, Instant::now()) {
                    Ok(ticket) => doomed.push(ticket),
                    Err(TgError::DeadlineExceeded) => rejected_at_submit += 1,
                    Err(e) => prop_assert!(false, "unexpected submit error: {e}"),
                }
            } else {
                live_tickets.push((server.submit_with_deadline(n, t, far).unwrap(), n, t));
            }
        }
        server.drain().unwrap();
        for ticket in doomed {
            prop_assert!(
                matches!(ticket.wait(), Err(TgError::DeadlineExceeded)),
                "expired request must resolve to DeadlineExceeded"
            );
        }
        check_pending(&mut live_tickets, n_ingest)?;
        let stats = server.shutdown();
        prop_assert_eq!(
            stats.rejected_deadline,
            reqs.iter().filter(|&&(_, _, e)| e).count() as u64
        );
        prop_assert!(rejected_at_submit <= stats.rejected_deadline);
    }
}
