//! The two serving workloads: `serve-open` (a frozen graph behind
//! `TgServer::threaded`) and `stream-mixed` (the same layer with live
//! ingest, one operation in ten an edge insert).
//!
//! Each runs a fixed list of phases from one generator thread: paced phases
//! are open loops at a fixed Poisson rate, `saturated` is a closed loop
//! keeping [`WINDOW`] requests outstanding.

use crate::hostprobe::{slowdown, HostProbe, QUIET_IDLE_NS};
use crate::loadgen::{drive, poisson_schedule_ns, serve_open_queries, stream_mixed_ops};
use crate::loadgen::{Op, Pacing, PhaseOutcome};
use crate::probe::{put_probe_layers, History, Probe, Rate};
use crate::replay::TOLERANCE;
use crate::report::WorkloadReport;
use crate::stats::{per_second, quantile_ns_as_us, ratio, summarize, Summary};
use crate::trace::{elapsed_ns, Tracer};
use crate::world::{build_graph, build_prefix_graph, build_world, peak_rss_mb, Sizing};
use crate::world::{BASE_SHARE, WARM_QUERIES, WINDOW};
use crate::Res;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tg_graph::{EdgeStream, LiveGraph, NodeId, TemporalGraph, Time};
use tg_serve::{coalesce, BoundedQueue, ModelBundle, ServeConfig, ServeStats, TgServer};
use tgat::engine::GraphContext;
use tgopt::{OptConfig, TgoptEngine};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Open,
    Mixed,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Open => "serve-open",
            Kind::Mixed => "stream-mixed",
        }
    }

    fn config(self) -> ServeConfig {
        match self {
            Kind::Open => ServeConfig::default(),
            Kind::Mixed => stream_mixed_config(),
        }
    }

    fn phases(self) -> &'static [PhaseSpec] {
        match self {
            Kind::Open => &OPEN_PHASES,
            Kind::Mixed => &MIXED_PHASES,
        }
    }
}

/// `stream-mixed`'s server settings: the shipped defaults plus live ingest,
/// and last-layer caching — otherwise no workload would execute the
/// fingerprint path in a 2-layer model.
pub fn stream_mixed_config() -> ServeConfig {
    let mut cfg = ServeConfig::default().with_live_ingest(true);
    cfg.opt.cache_last_layer = true;
    cfg
}

/// One phase: its name, the suffix its per-layer metrics carry, its
/// full-length operation count, and its rate (`None` = closed loop).
struct PhaseSpec {
    name: &'static str,
    tag: &'static str,
    ops: usize,
    rate: Option<f64>,
}

const OPEN_PHASES: [PhaseSpec; 3] = [
    PhaseSpec {
        name: "paced-lo",
        tag: "lo",
        ops: 60_000,
        rate: Some(4_000.0),
    },
    PhaseSpec {
        name: "paced-hi",
        tag: "hi",
        ops: 100_000,
        rate: Some(10_000.0),
    },
    PhaseSpec {
        name: "saturated",
        tag: "sat",
        ops: 400_000,
        rate: None,
    },
];

const MIXED_PHASES: [PhaseSpec; 2] = [
    PhaseSpec {
        name: "paced",
        tag: "lo",
        ops: 60_000,
        rate: Some(4_000.0),
    },
    PhaseSpec {
        name: "saturated",
        tag: "sat",
        ops: 100_000,
        rate: None,
    },
];

/// Times the traced pass alternates a bare and a traced saturated segment;
/// tracing overhead is the median of the per-pair differences.
const TRACED_PAIRS: usize = 8;
/// Rows `serve-open` checks against a direct engine.
const OPEN_CHECK_ROWS: usize = 512;
/// Post-run queries `stream-mixed` checks against a cold rebuild.
const MIXED_CHECK_ROWS: usize = 256;
/// Requests per probed chunk, and the direct engine's batch size.
const CHUNK: usize = 64;
/// A chunk in this many is probed.
const CHUNK_EVERY: usize = 16;

/// A started, warmed server and the streams that feed it.
struct Served {
    kind: Kind,
    stream: EdgeStream,
    bundle: Arc<ModelBundle>,
    server: TgServer,
    rng: StdRng,
    /// `serve-open`: index of the next request in its endless stream.
    next_query: usize,
    /// `stream-mixed`: edges in the base graph, suffix edges ingested so
    /// far, and the timestamp of the last one.
    base_len: usize,
    ingested: usize,
    last_time: Time,
    half_gap: Time,
    warm: Vec<Op>,
}

impl Served {
    /// `stream-mixed` queries at the current tick that consume no suffix
    /// edge (warm-up and the post-run check).
    fn next_reads(&mut self, n: usize) -> Vec<Op> {
        let base = &self.stream.edges()[..self.base_len];
        stream_mixed_ops(
            base,
            &[],
            self.half_gap,
            &mut self.last_time,
            n,
            &mut self.rng,
        )
        .0
    }

    fn next_ops(&mut self, n: usize) -> Vec<Op> {
        let edges = self.stream.edges();
        match self.kind {
            Kind::Open => {
                let ops = serve_open_queries(
                    edges,
                    self.stream.max_time(),
                    self.next_query,
                    n,
                    &mut self.rng,
                );
                self.next_query += n;
                ops
            }
            Kind::Mixed => {
                let (base, suffix) = edges.split_at(self.base_len);
                let (ops, used) = stream_mixed_ops(
                    base,
                    &suffix[self.ingested.min(suffix.len())..],
                    self.half_gap,
                    &mut self.last_time,
                    n,
                    &mut self.rng,
                );
                self.ingested += used;
                ops
            }
        }
    }
}

/// The whole set-up of a serving workload: dataset, graph, weights, server
/// start and cache warm-up. `cfg` is the workload's config (the traced pass
/// adds stage spans to it); `round` varies the request stream only.
fn start(
    kind: Kind,
    seed: u64,
    round: u64,
    sizing: Sizing,
    cfg: ServeConfig,
    tracer: &mut Tracer,
) -> Res<Served> {
    let world = build_world(seed, sizing.scale, tracer)?;
    let n_edges = world.stream().len();
    let base_len = match kind {
        Kind::Open => n_edges,
        Kind::Mixed => ((n_edges as f64 * BASE_SHARE).round() as usize).clamp(1, n_edges), // lint: allow(lossy-cast, a rounded share of the edge count)
    };
    let graph = match kind {
        Kind::Open => build_graph(world.stream(), tracer),
        Kind::Mixed => build_prefix_graph(world.stream(), base_len, tracer),
    };
    let crate::world::World {
        data,
        params,
        node_features,
    } = world;
    let tg_datasets::Dataset {
        stream,
        edge_features,
        ..
    } = data;
    let bundle = ModelBundle::new(params, graph, node_features, edge_features)
        .map_err(|e| format!("model bundle: {e}"))?;
    let bundle = Arc::new(bundle);
    let server = tracer
        .in_span("TgServer::threaded", 0, |_| {
            TgServer::threaded(Arc::clone(&bundle), cfg)
        })
        .map_err(|e| format!("server start: {e}"))?;

    let last_time = stream.edges()[base_len - 1].time;
    let mean_gap = f64::from(stream.max_time()) / n_edges.max(1) as f64;
    let mut served = Served {
        kind,
        stream,
        bundle,
        server,
        // Same dataset and weights every round, a fresh request stream.
        rng: StdRng::seed_from_u64(seed ^ 0x1ed6_e7a5 ^ (round << 32)),
        next_query: 0,
        base_len,
        ingested: 0,
        last_time,
        half_gap: (mean_gap / 2.0) as Time, // lint: allow(lossy-cast, half the mean inter-edge gap, a few seconds)
        warm: Vec::new(),
    };
    // Warm-up reads only: stream-mixed's warm queries sit at the base
    // graph's last timestamp and consume no suffix edge.
    let warm_n = ((WARM_QUERIES as f64 * sizing.scale).round() as usize).max(CHUNK); // lint: allow(lossy-cast, a rounded positive query count)
    let warm = match kind {
        Kind::Open => served.next_ops(warm_n),
        Kind::Mixed => served.next_reads(warm_n),
    };
    let warmed = tracer.in_span("warm-up", 0, |_| {
        drive(
            &served.server,
            &warm,
            &Pacing::Closed { window: WINDOW },
            &|_| false,
            0,
            &mut Tracer::off(),
        )
    })?;
    if warmed.failed > 0 {
        return Err(format!(
            "warm-up: {} of {} queries failed",
            warmed.failed, warmed.attempted
        ));
    }
    served.warm = warm;
    Ok(served)
}

/// Sum of the workers' wave-processing time and wave count so far.
fn wave_totals(server: &TgServer) -> (u64, u64) {
    server
        .telemetry()
        .latency
        .workers
        .iter()
        .fold((0, 0), |(ns, n), h| (ns + h.sum_ns(), n + h.count()))
}

/// What one phase measured, with the server's counters on either side.
struct PhaseRun {
    spec: &'static PhaseSpec,
    ops: Vec<Op>,
    outcome: PhaseOutcome,
    before: ServeStats,
    after: ServeStats,
    wave_ns: u64,
    waves: u64,
    /// Host-speed probe times taken just before and after the phase.
    host_ns: Vec<u64>,
}

/// Host-speed probes on either side of a compute-bound phase.
const HOST_PROBES_PER_SIDE: usize = 5;

fn run_phase(
    served: &mut Served,
    spec: &'static PhaseSpec,
    n: usize,
    keep_rows: usize,
    op_base: u64,
    mut host: Option<&mut HostProbe>,
    tracer: &mut Tracer,
) -> Res<PhaseRun> {
    let bundle = Arc::clone(&served.bundle);
    let table = &bundle.edge_features;
    let mut host_ns = Vec::new();
    let mut probe_host = |host_ns: &mut Vec<u64>| {
        if let Some(host) = host.as_mut() {
            host_ns.extend(
                (0..HOST_PROBES_PER_SIDE).map(|_| host.time_ns(table.as_slice(), table.cols())),
            );
        }
    };
    probe_host(&mut host_ns);
    let ops = served.next_ops(n);
    let schedule = spec
        .rate
        .map(|rate| poisson_schedule_ns(n, rate, &mut served.rng));
    let pacing = match &schedule {
        Some(due_ns) => Pacing::Open { due_ns },
        None => Pacing::Closed { window: WINDOW },
    };
    let stride = (n / keep_rows.max(1)).max(1);
    let keep = move |i: usize| keep_rows > 0 && i % stride == 0;
    let before = served.server.stats();
    let (wave_ns0, waves0) = wave_totals(&served.server);
    let outcome = tracer.in_span(spec.name, op_base, |t| {
        drive(&served.server, &ops, &pacing, &keep, op_base, t)
    })?;
    let (wave_ns1, waves1) = wave_totals(&served.server);
    let after = served.server.stats();
    probe_host(&mut host_ns);
    Ok(PhaseRun {
        spec,
        ops,
        outcome,
        before,
        after,
        wave_ns: wave_ns1 - wave_ns0,
        waves: waves1 - waves0,
        host_ns,
    })
}

/// Runs the workload's phase list once, each phase at `1 / rounds` of its
/// length for this run, keeping about `keep_rows` rows for verification.
fn run_phases(
    served: &mut Served,
    sizing: Sizing,
    keep_rows: usize,
    host: &mut HostProbe,
    tracer: &mut Tracer,
) -> Res<Vec<PhaseRun>> {
    let phases = served.kind.phases();
    let mut runs = Vec::new();
    let mut op_base = 0u64;
    for spec in phases {
        let n = sizing.count_per_round(spec.ops);
        // Only the closed-loop phase is compute-bound and gets corrected.
        let host = spec.rate.is_none().then_some(&mut *host);
        runs.push(run_phase(
            served,
            spec,
            n,
            keep_rows.div_ceil(phases.len()),
            op_base,
            host,
            tracer,
        )?);
        op_base += n as u64;
    }
    Ok(runs)
}

fn rows_per_s(run: &PhaseRun) -> f64 {
    per_second(run.outcome.queries_done() as f64, run.outcome.wall_ns)
}

fn p50_us(ns: &[u64]) -> f64 {
    quantile_ns_as_us(ns, 0.5)
}

fn tagged<'a>(runs: &'a [PhaseRun], tag: &'a str) -> impl Iterator<Item = &'a PhaseRun> {
    runs.iter().filter(move |r| r.spec.tag == tag)
}

fn query_targets(ops: &[Op]) -> (Vec<NodeId>, Vec<Time>) {
    ops.iter()
        .filter_map(|op| match *op {
            Op::Query { node, time } => Some((node, time)),
            Op::Write { .. } => None,
        })
        .unzip()
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| f64::from((x - y).abs()))
        .fold(0.0, f64::max)
}

/// `serve-open`: the rows kept from every phase must equal a direct
/// engine's rows for the same `(node, time)` targets.
fn check_open(served: &Served, runs: &[PhaseRun]) -> Res<(u64, f64)> {
    let (mut ns, mut ts, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for run in runs {
        for (i, row) in &run.outcome.kept_rows {
            if let Some(Op::Query { node, time }) = run.ops.get(*i) {
                ns.push(*node);
                ts.push(*time);
                rows.push(row);
            }
        }
    }
    let mut engine = TgoptEngine::new(
        &served.bundle.params,
        served.bundle.context(),
        OptConfig::all(),
    );
    let expected = engine
        .embed_batch(&ns, &ts)
        .map_err(|e| format!("direct engine: {e}"))?;
    let worst = rows
        .iter()
        .enumerate()
        .map(|(i, row)| max_abs_diff(row, expected.row(i)))
        .fold(0.0, f64::max);
    Ok((rows.len() as u64, worst))
}

/// `stream-mixed`: queries served after the run, over the mutated live
/// graph, must equal a cold engine over the graph rebuilt from the base
/// plus every ingested edge.
fn check_mixed(served: &mut Served) -> Res<(u64, f64)> {
    let ops = served.next_reads(MIXED_CHECK_ROWS);
    let out = drive(
        &served.server,
        &ops,
        &Pacing::Closed { window: WINDOW },
        &|_| true,
        0,
        &mut Tracer::off(),
    )?;
    let (ns, ts) = query_targets(&ops);
    let rebuilt = build_prefix_graph(
        &served.stream,
        served.base_len + served.ingested,
        &mut Tracer::off(),
    );
    let ctx = GraphContext {
        graph: &rebuilt,
        node_features: &served.bundle.node_features,
        edge_features: &served.bundle.edge_features,
    };
    let mut engine = TgoptEngine::new(&served.bundle.params, ctx, OptConfig::all());
    let expected = engine
        .embed_batch(&ns, &ts)
        .map_err(|e| format!("cold engine: {e}"))?;
    let worst = out
        .kept_rows
        .iter()
        .map(|(i, row)| max_abs_diff(row, expected.row(*i)))
        .fold(0.0, f64::max);
    let rows = if out.failed == 0 {
        out.kept_rows.len() as u64
    } else {
        0
    };
    Ok((rows, worst))
}

/// Per-round values of one end-to-end metric.
#[derive(Default)]
struct Samples(Vec<(&'static str, &'static str, Vec<f64>)>);

impl Samples {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }
}

/// The untraced pass: end-to-end metrics and the correctness check. Every
/// round starts and warms a fresh server, runs the phase list at
/// `1 / rounds` of its length, and checks its rows against the oracle.
pub fn run(kind: Kind, seed: u64, sizing: Sizing, started: Instant) -> Res<WorkloadReport> {
    let mut report = WorkloadReport::new(kind.name());
    let sizing = sizing.serving();
    let rounds = sizing.rounds.max(1);
    let keep = match kind {
        Kind::Open => OPEN_CHECK_ROWS.div_ceil(rounds as usize),
        Kind::Mixed => 0,
    };
    let mut samples = Samples::default();
    let mut host = HostProbe::new();
    let (mut raw_rates, mut factors, mut hi_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = vec![(0u64, 0u64); kind.phases().len()];
    let (mut checked_rows, mut worst, mut peak) = (0u64, 0.0f64, 0.0f64);
    let mut refusals = 0u64;
    let mut from = started;
    for round in 0..rounds {
        let mut served = start(kind, seed, round, sizing, kind.config(), &mut Tracer::off())?;
        samples.add("setup_s", "s", from.elapsed().as_secs_f64());
        let runs = run_phases(&mut served, sizing, keep, &mut host, &mut Tracer::off())?;
        // Memory is read before the round's oracle engine allocates its own.
        peak = peak_rss_mb();

        for r in tagged(&runs, "sat") {
            let factor = slowdown(&r.host_ns, QUIET_IDLE_NS);
            samples.add("rows_per_s", "rows/s", rows_per_s(r) * factor);
            raw_rates.push(rows_per_s(r));
            factors.push(factor);
        }
        for r in tagged(&runs, "lo") {
            samples.add("op_p50_us", "us", p50_us(&r.outcome.query_lat_ns));
            if kind == Kind::Mixed {
                samples.add("write_p50_us", "us", p50_us(&r.outcome.write_lat_ns));
            }
        }
        for r in tagged(&runs, "hi") {
            hi_p50s.push(p50_us(&r.outcome.query_lat_ns));
        }
        let (within, attempted) = runs
            .iter()
            .filter(|r| r.spec.rate.is_some())
            .fold((0, 0), |(w, a), r| {
                (w + r.outcome.within_limit, a + r.outcome.attempted)
            });
        samples.add(
            "within_limit_share",
            "ratio",
            ratio(within as f64, attempted as f64),
        );
        for (count, r) in counts.iter_mut().zip(&runs) {
            *count = (count.0 + r.outcome.attempted, count.1 + r.outcome.failed);
            refusals += r.outcome.refusals;
        }

        let (rows, diff) = match kind {
            Kind::Open => check_open(&served, &runs)?,
            Kind::Mixed => check_mixed(&mut served)?,
        };
        checked_rows += rows;
        worst = worst.max(diff);
        served.server.shutdown();
        if sizing.out_of_time(started) {
            break;
        }
        from = Instant::now();
    }

    for (name, unit, mut values) in samples.0 {
        report.put_e2e(name, unit, summarize(&mut values));
    }
    report.put_e2e("peak_rss_mb", "MB", Summary::single(peak));
    report.put_note("host.slowdown", "ratio", summarize(&mut factors).median);
    report.put_note("raw.rows_per_s", "rows/s", summarize(&mut raw_rates).median);
    if !hi_p50s.is_empty() {
        // Not an end-to-end metric: see `serve.op_p50_us_hi`.
        report.put_note("paced-hi.op_p50_us", "us", summarize(&mut hi_p50s).median);
    }
    // Queries a full admission queue turned away and the generator offered
    // again: each is a miss of the latency limit, none is a failed operation.
    report.put_note("queue.refusals", "count", refusals as f64);
    for (spec, (attempted, failed)) in kind.phases().iter().zip(counts) {
        report.put_phase(spec.name, attempted, failed);
    }
    let check = match kind {
        Kind::Open => "sampled served rows vs direct engine",
        Kind::Mixed => "post-run served rows vs cold rebuild",
    };
    report.put_check(check, checked_rows, worst, TOLERANCE);
    Ok(report)
}

/// Serving-layer calls probed on their own: `coalesce` and the admission
/// queue, on the same request chunks the layer-1 steps use.
#[derive(Default)]
struct ServeProbes {
    coalesce: Rate,
    queue: Rate,
}

/// Probes every [`CHUNK_EVERY`]-th chunk of a finished phase's queries: the
/// serving-layer calls, then one layer-1 step on the chunk's unique targets
/// against the server's own cache (and, for a live server, its view).
fn probe_phase(
    served: &Served,
    run: &PhaseRun,
    probe: &mut Probe<'_>,
    extra: &mut ServeProbes,
    tracer: &mut Tracer,
) -> Res<()> {
    let (ns, ts) = query_targets(&run.ops);
    let cache = served.server.shared_cache();
    let view = served.server.live_view();
    let queue: BoundedQueue<usize> = BoundedQueue::new(CHUNK * 2);
    for (c, (ns, ts)) in ns
        .chunks(CHUNK)
        .zip(ts.chunks(CHUNK))
        .enumerate()
        .step_by(CHUNK_EVERY)
    {
        let targets: Vec<(NodeId, Time)> = ns.iter().copied().zip(ts.iter().copied()).collect();
        let start = Instant::now();
        let plan = coalesce(&targets);
        extra.coalesce.add(targets.len() as f64, elapsed_ns(start));

        let start = Instant::now();
        let pushed = (0..targets.len())
            .filter(|&i| queue.push(i).is_ok())
            .count();
        let popped = queue.pop_wave(CHUNK, Duration::ZERO).map_or(0, |w| w.len());
        extra.queue.add((pushed + popped) as f64, elapsed_ns(start));

        let op = c as u64;
        match &view {
            Some(v) => probe.layer1_step(
                &History::Live(v),
                cache.layer(1),
                &plan.ns,
                &plan.ts,
                op,
                tracer,
            )?,
            None => {
                let graph: &TemporalGraph = &served.bundle.graph;
                probe.layer1_step(
                    &History::Frozen(graph),
                    cache.layer(1),
                    &plan.ns,
                    &plan.ts,
                    op,
                    tracer,
                )?;
            }
        }
    }
    Ok(())
}

/// One `TgoptEngine` fed `ops` in chunks of [`CHUNK`], after the same
/// warm-up the server had: rows per second of `embed_batch` time.
fn direct_rows_per_s(served: &Served, ops: &[Op], tracer: &mut Tracer) -> Res<f64> {
    let mut engine = TgoptEngine::new(
        &served.bundle.params,
        served.bundle.context(),
        OptConfig::all(),
    );
    let (warm_ns, warm_ts) = query_targets(&served.warm);
    for (ns, ts) in warm_ns.chunks(CHUNK).zip(warm_ts.chunks(CHUNK)) {
        engine
            .embed_batch(ns, ts)
            .map_err(|e| format!("direct warm-up: {e}"))?;
    }
    let (ns, ts) = query_targets(ops);
    let mut busy_ns = 0u64;
    for (c, (ns, ts)) in ns.chunks(CHUNK).zip(ts.chunks(CHUNK)).enumerate() {
        let start = Instant::now();
        tracer
            .in_span("direct embed_batch", c as u64, |_| {
                engine.embed_batch(ns, ts)
            })
            .map_err(|e| format!("direct engine: {e}"))?;
        busy_ns += elapsed_ns(start);
    }
    Ok(per_second(ns.len() as f64, busy_ns))
}

/// `tgraph.*` write-path calls on a private live graph over the server's
/// base: append the not-yet-ingested suffix, take views, compact once.
fn probe_live_graph(served: &Served, report: &mut WorkloadReport) {
    let live =
        LiveGraph::from_shared(Arc::clone(&served.bundle.graph)).with_compact_threshold(usize::MAX);
    let suffix = &served.stream.edges()[served.base_len..];
    let batch = &suffix[..suffix.len().min(tg_graph::live::DEFAULT_COMPACT_THRESHOLD)];
    let start = Instant::now();
    for e in batch {
        live.append(e);
    }
    let append_ns = elapsed_ns(start);
    const VIEWS: u64 = 1000;
    let start = Instant::now();
    for _ in 0..VIEWS {
        std::hint::black_box(live.view());
    }
    let view_ns = elapsed_ns(start);
    let start = Instant::now();
    live.compact();
    let compact_ns = elapsed_ns(start);
    report.put_layer(
        "tgraph.append_edges_per_s",
        "1/s",
        per_second(batch.len() as f64, append_ns),
    );
    report.put_layer("tgraph.view_ns", "ns", ratio(view_ns as f64, VIEWS as f64));
    report.put_layer("tgraph.compact_ms", "ms", compact_ns as f64 / 1e6);
}

/// The traced pass, at half length. Two servers are started: a bare one
/// with the workload's shipped config, and one with stage spans on whose
/// every call is wrapped in a bench-side span. Every phase runs on both,
/// the saturated one in alternating segments, so tracing overhead is a
/// paired difference; the probe steps follow each phase of the traced one.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    sizing: Sizing,
    tracer: &mut Tracer,
) -> Res<WorkloadReport> {
    let mut report = WorkloadReport::new(kind.name());
    let sizing = sizing.traced();
    let cfg = kind.config().with_stage_spans(true);
    let mut bare = start(kind, seed, 0, sizing, kind.config(), &mut Tracer::off())?;
    let mut served = start(kind, seed, 0, sizing, cfg, tracer)?;
    let edges = served.stream.len() as f64;
    let bundle = Arc::clone(&served.bundle);
    let mut probe = Probe::new(
        &bundle.params,
        &bundle.node_features,
        &bundle.edge_features,
        cfg.opt,
        cfg.opt.cache_last_layer,
    );
    let mut extra = ServeProbes::default();

    let mut runs: Vec<PhaseRun> = Vec::new();
    let (mut overheads, mut traced_rates) = (Vec::new(), Vec::new());
    let mut op_base = 0u64;
    for spec in kind.phases() {
        let (pairs, n) = match spec.rate {
            Some(_) => (1, sizing.count(spec.ops)),
            None => (TRACED_PAIRS, (sizing.count(spec.ops) / TRACED_PAIRS).max(1)),
        };
        for _ in 0..pairs {
            // The bare server goes through every phase too, so that both
            // servers have the same history (cache, ingested edges) when
            // their saturated segments are compared.
            let bare_run = run_phase(&mut bare, spec, n, 0, 0, None, &mut Tracer::off())?;
            let run = run_phase(&mut served, spec, n, 0, op_base, None, tracer)?;
            op_base += n as u64;
            if spec.rate.is_none() {
                overheads.push(1.0 - ratio(rows_per_s(&run), rows_per_s(&bare_run)));
                traced_rates.push(rows_per_s(&run));
            }
            probe_phase(&served, &run, &mut probe, &mut extra, tracer)?;
            runs.push(run);
        }
    }
    bare.server.shutdown();
    for spec in kind.phases() {
        let (attempted, failed) = tagged(&runs, spec.tag).fold((0, 0), |(a, f), r| {
            (a + r.outcome.attempted, f + r.outcome.failed)
        });
        report.put_phase(spec.name, attempted, failed);
    }

    let traced_sat = summarize(&mut traced_rates).median;
    match kind {
        Kind::Open => {
            let sat_ops: Vec<Op> = tagged(&runs, "sat")
                .flat_map(|r| r.ops.iter().copied())
                .collect();
            let direct = direct_rows_per_s(&served, &sat_ops, tracer)?;
            report.put_layer(
                "serve.served_over_direct",
                "ratio",
                ratio(traced_sat, direct),
            );
            let done = runs.iter().map(|r| r.outcome.queries_done()).sum();
            report.put_check("traced phases completed", done, 0.0, 0.0);
        }
        Kind::Mixed => {
            probe_live_graph(&served, &mut report);
            let (rows, worst) = check_mixed(&mut served)?;
            report.put_check(
                "traced post-run served rows vs cold rebuild",
                rows,
                worst,
                TOLERANCE,
            );
        }
    }

    let ingest = served.server.ingest_stats();
    let workers = served.server.config().workers as f64;
    let (stats, telemetry) =
        tracer.in_span("shutdown", 0, |_| served.server.shutdown_with_telemetry());

    let (generate_ns, _) = tracer.span_total_ns("generate");
    let (build_ns, _) = tracer.span_total_ns("from_stream");
    report.put_layer(
        "datasets.generate_edges_per_s",
        "1/s",
        per_second(edges, generate_ns),
    );
    report.put_layer(
        "tgraph.build_edges_per_s",
        "1/s",
        per_second(served.base_len as f64, build_ns),
    );
    put_probe_layers(&mut report, &probe.totals);
    report.put_layer(
        "tgraph.compactions",
        "count",
        ingest.map_or(0.0, |s| s.compactions as f64),
    );

    let e = &telemetry.engine;
    let presented = (e.dedup_removed + e.recomputed + e.cache_hits) as f64;
    let wave_ns: u64 = runs.iter().map(|r| r.wave_ns).sum();
    let unique_rows: u64 = runs
        .iter()
        .map(|r| r.after.unique_rows - r.before.unique_rows)
        .sum();
    let staged_ns: u64 = telemetry.stages.iter().map(|s| s.total_ns).sum();
    let all_wave_ns: u64 = telemetry.latency.workers.iter().map(|h| h.sum_ns()).sum();
    // The embed_batch call sits inside the server; the wave that wraps it
    // (coalesce, embed_batch, scatter) is the closest outside boundary.
    report.put_layer(
        "core.embed_batch_us_per_row",
        "us",
        ratio(wave_ns as f64 / 1e3, unique_rows as f64),
    );
    report.put_layer(
        "core.cache_hit_ratio",
        "ratio",
        ratio(e.cache_hits as f64, e.cache_lookups as f64),
    );
    report.put_layer(
        "core.cache_evictions",
        "count",
        telemetry.embed_cache.evictions as f64,
    );
    report.put_layer(
        "core.cache_items",
        "count",
        telemetry.embed_cache.items as f64,
    );
    report.put_layer("core.cache_bytes", "B", telemetry.embed_cache.bytes as f64);
    report.put_layer(
        "core.recomputed_share",
        "ratio",
        ratio(e.recomputed as f64, presented),
    );
    report.put_layer(
        "core.timecache_hit_ratio",
        "ratio",
        ratio(
            telemetry.time_cache.hits as f64,
            telemetry.time_cache.lookups as f64,
        ),
    );
    report.put_layer(
        "core.stage_coverage",
        "ratio",
        ratio(staged_ns as f64, all_wave_ns as f64),
    );

    let submit_ns: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.outcome.submit_ns.iter().copied())
        .collect();
    report.put_layer("serve.submit_ns_p50", "ns", p50_us(&submit_ns) * 1e3);
    for spec in kind.phases() {
        let tag = spec.tag;
        let sum = |f: &dyn Fn(&PhaseRun) -> u64| tagged(&runs, tag).map(f).sum::<u64>() as f64;
        let batched = sum(&|r| r.after.batched_requests - r.before.batched_requests);
        let unique = sum(&|r| r.after.unique_rows - r.before.unique_rows);
        let (wave_ns, waves) = (sum(&|r| r.wave_ns), sum(&|r| r.waves));
        report.put_layer(
            &format!("serve.wave_rows_mean_{tag}"),
            "rows",
            ratio(batched, sum(&|r| r.after.batches - r.before.batches)),
        );
        report.put_layer(
            &format!("serve.cross_dedup_ratio_{tag}"),
            "ratio",
            1.0 - ratio(unique, batched).min(1.0),
        );
        report.put_layer(
            &format!("serve.worker_busy_share_{tag}"),
            "ratio",
            ratio(wave_ns, sum(&|r| r.outcome.wall_ns) * workers),
        );
        if spec.rate.is_some() {
            let lat: Vec<u64> = tagged(&runs, tag)
                .flat_map(|r| r.outcome.query_lat_ns.iter().copied())
                .collect();
            let late: Vec<u64> = tagged(&runs, tag)
                .flat_map(|r| r.outcome.late_ns.iter().copied())
                .collect();
            // The wave histogram is log2-bucketed (its p50 is only known to
            // a factor of two), so the mean wave time is subtracted.
            report.put_layer(
                &format!("serve.wait_outside_wave_us_p50_{tag}"),
                "us",
                p50_us(&lat) - ratio(wave_ns / 1e3, waves),
            );
            if tag == "hi" {
                report.put_layer("serve.op_p50_us_hi", "us", p50_us(&lat));
            }
            report.put_layer(
                &format!("serve.op_p99_us_{tag}"),
                "us",
                quantile_ns_as_us(&lat, 0.99),
            );
            report.put_layer(
                &format!("serve.op_p999_us_{tag}"),
                "us",
                quantile_ns_as_us(&lat, 0.999),
            );
            report.put_layer(
                &format!("serve.gen_late_p99_us_{tag}"),
                "us",
                quantile_ns_as_us(&late, 0.99),
            );
        } else if kind == Kind::Mixed {
            let writes: Vec<u64> = tagged(&runs, tag)
                .flat_map(|r| r.outcome.write_lat_ns.iter().copied())
                .collect();
            report.put_layer("serve.write_us_p50_saturated", "us", p50_us(&writes));
        }
    }
    report.put_layer(
        "serve.coalesce_targets_per_s",
        "1/s",
        extra.coalesce.per_s(),
    );
    report.put_layer("serve.queue_ops_per_s", "1/s", extra.queue.per_s());
    report.put_layer(
        "serve.rejected_overload",
        "count",
        stats.rejected_overload as f64,
    );
    if kind == Kind::Mixed {
        let examined = (stats.entries_invalidated + stats.entries_retained) as f64;
        report.put_layer(
            "serve.sweep_examined_per_write",
            "count",
            ratio(examined, stats.edges_ingested as f64),
        );
        report.put_layer(
            "serve.sweep_retained_ratio",
            "ratio",
            ratio(stats.entries_retained as f64, examined),
        );
        report.put_layer(
            "serve.layer2_retained",
            "count",
            stats.layer_retained.get(1).copied().unwrap_or(0) as f64,
        );
    }
    report.put_layer(
        "trace.overhead_share",
        "ratio",
        summarize(&mut overheads).median,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_query_is_offered_again_and_never_fails() {
        // A four-slot admission queue and a schedule on which everything is
        // due at once: the generator must be refused, and must lose nothing.
        let sizing = Sizing {
            scale: 0.02,
            ..Sizing::smoke()
        };
        let cfg = ServeConfig::default()
            .with_queue_capacity(4)
            .with_max_batch(4);
        let mut served = start(Kind::Open, 3, 0, sizing, cfg, &mut Tracer::off()).unwrap();
        let n = 2_000;
        let ops = served.next_ops(n);
        let due_ns = vec![0u64; n];
        let out = drive(
            &served.server,
            &ops,
            &Pacing::Open { due_ns: &due_ns },
            &|_| false,
            0,
            &mut Tracer::off(),
        )
        .unwrap();
        served.server.shutdown();
        assert!(out.refusals > 0, "a 4-slot queue refused nothing");
        assert_eq!((out.attempted, out.failed), (n as u64, 0));
        assert_eq!(out.queries_done(), n as u64);
        assert_eq!(out.late_ns.len(), n);
        // A refused query misses the limit however fast its answer is.
        assert!(out.within_limit < n as u64);
    }
}
