//! The two replay workloads: the paper's §5.1 inference task, with every
//! optimization on (`replay-opt`) and with none (`replay-noopt`).
//!
//! Both feed chronological batches of 200 edges (400 targets) to
//! `TgoptEngine::embed_batch` over the frozen full graph, from a cold
//! engine, one batch at a time (a closed loop with one client).

use crate::hostprobe::{slowdown, HostProbe, QUIET_BESIDE_ENGINE_NS};
use crate::probe::{put_probe_layers, History, Probe};
use crate::report::WorkloadReport;
use crate::stats::{per_second, ratio, summarize, summarize_ns_as_us, Summary};
use crate::trace::{elapsed_ns, Tracer};
use crate::world::{build_graph, build_world, peak_rss_mb, Sizing, World, BATCH_EDGES};
use crate::Res;
use std::time::Instant;
use tg_graph::{BatchIter, NodeId, TemporalGraph, Time};
use tg_tensor::Tensor;
use tgat::engine::GraphContext;
use tgopt::{OptConfig, TgoptEngine};

/// Batches in the stream at scale 1.0.
const STREAM_BATCHES: usize = 788;
/// Batch executions of the full-length `replay-opt`: two cold passes over
/// the whole stream, shared out over the run's rounds. (The issue's three
/// take 52 s, not 36, on the spawned thread the workload runs on, and this
/// workload's run-to-run spread is the smallest of the four as it is.)
const OPT_BATCH_RUNS: usize = 2 * STREAM_BATCHES;
/// Batch executions of the full-length `replay-noopt`: three passes over
/// the end of the stream, where every node has history and the sampler
/// fills all `k` slots.
const NOOPT_BATCH_RUNS: usize = 3 * 120;
/// `replay-opt`'s cache limit for a pass over the whole stream: a third of
/// the ~353k unique entries it produces, so FIFO eviction stays live (the
/// 2M default is never reached at this size). A shorter pass gets a
/// proportionally smaller limit.
const OPT_CACHE_LIMIT: usize = 100_000;
/// Batch executions of the Figure-5 ratio (`core.noopt_over_opt`) at full
/// length.
const RATIO_BATCHES: usize = 40;
/// A batch in this many is verified against the oracle and probed.
const SAMPLE_EVERY: usize = 16;
/// Largest accepted deviation between two engines' rows (§5.1.3).
pub const TOLERANCE: f64 = 1e-5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Opt,
    NoOpt,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Opt => "replay-opt",
            Kind::NoOpt => "replay-noopt",
        }
    }
}

fn batches_per_round(kind: Kind, sizing: Sizing) -> usize {
    match kind {
        Kind::Opt => sizing.count_per_round(OPT_BATCH_RUNS),
        Kind::NoOpt => sizing.count_per_round(NOOPT_BATCH_RUNS),
    }
}

/// `replay-opt`'s engine settings: everything on, the cache limit scaled
/// to the length of one pass so that a shorter replay still evicts.
pub fn opt_config(sizing: Sizing) -> OptConfig {
    let batches = batches_per_round(Kind::Opt, sizing).min(STREAM_BATCHES);
    OptConfig::all().with_cache_limit((OPT_CACHE_LIMIT * batches / STREAM_BATCHES).max(1))
}

type Targets = (Vec<NodeId>, Vec<Time>);

struct Plan {
    batches: Vec<Targets>,
    opt: OptConfig,
    /// The engine whose rows the workload's are checked against.
    oracle: OptConfig,
}

fn final_batches(world: &World, n: usize) -> Vec<Targets> {
    let total = world.num_batches();
    BatchIter::new(world.stream(), BATCH_EDGES)
        .skip(total - n.min(total))
        .map(|b| b.targets())
        .collect()
}

fn plan(kind: Kind, world: &World, sizing: Sizing) -> Plan {
    let batches = final_batches(world, batches_per_round(kind, sizing));
    match kind {
        Kind::Opt => Plan {
            batches,
            opt: opt_config(sizing),
            oracle: OptConfig::none(),
        },
        Kind::NoOpt => Plan {
            batches,
            opt: OptConfig::none(),
            oracle: OptConfig::all(),
        },
    }
}

fn context<'a>(world: &'a World, graph: &'a TemporalGraph) -> GraphContext<'a> {
    GraphContext {
        graph,
        node_features: &world.node_features,
        edge_features: &world.data.edge_features,
    }
}

/// Order-sensitive checksum of a tensor's bit patterns (FNV-1a over words).
fn fold_checksum(acc: u64, h: &Tensor) -> u64 {
    h.as_slice().iter().fold(acc, |a, v| {
        (a ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Batch time after which the host-speed probe runs again: often enough
/// to follow the host, rarely enough to add under a tenth to the run.
const HOST_PROBE_EVERY_NS: u64 = 15 * QUIET_BESIDE_ENGINE_NS;

/// What runs beside the timed batches of a pass, outside their timing.
#[derive(Default)]
struct Beside<'a, 'p> {
    /// Layer-1 probe steps on sampled batches (traced pass).
    layers: Option<(&'a mut Probe<'p>, &'a TemporalGraph)>,
    /// Host-speed probes over the edge-feature table (untraced pass).
    host: Option<(&'a mut HostProbe, &'a Tensor)>,
}

#[derive(Default)]
struct RepOutcome {
    lat_ns: Vec<u64>,
    /// Host-speed probe times taken between the batches.
    host_ns: Vec<u64>,
    rows: u64,
    failed: u64,
    checksum: u64,
    /// `(batch index, rows)` of every [`SAMPLE_EVERY`]-th batch.
    kept: Vec<(usize, Tensor)>,
}

impl RepOutcome {
    fn rows_per_s(&self) -> f64 {
        per_second(self.rows as f64, self.lat_ns.iter().sum())
    }
}

/// One pass over `batches`, whose first element is batch `first` of the
/// plan. With a probe, every sampled batch is preceded by one outside-in
/// layer-1 step on its targets (not timed as part of the batch).
fn run_rep(
    engine: &mut TgoptEngine<'_>,
    batches: &[Targets],
    first: usize,
    keep: bool,
    mut beside: Beside<'_, '_>,
    tracer: &mut Tracer,
) -> Res<RepOutcome> {
    let mut out = RepOutcome {
        checksum: 0xcbf2_9ce4_8422_2325,
        ..RepOutcome::default()
    };
    let mut since_host_probe = HOST_PROBE_EVERY_NS;
    for (i, (ns, ts)) in (first..).zip(batches) {
        let sampled = i % SAMPLE_EVERY == 0;
        if let (true, Some((probe, graph))) = (sampled, beside.layers.as_mut()) {
            let cache = engine.cache().layer(1);
            probe.layer1_step(&History::Frozen(*graph), cache, ns, ts, i as u64, tracer)?;
        }
        if let (true, Some((host, table))) = (
            since_host_probe >= HOST_PROBE_EVERY_NS,
            beside.host.as_mut(),
        ) {
            out.host_ns
                .push(host.time_ns(table.as_slice(), table.cols()));
            since_host_probe = 0;
        }
        let start = Instant::now();
        let result = tracer.in_span("embed_batch", i as u64, |_| engine.embed_batch(ns, ts));
        let took = elapsed_ns(start);
        out.lat_ns.push(took);
        since_host_probe += took;
        match result {
            Ok(h) if h.rows() == ns.len() => {
                out.rows += h.rows() as u64;
                out.checksum = fold_checksum(out.checksum, &h);
                if keep && sampled {
                    out.kept.push((i, h));
                }
            }
            _ => out.failed += 1,
        }
    }
    Ok(out)
}

/// Largest absolute difference between the kept rows and `oracle`'s rows for
/// the same batches, and how many rows were compared.
fn check_against(
    world: &World,
    graph: &TemporalGraph,
    batches: &[Targets],
    kept: &[(usize, Tensor)],
    oracle: OptConfig,
) -> Res<(u64, f64)> {
    let mut engine = TgoptEngine::new(&world.params, context(world, graph), oracle);
    let (mut rows, mut worst) = (0u64, 0.0f64);
    for (i, h) in kept {
        let (ns, ts) = &batches[*i];
        let expected = engine
            .embed_batch(ns, ts)
            .map_err(|e| format!("oracle batch {i}: {e}"))?;
        worst = worst.max(f64::from(h.max_abs_diff(&expected)));
        rows += h.rows() as u64;
    }
    Ok((rows, worst))
}

/// The whole set-up of a replay workload: dataset, weights, graph.
fn set_up(seed: u64, sizing: Sizing, tracer: &mut Tracer) -> Res<(World, TemporalGraph)> {
    let world = build_world(seed, sizing.scale, tracer)?;
    let graph = build_graph(world.stream(), tracer);
    Ok((world, graph))
}

fn oracle_name(opt: OptConfig) -> &'static str {
    if opt.enable_cache {
        "OptConfig::all()"
    } else {
        "OptConfig::none()"
    }
}

/// The untraced pass: end-to-end metrics and the correctness checks. Every
/// round sets the world up afresh and replays the plan once from a cold
/// engine, with the host-speed probe running between batches; the round's
/// throughput and batch latencies are corrected by its slowdown factor.
/// The last round's sampled batches are checked against the oracle engine,
/// and every round must reproduce the first round's checksum.
pub fn run(kind: Kind, seed: u64, sizing: Sizing, started: Instant) -> Res<WorkloadReport> {
    let mut report = WorkloadReport::new(kind.name());
    let tracer = &mut Tracer::off();
    let mut host = HostProbe::new();
    let (mut setups, mut rates, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_rates, mut raw_p50s, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut checksums) = (0u64, 0u64, Vec::new());
    let mut from = started;
    for round in 0..sizing.rounds.max(1) {
        let (world, graph) = set_up(seed, sizing, tracer)?;
        let plan = plan(kind, &world, sizing);
        // Engine construction precomputes the time window: set-up too.
        let mut engine = TgoptEngine::new(&world.params, context(&world, &graph), plan.opt);
        setups.push(from.elapsed().as_secs_f64());

        let beside = Beside {
            layers: None,
            host: Some((&mut host, &world.data.edge_features)),
        };
        let rep = run_rep(&mut engine, &plan.batches, 0, true, beside, tracer)?;
        let factor = slowdown(&rep.host_ns, QUIET_BESIDE_ENGINE_NS);
        let p50 = summarize_ns_as_us(&rep.lat_ns).median;
        rates.push(rep.rows_per_s() * factor);
        p50s.push(p50 / factor);
        raw_rates.push(rep.rows_per_s());
        raw_p50s.push(p50);
        factors.push(factor);
        attempted += rep.lat_ns.len() as u64;
        failed += rep.failed;
        checksums.push(rep.checksum);

        if round + 1 == sizing.rounds.max(1) || sizing.out_of_time(started) {
            // Memory is read before the oracle engine allocates its own.
            report.put_e2e("peak_rss_mb", "MB", Summary::single(peak_rss_mb()));
            let (rows, worst) =
                check_against(&world, &graph, &plan.batches, &rep.kept, plan.oracle)?;
            report.put_check(
                &format!("sampled batches vs {} engine", oracle_name(plan.oracle)),
                rows,
                worst,
                TOLERANCE,
            );
            break;
        }
        from = Instant::now();
    }

    report.put_e2e("setup_s", "s", summarize(&mut setups));
    report.put_e2e("rows_per_s", "rows/s", summarize(&mut rates));
    report.put_e2e("op_p50_us", "us", summarize(&mut p50s));
    report.put_note("host.slowdown", "ratio", summarize(&mut factors).median);
    report.put_note("raw.rows_per_s", "rows/s", summarize(&mut raw_rates).median);
    report.put_note("raw.op_p50_us", "us", summarize(&mut raw_p50s).median);
    report.put_phase("replay", attempted, failed);
    let same = checksums.iter().all(|c| *c == checksums[0]);
    report.put_check(
        "checksums identical across rounds",
        checksums.len() as u64,
        if same { 0.0 } else { 1.0 },
        0.0,
    );
    Ok(report)
}

/// The traced pass, at half length: two cold engines step through the same
/// batches side by side, one bare and one with stage timing on and a span
/// around every call, so tracing overhead is a paired difference; every
/// sampled batch is preceded by a layer-1 probe step. Returns the
/// per-layer metrics.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    sizing: Sizing,
    tracer: &mut Tracer,
) -> Res<WorkloadReport> {
    let mut report = WorkloadReport::new(kind.name());
    // Two engines share the traced pass's half length.
    let half = sizing.traced();
    let sizing = Sizing {
        seconds: half.seconds / 2.0,
        ..half
    };
    let (world, graph) = set_up(seed, sizing, tracer)?;
    let plan = plan(kind, &world, sizing);
    let edges = world.stream().len() as f64;

    let mut probe = Probe::new(
        &world.params,
        &world.node_features,
        &world.data.edge_features,
        plan.opt,
        false,
    );
    let mut bare = TgoptEngine::new(&world.params, context(&world, &graph), plan.opt);
    let mut engine = TgoptEngine::new(&world.params, context(&world, &graph), plan.opt);
    engine.enable_stats();
    let (mut bare_ns, mut traced) = (0u64, RepOutcome::default());
    for (i, batch) in plan.batches.iter().enumerate() {
        let one = std::slice::from_ref(batch);
        bare_ns += run_rep(
            &mut bare,
            one,
            i,
            false,
            Beside::default(),
            &mut Tracer::off(),
        )?
        .lat_ns
        .iter()
        .sum::<u64>();
        let beside = Beside {
            layers: Some((&mut probe, &graph)),
            host: None,
        };
        let step = run_rep(&mut engine, one, i, true, beside, tracer)?;
        traced.rows += step.rows;
        traced.failed += step.failed;
        traced.lat_ns.extend(step.lat_ns);
        traced.kept.extend(step.kept);
    }
    report.put_phase("replay", traced.lat_ns.len() as u64, traced.failed);
    let (rows, worst) = check_against(&world, &graph, &plan.batches, &traced.kept, plan.oracle)?;
    report.put_check(
        "traced sampled batches vs oracle engine",
        rows,
        worst,
        TOLERANCE,
    );

    let (generate_ns, _) = tracer.span_total_ns("generate");
    let (build_ns, _) = tracer.span_total_ns("from_stream");
    let (embed_ns, _) = tracer.span_total_ns("embed_batch");
    report.put_layer(
        "datasets.generate_edges_per_s",
        "1/s",
        per_second(edges, generate_ns),
    );
    report.put_layer(
        "tgraph.build_edges_per_s",
        "1/s",
        per_second(edges, build_ns),
    );
    put_probe_layers(&mut report, &probe.totals);

    let c = engine.counters();
    let presented = (c.dedup_removed + c.recomputed + c.cache_hits) as f64;
    let (tc_hits, tc_misses) = engine.time_cache_stats();
    let cache = engine.cache();
    report.put_layer(
        "core.embed_batch_us_per_row",
        "us",
        ratio(embed_ns as f64 / 1e3, traced.rows as f64),
    );
    report.put_layer("core.cache_hit_ratio", "ratio", c.hit_rate());
    report.put_layer(
        "core.cache_evictions",
        "count",
        cache.total_evictions() as f64,
    );
    report.put_layer("core.cache_items", "count", cache.len() as f64);
    report.put_layer("core.cache_bytes", "B", cache.bytes_used() as f64);
    report.put_layer(
        "core.recomputed_share",
        "ratio",
        ratio(c.recomputed as f64, presented),
    );
    report.put_layer(
        "core.timecache_hit_ratio",
        "ratio",
        ratio(tc_hits as f64, (tc_hits + tc_misses) as f64),
    );
    let staged_ns = u64::try_from(engine.stats().grand_total().as_nanos()).unwrap_or(u64::MAX);
    report.put_layer(
        "core.stage_coverage",
        "ratio",
        ratio(staged_ns as f64, embed_ns as f64),
    );
    // Same rows on both sides, so the throughput ratio is a time ratio.
    report.put_layer(
        "trace.overhead_share",
        "ratio",
        1.0 - ratio(bare_ns as f64, embed_ns as f64),
    );

    if kind == Kind::Opt {
        // Figure 5: the same final batches through a cold engine of each kind.
        let batches = final_batches(&world, sizing.count(RATIO_BATCHES));
        let time_of = |opt: OptConfig| -> Res<f64> {
            let mut engine = TgoptEngine::new(&world.params, context(&world, &graph), opt);
            let rep = run_rep(
                &mut engine,
                &batches,
                0,
                false,
                Beside::default(),
                &mut Tracer::off(),
            )?;
            Ok(rep.lat_ns.iter().sum::<u64>() as f64)
        };
        let (none_ns, all_ns) = (time_of(OptConfig::none())?, time_of(OptConfig::all())?);
        report.put_layer("core.noopt_over_opt", "ratio", ratio(none_ns, all_ns));
    }
    Ok(report)
}
