//! Serving-layer benchmark: throughput and latency percentiles of the
//! micro-batching `tg-serve` front end versus direct `embed_batch` calls
//! on the same workload, the cross-request dedup ratio, and — with
//! `--shards` — the scaling curve of the sharded [`ShardRouter`] from one
//! shard up.
//!
//! ```sh
//! cargo run --release -p tg-bench --bin serve -- -d snap-msg --clients 4 --requests 2000
//! cargo run --release -p tg-bench --bin serve -- -d synth-shard --scale 0.25 \
//!     --shards 4 --scaling --json BENCH_serve.json
//! cargo run --release -p tg-bench --bin serve -- --shards 4 --verify
//! ```
//!
//! `--verify` runs the deterministic sharded router against a direct
//! engine on the same query stream and fails (exit 1) on any row deviating
//! by ≥1e-5 — the CI smoke proof that sharding preserves semantics.
//! `--json` writes the scaling curve in the committed `BENCH_serve.json`
//! format (regeneration protocol in EXPERIMENTS.md).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;
use tg_bench::harness::percentile;
use tg_graph::{NodeId, ShardAssignment, TemporalGraph, Time};
use tg_serve::{ModelBundle, ServeConfig, ShardRouter};
use tg_tensor::Tensor;
use tgat::{TgatConfig, TgatParams};
use tgopt::{OptConfig, TgoptEngine};

/// Recorded with every report so numbers stay attributed to the allocator
/// that produced them.
const ALLOCATOR: &str = "system";

struct Opts {
    dataset: String,
    scale: f64,
    seed: u64,
    dim: usize,
    clients: usize,
    requests_per_client: usize,
    max_batch: usize,
    workers: usize,
    hot: usize,
    hot_prob: f64,
    budget_bytes: Option<usize>,
    stats_json: Option<String>,
    shards: usize,
    strategy: String,
    scaling: bool,
    verify: bool,
    json: Option<String>,
    pin_cores: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            dataset: "snap-msg".to_string(),
            scale: 0.02,
            seed: 7,
            dim: 32,
            clients: 4,
            requests_per_client: 1500,
            max_batch: 64,
            workers: 2,
            hot: 16,
            hot_prob: 0.6,
            budget_bytes: None,
            stats_json: None,
            shards: 1,
            strategy: "hash".to_string(),
            scaling: false,
            verify: false,
            json: None,
            pin_cores: false,
        }
    }
}

const USAGE: &str = "\
Usage: serve [-d NAME] [--scale F] [--seed N] [--dim N] [--clients N]
             [--requests N] [--batch N] [--workers N] [--hot N] [--hot-prob F]
             [--budget-bytes N] [--stats-json PATH]
             [--shards N] [--strategy hash|degree] [--scaling] [--verify]
             [--json PATH] [--pin-cores]

Benchmarks the tg-serve layer against direct embed_batch calls on one
generated dataset, reporting throughput, latency percentiles (p50/p95/p99),
and the cross-request dedup ratio. With --shards N the served path runs
through the node-partitioned ShardRouter; --scaling sweeps 1,2,4,...,N
shards and prints the scaling curve; --json writes that curve in the
committed BENCH_serve.json format. --verify replays the stream through a
deterministic sharded router and fails unless every row matches a direct
engine within 1e-5. --strategy degree uses the degree-balanced node
assignment instead of hashing. --workers is per shard. --pin-cores pins
worker threads (shard-major) to cores, best effort.";

fn parse() -> Opts {
    let mut o = Opts::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "-d" | "--dataset" => o.dataset = take("-d"),
            "--scale" => o.scale = num(&take("--scale")),
            "--seed" => o.seed = num::<f64>(&take("--seed")) as u64,
            "--dim" => o.dim = num::<f64>(&take("--dim")) as usize,
            "--clients" => o.clients = num::<f64>(&take("--clients")) as usize,
            "--requests" => o.requests_per_client = num::<f64>(&take("--requests")) as usize,
            "--batch" => o.max_batch = num::<f64>(&take("--batch")) as usize,
            "--workers" => o.workers = num::<f64>(&take("--workers")) as usize,
            "--hot" => o.hot = num::<f64>(&take("--hot")) as usize,
            "--hot-prob" => o.hot_prob = num(&take("--hot-prob")),
            "--budget-bytes" => o.budget_bytes = Some(num::<f64>(&take("--budget-bytes")) as usize),
            "--stats-json" => o.stats_json = Some(take("--stats-json")),
            "--shards" => o.shards = (num::<f64>(&take("--shards")) as usize).max(1),
            "--strategy" => o.strategy = take("--strategy"),
            "--scaling" => o.scaling = true,
            "--verify" => o.verify = true,
            "--json" => o.json = Some(take("--json")),
            "--pin-cores" => o.pin_cores = true,
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if o.strategy != "hash" && o.strategy != "degree" {
        eprintln!("error: --strategy must be hash or degree, got {:?}", o.strategy);
        std::process::exit(2);
    }
    o
}

fn num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid numeric value {s:?}");
        std::process::exit(2);
    })
}

/// Per-client query stream: mostly-hot targets (mimicking production skew,
/// which is what cross-request dedup exploits) plus a random tail.
fn query_stream(
    seed: u64,
    n: usize,
    hot_prob: f64,
    hot: &[(NodeId, Time)],
    all: &[(NodeId, Time)],
) -> Vec<(NodeId, Time)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(hot_prob.clamp(0.0, 1.0)) && !hot.is_empty() {
                hot[rng.gen_range(0..hot.len())]
            } else {
                all[rng.gen_range(0..all.len())]
            }
        })
        .collect()
}

/// Prints `what: err` and exits. Bench binaries fail loudly with a clean
/// message instead of unwinding a panic through worker threads.
fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {err}");
    std::process::exit(1);
}

fn assignment_for(o: &Opts, graph: &TemporalGraph, n_shards: usize) -> ShardAssignment {
    if o.strategy == "degree" {
        ShardAssignment::degree_balanced(graph, n_shards)
    } else {
        ShardAssignment::hash(n_shards)
    }
}

fn serve_config(o: &Opts, total_requests: usize) -> ServeConfig {
    let mut cfg = ServeConfig::default()
        .with_max_batch(o.max_batch)
        .with_queue_capacity(total_requests.max(1024))
        .with_workers(o.workers)
        .with_pin_cores(o.pin_cores)
        .with_stage_spans(o.stats_json.is_some());
    if let Some(b) = o.budget_bytes {
        cfg = cfg.with_memory_budget(b);
    }
    cfg
}

/// One measured pass through a threaded `ShardRouter` with `n_shards`
/// shards. Returns the scaling-curve row plus the final stats/telemetry.
fn run_sharded(
    o: &Opts,
    bundle: &Arc<ModelBundle>,
    streams: &[Vec<(NodeId, Time)>],
    n_shards: usize,
) -> (ScalingRow, tg_serve::ServeStats, tg_telemetry::TelemetrySnapshot) {
    let total_requests: usize = streams.iter().map(Vec::len).sum();
    let assignment = assignment_for(o, &bundle.graph, n_shards);
    let router = ShardRouter::threaded(Arc::clone(bundle), serve_config(o, total_requests), assignment)
        .unwrap_or_else(|e| fail("router start", e));

    let start = Instant::now();
    let mut latencies_us: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let router = &router;
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(stream.len());
                    for &(n, t) in stream {
                        let submitted = Instant::now();
                        match router.submit(n, t) {
                            Ok(ticket) => {
                                let _ = ticket.wait().unwrap_or_else(|e| fail("serve embed", e));
                                lat.push(submitted.elapsed().as_secs_f64() * 1e6);
                            }
                            Err(e) => fail("submission", e),
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|_| fail("client thread", "panicked")))
            .collect()
    });
    let seconds = start.elapsed().as_secs_f64();

    // Ownership balance: the busiest shard's share of all submissions
    // (1/S is perfect, 1.0 is a single hot shard).
    let per_shard = router.shard_stats();
    let submitted_total: u64 = per_shard.iter().map(|s| s.submitted).sum();
    let max_shard_share = per_shard
        .iter()
        .map(|s| s.submitted as f64 / submitted_total.max(1) as f64)
        .fold(0.0, f64::max);

    let (stats, telemetry) = router.shutdown_with_telemetry();
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let row = ScalingRow {
        shards: n_shards as u64,
        req_per_s: total_requests as f64 / seconds,
        speedup: 0.0, // filled by the caller against the first row
        p50_us: percentile(&latencies_us, 50.0),
        p95_us: percentile(&latencies_us, 95.0),
        p99_us: percentile(&latencies_us, 99.0),
        frontier_remote_ratio: stats.remote_frontier_ratio(),
        max_shard_share,
    };
    (row, stats, telemetry)
}

/// `--verify`: the deterministic sharded router must serve every query
/// identically (≤ 1e-5) to one direct engine over the same stream.
fn run_verify(o: &Opts, bundle: &Arc<ModelBundle>, streams: &[Vec<(NodeId, Time)>]) {
    let queries: Vec<(NodeId, Time)> = streams.iter().flatten().copied().collect();
    let cfg = ServeConfig::default()
        .with_max_batch(o.max_batch)
        .with_queue_capacity(queries.len() + 1);
    let assignment = assignment_for(o, &bundle.graph, o.shards);
    let router = ShardRouter::deterministic(Arc::clone(bundle), cfg, assignment)
        .unwrap_or_else(|e| fail("router start", e));

    let mut tickets = Vec::with_capacity(queries.len());
    for (i, &(n, t)) in queries.iter().enumerate() {
        tickets.push(router.submit(n, t).unwrap_or_else(|e| fail("submission", e)));
        // Drain at a stride co-prime with common batch sizes so waves cut
        // across shard queues at varying fill levels.
        if i % 97 == 96 {
            router.drain().unwrap_or_else(|e| fail("drain", e));
        }
    }
    router.drain().unwrap_or_else(|e| fail("drain", e));

    let ns: Vec<NodeId> = queries.iter().map(|&(n, _)| n).collect();
    let ts: Vec<Time> = queries.iter().map(|&(_, t)| t).collect();
    let mut eng = TgoptEngine::new(&bundle.params, bundle.context(), OptConfig::all());
    let expected = eng.embed_batch(&ns, &ts).unwrap_or_else(|e| fail("direct embed", e));

    let mut max_diff = 0.0f32;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let got = ticket.wait().unwrap_or_else(|e| fail("serve embed", e));
        let diff = got
            .iter()
            .zip(expected.row(i))
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        max_diff = max_diff.max(diff);
        if diff >= 1e-5 {
            eprintln!(
                "verify: FAIL at row {i} (node {}, t {}): sharded row deviates by {diff}",
                ns[i], ts[i]
            );
            std::process::exit(1);
        }
    }
    let stats = router.shutdown();
    if stats.completed != queries.len() as u64 {
        eprintln!(
            "verify: FAIL: {} completed of {} submitted",
            stats.completed,
            queries.len()
        );
        std::process::exit(1);
    }
    println!(
        "verify: PASS — {} queries over {} shards ({}) match a direct engine; max |Δ| = {max_diff:.2e}",
        queries.len(),
        o.shards,
        o.strategy,
    );
}

#[derive(Serialize)]
struct ScalingRow {
    shards: u64,
    req_per_s: f64,
    speedup: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    frontier_remote_ratio: f64,
    max_shard_share: f64,
}

#[derive(Serialize)]
struct ScalingReport {
    bench: String,
    schema_version: u64,
    dataset: String,
    scale: f64,
    nodes: u64,
    edges: u64,
    host_cpus: u64,
    allocator: String,
    pin_cores: bool,
    strategy: String,
    clients: u64,
    workers_per_shard: u64,
    requests: u64,
    direct_req_per_s: f64,
    note: String,
    rows: Vec<ScalingRow>,
}

fn main() {
    let o = parse();
    let spec = tg_datasets::spec_by_name(&o.dataset).unwrap_or_else(|| {
        eprintln!("error: unknown dataset {:?}", o.dataset);
        std::process::exit(2);
    });
    let data = tg_datasets::generate(&spec, o.scale, o.seed).unwrap_or_else(|e| fail("dataset generation", e));
    let cfg = TgatConfig {
        dim: o.dim,
        edge_dim: data.dim(),
        time_dim: o.dim,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 10,
    };
    let params = TgatParams::init(cfg, o.seed).unwrap_or_else(|e| fail("param init", e));
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let t_query = data.stream.max_time() * 1.01;

    // Candidate targets: sources of the stream, queried just past the end.
    let all: Vec<(NodeId, Time)> =
        data.stream.edges().iter().map(|e| (e.src, t_query)).collect();
    let hot: Vec<(NodeId, Time)> = all.iter().take(o.hot.max(1)).copied().collect();

    let bundle = Arc::new(
        ModelBundle::new(params, graph, node_features, data.edge_features.clone())
            .unwrap_or_else(|e| fail("model bundle", e)),
    );

    let streams: Vec<Vec<(NodeId, Time)>> = (0..o.clients)
        .map(|c| query_stream(o.seed + c as u64 + 1, o.requests_per_client, o.hot_prob, &hot, &all))
        .collect();
    let total_requests = o.clients * o.requests_per_client;

    println!(
        "dataset {} (scale {}): {} nodes, {} edges; {} clients x {} requests, \
         batch {} workers {} shards {} ({}); allocator {}{}",
        o.dataset,
        o.scale,
        data.stream.num_nodes(),
        data.stream.len(),
        o.clients,
        o.requests_per_client,
        o.max_batch,
        o.workers,
        o.shards,
        o.strategy,
        ALLOCATOR,
        if o.pin_cores { ", pinned cores" } else { "" }
    );

    if o.verify {
        run_verify(&o, &bundle, &streams);
        return;
    }

    // ---- Direct path: one engine, caller-formed batches of max_batch. ----
    let direct_seconds = {
        let mut eng = TgoptEngine::new(&bundle.params, bundle.context(), OptConfig::all());
        let start = Instant::now();
        for stream in &streams {
            for chunk in stream.chunks(o.max_batch.max(1)) {
                let ns: Vec<NodeId> = chunk.iter().map(|&(n, _)| n).collect();
                let ts: Vec<Time> = chunk.iter().map(|&(_, t)| t).collect();
                let _ = eng.embed_batch(&ns, &ts).unwrap_or_else(|e| fail("direct embed", e));
            }
        }
        start.elapsed().as_secs_f64()
    };
    let direct_req_per_s = total_requests as f64 / direct_seconds;
    println!(
        "direct    : {:>9.1} req/s  ({} requests in {:.3}s, sequential)",
        direct_req_per_s, total_requests, direct_seconds
    );

    // ---- Served path: 1,2,4,...,S shards (or just S without --scaling). ----
    let shard_counts: Vec<usize> = if o.scaling {
        let mut v = Vec::new();
        let mut s = 1;
        while s < o.shards {
            v.push(s);
            s *= 2;
        }
        v.push(o.shards);
        v
    } else {
        vec![o.shards]
    };

    let mut rows: Vec<ScalingRow> = Vec::new();
    let mut last: Option<(tg_serve::ServeStats, tg_telemetry::TelemetrySnapshot)> = None;
    for &s in &shard_counts {
        let (mut row, stats, telemetry) = run_sharded(&o, &bundle, &streams, s);
        row.speedup = row.req_per_s / rows.first().map_or(row.req_per_s, |r: &ScalingRow| r.req_per_s);
        println!(
            "shards {:>2} : {:>9.1} req/s  speedup {:>5.2}x  p50 {:>8.1}us  p95 {:>8.1}us  \
             p99 {:>8.1}us  remote-frontier {:>5.1}%  max-shard-share {:.2}",
            row.shards,
            row.req_per_s,
            row.speedup,
            row.p50_us,
            row.p95_us,
            row.p99_us,
            100.0 * row.frontier_remote_ratio,
            row.max_shard_share
        );
        rows.push(row);
        last = Some((stats, telemetry));
    }

    if let Some((stats, telemetry)) = last {
        println!(
            "batching  : {} batches, mean size {:.1}, cross-request dedup ratio {:.1}%",
            stats.batches,
            stats.mean_batch_size(),
            100.0 * stats.cross_dedup_ratio()
        );
        println!(
            "admission : {} submitted, {} overloaded, {} deadline-expired, {} degraded batches",
            stats.submitted, stats.rejected_overload, stats.rejected_deadline, stats.degraded_batches
        );
        if let Some(path) = &o.stats_json {
            let text = serde_json::to_string(&telemetry).unwrap_or_else(|e| fail("telemetry snapshot serialization", e));
            if let Err(e) = std::fs::write(path, tg_bench::table::pretty_json(&text) + "\n") {
                eprintln!("error: failed to write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
    }

    if let Some(path) = &o.json {
        let report = ScalingReport {
            bench: "serve-scaling".to_string(),
            schema_version: 1,
            dataset: o.dataset.clone(),
            scale: o.scale,
            nodes: data.stream.num_nodes() as u64,
            edges: data.stream.len() as u64,
            host_cpus: std::thread::available_parallelism().map_or(1, usize::from) as u64,
            allocator: ALLOCATOR.to_string(),
            pin_cores: o.pin_cores,
            strategy: o.strategy.clone(),
            clients: o.clients as u64,
            workers_per_shard: o.workers as u64,
            requests: total_requests as u64,
            direct_req_per_s,
            note: "shards beyond host_cpus cannot scale; see EXPERIMENTS.md for the \
                   multi-core regeneration protocol"
                .to_string(),
            rows,
        };
        let text = serde_json::to_string(&report).unwrap_or_else(|e| fail("report serialization", e));
        if let Err(e) = std::fs::write(path, tg_bench::table::pretty_json(&text) + "\n") {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
