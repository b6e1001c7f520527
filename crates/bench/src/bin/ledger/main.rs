//! The perf ledger: one command, four workloads, six end-to-end metrics,
//! and outside-in probes of every layer under them.
//!
//! ```sh
//! # Everything: four workloads in child processes, then the traced pass.
//! cargo run --release -p tg-bench --bin ledger -- --seed 7 --out target/ledger.json
//! # One workload, one JSON result line (the form BENCHMARK.json's driver uses).
//! cargo run --release -p tg-bench --bin ledger -- --workload serve-open --seed 7 --seconds 20 --trace 0
//! # Do two sets of runs agree within the bounds of BENCHMARK.json?
//! cargo run --release -p tg-bench --bin ledger -- --compare target/ledger-a.json target/ledger-b.json
//! # CI smoke: a twentieth of the dataset, seconds in total, checks on.
//! cargo run --release -p tg-bench --bin ledger -- --smoke
//! ```
//!
//! See `README.md` beside this file for the metric glossary, how the
//! metrics interact, and reference numbers. The ledger imports only product
//! crates and the vendored `rand`/`serde`/`serde_json`, and calls nothing
//! ROADMAP item 3 schedules for deletion (`ShardRouter`, `BaselineEngine`,
//! the `EmbedCache::invalidate_*` entry points).

mod compare;
mod hostprobe;
mod loadgen;
mod probe;
mod replay;
mod report;
mod serving;
mod stats;
mod trace;
mod world;

use report::{driver_line, pretty, Contract, LedgerFile, LedgerRun, WorkloadReport};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use world::Sizing;

/// Errors are messages: the ledger is a harness, its failures end the run.
pub type Res<T> = Result<T, String>;

/// Workload names, in the order they run. Normative: `BENCHMARK.json`
/// declares exactly these.
pub const WORKLOADS: [&str; 4] = ["replay-opt", "replay-noopt", "serve-open", "stream-mixed"];

/// Every end-to-end metric the ledger can emit, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_p50_us", "us"),
    ("within_limit_share", "ratio"),
    ("write_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric the traced pass can emit, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_edges_per_s", "1/s"),
    ("tgraph.build_edges_per_s", "1/s"),
    ("tgraph.sample_neighbors_per_s", "1/s"),
    ("tgraph.sample_valid_ratio", "ratio"),
    ("tgraph.sample_view_neighbors_per_s", "1/s"),
    ("tgraph.append_edges_per_s", "1/s"),
    ("tgraph.view_ns", "ns"),
    ("tgraph.compact_ms", "ms"),
    ("tgraph.compactions", "count"),
    ("tensor.matmul_kv_gflops", "gflop/s"),
    ("tensor.matmul_q_gflops", "gflop/s"),
    ("tensor.addmm_ffn_gflops", "gflop/s"),
    ("tensor.gather_gb_per_s", "GB/s"),
    ("tgat.attention_us_per_row", "us"),
    ("tgat.time_encode_rows_per_s", "1/s"),
    ("core.embed_batch_us_per_row", "us"),
    ("core.dedup_keys_per_s", "1/s"),
    ("core.dedup_unique_ratio", "ratio"),
    ("core.keys_per_s", "1/s"),
    ("core.cache_lookups_per_s", "1/s"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_stores_per_s", "1/s"),
    ("core.cache_evictions", "count"),
    ("core.cache_items", "count"),
    ("core.cache_bytes", "B"),
    ("core.recomputed_share", "ratio"),
    ("core.timecache_rows_per_s", "1/s"),
    ("core.timecache_hit_ratio", "ratio"),
    ("core.fingerprint_us_per_entry", "us"),
    ("core.noopt_over_opt", "ratio"),
    ("core.stage_coverage", "ratio"),
    ("serve.submit_ns_p50", "ns"),
    ("serve.wave_rows_mean_lo", "rows"),
    ("serve.wave_rows_mean_hi", "rows"),
    ("serve.wave_rows_mean_sat", "rows"),
    ("serve.cross_dedup_ratio_lo", "ratio"),
    ("serve.cross_dedup_ratio_hi", "ratio"),
    ("serve.cross_dedup_ratio_sat", "ratio"),
    ("serve.worker_busy_share_lo", "ratio"),
    ("serve.worker_busy_share_hi", "ratio"),
    ("serve.worker_busy_share_sat", "ratio"),
    ("serve.wait_outside_wave_us_p50_lo", "us"),
    ("serve.wait_outside_wave_us_p50_hi", "us"),
    ("serve.served_over_direct", "ratio"),
    ("serve.coalesce_targets_per_s", "1/s"),
    ("serve.queue_ops_per_s", "1/s"),
    ("serve.sweep_examined_per_write", "count"),
    ("serve.sweep_retained_ratio", "ratio"),
    ("serve.layer2_retained", "count"),
    ("serve.write_us_p50_saturated", "us"),
    ("serve.op_p50_us_hi", "us"),
    ("serve.op_p99_us_lo", "us"),
    ("serve.op_p99_us_hi", "us"),
    ("serve.op_p999_us_lo", "us"),
    ("serve.op_p999_us_hi", "us"),
    ("serve.gen_late_p99_us_lo", "us"),
    ("serve.gen_late_p99_us_hi", "us"),
    ("serve.rejected_overload", "count"),
    ("trace.overhead_share", "ratio"),
];

const USAGE: &str = "\
Usage: ledger [--seed N] [--seconds S] [--runs N] [--out FILE] [--smoke]
       ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       ledger --compare A.json B.json

Without --workload, runs replay-opt, replay-noopt, serve-open and
stream-mixed in child processes of itself (untraced, for the end-to-end
metrics), then a half-length traced pass for the per-layer metrics, prints
every metric by name with its unit, checks outputs against an oracle (exit 1
on a mismatch, no numbers reported) and writes FILE plus FILE.trace.json.
--runs N repeats the untraced pass N times into one file, for --compare.
--seconds defaults to run_seconds of BENCHMARK.json; operation counts are a
fixed function of it. With --workload, runs that one workload in-process
and prints one JSON result line last on standard output. --compare prints
one row per (workload, metric) and exits 1 if any verdict is `worse`.
--smoke: scale 0.05, one repetition, checks on, timings not gated.";

struct Args {
    seed: u64,
    seconds: Option<f64>,
    runs: usize,
    out: Option<String>,
    smoke: bool,
    workload: Option<String>,
    traced: bool,
    detail: bool,
    trace_out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Res<Args> {
    let mut a = Args {
        seed: 7,
        seconds: None,
        runs: 1,
        out: None,
        smoke: false,
        workload: None,
        traced: false,
        detail: false,
        trace_out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => a.seed = number(&value("--seed")?)?,
            "--seconds" => a.seconds = Some(number(&value("--seconds")?)?),
            "--runs" => a.runs = number::<usize>(&value("--runs")?)?.max(1),
            "--out" => a.out = Some(value("--out")?),
            "--smoke" => a.smoke = true,
            "--workload" => a.workload = Some(value("--workload")?),
            "--trace" => a.traced = number::<u8>(&value("--trace")?)? != 0,
            "--detail" => a.detail = true,
            "--trace-out" => a.trace_out = Some(value("--trace-out")?),
            "--compare" => a.compare = Some((value("--compare")?, value("--compare")?)),
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0)) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn number<T: std::str::FromStr>(s: &str) -> Res<T> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}

fn sizing_of(args: &Args, contract: &Contract) -> Sizing {
    if args.smoke {
        Sizing::smoke()
    } else {
        Sizing::standard(args.seconds.unwrap_or(contract.run_seconds))
    }
}

/// Every name a workload emitted must be one the ledger declares (and the
/// unit tests pin the declarations to `BENCHMARK.json`).
fn check_names(report: &WorkloadReport) -> Res<()> {
    let declared = |list: &[(&str, &str)], name: &str, unit: &str| {
        list.iter().any(|(n, u)| *n == name && *u == unit)
    };
    if !WORKLOADS.contains(&report.workload.as_str()) {
        return Err(format!("undeclared workload {}", report.workload));
    }
    for m in &report.end_to_end {
        if !declared(END_TO_END, &m.name, &m.unit) {
            return Err(format!(
                "undeclared end-to-end metric {} [{}]",
                m.name, m.unit
            ));
        }
    }
    for m in &report.per_layer {
        if !declared(PER_LAYER, &m.name, &m.unit) {
            return Err(format!(
                "undeclared per-layer metric {} [{}]",
                m.name, m.unit
            ));
        }
    }
    Ok(())
}

/// Runs one workload in this process.
fn run_workload(
    name: &str,
    seed: u64,
    sizing: Sizing,
    tracer: &mut Tracer,
    started: Instant,
) -> Res<WorkloadReport> {
    let traced = tracer.is_on();
    let report = match (name, traced) {
        ("replay-opt", false) => replay::run(replay::Kind::Opt, seed, sizing, started),
        ("replay-noopt", false) => replay::run(replay::Kind::NoOpt, seed, sizing, started),
        ("serve-open", false) => serving::run(serving::Kind::Open, seed, sizing, started),
        ("stream-mixed", false) => serving::run(serving::Kind::Mixed, seed, sizing, started),
        ("replay-opt", true) => replay::run_traced(replay::Kind::Opt, seed, sizing, tracer),
        ("replay-noopt", true) => replay::run_traced(replay::Kind::NoOpt, seed, sizing, tracer),
        ("serve-open", true) => serving::run_traced(serving::Kind::Open, seed, sizing, tracer),
        ("stream-mixed", true) => serving::run_traced(serving::Kind::Mixed, seed, sizing, tracer),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {WORKLOADS:?}"
        )),
    }?;
    check_names(&report)?;
    Ok(report)
}

/// Stack of the thread a workload runs on (a main thread's usual 8 MB, twice).
const WORKLOAD_STACK_BYTES: usize = 16 << 20;

/// Runs `f` on a spawned thread and returns what it returned.
///
/// A workload never runs on the process's main thread. Address-space
/// randomization gives every process's main thread a new stack and `brk`
/// heap position, and on the reference host the speed of the
/// single-threaded replay engine depends on the draw: identical
/// `replay-noopt` processes ran a batch in 61-94 ms (once 158 ms), every
/// round of a process agreeing with the others, while the host-speed probe
/// on the same thread read the same throughout. With randomization off
/// (`setarch -R`) the same runs gave 67-72 ms; on a spawned thread, whose
/// stack and allocator arena are mapped at fixed alignments, 62-73 ms with
/// randomization on. The serving workloads always ran their engines on the
/// server's own worker threads and never showed the effect.
fn on_spawned_thread<T: Send>(f: impl FnOnce() -> Res<T> + Send) -> Res<T> {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("workload".to_string())
            .stack_size(WORKLOAD_STACK_BYTES)
            .spawn_scoped(s, f)
            .map_err(|e| format!("spawn the workload thread: {e}"))?
            .join()
            .map_err(|_| "the workload thread panicked".to_string())?
    })
}

/// `--workload`: one workload in-process, one result line last on stdout.
fn workload_mode(args: &Args, name: &str, started: Instant) -> Res<()> {
    let contract = Contract::committed()?;
    let sizing = sizing_of(args, &contract);
    let mut tracer = if args.traced {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let report = on_spawned_thread(|| run_workload(name, args.seed, sizing, &mut tracer, started))?;
    eprint!("{}", report.render());
    if !report.correct() {
        return Err(format!("{name}: output check failed; no numbers reported"));
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, tracer.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    }
    if args.detail {
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| e.to_string())?
        );
    }
    println!("{}", driver_line(&report, &contract, args.traced)?);
    Ok(())
}

/// Runs `workload` in a child process of this executable (so `VmHWM` and
/// every cache are per workload) and returns its detailed report.
fn child(
    args: &Args,
    sizing: Sizing,
    workload: &str,
    traced: bool,
    trace_out: Option<&str>,
) -> Res<WorkloadReport> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--detail"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &sizing.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.args(["--trace-out", path]);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} ({}) exited with {}",
            if traced { "traced" } else { "untraced" },
            out.status
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| format!("{workload}: {e}"))?;
    let detail = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or_else(|| format!("{workload}: no detail line"))?;
    serde_json::from_str(detail).map_err(|e| format!("{workload}: {e}"))
}

/// The default mode: every workload, untraced then traced, in children.
fn ledger_mode(args: &Args) -> Res<()> {
    let contract = Contract::committed()?;
    let sizing = sizing_of(args, &contract);
    let provenance = world::provenance(args.seed, sizing);
    eprintln!("ledger: {provenance:#?}");
    let mut runs: Vec<LedgerRun> = Vec::new();
    let mut span_parts: Vec<String> = Vec::new();
    for run in 0..args.runs {
        let mut workloads = Vec::new();
        for name in WORKLOADS {
            eprintln!("ledger: run {}/{} {name} (untraced)", run + 1, args.runs);
            workloads.push(child(args, sizing, name, false, None)?);
        }
        if run == 0 {
            for (name, report) in WORKLOADS.iter().zip(&mut workloads) {
                eprintln!("ledger: {name} (traced, half length)");
                let part = args
                    .out
                    .as_ref()
                    .map(|out| format!("{out}.trace.{name}.part"));
                let traced = child(args, sizing, name, true, part.as_deref())?;
                report.per_layer = traced.per_layer;
                for p in traced.phases {
                    report.put_phase(
                        &format!("traced/{}", p.phase),
                        p.ops_attempted,
                        p.ops_failed,
                    );
                }
                report.checks.extend(traced.checks);
                if let Some(part) = part {
                    let spans =
                        std::fs::read_to_string(&part).map_err(|e| format!("read {part}: {e}"))?;
                    span_parts.push(format!("{{\"workload\":\"{name}\",\"trace\":{spans}}}"));
                    std::fs::remove_file(&part).map_err(|e| format!("remove {part}: {e}"))?;
                }
            }
        }
        runs.push(LedgerRun { workloads });
    }

    println!(
        "# ledger seed {} — {} s per workload, {} run(s)",
        args.seed,
        sizing.seconds,
        runs.len()
    );
    for (name, why) in &contract.workloads {
        println!("# {name}: {why}");
    }
    for w in runs.iter().flat_map(|r| &r.workloads) {
        print!("{}", w.render());
    }
    if let Some(out) = &args.out {
        let file = LedgerFile { provenance, runs };
        let text = serde_json::to_string(&file).map_err(|e| e.to_string())?;
        std::fs::write(out, pretty(&text) + "\n").map_err(|e| format!("write {out}: {e}"))?;
        let trace = format!("{out}.trace.json");
        std::fs::write(&trace, format!("[{}]\n", span_parts.join(",\n")))
            .map_err(|e| format!("write {trace}: {e}"))?;
        println!("wrote {out} and {trace}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let outcome = parse_args().and_then(|args| match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare::compare_files(a, b),
        (None, Some(name)) => workload_mode(&args, name, started).map(|()| true),
        (None, None) => ledger_mode(&args).map(|()| true),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: error: {e}");
            ExitCode::FAILURE
        }
    }
}
