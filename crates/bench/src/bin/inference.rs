//! The reproduction's counterpart to the artifact's `inference.py`: run the
//! standard inference task on one dataset with selectable optimizations.
//!
//! ```sh
//! cargo run --release -p tg-bench --bin inference -- -d snap-msg --opt-all --stats
//! cargo run --release -p tg-bench --bin inference -- -d jodie-wiki --opt-cache --opt-dedup
//! cargo run --release -p tg-bench --bin inference -- --csv data/ml_custom.csv --opt-all
//! ```

use tg_bench::harness::{self, mean_std};
use tg_bench::{replay, table, ExpArgs};
use tgat::OpKind;
use tgopt::{OptConfig, TgoptEngine};

struct CliOpts {
    base: ExpArgs,
    dataset: String,
    csv: Option<String>,
    opt_dedup: bool,
    opt_cache: bool,
    opt_time: bool,
    stats: bool,
    time_window: usize,
    verify: bool,
    json: Option<String>,
    stats_json: Option<String>,
}

fn parse() -> CliOpts {
    let mut out = CliOpts {
        base: ExpArgs::parse_from(std::iter::empty::<String>()),
        dataset: "snap-msg".to_string(),
        csv: None,
        opt_dedup: false,
        opt_cache: false,
        opt_time: false,
        stats: false,
        time_window: 10_000,
        verify: false,
        json: None,
        stats_json: None,
    };
    let mut passthrough: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "-d" | "--dataset" => out.dataset = take("-d"),
            "--csv" => out.csv = Some(take("--csv")),
            "--opt-all" => {
                out.opt_dedup = true;
                out.opt_cache = true;
                out.opt_time = true;
            }
            "--opt-dedup" => out.opt_dedup = true,
            "--opt-cache" => out.opt_cache = true,
            "--opt-time" => out.opt_time = true,
            "--stats" => out.stats = true,
            "--verify" => out.verify = true,
            "--json" => out.json = Some(take("--json")),
            "--stats-json" => out.stats_json = Some(take("--stats-json")),
            "--time-window" => {
                out.time_window = take("--time-window").parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --time-window");
                    std::process::exit(2);
                })
            }
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                passthrough.push(other.to_string());
                if matches!(
                    other,
                    "--scale" | "--runs" | "--seed" | "--dim" | "--neighbors" | "--batch"
                        | "--cache-limit" | "--datasets"
                ) {
                    passthrough.push(take(other));
                }
            }
        }
    }
    out.base = ExpArgs::parse_from(passthrough);
    out
}

const USAGE: &str = "\
Usage: inference [-d NAME | --csv PATH] [--opt-all | --opt-dedup --opt-cache --opt-time]
                 [--stats] [--verify] [--json PATH] [--stats-json PATH]
                 [--time-window N]
                 [--scale F] [--runs N] [--dim N] [--neighbors N] [--batch N]
                 [--cache-limit N] [--seed N]

Runs the standard inference task (chronological batches, both endpoints of
every edge embedded) with every optimization off (the baseline) and, if any
--opt-* flag is given, with those optimizations on, reporting runtimes and
statistics. --verify instead replays every batch with everything off and
everything on and checks that they agree.

--stats-json writes the unified telemetry snapshot (stable schema shared
with the serve bench); pass --stats as well to populate its per-stage
spans.";

/// The paper's §5.1.3 validation: replay every batch with every
/// optimization off and with every optimization on, and report the worst
/// elementwise deviation.
fn verify(cli: &CliOpts, ds: &tg_datasets::Dataset, params: &tgat::TgatParams) {
    use tg_graph::{BatchIter, TemporalGraph};
    use tgat::engine::GraphContext;
    let graph = TemporalGraph::from_stream(&ds.stream);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &ds.node_features,
        edge_features: &ds.edge_features,
    };
    let mut base = TgoptEngine::new(params, ctx, OptConfig::none());
    let opt = OptConfig {
        cache_limit: cli.base.effective_cache_limit(),
        time_window: cli.time_window,
        ..OptConfig::all()
    };
    let mut ours = TgoptEngine::new(params, ctx, opt);
    let mut worst = 0.0f32;
    let mut batches = 0usize;
    for batch in BatchIter::new(&ds.stream, cli.base.batch_size) {
        let (ns, ts) = batch.targets();
        let hb = base.embed_batch(&ns, &ts).unwrap_or_else(|e| fail("baseline inference", e));
        let ho = ours.embed_batch(&ns, &ts).unwrap_or_else(|e| fail("tgopt inference", e));
        worst = worst.max(hb.max_abs_diff(&ho));
        batches += 1;
    }
    println!(
        "verified {batches} batches: max abs deviation {worst:.3e} (tolerance 1e-4)"
    );
    if worst >= 1e-4 {
        eprintln!("FAILED: TGOpt diverged from the baseline");
        std::process::exit(1);
    }
    println!("OK: TGOpt matches the baseline within floating-point tolerance");
}

/// One engine's entry in the machine-readable report (see EXPERIMENTS.md for
/// the protocol that produces the committed `BENCH_inference.json`).
#[derive(serde::Serialize)]
struct EngineReport {
    engine: String,
    wall_ms_mean: f64,
    wall_ms_std: f64,
    speedup_vs_baseline: f64,
    checksum: f64,
    counters: CounterReport,
    cache_items: usize,
    cache_bytes: usize,
}

#[derive(serde::Serialize)]
struct CounterReport {
    cache_lookups: u64,
    cache_hits: u64,
    cache_stores: u64,
    recomputed: u64,
    dedup_removed: u64,
    stores_skipped: u64,
}

/// Top-level schema of `--json` output.
#[derive(serde::Serialize)]
struct BenchReport {
    dataset: String,
    edges: usize,
    nodes: usize,
    batch_size: usize,
    runs: usize,
    seed: u64,
    dim: usize,
    neighbors: usize,
    engines: Vec<EngineReport>,
}

fn engine_report(
    kind: &str,
    wall_ms_mean: f64,
    wall_ms_std: f64,
    speedup_vs_baseline: f64,
    run: &tg_bench::harness::RunResult,
) -> EngineReport {
    EngineReport {
        engine: kind.to_string(),
        wall_ms_mean,
        wall_ms_std,
        speedup_vs_baseline,
        checksum: run.checksum,
        counters: CounterReport {
            cache_lookups: run.counters.cache_lookups,
            cache_hits: run.counters.cache_hits,
            cache_stores: run.counters.cache_stores,
            recomputed: run.counters.recomputed,
            dedup_removed: run.counters.dedup_removed,
            stores_skipped: run.counters.stores_skipped,
        },
        cache_items: run.cache_items,
        cache_bytes: run.cache_bytes,
    }
}

/// Prints `what: err` and exits. Bench binaries fail loudly with a clean
/// message instead of unwinding a panic mid-benchmark.
fn fail(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {err}");
    std::process::exit(1);
}

fn main() {
    let cli = parse();
    let ds = match &cli.csv {
        Some(path) => tg_datasets::load_csv(
            std::path::Path::new(path),
            "custom",
            100,
            cli.base.seed,
        )
        .unwrap_or_else(|e| {
            eprintln!("error: failed to load {path}: {e}");
            std::process::exit(1);
        }),
        None => harness::dataset_for(&cli.base, &cli.dataset),
    };
    // CSV-loaded node features may need resizing to the model dim, exactly
    // like the generated ones.
    let mut ds = ds;
    ds.node_features =
        tg_tensor::Tensor::zeros(ds.node_features.rows(), cli.base.dim);
    let params = harness::params_for(&cli.base, &ds);
    println!(
        "dataset {} | {} edges | {} nodes | d_e {} | model dim {} | {} neighbors | batch {}",
        ds.name,
        ds.stream.len(),
        ds.stream.num_nodes(),
        ds.dim(),
        cli.base.dim,
        cli.base.n_neighbors,
        cli.base.batch_size
    );

    if cli.verify {
        verify(&cli, &ds, &params);
        return;
    }

    let any_opt = cli.opt_dedup || cli.opt_cache || cli.opt_time;
    let mut base_times = Vec::new();
    let mut base_run = None;
    for _ in 0..cli.base.runs {
        let r = replay(&ds, &params, OptConfig::none(), cli.base.batch_size, cli.stats);
        base_times.push(r.seconds);
        base_run = Some(r);
    }
    let (bm, bs) = mean_std(&base_times);
    println!("baseline: {} +/- {}", table::fmt_secs(bm), table::fmt_secs(bs));
    let mut engine_reports = vec![engine_report(
        "baseline",
        bm * 1e3,
        bs * 1e3,
        1.0,
        base_run.as_ref().unwrap_or_else(|| fail("report", "baseline never ran")),
    )];
    // --stats-json reports the most optimized engine that ran.
    let mut telemetry = base_run.as_ref().map(|r| r.telemetry());

    if any_opt {
        let opt = OptConfig {
            enable_dedup: cli.opt_dedup,
            enable_cache: cli.opt_cache,
            enable_time_precompute: cli.opt_time,
            cache_limit: cli.base.effective_cache_limit(),
            time_window: cli.time_window,
            ..OptConfig::all()
        };
        let mut opt_times = Vec::new();
        let mut opt_run = None;
        for _ in 0..cli.base.runs {
            let r = replay(&ds, &params, opt, cli.base.batch_size, cli.stats);
            opt_times.push(r.seconds);
            opt_run = Some(r);
        }
        let (om, os) = mean_std(&opt_times);
        println!(
            "tgopt:    {} +/- {}   speedup {:.2}x",
            table::fmt_secs(om),
            table::fmt_secs(os),
            bm / om.max(1e-12)
        );
        let r = opt_run.unwrap_or_else(|| fail("report", "optimized engine never ran"));
        telemetry = Some(r.telemetry());
        engine_reports.push(engine_report("tgopt", om * 1e3, os * 1e3, bm / om.max(1e-12), &r));
        println!(
            "cache: {:.2}% hit rate | {} items | {} | dedup removed {}",
            100.0 * r.counters.hit_rate(),
            r.cache_items,
            table::fmt_mib(r.cache_bytes),
            r.counters.dedup_removed
        );
        if cli.stats {
            let b = base_run.unwrap_or_else(|| fail("report", "baseline never ran"));
            let mut rows = Vec::new();
            for kind in OpKind::ALL {
                let cell = |v: f64| if v == 0.0 { "-".into() } else { format!("{v:.3}") };
                rows.push(vec![
                    kind.label().to_string(),
                    cell(b.stats.total(kind).as_secs_f64()),
                    cell(r.stats.total(kind).as_secs_f64()),
                ]);
            }
            println!("\n{}", table::render(&["operation (secs)", "base", "ours"], &rows));
        }
    } else if cli.stats {
        let b = base_run.unwrap_or_else(|| fail("report", "baseline never ran"));
        let mut rows = Vec::new();
        for kind in OpKind::ALL {
            let v = b.stats.total(kind).as_secs_f64();
            if v > 0.0 {
                rows.push(vec![kind.label().to_string(), format!("{v:.3}")]);
            }
        }
        println!("\n{}", table::render(&["operation (secs)", "base"], &rows));
    }

    if let Some(path) = &cli.json {
        let report = BenchReport {
            dataset: ds.name.clone(),
            edges: ds.stream.len(),
            nodes: ds.stream.num_nodes(),
            batch_size: cli.base.batch_size,
            runs: cli.base.runs,
            seed: cli.base.seed,
            dim: cli.base.dim,
            neighbors: cli.base.n_neighbors,
            engines: engine_reports,
        };
        let text = serde_json::to_string(&report).unwrap_or_else(|e| fail("report serialization", e));
        if let Err(e) = std::fs::write(path, table::pretty_json(&text) + "\n") {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }

    if let Some(path) = &cli.stats_json {
        let snap = telemetry.take().unwrap_or_else(tg_telemetry::TelemetrySnapshot::new);
        let text = serde_json::to_string(&snap).unwrap_or_else(|e| fail("telemetry snapshot serialization", e));
        if let Err(e) = std::fs::write(path, table::pretty_json(&text) + "\n") {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
