//! `exp` — regenerates the paper's tables and figures and checks their shapes.
//!
//! ```sh
//! cargo run --release -p tg-bench --bin exp -- all          # every logs/*.txt
//! cargo run --release -p tg-bench --bin exp -- fig5 --out /tmp/logs
//! cargo run --release -p tg-bench --bin exp -- table4 --paper
//! ```
//!
//! An experiment runs its recipes, each a log name and the arguments that
//! log was measured at. Every log starts with its provenance (git rev, host
//! cores, arguments) and ends with the experiment's shape check, a pure
//! function of the rendered rows; the command exits 1 if any shape fails.
//! Flags after the experiment name (`--paper`, `--scale`, ...) apply on top
//! of every recipe; `--out DIR` (default `logs`) says where logs go.

use std::path::PathBuf;
use std::time::Instant;
use tg_bench::harness::{self, geomean, mean_std};
use tg_bench::table::{fmt_mib, fmt_secs, render};
use tg_bench::{args, replay, ExpArgs};
use tg_datasets::{dataset_stats, Dataset};
use tg_graph::{BatchIter, NodeId, TemporalGraph, TemporalSampler, Time};
use tg_telemetry::OpKind;
use tgat::TgatParams;
use tgopt::dedup::{dedup_filter, dedup_nodes_only};
use tgopt::devicesim::{simulate_transfers, CostModel, StorePolicy};
use tgopt::OptConfig;

type Row = Vec<String>;
type Check = Result<String, String>;

/// One table or figure of the paper.
struct Experiment {
    name: &'static str,
    title: &'static str,
    headers: &'static [&'static str],
    /// `(log name, arguments)`: each log is one pass over its datasets.
    recipes: &'static [(&'static str, &'static str)],
    /// The rows one dataset contributes.
    measure: fn(&ExpArgs, &Dataset, &TgatParams) -> Vec<Row>,
    /// The shape the rows of every recipe keep, one table per recipe; `Ok`
    /// says what held.
    check: fn(&[Vec<Row>]) -> Check,
}

const EXPERIMENTS: [Experiment; 10] = [
    Experiment {
        name: "table1",
        title: "Table 1: duplicate targets per batch at each layer",
        headers: &["dataset", "layer 0", "layer 1", "layer 2"],
        recipes: &[("table1", "--neighbors 20")],
        measure: table1,
        check: check_table1,
    },
    Experiment {
        name: "table2",
        title: "Table 2: dataset statistics (paper values at scale 1.0)",
        headers: &[
            "dataset",
            "|V|",
            "|V| paper",
            "active",
            "|E|",
            "|E| paper",
            "d_e",
            "max(t)",
            "max(t) paper",
        ],
        recipes: &[("table2", "")],
        measure: table2,
        check: check_table2,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3: embeddings reused vs recomputed over time (unbounded cache)",
        headers: &["dataset", "k", "time t", "reused (cum)", "recomputed (cum)", "reuse ratio"],
        recipes: &[
            ("fig3", "--scale 1.0 --datasets snap-msg"),
            ("fig3_k20", "--scale 1.0 --datasets snap-msg --neighbors 20"),
        ],
        measure: fig3,
        check: check_fig3,
    },
    Experiment {
        name: "fig4",
        title: "Figure 4: time deltas at the time encoder, % per bucket",
        headers: &[
            "dataset",
            "deltas",
            "<1",
            "<1e1",
            "<1e2",
            "<1e3",
            "<1e4",
            "<1e5",
            "<1e6",
            "<1e7",
            "<1e8",
            ">=1e8",
            "in window",
        ],
        recipes: &[
            ("fig4_msg", "--scale 1.0 --datasets snap-msg"),
            ("fig4_lastfm", "--scale 0.05 --datasets jodie-lastfm"),
        ],
        measure: fig4,
        check: check_fig4,
    },
    Experiment {
        name: "fig5",
        title: "Figure 5: inference runtime, baseline vs TGOpt",
        headers: &["dataset", "|E|", "baseline", "tgopt", "speedup", "drift"],
        recipes: &[("fig5", "")],
        measure: fig5,
        check: check_fig5,
    },
    Experiment {
        name: "fig6",
        title: "Figure 6: accumulative ablation",
        headers: &["dataset", "optimizations", "runtime", "speedup"],
        recipes: &[
            ("fig6_lastfm", "--runs 1 --datasets jodie-lastfm"),
            ("fig6_msg", "--scale 0.3 --runs 1 --datasets snap-msg"),
            ("fig6_msg_dim100", "--scale 0.3 --runs 1 --dim 100 --datasets snap-msg"),
        ],
        measure: fig6,
        check: check_fig6,
    },
    Experiment {
        name: "table3",
        title: "Table 3: operation breakdown (seconds), hit rate and cache size",
        headers: &["dataset", "operation", "base", "ours"],
        recipes: &[
            ("table3_lastfm", "--datasets jodie-lastfm"),
            ("table3_msg", "--scale 0.3 --datasets snap-msg"),
        ],
        measure: table3,
        check: check_table3,
    },
    Experiment {
        name: "fig7",
        title: "Figure 7: cache hit rate over a sliding window of 10 batches",
        headers: &["dataset", "batch", "hit rate"],
        recipes: &[
            ("fig7_lastfm", "--scale 0.05 --datasets jodie-lastfm"),
            ("fig7_msg", "--scale 0.3 --datasets snap-msg"),
        ],
        measure: fig7,
        check: check_fig7,
    },
    Experiment {
        name: "table4",
        title: "Table 4: cache-limit sweep (limits scaled with |E|)",
        headers: &["dataset", "limit", "paper", "runtime (s)", "cache mem", "items"],
        recipes: &[("table4", "--runs 1 --scale 0.05 --datasets jodie-lastfm,snap-msg")],
        measure: table4,
        check: check_table4,
    },
    Experiment {
        name: "table5",
        title: "Table 5: simulated CUDA memcpy time by cache placement",
        headers: &["dataset", "cache on", "HtoD (ms)", "DtoH (ms)", "DtoD (ms)", "DtoD share"],
        recipes: &[("table5", "--scale 0.05 --datasets jodie-lastfm,snap-msg")],
        measure: table5,
        check: check_table5,
    },
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let which = argv.next().unwrap_or_default();
    let (mut out, mut extra) = (PathBuf::from("logs"), Vec::new());
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out" => out = argv.next().map_or_else(|| usage(), PathBuf::from),
            _ => extra.push(arg),
        }
    }
    let selected: Vec<&Experiment> =
        EXPERIMENTS.iter().filter(|e| which == "all" || e.name == which).collect();
    if selected.is_empty() {
        usage();
    }
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(&format!("{}: {e}", out.display())));
    let rev = git_rev();
    let mut failed = Vec::new();
    for exp in selected {
        let mut logs = Vec::new();
        let mut tables = Vec::new();
        for &(log, recipe) in exp.recipes {
            let argv: Vec<String> =
                recipe.split_whitespace().map(String::from).chain(extra.iter().cloned()).collect();
            let args = ExpArgs::parse_from(argv.clone());
            let start = Instant::now();
            let rows = measure(exp, &args);
            eprintln!("{log}: {:.1}s", start.elapsed().as_secs_f64());
            let shown = if argv.is_empty() { "(defaults)".into() } else { argv.join(" ") };
            let (cores, table) = (tg_tensor::fanout::host_cores(), render(exp.headers, &rows));
            let text = format!(
                "rev {rev}, {cores} cores, arguments: {shown}\n{}; scale {}, dim {}, {} neighbors, \
                 batch {}, {} run(s), seed {}, cache limit {}\n\n{table}",
                exp.title,
                args.scale,
                args.dim,
                args.n_neighbors,
                args.batch_size,
                args.runs,
                args.seed,
                args.effective_cache_limit(),
            );
            logs.push((log, text));
            tables.push(rows);
        }
        let verdict = match (exp.check)(&tables) {
            Ok(held) => format!("Shape holds: {held}."),
            Err(why) => {
                failed.push(exp.name);
                format!("SHAPE FAILED: {why}.")
            }
        };
        for (log, text) in logs {
            let text = format!("{text}\n{verdict}\n");
            println!("{text}");
            let path = out.join(format!("{log}.txt"));
            std::fs::write(&path, text)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        }
    }
    if !failed.is_empty() {
        fail(&format!("shape checks failed: {}", failed.join(", ")));
    }
}

/// The one dataset loop: each selected dataset generated, then measured.
fn measure(exp: &Experiment, args: &ExpArgs) -> Vec<Row> {
    let mut rows = Vec::new();
    for spec in tg_datasets::all_specs().iter().filter(|s| args.selects(s.name)) {
        let ds = harness::dataset_for(args, spec.name);
        let params = harness::params_for(args, &ds);
        rows.extend((exp.measure)(args, &ds, &params));
    }
    rows
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "Usage: exp <{} | all> [--out DIR] [experiment flags]\n\n{}",
        names.join(" | "),
        args::USAGE
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The number a rendered cell holds before its unit: `62.0%` is 62,
/// `4.14x` 4.14, `7.5MiB` 7.5. NaN, which fails every check, if none.
fn num(cell: &str) -> f64 {
    cell.trim_end_matches(|c: char| !c.is_ascii_digit()).parse().unwrap_or(f64::NAN)
}

fn pct(share: f64) -> String {
    format!("{:.1}%", 100.0 * share)
}

/// Each table's rows split into runs of one dataset, in order.
fn series(tables: &[Vec<Row>]) -> impl Iterator<Item = &[Row]> {
    tables.iter().flat_map(|t| t.chunk_by(|a, b| a[0] == b[0]))
}

/// `Err(why)` unless the claim holds; a NaN claim never holds.
fn ensure(holds: bool, why: String) -> Result<(), String> {
    holds.then_some(()).ok_or(why)
}

/// Table 1. Layer 2 is the raw batch; layer 1 pools every layer-2 target's
/// sampled neighbors without dedup; layer 0 expands once more and counts
/// duplicates by node only, since it merely looks up static features
/// (§3.1). Paper (L0/L1/L2 %): lastfm 94/48/0, mooc 96/74/2, reddit
/// 88/41/0, wiki 96/68/0, email 96/55/19, msg 96/70/16, snap-reddit 83/35/8.
fn table1(args: &ExpArgs, ds: &Dataset, _: &TgatParams) -> Vec<Row> {
    let graph = TemporalGraph::from_stream(&ds.stream);
    let sampler = TemporalSampler::most_recent(args.n_neighbors);
    // The targets followed by their valid sampled neighbors.
    let expand = |ns: &[NodeId], ts: &[Time]| {
        let nb = sampler.sample(&graph, ns, ts);
        let (mut ns, mut ts) = (ns.to_vec(), ts.to_vec());
        for i in (0..nb.nodes.len()).filter(|&i| nb.is_valid(i)) {
            ns.push(nb.nodes[i]);
            ts.push(nb.times[i]);
        }
        (ns, ts)
    };
    let (mut dup, mut batches) = ([0.0f64; 3], 0.0f64);
    for batch in BatchIter::new(&ds.stream, args.batch_size) {
        let (ns2, ts2) = batch.targets();
        let (ns1, ts1) = expand(&ns2, &ts2);
        dup[0] += dedup_nodes_only(&expand(&ns1, &ts1).0).duplication_rate();
        dup[1] += dedup_filter(&ns1, &ts1).duplication_rate();
        dup[2] += dedup_filter(&ns2, &ts2).duplication_rate();
        batches += 1.0;
    }
    let mut row = vec![ds.name.clone()];
    row.extend(dup.iter().map(|d| pct(d / batches.max(1.0))));
    vec![row]
}

fn check_table1(tables: &[Vec<Row>]) -> Check {
    for row in tables.iter().flatten() {
        let [l0, l1, l2] = [1, 2, 3].map(|c| num(&row[c]));
        ensure(l0 > l1 && l1 > l2, format!("{}: L0/L1/L2 {l0}/{l1}/{l2}%", row[0]))?;
    }
    let l2 = |prefix| {
        tables.iter().flatten().filter(move |r| r[0].starts_with(prefix)).map(|r| num(&r[3]))
    };
    let (snap, jodie) =
        (l2("snap-").fold(f64::INFINITY, f64::min), l2("jodie-").fold(f64::NEG_INFINITY, f64::max));
    ensure(snap > jodie, format!("smallest snap-* L2 {snap}% <= largest jodie-* L2 {jodie}%"))?;
    Ok(format!("L0 > L1 > L2 everywhere; L2 snap-* >= {snap}% > jodie-* <= {jodie}%"))
}

/// Table 2. |V| is the node id space and "active" the nodes a scaled run
/// touches; max(t) scales with |E| because the generators keep the event
/// rate.
fn table2(_: &ExpArgs, ds: &Dataset, _: &TgatParams) -> Vec<Row> {
    let (s, spec) = (dataset_stats(ds), ds.spec);
    vec![vec![
        ds.name.clone(),
        ds.node_features.rows().to_string(),
        spec.num_nodes().to_string(),
        s.num_nodes.to_string(),
        s.num_edges.to_string(),
        spec.num_edges.to_string(),
        s.edge_dim.to_string(),
        format!("{:.1e}", s.max_time),
        format!("{:.1e}", spec.max_time),
    ]]
}

fn check_table2(tables: &[Vec<Row>]) -> Check {
    for row in tables.iter().flatten() {
        let d_e = tg_datasets::spec_by_name(&row[0]).map(|s| s.effective_edge_dim().to_string());
        let (v, paper_v, de) = (&row[1], &row[2], &row[6]);
        ensure(v == paper_v && Some(de) == d_e.as_ref(), format!("{}: |V| {v}, d_e {de}", row[0]))?;
    }
    Ok("|V| and d_e equal the spec on every dataset".into())
}

/// Figure 3: cumulative cache hits (reused) and recomputed embeddings at
/// ~16 checkpoints of the stream. Paper (snap-msg, 20 neighbors): the
/// reuse:recompute ratio grows monotonically to 8.9:1.
fn fig3(args: &ExpArgs, ds: &Dataset, params: &TgatParams) -> Vec<Row> {
    let unbounded = OptConfig::all().with_cache_limit(usize::MAX / 2);
    let run = replay(ds, params, unbounded, args.batch_size, false);
    let (n, mut reused, mut recomputed) = (run.batches.len(), 0u64, 0u64);
    let mut rows = Vec::new();
    for (i, b) in run.batches.iter().enumerate() {
        reused += b.hits;
        recomputed += b.recomputed;
        if (i + 1) % (n / 16).max(1) == 0 || i + 1 == n {
            #[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
            let ratio = reused as f64 / recomputed.max(1) as f64;
            rows.push(vec![
                ds.name.clone(),
                args.n_neighbors.to_string(),
                format!("{:.2e}", b.time),
                reused.to_string(),
                recomputed.to_string(),
                format!("{ratio:.2}"),
            ]);
        }
    }
    rows
}

/// The paper's width of 20 neighbors also reuses more than it recomputes
/// from the second checkpoint on; narrower sampling crosses over later.
fn check_fig3(tables: &[Vec<Row>]) -> Check {
    for s in series(tables) {
        let ratios: Vec<f64> = s.iter().map(|r| num(&r[5])).collect();
        let name = format!("{} k={}", s[0][0], s[0][1]);
        ensure(
            ratios.windows(2).all(|w| w[1] >= w[0]),
            format!("{name}: ratio falls: {ratios:?}"),
        )?;
        let crossed = ratios.iter().skip(1).all(|&r| r > 1.0);
        ensure(
            num(&s[0][1]) < 20.0 || crossed,
            format!("{name}: ratio <= 1 past checkpoint 1: {ratios:?}"),
        )?;
    }
    Ok("the reuse ratio never falls, and tops 1 from the second checkpoint on at k >= 20".into())
}

/// Figure 4: each bucket's share of the deltas the sampler hands the time
/// encoder, and the share inside the precompute window. Paper (snap-msg):
/// a power law clustered near zero, since most-recent sampling keeps
/// `t - t_j` small.
fn fig4(args: &ExpArgs, ds: &Dataset, _: &TgatParams) -> Vec<Row> {
    let graph = TemporalGraph::from_stream(&ds.stream);
    let sampler = TemporalSampler::most_recent(args.n_neighbors);
    let bounds = [1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];
    #[expect(clippy::cast_precision_loss, reason = "the window is a small count")]
    let window = OptConfig::all().time_window as f64;
    let (mut counts, mut in_window) = ([0u64; 10], 0u64);
    for batch in BatchIter::new(&ds.stream, args.batch_size) {
        let (ns, ts) = batch.targets();
        let nb = sampler.sample(&graph, &ns, &ts);
        for i in (0..nb.dts.len()).filter(|&i| nb.is_valid(i)) {
            let dt = f64::from(nb.dts[i]);
            counts[bounds.partition_point(|&b| b <= dt)] += 1;
            in_window += u64::from(dt < window);
        }
    }
    let total: u64 = counts.iter().sum();
    #[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
    let share = |c: u64| pct(c as f64 / total.max(1) as f64);
    let mut row = vec![ds.name.clone(), total.to_string()];
    row.extend(counts.iter().map(|&c| share(c)));
    row.push(share(in_window));
    vec![row]
}

fn check_fig4(tables: &[Vec<Row>]) -> Check {
    let window = |name: &str| tables.iter().flatten().find(|r| r[0] == name).map(|r| num(&r[12]));
    let (Some(lastfm), Some(msg)) = (window("jodie-lastfm"), window("snap-msg")) else {
        return Err("needs a jodie-lastfm and a snap-msg row".into());
    };
    ensure(lastfm > msg, format!("window share lastfm {lastfm}% <= msg {msg}%"))?;
    Ok(format!("the precompute window holds {lastfm}% of lastfm's deltas, {msg}% of msg's"))
}

/// Figure 5: replay time of the baseline (`OptConfig::none()`) and TGOpt
/// (`all()`), mean +/- std over `--runs`; `drift` is the relative
/// difference of their output checksums. Paper: geomean 4.9x on its CPU
/// server, 2.9x on a V100.
fn fig5(args: &ExpArgs, ds: &Dataset, params: &TgatParams) -> Vec<Row> {
    let opt = OptConfig::all().with_cache_limit(args.effective_cache_limit());
    let (mut base, mut ours, mut sums) = (Vec::new(), Vec::new(), (0.0, 0.0));
    for _ in 0..args.runs {
        let b = replay(ds, params, OptConfig::none(), args.batch_size, false);
        let o = replay(ds, params, opt, args.batch_size, false);
        base.push(b.seconds);
        ours.push(o.seconds);
        sums = (b.checksum, o.checksum);
    }
    let (((bm, bs), (om, os)), drift) =
        ((mean_std(&base), mean_std(&ours)), (sums.0 - sums.1).abs() / sums.0.abs().max(1.0));
    vec![vec![
        ds.name.clone(),
        ds.stream.len().to_string(),
        format!("{} +/- {}", fmt_secs(bm), fmt_secs(bs)),
        format!("{} +/- {}", fmt_secs(om), fmt_secs(os)),
        format!("{:.2}x", bm / om.max(1e-12)),
        format!("{drift:.1e}"),
    ]]
}

fn check_fig5(tables: &[Vec<Row>]) -> Check {
    let rows: Vec<&Row> = tables.iter().flatten().collect();
    for r in &rows {
        ensure(num(&r[4]) >= 2.0, format!("{}: speedup {} < 2x", r[0], r[4]))?;
        ensure(num(&r[5]) < 1e-3, format!("{}: checksum drift {}", r[0], r[5]))?;
    }
    let geo = geomean(&rows.iter().map(|r| num(&r[4])).collect::<Vec<_>>());
    Ok(format!("every speedup >= 2x, geomean {geo:.2}x (paper CPU 4.9x); checksum drift < 1e-3"))
}

/// Figure 6: cache, then + dedup, then + time precompute, as speedups over
/// the baseline. Paper (CPU): cache alone >= 3x, + dedup a slight
/// gain, + time precompute a further boost, largest on the jodie-* datasets.
/// The last stage adds this reproduction's layer-1 edge projection.
fn fig6(args: &ExpArgs, ds: &Dataset, params: &TgatParams) -> Vec<Row> {
    let stages = [
        ("baseline", OptConfig::none()),
        ("cache", OptConfig::cache_only()),
        ("cache+dedup", OptConfig::cache_dedup()),
        ("all (+time)", OptConfig { enable_edge_proj: false, ..OptConfig::all() }),
        ("all (+edge proj)", OptConfig::all()),
    ];
    let mut base = None;
    let mut rows = Vec::new();
    for (label, cfg) in stages {
        let opt = cfg.with_cache_limit(args.effective_cache_limit());
        let times: Vec<f64> = (0..args.runs)
            .map(|_| replay(ds, params, opt, args.batch_size, false).seconds)
            .collect();
        let mean = mean_std(&times).0;
        let base = *base.get_or_insert(mean);
        rows.push(vec![
            ds.name.clone(),
            label.into(),
            fmt_secs(mean),
            format!("{:.2}x", base / mean.max(1e-12)),
        ]);
    }
    rows
}

fn check_fig6(tables: &[Vec<Row>]) -> Check {
    for r in series(tables).flat_map(|s| &s[1..]) {
        ensure(num(&r[3]) > 1.0, format!("{} {}: speedup {}", r[0], r[1], r[3]))?;
    }
    Ok("every stage beats the baseline (the time-precompute step is reported, not checked)".into())
}

/// Table 3: seconds per operation of Algorithm 1, with TGOpt's hit rate and
/// cache size. Paper (CPU): attention and TimeEncode(dt) dominate the
/// baseline, and TGOpt removes most of both at a small dedup and cache
/// cost; hit rates 90.9% (lastfm) and 85.9% (msg).
fn table3(args: &ExpArgs, ds: &Dataset, params: &TgatParams) -> Vec<Row> {
    let opt = OptConfig::all().with_cache_limit(args.effective_cache_limit());
    let base = replay(ds, params, OptConfig::none(), args.batch_size, true);
    let ours = replay(ds, params, opt, args.batch_size, true);
    let row = |what: &str, b: String, o: String| vec![ds.name.clone(), what.to_string(), b, o];
    let secs = |s: f64| format!("{s:.3}");
    let mut rows: Vec<Row> = OpKind::ALL
        .iter()
        .map(|&k| {
            row(
                k.label(),
                secs(base.stats.total(k).as_secs_f64()),
                secs(ours.stats.total(k).as_secs_f64()),
            )
        })
        .collect();
    rows.push(row("total", secs(base.seconds), secs(ours.seconds)));
    rows.push(row("hit rate", "-".into(), pct(ours.counters.hit_rate())));
    rows.push(row("cache size", "-".into(), fmt_mib(ours.cache_bytes)));
    rows.push(row("cache items", "-".into(), ours.cache_items.to_string()));
    rows.push(row("edge proj hit rate", "-".into(), pct(ours.edge_proj.hit_ratio())));
    rows.push(row("edge proj table", "-".into(), fmt_mib(ours.edge_proj.resident_bytes)));
    rows
}

fn check_table3(tables: &[Vec<Row>]) -> Check {
    use OpKind::{Attention, CacheLookup, CacheStore, ComputeKeys, DedupFilter, DedupInvert};
    for s in series(tables) {
        let cell =
            |k: OpKind, c: usize| s.iter().find(|r| r[1] == k.label()).map_or(f64::NAN, |r| num(&r[c]));
        let ops = [DedupFilter, DedupInvert, ComputeKeys, CacheLookup, CacheStore];
        let (cost, saved) =
            (ops.map(|k| cell(k, 3)).iter().sum::<f64>(), cell(Attention, 2) - cell(Attention, 3));
        ensure(
            cost < saved,
            format!("{}: overhead {cost:.3}s >= attention saved {saved:.3}s", s[0][0]),
        )?;
    }
    Ok("TGOpt's dedup, key and cache-op time is below the attention time it removes".into())
}

/// Figure 7: ~20 points of the stream. Paper: the rate passes ~80% early
/// and keeps climbing.
#[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
fn fig7(args: &ExpArgs, ds: &Dataset, params: &TgatParams) -> Vec<Row> {
    let opt = OptConfig::all().with_cache_limit(args.effective_cache_limit());
    let run = replay(ds, params, opt, args.batch_size, false);
    let n = run.batches.len();
    let every = (n / 20).max(1);
    (0..n)
        .filter(|&i| i % every == 0 || i + 1 == n)
        .map(|i| {
            let window = &run.batches[i.saturating_sub(9)..=i];
            let (hits, lookups) =
                window.iter().fold((0, 0), |(h, l), b| (h + b.hits, l + b.lookups));
            vec![ds.name.clone(), (i + 1).to_string(), pct(hits as f64 / lookups.max(1) as f64)]
        })
        .collect()
}

fn check_fig7(tables: &[Vec<Row>]) -> Check {
    for s in series(tables) {
        let (first, last) = (num(&s[0][2]), num(&s[s.len() - 1][2]));
        ensure(last > first, format!("{}: hit rate {first}% -> {last}%", s[0][0]))?;
    }
    Ok("the last window's hit rate is above the first window's".into())
}

/// Table 4: the paper's limits {10K, 100K, 1M, 3M}, scaled with |E|. Paper:
/// jodie-lastfm, whose working set exceeds the small limits, slows sharply
/// at them (153 s -> 89 s), snap-msg barely changes (5.26 s -> 4.04 s), and
/// memory grows with the limit until every unique embedding fits.
fn table4(args: &ExpArgs, ds: &Dataset, params: &TgatParams) -> Vec<Row> {
    let mut rows = Vec::new();
    for (paper, label) in [(10_000, "10K"), (100_000, "100K"), (1_000_000, "1M"), (3_000_000, "3M")]
    {
        #[expect(clippy::cast_possible_truncation, reason = "scaled cache limit is a small non-negative count")]
        let limit = ((f64::from(paper) * args.scale).round() as usize).max(16);
        let opt = OptConfig::all().with_cache_limit(limit);
        let runs: Vec<_> =
            (0..args.runs).map(|_| replay(ds, params, opt, args.batch_size, false)).collect();
        let mean = mean_std(&runs.iter().map(|r| r.seconds).collect::<Vec<_>>()).0;
        let (bytes, items) = runs.last().map_or((0, 0), |r| (r.cache_bytes, r.cache_items));
        rows.push(vec![
            ds.name.clone(),
            limit.to_string(),
            label.into(),
            format!("{mean:.3}"),
            fmt_mib(bytes),
            items.to_string(),
        ]);
    }
    rows
}

fn check_table4(tables: &[Vec<Row>]) -> Check {
    let mut penalty = String::new();
    for s in series(tables) {
        for w in s.windows(2) {
            let grows = num(&w[1][4]) >= num(&w[0][4]) && num(&w[1][5]) >= num(&w[0][5]);
            ensure(grows, format!("{}: items or memory fall at limit {}", w[1][0], w[1][1]))?;
        }
        let ([first, ..], [.., prev, last]) = (s, s) else { continue };
        if s[0][0] == "snap-msg" {
            ensure(prev[5] == last[5], format!("snap-msg: {} items, then {}", prev[5], last[5]))?;
        } else if s[0][0] == "jodie-lastfm" {
            let slowdown = num(&first[3]) / num(&last[3]);
            ensure(slowdown > 1.0, format!("jodie-lastfm: {slowdown:.2}x at the smallest limit"))?;
            penalty = format!("; lastfm is {slowdown:.2}x slower at the smallest limit");
        }
    }
    Ok(format!("items and memory never fall as the limit grows; msg saturates{penalty}"))
}

/// Table 5: the engine's exact cache traffic through a V100-class cost
/// model (`tgopt::devicesim`; there is no GPU here). Paper: host placement
/// keeps DtoD negligible (~0.2%); device placement is dominated by per-row
/// DtoD copies (62-75% of GPU activity).
fn table5(args: &ExpArgs, ds: &Dataset, params: &TgatParams) -> Vec<Row> {
    let opt = OptConfig::all().with_cache_limit(args.effective_cache_limit());
    let run = replay(ds, params, opt, args.batch_size, false);
    // Per-batch staged inputs: both feature gathers plus index arrays,
    // approximated by the batch's target count times a feature row.
    let inputs = (2 * args.batch_size * (params.cfg.dim + params.cfg.edge_dim) * 4) as u64;
    let ms = |s: f64| format!("{:.3}", 1e3 * s);
    [StorePolicy::Host, StorePolicy::Device]
        .into_iter()
        .map(|policy| {
            let ledger = simulate_transfers(
                &run.counters,
                policy,
                params.cfg.dim * 4,
                inputs,
                run.batches.len() as u64,
            );
            let (htod, dtoh, dtod) = CostModel::v100().times(&ledger);
            let share = pct(dtod / (htod + dtoh + dtod).max(1e-12));
            vec![ds.name.clone(), format!("{policy:?}"), ms(htod), ms(dtoh), ms(dtod), share]
        })
        .collect()
}

fn check_table5(tables: &[Vec<Row>]) -> Check {
    for r in tables.iter().flatten() {
        let holds = if r[1] == "Host" { num(&r[4]) == 0.0 } else { num(&r[5]) >= 90.0 };
        ensure(holds, format!("{} {}: DtoD {} ms, {} of transfer time", r[0], r[1], r[4], r[5]))?;
    }
    Ok("host placement has no DtoD; device placement spends >= 90% of transfer time in DtoD".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-made table from string rows.
    fn t<R: AsRef<[&'static str]>>(rows: &[R]) -> Vec<Row> {
        rows.iter().map(|r| r.as_ref().iter().map(|c| c.to_string()).collect()).collect()
    }

    /// `check` passes on `good` and fails on `bad`, each one recipe's table.
    fn pass_fail(check: fn(&[Vec<Row>]) -> Check, good: Vec<Row>, bad: Vec<Row>) {
        let ok = check(&[good]);
        assert!(ok.is_ok(), "{ok:?}");
        assert!(check(&[bad]).is_err());
    }

    #[test]
    fn recipes_write_exactly_the_committed_logs() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../logs");
        let mut committed: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let mut written: Vec<String> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.recipes)
            .map(|(log, _)| format!("{log}.txt"))
            .collect();
        committed.sort();
        written.sort();
        assert_eq!(written, committed);
        for (_, recipe) in EXPERIMENTS.iter().flat_map(|e| e.recipes) {
            ExpArgs::parse_from(recipe.split_whitespace().map(String::from));
        }
    }

    #[test]
    fn cells_parse_to_their_number() {
        assert_eq!(num("62.5%"), 62.5);
        assert_eq!(num("4.14x"), 4.14);
        assert_eq!(num("7.5MiB"), 7.5);
        assert_eq!(num("3.1e-7"), 3.1e-7);
        assert!(num("-").is_nan() && num("1.2s +/- 0.1s").is_nan());
    }

    #[test]
    fn table1_layers_fall_and_snap_exceeds_jodie_at_layer_2() {
        let good = t(&[["jodie-wiki", "98%", "74%", "4.4%"], ["snap-msg", "99%", "85%", "4.6%"]]);
        pass_fail(
            check_table1,
            good.clone(),
            t(&[["jodie-wiki", "98%", "74%", "4.6%"], ["snap-msg", "99%", "85%", "4.6%"]]),
        );
        pass_fail(check_table1, good, t(&[["snap-msg", "99%", "85%", "90%"]]));
    }

    #[test]
    fn table2_node_count_and_edge_dim_match_the_spec() {
        let row = ["snap-msg", "1899", "1899", "453", "1197", "59835", "100", "1.6e7", "1.1e9"];
        let mut wrong = row;
        wrong[6] = "32";
        pass_fail(check_table2, t(&[row]), t(&[wrong]));
    }

    #[test]
    fn fig3_ratio_never_falls_and_crosses_over_at_20_neighbors() {
        let run =
            |k, ratios: [&'static str; 3]| t(&ratios.map(|r| ["snap-msg", k, "1e7", "1", "1", r]));
        let k10 = run("10", ["0.61", "0.82", "1.05"]);
        assert!(check_fig3(&[k10, run("20", ["0.88", "1.26", "2.60"])]).is_ok());
        assert!(check_fig3(&[run("20", ["0.88", "0.95", "2.60"])]).is_err());
        assert!(check_fig3(&[run("10", ["0.88", "1.26", "1.20"])]).is_err());
    }

    #[test]
    fn fig4_window_holds_more_lastfm_than_msg_deltas() {
        let row = |name, window| {
            let mut r = vec![name, "100"];
            r.extend(["10.0%"; 10]);
            r.push(window);
            t(&[r])
        };
        assert!(check_fig4(&[row("snap-msg", "5.3%"), row("jodie-lastfm", "33.4%")]).is_ok());
        assert!(check_fig4(&[row("snap-msg", "33.4%"), row("jodie-lastfm", "5.3%")]).is_err());
        assert!(check_fig4(&[row("snap-msg", "5.3%")]).is_err());
    }

    #[test]
    fn fig5_every_speedup_at_least_2x_with_checksums_agreeing() {
        let good = t(&[["jodie-wiki", "3149", "1s", "0.2s", "5.00x", "3.1e-7"]]);
        pass_fail(
            check_fig5,
            good.clone(),
            t(&[["jodie-wiki", "3149", "1s", "0.6s", "1.67x", "3.1e-7"]]),
        );
        pass_fail(check_fig5, good, t(&[["jodie-wiki", "3149", "1s", "0.2s", "5.00x", "2.0e-3"]]));
    }

    #[test]
    fn fig6_every_stage_beats_the_baseline() {
        let run = |dedup| {
            t(&[
                ["snap-msg", "baseline", "2s", "1.00x"],
                ["snap-msg", "cache", "1s", "2.00x"],
                ["snap-msg", "cache+dedup", "0.5s", dedup],
                ["snap-msg", "all (+time)", "0.6s", "3.33x"],
                ["snap-msg", "all (+edge proj)", "0.5s", "4.00x"],
            ])
        };
        pass_fail(check_fig6, run("4.00x"), run("0.90x"));
    }

    #[test]
    fn table3_overhead_stays_below_the_attention_it_removes() {
        let run = |attention| {
            let mut rows =
                ["DedupFilter", "DedupInvert", "ComputeKeys", "CacheLookup", "CacheStore"]
                    .map(|op| ["jodie-lastfm", op, "0.000", "0.020"])
                    .to_vec();
            rows.push(["jodie-lastfm", "attention M", "1.000", attention]);
            t(&rows)
        };
        pass_fail(check_table3, run("0.500"), run("0.950"));
    }

    #[test]
    fn fig7_hit_rate_ends_above_where_it_starts() {
        pass_fail(
            check_fig7,
            t(&[["snap-msg", "1", "0.0%"], ["snap-msg", "90", "73.4%"]]),
            t(&[["snap-msg", "1", "50.0%"], ["snap-msg", "90", "40.0%"]]),
        );
    }

    #[test]
    fn table4_memory_grows_msg_saturates_lastfm_pays_at_small_limits() {
        let good = [
            ["jodie-lastfm", "500", "10K", "30.000", "0.1MiB", "500"],
            ["jodie-lastfm", "150000", "3M", "10.000", "17.5MiB", "143133"],
            ["snap-msg", "50000", "1M", "0.400", "0.8MiB", "6559"],
            ["snap-msg", "150000", "3M", "0.400", "0.8MiB", "6559"],
        ];
        for (row, col, cell) in [(1, 5, "400"), (1, 4, "0.0MiB"), (3, 5, "6600"), (0, 3, "9.000")] {
            let mut bad = good;
            bad[row][col] = cell;
            pass_fail(check_table4, t(&good), t(&bad));
        }
    }

    #[test]
    fn table5_host_has_no_dtod_and_device_is_dominated_by_it() {
        let good = t(&[
            ["snap-msg", "Host", "0.600", "0.200", "0.000", "0.0%"],
            ["snap-msg", "Device", "0.400", "0.000", "118.300", "99.7%"],
        ]);
        pass_fail(
            check_table5,
            good.clone(),
            t(&[["snap-msg", "Host", "0.600", "0.200", "0.010", "1.2%"]]),
        );
        pass_fail(
            check_table5,
            good,
            t(&[["snap-msg", "Device", "9.000", "0.000", "1.000", "10.0%"]]),
        );
    }
}
