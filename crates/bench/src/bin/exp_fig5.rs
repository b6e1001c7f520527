//! **Figure 5** — end-to-end inference runtime, baseline vs TGOpt, across
//! all datasets, averaged over `--runs` repetitions; bar labels are TGOpt's
//! speedup, and the geomean speedup is reported at the end (paper: 4.9x on
//! the CPU server; this reproduction is CPU-only, see DESIGN.md).

use tg_bench::harness::{self, geomean, mean_std};
use tg_bench::{replay, table, ExpArgs};
use tgopt::OptConfig;

fn main() {
    let args = ExpArgs::parse();
    println!(
        "Figure 5: inference runtime, {} run(s), scale {}, dim {}, {} neighbors\n",
        args.runs, args.scale, args.dim, args.n_neighbors
    );
    let opt = OptConfig::all().with_cache_limit(args.effective_cache_limit());
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut names = Vec::new();
    for spec in tg_datasets::all_specs() {
        if !args.selects(spec.name) {
            continue;
        }
        let ds = harness::dataset_for(&args, spec.name);
        let params = harness::params_for(&args, &ds);
        let mut base_times = Vec::new();
        let mut opt_times = Vec::new();
        let mut checks = (0.0f64, 0.0f64);
        for _ in 0..args.runs {
            let b = replay(&ds, &params, OptConfig::none(), args.batch_size, false);
            let o = replay(&ds, &params, opt, args.batch_size, false);
            base_times.push(b.seconds);
            opt_times.push(o.seconds);
            checks = (b.checksum, o.checksum);
        }
        let (bm, bs) = mean_std(&base_times);
        let (om, os) = mean_std(&opt_times);
        let speedup = bm / om.max(1e-12);
        let drift = (checks.0 - checks.1).abs() / checks.0.abs().max(1.0);
        assert!(
            drift < 1e-3,
            "{}: engines disagree (checksum drift {drift:.2e})",
            spec.name
        );
        speedups.push(speedup);
        names.push(spec.name.to_string());
        rows.push(vec![
            spec.name.to_string(),
            format!("{}", ds.stream.len()),
            format!("{} +/- {}", table::fmt_secs(bm), table::fmt_secs(bs)),
            format!("{} +/- {}", table::fmt_secs(om), table::fmt_secs(os)),
            format!("{speedup:.2}x"),
        ]);
        eprintln!("  done {}", spec.name);
    }
    println!(
        "{}",
        table::render(&["dataset", "|E|", "baseline", "tgopt", "speedup"], &rows)
    );
    let csv_rows: Vec<Vec<String>> = names
        .iter()
        .zip(&speedups)
        .map(|(n, s)| vec![n.clone(), format!("{s:.4}")])
        .collect();
    if let Ok(path) = tg_bench::csv::write_csv("fig5-speedups", &["dataset", "speedup"], &csv_rows) {
        eprintln!("wrote {}", path.display());
    }
    println!("{}", table::bar_series("speedup over baseline", &names, &speedups, 40));
    println!("geomean speedup: {:.2}x (paper CPU: 4.9x, GPU: 2.9x)", geomean(&speedups));
}
