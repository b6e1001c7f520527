//! **Figure 6** — ablation study: accumulative speedup when enabling the
//! optimizations one at a time (cache -> +dedup -> +time precompute) on the
//! two representative datasets (paper: jodie-lastfm and snap-msg).

use tg_bench::harness::{self, mean_std};
use tg_bench::{replay, table, ExpArgs};
use tgopt::OptConfig;

fn main() {
    let mut args = ExpArgs::parse();
    if args.datasets.is_empty() {
        args.datasets = vec!["jodie-lastfm".into(), "snap-msg".into()];
    }
    println!(
        "Figure 6: accumulative ablation, {} run(s), scale {}, dim {}\n",
        args.runs, args.scale, args.dim
    );
    let stages: [(&str, OptConfig); 4] = [
        ("baseline", OptConfig::none()),
        ("cache", OptConfig::cache_only()),
        ("cache+dedup", OptConfig::cache_dedup()),
        ("all (+time)", OptConfig::all()),
    ];

    let mut rows = Vec::new();
    for spec in tg_datasets::all_specs() {
        if !args.selects(spec.name) {
            continue;
        }
        let ds = harness::dataset_for(&args, spec.name);
        let params = harness::params_for(&args, &ds);
        let mut base_mean = 0.0f64;
        let mut labels = Vec::new();
        let mut speeds = Vec::new();
        for (i, (label, cfg)) in stages.iter().enumerate() {
            let opt = cfg.with_cache_limit(args.effective_cache_limit());
            let times: Vec<f64> = (0..args.runs)
                .map(|_| replay(&ds, &params, opt, args.batch_size, false).seconds)
                .collect();
            let (mean, _) = mean_std(&times);
            if i == 0 {
                base_mean = mean;
            }
            let speedup = base_mean / mean.max(1e-12);
            labels.push(label.to_string());
            speeds.push(speedup);
            rows.push(vec![
                spec.name.to_string(),
                label.to_string(),
                table::fmt_secs(mean),
                format!("{speedup:.2}x"),
            ]);
        }
        println!(
            "{}",
            table::bar_series(&format!("{} accumulative speedup", spec.name), &labels, &speeds, 40)
        );
    }
    println!(
        "{}",
        table::render(&["dataset", "optimizations", "runtime", "speedup"], &rows)
    );
    println!("Paper shape (CPU): cache alone >=3x; +dedup slight gain; +time precompute a\nfurther boost, largest for the jodie-* datasets.");
}
