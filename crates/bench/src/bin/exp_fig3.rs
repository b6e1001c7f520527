//! **Figure 3** — embeddings reused vs recomputed over a dataset's temporal
//! evolution (paper: snap-msg; cumulative counts against edge timestamps).
//!
//! The unbounded-reuse trend is measured with an effectively infinite cache,
//! matching the paper's analysis setting.

use tg_bench::{harness, replay, table, ExpArgs};
use tgopt::OptConfig;

fn main() {
    let mut args = ExpArgs::parse();
    if args.datasets.is_empty() {
        args.datasets = vec!["snap-msg".into()];
    }
    // The analysis dataset is small; default to a larger slice of it.
    if args.scale <= 0.02 {
        args.scale = 0.2;
    }
    println!("Figure 3: reuse vs recompute over time, scale {}, dim {}\n", args.scale, args.dim);
    let opt = OptConfig::all().with_cache_limit(usize::MAX / 2);
    for spec in tg_datasets::all_specs() {
        if !args.selects(spec.name) {
            continue;
        }
        let ds = harness::dataset_for(&args, spec.name);
        let params = harness::params_for(&args, &ds);
        let run = replay(&ds, &params, opt, args.batch_size, false);

        // Bucket batches into ~16 time points of cumulative counts.
        let nb = run.batches.len().max(1);
        let buckets = 16.min(nb);
        let mut rows = Vec::new();
        let mut reused_cum = 0u64;
        let mut recomputed_cum = 0u64;
        let mut next = nb / buckets;
        let mut peak_ratio = 0.0f64;
        for (i, b) in run.batches.iter().enumerate() {
            reused_cum += b.hits;
            recomputed_cum += b.recomputed;
            let ratio = reused_cum as f64 / recomputed_cum.max(1) as f64;
            peak_ratio = peak_ratio.max(ratio);
            if i + 1 >= next || i + 1 == nb {
                rows.push(vec![
                    format!("{:.2e}", b.time),
                    format!("{reused_cum}"),
                    format!("{recomputed_cum}"),
                    format!("{ratio:.2}"),
                ]);
                next += nb / buckets;
            }
        }
        println!("{}:", spec.name);
        println!(
            "{}",
            table::render(&["time t", "reused (cum)", "recomputed (cum)", "reuse ratio"], &rows)
        );
        let total = reused_cum + recomputed_cum;
        println!(
            "  final reuse share: {:.1}% of {} embeddings (paper snap-msg peak: 89.9%, ~8.9:1)\n",
            100.0 * reused_cum as f64 / total.max(1) as f64,
            total
        );
        println!("  peak reuse:recompute ratio {:.1}:1", peak_ratio);
    }
}
