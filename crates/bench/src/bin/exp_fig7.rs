//! **Figure 7** — evolution of TGOpt's cache hit rate over batches, averaged
//! over a sliding window of the last 10 batches (paper: jodie-lastfm and
//! snap-msg; the rate passes ~80% early and keeps climbing).

use tg_bench::{harness, replay, table, ExpArgs};
use tgopt::OptConfig;

fn main() {
    let mut args = ExpArgs::parse();
    if args.datasets.is_empty() {
        args.datasets = vec!["jodie-lastfm".into(), "snap-msg".into()];
    }
    println!("Figure 7: cache hit-rate evolution (10-batch sliding window), scale {}\n", args.scale);
    let opt = OptConfig::all().with_cache_limit(args.effective_cache_limit());
    for spec in tg_datasets::all_specs() {
        if !args.selects(spec.name) {
            continue;
        }
        let ds = harness::dataset_for(&args, spec.name);
        let params = harness::params_for(&args, &ds);
        let run = replay(&ds, &params, opt, args.batch_size, false);

        const WINDOW: usize = 10;
        let mut series = Vec::new();
        for (i, _) in run.batches.iter().enumerate() {
            let lo = i.saturating_sub(WINDOW - 1);
            let (mut hits, mut lookups) = (0u64, 0u64);
            for b in &run.batches[lo..=i] {
                hits += b.hits;
                lookups += b.lookups;
            }
            let rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
            series.push(rate);
        }
        // Print ~20 evenly spaced points of the series.
        let n = series.len().max(1);
        let step = (n / 20).max(1);
        let mut labels = Vec::new();
        let mut values = Vec::new();
        for i in (0..n).step_by(step) {
            labels.push(format!("batch {:>4}", i + 1));
            values.push(100.0 * series[i]);
        }
        if (n - 1) % step != 0 {
            labels.push(format!("batch {:>4}", n));
            values.push(100.0 * series[n - 1]);
        }
        // Artifact parity: logs/<prefix>-<dataset>-hits.csv with one row
        // per batch (batch index, sliding-window hit rate).
        let csv_rows: Vec<Vec<String>> = series
            .iter()
            .enumerate()
            .map(|(i, r)| vec![(i + 1).to_string(), format!("{r:.6}")])
            .collect();
        if let Ok(path) = tg_bench::csv::write_csv(
            &format!("fig7-{}-hits", spec.name),
            &["batch", "hit_rate"],
            &csv_rows,
        ) {
            eprintln!("  wrote {}", path.display());
        }
        println!("{}:", spec.name);
        println!("{}", table::bar_series("hit rate % (sliding window of 10)", &labels, &values, 40));
        println!(
            "  overall average hit rate {:.2}% (paper: 90.94% lastfm, 85.85% msg at full scale)\n",
            100.0 * run.counters.hit_rate()
        );
    }
}
