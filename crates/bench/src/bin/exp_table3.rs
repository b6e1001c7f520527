//! **Table 3** — per-operation runtime breakdown of Algorithm 1 for the
//! baseline and TGOpt, plus average cache hit rate and used cache size, on
//! the two representative datasets.

use tg_bench::{harness, replay, table, ExpArgs};
use tgat::OpKind;
use tgopt::OptConfig;

fn main() {
    let mut args = ExpArgs::parse();
    if args.datasets.is_empty() {
        args.datasets = vec!["jodie-lastfm".into(), "snap-msg".into()];
    }
    println!(
        "Table 3: operation breakdown, scale {}, dim {}, {} neighbors\n",
        args.scale, args.dim, args.n_neighbors
    );
    let opt = OptConfig::all().with_cache_limit(args.effective_cache_limit());
    for spec in tg_datasets::all_specs() {
        if !args.selects(spec.name) {
            continue;
        }
        let ds = harness::dataset_for(&args, spec.name);
        let params = harness::params_for(&args, &ds);
        let base = replay(&ds, &params, OptConfig::none(), args.batch_size, true);
        let ours = replay(&ds, &params, opt, args.batch_size, true);

        let mut rows = Vec::new();
        for kind in OpKind::ALL {
            let b = base.stats.total(kind).as_secs_f64();
            let o = ours.stats.total(kind).as_secs_f64();
            let cell = |v: f64| if v == 0.0 { "-".to_string() } else { format!("{v:.3}") };
            rows.push(vec![kind.label().to_string(), cell(b), cell(o)]);
        }
        println!("{}:", spec.name);
        println!("{}", table::render(&["operation (secs)", "base", "ours"], &rows));
        println!(
            "  total runtime      base {}  ours {}  ({:.2}x)",
            table::fmt_secs(base.seconds),
            table::fmt_secs(ours.seconds),
            base.seconds / ours.seconds.max(1e-12)
        );
        println!("  average hit rate   {:.2}%", 100.0 * ours.counters.hit_rate());
        println!(
            "  used cache size    {} ({} items)\n",
            table::fmt_mib(ours.cache_bytes),
            ours.cache_items
        );
    }
    println!("Paper shape (CPU): attention M and TimeEncode(dt) dominate the baseline;\nTGOpt removes most of both and most of NghLookup, at small dedup/cache cost.\nHit rates: ~90.9% (jodie-lastfm), ~85.9% (snap-msg).");
}
