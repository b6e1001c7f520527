//! **Table 5** — data-movement cost of storing the cache on host vs device
//! memory in a GPU deployment. Reproduced without a GPU by replaying the
//! engine's exact cache traffic through a V100-class transfer cost model
//! (see `tgopt::devicesim` and the substitution note in DESIGN.md).

use tg_bench::{harness, replay, table, ExpArgs};
use tgopt::devicesim::{simulate_transfers, CostModel, StorePolicy, TransferLedger};
use tgopt::OptConfig;

fn main() {
    let mut args = ExpArgs::parse();
    if args.datasets.is_empty() {
        args.datasets = vec!["jodie-lastfm".into(), "snap-msg".into()];
    }
    println!(
        "Table 5: simulated CUDA memcpy time by cache placement, scale {}, dim {}\n",
        args.scale, args.dim
    );
    let model = CostModel::v100();
    let opt = OptConfig::all().with_cache_limit(args.effective_cache_limit());
    let mut rows = Vec::new();
    for spec in tg_datasets::all_specs() {
        if !args.selects(spec.name) {
            continue;
        }
        let ds = harness::dataset_for(&args, spec.name);
        let params = harness::params_for(&args, &ds);
        let run = replay(&ds, &params, opt, args.batch_size, false);

        let row_bytes = params.cfg.dim * 4;
        // Per-batch staged inputs: both feature gathers plus index arrays,
        // approximated by the batch's target count times a feature row.
        let batch_inputs =
            (2 * args.batch_size * (params.cfg.dim + params.cfg.edge_dim) * 4) as u64;
        let num_batches = run.batches.len() as u64;
        for policy in [StorePolicy::Host, StorePolicy::Device] {
            let ledger: TransferLedger =
                simulate_transfers(&run.counters, policy, row_bytes, batch_inputs, num_batches);
            let (htod, dtoh, dtod) = model.times(&ledger);
            let total = htod + dtoh + dtod;
            let pct =
                |x: f64| format!("{} ({:.1}%)", table::fmt_secs(x), 100.0 * x / total.max(1e-12));
            rows.push(vec![
                spec.name.to_string(),
                format!("{policy:?}"),
                pct(htod),
                pct(dtoh),
                pct(dtod),
            ]);
        }
    }
    println!(
        "{}",
        table::render(&["dataset", "cache on", "HtoD", "DtoH", "DtoD"], &rows)
    );
    println!("Paper shape: host placement keeps DtoD negligible (~0.2%), device placement\nis dominated by DtoD small copies (62-75% of GPU activity).");
}
