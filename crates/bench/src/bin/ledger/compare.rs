//! `ledger --compare A.json B.json`: do two sets of runs agree within the
//! bounds `BENCHMARK.json` fixes?
//!
//! One row per (workload, end-to-end metric): both medians, both
//! inter-quartile ranges (across the runs of each file), and a verdict.
//! A metric whose run-to-run spread is wider than its bound is reported as
//! `unresolved`, never as unchanged.

use crate::report::{Contract, Declared, LedgerFile};
use crate::stats::{summarize, Summary};
use crate::Res;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric given each side's median and spread over its
/// runs. With a single run a side has no run-to-run spread to report
/// (`iqr` 0), and the verdict rests on the medians alone.
pub fn verdict(metric: &Declared, a: Summary, b: Summary) -> Verdict {
    let bound = metric.bound.unwrap_or(0.1);
    let spread = |s: Summary| {
        if s.median == 0.0 {
            0.0
        } else {
            s.iqr / s.median.abs()
        }
    };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    if a.median == 0.0 {
        return if b.median == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let change = (b.median - a.median) / a.median.abs();
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Res<LedgerFile> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// A metric's median over the runs of one file, with the spread of the
/// per-run values; `None` when no run of the workload reports it.
fn across_runs(file: &LedgerFile, workload: &str, metric: &str) -> Option<Summary> {
    let mut values: Vec<f64> = file
        .runs
        .iter()
        .flat_map(|r| &r.workloads)
        .filter(|w| w.workload == workload)
        .filter_map(|w| w.e2e_median(metric))
        .collect();
    (!values.is_empty()).then(|| summarize(&mut values))
}

/// Prints the comparison; `Ok(false)` when any verdict is `worse`.
pub fn compare_files(a_path: &str, b_path: &str) -> Res<bool> {
    let contract = Contract::committed()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.provenance.schema_version != b.provenance.schema_version {
        return Err(format!(
            "schema versions differ: {} vs {}",
            a.provenance.schema_version, b.provenance.schema_version
        ));
    }
    println!(
        "A: {a_path} (seed {}, {} runs, git {})",
        a.provenance.seed,
        a.runs.len(),
        a.provenance.git_rev
    );
    println!(
        "B: {b_path} (seed {}, {} runs, git {})",
        b.provenance.seed,
        b.runs.len(),
        b.provenance.git_rev
    );
    println!(
        "{:<13} {:<19} {:>13} {:>11} {:>13} {:>11} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound"
    );
    let mut any_worse = false;
    for (workload, _) in &contract.workloads {
        for metric in &contract.end_to_end {
            let (Some(sa), Some(sb)) = (
                across_runs(&a, workload, &metric.name),
                across_runs(&b, workload, &metric.name),
            ) else {
                continue;
            };
            let v = verdict(metric, sa, sb);
            any_worse |= v == Verdict::Worse;
            let change = if sa.median == 0.0 {
                0.0
            } else {
                100.0 * (sb.median - sa.median) / sa.median.abs()
            };
            println!(
                "{:<13} {:<19} {:>13.4} {:>11.4} {:>13.4} {:>11.4} {:>+7.2}% {:>6.2}  {}",
                workload,
                metric.name,
                sa.median,
                sa.iqr,
                sb.median,
                sb.iqr,
                change,
                metric.bound.unwrap_or(0.1),
                v.label()
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Declared {
        Declared {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    fn s(median: f64, iqr: f64) -> Summary {
        Summary {
            median,
            iqr,
            samples: 5,
        }
    }

    #[test]
    fn lower_is_better_metrics_worsen_upward() {
        let m = metric(false);
        assert_eq!(verdict(&m, s(100.0, 1.0), s(105.0, 1.0)), Verdict::Same);
        assert_eq!(verdict(&m, s(100.0, 1.0), s(111.0, 1.0)), Verdict::Worse);
        assert_eq!(verdict(&m, s(100.0, 1.0), s(89.0, 1.0)), Verdict::Better);
    }

    #[test]
    fn higher_is_better_metrics_worsen_downward() {
        let m = metric(true);
        assert_eq!(verdict(&m, s(100.0, 1.0), s(89.0, 1.0)), Verdict::Worse);
        assert_eq!(verdict(&m, s(100.0, 1.0), s(111.0, 1.0)), Verdict::Better);
        assert_eq!(verdict(&m, s(100.0, 1.0), s(95.0, 1.0)), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let m = metric(false);
        assert_eq!(
            verdict(&m, s(100.0, 11.0), s(100.0, 1.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&m, s(100.0, 1.0), s(150.0, 16.0)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&m, s(0.0, 0.0), s(0.0, 0.0)), Verdict::Same);
    }
}
