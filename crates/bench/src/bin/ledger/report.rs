//! What a workload reports, how it is printed, and the contract file
//! (`BENCHMARK.json`) the names are checked against.

use crate::stats::Summary;
use crate::world::Provenance;
use crate::Res;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

/// `BENCHMARK.json` as committed at the repository root, compiled in so the
/// binary and the contract it is checked against cannot drift apart.
pub const CONTRACT_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// An end-to-end metric of one workload: the median over repetitions or
/// samples, with the inter-quartile range and sample count beside it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub median: f64,
    pub iqr: f64,
    pub samples: u64,
}

/// A per-layer metric of one workload (from the traced pass).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Layer {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Attempted and failed operation counts of one phase.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PhaseCount {
    pub phase: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
}

/// One correctness check against an oracle.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Check {
    pub check: String,
    pub rows: u64,
    pub max_abs_diff: f64,
    pub passed: bool,
}

/// Everything one workload process measured in one pass.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WorkloadReport {
    pub workload: String,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<Layer>,
    pub phases: Vec<PhaseCount>,
    pub checks: Vec<Check>,
    /// Context for the end-to-end metrics, not gated by anything: the host
    /// slowdown factor and the values it was applied to, as measured.
    pub notes: Vec<Layer>,
}

impl WorkloadReport {
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_string(),
            ..Self::default()
        }
    }

    pub fn put_e2e(&mut self, name: &str, unit: &str, s: Summary) {
        self.end_to_end.push(EndToEnd {
            name: name.to_string(),
            unit: unit.to_string(),
            median: s.median,
            iqr: s.iqr,
            samples: s.samples,
        });
    }

    pub fn put_layer(&mut self, name: &str, unit: &str, value: f64) {
        self.per_layer.push(Layer {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        });
    }

    pub fn put_note(&mut self, name: &str, unit: &str, value: f64) {
        self.notes.push(Layer {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        });
    }

    pub fn put_phase(&mut self, phase: &str, ops_attempted: u64, ops_failed: u64) {
        self.phases.push(PhaseCount {
            phase: phase.to_string(),
            ops_attempted,
            ops_failed,
        });
    }

    /// Records a check; `tolerance` is the largest accepted deviation.
    pub fn put_check(&mut self, check: &str, rows: u64, max_abs_diff: f64, tolerance: f64) {
        self.checks.push(Check {
            check: check.to_string(),
            rows,
            max_abs_diff,
            passed: rows > 0 && max_abs_diff <= tolerance,
        });
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.ops_attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.ops_failed).sum()
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    pub fn e2e_median(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.median)
    }

    /// Every metric by name, with its unit, one per line.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = format!("[{}]\n", self.workload);
        // Writing into a String cannot fail.
        for m in &self.end_to_end {
            let _ = writeln!(
                out,
                "  {:<24} {:>14.4} {:<7} iqr {:<12.4} n {}",
                m.name, m.median, m.unit, m.iqr, m.samples
            );
        }
        for m in self.notes.iter().chain(&self.per_layer) {
            let _ = writeln!(out, "  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  phase {:<20} ops_attempted {:>8}  ops_failed {}",
                p.phase, p.ops_attempted, p.ops_failed
            );
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  check {:<44} rows {:>6}  max |diff| {:.3e}  {}",
                c.check,
                c.rows,
                c.max_abs_diff,
                if c.passed { "ok" } else { "MISMATCH" }
            );
        }
        out
    }
}

/// One pass over all four workloads: untraced numbers merged with the
/// traced pass's per-layer numbers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LedgerRun {
    pub workloads: Vec<WorkloadReport>,
}

/// The ledger's output file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LedgerFile {
    pub provenance: Provenance,
    pub runs: Vec<LedgerRun>,
}

/// A JSON document as a bare value tree, for the files whose shape is not
/// the ledger's own (`BENCHMARK.json`, the driver's result line).
pub struct Json(pub Value);

impl Serialize for Json {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.0.clone())
    }
}

impl<'de> Deserialize<'de> for Json {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.take_value().map(Json)
    }
}

fn field<'v>(value: &'v Value, name: &str) -> Option<&'v Value> {
    match value {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn text(value: &Value, name: &str) -> Option<String> {
    match field(value, name) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn number(value: &Value, name: &str) -> Option<f64> {
    match field(value, name) {
        Some(Value::F64(v)) => Some(*v),
        Some(Value::U64(v)) => Some(*v as f64),
        Some(Value::I64(v)) => Some(*v as f64),
        _ => None,
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the ledger itself relies on.
#[derive(Clone, Debug)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn declared_list(root: &Value, key: &str) -> Res<Vec<Declared>> {
    let Some(Value::Seq(items)) = field(root, key) else {
        return Err(format!("BENCHMARK.json: `{key}` is not a list"));
    };
    items
        .iter()
        .map(|item| {
            let name = text(item, "name")
                .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry has no name"))?;
            let unit = text(item, "unit")
                .ok_or_else(|| format!("BENCHMARK.json: `{name}` has no unit"))?;
            let better = text(item, "better")
                .ok_or_else(|| format!("BENCHMARK.json: `{name}` has no direction"))?;
            Ok(Declared {
                name,
                unit,
                higher_is_better: better == "higher",
                bound: number(item, "bound"),
            })
        })
        .collect()
}

impl Contract {
    pub fn parse(json: &str) -> Res<Self> {
        let Json(root) = serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let Some(Value::Seq(workloads)) = field(&root, "workloads") else {
            return Err("BENCHMARK.json: `workloads` is not a list".to_string());
        };
        let workloads = workloads
            .iter()
            .map(|w| match (text(w, "name"), text(w, "why")) {
                (Some(name), Some(why)) => Ok((name, why)),
                _ => Err("BENCHMARK.json: a workload lacks `name` or `why`".to_string()),
            })
            .collect::<Res<Vec<_>>>()?;
        Ok(Self {
            run_seconds: number(&root, "run_seconds").ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads,
            end_to_end: declared_list(&root, "end_to_end")?,
            per_layer: declared_list(&root, "per_layer")?,
        })
    }

    /// The committed contract.
    pub fn committed() -> Res<Self> {
        Self::parse(CONTRACT_JSON)
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the last holding every declared metric of the requested kind.
///
/// The contract wants every end-to-end metric from every workload, while
/// two of the six exist only where there is a latency limit or a write. On
/// a workload without one, `write_p50_us` repeats that workload's
/// `op_p50_us` and `within_limit_share` is the share of operations that
/// returned at all, so such a line can never raise a verdict the workload's
/// own metrics would not. A per-layer metric the workload never passes
/// through reads 0.
pub fn driver_line(report: &WorkloadReport, contract: &Contract, traced: bool) -> Res<String> {
    let mut metrics: Vec<(String, Value)> = Vec::new();
    let mut push = |name: &str, unit: &str, value: f64| {
        metrics.push((
            name.to_string(),
            Value::Map(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]),
        ));
    };
    if traced {
        for d in &contract.per_layer {
            let value = report
                .per_layer
                .iter()
                .find(|m| m.name == d.name)
                .map_or(0.0, |m| m.value);
            push(&d.name, &d.unit, value);
        }
    } else {
        let attempted = report.attempted().max(1) as f64;
        let returned = 1.0 - report.failed() as f64 / attempted;
        for d in &contract.end_to_end {
            let value = match report.e2e_median(&d.name) {
                Some(v) => v,
                None if d.name == "within_limit_share" => returned,
                None => report.e2e_median("op_p50_us").ok_or_else(|| {
                    format!(
                        "{}: no op_p50_us to stand in for {}",
                        report.workload, d.name
                    )
                })?,
            };
            push(&d.name, &d.unit, value);
        }
    }
    let line = Json(Value::Map(vec![
        ("correct".to_string(), Value::Bool(report.correct())),
        (
            "attempted".to_string(),
            Value::U64(report.attempted().max(1)),
        ),
        ("failed".to_string(), Value::U64(report.failed())),
        ("metrics".to_string(), Value::Map(metrics)),
    ]));
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// Indents compact JSON two spaces per level (strings are left alone).
pub fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                if matches!(chars.peek(), Some('}') | Some(']')) {
                    continue;
                }
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                if !out.ends_with(['{', '[']) {
                    depth = depth.saturating_sub(1);
                    newline(&mut out, depth);
                }
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_is_well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn committed_contract_parses_and_names_are_well_formed_and_unique() {
        let c = Contract::committed().unwrap();
        assert_eq!(c.workloads.len(), 4);
        assert_eq!(c.end_to_end.len(), 6);
        let mut names: Vec<&str> = c.workloads.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(
            c.end_to_end
                .iter()
                .chain(&c.per_layer)
                .map(|d| d.name.as_str()),
        );
        for n in &names {
            assert!(name_is_well_formed(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is declared twice");
        for d in &c.end_to_end {
            let bound = d.bound.unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
        let setup = c.end_to_end.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    }

    #[test]
    fn every_emitted_name_is_declared() {
        let c = Contract::committed().unwrap();
        let workloads: Vec<&str> = c.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for (name, unit) in crate::END_TO_END {
            let d = c.end_to_end.iter().find(|d| d.name == *name);
            assert_eq!(
                d.map(|d| d.unit.as_str()),
                Some(*unit),
                "end-to-end metric {name}"
            );
        }
        assert_eq!(c.end_to_end.len(), crate::END_TO_END.len());
        for (name, unit) in crate::PER_LAYER {
            let d = c.per_layer.iter().find(|d| d.name == *name);
            assert_eq!(
                d.map(|d| d.unit.as_str()),
                Some(*unit),
                "per-layer metric {name}"
            );
        }
        assert_eq!(c.per_layer.len(), crate::PER_LAYER.len());
    }

    #[test]
    fn driver_line_fills_every_declared_metric() {
        let c = Contract::committed().unwrap();
        let mut r = WorkloadReport::new("replay-noopt");
        r.put_phase("replay", 40, 0);
        r.put_check("self", 400, 0.0, 1e-5);
        for name in ["setup_s", "rows_per_s", "op_p50_us", "peak_rss_mb"] {
            r.put_e2e(name, "x", Summary::single(2.5));
        }
        let line = driver_line(&r, &c, false).unwrap();
        let Json(v) = serde_json::from_str(&line).unwrap();
        let Value::Map(top) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Map(metrics)) = field(&v, "metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), c.end_to_end.len());
        let m = field(&v, "metrics").unwrap();
        assert_eq!(
            number(field(m, "write_p50_us").unwrap(), "value"),
            Some(2.5)
        );
        assert_eq!(
            number(field(m, "within_limit_share").unwrap(), "value"),
            Some(1.0)
        );
        let traced = driver_line(&r, &c, true).unwrap();
        let Json(v) = serde_json::from_str(&traced).unwrap();
        let Some(Value::Map(metrics)) = field(&v, "metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), c.per_layer.len());
    }

    #[test]
    fn a_failed_check_makes_the_report_incorrect() {
        let mut r = WorkloadReport::new("w");
        assert!(!r.correct(), "no check at all is not a pass");
        r.put_check("a", 10, 1e-7, 1e-5);
        assert!(r.correct());
        r.put_check("b", 10, 1e-4, 1e-5);
        assert!(!r.correct());
    }

    #[test]
    fn pretty_printer_keeps_strings_intact() {
        let p = pretty(r#"{"a":[1,2],"b":"x,{y}","c":{},"d":[]}"#);
        assert!(p.contains("\"b\": \"x,{y}\""));
        assert!(p.contains("\"c\": {}"));
        assert!(p.contains("\"d\": []"));
        assert!(p.starts_with("{\n  \"a\": [\n    1,"));
    }
}
