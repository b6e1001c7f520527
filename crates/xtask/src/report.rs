//! Finding renderers: human text and machine-readable JSON.
//!
//! The JSON writer is hand-rolled (std-only crate) and emits a stable
//! shape for CI consumption:
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "files_checked": 30,
//!   "count": 1,
//!   "findings": [
//!     {"lint": "panic-reach", "file": "crates/core/src/cache.rs", "line": 7,
//!      "message": "..."}
//!   ]
//! }
//! ```
//!
//! The shape is frozen behind [`SCHEMA_VERSION`] and the field-path
//! golden `tests/golden/lint_schema.txt` (see `tests/lint_schema.rs`):
//! adding, removing, or renaming a field fails the gate until the golden
//! is regenerated *and* the version is bumped. The `effects.lock` text
//! format has its own version, [`crate::effects::LOCK_SCHEMA`].

use crate::LintReport;

/// Version of the `lint --format json` report shape. Bump on any change
/// to the field set in [`schema_paths`].
pub const SCHEMA_VERSION: u32 = 3;

/// The sorted field-path fingerprint of the lint report JSON — the same
/// `path: type` convention `tg_telemetry::schema_paths` uses, kept static
/// here because the report writer itself is static (no serde).
pub fn schema_paths() -> Vec<&'static str> {
    vec![
        "count: number",
        "files_checked: number",
        "findings[].file: string",
        "findings[].line: number",
        "findings[].lint: string",
        "findings[].message: string",
        "schema_version: number",
    ]
}

/// Human-readable report, one `file:line: [lint] message` per finding.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!("{}:{}: [{}] {}\n", f.file, f.line, f.lint.name(), f.message));
    }
    out.push_str(&format!(
        "lint: {} finding(s) in {} file(s) checked\n",
        report.findings.len(),
        report.files_checked
    ));
    out
}

/// Machine-readable report.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"schema_version\":{SCHEMA_VERSION},"));
    out.push_str(&format!("\"files_checked\":{},", report.files_checked));
    out.push_str(&format!("\"count\":{},", report.findings.len()));
    out.push_str("\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"lint\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_string(f.lint.name()),
            json_string(&f.file),
            f.line,
            json_string(&f.message),
        ));
    }
    out.push_str("]}");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Lint};

    fn sample() -> LintReport {
        LintReport {
            findings: vec![Finding {
                lint: Lint::PanicReach,
                file: "crates/core/src/cache.rs".to_string(),
                line: 7,
                message: "a \"quoted\" message".to_string(),
            }],
            files_checked: 3,
        }
    }

    #[test]
    fn text_report_lists_file_line_and_lint() {
        let text = render_text(&sample());
        assert!(text.contains("crates/core/src/cache.rs:7: [panic-reach]"));
        assert!(text.contains("1 finding(s) in 3 file(s)"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let json = render_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"line\":7"));
    }

    #[test]
    fn empty_report_is_valid_json() {
        let json = render_json(&LintReport { findings: vec![], files_checked: 0 });
        assert_eq!(
            json,
            format!(
                "{{\"schema_version\":{SCHEMA_VERSION},\
                 \"files_checked\":0,\"count\":0,\"findings\":[]}}"
            )
        );
    }

    #[test]
    fn schema_paths_are_sorted_and_cover_the_rendered_fields() {
        let paths = schema_paths();
        let mut sorted = paths.clone();
        sorted.sort_unstable();
        assert_eq!(paths, sorted, "schema_paths must stay sorted");
        // Every key the renderer writes appears in the fingerprint.
        let json = render_json(&sample());
        for path in &paths {
            let key = path
                .split(':')
                .next()
                .unwrap_or(path)
                .trim()
                .rsplit('.')
                .next()
                .unwrap_or(path)
                .trim_end_matches("[]");
            assert!(
                json.contains(&format!("\"{key}\":")),
                "schema path {path} has no key {key} in the rendered JSON"
            );
        }
    }
}
