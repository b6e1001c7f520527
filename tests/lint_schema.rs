//! Schema-drift gate for the `tg-xtask lint --format json` report.
//!
//! The hand-rolled JSON writer's shape is frozen behind
//! [`tg_xtask::SCHEMA_VERSION`]: the sorted field-path fingerprint
//! (`report::schema_paths` prefixed `report.`) must match the committed
//! golden file `tests/golden/lint_schema.txt` exactly, in both
//! directions — the same discipline `tests/telemetry_schema.rs` applies to
//! telemetry snapshots. A field added, removed, or renamed fails this
//! suite until the golden is regenerated *and* the schema version is
//! bumped:
//!
//! ```sh
//! UPDATE_LINT_GOLDEN=1 cargo test --test lint_schema
//! ```

use tg_xtask::{render_json, LintReport, SCHEMA_VERSION};

const GOLDEN: &str = include_str!("golden/lint_schema.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_schema.txt");

fn golden_lines() -> Vec<String> {
    GOLDEN
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// A report with at least one finding, so the `findings[]` element paths
/// are exercised by the renderer.
fn sample_report() -> LintReport {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/xtask/fixtures/l13_fail.rs"
    );
    let text = std::fs::read_to_string(fixture).expect("l13 fixture exists");
    let src = tg_xtask::SourceFile::parse("l13_fail.rs".to_string(), text);
    let scope = tg_xtask::Scope { lock_held: true, ..Default::default() };
    let findings = tg_xtask::lint_source(&src, scope);
    assert!(!findings.is_empty(), "l13 fail fixture must fire");
    LintReport { findings, files_checked: 1 }
}

/// The fingerprint: every lint-report path under `report.`, sorted.
fn fingerprint() -> Vec<String> {
    let mut out: Vec<String> =
        tg_xtask::report::schema_paths().iter().map(|p| format!("report.{p}")).collect();
    out.sort();
    out
}

#[test]
fn fingerprint_matches_committed_golden() {
    let actual = fingerprint();
    if std::env::var_os("UPDATE_LINT_GOLDEN").is_some() {
        let mut text = String::from(
            "# Field-path fingerprint of the lint JSON report (report.*), from\n\
             # report::schema_paths.\n\
             # Regenerate: UPDATE_LINT_GOLDEN=1 cargo test --test lint_schema\n\
             # Any diff here is a JSON schema change: bump tg_xtask SCHEMA_VERSION too.\n",
        );
        for path in &actual {
            text.push_str(path);
            text.push('\n');
        }
        std::fs::write(GOLDEN_PATH, text).expect("write golden");
        return;
    }
    let golden = golden_lines();
    let removed: Vec<&String> = golden.iter().filter(|p| !actual.contains(p)).collect();
    let added: Vec<&String> = actual.iter().filter(|p| !golden.contains(p)).collect();
    assert!(
        removed.is_empty() && added.is_empty(),
        "lint report schema drift detected.\n\
         paths in golden but missing from report: {removed:#?}\n\
         paths in report but not in golden: {added:#?}\n\
         If intentional: bump tg_xtask::SCHEMA_VERSION and regenerate with\n\
         UPDATE_LINT_GOLDEN=1 cargo test --test lint_schema"
    );
}

#[test]
fn golden_file_is_sorted_and_deduped() {
    if std::env::var_os("UPDATE_LINT_GOLDEN").is_some() {
        return; // being rewritten by the sibling test this run
    }
    let golden = golden_lines();
    assert!(!golden.is_empty(), "golden fingerprint must not be empty");
    let mut sorted = golden.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(golden, sorted, "golden file must stay sorted and duplicate-free");
}

/// The rendered JSON carries the current schema version first and contains
/// every key the fingerprint promises; the empty-report shape is exactly
/// the fingerprint's top-level key set, so an unfingerprinted key can't
/// slip into the writer unnoticed either.
#[test]
fn rendered_report_covers_the_fingerprint() {
    let json = render_json(&sample_report());
    assert!(
        json.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")),
        "schema_version must be the first emitted field: {json}"
    );
    for path in tg_xtask::report::schema_paths() {
        let (field, _ty) = path.split_once(':').expect("path: type convention");
        let key = field.trim().rsplit('.').next().expect("nonempty").trim_end_matches("[]");
        assert!(
            json.contains(&format!("\"{key}\":")),
            "fingerprinted key {key} (from {path}) missing in rendered JSON"
        );
    }
    // Reverse direction: the fully deterministic empty report must consist
    // of exactly the fingerprint's top-level keys, in writer order.
    let empty = render_json(&LintReport { findings: vec![], files_checked: 0 });
    assert_eq!(
        empty,
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"files_checked\":0,\"count\":0,\"findings\":[]}}"
        ),
        "empty report emits a key outside (or missing from) the frozen shape"
    );
    let top_level: Vec<&str> = tg_xtask::report::schema_paths()
        .iter()
        .map(|p| p.split(':').next().expect("path").trim())
        .map(|f| f.split(&['.', '['][..]).next().expect("segment"))
        .collect();
    for key in ["schema_version", "files_checked", "count", "findings"] {
        assert!(
            top_level.contains(&key),
            "writer key {key} is not fingerprinted in schema_paths"
        );
    }
}
