//! `tg-xtask` — the workspace's static-analysis suite.
//!
//! Run as `cargo run -p tg-xtask -- lint` (text output) or
//! `cargo run -p tg-xtask -- lint --format json` (machine-readable, for
//! CI). The same entry point backs the repo's `tests/lint_gate.rs`, so
//! `cargo test` fails on any new violation.
//!
//! The analyzer is std-only and source-level: the build environment has no
//! registry access, and a lint gate must never be the part of the build
//! that breaks. See [`rules`] for what each lint enforces and
//! [`source`] for the lexical model that keeps patterns from matching
//! inside comments, strings, or `#[cfg(test)]` items.

pub mod callgraph;
pub mod effects;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod scopes;
pub mod source;

pub use callgraph::CallGraph;
pub use effects::EffectEngine;
pub use manifest::ConcurrencyManifest;
pub use report::{render_json, render_text, SCHEMA_VERSION};
pub use rules::{lint_source, lint_source_with, Finding, Lint, Scope};
pub use source::SourceFile;

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// The library crates on the inference path, whose `src/` and `tests/`
/// trees the walker lints. `tg-bench` is a harness and `tg-xtask`
/// analyzes rather than serves, so neither is listed.
pub const LIBRARY_CRATES: &[&str] = &[
    "crates/tensor",
    "crates/tgraph",
    "crates/tgat",
    "crates/core",
    "crates/datasets",
    "crates/serve",
    "crates/telemetry",
    "crates/error",
];

/// Harness directories — `examples/` and the bench binaries. Covered by
/// the concurrency and determinism lints and included in the call-graph
/// file set, but exempt from the file-list-gated L4/L8.
pub const HARNESS_DIRS: &[&str] = &["examples", "crates/bench/src/bin"];

/// Files holding shared cache state whose public mutators must document
/// `# Invariants` (L4).
pub const CACHE_STATE_FILES: &[&str] = &[
    "crates/core/src/cache.rs",
    "crates/core/src/fingerprint.rs",
    "crates/core/src/timecache.rs",
    "crates/core/src/persist.rs",
    "crates/serve/src/queue.rs",
    "crates/serve/src/stats.rs",
    "crates/tgraph/src/live.rs",
];

/// Files holding cache/serve accounting state whose counters must be read
/// through the `snapshot()`/`merge()` aggregation path (L8).
pub const COUNTER_FILES: &[&str] = &[
    "crates/core/src/cache.rs",
    "crates/core/src/engine.rs",
    "crates/serve/src/queue.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/stats.rs",
    "crates/telemetry/src/hist.rs",
    "crates/tgraph/src/live.rs",
];

/// Outcome of a whole-workspace lint run.
#[derive(Clone, Debug)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    pub files_checked: usize,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints every in-scope `.rs` file under `root` (the workspace root).
///
/// Coverage per crate in [`LIBRARY_CRATES`]:
///
/// * `src/` **including `src/bin/`** — full scope (L4 and L8 per the
///   file lists above, L6, L11 and L13's direct half everywhere).
/// * `tests/` — concurrency lints only (L6, L13's direct half): panics
///   are the harness's failure mechanism, but a guard held across a
///   blocking call deadlocks CI just as hard in a test.
/// * The root package's `tests/` (the workspace integration suite) gets
///   the same concurrency-only treatment.
///
/// Files reachable through two crate roots are linted once (paths are
/// canonicalized and deduped).
///
/// Whole-workspace passes run after the per-file pass has parsed
/// everything:
///
/// * **L13's transitive half and L14** — one [`effects::EffectEngine`]
///   spanning every non-test source (library `src/`, `examples/`, bench
///   binaries): SCC-condensed effect summaries power the guard-region
///   and reachability checks. Test files are deliberately excluded from
///   the graph: a test helper named like a library fn would otherwise
///   alias into its callers' summaries.
/// * **L16** — the engine's hot-path-root summaries are diffed against
///   the committed `effects.lock`; set `UPDATE_EFFECTS_LOCK=1` to
///   regenerate the lock instead of reporting drift.
/// * **L12** — `TgError` construction/matching coverage over *every*
///   parsed file, tests included (a test matching a variant is evidence
///   the variant is handled).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let manifest = manifest::load(root)?;
    let mut findings = Vec::new();
    let mut seen: BTreeSet<std::path::PathBuf> = BTreeSet::new();
    // Parsed once, reused by the whole-workspace passes below: sources in
    // the call-graph file set, and test sources (L12 only).
    let mut graph_sources: Vec<SourceFile> = Vec::new();
    let mut test_sources: Vec<SourceFile> = Vec::new();

    #[derive(Clone, Copy)]
    enum Kind {
        Src,
        Test,
        Harness,
    }
    let mut files: Vec<(Kind, std::path::PathBuf)> = Vec::new();
    let mut push_dir = |dir: std::path::PathBuf, kind: Kind| -> io::Result<()> {
        let mut found = Vec::new();
        collect_rs_files(&dir, &mut found)?;
        found.sort();
        files.extend(found.into_iter().map(|p| (kind, p)));
        Ok(())
    };
    for krate in LIBRARY_CRATES {
        push_dir(root.join(krate).join("src"), Kind::Src)?;
        push_dir(root.join(krate).join("tests"), Kind::Test)?;
    }
    push_dir(root.join("tests"), Kind::Test)?;
    for dir in HARNESS_DIRS {
        push_dir(root.join(dir), Kind::Harness)?;
    }

    for (kind, path) in files {
        let canonical = path.canonicalize().unwrap_or_else(|_| path.clone());
        if !seen.insert(canonical) {
            continue; // already linted via another crate root
        }
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let scope = match kind {
            Kind::Test => Scope { atomics: true, lock_held: true, ..Scope::default() },
            Kind::Src => Scope {
                invariants: CACHE_STATE_FILES.contains(&rel.as_str()),
                atomics: true,
                counters: COUNTER_FILES.contains(&rel.as_str()),
                lock_held: true,
                float_determinism: true,
                ..Scope::default()
            },
            Kind::Harness => {
                Scope { atomics: true, lock_held: true, float_determinism: true, ..Scope::default() }
            }
        };
        let src = SourceFile::parse(rel, std::fs::read_to_string(&path)?);
        findings.extend(rules::lint_file(&src, scope, &manifest));
        match kind {
            Kind::Test => test_sources.push(src),
            Kind::Src | Kind::Harness => graph_sources.push(src),
        }
    }

    // L13's transitive half and L14: one effect-inference pass over the
    // whole non-test file set (SCC-condensed summaries over the
    // workspace call graph).
    let engine = effects::EffectEngine::build(&graph_sources);
    findings.extend(engine.lint_lock_held(&manifest));
    findings.extend(engine.lint_deadline());

    // L16: hot-path-root summaries vs the committed effects.lock.
    let roots = engine.root_summaries();
    let lock_path = root.join(effects::LOCK_NAME);
    if std::env::var_os("UPDATE_EFFECTS_LOCK").is_some() {
        std::fs::write(&lock_path, effects::serialize_lock(&roots))?;
    } else {
        let committed = std::fs::read_to_string(&lock_path).ok();
        findings.extend(effects::check_drift(&roots, committed.as_deref()));
    }

    // L12: construction/matching coverage over everything, tests included.
    let all: Vec<&SourceFile> = graph_sources.iter().chain(test_sources.iter()).collect();
    findings.extend(rules::lint_error_coverage(&all));

    let files_checked = graph_sources.len() + test_sources.len();
    // Full-key sort so the report (and its JSON rendering) is a pure
    // function of the finding set, independent of lint execution order.
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.lint.name(), &a.message)
            .cmp(&(&b.file, b.line, b.lint.name(), &b.message))
    });
    findings.dedup();
    Ok(LintReport { findings, files_checked })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod scope_tests {
    use super::*;

    /// A scope list naming a path that is gone lints nothing there and
    /// says nothing about it, so every entry must exist.
    #[test]
    fn every_scoped_path_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let lists = [LIBRARY_CRATES, HARNESS_DIRS, CACHE_STATE_FILES, COUNTER_FILES];
        let missing: Vec<&str> = lists.iter().flat_map(|l| l.iter()).copied().filter(|p| !root.join(p).exists()).collect();
        assert!(missing.is_empty(), "scoped paths that do not exist: {missing:?}");
    }
}

#[cfg(test)]
mod fixture_tests {
    //! Self-tests over `fixtures/`: one passing and one violating example
    //! per lint, under the workspace's own `concurrency.toml`. The fail
    //! fixtures also pin *which* lines fire, so a rule that silently
    //! widens or narrows its matching breaks the build.

    use super::*;

    fn lint_fixture(name: &str, scope: Scope) -> Vec<Finding> {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(here.join("fixtures").join(name))
            .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
        let manifest = manifest::load(&here.join("../..")).expect("concurrency.toml parses");
        lint_source_with(&SourceFile::parse(name, text), scope, &manifest)
    }

    fn scope_for(lint: Lint) -> Scope {
        Scope {
            invariants: lint == Lint::MissingInvariants,
            atomics: lint == Lint::Atomics,
            counters: lint == Lint::UnguardedCounter,
            lock_held: lint == Lint::LockHeldEffects,
            deadline: lint == Lint::DeadlineSafety,
            float_determinism: lint == Lint::FloatDeterminism,
            error_coverage: lint == Lint::ErrorCoverage,
        }
    }

    /// `(fixture stem, lint, findings its fail fixture must produce)`.
    const PAIRS: &[(&str, Lint, usize)] = &[
        ("l4", Lint::MissingInvariants, 2),
        ("l6", Lint::Atomics, 3),
        ("l8", Lint::UnguardedCounter, 2),
        ("l11", Lint::FloatDeterminism, 2),
        ("l12", Lint::ErrorCoverage, 2),
        ("l13", Lint::LockHeldEffects, 7),
        ("l14", Lint::DeadlineSafety, 2),
    ];

    #[test]
    fn pass_fixtures_are_clean_and_fail_fixtures_fire_their_lint() {
        for &(stem, lint, count) in PAIRS {
            let clean = lint_fixture(&format!("{stem}_pass.rs"), scope_for(lint));
            assert!(clean.is_empty(), "{stem}_pass.rs: {clean:?}");
            let f = lint_fixture(&format!("{stem}_fail.rs"), scope_for(lint));
            assert_eq!(f.len(), count, "{stem}_fail.rs: {f:?}");
            assert!(f.iter().all(|x| x.lint == lint), "{stem}_fail.rs: {f:?}");
            assert!(!lint_fixture(&format!("{stem}_fail.rs"), Scope::all()).is_empty());
        }
    }

    #[test]
    fn fail_fixture_messages_name_each_case() {
        let has = |stem: &str, lint: Lint, needle: &str| {
            let f = lint_fixture(&format!("{stem}_fail.rs"), scope_for(lint));
            assert!(f.iter().any(|x| x.message.contains(needle)), "{stem}: no `{needle}` in {f:?}");
        };
        has("l6", Lint::Atomics, "compare_exchange");
        has("l8", Lint::UnguardedCounter, "pub atomic");
        has("l8", Lint::UnguardedCounter, "torn snapshot");
        has("l12", Lint::ErrorCoverage, "never constructed");
        has("l12", Lint::ErrorCoverage, "never matched");
        has("l13", Lint::LockHeldEffects, "blocks (join wait)");
        has("l13", Lint::LockHeldEffects, "blocks (recv wait)");
        has("l13", Lint::LockHeldEffects, "second guard");
        has("l13", Lint::LockHeldEffects, "orders before");
        has("l13", Lint::LockHeldEffects, "does not rank");
        has("l13", Lint::LockHeldEffects, "runs a whole batch");
        has("l14", Lint::DeadlineSafety, "bounded-by");
    }
}
