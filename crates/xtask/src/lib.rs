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

use rules::{check_lock_graph, extract_lock_edges, LockEdge};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// Crates whose `src/` trees are subject to L1 (no-panic) and L2
/// (lossy-cast) — the library crates on the inference path. `tg-bench` is
/// a harness (panicking with context is its job) and `tg-xtask` analyzes
/// rather than serves, so neither is listed.
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
/// the panic/cast/concurrency/determinism lints (an example that panics
/// is the first thing a new user runs into) and included in the
/// call-graph file set, but exempt from the file-list-gated L3/L4/L8.
pub const HARNESS_DIRS: &[&str] = &["examples", "crates/bench/src/bin"];

/// Hot-path files where SipHash maps are banned (L3): the §4 memoization,
/// dedup, and time-encode caches, their key packing, and their snapshot
/// codec.
pub const HOT_HASH_FILES: &[&str] = &[
    "crates/core/src/cache.rs",
    "crates/core/src/dedup.rs",
    "crates/core/src/fingerprint.rs",
    "crates/core/src/timecache.rs",
    "crates/core/src/hash.rs",
    "crates/core/src/persist.rs",
];

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
/// * `src/` **including `src/bin/`** — full scope (L1–L4 per the file
///   lists above, L6–L8 everywhere). A panicking `src/bin` target is still
///   a panicking release artifact, so bins are no longer exempt.
/// * `tests/` — concurrency lints only (L6, L7): panics are the harness's
///   failure mechanism, but a guard held across a blocking call deadlocks
///   CI just as hard in a test.
/// * The root package's `tests/` (the workspace integration suite) gets
///   the same concurrency-only treatment.
///
/// L5 is *not* run per file here: lock edges from every file of a crate
/// (plus the root suite) are aggregated and the acquisition graph is
/// checked once per crate, because the two halves of a cycle usually live
/// in different files. Files reachable through two crate roots are linted
/// once (paths are canonicalized and deduped).
///
/// Whole-workspace passes run after the per-file pass has parsed
/// everything:
///
/// * **L10/L13/L14** — one [`effects::EffectEngine`] spanning every
///   non-test source (library `src/`, `examples/`, bench binaries):
///   SCC-condensed effect summaries power the reachability lints and the
///   guard-liveness checks. Test files are deliberately excluded from the
///   graph: a test helper calling `embed_batch` would otherwise pull the
///   whole test suite into the panic-free closure.
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

    // One lock-graph unit per crate, plus one for the workspace-level
    // integration suite (which exercises the same hot paths), plus one
    // per harness directory.
    enum Kind {
        Src,
        Test,
        Harness,
    }
    let mut units: Vec<Vec<(Kind, std::path::PathBuf)>> = Vec::new();
    for krate in LIBRARY_CRATES {
        let mut src_files = Vec::new();
        collect_rs_files(&root.join(krate).join("src"), &mut src_files)?;
        let mut test_files = Vec::new();
        collect_rs_files(&root.join(krate).join("tests"), &mut test_files)?;
        src_files.sort();
        test_files.sort();
        units.push(
            src_files
                .into_iter()
                .map(|p| (Kind::Src, p))
                .chain(test_files.into_iter().map(|p| (Kind::Test, p)))
                .collect(),
        );
    }
    let mut root_tests = Vec::new();
    collect_rs_files(&root.join("tests"), &mut root_tests)?;
    root_tests.sort();
    units.push(root_tests.into_iter().map(|p| (Kind::Test, p)).collect());
    for dir in HARNESS_DIRS {
        let mut files = Vec::new();
        collect_rs_files(&root.join(dir), &mut files)?;
        files.sort();
        units.push(files.into_iter().map(|p| (Kind::Harness, p)).collect());
    }

    for unit in units {
        let mut edges: Vec<LockEdge> = Vec::new();
        for (kind, path) in unit {
            let canonical = path.canonicalize().unwrap_or_else(|_| path.clone());
            if !seen.insert(canonical) {
                continue; // already linted via another crate root
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let scope = match kind {
                // Concurrency lints only (plus the unsafe audit — unsafe
                // in a test deserves its safety argument just as much);
                // L5 edges are aggregated below.
                Kind::Test => Scope {
                    atomics: true,
                    lock_across: true,
                    unsafe_audit: true,
                    ..Scope::default()
                },
                Kind::Src => Scope {
                    panic: true,
                    lossy_cast: true,
                    std_hash: HOT_HASH_FILES.contains(&rel.as_str()),
                    invariants: CACHE_STATE_FILES.contains(&rel.as_str()),
                    lock_order: false, // checked per crate, not per file
                    atomics: true,
                    lock_across: true,
                    counters: COUNTER_FILES.contains(&rel.as_str()),
                    unsafe_audit: true,
                    float_determinism: true,
                    ..Scope::default()
                },
                Kind::Harness => Scope {
                    panic: true,
                    lossy_cast: true,
                    atomics: true,
                    lock_across: true,
                    unsafe_audit: true,
                    float_determinism: true,
                    ..Scope::default()
                },
            };
            let text = std::fs::read_to_string(&path)?;
            let src = SourceFile::parse(rel, text);
            findings.extend(lint_source_with(&src, scope, &manifest));
            edges.extend(extract_lock_edges(&src));
            match kind {
                Kind::Test => test_sources.push(src),
                Kind::Src | Kind::Harness => graph_sources.push(src),
            }
        }
        findings.extend(check_lock_graph(&edges, &manifest));
    }

    // L10/L13/L14: one effect-inference pass over the whole non-test
    // file set (SCC-condensed summaries over the workspace call graph).
    let engine = effects::EffectEngine::build(&graph_sources);
    findings.extend(engine.lint_panic_reach());
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

/// Parses the call-graph file set (library `src/`, `examples/`, bench
/// binaries) with the same discovery and dedup rules as
/// [`lint_workspace`], no linting — for the test that compares L10
/// against its BFS oracle over the real tree.
pub fn workspace_graph_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut seen: BTreeSet<std::path::PathBuf> = BTreeSet::new();
    let mut files = Vec::new();
    for krate in LIBRARY_CRATES {
        collect_rs_files(&root.join(krate).join("src"), &mut files)?;
    }
    for dir in HARNESS_DIRS {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let canonical = path.canonicalize().unwrap_or_else(|_| path.clone());
        if !seen.insert(canonical) {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(SourceFile::parse(rel, std::fs::read_to_string(&path)?));
    }
    Ok(out)
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
        let lists = [LIBRARY_CRATES, HARNESS_DIRS, HOT_HASH_FILES, CACHE_STATE_FILES, COUNTER_FILES];
        let missing: Vec<&str> = lists.iter().flat_map(|l| l.iter()).copied().filter(|p| !root.join(p).exists()).collect();
        assert!(missing.is_empty(), "scoped paths that do not exist: {missing:?}");
    }
}

#[cfg(test)]
mod fixture_tests {
    //! Self-tests over `fixtures/`: one passing and one violating example
    //! per lint. The fail fixtures also pin *which* lines fire, so a rule
    //! that silently widens or narrows its matching breaks the build.

    use super::*;

    fn lint_fixture(name: &str, scope: Scope) -> Vec<Finding> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        lint_source(&SourceFile::parse(name, text), scope)
    }

    fn scope_for(lint: Lint) -> Scope {
        Scope {
            panic: lint == Lint::Panic,
            lossy_cast: lint == Lint::LossyCast,
            std_hash: lint == Lint::StdHash,
            invariants: lint == Lint::MissingInvariants,
            lock_order: lint == Lint::LockOrder,
            atomics: lint == Lint::Atomics,
            lock_across: lint == Lint::LockAcross,
            counters: lint == Lint::UnguardedCounter,
            panic_reach: lint == Lint::PanicReach,
            lock_held: lint == Lint::LockHeldEffects,
            deadline: lint == Lint::DeadlineSafety,
            unsafe_audit: lint == Lint::UnsafeAudit,
            float_determinism: lint == Lint::FloatDeterminism,
            error_coverage: lint == Lint::ErrorCoverage,
        }
    }

    #[test]
    fn l1_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l1_pass.rs", scope_for(Lint::Panic)).len(), 0);
    }

    #[test]
    fn l1_fail_fixture_fires_once_per_panic_site() {
        let f = lint_fixture("l1_fail.rs", scope_for(Lint::Panic));
        assert_eq!(f.len(), 4, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::Panic));
    }

    #[test]
    fn l2_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l2_pass.rs", scope_for(Lint::LossyCast)).len(), 0);
    }

    #[test]
    fn l2_fail_fixture_fires_on_each_narrowing_cast() {
        let f = lint_fixture("l2_fail.rs", scope_for(Lint::LossyCast));
        assert_eq!(f.len(), 4, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::LossyCast));
    }

    #[test]
    fn l3_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l3_pass.rs", scope_for(Lint::StdHash)).len(), 0);
    }

    #[test]
    fn l3_fail_fixture_fires_on_std_maps() {
        let f = lint_fixture("l3_fail.rs", scope_for(Lint::StdHash));
        assert_eq!(f.len(), 2, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::StdHash));
    }

    #[test]
    fn l4_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l4_pass.rs", scope_for(Lint::MissingInvariants)).len(), 0);
    }

    #[test]
    fn l4_fail_fixture_fires_on_undocumented_mutators() {
        let f = lint_fixture("l4_fail.rs", scope_for(Lint::MissingInvariants));
        assert_eq!(f.len(), 2, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::MissingInvariants));
    }

    #[test]
    fn l5_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l5_pass.rs", scope_for(Lint::LockOrder)).len(), 0);
    }

    #[test]
    fn l5_fail_fixture_fires_on_cycle_and_self_edge() {
        let f = lint_fixture("l5_fail.rs", scope_for(Lint::LockOrder));
        assert_eq!(f.len(), 3, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::LockOrder));
        assert!(f.iter().filter(|x| x.message.contains("cycle")).count() == 2);
        assert!(f.iter().any(|x| x.message.contains("two guards")));
    }

    #[test]
    fn l6_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l6_pass.rs", scope_for(Lint::Atomics)).len(), 0);
    }

    #[test]
    fn l6_fail_fixture_fires_on_relaxed_control_and_torn_rmw() {
        let f = lint_fixture("l6_fail.rs", scope_for(Lint::Atomics));
        assert_eq!(f.len(), 3, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::Atomics));
        assert!(f.iter().any(|x| x.message.contains("compare_exchange")));
    }

    #[test]
    fn l7_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l7_pass.rs", scope_for(Lint::LockAcross)).len(), 0);
    }

    #[test]
    fn l7_fail_fixture_fires_on_guard_held_across_expensive_calls() {
        let f = lint_fixture("l7_fail.rs", scope_for(Lint::LockAcross));
        assert_eq!(f.len(), 2, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::LockAcross));
    }

    #[test]
    fn l8_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l8_pass.rs", scope_for(Lint::UnguardedCounter)).len(), 0);
    }

    #[test]
    fn l8_fail_fixture_fires_on_pub_field_and_torn_getter() {
        let f = lint_fixture("l8_fail.rs", scope_for(Lint::UnguardedCounter));
        assert_eq!(f.len(), 2, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::UnguardedCounter));
        assert!(f.iter().any(|x| x.message.contains("pub atomic")));
        assert!(f.iter().any(|x| x.message.contains("torn snapshot")));
    }

    #[test]
    fn l10_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l10_pass.rs", scope_for(Lint::PanicReach)).len(), 0);
    }

    #[test]
    fn l10_fail_fixture_fires_on_reachable_panics() {
        let f = lint_fixture("l10_fail.rs", scope_for(Lint::PanicReach));
        assert_eq!(f.len(), 3, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::PanicReach));
    }

    #[test]
    fn l11_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l11_pass.rs", scope_for(Lint::FloatDeterminism)).len(), 0);
    }

    #[test]
    fn l11_fail_fixture_fires_on_nondeterministic_float_patterns() {
        let f = lint_fixture("l11_fail.rs", scope_for(Lint::FloatDeterminism));
        assert_eq!(f.len(), 3, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::FloatDeterminism));
    }

    #[test]
    fn l12_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l12_pass.rs", scope_for(Lint::ErrorCoverage)).len(), 0);
    }

    #[test]
    fn l12_fail_fixture_fires_on_unbalanced_variants() {
        let f = lint_fixture("l12_fail.rs", scope_for(Lint::ErrorCoverage));
        assert_eq!(f.len(), 2, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::ErrorCoverage));
        assert!(f.iter().any(|x| x.message.contains("never constructed")));
        assert!(f.iter().any(|x| x.message.contains("never matched")));
    }

    #[test]
    fn l13_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l13_pass.rs", scope_for(Lint::LockHeldEffects)).len(), 0);
    }

    #[test]
    fn l13_fail_fixture_fires_on_transitive_effects_under_guards() {
        let f = lint_fixture("l13_fail.rs", scope_for(Lint::LockHeldEffects));
        assert_eq!(f.len(), 2, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::LockHeldEffects));
        assert!(f.iter().any(|x| x.message.contains("blocking effect")));
        assert!(f.iter().any(|x| x.message.contains("re-acquires")));
    }

    #[test]
    fn l14_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l14_pass.rs", scope_for(Lint::DeadlineSafety)).len(), 0);
    }

    #[test]
    fn l14_fail_fixture_fires_on_unbounded_serve_waits() {
        let f = lint_fixture("l14_fail.rs", scope_for(Lint::DeadlineSafety));
        assert_eq!(f.len(), 2, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::DeadlineSafety));
        assert!(f.iter().all(|x| x.message.contains("bounded-by")));
    }

    #[test]
    fn l15_pass_fixture_is_clean() {
        assert_eq!(lint_fixture("l15_pass.rs", scope_for(Lint::UnsafeAudit)).len(), 0);
    }

    #[test]
    fn l15_fail_fixture_fires_on_unjustified_unsafe() {
        let f = lint_fixture("l15_fail.rs", scope_for(Lint::UnsafeAudit));
        assert_eq!(f.len(), 3, "findings: {f:?}");
        assert!(f.iter().all(|x| x.lint == Lint::UnsafeAudit));
    }

    #[test]
    fn fail_fixtures_fire_under_the_full_scope_too() {
        for name in [
            "l1_fail.rs",
            "l2_fail.rs",
            "l3_fail.rs",
            "l4_fail.rs",
            "l5_fail.rs",
            "l6_fail.rs",
            "l7_fail.rs",
            "l8_fail.rs",
            "l10_fail.rs",
            "l11_fail.rs",
            "l12_fail.rs",
            "l13_fail.rs",
            "l14_fail.rs",
            "l15_fail.rs",
        ] {
            assert!(
                !lint_fixture(name, Scope::all()).is_empty(),
                "{name} should fail under Scope::all()"
            );
        }
    }
}
