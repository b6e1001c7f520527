//! The static-analysis gate: `cargo test` fails on any lint finding, so a
//! violation can't land without either fixing it or leaving an explicit
//! `// lint: allow(<name>, <reason>)` annotation in the diff.
//!
//! The same analysis runs standalone as `cargo run -p tg-xtask -- lint`
//! (add `--format json` for machine-readable output).

use std::path::Path;
use tg_xtask::{effects, lint_source, CallGraph, EffectEngine, Scope, SourceFile};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = tg_xtask::lint_workspace(root).expect("lint walk failed");
    assert!(
        report.files_checked > 10,
        "lint walked only {} files — scope lists are stale",
        report.files_checked
    );
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        tg_xtask::render_text(&report)
    );
}

/// The concurrency rules (L5 lock-order, L6 atomics, L7 lock-across, L8
/// unguarded-counter) each keep a pass/fail fixture pair under
/// `crates/xtask/fixtures/`. This gate re-checks them from outside the
/// analyzer crate: every fail fixture must still fire and every pass
/// fixture must stay clean, so a rule that silently stops matching (or
/// starts over-matching) fails `cargo test` at the workspace level too.
#[test]
fn concurrency_fixture_pairs_hold() {
    check_fixture_pairs(&[
        ("l5", Scope { lock_order: true, ..Scope::default() }),
        ("l6", Scope { atomics: true, ..Scope::default() }),
        ("l7", Scope { lock_across: true, ..Scope::default() }),
        ("l8", Scope { counters: true, ..Scope::default() }),
    ]);
}

/// Same gate for the call-graph reachability lints (L10 panic-reach, L11
/// float-determinism, L12 error-coverage): each fail fixture must fire
/// through the single-file reachability analysis, each pass fixture must
/// stay clean under the same scope.
#[test]
fn reachability_fixture_pairs_hold() {
    check_fixture_pairs(&[
        ("l10", Scope { panic_reach: true, ..Scope::default() }),
        ("l11", Scope { float_determinism: true, ..Scope::default() }),
        ("l12", Scope { error_coverage: true, ..Scope::default() }),
    ]);
}

/// Same gate for the effect-inference lints (L13 lock-held-effects, L14
/// deadline-safety, L15 unsafe-audit): the fail fixtures must fire through
/// the summary engine, the pass fixtures must stay clean (hoisted calls,
/// bounded waits, justified unsafe).
#[test]
fn effect_fixture_pairs_hold() {
    check_fixture_pairs(&[
        ("l13", Scope { lock_held: true, ..Scope::default() }),
        ("l14", Scope { deadline: true, ..Scope::default() }),
        ("l15", Scope { unsafe_audit: true, ..Scope::default() }),
    ]);
}

/// The acceptance bar for the annotation escape hatches: deleting any one
/// justification from a pass fixture must flip the relevant lint to
/// failing. Each entry is `(fixture, marker-to-delete, scope)`.
#[test]
fn deleting_one_annotation_trips_the_relevant_lint() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/xtask/fixtures");
    let cases: &[(&str, &str, Scope)] = &[
        ("l13_pass.rs", "lint: allow(", Scope { lock_held: true, ..Scope::default() }),
        ("l14_pass.rs", "bounded-by:", Scope { deadline: true, ..Scope::default() }),
        ("l15_pass.rs", "safety:", Scope { unsafe_audit: true, ..Scope::default() }),
    ];
    for (name, marker, scope) in cases {
        let text = std::fs::read_to_string(fixtures.join(name)).expect("fixture exists");
        assert!(text.contains(marker), "{name} no longer carries `{marker}`");
        let stripped = text.replace(marker, "gone:");
        let findings = lint_source(&SourceFile::parse(name.to_string(), stripped), *scope);
        assert!(
            !findings.is_empty(),
            "{name} stayed clean after deleting `{marker}` — the escape hatch is dead weight"
        );
    }
}

/// The refactor's equivalence guarantee: L10 derived from the effect
/// summaries must be byte-identical to the original per-root BFS twin
/// over the real workspace tree.
#[test]
fn summary_derived_reachability_matches_the_bfs_oracles() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = tg_xtask::workspace_graph_sources(root).expect("workspace walk failed");
    let graph = CallGraph::build(&sources);
    let engine = EffectEngine::build(&sources);
    assert_eq!(
        engine.lint_panic_reach(),
        graph.lint_panic_reach_bfs(),
        "summary-derived L10 diverged from the BFS oracle"
    );
}

/// `effects.lock` must be a pure function of the effect summaries:
/// source discovery order cannot leak into it, and it names each root by
/// file and label only. Pinned against an exact rendering.
#[test]
fn effects_lock_is_canonically_ordered() {
    let a = || SourceFile::parse("a.rs", "// hot-path-root\nfn helper() { }\n");
    let b = || SourceFile::parse(
        "b.rs",
        "// hot-path-root\nfn hot() { helper(); other(); }\nfn other() { x().unwrap(); }\n",
    );
    let lock = |sources: &[SourceFile]| {
        effects::serialize_lock(&EffectEngine::build(sources).root_summaries())
    };
    let fwd = lock(&[a(), b()]);
    assert_eq!(fwd, lock(&[b(), a()]), "effects.lock depends on discovery order");
    let body = fwd.split_once("schema ").expect("schema line").1;
    assert_eq!(
        body,
        format!(
            "{}\nroot a.rs helper\nroot b.rs hot\n  effect panic\n",
            effects::LOCK_SCHEMA
        )
    );
}

fn check_fixture_pairs(cases: &[(&str, Scope)]) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/xtask/fixtures");
    for (lint, scope) in cases {
        for (suffix, must_fire) in [("fail", true), ("pass", false)] {
            let name = format!("{lint}_{suffix}.rs");
            let text = std::fs::read_to_string(fixtures.join(&name))
                .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
            let findings = lint_source(&SourceFile::parse(name.clone(), text), *scope);
            if must_fire {
                assert!(!findings.is_empty(), "{name} must produce findings");
            } else {
                assert!(findings.is_empty(), "{name} must be clean, got: {findings:?}");
            }
        }
    }
}
