//! The static-analysis gate: `cargo test` fails on any lint finding, so a
//! violation can't land without either fixing it or leaving an explicit
//! `// lint: allow(<name>, <reason>)` annotation in the diff.
//!
//! The same analysis runs standalone as `cargo run -p tg-xtask -- lint`
//! (add `--format json` for machine-readable output).
//!
//! Panics (slice indexing in `tg-serve` included), lossy casts, SipHash
//! maps and unsafe justifications are not checked here: clippy checks them at the levels of the root
//! Cargo.toml's `[workspace.lints]` table, in `scripts/check.sh`'s clippy
//! step and its CI twin, and `cargo test` does not run it.

use std::path::Path;
use tg_xtask::{effects, lint_source_with, EffectEngine, Finding, Lint, Scope, SourceFile};

/// Lints one file on its own under the workspace's `concurrency.toml`.
fn lint(name: &str, text: String, scope: Scope) -> Vec<Finding> {
    let manifest = tg_xtask::manifest::load(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("concurrency.toml parses");
    lint_source_with(&SourceFile::parse(name.to_string(), text), scope, &manifest)
}

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

/// The concurrency rules (L6 atomics, L8 unguarded-counter) each keep a
/// pass/fail fixture pair under `crates/xtask/fixtures/`. This gate
/// re-checks them from outside the analyzer crate: every fail fixture
/// must still fire and every pass fixture must stay clean, so a rule that
/// silently stops matching (or starts over-matching) fails `cargo test`
/// at the workspace level too.
#[test]
fn concurrency_fixture_pairs_hold() {
    check_fixture_pairs(&[
        ("l6", Scope { atomics: true, ..Scope::default() }),
        ("l8", Scope { counters: true, ..Scope::default() }),
    ]);
}

/// Same gate for the whole-file lints (L11 float-determinism, L12
/// error-coverage): each fail fixture must fire, each pass fixture must
/// stay clean under the same scope.
#[test]
fn reachability_fixture_pairs_hold() {
    check_fixture_pairs(&[
        ("l11", Scope { float_determinism: true, ..Scope::default() }),
        ("l12", Scope { error_coverage: true, ..Scope::default() }),
    ]);
}

/// Same gate for the effect-inference lints (L13 lock-held-effects, L14
/// deadline-safety): the fail fixtures must fire, directly and through
/// the summary engine, the pass fixtures must stay clean (hoisted calls,
/// ordered nesting, bounded waits).
#[test]
fn effect_fixture_pairs_hold() {
    check_fixture_pairs(&[
        ("l13", Scope { lock_held: true, ..Scope::default() }),
        ("l14", Scope { deadline: true, ..Scope::default() }),
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
    ];
    for (name, marker, scope) in cases {
        let text = std::fs::read_to_string(fixtures.join(name)).expect("fixture exists");
        assert!(text.contains(marker), "{name} no longer carries `{marker}`");
        let stripped = text.replace(marker, "gone:");
        let findings = lint(name, stripped, *scope);
        assert!(
            !findings.is_empty(),
            "{name} stayed clean after deleting `{marker}` — the escape hatch is dead weight"
        );
    }
}

/// L13 is the one guard rule: every case of the retired L5 `lock-order`
/// and L7 `lock-across` fail fixtures, kept here verbatim, fires as
/// `lock-held-effects`. The `fifo`/`state` cycle fires at the edge that
/// contradicts `concurrency.toml`'s order; the other edge follows it.
#[test]
fn retired_lock_order_and_lock_across_cases_fire_under_l13() {
    const L5_FAIL: &str = "\
impl Cache {
    pub fn store(&self) {
        let mut fifo = self.fifo.lock();
        let mut state = self.state.lock();
        state.push(fifo.pop_front());
    }

    pub fn drain(&self) {
        let mut state = self.state.lock();
        let mut fifo = self.fifo.lock();
        fifo.extend(state.drain(..));
    }

    pub fn rebalance(&self) {
        let mut a = self.shards[0].write();
        let mut b = self.shards[1].write();
        b.extend(a.drain());
    }
}
";
    const L7_FAIL: &str = "\
impl Worker {
    pub fn run_once(&self) {
        let guard = self.plan.lock();
        self.engine.embed_batch(&guard.nodes, &guard.times);
    }

    pub fn consume(&self) {
        let chan = self.rx.lock();
        let wave = chan.recv();
        self.handle(wave);
    }
}
";
    let scope = Scope { lock_held: true, ..Scope::default() };
    // (fixture, case, lines of which at least one must fire)
    let cases: &[(&str, &str, &[usize])] = &[
        (L5_FAIL, "fifo/state cycle", &[4, 10]),
        (L5_FAIL, "two guards of shards", &[16]),
        (L7_FAIL, "embed_batch under plan", &[4]),
        (L7_FAIL, "recv under rx", &[9]),
    ];
    for &(text, case, lines) in cases {
        let f = lint("retired.rs", text.to_string(), scope);
        assert!(f.iter().all(|x| x.lint == Lint::LockHeldEffects), "{f:?}");
        assert!(f.iter().any(|x| lines.contains(&x.line)), "{case} did not fire: {f:?}");
    }
}

/// `effects.lock` must be a pure function of the effect summaries:
/// source discovery order cannot leak into it, and it names each root by
/// file and label only. Pinned against an exact rendering.
#[test]
fn effects_lock_is_canonically_ordered() {
    let a = || SourceFile::parse("a.rs", "// hot-path-root\nfn helper() { }\n");
    let b = || SourceFile::parse(
        "b.rs",
        "// hot-path-root\nfn hot() { helper(); other(); }\nfn other() { h.join(); }\n",
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
            "{}\nroot a.rs helper\nroot b.rs hot\n  effect blocking(join)\n",
            effects::LOCK_SCHEMA
        )
    );
}

fn check_fixture_pairs(cases: &[(&str, Scope)]) {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/xtask/fixtures");
    for (stem, scope) in cases {
        for (suffix, must_fire) in [("fail", true), ("pass", false)] {
            let name = format!("{stem}_{suffix}.rs");
            let text = std::fs::read_to_string(fixtures.join(&name))
                .unwrap_or_else(|e| panic!("missing fixture {name}: {e}"));
            let findings = lint(&name, text, *scope);
            if must_fire {
                assert!(!findings.is_empty(), "{name} must produce findings");
            } else {
                assert!(findings.is_empty(), "{name} must be clean, got: {findings:?}");
            }
        }
    }
}
