//! The repo-specific lints (see DESIGN.md "Error handling & lint policy"
//! and "Concurrency model"). There is no L1–L3 and no L15: clippy and
//! rustc check panics, lossy casts, SipHash maps and unsafe
//! justifications, at the levels in the root Cargo.toml's
//! `[workspace.lints]` table, and the numbers of the other lints are kept.
//!
//! - **L4 `missing-invariants`** ([`invariants`]) — `pub fn`s mutating
//!   shared cache state must document an `# Invariants` section.
//!
//! Concurrency-safety rules (the [`atomics`] and [`counters`] modules,
//! backed by the [`crate::scopes`] walker and the `concurrency.toml`
//! manifest):
//!
//! - **L6 `atomics`** — `Ordering::Relaxed` on cross-thread *control*
//!   atomics (every `AtomicBool`, plus the manifest's `control` list)
//!   needs a `// relaxed-ok: <invariant>` justification; load-then-store
//!   sequences on one atomic must use `fetch_*`/`compare_exchange`.
//! - **L8 `unguarded-counter`** — accounting state must stay private and
//!   be read through an aggregating `snapshot()`/`merge()` path, never as
//!   `pub` atomic fields or torn multi-counter getters.
//!
//! Whole-workspace rules ([`determinism`] and [`errors`]). L5, L7, L9 and
//! L10 are retired: L13 is the one guard rule, `tests/alloc_gate.rs`
//! counts the hot path's allocations, and clippy denies panicking
//! constructs (`indexing_slicing` too, in `tg-serve`); the numbers of the
//! other lints are kept.
//!
//! - **L11 `float-determinism`** — NaN-unsound float comparators
//!   (`partial_cmp` inside `sort_by`) and numeric accumulation over
//!   hash-iteration order.
//! - **L12 `error-coverage`** — every `TgError` variant must be both
//!   constructed and matched somewhere in the workspace.
//!
//! Effect-inference rules (the [`crate::effects`] engine: per-function
//! transitive effect summaries over the SCC-condensed call graph):
//!
//! - **L13 `lock-held-effects`** — the one guard rule: while a lock guard
//!   is live, no blocking construct, no second guard of the held lock, no
//!   acquisition of a lock ordered before it, and no nested acquisition
//!   of a lock missing from `concurrency.toml`'s order — directly or
//!   through a call — and no direct `embed_batch(` or `matmul(`.
//! - **L14 `deadline-safety`** — no unbounded blocking construct reachable
//!   from a root without a `// bounded-by: <reason>` annotation.
//! - **L16 `effects-drift`** — hot-path-root summaries must match the
//!   committed `effects.lock` (whole-workspace only; regenerate with
//!   `UPDATE_EFFECTS_LOCK=1`).
//!
//! Every lint honors a same-line `// lint: allow(<name>[, reason])`
//! escape hatch and skips `#[cfg(test)]` items; L6's Relaxed findings use
//! the dedicated `// relaxed-ok: <reason>` form so the justification
//! reads as a memory-ordering invariant, not a lint toggle. The call
//! graph's `// cold-path:` / `// hot-path-root` markers are documented in
//! [`crate::callgraph`].

pub mod atomics;
pub mod counters;
pub mod determinism;
pub mod errors;
pub mod invariants;

pub use errors::lint_error_coverage;
use crate::manifest::ConcurrencyManifest;
use crate::source::SourceFile;

/// Which lint produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    MissingInvariants,
    Atomics,
    UnguardedCounter,
    /// L11 — NaN/order-sensitive float patterns.
    FloatDeterminism,
    /// L12 — `TgError` variants never constructed or never matched.
    ErrorCoverage,
    /// L13 — a blocking, re-entrant or unordered effect, or expensive
    /// compute, while a lock guard is live.
    LockHeldEffects,
    /// L14 — unbounded blocking reachable from the serve deadline path.
    DeadlineSafety,
    /// L16 — root effect summaries drifted from the committed
    /// `effects.lock`.
    EffectsDrift,
}

impl Lint {
    /// The name used in `// lint: allow(...)` annotations and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Lint::MissingInvariants => "missing-invariants",
            Lint::Atomics => "atomics",
            Lint::UnguardedCounter => "unguarded-counter",
            Lint::FloatDeterminism => "float-determinism",
            Lint::ErrorCoverage => "error-coverage",
            Lint::LockHeldEffects => "lock-held-effects",
            Lint::DeadlineSafety => "deadline-safety",
            Lint::EffectsDrift => "effects-drift",
        }
    }
}

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub lint: Lint,
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// Which lints apply to a given file (decided by the workspace walker from
/// the file's crate and path).
#[derive(Clone, Copy, Debug, Default)]
pub struct Scope {
    /// L4.
    pub invariants: bool,
    /// L6.
    pub atomics: bool,
    /// L8.
    pub counters: bool,
    /// L13. Per file, its direct half; a single-file run adds the
    /// transitive half over the file's own functions, which a
    /// whole-workspace run checks once over every non-test file instead.
    pub lock_held: bool,
    /// L14. Single-file runs only, over the file's own `// hot-path-root`
    /// closure; a whole-workspace run checks one graph spanning every
    /// crate (hot paths cross crate boundaries).
    pub deadline: bool,
    /// L11.
    pub float_determinism: bool,
    /// L12. In a whole-workspace run the walker checks construction and
    /// matching across every file at once; a single-file run covers
    /// fixtures that define their own `TgError`.
    pub error_coverage: bool,
}

impl Scope {
    pub fn all() -> Self {
        Self {
            invariants: true,
            atomics: true,
            counters: true,
            lock_held: true,
            deadline: true,
            float_determinism: true,
            error_coverage: true,
        }
    }
}

/// Runs the per-file lints in `scope` over one parsed file: L4, L6, L8,
/// L11 and L13's direct half. The workspace walker runs this per file and
/// the whole-workspace passes once.
pub(crate) fn lint_file(src: &SourceFile, scope: Scope, manifest: &ConcurrencyManifest) -> Vec<Finding> {
    let mut out = Vec::new();
    if scope.invariants {
        invariants::lint_invariants(src, &mut out);
    }
    if scope.atomics {
        atomics::lint_atomics(src, manifest, &mut out);
    }
    if scope.counters {
        counters::lint_unguarded_counter(src, &mut out);
    }
    if scope.float_determinism {
        determinism::lint_float_determinism(src, &mut out);
    }
    if scope.lock_held {
        out.extend(crate::effects::lint_guarded_sites(src, manifest));
    }
    out
}

/// Runs every in-scope lint over one file on its own (fixtures): the
/// per-file lints, then the whole-workspace passes over this file alone.
/// Its own `// hot-path-root` annotations seed the closures and its own
/// function set bounds the summaries.
pub fn lint_source_with(
    src: &SourceFile,
    scope: Scope,
    manifest: &ConcurrencyManifest,
) -> Vec<Finding> {
    let mut out = lint_file(src, scope, manifest);
    if scope.lock_held || scope.deadline {
        let engine = crate::effects::EffectEngine::build(std::slice::from_ref(src));
        if scope.lock_held {
            out.extend(engine.lint_lock_held(manifest));
        }
        if scope.deadline {
            out.extend(engine.lint_deadline());
        }
    }
    if scope.error_coverage {
        out.extend(errors::lint_error_coverage(&[src]));
    }
    out
}

/// [`lint_source_with`] under an empty manifest: no control atomics
/// beyond `AtomicBool`, and no lock order, so every nested acquisition is
/// an L13 finding.
pub fn lint_source(src: &SourceFile, scope: Scope) -> Vec<Finding> {
    lint_source_with(src, scope, &ConcurrencyManifest::default())
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Offsets of every occurrence of `needle` in `hay` where the preceding
/// byte is not part of an identifier (word-boundary on the left).
pub(crate) fn bounded_matches<'a>(
    hay: &'a str,
    needle: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    let bytes = hay.as_bytes();
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(pos) = hay[from..].find(needle) {
            let at = from + pos;
            from = at + 1;
            if at == 0 || !is_ident_byte(bytes[at - 1]) {
                return Some(at);
            }
        }
        None
    })
}
