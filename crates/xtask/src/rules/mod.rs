//! The repo-specific lints (see DESIGN.md "Error handling & lint policy"
//! and "Concurrency model"). There is no L1–L3 and no L15: clippy and
//! rustc check panics, lossy casts, SipHash maps and unsafe
//! justifications, at the levels in the root Cargo.toml's
//! `[workspace.lints]` table, and the numbers of the other lints are kept.
//!
//! - **L4 `missing-invariants`** ([`invariants`]) — `pub fn`s mutating
//!   shared cache state must document an `# Invariants` section.
//!
//! Concurrency-safety rules (the [`concurrency`], [`atomics`], and
//! [`counters`] modules, backed by the [`crate::scopes`] walker and the
//! `concurrency.toml` manifest):
//!
//! - **L5 `lock-order`** — the per-crate lock-acquisition graph (which
//!   locks are taken while which are held) must be acyclic and must not
//!   contradict the canonical order declared in `concurrency.toml`.
//! - **L6 `atomics`** — `Ordering::Relaxed` on cross-thread *control*
//!   atomics (every `AtomicBool`, plus the manifest's `control` list)
//!   needs a `// relaxed-ok: <invariant>` justification; load-then-store
//!   sequences on one atomic must use `fetch_*`/`compare_exchange`.
//! - **L7 `lock-across`** — no lock guard may be held across an
//!   expensive or blocking call (`embed_batch`, `matmul`, channel
//!   `recv`, file I/O, `.await`).
//! - **L8 `unguarded-counter`** — accounting state must stay private and
//!   be read through an aggregating `snapshot()`/`merge()` path, never as
//!   `pub` atomic fields or torn multi-counter getters.
//!
//! Reachability and whole-workspace rules (the [`crate::callgraph`]
//! engine, plus [`determinism`] and [`errors`]). L9 is retired: the hot
//! path's allocations are counted by `tests/alloc_gate.rs`, not inferred
//! from call names, and the numbers of the other lints are kept.
//!
//! - **L10 `panic-reach`** — no panic site reachable from a
//!   `// hot-path-root`, plus non-literal slice indexing inside reachable
//!   `crates/serve/` code.
//! - **L11 `float-determinism`** — NaN-unsound comparators
//!   (`partial_cmp().unwrap()`, float `sort_by`) and numeric accumulation
//!   over hash-iteration order.
//! - **L12 `error-coverage`** — every `TgError` variant must be both
//!   constructed and matched somewhere in the workspace.
//!
//! Effect-inference rules (the [`crate::effects`] engine: per-function
//! transitive effect summaries over the SCC-condensed call graph):
//!
//! - **L13 `lock-held-effects`** — the interprocedural L7: no call with a
//!   transitive `Blocking`/`LockAcquire` effect while a lock guard is live
//!   (lock acquisitions checked against the canonical `concurrency.toml`
//!   order).
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
pub mod calls;
pub mod concurrency;
pub mod counters;
pub mod determinism;
pub mod errors;
pub mod invariants;

pub use concurrency::{check_lock_graph, extract_lock_edges, LockEdge};
pub use errors::lint_error_coverage;

use crate::manifest::ConcurrencyManifest;
use crate::source::SourceFile;

/// Which lint produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lint {
    MissingInvariants,
    LockOrder,
    Atomics,
    LockAcross,
    UnguardedCounter,
    /// L10 — panic site reachable from a `// hot-path-root` (call-graph).
    PanicReach,
    /// L11 — NaN/order-sensitive float patterns.
    FloatDeterminism,
    /// L12 — `TgError` variants never constructed or never matched.
    ErrorCoverage,
    /// L13 — transitive effect invoked while a lock guard is live.
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
            Lint::LockOrder => "lock-order",
            Lint::Atomics => "atomics",
            Lint::LockAcross => "lock-across",
            Lint::UnguardedCounter => "unguarded-counter",
            Lint::PanicReach => "panic-reach",
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
    /// L5. In a whole-workspace run the walker disables this per-file flag
    /// and checks the aggregated per-crate graph instead (a cycle can span
    /// two files); single-file runs (fixtures) check the file's own graph.
    pub lock_order: bool,
    /// L6.
    pub atomics: bool,
    /// L7.
    pub lock_across: bool,
    /// L8.
    pub counters: bool,
    /// L10. In a whole-workspace run the walker disables this per-file
    /// flag and checks one graph spanning every crate instead (hot paths
    /// cross crate boundaries); single-file runs (fixtures) build the
    /// file's own graph from its `// hot-path-root` annotations.
    pub panic_reach: bool,
    /// L13. Same per-file/workspace split as L10 (effects cross crates);
    /// single-file runs check the file's own guarded regions against the
    /// summaries of functions defined in that file.
    pub lock_held: bool,
    /// L14. Same per-file/workspace split as L10.
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
            lock_order: true,
            atomics: true,
            lock_across: true,
            counters: true,
            panic_reach: true,
            lock_held: true,
            deadline: true,
            float_determinism: true,
            error_coverage: true,
        }
    }
}

/// Runs every in-scope lint over one parsed file with no manifest (the
/// canonical-order and control-atomics checks degrade gracefully).
pub fn lint_source(src: &SourceFile, scope: Scope) -> Vec<Finding> {
    lint_source_with(src, scope, &ConcurrencyManifest::default())
}

/// Runs every in-scope lint over one parsed file against `manifest`.
pub fn lint_source_with(
    src: &SourceFile,
    scope: Scope,
    manifest: &ConcurrencyManifest,
) -> Vec<Finding> {
    let mut out = Vec::new();
    if scope.invariants {
        invariants::lint_invariants(src, &mut out);
    }
    if scope.lock_order {
        let edges = concurrency::extract_lock_edges(src);
        out.extend(concurrency::check_lock_graph(&edges, manifest));
    }
    if scope.atomics {
        atomics::lint_atomics(src, manifest, &mut out);
    }
    if scope.lock_across {
        concurrency::lint_lock_across(src, &mut out);
    }
    if scope.counters {
        counters::lint_unguarded_counter(src, &mut out);
    }
    if scope.float_determinism {
        determinism::lint_float_determinism(src, &mut out);
    }
    if scope.panic_reach || scope.lock_held || scope.deadline {
        // Single-file effect inference (fixtures): the file's own
        // `// hot-path-root` annotations seed the closures and its own
        // function set bounds the summaries.
        let sources = std::slice::from_ref(src);
        let engine = crate::effects::EffectEngine::build(sources);
        if scope.panic_reach {
            out.extend(engine.lint_panic_reach());
        }
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
