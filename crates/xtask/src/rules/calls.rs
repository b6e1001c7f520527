//! Shared call-pattern tables: the single source of truth for the call
//! classifications used by more than one rule.
//!
//! * [`PANIC_PATTERNS`] — panicking constructs. L10 (`panic-reach`) flags
//!   them anywhere transitively reachable from a serve hot-path root.
//! * [`EXPENSIVE_CALLS`] — calls that must not run under a lock guard
//!   (L7 `lock-across`), and that the call-graph walker treats as leaf
//!   externals rather than workspace edges.
//! * [`BLOCKING_CALLS`] — unbounded-wait constructs, classified for the
//!   effect engine (L13/L14).
//!
//! Keeping the tables in one module means a pattern added for one rule is
//! automatically considered by its siblings — the L7/L13/L14 drift this
//! file exists to prevent.

/// Panicking constructs, with the message L10 attaches to a finding.
pub const PANIC_PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()` panics on Err/None; return a `TgError` instead"),
    (".expect(", "`.expect(...)` panics on Err/None; return a `TgError` instead"),
    ("panic!", "`panic!` in library code; return a `TgError` instead"),
    ("unreachable!", "`unreachable!` in library code; restructure so the compiler proves it"),
    ("todo!", "`todo!` must not ship in library code"),
    ("unimplemented!", "`unimplemented!` must not ship in library code"),
];

/// Calls that must not run under a lock guard (L7): inference and matmul
/// hot-path entry points, blocking channel/thread operations, and file
/// I/O. Condvar waits are deliberately absent — waiting *requires* the
/// guard.
pub const EXPENSIVE_CALLS: &[&str] = &[
    "embed_batch(",
    "matmul(",
    ".recv()",
    ".recv_timeout(",
    ".join()",
    "thread::sleep",
    "std::fs::",
    "File::open",
    "File::create",
    "read_to_string(",
    "write_all(",
    ".await",
];

/// Blocking constructs, classified for the effect engine (L13/L14). Each
/// entry is `(pattern, kind, auto_bounded)`:
///
/// * `pattern` — matched against the blanked code view; every pattern here
///   is also in [`EXPENSIVE_CALLS`] (unit-tested below) so L7 and the
///   `Blocking` effect never drift apart.
/// * `kind` — the short label carried by `Effect::Blocking` (`recv`,
///   `join`, `sleep`, `file-io`, `await`).
/// * `auto_bounded` — true for constructs that bound their own wait
///   (`recv_timeout`, `sleep`): L14 (`deadline-safety`) accepts them
///   without a `// bounded-by: <reason>` annotation.
///
/// `embed_batch(`/`matmul(` stay L7-only: they are expensive *compute*,
/// not unbounded waits, so they don't produce a `Blocking` effect.
pub const BLOCKING_CALLS: &[(&str, &str, bool)] = &[
    (".recv()", "recv", false),
    (".recv_timeout(", "recv", true),
    (".join()", "join", false),
    ("thread::sleep", "sleep", true),
    ("std::fs::", "file-io", false),
    ("File::open", "file-io", false),
    ("File::create", "file-io", false),
    ("read_to_string(", "file-io", false),
    ("write_all(", "file-io", false),
    (".await", "await", false),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_blocking_call_is_also_an_expensive_call() {
        // L7 (lock-across) and the Blocking effect must classify the same
        // constructs; a wait pattern added to one table but not the other
        // would let L13/L14 and L7 disagree about what "blocking" means.
        for (pattern, _, _) in BLOCKING_CALLS {
            assert!(
                EXPENSIVE_CALLS.contains(pattern),
                "BLOCKING_CALLS entry `{pattern}` missing from EXPENSIVE_CALLS"
            );
        }
    }

    #[test]
    fn auto_bounded_flags_match_the_construct_semantics() {
        for &(pattern, kind, auto_bounded) in BLOCKING_CALLS {
            let bounds_itself = pattern.contains("timeout") || kind == "sleep";
            assert_eq!(
                auto_bounded, bounds_itself,
                "`{pattern}` auto_bounded flag disagrees with its semantics"
            );
        }
    }
}
