//! L15 `unsafe-audit`: every `unsafe` block, fn, trait, or impl outside
//! `vendor/` must carry a `// safety: <reason>` justification — on the
//! `unsafe` line itself, or alone on the line above — documenting the
//! invariant that makes the code sound.
//!
//! The inference and serving stack is deliberately safe, std-only Rust;
//! the one exception is the 512-bit matmul panel in `tg-tensor` (see
//! DESIGN.md). So this rule is a tripwire: every `unsafe` anyone
//! introduces arrives with its soundness argument attached, reviewable in
//! the same diff. Test code is
//! exempt (`#[cfg(test)]` items), as are vendored files, and
//! `// lint: allow(unsafe-audit, <reason>)` remains the generic escape
//! hatch.

use crate::rules::{bounded_matches, is_ident_byte, Finding, Lint};
use crate::source::SourceFile;

pub fn lint_unsafe_audit(src: &SourceFile, out: &mut Vec<Finding>) {
    if src.path.contains("vendor/") {
        return;
    }
    let bytes = src.code.as_bytes();
    for at in bounded_matches(&src.code, "unsafe") {
        let end = at + "unsafe".len();
        if end < bytes.len() && is_ident_byte(bytes[end]) {
            continue; // identifier that merely starts with "unsafe"
        }
        let rest = src.code[end..].trim_start();
        // Classify the construct; `unsafe` in other positions (e.g. inside
        // an `extern` signature) rides on the enclosing item's audit.
        let what = if rest.starts_with("fn ") || rest.starts_with("fn(") {
            "unsafe fn"
        } else if rest.starts_with("impl ") || rest.starts_with("impl<") {
            "unsafe impl"
        } else if rest.starts_with("trait ") {
            "unsafe trait"
        } else if rest.starts_with('{') {
            "unsafe block"
        } else {
            continue;
        };
        let line = src.line_of(at);
        if src.is_test_line(line) || src.is_allowed(line, Lint::UnsafeAudit.name()) {
            continue;
        }
        let justified = src.has_safety_ok(line)
            || (line >= 2
                && src.has_safety_ok(line - 1)
                && src.code_line(line - 1).trim().is_empty());
        if justified {
            continue;
        }
        out.push(Finding {
            lint: Lint::UnsafeAudit,
            file: src.path.clone(),
            line,
            message: format!(
                "`{what}` without a `// safety: <reason>` justification; document the \
                 invariant that makes it sound (or move it under `vendor/`)"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, text: &str) -> Vec<Finding> {
        let src = SourceFile::parse(path, text);
        let mut out = Vec::new();
        lint_unsafe_audit(&src, &mut out);
        out
    }

    #[test]
    fn unannotated_unsafe_constructs_fire() {
        let text = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n\
                    unsafe fn raw() {}\n\
                    unsafe impl Send for W {}\n\
                    unsafe trait Zeroable {}\n";
        let found = run("a.rs", text);
        assert_eq!(found.len(), 4, "{found:?}");
        assert!(found[0].message.contains("`unsafe block`"));
        assert!(found[1].message.contains("`unsafe fn`"));
        assert!(found[2].message.contains("`unsafe impl`"));
        assert!(found[3].message.contains("`unsafe trait`"));
    }

    #[test]
    fn safety_comment_on_line_or_above_justifies() {
        let text = "fn f(p: *const u8) -> u8 {\n    \
                    unsafe { *p } // safety: caller guarantees p is valid\n}\n\
                    // safety: W owns no thread-affine state\n\
                    unsafe impl Send for W {}\n";
        assert!(run("a.rs", text).is_empty());
    }

    #[test]
    fn safety_comment_requires_a_reason() {
        // parse_reasoned drops bare `// safety:` annotations, so the
        // finding still fires.
        let text = "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // safety:\n}\n";
        assert_eq!(run("a.rs", text).len(), 1);
    }

    #[test]
    fn vendor_tests_and_identifiers_are_exempt() {
        assert!(run("vendor/x/src/lib.rs", "unsafe fn raw() {}\n").is_empty());
        let text = "#[cfg(test)]\nmod tests {\n    fn t(p: *const u8) { unsafe { let _ = *p; } }\n}\n";
        assert!(run("a.rs", text).is_empty());
        assert!(run("a.rs", "fn f() { let unsafe_count = 1; g(unsafe_count); }\n").is_empty());
    }
}
