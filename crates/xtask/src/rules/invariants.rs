//! L4 `missing-invariants` (see the [`super`] docs for the full rule
//! listing and DESIGN.md "Error handling & lint policy" for the
//! rationale): mutation is detected as a `&mut self` receiver or a body
//! that takes a write lock (`.write()`) or bumps shared counters
//! (`.fetch_add(` / `.fetch_sub(`).

use super::{bounded_matches, is_ident_byte, Finding, Lint};
use crate::source::SourceFile;

/// Tokens in a `pub fn` that mark it as mutating shared cache state.
const MUTATION_TOKENS: &[&str] = &[".write()", ".fetch_add(", ".fetch_sub("];

pub(crate) fn lint_invariants(src: &SourceFile, out: &mut Vec<Finding>) {
    let bytes = src.code.as_bytes();
    for at in bounded_matches(&src.code, "pub fn ") {
        let line = src.line_of(at);
        if src.is_test_line(line) || src.is_allowed(line, Lint::MissingInvariants.name()) {
            continue;
        }
        // Signature: up to the opening brace, or `;` for a bodyless trait
        // declaration — but a `;` inside `[f32; 4]`-style params is part of
        // the signature, so track bracket depth.
        let mut open = None;
        let mut nest = 0i32;
        for (j, &b) in bytes[at..].iter().enumerate() {
            match b {
                b'(' | b'[' | b'<' => nest += 1,
                b')' | b']' | b'>' => nest -= 1,
                b'{' => {
                    open = Some(at + j);
                    break;
                }
                b';' if nest <= 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let signature = &src.code[at..open];
        // Body span via brace matching.
        let mut depth = 0usize;
        let mut close = open;
        for (j, &b) in bytes[open..].iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = open + j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &src.code[open..=close.max(open)];
        let mutates = signature.contains("&mut self")
            || MUTATION_TOKENS.iter().any(|t| body.contains(t));
        if !mutates {
            continue;
        }
        if doc_block_has_invariants(src, line) {
            continue;
        }
        let fn_name: String = src.code[at + "pub fn ".len()..]
            .bytes()
            .take_while(|&b| is_ident_byte(b))
            .map(char::from)
            .collect();
        out.push(Finding {
            lint: Lint::MissingInvariants,
            file: src.path.clone(),
            line,
            message: format!(
                "`pub fn {fn_name}` mutates shared cache state but its doc \
                 comment has no `# Invariants` section"
            ),
        });
    }
}

/// Walks the contiguous doc-comment/attribute block directly above
/// 1-based `fn_line` in the raw text, looking for `# Invariants`.
fn doc_block_has_invariants(src: &SourceFile, fn_line: usize) -> bool {
    let lines: Vec<&str> = src.raw.lines().collect();
    let mut i = fn_line.saturating_sub(1); // index of the fn line
    while i > 0 {
        let above = lines[i - 1].trim_start();
        if above.starts_with("///") || above.starts_with("#[") || above.starts_with("//") {
            if above.starts_with("///") && above.contains("# Invariants") {
                return true;
            }
            i -= 1;
        } else {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{lint_source, Scope};

    fn findings(src: &str, scope: Scope) -> Vec<Finding> {
        lint_source(&SourceFile::parse("t.rs", src), scope)
    }

    #[test]
    fn allow_annotation_suppresses_on_its_line_only() {
        let src = "pub struct C;\nimpl C {\n    pub fn a(&mut self) {} // lint: allow(missing-invariants, test-only)\n    pub fn b(&mut self) {}\n}\n";
        let scope = Scope { invariants: true, ..Default::default() };
        let f = findings(src, scope);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn mut_self_without_invariants_doc_is_flagged() {
        let src = "pub struct C;\nimpl C {\n    pub fn insert(&mut self) {}\n}\n";
        let scope = Scope { invariants: true, ..Default::default() };
        let f = findings(src, scope);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, Lint::MissingInvariants);
    }

    #[test]
    fn invariants_doc_satisfies_l4() {
        let src = "pub struct C;\nimpl C {\n    /// Inserts.\n    ///\n    /// # Invariants\n    ///\n    /// - count <= limit.\n    pub fn insert(&mut self) {}\n}\n";
        let scope = Scope { invariants: true, ..Default::default() };
        assert!(findings(src, scope).is_empty());
    }

    #[test]
    fn read_only_pub_fn_needs_no_invariants() {
        let src = "pub struct C;\nimpl C {\n    pub fn len(&self) -> usize { 0 }\n}\n";
        let scope = Scope { invariants: true, ..Default::default() };
        assert!(findings(src, scope).is_empty());
    }
}
