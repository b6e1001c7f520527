//! **L12 `error-coverage`** — every `TgError` variant must be both
//! constructed and matched somewhere in the workspace.
//!
//! A variant nobody constructs is dead API surface; a variant nobody
//! matches is an error the serve layer can only stringify, never handle
//! (retry on `Overloaded`, rebuild on `SnapshotCorrupt`, …). The rule is
//! whole-workspace: occurrences in tests count — a test that asserts
//! `matches!(err, TgError::ShapeMismatch { .. })` *is* the evidence the
//! variant's shape is load-bearing.
//!
//! Occurrence classification is lexical:
//!
//! * An occurrence followed (past its payload and any closing parens) by
//!   `=>` or `|` is a **match**; so is one preceded in the same statement
//!   by `matches!`, `if let`, or `while let`.
//! * Anything else is a **construction**.
//! * Inside the defining crate, `impl From<…> for TgError` bodies count
//!   as constructions (they are what `?` conversions expand to), inherent
//!   `impl TgError` builder fns transfer construction credit to their
//!   call sites (`TgError::parse(…)` constructs `Parse`), and
//!   `Display`/`Debug`/`Error` impl bodies count as neither — formatting
//!   boilerplate would otherwise mark every variant matched.
//!
//! Escape hatch: `// lint: allow(error-coverage, <reason>)` on the
//! variant's declaration line.

use super::{bounded_matches, is_ident_byte, Finding, Lint};
use crate::callgraph::extract_impl_blocks;
use crate::scopes::analyze_fns;
use crate::source::SourceFile;
use std::collections::BTreeMap;

const ENUM_NAME: &str = "TgError";

/// Formatting traits whose `TgError` impls are classification-neutral.
const NEUTRAL_TRAITS: &[&str] = &["Display", "Debug", "Error"];

pub fn lint_error_coverage(sources: &[&SourceFile]) -> Vec<Finding> {
    let Some((def_idx, variants)) = find_variants(sources) else {
        return Vec::new(); // no TgError definition in scope (fixture mode)
    };
    let def = sources[def_idx];
    let impls = extract_impl_blocks(def);
    // Spans inside the defining file that get special treatment.
    let mut neutral_spans: Vec<(usize, usize)> = Vec::new();
    let mut from_spans: Vec<(usize, usize)> = Vec::new();
    let mut builder_spans: Vec<(usize, usize)> = Vec::new();
    for b in &impls {
        if b.self_type != ENUM_NAME {
            continue;
        }
        match b.trait_name.as_deref() {
            Some(t) if NEUTRAL_TRAITS.contains(&t) => neutral_spans.push(b.body),
            Some("From") => from_spans.push(b.body),
            None => builder_spans.push(b.body),
            Some(_) => {}
        }
    }
    // Builder fns: inherent-impl fn name → variants its body constructs.
    let mut builders: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for scope in analyze_fns(def) {
        if !builder_spans.iter().any(|s| scope.body.0 > s.0 && scope.body.1 < s.1) {
            continue;
        }
        let body = &def.code[scope.body.0..=scope.body.1];
        for v in &variants {
            if bounded_matches(body, &format!("{ENUM_NAME}::{}", v.name)).next().is_some() {
                builders.entry(scope.name.clone()).or_default().push(v.name.clone());
            }
        }
    }

    let mut constructed: BTreeMap<&str, bool> = BTreeMap::new();
    let mut matched: BTreeMap<&str, bool> = BTreeMap::new();
    for v in &variants {
        constructed.insert(&v.name, false);
        matched.insert(&v.name, false);
    }
    for (i, src) in sources.iter().enumerate() {
        let prefix = format!("{ENUM_NAME}::");
        for at in bounded_matches(&src.code, &prefix) {
            let after = at + prefix.len();
            let name: String = src.code[after..]
                .bytes()
                .take_while(|&b| is_ident_byte(b))
                .map(char::from)
                .collect();
            if i == def_idx && neutral_spans.iter().any(|s| at > s.0 && at < s.1) {
                continue;
            }
            if let Some(vs) = builders.get(&name) {
                // `TgError::parse(…)` call site (or the builder's own
                // body, which is harmless double credit).
                for v in vs {
                    if let Some(c) = constructed.get_mut(v.as_str()) {
                        *c = true;
                    }
                }
                continue;
            }
            if !variants.iter().any(|v| v.name == name) {
                continue;
            }
            let force_construct = i == def_idx
                && (from_spans.iter().any(|s| at > s.0 && at < s.1)
                    || builder_spans.iter().any(|s| at > s.0 && at < s.1));
            let is_match = !force_construct && occurrence_is_match(&src.code, at, after, &name);
            let slot = if is_match { &mut matched } else { &mut constructed };
            if let Some(flag) = slot.get_mut(name.as_str()) {
                *flag = true;
            }
        }
    }

    let mut out = Vec::new();
    for v in &variants {
        if def.is_allowed(v.line, Lint::ErrorCoverage.name()) {
            continue;
        }
        if !constructed[v.name.as_str()] {
            out.push(Finding {
                lint: Lint::ErrorCoverage,
                file: def.path.clone(),
                line: v.line,
                message: format!(
                    "`{ENUM_NAME}::{}` is never constructed anywhere in the \
                     workspace — dead error surface",
                    v.name
                ),
            });
        }
        if !matched[v.name.as_str()] {
            out.push(Finding {
                lint: Lint::ErrorCoverage,
                file: def.path.clone(),
                line: v.line,
                message: format!(
                    "`{ENUM_NAME}::{}` is never matched anywhere in the \
                     workspace — callers can only stringify it, never handle it",
                    v.name
                ),
            });
        }
    }
    out.sort_by_key(|f| (f.line, f.message.clone()));
    out
}

struct Variant {
    name: String,
    line: usize,
}

/// Locates `enum TgError` and its variant names/lines.
fn find_variants(sources: &[&SourceFile]) -> Option<(usize, Vec<Variant>)> {
    for (i, src) in sources.iter().enumerate() {
        let Some(at) = bounded_matches(&src.code, "enum ").find(|&at| {
            src.code[at + 5..].trim_start().starts_with(ENUM_NAME)
                && !src
                    .code[at + 5..]
                    .trim_start()
                    .as_bytes()
                    .get(ENUM_NAME.len())
                    .is_some_and(|&b| is_ident_byte(b))
        }) else {
            continue;
        };
        let bytes = src.code.as_bytes();
        let open = at + src.code[at..].find('{')?;
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
        let mut variants = Vec::new();
        let mut j = open + 1;
        let mut nest = 0i32; // (), {}, <> nesting inside payloads
        while j < close {
            match bytes[j] {
                b'(' | b'{' | b'<' => nest += 1,
                b')' | b'}' | b'>' if bytes[j.saturating_sub(1)] != b'-' => nest -= 1,
                b'A'..=b'Z' if nest <= 0 && !is_ident_byte(bytes[j - 1]) => {
                    let start = j;
                    while j < close && is_ident_byte(bytes[j]) {
                        j += 1;
                    }
                    variants.push(Variant {
                        name: src.code[start..j].to_string(),
                        line: src.line_of(start),
                    });
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        return Some((i, variants));
    }
    None
}

/// Is the occurrence at `at` (name ending at `after + name.len()`) a
/// match-position use? Forward evidence (`=>` / `|` past the payload)
/// first, then backward evidence (`matches!` / `if let` / `while let`
/// earlier in the statement).
fn occurrence_is_match(code: &str, at: usize, after: usize, name: &str) -> bool {
    let bytes = code.as_bytes();
    let mut j = after + name.len();
    // Skip one balanced payload group, if present.
    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
        j += 1;
    }
    if j < bytes.len() && (bytes[j] == b'(' || bytes[j] == b'{') {
        let (openb, closeb) = if bytes[j] == b'(' { (b'(', b')') } else { (b'{', b'}') };
        let mut depth = 0usize;
        while j < bytes.len() {
            if bytes[j] == openb {
                depth += 1;
            } else if bytes[j] == closeb {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Skip whitespace and closing parens (e.g. the `)` ending `matches!`).
    while j < bytes.len() && (bytes[j].is_ascii_whitespace() || bytes[j] == b')') {
        j += 1;
    }
    if code[j..].starts_with("=>") || code[j..].starts_with('|') {
        return true;
    }
    // Backward: statement window up to the occurrence.
    let stmt = code[..at]
        .rfind([';', '{', '}'])
        .map_or(0, |p| p + 1);
    let window = &code[stmt..at];
    window.contains("matches!") || window.contains("if let") || window.contains("while let")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<SourceFile> =
            files.iter().map(|(p, s)| SourceFile::parse(*p, *s)).collect();
        let refs: Vec<&SourceFile> = parsed.iter().collect();
        lint_error_coverage(&refs)
    }

    const DEF: &str = "pub enum TgError {\n    Io(std::io::Error),\n    Overloaded { capacity: usize },\n}\n\
        impl std::fmt::Display for TgError {\n    fn fmt(&self) { match self { TgError::Io(_) => {}, TgError::Overloaded { .. } => {} } }\n}\n\
        impl From<std::io::Error> for TgError {\n    fn from(e: std::io::Error) -> Self { TgError::Io(e) }\n}\n";

    #[test]
    fn display_impl_does_not_count_as_matching() {
        let user = "fn f() -> Result<(), TgError> { Err(TgError::Overloaded { capacity: 1 }) }\n\
            fn g(e: &TgError) -> bool { matches!(e, TgError::Io(_)) }\n\
            fn h(e: &TgError) -> bool { matches!(e, TgError::Overloaded { .. }) }\n";
        assert!(run(&[("err.rs", DEF), ("user.rs", user)]).is_empty());
    }

    #[test]
    fn unmatched_variant_is_flagged() {
        let user = "fn f() -> Result<(), TgError> { Err(TgError::Overloaded { capacity: 1 }) }\n\
            fn g(e: &TgError) -> bool { matches!(e, TgError::Io(_)) }\n";
        let f = run(&[("err.rs", DEF), ("user.rs", user)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Overloaded"));
        assert!(f[0].message.contains("never matched"));
    }

    #[test]
    fn unconstructed_variant_is_flagged_even_when_matched() {
        let user = "fn g(e: &TgError) -> bool { matches!(e, TgError::Io(_)) }\n\
            fn h(e: &TgError) -> bool { matches!(e, TgError::Overloaded { .. }) }\n";
        let f = run(&[("err.rs", DEF), ("user.rs", user)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Overloaded"));
        assert!(f[0].message.contains("never constructed"));
    }

    #[test]
    fn from_impl_counts_as_construction() {
        // `Io` is only ever built through the `From` impl (i.e. by `?`),
        // yet it must count as constructed.
        let user = "fn g(e: &TgError) -> bool { matches!(e, TgError::Io(_)) }\n\
            fn f() -> Result<(), TgError> { Err(TgError::Overloaded { capacity: 1 }) }\n\
            fn h(e: &TgError) -> bool { matches!(e, TgError::Overloaded { .. }) }\n";
        assert!(run(&[("err.rs", DEF), ("user.rs", user)]).is_empty());
    }

    #[test]
    fn builder_call_site_counts_as_construction() {
        let def = "pub enum TgError {\n    Parse { message: String },\n}\n\
            impl TgError {\n    pub fn parse(m: &str) -> Self { TgError::Parse { message: m.into() } }\n}\n";
        let user = "fn f() -> Result<(), TgError> { Err(TgError::parse(\"bad\")) }\n\
            fn g(e: &TgError) -> bool { matches!(e, TgError::Parse { .. }) }\n";
        assert!(run(&[("err.rs", def), ("user.rs", user)]).is_empty());
    }

    #[test]
    fn match_arm_and_or_pattern_count_as_matching() {
        let user = "fn f(e: TgError) -> u8 {\n    match e {\n        TgError::Io(_) | TgError::Overloaded { .. } => 1,\n    }\n}\n\
            fn mk() -> TgError { TgError::Overloaded { capacity: 2 } }\n";
        assert!(run(&[("err.rs", DEF), ("user.rs", user)]).is_empty());
    }

    #[test]
    fn allow_on_declaration_line_suppresses() {
        let def = "pub enum TgError {\n    Spare, // lint: allow(error-coverage, reserved for the v2 wire format)\n}\n";
        assert!(run(&[("err.rs", def)]).is_empty());
    }
}
