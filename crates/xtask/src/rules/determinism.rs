//! **L11 `float-determinism`** — order- and NaN-sensitive float patterns.
//!
//! The 10k-GPU-hours TGNN evaluation paper (PAPERS.md) documents how
//! easily reported numbers drift under nondeterminism, and a fix to the
//! since-deleted hash-memoized time cache showed the same bug class live in
//! this repo (which deltas it kept followed map iteration order): float
//! results must not depend on hash-iteration order or on `partial_cmp`'s
//! NaN behavior. Two patterns (pattern 1, `partial_cmp(..).unwrap()`, is
//! clippy's `unwrap_used`/`expect_used` now; the numbers are kept):
//!
//! 2. A float comparator built from `partial_cmp` inside `sort_by` /
//!    `sort_unstable_by` / `max_by` / `min_by` — NaN makes the comparator
//!    inconsistent and the result order-dependent. Comparators using
//!    `total_cmp` are clean.
//! 3. Iterating a hash map/set (`FxHashMap` included — Fx is faster, not
//!    ordered) into a numeric accumulation (`.sum()` / `.fold(…)` /
//!    `.product()` / a `+=` loop) — float addition is not associative, so
//!    the result depends on bucket order. Integer turbofish sums
//!    (`.sum::<usize>()` etc.) are associative and exempt.
//!
//! Escape hatch: `// lint: allow(float-determinism, <reason>)`.

use super::{bounded_matches, is_ident_byte, Finding, Lint};
use crate::source::SourceFile;

const SORTERS: &[&str] = &[".sort_by(", ".sort_unstable_by(", ".max_by(", ".min_by("];

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

const INT_TURBOFISH: &[&str] = &[
    "::<usize>", "::<u64>", "::<u32>", "::<u16>", "::<u8>", "::<isize>", "::<i64>", "::<i32>",
    "::<i16>", "::<i8>",
];

pub(crate) fn lint_float_determinism(src: &SourceFile, out: &mut Vec<Finding>) {
    float_sorters(src, out);
    hash_iteration_accumulation(src, out);
    out.sort_by_key(|f| f.line);
    out.dedup();
}

/// Pattern 2: `sort_by`-family call whose comparator uses `partial_cmp`.
fn float_sorters(src: &SourceFile, out: &mut Vec<Finding>) {
    let bytes = src.code.as_bytes();
    for sorter in SORTERS {
        for at in match_all(&src.code, sorter) {
            let Some(close) = paren_close(bytes, at + sorter.len() - 1) else { continue };
            let comparator = &src.code[at + sorter.len()..close];
            if comparator.contains("partial_cmp") && !comparator.contains("total_cmp") {
                push(
                    src,
                    at,
                    "float comparator via `partial_cmp` is inconsistent under NaN; \
                     use `f32::total_cmp`",
                    out,
                );
            }
        }
    }
}

/// Pattern 3: hash-container iteration feeding a numeric accumulation.
fn hash_iteration_accumulation(src: &SourceFile, out: &mut Vec<Finding>) {
    let names = hash_container_names(src);
    let bytes = src.code.as_bytes();
    for name in &names {
        // Iterator chains: `m.values().sum::<f32>()`, `m.iter().fold(…)`.
        for method in [".iter()", ".values()", ".keys()", ".into_iter()", ".into_values()"] {
            let pat = format!("{name}{method}");
            for at in bounded_matches(&src.code, &pat) {
                let stmt_end = src.code[at..].find(';').map_or(src.code.len(), |p| at + p);
                let chain = &src.code[at..stmt_end];
                if accumulates_floats(chain) {
                    push(
                        src,
                        at,
                        "numeric accumulation over hash-iteration order is \
                         nondeterministic; sort the keys (or accumulate integers) first",
                        out,
                    );
                }
            }
        }
        // `for … in name { … += … }` loops (`&name`, `name.iter()` both
        // reduce to the name token appearing between `in` and `{`).
        for at in match_all(&src.code, "for ") {
            if at > 0 && is_ident_byte(bytes[at - 1]) {
                continue;
            }
            let Some(rel_in) = src.code[at..].find(" in ") else { continue };
            let after_in = at + rel_in + 4;
            let Some(rel_open) = src.code[after_in..].find('{') else { continue };
            let head = &src.code[after_in..after_in + rel_open];
            if bounded_matches(head, name).next().is_none() {
                continue;
            }
            let open = after_in + rel_open;
            let Some(close) = brace_close(bytes, open) else { continue };
            if src.code[open..close].contains("+=") {
                push(
                    src,
                    at,
                    "`+=` accumulation in hash-iteration order is nondeterministic \
                     for floats; sort the keys first",
                    out,
                );
            }
        }
    }
}

/// Identifiers declared (or typed) as a hash map/set in this file.
fn hash_container_names(src: &SourceFile) -> Vec<String> {
    let bytes = src.code.as_bytes();
    let mut names: Vec<String> = Vec::new();
    for ty in HASH_TYPES {
        let pats = [
            format!(": {ty}<"),
            format!(": &{ty}<"),
            format!(": &mut {ty}<"),
            format!("= {ty}::"),
            format!(":{ty}<"),
        ];
        for pat in pats {
            for at in match_all(&src.code, &pat) {
                // Identifier ending just before the `:` / `=` (skip back
                // over whitespace and the separator).
                let mut j = at;
                while j > 0 && (bytes[j - 1] == b' ' || bytes[j - 1] == b':' || bytes[j - 1] == b'=')
                {
                    j -= 1;
                }
                let end = j;
                while j > 0 && is_ident_byte(bytes[j - 1]) {
                    j -= 1;
                }
                if j < end {
                    let name = src.code[j..end].to_string();
                    if name != "mut" && !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Does an iterator chain end in a float-valued accumulation?
fn accumulates_floats(chain: &str) -> bool {
    for acc in [".sum(", ".sum::<", ".product(", ".product::<", ".fold("] {
        let Some(at) = chain.find(acc) else { continue };
        let tail = &chain[at..];
        if INT_TURBOFISH.iter().any(|t| tail.starts_with(&format!(".sum{t}"))
            || tail.starts_with(&format!(".product{t}")))
        {
            continue; // integer accumulation is associative
        }
        if tail.starts_with(".sum::<") || tail.starts_with(".product::<") {
            // A turbofish that is not an integer type: float (or exotic).
            let args = &tail[tail.find('<').map_or(0, |p| p + 1)..];
            if INT_TURBOFISH.iter().any(|t| args.starts_with(&t[3..])) {
                continue;
            }
        }
        return true;
    }
    false
}

fn push(src: &SourceFile, at: usize, message: &str, out: &mut Vec<Finding>) {
    let line = src.line_of(at);
    if src.is_test_line(line) || src.is_allowed(line, Lint::FloatDeterminism.name()) {
        return;
    }
    out.push(Finding {
        lint: Lint::FloatDeterminism,
        file: src.path.clone(),
        line,
        message: message.to_string(),
    });
}

/// All occurrences, no word-boundary requirement (patterns here start
/// with `.` or carry their own trailing delimiter).
fn match_all<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0;
    std::iter::from_fn(move || {
        let pos = hay[from..].find(needle)?;
        let at = from + pos;
        from = at + 1;
        Some(at)
    })
}

/// Index of the `)` matching the `(` at `open`.
fn paren_close(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + j);
                }
            }
            _ => {}
        }
    }
    None
}

fn brace_close(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{lint_source, Scope};

    fn findings(src: &str) -> Vec<Finding> {
        let scope = Scope { float_determinism: true, ..Scope::default() };
        lint_source(&SourceFile::parse("t.rs", src), scope)
    }

    #[test]
    fn total_cmp_sort_is_clean() {
        let src = "fn f(xs: &mut [f32]) { xs.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn partial_cmp_sort_is_flagged() {
        let src = "fn f(xs: &mut [f32]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let f = findings(src);
        assert!(!f.is_empty());
        assert!(f.iter().any(|x| x.message.contains("total_cmp")));
    }

    #[test]
    fn float_sum_over_hash_values_is_flagged() {
        let src = "use rustc_hash::FxHashMap;\nfn f(m: &FxHashMap<u64, f32>) -> f32 {\n    let m: FxHashMap<u64, f32> = m.clone();\n    m.values().sum::<f32>()\n}\n";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn integer_count_over_hash_values_is_clean() {
        let src = "fn f() {\n    let m: FxHashMap<u64, u64> = FxHashMap::default();\n    let _ = m.values().sum::<u64>();\n}\n";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn accumulating_for_loop_over_hash_map_is_flagged() {
        let src = "fn f() {\n    let m: FxHashMap<u64, f32> = FxHashMap::default();\n    let mut acc = 0.0;\n    for (_, v) in &m { acc += v; }\n}\n";
        assert_eq!(findings(src).len(), 1);
    }

    #[test]
    fn vec_iteration_is_clean() {
        let src = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
        assert!(findings(src).is_empty());
    }
}
