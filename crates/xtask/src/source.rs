//! Lexical model of one Rust source file.
//!
//! The lints are deliberately source-level (no syn, no rustc — the registry
//! is offline), so correctness hinges on a faithful *lexical* pass: rule
//! patterns must never match inside comments or string literals, and
//! `#[cfg(test)]` modules are exempt from the per-file policies. This
//! module produces a blanked "code view" of the file (same byte offsets,
//! comment and string interiors replaced by spaces), the per-line
//! `// lint: allow(...)` annotations, and the test-module line mask.

/// One `// lint: allow(<name>[, reason])` annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the annotation sits on (and therefore exempts).
    pub line: usize,
    /// Lint name, e.g. `missing-invariants` or `lock-held-effects`.
    pub name: String,
    /// Optional free-text justification after the comma.
    pub reason: Option<String>,
}

/// A parsed source file ready for linting.
pub struct SourceFile {
    /// Repo-relative path label used in findings.
    pub path: String,
    /// Original text (used only to inspect doc comments for L4).
    pub raw: String,
    /// Same length as `raw`, with comment and string *interiors* blanked to
    /// spaces (newlines kept), so token searches and brace matching see only
    /// real code structure.
    pub code: String,
    /// All allow annotations, in file order.
    pub allows: Vec<Allow>,
    /// 1-based lines carrying a `// relaxed-ok: <reason>` annotation with a
    /// non-empty reason (the L6 escape hatch for justified `Relaxed` use).
    pub relaxed_ok: Vec<usize>,
    /// 1-based lines carrying a `// cold-path: <reason>` annotation with a
    /// non-empty reason. The `fn` declared on the same line or directly
    /// below is pruned from the reachability closures (setup/teardown code
    /// that a hot root calls once per lifetime, not per batch).
    pub cold_paths: Vec<usize>,
    /// 1-based lines carrying a `// bounded-by: <reason>` annotation with a
    /// non-empty reason (the L14 `deadline-safety` justification for a
    /// blocking call reachable from a serve root).
    pub bounded_by: Vec<usize>,
    /// 1-based lines carrying a `// hot-path-root` annotation, in file
    /// order. Each marks the `fn` declared on the same line or on the line
    /// directly below.
    pub hot_roots: Vec<usize>,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
    /// `in_test[i]` is true if 1-based line `i + 1` lies inside a
    /// `#[cfg(test)]` item's braces.
    in_test: Vec<bool>,
}

impl SourceFile {
    pub fn parse(path: impl Into<String>, raw: impl Into<String>) -> Self {
        let path = path.into();
        let raw = raw.into();
        let (code, comments) = blank_non_code(&raw);
        let line_starts = line_starts(&raw);
        let allows = parse_allows(&comments, &line_starts);
        let relaxed_ok = parse_reasoned(&comments, &line_starts, "relaxed-ok:");
        let cold_paths = parse_reasoned(&comments, &line_starts, "cold-path:");
        let bounded_by = parse_reasoned(&comments, &line_starts, "bounded-by:");
        let hot_roots = parse_hot_roots(&comments, &line_starts);
        let in_test = test_line_mask(&code, &line_starts);
        Self {
            path,
            raw,
            code,
            allows,
            relaxed_ok,
            cold_paths,
            bounded_by,
            hot_roots,
            line_starts,
            in_test,
        }
    }

    /// 1-based line containing byte `offset`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// True if 1-based `line` is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.in_test.get(line.saturating_sub(1)).copied().unwrap_or(false)
    }

    /// True if `line` carries an allow annotation for `name`.
    pub fn is_allowed(&self, line: usize, name: &str) -> bool {
        self.allows.iter().any(|a| a.line == line && a.name == name)
    }

    /// True if `line` carries a `// relaxed-ok: <reason>` annotation. The
    /// reason is mandatory — a bare `relaxed-ok:` does not count.
    pub fn has_relaxed_ok(&self, line: usize) -> bool {
        self.relaxed_ok.contains(&line)
    }

    /// True if `line` carries a `// cold-path: <reason>` annotation (reason
    /// mandatory).
    pub fn has_cold_path(&self, line: usize) -> bool {
        self.cold_paths.contains(&line)
    }

    /// True if `line` carries a `// bounded-by: <reason>` annotation
    /// (reason mandatory).
    pub fn has_bounded_by(&self, line: usize) -> bool {
        self.bounded_by.contains(&line)
    }

    /// True if a root annotation covers a `fn` declared on 1-based
    /// `fn_line`: a trailing annotation on the declaration line itself, or
    /// a whole-line comment directly above (one whose code-view line is
    /// blank — a trailing annotation on the *previous* statement's line
    /// must not leak downward).
    pub fn is_root(&self, fn_line: usize) -> bool {
        self.hot_roots.iter().any(|&r| {
            r == fn_line || (r + 1 == fn_line && self.code_line(r).trim().is_empty())
        })
    }

    /// The code-view text of 1-based `line` (comments/strings blanked).
    pub fn code_line(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end =
            self.line_starts.get(line).map_or(self.code.len(), |&next| next.saturating_sub(1));
        &self.code[start..end]
    }
}

fn line_starts(text: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Replaces comment and string-literal interiors with spaces, preserving
/// byte offsets and newlines. Returns the blanked code and a same-length
/// buffer holding *only* comment text (everything else blanked), from which
/// allow annotations are parsed.
fn blank_non_code(text: &str) -> (String, String) {
    let bytes = text.as_bytes();
    let mut code = bytes.to_vec();
    let mut comments = vec![b' '; bytes.len()];
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = line_end(bytes, i);
                for j in i..end {
                    comments[j] = bytes[j];
                    code[j] = b' ';
                }
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                for k in i..j {
                    comments[k] = bytes[k];
                    if bytes[k] != b'\n' {
                        code[k] = b' ';
                    }
                }
                i = j;
            }
            b'"' => {
                let end = string_end(bytes, i + 1);
                for j in i + 1..end.saturating_sub(1).max(i + 1) {
                    if bytes[j] != b'\n' {
                        code[j] = b' ';
                    }
                }
                i = end;
            }
            b'r' if is_raw_string_start(bytes, i) => {
                let hashes = count_hashes(bytes, i + 1);
                let end = raw_string_end(bytes, i + 1 + hashes + 1, hashes);
                for j in i + 1 + hashes + 1..end.saturating_sub(1 + hashes).max(i + 1) {
                    if bytes[j] != b'\n' {
                        code[j] = b' ';
                    }
                }
                i = end;
            }
            b'\'' => {
                // Distinguish char literals from lifetimes: a char literal
                // closes within a few bytes; a lifetime is `'ident` with no
                // closing quote.
                if let Some(end) = char_literal_end(bytes, i) {
                    code[i + 1..end - 1].fill(b' ');
                    i = end;
                } else {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    // Both buffers only ever blank ASCII bytes, so they remain valid UTF-8.
    (String::from_utf8(code).expect("blanking preserves UTF-8"),
     String::from_utf8(comments).expect("blanking preserves UTF-8"))
}

fn line_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |p| from + p)
}

/// Past-the-end offset of a `"..."` literal whose body starts at `from`.
fn string_end(bytes: &[u8], from: usize) -> usize {
    let mut j = from;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"..."` or `r#"..."#` (any hash count); `r` must not be part of a
    // longer identifier (e.g. `for`, `str`).
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn count_hashes(bytes: &[u8], from: usize) -> usize {
    bytes[from..].iter().take_while(|&&b| b == b'#').count()
}

/// Past-the-end offset of a raw string whose body starts at `from` and
/// closes with `"` followed by `hashes` hash marks.
fn raw_string_end(bytes: &[u8], from: usize, hashes: usize) -> usize {
    let mut j = from;
    while j < bytes.len() {
        if bytes[j] == b'"' && bytes[j + 1..].iter().take(hashes).filter(|&&b| b == b'#').count() == hashes {
            return j + 1 + hashes;
        }
        j += 1;
    }
    bytes.len()
}

/// Past-the-end offset of a char literal starting at the `'` at `i`, or
/// `None` if this is a lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escaped char: scan to the closing quote (handles \x7f, \u{...}).
        let mut j = i + 2;
        while j < bytes.len() && j < i + 12 {
            if bytes[j] == b'\'' {
                return Some(j + 1);
            }
            j += 1;
        }
        return None;
    }
    // `'c'` — a plain one-char literal (multi-byte UTF-8 chars included).
    let char_len = utf8_len(next);
    if bytes.get(i + 1 + char_len) == Some(&b'\'') {
        return Some(i + 2 + char_len);
    }
    None
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >> 5 == 0b110 => 2,
        b if b >> 4 == 0b1110 => 3,
        _ => 4,
    }
}

/// Extracts `lint: allow(name[, reason])` annotations from comment text.
fn parse_allows(comments: &str, line_starts: &[usize]) -> Vec<Allow> {
    const MARKER: &str = "lint: allow(";
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = comments[from..].find(MARKER) {
        let start = from + pos + MARKER.len();
        let Some(close) = comments[start..].find(')') else { break };
        let inner = &comments[start..start + close];
        let (name, reason) = match inner.split_once(',') {
            Some((n, r)) => (n.trim().to_string(), Some(r.trim().to_string())),
            None => (inner.trim().to_string(), None),
        };
        let line = match line_starts.binary_search(&(from + pos)) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        out.push(Allow { line, name, reason });
        from = start + close;
    }
    out
}

/// Extracts `<marker> <reason>` annotations (`relaxed-ok:`, `cold-path:`,
/// `bounded-by:`) from comment text. Only annotations with a
/// non-empty reason are recorded — the justification is the point of the escape
/// hatch, so a bare marker does not suppress anything.
fn parse_reasoned(comments: &str, line_starts: &[usize], marker: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = comments[from..].find(marker) {
        let at = from + pos;
        let line = match line_starts.binary_search(&at) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        // The comments buffer holds no newlines (they stay blanked), so the
        // reason must be cut at the annotation's own line end — otherwise a
        // bare marker would borrow the next comment in the file as its
        // "reason".
        let end = line_starts.get(line).map_or(comments.len(), |&n| n - 1);
        let reason = comments[at + marker.len()..end].trim();
        if !reason.is_empty() && !out.contains(&line) {
            out.push(line);
        }
        from = at + marker.len();
    }
    out
}

/// Extracts `hot-path-root` annotations from comment text. A marker
/// followed by `(` (a qualifier this grammar does not have) is ignored
/// entirely: the root simply doesn't register, and L16 reports the root
/// missing from `effects.lock`.
fn parse_hot_roots(comments: &str, line_starts: &[usize]) -> Vec<usize> {
    const MARKER: &str = "hot-path-root";
    let mut out: Vec<usize> = Vec::new();
    let mut from = 0;
    while let Some(pos) = comments[from..].find(MARKER) {
        let at = from + pos;
        from = at + MARKER.len();
        let line = match line_starts.binary_search(&at) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        if comments[from..].starts_with('(') {
            continue;
        }
        if !out.contains(&line) {
            out.push(line);
        }
    }
    out
}

/// Marks every line inside a `#[cfg(test)]` item's brace span.
fn test_line_mask(code: &str, line_starts: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; line_starts.len()];
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("#[cfg(test)]") {
        let attr = from + pos;
        // The braces of the annotated item (module or fn).
        if let Some(open) = bytes[attr..].iter().position(|&b| b == b'{').map(|p| attr + p) {
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
            let first = match line_starts.binary_search(&attr) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            let last = match line_starts.binary_search(&close) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            for line in mask.iter_mut().take(last + 1).skip(first) {
                *line = true;
            }
            from = close.max(attr + 1);
        } else {
            from = attr + 1;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let a = \"panic!\"; // panic! here\nlet b = 1; /* .unwrap() */\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.code.contains("panic!"));
        assert!(!f.code.contains(".unwrap()"));
        assert_eq!(f.code.len(), src.len());
    }

    #[test]
    fn allow_annotations_are_parsed_with_reasons() {
        let src = "let g = m.lock(); // lint: allow(lock-held-effects, init only)\nlet y = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].name, "lock-held-effects");
        assert_eq!(f.allows[0].reason.as_deref(), Some("init only"));
        assert!(f.is_allowed(1, "lock-held-effects"));
        assert!(!f.is_allowed(2, "lock-held-effects"));
    }

    #[test]
    fn cfg_test_spans_are_masked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn lifetimes_do_not_start_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'y';\n";
        let f = SourceFile::parse("t.rs", src);
        // The lifetime text survives; the char body is blanked.
        assert!(f.code.contains("'a>"));
        assert!(f.code.contains("' '"));
    }

    #[test]
    fn relaxed_ok_requires_a_reason() {
        let src = "a.load(Ordering::Relaxed); // relaxed-ok: advisory counter\nb.load(Ordering::Relaxed); // relaxed-ok:\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.has_relaxed_ok(1));
        assert!(!f.has_relaxed_ok(2));
    }

    #[test]
    fn cold_path_requires_a_reason() {
        let src = "// cold-path: runs once per worker lifetime\nfn exit_path() {}\n\
                   // cold-path:\nfn not_cold() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.has_cold_path(1));
        assert!(!f.has_cold_path(3), "a reason is mandatory");
    }

    #[test]
    fn bounded_by_requires_a_reason() {
        let src = "let w = rx.recv(); // bounded-by: sender closes on shutdown\n\
                   let v = rx.recv(); // bounded-by:\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.has_bounded_by(1));
        assert!(!f.has_bounded_by(2), "a reason is mandatory");
    }

    #[test]
    fn hot_root_annotations_parse() {
        let src = "fn a() {} // hot-path-root\n\
                   // hot-path-root\nfn b() {}\n\
                   fn c() {} // hot-path-root(serve)\n\
                   let x = 1; // hot-path-root\nfn d() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.is_root(1));
        assert!(f.is_root(3), "line-above form");
        assert!(!f.is_root(4), "a qualified marker must not register");
        assert!(!f.is_root(6), "a trailing marker must not leak downward");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let s = r#\"has .unwrap() inside\"#;\nlet t = 2;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.code.contains(".unwrap()"));
        assert!(f.code.contains("let t = 2"));
    }
}
