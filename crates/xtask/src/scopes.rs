//! Lightweight intra-function scope/CFG walk for the concurrency rules.
//!
//! The walker scans each `fn` body in a file's code view (comments and
//! strings already blanked by [`crate::source`]) and reconstructs the one
//! fact L13 (`lock-held-effects`) needs: **which lock guards are live at
//! each point**. Guard liveness follows Rust's drop rules closely enough
//! for linting:
//!
//! * `let g = ...lock();` binds a guard that lives until its enclosing
//!   block closes or an explicit `drop(g)`.
//! * A lock call that is *not* the final value of a `let` statement (a
//!   `*deref` copy, a chained call like `x.lock().unwrap_len()`, a bare
//!   expression statement) produces a temporary guard held to the end of
//!   the statement.
//!
//! Lock acquisitions are the no-argument guard constructors `.lock()`,
//! `.read()`, and `.write()` — the shared `std::sync`/`parking_lot` API
//! surface. A lock's *name* is the last path segment of its receiver
//! (`self.shards[i].write()` → `shards`), which is how the canonical
//! order in `concurrency.toml` refers to it; a loop binding takes the
//! name of the field it iterates (`for shard in &self.shards` →
//! `shards`).

use crate::source::SourceFile;

/// A lock-guard constructor call.
const LOCK_CALLS: &[&str] = &[".lock()", ".read()", ".write()"];

/// One lock acquisition observed during the walk of a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Acquire {
    /// Lock name (receiver's last path segment).
    pub lock: String,
    /// 1-based line of the guard constructor.
    pub line: usize,
    /// Every distinct lock already guarded at this point, with its
    /// acquisition line, outermost first.
    pub held: Vec<(String, usize)>,
}

/// A byte range of the code view during which at least one lock guard is
/// live. The effect engine (L13 `lock-held-effects`) intersects call
/// *sites* with these ranges — reusing the call-graph's own site
/// detection rather than re-implementing it here, so the two can never
/// disagree about what counts as a call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Start byte (first byte at which the held set below is live).
    pub start: usize,
    /// Past-the-end byte.
    pub end: usize,
    /// Distinct held lock names with their acquisition lines, outermost
    /// first.
    pub held: Vec<(String, usize)>,
}

/// The walked acquisitions and guard regions of one `fn`.
#[derive(Clone, Debug)]
pub struct FnScope {
    /// Function name (empty for closures promoted to items — not expected).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body byte span in the code view, `[open, close]` braces inclusive.
    pub body: (usize, usize),
    /// Lock acquisitions in source order.
    pub acquires: Vec<Acquire>,
    /// Guard-liveness byte ranges (non-empty held sets only), in order.
    pub regions: Vec<Region>,
}

/// A live guard during the walk.
struct Guard {
    /// Binding name (`None` for statement temporaries).
    binding: Option<String>,
    /// Lock name (receiver's last path segment).
    lock: String,
    /// Brace depth the guard was created at.
    depth: usize,
    /// True for statement temporaries (die at the next `;`/`{`).
    temp: bool,
    /// 1-based acquisition line.
    line: usize,
}

/// Walks every function body in the file.
pub fn analyze_fns(src: &SourceFile) -> Vec<FnScope> {
    let code = &src.code;
    let bytes = code.as_bytes();
    let mut out: Vec<FnScope> = Vec::new();
    let mut from = 0;
    while let Some(pos) = code[from..].find("fn ") {
        let at = from + pos;
        from = at + 3;
        // Word boundary on the left (`pub fn` yes, `extern_fn ` no).
        if at > 0 && (bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_') {
            continue;
        }
        // Skip nested fns — their body is already walked with the parent's.
        if out.iter().any(|f| at > f.body.0 && at < f.body.1) {
            continue;
        }
        let name: String = code[at + 3..]
            .bytes()
            .take_while(|&b| b.is_ascii_alphanumeric() || b == b'_')
            .map(char::from)
            .collect();
        let Some((open, close)) = body_span(bytes, at) else { continue };
        let (acquires, regions) = walk_body(src, open, close);
        out.push(FnScope { name, line: src.line_of(at), body: (open, close), acquires, regions });
    }
    out
}

/// Finds the `{` opening the body of the fn at `at` (skipping the
/// signature, which may contain `;`-free generic/array tokens) and its
/// matching `}`. Returns `None` for bodyless trait declarations.
fn body_span(bytes: &[u8], at: usize) -> Option<(usize, usize)> {
    let mut nest = 0i32;
    let mut open = None;
    for (j, &b) in bytes[at..].iter().enumerate() {
        match b {
            b'(' | b'[' | b'<' => nest += 1,
            b')' | b']' | b'>' => nest -= 1,
            b'{' => {
                open = Some(at + j);
                break;
            }
            b';' if nest <= 0 => return None,
            _ => {}
        }
    }
    let open = open?;
    let mut depth = 0usize;
    for (j, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, open + j));
                }
            }
            _ => {}
        }
    }
    Some((open, bytes.len().saturating_sub(1)))
}

/// Linear walk of one body span, producing acquisitions and
/// guard-liveness regions in order.
fn walk_body(src: &SourceFile, open: usize, close: usize) -> (Vec<Acquire>, Vec<Region>) {
    let code = &src.code;
    let bytes = code.as_bytes();
    let mut acquires = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut regions: Vec<Region> = Vec::new();
    let mut cur_held: Vec<(String, usize)> = Vec::new();
    let mut cur_start = open;
    let mut depth = 0usize;
    let mut stmt_start = open;
    let mut i = open;
    while i <= close {
        match bytes[i] {
            b'{' => {
                depth += 1;
                // A `{` ends the scrutinee/initializer expression: any
                // statement temporary has done its job for lint purposes.
                guards.retain(|g| !g.temp);
                sync_regions(&mut regions, &mut cur_held, &mut cur_start, &guards, i);
                stmt_start = i + 1;
            }
            b'}' => {
                guards.retain(|g| g.depth < depth);
                sync_regions(&mut regions, &mut cur_held, &mut cur_start, &guards, i);
                depth = depth.saturating_sub(1);
                stmt_start = i + 1;
            }
            b';' => {
                guards.retain(|g| !g.temp);
                sync_regions(&mut regions, &mut cur_held, &mut cur_start, &guards, i);
                stmt_start = i + 1;
            }
            b'd' if code[i..].starts_with("drop(")
                && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')) =>
            {
                let target: String = code[i + 5..]
                    .bytes()
                    .take_while(|&b| b.is_ascii_alphanumeric() || b == b'_')
                    .map(char::from)
                    .collect();
                guards.retain(|g| g.binding.as_deref() != Some(target.as_str()));
                sync_regions(&mut regions, &mut cur_held, &mut cur_start, &guards, i);
            }
            b'.' => {
                if let Some(call) = LOCK_CALLS.iter().find(|c| code[i..].starts_with(**c)) {
                    let lock = receiver_name(code, i);
                    let line = src.line_of(i);
                    let held = distinct_held(&guards);
                    acquires.push(Acquire { lock: lock.clone(), line, held });
                    let stmt = &code[stmt_start..i];
                    let (binding, temp) = classify_binding(stmt, code, i + call.len(), close);
                    guards.push(Guard { binding, lock, depth, temp, line });
                    // The new guard is live from the byte after its
                    // constructor — a wrapper receiving the guard
                    // (`relock(x.lock())`) is not "under" it.
                    i += call.len();
                    sync_regions(&mut regions, &mut cur_held, &mut cur_start, &guards, i);
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    sync_regions(&mut regions, &mut cur_held, &mut cur_start, &[], close + 1);
    (acquires, regions)
}

/// Closes the open guard-liveness region (if any) when the distinct held
/// set changes at byte `at`, and opens the next one.
fn sync_regions(
    regions: &mut Vec<Region>,
    cur_held: &mut Vec<(String, usize)>,
    cur_start: &mut usize,
    guards: &[Guard],
    at: usize,
) {
    let held = distinct_held(guards);
    if held == *cur_held {
        return;
    }
    if !cur_held.is_empty() && at > *cur_start {
        regions.push(Region { start: *cur_start, end: at, held: std::mem::take(cur_held) });
    }
    *cur_held = held;
    *cur_start = at;
}

fn distinct_held(guards: &[Guard]) -> Vec<(String, usize)> {
    let mut held: Vec<(String, usize)> = Vec::new();
    for g in guards {
        if !held.iter().any(|(l, _)| *l == g.lock) {
            held.push((g.lock.clone(), g.line));
        }
    }
    held
}

/// Decides whether the lock call at the end of `stmt` (so far) binds a
/// long-lived guard or a statement temporary.
///
/// Bound means: the statement is a `let`, the initializer is not a
/// dereferencing copy (`let x = *a.lock();` drops the guard at the `;`),
/// and nothing but closing parens follows the lock call before the `;` —
/// a chained call (`a.lock().pop()`) means the *result of the chain*, not
/// the guard, is bound.
fn classify_binding(
    stmt: &str,
    code: &str,
    after_call: usize,
    close: usize,
) -> (Option<String>, bool) {
    let trimmed = stmt.trim_start();
    if !trimmed.starts_with("let ") {
        return (None, true);
    }
    let Some(eq) = trimmed.find('=') else { return (None, true) };
    let init = trimmed[eq + 1..].trim_start();
    if init.starts_with('*') || init.starts_with("match ") || init.starts_with("if ") {
        return (None, true);
    }
    // Tail after the lock call: only `)` closers and whitespace may appear
    // before the terminating `;` for the guard itself to be what's bound.
    for b in code.as_bytes()[after_call..=close].iter() {
        match b {
            b')' | b' ' | b'\t' | b'\n' => continue,
            b';' => break,
            _ => return (None, true),
        }
    }
    let mut name = trimmed[4..eq].trim();
    name = name.strip_prefix("mut ").unwrap_or(name).trim();
    // Pattern bindings (`let (a, b) = ...`) never bind a bare guard.
    if name.is_empty() || !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
        return (None, true);
    }
    (Some(name.to_string()), false)
}

/// Last path segment of the receiver ending just before the `.` at `dot`:
/// walks back over identifier segments, `.` separators, and balanced
/// `[...]`/`(...)` groups. `self.shards[shard_of(k)].write()` → `shards`.
pub(crate) fn receiver_name(code: &str, dot: usize) -> String {
    let bytes = code.as_bytes();
    let mut i = dot;
    let mut last_segment = String::new();
    let mut segments = 0usize;
    while i > 0 {
        let b = bytes[i - 1];
        match b {
            b']' | b')' => {
                let open = if b == b']' { b'[' } else { b'(' };
                let mut depth = 1usize;
                i -= 1;
                while i > 0 && depth > 0 {
                    i -= 1;
                    if bytes[i] == b {
                        depth += 1;
                    } else if bytes[i] == open {
                        depth -= 1;
                    }
                }
                // An index/call group is part of the receiver but never its
                // name; keep walking toward the segment before it.
            }
            _ if b.is_ascii_alphanumeric() || b == b'_' => {
                let end = i;
                while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
                    i -= 1;
                }
                segments += 1;
                if last_segment.is_empty() {
                    last_segment = code[i..end].to_string();
                } else {
                    // Already have the last segment; earlier segments only
                    // matter to keep consuming the path.
                }
                // Stop unless a `.` continues the path leftward.
                if i == 0 || bytes[i - 1] != b'.' {
                    break;
                }
            }
            b'.' => i -= 1,
            _ => break,
        }
    }
    if segments == 1 {
        if let Some(field) = loop_source(code, dot, &last_segment) {
            return field;
        }
    }
    last_segment
}

/// The last path segment iterated by the innermost `for name in <path>`
/// loop whose body encloses byte `at` (`for shard in &self.shards` →
/// `shards`), so an element taken through a loop binding carries the
/// name of what it came from. `None` when no such loop encloses `at` or
/// its iterator is not a plain path.
fn loop_source(code: &str, at: usize, name: &str) -> Option<String> {
    let bytes = code.as_bytes();
    let head = format!("for {name} in ");
    let mut end = at;
    while let Some(pos) = code[..end].rfind(&head) {
        end = pos;
        if pos > 0 && (bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_') {
            continue;
        }
        let iter_at = pos + head.len();
        let open = iter_at + code[iter_at..].find('{')?;
        let mut depth = 0usize;
        let close = (open..bytes.len()).find(|&j| {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
            depth == 0
        })?;
        if !(open < at && at < close) {
            continue;
        }
        let iter = code[iter_at..open].trim();
        let iter = iter.strip_prefix("&mut ").or_else(|| iter.strip_prefix('&')).unwrap_or(iter);
        let iter = iter.strip_suffix(".iter()").or_else(|| iter.strip_suffix(".iter_mut()")).unwrap_or(iter);
        let plain = iter.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.');
        return plain.then(|| iter.rsplit('.').next().unwrap_or(iter).to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acquires(src: &str) -> Vec<Acquire> {
        let f = SourceFile::parse("t.rs", src);
        analyze_fns(&f).into_iter().flat_map(|s| s.acquires).collect()
    }

    fn regions(src: &str) -> Vec<Region> {
        analyze_fns(&SourceFile::parse("t.rs", src)).remove(0).regions
    }

    #[test]
    fn bound_guard_is_held_until_block_end() {
        let ev = acquires("fn f(&self) {\n    let g = self.fifo.lock();\n    let s = self.shards[0].write();\n}\n");
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].lock, "shards");
        assert_eq!(ev[1].held, vec![("fifo".to_string(), 2)]);
    }

    #[test]
    fn inner_block_guard_dies_at_block_close() {
        let ev = acquires("fn f(&self) {\n    {\n        let g = self.fifo.lock();\n    }\n    let s = self.state.lock();\n}\n");
        assert_eq!(ev[1].lock, "state");
        assert!(ev[1].held.is_empty(), "fifo guard must be dead: {:?}", ev[1].held);
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let ev = acquires("fn f(&self) {\n    let g = self.a.lock();\n    drop(g);\n    let h = self.b.lock();\n}\n");
        assert!(ev[1].held.is_empty());
    }

    #[test]
    fn deref_copy_is_a_statement_temporary() {
        let src = "fn f(&self) {\n    let c = *self.counters.lock();\n    self.engine.embed_batch(&c);\n}\n";
        let r = regions(src);
        assert!(r.iter().all(|r| r.end <= src.find("self.engine").unwrap()), "{r:?}");
    }

    #[test]
    fn chained_call_holds_a_temporary_through_the_statement() {
        let src = "fn f(&self) {\n    let wave = match relock(rx.lock()).recv() { Ok(w) => w, Err(_) => return };\n}\n";
        let recv = src.find(".recv").unwrap();
        assert!(regions(src).iter().any(|r| r.start <= recv && recv < r.end && r.held[0].0 == "rx"));
    }

    #[test]
    fn indexed_receiver_names_the_field() {
        assert_eq!(acquires("fn f(&self) {\n    let s = self.shards[shard_of(key)].read();\n}\n")[0].lock, "shards");
    }

    #[test]
    fn loop_binding_names_the_field_it_iterates() {
        let src = "fn f(&self) {\n    let g = self.fifo.lock();\n    for shard in &self.shards {\n        shard.write().clear();\n    }\n    for s in self.locks.iter() {\n        s.read();\n    }\n}\nfn g(shard: &L) {\n    shard.write();\n}\n";
        let ev = acquires(src);
        assert_eq!(ev[1].lock, "shards");
        assert_eq!(ev[1].held, vec![("fifo".to_string(), 2)]);
        assert_eq!(ev[2].lock, "locks");
        // Outside any loop that binds it, the name is the binding's own.
        assert_eq!(ev[3].lock, "shard");
    }

    #[test]
    fn guarded_regions_cover_bound_guard_lifetimes() {
        let src = "fn f(&self) {\n    let g = self.fifo.lock();\n    self.work();\n}\n";
        let f = SourceFile::parse("t.rs", src);
        let scopes = analyze_fns(&f);
        let regions = &scopes[0].regions;
        assert_eq!(regions.len(), 1, "{regions:?}");
        assert_eq!(regions[0].held, vec![("fifo".to_string(), 2)]);
        let work = src.find("self.work").unwrap();
        assert!(regions[0].start < work && work < regions[0].end);
        // The lock constructor itself is *before* the region.
        let lock_at = src.find(".lock()").unwrap();
        assert!(regions[0].start >= lock_at + ".lock()".len());
    }

    #[test]
    fn guarded_regions_end_at_drop_and_temp_statement_end() {
        let src = "fn f(&self) {\n    let g = self.a.lock();\n    drop(g);\n    self.after_drop();\n    relock(self.b.lock()).touch(x);\n    self.after_stmt();\n}\n";
        let f = SourceFile::parse("t.rs", src);
        let regions = analyze_fns(&f).remove(0).regions;
        assert_eq!(regions.len(), 2, "{regions:?}");
        let after_drop = src.find("self.after_drop").unwrap();
        let touch = src.find(".touch").unwrap();
        let after_stmt = src.find("self.after_stmt").unwrap();
        // `a` region closes before the code after drop(g).
        assert_eq!(regions[0].held[0].0, "a");
        assert!(regions[0].end <= after_drop);
        // The temp `b` guard covers the chained `.touch(` call but dies at
        // the statement's `;`.
        assert_eq!(regions[1].held[0].0, "b");
        assert!(regions[1].start < touch && touch < regions[1].end);
        assert!(regions[1].end <= after_stmt);
    }

    #[test]
    fn nested_guard_regions_track_the_distinct_held_set() {
        let src = "fn f(&self) {\n    let g = self.gen.read();\n    {\n        let d = self.delta.write();\n        self.inner();\n    }\n    self.outer();\n}\n";
        let f = SourceFile::parse("t.rs", src);
        let regions = analyze_fns(&f).remove(0).regions;
        let inner = src.find("self.inner").unwrap();
        let outer = src.find("self.outer").unwrap();
        let both = regions
            .iter()
            .find(|r| r.start < inner && inner < r.end)
            .expect("inner call must be covered");
        assert_eq!(
            both.held.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
            vec!["gen", "delta"]
        );
        let only_gen = regions
            .iter()
            .find(|r| r.start < outer && outer < r.end)
            .expect("outer call must be covered");
        assert_eq!(only_gen.held.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(), vec!["gen"]);
    }
}
