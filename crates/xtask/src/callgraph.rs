//! Cross-crate call-graph reachability: the graph behind L10
//! (`panic-reach`), L13 (`lock-held-effects`) and L14 (`deadline-safety`).
//!
//! The per-file lints L4–L8 answer "does this line violate the policy?";
//! the questions that protect the serve path are reachability questions:
//! *can a request entering `embed_batch` or the serve worker loop reach a
//! panic or an unbounded wait?* This module builds a function-level call
//! graph over the whole workspace from the blanked code views
//! ([`crate::source`]) and the fn-scope extraction
//! ([`crate::scopes::analyze_fns`]), seeds it from `// hot-path-root`
//! annotations, and checks everything transitively reachable against the
//! shared call tables in [`crate::rules::calls`]. (Allocation is not a
//! lint: `tests/alloc_gate.rs` counts the hot path's real allocations.)
//!
//! ## Name resolution model (and its known limits)
//!
//! Resolution is *name-based*, not type-based — there is no trait solver
//! here. A call site resolves to workspace functions as follows:
//!
//! * `Type::name(...)` / `module::name(...)` — functions named `name`
//!   inside an `impl` block whose self-type's last path segment is the
//!   qualifier; if none match, free functions named `name`.
//!   `Self::name(...)` first rewrites `Self` to the enclosing impl type.
//! * `recv.name(...)` — every impl-block function named `name`, in any
//!   workspace crate (the receiver's type is unknown).
//! * `name(...)` — every free function named `name`.
//!
//! This over-approximates: two unrelated `fn len` impls alias, closures
//! and function pointers are invisible, and macro bodies are opaque. For
//! a lint, over-approximation is the safe direction — it can only make
//! the closure (and therefore the checked region) larger. The escape
//! hatches (`// cold-path:`, `// lint: allow(...)`) are the pressure
//! valve, and each demands a written reason.
//!
//! ## Annotation grammar
//!
//! * `// hot-path-root` — the fn on this line (or the line below) seeds
//!   the closures and gets a row in `effects.lock`.
//! * `// cold-path: <reason>` — the fn is pruned from the closures
//!   (setup/teardown a root calls once per lifetime, not per batch).

use crate::rules::calls::PANIC_PATTERNS;
use crate::rules::{is_ident_byte, Finding, Lint};
use crate::scopes::analyze_fns;
use crate::source::SourceFile;

/// One function in the graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index into the source slice the graph was built over.
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Self-type's last path segment for impl-block fns, `None` for free
    /// fns. (`impl TimeEncodeCache` → `TimeEncodeCache`.)
    pub qual: Option<String>,
    /// Trait's last path segment for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body byte span in the code view, `[open, close]` braces inclusive.
    pub body: (usize, usize),
    /// True if annotated `// hot-path-root`.
    pub root: bool,
    /// True if annotated `// cold-path: <reason>` — pruned from closures.
    pub cold: bool,
}

impl FnNode {
    /// `Type::name` or bare `name` — the display label used in findings
    /// and `effects.lock`.
    pub fn label(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A workspace (or fixture) call graph over borrowed parsed sources.
pub struct CallGraph<'a> {
    pub sources: &'a [SourceFile],
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[i]` = indices of nodes callable from node `i`,
    /// sorted and deduped.
    pub edges: Vec<Vec<usize>>,
}

/// An `impl` block: self-type, optional trait, and body span. Shared
/// with L12 (`rules::errors`), which needs to know which `TgError`
/// occurrences sit inside `Display`/`From`/builder impls.
pub(crate) struct ImplBlock {
    pub(crate) self_type: String,
    pub(crate) trait_name: Option<String>,
    pub(crate) body: (usize, usize),
}

/// How a call site spells its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CallKind {
    /// `recv.name(...)`.
    Method,
    /// `Qual::name(...)` with the qualifier's last segment.
    Qualified(String),
    /// `name(...)`.
    Bare,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph: extracts impl blocks and fn scopes per file,
    /// annotates nodes from the source's hot-root/cold-path markers, then
    /// resolves every call site to candidate nodes.
    pub fn build(sources: &'a [SourceFile]) -> Self {
        let mut nodes: Vec<FnNode> = Vec::new();
        for (file, src) in sources.iter().enumerate() {
            let impls = extract_impl_blocks(src);
            for scope in analyze_fns(src) {
                let decl = scope.body.0; // inside any impl that contains the body
                let owner = impls
                    .iter()
                    .filter(|b| decl > b.body.0 && decl < b.body.1)
                    .min_by_key(|b| b.body.1 - b.body.0); // innermost
                nodes.push(FnNode {
                    file,
                    name: scope.name.clone(),
                    qual: owner.map(|b| b.self_type.clone()),
                    trait_name: owner.and_then(|b| b.trait_name.clone()),
                    line: scope.line,
                    body: scope.body,
                    root: src.is_root(scope.line),
                    // Like roots, a cold-path marker is either trailing on
                    // the declaration line or a whole-line comment above.
                    cold: src.has_cold_path(scope.line)
                        || (scope.line >= 2
                            && src.has_cold_path(scope.line - 1)
                            && src.code_line(scope.line - 1).trim().is_empty()),
                });
            }
        }
        let edges = resolve_edges(sources, &nodes);
        Self { sources, nodes, edges }
    }

    /// BFS over the graph from every root, skipping `// cold-path:`
    /// nodes. Returns, per node, `None` (unreached) or `Some(parent)` —
    /// the node it was first reached from (`parent == self` for roots).
    pub fn reachable(&self) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.root && !n.cold {
                parent[i] = Some(i);
                queue.push(i);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let at = queue[head];
            head += 1;
            for &next in &self.edges[at] {
                if parent[next].is_none() && !self.nodes[next].cold {
                    parent[next] = Some(at);
                    queue.push(next);
                }
            }
        }
        parent
    }

    /// `root → … → node` witness path for diagnostics.
    pub(crate) fn witness(&self, parent: &[Option<usize>], mut at: usize) -> String {
        let mut chain = vec![self.nodes[at].label()];
        while let Some(p) = parent[at] {
            if p == at {
                break;
            }
            at = p;
            chain.push(self.nodes[at].label());
            if chain.len() > 8 {
                chain.push("…".to_string());
                break;
            }
        }
        chain.reverse();
        chain.join(" → ")
    }

    /// **L10 `panic-reach`, reference implementation** — flags every
    /// [`PANIC_PATTERNS`] site inside a function reachable from a serve
    /// root (wherever it lives), plus non-literal slice indexing inside
    /// reachable `crates/serve/` code. Suppressed only by
    /// `// lint: allow(panic-reach, <reason>)` — an `allow(panic, …)` does
    /// not carry over, because "acceptable in this file" and "acceptable
    /// on the request path" are different claims.
    ///
    /// This is the BFS oracle the summary-derived production L10
    /// ([`crate::effects::EffectEngine::lint_panic_reach`]) is
    /// equivalence-tested against.
    pub fn lint_panic_reach_bfs(&self) -> Vec<Finding> {
        let parent = self.reachable();
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if parent[i].is_none() {
                continue;
            }
            let src = &self.sources[node.file];
            for &(pattern, _) in PANIC_PATTERNS {
                for at in body_matches(src, node.body, pattern) {
                    self.push_panic_reach(&parent, i, at, pattern, &mut out);
                }
            }
            if src.path.contains("crates/serve/") {
                for at in slice_index_sites(src, node.body) {
                    self.push_panic_reach(&parent, i, at, "slice indexing", &mut out);
                }
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out.dedup();
        out
    }

    fn push_panic_reach(
        &self,
        parent: &[Option<usize>],
        node: usize,
        at: usize,
        what: &str,
        out: &mut Vec<Finding>,
    ) {
        let src = &self.sources[self.nodes[node].file];
        let line = src.line_of(at);
        if src.is_test_line(line) || src.is_allowed(line, Lint::PanicReach.name()) {
            return;
        }
        out.push(Finding {
            lint: Lint::PanicReach,
            file: src.path.clone(),
            line,
            message: format!(
                "`{}` can panic and is reachable from the serve path `{}`; \
                 return a `TgError` instead",
                what.trim_end_matches('('),
                self.witness(parent, node)
            ),
        });
    }
}

/// Extracts `impl` blocks from the code view. An `impl` keyword counts
/// only at paren depth 0 (skipping `impl Fn(...)` in argument position)
/// and when not preceded by `->` (skipping `-> impl Iterator` returns).
pub(crate) fn extract_impl_blocks(src: &SourceFile) -> Vec<ImplBlock> {
    let code = &src.code;
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut paren = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'i' if paren <= 0 && code[i..].starts_with("impl") => {
                let left_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
                let right_ok =
                    matches!(bytes.get(i + 4), Some(b) if b.is_ascii_whitespace() || *b == b'<');
                let arrow = code[..i].trim_end().ends_with("->");
                if left_ok && right_ok && !arrow {
                    if let Some(block) = parse_impl_header(code, i) {
                        i = block.body.0; // skip into the body; nested impls are rare
                        out.push(block);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Parses one `impl … {` header starting at the `impl` keyword: skips the
/// generic parameter list, splits on a depth-0 ` for `, and takes the last
/// path segment of the self type (and of the trait, if any).
fn parse_impl_header(code: &str, at: usize) -> Option<ImplBlock> {
    let open = at + code[at..].find('{')?;
    let mut header = code[at + 4..open].trim();
    // Strip `<…>` generics after the keyword, minding `->` inside bounds.
    if let Some(rest) = header.strip_prefix('<') {
        let mut depth = 1i32;
        let b = rest.as_bytes();
        let mut j = 0;
        while j < b.len() && depth > 0 {
            match b[j] {
                b'<' => depth += 1,
                b'>' if j == 0 || b[j - 1] != b'-' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        header = rest[j..].trim();
    }
    // Ignore `where` clauses entirely.
    let header = header.split(" where ").next().unwrap_or(header).trim();
    let (trait_part, type_part) = match split_top_level_for(header) {
        Some((t, s)) => (Some(t), s),
        None => (None, header),
    };
    let self_type = last_segment(type_part);
    if self_type.is_empty() {
        return None;
    }
    let close = matching_brace(code.as_bytes(), open)?;
    Some(ImplBlock {
        self_type,
        trait_name: trait_part.map(last_segment).filter(|t| !t.is_empty()),
        body: (open, close),
    })
}

/// Splits `Trait for Type` at a ` for ` outside any `<…>` nesting.
fn split_top_level_for(header: &str) -> Option<(&str, &str)> {
    let bytes = header.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i + 5 <= bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i == 0 || bytes[i - 1] != b'-' => depth -= 1,
            b' ' if depth <= 0 && header[i..].starts_with(" for ") => {
                return Some((header[..i].trim(), header[i + 5..].trim()));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Last `::` path segment, with generics/reference/dyn decoration removed:
/// `&mut tgraph::TemporalGraph<'a>` → `TemporalGraph`.
fn last_segment(type_part: &str) -> String {
    let t = type_part
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start_matches("dyn ")
        .trim();
    let t = t.split('<').next().unwrap_or(t).trim();
    t.rsplit("::").next().unwrap_or(t).trim().to_string()
}

fn matching_brace(bytes: &[u8], open: usize) -> Option<usize> {
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

/// Rust keywords and call-like constructs that look like `name(` but are
/// never workspace function calls.
const NOT_CALLS: &[&str] = &[
    "if", "while", "match", "for", "return", "in", "as", "loop", "move", "fn", "let", "else",
    "impl", "where", "unsafe", "dyn", "ref", "mut", "box", "await", "true", "false", "self",
    "Self", "super", "crate", "pub", "use", "mod", "const", "static", "type", "struct", "enum",
    "trait",
];

/// Method names so common on std containers, atomics, iterators, and sync
/// primitives that a bare `.name(` call carries no resolution signal:
/// linking them to same-named workspace impl fns produces phantom edges
/// (`Vec::push` → `Tape::push`, `HashMap::insert` → `TemporalGraph::insert`,
/// `AtomicU64::load` → `TgatParams::load`, `Vec::drain` → `TgServer::drain`,
/// `Condvar::wait` → `Slot::wait`). Skipped during `Method` resolution
/// only — `Qualified` calls (`Tape::push(...)`) still resolve, and the
/// panic/blocking patterns themselves are still matched
/// textually inside every body that stays reachable, so skipping the edge
/// drops phantom chains without hiding direct findings.
const UBIQUITOUS_METHODS: &[&str] = &[
    "clear", "clone", "contains", "contains_key", "drain", "extend", "get", "insert", "is_empty",
    "iter", "len", "load", "next", "push", "remove", "shape", "wait",
];

/// Name → candidate-node lookup shared by edge resolution and the effect
/// engine's guarded-call analysis (L13), so the two can never disagree
/// about what a call site resolves to.
pub(crate) struct Resolver<'n> {
    /// Self-type → method name → candidate nodes.
    by_qual_name: std::collections::BTreeMap<&'n str, std::collections::BTreeMap<&'n str, Vec<usize>>>,
    impl_by_name: std::collections::BTreeMap<&'n str, Vec<usize>>,
    free_by_name: std::collections::BTreeMap<&'n str, Vec<usize>>,
}

impl<'n> Resolver<'n> {
    pub(crate) fn new(nodes: &'n [FnNode]) -> Self {
        let mut by_qual_name: std::collections::BTreeMap<
            &str,
            std::collections::BTreeMap<&str, Vec<usize>>,
        > = std::collections::BTreeMap::new();
        let mut impl_by_name: std::collections::BTreeMap<&str, Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut free_by_name: std::collections::BTreeMap<&str, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            match &n.qual {
                Some(q) => {
                    by_qual_name
                        .entry(q.as_str())
                        .or_default()
                        .entry(n.name.as_str())
                        .or_default()
                        .push(i);
                    impl_by_name.entry(n.name.as_str()).or_default().push(i);
                }
                None => free_by_name.entry(n.name.as_str()).or_default().push(i),
            }
        }
        Self { by_qual_name, impl_by_name, free_by_name }
    }

    /// Candidate callee indices for one call site inside `caller`.
    pub(crate) fn targets(
        &self,
        caller: &FnNode,
        kind: &CallKind,
        name: &str,
    ) -> Option<&Vec<usize>> {
        match kind {
            CallKind::Qualified(q) => {
                let q = if q == "Self" { caller.qual.as_deref().unwrap_or(q) } else { q };
                self.by_qual_name
                    .get(q)
                    .and_then(|methods| methods.get(name))
                    .or_else(|| self.free_by_name.get(name))
            }
            CallKind::Method if UBIQUITOUS_METHODS.contains(&name) => None,
            CallKind::Method => self.impl_by_name.get(name),
            CallKind::Bare => self.free_by_name.get(name),
        }
    }
}

/// Resolves every call site in every node body to candidate callee nodes.
fn resolve_edges(sources: &[SourceFile], nodes: &[FnNode]) -> Vec<Vec<usize>> {
    let resolver = Resolver::new(nodes);
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        let src = &sources[node.file];
        for (kind, name, _at) in call_sites(src, node.body) {
            if let Some(ts) = resolver.targets(node, &kind, &name) {
                edges[i].extend(ts.iter().copied().filter(|&t| t != i));
            }
        }
        edges[i].sort_unstable();
        edges[i].dedup();
    }
    edges
}

/// Scans a body span for call sites: every `(` preceded by an identifier
/// that is not a keyword, a macro name (`name!(`), or the `fn` declaration
/// itself, classified by the token before the identifier. The third tuple
/// element is the byte offset of the callee name (used by the effect
/// engine to intersect call sites with guard-liveness regions).
pub(crate) fn call_sites(src: &SourceFile, body: (usize, usize)) -> Vec<(CallKind, String, usize)> {
    let code = &src.code;
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for p in body.0..=body.1.min(bytes.len() - 1) {
        if bytes[p] != b'(' {
            continue;
        }
        // Identifier directly before the paren (no whitespace skip: Rust
        // call syntax puts the paren flush against the name).
        let end = p;
        let mut s = p;
        while s > body.0 && is_ident_byte(bytes[s - 1]) {
            s -= 1;
        }
        if s == end || bytes[s].is_ascii_digit() {
            continue;
        }
        let name = &code[s..end];
        if NOT_CALLS.contains(&name) {
            continue;
        }
        let before = &code[..s];
        let trimmed = before.trim_end();
        if trimmed.ends_with("fn") || before.ends_with('!') {
            continue; // declaration site or macro invocation
        }
        if before.ends_with('.') {
            out.push((CallKind::Method, name.to_string(), s));
        } else if before.ends_with("::") {
            // Qualifier segment before the `::`.
            let mut qs = s - 2;
            while qs > 0 && is_ident_byte(bytes[qs - 1]) {
                qs -= 1;
            }
            let qual = &code[qs..s - 2];
            if qual.is_empty() {
                continue; // `::<` turbofish or leading `::` path — skip
            }
            out.push((CallKind::Qualified(qual.to_string()), name.to_string(), s));
        } else {
            out.push((CallKind::Bare, name.to_string(), s));
        }
    }
    out
}

/// Occurrences of `pattern` inside `body`, word-bounded on the left when
/// the pattern starts with an identifier byte (`vec![` must not match
/// `my_vec![`; `.push(` needs no boundary — it starts at the dot).
pub(crate) fn body_matches(src: &SourceFile, body: (usize, usize), pattern: &str) -> Vec<usize> {
    let hay = &src.code[body.0..=body.1.min(src.code.len() - 1)];
    let bounded = pattern.as_bytes().first().is_some_and(|&b| is_ident_byte(b));
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(pattern) {
        let at = from + pos;
        from = at + 1;
        let abs = body.0 + at;
        if bounded && abs > 0 && is_ident_byte(src.code.as_bytes()[abs - 1]) {
            continue;
        }
        out.push(abs);
    }
    out
}

/// Non-literal slice-index sites in a body: `expr[i]` where the bracket
/// follows an identifier, `]`, or `)`, and the index is not a bare
/// integer literal or a full `..` range (which cannot be out of bounds).
pub(crate) fn slice_index_sites(src: &SourceFile, body: (usize, usize)) -> Vec<usize> {
    let bytes = src.code.as_bytes();
    let mut out = Vec::new();
    for p in body.0..=body.1.min(bytes.len() - 1) {
        if bytes[p] != b'[' {
            continue;
        }
        let prev = bytes[..p].iter().rposition(|b| !b.is_ascii_whitespace());
        let indexing = prev.is_some_and(|q| {
            is_ident_byte(bytes[q]) || bytes[q] == b']' || bytes[q] == b')'
        });
        if !indexing {
            continue; // array literal, attribute, or type syntax
        }
        let Some(close) = matching_bracket(bytes, p) else { continue };
        let inner = src.code[p + 1..close].trim();
        let literal = !inner.is_empty() && inner.bytes().all(|b| b.is_ascii_digit());
        if literal || inner == ".." {
            continue;
        }
        out.push(p);
    }
    out
}

fn matching_bracket(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => {
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

    fn graph_of(src: &'static str) -> (Vec<SourceFile>, Vec<FnNode>, Vec<Vec<usize>>) {
        let sources = vec![SourceFile::parse("t.rs", src)];
        let g = CallGraph::build(&sources);
        let (nodes, edges) = (g.nodes.clone(), g.edges.clone());
        (sources, nodes, edges)
    }

    fn idx(nodes: &[FnNode], label: &str) -> usize {
        nodes
            .iter()
            .position(|n| n.label() == label)
            .unwrap_or_else(|| panic!("no node {label}: {:?}", nodes.iter().map(FnNode::label).collect::<Vec<_>>()))
    }

    #[test]
    fn impl_trait_in_signature_is_not_an_impl_block() {
        let src = "fn f(g: impl Fn(u32) -> f32) -> impl Iterator<Item = u32> {\n    std::iter::empty()\n}\nstruct S;\nimpl S { fn m(&self) {} }\n";
        let f = SourceFile::parse("t.rs", src);
        let impls = extract_impl_blocks(&f);
        assert_eq!(impls.len(), 1);
        assert_eq!(impls[0].self_type, "S");
    }

    #[test]
    fn trait_impl_records_both_names() {
        let src = "impl std::fmt::Display for TgError { fn fmt(&self) {} }\n";
        let f = SourceFile::parse("t.rs", src);
        let impls = extract_impl_blocks(&f);
        assert_eq!(impls[0].self_type, "TgError");
        assert_eq!(impls[0].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn qualified_and_method_calls_resolve() {
        let src = "struct A;\nimpl A {\n    fn top(&self) { self.step(); A::assoc(); helper(); }\n    fn step(&self) {}\n    fn assoc() {}\n}\nfn helper() {}\n";
        let (_s, nodes, edges) = graph_of(src);
        let top = idx(&nodes, "A::top");
        let outs: Vec<String> = edges[top].iter().map(|&j| nodes[j].label()).collect();
        assert!(outs.contains(&"A::step".to_string()), "{outs:?}");
        assert!(outs.contains(&"A::assoc".to_string()), "{outs:?}");
        assert!(outs.contains(&"helper".to_string()), "{outs:?}");
    }

    #[test]
    fn self_qualifier_resolves_to_enclosing_impl() {
        let src = "struct A;\nimpl A {\n    fn top(&self) { Self::assoc(); }\n    fn assoc() {}\n}\nstruct B;\nimpl B { fn assoc() {} }\n";
        let (_s, nodes, edges) = graph_of(src);
        let top = idx(&nodes, "A::top");
        let outs: Vec<String> = edges[top].iter().map(|&j| nodes[j].label()).collect();
        assert_eq!(outs, vec!["A::assoc".to_string()], "Self:: must not alias B::assoc");
    }

    #[test]
    fn reachability_stops_at_cold_path_fns() {
        let src = "// hot-path-root\nfn root() { warm(); setup(); }\nfn warm() { deep(); }\nfn deep() {}\n// cold-path: runs once at startup\nfn setup() { cold_leaf(); }\nfn cold_leaf() {}\n";
        let sources = vec![SourceFile::parse("t.rs", src)];
        let g = CallGraph::build(&sources);
        let reach = g.reachable();
        assert!(reach[idx(&g.nodes, "warm")].is_some());
        assert!(reach[idx(&g.nodes, "deep")].is_some());
        assert!(reach[idx(&g.nodes, "setup")].is_none(), "cold fn must be pruned");
        assert!(reach[idx(&g.nodes, "cold_leaf")].is_none());
    }

    #[test]
    fn l10_fires_on_unwrap_reachable_from_serve_root() {
        let src = "// hot-path-root\nfn handle() { step(); }\nfn step() { parse().unwrap(); }\nfn parse() -> Option<u32> { None }\nfn unrelated() { other().unwrap(); }\nfn other() -> Option<u32> { None }\n";
        let sources = vec![SourceFile::parse("t.rs", src)];
        let g = CallGraph::build(&sources);
        let f = g.lint_panic_reach_bfs();
        assert_eq!(f.len(), 1, "unreachable unwrap must not fire: {f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn slice_literal_and_full_range_are_not_index_findings() {
        let src = "fn f(xs: &[f32], i: usize) { let _ = xs[0]; let _ = &xs[..]; let _ = xs[i]; }\n";
        let f = SourceFile::parse("crates/serve/src/t.rs", src);
        let sites = slice_index_sites(&f, (0, f.code.len() - 1));
        assert_eq!(sites.len(), 1, "only xs[i] is a finding");
    }
}
