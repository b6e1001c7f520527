//! Interprocedural effect inference: the engine behind L10
//! (`panic-reach`, summary-derived), L13 (`lock-held-effects`), L14
//! (`deadline-safety`), and L16 (`effects-drift`).
//!
//! Where [`crate::callgraph`] answers the per-root reachability question
//! ("can a serve root reach a panic?"), this module computes, for *every*
//! workspace function, a transitive **effect summary** — the set of
//! [`Effect`]s that executing the function may have:
//!
//! * `Panic` — panicking constructs ([`PANIC_PATTERNS`] plus non-literal
//!   slice indexing in `crates/serve/`), minus `allow(panic-reach)` sites.
//! * `Blocking(kind)` — unbounded-wait constructs ([`BLOCKING_CALLS`]):
//!   channel `recv`, thread `join`, `sleep`, file I/O, `.await`.
//! * `LockAcquire(name)` — a guard constructor on the named lock (the
//!   same receiver-derived names `concurrency.toml` uses).
//! * `RelaxedAtomic` — an unsuppressed `Ordering::Relaxed` use.
//!
//! Allocation is not an effect: `tests/alloc_gate.rs` counts the hot
//! path's real allocations, in every crate, instead of matching call
//! names.
//!
//! ## Summary computation
//!
//! Summaries are a fixpoint over the call graph: `summary(f) =
//! direct(f) ∪ ⋃ summary(callees of f)`. Recursion (including mutual
//! recursion) is handled by condensing the graph into strongly connected
//! components (iterative Tarjan) and propagating over the condensation in
//! reverse topological order — every member of an SCC gets the union of
//! the whole component, which *is* the least fixpoint. Calls to
//! `// cold-path:` functions contribute nothing, mirroring the closure
//! pruning the BFS lint has always done.
//!
//! Suppressed sites are excluded from summaries on purpose: an effect
//! that has been justified in place is not part of a function's *policy-
//! relevant* effect surface. This is what makes L16 sharp — deleting a
//! `// relaxed-ok:` annotation adds `RelaxedAtomic` back into the
//! enclosing root's summary, and the committed `effects.lock` no longer
//! matches.
//!
//! ## The lints
//!
//! * **L10** ([`EffectEngine::lint_panic_reach`]) — same findings as the
//!   BFS reference twin in [`crate::callgraph`], byte-for-byte (pinned by
//!   an equivalence test in `tests/lint_gate.rs`), emitted from the
//!   engine's shared site extraction.
//! * **L13** ([`EffectEngine::lint_lock_held`]) — the interprocedural
//!   L7: no call with a transitive `Blocking`/`LockAcquire` effect while
//!   a guard is live (lock acquisitions checked against the canonical
//!   order in `concurrency.toml`).
//! * **L14** ([`EffectEngine::lint_deadline`]) — nothing reachable from a
//!   root may block without a bound: unbounded `Blocking` sites need
//!   `// bounded-by: <reason>` (timed variants are auto-bounded).
//! * **L16** ([`check_drift`]) — hot-path-root summaries are serialized
//!   to a committed `effects.lock`; any change fails lint until the lock
//!   is deliberately regenerated via `UPDATE_EFFECTS_LOCK=1`. The lock
//!   names each root by `(file, label)` and holds no line numbers, so
//!   moving or reordering code leaves it byte-identical: the lock text
//!   changes exactly when L16 would report drift.

use std::collections::BTreeSet;

use crate::callgraph::{self, CallGraph, Resolver};
use crate::manifest::ConcurrencyManifest;
use crate::rules::calls::{BLOCKING_CALLS, PANIC_PATTERNS};
use crate::rules::{bounded_matches, Finding, Lint};
use crate::scopes::{analyze_fns, Region};
use crate::source::SourceFile;

/// File name of the committed lock at the workspace root.
pub const LOCK_NAME: &str = "effects.lock";

/// Version of the `effects.lock` text format, independent of the JSON
/// lint report's [`crate::SCHEMA_VERSION`].
/// v4: roots are keyed `file label` with no line number, sorted by
/// `(file, label)`. v5: no root-kind column (every root seeds the same
/// closure) and no `alloc` or `float-nondet` effects.
pub const LOCK_SCHEMA: u32 = 5;

/// One element of a function's effect summary. The derived `Ord` gives
/// summaries (and therefore `effects.lock`) a stable serialization order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// A panicking construct.
    Panic,
    /// An unbounded-wait construct, tagged `recv`/`join`/`sleep`/
    /// `file-io`/`await`.
    Blocking(String),
    /// A guard constructor on the named lock.
    LockAcquire(String),
    /// An `Ordering::Relaxed` use.
    RelaxedAtomic,
}

impl Effect {
    /// Stable text form used in `effects.lock`.
    pub fn display(&self) -> String {
        match self {
            Effect::Panic => "panic".to_string(),
            Effect::Blocking(k) => format!("blocking({k})"),
            Effect::LockAcquire(l) => format!("lock({l})"),
            Effect::RelaxedAtomic => "relaxed-atomic".to_string(),
        }
    }

    /// Inverse of [`Effect::display`], for parsing `effects.lock`.
    pub fn parse(text: &str) -> Option<Effect> {
        match text {
            "panic" => Some(Effect::Panic),
            "relaxed-atomic" => Some(Effect::RelaxedAtomic),
            _ => {
                let inner = |p: &str| {
                    text.strip_prefix(p).and_then(|r| r.strip_suffix(')')).map(str::to_string)
                };
                if let Some(k) = inner("blocking(") {
                    Some(Effect::Blocking(k))
                } else {
                    inner("lock(").map(Effect::LockAcquire)
                }
            }
        }
    }
}

/// One direct (non-transitive) effect site inside a function body.
#[derive(Clone, Debug)]
pub struct EffectSite {
    pub effect: Effect,
    /// Byte offset in the file's code view (0 when only a line is known —
    /// lock acquisitions).
    pub at: usize,
    /// 1-based line.
    pub line: usize,
    /// Display text for findings: the trimmed panic or blocking pattern,
    /// or the lock name.
    pub what: String,
    /// `Blocking` only: the wait bounds itself (`recv_timeout`, `sleep`)
    /// or carries a `// bounded-by: <reason>` annotation.
    pub bounded: bool,
}

/// A hot-path root's transitive summary, as serialized to `effects.lock`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootSummary {
    pub file: String,
    /// 1-based line of the root's `fn`, for finding locations only: the
    /// lock does not record it, so a root parsed from the lock carries 0.
    pub line: usize,
    pub label: String,
    pub effects: BTreeSet<Effect>,
}

/// The effect-inference engine: a call graph plus per-function direct
/// sites, guard-liveness regions, and fixpoint summaries.
pub struct EffectEngine<'a> {
    pub graph: CallGraph<'a>,
    /// Per node: direct effect sites, suppression-aware, in the same
    /// deterministic order the BFS lints enumerate them.
    sites: Vec<Vec<EffectSite>>,
    /// Per node: transitive summary (direct ∪ non-cold callees).
    summaries: Vec<BTreeSet<Effect>>,
    /// Per node: byte ranges where a lock guard is live.
    regions: Vec<Vec<Region>>,
}

impl<'a> EffectEngine<'a> {
    pub fn build(sources: &'a [SourceFile]) -> Self {
        let graph = CallGraph::build(sources);
        let n = graph.nodes.len();

        // Guard-liveness regions and lock acquisitions come from the scope
        // walker; re-walk each file once and match scopes to graph nodes by
        // body span (CallGraph::build created its nodes from the same walk,
        // so every node has exactly one matching scope).
        use std::collections::BTreeMap;
        /// A scope's guard regions and its lock acquisitions (name, line).
        type Scoped = (Vec<Region>, Vec<(String, usize)>);
        let mut scope_data: BTreeMap<(usize, usize), Scoped> = BTreeMap::new();
        for (file, src) in sources.iter().enumerate() {
            for scope in analyze_fns(src) {
                let acquires: Vec<(String, usize)> = scope
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        crate::scopes::Event::Acquire { lock, line, .. } => {
                            Some((lock.clone(), *line))
                        }
                        _ => None,
                    })
                    .collect();
                scope_data.insert((file, scope.body.0), (scope.regions, acquires));
            }
        }
        let mut sites: Vec<Vec<EffectSite>> = Vec::with_capacity(n);
        let mut regions: Vec<Vec<Region>> = Vec::with_capacity(n);
        for node in &graph.nodes {
            let src = &sources[node.file];
            let (node_regions, acquires) = scope_data
                .get(&(node.file, node.body.0))
                .cloned()
                .unwrap_or_default();
            sites.push(direct_sites(src, node, &acquires));
            regions.push(node_regions);
        }

        let summaries = compute_summaries(&graph, &sites);
        Self { graph, sites, summaries, regions }
    }

    /// The transitive effect summary of node `i`.
    pub fn summary(&self, i: usize) -> &BTreeSet<Effect> {
        &self.summaries[i]
    }

    /// Direct effect sites of node `i`.
    pub fn sites(&self, i: usize) -> &[EffectSite] {
        &self.sites[i]
    }

    /// **L10 `panic-reach`** — the engine's `Panic` sites of every
    /// function reachable from a root. Byte-identical to
    /// [`CallGraph::lint_panic_reach_bfs`].
    pub fn lint_panic_reach(&self) -> Vec<Finding> {
        let parent = self.graph.reachable();
        let mut out = Vec::new();
        for (i, node) in self.graph.nodes.iter().enumerate() {
            if parent[i].is_none() {
                continue;
            }
            let src = &self.graph.sources[node.file];
            for site in &self.sites[i] {
                if site.effect != Effect::Panic {
                    continue;
                }
                out.push(Finding {
                    lint: Lint::PanicReach,
                    file: src.path.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` can panic and is reachable from the serve path `{}`; \
                         return a `TgError` instead",
                        site.what,
                        self.graph.witness(&parent, i)
                    ),
                });
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out.dedup();
        out
    }

    /// **L13 `lock-held-effects`** — flags every call made while a guard
    /// is live whose callee summary contains:
    ///
    /// * `Blocking(_)` — the interprocedural version of L7 (L7 itself only
    ///   sees the blocking construct spelled directly under the guard);
    /// * `LockAcquire(held)` — a transitive re-acquisition of the held
    ///   lock (deadlock on non-reentrant locks);
    /// * `LockAcquire(l)` where the canonical order in `concurrency.toml`
    ///   puts `l` *before* the held lock — an interprocedural order
    ///   contradiction L5 cannot see.
    ///
    /// Escape hatch: `// lint: allow(lock-held-effects, <reason>)` on the
    /// call line, or alone on the line above when the call line is too
    /// long to carry it.
    pub fn lint_lock_held(&self, manifest: &ConcurrencyManifest) -> Vec<Finding> {
        let resolver = Resolver::new(&self.graph.nodes);
        let mut out = Vec::new();
        for (i, node) in self.graph.nodes.iter().enumerate() {
            if self.regions[i].is_empty() {
                continue;
            }
            let src = &self.graph.sources[node.file];
            let calls = callgraph::call_sites(src, node.body);
            for region in &self.regions[i] {
                // A guard acquired inside #[cfg(test)] code is the test
                // harness's business.
                if region.held.iter().all(|(_, l)| src.is_test_line(*l)) {
                    continue;
                }
                for (kind, name, at) in &calls {
                    if *at < region.start || *at >= region.end {
                        continue;
                    }
                    let line = src.line_of(*at);
                    if src.is_test_line(line)
                        || allow_covers(src, line, Lint::LockHeldEffects.name())
                    {
                        continue;
                    }
                    let Some(targets) = resolver.targets(node, kind, name) else { continue };
                    // Recursive self-calls are excluded: a guard held while
                    // re-entering the same fn is the fn's own region to
                    // analyze, not a cross-function effect.
                    let targets: Vec<usize> = targets.iter().copied().filter(|&t| t != i).collect();
                    let mut combined: BTreeSet<Effect> = BTreeSet::new();
                    for &t in &targets {
                        combined.extend(self.summaries[t].iter().cloned());
                    }
                    let chain_for = |eff: &Effect| self.provider_chain(&targets, eff);
                    for (g, gline) in &region.held {
                        for eff in &combined {
                            let message = match eff {
                                Effect::Blocking(k) => format!(
                                    "`{name}` has a transitive blocking effect ({k} wait) \
                                     while the `{g}` guard (acquired line {gline}) is held; \
                                     effect chain `{}`; hoist the call out of the critical \
                                     section",
                                    chain_for(eff)
                                ),
                                Effect::LockAcquire(l) if l == g => format!(
                                    "`{name}` transitively re-acquires the `{g}` lock \
                                     already held (acquired line {gline}); effect chain \
                                     `{}`; this deadlocks on non-reentrant locks",
                                    chain_for(eff)
                                ),
                                Effect::LockAcquire(l)
                                    if order_contradiction(manifest, l, g) =>
                                {
                                    format!(
                                        "`{name}` transitively acquires `{l}` while `{g}` \
                                         (acquired line {gline}) is held, contradicting the \
                                         canonical lock order in concurrency.toml (`{l}` \
                                         before `{g}`); effect chain `{}`",
                                        chain_for(eff)
                                    )
                                }
                                _ => continue,
                            };
                            out.push(Finding {
                                lint: Lint::LockHeldEffects,
                                file: src.path.clone(),
                                line,
                                message,
                            });
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
        out.dedup();
        out
    }

    /// **L14 `deadline-safety`** — every unbounded `Blocking` site inside
    /// a function reachable from a root needs a
    /// `// bounded-by: <reason>` annotation (on the site line, or alone on
    /// the line above). Timed variants (`recv_timeout`, `sleep`) bound
    /// themselves. Escape hatch: `// lint: allow(deadline-safety, …)`.
    pub fn lint_deadline(&self) -> Vec<Finding> {
        let parent = self.graph.reachable();
        let mut out = Vec::new();
        for (i, node) in self.graph.nodes.iter().enumerate() {
            if parent[i].is_none() {
                continue;
            }
            let src = &self.graph.sources[node.file];
            for site in &self.sites[i] {
                let Effect::Blocking(kind) = &site.effect else { continue };
                if site.bounded || allow_covers(src, site.line, Lint::DeadlineSafety.name()) {
                    continue;
                }
                out.push(Finding {
                    lint: Lint::DeadlineSafety,
                    file: src.path.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` can block without a bound ({kind} wait) and is reachable \
                         from the serve deadline path `{}`; annotate \
                         `// bounded-by: <reason>` or switch to a timed variant",
                        site.what,
                        self.graph.witness(&parent, i)
                    ),
                });
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out.dedup();
        out
    }

    /// The transitive summary of every `// hot-path-root` function, in
    /// `(file, label)` order — the content of `effects.lock`.
    pub fn root_summaries(&self) -> Vec<RootSummary> {
        let mut out: Vec<RootSummary> = Vec::new();
        for (i, node) in self.graph.nodes.iter().enumerate() {
            if !node.root || node.cold {
                continue;
            }
            out.push(RootSummary {
                file: self.graph.sources[node.file].path.clone(),
                line: node.line,
                label: node.label(),
                effects: self.summaries[i].clone(),
            });
        }
        out.sort_by(|a, b| (&a.file, &a.label).cmp(&(&b.file, &b.label)));
        out
    }

    /// A deterministic `callee → … → provider` chain showing where an
    /// effect in a combined callee summary actually comes from: greedy
    /// walk from the lowest-indexed target whose summary holds the effect,
    /// descending into the first (sorted-edge-order) callee that still
    /// carries it, until a node with a *direct* site is reached.
    fn provider_chain(&self, targets: &[usize], eff: &Effect) -> String {
        let Some(&start) = targets
            .iter()
            .find(|&&t| self.summaries[t].contains(eff))
        else {
            return String::new();
        };
        let mut chain = vec![self.graph.nodes[start].label()];
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        visited.insert(start);
        let mut cur = start;
        while !self.has_direct(cur, eff) && chain.len() <= 8 {
            let next = self.graph.edges[cur].iter().copied().find(|&w| {
                !self.graph.nodes[w].cold
                    && !visited.contains(&w)
                    && self.summaries[w].contains(eff)
            });
            match next {
                Some(w) => {
                    visited.insert(w);
                    chain.push(self.graph.nodes[w].label());
                    cur = w;
                }
                None => break,
            }
        }
        chain.join(" → ")
    }

    fn has_direct(&self, i: usize, eff: &Effect) -> bool {
        self.sites[i].iter().any(|s| s.effect == *eff)
    }
}

/// True when `line` is covered by a `// lint: allow(<name>, …)` — either
/// on the line itself or alone on the line directly above (same binding
/// rule as `bounded-by`, for call lines too long to carry the annotation).
fn allow_covers(src: &SourceFile, line: usize, name: &str) -> bool {
    src.is_allowed(line, name)
        || (line >= 2
            && src.is_allowed(line - 1, name)
            && src.code_line(line - 1).trim().is_empty())
}

fn order_contradiction(manifest: &ConcurrencyManifest, acquired: &str, held: &str) -> bool {
    match (manifest.order_index(acquired), manifest.order_index(held)) {
        (Some(a), Some(h)) => a < h,
        _ => false,
    }
}

/// Extracts every direct effect site of one function, suppression-aware.
/// `Panic` sites come first, in exactly the order the BFS L10 twin
/// enumerates them (pattern-major, then position) — the equivalence
/// guarantee depends on it.
fn direct_sites(src: &SourceFile, node: &callgraph::FnNode, acquires: &[(String, usize)]) -> Vec<EffectSite> {
    let mut out = Vec::new();
    for &(pattern, _) in PANIC_PATTERNS {
        for at in callgraph::body_matches(src, node.body, pattern) {
            let line = src.line_of(at);
            if src.is_test_line(line) || src.is_allowed(line, Lint::PanicReach.name()) {
                continue;
            }
            out.push(EffectSite {
                effect: Effect::Panic,
                at,
                line,
                what: pattern.trim_end_matches('(').to_string(),
                bounded: false,
            });
        }
    }
    if src.path.contains("crates/serve/") {
        for at in callgraph::slice_index_sites(src, node.body) {
            let line = src.line_of(at);
            if src.is_test_line(line) || src.is_allowed(line, Lint::PanicReach.name()) {
                continue;
            }
            out.push(EffectSite {
                effect: Effect::Panic,
                at,
                line,
                what: "slice indexing".to_string(),
                bounded: false,
            });
        }
    }
    for &(pattern, kind, auto_bounded) in BLOCKING_CALLS {
        for at in callgraph::body_matches(src, node.body, pattern) {
            let line = src.line_of(at);
            if src.is_test_line(line) {
                continue;
            }
            // Overlapping patterns (`std::fs::File::open`) collapse to one
            // site per (line, kind).
            if out.iter().any(|s| {
                s.line == line && matches!(&s.effect, Effect::Blocking(k) if k == kind)
            }) {
                continue;
            }
            let bounded = auto_bounded
                || src.has_bounded_by(line)
                || (line >= 2
                    && src.has_bounded_by(line - 1)
                    && src.code_line(line - 1).trim().is_empty());
            out.push(EffectSite {
                effect: Effect::Blocking(kind.to_string()),
                at,
                line,
                what: pattern.trim_end_matches('(').to_string(),
                bounded,
            });
        }
    }
    for (lock, line) in acquires {
        if src.is_test_line(*line) {
            continue;
        }
        out.push(EffectSite {
            effect: Effect::LockAcquire(lock.clone()),
            at: 0,
            line: *line,
            what: lock.clone(),
            bounded: false,
        });
    }
    let hay = &src.code[node.body.0..=node.body.1.min(src.code.len() - 1)];
    for rel in bounded_matches(hay, "Relaxed") {
        let at = node.body.0 + rel;
        let line = src.line_of(at);
        if src.is_test_line(line)
            || src.has_relaxed_ok(line)
            || (line >= 2 && src.has_relaxed_ok(line - 1))
            || src.is_allowed(line, Lint::Atomics.name())
        {
            continue;
        }
        out.push(EffectSite {
            effect: Effect::RelaxedAtomic,
            at,
            line,
            what: "Ordering::Relaxed".to_string(),
            bounded: false,
        });
    }
    out
}

/// Bottom-up summary computation: iterative Tarjan SCC condensation, then
/// one union pass in the emission order (Tarjan pops an SCC only after
/// every SCC it can reach), which is the least fixpoint.
fn compute_summaries(graph: &CallGraph, sites: &[Vec<EffectSite>]) -> Vec<BTreeSet<Effect>> {
    let n = graph.nodes.len();
    // Calls to cold-path functions contribute nothing (the same pruning
    // the BFS closures apply).
    let edges: Vec<Vec<usize>> = graph
        .edges
        .iter()
        .map(|outs| outs.iter().copied().filter(|&j| !graph.nodes[j].cold).collect())
        .collect();
    let (scc_id, scc_count) = tarjan_sccs(&edges);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); scc_count];
    for v in 0..n {
        members[scc_id[v]].push(v);
    }
    let mut summaries: Vec<BTreeSet<Effect>> = vec![BTreeSet::new(); n];
    for (id, group) in members.iter().enumerate() {
        let mut acc: BTreeSet<Effect> = BTreeSet::new();
        for &v in group {
            for site in &sites[v] {
                acc.insert(site.effect.clone());
            }
            for &w in &edges[v] {
                if scc_id[w] != id {
                    acc.extend(summaries[w].iter().cloned());
                }
            }
        }
        for &v in group {
            summaries[v] = acc.clone();
        }
    }
    summaries
}

/// Iterative Tarjan: returns per-node SCC ids, numbered in emission order
/// (an SCC's id is greater than every SCC reachable from it).
fn tarjan_sccs(edges: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = edges.len();
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_id = vec![UNSET; n];
    let mut next_index = 0usize;
    let mut scc_count = 0usize;
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        call.push((start, 0));
        while let Some(frame) = call.last_mut() {
            let (v, ci) = (frame.0, frame.1);
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < edges[v].len() {
                frame.1 += 1;
                let w = edges[v][ci];
                if index[w] == UNSET {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_id[w] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
                call.pop();
                if let Some(parent) = call.last() {
                    let p = parent.0;
                    low[p] = low[p].min(low[v]);
                }
            }
        }
    }
    (scc_id, scc_count)
}

/// Serializes root summaries to the committed `effects.lock` text.
pub fn serialize_lock(roots: &[RootSummary]) -> String {
    let mut s = String::from(
        "# effects.lock — committed transitive effect summaries of every hot-path root\n\
         # (L16 `effects-drift`), keyed by file and label. A diff here means the effect\n\
         # surface of a hot path changed. Regenerate deliberately with:\n\
         #   UPDATE_EFFECTS_LOCK=1 cargo run -q -p tg-xtask -- lint\n\
         # and commit the result after reviewing the change.\n",
    );
    s.push_str(&format!("schema {LOCK_SCHEMA}\n"));
    for r in roots {
        s.push_str(&format!("root {} {}\n", r.file, r.label));
        for e in &r.effects {
            s.push_str(&format!("  effect {}\n", e.display()));
        }
    }
    s
}

/// Parses `effects.lock` text back into root summaries. Returns an error
/// string on malformed input (surfaced as a single L16 finding).
pub fn parse_lock(text: &str) -> Result<Vec<RootSummary>, String> {
    let mut out: Vec<RootSummary> = Vec::new();
    let mut schema_seen = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.trim_start().starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some(v) = line.strip_prefix("schema ") {
            let v: u32 = v
                .trim()
                .parse()
                .map_err(|_| format!("line {}: bad schema version `{v}`", i + 1))?;
            if v != LOCK_SCHEMA {
                return Err(format!("schema {v}, expected {LOCK_SCHEMA} — regenerate effects.lock"));
            }
            schema_seen = true;
        } else if let Some(rest) = line.strip_prefix("root ") {
            let mut parts = rest.split_whitespace();
            let file = parts.next().ok_or_else(|| format!("line {}: missing file", i + 1))?;
            let label = parts
                .next()
                .ok_or_else(|| format!("line {}: missing label", i + 1))?
                .to_string();
            out.push(RootSummary { file: file.to_string(), line: 0, label, effects: BTreeSet::new() });
        } else if let Some(rest) = line.trim_start().strip_prefix("effect ") {
            let eff = Effect::parse(rest.trim())
                .ok_or_else(|| format!("line {}: unknown effect `{}`", i + 1, rest.trim()))?;
            out.last_mut()
                .ok_or_else(|| format!("line {}: effect before any root", i + 1))?
                .effects
                .insert(eff);
        } else {
            return Err(format!("line {}: unrecognized line `{line}`", i + 1));
        }
    }
    if !schema_seen {
        return Err("missing `schema` line — regenerate effects.lock".to_string());
    }
    Ok(out)
}

/// **L16 `effects-drift`** — compares computed root summaries against the
/// committed `effects.lock`. Roots are identified by `(file, label)` so
/// unrelated edits that shift line numbers don't fire; any change to the
/// root set or a root's effect set does. The lock holds no
/// line numbers, so a stale root is reported at line 1 of its file.
pub fn check_drift(computed: &[RootSummary], committed: Option<&str>) -> Vec<Finding> {
    const REGEN: &str =
        "regenerate deliberately with `UPDATE_EFFECTS_LOCK=1 cargo run -q -p tg-xtask -- lint` \
         and commit the new effects.lock";
    let mut out = Vec::new();
    let Some(text) = committed else {
        return vec![Finding {
            lint: Lint::EffectsDrift,
            file: "effects.lock".to_string(),
            line: 1,
            message: format!("effects.lock not found at the workspace root; {REGEN}"),
        }];
    };
    let recorded = match parse_lock(text) {
        Ok(r) => r,
        Err(e) => {
            return vec![Finding {
                lint: Lint::EffectsDrift,
                file: "effects.lock".to_string(),
                line: 1,
                message: format!("effects.lock is malformed: {e}"),
            }];
        }
    };
    let key = |r: &RootSummary| (r.file.clone(), r.label.clone());
    for c in computed {
        let Some(r) = recorded.iter().find(|r| key(r) == key(c)) else {
            out.push(Finding {
                lint: Lint::EffectsDrift,
                file: c.file.clone(),
                line: c.line,
                message: format!(
                    "hot-path root `{}` is not recorded in effects.lock; {REGEN}",
                    c.label
                ),
            });
            continue;
        };
        for added in c.effects.difference(&r.effects) {
            out.push(Finding {
                lint: Lint::EffectsDrift,
                file: c.file.clone(),
                line: c.line,
                message: format!(
                    "effect `{}` appeared in the summary of hot-path root `{}` (not in \
                     effects.lock); if the new effect is intended, {REGEN}",
                    added.display(),
                    c.label
                ),
            });
        }
        for removed in r.effects.difference(&c.effects) {
            out.push(Finding {
                lint: Lint::EffectsDrift,
                file: c.file.clone(),
                line: c.line,
                message: format!(
                    "effect `{}` recorded for hot-path root `{}` is no longer inferred; \
                     {REGEN} to tighten the gate",
                    removed.display(),
                    c.label
                ),
            });
        }
    }
    for r in &recorded {
        if !computed.iter().any(|c| key(c) == key(r)) {
            out.push(Finding {
                lint: Lint::EffectsDrift,
                file: r.file.clone(),
                line: 1,
                message: format!(
                    "effects.lock records hot-path root `{}` which no longer exists (or \
                     lost its `// hot-path-root` annotation); {REGEN}",
                    r.label
                ),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_of(src: &'static str) -> (Vec<SourceFile>, Vec<String>, Vec<BTreeSet<Effect>>) {
        let sources = vec![SourceFile::parse("t.rs", src)];
        let engine = EffectEngine::build(&sources);
        let labels = engine.graph.nodes.iter().map(|n| n.label()).collect();
        let summaries = engine.summaries.clone();
        (sources, labels, summaries)
    }

    fn summary_of<'s>(
        labels: &[String],
        summaries: &'s [BTreeSet<Effect>],
        name: &str,
    ) -> &'s BTreeSet<Effect> {
        let i = labels
            .iter()
            .position(|l| l == name)
            .unwrap_or_else(|| panic!("no node {name}: {labels:?}"));
        &summaries[i]
    }

    #[test]
    fn direct_effects_propagate_to_callers() {
        let src = "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { x().unwrap(); }\n";
        let (_s, labels, sums) = engine_of(src);
        assert!(summary_of(&labels, &sums, "leaf").contains(&Effect::Panic));
        assert!(summary_of(&labels, &sums, "mid").contains(&Effect::Panic));
        assert!(summary_of(&labels, &sums, "top").contains(&Effect::Panic));
    }

    #[test]
    fn self_recursion_reaches_a_fixpoint() {
        let src = "fn rec(n: u32) { if n > 0 { rec(n - 1); } x().unwrap(); }\nfn x() -> Option<u32> { None }\n";
        let (_s, labels, sums) = engine_of(src);
        assert!(summary_of(&labels, &sums, "rec").contains(&Effect::Panic));
    }

    #[test]
    fn mutual_recursion_shares_the_component_summary() {
        let src = "fn even(n: u32) { if n > 0 { odd(n - 1); } }\n\
                   fn odd(n: u32) { x().unwrap(); if n > 0 { even(n - 1); } }\n\
                   fn entry() { even(4); }\n";
        let (_s, labels, sums) = engine_of(src);
        assert!(summary_of(&labels, &sums, "even").contains(&Effect::Panic));
        assert!(summary_of(&labels, &sums, "odd").contains(&Effect::Panic));
        assert!(summary_of(&labels, &sums, "entry").contains(&Effect::Panic));
    }

    #[test]
    fn three_cycle_with_tail_effect_converges() {
        let src = "fn a() { b(); }\nfn b() { c(); }\nfn c() { a(); tail(); }\n\
                   fn tail() { let g = lk.lock(); }\n";
        let (_s, labels, sums) = engine_of(src);
        let eff = Effect::LockAcquire("lk".to_string());
        for f in ["a", "b", "c", "tail"] {
            assert!(summary_of(&labels, &sums, f).contains(&eff), "{f} missing lock effect");
        }
    }

    #[test]
    fn cold_callees_contribute_nothing() {
        let src = "fn hot() { setup(); }\n// cold-path: runs once at startup\nfn setup() { x().unwrap(); }\n";
        let (_s, labels, sums) = engine_of(src);
        assert!(summary_of(&labels, &sums, "setup").contains(&Effect::Panic));
        assert!(!summary_of(&labels, &sums, "hot").contains(&Effect::Panic));
    }

    #[test]
    fn suppressed_sites_stay_out_of_summaries() {
        let src = "fn f() {\n    x().unwrap(); // lint: allow(panic-reach, x is Some by construction)\n    g();\n}\nfn g() { y().unwrap(); }\n";
        let sources = vec![SourceFile::parse("t.rs", src)];
        let engine = EffectEngine::build(&sources);
        let f = engine.graph.nodes.iter().position(|n| n.name == "f").expect("f");
        let g = engine.graph.nodes.iter().position(|n| n.name == "g").expect("g");
        assert!(!engine.sites(f).iter().any(|s| s.effect == Effect::Panic));
        // f still inherits g's unsuppressed panic transitively.
        assert!(engine.summary(f).contains(&Effect::Panic));
        assert!(engine.summary(g).contains(&Effect::Panic));
    }

    #[test]
    fn blocking_sites_classify_and_bound() {
        let src = "fn f(rx: &Rx) {\n    let a = rx.recv();\n    let b = rx.recv_timeout(ms);\n    let c = rx.recv(); // bounded-by: sender closes on shutdown\n}\n";
        let sources = vec![SourceFile::parse("t.rs", src)];
        let engine = EffectEngine::build(&sources);
        let blocking: Vec<&EffectSite> = engine
            .sites(0)
            .iter()
            .filter(|s| matches!(s.effect, Effect::Blocking(_)))
            .collect();
        assert_eq!(blocking.len(), 3, "{blocking:?}");
        assert!(!blocking[0].bounded, "bare recv is unbounded");
        assert!(blocking[1].bounded, "recv_timeout bounds itself");
        assert!(blocking[2].bounded, "bounded-by annotation accepted");
    }

    #[test]
    fn lock_effects_serialize_and_parse_round_trip() {
        let roots = vec![RootSummary {
            file: "crates/x/src/a.rs".to_string(),
            line: 12,
            label: "T::run".to_string(),
            effects: [
                Effect::Panic,
                Effect::Blocking("recv".to_string()),
                Effect::LockAcquire("fifo".to_string()),
            ]
            .into_iter()
            .collect(),
        }];
        let text = serialize_lock(&roots);
        assert!(text.contains("\nroot crates/x/src/a.rs T::run\n"), "{text}");
        let parsed = parse_lock(&text).expect("round trip");
        let unlined: Vec<RootSummary> =
            roots.into_iter().map(|r| RootSummary { line: 0, ..r }).collect();
        assert_eq!(parsed, unlined);
    }

    #[test]
    fn drift_detects_added_removed_and_missing() {
        let base = vec![RootSummary {
            file: "a.rs".to_string(),
            line: 1,
            label: "f".to_string(),
            effects: [Effect::RelaxedAtomic].into_iter().collect(),
        }];
        let lock = serialize_lock(&base);
        // Unchanged → clean.
        assert!(check_drift(&base, Some(&lock)).is_empty());
        // Added effect → drift.
        let mut grown = base.clone();
        grown[0].effects.insert(Effect::Panic);
        let d = check_drift(&grown, Some(&lock));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("`panic` appeared"), "{}", d[0].message);
        // Removed effect → drift (tighten).
        let mut shrunk = base.clone();
        shrunk[0].effects.clear();
        let d = check_drift(&shrunk, Some(&lock));
        assert!(d[0].message.contains("no longer inferred"), "{d:?}");
        // Missing lock file → one finding.
        let d = check_drift(&base, None);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("not found"));
        // New root → drift; stale root → drift.
        let d = check_drift(&[], Some(&lock));
        assert!(d[0].message.contains("no longer exists"), "{d:?}");
        let d = check_drift(&base, Some(&format!("schema {LOCK_SCHEMA}\n")));
        assert!(d.iter().any(|f| f.message.contains("not recorded")), "{d:?}");
    }

    #[test]
    fn line_shifts_do_not_drift() {
        let base = vec![RootSummary {
            file: "a.rs".to_string(),
            line: 10,
            label: "f".to_string(),
            effects: BTreeSet::new(),
        }];
        let lock = serialize_lock(&base);
        let mut moved = base.clone();
        moved[0].line = 99;
        assert!(check_drift(&moved, Some(&lock)).is_empty(), "roots keyed by (file, label)");
        assert_eq!(serialize_lock(&moved), lock, "the lock must not record line numbers");

        // End to end: a comment line above the roots and swapping their
        // order moves every line but leaves the lock text unchanged.
        let lock_of = |text: &'static str| {
            let sources = vec![SourceFile::parse("a.rs", text)];
            serialize_lock(&EffectEngine::build(&sources).root_summaries())
        };
        let before = lock_of(
            "// hot-path-root\nfn b() { x().unwrap(); }\n// hot-path-root\nfn a() {}\n",
        );
        let after = lock_of(
            "// moved\n// hot-path-root\nfn a() {}\n// hot-path-root\nfn b() { x().unwrap(); }\n",
        );
        assert_eq!(before, after);
        assert!(before.ends_with("root a.rs a\nroot a.rs b\n  effect panic\n"), "{before}");
    }
}
