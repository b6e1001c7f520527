//! Streaming-ingest coordination: targeted cache invalidation plus the
//! event-replay protocol that makes it safe under concurrent waves.
//!
//! When an edge is appended to the live graph, a cached entry is stale
//! only if the edge enters one of the most-recent-k windows the entry
//! sampled — everything else keeps sampling the same neighborhoods and
//! stays valid. [`entry_stale_after_insert`] answers that for one
//! `(node, time)` window exactly; [`sweep_insert`] asks it of every pair
//! each cached entry depends on, at every layer, through the cache's one
//! sweep. Entries the sweep examined and kept are counted in telemetry as
//! `entries_retained`.
//!
//! The sweep alone is not enough under concurrency: a worker that pinned
//! a pre-insert [`GraphView`] may *store* entries computed from stale
//! history after the submitter's sweep already scanned the cache.
//! [`IngestSync`] closes that window: every appended edge leaves an
//! [`IngestEvent`] in a log, each wave registers the epoch it pinned
//! (under the same lock the submitter appends under), and after its
//! stores complete the wave re-applies the sweep for every event at or
//! past its pin. Because the store happens-before the replay (program
//! order) and the event push happens-before the sweep (program order),
//! the mutex forces one of two outcomes: the submitter's sweep sees the
//! store, or the replay sees the event. Either way the stale entry dies.

use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use tg_graph::{GraphView, NodeId, Time};
use tgopt::{pack_key, LayerCaches};

/// One appended edge, kept in the replay log until every wave that could
/// have computed from pre-insert history has released its pin.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IngestEvent {
    /// Global sequence number of the edge (== its edge id).
    pub seq: u64,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Interaction timestamp.
    pub time: Time,
}

/// The replay log and the per-slot epoch pins, guarded by one mutex in
/// the server's `Shared` state. Lock order: `ingest` is taken *before*
/// the live graph's `gen` lock (workers nest `LiveGraph::view` inside
/// their pin registration; submitters nest `LiveGraph::append`).
#[derive(Debug)]
pub(crate) struct IngestSync {
    /// Appended edges not yet proven covered by every active pin.
    events: VecDeque<IngestEvent>,
    /// Per-slot pinned epoch; `u64::MAX` marks an idle slot. Worker `i`
    /// owns slot `i`; the deterministic drain path owns the last slot.
    pins: Vec<u64>,
}

impl IngestSync {
    /// A sync block with `slots` pin slots, all idle.
    pub fn new(slots: usize) -> Self {
        Self { events: VecDeque::new(), pins: vec![u64::MAX; slots] }
    }

    /// Records one appended edge for post-wave replay.
    ///
    /// # Invariants
    ///
    /// - Must be called under the same `ingest` critical section as the
    ///   `LiveGraph::append` that produced `seq`, so no wave can pin an
    ///   epoch `<= seq` after the event is logged without seeing it.
    /// - `seq` values are pushed in strictly increasing order (appends
    ///   are serialized by the `ingest` lock), keeping the log sorted.
    pub fn push_event(&mut self, ev: IngestEvent) {
        debug_assert!(!self.events.back().is_some_and(|last| last.seq >= ev.seq));
        self.events.push_back(ev);
    }

    /// Pins `slot` at `epoch`: edges with `seq >= epoch` must be replayed
    /// by this slot before the pin is released.
    ///
    /// # Invariants
    ///
    /// - Must be called under the same `ingest` critical section as the
    ///   `LiveGraph::view` whose epoch is being pinned — registering the
    ///   pin after releasing the lock would let a concurrent submitter
    ///   prune an event this slot still needs.
    /// - `slot` was previously idle (`u64::MAX`): a slot processes one
    ///   wave at a time.
    pub fn register_pin(&mut self, slot: usize, epoch: u64) {
        debug_assert_eq!(self.pins.get(slot).copied(), Some(u64::MAX));
        if let Some(p) = self.pins.get_mut(slot) {
            *p = epoch;
        }
    }

    /// The events `slot` must replay: everything at or past its pinned
    /// epoch. Empty when the slot is idle.
    pub fn events_since_pin(&self, slot: usize) -> Vec<IngestEvent> {
        let pin = self.pins.get(slot).copied().unwrap_or(u64::MAX);
        let start = self.events.partition_point(|ev| ev.seq < pin);
        self.events.iter().skip(start).copied().collect()
    }

    /// Releases `slot`'s pin and prunes events already covered by every
    /// remaining pin (an event with `seq < min(active pins)` was visible
    /// in every still-pinned view, so no replay will ever need it; with
    /// no active pins the whole log drains).
    ///
    /// # Invariants
    ///
    /// - Called only after the slot's replay sweeps completed: releasing
    ///   first would let the events be pruned before they were applied.
    pub fn release_pin(&mut self, slot: usize) {
        if let Some(p) = self.pins.get_mut(slot) {
            *p = u64::MAX;
        }
        let min_pin = self.pins.iter().copied().min().unwrap_or(u64::MAX);
        let covered = self.events.partition_point(|ev| ev.seq < min_pin);
        self.events.drain(..covered);
    }

    /// Events currently held for replay (test/telemetry visibility).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }
}

/// Does the most-recent-`k` window of `(x, t)` change after inserting an
/// edge at time `te` incident to `x`, given the *post-insert* view?
///
/// The window holds the `k` most recent interactions of `x` strictly
/// before `t`. The new edge enters it iff it precedes `t` and
/// either the history is still shorter than `k` (every interaction is in
/// the window) or it lands at-or-after the window's oldest slot. With
/// `cut` the post-insert history length before `t`, the oldest window
/// slot is index `cut - k`; ties insert after equal timestamps (matching
/// `TemporalGraph::insert`), so `te >= entries[cut - k].time` is exact.
pub(crate) fn entry_stale_after_insert(
    view: &GraphView,
    k: usize,
    x: NodeId,
    te: Time,
    t: Time,
) -> bool {
    if te >= t {
        return false;
    }
    let cut = view.hist_len_before(x, t);
    if cut <= k {
        return true;
    }
    match view.nth_before(x, t, cut - k) {
        Some(oldest_in_window) => te >= oldest_in_window.time,
        // cut > k >= 0 guarantees the slot exists; stay conservative if not.
        None => true,
    }
}

/// Per-layer accounting bins tracked by a sweep; layer `l` lands in slot
/// `l - 1`, with every layer past the fourth folded into the last slot.
pub(crate) const TRACKED_SWEEP_LAYERS: usize = 4;

/// What one [`sweep_insert`] did, broken down by cache layer so
/// telemetry can report where invalidation pressure lands. At every
/// layer `retained` means the same thing: entries keyed after the edge's
/// time — the only ones the sweep examines — that it proved fresh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SweepReport {
    /// `(removed, retained)` per layer bin; see [`TRACKED_SWEEP_LAYERS`].
    pub per_layer: [(u64, u64); TRACKED_SWEEP_LAYERS],
}

impl SweepReport {
    /// The accounting bin for cache layer `layer` (1-based).
    pub fn slot(layer: usize) -> usize {
        layer.saturating_sub(1).min(TRACKED_SWEEP_LAYERS - 1)
    }

    fn add(&mut self, layer: usize, removed: u64, retained: u64) {
        if let Some(bin) = self.per_layer.get_mut(Self::slot(layer)) {
            bin.0 += removed;
            bin.1 += retained;
        }
    }

    /// Total entries removed across layers.
    pub fn removed(&self) -> u64 {
        self.per_layer.iter().map(|&(r, _)| r).sum()
    }

    /// Total examined entries retained across layers.
    pub fn retained(&self) -> u64 {
        self.per_layer.iter().map(|&(_, k)| k).sum()
    }
}

/// Applies the targeted invalidation for one inserted edge against the
/// shared cache: one sweep over the cached layers drops each entry keyed
/// after `te` that depends on a `(y, t')` window the edge enters — its own
/// key at layer 1, its recorded temporal-subgraph fingerprint
/// (`tgopt::fingerprint`) above, unknown and therefore assumed for a deep
/// entry without one (warm-restored).
///
/// `view` must be a post-insert snapshot (epoch past the edge's seq); the
/// predicate stays sound at any later epoch, so replays may reuse a
/// single fresh view for a batch of events.
pub(crate) fn sweep_insert(
    cache: &LayerCaches,
    view: &GraphView,
    k: usize,
    src: NodeId,
    dst: NodeId,
    te: Time,
) -> SweepReport {
    let mut report = SweepReport::default();
    // Entries share pairs heavily (fingerprints of nearby targets overlap,
    // and a deep entry's pairs are layer-1 keys), so memoize the window
    // check across entries and layers; pairs the edge cannot touch (another
    // node's, or at `t <= te`) are turned away before the memo.
    let mut memo: FxHashMap<u64, bool> = FxHashMap::default();
    cache.sweep(
        Some(te),
        |y, t| {
            (y == src || y == dst)
                && t > te
                && *memo
                    .entry(pack_key(y, t))
                    .or_insert_with(|| entry_stale_after_insert(view, k, y, te, t))
        },
        |layer, removed, retained| report.add(layer, removed as u64, retained as u64),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{Edge, LiveGraph, TemporalGraph};

    fn live_with(edges: &[(NodeId, NodeId, Time)]) -> LiveGraph {
        let mut g = TemporalGraph::with_nodes(8);
        for (i, &(s, d, t)) in edges.iter().enumerate() {
            g.insert(&Edge { src: s, dst: d, time: t, eid: i as u32 });
        }
        LiveGraph::new(g)
    }

    #[test]
    fn staleness_predicate_matches_window_membership() {
        // Node 0 history: times 1, 3, 5, 7 (all with node 1).
        let live = live_with(&[(0, 1, 1.0), (0, 1, 3.0), (0, 1, 5.0), (0, 1, 7.0)]);
        // Insert te = 4 — post-insert history before t=8: [1, 3, 4, 5, 7].
        live.append(&Edge { src: 0, dst: 2, time: 4.0, eid: 4 });
        let v = live.view();
        // k = 2 window before t=8 is [5, 7]: te=4 is older than slot 5 → fresh.
        assert!(!entry_stale_after_insert(&v, 2, 0, 4.0, 8.0));
        // k = 3 window is [4, 5, 7]: the new edge is in it → stale.
        assert!(entry_stale_after_insert(&v, 3, 0, 4.0, 8.0));
        // Entries at or before te never change (strictly-before sampling).
        assert!(!entry_stale_after_insert(&v, 3, 0, 4.0, 4.0));
        assert!(!entry_stale_after_insert(&v, 3, 0, 4.0, 3.5));
        // Short history (node 2 has only the new edge): always stale.
        assert!(entry_stale_after_insert(&v, 2, 2, 4.0, 8.0));
    }

    #[test]
    fn tie_at_window_boundary_is_stale() {
        let live = live_with(&[(0, 1, 1.0), (0, 1, 3.0)]);
        // te equals the current most-recent time; ties insert after, so a
        // k=1 window at t=4 now samples the new edge.
        live.append(&Edge { src: 0, dst: 2, time: 3.0, eid: 2 });
        let v = live.view();
        assert!(entry_stale_after_insert(&v, 1, 0, 3.0, 4.0));
        // But an older insert below the k=1 boundary stays fresh.
        live.append(&Edge { src: 0, dst: 2, time: 2.0, eid: 3 });
        let v = live.view();
        assert!(!entry_stale_after_insert(&v, 1, 0, 2.0, 4.0));
    }

    #[test]
    fn deep_sweep_retains_entries_whose_fingerprint_the_edge_misses() {
        use tg_tensor::Tensor;
        use tgopt::fingerprint;

        // Node 0 talks to 1; nodes 4 and 5 talk to each other, far away.
        let live = live_with(&[(0, 1, 1.0), (0, 1, 2.0), (4, 5, 1.0), (4, 5, 2.0)]);
        let view = live.view();
        let k = 2;
        let caches = LayerCaches::new(2, true, 100, 1);
        let c2 = caches.layer(2).unwrap();
        // Two layer-2 entries, fingerprints captured exactly as the engine
        // does (depth l - 1 = 1): one rooted in the 0-1 component, one in
        // the 4-5 component, both keyed past the upcoming insert time.
        let keys = [tgopt::pack_key(0, 8.0), tgopt::pack_key(4, 8.0)];
        let fps = fingerprint::capture_many(&view, k, &[0, 4], &[8.0, 8.0], 1);
        c2.store_with_constraints(&keys, &Tensor::zeros(2, 1), fps, false).unwrap();

        // Insert 0-2@5: enters node 0's k=2 window before t=8, so the
        // first entry dies; the 4-5 entry's fingerprint never mentions the
        // endpoints and must survive the sweep that used to drop it.
        live.append(&Edge { src: 0, dst: 2, time: 5.0, eid: 4 });
        let view = live.view();
        let report = sweep_insert(&caches, &view, k, 0, 2, 5.0);
        assert_eq!(report.per_layer[SweepReport::slot(2)], (1, 1));
        assert!(!c2.contains(keys[0]) && c2.contains(keys[1]));

        // A second, unrelated insert below every window leaves the
        // survivor alone and counts it as retained again.
        live.append(&Edge { src: 6, dst: 7, time: 6.0, eid: 5 });
        let view = live.view();
        let report = sweep_insert(&caches, &view, k, 6, 7, 6.0);
        assert_eq!(report.per_layer[SweepReport::slot(2)], (0, 1));
        assert!(c2.contains(keys[1]));
    }

    #[test]
    fn pins_hold_events_until_released() {
        let mut sync = IngestSync::new(2);
        sync.register_pin(0, 5);
        sync.push_event(IngestEvent { seq: 5, src: 0, dst: 1, time: 1.0 });
        sync.push_event(IngestEvent { seq: 6, src: 2, dst: 3, time: 2.0 });
        // Slot 0 pinned at epoch 5 must replay both; idle slot 1 none.
        assert_eq!(sync.events_since_pin(0).len(), 2);
        assert!(sync.events_since_pin(1).is_empty());
        // A later pin (epoch 7 > both seqs) replays nothing but also
        // holds nothing: only pre-pin history matters.
        sync.register_pin(1, 7);
        assert!(sync.events_since_pin(1).is_empty());
        sync.release_pin(1);
        // Slot 0's pin still holds the log alive.
        assert_eq!(sync.pending_events(), 2);
        sync.release_pin(0);
        assert_eq!(sync.pending_events(), 0);
    }

    #[test]
    fn partial_prune_keeps_uncovered_suffix() {
        let mut sync = IngestSync::new(2);
        sync.register_pin(0, 3);
        sync.register_pin(1, 9);
        for seq in 3..12 {
            sync.push_event(IngestEvent { seq, src: 0, dst: 1, time: seq as Time });
        }
        sync.release_pin(0);
        // min active pin is 9: events 3..9 are covered, 9..12 survive.
        assert_eq!(sync.pending_events(), 3);
        assert_eq!(sync.events_since_pin(1).len(), 3);
        sync.release_pin(1);
        assert_eq!(sync.pending_events(), 0);
    }

    /// An executable oracle for the one sweep: caches filled by the real
    /// engine, every verdict checked against recomputation.
    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;
        use rustc_hash::FxHashSet;
        use tg_graph::{EdgeId, HistorySource};
        use tg_tensor::{init, Tensor};
        use tgat::engine::GraphContext;
        use tgat::train::forward_embeddings;
        use tgat::{TgatConfig, TgatParams};
        use tgopt::hash::unpack_key;
        use tgopt::{OptConfig, TgoptEngine};

        const NODES: u32 = 8;
        const K: usize = 2;

        struct World {
            params: TgatParams,
            node_features: Tensor,
            edge_features: Tensor,
        }

        impl World {
            fn new(n_layers: usize, n_edges: usize) -> Self {
                let cfg = TgatConfig {
                    dim: 4,
                    edge_dim: 2,
                    time_dim: 4,
                    n_layers,
                    n_heads: 2,
                    n_neighbors: K,
                };
                let mut rng = init::seeded_rng(17);
                Self {
                    params: TgatParams::init(cfg, 5).unwrap(),
                    node_features: init::normal(&mut rng, NODES as usize, cfg.dim, 0.5),
                    edge_features: init::normal(&mut rng, n_edges, cfg.edge_dim, 0.5),
                }
            }

            fn ctx<'a>(&'a self, graph: &'a TemporalGraph) -> GraphContext<'a> {
                GraphContext { graph, node_features: &self.node_features, edge_features: &self.edge_features }
            }

            /// A cache-everything engine over `graph` after answering every
            /// node at three times, so entries land on both sides of any
            /// event time.
            fn warm_engine<'a>(&'a self, graph: &'a TemporalGraph, max_t: Time) -> TgoptEngine<'a> {
                let opt = OptConfig { cache_last_layer: true, ..OptConfig::all() };
                let mut eng = TgoptEngine::new(&self.params, self.ctx(graph), opt);
                let mut ns = Vec::new();
                let mut ts = Vec::new();
                for t in [max_t / 2.0 + 0.5, max_t + 0.5, max_t + 2.0] {
                    ns.extend(0..NODES);
                    ts.resize(ns.len(), t);
                }
                eng.embed_batch(&ns, &ts).unwrap();
                eng
            }

            /// Layer-`l` rows of `keys` recomputed cold over `graph` by the
            /// independent tape forward, on the model's first `l` layers.
            fn recompute(&self, graph: &TemporalGraph, l: usize, keys: &[u64]) -> Tensor {
                let mut params = self.params.clone();
                params.cfg.n_layers = l;
                params.layers.truncate(l);
                let (ns, ts): (Vec<NodeId>, Vec<Time>) = keys.iter().map(|&k| unpack_key(k)).unzip();
                forward_embeddings(&params, &self.ctx(graph), &ns, &ts)
            }

            /// No live entry of any layer differs from its recomputed row.
            fn assert_survivors_fresh(
                &self,
                caches: &LayerCaches,
                graph: &TemporalGraph,
            ) -> Result<(), TestCaseError> {
                for l in 1..=caches.num_layers() {
                    let live = caches.layer(l).unwrap().export_fifo_order();
                    let keys: Vec<u64> = live.iter().map(|(k, _)| *k).collect();
                    let fresh = self.recompute(graph, l, &keys);
                    for (i, (key, row)) in live.iter().enumerate() {
                        let diff = row
                            .iter()
                            .zip(fresh.row(i))
                            .map(|(a, b)| (a - b).abs())
                            .fold(0.0, f32::max);
                        prop_assert!(diff <= 1e-5, "layer {l} kept {:?} off by {diff}", unpack_key(*key));
                    }
                }
                Ok(())
            }
        }

        fn window(graph: &TemporalGraph, x: NodeId, t: Time) -> Vec<EdgeId> {
            let mut eids = Vec::new();
            graph.most_recent(x, t, graph.hist_len_before(x, t).min(K), |_, e| eids.push(e.eid));
            eids
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn sweep_verdicts_match_recomputation(
                raw in proptest::collection::vec((0..NODES, 1..NODES), 10..40),
                n_layers in 2usize..=3,
                (src, off, when) in (0..NODES, 1..NODES, 0usize..1000),
                victim in 0usize..1000,
            ) {
                // Timestamps tie in pairs, and the inserted edge lands on an
                // existing integer time as often as between two.
                let edges: Vec<Edge> = raw.iter().enumerate().map(|(i, &(s, d))| Edge {
                    src: s, dst: (s + d) % NODES, time: (i / 2 + 1) as Time, eid: i as EdgeId,
                }).collect();
                let max_t = edges.last().unwrap().time;
                let mut graph = TemporalGraph::with_nodes(NODES as usize);
                edges.iter().for_each(|e| graph.insert(e));
                let world = World::new(n_layers, edges.len() + 1);

                // --- Insertion -------------------------------------------
                let caches = world.warm_engine(&graph, max_t).shared_cache();
                // Strip every other top-layer fingerprint, as a warm
                // restore would.
                let top = caches.layer(n_layers).unwrap();
                let bare: FxHashSet<u64> = top.export_fifo_order().iter().step_by(2).map(|(key, row)| {
                    let row = Tensor::from_vec(1, row.len(), row.to_vec());
                    top.store(&[*key], &row, false).unwrap();
                    *key
                }).collect();
                // before[l]: layer l's keys going in (layer 0 is never cached).
                let before: Vec<Vec<u64>> = (0..=n_layers).map(|l| {
                    let live = caches.layer(l).map(|c| c.export_fifo_order()).unwrap_or_default();
                    live.iter().map(|(k, _)| *k).collect()
                }).collect();

                let new = Edge {
                    src,
                    dst: (src + off) % NODES,
                    time: (when % (max_t as usize + 2)) as Time,
                    eid: edges.len() as EdgeId,
                };
                let mut after = graph.clone();
                after.insert(&new);
                let view = LiveGraph::new(after.clone()).view();
                let report = sweep_insert(&caches, &view, K, new.src, new.dst, new.time);

                for (l, keys) in before.iter().enumerate().skip(1) {
                    let cache = caches.layer(l).unwrap();
                    let gone = keys.iter().filter(|&&k| !cache.contains(k)).count();
                    let examined = keys.iter().filter(|&&k| unpack_key(k).1 > new.time).count();
                    prop_assert_eq!(
                        report.per_layer[SweepReport::slot(l)],
                        (gone as u64, (examined - gone) as u64)
                    );
                }
                // Layer 1: removed exactly when the sampled window changed.
                let c1 = caches.layer(1).unwrap();
                for &key in &before[1] {
                    let (x, t) = unpack_key(key);
                    let changed = window(&graph, x, t) != window(&after, x, t);
                    prop_assert_eq!(!c1.contains(key), changed, "layer-1 ({}, {})", x, t);
                }
                // Unrecorded deep entries: removed exactly when examined.
                for &key in &bare {
                    prop_assert_eq!(!top.contains(key), unpack_key(key).1 > new.time);
                }
                // Every layer: whatever changed is gone.
                world.assert_survivors_fresh(&caches, &after)?;

                // --- Deletion --------------------------------------------
                let mut engine = world.warm_engine(&graph, max_t);
                let dead = edges[victim % edges.len()];
                let mut after = graph.clone();
                prop_assert!(after.delete_edge(dead.src, dead.dst, dead.eid));
                engine.invalidate_edge_deletion(dead.src, dead.dst);
                let caches = engine.shared_cache();
                world.assert_survivors_fresh(&caches, &after)?;
            }
        }
    }
}
