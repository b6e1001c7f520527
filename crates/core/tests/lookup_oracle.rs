//! Executable oracles for the one validity question.
//!
//! `lookup_verdicts_match_recomputation`: caches filled by the real
//! engine, then read back through checked lookups after the graph changed.
//! Every row a lookup returns must equal the tape forward over the reader's
//! own graph.
//!
//! The live half appends part of the stream out of time order, fills under
//! a view, adds edges below, at and above the cached times, and may compact
//! in between; readers at the new and the old epoch both check. On top of
//! that the layer-1 verdicts are checked exactly against the rule: an
//! entry is accepted precisely when no append after its fill reached its
//! node strictly before its time, whether that append is still a posting
//! or was folded into the base, and it is re-read (revalidated) precisely
//! when an accepted entry's node took an append. A deep entry whose
//! fingerprint was stripped, as a warm restore leaves it, is never
//! returned under a view.
//!
//! The frozen half fills over a `TemporalGraph` and edits it in place
//! between engines, with nothing invalidated: a deletion, an out-of-order
//! insert, and a deletion plus an insert below the cached times that
//! leaves the node's history length unchanged.
//!
//! `recorded_pairs_match_capture`: the pairs the engine records beside
//! every row it stores, joined from the rows it read while computing, equal
//! `fingerprint::capture`'s re-walk of the same frontier.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rustc_hash::FxHashSet;
use std::sync::Arc;
use tg_graph::{Edge, EdgeId, GraphView, LiveGraph, NodeId, TemporalGraph, Time, Versioned};
use tg_tensor::{init, Tensor};
use tgat::engine::GraphContext;
use tgat::train::forward_embeddings;
use tgat::{TgatConfig, TgatParams};
use tgopt::{fingerprint, unpack_key, EmbedCache, EngineCounters, LayerCaches, OptConfig, TgoptEngine};

const NODES: u32 = 8;
const K: usize = 2;

/// Per layer, the keys looked up and the hit mask.
type LayerReads = Vec<(Vec<u64>, Vec<bool>)>;

struct World {
    params: TgatParams,
    node_features: Tensor,
    edge_features: Tensor,
}

impl World {
    fn new(n_layers: usize, n_edges: usize) -> Self {
        let cfg = TgatConfig { dim: 4, edge_dim: 2, time_dim: 4, n_layers, n_heads: 2, n_neighbors: K };
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

    /// [`World::answer`] at three times, so entries land on both sides of
    /// any new edge's time.
    fn answer_all(&self, graph: &TemporalGraph, caches: &Arc<LayerCaches>, view: Option<GraphView>, max_t: Time) {
        self.answer(graph, caches, view, &[max_t / 2.0 + 0.5, max_t + 0.5, max_t + 2.0]);
    }

    /// A cache-everything engine over `caches`, answering every node at
    /// each of `times`. With a `view` it samples, looks up and stores
    /// under it; `graph` is then only the context it would fall back to.
    fn answer(&self, graph: &TemporalGraph, caches: &Arc<LayerCaches>, view: Option<GraphView>, times: &[Time]) {
        let opt = OptConfig { cache_last_layer: true, ..OptConfig::all() };
        let counters = EngineCounters::default();
        let mut eng = TgoptEngine::with_cache(&self.params, self.ctx(graph), opt, Arc::clone(caches), counters);
        if let Some(view) = view {
            eng.pin_view(view);
        }
        let mut ns = Vec::new();
        let mut ts = Vec::new();
        for &t in times {
            ns.extend(0..NODES);
            ts.resize(ns.len(), t);
        }
        eng.embed_batch(&ns, &ts).unwrap();
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

    /// Looks every live key of every layer up in `source` and checks each
    /// returned row against the tape over `graph` (the cold rebuild of
    /// what `source` sees). Returns, per layer, the keys and the hit mask.
    fn read<S: Versioned>(
        &self,
        caches: &LayerCaches,
        source: &S,
        graph: &TemporalGraph,
    ) -> Result<LayerReads, TestCaseError> {
        let mut reads = vec![(Vec::new(), Vec::new())];
        for l in 1..=caches.num_layers() {
            let cache = caches.layer(l).unwrap();
            let keys: Vec<u64> = cache.export_fifo_order().iter().map(|(k, _)| *k).collect();
            let mut rows = Tensor::zeros(keys.len(), self.params.cfg.dim);
            let mask = cache.lookup_in(&keys, &mut rows, source, l - 1, None).unwrap();
            let fresh = self.recompute(graph, l, &keys);
            for (i, _) in mask.iter().enumerate().filter(|(_, &hit)| hit) {
                let diff = rows.row(i).iter().zip(fresh.row(i)).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
                prop_assert!(
                    diff <= 1e-5,
                    "layer {l} returned {:?} off by {diff} at epoch {}",
                    unpack_key(keys[i]),
                    source.epoch()
                );
            }
            reads.push((keys, mask));
        }
        Ok(reads)
    }
}

fn cold(edges: &[Edge]) -> TemporalGraph {
    let mut g = TemporalGraph::with_nodes(NODES as usize);
    edges.iter().for_each(|e| g.insert(e));
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lookup_verdicts_match_recomputation(
        raw in proptest::collection::vec((0..NODES, 1..NODES), 10..40),
        n_layers in 2usize..=3,
        new in proptest::collection::vec((0..NODES, 1..NODES, 0usize..1000), 1..=3),
        victim in 0usize..1000,
        scramble in any::<bool>(),
        compact_at in 0usize..6,
    ) {
        // Timestamps tie in pairs, and the new edges land on integer
        // times up to the latest cached time, `max_t + 2`, itself.
        let edges: Vec<Edge> = raw.iter().enumerate().map(|(i, &(s, d))| Edge {
            src: s, dst: (s + d) % NODES, time: (i / 2 + 1) as Time, eid: i as EdgeId,
        }).collect();
        let max_t = edges.last().unwrap().time;
        let world = World::new(n_layers, edges.len() + new.len());

        // --- Insertion -----------------------------------------------------
        // The first half is the frozen base; the rest are appends, so
        // stamps are already nonzero when the caches fill. Scrambled, the
        // appends' first half arrives newest first: out of time order.
        let mut arrival = edges.clone();
        let half = edges.len() / 2;
        if scramble {
            arrival[half..half + (edges.len() - half) / 2].reverse();
        }
        let (base, appended) = arrival.split_at(half);
        let live = LiveGraph::new(cold(base));
        appended.iter().for_each(|e| { live.append(e); });
        let v0 = live.view();
        let g0 = cold(&arrival);
        let caches = Arc::new(LayerCaches::new(n_layers, true, 10_000, world.params.cfg.dim));
        world.answer_all(&g0, &caches, Some(v0.clone()), max_t);

        // Strip every other top-layer fingerprint, as a warm restore would.
        let top = caches.layer(n_layers).unwrap();
        let bare: FxHashSet<u64> = top.export_fifo_order().iter().step_by(2).map(|(key, row)| {
            top.store(&[*key], &Tensor::from_vec(1, row.len(), row.to_vec()), false).unwrap();
            *key
        }).collect();

        // New edges, with a compaction before the `compact_at`-th of them
        // (after the last at `new.len()`, never past it).
        let mut after = arrival.clone();
        let mut touched = FxHashSet::default();
        for (i, &(src, off, when)) in new.iter().enumerate() {
            if compact_at == i {
                live.compact();
            }
            let e = Edge {
                src,
                dst: (src + off) % NODES,
                time: (when % (max_t as usize + 3)) as Time,
                eid: after.len() as EdgeId,
            };
            live.append(&e);
            touched.extend([e.src, e.dst]);
            after.push(e);
        }
        if compact_at == new.len() {
            live.compact();
        }
        let v1 = live.view();
        let g1 = cold(&after);

        // Read at the new epoch.
        let c1 = caches.layer(1).unwrap();
        let counts = |c: &tgopt::EmbedCache| (c.total_rejected(), c.total_revalidated());
        let (rejected0, revalidated0) = counts(c1);
        let reads = world.read(&caches, &v1, &g1)?;
        // Layer 1: every entry was stored at `v0`'s epoch. It is accepted
        // exactly when no new edge reached its node before its time, and
        // re-read exactly when accepted with its node touched.
        let (keys, mask) = &reads[1];
        let (mut rejected, mut revalidated) = (0, 0);
        for (&key, &hit) in keys.iter().zip(mask) {
            let (x, t) = unpack_key(key);
            let below = after[arrival.len()..].iter().any(|e| (e.src == x || e.dst == x) && e.time < t);
            let accept = !below;
            prop_assert_eq!(hit, accept, "layer-1 ({}, {})", x, t);
            rejected += u64::from(!accept);
            revalidated += u64::from(accept && touched.contains(&x));
        }
        prop_assert_eq!(counts(c1), (rejected0 + rejected, revalidated0 + revalidated));
        // A deep entry without its fingerprint is never returned.
        let (keys, mask) = &reads[n_layers];
        for (key, &hit) in keys.iter().zip(mask) {
            prop_assert!(!(hit && bare.contains(key)), "bare deep entry {:?} returned", unpack_key(*key));
        }

        // The real engine at the new epoch recomputes and overwrites what
        // was refused and restamps what it re-read. A reader still pinned
        // to the old epoch must then get old rows or misses, never rows
        // computed from edges it cannot see.
        world.answer_all(&g1, &caches, Some(v1.clone()), max_t);
        world.read(&caches, &v1, &g1)?;
        world.read(&caches, &v0, &g0)?;

        // --- Frozen edits --------------------------------------------------
        // One cache follows one graph, edited in place between engines;
        // each edit is followed by a read and a refill.
        let mut g = g0.clone();
        let frozen = Arc::new(LayerCaches::new(n_layers, true, 10_000, world.params.cfg.dim));
        world.answer_all(&g, &frozen, None, max_t);
        // A deletion.
        let dead = edges[victim % edges.len()];
        prop_assert!(g.delete_edge(dead.src, dead.dst, dead.eid));
        world.read(&frozen, &g, &g)?;
        world.answer_all(&g, &frozen, None, max_t);
        // An out-of-order insert, below every cached time.
        g.insert(&Edge { src: dead.dst, dst: dead.src, time: 0.5, eid: dead.eid });
        world.read(&frozen, &g, &g)?;
        world.answer_all(&g, &frozen, None, max_t);
        // A deletion plus an insert at the same node and time: the history
        // length before every later time is unchanged, the window is not.
        let swap = edges[(victim + 1) % edges.len()];
        let before = g.neighbors_before(swap.src, max_t + 2.0).len();
        prop_assert!(g.delete_edge(swap.src, swap.dst, swap.eid));
        g.insert(&Edge { eid: edges.len() as EdgeId, ..swap });
        prop_assert_eq!(g.neighbors_before(swap.src, max_t + 2.0).len(), before);
        world.read(&frozen, &g, &g)?;
    }

    #[test]
    fn recorded_pairs_match_capture(
        raw in proptest::collection::vec((0..NODES, 1..NODES), 6..30),
        n_layers in 2usize..=3,
        only_top in any::<bool>(),
        over_view in any::<bool>(),
    ) {
        let edges: Vec<Edge> = raw.iter().enumerate().map(|(i, &(s, d))| Edge {
            src: s, dst: (s + d) % NODES, time: (i / 2 + 1) as Time, eid: i as EdgeId,
        }).collect();
        let max_t = edges.last().unwrap().time;
        let world = World::new(n_layers, edges.len());
        let dim = world.params.cfg.dim;
        let caches = Arc::new(if only_top {
            LayerCaches::from_parts((0..=n_layers).map(|l| (l == n_layers).then(|| EmbedCache::new(10_000, dim))).collect())
        } else {
            LayerCaches::new(n_layers, true, 10_000, dim)
        });
        // Half the stream is appended live, half of that out of time order.
        let g = cold(&edges);
        let live = LiveGraph::new(cold(&edges[..edges.len() / 2]));
        edges[edges.len() / 2..].iter().rev().for_each(|e| { live.append(e); });
        let view = live.view();
        let fill = |times: &[Time]| world.answer(&g, &caches, over_view.then(|| view.clone()), times);
        // Before every edge every node is isolated; mid-stream many have
        // fewer than `K` neighbours, so their windows hold padding.
        fill(&[0.5, max_t / 2.0 + 0.5, max_t + 1.0]);
        // Drop the top table and fill again later: its rows now read
        // cached lower-layer rows as well as recomputed ones.
        caches.layer(n_layers).unwrap().clear();
        fill(&[max_t / 2.0 + 0.5, max_t + 2.0]);

        for l in 1..=n_layers {
            let Some(cache) = caches.layer(l) else { continue };
            let keys: Vec<u64> = cache.export_fifo_order().iter().map(|(k, _)| *k).collect();
            let mut rows = Tensor::zeros(keys.len(), dim);
            let mut pairs = vec![Box::default(); keys.len()];
            let mask = if over_view {
                cache.lookup_in(&keys, &mut rows, &view, l - 1, Some(&mut pairs[..])).unwrap()
            } else {
                cache.lookup_in(&keys, &mut rows, &g, l - 1, Some(&mut pairs[..])).unwrap()
            };
            for (i, &key) in keys.iter().enumerate() {
                let (x, t) = unpack_key(key);
                let want = if over_view {
                    fingerprint::capture(&view, K, x, t, l - 1)
                } else {
                    fingerprint::capture(&g, K, x, t, l - 1)
                };
                prop_assert!(mask[i], "layer {} ({}, {}) refused at its own epoch", l, x, t);
                prop_assert_eq!(&pairs[i], &want, "layer {} ({}, {})", l, x, t);
            }
        }
    }
}
