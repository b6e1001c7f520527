//! The optimized inference engine (Algorithm 1).
//!
//! `TgoptEngine` is the one inference recursion. With every optimization
//! off ([`OptConfig::none`]) it is the paper's baseline — the unchanged TGAT
//! computation; deduplication, memoization and time-encoding precomputation
//! each layer in front of it behind their own switch, with outputs equal
//! within floating-point tolerance. The tape forward
//! `tgat::train::forward_embeddings` is the independent oracle the tests
//! hold every configuration to.

use crate::cache::{EmbedCache, LayerCaches};
use crate::config::OptConfig;
use crate::dedup::{dedup_filter, dedup_invert};
use crate::edgeproj::EdgeProjector;
use crate::hash::{compute_keys, pack_key};
use crate::timecache::TimeCache;
use tg_error::TgError;
use tg_graph::{GraphView, NodeId, SamplingStrategy, TemporalSampler, Time, Versioned};
use tg_tensor::fanout::host_cores;
use tg_tensor::{Scratch, Tensor};
use tgat::attention::{self, AttentionInputs, KvWeights};
use tgat::{engine::GraphContext, TgatParams};
use std::sync::Arc;
use tg_telemetry::{OpKind, Recorder};

/// Cumulative reuse counters (drive Figures 3 and 7 and Table 3's hit rate).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Keys probed against the embedding cache.
    pub cache_lookups: u64,
    /// Probes that hit (embeddings reused instead of recomputed).
    pub cache_hits: u64,
    /// Embeddings stored after recomputation.
    pub cache_stores: u64,
    /// Unique targets whose embedding had to be recomputed.
    pub recomputed: u64,
    /// Duplicate targets removed by the dedup filter.
    pub dedup_removed: u64,
    /// Recomputed embeddings *not* stored because the engine was in
    /// degraded (store-skipping) mode — e.g. a serving layer's memory
    /// budget was exceeded, so the cache serves lookups only.
    pub stores_skipped: u64,
}

impl EngineCounters {
    /// Elementwise difference (for per-batch deltas).
    pub fn delta_since(&self, earlier: &EngineCounters) -> EngineCounters {
        EngineCounters {
            cache_lookups: self.cache_lookups - earlier.cache_lookups,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_stores: self.cache_stores - earlier.cache_stores,
            recomputed: self.recomputed - earlier.recomputed,
            dedup_removed: self.dedup_removed - earlier.dedup_removed,
            stores_skipped: self.stores_skipped - earlier.stores_skipped,
        }
    }

    /// Elementwise sum (for aggregating per-worker counters).
    pub fn merge(&self, other: &EngineCounters) -> EngineCounters {
        EngineCounters {
            cache_lookups: self.cache_lookups + other.cache_lookups,
            cache_hits: self.cache_hits + other.cache_hits,
            cache_stores: self.cache_stores + other.cache_stores,
            recomputed: self.recomputed + other.recomputed,
            dedup_removed: self.dedup_removed + other.dedup_removed,
            stores_skipped: self.stores_skipped + other.stores_skipped,
        }
    }

    /// Hit rate over these counters (0 if nothing was looked up).
    #[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
    pub fn hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// When the caller records, each row's record: the sorted packed
/// `(y, t')` pairs whose windows its computation sampled (DESIGN.md "One
/// validity question").
type Records = Option<Vec<Box<[u64]>>>;

/// A layer's unique rows, the inverse index that maps target `i` to its
/// row when dedup ran (without it row `i` is target `i`), and their
/// records.
type Layer = (Tensor, Option<Vec<u32>>, Records);

/// TGOpt's redundancy-aware TGAT inference engine.
pub struct TgoptEngine<'a> {
    params: &'a TgatParams,
    ctx: GraphContext<'a>,
    sampler: TemporalSampler,
    opt: OptConfig,
    caches: Arc<LayerCaches>,
    /// §4.3 precomputed window; `None` when `enable_time_precompute` is off,
    /// so an engine that never reads the window never builds it.
    timecache: Option<TimeCache>,
    /// Each layer's K|V operand, built once here (attention multiplies
    /// every head's K and V in one product).
    kv: Vec<KvWeights>,
    /// Layer-1 edge projection; `None` unless `enable_edge_proj` is on and
    /// every node feature is zero (checked once, here).
    edge_proj: Option<EdgeProjector>,
    stats: Recorder,
    counters: EngineCounters,
    store_enabled: bool,
    /// When pinned, neighborhood sampling reads this epoch-stamped live
    /// snapshot instead of `ctx.graph` — the streaming-ingest read path.
    /// Owned (not borrowed) because views are per-wave while the engine
    /// lives for the worker's lifetime.
    view: Option<GraphView>,
    /// Recycled per-batch buffers; owned by the engine (one per serve
    /// worker) so steady-state batches run allocation-free.
    scratch: Scratch,
    /// One scratch per core beyond the caller's: the fan-out width − 1.
    helpers: Vec<Scratch>,
    /// `0, 1, 2, …`: how attention indexes a lower layer's rows when dedup
    /// is off (row `i` is target `i`). Grows to the largest frontier once.
    identity: Vec<u32>,
}

impl<'a> TgoptEngine<'a> {
    /// Builds an engine with the model's configured most-recent sampler.
    pub fn new(params: &'a TgatParams, ctx: GraphContext<'a>, opt: OptConfig) -> Self {
        let sampler = TemporalSampler::most_recent(params.cfg.n_neighbors);
        Self::with_sampler(params, ctx, opt, sampler)
    }

    /// Builds an engine with a custom sampler. With a non-deterministic
    /// strategy (uniform sampling) the embedding cache is automatically
    /// bypassed — memoization is only sound under most-recent sampling
    /// (§3.2 / §7).
    pub fn with_sampler(
        params: &'a TgatParams,
        ctx: GraphContext<'a>,
        opt: OptConfig,
        sampler: TemporalSampler,
    ) -> Self {
        let timecache = opt
            .enable_time_precompute
            .then(|| TimeCache::precompute(&params.time, opt.time_window.max(1)));
        let edge_proj = if opt.enable_edge_proj { EdgeProjector::for_layer1(params, ctx.node_features) } else { None };
        Self {
            params,
            ctx,
            sampler,
            opt,
            caches: Arc::new(LayerCaches::new(
                params.cfg.n_layers,
                opt.cache_last_layer,
                opt.cache_limit.max(1),
                params.cfg.dim,
            )),
            timecache,
            kv: params.layers.iter().map(|layer| KvWeights::new(layer, &params.cfg)).collect(),
            edge_proj,
            stats: Recorder::disabled(),
            counters: EngineCounters::default(),
            store_enabled: true,
            view: None,
            scratch: Scratch::new(),
            helpers: Vec::new(),
            identity: Vec::new(),
        }
        .with_cores(host_cores())
    }

    /// Sets how many cores a batch may fan out over, the caller's included
    /// (default: all of the host's; `tg-serve` divides them among its
    /// workers). Results are bit-identical at every value.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.helpers.resize_with(cores.saturating_sub(1), Scratch::new);
        self
    }

    /// Number of helper scratches: the fan-out width − 1.
    pub fn helper_count(&self) -> usize {
        self.helpers.len()
    }

    /// Rebuilds an engine around an existing cache (and counters), e.g.
    /// one per serving worker over a shared cache, or the next engine over
    /// a live graph that grew since the last one. Every lookup asks
    /// whether what the row read changed ([`EmbedCache::lookup_in`]), so
    /// no append needs anything removed. The cache must follow one
    /// history: the graph, or the live graph whose views are pinned, that
    /// it was filled over.
    pub fn with_cache(
        params: &'a TgatParams,
        ctx: GraphContext<'a>,
        opt: OptConfig,
        caches: Arc<LayerCaches>,
        counters: EngineCounters,
    ) -> Self {
        if let Some(dim) = caches.dim() {
            assert_eq!(dim, params.cfg.dim, "cache dimension mismatch");
        }
        let mut eng = Self::new(params, ctx, opt);
        eng.caches = caches;
        eng.counters = counters;
        eng
    }

    /// Tears the engine down, releasing the cache and counters for reuse
    /// with [`TgoptEngine::with_cache`].
    pub fn into_cache(self) -> (Arc<LayerCaches>, EngineCounters) {
        (self.caches, self.counters)
    }

    /// A shareable handle to the engine's caches. Multiple engines (e.g.
    /// one per serving thread) built over the same graph may share caches
    /// via [`TgoptEngine::with_cache`]: the tables are sharded and
    /// internally synchronized, and memoized values are deterministic
    /// functions of their key, so concurrent readers/writers always observe
    /// correct embeddings.
    pub fn shared_cache(&self) -> Arc<LayerCaches> {
        Arc::clone(&self.caches)
    }

    /// Turns on per-operation timing (Table 3 reproduction).
    pub fn enable_stats(&mut self) {
        self.stats = Recorder::enabled();
    }

    /// Accumulated operation timings.
    pub fn stats(&self) -> &Recorder {
        &self.stats
    }

    /// Cumulative reuse counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// The per-layer embedding caches (for memory accounting and
    /// clearing).
    pub fn cache(&self) -> &LayerCaches {
        &self.caches
    }

    /// Hit/miss counters of the time-encoding cache `(hits, misses)`;
    /// `(0, 0)` when time precomputation is off.
    pub fn time_cache_stats(&self) -> (u64, u64) {
        self.timecache.as_ref().map_or((0, 0), |c| (c.hits(), c.misses()))
    }

    /// Hit rate of the time-encoding cache.
    #[expect(clippy::cast_precision_loss, reason = "a ratio of counts; f64 is exact below 2^53")]
    pub fn time_cache_hit_rate(&self) -> f64 {
        let (h, m) = self.time_cache_stats();
        if h + m == 0 { 0.0 } else { h as f64 / (h + m) as f64 }
    }

    /// The active optimization configuration.
    pub fn opt_config(&self) -> &OptConfig {
        &self.opt
    }

    /// True if memoization is actually in effect (enabled *and* sound under
    /// the configured sampling strategy).
    pub fn memoization_active(&self) -> bool {
        self.opt.enable_cache && self.sampler.strategy() == SamplingStrategy::MostRecent
    }

    /// Toggles degraded (store-skipping) mode: with stores disabled the
    /// engine still *reads* the cache and still recomputes misses correctly,
    /// but recomputed embeddings are not written back, so the cache stops
    /// growing. Serving layers flip this when a memory budget is exceeded —
    /// degrading throughput instead of failing requests. Skipped writes are
    /// counted in [`EngineCounters::stores_skipped`]. Always safe: skipping
    /// a store never changes any returned embedding.
    pub fn set_store_enabled(&mut self, enabled: bool) {
        self.store_enabled = enabled;
    }

    /// True unless degraded (store-skipping) mode is active.
    pub fn store_enabled(&self) -> bool {
        self.store_enabled
    }

    /// Pins an epoch-stamped live snapshot, replacing any pinned before
    /// (a view stays pinned for the engine's life): the engine reads
    /// `view` instead of the frozen `ctx.graph` — sampling, and the lookup
    /// check and store stamp of every cached row ([`EmbedCache::lookup_in`],
    /// DESIGN.md "One validity question").
    pub fn pin_view(&mut self, view: GraphView) {
        self.view = Some(view);
    }

    /// Computes final-layer temporal embeddings for `(ns[i], ts[i])` targets.
    /// Returns `[len(ns), dim]`; internal cache shape violations surface as
    /// [`TgError`] instead of aborting the serving thread.
    // hot-path-root
    pub fn embed_batch(&mut self, ns: &[NodeId], ts: &[Time]) -> Result<Tensor, TgError> {
        if ns.len() != ts.len() {
            return Err(TgError::InvalidArgument(format!(
                "embed_batch needs one timestamp per node: {} nodes vs {} times",
                ns.len(),
                ts.len()
            )));
        }
        // The history every layer reads: the pinned view, or the graph.
        let top = self.params.cfg.n_layers;
        let (h, inv_idx, _) = match self.view.clone() {
            Some(view) => self.embed(&view, top, ns, ts, false)?,
            None => self.embed(self.ctx.graph, top, ns, ts, false)?,
        };
        // §4.1 DedupInvert, once: every layer below read its lower layer's
        // unique rows through the inverse index instead.
        Ok(match inv_idx {
            Some(inv_idx) => {
                let out = self.stats.time(OpKind::DedupInvert, || dedup_invert(&h, &inv_idx));
                self.scratch.give(h);
                out
            }
            None => h,
        })
    }

    /// Layer `l ≥ 1` of `(ns, ts)`, with the rows' records if `record`
    /// (asked only at `l ≥ 2`: a layer-1 row's record is its key).
    fn embed<S: Versioned>(
        &mut self,
        source: &S,
        l: usize,
        ns: &[NodeId],
        ts: &[Time],
        record: bool,
    ) -> Result<Layer, TgError> {
        debug_assert_eq!(ns.len(), ts.len());
        if ns.is_empty() {
            return Ok((self.scratch.take(0, self.params.cfg.dim), None, record.then(Vec::new)));
        }

        // §4.1 DedupFilter.
        let dedup = if self.opt.enable_dedup {
            let r = self.stats.time(OpKind::DedupFilter, || dedup_filter(ns, ts));
            self.counters.dedup_removed += (ns.len() - r.num_unique()) as u64;
            Some(r)
        } else {
            None
        };
        let (uns, uts): (&[NodeId], &[Time]) = match &dedup {
            Some(r) => (&r.ns, &r.ts),
            None => (ns, ts),
        };

        // §4.2 memoization — sound only under most-recent sampling, and the
        // last layer is skipped unless configured otherwise. Each cached
        // layer has its own table: keys identify a (node, time) target, not
        // a layer. A layer without one misses every row, so its attention
        // output is `h` as is: no hit mask, no scatter.
        let caches = Arc::clone(&self.caches);
        let cache_l = if self.memoization_active() { caches.layer(l) } else { None };
        let (h, records) = match cache_l {
            Some(cache) => self.embed_cached(source, cache, l, uns, uts, record)?,
            None => {
                self.counters.recomputed += uns.len() as u64;
                self.attend(source, l, uns, uts, record)?
            }
        };
        Ok((h, dedup.map(|r| r.inv_idx), records))
    }

    /// Layer `l` of unique targets through the layer's cache: look every key
    /// up, recompute the misses with [`Self::attend`], store them and copy
    /// them into place (Algorithm 1 with Algorithm 3's lookup and store).
    fn embed_cached<S: Versioned>(
        &mut self,
        source: &S,
        cache: &EmbedCache,
        l: usize,
        uns: &[NodeId],
        uts: &[Time],
        record: bool,
    ) -> Result<(Tensor, Records), TgError> {
        let n_uniq = uns.len();
        // Taken, not zeroed: the lookup writes every hit row and the scatter
        // below every miss row.
        let mut h = self.scratch.take(n_uniq, self.params.cfg.dim);
        let keys = self.stats.time(OpKind::ComputeKeys, || compute_keys(uns, uts, false));
        // A recording caller joins each hit's pairs, read with its row.
        let mut records = record.then(|| vec![Box::default(); n_uniq]);
        let hit_mask =
            self.stats.time(OpKind::CacheLookup, || cache.lookup_in(&keys, &mut h, source, l - 1, records.as_deref_mut()))?;
        self.counters.cache_lookups += n_uniq as u64;
        let n_hits = hit_mask.iter().filter(|&&m| m).count();
        self.counters.cache_hits += n_hits as u64;

        let mut miss_idx = Vec::with_capacity(n_uniq - n_hits);
        miss_idx.extend((0..n_uniq).filter(|&i| !hit_mask[i]));
        if miss_idx.is_empty() {
            return Ok((h, records));
        }
        let m_ns: Vec<NodeId> = miss_idx.iter().map(|&i| uns[i]).collect();
        let m_ts: Vec<Time> = miss_idx.iter().map(|&i| uts[i]).collect();
        // A layer-1 row reads its key's window alone, so it records
        // nothing; a deeper one records what it sampled.
        let (h_m, mut m_records) = self.attend(source, l, &m_ns, &m_ts, record || (self.store_enabled && l >= 2))?;
        // Handed up by move; copied only if the store keeps it too.
        if let (Some(records), Some(m_records)) = (records.as_mut(), m_records.as_mut()) {
            for (&i, pairs) in miss_idx.iter().zip(m_records) {
                records[i] = if self.store_enabled { pairs.clone() } else { std::mem::take(pairs) };
            }
        }

        if self.store_enabled {
            let miss_keys: Vec<u64> = miss_idx.iter().map(|&i| keys[i]).collect();
            self.stats.time(OpKind::CacheStore, || cache.store_in(&miss_keys, &h_m, m_records, source))?;
            self.counters.cache_stores += miss_keys.len() as u64;
        } else {
            self.counters.stores_skipped += miss_idx.len() as u64;
        }
        self.counters.recomputed += miss_idx.len() as u64;

        // Copy recomputed rows into their unique-array positions.
        for (src_row, &dst) in miss_idx.iter().enumerate() {
            h.row_mut(dst).copy_from_slice(h_m.row(src_row));
        }
        self.scratch.give(h_m);
        Ok((h, records))
    }

    /// One TGAT layer over `ns`/`ts` with nothing reused at this layer:
    /// sample, embed targets and neighbors together one layer down
    /// (Algorithm 1 line 12: `Embed(l-1, ns ∪ ns_ngh, ts ∪ ts_ngh)`), encode
    /// the time deltas and attend. Returns `[ns.len(), dim]` and, if
    /// `record` (at `l ≥ 2`), each row's record: its own pair joined with
    /// the records of the lower-layer rows its real neighbor slots read
    /// (comemo's `join`; padding reads nothing, and a layer-1 row's record
    /// is its key).
    fn attend<S: Versioned>(&mut self, source: &S, l: usize, ns: &[NodeId], ts: &[Time], record: bool) -> Result<(Tensor, Records), TgError> {
        let sampler = &self.sampler;
        let nb = self.stats.time(OpKind::NghLookup, || sampler.sample_from(source, ns, ts));

        let mut all_ns = Vec::with_capacity(ns.len() + nb.nodes.len());
        all_ns.extend_from_slice(ns);
        all_ns.extend_from_slice(&nb.nodes);
        // Layer 0 is the node-feature table itself, read by node id; above
        // it the recursion returns unique rows and attention reads them by
        // index, so no layer-(l-1) frontier is gathered, split or expanded.
        let lower = if l == 1 {
            None
        } else {
            let mut all_ts = Vec::with_capacity(ts.len() + nb.times.len());
            all_ts.extend_from_slice(ts);
            all_ts.extend_from_slice(&nb.times);
            Some(self.embed(source, l - 1, &all_ns, &all_ts, record && l > 2)?)
        };

        // §4.3 precomputed time encodings when the window exists, the
        // encoder otherwise; both fill scratch-backed destinations, so a
        // steady-state batch performs no time-encode allocations.
        let params = self.params;
        let time_dim = params.time.dim();
        let (stats, timecache) = (&mut self.stats, &mut self.timecache);
        let mut ht0 = self.scratch.take(ns.len(), time_dim);
        stats.time(OpKind::TimeEncodeZero, || match timecache {
            Some(c) => c.encode_zeros_into(&mut ht0),
            None => params.time.encode_zeros_into(&mut ht0),
        });
        let mut ht = self.scratch.take(nb.dts.len(), time_dim);
        let helpers = &mut self.helpers[..];
        stats.time(OpKind::TimeEncodeDt, || match timecache {
            Some(c) => c.encode_into(&params.time, &nb.dts, &mut ht),
            None => params.time.encode_into_fanned(&nb.dts, &mut ht, helpers),
        });
        let mask = nb.mask();

        let (h_prev, h_idx): (&Tensor, &[u32]) = match &lower {
            None => (self.ctx.node_features, &all_ns),
            Some((h, Some(inv_idx), _)) => (h, inv_idx),
            Some((h, None, _)) => {
                let n = all_ns.len();
                #[expect(clippy::cast_possible_truncation, reason = "frontier rows are u32-indexed like dedup's inverse index")]
                self.identity.extend(self.identity.len() as u32..n as u32);
                (h, &self.identity[..n])
            }
        };
        let (layer, kv) = (&params.layers[l - 1], &self.kv[l - 1]);
        let cfg = &params.cfg;
        let scratch = &mut self.scratch;
        let helpers = &mut self.helpers[..];
        let e_feat = self.ctx.edge_features;
        // Layer 1 over featureless nodes: K/V start at each edge's
        // projection, read from the shared table or projected here.
        let projector = self.edge_proj.as_mut().filter(|_| l == 1);
        let table = self.caches.edge_proj();
        let out = self.stats.time(OpKind::Attention, || {
            let seeds = projector.map(|p| {
                p.prepare(kv, &nb.eids, e_feat, table, scratch, helpers);
                p.seeds()
            });
            let inp = AttentionInputs { h_src: h_prev, ht0: &ht0, h_ngh: h_prev, e_feat, ht: &ht, mask: &mask };
            attention::forward_by_eid(layer, kv, cfg, &inp, &nb.eids, Some(h_idx), seeds.as_ref(), scratch, helpers)
        });
        let lower_records = lower.as_ref().and_then(|(_, _, r)| r.as_ref());
        let join = |i: usize| {
            let mut pairs = vec![pack_key(ns[i], ts[i])];
            for slot in (i * nb.k..(i + 1) * nb.k).filter(|&slot| nb.is_valid(slot)) {
                match lower_records {
                    Some(lower) => pairs.extend_from_slice(&lower[h_idx[ns.len() + slot] as usize]),
                    None => pairs.push(pack_key(nb.nodes[slot], nb.times[slot])),
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            pairs.into_boxed_slice()
        };
        // Timed as the store it feeds.
        let records = record.then(|| self.stats.time(OpKind::CacheStore, || (0..ns.len()).map(join).collect()));
        self.scratch.give(ht);
        self.scratch.give(ht0);
        if let Some((h, _, _)) = lower {
            self.scratch.give(h);
        }
        Ok((out, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_graph::{Edge, LiveGraph, TemporalGraph};
    use tg_tensor::init;
    use tgat::train::forward_embeddings;
    use tgat::TgatConfig;

    /// `n_edges` interactions, one per time step, round the node ids.
    fn world_edges(n_nodes: usize, n_edges: usize) -> Vec<Edge> {
        (0..n_edges)
            .map(|i| Edge {
                src: (i % n_nodes) as NodeId,
                dst: ((i * 3 + 1) % n_nodes) as NodeId,
                time: (i + 1) as Time,
                eid: i as u32,
            })
            .collect()
    }

    fn world(cfg: TgatConfig, n_nodes: usize, n_edges: usize) -> (TemporalGraph, Tensor, Tensor) {
        let graph = TemporalGraph::from_edges(n_nodes, &world_edges(n_nodes, n_edges));
        let mut rng = init::seeded_rng(5);
        let nf = init::normal(&mut rng, n_nodes, cfg.dim, 0.5);
        let ef = init::normal(&mut rng, n_edges, cfg.edge_dim, 0.5);
        (graph, nf, ef)
    }

    /// The ablation presets: each stage of Figure 6, each optimization on
    /// its own, and caching the last layer as well.
    fn presets() -> [OptConfig; 7] {
        [
            OptConfig::none(),
            OptConfig::cache_only(),
            OptConfig::cache_dedup(),
            OptConfig::all(),
            OptConfig { enable_dedup: true, enable_cache: false, enable_time_precompute: false, ..OptConfig::all() },
            OptConfig { enable_dedup: false, enable_cache: false, enable_time_precompute: true, ..OptConfig::all() },
            OptConfig { cache_last_layer: true, ..OptConfig::all() },
        ]
    }

    fn assert_matches_oracle(opt: OptConfig) {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut tgopt = TgoptEngine::new(&params, ctx, opt);
        // Several batches with heavy duplication and recurring targets.
        for round in 0..4 {
            let t = 40.0 + round as Time * 5.0;
            let ns: Vec<NodeId> = vec![0, 1, 2, 0, 1, 5, 0];
            let ts: Vec<Time> = vec![t, t, t + 1.0, t, t, t, t];
            let hb = forward_embeddings(&params, &ctx, &ns, &ts);
            let ho = tgopt.embed_batch(&ns, &ts).unwrap();
            let diff = hb.max_abs_diff(&ho);
            assert!(diff < 1e-4, "round {round}: max diff {diff} vs the tape oracle ({opt:?})");
        }
    }

    #[test]
    fn all_optimizations_preserve_semantics() {
        assert_matches_oracle(OptConfig::all());
    }

    #[test]
    fn each_ablation_stage_preserves_semantics() {
        for opt in presets() {
            assert_matches_oracle(opt);
        }
    }

    #[test]
    fn tiny_cache_limit_preserves_semantics() {
        assert_matches_oracle(OptConfig::all().with_cache_limit(4));
        assert_matches_oracle(OptConfig::all().with_time_window(2));
    }

    /// The keystone: the tape forward is a recursion built from autograd ops
    /// alone — no `Scratch`, no attention blocks, no fan-out — so agreeing
    /// with it checks the engine's pooled, blocked, fanned-out path and
    /// every optimization layered in front of it, at 2 and 3 layers.
    #[test]
    fn tape_forward_matches_inference_engine() {
        for n_layers in [2, 3] {
            let cfg = TgatConfig { n_layers, ..TgatConfig::tiny() };
            let params = TgatParams::init(cfg, 4).unwrap();
            let (graph, nf, ef) = world(cfg, 14, 160);
            let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
            // 90 targets, 70 of them unique: two attention blocks at the top
            // layer even after dedup, several more below.
            let ns: Vec<NodeId> = (0..90).map(|i| (i * 5 % 14) as NodeId).collect();
            let ts: Vec<Time> = (0..90).map(|i| 100.0 + (i % 10) as Time).collect();
            assert!(ns.len() > attention::TARGET_BLOCK);
            let tape = forward_embeddings(&params, &ctx, &ns, &ts);
            for opt in presets() {
                for cores in [1, 2] {
                    let mut eng = TgoptEngine::new(&params, ctx, opt).with_cores(cores);
                    // The second pass reads whatever the first one stored.
                    for pass in 0..2 {
                        let diff = tape.max_abs_diff(&eng.embed_batch(&ns, &ts).unwrap());
                        assert!(
                            diff < 1e-5,
                            "{n_layers} layers, {cores} cores, pass {pass}: {diff} ({opt:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edge_projection_applies_only_over_featureless_nodes() {
        // The projection runs only where every node feature is zero and
        // falls back to the full K/V products elsewhere; either way the
        // bits are the engine's without it, and the tape agrees within
        // 1e-5. Without the embedding cache every pass recomputes layer 1:
        // the first pass tags the table, the second stores the rows, the
        // third reads them.
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cfg = TgatConfig { dim: 16, ..TgatConfig::tiny() };
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let zero = Tensor::zeros(nf.rows(), nf.cols());
        let ns: Vec<NodeId> = vec![0, 1, 2, 0, 5, 7, 11];
        let ts: Vec<Time> = vec![50.0, 50.0, 51.0, 60.0, 60.0, 70.0, 80.0];
        for (features, featureless) in [(&nf, false), (&zero, true)] {
            let ctx = GraphContext { graph: &graph, node_features: features, edge_features: &ef };
            let tape = forward_embeddings(&params, &ctx, &ns, &ts);
            for opt in [OptConfig::all(), OptConfig { enable_cache: false, ..OptConfig::all() }] {
                let mut eng = TgoptEngine::new(&params, ctx, opt).with_cores(2);
                assert_eq!(eng.edge_proj.is_some(), featureless, "{opt:?}");
                let mut plain = TgoptEngine::new(&params, ctx, OptConfig { enable_edge_proj: false, ..opt });
                assert!(plain.edge_proj.is_none());
                for pass in 0..3 {
                    let got = eng.embed_batch(&ns, &ts).unwrap();
                    assert_eq!(bits(&got), bits(&plain.embed_batch(&ns, &ts).unwrap()), "pass {pass} ({opt:?})");
                    assert!(got.max_abs_diff(&tape) < 1e-5, "pass {pass} ({opt:?})");
                }
                let s = eng.cache().edge_proj().stats();
                if !featureless {
                    assert_eq!(s, crate::EdgeProjStats::default());
                } else if !opt.enable_cache {
                    assert!(s.filled > 0 && s.hits * 3 >= s.lookups, "{s:?}");
                }
            }
        }
    }

    #[test]
    fn colliding_edges_in_one_call_keep_the_bits() {
        // With 64 nodes, edge i and edge i + EDGE_PROJ_SLOTS join the same
        // two nodes, so a node queried at t and at t + EDGE_PROJ_SLOTS
        // samples neighbourhoods whose edge ids collide pairwise on one
        // table slot, in one call. The newer edge keeps the slot and is
        // stored at its second miss; the older one is projected again on
        // every pass.
        use crate::edgeproj::EDGE_PROJ_SLOTS;
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 3).unwrap();
        let (graph, nf, ef) = world(cfg, 64, EDGE_PROJ_SLOTS + 400);
        let zero = Tensor::zeros(nf.rows(), nf.cols());
        let ctx = GraphContext { graph: &graph, node_features: &zero, edge_features: &ef };
        let far = EDGE_PROJ_SLOTS as Time;
        let ns: Vec<NodeId> = vec![5, 5, 9, 9, 5];
        let ts: Vec<Time> = vec![300.0, 300.0 + far, 350.0, 350.0 + far, 301.0];
        let opt = OptConfig { enable_cache: false, ..OptConfig::all() };
        let mut eng = TgoptEngine::new(&params, ctx, opt);
        let mut plain = TgoptEngine::new(&params, ctx, OptConfig { enable_edge_proj: false, ..opt });
        for pass in 0..3 {
            let got = eng.embed_batch(&ns, &ts).unwrap();
            assert_eq!(bits(&got), bits(&plain.embed_batch(&ns, &ts).unwrap()), "pass {pass}");
        }
        let s = eng.cache().edge_proj().stats();
        assert!(s.hits > 0 && s.hits < s.lookups, "{s:?}");
    }

    #[test]
    fn batching_does_not_change_results() {
        // Embedding targets together vs one-by-one must agree: the batched
        // recursion is semantically a per-target computation, and duplicate
        // targets get identical rows without dedup.
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 2).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 60);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let ns: Vec<NodeId> = vec![0, 5, 7, 0];
        let ts: Vec<Time> = vec![50.0, 44.0, 61.0, 50.0];
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::none());
        let batched = eng.embed_batch(&ns, &ts).unwrap();
        assert_eq!(batched.row(0), batched.row(3), "duplicate targets");
        for i in 0..ns.len() {
            let single = TgoptEngine::new(&params, ctx, OptConfig::none())
                .embed_batch(&[ns[i]], &[ts[i]])
                .unwrap();
            let row = Tensor::from_vec(1, cfg.dim, batched.row(i).to_vec());
            assert!(single.max_abs_diff(&row) < 1e-4, "target {i} differs");
        }
    }

    #[test]
    fn isolated_node_embeds_without_neighbors() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 1).unwrap();
        let (graph, nf, ef) = world(cfg, 10, 20);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        // t=0.5 precedes every edge: all targets have empty neighborhoods.
        let h = TgoptEngine::new(&params, ctx, OptConfig::none()).embed_batch(&[0], &[0.5]).unwrap();
        assert!(h.all_finite());
        assert!(h.max_abs_diff(&forward_embeddings(&params, &ctx, &[0], &[0.5])) < 1e-5);
    }

    #[test]
    fn stats_capture_baseline_ops_only() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 1).unwrap();
        let (graph, nf, ef) = world(cfg, 10, 50);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::none());
        eng.enable_stats();
        let _ = eng.embed_batch(&[0, 1], &[30.0, 31.0]).unwrap();
        let s = eng.stats();
        assert_eq!(s.count(OpKind::NghLookup), cfg.n_layers as u64);
        assert_eq!(s.count(OpKind::Attention), cfg.n_layers as u64);
        for kind in [OpKind::DedupFilter, OpKind::ComputeKeys, OpKind::CacheLookup, OpKind::CacheStore] {
            assert_eq!(s.count(kind), 0, "{kind:?}");
        }
    }

    #[test]
    fn steady_state_time_encode_is_allocation_free() {
        // Cache and dedup off: every batch re-runs both time-encode stages
        // (through the window, then through the encoder), and the output
        // tensor stays scratch-backed so it can be returned to the pool.
        let precomputed = OptConfig { enable_cache: false, enable_dedup: false, ..OptConfig::all() };
        for opt in [precomputed, OptConfig::none()] {
            let cfg = TgatConfig::tiny();
            let params = TgatParams::init(cfg, 7).unwrap();
            let (graph, nf, ef) = world(cfg, 12, 80);
            let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
            let mut eng = TgoptEngine::new(&params, ctx, opt);
            let ns: Vec<NodeId> = vec![0, 1, 2, 5];
            let ts: Vec<Time> = vec![50.0, 50.0, 51.0, 52.0];
            // Warm-up: grow the scratch pool.
            for _ in 0..3 {
                let h = eng.embed_batch(&ns, &ts).unwrap();
                eng.scratch.give(h);
            }
            let pooled = eng.scratch.pooled_capacity();
            for _ in 0..5 {
                let h = eng.embed_batch(&ns, &ts).unwrap();
                eng.scratch.give(h);
            }
            assert_eq!(
                eng.scratch.pooled_capacity(),
                pooled,
                "steady-state batches must not allocate scratch blocks ({opt:?})"
            );
        }
    }

    #[test]
    fn no_layer_0_frontier_is_ever_materialised() {
        // Attention reads layer-0 rows from the node-feature table and a
        // lower layer's unique rows through its index, so a batch never
        // holds (nor pools) a layer-0 frontier: n·(1+k)² rows of dim.
        // Gathering it and splitting it into targets and neighbours left
        // two in the pool.
        let cfg = TgatConfig { dim: 16, n_neighbors: 10, ..TgatConfig::tiny() };
        let params = TgatParams::init(cfg, 7).unwrap();
        // Mostly distinct (node, time) pairs, so dedup and the cold cache
        // leave the all() frontier nearly as large as none()'s.
        let (graph, nf, ef) = world(cfg, 400, 4000);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let ns: Vec<NodeId> = (0..100).collect();
        let ts = vec![4001.0; ns.len()];
        let frontier = ns.len() * (1 + cfg.n_neighbors).pow(2) * cfg.dim;
        for opt in [OptConfig::none(), OptConfig::all()] {
            let mut eng = TgoptEngine::new(&params, ctx, opt).with_cores(1);
            for _ in 0..3 {
                let h = eng.embed_batch(&ns, &ts).unwrap();
                eng.scratch.give(h);
            }
            let pooled = eng.scratch.pooled_capacity();
            assert!(pooled < frontier, "{pooled} pooled f32s vs a {frontier}-f32 frontier ({opt:?})");
        }
    }

    #[test]
    fn time_cache_stats_accumulate() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        let _ = eng.embed_batch(&[0, 1], &[50.0, 51.0]).unwrap();
        let (h, m) = eng.time_cache_stats();
        assert!(h + m > 0, "time encoder must have been exercised");
        assert!(eng.time_cache_hit_rate() >= 0.0);
        // With precomputation off no window is built and nothing is counted.
        let mut none = TgoptEngine::new(&params, ctx, OptConfig::none());
        assert!(none.timecache.is_none());
        let _ = none.embed_batch(&[0, 1], &[50.0, 51.0]).unwrap();
        assert_eq!(none.time_cache_stats(), (0, 0));
    }

    #[test]
    fn repeated_batches_hit_the_cache() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        let ns: Vec<NodeId> = vec![0, 1, 2, 3];
        let ts: Vec<Time> = vec![50.0; 4];
        let h1 = eng.embed_batch(&ns, &ts).unwrap();
        let before = eng.counters();
        let h2 = eng.embed_batch(&ns, &ts).unwrap();
        let delta = eng.counters().delta_since(&before);
        assert_eq!(h1.max_abs_diff(&h2), 0.0, "cached results must be bit-identical");
        assert!(delta.cache_hits > 0, "second pass should reuse: {delta:?}");
        // The final layer is not cached (§4.2.2), so exactly the 4 top-level
        // targets recompute; every layer-1 embedding comes from the cache.
        assert_eq!(delta.recomputed, 4, "only the uncached top layer recomputes");
        assert_eq!(delta.cache_hits, delta.cache_lookups, "all layer-1 lookups hit");
        assert_eq!(delta.cache_stores, 0, "nothing new to store on the second pass");
    }

    #[test]
    fn uniform_sampling_bypasses_cache() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let sampler = TemporalSampler::new(cfg.n_neighbors, SamplingStrategy::Uniform { seed: 3 });
        let mut eng = TgoptEngine::with_sampler(&params, ctx, OptConfig::all(), sampler);
        assert!(!eng.memoization_active());
        let _ = eng.embed_batch(&[0, 1], &[50.0, 50.0]).unwrap();
        let c = eng.counters();
        assert_eq!(c.cache_lookups, 0);
        assert_eq!(c.cache_stores, 0);
        // Dedup still applies (it is always sound).
        assert!(eng.cache().is_empty());
    }

    #[test]
    fn counters_track_dedup_and_recompute() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        let _ = eng.embed_batch(&[4, 4, 4], &[60.0, 60.0, 60.0]).unwrap();
        let c = eng.counters();
        assert!(c.dedup_removed >= 2, "three identical targets leave two duplicates");
        assert!(c.recomputed > 0);
        assert!(c.hit_rate() >= 0.0);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_on_fresh_engine() {
        // 0 lookups must yield 0.0, never 0/0 = NaN (a fresh engine's
        // hit rate is printed by every bench binary before warm-up).
        let c = EngineCounters::default();
        assert_eq!(c.cache_lookups, 0);
        assert_eq!(c.hit_rate(), 0.0);
        assert!(!c.hit_rate().is_nan());
    }

    #[test]
    fn degraded_mode_skips_stores_but_preserves_semantics() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        assert!(eng.store_enabled());
        eng.set_store_enabled(false);
        assert!(!eng.store_enabled());

        let ns: Vec<NodeId> = vec![0, 1, 2, 0];
        let ts: Vec<Time> = vec![50.0; 4];
        let h = eng.embed_batch(&ns, &ts).unwrap();
        let hb = forward_embeddings(&params, &ctx, &ns, &ts);
        assert!(h.max_abs_diff(&hb) < 1e-4, "degraded mode must stay correct");

        let c = eng.counters();
        assert_eq!(c.cache_stores, 0, "no writes while degraded");
        assert!(c.stores_skipped > 0, "skipped writes are counted");
        assert!(eng.cache().is_empty(), "the cache must not grow while degraded");

        // Re-enabling stores resumes cache population.
        eng.set_store_enabled(true);
        let _ = eng.embed_batch(&ns, &ts).unwrap();
        assert!(!eng.cache().is_empty());
        assert!(eng.counters().cache_stores > 0);
    }

    #[test]
    fn counters_merge_and_delta_cover_all_fields() {
        let a = EngineCounters {
            cache_lookups: 5,
            cache_hits: 3,
            cache_stores: 2,
            recomputed: 2,
            dedup_removed: 1,
            stores_skipped: 4,
        };
        let sum = a.merge(&a);
        assert_eq!(sum.cache_lookups, 10);
        assert_eq!(sum.stores_skipped, 8);
        assert_eq!(sum.delta_since(&a), a);
    }

    #[test]
    fn an_edit_below_a_cached_time_forces_recompute() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let live = LiveGraph::new(graph.clone());
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        eng.pin_view(live.view());
        let _ = eng.embed_batch(&[0], &[50.0]).unwrap();
        let (caches, counters) = eng.into_cache();
        // A late interaction of node 0 below t = 50, after its most recent
        // one there: the layer-1 row of (0, 50) read that window, so the
        // next lookup refuses it.
        let last = *graph.neighbors_before(0, 50.0).last().unwrap();
        let late = Edge { src: 0, dst: 5, time: last.time + 0.5, eid: last.eid };
        live.append(&late);
        let mut eng = TgoptEngine::with_cache(&params, ctx, OptConfig::all(), caches, counters);
        eng.pin_view(live.view());
        let before = eng.counters();
        let h = eng.embed_batch(&[0], &[50.0]).unwrap();
        let delta = eng.counters().delta_since(&before);
        assert!(delta.cache_hits < delta.cache_lookups, "{delta:?}");
        assert_eq!(eng.cache().layer(1).unwrap().total_rejected(), 1);
        let cold = TemporalGraph::from_edges(12, &[world_edges(12, 80), vec![late]].concat());
        let ctx = GraphContext { graph: &cold, node_features: &nf, edge_features: &ef };
        assert!(h.max_abs_diff(&forward_embeddings(&params, &ctx, &[0], &[50.0])) < 1e-5);
    }

    #[test]
    fn stats_cover_tgopt_specific_ops() {
        let cfg = TgatConfig::tiny();
        let params = TgatParams::init(cfg, 7).unwrap();
        let (graph, nf, ef) = world(cfg, 12, 80);
        let ctx = GraphContext { graph: &graph, node_features: &nf, edge_features: &ef };
        let mut eng = TgoptEngine::new(&params, ctx, OptConfig::all());
        eng.enable_stats();
        let _ = eng.embed_batch(&[0, 1, 0], &[50.0, 50.0, 50.0]).unwrap();
        let s = eng.stats();
        assert!(s.count(OpKind::DedupFilter) > 0);
        assert!(s.count(OpKind::DedupInvert) > 0);
        assert!(s.count(OpKind::ComputeKeys) > 0);
        assert!(s.count(OpKind::CacheLookup) > 0);
        assert!(s.count(OpKind::CacheStore) > 0);
        assert!(s.count(OpKind::Attention) > 0);
    }
}
