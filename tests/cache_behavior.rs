//! Cross-crate cache behavior: limits, FIFO order, hit-rate growth over a
//! replayed stream, reuse accounting, and sampling-strategy interactions.

use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::{BatchIter, SamplingStrategy, TemporalGraph, TemporalSampler};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{pack_key, EmbedCache, OptConfig, TgoptEngine};

fn cfg(edge_dim: usize) -> TgatConfig {
    TgatConfig { dim: 8, edge_dim, time_dim: 8, n_layers: 2, n_heads: 2, n_neighbors: 5 }
}

struct World {
    data: tgopt_repro::datasets::Dataset,
    graph: TemporalGraph,
    node_features: Tensor,
    params: TgatParams,
}

fn world(name: &str, scale: f64) -> World {
    let spec = spec_by_name(name).unwrap();
    let data = generate(&spec, scale, 3).unwrap();
    let cfg = cfg(data.dim());
    let params = TgatParams::init(cfg, 2).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    World { data, graph, node_features, params }
}

impl World {
    fn ctx(&self) -> GraphContext<'_> {
        GraphContext {
            graph: &self.graph,
            node_features: &self.node_features,
            edge_features: &self.data.edge_features,
        }
    }
}

#[test]
fn cache_never_exceeds_its_limit_during_replay() {
    let w = world("snap-msg", 0.05);
    let limit = 64;
    let mut eng = TgoptEngine::new(&w.params, w.ctx(), OptConfig::all().with_cache_limit(limit));
    for batch in BatchIter::new(&w.data.stream, 50) {
        let (ns, ts) = batch.targets();
        let _ = eng.embed_batch(&ns, &ts).unwrap();
        assert!(eng.cache().len() <= limit, "cache overflow: {}", eng.cache().len());
    }
    assert!(eng.cache().total_evictions() > 0, "limit was never exercised");
}

/// A store of engine-batch size (hundreds of keys, with the `parallel`
/// flags `OptConfig::all()` passes) admits its keys in slice order: the
/// FIFO evicts them oldest-first, and a lookup returns exactly the
/// surviving rows while every missed row keeps its previous contents.
#[test]
fn batch_sized_store_evicts_in_key_order() {
    const N: usize = 1000;
    const EXTRA: usize = 300;
    const DIM: usize = 4;
    let key = |i: usize| pack_key(i as u32, i as f32);
    let cache = EmbedCache::new(N, DIM);
    let keys: Vec<u64> = (0..N).map(key).collect();
    let rows = Tensor::from_vec(N, DIM, (0..N * DIM).map(|v| v as f32).collect());
    cache.store(&keys, &rows, true).unwrap();
    let more: Vec<u64> = (N..N + EXTRA).map(key).collect();
    cache.store(&more, &Tensor::zeros(EXTRA, DIM), true).unwrap();
    assert_eq!(cache.len(), N);
    assert_eq!(cache.total_evictions(), EXTRA as u64);

    let mut out = Tensor::full(N, DIM, -1.0);
    let hit = cache.lookup(&keys, &mut out, true).unwrap();
    for (i, &h) in hit.iter().enumerate() {
        assert_eq!(h, i >= EXTRA, "key {i}: the {EXTRA} oldest go first");
        let want = if h { rows.row(i).to_vec() } else { vec![-1.0; DIM] };
        assert_eq!(out.row(i), want.as_slice(), "row {i}");
    }
    let mut tail = Tensor::zeros(EXTRA, DIM);
    assert!(cache.lookup(&more, &mut tail, true).unwrap().iter().all(|&h| h));
}

#[test]
fn hit_rate_grows_as_the_stream_progresses() {
    let w = world("jodie-lastfm", 0.005);
    let mut eng = TgoptEngine::new(&w.params, w.ctx(), OptConfig::all());
    let mut per_batch = Vec::new();
    let mut prev = eng.counters();
    for batch in BatchIter::new(&w.data.stream, 200) {
        let (ns, ts) = batch.targets();
        let _ = eng.embed_batch(&ns, &ts).unwrap();
        let now = eng.counters();
        per_batch.push(now.delta_since(&prev).hit_rate());
        prev = now;
    }
    assert!(per_batch.len() >= 10, "need a real stream for this test");
    let early: f64 = per_batch[1..4].iter().sum::<f64>() / 3.0;
    let late_window = &per_batch[per_batch.len() - 3..];
    let late: f64 = late_window.iter().sum::<f64>() / late_window.len() as f64;
    assert!(
        late > early,
        "hit rate should climb over time: early {early:.3}, late {late:.3}"
    );
    assert!(late > 0.5, "late hit rate should be substantial, got {late:.3}");
}

#[test]
fn unbounded_cache_reuse_dominates_on_jodie_like_data() {
    // Figure 3's claim: reuse grows to dominate recomputation.
    let w = world("jodie-wiki", 0.1);
    let mut eng =
        TgoptEngine::new(&w.params, w.ctx(), OptConfig::all().with_cache_limit(usize::MAX / 2));
    for batch in BatchIter::new(&w.data.stream, 200) {
        let (ns, ts) = batch.targets();
        let _ = eng.embed_batch(&ns, &ts).unwrap();
    }
    let c = eng.counters();
    assert!(
        c.cache_hits > c.cache_stores,
        "reuse ({}) should exceed recomputation-and-store ({})",
        c.cache_hits,
        c.cache_stores
    );
}

#[test]
fn smaller_cache_means_fewer_hits_but_same_results() {
    let w = world("snap-email", 0.01);
    let run = |limit: usize| {
        let mut eng =
            TgoptEngine::new(&w.params, w.ctx(), OptConfig::all().with_cache_limit(limit));
        let mut checksum = 0.0f64;
        for batch in BatchIter::new(&w.data.stream, 100) {
            let (ns, ts) = batch.targets();
            let h = eng.embed_batch(&ns, &ts).unwrap();
            checksum += h.as_slice().iter().map(|&v| v as f64).sum::<f64>();
        }
        (eng.counters().hit_rate(), checksum)
    };
    let (small_rate, small_sum) = run(32);
    let (big_rate, big_sum) = run(100_000);
    assert!(big_rate >= small_rate, "bigger cache can't hit less: {big_rate} vs {small_rate}");
    let drift = (small_sum - big_sum).abs() / big_sum.abs().max(1.0);
    assert!(drift < 1e-4, "cache size must not change results (drift {drift:.2e})");
}

#[test]
fn uniform_sampling_disables_memoization_but_still_works() {
    let w = world("snap-msg", 0.02);
    let sampler = TemporalSampler::new(5, SamplingStrategy::Uniform { seed: 4 });
    let mut eng = TgoptEngine::with_sampler(&w.params, w.ctx(), OptConfig::all(), sampler);
    assert!(!eng.memoization_active());
    for batch in BatchIter::new(&w.data.stream, 100) {
        let (ns, ts) = batch.targets();
        let h = eng.embed_batch(&ns, &ts).unwrap();
        assert!(h.all_finite());
    }
    assert_eq!(eng.counters().cache_lookups, 0);
    assert!(eng.cache().is_empty());
    assert!(eng.counters().dedup_removed > 0, "dedup stays active under uniform sampling");
}

#[test]
fn time_window_hit_rate_is_high_on_bursty_data() {
    let w = world("snap-msg", 0.05);
    let mut eng = TgoptEngine::new(&w.params, w.ctx(), OptConfig::all());
    for batch in BatchIter::new(&w.data.stream, 100) {
        let (ns, ts) = batch.targets();
        let _ = eng.embed_batch(&ns, &ts).unwrap();
    }
    let (hits, misses) = eng.time_cache_stats();
    assert!(hits + misses > 0);
    assert!(
        eng.time_cache_hit_rate() > 0.3,
        "deltas cluster near zero, so the window should serve many: {:.3}",
        eng.time_cache_hit_rate()
    );
}
