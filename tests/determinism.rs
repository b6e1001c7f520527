//! Determinism: everything in the pipeline is reproducible from seeds —
//! generation, initialization, and the engine at every optimization
//! setting — at every fan-out width: helper threads only partition rows and
//! never reorder an accumulation.

use tgopt_repro::datasets::{generate, spec_by_name, Dataset};
use tgopt_repro::graph::{BatchIter, LiveGraph, SamplingStrategy, TemporalGraph, TemporalSampler};
use tgopt_repro::tensor::fanout::host_cores;
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::attention::TARGET_BLOCK;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::forward_embeddings;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{EngineCounters, OptConfig, TgoptEngine};

fn full_replay(seed: u64, opt: OptConfig) -> Vec<f32> {
    replay(seed, opt, 100)
}

/// Replays the whole stream in batches of `batch` edges (`2 * batch`
/// targets, so `2 * batch * (1 + n_neighbors)` layer-1 targets when nothing
/// is deduplicated or cached), on the host's cores.
fn replay(seed: u64, opt: OptConfig, batch: usize) -> Vec<f32> {
    replay_on(host_cores(), seed, opt, batch)
}

fn world(seed: u64) -> (Dataset, TgatParams, TemporalGraph, Tensor) {
    let spec = spec_by_name("snap-email").unwrap();
    let data = generate(&spec, 0.004, seed).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let params = TgatParams::init(cfg, seed).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    (data, params, graph, node_features)
}

/// [`replay`] with the engine's core count pinned, so 2 and 3 run real
/// helper threads even on a one-core runner.
fn replay_on(cores: usize, seed: u64, opt: OptConfig, batch: usize) -> Vec<f32> {
    replay_traced(cores, seed, opt, batch, Source::Frozen).0
}

/// What a replay samples: the frozen graph through the model's most-recent
/// sampler or a seeded uniform one, or a pinned live view whose second
/// half was appended newest first, so nearly every append lands below a
/// node's latest time.
#[derive(Clone, Copy, Debug)]
enum Source {
    Frozen,
    Uniform,
    LiveView,
}

/// What a replay leaves behind besides its output: the engine's counters,
/// the time window's `(hits, misses)`, and the layer-1 cache's `len()` and
/// `total_evictions()`.
type Trace = (EngineCounters, (u64, u64), usize, u64);

/// [`replay_on`] over `source`, with the engine's [`Trace`].
fn replay_traced(cores: usize, seed: u64, opt: OptConfig, batch: usize, source: Source) -> (Vec<f32>, Trace) {
    let (data, params, graph, node_features) = world(seed);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let mut eng = match source {
        Source::Uniform => {
            let sampler = TemporalSampler::new(params.cfg.n_neighbors, SamplingStrategy::Uniform { seed: 3 });
            TgoptEngine::with_sampler(&params, ctx, opt, sampler)
        }
        Source::Frozen | Source::LiveView => TgoptEngine::new(&params, ctx, opt),
    }
    .with_cores(cores);
    if let Source::LiveView = source {
        let (old, late) = data.stream.edges().split_at(data.stream.len() / 2);
        let live = LiveGraph::new(TemporalGraph::from_edges(data.stream.num_nodes(), old));
        for e in late.iter().rev() {
            live.append(e);
        }
        eng.pin_view(live.view());
    }
    let mut out = Vec::new();
    for batch in BatchIter::new(&data.stream, batch) {
        let (ns, ts) = batch.targets();
        out.extend_from_slice(eng.embed_batch(&ns, &ts).unwrap().as_slice());
    }
    let layer1 = eng.cache().layer(1).map_or((0, 0), |c| (c.len(), c.total_evictions()));
    (out, (eng.counters(), eng.time_cache_stats(), layer1.0, layer1.1))
}

/// The same replay through the independent tape forward.
fn tape_replay(seed: u64, batch: usize) -> Vec<f32> {
    let (data, params, graph, node_features) = world(seed);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let mut out = Vec::new();
    for batch in BatchIter::new(&data.stream, batch) {
        let (ns, ts) = batch.targets();
        out.extend_from_slice(forward_embeddings(&params, &ctx, &ns, &ts).as_slice());
    }
    out
}

fn max_drift(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

#[test]
fn baseline_replay_is_bitwise_deterministic() {
    let none = OptConfig::none();
    assert_eq!(full_replay(11, none), full_replay(11, none));
}

#[test]
fn tgopt_replay_is_bitwise_deterministic() {
    let opt = OptConfig::all();
    assert_eq!(full_replay(11, opt), full_replay(11, opt));
}

#[test]
fn parallel_flags_do_not_change_bits() {
    let par = OptConfig { parallel_lookup: true, parallel_store: true, ..OptConfig::all() };
    let seq = OptConfig { parallel_lookup: false, parallel_store: false, ..OptConfig::all() };
    assert_eq!(full_replay(11, par), full_replay(11, seq));
}

#[test]
fn replays_spanning_many_attention_blocks_agree_across_engines() {
    // 300 edges -> 600 targets (10 attention blocks at layer 2) -> 3000
    // layer-1 targets (47 blocks, the last ragged) through the all-off
    // engine; dedup and the cache shrink and reshuffle the blocks of the
    // all-on engine. Block boundaries must not show in either: the two
    // engines agree bit for bit. The tape forward, which has no blocks and
    // is a different implementation, agrees with them within 1e-5.
    let batch = 300;
    assert!(2 * batch * (1 + 4) > 8 * TARGET_BLOCK);
    let base = replay(11, OptConfig::none(), batch);
    let drift = max_drift(&base, &tape_replay(11, batch));
    assert!(drift <= 1e-5, "all-off engine drifted {drift} from the tape forward");
    let all = replay(11, OptConfig::all(), batch);
    assert_eq!(bits(&all), bits(&replay(11, OptConfig::all(), batch)));
    assert_eq!(bits(&all), bits(&base), "all-on vs all-off engine");
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fan_out_width_does_not_change_bits() {
    // The same 300-edge-batch replay (600 layer-2 targets in 19 sample
    // chunks and 10 attention blocks; 47 layer-1 blocks) at widths 1, 2 and
    // 3: the all-off engine and the all-on engine, with and without the
    // edge projection, bit for bit against the all-off engine at width 1.
    // Every optimization keeps the bits: the time window holds the
    // encoder's own rows and the edge projection continues the K/V sums it
    // replaces.
    let batch = 300;
    let none = OptConfig::none();
    let no_proj = OptConfig { enable_edge_proj: false, ..OptConfig::all() };
    let base = bits(&replay_on(1, 11, none, batch));
    assert_eq!(base, bits(&replay(11, none, batch)), "host width");
    for cores in [1, 2, 3] {
        assert_eq!(base, bits(&replay_on(cores, 11, none, batch)), "all-off, {cores} cores");
        assert_eq!(base, bits(&replay_on(cores, 11, OptConfig::all(), batch)), "all-on, {cores} cores");
        assert_eq!(base, bits(&replay_on(cores, 11, no_proj, batch)), "all-on without edge projection, {cores} cores");
    }

    // Beyond the bits, everything the engine and its caches count is the
    // same at every width: the fan-out only samples and encodes, the
    // window's hits are summed after the join, and dedup, keys, lookup (so
    // any revalidation), the miss list and the FIFO store stay on the
    // caller. Through a layer-1 cache that evicts on every batch, the
    // uniform sampler (no memoization), and a pinned live view over
    // out-of-order appends, with and without dedup.
    let evicting = OptConfig::all().with_cache_limit(400);
    let repeats = OptConfig { enable_dedup: false, ..evicting };
    let runs = [
        (evicting, Source::Frozen),
        (OptConfig::all(), Source::Uniform),
        (evicting, Source::LiveView),
        (repeats, Source::LiveView),
    ];
    for (opt, source) in runs {
        let (want, trace) = replay_traced(1, 11, opt, batch, source);
        let (counters, (hits, misses), _, evictions) = trace;
        assert!(hits > 0 && misses > 0, "{source:?}: the window both hits and misses");
        match source {
            Source::Uniform => assert_eq!(counters.cache_lookups, 0, "uniform sampling bypasses the cache"),
            _ => assert!(evictions > 0 && counters.cache_hits > 0, "{source:?}: {trace:?}"),
        }
        for cores in [2, 3] {
            let (got, got_trace) = replay_traced(cores, 11, opt, batch, source);
            assert_eq!(bits(&got), bits(&want), "{source:?}, {cores} cores");
            assert_eq!(got_trace, trace, "{source:?}, {cores} cores ({opt:?})");
        }
    }
}

#[test]
fn different_seeds_produce_different_embeddings() {
    assert_ne!(full_replay(11, OptConfig::none()), full_replay(12, OptConfig::none()));
}
