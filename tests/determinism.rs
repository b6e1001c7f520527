//! Determinism: everything in the pipeline is reproducible from seeds —
//! generation, initialization, and the engine at every optimization
//! setting — at every fan-out width: helper threads only partition rows and
//! never reorder an accumulation.

use tgopt_repro::datasets::{generate, spec_by_name, Dataset};
use tgopt_repro::graph::{BatchIter, TemporalGraph};
use tgopt_repro::tensor::fanout::host_cores;
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::attention::TARGET_BLOCK;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::forward_embeddings;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

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
    let (data, params, graph, node_features) = world(seed);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let mut eng = TgoptEngine::new(&params, ctx, opt).with_cores(cores);
    let mut out = Vec::new();
    for batch in BatchIter::new(&data.stream, batch) {
        let (ns, ts) = batch.targets();
        out.extend_from_slice(eng.embed_batch(&ns, &ts).unwrap().as_slice());
    }
    out
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
    // The same 300-edge-batch replay (47 layer-1 blocks, 6 time-encode
    // chunks, 10 layer-2 blocks) at widths 1, 2 and 3: the all-off engine
    // and the all-on engine, with and without the edge projection, bit for
    // bit against the all-off engine at width 1. Every optimization keeps
    // the bits: the time window holds the encoder's own rows and the edge
    // projection continues the K/V sums it replaces.
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
}

#[test]
fn different_seeds_produce_different_embeddings() {
    assert_ne!(full_replay(11, OptConfig::none()), full_replay(12, OptConfig::none()));
}
