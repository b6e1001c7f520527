//! Replay bits pinned as checksums: a reduced-scale generated jodie-wiki
//! replay through the baseline, every optimization, a cache small enough
//! to evict on every batch, and every optimization but the edge-projection
//! table must produce the same output bits, and those bits are pinned here.
//! An optimization that keeps the paper's 1e-5 but reorders a sum, fuses a
//! multiply-add or reads a time-window row one ulp off changes a checksum.
//!
//! The full-scale twin replays the whole stream and is `#[ignore]`d; it
//! runs in release:
//! `cargo test --release -q --test replay_checksums -- --ignored`.
//!
//! A change that means to change the bits re-pins [`PINNED`] and
//! [`PINNED_FULL`] in the same diff and says why.

use tgopt_repro::datasets::{generate, spec_by_name, Dataset};
use tgopt_repro::graph::{BatchIter, EdgeBatch, TemporalGraph};
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

/// Edges per batch; each batch embeds `2 * BATCH` targets.
const BATCH: usize = 50;
/// Batches at the end of the stream that are embedded and hashed.
const HASHED: usize = 5;
/// `(seed, FNV-1a of the hashed batches' output bits)`.
const PINNED: [(u64, u64); 2] = [(7, 0x3df3_e7b9_af57_e20c), (1009, 0x69ba_3701_c4cd_c6e1)];
/// Edges per batch in the full-scale replay (the experiments' batch size).
const FULL_BATCH: usize = 200;
/// `(seed, FNV-1a of every batch's output bits)` over the full stream.
const PINNED_FULL: [(u64, u64); 2] = [(7, 0x9635_57e5_582c_7c22), (1009, 0x3fa5_56b7_7153_b973)];

/// The experiments' model on jodie-wiki at dim 32 and 10 neighbours
/// (172-column edge rows, zero node features, two layers, two heads of one
/// full 16-column matmul panel each), on `scale` of the 157,474-edge
/// stream (0.5% is 787 edges, which a debug build replays in seconds).
fn world(scale: f64, seed: u64) -> (Dataset, TgatParams, TemporalGraph) {
    let spec = spec_by_name("jodie-wiki").unwrap();
    let mut data = generate(&spec, scale, seed).unwrap();
    let cfg = TgatConfig { dim: 32, edge_dim: data.dim(), time_dim: 32, n_layers: 2, n_heads: 2, n_neighbors: 10 };
    data.node_features = Tensor::zeros(data.node_features.rows(), cfg.dim);
    let params = TgatParams::init(cfg, seed).unwrap();
    let graph = TemporalGraph::from_stream(&data.stream);
    (data, params, graph)
}

/// FNV-1a (64-bit), one xor-multiply per `f32` bit pattern.
fn fnv(h: u64, xs: &[f32]) -> u64 {
    xs.iter().fold(h, |h, v| (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3))
}

/// Embeds `batches` in order, from a cold engine, and hashes their outputs.
fn checksum(world: &(Dataset, TgatParams, TemporalGraph), opt: OptConfig, batches: &[EdgeBatch<'_>]) -> u64 {
    let (data, params, graph) = world;
    let ctx = GraphContext { graph, node_features: &data.node_features, edge_features: &data.edge_features };
    let mut eng = TgoptEngine::new(params, ctx, opt);
    batches.iter().fold(0xcbf2_9ce4_8422_2325, |h, batch| {
        let (ns, ts) = batch.targets();
        fnv(h, eng.embed_batch(&ns, &ts).unwrap().as_slice())
    })
}

#[test]
fn replay_checksums_are_pinned_through_every_configuration() {
    let configs = [
        ("none", OptConfig::none()),
        ("all", OptConfig::all()),
        ("all, cache limit 60", OptConfig::all().with_cache_limit(60)),
        ("all, no edge projection", OptConfig { enable_edge_proj: false, ..OptConfig::all() }),
    ];
    for (seed, pinned) in PINNED {
        let world = world(0.005, seed);
        let batches: Vec<_> = BatchIter::new(&world.0.stream, BATCH).collect();
        assert!(batches.len() > HASHED, "{} batches", batches.len());
        for (name, opt) in configs {
            let got = checksum(&world, opt, &batches[batches.len() - HASHED..]);
            assert_eq!(got, pinned, "seed {seed}, {name}: {got:#018x} vs pinned {pinned:#018x}");
        }
    }
}

#[test]
#[ignore = "full-scale replay; run in release with --ignored"]
fn full_scale_replay_checksums_are_pinned() {
    let configs = [
        ("none", OptConfig::none()),
        ("all", OptConfig::all()),
        ("all, cache limit 2000", OptConfig::all().with_cache_limit(2000)),
    ];
    for (seed, pinned) in PINNED_FULL {
        let world = world(1.0, seed);
        let batches: Vec<_> = BatchIter::new(&world.0.stream, FULL_BATCH).collect();
        for (name, opt) in configs {
            let got = checksum(&world, opt, &batches);
            assert_eq!(got, pinned, "seed {seed}, {name}: {got:#018x} vs pinned {pinned:#018x}");
        }
    }
}
