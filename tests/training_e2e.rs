//! End-to-end training pipeline: train on a synthetic dataset, checkpoint,
//! reload, and serve through the engine with the tape forward's results.

use tgopt_repro::datasets::{generate, spec_by_name};
use tgopt_repro::graph::TemporalGraph;
use tgopt_repro::tensor::Tensor;
use tgopt_repro::tgat::engine::GraphContext;
use tgopt_repro::tgat::train::{forward_embeddings, train, TrainConfig};
use tgopt_repro::tgat::{TgatConfig, TgatParams};
use tgopt_repro::tgopt::{OptConfig, TgoptEngine};

#[test]
fn train_checkpoint_and_serve() {
    let spec = spec_by_name("jodie-mooc").unwrap();
    let data = generate(&spec, 0.002, 17).unwrap();
    let cfg = TgatConfig {
        dim: 8,
        edge_dim: data.dim(),
        time_dim: 8,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 4,
    };
    let mut params = TgatParams::init(cfg, 1).unwrap();
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);

    let tc = TrainConfig { epochs: 2, batch_size: 100, lr: 3e-3, train_frac: 0.8, seed: 2, ..Default::default() };
    let report = train(&mut params, &data.stream, &node_features, &data.edge_features, &tc);
    assert_eq!(report.epoch_losses.len(), 2);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite() && *l > 0.0));
    assert!(report.val_auc > 0.0 && report.val_auc <= 1.0);

    // Checkpoint round-trip.
    let path = std::env::temp_dir().join(format!("tgat-e2e-{}.json", std::process::id()));
    params.save(&path).unwrap();
    let loaded = TgatParams::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Serve with trained weights; the engine must agree with the tape.
    let graph = TemporalGraph::from_stream(&data.stream);
    let ctx = GraphContext {
        graph: &graph,
        node_features: &node_features,
        edge_features: &data.edge_features,
    };
    let t = data.stream.max_time() + 5.0;
    let ns: Vec<u32> = data.stream.edges().iter().take(30).map(|e| e.src).collect();
    let ts = vec![t; ns.len()];
    let hb = forward_embeddings(&loaded, &ctx, &ns, &ts);
    let ho = TgoptEngine::new(&loaded, ctx, OptConfig::all()).embed_batch(&ns, &ts).unwrap();
    assert!(hb.max_abs_diff(&ho) < 1e-4, "trained-weight serving must agree with the tape forward");
    assert!(hb.all_finite());
}

#[test]
fn training_loss_decreases_on_learnable_structure() {
    // A strongly structured stream: user i always interacts with item i%K.
    let n_users = 20u32;
    let n_items = 5u32;
    let n_edges = 300usize;
    let mut srcs = Vec::new();
    let mut dsts = Vec::new();
    let mut times = Vec::new();
    for i in 0..n_edges {
        let u = (i as u32 * 3) % n_users;
        srcs.push(u);
        dsts.push(n_users + u % n_items);
        times.push((i + 1) as f32);
    }
    let stream = tgopt_repro::graph::EdgeStream::new(&srcs, &dsts, &times);
    let cfg = TgatConfig { dim: 8, edge_dim: 8, time_dim: 8, n_layers: 2, n_heads: 2, n_neighbors: 4 };
    let mut params = TgatParams::init(cfg, 3).unwrap();
    let node_features = Tensor::zeros(stream.num_nodes(), cfg.dim);
    let mut rng = tgopt_repro::tensor::init::seeded_rng(5);
    let edge_features = tgopt_repro::tensor::init::normal(&mut rng, n_edges, cfg.edge_dim, 0.5);

    let tc = TrainConfig { epochs: 5, batch_size: 60, lr: 5e-3, train_frac: 0.8, seed: 4, ..Default::default() };
    let report = train(&mut params, &stream, &node_features, &edge_features, &tc);
    let first = report.epoch_losses[0];
    let last = *report.epoch_losses.last().unwrap();
    assert!(last < first, "loss should fall: {:?}", report.epoch_losses);
    assert!(report.val_auc > 0.55, "AUC should beat chance, got {}", report.val_auc);
}

/// FNV-1a (64-bit) of the trained parameters' bits, every epoch loss and
/// the validation AUC, after a fixed run.
#[test]
fn training_bits_are_pinned() {
    // ~4.9k edges: both the training and the validation pass grow their
    // graph past one compaction.
    let spec = spec_by_name("jodie-mooc").unwrap();
    let data = generate(&spec, 0.012, 23).unwrap();
    let cfg = TgatConfig { dim: 8, edge_dim: data.dim(), time_dim: 8, n_layers: 2, n_heads: 2, n_neighbors: 2 };
    let mut params = TgatParams::init(cfg, 5).unwrap();
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    let tc = TrainConfig { epochs: 2, batch_size: 200, lr: 3e-3, train_frac: 0.9, seed: 6, ..Default::default() };
    let report = train(&mut params, &data.stream, &node_features, &data.edge_features, &tc);
    let fnv = |h: u64, bits: u64| (h ^ bits).wrapping_mul(0x0100_0000_01b3);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for t in params.param_list() {
        h = t.as_slice().iter().fold(h, |h, v| fnv(h, u64::from(v.to_bits())));
    }
    h = report.epoch_losses.iter().fold(h, |h, l| fnv(h, u64::from(l.to_bits())));
    h = fnv(h, report.val_auc.to_bits());
    assert_eq!(h, 0xe9dc_38e6_deb2_3571, "{h:#018x}");
}
