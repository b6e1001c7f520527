//! Prints what the dense kernels deliver on the shapes the inference hot
//! path produces: GFLOP/s of `matmul_into` / `addmm_into`, and of
//! `matmul_rows_into` over edge rows read by random id (headed by the
//! panels this build runs, `matmul::FULL_PANEL` and `WIDE_PANEL`), the cost of one
//! attention layer per target-block size (read as the engine reads layer 1:
//! node rows by node id, edge rows by edge id), and the same layer per fan-out
//! width beside what one scoped spawn + join costs — the table the width
//! rule (`fanout::helpers_for`: two blocks per core before anything is
//! spawned) is read from.
//!
//! ```sh
//! cargo run --release -p tg-tensor --example tune
//! ```
//!
//! Every candidate runs round-robin inside this one process and is reported
//! as min and median over the rounds: this host's run-to-run drift is larger
//! than the differences between block sizes, so numbers from separate
//! invocations do not compare. The tables are copied into DESIGN.md
//! ("Kernel architecture"); CI uploads them, so a toolchain bump that
//! spills the microkernel's accumulators again shows as a GFLOP/s drop.

use std::hint::black_box;
use std::time::Instant;
use tg_tensor::fanout::{fan_chunks, host_cores};
use tg_tensor::matmul::{addmm_into, matmul_into, matmul_rows_into, FULL_PANEL, WIDE_PANEL};
use tg_tensor::{init, Scratch, Tensor};
use tgat::attention::{forward_blocked, AttentionInputs, KvWeights, TARGET_BLOCK};
use tgat::{TgatConfig, TgatParams};

/// Rounds per table: a dense-kernel round is ~10 ms, an attention round up
/// to ~250 ms.
const DENSE_ROUNDS: usize = 41;
const ATTENTION_ROUNDS: usize = 9;
const WIDTH_ROUNDS: usize = 31;

/// How a dense-table row multiplies: `A` as a tensor, with a bias, or its
/// rows read by id from a table of that many rows.
#[derive(Clone, Copy)]
enum Kind {
    Matmul,
    Addmm,
    RowsById(usize),
}

/// Times every candidate once per round, in order, and returns each
/// candidate's `(min, median)` seconds.
fn round_robin(rounds: usize, candidates: &mut [Box<dyn FnMut() + '_>]) -> Vec<(f64, f64)> {
    let mut secs = vec![Vec::with_capacity(rounds); candidates.len()];
    for round in 0..=rounds {
        for (f, s) in candidates.iter_mut().zip(&mut secs) {
            let t = Instant::now();
            f();
            if round > 0 {
                s.push(t.elapsed().as_secs_f64()); // round 0 warms caches and pools
            }
        }
    }
    secs.into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            (s[0], s[s.len() / 2])
        })
        .collect()
}

fn main() {
    let mut rng = init::seeded_rng(7);

    // (label, m, k, n, kind): the bench protocol's shapes (batch 200 -> 400
    // targets -> 4400 layer-1 targets, 10 neighbours, dim 32, edge dim 172,
    // 2 heads); 640 rows is one 64-target block, whose K|V the engine
    // multiplies for both heads at once (n = 64; the per-head n = 16 is the
    // reference's and the tape's). The projection reads one layer-1 call's
    // missed edges by random id from a jodie-wiki-sized edge table, 108 MB.
    let shapes = [
        ("K/V whole layer-1", 44_000usize, 236usize, 16usize, Kind::Matmul),
        ("K/V one block", 640, 236, 16, Kind::Matmul),
        ("K|V one block", 640, 236, 64, Kind::Matmul),
        ("edge projection", 3_008, 172, 64, Kind::RowsById(157_474)),
        ("Q   layer-1", 4_400, 64, 16, Kind::Matmul),
        ("FFN fc1 (addmm)", 4_400, 64, 32, Kind::Addmm),
        ("FFN fc2 (addmm)", 4_400, 32, 32, Kind::Addmm),
    ];
    let operands: Vec<(Tensor, Tensor, Tensor, Vec<usize>)> = shapes
        .iter()
        .map(|&(_, m, k, n, kind)| {
            let table_rows = if let Kind::RowsById(rows) = kind { rows } else { m };
            let a = init::uniform(&mut rng, table_rows, k, 1.0);
            let ids = (0..m).map(|i| i * 2_654_435_761 % table_rows).collect(); // scattered ids
            (a, init::uniform(&mut rng, k, n, 1.0), init::uniform(&mut rng, 1, n, 1.0), ids)
        })
        .collect();
    let mut outs: Vec<Tensor> = shapes.iter().map(|&(_, m, _, n, _)| Tensor::zeros(m, n)).collect();
    let mut runs: Vec<Box<dyn FnMut() + '_>> = Vec::new();
    for ((&(_, _, k, _, kind), (a, b, bv, ids)), c) in shapes.iter().zip(&operands).zip(&mut outs) {
        runs.push(Box::new(move || {
            match kind {
                Kind::Matmul => matmul_into(black_box(a), b, c),
                Kind::Addmm => addmm_into(black_box(a), b, bv, c),
                Kind::RowsById(_) => matmul_rows_into(|r| black_box(a).row(ids[r]), b, 0..k, c.as_mut_slice()),
            }
            black_box(c.as_slice());
        }));
    }
    println!("== dense kernels (round-robin, {DENSE_ROUNDS} rounds) ==");
    println!("full panel: {FULL_PANEL}");
    println!("wide panel: {WIDE_PANEL}");
    println!("{:<20}{:<24}{:>10}{:>10}{:>12}{:>12}", "kernel", "shape", "min ms", "med ms", "max GF/s", "med GF/s");
    for (&(label, m, k, n, _), (min, med)) in shapes.iter().zip(round_robin(DENSE_ROUNDS, &mut runs)) {
        #[expect(clippy::cast_precision_loss, reason = "a flop count; f64 is exact below 2^53")]
        let gflop = 2.0 * (m * k * n) as f64 / 1e9;
        println!(
            "{label:<20}{:<24}{:>10.3}{:>10.3}{:>12.1}{:>12.1}",
            format!("[{m},{k}]x[{k},{n}]"),
            min * 1e3,
            med * 1e3,
            gflop / min,
            gflop / med
        );
    }
    drop(runs);

    // One attention layer at the bench protocol's model, read the way the
    // engines read layer 1: zero node features from jodie-wiki's 9,227-row
    // node table by node id, dense edge features from a feature table by
    // edge id, and dense time encodings.
    let cfg = TgatConfig { dim: 32, edge_dim: 172, time_dim: 32, n_heads: 2, n_layers: 2, n_neighbors: 10 };
    #[expect(clippy::expect_used, reason = "the bench-protocol config is valid")]
    let params = TgatParams::init(cfg, 7).expect("valid bench-protocol config");
    let kv = KvWeights::new(&params.layers[0], &cfg);
    let k = cfg.n_neighbors;
    let table = init::uniform(&mut rng, 50_000, cfg.edge_dim, 1.0);
    let nodes = Tensor::zeros(9_227, cfg.dim);
    let mut layer1 = |n: usize| {
        let ht0 = init::uniform(&mut rng, n, cfg.time_dim, 1.0);
        let ht = init::uniform(&mut rng, n * k, cfg.time_dim, 1.0);
        #[expect(clippy::cast_possible_truncation, reason = "indices are reduced modulo a table of fewer than 2^32 rows")]
        let eids: Vec<u32> = (0..n * k).map(|s| (s * 7919 % table.rows()) as u32).collect();
        #[expect(clippy::cast_possible_truncation, reason = "indices are reduced modulo a table of fewer than 2^32 rows")]
        let node_ids: Vec<u32> = (0..n + n * k).map(|j| (j * 4243 % nodes.rows()) as u32).collect();
        (ht0, ht, eids, node_ids, vec![true; n * k])
    };
    println!();
    println!("== attention layer by target-block size (round-robin, {ATTENTION_ROUNDS} rounds, us per call) ==");
    println!("{:<8}{:<8}{:>12}{:>12}{:>14}", "n", "block", "min us", "med us", "med us/row");
    for n in [4_400usize, 400, 64, 1] {
        let (ht0, ht, eids, node_ids, mask) = layer1(n);
        let inp = AttentionInputs { h_src: &nodes, ht0: &ht0, h_ngh: &nodes, e_feat: &table, ht: &ht, mask: &mask };
        let mut blocks: Vec<usize> = [16usize, 32, 64, 128, 256].into_iter().filter(|&b| b < n).collect();
        blocks.push(n);
        let mut scratches: Vec<Scratch> = blocks.iter().map(|_| Scratch::new()).collect();
        let mut runs: Vec<Box<dyn FnMut() + '_>> = Vec::new();
        for (&block, scratch) in blocks.iter().zip(&mut scratches) {
            let (layer, kv, inp, eids, node_ids) = (&params.layers[0], &kv, &inp, &eids, &node_ids);
            runs.push(Box::new(move || {
                let out = forward_blocked(layer, kv, &cfg, black_box(inp), Some(eids), Some(node_ids), None, block, scratch, &mut []);
                black_box(out.as_slice());
                scratch.give(out);
            }));
        }
        #[expect(clippy::cast_precision_loss, reason = "row counts are far below 2^53")]
        for (&block, (min, med)) in blocks.iter().zip(round_robin(ATTENTION_ROUNDS, &mut runs)) {
            println!("{n:<8}{block:<8}{:>12.1}{:>12.1}{:>14.2}", min * 1e6, med * 1e6, med * 1e6 / n as f64);
        }
    }

    // The width rule's table: the layer at the shipped block size with the
    // width pinned (no rule applied), so a row shows what fanning a call of
    // that many blocks out would cost or save on this host; n = 64 is one
    // block and cannot fan out. The last candidate is an empty two-chunk
    // fan-out: one scoped spawn + join.
    let cores = host_cores();
    println!();
    println!("== attention layer by fan-out width ({cores} cores, round-robin, {WIDTH_ROUNDS} rounds, us per call) ==");
    println!("{:<8}{:<8}{:<8}{:>12}{:>12}{:>14}", "n", "blocks", "width", "min us", "med us", "med us/row");
    for n in [64usize, 128, 256, 400, 4_400] {
        let (ht0, ht, eids, node_ids, mask) = layer1(n);
        let inp = AttentionInputs { h_src: &nodes, ht0: &ht0, h_ngh: &nodes, e_feat: &table, ht: &ht, mask: &mask };
        let widths = [1, cores.max(2)];
        let mut scratches: Vec<Vec<Scratch>> =
            widths.iter().map(|&w| (0..w).map(|_| Scratch::new()).collect()).collect();
        let mut runs: Vec<Box<dyn FnMut() + '_>> = Vec::new();
        for scratches in &mut scratches {
            let (layer, kv, inp, eids, node_ids) = (&params.layers[0], &kv, &inp, &eids, &node_ids);
            runs.push(Box::new(move || {
                #[expect(clippy::expect_used, reason = "every width is at least 1")]
                let (own, helpers) = scratches.split_first_mut().expect("width >= 1");
                let out = forward_blocked(layer, kv, &cfg, black_box(inp), Some(eids), Some(node_ids), None, TARGET_BLOCK, own, helpers);
                black_box(out.as_slice());
                own.give(out);
            }));
        }
        #[expect(clippy::cast_precision_loss, reason = "row counts are far below 2^53")]
        for (&width, (min, med)) in widths.iter().zip(round_robin(WIDTH_ROUNDS, &mut runs)) {
            let blocks = n.div_ceil(TARGET_BLOCK);
            println!("{n:<8}{blocks:<8}{width:<8}{:>12.1}{:>12.1}{:>14.2}", min * 1e6, med * 1e6, med * 1e6 / n as f64);
        }
    }
    let mut two = [0.0f32; 2];
    let mut spawn_join: Vec<Box<dyn FnMut() + '_>> = vec![Box::new(|| {
        black_box(fan_chunks(black_box(&mut two), 1, &mut (), &mut [()], |_, _, ()| {}));
    })];
    let (min, med) = round_robin(1_001, &mut spawn_join)[0];
    println!("{:<24}{:>12.1}{:>12.1}", "spawn + join", min * 1e6, med * 1e6);
}
