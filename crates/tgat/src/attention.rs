//! The temporal multi-head attention operator `M` (Eqs. 4–7).
//!
//! This is the raw (tape-free) forward used by both inference engines; the
//! training path in [`crate::train`] records the identical computation on an
//! autograd tape.
//!
//! There is one implementation, [`forward_blocked`], and its unit of work is
//! a block of [`TARGET_BLOCK`] targets: each block builds its own `z_src` /
//! `z_ngh` rows, runs Q/K/V → scores → masked softmax → weighted sum → FFN
//! in block-sized [`Scratch`] buffers and writes its rows of the output, so
//! the K/V operand is multiplied while it is still in L2 and no full-height
//! intermediate is ever materialised. Rows are copied into `z_src` / `z_ngh`
//! straight from where they live: either from pre-gathered `[N, dim]` /
//! `[N*K, dim]` / `[N*K, edge_dim]` tensors ([`forward_with`]), or — what
//! the engines call, [`forward_by_eid`] — edge rows from the feature table
//! by edge id and lower-layer rows from one table by index (the node
//! features by node id, or a lower layer's unique rows by its inverse
//! index). Every row's arithmetic is independent of the block it lands in
//! and of where it was read from, so the result is bit-identical for every
//! block size — and for every width: [`forward_by_eid`] hands a call with
//! at least two blocks per core to the engine's helper scratches via
//! [`fan_chunks`], one block's output rows per chunk. A steady-state batch
//! performs O(1) allocator calls (only the escaping output tensor, and none
//! once its buffer cycles back through the pool). [`forward_reference`] keeps
//! the original per-op allocating implementation as the semantic baseline for
//! equivalence tests.
//!
//! A block multiplies its `z_ngh` rows by every head's `W_K` and `W_V` at
//! once: [`KvWeights`] holds them side by side as one operand, built once
//! per engine, and each head's scores and weighted sum read its K and V
//! column blocks of the product in place.
//!
//! A layer whose `h` rows are all zero (layer 1 over featureless nodes) can
//! run *seeded* ([`EdgeSeeds`]): each slot's K and V lanes start at its
//! edge's projection `P[eid] = e · W[e-rows]` ([`KvWeights::project_edges_into`])
//! and only the `Φ` row block is multiplied, with the same bits (DESIGN.md
//! "Edge projection").

use crate::config::TgatConfig;
use crate::params::LayerParams;
use crate::time_encode::TimeEncoder;
use tg_graph::INVALID_EDGE;
use tg_tensor::fanout::{fan_chunks, helpers_for};
use tg_tensor::matmul::{addmm_into, matmul, matmul_into, matmul_rows_into, matmul_seeded_into};
use tg_tensor::{ops, Scratch, Tensor};
use std::ops::Range;

/// Targets per attention block. With 10 neighbours and 236 input columns a
/// block's `z_ngh` is 640 rows ≈ 600 KB — inside L2 — and 64 is also
/// `ServeConfig::max_batch`, so a serving wave's top layer is one block.
/// 64, 128 and 256 measured the same (DESIGN.md "Target blocks").
pub const TARGET_BLOCK: usize = 64;

/// Edges per fan-out chunk of [`KvWeights::project_edges_into`]: 64 rows
/// of 172 × 64 multiply-adds, about one attention block's K/V work.
const PROJECT_BLOCK: usize = 64;

/// A layer's `W_K` and `W_V` for every head as one
/// `[dim + edge_dim + time_dim, 2·H·hd]` operand: head `h`'s `W_K` in
/// columns `2h·hd..(2h+1)·hd`, its `W_V` in the next `hd`. Its `e` and `Φ`
/// row blocks are the seeded path's operands, so a projection row is a
/// whole seed row. An engine builds one per layer, once.
#[derive(Clone, Debug)]
pub struct KvWeights {
    w: Tensor,
    /// The rows that multiply `e`, and those that multiply `Φ`.
    edge_rows: Range<usize>,
    time_rows: Range<usize>,
}

impl KvWeights {
    /// Lays `layer`'s heads' `W_K` and `W_V` side by side.
    pub fn new(layer: &LayerParams, cfg: &TgatConfig) -> Self {
        let (hd, key_in) = (cfg.head_dim(), cfg.key_in_dim());
        let mut w = Tensor::zeros(key_in, 2 * layer.heads.len() * hd);
        for (h, head) in layer.heads.iter().enumerate() {
            for (j, wkv) in [&head.wk, &head.wv].into_iter().enumerate() {
                for r in 0..key_in {
                    w.row_mut(r)[(2 * h + j) * hd..][..hd].copy_from_slice(wkv.row(r));
                }
            }
        }
        let edge_end = cfg.dim + cfg.edge_dim;
        Self { w, edge_rows: cfg.dim..edge_end, time_rows: edge_end..key_in }
    }

    /// Columns of the operand: K and V of every head.
    pub fn width(&self) -> usize {
        self.w.cols()
    }

    /// `out` row `r` = `P` of the edge whose feature row `edge_row(r)`
    /// returns — the row times the operand's `e` rows — for
    /// `out.len() / width()` rows, fanned over `helpers` by the width rule
    /// in [`PROJECT_BLOCK`]-row chunks. Rows are independent, so the bits
    /// do not depend on the width.
    pub fn project_edges_into<'a>(
        &self,
        edge_row: impl Fn(usize) -> &'a [f32] + Sync,
        out: &mut [f32],
        scratch: &mut Scratch,
        helpers: &mut [Scratch],
    ) {
        let chunk = PROJECT_BLOCK * self.width();
        let helpers = helpers_for(helpers, out.len().div_ceil(chunk));
        fan_chunks(out, chunk, scratch, helpers, |b, rows, _| {
            matmul_rows_into(|r| edge_row(b * PROJECT_BLOCK + r), &self.w, self.edge_rows.clone(), rows);
        });
    }
}

/// `[n_heads, hd]`: row `h` is `[0 | Φ(0)] · W_Q` of head `h`, the query of
/// every target whose `h` row is zero — the query of a seeded call.
pub fn zero_h_query(layer: &LayerParams, cfg: &TgatConfig, time: &TimeEncoder) -> Tensor {
    let phi0 = time.encode(&[0.0]);
    let mut q = Tensor::zeros(layer.heads.len(), cfg.head_dim());
    for (h, head) in layer.heads.iter().enumerate() {
        let hd = head.wq.cols();
        let wq_time = Tensor::from_vec(cfg.time_dim, hd, head.wq.as_slice()[cfg.dim * hd..].to_vec());
        q.row_mut(h).copy_from_slice(matmul(&phi0, &wq_time).as_slice());
    }
    q
}

/// Seeds for a layer-1 call: every slot's K/V lanes start at its edge's
/// projection. Only for a layer whose `h` rows are all zero: `h` is never
/// read for Q, K or V, and every target's query is `q`.
#[derive(Clone, Copy)]
pub struct EdgeSeeds<'a> {
    /// The layer's [`zero_h_query`].
    pub q: &'a Tensor,
    /// Row-major `[u, KvWeights::width()]` projections of the call's
    /// distinct edges.
    pub rows: &'a [f32],
    /// `N*K` entries: slot `s` starts at row `slot_row[s]` of `rows`.
    pub slot_row: &'a [u32],
}

/// Inputs to one attention layer for a batch of `N` targets, each with `K`
/// sampled neighbors (rows `i*K..(i+1)*K` of the `N*K` tensors).
pub struct AttentionInputs<'a> {
    /// `[N, dim]` previous-layer embeddings of the targets — or, read
    /// through an `h_idx` ([`forward_by_eid`]), the table they live in.
    pub h_src: &'a Tensor,
    /// `[N, time_dim]` target-side time encoding `Phi(0)` (Eq. 4).
    pub ht0: &'a Tensor,
    /// `[N*K, dim]` previous-layer embeddings of the sampled neighbors — or,
    /// through an `h_idx`, their table (the engines pass `h_src`'s).
    pub h_ngh: &'a Tensor,
    /// `[N*K, edge_dim]` features of the interaction edges — or, for
    /// [`forward_by_eid`], the whole `[num_edges, edge_dim]` feature table.
    pub e_feat: &'a Tensor,
    /// `[N*K, time_dim]` neighbor-side time encodings `Phi(t - t_j)` (Eq. 5).
    pub ht: &'a Tensor,
    /// `N*K` validity mask; `false` marks padding slots.
    pub mask: &'a [bool],
}

/// Computes `h_i^{(l)}(t)` for every target (Eqs. 4–7) from pre-gathered
/// inputs, in caller-provided scratch buffers (see module docs). Returns
/// `[N, dim]`; the engines call [`forward_by_eid`] instead, with
/// [`KvWeights`] they keep, where this builds them per call.
///
/// The returned tensor is owned by the caller; handing it back to the same
/// `Scratch` later (via `give`) closes the recycling loop.
///
/// # Panics
/// Panics (in debug builds) on inconsistent input shapes.
pub fn forward_with(
    layer: &LayerParams,
    cfg: &TgatConfig,
    inp: &AttentionInputs<'_>,
    scratch: &mut Scratch,
) -> Tensor {
    forward_blocked(layer, &KvWeights::new(layer, cfg), cfg, inp, None, None, None, TARGET_BLOCK, scratch, &mut [])
}

/// [`forward_with`] reading rows from the tables they live in, so nothing
/// is gathered, written and re-read first. Edge rows: `inp.e_feat` is the
/// `[num_edges, edge_dim]` table and slot `s` uses row `eids[s]`
/// ([`INVALID_EDGE`] padding reads row 0 — its weight is masked to zero, so
/// any valid row works). Previous-layer rows, with `h_idx` of length
/// `N + N*K`: target `i` reads `inp.h_src.row(h_idx[i])` and slot `s` reads
/// `inp.h_ngh.row(h_idx[N + s])`; `N` and `N*K` come from `ht0` and `ht`.
/// With `seeds`, K and V start at each slot's edge projection and edge
/// rows are never read. `kv` is `layer`'s [`KvWeights`]. `helpers` are the
/// engine's spare-core scratches; the width rule ([`helpers_for`]) decides
/// how many of them this call's blocks occupy.
#[allow(clippy::too_many_arguments)]
pub fn forward_by_eid(
    layer: &LayerParams,
    kv: &KvWeights,
    cfg: &TgatConfig,
    inp: &AttentionInputs<'_>,
    eids: &[u32],
    h_idx: Option<&[u32]>,
    seeds: Option<&EdgeSeeds<'_>>,
    scratch: &mut Scratch,
    helpers: &mut [Scratch],
) -> Tensor {
    let helpers = helpers_for(helpers, inp.ht0.rows().div_ceil(TARGET_BLOCK));
    forward_blocked(layer, kv, cfg, inp, Some(eids), h_idx, seeds, TARGET_BLOCK, scratch, helpers)
}

/// The block routine behind both entry points, with the block size and the
/// width (`helpers.len() + 1`, no rule applied) pinned by the caller — for
/// the equivalence tests and `examples/tune.rs` only.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn forward_blocked(
    layer: &LayerParams,
    kv: &KvWeights,
    cfg: &TgatConfig,
    inp: &AttentionInputs<'_>,
    eids: Option<&[u32]>,
    h_idx: Option<&[u32]>,
    seeds: Option<&EdgeSeeds<'_>>,
    block: usize,
    scratch: &mut Scratch,
    helpers: &mut [Scratch],
) -> Tensor {
    let n = inp.ht0.rows();
    let nk = inp.ht.rows();
    debug_assert_eq!(nk % n.max(1), 0);
    debug_assert_eq!(nk, eids.map_or(inp.e_feat.rows(), <[u32]>::len));
    debug_assert_eq!(nk, inp.mask.len());
    match h_idx {
        Some(idx) => debug_assert_eq!(idx.len(), n + nk),
        None => debug_assert_eq!((inp.h_src.rows(), inp.h_ngh.rows()), (n, nk)),
    }
    debug_assert_eq!(kv.width(), 2 * layer.heads.len() * cfg.head_dim());
    if let Some(sd) = seeds {
        debug_assert_eq!(sd.slot_row.len(), nk);
        debug_assert_eq!(sd.q.shape(), (layer.heads.len(), cfg.head_dim()));
    }

    let (dim, edge_dim) = (inp.h_src.cols(), inp.e_feat.cols());
    let mut out = scratch.take(n, layer.fc2_w.cols());
    if n == 0 {
        return out;
    }
    let out_cols = out.cols();
    let k_per = nk / n;
    let edge_row = |slot: usize| match eids {
        None => inp.e_feat.row(slot),
        Some(eids) if eids[slot] == INVALID_EDGE => inp.e_feat.row(0),
        Some(eids) => inp.e_feat.row(eids[slot] as usize),
    };
    let src_row = |i: usize| inp.h_src.row(h_idx.map_or(i, |idx| idx[i] as usize));
    let ngh_row = |slot: usize| inp.h_ngh.row(h_idx.map_or(slot, |idx| idx[n + slot] as usize));
    let head_dim = cfg.head_dim();
    #[expect(clippy::cast_precision_loss, reason = "head_dim is a small config value")]
    let scale = 1.0 / (head_dim as f32).sqrt();
    let r_cols = layer.heads.len() * head_dim;

    fan_chunks(out.as_mut_slice(), block * out_cols, scratch, helpers, |b, out_rows, scratch| {
        let (t0, nb) = (b * block, out_rows.len() / out_cols);
        let (s0, ns) = (t0 * k_per, nb * k_per);

        // Message creation: z_i = h_i || Phi(0); z_j = h_j || e_ij || Phi(dt).
        // At layer 0 of the recursion h_ngh rows are raw node features, which
        // are all-zero in the standard TGAT setup — the matmul below skips
        // that zero prefix via its per-row span pre-scan. Seeded, nothing is
        // built: K/V continue each slot's edge projection over its Phi row.
        let messages = match seeds {
            Some(sd) => Messages::Seeded(sd),
            None => {
                let mut z_src = scratch.take(nb, dim + inp.ht0.cols());
                for i in 0..nb {
                    let (h, t) = z_src.row_mut(i).split_at_mut(dim);
                    h.copy_from_slice(src_row(t0 + i));
                    t.copy_from_slice(inp.ht0.row(t0 + i));
                }
                let mut z_ngh = scratch.take(ns, dim + edge_dim + inp.ht.cols());
                for s in 0..ns {
                    let (h, rest) = z_ngh.row_mut(s).split_at_mut(dim);
                    let (e, t) = rest.split_at_mut(edge_dim);
                    h.copy_from_slice(ngh_row(s0 + s));
                    e.copy_from_slice(edge_row(s0 + s));
                    t.copy_from_slice(inp.ht.row(s0 + s));
                }
                Messages::Gathered(z_src, z_ngh)
            }
        };

        // K and V of every head in one product, read in place per head.
        // Seeded, each lane continues its edge projection over its Phi row.
        let kv_cols = kv.width();
        let mut kvs = scratch.take(ns, kv_cols);
        match &messages {
            Messages::Gathered(_, z_ngh) => matmul_into(z_ngh, &kv.w, &mut kvs),
            Messages::Seeded(sd) => {
                let t_cols = inp.ht.cols();
                let phi = &inp.ht.as_slice()[s0 * t_cols..(s0 + ns) * t_cols];
                let seed = |s: usize| &sd.rows[sd.slot_row[s0 + s] as usize * kv_cols..];
                matmul_seeded_into(phi, &kv.w, kv.time_rows.clone(), seed, &mut kvs);
            }
        }

        // ffn_in = [r || h_src]: head outputs land directly in their column
        // block, so the multi-head concat never materializes separately.
        let mut ffn_in = scratch.take(nb, r_cols + dim);
        let mut q = scratch.take(nb, head_dim);
        let mut scores = scratch.take(nb, k_per);
        for (hidx, head) in layer.heads.iter().enumerate() {
            match &messages {
                Messages::Gathered(z_src, _) => matmul_into(z_src, &head.wq, &mut q),
                Messages::Seeded(sd) => {
                    for i in 0..nb {
                        q.row_mut(i).copy_from_slice(sd.q.row(hidx));
                    }
                }
            }
            let (k_cols, v_cols) = (2 * hidx * head_dim, (2 * hidx + 1) * head_dim);
            ops::attn_scores_into(&q, &kvs, k_cols..k_cols + head_dim, 1.0, &mut scores);
            ops::scale_softmax_rows_masked_inplace(&mut scores, scale, &inp.mask[s0..s0 + ns]);
            ops::attn_weighted_sum_into(&scores, &kvs, v_cols..v_cols + head_dim, &mut ffn_in, hidx * head_dim);
        }
        for i in 0..nb {
            ffn_in.row_mut(i)[r_cols..].copy_from_slice(src_row(t0 + i));
        }
        for t in [scores, q, kvs] {
            scratch.give(t);
        }
        if let Messages::Gathered(z_src, z_ngh) = messages {
            scratch.give(z_ngh);
            scratch.give(z_src);
        }

        // Feature update: h = FFN(r || h_src)  (Eq. 7), with fused bias adds.
        let mut hidden = scratch.take(nb, layer.fc1_w.cols());
        addmm_into(&ffn_in, &layer.fc1_w, &layer.fc1_b, &mut hidden);
        ops::relu_inplace(&mut hidden);
        let mut h_out = scratch.take(nb, out_cols);
        addmm_into(&hidden, &layer.fc2_w, &layer.fc2_b, &mut h_out);
        out_rows.copy_from_slice(h_out.as_slice());
        for t in [h_out, hidden, ffn_in] {
            scratch.give(t);
        }
    });
    out
}

/// How a block's K/V inputs arrive: gathered `z` rows, or seeds.
enum Messages<'a> {
    Gathered(Tensor, Tensor),
    Seeded(&'a EdgeSeeds<'a>),
}

/// The original one-allocation-per-op implementation of the layer.
///
/// Kept as the semantic reference for the scratch/fused hot path; the
/// equivalence tests (here and in `tests/prop_kernels.rs`) require
/// [`forward_with`] to match it within 1e-5 on random inputs.
pub fn forward_reference(
    layer: &LayerParams,
    cfg: &TgatConfig,
    inp: &AttentionInputs<'_>,
) -> Tensor {
    let z_src = ops::concat_cols(&[inp.h_src, inp.ht0]);
    let z_ngh = ops::concat_cols(&[inp.h_ngh, inp.e_feat, inp.ht]);

    #[expect(clippy::cast_precision_loss, reason = "head_dim is a small config value")]
    let scale = 1.0 / (cfg.head_dim() as f32).sqrt();
    let mut head_outs = Vec::with_capacity(layer.heads.len());
    for head in &layer.heads {
        let q = matmul(&z_src, &head.wq);
        let k = matmul(&z_ngh, &head.wk);
        let v = matmul(&z_ngh, &head.wv);
        let scores = ops::attn_scores(&q, &k, scale);
        let weights = ops::softmax_rows_masked(&scores, inp.mask);
        head_outs.push(ops::attn_weighted_sum(&weights, &v));
    }
    let refs: Vec<&Tensor> = head_outs.iter().collect();
    let r = ops::concat_cols(&refs); // [N, dim]

    let ffn_in = ops::concat_cols(&[&r, inp.h_src]);
    let hidden = ops::relu(&ops::add_bias(&matmul(&ffn_in, &layer.fc1_w), &layer.fc1_b));
    ops::add_bias(&matmul(&hidden, &layer.fc2_w), &layer.fc2_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TgatParams;
    use tg_tensor::init;

    fn setup(n: usize) -> (TgatConfig, TgatParams, Tensor, Tensor, Tensor, Tensor, Tensor) {
        setup_with(TgatConfig::tiny(), n)
    }

    fn setup_with(
        cfg: TgatConfig,
        n: usize,
    ) -> (TgatConfig, TgatParams, Tensor, Tensor, Tensor, Tensor, Tensor) {
        let p = TgatParams::init(cfg, 3).unwrap();
        let k = cfg.n_neighbors;
        let mut rng = init::seeded_rng(9);
        let h_src = init::normal(&mut rng, n, cfg.dim, 1.0);
        let ht0 = init::normal(&mut rng, n, cfg.time_dim, 1.0);
        let h_ngh = init::normal(&mut rng, n * k, cfg.dim, 1.0);
        let e_feat = init::normal(&mut rng, n * k, cfg.edge_dim, 1.0);
        let ht = init::normal(&mut rng, n * k, cfg.time_dim, 1.0);
        (cfg, p, h_src, ht0, h_ngh, e_feat, ht)
    }

    #[test]
    fn output_shape_is_n_by_dim() {
        let (cfg, p, h_src, ht0, h_ngh, e_feat, ht) = setup(5);
        let mask = vec![true; 5 * cfg.n_neighbors];
        let out = forward_with(
            &p.layers[0],
            &cfg,
            &AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &mask },
            &mut Scratch::new(),
        );
        assert_eq!(out.shape(), (5, cfg.dim));
        assert!(out.all_finite());
    }

    #[test]
    fn scratch_forward_matches_reference() {
        let (cfg, p, h_src, ht0, h_ngh, e_feat, ht) = setup(6);
        let mut mask = vec![true; 6 * cfg.n_neighbors];
        mask[3] = false;
        mask[7] = false;
        let inp =
            AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &mask };
        let reference = forward_reference(&p.layers[0], &cfg, &inp);
        let mut scratch = Scratch::new();
        // Run twice through the same scratch: the second pass exercises
        // reused (stale-content) buffers.
        let first = forward_with(&p.layers[0], &cfg, &inp, &mut scratch);
        scratch.give(first);
        let second = forward_with(&p.layers[0], &cfg, &inp, &mut scratch);
        assert!(second.max_abs_diff(&reference) < 1e-5);
    }

    #[test]
    fn scratch_pool_reaches_steady_state() {
        // 4 targets is one ragged block; 4 * TARGET_BLOCK + 5 is four full
        // blocks and a ragged fifth, all recycling one block's buffers.
        for n in [4, 4 * TARGET_BLOCK + 5] {
            let (cfg, p, h_src, ht0, h_ngh, e_feat, ht) = setup(n);
            let mask = vec![true; n * cfg.n_neighbors];
            let inp =
                AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &mask };
            let mut scratch = Scratch::new();
            let out = forward_with(&p.layers[0], &cfg, &inp, &mut scratch);
            scratch.give(out);
            let cap_after_one = scratch.pooled_capacity();
            for _ in 0..5 {
                let out = forward_with(&p.layers[0], &cfg, &inp, &mut scratch);
                scratch.give(out);
            }
            // Steady state: no new capacity is ever acquired after the first
            // batch, i.e. every later batch runs entirely out of the pool.
            assert_eq!(scratch.pooled_capacity(), cap_after_one, "n = {n}");
        }

        // Fanned out: whichever blocks a helper claims, its pool is empty or
        // exactly one block's working set after every call, the first
        // included. The caller lends `out` from its own pool before the
        // fan-out, and `fan_chunks` does not promise it a chunk: when the
        // helpers claim every block (a loaded host), the caller's pool ends
        // the call one lent buffer short, and refills it the next time it
        // runs a block. So the caller's pool never grows past one block.
        let pools_after_each_call = |n: usize, helpers: &mut [Scratch]| {
            let (cfg, p, h_src, ht0, h_ngh, e_feat, ht) = setup(n);
            let mask = vec![true; n * cfg.n_neighbors];
            let inp =
                AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &mask };
            let mut scratch = Scratch::new();
            let mut seen = Vec::new();
            for _ in 0..6 {
                // The output escapes, so the pools hold block buffers only.
                let kv = KvWeights::new(&p.layers[0], &cfg);
                drop(forward_blocked(&p.layers[0], &kv, &cfg, &inp, None, None, None, TARGET_BLOCK, &mut scratch, helpers));
                seen.push((helpers.iter().map(Scratch::pooled_capacity).collect::<Vec<_>>(), scratch.pooled_capacity()));
            }
            seen
        };
        let one_block = pools_after_each_call(TARGET_BLOCK, &mut [])[0].1;
        let seen = pools_after_each_call(6 * TARGET_BLOCK, &mut [Scratch::new(), Scratch::new()]);
        for (helpers, caller) in &seen {
            assert!(helpers.iter().all(|&held| held == 0 || held == one_block), "{seen:?} vs {one_block}");
            assert!(*caller <= one_block, "{seen:?} vs {one_block}");
        }
    }

    #[test]
    fn blocks_and_table_rows_change_nothing() {
        // Every block size, every width, edge rows read from the table by
        // id, and previous-layer rows read from one table through an index,
        // must give the single-block pre-gathered width-1 result bit for
        // bit: a row's arithmetic never depends on which block (or quad) it
        // lands in, which thread runs the block, or where the row was read
        // from. The pinned width spawns real helper threads whatever the
        // runner's core count.
        //
        // Three K|V widths: 64 (the ledger's model: one 4x64 panel on
        // AVX-512 builds), 80 (a wide panel then a 16-column one; head_dim
        // 20 also makes Q and the FFN ragged) and tiny's 16 (no wide panel).
        let wide = TgatConfig { dim: 32, n_layers: 1, ..TgatConfig::tiny() };
        let ragged = TgatConfig { dim: 40, ..wide };
        let many = [0usize, 1, 63, 64, 65, 129, 255, 256, 257, 1000, 6600];
        let few = [0usize, 1, 64, 65, 257, 1000];
        for (cfg, ns) in [(wide, &many[..]), (ragged, &few[..]), (TgatConfig::tiny(), &few[..])] {
            for &n in ns {
                check_blocks_and_table_rows(cfg, n);
            }
        }
    }

    fn check_blocks_and_table_rows(cfg: TgatConfig, n: usize) {
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (cfg, p, _, ht0, _, _, mut ht) = setup_with(cfg, n);
        let at = format!("kv width {}, n = {n}", 2 * cfg.dim);
        let k = cfg.n_neighbors;
        let mut rng = init::seeded_rng(11);
        let mut table = init::normal(&mut rng, 40, cfg.edge_dim, 1.0);
        table.row_mut(1).fill(0.0);
        let mut eids: Vec<u32> = (0..n * k).map(|s| (2 + s * 7 % 38) as u32).collect();
        // A node-feature table whose even rows are featureless nodes,
        // read by node id: targets out of order and repeated, slots
        // cycling zero / zero-prefix / dense rows, so the span union of
        // a quad depends on where the block boundaries cut.
        let mut nodes = init::normal(&mut rng, 40, cfg.dim, 1.0);
        for r in (0..40).step_by(2) {
            nodes.row_mut(r).fill(0.0);
        }
        let mut h_idx: Vec<u32> = (0..n).map(|i| ((i * 17 + 3) % 40) as u32).collect();
        h_idx.extend((0..n * k).map(|s| if s % 3 == 2 { s * 11 % 20 * 2 + 1 } else { s * 7 % 20 * 2 } as u32));
        let mut mask = vec![true; n * k];
        for (s, eid) in eids.iter_mut().enumerate() {
            if s % 3 == 0 {
                *eid = 1;
                ht.row_mut(s).fill(0.0);
            }
        }
        if n > 0 {
            mask[1] = false; // a masked slot
            eids[2] = INVALID_EDGE; // padding: reads table row 0
            mask[2] = false;
            mask[(n - 1) * k..].fill(false); // fully masked target, last (ragged) block
        }
        let rows: Vec<usize> = eids.iter().map(|&e| if e == INVALID_EDGE { 0 } else { e as usize }).collect();
        let gathered = ops::gather_rows(&table, &rows);
        let node_rows: Vec<usize> = h_idx.iter().map(|&r| r as usize).collect();
        let h_src = ops::gather_rows(&nodes, &node_rows[..n]);
        let h_ngh = ops::gather_rows(&nodes, &node_rows[n..]);
        let pre = AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &gathered, ht: &ht, mask: &mask };
        let by_id = AttentionInputs { e_feat: &table, ..pre };
        let by_index = AttentionInputs { h_src: &nodes, h_ngh: &nodes, ..by_id };
        let idx = Some(&h_idx[..]);
        let layer = &p.layers[0];
        let kv = KvWeights::new(layer, &cfg);
        let mut scratch = Scratch::new();
        let want = forward_blocked(layer, &kv, &cfg, &pre, None, None, None, n.max(1), &mut scratch, &mut []);
        assert_eq!(want.shape(), (n, cfg.dim));
        let reference = forward_reference(layer, &cfg, &pre);
        assert!(want.max_abs_diff(&reference) < 1e-5, "{at}");
        let mut helpers: Vec<Scratch> = (0..7).map(|_| Scratch::new()).collect();
        let cells = [(64, 2), (64, 3), (64, 8), (64, 1), (n.max(1), 8), (1, 1), (16, 1), (16, 3)];
        // 6,600 targets (the layer-1 frontier of a 600-target batch) run
        // the shipped block size at the helper widths only, for time.
        for (block, width) in cells.into_iter().take(if n > 1000 { 3 } else { 8 }) {
            let helpers = &mut helpers[..width - 1];
            let got = forward_blocked(layer, &kv, &cfg, &pre, None, None, None, block, &mut scratch, helpers);
            assert_eq!(bits(&got), bits(&want), "{at}, block = {block}, width = {width}, pre-gathered");
            scratch.give(got);
            let got = forward_blocked(layer, &kv, &cfg, &by_id, Some(&eids), None, None, block, &mut scratch, helpers);
            assert_eq!(bits(&got), bits(&want), "{at}, block = {block}, width = {width}, by edge id");
            scratch.give(got);
            let got = forward_blocked(layer, &kv, &cfg, &by_index, Some(&eids), idx, None, block, &mut scratch, helpers);
            assert_eq!(bits(&got), bits(&want), "{at}, block = {block}, width = {width}, by row index");
            scratch.give(got);
        }
        assert_eq!(bits(&forward_with(layer, &cfg, &pre, &mut scratch)), bits(&want));
        for width in [1, 2, 3, 8] {
            let helpers = &mut helpers[..width - 1];
            let got = forward_by_eid(layer, &kv, &cfg, &by_id, &eids, None, None, &mut scratch, helpers);
            assert_eq!(bits(&got), bits(&want), "{at}, width = {width}, by edge id under the width rule");
            assert!(got.max_abs_diff(&reference) < 1e-5, "{at}, width = {width}, against the reference");
            scratch.give(got);
            let got = forward_by_eid(layer, &kv, &cfg, &by_index, &eids, idx, None, &mut scratch, helpers);
            assert_eq!(bits(&got), bits(&want), "{at}, width = {width}, by row index under the width rule");
            scratch.give(got);
        }

        // Seeded, as layer 1 over featureless nodes runs: h all zero,
        // every target's time row Phi(0), and each slot's K/V lanes
        // starting at its edge's projection. The slots above include
        // padding (projected as edge 0, the row it reads), masked
        // slots, the zero edge row 1 and repeated edges; every fifth
        // slot gets a row of its own even when its edge already has
        // one, as two edges colliding in the engine's dedup do.
        let zero_nodes = Tensor::zeros(40, cfg.dim);
        let phi0 = p.time.encode_zeros(n);
        let plain = AttentionInputs { h_src: &zero_nodes, h_ngh: &zero_nodes, ht0: &phi0, ..by_id };
        let want = forward_blocked(layer, &kv, &cfg, &plain, Some(&eids), idx, None, n.max(1), &mut scratch, &mut []);
        let mut uniq: Vec<u32> = Vec::new();
        let slot_row: Vec<u32> = eids
            .iter()
            .enumerate()
            .map(|(s, &e)| {
                let e = if e == INVALID_EDGE { 0 } else { e };
                match uniq.iter().position(|&u| u == e) {
                    Some(r) if s % 5 != 4 => r as u32,
                    _ => {
                        uniq.push(e);
                        (uniq.len() - 1) as u32
                    }
                }
            })
            .collect();
        let mut rows = vec![f32::NAN; uniq.len() * kv.width()];
        kv.project_edges_into(|r| table.row(uniq[r] as usize), &mut rows, &mut scratch, &mut []);
        let q = zero_h_query(layer, &cfg, &p.time);
        let seeds = EdgeSeeds { q: &q, rows: &rows, slot_row: &slot_row };
        for (block, width) in cells.into_iter().take(if n > 1000 { 3 } else { 8 }) {
            let helpers = &mut helpers[..width - 1];
            let got = forward_blocked(layer, &kv, &cfg, &plain, Some(&eids), idx, Some(&seeds), block, &mut scratch, helpers);
            assert_eq!(bits(&got), bits(&want), "{at}, block = {block}, width = {width}, seeded");
            scratch.give(got);
        }
        for width in [1, 2, 3, 8] {
            let helpers = &mut helpers[..width - 1];
            let got = forward_by_eid(layer, &kv, &cfg, &plain, &eids, idx, Some(&seeds), &mut scratch, helpers);
            assert_eq!(bits(&got), bits(&want), "{at}, width = {width}, seeded under the width rule");
            scratch.give(got);
        }
    }

    #[test]
    fn edge_projection_is_each_heads_edge_block_product() {
        // The operand's e rows hold, per head, W_K's and W_V's edge rows
        // side by side, and P is the edge rows' product by that block, at
        // every fan-out width, bit for bit — at K|V widths 64 and 80.
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for dim in [32, 40] {
            let (cfg, p, ..) = setup_with(TgatConfig { dim, n_layers: 1, ..TgatConfig::tiny() }, 1);
            let (layer, hd) = (&p.layers[0], cfg.head_dim());
            let mut rng = init::seeded_rng(5);
            let edges = init::normal(&mut rng, 300, cfg.edge_dim, 1.0);
            let kv = KvWeights::new(layer, &cfg);
            assert_eq!((kv.width(), kv.edge_rows.clone()), (2 * cfg.dim, cfg.dim..cfg.dim + cfg.edge_dim));
            let block = Tensor::from_vec(cfg.edge_dim, kv.width(), kv.w.as_slice()[cfg.dim * kv.width()..][..cfg.edge_dim * kv.width()].to_vec());
            for (h, head) in layer.heads.iter().enumerate() {
                for (j, w) in [&head.wk, &head.wv].into_iter().enumerate() {
                    for r in 0..cfg.edge_dim {
                        assert_eq!(&block.row(r)[(2 * h + j) * hd..][..hd], w.row(cfg.dim + r), "dim {dim}, head {h}");
                    }
                }
            }
            let project = |width: usize| {
                let mut out = vec![f32::NAN; 300 * kv.width()];
                let mut helpers: Vec<Scratch> = (1..width).map(|_| Scratch::new()).collect();
                kv.project_edges_into(|r| edges.row(r), &mut out, &mut Scratch::new(), &mut helpers);
                out
            };
            let want = project(1);
            assert_eq!(bits(&want), bits(matmul(&edges, &block).as_slice()), "dim {dim}");
            for width in [2, 3] {
                assert_eq!(bits(&project(width)), bits(&want), "dim {dim}, width {width}");
            }
        }
    }

    #[test]
    fn empty_batch_produces_empty_output() {
        let (cfg, p, ..) = setup(1);
        let h_src = Tensor::zeros(0, cfg.dim);
        let ht0 = Tensor::zeros(0, cfg.time_dim);
        let h_ngh = Tensor::zeros(0, cfg.dim);
        let e_feat = Tensor::zeros(0, cfg.edge_dim);
        let ht = Tensor::zeros(0, cfg.time_dim);
        let out = forward_with(
            &p.layers[0],
            &cfg,
            &AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &[] },
            &mut Scratch::new(),
        );
        assert_eq!(out.shape(), (0, cfg.dim));
    }

    #[test]
    fn masked_neighbors_do_not_affect_output() {
        let (cfg, p, h_src, ht0, h_ngh, e_feat, ht) = setup(2);
        let k = cfg.n_neighbors;
        let mut mask = vec![true; 2 * k];
        mask[1] = false; // target 0, slot 1 is padding
        let out1 = forward_with(
            &p.layers[0],
            &cfg,
            &AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &mask },
            &mut Scratch::new(),
        );
        // Corrupt the padding slot's inputs; output must not change.
        let mut h_ngh2 = h_ngh.clone();
        for v in h_ngh2.row_mut(1) {
            *v = 1e3;
        }
        let mut e2 = e_feat.clone();
        for v in e2.row_mut(1) {
            *v = -1e3;
        }
        let out2 = forward_with(
            &p.layers[0],
            &cfg,
            &AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh2, e_feat: &e2, ht: &ht, mask: &mask },
            &mut Scratch::new(),
        );
        assert!(out1.max_abs_diff(&out2) < 1e-5);
    }

    #[test]
    fn fully_masked_target_still_produces_finite_output() {
        let (cfg, p, h_src, ht0, h_ngh, e_feat, ht) = setup(1);
        let mask = vec![false; cfg.n_neighbors];
        let out = forward_with(
            &p.layers[0],
            &cfg,
            &AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &mask },
            &mut Scratch::new(),
        );
        assert!(out.all_finite());
    }

    #[test]
    fn batch_rows_are_independent() {
        // Computing targets together or separately must give identical rows.
        let (cfg, p, h_src, ht0, h_ngh, e_feat, ht) = setup(4);
        let k = cfg.n_neighbors;
        let mask = vec![true; 4 * k];
        let full = forward_with(
            &p.layers[0],
            &cfg,
            &AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &mask },
            &mut Scratch::new(),
        );
        for i in 0..4 {
            let hs = Tensor::from_vec(1, cfg.dim, h_src.row(i).to_vec());
            let h0 = Tensor::from_vec(1, cfg.time_dim, ht0.row(i).to_vec());
            let slice = |t: &Tensor, w: usize| {
                Tensor::from_vec(k, w, t.as_slice()[i * k * w..(i + 1) * k * w].to_vec())
            };
            let single = forward_with(
                &p.layers[0],
                &cfg,
                &AttentionInputs {
                    h_src: &hs,
                    ht0: &h0,
                    h_ngh: &slice(&h_ngh, cfg.dim),
                    e_feat: &slice(&e_feat, cfg.edge_dim),
                    ht: &slice(&ht, cfg.time_dim),
                    mask: &mask[i * k..(i + 1) * k],
                },
                &mut Scratch::new(),
            );
            let batch_row = Tensor::from_vec(1, cfg.dim, full.row(i).to_vec());
            assert!(single.max_abs_diff(&batch_row) < 1e-5, "row {i} differs");
        }
    }
}
