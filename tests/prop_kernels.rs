//! Property tests pinning the unrolled/fused kernels to their naive
//! references on arbitrary shapes.
//!
//! The microkernels in `tg_tensor::matmul` dispatch on shape (4x16 register
//! quads, 8-lane tails, per-row nonzero spans), so the dangerous inputs are
//! exactly the ones a fixed unit test misses: dimensions of 0 and 1,
//! non-multiples of the unroll widths, and rows with leading/trailing zeros.
//! Every kernel must stay within 1e-5 of `matmul::reference` (naive triple
//! loops), and the batched scratch attention — every head's K and V in one
//! product — must match the per-op, per-head allocating implementation it
//! replaced.

use proptest::prelude::*;
use tgopt_repro::tensor::matmul::{self, reference};
use tgopt_repro::tensor::{init, ops, Scratch, Tensor};
use tgopt_repro::tgat::attention::{self, AttentionInputs};
use tgopt_repro::tgat::{TgatConfig, TgatParams};

const TOL: f32 = 1e-5;

/// A seeded random `[rows, cols]` tensor with entries in `[-scale, scale]`,
/// with the first `zero_prefix` columns of every row zeroed (exercises the
/// nonzero-span pre-scan that skips TGAT's all-zero node-feature block).
fn tensor_for(rows: usize, cols: usize, seed: u64, zero_prefix: usize) -> Tensor {
    let mut rng = init::seeded_rng(seed);
    let mut t = init::uniform(&mut rng, rows, cols, 1.5);
    let p = zero_prefix.min(cols);
    for r in 0..rows {
        t.row_mut(r)[..p].fill(0.0);
    }
    t
}

/// Shapes hitting every dispatch path: 0, 1, the 4/8/16 unroll widths, and
/// non-multiples on either side of them.
const DIMS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 33];

fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_family_matches_reference(
        m in dim(), n in dim(), k in dim(),
        seed in 0u64..1_000_000,
        zero_prefix in 0usize..20,
    ) {
        let a = tensor_for(m, k, seed, zero_prefix);
        let b = tensor_for(k, n, seed ^ 0x9e37, 0);
        prop_assert!(matmul::matmul(&a, &b).max_abs_diff(&reference::matmul(&a, &b)) <= TOL);

        // matmul_into against stale destination contents.
        let mut c = Tensor::full(m, n, 7.25);
        matmul::matmul_into(&a, &b, &mut c);
        prop_assert!(c.max_abs_diff(&reference::matmul(&a, &b)) <= TOL);

        // addmm fuses the bias into the accumulator seed.
        let bias = tensor_for(1, n, seed ^ 0x5bd1, 0);
        prop_assert!(
            matmul::addmm(&a, &b, &bias).max_abs_diff(&reference::addmm(&a, &b, &bias)) <= TOL
        );

        // B^T variant: b_t is [n, k].
        let b_t = tensor_for(n, k, seed ^ 0x1234, 0);
        prop_assert!(
            matmul::matmul_nt(&a, &b_t).max_abs_diff(&reference::matmul_nt(&a, &b_t)) <= TOL
        );

        // A^T variant: a_t is [k, m].
        let a_t = tensor_for(k, m, seed ^ 0x4321, zero_prefix);
        prop_assert!(
            matmul::matmul_tn(&a_t, &b).max_abs_diff(&reference::matmul_tn(&a_t, &b)) <= TOL
        );
    }

    #[test]
    fn dot_and_axpy_match_naive(len in dim(), seed in 0u64..1_000_000) {
        let x = tensor_for(1, len, seed, 0);
        let y = tensor_for(1, len, seed ^ 0xfeed, 0);
        let naive: f32 = x.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        prop_assert!((matmul::dot(x.as_slice(), y.as_slice()) - naive).abs() <= TOL);

        let mut acc = y.clone();
        matmul::axpy(0.75, x.as_slice(), acc.as_mut_slice());
        for i in 0..len {
            let want = y.as_slice()[i] + 0.75 * x.as_slice()[i];
            prop_assert!((acc.as_slice()[i] - want).abs() <= TOL);
        }
    }

    #[test]
    fn fused_scale_softmax_matches_composed_ops(
        n in dim(), k in dim(),
        seed in 0u64..1_000_000,
        s in 0.05f32..4.0,
        mask_seed in 0u64..1_000_000,
    ) {
        let t = tensor_for(n, k, seed, 0);
        let mask = random_mask(n * k, mask_seed);
        let composed = ops::softmax_rows_masked(&ops::scale(&t, s), &mask);
        let mut fused = t.clone();
        ops::scale_softmax_rows_masked_inplace(&mut fused, s, &mask);
        prop_assert!(fused.max_abs_diff(&composed) <= TOL);
    }

    #[test]
    fn fused_attention_tail_matches_allocating_ops(
        n in 1usize..10, k in 1usize..10, d in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let q = tensor_for(n, d, seed, 0);
        let key = tensor_for(n * k, d, seed ^ 0xaa, 0);
        let v = tensor_for(n * k, d, seed ^ 0xbb, 0);
        let mask = random_mask(n * k, seed ^ 0xcc);

        // The fused kernels read K and V as column blocks of one K|V row,
        // as attention reads one head's blocks of every head's K|V.
        let kv = ops::concat_cols(&[&tensor_for(n * k, 1, seed ^ 0xdd, 0), &key, &v]);
        let mut scores = Tensor::full(n, k, -3.0);
        ops::attn_scores_into(&q, &kv, 1..1 + d, 0.5, &mut scores);
        prop_assert!(scores.max_abs_diff(&ops::attn_scores(&q, &key, 0.5)) <= TOL);

        ops::scale_softmax_rows_masked_inplace(&mut scores, 1.0, &mask);
        // The fused sum writes into a column block of a wider tensor.
        let col_off = 2;
        let mut wide = Tensor::full(n, d + col_off + 1, 9.5);
        ops::attn_weighted_sum_into(&scores, &kv, 1 + d..1 + 2 * d, &mut wide, col_off);
        let plain = ops::attn_weighted_sum(&scores, &v);
        for r in 0..n {
            for c in 0..d {
                prop_assert!((wide.get(r, col_off + c) - plain.get(r, c)).abs() <= TOL);
            }
        }
    }
}

/// Every K|V width the fused product's panels split differently: 16
/// (`TgatConfig::tiny`, 16-column panels only), 64 (the ledger's model, one
/// 4x64 panel on AVX-512 builds) and 80 and 96 (a wide panel, then one or
/// two 16-column panels), over one ragged and several full blocks, each
/// against the per-head allocating reference.
#[test]
fn fused_kv_product_matches_reference_at_every_panel_mix() {
    for (n_heads, head_dim, kv_width) in [(2usize, 4usize, 16usize), (2, 16, 64), (2, 20, 80), (3, 16, 96)] {
        let cfg = TgatConfig { dim: n_heads * head_dim, n_heads, n_layers: 1, ..TgatConfig::tiny() };
        let params = TgatParams::init(cfg, 17).expect("valid config");
        assert_eq!(2 * cfg.dim, kv_width);
        for n in [1usize, 65, 129] {
            let nk = n * cfg.n_neighbors;
            let seed = (n * kv_width) as u64;
            let h_src = tensor_for(n, cfg.dim, seed ^ 1, 0);
            let ht0 = tensor_for(n, cfg.time_dim, seed ^ 2, 0);
            let h_ngh = tensor_for(nk, cfg.dim, seed ^ 3, if n % 2 == 0 { 0 } else { cfg.dim });
            let e_feat = tensor_for(nk, cfg.edge_dim, seed ^ 4, 0);
            let ht = tensor_for(nk, cfg.time_dim, seed ^ 5, 0);
            let mask = random_mask(nk, seed ^ 6);
            let inp = AttentionInputs { h_src: &h_src, ht0: &ht0, h_ngh: &h_ngh, e_feat: &e_feat, ht: &ht, mask: &mask };
            let want = attention::forward_reference(&params.layers[0], &cfg, &inp);
            let got = attention::forward_with(&params.layers[0], &cfg, &inp, &mut Scratch::new());
            assert!(got.max_abs_diff(&want) <= TOL, "kv width {kv_width}, n = {n}");
        }
    }
}

/// Deterministic pseudo-random mask with roughly 1-in-4 padding slots
/// (including occasional fully-masked rows, which both softmax paths must
/// treat identically).
fn random_mask(len: usize, seed: u64) -> Vec<bool> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 61) != 0 // 7 of 8 values pass
        })
        .collect()
}

/// Target counts for the attention property: the small cases, plus the
/// counts around one, two and four `TARGET_BLOCK`s (full and ragged blocks).
const ATTENTION_TARGETS: [usize; 18] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 63, 64, 65, 127, 128, 129, 257];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scratch_attention_matches_reference_impl(
        n_pick in 0usize..ATTENTION_TARGETS.len(),
        k_per in 1usize..8,
        n_heads in 1usize..3,
        head_dim in 1usize..5,
        edge_dim in 1usize..7,
        time_dim in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let cfg = TgatConfig {
            dim: n_heads * head_dim,
            edge_dim,
            time_dim,
            n_layers: 1,
            n_heads,
            n_neighbors: k_per,
        };
        let params = TgatParams::init(cfg, seed).expect("valid config");
        let layer = &params.layers[0];

        let n = ATTENTION_TARGETS[n_pick];
        let nk = n * k_per;
        let h_src = tensor_for(n, cfg.dim, seed ^ 1, 0);
        let ht0 = tensor_for(n, cfg.time_dim, seed ^ 2, 0);
        // Zero prefix mimics layer 0, where neighbor rows are raw (all-zero)
        // node features and the span pre-scan earns its keep.
        let h_ngh = tensor_for(nk, cfg.dim, seed ^ 3, if seed % 2 == 0 { cfg.dim } else { 0 });
        let e_feat = tensor_for(nk, cfg.edge_dim, seed ^ 4, 0);
        let ht = tensor_for(nk, cfg.time_dim, seed ^ 5, 0);
        let mask = random_mask(nk, seed ^ 6);
        let inp = AttentionInputs {
            h_src: &h_src,
            ht0: &ht0,
            h_ngh: &h_ngh,
            e_feat: &e_feat,
            ht: &ht,
            mask: &mask,
        };

        let want = attention::forward_reference(layer, &cfg, &inp);
        let mut scratch = Scratch::new();
        // Run twice through the same scratch: the second pass reuses (and
        // must fully overwrite) the recycled buffers of the first.
        let first = attention::forward_with(layer, &cfg, &inp, &mut scratch);
        scratch.give(first);
        let got = attention::forward_with(layer, &cfg, &inp, &mut scratch);
        prop_assert!(got.max_abs_diff(&want) <= TOL);
    }
}
