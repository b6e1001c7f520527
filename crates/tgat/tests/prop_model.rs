//! Property-based tests for the TGAT model components: the attention
//! operator's masking/batching invariants and the time encoder's algebra,
//! over arbitrary inputs.

use proptest::prelude::*;
use tg_tensor::{Scratch, Tensor};
use tgat::attention::{forward_with, AttentionInputs};
use tgat::{TgatConfig, TgatParams, TimeEncoder};

fn cfg() -> TgatConfig {
    TgatConfig { dim: 6, edge_dim: 4, time_dim: 4, n_layers: 2, n_heads: 2, n_neighbors: 3 }
}

/// Random attention inputs for `n` targets.
#[derive(Debug, Clone)]
struct Inputs {
    h_src: Vec<f32>,
    ht0: Vec<f32>,
    h_ngh: Vec<f32>,
    e_feat: Vec<f32>,
    ht: Vec<f32>,
    mask: Vec<bool>,
    n: usize,
}

fn inputs(max_n: usize) -> impl Strategy<Value = Inputs> {
    let c = cfg();
    (1..=max_n).prop_flat_map(move |n| {
        let k = c.n_neighbors;
        (
            proptest::collection::vec(-2.0f32..2.0, n * c.dim),
            proptest::collection::vec(-1.0f32..1.0, n * c.time_dim),
            proptest::collection::vec(-2.0f32..2.0, n * k * c.dim),
            proptest::collection::vec(-2.0f32..2.0, n * k * c.edge_dim),
            proptest::collection::vec(-1.0f32..1.0, n * k * c.time_dim),
            proptest::collection::vec(any::<bool>(), n * k),
        )
            .prop_map(move |(h_src, ht0, h_ngh, e_feat, ht, mask)| Inputs {
                h_src,
                ht0,
                h_ngh,
                e_feat,
                ht,
                mask,
                n,
            })
    })
}

fn run_attention(params: &TgatParams, inp: &Inputs) -> Tensor {
    let c = cfg();
    let k = c.n_neighbors;
    forward_with(
        &params.layers[0],
        &c,
        &AttentionInputs {
            h_src: &Tensor::from_vec(inp.n, c.dim, inp.h_src.clone()),
            ht0: &Tensor::from_vec(inp.n, c.time_dim, inp.ht0.clone()),
            h_ngh: &Tensor::from_vec(inp.n * k, c.dim, inp.h_ngh.clone()),
            e_feat: &Tensor::from_vec(inp.n * k, c.edge_dim, inp.e_feat.clone()),
            ht: &Tensor::from_vec(inp.n * k, c.time_dim, inp.ht.clone()),
            mask: &inp.mask,
        },
        &mut Scratch::new(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn attention_output_is_finite_and_well_shaped(inp in inputs(6)) {
        let params = TgatParams::init(cfg(), 1).unwrap();
        let out = run_attention(&params, &inp);
        prop_assert_eq!(out.shape(), (inp.n, cfg().dim));
        prop_assert!(out.all_finite());
    }

    #[test]
    fn masked_slots_never_influence_attention(inp in inputs(4), noise in -100.0f32..100.0) {
        let params = TgatParams::init(cfg(), 1).unwrap();
        let base = run_attention(&params, &inp);
        // Corrupt every masked slot's neighbor inputs with large noise.
        let c = cfg();
        let k = c.n_neighbors;
        let mut corrupted = inp.clone();
        for slot in 0..inp.n * k {
            if !inp.mask[slot] {
                for d in 0..c.dim {
                    corrupted.h_ngh[slot * c.dim + d] += noise;
                }
                for d in 0..c.edge_dim {
                    corrupted.e_feat[slot * c.edge_dim + d] -= noise;
                }
                for d in 0..c.time_dim {
                    corrupted.ht[slot * c.time_dim + d] += noise * 0.5;
                }
            }
        }
        let out = run_attention(&params, &corrupted);
        prop_assert!(base.max_abs_diff(&out) < 1e-4, "masked slots leaked into the output");
    }

    #[test]
    fn attention_rows_are_independent(inp in inputs(5)) {
        // Permuting *other* targets must not change a target's output row.
        let params = TgatParams::init(cfg(), 1).unwrap();
        let full = run_attention(&params, &inp);
        let c = cfg();
        let k = c.n_neighbors;
        for i in 0..inp.n {
            let pick = |v: &[f32], w: usize, rows: std::ops::Range<usize>| -> Vec<f32> {
                v[rows.start * w..rows.end * w].to_vec()
            };
            let single = Inputs {
                h_src: pick(&inp.h_src, c.dim, i..i + 1),
                ht0: pick(&inp.ht0, c.time_dim, i..i + 1),
                h_ngh: pick(&inp.h_ngh, c.dim, i * k..(i + 1) * k),
                e_feat: pick(&inp.e_feat, c.edge_dim, i * k..(i + 1) * k),
                ht: pick(&inp.ht, c.time_dim, i * k..(i + 1) * k),
                mask: inp.mask[i * k..(i + 1) * k].to_vec(),
                n: 1,
            };
            let alone = run_attention(&params, &single);
            let row = Tensor::from_vec(1, c.dim, full.row(i).to_vec());
            prop_assert!(alone.max_abs_diff(&row) < 1e-4, "row {i} depends on its batch");
        }
    }

    #[test]
    fn time_encoder_is_bounded_and_exact(
        dts in proptest::collection::vec(-1e6f32..1e9, 1..50),
        dim in 1usize..12,
        seed in 0u64..50,
    ) {
        let enc = TimeEncoder::random(dim, seed);
        let out = enc.encode(&dts);
        prop_assert_eq!(out.shape(), (dts.len(), dim));
        prop_assert!(out.as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-5));
        for (r, &dt) in dts.iter().enumerate() {
            for j in 0..dim {
                let expect = (dt * enc.omega.get(0, j) + enc.phi.get(0, j)).cos();
                prop_assert!((out.get(r, j) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn parameter_count_is_invariant_to_seed(seed in 0u64..1000) {
        let a = TgatParams::init(cfg(), seed).unwrap();
        let b = TgatParams::init(cfg(), seed.wrapping_add(1)).unwrap();
        prop_assert_eq!(a.num_parameters(), b.num_parameters());
        prop_assert_eq!(a.param_list().len(), b.param_list().len());
    }
}
