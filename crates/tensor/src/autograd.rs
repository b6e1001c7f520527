//! Tape-based reverse-mode automatic differentiation.
//!
//! The TGAT training path (link prediction with negative sampling, paper
//! §5.1) records its forward computation on a [`Tape`]; [`Tape::backward`]
//! then produces gradients for every leaf parameter. Operations are executed
//! eagerly, so tape order is already a topological order and the backward
//! pass is a single reverse sweep.
//!
//! Besides standard dense ops, two *fused batched attention primitives* are
//! provided so the per-target attention of TGAT (each of `N` targets attends
//! over its own `K` sampled neighbors) does not need 3-D tensors:
//!
//! * [`Tape::attn_scores`] — `s[n,k] = <q_n, key_{n*K+k}> * scale`
//! * [`Tape::attn_weighted_sum`] — `out_n = sum_k w[n,k] * v_{n*K+k}`
//!
//! and a fused [`Tape::time_encode`] implementing the learnable
//! `Phi(dt) = cos(dt * omega + phi)` encoder of Eq. (8).

use crate::matmul::{matmul, matmul_nt, matmul_tn};
use crate::ops;
use crate::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

/// Recorded operation; stores whatever the backward pass needs.
enum Op {
    Leaf,
    MatMul { a: usize, b: usize },
    AddBias { x: usize, bias: usize },
    Add { a: usize, b: usize },
    Sub { a: usize, b: usize },
    Mul { a: usize, b: usize },
    Scale { x: usize, s: f32 },
    Relu { x: usize },
    Sigmoid { x: usize },
    ConcatCols { parts: Vec<usize> },
    ConcatRows { parts: Vec<usize> },
    GatherRows { src: usize, idx: Vec<usize> },
    SoftmaxRowsMasked { x: usize, mask: Vec<bool> },
    Dropout { x: usize, mask: Vec<bool>, scale: f32 },
    AttnScores { q: usize, k: usize, scale: f32 },
    AttnWeightedSum { w: usize, v: usize },
    TimeEncode { dt: Vec<f32>, omega: usize, phi: usize },
    BceWithLogits { logits: usize, targets: Vec<f32> },
}

/// A gradient tape: values plus the operations that produced them.
#[derive(Default)]
pub struct Tape {
    values: Vec<Tensor>,
    ops: Vec<Op>,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss with respect to `v`, if `v` influenced the loss.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads[v.0].as_ref()
    }
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.values.push(value);
        self.ops.push(op);
        Var(self.values.len() - 1)
    }

    /// Registers an input/parameter tensor.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = matmul(&self.values[a.0], &self.values[b.0]);
        self.push(v, Op::MatMul { a: a.0, b: b.0 })
    }

    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let v = ops::add_bias(&self.values[x.0], &self.values[bias.0]);
        self.push(v, Op::AddBias { x: x.0, bias: bias.0 })
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = ops::add(&self.values[a.0], &self.values[b.0]);
        self.push(v, Op::Add { a: a.0, b: b.0 })
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = ops::sub(&self.values[a.0], &self.values[b.0]);
        self.push(v, Op::Sub { a: a.0, b: b.0 })
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = ops::mul(&self.values[a.0], &self.values[b.0]);
        self.push(v, Op::Mul { a: a.0, b: b.0 })
    }

    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let v = ops::scale(&self.values[x.0], s);
        self.push(v, Op::Scale { x: x.0, s })
    }

    pub fn relu(&mut self, x: Var) -> Var {
        let v = ops::relu(&self.values[x.0]);
        self.push(v, Op::Relu { x: x.0 })
    }

    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = ops::sigmoid(&self.values[x.0]);
        self.push(v, Op::Sigmoid { x: x.0 })
    }

    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let refs: Vec<&Tensor> = parts.iter().map(|p| &self.values[p.0]).collect();
        let v = ops::concat_cols(&refs);
        self.push(v, Op::ConcatCols { parts: parts.iter().map(|p| p.0).collect() })
    }

    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let refs: Vec<&Tensor> = parts.iter().map(|p| &self.values[p.0]).collect();
        let v = ops::concat_rows(&refs);
        self.push(v, Op::ConcatRows { parts: parts.iter().map(|p| p.0).collect() })
    }

    pub fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var {
        let v = ops::gather_rows(&self.values[src.0], idx);
        self.push(v, Op::GatherRows { src: src.0, idx: idx.to_vec() })
    }

    /// Inverted dropout: zeroes each element with probability `p` and
    /// scales survivors by `1/(1-p)`, so expectations match eval mode.
    /// `p == 0` is the identity. Training-only — the inference engines never
    /// apply dropout.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut StdRng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        if p == 0.0 {
            return x;
        }
        let xv = &self.values[x.0];
        let mask: Vec<bool> = (0..xv.len()).map(|_| rng.gen::<f32>() >= p).collect();
        let scale = 1.0 / (1.0 - p);
        let mut out = xv.clone();
        for (v, &keep) in out.as_mut_slice().iter_mut().zip(&mask) {
            *v = if keep { *v * scale } else { 0.0 };
        }
        self.push(out, Op::Dropout { x: x.0, mask, scale })
    }

    pub fn softmax_rows_masked(&mut self, x: Var, mask: &[bool]) -> Var {
        let v = ops::softmax_rows_masked(&self.values[x.0], mask);
        self.push(v, Op::SoftmaxRowsMasked { x: x.0, mask: mask.to_vec() })
    }

    /// Batched attention scores: `q` is `[N, d]`, `key` is `[N*K, d]` and the
    /// result is `[N, K]` with `s[n,k] = <q_n, key_{n*K+k}> * scale`.
    pub fn attn_scores(&mut self, q: Var, key: Var, scale: f32) -> Var {
        let qv = &self.values[q.0];
        let kv = &self.values[key.0];
        let n = qv.rows();
        assert!(n > 0, "attn_scores on empty batch");
        assert_eq!(kv.rows() % n, 0, "key rows must be a multiple of q rows");
        assert_eq!(qv.cols(), kv.cols(), "attn_scores dim mismatch");
        let out = ops::attn_scores(qv, kv, scale);
        self.push(out, Op::AttnScores { q: q.0, k: key.0, scale })
    }

    /// Batched weighted sum: `w` is `[N, K]`, `v` is `[N*K, d]` and the result
    /// is `[N, d]` with `out_n = sum_k w[n,k] * v_{n*K+k}`.
    pub fn attn_weighted_sum(&mut self, w: Var, v: Var) -> Var {
        let wv = &self.values[w.0];
        let vv = &self.values[v.0];
        let out = ops::attn_weighted_sum(wv, vv);
        self.push(out, Op::AttnWeightedSum { w: w.0, v: v.0 })
    }

    /// Learnable time encoding `out[r, j] = cos(dt[r] * omega[j] + phi[j])`
    /// (Eq. 8 of the paper). `omega` and `phi` are `1 x d` parameters.
    pub fn time_encode(&mut self, dt: &[f32], omega: Var, phi: Var) -> Var {
        let om = &self.values[omega.0];
        let ph = &self.values[phi.0];
        assert_eq!(om.rows(), 1, "omega must be 1 x d");
        assert_eq!(ph.shape(), om.shape(), "phi shape must match omega");
        let d = om.cols();
        let mut out = Tensor::zeros(dt.len(), d);
        for (r, &t) in dt.iter().enumerate() {
            for (j, o) in out.row_mut(r).iter_mut().enumerate() {
                *o = (t * om.get(0, j) + ph.get(0, j)).cos();
            }
        }
        self.push(out, Op::TimeEncode { dt: dt.to_vec(), omega: omega.0, phi: phi.0 })
    }

    /// Numerically stable binary cross-entropy with logits, averaged over all
    /// elements; produces a `1 x 1` scalar.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let lv = &self.values[logits.0];
        assert_eq!(lv.len(), targets.len(), "target count must match logits");
        let mut loss = 0.0f64;
        for (&z, &y) in lv.as_slice().iter().zip(targets) {
            // max(z,0) - y*z + ln(1 + exp(-|z|))
            loss += (z.max(0.0) - y * z + (-z.abs()).exp().ln_1p()) as f64;
        }
        #[expect(clippy::cast_precision_loss, reason = "batch sizes stay far below 2^53")]
        let n = targets.len().max(1) as f64;
        #[expect(clippy::cast_possible_truncation, reason = "mean loss scalar; f32 storage precision suffices")]
        let out = Tensor::from_vec(1, 1, vec![(loss / n) as f32]);
        self.push(out, Op::BceWithLogits { logits: logits.0, targets: targets.to_vec() })
    }

    /// Reverse sweep from the scalar `loss` node; returns per-node gradients.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 x 1` tensor.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(self.values[loss.0].shape(), (1, 1), "backward needs a scalar loss");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.values.len()];
        grads[loss.0] = Some(Tensor::from_vec(1, 1, vec![1.0]));

        for i in (0..self.ops.len()).rev() {
            let Some(g) = grads[i].take() else { continue };
            self.backprop_node(i, &g, &mut grads);
            grads[i] = Some(g);
        }
        Gradients { grads }
    }

    /// Accumulates `g` (the gradient of node `i`'s output) into its parents.
    fn backprop_node(&self, i: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        match &self.ops[i] {
            Op::Leaf => {}
            Op::MatMul { a, b } => {
                let da = matmul_nt(g, &self.values[*b]);
                let db = matmul_tn(&self.values[*a], g);
                accumulate(grads, *a, da);
                accumulate(grads, *b, db);
            }
            Op::AddBias { x, bias } => {
                accumulate(grads, *x, g.clone());
                let cols = g.cols();
                let mut db = Tensor::zeros(1, cols);
                for r in 0..g.rows() {
                    for (d, &v) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                        *d += v;
                    }
                }
                accumulate(grads, *bias, db);
            }
            Op::Add { a, b } => {
                accumulate(grads, *a, g.clone());
                accumulate(grads, *b, g.clone());
            }
            Op::Sub { a, b } => {
                accumulate(grads, *a, g.clone());
                accumulate(grads, *b, ops::scale(g, -1.0));
            }
            Op::Mul { a, b } => {
                accumulate(grads, *a, ops::mul(g, &self.values[*b]));
                accumulate(grads, *b, ops::mul(g, &self.values[*a]));
            }
            Op::Scale { x, s } => accumulate(grads, *x, ops::scale(g, *s)),
            Op::Relu { x } => {
                let mut dx = g.clone();
                for (d, &v) in dx.as_mut_slice().iter_mut().zip(self.values[*x].as_slice()) {
                    if v <= 0.0 {
                        *d = 0.0;
                    }
                }
                accumulate(grads, *x, dx);
            }
            Op::Sigmoid { x } => {
                let y = &self.values[i];
                let mut dx = g.clone();
                for (d, &yv) in dx.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *d *= yv * (1.0 - yv);
                }
                accumulate(grads, *x, dx);
            }
            Op::ConcatCols { parts } => {
                let mut off = 0;
                for &p in parts {
                    let w = self.values[p].cols();
                    let mut dp = Tensor::zeros(g.rows(), w);
                    for r in 0..g.rows() {
                        dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + w]);
                    }
                    off += w;
                    accumulate(grads, p, dp);
                }
            }
            Op::ConcatRows { parts } => {
                let mut off = 0;
                for &p in parts {
                    let rows = self.values[p].rows();
                    let cols = self.values[p].cols();
                    let dp = Tensor::from_vec(
                        rows,
                        cols,
                        g.as_slice()[off * cols..(off + rows) * cols].to_vec(),
                    );
                    off += rows;
                    accumulate(grads, p, dp);
                }
            }
            Op::GatherRows { src, idx } => {
                let mut dsrc = Tensor::zeros(self.values[*src].rows(), self.values[*src].cols());
                for (r, &s) in idx.iter().enumerate() {
                    for (d, &v) in dsrc.row_mut(s).iter_mut().zip(g.row(r)) {
                        *d += v;
                    }
                }
                accumulate(grads, *src, dsrc);
            }
            Op::Dropout { x, mask, scale } => {
                let mut dx = g.clone();
                for (d, &keep) in dx.as_mut_slice().iter_mut().zip(mask) {
                    *d = if keep { *d * scale } else { 0.0 };
                }
                accumulate(grads, *x, dx);
            }
            Op::SoftmaxRowsMasked { x, mask } => {
                let y = &self.values[i];
                let cols = y.cols();
                let mut dx = Tensor::zeros(y.rows(), cols);
                for r in 0..y.rows() {
                    let yr = y.row(r);
                    let gr = g.row(r);
                    let mrow = &mask[r * cols..(r + 1) * cols];
                    let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    let dr = dx.row_mut(r);
                    for c in 0..cols {
                        if mrow[c] {
                            dr[c] = yr[c] * (gr[c] - dot);
                        }
                    }
                }
                accumulate(grads, *x, dx);
            }
            Op::AttnScores { q, k, scale } => {
                let qv = &self.values[*q];
                let kv = &self.values[*k];
                let n = qv.rows();
                let kk = kv.rows() / n;
                let mut dq = Tensor::zeros(qv.rows(), qv.cols());
                let mut dk = Tensor::zeros(kv.rows(), kv.cols());
                for i2 in 0..n {
                    for j in 0..kk {
                        let gs = g.get(i2, j) * scale;
                        if gs == 0.0 {
                            continue;
                        }
                        let kr = kv.row(i2 * kk + j);
                        let qr = qv.row(i2);
                        for (d, &x) in dq.row_mut(i2).iter_mut().zip(kr) {
                            *d += gs * x;
                        }
                        for (d, &x) in dk.row_mut(i2 * kk + j).iter_mut().zip(qr) {
                            *d += gs * x;
                        }
                    }
                }
                accumulate(grads, *q, dq);
                accumulate(grads, *k, dk);
            }
            Op::AttnWeightedSum { w, v } => {
                let wv = &self.values[*w];
                let vv = &self.values[*v];
                let (n, kk) = wv.shape();
                let mut dw = Tensor::zeros(n, kk);
                let mut dv = Tensor::zeros(vv.rows(), vv.cols());
                for i2 in 0..n {
                    let gr = g.row(i2);
                    for j in 0..kk {
                        let vr = vv.row(i2 * kk + j);
                        dw.set(i2, j, gr.iter().zip(vr).map(|(a, b)| a * b).sum());
                        let weight = wv.get(i2, j);
                        if weight != 0.0 {
                            for (d, &x) in dv.row_mut(i2 * kk + j).iter_mut().zip(gr) {
                                *d += weight * x;
                            }
                        }
                    }
                }
                accumulate(grads, *w, dw);
                accumulate(grads, *v, dv);
            }
            Op::TimeEncode { dt, omega, phi } => {
                let om = &self.values[*omega];
                let ph = &self.values[*phi];
                let d = om.cols();
                let mut dom = Tensor::zeros(1, d);
                let mut dph = Tensor::zeros(1, d);
                for (r, &t) in dt.iter().enumerate() {
                    for (j, &gv) in g.row(r).iter().enumerate().take(d) {
                        let s = -(t * om.get(0, j) + ph.get(0, j)).sin() * gv;
                        dom.as_mut_slice()[j] += s * t;
                        dph.as_mut_slice()[j] += s;
                    }
                }
                accumulate(grads, *omega, dom);
                accumulate(grads, *phi, dph);
            }
            Op::BceWithLogits { logits, targets } => {
                let lv = &self.values[*logits];
                #[expect(clippy::cast_precision_loss, reason = "batch sizes stay far below 2^24")]
                let gscalar = g.get(0, 0) / targets.len().max(1) as f32;
                let mut dl = Tensor::zeros(lv.rows(), lv.cols());
                for ((d, &z), &y) in
                    dl.as_mut_slice().iter_mut().zip(lv.as_slice()).zip(targets)
                {
                    let sig = 1.0 / (1.0 + (-z).exp());
                    *d = (sig - y) * gscalar;
                }
                accumulate(grads, *logits, dl);
            }
        }
    }
}

fn accumulate(grads: &mut [Option<Tensor>], idx: usize, delta: Tensor) {
    match &mut grads[idx] {
        Some(existing) => {
            for (e, &d) in existing.as_mut_slice().iter_mut().zip(delta.as_slice()) {
                *e += d;
            }
        }
        slot @ None => *slot = Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite difference of a scalar-loss builder with respect to one
    /// leaf tensor; used to validate every backward rule.
    fn numeric_grad(
        build: &dyn Fn(&mut Tape, Var) -> Var,
        leaf_value: &Tensor,
    ) -> Tensor {
        let eps = 1e-3f32;
        let mut grad = Tensor::zeros(leaf_value.rows(), leaf_value.cols());
        for i in 0..leaf_value.len() {
            let mut plus = leaf_value.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = leaf_value.clone();
            minus.as_mut_slice()[i] -= eps;
            let lp = {
                let mut tape = Tape::new();
                let v = tape.leaf(plus);
                let loss = build(&mut tape, v);
                tape.value(loss).get(0, 0)
            };
            let lm = {
                let mut tape = Tape::new();
                let v = tape.leaf(minus);
                let loss = build(&mut tape, v);
                tape.value(loss).get(0, 0)
            };
            grad.as_mut_slice()[i] = (lp - lm) / (2.0 * eps);
        }
        grad
    }

    fn check_grad(build: &dyn Fn(&mut Tape, Var) -> Var, leaf_value: Tensor, tol: f32) {
        let mut tape = Tape::new();
        let v = tape.leaf(leaf_value.clone());
        let loss = build(&mut tape, v);
        let grads = tape.backward(loss);
        let analytic = grads.get(v).expect("leaf should receive a gradient");
        let numeric = numeric_grad(build, &leaf_value);
        let diff = analytic.max_abs_diff(&numeric);
        assert!(
            diff < tol,
            "gradient mismatch: max diff {diff}\nanalytic {analytic:?}\nnumeric {numeric:?}"
        );
    }

    fn test_tensor(rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols).map(|i| ((i as f32) * 0.37).sin() * 0.8).collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// Reduces any tensor to a scalar via a fixed quadratic so gradients are
    /// nondegenerate.
    fn to_scalar(tape: &mut Tape, v: Var) -> Var {
        let (r, c) = tape.value(v).shape();
        let w = tape.leaf(Tensor::from_vec(
            c,
            1,
            (0..c).map(|i| 0.3 + 0.1 * i as f32).collect(),
        ));
        let col = tape.matmul(v, w); // [r,1]
        let ones = tape.leaf(Tensor::from_vec(1, r, vec![1.0; r]));
        let s = tape.matmul(ones, col); // [1,1]
        tape.mul(s, s)
    }

    #[test]
    fn grad_matmul_left_and_right() {
        let b_val = test_tensor(4, 3);
        check_grad(
            &move |tape, a| {
                let b = tape.leaf(b_val.clone());
                let c = tape.matmul(a, b);
                to_scalar(tape, c)
            },
            test_tensor(2, 4),
            1e-2,
        );
        let a_val = test_tensor(2, 4);
        check_grad(
            &move |tape, b| {
                let a = tape.leaf(a_val.clone());
                let c = tape.matmul(a, b);
                to_scalar(tape, c)
            },
            test_tensor(4, 3),
            1e-2,
        );
    }

    #[test]
    fn grad_add_bias() {
        check_grad(
            &|tape, bias| {
                let x = tape.leaf(test_tensor(3, 2));
                let y = tape.add_bias(x, bias);
                to_scalar(tape, y)
            },
            test_tensor(1, 2),
            1e-2,
        );
    }

    #[test]
    fn grad_elementwise_ops() {
        // Shift values off 0 — ReLU's kink makes finite differences wrong there.
        let mut relu_in = test_tensor(3, 3);
        for v in relu_in.as_mut_slice() {
            if v.abs() < 0.05 {
                *v += 0.1;
            }
        }
        check_grad(
            &|tape, x| {
                let y = tape.relu(x);
                to_scalar(tape, y)
            },
            relu_in,
            1e-2,
        );
        check_grad(
            &|tape, x| {
                let y = tape.sigmoid(x);
                to_scalar(tape, y)
            },
            test_tensor(2, 3),
            1e-2,
        );
        check_grad(
            &|tape, x| {
                let o = tape.leaf(test_tensor(2, 3));
                let y = tape.mul(x, o);
                let z = tape.add(y, x);
                let w = tape.sub(z, o);
                let s = tape.scale(w, 1.3);
                to_scalar(tape, s)
            },
            test_tensor(2, 3),
            1e-2,
        );
    }

    #[test]
    fn grad_concat_and_gather() {
        check_grad(
            &|tape, x| {
                let o = tape.leaf(test_tensor(3, 2));
                let c = tape.concat_cols(&[x, o]);
                let g = tape.gather_rows(c, &[0, 2, 2, 1]);
                to_scalar(tape, g)
            },
            test_tensor(3, 2),
            1e-2,
        );
        check_grad(
            &|tape, x| {
                let o = tape.leaf(test_tensor(2, 3));
                let c = tape.concat_rows(&[o, x]);
                to_scalar(tape, c)
            },
            test_tensor(2, 3),
            1e-2,
        );
    }

    #[test]
    fn grad_softmax_masked() {
        let mask = vec![true, true, false, true, true, true];
        check_grad(
            &move |tape, x| {
                let y = tape.softmax_rows_masked(x, &mask);
                to_scalar(tape, y)
            },
            test_tensor(2, 3),
            1e-2,
        );
    }

    #[test]
    fn grad_attn_scores_and_weighted_sum() {
        // q: [2, 3]; keys: [2*2, 3]; weights: [2,2]; values: [4,3]
        let key_val = test_tensor(4, 3);
        check_grad(
            &move |tape, q| {
                let k = tape.leaf(key_val.clone());
                let s = tape.attn_scores(q, k, 0.5);
                to_scalar(tape, s)
            },
            test_tensor(2, 3),
            1e-2,
        );
        let q_val = test_tensor(2, 3);
        check_grad(
            &move |tape, k| {
                let q = tape.leaf(q_val.clone());
                let s = tape.attn_scores(q, k, 0.5);
                to_scalar(tape, s)
            },
            test_tensor(4, 3),
            1e-2,
        );
        let v_val = test_tensor(4, 3);
        check_grad(
            &move |tape, w| {
                let v = tape.leaf(v_val.clone());
                let o = tape.attn_weighted_sum(w, v);
                to_scalar(tape, o)
            },
            test_tensor(2, 2),
            1e-2,
        );
        let w_val = test_tensor(2, 2);
        check_grad(
            &move |tape, v| {
                let w = tape.leaf(w_val.clone());
                let o = tape.attn_weighted_sum(w, v);
                to_scalar(tape, o)
            },
            test_tensor(4, 3),
            1e-2,
        );
    }

    #[test]
    fn grad_time_encode() {
        let dts = vec![0.0f32, 0.5, 2.0];
        let phi_val = test_tensor(1, 4);
        let dts2 = dts.clone();
        check_grad(
            &move |tape, omega| {
                let phi = tape.leaf(phi_val.clone());
                let e = tape.time_encode(&dts2, omega, phi);
                to_scalar(tape, e)
            },
            test_tensor(1, 4),
            1e-2,
        );
        let omega_val = test_tensor(1, 4);
        check_grad(
            &move |tape, phi| {
                let omega = tape.leaf(omega_val.clone());
                let e = tape.time_encode(&dts, omega, phi);
                to_scalar(tape, e)
            },
            test_tensor(1, 4),
            1e-2,
        );
    }

    #[test]
    fn grad_dropout_with_fixed_mask() {
        use rand::SeedableRng;
        // Seeding inside the builder regenerates the identical mask for the
        // analytic pass and every finite-difference evaluation.
        check_grad(
            &|tape, x| {
                let mut rng = StdRng::seed_from_u64(99);
                let y = tape.dropout(x, 0.4, &mut rng);
                to_scalar(tape, y)
            },
            test_tensor(4, 3),
            1e-2,
        );
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        use rand::SeedableRng;
        let mut tape = Tape::new();
        let x = tape.leaf(test_tensor(3, 3));
        let mut rng = StdRng::seed_from_u64(1);
        let y = tape.dropout(x, 0.0, &mut rng);
        assert_eq!(x, y, "p = 0 must be a no-op returning the same var");
    }

    #[test]
    fn dropout_preserves_expectation() {
        use rand::SeedableRng;
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(100, 100, 1.0));
        let mut rng = StdRng::seed_from_u64(5);
        let y = tape.dropout(x, 0.3, &mut rng);
        let mean = ops::mean_all(tape.value(y));
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout keeps E[x], got {mean}");
        // Survivors are scaled by 1/(1-p), dropped entries are exactly 0.
        for &v in tape.value(y).as_slice() {
            assert!(v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-5);
        }
    }

    #[test]
    fn grad_bce_with_logits() {
        let targets = vec![1.0f32, 0.0, 1.0, 0.0];
        check_grad(
            &move |tape, logits| tape.bce_with_logits(logits, &targets),
            test_tensor(4, 1),
            1e-2,
        );
    }

    #[test]
    fn bce_loss_value_matches_manual() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::from_vec(2, 1, vec![0.0, 0.0]));
        let loss = tape.bce_with_logits(logits, &[1.0, 0.0]);
        // BCE at logit 0 is ln 2 regardless of the target.
        assert!((tape.value(loss).get(0, 0) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn grads_flow_through_diamond() {
        // x used twice; gradient must accumulate.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 1, vec![3.0]));
        let y = tape.add(x, x); // y = 2x, dy/dx = 2
        let loss = tape.mul(y, y); // loss = 4x^2, d/dx = 8x = 24
        let grads = tape.backward(loss);
        assert!((grads.get(x).unwrap().get(0, 0) - 24.0).abs() < 1e-4);
    }

    #[test]
    fn unused_leaf_gets_no_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 1, vec![1.0]));
        let unused = tape.leaf(Tensor::from_vec(1, 1, vec![5.0]));
        let loss = tape.mul(x, x);
        let grads = tape.backward(loss);
        assert!(grads.get(unused).is_none());
        assert!(grads.get(x).is_some());
    }
}
