//! Elementwise kernels, reductions, masked softmax, concatenation and
//! row gathering — the non-matmul operations TGAT needs.
//!
//! Most operators come in two forms: an allocating convenience wrapper and
//! an `_into` / `_inplace` variant that writes into a caller-provided
//! destination (usually a [`crate::scratch::Scratch`] buffer). The hot path
//! uses the latter so a steady-state attention batch touches the allocator
//! O(1) times; the wrappers keep call sites outside the hot path readable.

use crate::matmul::{axpy, dot};
use crate::Tensor;
use std::ops::Range;

/// Applies `f` to every element, in place.
pub fn map_inplace(t: &mut Tensor, f: impl Fn(f32) -> f32) {
    for v in t.as_mut_slice() {
        *v = f(*v);
    }
}

/// Returns `relu(t)`.
pub fn relu(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    relu_inplace(&mut out);
    out
}

/// `relu` without the copy.
pub fn relu_inplace(t: &mut Tensor) {
    map_inplace(t, |v| v.max(0.0));
}

/// Returns `sigmoid(t)`.
pub fn sigmoid(t: &Tensor) -> Tensor {
    let mut out = t.clone();
    map_inplace(&mut out, |v| 1.0 / (1.0 + (-v).exp()));
    out
}

/// Elementwise sum of two same-shape tensors.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "add: shape mismatch");
    let mut out = a.clone();
    for (o, &bv) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += bv;
    }
    out
}

/// Elementwise difference `a - b`.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "sub: shape mismatch");
    let mut out = a.clone();
    for (o, &bv) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o -= bv;
    }
    out
}

/// Elementwise product of two same-shape tensors.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "mul: shape mismatch");
    let mut out = a.clone();
    for (o, &bv) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o *= bv;
    }
    out
}

/// Scalar multiplication.
pub fn scale(t: &Tensor, s: f32) -> Tensor {
    let mut out = t.clone();
    map_inplace(&mut out, |v| v * s);
    out
}

/// Adds a `1 x cols` bias row to every row of `t`.
pub fn add_bias(t: &Tensor, bias: &Tensor) -> Tensor {
    let mut out = t.clone();
    add_bias_inplace(&mut out, bias);
    out
}

/// `add_bias` without the copy.
///
/// Zero-column (or zero-row) tensors are a no-op: there are no elements to
/// add to, and an explicit early return keeps the `chunks_mut` below away
/// from a zero chunk size.
pub fn add_bias_inplace(t: &mut Tensor, bias: &Tensor) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(bias.cols(), t.cols(), "bias width must match tensor width");
    let cols = t.cols();
    if t.is_empty() {
        return;
    }
    let b = bias.as_slice();
    for row in t.as_mut_slice().chunks_mut(cols) {
        for (o, &bv) in row.iter_mut().zip(b) {
            *o += bv;
        }
    }
}

/// Concatenates tensors side by side (same row count).
pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    let rows = parts.first().map_or(0, |p| p.rows());
    let total: usize = parts.iter().map(|p| p.cols()).sum();
    let mut out = Tensor::zeros(rows, total);
    concat_cols_into(parts, &mut out);
    out
}

/// [`concat_cols`] into a preallocated `[rows, sum(cols)]` destination.
///
/// Every output element is written exactly once (no zero-fill pass), which
/// is what makes this the right way to build the attention inputs
/// `[h | e | Phi]` inside scratch buffers.
pub fn concat_cols_into(parts: &[&Tensor], out: &mut Tensor) {
    assert!(!parts.is_empty(), "concat_cols needs at least one part");
    let rows = parts[0].rows();
    for p in parts {
        assert_eq!(p.rows(), rows, "concat_cols: row count mismatch");
    }
    let total: usize = parts.iter().map(|p| p.cols()).sum();
    assert_eq!(out.shape(), (rows, total), "concat_cols_into: bad output shape");
    for r in 0..rows {
        let orow = out.row_mut(r);
        let mut off = 0;
        for p in parts {
            let w = p.cols();
            orow[off..off + w].copy_from_slice(p.row(r));
            off += w;
        }
    }
}

/// Stacks tensors on top of each other (same column count).
pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat_rows needs at least one part");
    let cols = parts[0].cols();
    let mut data = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    let mut rows = 0;
    for p in parts {
        assert_eq!(p.cols(), cols, "concat_rows: column count mismatch");
        data.extend_from_slice(p.as_slice());
        rows += p.rows();
    }
    Tensor::from_vec(rows, cols, data)
}

/// Gathers rows of `src` by index: `out.row(i) = src.row(idx[i])`.
pub fn gather_rows(src: &Tensor, idx: &[usize]) -> Tensor {
    let mut out = Tensor::zeros(idx.len(), src.cols());
    gather_rows_into(src, idx, &mut out);
    out
}

/// [`gather_rows`] into a preallocated `[idx.len(), src.cols()]`
/// destination; prior contents are overwritten.
pub fn gather_rows_into(src: &Tensor, idx: &[usize], out: &mut Tensor) {
    let cols = src.cols();
    assert_eq!(out.shape(), (idx.len(), cols), "gather_rows_into: bad output shape");
    if out.is_empty() {
        return;
    }
    for (orow, &r) in out.as_mut_slice().chunks_mut(cols).zip(idx) {
        orow.copy_from_slice(src.row(r));
    }
}

/// [`gather_rows_into`] with the index list expressed as a map over
/// `0..n`: `out.row(i) = src.row(map(i))`. Lets hot-path callers translate
/// ids (node ids, edge ids with padding) on the fly instead of
/// materialising a `Vec<usize>` index buffer per batch.
pub fn gather_rows_map_into<F>(src: &Tensor, n: usize, map: F, out: &mut Tensor)
where
    F: Fn(usize) -> usize,
{
    let cols = src.cols();
    assert_eq!(out.shape(), (n, cols), "gather_rows_map_into: bad output shape");
    if out.is_empty() {
        return;
    }
    for (i, orow) in out.as_mut_slice().chunks_mut(cols).enumerate() {
        orow.copy_from_slice(src.row(map(i)));
    }
}

/// Splits the first `n` rows off a tensor, returning `(head, tail)`.
pub fn split_rows(t: &Tensor, n: usize) -> (Tensor, Tensor) {
    assert!(n <= t.rows(), "split point beyond row count");
    let cols = t.cols();
    let head = Tensor::from_vec(n, cols, t.as_slice()[..n * cols].to_vec());
    let tail = Tensor::from_vec(t.rows() - n, cols, t.as_slice()[n * cols..].to_vec());
    (head, tail)
}

/// Masked row softmax used by the attention operator.
///
/// `mask[r * cols + c] == false` marks a padding slot whose weight must be
/// exactly zero. Rows whose slots are all masked produce all-zero weights
/// (a node with no temporal neighbors aggregates nothing).
pub fn softmax_rows_masked(t: &Tensor, mask: &[bool]) -> Tensor {
    let mut out = t.clone();
    scale_softmax_rows_masked_inplace(&mut out, 1.0, mask);
    out
}

/// Fused `softmax_rows(masked(scale * t))`, in place.
///
/// The scale is folded into the exponent — `exp(s*v - max(s*v))` equals
/// `exp((v - max_v) * s)` for `s > 0` — so the scores tensor is read and
/// written once instead of taking a separate scaling pass. This is the form
/// the attention operator wants: `softmax(QK^T / sqrt(d))` with the mask
/// marking padded neighbor slots.
pub fn scale_softmax_rows_masked_inplace(t: &mut Tensor, s: f32, mask: &[bool]) {
    assert!(s > 0.0, "softmax scale must be positive (got {s})");
    assert_eq!(mask.len(), t.len(), "mask length must match tensor size");
    let cols = t.cols();
    if t.is_empty() {
        return; // zero rows or zero cols: nothing to normalize
    }
    for (row, mrow) in t.as_mut_slice().chunks_mut(cols).zip(mask.chunks(cols)) {
        let mut max = f32::NEG_INFINITY;
        for (v, &m) in row.iter().zip(mrow) {
            if m && *v > max {
                max = *v;
            }
        }
        if max == f32::NEG_INFINITY {
            row.fill(0.0);
            continue;
        }
        let mut sum = 0.0;
        for (v, &m) in row.iter_mut().zip(mrow) {
            if m {
                *v = ((*v - max) * s).exp();
                sum += *v;
            } else {
                *v = 0.0;
            }
        }
        let inv = 1.0 / sum;
        row.iter_mut().for_each(|v| *v *= inv);
    }
}

/// Batched attention scores: `q` is `[N, d]`, `key` is `[N*K, d]`, result is
/// `[N, K]` with `s[n,k] = <q_n, key_{n*K+k}> * scale`.
///
/// This is the hot kernel of the temporal attention operator `M`; each
/// target's score row is independent of the others.
pub fn attn_scores(q: &Tensor, key: &Tensor, scale: f32) -> Tensor {
    let n = q.rows();
    if n == 0 {
        return Tensor::zeros(0, 0);
    }
    let k = key.rows() / n;
    let mut out = Tensor::zeros(n, k);
    attn_scores_into(q, key, 0..key.cols(), scale, &mut out);
    out
}

/// [`attn_scores`] into a preallocated `[N, K]` destination, each key read
/// from the columns `key_cols` of its row of a wider `key` (one head's K
/// block of every head's K|V); prior contents are overwritten. For
/// `N == 0` the destination must have zero rows.
pub fn attn_scores_into(q: &Tensor, key: &Tensor, key_cols: Range<usize>, scale: f32, out: &mut Tensor) {
    let (n, d) = q.shape();
    if n == 0 {
        assert_eq!(out.rows(), 0, "attn_scores_into: bad output shape");
        return;
    }
    assert_eq!(key.rows() % n, 0, "key rows must be a multiple of q rows");
    assert!(key_cols.len() == d && key_cols.end <= key.cols(), "attn_scores dim mismatch");
    let k = key.rows() / n;
    assert_eq!(out.shape(), (n, k), "attn_scores_into: bad output shape");
    if k == 0 {
        return;
    }
    for (i, orow) in out.as_mut_slice().chunks_mut(k).enumerate() {
        let qr = q.row(i);
        for (j, o) in orow.iter_mut().enumerate() {
            *o = dot(qr, &key.row(i * k + j)[key_cols.clone()]) * scale;
        }
    }
}

/// Batched weighted neighbor sum: `w` is `[N, K]`, `v` is `[N*K, d]`, result
/// is `[N, d]` with `out_n = sum_k w[n,k] * v_{n*K+k}`.
pub fn attn_weighted_sum(w: &Tensor, v: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(w.rows(), v.cols());
    attn_weighted_sum_into(w, v, 0..v.cols(), &mut out, 0);
    out
}

/// [`attn_weighted_sum`] over the columns `v_cols` of each `v` row (one
/// head's V block of every head's K|V), writing the head's output directly
/// into the column block `[col_off, col_off + v_cols.len())` of a wider
/// `[N, D]` destination.
///
/// Multi-head attention concatenates per-head outputs; giving the sum a
/// column offset writes each head straight into its slot of the concat
/// buffer, eliminating the per-head temporary plus copy. The target block is
/// zeroed first; the per-slot `weight == 0.0` skip is the masked-padding
/// fast path (softmax writes exact zeros there), not a dense-path branch.
pub fn attn_weighted_sum_into(w: &Tensor, v: &Tensor, v_cols: Range<usize>, out: &mut Tensor, col_off: usize) {
    let (n, k) = w.shape();
    assert_eq!(v.rows(), n * k, "value rows must equal N*K");
    assert!(v_cols.start <= v_cols.end && v_cols.end <= v.cols(), "attn_weighted_sum_into: value columns out of range");
    let d = v_cols.len();
    assert_eq!(out.rows(), n, "attn_weighted_sum_into: row count mismatch");
    assert!(col_off + d <= out.cols(), "attn_weighted_sum_into: column block out of range");
    if n == 0 || d == 0 {
        return;
    }
    let cols = out.cols();
    for (i, orow_full) in out.as_mut_slice().chunks_mut(cols).enumerate() {
        let orow = &mut orow_full[col_off..col_off + d];
        orow.fill(0.0);
        for j in 0..k {
            let weight = w.get(i, j);
            if weight == 0.0 {
                continue; // masked padding slots
            }
            axpy(weight, &v.row(i * k + j)[v_cols.clone()], orow);
        }
    }
}

/// Sum of all elements.
pub fn sum_all(t: &Tensor) -> f32 {
    t.as_slice().iter().sum()
}

/// Mean of all elements (0 for an empty tensor).
pub fn mean_all(t: &Tensor) -> f32 {
    if t.is_empty() {
        0.0
    } else {
        sum_all(t) / t.len() as f32 // lint: allow(lossy-cast, element counts stay far below 2^24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(relu(&t).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn sigmoid_midpoint_and_bounds() {
        let t = Tensor::from_vec(1, 3, vec![0.0, 100.0, -100.0]);
        let s = sigmoid(&t);
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((s.get(0, 1) - 1.0).abs() < 1e-6);
        assert!(s.get(0, 2) < 1e-6);
    }

    #[test]
    fn add_sub_mul_scale() {
        let a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(mul(&a, &b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(scale(&a, 2.0).as_slice(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn add_bias_broadcasts() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::row_vector(&[10.0, 20.0]);
        assert_eq!(add_bias(&t, &b).as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn add_bias_zero_cols_and_rows() {
        // The old implementation papered over cols == 0 with `cols.max(1)`;
        // now it is an explicit no-op for any empty tensor.
        let empty_cols = Tensor::zeros(3, 0);
        let out = add_bias(&empty_cols, &Tensor::zeros(1, 0));
        assert_eq!(out.shape(), (3, 0));
        let empty_rows = Tensor::zeros(0, 4);
        let out = add_bias(&empty_rows, &Tensor::row_vector(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(out.shape(), (0, 4));
    }

    #[test]
    fn concat_cols_layout() {
        let a = Tensor::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 3.0, 4.0]);
        assert_eq!(c.row(1), &[2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_cols_into_overwrites_stale() {
        let a = Tensor::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let mut out = Tensor::full(2, 3, 42.0);
        concat_cols_into(&[&a, &b], &mut out);
        assert_eq!(out.as_slice(), concat_cols(&[&a, &b]).as_slice());
    }

    #[test]
    fn concat_rows_layout() {
        let a = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let c = concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn gather_and_split() {
        let src = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = gather_rows(&src, &[2, 0, 2]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
        let (h, t) = split_rows(&src, 1);
        assert_eq!(h.shape(), (1, 2));
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.row(0), &[3.0, 4.0]);
    }

    #[test]
    fn gather_rows_map_into_matches_gather_rows() {
        let src = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let idx = [2usize, 0, 2, 1];
        let expect = gather_rows(&src, &idx);
        let mut out = Tensor::full(4, 2, 9.0);
        gather_rows_map_into(&src, idx.len(), |i| idx[i], &mut out);
        assert_eq!(out.as_slice(), expect.as_slice());
    }

    #[test]
    fn gather_rows_zero_cols() {
        let src = Tensor::zeros(3, 0);
        let g = gather_rows(&src, &[0, 2, 1, 1]);
        assert_eq!(g.shape(), (4, 0));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let mask = vec![true; 6];
        let s = softmax_rows_masked(&t, &mask);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Softmax is monotone in its inputs.
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn softmax_masks_padding() {
        let t = Tensor::from_vec(1, 3, vec![5.0, 1.0, 100.0]);
        let mask = vec![true, true, false];
        let s = softmax_rows_masked(&t, &mask);
        assert_eq!(s.get(0, 2), 0.0);
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_all_masked_row_is_zero() {
        let t = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        let s = softmax_rows_masked(&t, &[false, false]);
        assert_eq!(s.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let t = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let shifted = Tensor::from_vec(1, 3, vec![1001.0, 1002.0, 1003.0]);
        let mask = vec![true; 3];
        let a = softmax_rows_masked(&t, &mask);
        let b = softmax_rows_masked(&shifted, &mask);
        assert!(a.max_abs_diff(&b) < 1e-5);
    }

    #[test]
    fn fused_scale_softmax_matches_composition() {
        let t = Tensor::from_vec(2, 4, vec![1.0, -2.0, 0.5, 3.0, 0.0, 0.0, 1.0, -1.0]);
        let mask = vec![true, true, false, true, true, false, true, true];
        let s = 0.25;
        let mut fused = t.clone();
        scale_softmax_rows_masked_inplace(&mut fused, s, &mask);
        let composed = softmax_rows_masked(&scale(&t, s), &mask);
        assert!(fused.max_abs_diff(&composed) < 1e-6);
    }

    #[test]
    fn fused_scale_softmax_zero_shapes() {
        let mut t = Tensor::zeros(0, 3);
        scale_softmax_rows_masked_inplace(&mut t, 1.0, &[]);
        let mut t = Tensor::zeros(3, 0);
        scale_softmax_rows_masked_inplace(&mut t, 1.0, &[]);
    }

    #[test]
    fn attn_kernels_read_and_write_column_blocks() {
        // Keys and values read from a column block of wider rows (one
        // head's K or V block of every head's K|V), and the sum written into
        // a column block of a wider tensor, must equal the standalone
        // kernels on the block alone, leaving other columns alone.
        let w = Tensor::from_vec(2, 2, vec![0.5, 0.5, 1.0, 0.0]);
        let v = Tensor::from_vec(4, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let kv = Tensor::from_vec(4, 5, (0..4).flat_map(|r| [9.0, -1.0, v.get(r, 0), v.get(r, 1), 9.0]).collect());
        let standalone = attn_weighted_sum(&w, &v);
        let mut wide = Tensor::full(2, 5, 7.0);
        attn_weighted_sum_into(&w, &kv, 2..4, &mut wide, 2);
        for i in 0..2 {
            assert_eq!(&wide.row(i)[2..4], standalone.row(i));
            assert_eq!(wide.row(i)[0], 7.0);
            assert_eq!(wide.row(i)[4], 7.0);
        }
        let q = Tensor::from_vec(2, 2, vec![0.25, -2.0, 1.5, 3.0]);
        let mut scores = Tensor::full(2, 2, 7.0);
        attn_scores_into(&q, &kv, 2..4, 0.5, &mut scores);
        assert_eq!(scores.as_slice(), attn_scores(&q, &v, 0.5).as_slice());
    }

    #[test]
    fn attn_kernels_zero_shapes() {
        assert_eq!(attn_scores(&Tensor::zeros(0, 4), &Tensor::zeros(0, 4), 1.0).shape(), (0, 0));
        let mut out = Tensor::zeros(0, 0);
        attn_scores_into(&Tensor::zeros(0, 4), &Tensor::zeros(0, 4), 0..4, 1.0, &mut out);
        assert_eq!(attn_weighted_sum(&Tensor::zeros(0, 0), &Tensor::zeros(0, 3)).shape(), (0, 3));
        assert_eq!(attn_weighted_sum(&Tensor::zeros(2, 1), &Tensor::zeros(2, 0)).shape(), (2, 0));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum_all(&t), 10.0);
        assert_eq!(mean_all(&t), 2.5);
        assert_eq!(mean_all(&Tensor::zeros(0, 3)), 0.0);
    }
}
