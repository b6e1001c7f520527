//! Blocked, register-tiled matrix multiplication kernels.
//!
//! Three layouts cover the forward pass and both backward products of a
//! linear layer without materializing any transposes:
//!
//! * [`matmul`]    — `C = A * B`
//! * [`matmul_nt`] — `C = A * B^T` (B stored `[n, k]`)
//! * [`matmul_tn`] — `C = A^T * B` (A stored `[m, k]`, producing `[k, n]`)
//!
//! plus the fused [`addmm`] (`C = A * B + bias`), which is what a linear
//! layer actually wants.
//!
//! # Kernel architecture
//!
//! All dense work funnels into a 4×16 register-tiled rank-1 microkernel
//! ([`full_panel`]): four rows of `A` update a 16-column panel of `C` held
//! in four `[f32; NR]` accumulator rows, so each 16-wide load of a `B` row
//! feeds four multiply-add pairs (separate `vmulps`/`vaddps`, never FMA:
//! the sum is bit-equal to [`reference::matmul`]) and `C` is written once
//! per panel instead of once per `k`-step. The accumulator rows are
//! separate locals indexed only by constant-trip loops, which is what lets
//! LLVM keep them in registers; the ragged last panel (`n % 16` columns)
//! lives in its own function ([`ragged_panel`]) so its runtime-indexed
//! accumulators cannot drag the hot loop's onto the stack.
//!
//! LLVM auto-vectorises [`full_panel`] at most 256 bits wide, even where
//! the build targets AVX-512. Such builds run `full_panel_avx512` instead:
//! the same sum in one 16-lane register per accumulator row, chosen at
//! build time ([`FULL_PANEL`] names the one compiled in). The portable
//! panel is compiled everywhere: it is the path on every other target and
//! under Miri, and the bit reference for the wide one.
//!
//! The dense path carries **no** per-element `if av == 0.0` skip. TGAT's
//! layer-0 inputs are zero node-feature rows concatenated with dense time
//! encodings, so sparsity appears as a contiguous zero *prefix/suffix* of
//! each `A` row; a per-row pre-scan ([`nonzero_span`]) shrinks the `k`
//! range once, and the inner loops stay branch-free.
//!
//! Every kernel keeps a naive triple-loop twin in [`reference`] for
//! equivalence testing.

use crate::Tensor;

/// Row-block height of the microkernel (rows of `A` per register tile).
pub const MR: usize = 4;

/// Column-panel width of the microkernel (columns of `C` per register
/// tile); two 8-lane vectors, or one 16-lane vector on AVX-512.
pub const NR: usize = 16;

/// Which full-width panel [`matmul`], [`matmul_into`] and [`addmm`] run in
/// this build; `tune` prints it above its GFLOP/s.
pub const FULL_PANEL: &str = if cfg!(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    not(miri)
)) {
    "avx512f: one 16-lane zmm accumulator per row"
} else {
    "portable: auto-vectorised [f32; 16] accumulator rows"
};

/// Dot product with two independent 8-lane accumulator banks.
///
/// The banks break the additive dependency chain so LLVM can keep two
/// vector accumulators in flight; the scalar tail handles `len % 16`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc0 = [0.0f32; 8];
    let mut acc1 = [0.0f32; 8];
    let mut ca = a.chunks_exact(16);
    let mut cb = b.chunks_exact(16);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..8 {
            acc0[j] += xa[j] * xb[j];
        }
        for j in 0..8 {
            acc1[j] += xa[8 + j] * xb[8 + j];
        }
    }
    let mut s = 0.0;
    for j in 0..8 {
        s += acc0[j] + acc1[j];
    }
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        s += xa * xb;
    }
    s
}

/// `y += alpha * x`, 8-lane unrolled.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let mut cy = y.chunks_exact_mut(8);
    let mut cx = x.chunks_exact(8);
    for (yy, xx) in (&mut cy).zip(&mut cx) {
        for j in 0..8 {
            yy[j] += alpha * xx[j];
        }
    }
    for (yy, xx) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yy += alpha * xx;
    }
}

/// `y += a0*x0 + a1*x1 + a2*x2 + a3*x3`, 8-lane unrolled.
///
/// Fusing four axpys loads and stores each element of `y` once instead of
/// four times — the update kernel of [`matmul_tn`] and the attention
/// weighted sum.
#[inline]
pub fn axpy4(al: [f32; 4], x0: &[f32], x1: &[f32], x2: &[f32], x3: &[f32], y: &mut [f32]) {
    debug_assert!(x0.len() == y.len() && x1.len() == y.len());
    debug_assert!(x2.len() == y.len() && x3.len() == y.len());
    let n = y.len();
    let lanes = n - n % 8;
    let mut j = 0;
    while j < lanes {
        // Constant-length sub-slices so the inner loop is branch-free SIMD.
        let yy = &mut y[j..j + 8];
        let (c0, c1, c2, c3) = (&x0[j..j + 8], &x1[j..j + 8], &x2[j..j + 8], &x3[j..j + 8]);
        for t in 0..8 {
            yy[t] += al[0] * c0[t] + al[1] * c1[t] + al[2] * c2[t] + al[3] * c3[t];
        }
        j += 8;
    }
    while j < n {
        y[j] += al[0] * x0[j] + al[1] * x1[j] + al[2] * x2[j] + al[3] * x3[j];
        j += 1;
    }
}

/// Nonzero column span `[lo, hi)` of a row; `(0, 0)` when entirely zero.
///
/// This is the pre-scan that replaces the old per-element `if av == 0.0`
/// branch: TGAT's zero node features produce zero row *prefixes* after
/// `[h | e | Phi]` concatenation, which a span captures exactly while the
/// dense inner loops stay branch-free.
#[inline]
fn nonzero_span(row: &[f32]) -> (usize, usize) {
    let lo = match row.iter().position(|&v| v != 0.0) {
        Some(i) => i,
        None => return (0, 0),
    };
    let hi = row.iter().rposition(|&v| v != 0.0).map_or(lo, |i| i + 1);
    (lo, hi)
}

/// Full-width panel of the 4×16 microkernel:
/// `C[r, off..off+NR] += seed[r] + A[r, :] * B[:, off..off+NR]` for the
/// `rows` live rows of one row-quad, with `a` and `b` already cut to the
/// quad's span. Each lane's sum starts at its `seed` value — `+0.0`
/// ([`ZERO_SEED`]) for a plain product — and adds the terms in ascending
/// `k`, so a sum seeded with the product over a row's first columns
/// continues it bit for bit ([`matmul_seeded_into`]).
///
/// The shape of this function is load-bearing (DESIGN.md "Kernel
/// architecture"): each accumulator row is its own fixed-size local that
/// only constant-trip loops index, so all eight 8-lane accumulators stay in
/// registers for the whole `k` loop; the `A` rows are sliced to one length
/// up front so `a_r[kk]` needs no per-step check. Kept out of line so
/// `objdump -d` can show it.
#[inline(never)]
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512f", not(miri)),
    allow(dead_code) // only the panel-vs-panel bit test calls it there
)]
fn full_panel(a: [&[f32]; MR], rows: usize, b: &[f32], n: usize, c: &mut [f32], off: usize, seed: [&[f32]; MR]) {
    let len = a[0].len();
    let (a0, a1, a2, a3) = (a[0], &a[1][..len], &a[2][..len], &a[3][..len]);
    let (mut c0, mut c1, mut c2, mut c3) = ([0.0f32; NR], [0.0f32; NR], [0.0f32; NR], [0.0f32; NR]);
    for (acc, s) in [&mut c0, &mut c1, &mut c2, &mut c3].into_iter().zip(seed) {
        acc.copy_from_slice(&s[..NR]);
    }
    for kk in 0..len {
        let bp = &b[kk * n + off..][..NR];
        for j in 0..NR {
            c0[j] += a0[kk] * bp[j];
        }
        for j in 0..NR {
            c1[j] += a1[kk] * bp[j];
        }
        for j in 0..NR {
            c2[j] += a2[kk] * bp[j];
        }
        for j in 0..NR {
            c3[j] += a3[kk] * bp[j];
        }
    }
    for (r, acc) in [c0, c1, c2, c3].iter().enumerate().take(rows) {
        let crow = &mut c[r * n + off..][..NR];
        for j in 0..NR {
            crow[j] += acc[j];
        }
    }
}

/// [`full_panel`] at the full AVX-512 width: one `__m512` accumulator per
/// quad row, so a `k`-step is one 512-bit load of the `B` row, four
/// multiplies by a broadcast `A` value and four adds. Each lane computes
/// what the portable panel's does, an IEEE multiply and then an add, from
/// `+0.0` in ascending `k`, and never an FMA, so the two panels give the
/// same bits (`avx512_panel_is_bit_equal_to_portable`).
///
/// # Safety
/// The host must have AVX-512F; builds that compile this fn target it.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f", not(miri)))]
#[inline(never)]
#[target_feature(enable = "avx512f")]
fn full_panel_avx512(a: [&[f32]; MR], rows: usize, b: &[f32], n: usize, c: &mut [f32], off: usize, seed: [&[f32]; MR]) {
    use core::arch::x86_64::*;
    let len = a[0].len();
    let (a0, a1, a2, a3) = (a[0], &a[1][..len], &a[2][..len], &a[3][..len]);
    // safety: each seed row is a checked slice of NR = 16 f32s, the load's width.
    let [mut c0, mut c1, mut c2, mut c3] = seed.map(|s| unsafe { _mm512_loadu_ps(s[..NR].as_ptr()) });
    for kk in 0..len {
        let bp = &b[kk * n + off..][..NR];
        // safety: `bp` is a checked slice of NR = 16 f32s, the load's width.
        let bv = unsafe { _mm512_loadu_ps(bp.as_ptr()) };
        c0 = _mm512_add_ps(c0, _mm512_mul_ps(_mm512_set1_ps(a0[kk]), bv));
        c1 = _mm512_add_ps(c1, _mm512_mul_ps(_mm512_set1_ps(a1[kk]), bv));
        c2 = _mm512_add_ps(c2, _mm512_mul_ps(_mm512_set1_ps(a2[kk]), bv));
        c3 = _mm512_add_ps(c3, _mm512_mul_ps(_mm512_set1_ps(a3[kk]), bv));
    }
    for (r, acc) in [c0, c1, c2, c3].into_iter().enumerate().take(rows) {
        let mut lanes = [0.0f32; NR];
        // safety: `lanes` is a local array of NR = 16 f32s, the store's width.
        unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), acc) };
        let crow = &mut c[r * n + off..][..NR];
        for j in 0..NR {
            crow[j] += lanes[j];
        }
    }
}

/// The ragged last panel (columns `off..n`, fewer than `NR`) of a row-quad:
/// same sum as [`full_panel`], with its own runtime-indexed accumulators so
/// their stack slots never touch the full-width loop.
#[inline(never)]
fn ragged_panel(a: [&[f32]; MR], rows: usize, b: &[f32], n: usize, c: &mut [f32], off: usize, seed: [&[f32]; MR]) {
    let w = n - off;
    debug_assert!(w < NR);
    let mut acc = [[0.0f32; NR]; MR];
    for (acc, s) in acc.iter_mut().zip(seed) {
        acc[..w].copy_from_slice(&s[..w]);
    }
    for kk in 0..a[0].len() {
        let bp = &b[kk * n + off..][..w];
        for r in 0..MR {
            for j in 0..w {
                acc[r][j] += a[r][kk] * bp[j];
            }
        }
    }
    for r in 0..rows {
        let crow = &mut c[r * n + off..][..w];
        for j in 0..w {
            crow[j] += acc[r][j];
        }
    }
}

/// The seed of every lane of a plain (unseeded) product.
const ZERO_SEED: [f32; NR] = [0.0; NR];

/// Computes one row-quad of `C += seed + A * B`: `c` holds `rows` output
/// rows (`rows <= MR`); missing quad rows alias row 0 and are computed but
/// never stored. `seed` rows are `n` wide; `None` seeds every lane `+0.0`.
fn mm_quad(a: [&[f32]; MR], rows: usize, b: &[f32], n: usize, c: &mut [f32], seed: Option<[&[f32]; MR]>) {
    // Union span over the live rows: one pre-scan per row per quad.
    let mut lo = usize::MAX;
    let mut hi = 0usize;
    for row in a.iter().take(rows) {
        let (l, h) = nonzero_span(row);
        if l < h {
            lo = lo.min(l);
            hi = hi.max(h);
        }
    }
    if lo >= hi {
        if seed.is_none() {
            return; // all live rows zero: C rows keep their initial value
        }
        (lo, hi) = (0, 0); // no terms: each lane stores its seed
    }
    let a = a.map(|row| &row[lo..hi]);
    let b = &b[lo * n..hi * n];
    let seed_at = |off: usize| seed.map_or([&ZERO_SEED[..]; MR], |s| s.map(|row| &row[off..]));
    let mut off = 0;
    while off + NR <= n {
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f", not(miri)))]
        // safety: compiled only when the whole build enables avx512f.
        unsafe {
            full_panel_avx512(a, rows, b, n, c, off, seed_at(off))
        };
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f", not(miri))))]
        full_panel(a, rows, b, n, c, off, seed_at(off));
        off += NR;
    }
    if off < n {
        ragged_panel(a, rows, b, n, c, off, seed_at(off));
    }
}

/// `C[m,n] = A[m,k] * B[k,n]`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(a.rows(), b.cols());
    matmul_accumulate(a, b, &mut c);
    c
}

/// [`matmul`] into a preallocated `[A.rows(), B.cols()]` destination; prior
/// contents are overwritten.
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    c.as_mut_slice().fill(0.0);
    matmul_accumulate(a, b, c);
}

/// `C = A * B + bias` (bias broadcast over rows) — the fused linear-layer
/// kernel: the bias seeds the output instead of a separate add pass.
///
/// # Panics
/// Panics if shapes disagree or `bias` is not `1 x B.cols()`.
pub fn addmm(a: &Tensor, b: &Tensor, bias: &Tensor) -> Tensor {
    let mut c = Tensor::zeros(a.rows(), b.cols());
    addmm_into(a, b, bias, &mut c);
    c
}

/// [`addmm`] writing into a preallocated `c` (any prior contents are
/// overwritten). `c` must already have shape `[A.rows(), B.cols()]`.
pub fn addmm_into(a: &Tensor, b: &Tensor, bias: &Tensor, c: &mut Tensor) {
    assert_eq!(bias.rows(), 1, "addmm: bias must be a row vector");
    assert_eq!(bias.cols(), b.cols(), "addmm: bias width must match B");
    assert_eq!(c.shape(), (a.rows(), b.cols()), "addmm: bad output shape");
    let bias_row = bias.as_slice();
    for r in 0..c.rows() {
        c.row_mut(r).copy_from_slice(bias_row);
    }
    matmul_accumulate(a, b, c);
}

/// `C += A * B` into an existing, correctly-shaped output, one row-quad at
/// a time from the top.
fn matmul_accumulate(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k) = a.shape();
    let (k2, n) = b.shape();
    assert_eq!(k, k2, "matmul: inner dimensions differ ({k} vs {k2})");
    assert_eq!(c.shape(), (m, n), "matmul: bad output shape");
    if m == 0 || n == 0 || k == 0 {
        return; // degenerate shapes: explicit early return, output untouched
    }
    mm_rows(|r| a.row(r), b, c.as_mut_slice(), None);
}

/// `C += seed + A * B` over `c.len() / B.cols()` rows, row `r` of `A` read
/// from `a(r)`, one row-quad at a time from the top.
fn mm_rows<'a, 's>(
    a: impl Fn(usize) -> &'a [f32],
    b: &Tensor,
    c: &mut [f32],
    seed: Option<&dyn Fn(usize) -> &'s [f32]>,
) {
    let n = b.cols();
    let m = c.len() / n;
    let b = b.as_slice();
    let mut r = 0;
    while r < m {
        let rows = (m - r).min(MR);
        let quad = [0, 1, 2, 3].map(|i| r + i.min(rows - 1));
        let seed = seed.map(|s| quad.map(s));
        mm_quad(quad.map(&a), rows, b, n, &mut c[r * n..(r + rows) * n], seed);
        r += rows;
    }
}

/// `C = A * B` for `c.len() / B.cols()` rows of `A` read from `a(r)`,
/// wherever they live (rows of a feature table by id, say); bit-identical
/// to [`matmul_into`] over the same rows gathered into a tensor.
///
/// # Panics
/// Panics if a row of `A` is not `B.rows()` long or `c.len()` is not a
/// multiple of `B.cols()`.
pub fn matmul_rows_into<'a>(a: impl Fn(usize) -> &'a [f32], b: &Tensor, c: &mut [f32]) {
    let (k, n) = b.shape();
    assert!(n > 0 && c.len().is_multiple_of(n), "matmul_rows_into: bad output length");
    c.fill(0.0);
    if k > 0 {
        mm_rows(|r| &a(r)[..k], b, c, None);
    }
}

/// `C = 0.0 + (seed + A * B)`, each lane's sum *starting* at its seed
/// `seed(r)[j]` and adding `A[r, k] * B[k, j]` in ascending `k`; `A` is the
/// row-major `[C.rows(), B.rows()]` slice `a`.
///
/// This is the plain product's own sum continued: if the seed row is the
/// product of a row's leading columns by `B`'s leading rows, the result is
/// bit-identical to the product of the whole row by the whole of `B`
/// (`seeded_continuation_is_bit_equal_to_the_full_row`), for finite `B`.
/// The lane arithmetic is the plain kernel's — mul then add, never FMA —
/// and since a sum from `+0.0` is never `-0.0`, `0.0 + seed` is the seed.
///
/// # Panics
/// Panics if `a` or a seed row is too short for the shapes.
pub fn matmul_seeded_into<'s>(a: &[f32], b: &Tensor, seed: impl Fn(usize) -> &'s [f32], c: &mut Tensor) {
    let (k, n) = b.shape();
    let m = c.rows();
    assert_eq!(c.cols(), n, "matmul_seeded_into: bad output shape");
    assert!(a.len() >= m * k, "matmul_seeded_into: A has fewer than {m} x {k} values");
    if m == 0 || n == 0 {
        return;
    }
    let c = c.as_mut_slice();
    c.fill(0.0);
    mm_rows(|r| &a[r * k..(r + 1) * k], b, c, Some(&|r| &seed(r)[..n]));
}

/// `C[m,n] = A[m,k] * B^T` where `B` is stored as `[n, k]`.
///
/// Each output element is a dot product of two contiguous rows, which is the
/// natural layout for attention scores (`Q * K^T`).
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (n, k2) = b.shape();
    assert_eq!(k, k2, "matmul_nt: inner dimensions differ ({k} vs {k2})");
    let mut c = Tensor::zeros(m, n);
    if m == 0 || n == 0 {
        return c;
    }
    for (i, crow) in c.as_mut_slice().chunks_mut(n).enumerate() {
        let ar = a.row(i);
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv = dot(ar, b.row(j));
        }
    }
    c
}

/// `C[k,n] = A^T * B` where `A` is stored as `[m, k]` and `B` as `[m, n]`.
///
/// This is the weight-gradient product of a linear layer
/// (`dW = X^T * dY`), computed one output row (column of `A`) at a time.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let (m2, n) = b.shape();
    assert_eq!(m, m2, "matmul_tn: outer dimensions differ ({m} vs {m2})");
    let mut c = Tensor::zeros(k, n);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    let asl = a.as_slice();
    let quads = m - m % MR;
    for (i, crow) in c.as_mut_slice().chunks_mut(n).enumerate() {
        let mut r = 0;
        while r < quads {
            let al = [
                asl[r * k + i],
                asl[(r + 1) * k + i],
                asl[(r + 2) * k + i],
                asl[(r + 3) * k + i],
            ];
            axpy4(al, b.row(r), b.row(r + 1), b.row(r + 2), b.row(r + 3), crow);
            r += MR;
        }
        while r < m {
            axpy(asl[r * k + i], b.row(r), crow);
            r += 1;
        }
    }
    c
}

/// Naive triple-loop twins of every matmul-family kernel.
///
/// These are the semantics the optimized kernels must reproduce; the unit
/// and property tests (`tests/prop_kernels.rs`) compare against them within
/// 1e-5. Deliberately unoptimized — change them only when the *meaning* of
/// a kernel changes.
pub mod reference {
    use crate::Tensor;

    /// Reference `C = A * B`.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    /// Reference `C = A * B^T` (B stored `[n, k]`).
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let n = b.rows();
        let mut c = Tensor::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for kk in 0..k {
                    s += a.get(i, kk) * b.get(j, kk);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    /// Reference `C = A^T * B` (A stored `[m, k]`).
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Tensor::zeros(k, n);
        for i in 0..k {
            for j in 0..n {
                let mut s = 0.0;
                for r in 0..m {
                    s += a.get(r, i) * b.get(r, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    /// Reference `C = A * B + bias`.
    pub fn addmm(a: &Tensor, b: &Tensor, bias: &Tensor) -> Tensor {
        let mut c = matmul(a, b);
        for r in 0..c.rows() {
            for j in 0..c.cols() {
                let v = c.get(r, j) + bias.get(0, j);
                c.set(r, j, v);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(rows: usize, cols: usize, scale: f32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i as f32 * 0.73).sin()) * scale)
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn transpose(t: &Tensor) -> Tensor {
        let (r, c) = t.shape();
        let mut out = Tensor::zeros(c, r);
        for i in 0..r {
            for j in 0..c {
                out.set(j, i, t.get(i, j));
            }
        }
        out
    }

    #[test]
    fn matmul_matches_reference_small() {
        let a = seq_tensor(3, 4, 1.0);
        let b = seq_tensor(4, 5, 2.0);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&reference::matmul(&a, &b)) < 1e-5);
    }

    #[test]
    fn matmul_matches_reference_odd_shapes() {
        // Shapes straddling the MR/NR tile sizes: quad tails, panel tails.
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 17), (4, 16, 16), (6, 3, 33), (9, 40, 15)] {
            let a = seq_tensor(m, k, 1.0);
            let b = seq_tensor(k, n, 1.0);
            let c = matmul(&a, &b);
            assert!(
                c.max_abs_diff(&reference::matmul(&a, &b)) < 1e-5,
                "({m},{k},{n}) diverged"
            );
        }
    }

    #[test]
    fn matmul_skips_zero_spans() {
        // Zero prefix/suffix rows (the TGAT layer-0 shape) and fully-zero
        // rows must give exactly the dense result.
        let mut a = seq_tensor(5, 12, 1.0);
        for j in 0..6 {
            a.set(0, j, 0.0); // zero prefix
            a.set(1, 6 + j, 0.0); // zero suffix
        }
        for j in 0..12 {
            a.set(2, j, 0.0); // fully zero row
        }
        let b = seq_tensor(12, 20, 1.0);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&reference::matmul(&a, &b)) < 1e-5);
        assert!(c.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn kernel_sum_is_bit_equal_to_reference() {
        // The microkernel's sum is the naive sequential-k sum: the terms the
        // span pre-scan skips are exact zeros. Pinned bit for bit over every
        // quad/panel remainder so an FMA, a reassociation or a changed span
        // rule cannot slip in. Rows cycle through: dense, zero prefix, zero
        // suffix, interior zeros, all-zero (lands inside a quad), prefix
        // and suffix both.
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut shapes = 0;
        for &m in &[1usize, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65] {
            for &k in &[1usize, 5, 32, 64, 236] {
                let mut a = seq_tensor(m, k, 1.0);
                for r in 0..m {
                    let row = a.row_mut(r);
                    match r % 6 {
                        1 => row[..k / 2].fill(0.0),
                        2 => row[k - k / 3..].fill(0.0),
                        3 => row.iter_mut().step_by(3).for_each(|v| *v = 0.0),
                        4 => row.fill(0.0),
                        5 => {
                            row[..k / 4].fill(0.0);
                            row[k - k / 4..].fill(0.0);
                        }
                        _ => {}
                    }
                }
                for &n in &[1usize, 7, 15, 16, 17, 31, 32, 33, 64] {
                    let b = seq_tensor(k, n, 1.0);
                    let want = reference::matmul(&a, &b);
                    assert_eq!(bits(&matmul(&a, &b)), bits(&want), "matmul ({m},{k},{n})");
                    let mut c = Tensor::full(m, n, 777.0);
                    matmul_into(&a, &b, &mut c);
                    assert_eq!(bits(&c), bits(&want), "matmul_into ({m},{k},{n})");
                    // addmm seeds C with the bias and adds the finished
                    // sum to it: one rounding, `bias + reference`.
                    let bias = seq_tensor(1, n, 0.5);
                    let mut with_bias = want.clone();
                    for r in 0..m {
                        for (v, &bv) in with_bias.row_mut(r).iter_mut().zip(bias.as_slice()) {
                            *v += bv;
                        }
                    }
                    assert_eq!(bits(&addmm(&a, &b, &bias)), bits(&with_bias), "addmm ({m},{k},{n})");
                    shapes += 1;
                }
            }
        }
        assert_eq!(shapes, 495);
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f", not(miri)))]
    #[test]
    fn avx512_panel_is_bit_equal_to_portable() {
        // The 512-bit panel against the portable one it replaces in this
        // build, quad by quad and panel by panel, over the 495 shapes of
        // `kernel_sum_is_bit_equal_to_reference`. Rows cycle through dense,
        // zero prefix, zero suffix, all-zero, ±0, subnormal and ±inf/NaN
        // rows, and C starts nonzero, so an FMA, a reordered sum or a
        // changed final add in either panel shows up in some lane's bits.
        // A NaN compares as one pattern: Rust leaves the sign and payload
        // of a NaN result unspecified, and where two NaNs meet in one add
        // the two panels' operand order does differ (0xffc00000 vs
        // 0x7fc00000).
        let bits = |c: &[f32]| {
            c.iter()
                .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
                .collect::<Vec<_>>()
        };
        let (mut shapes, mut panels) = (0, 0);
        for &m in &[1usize, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65] {
            for &k in &[1usize, 5, 32, 64, 236] {
                let mut a = seq_tensor(m, k, 1.0);
                for r in 0..m {
                    let row = a.row_mut(r);
                    match r % 7 {
                        1 => row[..k / 2].fill(0.0),
                        2 => row[k - k / 3..].fill(0.0),
                        3 => row.fill(0.0),
                        4 => row.iter_mut().step_by(2).for_each(|v| *v *= -0.0), // -0 or +0
                        5 => row.iter_mut().for_each(|v| *v *= 1e-39), // subnormal A, subnormal products
                        6 => {
                            row[k / 3] = f32::NEG_INFINITY;
                            row[k / 2] = f32::INFINITY; // inf - inf: a NaN born in the sum
                            row[k - 1] = f32::NAN; // meets it: two NaNs in one add
                        }
                        _ => {}
                    }
                }
                for &n in &[1usize, 7, 15, 16, 17, 31, 32, 33, 64] {
                    let b = seq_tensor(k, n, 1.0).as_slice().to_vec();
                    // Odd quads start from +0.0, even ones from seeds.
                    let seeds = seq_tensor(m, n, 0.25);
                    let mut portable = seq_tensor(m, n, 0.5).as_slice().to_vec();
                    let mut wide = portable.clone();
                    for r in (0..m).step_by(MR) {
                        let rows = (m - r).min(MR);
                        let quad = [0, 1, 2, 3].map(|i| r + i.min(rows - 1));
                        let c = r * n..(r + rows) * n;
                        for off in (0..n / NR).map(|p| p * NR) {
                            let seed = if (r / MR).is_multiple_of(2) {
                                quad.map(|q| &seeds.row(q)[off..])
                            } else {
                                [&ZERO_SEED[..]; MR]
                            };
                            let quad = quad.map(|q| a.row(q));
                            full_panel(quad, rows, &b, n, &mut portable[c.clone()], off, seed);
                            // safety: this test is compiled only when the build enables avx512f.
                            unsafe {
                                full_panel_avx512(quad, rows, &b, n, &mut wide[c.clone()], off, seed)
                            };
                            panels += 1;
                        }
                    }
                    assert_eq!(bits(&wide), bits(&portable), "({m},{k},{n})");
                    shapes += 1;
                }
            }
        }
        assert_eq!((shapes, panels), (495, 3_410));
    }

    #[test]
    fn seeded_continuation_is_bit_equal_to_the_full_row() {
        // Seeding each lane with the product of a row's leading columns by
        // B's leading rows, then running the rest, must give the product of
        // the whole row bit for bit — in whichever panel this build runs
        // (the x86-64-v3 test build runs the portable one), over the 495
        // shapes of `kernel_sum_is_bit_equal_to_reference` and several
        // split points, B finite. Rows cycle through dense, zero prefix,
        // zero suffix, all zero, ±0 and subnormal (so subnormal products)
        // values; C starts nonzero, so a seeded output must overwrite it.
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cols = |t: &Tensor, from: usize, to: usize| {
            let data = (0..t.rows()).flat_map(|r| t.row(r)[from..to].to_vec()).collect();
            Tensor::from_vec(t.rows(), to - from, data)
        };
        let rows = |t: &Tensor, from: usize, to: usize| {
            Tensor::from_vec(to - from, t.cols(), t.as_slice()[from * t.cols()..to * t.cols()].to_vec())
        };
        let mut shapes = 0;
        for &m in &[1usize, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65] {
            for &k in &[1usize, 5, 32, 64, 236] {
                let mut a = seq_tensor(m, k, 1.0);
                for r in 0..m {
                    let row = a.row_mut(r);
                    match r % 6 {
                        1 => row[..k / 2].fill(0.0),
                        2 => row[k - k / 3..].fill(0.0),
                        3 => row.fill(0.0),
                        4 => row.iter_mut().step_by(2).for_each(|v| *v *= -0.0), // -0 or +0
                        5 => row.iter_mut().for_each(|v| *v *= 1e-39),
                        _ => {}
                    }
                }
                for &n in &[1usize, 7, 15, 16, 17, 31, 32, 33, 64] {
                    let b = seq_tensor(k, n, 1.0);
                    let want = bits(&matmul(&a, &b));
                    let mut splits = vec![0, k / 3, k / 2, k];
                    splits.dedup();
                    for split in splits {
                        let seed = matmul(&cols(&a, 0, split), &rows(&b, 0, split));
                        let tail = cols(&a, split, k);
                        let mut got = Tensor::full(m, n, 777.0);
                        matmul_seeded_into(tail.as_slice(), &rows(&b, split, k), |r| seed.row(r), &mut got);
                        assert_eq!(bits(&got), want, "({m},{k},{n}) split at {split}");
                    }
                    shapes += 1;
                }
            }
        }
        assert_eq!(shapes, 495);
    }

    #[test]
    fn rows_read_in_place_match_the_gathered_product() {
        // Rows of a table read by index, repeated and out of order, against
        // the same rows gathered first: the same bits.
        let table = seq_tensor(9, 37, 1.0);
        let ids = [4usize, 0, 8, 4, 3, 3, 7];
        let gathered = Tensor::from_vec(ids.len(), 37, ids.iter().flat_map(|&i| table.row(i).to_vec()).collect());
        for n in [1usize, 16, 33] {
            let b = seq_tensor(37, n, 1.0);
            let mut got = vec![777.0; ids.len() * n];
            matmul_rows_into(|r| table.row(ids[r]), &b, &mut got);
            let want = matmul(&gathered, &b);
            assert!(got.iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits()), "n = {n}");
        }
    }

    #[test]
    fn addmm_fuses_bias() {
        let a = seq_tensor(7, 9, 1.0);
        let b = seq_tensor(9, 21, 1.0);
        let bias = seq_tensor(1, 21, 0.5);
        let c = addmm(&a, &b, &bias);
        assert!(c.max_abs_diff(&reference::addmm(&a, &b, &bias)) < 1e-5);
    }

    #[test]
    fn addmm_into_overwrites_stale_contents(){
        let a = seq_tensor(3, 4, 1.0);
        let b = seq_tensor(4, 5, 1.0);
        let bias = seq_tensor(1, 5, 1.0);
        let mut c = Tensor::full(3, 5, 777.0);
        addmm_into(&a, &b, &bias, &mut c);
        assert!(c.max_abs_diff(&reference::addmm(&a, &b, &bias)) < 1e-5);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = seq_tensor(7, 9, 1.0);
        let bt = seq_tensor(5, 9, 1.0); // represents B^T stored as [n,k]
        let c = matmul_nt(&a, &bt);
        let c_ref = matmul(&a, &transpose(&bt));
        assert!(c.max_abs_diff(&c_ref) < 1e-5);
    }

    #[test]
    fn matmul_tn_equals_matmul_with_transpose() {
        let at = seq_tensor(6, 8, 1.0); // A stored [m,k]; result is A^T*B = [8,n]
        let b = seq_tensor(6, 5, 1.0);
        let c = matmul_tn(&at, &b);
        let c_ref = matmul(&transpose(&at), &b);
        assert!(c.max_abs_diff(&c_ref) < 1e-5);
    }

    #[test]
    fn microkernels_match_naive() {
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.31).cos()).collect();
        let y: Vec<f32> = (0..37).map(|i| (i as f32 * 0.17).sin()).collect();
        let naive: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-5);

        let mut out = y.clone();
        axpy(0.5, &x, &mut out);
        for j in 0..37 {
            assert!((out[j] - (y[j] + 0.5 * x[j])).abs() < 1e-6);
        }

        let mut out4 = y.clone();
        axpy4([0.1, 0.2, 0.3, 0.4], &x, &x, &y, &y, &mut out4);
        for j in 0..37 {
            let want = y[j] + 0.1 * x[j] + 0.2 * x[j] + 0.3 * y[j] + 0.4 * y[j];
            assert!((out4[j] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn identity_multiplication() {
        let a = seq_tensor(4, 4, 1.0);
        let mut eye = Tensor::zeros(4, 4);
        for i in 0..4 {
            eye.set(i, i, 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn mismatched_shapes_panic() {
        let _ = matmul(&Tensor::zeros(2, 3), &Tensor::zeros(4, 2));
    }

    #[test]
    fn zero_row_and_zero_col_edges() {
        // 0-row / 0-col / 0-inner shapes across the whole family: explicit
        // early returns, never a panic or a bogus chunk size.
        assert_eq!(matmul(&Tensor::zeros(0, 3), &Tensor::zeros(3, 2)).shape(), (0, 2));
        assert_eq!(matmul(&Tensor::zeros(2, 3), &Tensor::zeros(3, 0)).shape(), (2, 0));
        assert_eq!(matmul(&Tensor::zeros(2, 0), &Tensor::zeros(0, 3)).shape(), (2, 3));
        assert_eq!(matmul_nt(&Tensor::zeros(0, 3), &Tensor::zeros(2, 3)).shape(), (0, 2));
        assert_eq!(matmul_nt(&Tensor::zeros(2, 0), &Tensor::zeros(3, 0)).shape(), (2, 3));
        assert_eq!(matmul_tn(&Tensor::zeros(0, 2), &Tensor::zeros(0, 3)).shape(), (2, 3));
        assert_eq!(matmul_tn(&Tensor::zeros(3, 2), &Tensor::zeros(3, 0)).shape(), (2, 0));
        let z = matmul(&Tensor::zeros(2, 0), &Tensor::zeros(0, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let bias = Tensor::zeros(1, 0);
        assert_eq!(addmm(&Tensor::zeros(2, 3), &Tensor::zeros(3, 0), &bias).shape(), (2, 0));
    }
}
