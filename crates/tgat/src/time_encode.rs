//! The functional time encoding `Phi(dt) = cos(dt * omega + phi)` (Eq. 8).

use serde::{Deserialize, Serialize};
use tg_tensor::fanout::{fan_chunks, helpers_for};
use tg_tensor::{init, Scratch, Tensor};

/// Learnable time encoder mapping a time delta to a `d_t`-dim vector.
///
/// Initialized like the reference TGAT: angular frequencies form a geometric
/// ladder `omega_j = 1 / 10^(9 j / (d-1))` spanning ten decades, phases start
/// at zero. Both are trained.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimeEncoder {
    /// `1 x d_t` angular frequencies.
    pub omega: Tensor,
    /// `1 x d_t` phases.
    pub phi: Tensor,
}

/// Rows per fan-out chunk of [`TimeEncoder::encode_into_fanned`]: ≈ 0.5 ms of
/// `cosf` at 32 frequencies, the cost of one attention block.
pub const ENCODE_CHUNK: usize = 2048;

impl TimeEncoder {
    /// Creates the encoder with TGAT's geometric frequency initialization.
    pub fn new(time_dim: usize) -> Self {
        assert!(time_dim > 0, "time encoder needs a positive dimension");
        let omega: Vec<f32> = (0..time_dim)
            .map(|j| {
                let exponent = if time_dim == 1 { 0.0 } else { 9.0 * j as f32 / (time_dim - 1) as f32 }; // lint: allow(lossy-cast, time_dim is a small config value)
                1.0 / 10.0f32.powf(exponent)
            })
            .collect();
        Self {
            omega: Tensor::from_vec(1, time_dim, omega),
            phi: Tensor::zeros(1, time_dim),
        }
    }

    /// Random-frequency variant used by some tests to avoid symmetry.
    pub fn random(time_dim: usize, seed: u64) -> Self {
        let mut rng = init::seeded_rng(seed);
        Self {
            omega: init::uniform(&mut rng, 1, time_dim, 1.0),
            phi: init::uniform(&mut rng, 1, time_dim, std::f32::consts::PI),
        }
    }

    /// Output dimension `d_t`.
    pub fn dim(&self) -> usize {
        self.omega.cols()
    }

    /// Encodes a batch of time deltas into an `[n, d_t]` tensor.
    pub fn encode(&self, dts: &[f32]) -> Tensor { // alloc-ok: allocating convenience wrapper; the hot path calls encode_into with a scratch destination
        let mut out = Tensor::zeros(dts.len(), self.dim());
        self.encode_into(dts, &mut out);
        out
    }

    /// [`Self::encode`] into a preallocated `[dts.len(), d_t]` destination;
    /// prior contents are overwritten.
    pub fn encode_into(&self, dts: &[f32], out: &mut Tensor) {
        let d = self.dim();
        assert_eq!(out.shape(), (dts.len(), d), "encode_into: bad output shape");
        for (r, &dt) in dts.iter().enumerate() {
            self.encode_row(dt, out.row_mut(r));
        }
    }

    /// [`Self::encode_into`] with the rows fanned out in chunks of
    /// [`ENCODE_CHUNK`] over the caller and the engine's `helpers`, under the
    /// same width rule as the attention blocks. Rows are independent, so the
    /// result is bit-identical at every width. (The scratches are only the
    /// engine's count of spare cores here; encoding needs no buffers.)
    pub fn encode_into_fanned(&self, dts: &[f32], out: &mut Tensor, helpers: &mut [Scratch]) {
        let d = self.dim();
        assert_eq!(out.shape(), (dts.len(), d), "encode_into_fanned: bad output shape");
        let helpers = helpers_for(helpers, dts.len().div_ceil(ENCODE_CHUNK));
        fan_chunks(out.as_mut_slice(), ENCODE_CHUNK * d, &mut Scratch::new(), helpers, |c, rows, _| {
            for (&dt, row) in dts[c * ENCODE_CHUNK..].iter().zip(rows.chunks_exact_mut(d)) {
                self.encode_row(dt, row);
            }
        });
    }

    /// `Phi(dt)` into one `d_t`-wide row.
    fn encode_row(&self, dt: f32, row: &mut [f32]) {
        for ((v, &om), &ph) in row.iter_mut().zip(self.omega.as_slice()).zip(self.phi.as_slice()) {
            *v = (dt * om + ph).cos();
        }
    }

    /// Encodes a single delta into a `1 x d_t` row.
    pub fn encode_one(&self, dt: f32) -> Tensor {
        self.encode(&[dt])
    }

    /// `Phi(0)` broadcast over `n` rows — the target-side encoding of
    /// Eq. (4). The baseline recomputes this every call (it is one of the
    /// redundancies §3.3 identifies); TGOpt's precomputation replaces it.
    pub fn encode_zeros(&self, n: usize) -> Tensor {
        let mut out = Tensor::zeros(n, self.dim());
        self.encode_zeros_into(&mut out);
        out
    }

    /// [`Self::encode_zeros`] into a preallocated `[n, d_t]` destination;
    /// prior contents are overwritten. Allocation-free: `Phi(0)` is computed
    /// in row 0 of `out` and broadcast from there.
    pub fn encode_zeros_into(&self, out: &mut Tensor) {
        let d = self.dim();
        assert_eq!(out.cols(), d, "encode_zeros_into: bad output width");
        if out.rows() == 0 {
            return;
        }
        let (first, rest) = out.as_mut_slice().split_at_mut(d);
        self.encode_row(0.0, first);
        for row in rest.chunks_exact_mut(d) {
            row.copy_from_slice(first);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequencies_span_ten_decades() {
        let enc = TimeEncoder::new(10);
        let om = enc.omega.as_slice();
        assert!((om[0] - 1.0).abs() < 1e-6);
        assert!((om[9] - 1e-9).abs() < 1e-12);
        assert!(om.windows(2).all(|w| w[0] > w[1]), "monotone decreasing ladder");
    }

    #[test]
    fn encode_zero_is_cos_phi() {
        let enc = TimeEncoder::new(4);
        let e = enc.encode_one(0.0);
        // phi starts at zero, so Phi(0) = cos(0) = 1 everywhere.
        assert!(e.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn encode_matches_formula() {
        let enc = TimeEncoder::random(5, 3);
        let dt = 2.5f32;
        let e = enc.encode_one(dt);
        for j in 0..5 {
            let expected = (dt * enc.omega.get(0, j) + enc.phi.get(0, j)).cos();
            assert!((e.get(0, j) - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn encode_batch_rows_match_single_calls() {
        let enc = TimeEncoder::new(8);
        let dts = [0.0, 1.0, 7.0, 10000.0];
        let batch = enc.encode(&dts);
        for (r, &dt) in dts.iter().enumerate() {
            assert_eq!(batch.row(r), enc.encode_one(dt).row(0));
        }
    }

    #[test]
    fn fanned_chunks_are_bit_equal_to_encode_into() {
        let enc = TimeEncoder::random(32, 4);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // 48,000 rows are 24 chunks: real helper threads at widths 2 and 3
        // on any runner; 4,097 rows (3 chunks) stay inline under the rule.
        for n in [0usize, 1, 2047, 2048, 4097, 8192, 48_000] {
            let dts: Vec<f32> = (0..n).map(|i| (i * 37 % 1009) as f32 * 0.73).collect();
            let mut want = Tensor::full(n, 32, 777.0);
            enc.encode_into(&dts, &mut want);
            for width in [1usize, 2, 3] {
                let mut helpers: Vec<Scratch> = (1..width).map(|_| Scratch::new()).collect();
                let mut got = Tensor::full(n, 32, -777.0);
                enc.encode_into_fanned(&dts, &mut got, &mut helpers);
                assert_eq!(bits(&got), bits(&want), "n = {n}, width = {width}");
            }
        }
    }

    #[test]
    fn encode_zeros_broadcasts() {
        let enc = TimeEncoder::random(6, 1);
        let zero = enc.encode_one(0.0);
        // 0, 1 and 3 rows, over stale contents (a recycled scratch buffer).
        for n in [0usize, 1, 3] {
            let mut z = Tensor::full(n, 6, 777.0);
            enc.encode_zeros_into(&mut z);
            assert_eq!(z.shape(), (n, 6));
            for r in 0..n {
                assert_eq!(z.row(r), zero.row(0), "row {r} of {n}");
            }
            assert_eq!(enc.encode_zeros(n), z);
        }
    }

    #[test]
    fn values_are_bounded_by_one() {
        let enc = TimeEncoder::new(16);
        let e = enc.encode(&[0.0, 3.3, 1e6, 1e9]);
        assert!(e.as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-6));
    }

    #[test]
    fn single_dim_encoder() {
        let enc = TimeEncoder::new(1);
        assert_eq!(enc.encode_one(5.0).shape(), (1, 1));
    }
}
