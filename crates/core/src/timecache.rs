//! Precomputed time encodings (§4.3).
//!
//! Unlike the 128-interval lookup table of prior work, TGOpt precomputes a
//! contiguous window of deltas starting at 0, so an integral `dt` is itself
//! the index into a dense table — no searching. Misses (deltas outside the
//! window or non-integral) fall back to the original `Phi` computation.
//! `Phi(0)`, used for every target (Eq. 4), is computed once ahead of time.

use tg_tensor::Tensor;
use tgat::TimeEncoder;

/// Dense precomputed window of time-encoding vectors.
///
/// ```
/// use tgopt::TimeCache;
/// use tgat::TimeEncoder;
///
/// let encoder = TimeEncoder::new(8);
/// let mut cache = TimeCache::precompute(&encoder, 100);
/// // Integral deltas inside the window are served from the table ...
/// let out = cache.encode(&encoder, &[0.0, 42.0, 250.0]);
/// assert_eq!(cache.hits(), 2);
/// assert_eq!(cache.misses(), 1); // 250 lies outside the window
/// // ... and are bit-identical to the direct computation.
/// assert_eq!(out.as_slice(), encoder.encode(&[0.0, 42.0, 250.0]).as_slice());
/// ```
#[derive(Clone, Debug)]
pub struct TimeCache {
    /// Row `i` holds `Phi(i)`.
    table: Tensor,
    /// `Phi(0)`, kept separately for the broadcast fast path.
    zero_row: Vec<f32>,
    hits: u64,
    misses: u64,
}

impl TimeCache {
    /// Precomputes `Phi(dt)` for `dt` in `0..window` (paper default 10,000).
    pub fn precompute(encoder: &TimeEncoder, window: usize) -> Self {
        assert!(window > 0, "time window must be positive");
        let dts: Vec<f32> = (0..window).map(|i| i as f32).collect(); // lint: allow(lossy-cast, window deltas stay far below 2^24, exact in f32)
        let table = encoder.encode(&dts);
        let zero_row = table.row(0).to_vec();
        Self { table, zero_row, hits: 0, misses: 0 }
    }

    /// Window length.
    pub fn window(&self) -> usize {
        self.table.rows()
    }

    /// Encoding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Encodes a batch of deltas, copying precomputed rows on hits and
    /// encoding each miss with `encoder` straight into its row.
    ///
    /// # Invariants
    ///
    /// - The table and the `Phi(0)` row are immutable after
    ///   [`TimeCache::precompute`]; only the hit/miss counters change.
    /// - `hits() + misses()` grows by exactly `dts.len()`.
    /// - Every output row is bit-identical to `encoder.encode` of its delta.
    pub fn encode(&mut self, encoder: &TimeEncoder, dts: &[f32]) -> Tensor {
        let mut out = Tensor::zeros(dts.len(), self.dim());
        self.encode_into(encoder, dts, &mut out);
        out
    }

    /// Like [`TimeCache::encode`], but writes into a caller-provided
    /// (typically scratch-backed) destination instead of allocating — the
    /// engine's zero-alloc steady-state path. Every row of `out` is
    /// overwritten; `out` must have shape `(dts.len(), dim())`.
    ///
    /// # Invariants
    ///
    /// - Same as [`TimeCache::encode`]: the table is immutable, only the
    ///   hit/miss counters change, and `hits() + misses()` grows by
    ///   exactly `dts.len()`.
    /// - Allocation-free.
    pub fn encode_into(&mut self, encoder: &TimeEncoder, dts: &[f32], out: &mut Tensor) {
        let window = self.window();
        assert_eq!(out.shape(), (dts.len(), self.dim()), "time-encode destination shape mismatch");
        for (r, &dt) in dts.iter().enumerate() {
            let idx = dt as usize; // lint: allow(lossy-cast, used only when dt is a non-negative integer below window)
            // Hit iff dt is a non-negative integer inside the window.
            if dt >= 0.0 && dt.fract() == 0.0 && idx < window {
                out.row_mut(r).copy_from_slice(self.table.row(idx));
                self.hits += 1;
            } else {
                encoder.encode_row_into(dt, out.row_mut(r));
                self.misses += 1;
            }
        }
    }

    /// `Phi(0)` broadcast over `n` rows, from the precomputed row.
    pub fn encode_zeros(&self, n: usize) -> Tensor {
        let mut out = Tensor::zeros(n, self.dim());
        self.encode_zeros_into(&mut out);
        out
    }

    /// `Phi(0)` broadcast into a caller-provided (typically scratch-backed)
    /// destination; every row of `out` is overwritten. Allocation-free.
    pub fn encode_zeros_into(&self, out: &mut Tensor) {
        debug_assert_eq!(out.cols(), self.dim(), "Phi(0) destination width mismatch");
        for r in 0..out.rows() {
            out.row_mut(r).copy_from_slice(&self.zero_row);
        }
    }

    /// Window hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Window miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of deltas served from the window.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn window_rows_match_direct_encoding() {
        let enc = TimeEncoder::random(6, 3);
        let mut tc = TimeCache::precompute(&enc, 100);
        let dts = [0.0f32, 1.0, 50.0, 99.0];
        assert_eq!(bits(&tc.encode(&enc, &dts)), bits(&enc.encode(&dts)));
        assert_eq!(tc.hits(), 4);
        assert_eq!(tc.misses(), 0);
    }

    #[test]
    fn misses_fall_back_to_encoder() {
        let enc = TimeEncoder::random(4, 1);
        let mut tc = TimeCache::precompute(&enc, 10);
        // 10 is outside [0,10); 2.5 is non-integral; -1 is negative.
        let dts = [10.0f32, 2.5, -1.0, 3.0];
        assert_eq!(bits(&tc.encode(&enc, &dts)), bits(&enc.encode(&dts)));
        assert_eq!(tc.hits(), 1);
        assert_eq!(tc.misses(), 3);
        assert!((tc.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn encode_zeros_matches_encoder() {
        let enc = TimeEncoder::random(5, 9);
        let tc = TimeCache::precompute(&enc, 16);
        assert_eq!(bits(&tc.encode_zeros(3)), bits(&enc.encode_zeros(3)));
    }

    #[test]
    fn large_delta_beyond_f32_integer_precision_is_safe() {
        // Deltas above 2^24 lose integer precision in f32; they must still
        // round-trip through the fallback without panicking.
        let enc = TimeEncoder::new(4);
        let mut tc = TimeCache::precompute(&enc, 8);
        let dts = [3.0e8f32];
        assert_eq!(bits(&tc.encode(&enc, &dts)), bits(&enc.encode(&dts)));
        assert_eq!(tc.misses(), 1);
    }

    #[test]
    fn encode_into_matches_encode() {
        let enc = TimeEncoder::random(4, 11);
        let dts = [0.0f32, 3.0, 2.5, 300.0, 3.0];
        let mut window = TimeCache::precompute(&enc, 100);
        let direct = enc.encode(&dts);
        let mut dst = Tensor::zeros(dts.len(), enc.dim());
        window.encode_into(&enc, &dts, &mut dst);
        assert_eq!(bits(&dst), bits(&direct));
        let mut zeros = Tensor::zeros(3, enc.dim());
        window.encode_zeros_into(&mut zeros);
        assert_eq!(bits(&zeros), bits(&enc.encode_zeros(3)));
    }

    #[test]
    fn every_kernel_path_agrees_with_the_encoder_bit_for_bit() {
        // At dim 32 with random phases, `dt * omega + phi` reaches every
        // branch glibc's cosf takes: below 2^-12, below 0.75, the fast
        // reduction, the 4/π product, and negative arguments. Hits and
        // misses alike must equal `encoder.encode`.
        let enc = TimeEncoder::random(32, 27);
        let (om, ph) = (enc.omega.as_slice(), enc.phi.as_slice());
        let mut dts = vec![0.0f32, 1.0, 3.0, 99.0, 2.5, -5.0, 100.0, 5_000.0, 16_777_216.0, 3.0e8];
        dts.push(-ph[0] / om[0]); // cancels column 0 to within an ULP of phi
        let args: Vec<f32> =
            dts.iter().flat_map(|&dt| om.iter().zip(ph).map(move |(&o, &p)| dt * o + p)).collect();
        let reached = |lo: f32, hi: f32| args.iter().any(|x| (lo..hi).contains(&x.abs()));
        assert!(reached(0.0, 2f32.powi(-12)), "tiny");
        assert!(reached(2f32.powi(-12), 0.75), "|x| < 0.75");
        assert!(reached(0.75, 120.0), "fast reduction");
        assert!(reached(120.0, f32::INFINITY), "large reduction");
        assert!(args.iter().any(|&x| x < -120.0), "negative, large");

        let mut tc = TimeCache::precompute(&enc, 100);
        let mut dst = Tensor::full(dts.len(), 32, 777.0);
        tc.encode_into(&enc, &dts, &mut dst);
        assert_eq!(bits(&dst), bits(&enc.encode(&dts)));
        assert_eq!((tc.hits(), tc.misses()), (4, 7));
    }

    #[test]
    fn empty_batch_is_fine() {
        let enc = TimeEncoder::new(4);
        let mut tc = TimeCache::precompute(&enc, 8);
        let out = tc.encode(&enc, &[]);
        assert_eq!(out.shape(), (0, 4));
        assert_eq!(tc.hit_rate(), 0.0);
    }
}
