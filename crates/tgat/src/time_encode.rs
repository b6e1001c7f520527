//! The functional time encoding `Phi(dt) = cos(dt * omega + phi)` (Eq. 8).
//!
//! The `cos` here is a branch-free port of ARM optimized-routines'
//! `cosf` (`math/{cosf.c,sincosf.h,sincosf_data.c}`, MIT OR Apache-2.0 WITH
//! LLVM-exception), the code glibc ships as
//! `sysdeps/ieee754/flt-32/s_cosf.c`. On x86-64 glibc with FMA it returns
//! the same bits as `f32::cos` for every input; unlike a libm call, LLVM
//! vectorises it across a row's frequencies.

use serde::{Deserialize, Serialize};
use tg_tensor::{init, Tensor};

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

impl TimeEncoder {
    /// Creates the encoder with TGAT's geometric frequency initialization.
    pub fn new(time_dim: usize) -> Self {
        assert!(time_dim > 0, "time encoder needs a positive dimension");
        let omega: Vec<f32> = (0..time_dim)
            .map(|j| {
                #[expect(clippy::cast_precision_loss, reason = "time_dim is a small config value")]
                let exponent = if time_dim == 1 { 0.0 } else { 9.0 * j as f32 / (time_dim - 1) as f32 };
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
    pub fn encode(&self, dts: &[f32]) -> Tensor {
        let mut out = Tensor::zeros(dts.len(), self.dim());
        self.encode_into(dts, &mut out);
        out
    }

    /// [`Self::encode`] into a preallocated `[dts.len(), d_t]` destination;
    /// prior contents are overwritten.
    pub fn encode_into(&self, dts: &[f32], out: &mut Tensor) {
        assert_eq!(out.shape(), (dts.len(), self.dim()), "encode_into: bad output shape");
        self.encode_rows_into(dts, out.as_mut_slice());
    }

    /// [`Self::encode_into`] over a run of rows: `out` holds one `d_t`-wide
    /// row per delta, in order. Rows are independent, so a batch encoded
    /// run by run, on any thread, equals one encoded whole.
    pub fn encode_rows_into(&self, dts: &[f32], out: &mut [f32]) {
        let d = self.dim();
        assert_eq!(out.len(), dts.len() * d, "encode_rows_into: bad output length");
        for (&dt, row) in dts.iter().zip(out.chunks_exact_mut(d)) {
            self.encode_row_into(dt, row);
        }
    }

    /// `Phi(dt)` into one `d_t`-wide row; prior contents are overwritten.
    /// Allocation-free.
    pub fn encode_row_into(&self, dt: f32, row: &mut [f32]) {
        debug_assert_eq!(row.len(), self.dim(), "encode_row_into: bad row width");
        for ((v, &om), &ph) in row.iter_mut().zip(self.omega.as_slice()).zip(self.phi.as_slice()) {
            *v = cos(dt * om + ph);
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
        self.encode_row_into(0.0, first);
        for row in rest.chunks_exact_mut(d) {
            row.copy_from_slice(first);
        }
    }
}

// The constants of optimized-routines' `sincosf_data.c`, by bit pattern.
const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883); // 2/π · 2^24
const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18); // π/2
const PI63: f64 = f64::from_bits(0x3c19_21fb_5444_2d18); // π · 2^-63
const C1: f64 = f64::from_bits(0xbfdf_ffff_fd0c_621c);
const C2: f64 = f64::from_bits(0x3fa5_5553_e106_8f19);
const C3: f64 = f64::from_bits(0xbf56_c087_e89a_359d);
const C4: f64 = f64::from_bits(0x3ef9_9343_027b_f8c3);
const S1: f64 = f64::from_bits(0xbfc5_5554_5995_a603);
const S2: f64 = f64::from_bits(0x3f81_1076_0523_0bc4);
const S3: f64 = f64::from_bits(0xbf29_94eb_3774_cf24);
/// 4/π to 192 bits, read as 32-bit words at a byte-granular offset.
const INV_PIO4: [u32; 24] = [
    0xa2, 0xa2f9, 0xa2f983, 0xa2f9836e, 0xf9836e4e, 0x836e4e44, 0x6e4e4415, 0x4e441529,
    0x441529fc, 0x1529fc27, 0x29fc2757, 0xfc2757d1, 0x2757d1f5, 0x57d1f534, 0xd1f534dd,
    0xf534ddc0, 0x34ddc0db, 0xddc0db62, 0xc0db6295, 0xdb629599, 0x6295993c, 0x95993c43,
    0x993c4390, 0x3c439041,
];

/// `cosf`, bit-exact against glibc's FMA build and free of branches.
///
/// glibc branches three ways on `|y|`: below 0.75 the polynomial takes `y`
/// as is, below 120 one fused multiply-add by π/2 reduces it, and above that
/// a 32×96-bit product with 4/π does. Here every lane computes all three
/// and selects, so a loop over a row's frequencies vectorises.
///
/// Each `mul_add` is one of glibc's fused contractions and each power is
/// built as glibc builds it. The fused reduction `x - n·π/2` is
/// load-bearing: unfused, 17.278738 comes out one ULP off. Unfusing or
/// reordering any single polynomial step changes no f32 result (each was
/// checked over all inputs), but the polynomial keeps glibc's order anyway.
/// Quadrant parity and sign come from `n` alone: cos is even, so the large
/// path ignores the input's sign bit.
#[inline(always)]
fn cos(y: f32) -> f32 {
    let (xi, x) = (y.to_bits(), f64::from(y));
    let top = (xi >> 20) & 0x7ff; // glibc's abstop12
    // |y| < 120: n = ((int32)(x·HPI_INV) + 2^23) >> 24, done in f64 so no
    // lane takes a saturating `as` (which would scalarise the loop); the
    // magic add puts n's low bits in the mantissa.
    let nff = (((x * HPI_INV).trunc() + 8_388_608.0) * (1.0 / 16_777_216.0)).floor();
    #[expect(clippy::cast_possible_truncation, reason = "keeps the low mantissa word, which holds n mod 2^32")]
    let nf = (nff + 6_755_399_441_055_744.0).to_bits() as u32;
    let xf = (-nff).mul_add(HPI, x);
    // |y| >= 120: 4/π to 192 bits times the 24-bit mantissa.
    let (base, shift) = (((xi >> 26) & 15) as usize, (xi >> 23) & 7);
    let m = ((xi & 0xff_ffff) | 0x80_0000) << shift;
    let r0 = u64::from(m.wrapping_mul(INV_PIO4[base]));
    let r1 = u64::from(m) * u64::from(INV_PIO4[base + 4]);
    let r2 = u64::from(m) * u64::from(INV_PIO4[base + 8]);
    let acc = ((r2 >> 32) | (r0 << 32)).wrapping_add(r1);
    let nl = acc.wrapping_add(1 << 61) >> 62;
    let acc = acc.wrapping_sub(nl << 62) as i64;
    // Exact i64 → f64 in one rounding, as two halves (AVX2 has no vcvtqq2pd).
    #[expect(clippy::cast_possible_truncation, reason = "splits acc into its two 32-bit halves")]
    let xl = f64::from((acc >> 32) as i32).mul_add(4_294_967_296.0, f64::from(acc as u32)) * PI63;
    let (small, mid) = (top < 0x3f4, top < 0x42f); // |y| < 0.75, |y| < 120
    let xr = if small { x } else if mid { xf } else { xl };
    let n = if small { 0 } else if mid { nf } else { nl as u32 };
    let x2 = xr * xr;
    let (x3, x4) = (xr * x2, x2 * x2);
    let (x5, x6) = (x3 * x2, x4 * x2); // glibc calls x5 `x7`
    let c = x6.mul_add(x2.mul_add(C4, C3), x4.mul_add(C2, x2.mul_add(C1, 1.0)));
    let s = x5.mul_add(x2.mul_add(S3, S2), x3.mul_add(S1, xr));
    let p = if n & 1 == 0 { c } else { s };
    // Quadrants 1 and 2 negate.
    #[expect(clippy::cast_possible_truncation, reason = "the f64 polynomial rounds to cosf's f32 result")]
    let v = (if n.wrapping_add(1) & 2 != 0 { -p } else { p }) as f32;
    if top < 0x398 {
        1.0 // |y| < 2^-12
    } else if top >= 0x7f8 {
        f32::NAN // ±inf, NaN
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_tensor::fanout::host_cores;

    /// `v`'s position on the number line in ULPs, with ±0 both at 0.
    fn ordered(v: f32) -> i64 {
        let b = i64::from(v.to_bits() as i32);
        if b < 0 {
            i64::from(i32::MIN) - b
        } else {
            b
        }
    }

    /// Whether the kernel's `cos(y)` is right: NaN for ±inf and NaN; libm's
    /// exact bits where glibc's ifunc runs the FMA build the kernel ports;
    /// elsewhere within one ULP of the f64 cosine.
    fn kernel_agrees(y: f32) -> bool {
        let got = cos(y);
        if !y.is_finite() {
            return got.is_nan();
        }
        if cfg!(all(target_arch = "x86_64", target_env = "gnu", target_feature = "fma")) {
            got.to_bits() == y.cos().to_bits()
        } else {
            (ordered(got) - ordered(f64::from(y).cos() as f32)).abs() <= 1
        }
    }

    #[test]
    fn cos_kernel_matches_libm_on_sampled_inputs() {
        // Every 4,099th bit pattern; ±16 ULP around each threshold the
        // kernel selects on (2^-12, 0.75, 120) and around every multiple of
        // π/4 up to 512, where the quadrant changes; the special values. In
        // a debug build, so overflow checks watch every lane's arithmetic.
        let mut ys: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        let mut edges = vec![2f32.powi(-12), 0.75, 120.0];
        edges.extend((1..=651).map(|k| (f64::from(k) * std::f64::consts::FRAC_PI_4) as f32));
        for e in edges {
            ys.extend((-16..=16).map(|d| f32::from_bits(e.to_bits().wrapping_add_signed(d))));
        }
        ys.extend([0.0, f32::from_bits(1), f32::from_bits(0x7f_ffff), f32::MIN_POSITIVE, f32::MAX]);
        ys.extend([f32::INFINITY, f32::NAN]);
        let bad: Vec<String> = ys
            .iter()
            .flat_map(|&y| [y, -y])
            .filter(|&y| !kernel_agrees(y))
            .map(|y| format!("{:#010x}", y.to_bits()))
            .collect();
        assert!(bad.is_empty(), "{} mismatches, first {:?}", bad.len(), &bad[..bad.len().min(8)]);
    }

    /// The sampled test over all 2^32 bit patterns, ≈ 30 s in release on
    /// two cores: `cargo test --release -p tgat -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn cos_kernel_matches_libm_on_every_input() {
        let threads = host_cores() as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let (bad, first) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let (mut bad, mut first) = (0u64, None);
                        for b in t * span..((t + 1) * span).min(1 << 32) {
                            if !kernel_agrees(f32::from_bits(b as u32)) {
                                bad += 1;
                                first.get_or_insert(b);
                            }
                        }
                        (bad, first)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).fold((0, None), |(n, f), (m, g)| (n + m, f.or(g)))
        });
        println!("cos kernel: {} inputs, {bad} mismatches", 1u64 << 32);
        assert_eq!(bad, 0, "first mismatch at {first:#x?}");
    }

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
