//! Parameter initialization helpers.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform initialization for a `fan_in x fan_out` weight.
pub fn xavier_uniform(rng: &mut StdRng, fan_in: usize, fan_out: usize) -> Tensor {
    #[expect(clippy::cast_precision_loss, reason = "layer fan sums stay far below 2^24")]
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out)
        .map(|_| rng.gen_range(-bound..=bound))
        .collect();
    Tensor::from_vec(fan_in, fan_out, data)
}

/// Uniform tensor in `[-bound, bound]`.
pub fn uniform(rng: &mut StdRng, rows: usize, cols: usize, bound: f32) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(-bound..=bound)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Standard-normal tensor scaled by `std`.
pub fn normal(rng: &mut StdRng, rows: usize, cols: usize, std: f32) -> Tensor {
    // Box-Muller transform; rand's distributions feature is avoided to keep
    // the dependency surface minimal.
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < n {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::from_vec(rows, cols, data)
}

/// Deterministic RNG from a seed; all reproduction experiments are seeded.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_bound() {
        let mut rng = seeded_rng(1);
        let w = xavier_uniform(&mut rng, 64, 32);
        let bound = (6.0 / 96.0f32).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound + 1e-6));
        assert_eq!(w.shape(), (64, 32));
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        let wa = xavier_uniform(&mut a, 8, 8);
        let wb = xavier_uniform(&mut b, 8, 8);
        assert_eq!(wa.as_slice(), wb.as_slice());
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut rng = seeded_rng(7);
        let t = normal(&mut rng, 100, 100, 2.0);
        let mean: f32 = t.as_slice().iter().sum::<f32>() / t.len() as f32;
        let var: f32 =
            t.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean} too far from 0");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {} too far from 2", var.sqrt());
    }

    #[test]
    fn uniform_respects_bound() {
        let mut rng = seeded_rng(3);
        let t = uniform(&mut rng, 10, 10, 0.5);
        assert!(t.as_slice().iter().all(|v| v.abs() <= 0.5));
    }
}
