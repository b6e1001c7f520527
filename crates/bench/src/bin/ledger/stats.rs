//! Order statistics the ledger reports: nearest-rank percentiles, the
//! median, and the inter-quartile range, each with its sample count.
//!
//! Nearest-rank (the value at 1-based rank `ceil(q·n)`) always returns a
//! sample that was actually measured, so a reported p50 is a latency some
//! request really had — no interpolation between a fast and a slow mode.

use serde::{Deserialize, Serialize};

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of an ascending slice; 0.0
/// when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0);
    let idx = rank as usize; // lint: allow(lossy-cast, rank is a whole number in 1..=n)
    sorted[idx.min(n) - 1]
}

/// Median, inter-quartile range and count of one metric's samples.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub median: f64,
    /// `p75 − p25`, nearest-rank.
    pub iqr: f64,
    pub samples: u64,
}

impl Summary {
    /// A single measured value (no spread to report).
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            iqr: 0.0,
            samples: 1,
        }
    }
}

/// Sorts `values` in place (total order, NaN last) and summarizes them.
pub fn summarize(values: &mut [f64]) -> Summary {
    values.sort_by(|a, b| a.total_cmp(b));
    Summary {
        median: quantile_sorted(values, 0.5),
        iqr: quantile_sorted(values, 0.75) - quantile_sorted(values, 0.25),
        samples: values.len() as u64,
    }
}

/// [`summarize`] over nanosecond samples, reported in microseconds.
pub fn summarize_ns_as_us(ns: &[u64]) -> Summary {
    let mut us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1e3).collect();
    summarize(&mut us)
}

/// Nearest-rank quantile of unsorted nanosecond samples, in microseconds.
pub fn quantile_ns_as_us(ns: &[u64], q: f64) -> f64 {
    let mut sorted: Vec<u64> = ns.to_vec();
    sorted.sort_unstable();
    let as_f: Vec<f64> = sorted.iter().map(|&v| v as f64 / 1e3).collect();
    quantile_sorted(&as_f, q)
}

/// Operations per second for `work` units done in `ns` nanoseconds (0 when
/// no time was measured, never a division by zero).
pub fn per_second(work: f64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        work * 1e9 / ns as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn single_sample_is_its_own_median_with_zero_spread() {
        let s = summarize(&mut [7.5]);
        assert_eq!((s.median, s.iqr, s.samples), (7.5, 0.0, 1));
        assert_eq!(quantile_sorted(&[7.5], 0.0), 7.5);
        assert_eq!(quantile_sorted(&[7.5], 1.0), 7.5);
    }

    #[test]
    fn two_samples_take_the_lower_as_median() {
        // rank ceil(0.5·2) = 1, ceil(0.25·2) = 1, ceil(0.75·2) = 2.
        let s = summarize(&mut [9.0, 3.0]);
        assert_eq!((s.median, s.iqr, s.samples), (3.0, 6.0, 2));
    }

    #[test]
    fn hundred_samples_hit_exact_ranks() {
        let v = ramp(100);
        assert_eq!(quantile_sorted(&v, 0.50), 50.0);
        assert_eq!(quantile_sorted(&v, 0.25), 25.0);
        assert_eq!(quantile_sorted(&v, 0.75), 75.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 0.999), 100.0);
        let s = summarize(&mut ramp(100));
        assert_eq!((s.median, s.iqr, s.samples), (50.0, 50.0, 100));
    }

    #[test]
    fn hundred_and_one_samples_round_ranks_up() {
        let v = ramp(101);
        assert_eq!(quantile_sorted(&v, 0.50), 51.0); // ceil(50.5)
        assert_eq!(quantile_sorted(&v, 0.25), 26.0); // ceil(25.25)
        assert_eq!(quantile_sorted(&v, 0.75), 76.0); // ceil(75.75)
        let s = summarize(&mut ramp(101));
        assert_eq!((s.median, s.iqr, s.samples), (51.0, 50.0, 101));
    }

    #[test]
    fn empty_input_reports_zeros_not_nan() {
        let s = summarize(&mut []);
        assert_eq!((s.median, s.iqr, s.samples), (0.0, 0.0, 0));
        assert_eq!(per_second(10.0, 0), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let s = summarize(&mut [5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(quantile_ns_as_us(&[3000, 1000, 2000], 0.5), 2.0);
    }
}
