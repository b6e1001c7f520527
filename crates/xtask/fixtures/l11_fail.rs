//! L11 fail fixture: a NaN-inconsistent sort and a float sum in
//! hash-iteration order.

use rustc_hash::FxHashMap;

pub fn order(xs: &mut [f32]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}

pub fn total(m: &FxHashMap<u64, f32>) -> f32 {
    m.values().sum::<f32>()
}
