//! A recycling arena for per-batch temporary tensors.
//!
//! The attention forward pass allocates a dozen intermediate matrices per
//! layer; at serving batch rates that is thousands of short-lived `Vec`
//! round-trips through the allocator per second. A [`Scratch`] keeps the
//! retired buffers and hands them back on the next batch, so a steady-state
//! batch performs O(1) allocator calls instead of O(intermediates).
//!
//! # Ownership rules
//!
//! * A tensor obtained from [`Scratch::take`] / [`Scratch::zeros`] is an
//!   ordinary owned [`Tensor`] — nothing distinguishes it from a fresh
//!   allocation, and it is always sound to simply drop it.
//! * Returning a tensor with [`Scratch::give`] is an *optimization*, never
//!   an obligation. Escaping tensors (e.g. the final layer output handed to
//!   the caller) just leave the pool permanently.
//! * [`Scratch::take`] returns a tensor with **unspecified contents**; the
//!   caller must fully overwrite it ( `_into` kernels do). Use
//!   [`Scratch::zeros`] when the kernel accumulates.
//! * A `Scratch` is `&mut`-threaded, single-owner state: one per engine /
//!   per serve worker, never shared across threads (it is `Send`, not
//!   `Sync`-shared).

use crate::Tensor;

/// Upper bound on pooled buffers; beyond this, [`Scratch::give`] drops the
/// smallest pooled buffer instead of growing without bound.
const MAX_POOLED: usize = 32;

/// A best-fit pool of retired `f32` buffers (see module docs).
#[derive(Default)]
pub struct Scratch {
    /// Retired buffers, unordered; best-fit selection scans capacities.
    pool: Vec<Vec<f32>>,
}

impl Scratch {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pops the smallest pooled buffer with capacity >= `need`, if any.
    fn best_fit(&mut self, need: usize) -> Option<Vec<f32>> {
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, buf) in self.pool.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= need && best.is_none_or(|(_, bc)| cap < bc) {
                best = Some((i, cap));
            }
        }
        best.map(|(i, _)| self.pool.swap_remove(i))
    }

    /// Takes a `rows x cols` tensor with **unspecified contents** — the
    /// caller must overwrite every element before reading any.
    ///
    /// (Contents are currently zeroed or stale-but-initialized `f32`s, never
    /// uninitialized memory; "unspecified" is a contract, not a UB hazard.)
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let need = rows * cols;
        match self.best_fit(need) {
            Some(mut buf) => {
                // `resize` only writes the grown tail; reused prefix keeps
                // stale values, which `take`'s contract allows.
                buf.resize(need, 0.0);
                Tensor::from_vec(rows, cols, buf)
            }
            None => Tensor::zeros(rows, cols),
        }
    }

    /// Takes a `rows x cols` tensor guaranteed to be all zeros.
    pub fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.take(rows, cols);
        t.as_mut_slice().fill(0.0);
        t
    }

    /// Returns a tensor's buffer to the pool for reuse.
    pub fn give(&mut self, t: Tensor) {
        let buf = t.into_vec();
        if buf.capacity() == 0 {
            return;
        }
        if self.pool.len() >= MAX_POOLED {
            // Evict the smallest buffer so the pool keeps its large, most
            // reusable allocations.
            if let Some((i, _)) = self
                .pool
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
            {
                self.pool.swap_remove(i);
            }
        }
        self.pool.push(buf);
    }

    /// Number of buffers currently pooled (diagnostics / tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Total `f32` capacity currently held by the pool (diagnostics).
    pub fn pooled_capacity(&self) -> usize {
        self.pool.iter().map(|b| b.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_then_give_reuses_allocation() {
        let mut s = Scratch::new();
        let t = s.zeros(8, 16);
        let ptr = t.as_slice().as_ptr();
        s.give(t);
        assert_eq!(s.pooled(), 1);
        // Same size: must come back from the pool, same allocation.
        let t2 = s.take(8, 16);
        assert_eq!(t2.as_slice().as_ptr(), ptr);
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn smaller_request_reuses_larger_buffer() {
        let mut s = Scratch::new();
        s.give(Tensor::zeros(10, 10));
        let t = s.take(3, 3);
        assert_eq!(t.shape(), (3, 3));
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        let mut s = Scratch::new();
        s.give(Tensor::zeros(100, 1));
        s.give(Tensor::zeros(10, 1));
        let t = s.take(5, 1);
        // The 10-element buffer should be chosen, leaving the 100 pooled.
        assert!(t.as_slice().len() == 5);
        assert_eq!(s.pooled(), 1);
        assert!(s.pooled_capacity() >= 100);
    }

    #[test]
    fn zeros_clears_stale_contents() {
        let mut s = Scratch::new();
        s.give(Tensor::full(4, 4, 9.0));
        let t = s.zeros(4, 4);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pool_is_bounded() {
        let mut s = Scratch::new();
        for i in 1..=MAX_POOLED + 10 {
            s.give(Tensor::zeros(i, 1));
        }
        assert!(s.pooled() <= MAX_POOLED);
        // The evictions removed the smallest buffers first.
        assert!(s.pooled_capacity() > MAX_POOLED);
    }

    #[test]
    fn zero_sized_tensors_are_harmless() {
        let mut s = Scratch::new();
        let t = s.take(0, 5);
        assert_eq!(t.shape(), (0, 5));
        s.give(t);
        let t2 = s.zeros(5, 0);
        assert_eq!(t2.shape(), (5, 0));
    }
}
