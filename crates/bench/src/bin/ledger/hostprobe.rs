//! The host-speed probe: how much slower than its quiet self is this
//! machine running right now?
//!
//! The reference host is a shared 2-vCPU VM on which identical
//! single-threaded replays differ by up to 1.4x for tens of seconds at a
//! time — whole runs land in a slow regime, so no median within a run
//! removes it. What does remove it is a fixed piece of work timed beside the
//! workload: a kernel in the ledger's own code (no product function is
//! called) that stresses the machine the way the engine's hot loop does —
//! gather 4,400 random rows of the edge-feature table into a 236-wide block,
//! then four dense `[4400, 236] x [236, 16]` projections. Its time divided
//! by its time on the quiet host is the *slowdown factor*; compute-bound timings are
//! divided by the factor measured around them, turning "seconds on this
//! host right now" into "seconds on this host when quiet". On two
//! five-minute traces the raw 13-second medians of replay time spread 16%
//! and 20% (inter-quartile range over median); divided by the probe, 3.7%
//! and 4.4%.
//!
//! Only pure compute is corrected (a replay batch, a saturated phase's
//! throughput). Paced latencies are dominated by the linger timer and
//! queueing, not CPU speed, and are reported as measured. The raw values
//! and the factor itself are kept beside every corrected metric.

use crate::trace::elapsed_ns;
use std::time::Instant;

/// Probe time on the quiet reference host when the probe runs between the
/// batches of a replay (the engine keeps evicting the probe's block from
/// the caches). Like [`QUIET_IDLE_NS`] it only fixes the scale of the
/// corrected numbers — a factor near 1 on a quiet host — and comparisons
/// between two builds on one host do not depend on it.
pub const QUIET_BESIDE_ENGINE_NS: u64 = 3_000_000;

/// Probe time on the quiet reference host when nothing else runs (around a
/// serving phase, with the server idle).
pub const QUIET_IDLE_NS: u64 = 2_500_000;

const ROWS: usize = 4_400;
const WIDTH: usize = 236;
const HEAD: usize = 16;
const PASSES: usize = 4;

/// Reusable probe state (the block it gathers into and its weights).
pub struct HostProbe {
    picks: Vec<usize>,
    block: Vec<f32>,
    weights: Vec<f32>,
}

impl HostProbe {
    pub fn new() -> Self {
        // xorshift64: a fixed scatter of row picks, the same in every run.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let picks = (0..ROWS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                usize::try_from(x >> 24).unwrap_or(0)
            })
            .collect();
        Self {
            picks,
            block: vec![0.25; ROWS * WIDTH],
            weights: vec![0.5; WIDTH * HEAD],
        }
    }

    /// Runs the probe once over `table` (rows of `cols` floats — the
    /// workload's own edge features, so the probe adds no memory) and
    /// returns how long it took.
    pub fn time_ns(&mut self, table: &[f32], cols: usize) -> u64 {
        let rows = (table.len() / cols.max(1)).max(1);
        let take = cols.min(WIDTH);
        let start = Instant::now();
        for (dst, pick) in self.block.chunks_exact_mut(WIDTH).zip(&self.picks) {
            let at = (pick % rows) * cols;
            if let Some(src) = table.get(at..at + take) {
                dst[..take].copy_from_slice(src);
            }
        }
        let mut sink = 0.0f32;
        for _ in 0..PASSES {
            for z in self.block.chunks_exact(WIDTH) {
                let mut acc = [0.0f32; HEAD];
                for (zv, w) in z.iter().zip(self.weights.chunks_exact(HEAD)) {
                    for (a, wv) in acc.iter_mut().zip(w) {
                        *a += zv * wv;
                    }
                }
                sink += acc[0];
            }
        }
        std::hint::black_box(sink);
        elapsed_ns(start)
    }
}

/// The slowdown factor from a set of probe times: their median over the
/// quiet reference for the probe's setting. No probes means no correction
/// (factor 1).
pub fn slowdown(probe_ns: &[u64], quiet_ns: u64) -> f64 {
    if probe_ns.is_empty() {
        return 1.0;
    }
    let mut sorted = probe_ns.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2] as f64 / quiet_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time_and_is_repeatable_work() {
        let table = vec![1.0f32; 1000 * 172];
        let mut probe = HostProbe::new();
        assert!(probe.time_ns(&table, 172) > 0);
        let first: Vec<f32> = probe.block[..WIDTH].to_vec();
        probe.time_ns(&table, 172);
        assert_eq!(
            first,
            probe.block[..WIDTH],
            "the same rows are gathered every time"
        );
        // A table narrower or shorter than the block is still probed safely.
        assert!(probe.time_ns(&[0.5; 40], 8) > 0);
    }

    #[test]
    fn slowdown_is_the_median_probe_over_the_quiet_reference() {
        assert_eq!(slowdown(&[], QUIET_IDLE_NS), 1.0);
        assert_eq!(slowdown(&[QUIET_IDLE_NS], QUIET_IDLE_NS), 1.0);
        assert_eq!(slowdown(&[100, 200, 5_000], 100), 2.0);
    }
}
