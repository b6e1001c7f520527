//! Host/device data-movement cost model (Table 5 substitute).
//!
//! The paper profiles CUDA `memcpy` time under two cache placements: storing
//! embeddings on CPU (host) memory vs on GPU (device) memory, and finds that
//! device-side storage drowns in device-to-device traffic from the many
//! small per-row copies of `CacheLookup`/`CacheStore` (§5.2.5).
//!
//! Without a GPU, we reproduce the *shape* of that analysis by replaying the
//! engine's exact cache traffic counts through a V100-class transfer cost
//! model: every transfer pays a per-operation launch/latency cost plus a
//! bandwidth cost, and the per-row copy pattern is what the paper's design
//! discussion says it is — one small copy per hit (lookup) or per stored row.

use crate::engine::EngineCounters;

/// Where cached embeddings live in the simulated GPU deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorePolicy {
    /// Paper's choice: cache on host; hits cross PCIe host-to-device,
    /// stores cross device-to-host.
    Host,
    /// Alternative: cache on device; hits and stores are device-to-device
    /// copies (plus the copy-out the lookup's gather still performs).
    Device,
}

/// One direction's accumulated traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferStat {
    pub ops: u64,
    pub bytes: u64,
}

impl TransferStat {
    fn add(&mut self, ops: u64, bytes: u64) {
        self.ops += ops;
        self.bytes += bytes;
    }
}

/// Accumulated transfers in the three CUDA memcpy directions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferLedger {
    pub htod: TransferStat,
    pub dtoh: TransferStat,
    pub dtod: TransferStat,
}

/// Latency/bandwidth model of one device class.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// PCIe effective bandwidth, bytes/second.
    pub pcie_bandwidth: f64,
    /// Per-memcpy launch overhead across PCIe, seconds.
    pub pcie_latency: f64,
    /// On-device copy bandwidth, bytes/second.
    pub device_bandwidth: f64,
    /// Per-memcpy launch overhead on device, seconds.
    pub device_latency: f64,
}

impl CostModel {
    /// Roughly a Tesla V100 on PCIe gen3 x16 (the paper's GPU machine):
    /// ~12 GB/s effective PCIe, ~10 µs per small transfer; ~700 GB/s HBM2,
    /// ~6 µs per device-side copy kernel.
    pub fn v100() -> Self {
        Self {
            pcie_bandwidth: 12.0e9,
            pcie_latency: 10.0e-6,
            device_bandwidth: 700.0e9,
            device_latency: 6.0e-6,
        }
    }

    #[expect(clippy::cast_precision_loss, reason = "modelled time from op and byte counts; f64 is exact below 2^53")]
    fn pcie_time(&self, s: &TransferStat) -> f64 {
        s.ops as f64 * self.pcie_latency + s.bytes as f64 / self.pcie_bandwidth
    }

    #[expect(clippy::cast_precision_loss, reason = "modelled time from op and byte counts; f64 is exact below 2^53")]
    fn device_time(&self, s: &TransferStat) -> f64 {
        s.ops as f64 * self.device_latency + s.bytes as f64 / self.device_bandwidth
    }

    /// Seconds spent in each direction for a ledger.
    pub fn times(&self, l: &TransferLedger) -> (f64, f64, f64) {
        (self.pcie_time(&l.htod), self.pcie_time(&l.dtoh), self.device_time(&l.dtod))
    }
}

/// Derives the memcpy ledger a GPU run would have produced, from the
/// engine's cache counters.
///
/// * `row_bytes` — one embedding row (`dim * 4` bytes).
/// * `batch_input_bytes` / `num_batches` — the baseline per-batch input
///   staging (features, indices) every policy pays host-to-device.
///
/// The traffic patterns mirror §4.2.2/§5.2.5:
///
/// * **Host placement** — the per-row copies of `CacheLookup`/`CacheStore`
///   are plain CPU memcpys; only the *assembled* tensors cross PCIe, one
///   transfer per cache call (the lookup result moves HtoD, the stored
///   batch moves DtoH). Few, large transfers.
/// * **Device placement** — the gather/scatter happens on the device, as
///   many small DtoD copies as there are hit/stored rows. This is exactly
///   the "many small data copies ... not favorable to GPUs" pattern the
///   paper measures dominating GPU time.
pub fn simulate_transfers(
    counters: &EngineCounters,
    policy: StorePolicy,
    row_bytes: usize,
    batch_input_bytes: u64,
    num_batches: u64,
) -> TransferLedger {
    let mut ledger = TransferLedger::default();
    // Both policies stage batch inputs onto the device.
    ledger.htod.add(num_batches, batch_input_bytes * num_batches);
    let hit_bytes = counters.cache_hits * row_bytes as u64;
    let store_bytes = counters.cache_stores * row_bytes as u64;
    match policy {
        StorePolicy::Host => {
            // One batched transfer per cache call in each direction.
            ledger.htod.add(num_batches, hit_bytes);
            ledger.dtoh.add(num_batches, store_bytes);
        }
        StorePolicy::Device => {
            // One small on-device copy per hit row and per stored row, plus
            // the store path re-reading rows when assembling the output.
            ledger.dtod.add(counters.cache_hits, hit_bytes);
            ledger.dtod.add(counters.cache_stores * 2, store_bytes * 2);
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters() -> EngineCounters {
        EngineCounters {
            cache_lookups: 1_000_000,
            cache_hits: 900_000,
            cache_stores: 100_000,
            recomputed: 100_000,
            dedup_removed: 0,
            stores_skipped: 0,
        }
    }

    #[test]
    fn host_policy_batches_transfers_per_call() {
        let l = simulate_transfers(&sample_counters(), StorePolicy::Host, 400, 1_000_000, 100);
        // One staged-input + one hit transfer per batch, one store per batch.
        assert_eq!(l.htod.ops, 100 + 100);
        assert_eq!(l.dtoh.ops, 100);
        assert_eq!(l.dtod.ops, 0);
        assert_eq!(l.dtoh.bytes, 100_000 * 400);
        assert_eq!(l.htod.bytes, 100 * 1_000_000 + 900_000 * 400);
    }

    #[test]
    fn device_policy_is_dominated_by_dtod() {
        let model = CostModel::v100();
        let host = simulate_transfers(&sample_counters(), StorePolicy::Host, 400, 1_000_000, 100);
        let dev =
            simulate_transfers(&sample_counters(), StorePolicy::Device, 400, 1_000_000, 100);
        let (h_htod, h_dtoh, h_dtod) = model.times(&host);
        let (d_htod, d_dtoh, d_dtod) = model.times(&dev);
        // The paper's conclusion: device placement makes DtoD dominate all
        // other directions; host placement keeps DtoD negligible.
        assert!(h_dtod < 1e-9);
        assert!(d_dtod > d_htod + d_dtoh, "DtoD should dominate on device policy");
        assert!(d_dtod > h_htod + h_dtoh, "device policy should cost more overall");
    }

    #[test]
    fn cost_model_times_scale_with_ops_and_bytes() {
        let m = CostModel::v100();
        let mut l = TransferLedger::default();
        l.htod.add(10, 0);
        let (t1, _, _) = m.times(&l);
        assert!((t1 - 10.0 * m.pcie_latency).abs() < 1e-12);
        l.htod.add(0, 12_000_000_000);
        let (t2, _, _) = m.times(&l);
        assert!((t2 - (t1 + 1.0)).abs() < 1e-9, "12 GB at 12 GB/s adds one second");
    }
}
