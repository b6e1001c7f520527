//! The fixed configuration every workload shares, and the set-up that
//! turns a seed into a dataset, a graph and model weights.
//!
//! Product defaults (`ServeConfig::default()`, `OptConfig::all()`) are used
//! as shipped wherever a workload does not say otherwise, so a later change
//! that makes a default smarter moves the ledger without editing it.

use crate::trace::Tracer;
use crate::Res;
use serde::{Deserialize, Serialize};
use tg_datasets::Dataset;
use tg_graph::{EdgeStream, TemporalGraph};
use tg_tensor::Tensor;
use tgat::{TgatConfig, TgatParams};

/// Bumped whenever a field of the ledger's JSON output changes meaning.
pub const SCHEMA_VERSION: u64 = 1;

/// A full-size paper dataset (157,474 edges, 9,227 nodes, d_e 172), not a
/// toy slice of one.
pub const DATASET: &str = "jodie-wiki";

/// Edges per replay batch (400 targets), as in the paper's §5.1 task.
pub const BATCH_EDGES: usize = 200;

/// Reference operation counts below are the sizes at which each workload
/// measures for about this many seconds on the 2-CPU reference host; a run
/// asked for `--seconds S` scales every count by `S / REFERENCE_SECONDS`.
/// Counts are therefore fixed by the arguments, never by the wall clock.
pub const REFERENCE_SECONDS: f64 = 36.0;

/// Requests kept in flight by the closed-loop (`saturated`) phases.
pub const WINDOW: usize = 256;

/// A paced operation answered later than this after its due time misses
/// the limit (`within_limit_share`).
pub const LIMIT_NS: u64 = 5_000_000;

/// Queries used to warm a server's cache before its first timed phase.
pub const WARM_QUERIES: usize = 20_000;

/// The query tick of `serve-open` advances once per this many requests.
pub const TICK_EVERY: usize = 256;

/// One in this many `stream-mixed` operations is an edge insert.
pub const WRITE_EVERY: usize = 10;

/// Share of the stream that forms `stream-mixed`'s base graph.
pub const BASE_SHARE: f64 = 0.8;

/// How much work one run does, derived from the command line only.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Sizing {
    /// Dataset scale passed to `tg_datasets::generate`.
    pub scale: f64,
    /// Target measuring time per workload on the reference host.
    pub seconds: f64,
    /// Rounds a workload's measuring time is split into. Each round sets
    /// the whole world up afresh and runs the workload at `1 / rounds` of
    /// its length; every metric is the median over rounds, so a burst of
    /// interference on the shared host costs a round, not the run.
    pub rounds: u64,
    /// The same for the serving workloads. They take more and shorter
    /// rounds: a paced phase's median latency differs by ±10% from one
    /// started server to the next on an otherwise quiet host (the mean wave
    /// time at `paced-hi` ranged 314-575 µs over fresh servers of one
    /// process), so a median wants more servers, not longer phases.
    pub serve_rounds: u64,
}

impl Sizing {
    /// The committed sizing for a run of `seconds`.
    pub fn standard(seconds: f64) -> Self {
        Self {
            scale: 1.0,
            seconds,
            rounds: 5,
            serve_rounds: 8,
        }
    }

    /// The CI smoke sizing: a twentieth of the dataset, one round.
    pub fn smoke() -> Self {
        Self {
            scale: 0.05,
            seconds: 1.5,
            rounds: 1,
            serve_rounds: 1,
        }
    }

    /// Half the measuring time in a single round, for the traced pass.
    pub fn traced(self) -> Self {
        Self {
            seconds: self.seconds / 2.0,
            rounds: 1,
            serve_rounds: 1,
            ..self
        }
    }

    /// This sizing as a serving workload reads it: `serve_rounds` rounds.
    pub fn serving(self) -> Self {
        Self {
            rounds: self.serve_rounds,
            ..self
        }
    }

    /// `reference` operations scaled to this run's length (at least 1).
    pub fn count(&self, reference: usize) -> usize {
        let scaled = (reference as f64 * self.seconds / REFERENCE_SECONDS)
            .round()
            .max(1.0);
        scaled as usize // lint: allow(lossy-cast, a rounded positive operation count far below 2^52)
    }

    /// [`Sizing::count`] shared out over the rounds (at least 1 each).
    pub fn count_per_round(&self, reference: usize) -> usize {
        (self.count(reference) / self.rounds.max(1) as usize).max(1)
    }

    /// True once a run has used so much more wall time than it was sized
    /// for that further rounds would endanger the caller's time limit; the
    /// rounds already measured are then reported on their own.
    pub fn out_of_time(&self, started: std::time::Instant) -> bool {
        started.elapsed().as_secs_f64() > 3.0 * self.seconds + 10.0
    }
}

/// The model every committed number and equivalence battery uses. The
/// paper's dim 100 / k 20 was tried and rejected for this host: its
/// ~690 MB working set made identical runs differ by 1.9x.
pub fn model_config(edge_dim: usize) -> TgatConfig {
    TgatConfig {
        dim: 32,
        edge_dim,
        time_dim: 32,
        n_layers: 2,
        n_heads: 2,
        n_neighbors: 10,
    }
}

/// Everything a workload is built from, all of it a function of the seed.
pub struct World {
    pub data: Dataset,
    pub params: TgatParams,
    /// `[num_nodes, dim]` zeros, as in the standard TGAT setup.
    pub node_features: Tensor,
}

impl World {
    pub fn stream(&self) -> &EdgeStream {
        &self.data.stream
    }

    /// Number of whole-or-partial replay batches in the stream.
    pub fn num_batches(&self) -> usize {
        self.data.stream.len().div_ceil(BATCH_EDGES)
    }
}

/// Generates the dataset and initializes the weights, each call wrapped in
/// a span (their rates are the `datasets.*` layer metrics).
pub fn build_world(seed: u64, scale: f64, tracer: &mut Tracer) -> Res<World> {
    let spec =
        tg_datasets::spec_by_name(DATASET).ok_or_else(|| format!("unknown dataset {DATASET}"))?;
    let data = tracer
        .in_span("generate", 0, |_| tg_datasets::generate(&spec, scale, seed))
        .map_err(|e| format!("dataset generation: {e}"))?;
    let cfg = model_config(data.dim());
    let params = tracer
        .in_span("TgatParams::init", 0, |_| TgatParams::init(cfg, seed))
        .map_err(|e| format!("parameter init: {e}"))?;
    let node_features = Tensor::zeros(data.stream.num_nodes(), cfg.dim);
    Ok(World {
        data,
        params,
        node_features,
    })
}

/// The frozen graph over the whole stream.
pub fn build_graph(stream: &EdgeStream, tracer: &mut Tracer) -> TemporalGraph {
    tracer.in_span("from_stream", 0, |_| TemporalGraph::from_stream(stream))
}

/// The frozen graph over the first `n` interactions of the stream (the node
/// address space stays the whole stream's, so later endpoints can be
/// ingested).
pub fn build_prefix_graph(stream: &EdgeStream, n: usize, tracer: &mut Tracer) -> TemporalGraph {
    let mut prefix = stream.clone();
    prefix.truncate(n);
    build_graph(&prefix, tracer)
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a set of numbers came from: enough to refuse a comparison between
/// runs that were not built or configured alike.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Provenance {
    pub schema_version: u64,
    pub seed: u64,
    pub sizing: Sizing,
    pub dataset: String,
    pub host_cpus: u64,
    pub git_rev: String,
    pub rustc: String,
    pub target_cpu: String,
    pub allocator: String,
    pub tgat_config: String,
    pub opt_config: String,
    pub serve_config: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `target-cpu` as the build saw it: the ledger is compiled under the
/// repository's `.cargo/config.toml`, whose rustflags reach `rustc` through
/// `CARGO_ENCODED_RUSTFLAGS` only at build time, so the flag is recovered
/// from the features it switched on.
fn target_cpu_flag() -> String {
    if cfg!(target_feature = "avx2") {
        "native (avx2 enabled at build)".to_string()
    } else {
        "baseline (no avx2 at build)".to_string()
    }
}

/// Collects the provenance block. The `Debug` dumps are of the values the
/// workloads actually use, taken from the product's own defaults.
pub fn provenance(seed: u64, sizing: Sizing) -> Provenance {
    let mixed = crate::serving::stream_mixed_config();
    Provenance {
        schema_version: SCHEMA_VERSION,
        seed,
        sizing,
        dataset: format!("{DATASET} @ scale {}", sizing.scale),
        host_cpus: std::thread::available_parallelism().map_or(1, usize::from) as u64,
        git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        rustc: command_line("rustc", &["-V"]),
        target_cpu: target_cpu_flag(),
        allocator: "system".to_string(),
        tgat_config: format!("{:?}", model_config(172)),
        opt_config: format!(
            "replay-opt {:?}; replay-noopt {:?}",
            crate::replay::opt_config(sizing),
            tgopt::OptConfig::none()
        ),
        serve_config: format!(
            "serve-open {:?}; stream-mixed {:?}",
            tg_serve::ServeConfig::default(),
            mixed
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_never_reach_zero() {
        let full = Sizing::standard(REFERENCE_SECONDS);
        assert_eq!(full.count(788), 788);
        assert_eq!(full.count(400_000), 400_000);
        let third = Sizing::standard(12.0);
        assert_eq!(third.count(120), 40);
        assert_eq!(third.traced().count(120), 20);
        assert_eq!(third.count_per_round(100_000), 6_666);
        assert_eq!(Sizing::smoke().count_per_round(3), 1);
        assert_eq!(Sizing::smoke().count(1), 1);
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
