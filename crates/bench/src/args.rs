//! Minimal flag parsing shared by `exp`, `datagen` and `train`.

use tgat::TgatConfig;

/// Common experiment options.
///
/// Defaults are sized for a laptop run of the whole suite; pass `--paper`
/// (or individual overrides) to run the paper's full configuration (dim 100,
/// 20 neighbors, full |E|).
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Fraction of each dataset's |E| to generate.
    pub scale: f64,
    /// Timed repetitions per measurement (Figure 5 uses 10 in the paper).
    pub runs: usize,
    /// RNG seed for generation and weights.
    pub seed: u64,
    /// Embedding/time dimensions of the model.
    pub dim: usize,
    /// Sampled neighbors per target.
    pub n_neighbors: usize,
    /// Edge interactions per batch.
    pub batch_size: usize,
    /// Restrict to these dataset names (empty = all).
    pub datasets: Vec<String>,
    /// Cache limit override (0 = paper default 2M).
    pub cache_limit: usize,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scale: 0.02,
            runs: 2,
            seed: 7,
            dim: 32,
            n_neighbors: 10,
            batch_size: 200,
            datasets: Vec::new(),
            cache_limit: 0,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with usage on `-h/--help` or errors.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator, exiting through `die` on a bad flag.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        Self::try_parse_from(args).unwrap_or_else(|e| die(&e))
    }

    /// [`ExpArgs::parse_from`] with the error returned instead of printed.
    /// Integer flags parse as integers: a fractional, negative or
    /// out-of-range value is an error, never a rounded or truncated run.
    fn try_parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut take = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => out.scale = parse_num(&take()?, &flag)?,
                "--runs" => out.runs = parse_num(&take()?, &flag)?,
                "--seed" => out.seed = parse_num(&take()?, &flag)?,
                "--dim" => out.dim = parse_num(&take()?, &flag)?,
                "--neighbors" => out.n_neighbors = parse_num(&take()?, &flag)?,
                "--batch" => out.batch_size = parse_num(&take()?, &flag)?,
                "--cache-limit" => out.cache_limit = parse_num(&take()?, &flag)?,
                "--datasets" | "-d" => {
                    out.datasets = take()?.split(',').map(|s| s.trim().to_string()).collect()
                }
                "--paper" => {
                    // Paper-scale configuration (§5.1): slow without many cores.
                    out.scale = 1.0;
                    out.runs = 10;
                    out.dim = 100;
                    out.n_neighbors = 20;
                }
                "-h" | "--help" => {
                    eprintln!("{}", USAGE);
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        if out.scale <= 0.0 || out.runs == 0 || out.dim == 0 {
            return Err("scale, runs and dim must be positive".into());
        }
        Ok(out)
    }

    /// Model configuration implied by these arguments for a dataset with the
    /// given edge feature dimension.
    pub fn model_config(&self, edge_dim: usize) -> TgatConfig {
        TgatConfig {
            dim: self.dim,
            edge_dim,
            time_dim: self.dim,
            n_layers: 2,
            n_heads: 2,
            n_neighbors: self.n_neighbors,
        }
    }

    /// True if `name` is selected by `--datasets` (or no filter given).
    pub fn selects(&self, name: &str) -> bool {
        self.datasets.is_empty() || self.datasets.iter().any(|d| d == name)
    }

    /// Cache limit with the paper default applied.
    pub fn effective_cache_limit(&self) -> usize {
        if self.cache_limit == 0 {
            2_000_000
        } else {
            self.cache_limit
        }
    }
}

/// The experiment flags, for a binary's usage text.
pub const USAGE: &str = "\
Experiment flags: [--scale F] [--runs N] [--seed N] [--dim N] [--neighbors N]
                  [--batch N] [--cache-limit N] [--datasets a,b,...] [--paper]

  --scale F        fraction of each dataset's edges to generate (default 0.02)
  --runs N         timed repetitions per configuration (default 2)
  --dim N          model embedding/time dimension (default 32; paper 100)
  --neighbors N    sampled neighbors per target (default 10; paper 20)
  --batch N        edges per inference batch (default 200, as in the paper)
  --cache-limit N  embedding cache capacity (default 2,000,000)
  --datasets LIST  comma-separated dataset filter
  --paper          full paper configuration (scale 1.0, dim 100, 20 nbrs, 10 runs)";

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value {s:?} for {flag}"))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> ExpArgs {
        ExpArgs::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_laptop_sized() {
        let a = parse(&[]);
        assert_eq!(a.scale, 0.02);
        assert_eq!(a.dim, 32);
        assert_eq!(a.batch_size, 200);
        assert!(a.selects("jodie-lastfm"));
        assert_eq!(a.effective_cache_limit(), 2_000_000);
    }

    #[test]
    fn flags_override() {
        let a = parse(&["--scale", "0.1", "--runs", "5", "--datasets", "snap-msg,jodie-wiki",
                        "--cache-limit", "1000"]);
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.runs, 5);
        assert!(a.selects("snap-msg"));
        assert!(!a.selects("jodie-mooc"));
        assert_eq!(a.effective_cache_limit(), 1000);
    }

    #[test]
    fn integer_flags_parse_exactly_and_reject_fractions() {
        // 2^53 + 1 is not an f64: parsing through f64 ran seed 2^53.
        let a = parse(&["--seed", "9007199254740993", "--runs", "3", "--cache-limit", "4000000"]);
        assert_eq!(a.seed, 9_007_199_254_740_993);
        assert_eq!(a.runs, 3);
        assert_eq!(a.cache_limit, 4_000_000);
        for flag in ["--runs", "--seed", "--dim", "--neighbors", "--batch", "--cache-limit"] {
            for bad in ["2.9", "-1", "1e3"] {
                let err = ExpArgs::try_parse_from([flag, bad].map(String::from))
                    .expect_err("fractional, negative and exponent values are rejected");
                assert!(err.contains(flag), "{err}");
            }
        }
        assert!(ExpArgs::try_parse_from(["--scale", "0.5"].map(String::from)).is_ok());
    }

    #[test]
    fn paper_preset() {
        let a = parse(&["--paper"]);
        assert_eq!(a.dim, 100);
        assert_eq!(a.n_neighbors, 20);
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.runs, 10);
        let cfg = a.model_config(172);
        assert_eq!(cfg.edge_dim, 172);
        assert!(cfg.validate().is_ok());
    }
}
