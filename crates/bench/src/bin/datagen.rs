//! Writes a generated dataset to the artifact's `ml_{name}.csv` edge-list
//! format so external tooling (or the original Python pipeline) can consume
//! the synthetic graphs, and `tg_datasets::load_csv` reads them back.
//!
//! ```sh
//! cargo run --release -p tg-bench --bin datagen -- -d snap-msg --scale 0.1 --out data/
//! ```

use std::io::Write;
use tg_bench::{harness, ExpArgs};

fn main() -> std::io::Result<()> {
    let mut dataset = "snap-msg".to_string();
    let mut out_dir = "data".to_string();
    let mut passthrough: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "-d" | "--dataset" => dataset = take("-d"),
            "--out" => out_dir = take("--out"),
            "-h" | "--help" => {
                eprintln!(
                    "Usage: datagen [-d NAME] [--out DIR] [--scale F] [--seed N]\n\
                     Writes ml_<name>.csv (u,i,ts,label,idx rows) under DIR."
                );
                std::process::exit(0);
            }
            other => {
                passthrough.push(other.to_string());
                if matches!(other, "--scale" | "--seed" | "--dim" | "--neighbors" | "--batch" | "--runs") {
                    passthrough.push(take(other));
                }
            }
        }
    }
    let args = ExpArgs::parse_from(passthrough);
    let ds = harness::dataset_for(&args, &dataset);

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("error: cannot create {out_dir}: {e}");
        std::process::exit(1);
    });
    let path = std::path::Path::new(&out_dir).join(format!("ml_{dataset}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }));
    writeln!(f, "u,i,ts,label,idx")?;
    for e in ds.stream.edges() {
        writeln!(f, "{},{},{},0,{}", e.src, e.dst, e.time, e.eid)?;
    }
    f.flush()?;
    println!(
        "wrote {} ({} edges, {} nodes, max t {})",
        path.display(),
        ds.stream.len(),
        ds.stream.num_nodes(),
        ds.stream.max_time()
    );
    Ok(())
}
