//! CLI for the workspace lints: `cargo run -p tg-xtask -- lint`. Its two
//! outputs are the findings report (text or JSON) and, with
//! `UPDATE_EFFECTS_LOCK=1`, a regenerated `effects.lock`.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
Usage: cargo run -p tg-xtask -- lint [--format text|json] [--root PATH]

`lint` runs the repo's static-analysis suite over the workspace library
crates (src/, src/bin/, tests/), the harness code (examples/, bench
binaries), and the root integration suite:

  L4 missing-invariants  L5 lock-order        (per-crate acquisition graph)
  L6 atomics             (Relaxed control signals, torn RMW)
  L7 lock-across         (guards held across expensive calls)
  L8 unguarded-counter   (accounting bypassing snapshot/merge)
  L10 panic-reach        (effect-summary reachability from `// hot-path-root`
                          annotations)
  L11 float-determinism  L12 error-coverage   (TgError constructed AND matched)
  L13 lock-held-effects  L14 deadline-safety  (transitive effects under guards /
                                               unbounded waits on the serve path)
  L16 effects-drift      (summaries vs committed effects.lock)

L16 compares every hot-path root's effect summary with effects.lock at
the workspace root; regenerate it in place with
UPDATE_EFFECTS_LOCK=1 cargo run -q -p tg-xtask -- lint.

There is no L9: the hot path's allocations are counted by
tests/alloc_gate.rs. There is no L1-L3 or L15: clippy checks panics,
lossy casts, SipHash maps and unsafe justifications (scripts/check.sh's
clippy step). The canonical lock order and control-atomics list live in
concurrency.toml at the workspace root. See DESIGN.md \"Error handling &
lint policy\", \"Concurrency model\", and \"Effect inference (L13-L16)\"
for what each lint means and the `// lint: allow(<name>, <reason>)` /
`// relaxed-ok: <reason>` / `// cold-path: <reason>` /
`// bounded-by: <reason>` escape hatches.";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {}
        Some("-h") | Some("--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("error: expected `lint`, got {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                other => {
                    eprintln!("error: --format takes `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown flag {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.map_or_else(find_workspace_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match tg_xtask::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: lint walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", tg_xtask::render_json(&report));
    } else {
        print!("{}", tg_xtask::render_text(&report));
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Walks up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| e.to_string())?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir.to_path_buf());
            }
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no workspace Cargo.toml above {} (pass --root)",
                    start.display()
                ))
            }
        }
    }
}
