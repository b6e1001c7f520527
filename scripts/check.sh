#!/usr/bin/env bash
# Pre-PR gate: everything a change must pass before review.
#
#   ./scripts/check.sh
#
# Runs, in order:
#   1. cargo build --release        — the workspace compiles with optimizations
#   2. cargo test -q --workspace    — every crate's unit + integration tests
#      (includes the streaming-ingest suites: tests/prop_streaming.rs,
#      the seeded interleaving equivalence battery, and
#      tests/streaming_stress.rs, real concurrent ingest+query workers)
#   3. cargo test -q -p tg-tensor -p tgat at target-cpu=x86-64-v3 (no
#      AVX-512), in target/portable — keeps the portable matmul panel, and
#      attention's fused K|V product over it, under their bit tests on
#      hosts whose native build runs the 512-bit panels (DESIGN.md "Kernel
#      architecture"); x86-64 hosts only
#   4. cargo test --release -p tgat -- --ignored — the time encoder's cos
#      kernel against libm over all 2^32 f32 inputs (~30 s on two cores;
#      see DESIGN.md "The time encoder's cos")
#   5. cargo test --release --test replay_checksums -- --ignored — the
#      whole jodie-wiki stream through none(), all() and a 2,000-entry
#      cache, one pinned checksum per seed (~90 s on two cores)
#   6. cargo test --release --test alloc_gate — the hot path's pinned
#      allocation counts in release too (step 2 runs them in debug), so
#      each count holds in both profiles (DESIGN.md "The allocation
#      gate")
#   7. scripts/clippy.sh — clippy and rustc with -D warnings at the levels
#      of the root Cargo.toml's [workspace.lints] table: L1 panic, L2
#      lossy-cast (non-test code), L3 std-hash (six hot-path modules of
#      tgopt), L15 unsafe-audit (tests included) and clippy's default lints;
#      an #[expect] that is no longer needed fails it too. `cargo test`
#      does not run it (DESIGN.md "Error handling & lint policy")
#   8. cargo run -p tg-xtask -- lint — the repo's static-analysis suite
#      (L4 missing-invariants; the concurrency rules L5 lock-order,
#      L6 atomics, L7 lock-across, L8 unguarded-counter; the call-graph
#      reachability rules L10 panic-reach, L11 float-determinism,
#      L12 error-coverage; and the effect-inference rules
#      L13 lock-held-effects, L14 deadline-safety, L16 effects-drift
#      against the committed effects.lock; see DESIGN.md "Error handling
#      & lint policy", "Concurrency model", "Call-graph reachability
#      (L10-L12)", and "Effect inference (L13-L16)")
#   9. the four examples in release — each exits nonzero on an error or a
#      failed assert (quickstart's none-vs-all drift; evolving_graph_
#      maintenance's reuse after growth and refusal after a deletion);
#      ~3 s on two cores
#  10. cargo check --locked --offline of the stand-alone ledger package
#      (crates/bench/src/bin/ledger/Cargo.toml, BENCHMARK.json's build) —
#      a product change that breaks a signature the frozen ledger calls,
#      or that would change its Cargo.lock, fails here (DESIGN.md "What
#      the frozen ledger pins")
#  11. ledger --smoke               — all four perf-ledger workloads at
#      scale 0.05 (~10 s); exits 1 on any oracle mismatch (replay vs the
#      opposite config, served vs direct, post-ingest served vs cold
#      rebuild)
#  12. exp all                      — every table and figure of the paper at
#      the laptop profile (~2 min on two cores), each with its shape check;
#      exits 1 if a shape stops holding. Logs go to a temporary directory,
#      so the committed logs/ are left as they are
#
# The lint also runs inside `cargo test` via tests/lint_gate.rs, so step 8
# is technically redundant — but running it standalone gives file:line
# output without a test harness around it. It is the analyzer's only
# command, and its L16 is the only effects.lock drift gate.
#
# Not run here (separate CI jobs, both seconds-to-minutes): the loom
# concurrency models —
#   RUSTFLAGS="--cfg loom" cargo test --test loom_concurrency --release
# (a different RUSTFLAGS fingerprint rebuilds the whole workspace, so it
# stays out of the inner dev loop) — and nightly `cargo miri test`.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

if [ "$(uname -m)" = x86_64 ]; then
    echo "==> cargo test -q -p tg-tensor -p tgat (portable panel, x86-64-v3)"
    CARGO_TARGET_DIR=target/portable RUSTFLAGS="-C target-cpu=x86-64-v3" cargo test -q -p tg-tensor -p tgat
fi

echo "==> cargo test --release -p tgat -- --ignored"
cargo test --release -q -p tgat -- --ignored

echo "==> cargo test --release --test replay_checksums -- --ignored"
cargo test --release -q --test replay_checksums -- --ignored

echo "==> cargo test --release --test alloc_gate"
cargo test --release -q --test alloc_gate

echo "==> clippy (L1-L3, L15)"
scripts/clippy.sh

echo "==> cargo run -p tg-xtask -- lint"
cargo run --release -q -p tg-xtask -- lint

echo "==> examples"
for example in quickstart link_prediction streaming_recommendations evolving_graph_maintenance; do
    cargo run --release -q --example "$example" >/dev/null
done

echo "==> cargo check the stand-alone ledger (--locked --offline)"
cargo check --locked --offline --manifest-path crates/bench/src/bin/ledger/Cargo.toml

# Perf-ledger smoke (mirrors the blocking CI step): every workload's
# correctness oracle, including post-ingest served rows against a cold
# rebuild. Exits nonzero on divergence.
echo "==> ledger --smoke"
cargo run --release -q -p tg-bench --bin ledger -- --smoke >/dev/null

echo "==> exp all (paper shape checks)"
exp_logs="$(mktemp -d)"
trap 'rm -rf "$exp_logs"' EXIT
cargo run --release -q -p tg-bench --bin exp -- all --out "$exp_logs" >/dev/null

echo "==> all checks passed"
