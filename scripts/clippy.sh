#!/usr/bin/env bash
# Clippy and rustc at the levels of the root Cargo.toml's [workspace.lints]
# table, as errors: the panic (L1), lossy-cast (L2), std-hash (L3) and
# unsafe-audit (L15) rules plus clippy's default lints, and L10's
# indexing_slicing, which tg-serve's lib.rs denies in its non-test code
# (DESIGN.md "Error handling & lint policy"). An exemption is an #[expect(<lint>, reason =
# "...")] on the narrowest statement or item; an #[expect] that is no
# longer needed fails here too.
#
#   ./scripts/clippy.sh
#
# Every first-party package is named tg*; --no-deps leaves the vendored
# shims out. The crates/bench/src/bin/ledger/ bin is never selected: it is
# the frozen benchmark, which may not be edited.
#
# Non-test code gets the whole table. Test builds (unit tests, integration
# tests, tg-xtask) get it without the L1 and L2 lints, whose scope is
# non-test code: clippy.toml's allow-*-in-tests would not cover the helper
# fns of tests/*.rs.

set -euo pipefail
cd "$(dirname "$0")/.."

bins=(--bin exp --bin train --bin datagen --bin tg-xtask)
cargo clippy -q -p 'tg*' --no-deps --lib --examples "${bins[@]}" -- -D warnings
cargo clippy -q -p 'tg*' --no-deps --profile test --lib "${bins[@]}" --test '*' -- -D warnings \
    -A clippy::unwrap_used -A clippy::expect_used -A clippy::panic -A clippy::unreachable \
    -A clippy::todo -A clippy::unimplemented \
    -A clippy::cast_possible_truncation -A clippy::cast_precision_loss
