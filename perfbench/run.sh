#!/usr/bin/env bash
# Builds the benchmark and the oftt-node binary from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ckpt-stream --seed 1 --seconds 20 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet -p oftt-wire --bin oftt-node >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
