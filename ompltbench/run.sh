#!/usr/bin/env bash
# Builds the ompltd daemon and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash ompltbench/run.sh --workload compile_cold --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); sockets and
# trace files go to .ompltbench/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin ompltd
cargo build --release --offline --quiet --manifest-path ompltbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ompltbench" --ompltd "$CARGO_TARGET_DIR/release/ompltd" "$@"
