#!/usr/bin/env bash
# Builds tspn-serve and the benchmark from source, then runs one workload:
#   bash perfbench/run.sh --workload serve_repeat --seed 7 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-check
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p tspn-serve --bin tspn-serve 1>&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/tspn-serve" "$@"
