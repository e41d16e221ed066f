#!/usr/bin/env bash
# Build the binaries users run (sdchecker, sdcheckerd) and the harness
# into one target directory, then run the harness with the given flags.
# Run from the repository root: `bash sdbench/run.sh --workload batch_tpch
# --seed 1 --seconds 12 --trace 0`. Compilation is not part of any metric.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p sdchecker --bins >&2
cargo build --release --offline --quiet --manifest-path sdbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sdbench" "$@"
