#!/usr/bin/env bash
# Builds the rted CLI and the benchmark harness from source (release
# profile), then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload pairs --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail

: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rted-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

target=$CARGO_TARGET_DIR
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
"$target/release/perfbench" --rted "$target/release/rted" "$@"
