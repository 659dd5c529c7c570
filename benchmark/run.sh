#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Arguments go to parbench:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--repeat K] [--smoke]
#       all four workloads, untraced then traced; prints every metric
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the JSON result
#   benchmark/run.sh --manifest
#       prints BENCHMARK.json from the benchmark's own tables
#
# The working directory is left alone, so a relative CARGO_TARGET_DIR
# means what the caller meant. Unset, the root workspace's target/ is
# shared.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/../target}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/parbench" --out "$here/out" "$@"
