#!/usr/bin/env bash
# A blocking wait that goes wrong does not assert, it hangs: a lost
# wake-up leaves a node thread asleep with work queued. So the threaded
# suites are repeated here under a timeout, in release, where such races
# have historically shown up about one run in five, and a timeout kill
# fails the job like any other non-zero exit.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=10
# A package, then the cargo target selector of one test binary. The
# recovery suite's reference run and idle restart recover stores inside
# node threads (its crash-and-resume runs in the simulator). The
# channel shim's lib tests are here because every node thread blocks in
# its timed wait (`block_until`), which also sets the thread's timer
# slack. The network's lib tests are here because an endpoint's receive path does
# its own delivery timing (`engine.rs`, `endpoint.rs`). The pipeline
# grid is the threaded OXII executor across depth, durability and
# contention: it wakes for its next execution on its own deadline, so a
# deadline it fails to report hangs there. The core crate's lib tests
# hold the threaded node loop's own tests (`node.rs`) and the runner's
# whole-cluster smoke runs of every paradigm (`runner.rs`).
SUITES=(
    "parblockchain --lib"
    "parblockchain --test recovery"
    "parblockchain_repro --test end_to_end"
    "parblockchain_repro --test pipeline_equivalence"
    "parblock_net --test behaviour"
    "parblock_net --lib"
    "crossbeam --lib"
)

# Build every binary once, before the first run.
bins=()
for suite in "${SUITES[@]}"; do
    read -r package target <<<"$suite"
    # Unquoted on purpose: the selector is one or two words.
    bin=$(cargo test --release --no-run -p "$package" $target 2>&1 |
        sed -n 's/^ *Executable .*(\(.*\))$/\1/p')
    if [ ! -x "$bin" ]; then
        echo "stress: no test binary for $package $target" >&2
        exit 1
    fi
    bins+=("$bin")
done

for bin in "${bins[@]}"; do
    for run in $(seq 1 "$RUNS"); do
        status=0
        timeout 120 "$bin" >/dev/null 2>&1 || status=$?
        if [ "$status" -ne 0 ]; then
            echo "stress: $bin failed on run $run of $RUNS (exit $status; 124 is a hang)" >&2
            exit 1
        fi
    done
    echo "stress: $bin passed $RUNS runs"
done
