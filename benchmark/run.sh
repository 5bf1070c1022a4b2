#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload in one process; the last line of stdout is its result
#       (this is the form BENCHMARK.json's `command` is called with)
#   run.sh [--seed n] [--seconds s]
#       every workload untraced, then every workload traced;
#       results in out/results.json, traces in out/trace-<workload>.json
#   run.sh --check-repeat [--seed n] [--seconds s]
#       two untraced sets of three runs per workload; prints each end-to-end
#       metric's difference between the sets' medians against its bound and
#       exits non-zero on a miss (sim metrics must be identical in every run)
#
# Runs from any directory; builds into $CARGO_TARGET_DIR when set, else into
# benchmark/target. Needs no network: see Cargo.toml and shims/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from; start it where this script was started from.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/unigpu-benchmark"

export UNIGPU_BENCH_OUT="$here/out"

case "${1:-}" in
    --workload) exec "$bin" "$@" ;;
    --check-repeat) shift; exec "$bin" check-repeat "$@" ;;
    ""|--seed|--seconds) exec "$bin" suite "$@" ;;
    *) exec "$bin" "$@" ;;
esac
