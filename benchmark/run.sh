#!/usr/bin/env bash
# The gate benchmark's one command. Builds `prio-node`/`prio-submit` from the
# root workspace and the benchmark from this package (both offline, into one
# target directory), then hands the arguments to the benchmark binary:
#
#   benchmark/run.sh                      full run set: 5 workloads x 5 repeats -> out/results.json
#   benchmark/run.sh --quick              1 repeat, 1/10 of the batch counts (< 30 s, not comparable)
#   benchmark/run.sh --traced             the 40-metric layer ladder -> out/layers.json + traces
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    one gate run (the PR driver)
#
# Exits non-zero if a build fails, if any output disagrees with the oracle
# (failed_share > 0), or if `compare` finds a row worse than its bound.
set -euo pipefail

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-}"
if [[ -n "$target" && "$target" != /* ]]; then
  target="$PWD/$target"
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${target:-$here/target}"

# The program under test, exactly as the workspace builds it.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p prio_proc
# The benchmark: its own package, its own lock file, outside the workspace.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

bin="$CARGO_TARGET_DIR/release"
common=(--bin-dir "$bin" --out-dir "$here/out")
case "${1:-}" in
  compare)
    exec "$bin/benchmark" compare --spec "$root/BENCHMARK.json" "${@:2}" ;;
  --workload | --seed | --seconds | --trace)
    exec "$bin/benchmark" "$@" "${common[@]}" ;;
  *)
    exec "$bin/benchmark" set "$@" "${common[@]}" ;;
esac
