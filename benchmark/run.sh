#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--runs R] [--smoke]
#   benchmark/run.sh compare A.json B.json
#
# Start it from the repository root: the repository's .cargo/config.toml
# (target-cpu=native) is found from the working directory, and compare and
# --smoke read BENCHMARK.json there. Results go to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The harness passes thread counts and tracing explicitly; the repository's
# environment switches must not reach the program.
unset FEDTUNE_THREADS FEDTUNE_TRACE FEDTUNE_BENCH_JSON FEDTUNE_BENCH_SCALE \
      FEDTUNE_LEDGER_DIR FEDTUNE_LEDGER_TRIALS FEDTUNE_LEDGER_SCALE_TRIALS FEDPOP_SCALE

# A relative CARGO_TARGET_DIR is relative to the working directory.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

exec "$target/release/fedtune-benchmark" "$@"
