#!/usr/bin/env bash
# flowbench: the repository's benchmark of record.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the result object (the form the
#       benchmark driver calls, see BENCHMARK.json)
#   benchmark/run.sh [--seed N] [--runs R] [--seconds S] [--out DIR]
#       every workload: R untraced runs + 1 traced run each, every metric
#       printed as "workload name value unit", results.json and
#       trace_<workload>.json written to DIR (default benchmark/out);
#       non-zero exit on any correctness or workload-validity failure
#   benchmark/run.sh list | compare <setA> <setB>
#
# Builds the benchmark package (release, offline) on every call; an
# up-to-date build is a no-op.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/flowbench/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/flowbench/Cargo.toml" --target-dir "$target" 1>&2
bin="$target/release/flowbench"
case "${1:-}" in
    --workload | list | compare) exec "$bin" "$@" ;;
    *) exec "$bin" suite "$@" ;;
esac
