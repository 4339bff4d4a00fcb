#!/usr/bin/env sh
# Deterministic chaos run: the fault-injection suites that prove flowd
# survives panicking stages, deadline overruns, oversized requests, and
# saturation — all under a pinned jitter seed so every run
# retries on the same schedule. Override with CHAOS_SEED=N to explore;
# any seed must pass.
set -eu

cd "$(dirname "$0")/.."

CHAOS_SEED="${CHAOS_SEED:-3405691582}"
export CHAOS_SEED
echo "==> chaos run (CHAOS_SEED=$CHAOS_SEED)"

echo "==> fpga-flow fault-injection unit tests"
cargo test -q -p fpga-flow fault

echo "==> flowd chaos suite (panic / timeout / oversize / overload)"
cargo test -q -p fpga-server --test chaos

echo "==> flowd worker-survival suite (a panic at every stage, panic storm)"
cargo test -q -p fpga-server --test worker_survival

echo "Chaos run passed."
