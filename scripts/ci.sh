#!/usr/bin/env sh
# The full gate a change must pass before merging. Keep this in sync with
# README "Testing": formatting, lints as errors, then the whole suite. The
# source rules (one home per primitive, dense indices, one transport, one
# panic boundary, the unwrap and canon allowlists) are rows of the table
# in tests/source_rules.rs, so the `cargo test` legs below run them.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q (every crate, plus the source rules)"
cargo test -q --workspace

echo "==> cargo test -q with FLOW_THREADS=2 (parallel engines by default)"
# Every test that doesn't pin a thread count now exercises the parallel
# place/route paths; cross-thread determinism means results — and
# therefore every assertion — must come out the same.
FLOW_THREADS=2 cargo test -q --workspace

echo "==> scripts/chaos.sh (fault-injection suites, pinned seed)"
sh scripts/chaos.sh

echo "==> scripts/crash.sh (SIGKILL recovery over the durable cache)"
sh scripts/crash.sh

echo "==> scripts/metrics.sh (observability smoke: metrics verb + trace)"
sh scripts/metrics.sh

echo "==> scripts/check.sh (lint + equivalence gate over examples/, broken input, seeded LUT corruption)"
sh scripts/check.sh

echo "==> scripts/bench.sh (QoR gate: smoke tier vs BENCH_baseline.json)"
sh scripts/bench.sh

echo "==> benchmark/selfcheck.sh (flowbench: catalogue, BENCHMARK.json and recorded results agree)"
bash benchmark/selfcheck.sh

echo "==> scripts/farm.sh (compile farm: kill-a-node failover, breakers, tenant quotas, gateway QoR parity, artifact tier chaos)"
sh scripts/farm.sh

echo "CI gate passed."
