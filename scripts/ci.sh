#!/usr/bin/env sh
# The full gate a change must pass before merging. Keep this in sync with
# README "Testing": formatting, lints as errors, then the whole suite
# once (place and route run on one thread, so there is no second
# configuration to test). The source rules (one home per primitive,
# dense indices, one thread per compile, one transport, one panic
# boundary, the unwrap and canon allowlists) are rows of the table in
# tests/source_rules.rs, so the `cargo test` leg below runs them.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q (every crate, plus the source rules)"
cargo test -q --workspace

echo "==> scripts/chaos.sh (fault-injection suites, pinned seed)"
sh scripts/chaos.sh

echo "==> scripts/crash.sh (SIGKILL recovery over the durable cache)"
sh scripts/crash.sh

echo "==> scripts/metrics.sh (observability smoke: metrics verb + trace)"
sh scripts/metrics.sh

echo "==> scripts/check.sh (lint + equivalence gate over examples/, broken input)"
sh scripts/check.sh

echo "==> scripts/bench.sh (QoR gate: smoke tier vs BENCH_baseline.json)"
sh scripts/bench.sh

echo "==> benchmark/selfcheck.sh (flowbench: catalogue, BENCHMARK.json and recorded results agree)"
bash benchmark/selfcheck.sh

echo "==> scripts/farm.sh (compile farm: kill-a-node failover, breakers, tenant quotas, gateway QoR parity)"
sh scripts/farm.sh

echo "CI gate passed."
