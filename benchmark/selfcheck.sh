#!/usr/bin/env bash
# Self-check of the benchmark itself (cheap; meant to be wired into
# scripts/ci.sh by a later change):
#   1. `flowbench list` runs and every name fits the contract's alphabet,
#   2. the bin's unit tests pass (percentile/median/geomean, span
#      self-time subtraction, the compare rule),
#   3. BENCHMARK.json, `flowbench list` and a recorded results.json name
#      exactly the same workloads and metrics with the same units,
#      directions and bounds.
# Usage: benchmark/selfcheck.sh [results.json]   (default: runs/setA)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/flowbench/target}"
results="${1:-$here/runs/setA/results.json}"

listing="$("$here/run.sh" list)"
cargo test --release --offline --quiet \
    --manifest-path "$here/flowbench/Cargo.toml" --target-dir "$target"

LISTING="$listing" python3 - "$here/../BENCHMARK.json" "$results" <<'PY'
import json, os, re, sys

bench = json.load(open(sys.argv[1]))
results = json.load(open(sys.argv[2]))
listed = {"workload": {}, "end_to_end": {}, "per_layer": {}}
for line in os.environ["LISTING"].splitlines():
    kind, rest = line.split(" ", 1)
    head = rest.split(" - ", 1)[0].split(" ")
    listed[kind][head[0]] = head[1:]

def fail(msg):
    sys.exit(f"selfcheck: {msg}")

for kind in listed:
    for name in listed[kind]:
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name):
            fail(f"{kind} name '{name}' is outside the contract's alphabet")

if [w["name"] for w in bench["workloads"]] != list(listed["workload"]):
    fail("BENCHMARK.json workloads differ from `flowbench list`")
for kind in ("end_to_end", "per_layer"):
    declared = {m["name"]: [m["unit"], m["better"]] + ([repr(m["bound"])] if "bound" in m else []) for m in bench[kind]}
    printed = {n: v[:2] + ([repr(float(v[2]))] if len(v) > 2 else []) for n, v in listed[kind].items()}
    if declared != printed:
        odd = sorted(n for n in set(declared) | set(printed) if declared.get(n) != printed.get(n))
        fail(f"BENCHMARK.json {kind} differs from `flowbench list`: {odd}")

for run in results["runs"]:
    kind = "per_layer" if run["trace"] else "end_to_end"
    if run["workload"] not in listed["workload"]:
        fail(f"results name an unknown workload {run['workload']}")
    if list(run["metrics"]) != list(listed[kind]):
        fail(f"a {run['workload']} run's metric names differ from the catalogue's {kind} list")
    for name, m in run["metrics"].items():
        if m["unit"] != listed[kind][name][0]:
            fail(f"{name}: unit {m['unit']} in results, {listed[kind][name][0]} in the catalogue")
print(f"selfcheck: {len(listed['workload'])} workloads, {len(listed['end_to_end'])} end-to-end and "
      f"{len(listed['per_layer'])} per-layer metrics agree across BENCHMARK.json, `flowbench list` and {sys.argv[2]}")
PY
