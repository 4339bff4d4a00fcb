#!/usr/bin/env sh
# Compile-farm harness: a *real* flow-gateway in front of real flowd
# backends, with a kill-a-node chaos leg.
#
#   1. three backends, each stalled 8 s at route (--fault) so the job is
#      observably mid-pipeline; submit through the gateway, find the
#      busy backend from the gateway's own metrics, SIGKILL it, and
#      assert the client still exits 0 (exactly one done) while the
#      metrics show >=1 failover and an opened breaker for the corpse;
#   2. per-tenant quotas: burst 1, no refill, no queue — the same tenant's
#      second job sheds (exit 4, retryable rejection) while a different
#      tenant sails through, and the shed shows up in
#      flowgw_tenant_jobs_total;
#   3. the QoR smoke tier through the gateway vs straight at the backend
#      on one cache dir: rows must be QoR-identical in both directions
#      (the gateway adds routing, never results); then the tier once more
#      through the gateway, all cache hits, and the gateway's own
#      flowgw_job_duration_ms must average under 40 ms per job — real
#      binaries over real sockets never wait out a Nagle/delayed-ACK
#      stall (one costs 44 ms per hop direction).
#
# Deterministic: breaker jitter is pinned by CHAOS_SEED, routing is a
# pure hash, and every rendezvous polls observable state (ping, metrics)
# rather than sleeping blind.
set -eu

cd "$(dirname "$0")/.."

CHAOS_SEED="${CHAOS_SEED:-3405691582}"
BASE=$((21000 + $$ % 1000))
P1=$BASE; P2=$((BASE + 1)); P3=$((BASE + 2))
PG1=$((BASE + 3)); PG2=$((BASE + 4)); PG3=$((BASE + 5)); P4=$((BASE + 6)); P5=$((BASE + 7))
WORK="${TMPDIR:-/tmp}/ifdf-farm-$$"
PIDS=""

cleanup() {
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

mkdir -p "$WORK"

echo "==> building flowd + flowc + flow-gateway + qor_bench (release)"
cargo build -q --release -p fpga-server --bins
cargo build -q --release -p fpga-bench --bins
FLOWD=target/release/flowd
FLOWC=target/release/flowc
GATEWAY=target/release/flow-gateway
QOR_BENCH=target/release/qor_bench
BENCH_DIFF=target/release/bench-diff

. scripts/lib.sh
write_counter4 "$WORK/counter.vhd"

echo "==> leg 1: SIGKILL the busy backend mid-pipeline, job fails over"
# Each backend stalls 8 s the first time it runs route: long enough to
# find and kill the node, and the failover peer's own stall proves the
# retried job really re-runs the pipeline there.
"$FLOWD" --tcp "127.0.0.1:$P1" --workers 1 --fault route:1:sleep:8000 2>> "$WORK/b1.log" &
B1=$!; PIDS="$PIDS $B1"
"$FLOWD" --tcp "127.0.0.1:$P2" --workers 1 --fault route:1:sleep:8000 2>> "$WORK/b2.log" &
B2=$!; PIDS="$PIDS $B2"
"$FLOWD" --tcp "127.0.0.1:$P3" --workers 1 --fault route:1:sleep:8000 2>> "$WORK/b3.log" &
B3=$!; PIDS="$PIDS $B3"
# Backends must be up before the gateway starts: with a 1-failure
# breaker and a 60 s reopen, losing the startup race would isolate a
# perfectly healthy node for the whole leg.
for p in $P1 $P2 $P3; do wait_for "$FLOWC" --tcp "127.0.0.1:$p" ping; done
"$GATEWAY" --tcp "127.0.0.1:$PG1" \
    --backend "127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$P3" \
    --health-interval 100ms --breaker-failures 1 --breaker-reopen 60s \
    --jitter-seed "$CHAOS_SEED" 2>> "$WORK/gw1.log" &
G1=$!; PIDS="$PIDS $G1"
wait_for "$FLOWC" --tcp "127.0.0.1:$PG1" ping

"$FLOWC" --tcp "127.0.0.1:$PG1" compile "$WORK/counter.vhd" --deadline 60s \
    -o "$WORK/farm.bit" 2> "$WORK/submit.log" &
SUBMIT=$!

# The gateway's own gauges say which backend holds the job.
busy_backend() {
    "$FLOWC" --tcp "127.0.0.1:$PG1" metrics --text 2>/dev/null \
        | sed -n 's/^flowgw_backend_in_flight{backend="\([^"]*\)"} 1$/\1/p' | head -1
}
busy_found() { [ -n "$(busy_backend)" ]; }
wait_for busy_found
BUSY=$(busy_backend)
case "$BUSY" in
    *:"$P1") VICTIM=$B1 ;;
    *:"$P2") VICTIM=$B2 ;;
    *:"$P3") VICTIM=$B3 ;;
    *) echo "FAIL: unrecognized busy backend '$BUSY'" >&2; exit 1 ;;
esac
echo "    busy backend $BUSY (pid $VICTIM) — kill -9"
kill -9 "$VICTIM"
wait "$VICTIM" 2>/dev/null || true

set +e
wait "$SUBMIT"
SUBMIT_RC=$?
set -e
[ "$SUBMIT_RC" -eq 0 ] \
    || { echo "FAIL: compile through the gateway exited $SUBMIT_RC after node death" >&2; cat "$WORK/submit.log" >&2; exit 1; }
[ -s "$WORK/farm.bit" ] || { echo "FAIL: empty bitstream after failover" >&2; exit 1; }
DONES=$(grep -c ' done (' "$WORK/submit.log" || true)
[ "$DONES" -eq 1 ] || { echo "FAIL: expected exactly one done line, got $DONES" >&2; cat "$WORK/submit.log" >&2; exit 1; }

"$FLOWC" --tcp "127.0.0.1:$PG1" metrics --text > "$WORK/gw1-metrics.txt"
check_exposition "$WORK/gw1-metrics.txt"
FAILOVERS=$(awk -F'} ' '/^flowgw_backend_failovers_total\{/{ total += $2 } END { print total + 0 }' "$WORK/gw1-metrics.txt")
[ "$FAILOVERS" -ge 1 ] \
    || { echo "FAIL: metrics show no failover" >&2; cat "$WORK/gw1-metrics.txt" >&2; exit 1; }
grep -q "flowgw_breaker_transitions_total{backend=\"$BUSY\",to=\"open\"} [1-9]" "$WORK/gw1-metrics.txt" \
    || { echo "FAIL: killed backend's breaker never opened" >&2; cat "$WORK/gw1-metrics.txt" >&2; exit 1; }
grep -q "flowgw_backend_healthy{backend=\"$BUSY\"} 0" "$WORK/gw1-metrics.txt" \
    || { echo "FAIL: killed backend still reported healthy" >&2; cat "$WORK/gw1-metrics.txt" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$PG1" shutdown >/dev/null 2>&1 || true

echo "==> leg 2: tenant quota sheds the hog, spares the neighbor"
"$FLOWD" --tcp "127.0.0.1:$P4" --workers 1 2>> "$WORK/b4.log" &
B4=$!; PIDS="$PIDS $B4"
wait_for "$FLOWC" --tcp "127.0.0.1:$P4" ping
"$GATEWAY" --tcp "127.0.0.1:$PG2" --backend "127.0.0.1:$P4" \
    --tenant-burst 1 --tenant-rate 0 --admission-queue 0 --retry-after 250ms \
    --jitter-seed "$CHAOS_SEED" 2>> "$WORK/gw2.log" &
G2=$!; PIDS="$PIDS $G2"
wait_for "$FLOWC" --tcp "127.0.0.1:$PG2" ping

"$FLOWC" --tcp "127.0.0.1:$PG2" compile "$WORK/counter.vhd" --tenant heavy \
    -o /dev/null 2>> "$WORK/leg2.log" \
    || { echo "FAIL: heavy tenant's first job must pass" >&2; exit 1; }
set +e
"$FLOWC" --tcp "127.0.0.1:$PG2" compile "$WORK/counter.vhd" --tenant heavy --retries 1 \
    -o /dev/null 2>> "$WORK/leg2.log"
HOG_RC=$?
set -e
[ "$HOG_RC" -eq 4 ] \
    || { echo "FAIL: hog's second job should shed with exit 4, got $HOG_RC" >&2; cat "$WORK/leg2.log" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$PG2" compile "$WORK/counter.vhd" --tenant light \
    -o /dev/null 2>> "$WORK/leg2.log" \
    || { echo "FAIL: light tenant must not be starved by heavy's quota" >&2; exit 1; }

"$FLOWC" --tcp "127.0.0.1:$PG2" metrics --text > "$WORK/gw2-metrics.txt"
check_exposition "$WORK/gw2-metrics.txt"
grep -q 'flowgw_tenant_jobs_total{tenant="heavy",state="shed"} 1' "$WORK/gw2-metrics.txt" \
    || { echo "FAIL: heavy's shed not counted" >&2; cat "$WORK/gw2-metrics.txt" >&2; exit 1; }
grep -q 'flowgw_tenant_jobs_total{tenant="light",state="admitted"} 1' "$WORK/gw2-metrics.txt" \
    || { echo "FAIL: light's admission not counted" >&2; cat "$WORK/gw2-metrics.txt" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$PG2" shutdown >/dev/null 2>&1 || true
"$FLOWC" --tcp "127.0.0.1:$P4" shutdown >/dev/null 2>&1 || true

echo "==> leg 3: QoR smoke tier via gateway == via daemon, byte for byte"
"$FLOWD" --tcp "127.0.0.1:$P5" --workers 2 --cache-dir "$WORK/cache" 2>> "$WORK/b5.log" &
B5=$!; PIDS="$PIDS $B5"
wait_for "$FLOWC" --tcp "127.0.0.1:$P5" ping
"$GATEWAY" --tcp "127.0.0.1:$PG3" --backend "127.0.0.1:$P5" \
    --jitter-seed "$CHAOS_SEED" 2>> "$WORK/gw3.log" &
G3=$!; PIDS="$PIDS $G3"
wait_for "$FLOWC" --tcp "127.0.0.1:$PG3" ping

"$QOR_BENCH" --tier smoke --via-daemon "127.0.0.1:$PG3" --out "$WORK/BENCH_gw.json" \
    2> "$WORK/bench-gw.log" \
    || { echo "FAIL: qor_bench via gateway" >&2; cat "$WORK/bench-gw.log" >&2; exit 1; }
"$QOR_BENCH" --tier smoke --via-daemon "127.0.0.1:$P5" --out "$WORK/BENCH_direct.json" \
    2> "$WORK/bench-direct.log" \
    || { echo "FAIL: qor_bench direct at backend" >&2; cat "$WORK/bench-direct.log" >&2; exit 1; }
# QoR must be identical in both directions (bench-diff gates QoR only).
"$BENCH_DIFF" "$WORK/BENCH_direct.json" "$WORK/BENCH_gw.json" \
    --max-qor-regress 0 \
    || { echo "FAIL: gateway rows differ from direct rows" >&2; exit 1; }
"$BENCH_DIFF" "$WORK/BENCH_gw.json" "$WORK/BENCH_direct.json" \
    --max-qor-regress 0 \
    || { echo "FAIL: direct rows differ from gateway rows" >&2; exit 1; }
# The gateway's metrics verb aggregates the farm's cache tiers, so
# cache-aware clients (qor_bench) see real counters through it.
grep -q '"daemon_cache"' "$WORK/BENCH_gw.json" \
    || { echo "FAIL: gateway bench report missing aggregated cache counters" >&2; exit 1; }
# Warm pass through the gateway: the mean whole-job time the gateway
# clocked over exactly these jobs (histogram _sum and _count, after
# minus before).
job_duration() {
    awk -v want="flowgw_job_duration_ms_$1{verb=\"compile\"}" '$1 == want { print $2 }' "$2"
}
"$FLOWC" --tcp "127.0.0.1:$PG3" metrics --text > "$WORK/gw3-before.txt"
"$QOR_BENCH" --tier smoke --via-daemon "127.0.0.1:$PG3" --out "$WORK/BENCH_gw_warm.json" \
    2> "$WORK/bench-gw-warm.log" \
    || { echo "FAIL: warm qor_bench via gateway" >&2; cat "$WORK/bench-gw-warm.log" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$PG3" metrics --text > "$WORK/gw3-after.txt"
check_exposition "$WORK/gw3-after.txt"
WARM_JOBS=$(( $(job_duration count "$WORK/gw3-after.txt") - $(job_duration count "$WORK/gw3-before.txt") ))
[ "$WARM_JOBS" -gt 0 ] \
    || { echo "FAIL: the warm pass left no flowgw_job_duration_ms observations" >&2; exit 1; }
WARM_MEAN_MS=$(awk -v a="$(job_duration sum "$WORK/gw3-after.txt")" \
    -v b="$(job_duration sum "$WORK/gw3-before.txt")" -v n="$WARM_JOBS" \
    'BEGIN { printf "%.3f", (a - b) / n }')
echo "    warm pass: $WARM_JOBS jobs, gateway mean $WARM_MEAN_MS ms/job"
awk -v mean="$WARM_MEAN_MS" 'BEGIN { exit !(mean < 40) }' \
    || { echo "FAIL: warm jobs through the gateway average $WARM_MEAN_MS ms (>= 40): a hop is stalling" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$PG3" shutdown >/dev/null 2>&1 || true
"$FLOWC" --tcp "127.0.0.1:$P5" shutdown >/dev/null 2>&1 || true

echo "Compile-farm harness passed."
