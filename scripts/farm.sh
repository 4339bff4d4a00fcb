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
#      stall (one costs 44 ms per hop direction);
#   4. warm-remote failover: stage artifacts published to a store node
#      survive a SIGKILL — the failover peer replays the job on warm
#      *remote* hits and still finishes inside the client's original
#      deadline;
#   5. corrupt-transfer: a gateway that flips a hex digit in every
#      artifact payload produces only quarantines and remote misses —
#      every job completes, bitstreams and QoR rows stay identical, and
#      a dead artifact gateway degrades the same way.
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
# Leg 4: artifact store node, two workers, artifact + farm gateways.
PS4=$((BASE + 8)); P6=$((BASE + 9)); P7=$((BASE + 10)); PGA=$((BASE + 11)); PGF=$((BASE + 12))
# Leg 5: warm store node, cold worker, corrupting artifact gateway.
PS5=$((BASE + 13)); P8=$((BASE + 14)); PGC=$((BASE + 15))
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

echo "==> leg 4: SIGKILL mid-job, replay on the peer lands warm remote hits"
# Store node S4 holds the shared artifact tier (fronted by PGA); workers
# A and B publish every finished stage there and stall 8 s the first
# time they run route. Kill whichever worker holds the job mid-route,
# after S4 has stored the four stages before it:
# the failover peer misses locally on every stage but is served warm
# *remote* hits from S4 — and must still finish inside the client's
# original 60 s deadline (which covers both nodes' 8 s stalls).
"$FLOWD" --tcp "127.0.0.1:$PS4" --workers 1 --cache-dir "$WORK/s4" 2>> "$WORK/s4.log" &
S4=$!; PIDS="$PIDS $S4"
wait_for "$FLOWC" --tcp "127.0.0.1:$PS4" ping
"$GATEWAY" --tcp "127.0.0.1:$PGA" --backend "127.0.0.1:$PS4" \
    --jitter-seed "$CHAOS_SEED" 2>> "$WORK/gwa.log" &
GA=$!; PIDS="$PIDS $GA"
wait_for "$FLOWC" --tcp "127.0.0.1:$PGA" ping
"$FLOWD" --tcp "127.0.0.1:$P6" --workers 1 --cache-dir "$WORK/w6" \
    --artifact-gateway "127.0.0.1:$PGA" --fault route:1:sleep:8000 2>> "$WORK/b6.log" &
B6=$!; PIDS="$PIDS $B6"
"$FLOWD" --tcp "127.0.0.1:$P7" --workers 1 --cache-dir "$WORK/w7" \
    --artifact-gateway "127.0.0.1:$PGA" --fault route:1:sleep:8000 2>> "$WORK/b7.log" &
B7=$!; PIDS="$PIDS $B7"
for p in $P6 $P7; do wait_for "$FLOWC" --tcp "127.0.0.1:$p" ping; done
"$GATEWAY" --tcp "127.0.0.1:$PGF" --backend "127.0.0.1:$P6,127.0.0.1:$P7" \
    --health-interval 100ms --breaker-failures 1 --breaker-reopen 60s \
    --jitter-seed "$CHAOS_SEED" 2>> "$WORK/gwf.log" &
GF=$!; PIDS="$PIDS $GF"
wait_for "$FLOWC" --tcp "127.0.0.1:$PGF" ping

"$FLOWC" --tcp "127.0.0.1:$PGF" compile "$WORK/counter.vhd" --deadline 60s \
    -o "$WORK/warm.bit" 2> "$WORK/submit4.log" &
SUBMIT4=$!

busy_backend4() {
    "$FLOWC" --tcp "127.0.0.1:$PGF" metrics --text 2>/dev/null \
        | sed -n 's/^flowgw_backend_in_flight{backend="\([^"]*\)"} 1$/\1/p' | head -1
}
busy_found4() { [ -n "$(busy_backend4)" ]; }
wait_for busy_found4
BUSY4=$(busy_backend4)
case "$BUSY4" in
    *:"$P6") VICTIM4=$B6; SURVIVOR=$P7 ;;
    *:"$P7") VICTIM4=$B7; SURVIVOR=$P6 ;;
    *) echo "FAIL: unrecognized busy backend '$BUSY4'" >&2; exit 1 ;;
esac
# Kill only once S4 has stored synthesis, lut_map, pack and place (4
# writes): the victim then sits in its route stall, and the survivor has
# something to hit. Busy alone can come before the first publish.
published4() {
    "$FLOWC" --tcp "127.0.0.1:$PS4" metrics --text 2>/dev/null \
        | awk '$1 == "flowd_store_writes_total" && $2 >= 4 { ok = 1 } END { exit !ok }'
}
wait_for published4
echo "    busy backend $BUSY4 (pid $VICTIM4) — kill -9, survivor :$SURVIVOR"
kill -9 "$VICTIM4"
wait "$VICTIM4" 2>/dev/null || true

set +e
wait "$SUBMIT4"
SUBMIT4_RC=$?
set -e
[ "$SUBMIT4_RC" -eq 0 ] \
    || { echo "FAIL: compile exited $SUBMIT4_RC after node death" >&2; cat "$WORK/submit4.log" >&2; exit 1; }
[ -s "$WORK/warm.bit" ] || { echo "FAIL: empty bitstream after warm failover" >&2; exit 1; }
DONES4=$(grep -c ' done (' "$WORK/submit4.log" || true)
[ "$DONES4" -eq 1 ] || { echo "FAIL: expected exactly one done line, got $DONES4" >&2; cat "$WORK/submit4.log" >&2; exit 1; }

# The survivor replayed on remote hits, not a cold recompute of every
# stage — and the artifact gateway served them from the store node.
"$FLOWC" --tcp "127.0.0.1:$SURVIVOR" metrics --text > "$WORK/survivor-metrics.txt"
check_exposition "$WORK/survivor-metrics.txt"
grep -q 'flowd_cache_hits_total{tier="remote"} [1-9]' "$WORK/survivor-metrics.txt" \
    || { echo "FAIL: survivor shows no remote hits" >&2; cat "$WORK/survivor-metrics.txt" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$PGA" metrics --text > "$WORK/gwa-metrics.txt"
check_exposition "$WORK/gwa-metrics.txt"
grep -q 'flowgw_artifact_gets_total{result="hit"} [1-9]' "$WORK/gwa-metrics.txt" \
    || { echo "FAIL: artifact gateway served no hits" >&2; cat "$WORK/gwa-metrics.txt" >&2; exit 1; }
grep -q 'flowgw_artifact_corrupted_total 0' "$WORK/gwa-metrics.txt" \
    || { echo "FAIL: clean gateway corrupted transfers" >&2; cat "$WORK/gwa-metrics.txt" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$PGF" shutdown >/dev/null 2>&1 || true
"$FLOWC" --tcp "127.0.0.1:$SURVIVOR" shutdown >/dev/null 2>&1 || true
"$FLOWC" --tcp "127.0.0.1:$PGA" shutdown >/dev/null 2>&1 || true
"$FLOWC" --tcp "127.0.0.1:$PS4" shutdown >/dev/null 2>&1 || true

echo "==> leg 5: corrupt transfers quarantine + recompute, QoR identical"
# S5 computes the design into its own store; the corrupting gateway
# flips one hex digit in every payload it serves, so the cold worker
# must quarantine each transfer and recompute — same bits, no errors.
"$FLOWD" --tcp "127.0.0.1:$PS5" --workers 2 --cache-dir "$WORK/s5" 2>> "$WORK/s5.log" &
S5=$!; PIDS="$PIDS $S5"
wait_for "$FLOWC" --tcp "127.0.0.1:$PS5" ping
"$FLOWC" --tcp "127.0.0.1:$PS5" compile "$WORK/counter.vhd" -o "$WORK/direct5.bit" \
    2>> "$WORK/leg5.log" \
    || { echo "FAIL: warming the store node" >&2; cat "$WORK/leg5.log" >&2; exit 1; }
"$GATEWAY" --tcp "127.0.0.1:$PGC" --backend "127.0.0.1:$PS5" \
    --corrupt-artifacts --jitter-seed "$CHAOS_SEED" 2>> "$WORK/gwc.log" &
GC=$!; PIDS="$PIDS $GC"
wait_for "$FLOWC" --tcp "127.0.0.1:$PGC" ping
"$FLOWD" --tcp "127.0.0.1:$P8" --workers 2 --cache-dir "$WORK/w8" \
    --artifact-gateway "127.0.0.1:$PGC" 2>> "$WORK/b8.log" &
B8=$!; PIDS="$PIDS $B8"
wait_for "$FLOWC" --tcp "127.0.0.1:$P8" ping

"$FLOWC" --tcp "127.0.0.1:$P8" compile "$WORK/counter.vhd" --deadline 30s \
    -o "$WORK/corrupt5.bit" 2>> "$WORK/leg5.log" \
    || { echo "FAIL: job errored under corrupt transfers" >&2; cat "$WORK/leg5.log" >&2; exit 1; }
cmp -s "$WORK/direct5.bit" "$WORK/corrupt5.bit" \
    || { echo "FAIL: corruption changed the bitstream" >&2; exit 1; }

# QoR through the corrupting tier == QoR straight at the warm store, in
# both directions, as in leg 3.
"$QOR_BENCH" --tier smoke --via-daemon "127.0.0.1:$P8" --out "$WORK/BENCH_corrupt.json" \
    2> "$WORK/bench-corrupt.log" \
    || { echo "FAIL: qor_bench via corrupting tier" >&2; cat "$WORK/bench-corrupt.log" >&2; exit 1; }
"$QOR_BENCH" --tier smoke --via-daemon "127.0.0.1:$PS5" --out "$WORK/BENCH_clean.json" \
    2> "$WORK/bench-clean.log" \
    || { echo "FAIL: qor_bench at the store node" >&2; cat "$WORK/bench-clean.log" >&2; exit 1; }
"$BENCH_DIFF" "$WORK/BENCH_clean.json" "$WORK/BENCH_corrupt.json" \
    --max-qor-regress 0 \
    || { echo "FAIL: corrupt-tier QoR differs from clean QoR" >&2; exit 1; }
"$BENCH_DIFF" "$WORK/BENCH_corrupt.json" "$WORK/BENCH_clean.json" \
    --max-qor-regress 0 \
    || { echo "FAIL: clean QoR differs from corrupt-tier QoR" >&2; exit 1; }

# Corruption surfaced only as quarantines + remote misses, never as job
# errors or accepted remote hits.
"$FLOWC" --tcp "127.0.0.1:$P8" metrics --text > "$WORK/w8-metrics.txt"
check_exposition "$WORK/w8-metrics.txt"
grep -q 'flowd_cache_hits_total{tier="remote"} 0' "$WORK/w8-metrics.txt" \
    || { echo "FAIL: a corrupt transfer was accepted as a remote hit" >&2; cat "$WORK/w8-metrics.txt" >&2; exit 1; }
grep -q 'flowd_store_quarantined_total [1-9]' "$WORK/w8-metrics.txt" \
    || { echo "FAIL: no quarantined transfers counted" >&2; cat "$WORK/w8-metrics.txt" >&2; exit 1; }
grep -q 'flowd_remote_fetch_total{result="hit"} [1-9]' "$WORK/w8-metrics.txt" \
    || { echo "FAIL: no transfers arrived at all" >&2; cat "$WORK/w8-metrics.txt" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$PGC" metrics --text > "$WORK/gwc-metrics.txt"
check_exposition "$WORK/gwc-metrics.txt"
grep -q 'flowgw_artifact_corrupted_total [1-9]' "$WORK/gwc-metrics.txt" \
    || { echo "FAIL: corrupting gateway counted nothing" >&2; cat "$WORK/gwc-metrics.txt" >&2; exit 1; }

# Sub-case: the artifact gateway dies outright; a fresh design still
# compiles — the remote tier degrades to failures/skips, never errors.
"$FLOWC" --tcp "127.0.0.1:$PGC" shutdown >/dev/null 2>&1 || true
cat > "$WORK/deadgw.vhd" <<'EOF'
library ieee;
use ieee.std_logic_1164.all;

entity deadgw_counter is
  port ( clk : in std_logic;
         rst : in std_logic;
         q   : out std_logic_vector(2 downto 0) );
end deadgw_counter;

architecture rtl of deadgw_counter is
  signal cnt : std_logic_vector(2 downto 0);
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        cnt <= "000";
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;
  q <= cnt;
end rtl;
EOF
"$FLOWC" --tcp "127.0.0.1:$P8" compile "$WORK/deadgw.vhd" --deadline 30s \
    -o /dev/null 2>> "$WORK/leg5.log" \
    || { echo "FAIL: job errored with a dead artifact gateway" >&2; cat "$WORK/leg5.log" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$P8" metrics --text > "$WORK/w8-metrics2.txt"
check_exposition "$WORK/w8-metrics2.txt"
grep -Eq 'flowd_remote_fetch_total\{result="failure"\} [1-9]' "$WORK/w8-metrics2.txt" \
    || { echo "FAIL: dead gateway not counted as fetch failures" >&2; cat "$WORK/w8-metrics2.txt" >&2; exit 1; }
"$FLOWC" --tcp "127.0.0.1:$P8" shutdown >/dev/null 2>&1 || true
"$FLOWC" --tcp "127.0.0.1:$PS5" shutdown >/dev/null 2>&1 || true

echo "Compile-farm harness passed."
