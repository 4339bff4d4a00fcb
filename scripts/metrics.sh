#!/usr/bin/env sh
# Observability smoke: a real flowd, scraped over the wire.
#
#   1. start flowd with --cache-dir, compile examples/counter.vhd twice
#      (cold computes, warm hits memory) with --trace, and assert the
#      waterfall attributes every warm stage to the memory tier;
#   2. scrape `flowc metrics --text` and assert the memory-hit counter,
#      a zero disk tier, a nonzero latency histogram per stage and a
#      whole-job duration observation per compile;
#   3. restart on the same cache dir, compile again, and assert the
#      hits moved to the disk tier — then shut down with --metrics-dump
#      and check the final exposition agrees.
#
# Any `flowc: warning: unknown event` line fails the run: the typed
# protocol promises the client understands everything this daemon sends.
set -eu

cd "$(dirname "$0")/.."

PORT=$((18000 + $$ % 1000))
ADDR="127.0.0.1:$PORT"
WORK="${TMPDIR:-/tmp}/ifdf-metrics-$$"
CACHE="$WORK/cache"
DAEMON_PID=""

cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

mkdir -p "$WORK"

echo "==> building flowd + flowc"
cargo build -q -p fpga-server --bins
FLOWD=target/debug/flowd
FLOWC=target/debug/flowc

. scripts/lib.sh

start_daemon() {
    "$FLOWD" --tcp "$ADDR" --workers 1 --cache-dir "$CACHE" "$@" \
        > "$WORK/dump.txt" 2>> "$WORK/flowd.log" &
    DAEMON_PID=$!
    wait_for "$FLOWC" --tcp "$ADDR" ping
}

# The metric assertions below parse the Prometheus text exposition
# (skipping # HELP / # TYPE comment lines).
metric() {
    grep -F "$1" "$2" | grep -v '^#' | awk '{print $2}' | head -1
}

assert_metric() {
    _got=$(metric "$1" "$3")
    [ "$_got" = "$2" ] \
        || { echo "FAIL: $1 = '$_got', want $2 ($3)" >&2; exit 1; }
}

echo "==> leg 1: cold + warm compile, waterfall attribution"
start_daemon --metrics-dump
"$FLOWC" --tcp "$ADDR" compile examples/counter.vhd --trace \
    -o "$WORK/cold.bit" 2> "$WORK/cold.log"
"$FLOWC" --tcp "$ADDR" compile examples/counter.vhd --trace \
    -o "$WORK/warm.bit" 2> "$WORK/warm.log"
grep -q 'trace waterfall' "$WORK/cold.log" \
    || { echo "FAIL: --trace printed no waterfall" >&2; cat "$WORK/cold.log" >&2; exit 1; }
WARM_HITS=$(grep -c 'memory-hit' "$WORK/warm.log" || true)
[ "$WARM_HITS" -eq 8 ] \
    || { echo "FAIL: warm waterfall shows $WARM_HITS memory-hit rows, want 8" >&2; cat "$WORK/warm.log" >&2; exit 1; }
cmp -s "$WORK/cold.bit" "$WORK/warm.bit" \
    || { echo "FAIL: cold and warm bitstreams differ" >&2; exit 1; }

echo "==> leg 2: scrape metrics, assert tiers and histograms"
"$FLOWC" --tcp "$ADDR" metrics --text > "$WORK/metrics1.txt"
check_exposition "$WORK/metrics1.txt"
assert_metric 'flowd_jobs_total{state="completed"}' 2 "$WORK/metrics1.txt"
assert_metric 'flowd_cache_hits_total{tier="memory"}' 8 "$WORK/metrics1.txt"
assert_metric 'flowd_cache_hits_total{tier="disk"}' 0 "$WORK/metrics1.txt"
assert_metric 'flowd_cache_misses_total' 8 "$WORK/metrics1.txt"
assert_metric 'flowd_unknown_stage_events_total' 0 "$WORK/metrics1.txt"
for stage in synthesis lut_map pack place route power bitstream verify; do
    assert_metric "flowd_stage_duration_ms_count{stage=\"$stage\"}" 2 "$WORK/metrics1.txt"
done
assert_metric 'flowd_job_duration_ms_count{verb="compile"}' 2 "$WORK/metrics1.txt"

echo "==> leg 3: restart, hits move to the disk tier, dump agrees"
"$FLOWC" --tcp "$ADDR" shutdown
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
start_daemon --metrics-dump
"$FLOWC" --tcp "$ADDR" compile examples/counter.vhd --trace \
    -o /dev/null 2> "$WORK/disk.log"
DISK_HITS=$(grep -c 'disk-hit' "$WORK/disk.log" || true)
[ "$DISK_HITS" -eq 8 ] \
    || { echo "FAIL: post-restart waterfall shows $DISK_HITS disk-hit rows, want 8" >&2; cat "$WORK/disk.log" >&2; exit 1; }
"$FLOWC" --tcp "$ADDR" metrics --text > "$WORK/metrics2.txt"
check_exposition "$WORK/metrics2.txt"
assert_metric 'flowd_cache_hits_total{tier="disk"}' 8 "$WORK/metrics2.txt"
assert_metric 'flowd_cache_hits_total{tier="memory"}' 0 "$WORK/metrics2.txt"
assert_metric 'flowd_store_disk_hits_total' 8 "$WORK/metrics2.txt"
"$FLOWC" --tcp "$ADDR" shutdown
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
check_exposition "$WORK/dump.txt"
assert_metric 'flowd_cache_hits_total{tier="disk"}' 8 "$WORK/dump.txt"

# The typed-protocol promise: no event this daemon sent was unknown to
# this client.
if grep -q 'warning: unknown event' "$WORK"/*.log; then
    echo "FAIL: flowc warned about unknown events" >&2
    grep 'warning: unknown event' "$WORK"/*.log >&2
    exit 1
fi

echo "Metrics smoke passed."
