#!/usr/bin/env sh
# Crash-recovery harness: a *real* flowd process, killed with SIGKILL
# mid-pipeline, must lose only the stages that had not finished.
#
#   1. start flowd with --cache-dir and an injected stall at route
#      (--fault route:1:sleep:...), submit a job, wait until the four
#      stages before the stall have persisted, kill -9 the daemon;
#   2. restart on the same cache dir, resubmit the identical design,
#      and assert exactly those four stages report "[cache hit]" and
#      flowc metrics shows four disk hits;
#   3. shut down cleanly, flip bytes in one stored entry, restart, and
#      assert the job still succeeds with the bad entry quarantined.
#
# Along the way it exercises flowc's exit-code contract: 3 (transport)
# against the killed daemon, 0 on the recovered compiles.
set -eu

cd "$(dirname "$0")/.."

PORT=$((17000 + $$ % 1000))
ADDR="127.0.0.1:$PORT"
WORK="${TMPDIR:-/tmp}/ifdf-crash-$$"
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
write_counter4 "$WORK/counter.vhd"

# Count durable entries (64-hex files inside the two-hex shard dirs).
entries() {
    find "$CACHE" -type f 2>/dev/null | grep -cE '/[0-9a-f]{64}$' || true
}

entries_at_least() {
    [ "$(entries)" -ge "$1" ]
}

start_daemon() {
    "$FLOWD" --tcp "$ADDR" --workers 1 --cache-dir "$CACHE" "$@" \
        2>> "$WORK/flowd.log" &
    DAEMON_PID=$!
    wait_for "$FLOWC" --tcp "$ADDR" ping
}

echo "==> leg 1: stall at route, kill -9 mid-pipeline"
start_daemon --fault route:1:sleep:60000
"$FLOWC" --tcp "$ADDR" compile "$WORK/counter.vhd" \
    -o /dev/null 2>> "$WORK/leg1.log" &
SUBMIT_PID=$!
# synthesis, lut_map, pack, place persist; then the pipeline stalls.
wait_for entries_at_least 4
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
wait "$SUBMIT_PID" 2>/dev/null || true
DAEMON_PID=""
[ "$(entries)" -eq 4 ] || { echo "FAIL: expected 4 durable stages, got $(entries)" >&2; exit 1; }

# The daemon is gone: flowc must report a *transport* failure (exit 3).
set +e
"$FLOWC" --tcp "$ADDR" ping 2>/dev/null
PING_RC=$?
set -e
[ "$PING_RC" -eq 3 ] || { echo "FAIL: expected exit 3 against dead daemon, got $PING_RC" >&2; exit 1; }

echo "==> leg 2: restart, resubmit, expect 4 disk hits"
start_daemon
"$FLOWC" --tcp "$ADDR" compile "$WORK/counter.vhd" \
    -o "$WORK/recovered.bit" 2> "$WORK/leg2.log"
HITS=$(grep -c 'cache hit' "$WORK/leg2.log" || true)
[ "$HITS" -eq 4 ] || { echo "FAIL: expected 4 '[cache hit]' stages, got $HITS" >&2; cat "$WORK/leg2.log" >&2; exit 1; }
"$FLOWC" --tcp "$ADDR" metrics > "$WORK/metrics2.json"
grep -q '"disk_hits": 4' "$WORK/metrics2.json" \
    || { echo "FAIL: metrics do not show 4 disk hits" >&2; cat "$WORK/metrics2.json" >&2; exit 1; }

echo "==> leg 3: corrupt one entry, restart, expect quarantine + success"
"$FLOWC" --tcp "$ADDR" shutdown
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
VICTIM=$(find "$CACHE" -type f | grep -E '/[0-9a-f]{64}$' | head -1)
dd if=/dev/zero of="$VICTIM" bs=1 count=8 conv=notrunc 2>/dev/null

start_daemon
"$FLOWC" --tcp "$ADDR" compile "$WORK/counter.vhd" \
    -o "$WORK/healed.bit" 2> "$WORK/leg3.log"
"$FLOWC" --tcp "$ADDR" metrics > "$WORK/metrics3.json"
grep -q '"quarantined": 1' "$WORK/metrics3.json" \
    || { echo "FAIL: metrics do not show the quarantined entry" >&2; cat "$WORK/metrics3.json" >&2; exit 1; }
cmp -s "$WORK/recovered.bit" "$WORK/healed.bit" \
    || { echo "FAIL: recompiled bitstream differs after quarantine" >&2; exit 1; }
"$FLOWC" --tcp "$ADDR" shutdown
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "Crash-recovery harness passed."
