#!/usr/bin/env sh
# Check gate: every example design must pass both kinds of deep check —
# the design-rule lint and the cross-stage equivalence check — offline
# and over the wire, and broken input must be answered the right way by
# each kind. (The seeded mid-flow corruption — one LUT truth bit flipped
# after mapping, caught as EQ001 with a counterexample that replays — is
# a unit test of `crates/flow/src/equiv.rs`, run by `cargo test`.)
#
# One flowd serves the whole run. For each kind in `lint verify`:
#
#   1. offline: `fpga-lint` (`--verify` for the equivalence kind) over
#      every design in examples/ — each must exit 0 and check through
#      the bitstream point;
#   2. wire: `flowc lint|verify` over the same designs, exercising the
#      verb and its `lint_report` / `verify_report` event;
#   3. broken input: a BLIF with a combinational loop and one with a
#      double driver. Lint *reports* them (NL001 / NL002, exit 6 from
#      both binaries); verify *refuses* them at the upload stage like a
#      compile does (`[blif] invalid netlist`, exit 1 offline / 4 over
#      the wire) — never an internal error from the mapper.
#
# Then what only one kind has:
#
#   lint    `flowc compile --lint deny` on the loop fails at the lint
#           stage (exit 6), and the default (lint off) compile still works;
#   verify  the whole smoke tier runs under `--verify deny`;
#           `flowc compile --verify deny` compiles every example; and
#           the EQ rules are series of the one findings family
#           (`flowd_lint_rule_hits_total{rule="EQ001"}`) in the exposition.
#
# Any `flowc: warning: unknown event` line fails the run, same promise
# as scripts/metrics.sh.
set -eu

cd "$(dirname "$0")/.."

PORT=$((19000 + $$ % 1000))
ADDR="127.0.0.1:$PORT"
WORK="${TMPDIR:-/tmp}/ifdf-check-$$"
DAEMON_PID=""

cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

mkdir -p "$WORK"

echo "==> building flowd + flowc + fpga-lint + qor_bench"
cargo build -q -p fpga-server -p fpga-flow -p fpga-bench --bins
FLOWD=target/debug/flowd
FLOWC=target/debug/flowc
LINT=target/debug/fpga-lint
BENCH=target/debug/qor_bench

. scripts/lib.sh

die() {
    echo "FAIL: $1" >&2
    [ -z "${2:-}" ] || cat "$2" >&2
    exit 1
}

# Designs the BLIF parser accepts but the netlist rules must reject:
# y and w drive each other combinationally (NL001) ...
cat > "$WORK/loop.blif" <<'BLIF'
.model loopy
.inputs a
.outputs y
.names a w y
11 1
.names y w
1 1
.end
BLIF
# ... and y has two drivers (NL002).
cat > "$WORK/double.blif" <<'BLIF'
.model twice
.inputs a b
.outputs y
.names a y
1 1
.names b y
1 1
.end
BLIF

"$FLOWD" --tcp "$ADDR" --workers 1 2> "$WORK/flowd.log" &
DAEMON_PID=$!
wait_for "$FLOWC" --tcp "$ADDR" ping

for kind in lint verify; do
    if [ "$kind" = lint ]; then
        OFFLINE_FLAG=""; WIRE_WORD=checked
    else
        OFFLINE_FLAG="--verify"; WIRE_WORD=verified
    fi

    echo "==> $kind: offline fpga-lint $OFFLINE_FLAG over examples/"
    for design in examples/*.vhd examples/*.blif; do
        [ -e "$design" ] || continue
        "$LINT" $OFFLINE_FLAG --quiet "$design" 2> "$WORK/offline.log" \
            || die "offline $kind rejected $design" "$WORK/offline.log"
        grep -q "checked through 'bitstream'" "$WORK/offline.log" \
            || die "$design did not pass $kind through the whole flow" "$WORK/offline.log"
    done

    echo "==> $kind: flowc $kind over examples/ against the live flowd"
    for design in examples/*.vhd examples/*.blif; do
        [ -e "$design" ] || continue
        "$FLOWC" --tcp "$ADDR" "$kind" --quiet "$design" 2> "$WORK/wire.log" \
            || die "flowc $kind rejected $design" "$WORK/wire.log"
        grep -q "$WIRE_WORD through 'bitstream'" "$WORK/wire.log" \
            || die "$design did not pass $kind through the whole flow over the wire" "$WORK/wire.log"
    done

    echo "==> $kind: broken BLIF (loop, double driver) offline and over the wire"
    for broken in loop:NL001 double:NL002; do
        design="$WORK/${broken%%:*}.blif"
        if [ "$kind" = lint ]; then
            WANT_OFFLINE=6; WANT_WIRE=6; CITE="${broken##*:}"
        else
            WANT_OFFLINE=1; WANT_WIRE=4; CITE='\[blif\] invalid netlist'
        fi
        for tool in offline wire; do
            set +e
            if [ "$tool" = offline ]; then
                "$LINT" $OFFLINE_FLAG "$design" > "$WORK/deny.log" 2>&1; RC=$?; WANT=$WANT_OFFLINE
            else
                "$FLOWC" --tcp "$ADDR" "$kind" "$design" > "$WORK/deny.log" 2>&1; RC=$?; WANT=$WANT_WIRE
            fi
            set -e
            [ "$RC" -eq "$WANT" ] \
                || die "$tool $kind of $design exited $RC, want $WANT" "$WORK/deny.log"
            grep -q "$CITE" "$WORK/deny.log" \
                || die "$tool $kind of $design did not cite $CITE" "$WORK/deny.log"
            if grep -q 'lut mapping\|internal synthesis error' "$WORK/deny.log"; then
                die "$tool $kind handed a broken netlist to the mapper" "$WORK/deny.log"
            fi
        done
    done
done

echo "==> lint: compile --lint deny fails at the lint stage, exit 6"
set +e
"$FLOWC" --tcp "$ADDR" compile --blif "$WORK/loop.blif" --lint deny \
    -o /dev/null > "$WORK/gate.log" 2>&1
RC=$?
set -e
[ "$RC" -eq 6 ] || die "compile --lint deny exited $RC, want 6" "$WORK/gate.log"
grep -q '\[lint\]' "$WORK/gate.log" \
    || die "denial was not attributed to the lint stage" "$WORK/gate.log"
"$FLOWC" --tcp "$ADDR" compile examples/counter.vhd -o /dev/null 2> "$WORK/off.log" \
    || die "default compile (lint off) broke" "$WORK/off.log"

echo "==> verify: smoke-tier bench suite passes --verify deny"
"$BENCH" --tier smoke --verify deny --out "$WORK/BENCH_verify.json" 2> "$WORK/bench.log" \
    || die "a smoke-tier circuit failed equivalence under deny" "$WORK/bench.log"
grep -q '"verify": "deny"' "$WORK/BENCH_verify.json" \
    || die "bench report did not record the verify mode"
grep -q '"verify_ms"' "$WORK/BENCH_verify.json" \
    || die "bench report has no verify wall-clock column"

echo "==> verify: compile --verify deny over examples/, verify metrics in the exposition"
for design in examples/*.vhd examples/*.blif; do
    [ -e "$design" ] || continue
    "$FLOWC" --tcp "$ADDR" compile --verify deny "$design" -o /dev/null \
        2> "$WORK/compile.log" \
        || die "compile --verify deny rejected $design" "$WORK/compile.log"
done
"$FLOWC" --tcp "$ADDR" metrics --text > "$WORK/metrics.log" 2>&1 \
    || die "metrics verb broke" "$WORK/metrics.log"
grep -qF 'flowd_lint_rule_hits_total{rule="EQ001"}' "$WORK/metrics.log" \
    || die "no EQ001 series in the findings family of the exposition"

"$FLOWC" --tcp "$ADDR" shutdown
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

if grep -q 'warning: unknown event' "$WORK"/*.log; then
    echo "FAIL: flowc warned about unknown events" >&2
    grep 'warning: unknown event' "$WORK"/*.log >&2
    exit 1
fi

echo "Check gate passed."
