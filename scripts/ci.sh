#!/usr/bin/env sh
# The full gate a change must pass before merging. Keep this in sync with
# README "Testing": formatting, lints as errors, then the whole suite.
set -eu

cd "$(dirname "$0")/.."

# check_allowlist WHAT ALLOWLIST HINT SITES: SITES is a leg's unfiltered
# `<file>: <trimmed line>` output. Fails on a site no entry of ALLOWLIST
# matches, and on an entry that matches no site: a stale entry silently
# pre-approves the return of the code it named.
check_allowlist() {
    unlisted=$(printf '%s\n' "$4" | grep -vFf "$2" || true)
    if [ -n "$unlisted" ]; then
        echo "FAIL: unallowlisted $1:" >&2
        echo "$unlisted" >&2
        echo "($3)" >&2
        exit 1
    fi
    stale=$(grep -v '^#' "$2" | while IFS= read -r entry; do
        printf '%s\n' "$4" | grep -qF -- "$entry" || printf '%s\n' "$entry"
    done)
    if [ -n "$stale" ]; then
        echo "FAIL: stale $2 entries (no $1 matches them):" >&2
        echo "$stale" >&2
        echo "(delete them)" >&2
        exit 1
    fi
}

echo "==> source lint: no unwrap()/expect( outside tests and the allowlist"
# Scan non-test code (everything above the first #[cfg(test)]) in the
# flow and server crates. Justified sites live in
# scripts/lint-allowlist.txt as `<file>: <trimmed line>`; anything else
# is a new panic path and fails the gate, and so does an entry no site
# matches any more.
UNWRAPS=$(
    for f in crates/server/src/*.rs crates/server/src/bin/*.rs \
             crates/flow/src/*.rs crates/flow/src/bin/*.rs; do
        awk -v file="$f" '/#\[cfg\(test\)\]/{exit}
            /\.unwrap\(\)|\.expect\(/{ sub(/^[ \t]+/, ""); print file": "$0 }' "$f"
    done
)
check_allowlist "unwrap()/expect( in non-test code" scripts/lint-allowlist.txt \
    "handle the error, or justify and add to scripts/lint-allowlist.txt" "$UNWRAPS"

echo "==> source lint: no HashMap/HashSet in canonical-bytes / cache-key code"
# The canonical encoders (stage-artifact codecs, canonical netlist text)
# and the cache-key/digest plumbing must be iteration-order
# deterministic: one HashMap iteration in a to_bytes path forks every
# downstream cache key. Justified non-iterated uses live in
# scripts/canon-allowlist.txt, same format (and same staleness rule) as
# the unwrap allowlist.
HASHED=$(
    for f in crates/netlist/src/codec.rs crates/netlist/src/canonical.rs \
             crates/pack/src/codec.rs crates/place/src/codec.rs \
             crates/route/src/codec.rs crates/flow/src/cache.rs \
             crates/flow/src/hash.rs crates/flow/src/artifact.rs \
             crates/flow/src/store.rs; do
        awk -v file="$f" '/#\[cfg\(test\)\]/{exit}
            /HashMap|HashSet/ && !/^[ \t]*\/\//{ sub(/^[ \t]+/, ""); print file": "$0 }' "$f"
    done
)
check_allowlist "HashMap/HashSet in canonical-bytes / cache-key code" scripts/canon-allowlist.txt \
    "use a BTreeMap/sorted Vec, or justify and add to scripts/canon-allowlist.txt" "$HASHED"

echo "==> source lint: dense indices (no HashMap/HashSet in pack, place, STA or fabric-emulator code; no .producer( outside tests)"
# Packing, the annealer, static timing and the fabric emulator address
# nets, BLEs, blocks, route-tree nodes and wire keys by index (DESIGN.md
# "Packing on the netlist's own indices", "A placement is an ordered
# block table", "Static timing", "The fabric emulator"): every table is
# a Vec. A net's producing cluster is read from a table built once, never
# found by Clustering::producer's scan over every BLE, which stays a test
# oracle. No allowlist.
DENSE_SITES=$(
    for f in crates/pack/src/*.rs crates/lint/src/pack.rs crates/place/src/*.rs \
             crates/lint/src/place.rs crates/route/src/sta.rs crates/route/src/timing.rs \
             crates/bitstream/src/fabric.rs; do
        awk -v file="$f" '/#\[cfg\(test\)\]/{exit}
            /HashMap|HashSet/{ sub(/^[ \t]+/, ""); print file":"FNR": "$0 }' "$f"
    done
    find crates/*/src -name '*.rs' | sort | while read -r f; do
        awk -v file="$f" '/#\[cfg\(test\)\]/{exit}
            /\.producer\(/{ sub(/^[ \t]+/, ""); print file":"FNR": "$0 }' "$f"
    done
)
if [ -n "$DENSE_SITES" ]; then
    echo "FAIL: hashed container or producer scan in index-addressed code:" >&2
    echo "$DENSE_SITES" >&2
    exit 1
fi

echo "==> source lint: sockets are opened, accepted, timed and given options in crates/server/src/net.rs only"
# One transport: the endpoint loop and every outbound dial live in
# net.rs, so a guard or a socket option (TCP_NODELAY) is decided in one
# place. No allowlist — a site that cannot move means the design is
# wrong.
SOCKETS=$(
    find crates/server/src -name '*.rs' ! -path crates/server/src/net.rs | sort | while read -r f; do
        awk -v file="$f" '/#\[cfg\(test\)\]/{exit}
            /TcpStream::connect|connect_timeout|UnixStream::connect|TcpListener::bind|UnixListener::bind|\.accept\(\)|\.incoming\(\)|set_read_timeout|set_write_timeout|set_nodelay/ && !/^[ \t]*\/\//{
                sub(/^[ \t]+/, ""); print file": "$0 }' "$f"
    done
)
if [ -n "$SOCKETS" ]; then
    echo "FAIL: socket call outside crates/server/src/net.rs:" >&2
    echo "$SOCKETS" >&2
    echo "(use net::serve / net::exchange / net::dial)" >&2
    exit 1
fi

echo "==> source lint: one home per primitive (xorshift step, splitmix64, xorshift* multiplier, FNV prime, union-find)"
# Each of these was re-typed by crates that sat one dependency away from
# the first copy (fpga_netlist::mix, fpga_bitstream::fabric::Dsu); the
# equivalence boundary and every seeded stream are only sound while
# there is one. Lines are lowercased and stripped of `_` first, so a
# re-grouped hex literal still matches. No allowlist.
for pat in '<< 13' 'fn splitmix64' '2545f4914f6cdd1d' '100000001b3' 'parent\['; do
    HOMES=$(
        find crates -name '*.rs' | sort | while read -r f; do
            awk -v file="$f" -v pat="$pat" '/#\[cfg\(test\)\]/{exit}
                { line = tolower($0); gsub(/_/, "", line) }
                line ~ pat { print file; exit }' "$f"
        done
    )
    if [ "$(printf '%s\n' "$HOMES" | grep -c .)" -ne 1 ]; then
        echo "FAIL: '$pat' must occur in exactly one non-test file under crates/, found in:" >&2
        printf '%s\n' "${HOMES:-(none)}" >&2
        echo "(call fpga_netlist::mix / fpga_bitstream::fabric::Dsu)" >&2
        exit 1
    fi
done
if grep -rn "fn prune_dead\|netlist::stats\|clb_delay" crates README.md DESIGN.md >&2; then
    echo "FAIL: a deleted duplicate or uncalled item is back (Netlist::sweep_dead is the sweep)" >&2
    exit 1
fi

echo "==> source lint: one poison-recovering lock (fpga_flow::sync), metric families bound by name"
# A poisoned mutex is recovered in one place, next to the one comment
# saying why that is sound; everything else calls sync::lock / wait /
# wait_timeout. And the exposition binds each family by its const: a
# positional `rest @ ..` binding exports the wrong value under the
# right name when two table rows swap. No allowlist.
RECOVERIES=$(
    for f in crates/flow/src/*.rs crates/server/src/*.rs; do
        awk -v file="$f" '/#\[cfg\(test\)\]/{exit}
            /unwrap_or_else\(.*into_inner/ { print file; exit }' "$f"
    done
)
if [ "$RECOVERIES" != "crates/flow/src/sync.rs" ]; then
    echo "FAIL: poison recovery (unwrap_or_else(..into_inner..)) belongs in crates/flow/src/sync.rs only, found in:" >&2
    printf '%s\n' "${RECOVERIES:-(none)}" >&2
    echo "(call fpga_flow::sync::{lock, wait, wait_timeout})" >&2
    exit 1
fi
if grep -n 'rest @ \.\.' crates/server/src/metrics.rs >&2; then
    echo "FAIL: crates/server/src/metrics.rs binds a metric family by position (use its const)" >&2
    exit 1
fi

echo "==> source lint: one panic boundary (service.rs's worker loop), no worker supervisor"
# A panic anywhere in a job is that job's `panic` terminal, caught once
# around the whole job in service::worker_loop. What can still end a
# worker thread (an abort, a stack overflow) ends the process, so no
# supervisor, respawn counter or dead-worker error kind may come back.
# Comment lines do not count as a catch; every line counts as a name.
# No allowlist.
CATCHES=$(
    find crates/server/src -name '*.rs' | sort | while read -r f; do
        awk -v file="$f" '/#\[cfg\(test\)\]/{exit}
            /catch_unwind/ && !/^[ \t]*\/\//{ print file }' "$f"
    done
)
if [ "$CATCHES" != "crates/server/src/service.rs" ]; then
    echo "FAIL: catch_unwind must occur exactly once in non-test server code, in crates/server/src/service.rs; found in:" >&2
    printf '%s\n' "${CATCHES:-(none)}" >&2
    exit 1
fi
SUPERVISION=$(
    find crates/*/src -name '*.rs' | sort | while read -r f; do
        awk -v file="$f" '/#\[cfg\(test\)\]/{exit}
            /supervis|KillWorker|KILL_WORKER|worker-lost|respawn/{ print file":"FNR": "$0 }' "$f"
    done
    grep -n 'supervis\|KillWorker\|KILL_WORKER\|worker-lost\|respawn' README.md DESIGN.md || true
)
if [ -n "$SUPERVISION" ]; then
    echo "FAIL: the worker supervisor and its respawn / dead-worker plumbing are gone; found:" >&2
    echo "$SUPERVISION" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
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
