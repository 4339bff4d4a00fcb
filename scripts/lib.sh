# Helpers shared by the end-to-end gates (check.sh, crash.sh, farm.sh,
# metrics.sh). Sourced from the repository root: `. scripts/lib.sh`.

# Poll until a command succeeds (about 15 s at 100 ms steps).
wait_for() {
    _tries=150
    while ! "$@" >/dev/null 2>&1; do
        _tries=$((_tries - 1))
        [ "$_tries" -gt 0 ] || { echo "timed out waiting for: $*" >&2; exit 1; }
        sleep 0.1
    done
}

# check_exposition FILE — validate a scraped text exposition, whichever
# role served it: every line is `# HELP`, `# TYPE` or a well-formed
# sample (name, optional {key="escaped value",...}, one space, a
# number); each sample's family (histogram _bucket/_sum/_count suffixes
# stripped) has a preceding `# TYPE`; no family is typed twice.
check_exposition() {
    awk '
        function bad(why) { printf "%s:%d: %s: %s\n", FILENAME, NR, why, $0; failed = 1 }
        /^# HELP [a-zA-Z_][a-zA-Z0-9_]* / { next }
        /^# TYPE [a-zA-Z_][a-zA-Z0-9_]* (counter|gauge|histogram)$/ {
            if ($3 in kind) bad("family typed twice")
            kind[$3] = $4
            next
        }
        /^[a-zA-Z_][a-zA-Z0-9_]*([{][a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\]|\\.)*")*[}])? -?[0-9][0-9.eE+-]*$/ {
            name = $0
            sub(/[{ ].*/, "", name)
            base = name
            sub(/_(bucket|sum|count)$/, "", base)
            if (!(name in kind) && !(base in kind && kind[base] == "histogram"))
                bad("sample before its # TYPE")
            next
        }
        { bad("not a # HELP, # TYPE or sample line") }
        END { if (NR == 0) { print FILENAME ": empty exposition"; failed = 1 }; exit failed }
    ' "$1" >&2 || { echo "FAIL: malformed exposition $1" >&2; exit 1; }
}
