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

# write_counter4 FILE — the 4-bit counter crash.sh and farm.sh compile
# (one copy, so neither harness compiles a different design).
write_counter4() {
    cat > "$1" <<'EOF'
library ieee;
use ieee.std_logic_1164.all;

entity counter4 is
  port ( clk : in std_logic;
         rst : in std_logic;
         q   : out std_logic_vector(3 downto 0) );
end counter4;

architecture rtl of counter4 is
  signal cnt : std_logic_vector(3 downto 0);
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        cnt <= "0000";
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;
  q <= cnt;
end rtl;
EOF
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
