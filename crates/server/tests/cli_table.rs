//! `flowd`, `flow-gateway` and `flowc` read their command lines against
//! one flag table each: a name the table does not hold, a missing value,
//! a value that does not parse, a positional past the most the binary
//! reads, or (on `flowc`) an option or operand its verb does not read
//! exits 2 before any socket is bound or dialled.

#[path = "../../flow/tests/support/flag_table.rs"]
mod flag_table;

const FLOWD: &str = env!("CARGO_BIN_EXE_flowd");
const GATEWAY: &str = env!("CARGO_BIN_EXE_flow-gateway");
const FLOWC: &str = env!("CARGO_BIN_EXE_flowc");

#[test]
fn every_server_binary_answers_from_its_flag_table_and_refuses_the_rest() {
    #[rustfmt::skip]
    let tables: [(&str, &str, usize, &[&str]); 3] = [
        (FLOWD, "flowd", 0, &["--tcp HOST:PORT", "--unix PATH", "--workers N", "--queue N",
            "--max-deadline DUR", "--idle-timeout DUR", "--max-line SIZE", "--max-conns N",
            "--retry-after DUR", "--cache-dir DIR", "--cache-budget-mb N", "--cache-entries N",
            "--artifact-gateway HOST:PORT", "--artifact-timeout DUR", "--metrics-dump", "--fault SPEC"]),
        (GATEWAY, "flow-gateway", 0, &["--backend HOST:PORT[,...]", "--tcp HOST:PORT",
            "--health-interval DUR", "--probe-timeout DUR", "--breaker-failures N",
            "--breaker-reopen DUR", "--jitter-seed N", "--max-inflight N", "--admission-queue N",
            "--tenant-burst N", "--tenant-rate N", "--retry-after DUR", "--idle-timeout DUR",
            "--max-line SIZE", "--max-conns N"]),
        (FLOWC, "flowc", 2, &["--tcp HOST:PORT", "--unix PATH", "--blif", "--seed N", "--effort X",
            "--width W", "--cycles N", "--lint MODE", "--verify MODE", "--deadline DUR",
            "--retries N", "--trace", "-o FILE", "--report FILE", "--tenant ID", "--json",
            "--quiet", "--text"]),
    ];
    for (exe, tool, positionals, rows) in tables {
        flag_table::assert_table(exe, tool, positionals, rows);
    }
}

#[test]
fn a_daemon_refuses_a_misspelt_or_deleted_flag_instead_of_serving() {
    let args = ["--tcp", "127.0.0.1:0", "--artifact-timout", "5s"];
    let stderr = flag_table::refused(FLOWD, &args, "unknown option '--artifact-timout'");
    assert!(!stderr.contains("listening"), "{stderr}");
    let args = [
        "--tcp",
        "127.0.0.1:0",
        "--backend",
        "127.0.0.1:9",
        "--corrupt-artifacts",
    ];
    let stderr = flag_table::refused(GATEWAY, &args, "unknown option '--corrupt-artifacts'");
    assert!(!stderr.contains("listening"), "{stderr}");
}

#[test]
fn the_gateway_refuses_a_tenant_rate_that_overflows() {
    let args = [
        "--backend",
        "127.0.0.1:9",
        "--tenant-rate",
        "18446744073709552",
    ];
    let stderr = flag_table::refused(GATEWAY, &args, "bad --tenant-rate '18446744073709552'");
    assert!(!stderr.contains("listening"), "{stderr}");
}

#[test]
fn flowc_refuses_a_negative_seed_without_dialling() {
    let counter = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/counter.vhd");
    let args = ["--tcp", "127.0.0.1:1", "compile", counter, "--seed", "-1"];
    let stderr = flag_table::refused(FLOWC, &args, "bad --seed '-1'");
    assert!(!stderr.contains("attempt"), "{stderr}");
    assert!(!stderr.contains("connect"), "{stderr}");
}

#[test]
fn flowc_refuses_what_its_verb_does_not_read_without_dialling() {
    let counter = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/counter.vhd");
    #[rustfmt::skip]
    let cases: [(&[&str], &str); 5] = [
        (&["ping", "extra", "--seed", "5", "--retries", "2"], "ping takes no operand, got 'extra'"),
        (&["ping", "--seed", "5"], "ping does not read --seed"),
        (&["lint", counter, "--seed", "5"], "lint does not read --seed"),
        (&["compile", counter, "--text"], "compile does not read --text"),
        (&["stats"], "unknown verb 'stats'"),
    ];
    for (args, why) in cases {
        let args = [&["--tcp", "127.0.0.1:1"], args].concat();
        let stderr = flag_table::refused(FLOWC, &args, why);
        assert!(!stderr.contains("connect"), "{stderr}");
    }
}
