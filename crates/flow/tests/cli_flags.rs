//! A numeric flag the tool cannot parse is an error naming the flag,
//! never a silent fall back to the default; a value it can parse still
//! does what it did.

use std::path::PathBuf;
use std::process::{Command, Output};

const MAJORITY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/majority.blif");

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("tool runs")
}

fn out_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ifdf-cli-flags-{}-{name}", std::process::id()))
}

/// `exe <majority.blif> <flag> five` exits non-zero saying which flag.
fn assert_rejects(exe: &str, flag: &str) {
    let refused = run(exe, &[MAJORITY, flag, "five"]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(!refused.status.success(), "{exe} {flag} five: {stderr}");
    let named = format!("bad --{} 'five'", flag.trim_start_matches('-'));
    assert!(stderr.contains(&named), "{exe} {flag} five: {stderr}");
}

/// The bytes `exe <majority.blif> [args] -o FILE` writes.
fn output_of(exe: &str, args: &[&str], name: &str) -> Vec<u8> {
    let path = out_path(name);
    let path_text = path.to_str().expect("utf-8 temp path");
    let done = run(exe, &[&[MAJORITY], args, &["-o", path_text]].concat());
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(done.status.success(), "{exe} {args:?}: {stderr}");
    let bytes = std::fs::read(&path).expect("output written");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn tvpack_refuses_a_garbage_k_and_honours_a_good_one() {
    let tvpack = env!("CARGO_BIN_EXE_tvpack");
    for flag in ["-k", "-n", "-i"] {
        assert_rejects(tvpack, flag);
    }
    let default = output_of(tvpack, &[], "tvpack-default.net");
    assert!(!default.is_empty());
    let explicit = output_of(tvpack, &["-k", "4", "-n", "5", "-i", "12"], "tvpack-k4.net");
    assert_eq!(explicit, default, "the defaults, spelled out");
}

#[test]
fn sis_map_refuses_a_garbage_k_and_honours_a_good_one() {
    let sis_map = env!("CARGO_BIN_EXE_sis-map");
    assert_rejects(sis_map, "-k");
    let default = output_of(sis_map, &[], "sis-default.blif");
    assert_eq!(output_of(sis_map, &["-k", "4"], "sis-k4.blif"), default);
    // A 3-input majority does not fit one 2-LUT: the flag is read.
    assert_ne!(output_of(sis_map, &["-k", "2"], "sis-k2.blif"), default);
}

#[test]
fn flowctl_refuses_a_garbage_seed_or_width_and_honours_good_ones() {
    let flowctl = env!("CARGO_BIN_EXE_flowctl");
    assert_rejects(flowctl, "--seed");
    assert_rejects(flowctl, "-w");
    let default = output_of(flowctl, &[], "flowctl-default.bit");
    assert!(!default.is_empty());
    let seeded = output_of(flowctl, &["--seed", "1"], "flowctl-seed1.bit");
    assert_eq!(seeded, default, "seed 1 is the default");
    // The bitstream's geometry follows the channel width: the flag is read.
    assert_ne!(output_of(flowctl, &["-w", "6"], "flowctl-w6.bit"), default);
}

#[test]
fn vpr_pr_refuses_a_garbage_width_and_honours_a_good_one() {
    let vpr_pr = env!("CARGO_BIN_EXE_vpr-pr");
    assert_rejects(vpr_pr, "--w");
    let default = output_of(vpr_pr, &[], "vpr-default.place");
    assert!(!default.is_empty());
    let path = out_path("vpr-w12.place");
    let pinned = run(
        vpr_pr,
        &[MAJORITY, "--w", "12", "-o", path.to_str().expect("utf-8")],
    );
    let stderr = String::from_utf8_lossy(&pinned.stderr);
    assert!(pinned.status.success(), "{stderr}");
    let placed = std::fs::read(&path).expect("output written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(placed, default, "the width does not move the placement");
    assert!(stderr.contains("routed at channel width 12"), "{stderr}");
    assert!(
        !stderr.contains("probe W="),
        "a pinned width is not searched: {stderr}"
    );
}

#[path = "support/flag_table.rs"]
mod flag_table;

#[test]
fn every_flow_binary_answers_from_its_flag_table_and_refuses_the_rest() {
    #[rustfmt::skip]
    let tables: [(&str, &str, usize, &[&str]); 13] = [
        (env!("CARGO_BIN_EXE_dagger"), "dagger", 1, &["-o FILE", "--seed N", "--no-verify"]),
        (env!("CARGO_BIN_EXE_diviner"), "diviner", 1, &["-o FILE"]),
        (env!("CARGO_BIN_EXE_druid"), "druid", 1, &["-o FILE"]),
        (env!("CARGO_BIN_EXE_dutys"), "dutys", 0, &["-o FILE", "-k N", "-n N", "-w N", "--name NAME", "--json"]),
        (env!("CARGO_BIN_EXE_e2fmt"), "e2fmt", 1, &["-o FILE", "--reverse"]),
        (env!("CARGO_BIN_EXE_equiv-fault"), "equiv-fault", 0, &["--seed N", "--luts N", "--clean"]),
        (env!("CARGO_BIN_EXE_flowctl"), "flowctl", 1,
            &["-o FILE", "--report FILE", "--seed N", "-w N", "--svg FILE", "--interactive"]),
        (env!("CARGO_BIN_EXE_fpga-lint"), "fpga-lint", 1, &["--blif", "--verify", "--json", "--quiet", "--rules"]),
        (env!("CARGO_BIN_EXE_powermodel"), "powermodel", 1, &["-f HZ", "--cycles N"]),
        (env!("CARGO_BIN_EXE_sis-map"), "sis-map", 1, &["-o FILE", "-k N"]),
        (env!("CARGO_BIN_EXE_tvpack"), "tvpack", 1, &["-o FILE", "-k N", "-n N", "-i N"]),
        (env!("CARGO_BIN_EXE_vparse"), "vparse", 1, &[]),
        (env!("CARGO_BIN_EXE_vpr-pr"), "vpr-pr", 1, &["-o FILE", "--arch FILE", "--seed N", "-w N", "--net FILE"]),
    ];
    for (exe, tool, positionals, rows) in tables {
        flag_table::assert_table(exe, tool, positionals, rows);
    }
}

#[test]
fn a_value_that_does_not_parse_is_a_usage_error() {
    let equiv_fault = env!("CARGO_BIN_EXE_equiv-fault");
    flag_table::refused(equiv_fault, &["--seed", "-1"], "bad --seed '-1'");
    flag_table::refused(equiv_fault, &["--luts", "many"], "bad --luts 'many'");
    let tvpack = env!("CARGO_BIN_EXE_tvpack");
    flag_table::refused(tvpack, &[MAJORITY, "-k", "five"], "bad --k 'five'");
}
