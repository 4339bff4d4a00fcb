//! The bench binaries read their command lines against one flag table
//! each, the nine that take no option included, and refuse a positional
//! past the most they read.

#[path = "../../flow/tests/support/flag_table.rs"]
mod flag_table;

#[test]
fn every_bench_binary_answers_from_its_flag_table_and_refuses_the_rest() {
    #[rustfmt::skip]
    let tables: [(&str, &str, usize, &[&str]); 13] = [
        (env!("CARGO_BIN_EXE_qor_bench"), "qor_bench", 0, &["--tier smoke|full", "--out FILE",
            "--via-daemon ADDR", "--seed N", "--effort X", "--verify-cycles N", "--verify MODE",
            "--only NAME", "--list", "--canon NAME"]),
        (env!("CARGO_BIN_EXE_bench-diff"), "bench-diff", 2, &["--max-qor-regress PCT", "--table"]),
        (env!("CARGO_BIN_EXE_fig8_10_switch_sizing"), "fig8_10_switch_sizing", 0,
            &["--config min-min|min-double|double-double", "--csv"]),
        (env!("CARGO_BIN_EXE_table1_detff"), "table1_detff", 0, &["--waveform"]),
        (env!("CARGO_BIN_EXE_ablation_cluster_size"), "ablation_cluster_size", 0, &[]),
        (env!("CARGO_BIN_EXE_ablation_det_clocking"), "ablation_det_clocking", 0, &[]),
        (env!("CARGO_BIN_EXE_ablation_lut_size"), "ablation_lut_size", 0, &[]),
        (env!("CARGO_BIN_EXE_ablation_switch_type"), "ablation_switch_type", 0, &[]),
        (env!("CARGO_BIN_EXE_eq1_clb_inputs"), "eq1_clb_inputs", 0, &[]),
        (env!("CARGO_BIN_EXE_flow_report"), "flow_report", 0, &[]),
        (env!("CARGO_BIN_EXE_table2_ble_gating"), "table2_ble_gating", 0, &[]),
        (env!("CARGO_BIN_EXE_table3_clb_gating"), "table3_clb_gating", 0, &[]),
        (env!("CARGO_BIN_EXE_timing_report"), "timing_report", 0, &[]),
    ];
    for (exe, tool, positionals, rows) in tables {
        flag_table::assert_table(exe, tool, positionals, rows);
    }
}

#[test]
fn fig8_10_refuses_an_unknown_geometry() {
    let exe = env!("CARGO_BIN_EXE_fig8_10_switch_sizing");
    let why = "unknown --config 'min-mn' (min-min|min-double|double-double)";
    flag_table::refused(exe, &["--config", "min-mn"], why);
}

#[test]
fn qor_bench_keeps_every_repeated_only_in_order() {
    let exe = env!("CARGO_BIN_EXE_qor_bench");
    let out = flag_table::run(exe, &["--only", "no_such_a", "--only", "no_such_b"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--only 'no_such_a' is not in"), "{stderr}");
}
