//! Regenerate Table 2: energy for single and gated clock at BLE level.

use fpga_cells::clockgate::table2;

fn main() {
    fpga_flow::cli::parse_args("table2_ble_gating", &[], 0, "");
    println!("Table 2: Energy consumption for single and gated clock (BLE level)");
    println!("(per clock cycle; Fig. 5 circuits; Llopis-1 DETFF)\n");
    let t2 = table2(1e-12, 4);
    println!("Single clock                 E = {:.2} fJ", t2.single_fj);
    println!(
        "Gated clock, clock_enable=1  E = {:.2} fJ  ({:+.1} %)",
        t2.gated_en1_fj,
        t2.overhead_en1_pct()
    );
    println!(
        "Gated clock, clock_enable=0  E = {:.2} fJ  ({:.1} % saving)",
        t2.gated_en0_fj,
        t2.saving_en0_pct()
    );
    println!();
    println!("paper: +6.2 % overhead when enabled, ~77 % saving when idle");
}
