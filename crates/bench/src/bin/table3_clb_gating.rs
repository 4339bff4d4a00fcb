//! Regenerate Table 3: energy for single and gated clock at CLB level.

use fpga_bench::Table;
use fpga_cells::clockgate::{breakeven_idle_probability, table3};

fn main() {
    fpga_flow::cli::parse_args("table3_clb_gating", &[], 0, "");
    println!("Table 3: Energy for single and gated clock at CLB level");
    println!("(per clock cycle; Fig. 6 circuits: 5 Llopis-1 DETFFs, local clock network)\n");
    let t = Table::new(&[14, 14, 14, 10]);
    println!(
        "{}",
        t.row(&[
            "Condition".into(),
            "Single Clock".into(),
            "Gated Clock".into(),
            "Saving".into()
        ])
    );
    println!("{}", t.rule());
    let rows = table3(1e-12, 4);
    for row in &rows {
        println!(
            "{}",
            t.row(&[
                row.condition(),
                format!("E = {:.1} fJ", row.single_fj),
                format!("E = {:.1} fJ", row.gated_fj),
                format!("{:+.1} %", row.saving_pct()),
            ])
        );
    }
    println!("{}", t.rule());
    println!(
        "breakeven idle probability: {:.2}  (paper: gate the CLB clock if P(all off) > 1/3)",
        breakeven_idle_probability(&rows)
    );
}
