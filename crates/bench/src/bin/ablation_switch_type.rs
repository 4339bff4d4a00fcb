//! Ablation C (§3.3.2): pass-transistor vs tri-state-buffer routing
//! switches at the selected operating point (10x width, length-1 wires,
//! min-width double-spacing metal).

use fpga_bench::Table;
use fpga_cells::routing::{paper_lengths, paper_widths, SizingExperiment, SwitchKind};
use fpga_cells::tech::WireGeometry;

fn main() {
    fpga_flow::cli::parse_args("ablation_switch_type", &[], 0, "");
    println!("Ablation: routing switch style (min width, double spacing)\n");
    let t = Table::new(&[18, 6, 12, 12, 12, 14]);
    println!(
        "{}",
        t.row(&[
            "style".into(),
            "len".into(),
            "E (fJ)".into(),
            "D (ps)".into(),
            "area".into(),
            "E*D*A".into()
        ])
    );
    println!("{}", t.rule());
    for kind in [SwitchKind::PassTransistor, SwitchKind::TristateBuffer] {
        let exp = SizingExperiment::new(WireGeometry::MinWidthDoubleSpace, kind);
        let pts = exp.sweep(&paper_lengths(), &paper_widths());
        for len in paper_lengths() {
            let p = pts
                .iter()
                .find(|p| p.wire_len == len && p.width_mult == 10.0)
                .unwrap();
            println!(
                "{}",
                t.row(&[
                    format!("{kind:?}"),
                    len.to_string(),
                    format!("{:.1}", p.energy_fj),
                    format!("{:.1}", p.delay_ps),
                    format!("{:.1}", p.area_units),
                    format!("{:.3e}", p.eda()),
                ])
            );
        }
        println!("{}", t.rule());
    }
    println!("paper: pass-transistor switches with length-1 wires are selected");
    println!("for the low-energy platform");
}
