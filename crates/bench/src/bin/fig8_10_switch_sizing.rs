//! Regenerate Figures 8-10: energy-delay-area product vs routing pass
//! transistor width for wire lengths 1/2/4/8 under the three metal
//! geometries. `--config min-min|min-double|double-double` selects one
//! figure; default prints all three. `--csv` emits plot-ready data.

use fpga_bench::Table;
use fpga_cells::routing::{
    optimum_width, paper_lengths, paper_widths, SizingExperiment, SwitchKind,
};
use fpga_cells::tech::WireGeometry;
use fpga_flow::cli;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("config", Some("min-min|min-double|double-double"), "print this geometry's figure only"),
    ("csv", None, "emit plot-ready CSV"),
];

fn main() {
    let args = cli::parse_args("fig8_10_switch_sizing [options]", OPTS, 0, "");
    let csv = args.flag("csv");
    let geoms: Vec<WireGeometry> = match args.get("config") {
        None => WireGeometry::all().to_vec(),
        Some("min-min") => vec![WireGeometry::MinWidthMinSpace],
        Some("min-double") => vec![WireGeometry::MinWidthDoubleSpace],
        Some("double-double") => vec![WireGeometry::DoubleWidthDoubleSpace],
        Some(other) => args.refuse(format!(
            "unknown --config '{other}' (min-min|min-double|double-double)"
        )),
    };
    for geom in geoms {
        let exp = SizingExperiment::new(geom, SwitchKind::PassTransistor);
        let pts = exp.sweep(&paper_lengths(), &paper_widths());
        if csv {
            println!("# {}", geom.label());
            println!("wire_len,width_mult,energy_fj,delay_ps,area_units,eda");
            for p in &pts {
                println!(
                    "{},{},{:.2},{:.2},{:.2},{:.4e}",
                    p.wire_len,
                    p.width_mult,
                    p.energy_fj,
                    p.delay_ps,
                    p.area_units,
                    p.eda()
                );
            }
            continue;
        }
        println!("== {} ==", geom.label());
        let t = Table::new(&[9, 12, 12, 12, 14]);
        println!(
            "{}",
            t.row(&[
                "len".into(),
                "width(xmin)".into(),
                "E (fJ)".into(),
                "D (ps)".into(),
                "E*D*A".into()
            ])
        );
        println!("{}", t.rule());
        for len in paper_lengths() {
            for p in pts.iter().filter(|p| p.wire_len == len) {
                println!(
                    "{}",
                    t.row(&[
                        len.to_string(),
                        format!("{}", p.width_mult),
                        format!("{:.1}", p.energy_fj),
                        format!("{:.1}", p.delay_ps),
                        format!("{:.3e}", p.eda()),
                    ])
                );
            }
            println!(
                "  -> optimum for length {}: {}x minimum width",
                len,
                optimum_width(&pts, len)
            );
            println!("{}", t.rule());
        }
        println!();
    }
    println!("paper: ~10x optimal for lengths 1/2/4; large (64x) for length 8 at");
    println!("minimum metal width, 16x with double-width metal; the platform");
    println!("selects 10x pass transistors on length-1 segments.");
}
