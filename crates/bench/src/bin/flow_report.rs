//! Fig. 11 reproduction: run the complete design flow on the benchmark
//! suite (and the VHDL counter) and print per-stage results. This is the
//! "complete academic system" demonstration of the paper.

use fpga_bench::Table;
use fpga_flow::{run_netlist, run_vhdl, FlowOptions};

fn main() {
    fpga_flow::cli::parse_args("flow_report", &[], 0, "");
    println!("Complete flow (Fig. 11): VHDL/netlist -> verified bitstream\n");
    let t = Table::new(&[10, 7, 7, 7, 7, 9, 11, 11, 8]);
    println!(
        "{}",
        t.row(&[
            "design".into(),
            "LUTs".into(),
            "FFs".into(),
            "CLBs".into(),
            "grid".into(),
            "chan W".into(),
            "wirelen".into(),
            "power uW".into(),
            "verify".into()
        ])
    );
    println!("{}", t.rule());

    let mut designs: Vec<(String, fpga_flow::FlowArtifacts)> = Vec::new();
    let opts = FlowOptions::default();

    let counter_src = fpga_circuits::vhdl_counter(8);
    match run_vhdl(&counter_src, &opts) {
        Ok(art) => designs.push(("counter8(vhdl)".to_string(), art)),
        Err(e) => println!("counter8 FAILED: {e}"),
    }
    for nl in fpga_circuits::benchmark_suite() {
        let name = nl.name.clone();
        match run_netlist(nl, &opts) {
            Ok(art) => designs.push((name, art)),
            Err(e) => println!("{name} FAILED: {e}"),
        }
    }

    for (name, art) in &designs {
        let luts = art
            .mapped
            .cells
            .iter()
            .filter(|c| matches!(c.kind, fpga_netlist::CellKind::Lut { .. }))
            .count();
        let ffs = art.mapped.cell_counts().1;
        let verified = art
            .report
            .stages
            .iter()
            .any(|s| s.stage.contains("fabric") && s.ok);
        println!(
            "{}",
            t.row(&[
                name.clone(),
                luts.to_string(),
                ffs.to_string(),
                art.clustering.clusters.len().to_string(),
                format!(
                    "{}x{}",
                    art.placement.device.width, art.placement.device.height
                ),
                art.routing.channel_width.to_string(),
                art.routing.wirelength.to_string(),
                format!("{:.1}", art.power.total() * 1e6),
                if verified {
                    "OK".into()
                } else {
                    "-".to_string()
                },
            ])
        );
    }
    println!("{}", t.rule());
    println!("every bitstream above was verified by fabric emulation against");
    println!("the mapped netlist (the paper's 'program the FPGA' step).");
}
