//! Ablation B (§3.1): LUT input count K. The paper cites its reference 24: 4-input
//! LUTs give the lowest FPGA energy with a good area-delay product.
//! Sweeps K over the suite; reports LUTs, depth, and estimated power.

use fpga_bench::{arch_for, map_benchmark, Table};
use fpga_cells::caps::ClbCaps;
use fpga_cells::tech::Tech;
use fpga_power::PowerOptions;

fn main() {
    fpga_flow::cli::parse_args("ablation_lut_size", &[], 0, "");
    println!("Ablation: LUT size K (cluster size 5, I per Eq. 1)\n");
    let tech = Tech::stm018();
    let caps = ClbCaps::from_designs(&tech);
    let suite = fpga_circuits::benchmark_suite();
    let t = Table::new(&[4, 10, 10, 10, 14]);
    println!(
        "{}",
        t.row(&[
            "K".into(),
            "LUTs".into(),
            "depth".into(),
            "CLBs".into(),
            "power (uW)".into()
        ])
    );
    println!("{}", t.rule());
    for k in [2usize, 3, 4, 5, 6] {
        let arch = arch_for(k, 5);
        let mut luts = 0usize;
        let mut depth = 0usize;
        let mut clbs = 0usize;
        let mut power = 0.0;
        for nl in &suite {
            let (mapped, report) = map_benchmark(nl, k);
            let mut m = mapped;
            fpga_pack::prepare(&mut m).unwrap();
            luts += report.luts;
            depth = depth.max(report.depth);
            let c = fpga_pack::pack(&m, &arch).expect("packable");
            clbs += c.clusters.len();
            let p = fpga_power::estimate(&c, None, &tech, &caps, &PowerOptions::default())
                .expect("estimable");
            power += p.total();
        }
        println!(
            "{}",
            t.row(&[
                k.to_string(),
                luts.to_string(),
                depth.to_string(),
                clbs.to_string(),
                format!("{:.2}", 1e6 * power / suite.len() as f64),
            ])
        );
    }
    println!("{}", t.rule());
    println!("paper (after [24]): K = 4 gives the lowest energy with an");
    println!("efficient area-delay product");
}
