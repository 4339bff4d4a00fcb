//! Ablation D (§3.1): the platform's double-edge-triggered flip-flops keep
//! the data rate while clocking at half frequency — "the power dissipation
//! on the clock network is halved". Measured with the PowerModel across
//! the benchmark suite.

use fpga_bench::{map_benchmark, Table};
use fpga_cells::caps::ClbCaps;
use fpga_cells::tech::Tech;
use fpga_power::PowerOptions;

fn main() {
    fpga_flow::cli::parse_args("ablation_det_clocking", &[], 0, "");
    println!("Ablation: single-edge vs double-edge-triggered clocking\n");
    let tech = Tech::stm018();
    let caps = ClbCaps::from_designs(&tech);
    let t = Table::new(&[10, 14, 14, 12, 12]);
    println!(
        "{}",
        t.row(&[
            "design".into(),
            "SET clock uW".into(),
            "DET clock uW".into(),
            "saving %".into(),
            "total sav %".into()
        ])
    );
    println!("{}", t.rule());
    for nl in fpga_circuits::benchmark_suite() {
        let name = nl.name.clone();
        let (mut mapped, _) = map_benchmark(&nl, 4);
        fpga_pack::prepare(&mut mapped).unwrap();
        let c = fpga_pack::pack(&mapped, &fpga_arch::ClbArch::paper_default()).unwrap();
        if c.bles.iter().all(|b| b.ff.is_none()) {
            continue; // purely combinational: no clock network
        }
        let det = fpga_power::estimate(&c, None, &tech, &caps, &PowerOptions::default()).unwrap();
        let set_opts = PowerOptions {
            clock_ratio: 1.0,
            ..PowerOptions::default()
        };
        let set = fpga_power::estimate(&c, None, &tech, &caps, &set_opts).unwrap();
        println!(
            "{}",
            t.row(&[
                name,
                format!("{:.2}", set.clock_dynamic * 1e6),
                format!("{:.2}", det.clock_dynamic * 1e6),
                format!(
                    "{:.1}",
                    100.0 * (1.0 - det.clock_dynamic / set.clock_dynamic)
                ),
                format!("{:.1}", 100.0 * (1.0 - det.total() / set.total())),
            ])
        );
    }
    println!("{}", t.rule());
    println!("paper (§3.1): the DETFF keeps the data rate at half the clock");
    println!("frequency, halving clock-network power");
}
