//! `powermodel` — power estimation of a mapped BLIF design on the
//! platform (dynamic / short-circuit / leakage, as the paper's tool).

use fpga_cells::caps::ClbCaps;
use fpga_cells::tech::Tech;
use fpga_flow::cli;
use fpga_power::PowerOptions;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("f", Some("HZ"), "clock frequency (default: 100e6)"),
    ("cycles", Some("N"), "simulated cycles for switching activity (default: 1000)"),
];

fn main() {
    let args = cli::parse_args("powermodel <mapped.blif> [options]", OPTS, 1, "");
    let text = cli::input_or_usage(&args);
    let mut netlist =
        fpga_netlist::blif::parse(&text).unwrap_or_else(|e| cli::die("powermodel", e));
    fpga_pack::prepare(&mut netlist).unwrap_or_else(|e| cli::die("powermodel", e));
    let clustering = fpga_pack::pack(&netlist, &fpga_arch::ClbArch::paper_default())
        .unwrap_or_else(|e| cli::die("powermodel", e));
    let mut opts = PowerOptions::default();
    if let Some(f) = cli::opt_f64(&args, "f") {
        opts.frequency = f;
    }
    if let Some(c) = cli::opt_u64(&args, "cycles") {
        opts.activity_cycles = c as usize;
    }
    let tech = Tech::stm018();
    let caps = ClbCaps::from_designs(&tech);
    let report = fpga_power::estimate(&clustering, None, &tech, &caps, &opts)
        .unwrap_or_else(|e| cli::die("powermodel", e));
    print!("{}", report.table());
}
