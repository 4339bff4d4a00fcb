//! `powermodel` — power estimation of a mapped BLIF design on the
//! platform (dynamic / short-circuit / leakage, as the paper's tool).

use fpga_cells::caps::ClbCaps;
use fpga_cells::tech::Tech;
use fpga_flow::cli;
use fpga_power::PowerOptions;

fn main() {
    let args = cli::parse_args(&["f", "cycles"]);
    cli::handle_version("powermodel", &args);
    let text = cli::input_or_usage(
        &args,
        "powermodel <mapped.blif> [--f 100e6] [--cycles 1000]",
    );
    let mut netlist =
        fpga_netlist::blif::parse(&text).unwrap_or_else(|e| cli::die("powermodel", e));
    fpga_pack::prepare(&mut netlist).unwrap_or_else(|e| cli::die("powermodel", e));
    let clustering = fpga_pack::pack(&netlist, &fpga_arch::ClbArch::paper_default())
        .unwrap_or_else(|e| cli::die("powermodel", e));
    let mut opts = PowerOptions::default();
    if let Some(f) = cli::opt_f64(&args, "powermodel", "f") {
        opts.frequency = f;
    }
    if let Some(c) = cli::opt_u64(&args, "powermodel", "cycles") {
        opts.activity_cycles = c as usize;
    }
    let tech = Tech::stm018();
    let caps = ClbCaps::from_designs(&tech);
    let report = fpga_power::estimate(&clustering, None, &tech, &caps, &opts)
        .unwrap_or_else(|e| cli::die("powermodel", e));
    print!("{}", report.table());
}
