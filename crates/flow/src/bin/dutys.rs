//! `dutys` — generate the architecture description file.

use fpga_arch::{clb_inputs_eq1, Architecture};
use fpga_flow::cli;

fn main() {
    let args = cli::parse_args(&["o", "k", "n", "w", "name"]);
    cli::handle_version("dutys", &args);
    let mut arch = Architecture::paper_default();
    if let Some(name) = args.options.get("name") {
        arch.name = name.clone();
    }
    if let Some(k) = cli::opt_u64(&args, "dutys", "k").map(|k| k as usize) {
        arch.clb.lut_k = k;
        arch.clb.inputs = clb_inputs_eq1(k, arch.clb.cluster_size);
    }
    if let Some(n) = cli::opt_u64(&args, "dutys", "n").map(|n| n as usize) {
        arch.clb.cluster_size = n;
        arch.clb.outputs = n;
        arch.clb.inputs = clb_inputs_eq1(arch.clb.lut_k, n);
    }
    if let Some(w) = cli::opt_u64(&args, "dutys", "w") {
        arch.routing.channel_width = w as usize;
    }
    let out = if args.flags.iter().any(|f| f == "json") {
        arch.to_json()
    } else {
        fpga_arch::write_arch_text(&arch)
    };
    cli::write_output(&args, &out);
}
