//! `dutys` — generate the architecture description file.

use fpga_arch::{clb_inputs_eq1, Architecture};
use fpga_flow::cli;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("o", Some("FILE"), "write the description here (default: stdout)"),
    ("k", Some("N"), "LUT inputs (default: 4)"),
    ("n", Some("N"), "BLEs per CLB (default: 5)"),
    ("w", Some("N"), "routing channel width"),
    ("name", Some("NAME"), "architecture name"),
    ("json", None, "write JSON instead of the text format"),
];

fn main() {
    let args = cli::parse_args("dutys [options]", OPTS, 0, "");
    let mut arch = Architecture::paper_default();
    if let Some(name) = args.get("name") {
        arch.name = name.to_string();
    }
    if let Some(k) = cli::opt_u64(&args, "k").map(|k| k as usize) {
        arch.clb.lut_k = k;
        arch.clb.inputs = clb_inputs_eq1(k, arch.clb.cluster_size);
    }
    if let Some(n) = cli::opt_u64(&args, "n").map(|n| n as usize) {
        arch.clb.cluster_size = n;
        arch.clb.outputs = n;
        arch.clb.inputs = clb_inputs_eq1(arch.clb.lut_k, n);
    }
    if let Some(w) = cli::opt_u64(&args, "w") {
        arch.routing.channel_width = w as usize;
    }
    let out = if args.flag("json") {
        arch.to_json()
    } else {
        fpga_arch::write_arch_text(&arch)
    };
    cli::write_output(&args, &out);
}
