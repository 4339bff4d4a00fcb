//! `sis-map` — the SIS stand-in: logic optimization + K-LUT mapping.
//! BLIF in, LUT-level BLIF out.

use fpga_flow::cli;
use fpga_synth::{map_to_luts, MapOptions};

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("o", Some("FILE"), "write the mapped BLIF here (default: stdout)"),
    ("k", Some("N"), "LUT inputs (default: 4)"),
];

fn main() {
    let args = cli::parse_args("sis-map <in.blif> [options]", OPTS, 1, "");
    let text = cli::input_or_usage(&args);
    let k = cli::opt_u64(&args, "k").map_or(4, |k| k as usize);
    let mut netlist = match fpga_netlist::blif::parse(&text) {
        Ok(n) => n,
        Err(e) => cli::die("sis-map", e),
    };
    if let Err(e) = fpga_synth::opt::optimize(&mut netlist) {
        cli::die("sis-map", e);
    }
    match map_to_luts(&netlist, MapOptions { k, cut_limit: 10 }) {
        Ok((mapped, report)) => {
            eprintln!(
                "mapped: {} LUTs, depth {}, {} FFs",
                report.luts, report.depth, report.ffs
            );
            match fpga_netlist::blif::write(&mapped) {
                Ok(blif) => cli::write_output(&args, &blif),
                Err(e) => cli::die("sis-map", e),
            }
        }
        Err(e) => cli::die("sis-map", e),
    }
}
