//! `sis-map` — the SIS stand-in: logic optimization + K-LUT mapping.
//! BLIF in, LUT-level BLIF out.

use fpga_flow::cli;
use fpga_synth::{map_to_luts, MapOptions};

fn main() {
    let args = cli::parse_args(&["o", "k"]);
    cli::handle_version("sis-map", &args);
    let text = cli::input_or_usage(&args, "sis-map <in.blif> [-k 4] [-o out.blif]");
    let k = cli::opt_u64(&args, "sis-map", "k").map_or(4, |k| k as usize);
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
