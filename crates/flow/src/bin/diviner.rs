//! `diviner` — synthesis: VHDL in, gate-level EDIF out.

use fpga_flow::cli;

const OPTS: &[cli::Opt] = &[("o", Some("FILE"), "write the EDIF here (default: stdout)")];

fn main() {
    let args = cli::parse_args("diviner <design.vhd> [options]", OPTS, 1, "");
    let text = cli::input_or_usage(&args);
    match fpga_synth::diviner::synthesize_to_edif(&text) {
        Ok(edif) => cli::write_output(&args, &edif),
        Err(e) => cli::die("diviner", e),
    }
}
