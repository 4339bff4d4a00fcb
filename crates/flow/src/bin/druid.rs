//! `druid` — EDIF normalization between tool dialects.

use fpga_flow::cli;

const OPTS: &[cli::Opt] = &[("o", Some("FILE"), "write the EDIF here (default: stdout)")];

fn main() {
    let args = cli::parse_args("druid <in.edif> [options]", OPTS, 1, "");
    let text = cli::input_or_usage(&args);
    match fpga_synth::druid::normalize_edif(&text) {
        Ok(out) => cli::write_output(&args, &out),
        Err(e) => cli::die("druid", e),
    }
}
