//! `e2fmt` — EDIF <-> BLIF format translation.

use fpga_flow::cli;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("o", Some("FILE"), "write the translation here (default: stdout)"),
    ("reverse", None, "translate BLIF to EDIF instead"),
];

fn main() {
    let args = cli::parse_args("e2fmt <in.edif | in.blif> [options]", OPTS, 1, "");
    let text = cli::input_or_usage(&args);
    let result = if args.flag("reverse") {
        fpga_synth::e2fmt::blif_to_edif(&text)
    } else {
        fpga_synth::e2fmt::edif_to_blif(&text)
    };
    match result {
        Ok(out) => cli::write_output(&args, &out),
        Err(e) => cli::die("e2fmt", e),
    }
}
