//! `dagger` — the full back end: mapped BLIF in, configuration bitstream
//! out, with optional fabric-level verification.

use fpga_flow::cli;
use fpga_flow::{run_blif, FlowOptions};

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("o", Some("FILE"), "write the bitstream here (default: design.bit)"),
    ("seed", Some("N"), "placement seed (default: 1)"),
    ("no-verify", None, "skip fabric-level verification of the bitstream"),
];

fn main() {
    let args = cli::parse_args("dagger <design.blif> [options]", OPTS, 1, "");
    let text = cli::input_or_usage(&args);
    let mut opts = FlowOptions::default();
    if args.flag("no-verify") {
        opts.verify_cycles = 0;
    }
    if let Some(seed) = cli::opt_u64(&args, "seed") {
        opts.place_seed = seed;
    }
    match run_blif(&text, &opts) {
        Ok(art) => {
            eprint!("{}", art.report.summary());
            cli::write_binary_output(&args, &art.bitstream_bytes, "design.bit");
        }
        Err(e) => cli::die("dagger", e),
    }
}
