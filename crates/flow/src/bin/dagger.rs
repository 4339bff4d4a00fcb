//! `dagger` — the full back end: mapped BLIF in, configuration bitstream
//! out, with optional fabric-level verification.

use fpga_flow::cli;
use fpga_flow::{run_blif, FlowOptions};

fn main() {
    let args = cli::parse_args(&["o", "seed"]);
    cli::handle_version("dagger", &args);
    let text = cli::input_or_usage(&args, "dagger <design.blif> [-o out.bit] [--no-verify]");
    let mut opts = FlowOptions::default();
    if args.flags.iter().any(|f| f == "no-verify") {
        opts.verify_cycles = 0;
    }
    if let Some(seed) = cli::opt_u64(&args, "dagger", "seed") {
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
