//! `tvpack` — pack a LUT/FF BLIF netlist into the platform's CLBs and
//! emit the `.net` clustered netlist.

use fpga_arch::{clb_inputs_eq1, ClbArch};
use fpga_flow::cli;

fn main() {
    let args = cli::parse_args(&["o", "k", "n", "i"]);
    cli::handle_version("tvpack", &args);
    let text = cli::input_or_usage(&args, "tvpack <in.blif> [-k 4] [-n 5] [-i 12] [-o out.net]");
    let k = cli::opt_u64(&args, "tvpack", "k").map_or(4, |k| k as usize);
    let n = cli::opt_u64(&args, "tvpack", "n").map_or(5, |n| n as usize);
    let i = cli::opt_u64(&args, "tvpack", "i").map_or_else(|| clb_inputs_eq1(k, n), |i| i as usize);
    let arch = ClbArch {
        lut_k: k,
        cluster_size: n,
        inputs: i,
        outputs: n,
        clocks: 1,
        full_crossbar: true,
    };
    let mut netlist = match fpga_netlist::blif::parse(&text) {
        Ok(nl) => nl,
        Err(e) => cli::die("tvpack", e),
    };
    fpga_pack::prepare(&mut netlist).unwrap_or_else(|e| cli::die("tvpack", e));
    match fpga_pack::pack(&netlist, &arch) {
        Ok(clustering) => {
            eprintln!(
                "packed: {} BLEs into {} CLBs (utilization {:.1} %)",
                clustering.bles.len(),
                clustering.clusters.len(),
                100.0 * clustering.utilization()
            );
            cli::write_output(&args, &fpga_pack::netformat::write_net(&clustering));
        }
        Err(e) => cli::die("tvpack", e),
    }
}
