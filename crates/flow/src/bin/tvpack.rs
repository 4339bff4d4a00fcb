//! `tvpack` — pack a LUT/FF BLIF netlist into the platform's CLBs and
//! emit the `.net` clustered netlist.

use fpga_arch::{clb_inputs_eq1, ClbArch};
use fpga_flow::cli;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("o", Some("FILE"), "write the .net clustering here (default: stdout)"),
    ("k", Some("N"), "LUT inputs (default: 4)"),
    ("n", Some("N"), "BLEs per CLB (default: 5)"),
    ("i", Some("N"), "CLB inputs (default: Eq. 1, (K/2)(N+1))"),
];

fn main() {
    let args = cli::parse_args("tvpack <in.blif> [options]", OPTS, 1, "");
    let text = cli::input_or_usage(&args);
    let k = cli::opt_u64(&args, "k").map_or(4, |k| k as usize);
    let n = cli::opt_u64(&args, "n").map_or(5, |n| n as usize);
    let i = cli::opt_u64(&args, "i").map_or_else(|| clb_inputs_eq1(k, n), |i| i as usize);
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
