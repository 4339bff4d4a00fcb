//! `vpr-pr` — placement and routing: LUT/FF BLIF in, placement file +
//! routing statistics out.

use fpga_arch::device::Device;
use fpga_arch::Architecture;
use fpga_flow::cli;
use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};
use fpga_route::{PathFinderRouter, RouteEngine};

fn main() {
    let args = cli::parse_args(&["o", "arch", "seed", "w", "net"]);
    cli::handle_version("vpr-pr", &args);
    let text = cli::input_or_usage(
        &args,
        "vpr-pr <mapped.blif> [--arch arch.txt] [--seed 1] [--w <tracks>] [-o out.place]",
    );
    let arch = match args.options.get("arch") {
        Some(path) => {
            let atext = std::fs::read_to_string(path)
                .unwrap_or_else(|e| cli::die("vpr-pr", format!("cannot read '{path}': {e}")));
            fpga_arch::parse_arch_text(&atext).unwrap_or_else(|e| cli::die("vpr-pr", e))
        }
        None => Architecture::paper_default(),
    };
    let seed = cli::opt_u64(&args, "vpr-pr", "seed").unwrap_or(1);
    let mut netlist = fpga_netlist::blif::parse(&text).unwrap_or_else(|e| cli::die("vpr-pr", e));
    fpga_pack::prepare(&mut netlist).unwrap_or_else(|e| cli::die("vpr-pr", e));
    // Either consume T-VPack's .net file or re-pack internally.
    let clustering = match args.options.get("net") {
        Some(net_path) => {
            let net_text = std::fs::read_to_string(net_path)
                .unwrap_or_else(|e| cli::die("vpr-pr", format!("cannot read '{net_path}': {e}")));
            fpga_pack::netformat::parse_net(&net_text, &netlist, &arch.clb)
                .unwrap_or_else(|e| cli::die("vpr-pr", e))
        }
        None => fpga_pack::pack(&netlist, &arch.clb).unwrap_or_else(|e| cli::die("vpr-pr", e)),
    };
    let ios = netlist.inputs.len() + netlist.outputs.len() + 1;
    let device = Device::sized_for(arch, clustering.clusters.len(), ios);
    let placer = AnnealingPlacer::new(PlaceConfig::new().seed(seed).inner_num(5.0));
    let placement = placer
        .place(&clustering, device)
        .unwrap_or_else(|e| cli::die("vpr-pr", e));
    eprintln!(
        "placed on {} x {} grid, cost {:.1}",
        placement.device.width, placement.device.height, placement.cost
    );
    eprint!("{}", placement.stats_table());
    let router = PathFinderRouter;
    let (w, routed) = match cli::opt_u64(&args, "vpr-pr", "w").map(|w| w as usize) {
        Some(w) => {
            let g = fpga_route::rrgraph::RrGraph::build(&placement.device, w);
            let r = router
                .route(&clustering, &placement, &g)
                .unwrap_or_else(|e| cli::die("vpr-pr", e));
            (w, r)
        }
        None => router
            .find_min_channel_width(&clustering, &placement, 128)
            .unwrap_or_else(|e| cli::die("vpr-pr", e)),
    };
    for (probe_w, probe) in &routed.probes {
        eprintln!("probe W={probe_w}: {probe:?}");
    }
    eprintln!(
        "routed at channel width {w}: wirelength {}, {} iterations",
        routed.wirelength, routed.iterations
    );
    eprint!("{}", routed.stats_table());
    cli::write_output(&args, &placement.write_place(&clustering));
}
