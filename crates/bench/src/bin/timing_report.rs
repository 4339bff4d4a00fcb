//! Post-route static timing report for the benchmark suite: critical path
//! delay, fmax, and the critical path's net trace on the platform
//! (10x pass switches, length-1 segments), with how the router got
//! there: nets rerouted and nodes overused after each iteration. The
//! paper reports no timing table; this records the implementation's
//! numbers alongside the power and area results.

use fpga_bench::Table;
use fpga_flow::{run_netlist, FlowOptions};

fn main() {
    fpga_flow::cli::parse_args("timing_report", &[], 0, "");
    println!("Post-route timing (paper architecture):\n");
    let t = Table::new(&[10, 8, 12, 10, 14]);
    println!(
        "{}",
        t.row(&[
            "design".into(),
            "depth".into(),
            "critical ns".into(),
            "fmax MHz".into(),
            "crit. nets".into()
        ])
    );
    println!("{}", t.rule());
    for nl in fpga_circuits::benchmark_suite() {
        let name = nl.name.clone();
        match run_netlist(nl, &FlowOptions::default()) {
            Ok(art) => {
                let routing = art
                    .report
                    .stages
                    .iter()
                    .find(|s| s.stage.contains("routing"))
                    .expect("routing stage present");
                let crit = routing.metrics["critical_ns"].as_f64().unwrap_or(0.0);
                let fmax = routing.metrics["fmax_mhz"].as_f64().unwrap_or(0.0);
                let depth = art
                    .report
                    .stages
                    .iter()
                    .find(|s| s.stage.contains("SIS"))
                    .and_then(|s| s.metrics["depth"].as_u64())
                    .unwrap_or(0);
                println!(
                    "{}",
                    t.row(&[
                        name,
                        depth.to_string(),
                        format!("{crit:.2}"),
                        format!("{fmax:.1}"),
                        art.critical_nets.len().to_string(),
                    ])
                );
                let rows: Vec<String> = art
                    .routing
                    .stats
                    .iter()
                    .map(|r| format!("{}/{}", r.worklist, r.overused))
                    .collect();
                println!("  worklist/overused per iteration: {}", rows.join(" "));
            }
            Err(e) => println!("{name} FAILED: {e}"),
        }
    }
    println!("{}", t.rule());
    println!("critical path = clk-to-Q + LUT/crossbar levels + routed Elmore");
    println!("delays + setup, traced net-by-net by the STA (fpga-route::sta).");
    println!("worklist/overused: nets rerouted, then RR nodes shared by more");
    println!("than one net, after each router iteration (of the final min-W probe).");
}
