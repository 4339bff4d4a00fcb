//! Ablation A (§3.1): cluster size N vs energy. The paper's exploration
//! "showed that a cluster size of 5 BLEs leads to the minimization of
//! energy consumption". Sweeps N with I from Eq. (1) over the benchmark
//! suite and reports estimated total power.

use fpga_bench::{arch_for, map_benchmark, Table};
use fpga_cells::caps::ClbCaps;
use fpga_cells::tech::Tech;
use fpga_power::PowerOptions;

fn main() {
    fpga_flow::cli::parse_args("ablation_cluster_size", &[], 0, "");
    let k = 4usize;
    println!("Ablation: cluster size N vs estimated power (K = {k}, I per Eq. 1)\n");
    let tech = Tech::stm018();
    let caps = ClbCaps::from_designs(&tech);
    let suite: Vec<_> = fpga_circuits::benchmark_suite()
        .into_iter()
        .map(|nl| {
            let (mapped, _) = map_benchmark(&nl, k);
            let mut m = mapped;
            fpga_pack::prepare(&mut m).unwrap();
            m
        })
        .collect();
    let t = Table::new(&[4, 12, 12, 14]);
    println!(
        "{}",
        t.row(&[
            "N".into(),
            "avg CLBs".into(),
            "util (%)".into(),
            "power (uW)".into()
        ])
    );
    println!("{}", t.rule());
    for n in [1usize, 2, 3, 4, 5, 6, 8, 10] {
        let arch = arch_for(k, n);
        let mut clbs = 0usize;
        let mut util = 0.0;
        let mut power = 0.0;
        for nl in &suite {
            let c = fpga_pack::pack(nl, &arch).expect("packable");
            clbs += c.clusters.len();
            util += c.utilization();
            let p = fpga_power::estimate(&c, None, &tech, &caps, &PowerOptions::default())
                .expect("estimable");
            power += p.total();
        }
        println!(
            "{}",
            t.row(&[
                n.to_string(),
                format!("{:.1}", clbs as f64 / suite.len() as f64),
                format!("{:.1}", 100.0 * util / suite.len() as f64),
                format!("{:.2}", 1e6 * power / suite.len() as f64),
            ])
        );
    }
    println!("{}", t.rule());
    println!("paper: N = 5 minimizes energy consumption");
}
