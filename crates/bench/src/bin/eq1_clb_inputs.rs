//! Reproduce Eq. (1): the cluster-input count I = (K/2)(N+1) fills BLEs
//! near-completely (the paper quotes ~98 % utilization), while smaller
//! budgets starve clusters. Sweeps I for the paper's (K=4, N=5) CLB over
//! the benchmark suite and reports BLE utilization.

use fpga_arch::{clb_inputs_eq1, ClbArch};
use fpga_bench::{map_benchmark, Table};

fn main() {
    fpga_flow::cli::parse_args("eq1_clb_inputs", &[], 0, "");
    let k = 4usize;
    let n = 5usize;
    let eq1 = clb_inputs_eq1(k, n);
    println!("Eq. (1) exploration: BLE utilization vs cluster inputs I (K={k}, N={n})");
    println!("I from Eq. (1) = (K/2)(N+1) = {eq1}\n");

    let suite: Vec<_> = fpga_circuits::benchmark_suite()
        .into_iter()
        .map(|nl| {
            let (mapped, _) = map_benchmark(&nl, k);
            let mut m = mapped;
            fpga_pack::prepare(&mut m).unwrap();
            m
        })
        .collect();

    let t = Table::new(&[4, 14, 14, 10]);
    println!(
        "{}",
        t.row(&[
            "I".into(),
            "avg util (%)".into(),
            "avg CLBs".into(),
            "note".into()
        ])
    );
    println!("{}", t.rule());
    for i in [4usize, 5, 6, 8, 10, eq1, 14, 16] {
        let arch = ClbArch {
            lut_k: k,
            cluster_size: n,
            inputs: i,
            outputs: n,
            clocks: 1,
            full_crossbar: true,
        };
        let mut total_util = 0.0;
        let mut total_clbs = 0usize;
        for nl in &suite {
            let c = fpga_pack::pack(nl, &arch).expect("packable");
            total_util += c.utilization();
            total_clbs += c.clusters.len();
        }
        let avg = 100.0 * total_util / suite.len() as f64;
        let note = if i == eq1 { "<- Eq. (1)" } else { "" };
        println!(
            "{}",
            t.row(&[
                i.to_string(),
                format!("{avg:.1}"),
                format!("{:.1}", total_clbs as f64 / suite.len() as f64),
                note.to_string(),
            ])
        );
    }
    println!("{}", t.rule());
    println!("paper: I from Eq. (1) achieves ~98 % utilization of all BLEs");
}
