//! Regenerate Table 1: energy, delay, and energy-delay product of the
//! five candidate DET flip-flops under the Fig. 4 stimulus.
//!
//! Run with `--waveform` to also dump the Fig. 4 input waveforms as CSV.

use fpga_bench::Table;
use fpga_cells::detff::{selected_detff, table1, Fig4Stimulus};
use fpga_flow::cli;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[("waveform", None, "dump the Fig. 4 input waveforms as CSV instead")];

fn main() {
    let waveform = cli::parse_args("table1_detff [options]", OPTS, 0, "").flag("waveform");
    let stim = Fig4Stimulus::default();

    if waveform {
        // Fig. 4: the stimulus itself.
        println!("# Fig. 4 stimulus (t_ns, clk_V, d_V)");
        let clk = stim.clock();
        let d = stim.data();
        let mut t = 0.0;
        while t <= stim.t_stop() {
            println!("{:.3},{:.3},{:.3}", t * 1e9, clk.value_at(t), d.value_at(t));
            t += 25e-12;
        }
        return;
    }

    println!("Table 1: Energy consumption, delay and energy-delay product of DET F/Fs");
    println!(
        "(Fig. 4 stimulus, {} cycles at {:.1} ns period, dt = 1 ps)\n",
        stim.cycles,
        stim.clk_period * 1e9
    );
    let t = Table::new(&[14, 16, 12, 20]);
    println!(
        "{}",
        t.row(&[
            "Cell".into(),
            "Total Energy".into(),
            "Delay".into(),
            "Energy-Delay Product".into()
        ])
    );
    println!(
        "{}",
        t.row(&[
            "".into(),
            "(fJ/cycle)".into(),
            "(ps)".into(),
            "(fJ*ps)".into()
        ])
    );
    println!("{}", t.rule());
    let rows = table1(&stim, 1e-12);
    for row in &rows {
        println!(
            "{}",
            t.row(&[
                row.kind.label().to_string(),
                format!("{:.2}", row.energy_fj),
                format!("{:.1}", row.delay_ps),
                format!("{:.0}", row.edp),
            ])
        );
    }
    println!("{}", t.rule());
    let sel = selected_detff(&rows);
    let best_edp = rows
        .iter()
        .min_by(|a, b| a.edp.partial_cmp(&b.edp).unwrap())
        .unwrap();
    println!("lowest energy (selected, as in the paper): {}", sel.label());
    println!("lowest energy-delay product: {}", best_edp.kind.label());
}
