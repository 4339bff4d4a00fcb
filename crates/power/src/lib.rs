//! # fpga-power
//!
//! PowerModel: the flow's power estimator (after Poon/Yan/Wilton's
//! flexible FPGA power model, reference [14] of the paper). Combines:
//!
//! * **switching activity** — Monte-Carlo logic simulation of the mapped
//!   netlist (`fpga_netlist::sim::activity_estimate`);
//! * **capacitance** — the per-structure capacitances extracted from the
//!   transistor-level cell designs (`fpga_cells::caps::ClbCaps`) and the
//!   routing capacitance of the actual routed trees;
//! * **the platform's clocking strategy** — double-edge-triggered FFs run
//!   the clock network at half frequency for the same data rate (§3.1),
//!   and clock gating scales the clock power by the enabled fraction.
//!
//! Reported components follow the tool in the paper: dynamic, short-
//! circuit, and leakage power.

use fpga_cells::caps::ClbCaps;
use fpga_cells::tech::Tech;
use fpga_netlist::sim::activity_estimate;
use fpga_pack::Clustering;
use fpga_route::rrgraph::RrGraph;
use fpga_route::RouteResult;

/// Estimation options.
#[derive(Clone, Debug)]
pub struct PowerOptions {
    /// Data rate (effective cycle frequency), Hz.
    pub frequency: f64,
    /// Monte-Carlo cycles for activity estimation.
    pub activity_cycles: usize,
    pub seed: u64,
    /// Clock frequency relative to the data rate: 0.5 for the platform's
    /// double-edge-triggered FFs, 1.0 for a single-edge baseline.
    pub clock_ratio: f64,
    /// Fraction of clock-gated cycles where a CLB's clock is enabled
    /// (1.0 = gating disabled / always active).
    pub clock_enable_fraction: f64,
    /// Short-circuit power as a fraction of dynamic power.
    pub sc_fraction: f64,
    /// Leakage per transistor (W).
    pub leak_per_tx: f64,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions {
            frequency: 100e6,
            activity_cycles: 1000,
            seed: 42,
            clock_ratio: 0.5, // DETFF platform
            clock_enable_fraction: 1.0,
            sc_fraction: 0.10,
            leak_per_tx: 0.05e-9,
        }
    }
}

/// Power report (watts).
#[derive(Clone, Copy, Debug, Default)]
pub struct PowerReport {
    pub logic_dynamic: f64,
    pub routing_dynamic: f64,
    pub clock_dynamic: f64,
    pub short_circuit: f64,
    pub leakage: f64,
}

impl PowerReport {
    pub fn dynamic(&self) -> f64 {
        self.logic_dynamic + self.routing_dynamic + self.clock_dynamic
    }

    pub fn total(&self) -> f64 {
        self.dynamic() + self.short_circuit + self.leakage
    }

    /// Formatted per-component table (mW).
    pub fn table(&self) -> String {
        let mw = 1e3;
        format!(
            "logic    {:8.4} mW\nrouting  {:8.4} mW\nclock    {:8.4} mW\nshort-ckt{:8.4} mW\nleakage  {:8.4} mW\nTOTAL    {:8.4} mW\n",
            self.logic_dynamic * mw,
            self.routing_dynamic * mw,
            self.clock_dynamic * mw,
            self.short_circuit * mw,
            self.leakage * mw,
            self.total() * mw
        )
    }

    /// Exact binary form (IEEE-754 bit patterns, never float text) for
    /// the flow server's durable artifact store.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = fpga_netlist::ByteWriter::new();
        w.f64(self.logic_dynamic);
        w.f64(self.routing_dynamic);
        w.f64(self.clock_dynamic);
        w.f64(self.short_circuit);
        w.f64(self.leakage);
        w.into_bytes()
    }

    /// Inverse of [`PowerReport::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> fpga_netlist::CodecResult<PowerReport> {
        let mut r = fpga_netlist::ByteReader::new(bytes);
        let report = PowerReport {
            logic_dynamic: r.f64()?,
            routing_dynamic: r.f64()?,
            clock_dynamic: r.f64()?,
            short_circuit: r.f64()?,
            leakage: r.f64()?,
        };
        r.finish()?;
        Ok(report)
    }
}

/// Estimate power for a packed + routed design.
///
/// `routing` may be `None` for a pre-route estimate (placement-level
/// wirelength is then approximated from the clustering's external nets).
pub fn estimate(
    clustering: &Clustering,
    routing: Option<(&RouteResult, &RrGraph)>,
    tech: &Tech,
    caps: &ClbCaps,
    opts: &PowerOptions,
) -> Result<PowerReport, String> {
    let nl = &clustering.netlist;
    let density =
        activity_estimate(nl, opts.activity_cycles, opts.seed).map_err(|e| e.to_string())?;
    let v2 = tech.vdd * tech.vdd;
    let f = opts.frequency;

    // The capacitance summary is extracted for the reference CLB
    // (K = 4, N = 5, 17:1 crossbar). Scale the architecture-dependent
    // pieces for ablations over K and N: the crossbar mux width grows
    // with I + N, the LUT pass tree with 2^K - 1, and the local clock
    // network with the cluster size.
    let arch = &clustering.arch;
    // Mux width scales superlinearly (wider muxes also need deeper
    // select trees); the LUT pass tree scales sublinearly (shared
    // levels dominate). Exponents calibrated against the §3.1 design
    // exploration.
    let xbar_scale = (arch.crossbar_mux_width() as f64 / 17.0).powf(1.3);
    let lut_tree_scale = (((1usize << arch.lut_k) - 1) as f64 / 15.0).powf(0.75);
    let c_lut_input = caps.lut_input * xbar_scale;
    let c_lut_internal = caps.lut_internal * lut_tree_scale;
    let c_clock_network = caps.clock_network * arch.cluster_size as f64 / 5.0;

    // --- Logic power: LUT + FF internals and cluster-local wiring.
    let mut logic = 0.0;
    for ble in &clustering.bles {
        let out_density = density[ble.output.index()];
        if let Some(lut) = ble.lut {
            let cell = &nl.cells[lut.index()];
            // Inputs switch the crossbar + LUT select lines.
            for &inp in &cell.inputs {
                logic += 0.5 * f * v2 * density[inp.index()] * c_lut_input;
            }
            logic += 0.5 * f * v2 * out_density * c_lut_internal;
        }
        if ble.ff.is_some() {
            logic += 0.5 * f * v2 * out_density * caps.ff_internal;
        }
        logic += 0.5 * f * v2 * out_density * caps.ble_output;
    }

    // --- Routing power: capacitance of routed trees x driver activity.
    let mut routing_p = 0.0;
    match routing {
        Some((result, _graph)) => {
            for net in &result.nets {
                let d = density[net.net.index()];
                let segments = net.wirelength(_graph) as f64;
                let cap = segments * (caps.wire_per_tile + 2.0 * caps.switch_junction)
                    + net.sinks.len() as f64 * c_lut_input.max(caps.io_pad * 0.2);
                routing_p += 0.5 * f * v2 * d * cap;
            }
        }
        None => {
            // Pre-route estimate: one tile of wire per external net terminal.
            for net in clustering.external_nets() {
                if nl.clocks.contains(&net) {
                    continue;
                }
                let d = density[net.index()];
                let fanout = clustering
                    .clusters
                    .iter()
                    .filter(|c| c.inputs.contains(&net))
                    .count()
                    .max(1);
                let cap = (fanout as f64 + 1.0) * (caps.wire_per_tile + 2.0 * caps.switch_junction);
                routing_p += 0.5 * f * v2 * d * cap;
            }
        }
    }
    // Primary IO loads.
    for &po in &nl.outputs {
        routing_p += 0.5 * f * v2 * density[po.index()] * caps.io_pad;
    }

    // --- Clock power: the spine plus each cluster's local network. The
    // clock toggles twice per period, hence f (not f/2); DETFFs halve the
    // clock frequency (clock_ratio), and gating scales by enabled time.
    let f_clk = f * opts.clock_ratio;
    let n_clusters = clustering
        .clusters
        .iter()
        .filter(|c| c.clock.is_some())
        .count() as f64;
    let spine_cap = n_clusters * caps.wire_per_tile * 0.5;
    let local_cap = n_clusters * c_clock_network
        + clustering.bles.iter().filter(|b| b.ff.is_some()).count() as f64 * caps.ff_clock_pin;
    let clock = f_clk * v2 * (spine_cap + local_cap * opts.clock_enable_fraction);

    // --- Leakage: transistor census.
    let tx_per_ble = 16 * 2 /* LUT cells */ + 30 /* LUT mux+restore */ + 24 /* DETFF */ + 8;
    let tx_per_cluster_overhead =
        clustering.arch.crossbar_mux_width() * clustering.arch.lut_k * 2 + 40;
    let tx_count =
        clustering.bles.len() * tx_per_ble + clustering.clusters.len() * tx_per_cluster_overhead;
    let leakage = tx_count as f64 * opts.leak_per_tx;

    let dynamic = logic + routing_p + clock;
    Ok(PowerReport {
        logic_dynamic: logic,
        routing_dynamic: routing_p,
        clock_dynamic: clock,
        short_circuit: dynamic * opts.sc_fraction,
        leakage,
    })
}

/// The DETFF clock-power advantage: ratio of clock power between a
/// single-edge-triggered baseline and the platform's DET clocking, all
/// else equal.
pub fn det_clock_saving(
    clustering: &Clustering,
    tech: &Tech,
    caps: &ClbCaps,
    opts: &PowerOptions,
) -> Result<f64, String> {
    let det = estimate(clustering, None, tech, caps, opts)?;
    let mut set_opts = opts.clone();
    set_opts.clock_ratio = 1.0;
    let set = estimate(clustering, None, tech, caps, &set_opts)?;
    if set.clock_dynamic == 0.0 {
        return Ok(0.0);
    }
    Ok(1.0 - det.clock_dynamic / set.clock_dynamic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_arch::ClbArch;
    use fpga_netlist::ir::{CellKind as CK, Netlist};

    fn clustering(n: usize) -> Clustering {
        let mut nl = Netlist::new("p");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let a = nl.net("a");
        nl.add_input(a);
        let mut prev = a;
        for i in 0..n {
            let d = nl.net(&format!("d{i}"));
            let q = nl.net(&format!("q{i}"));
            nl.add_cell(
                &format!("l{i}"),
                CK::Lut {
                    k: 2,
                    truth: 0b0110,
                },
                vec![prev, a],
                d,
            );
            nl.add_cell(
                &format!("f{i}"),
                CK::Dff {
                    clock: clk,
                    init: false,
                },
                vec![d],
                q,
            );
            prev = q;
        }
        nl.add_output(prev);
        fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap()
    }

    #[test]
    fn report_components_positive_and_scaled() {
        let c = clustering(20);
        let tech = Tech::stm018();
        let caps = ClbCaps::from_designs(&tech);
        let r = estimate(&c, None, &tech, &caps, &PowerOptions::default()).unwrap();
        assert!(r.logic_dynamic > 0.0);
        assert!(r.routing_dynamic > 0.0);
        assert!(r.clock_dynamic > 0.0);
        assert!(r.short_circuit > 0.0);
        assert!(r.leakage > 0.0);
        // Plausible magnitude for a tiny design at 100 MHz in 0.18 µm:
        // microwatts to a few milliwatts.
        assert!(r.total() > 1e-7 && r.total() < 20e-3, "total {}", r.total());
        let t = r.table();
        assert!(t.contains("TOTAL"));
    }

    #[test]
    fn power_scales_with_frequency() {
        let c = clustering(12);
        let tech = Tech::stm018();
        let caps = ClbCaps::from_designs(&tech);
        let o1 = PowerOptions {
            frequency: 50e6,
            ..PowerOptions::default()
        };
        let o2 = PowerOptions {
            frequency: 200e6,
            ..PowerOptions::default()
        };
        let p1 = estimate(&c, None, &tech, &caps, &o1).unwrap().dynamic();
        let p2 = estimate(&c, None, &tech, &caps, &o2).unwrap().dynamic();
        assert!(
            (p2 / p1 - 4.0).abs() < 0.01,
            "dynamic power linear in f: {}",
            p2 / p1
        );
    }

    #[test]
    fn det_clocking_halves_clock_power() {
        let c = clustering(12);
        let tech = Tech::stm018();
        let caps = ClbCaps::from_designs(&tech);
        let saving = det_clock_saving(&c, &tech, &caps, &PowerOptions::default()).unwrap();
        assert!(
            (saving - 0.5).abs() < 1e-9,
            "DETFF halves clock power, got {saving}"
        );
    }

    #[test]
    fn clock_gating_scales_clock_power() {
        let c = clustering(12);
        let tech = Tech::stm018();
        let caps = ClbCaps::from_designs(&tech);
        let gated = PowerOptions {
            clock_enable_fraction: 0.3,
            ..PowerOptions::default()
        };
        let full = estimate(&c, None, &tech, &caps, &PowerOptions::default()).unwrap();
        let g = estimate(&c, None, &tech, &caps, &gated).unwrap();
        assert!(g.clock_dynamic < full.clock_dynamic);
        assert!(g.clock_dynamic > 0.2 * full.clock_dynamic);
    }

    #[test]
    fn routed_design_power_uses_wirelength() {
        use fpga_arch::device::Device;
        use fpga_arch::Architecture;
        use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};
        use fpga_route::rrgraph::RrGraph;
        use fpga_route::{PathFinderRouter, RouteConfig, RouteEngine};
        let c = clustering(15);
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        let p = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.5))
            .place(&c, device)
            .unwrap();
        let g = RrGraph::build(&p.device, 10);
        let r = PathFinderRouter::new(RouteConfig::new())
            .route(&c, &p, &g)
            .unwrap();
        let tech = Tech::stm018();
        let caps = ClbCaps::from_designs(&tech);
        let rep = estimate(&c, Some((&r, &g)), &tech, &caps, &PowerOptions::default()).unwrap();
        assert!(rep.routing_dynamic > 0.0);
    }
}
