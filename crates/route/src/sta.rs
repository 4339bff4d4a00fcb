//! Static timing analysis over the placed-and-routed design.
//!
//! Combines three delay sources into path-based arrival times on the
//! mapped netlist:
//!
//! * logic delay per LUT evaluation (crossbar + pass tree + BLE mux),
//! * intra-cluster feedback (the fully connected local crossbar),
//! * per-connection routed net delay (Elmore over the actual route tree,
//!   the worst sink pin in the consumer's tile).
//!
//! Paths start at primary inputs and FF outputs and end at FF D inputs
//! and primary outputs; the maximum arrival is the critical path, whose
//! net-by-net trace is reported for designers (and the ablation benches).
//! Every table is a `Vec` indexed by the netlist's own cell and net ids.

use fpga_netlist::ir::{CellId, CellKind, NetId};
use fpga_pack::{ClusterId, Clustering};
use fpga_place::{BlockRef, Placement};

use crate::pathfinder::RouteResult;
use crate::rrgraph::{RrGraph, RrKind};
use crate::timing::{net_delays, TimingModel};

/// Logic-stage delays of the platform (seconds).
#[derive(Clone, Copy, Debug)]
pub struct LogicDelays {
    /// One LUT evaluation including its crossbar mux.
    pub lut: f64,
    /// Intra-cluster feedback path (crossbar only).
    pub local: f64,
    /// FF clock-to-Q.
    pub clk_to_q: f64,
    /// FF setup time.
    pub setup: f64,
}

impl Default for LogicDelays {
    fn default() -> Self {
        LogicDelays {
            lut: 650e-12,
            local: 150e-12,
            clk_to_q: 105e-12,
            setup: 60e-12,
        }
    }
}

/// The analysis result.
#[derive(Clone, Debug)]
pub struct StaResult {
    /// Arrival time (seconds) indexed by `NetId`; 0.0 for a net on no
    /// analyzed path.
    pub arrival: Vec<f64>,
    /// The critical path as a net trace, source first.
    pub critical_path: Vec<NetId>,
    /// Critical delay including FF setup (= minimum clock period for
    /// single-edge clocking; the DET platform runs the clock at half the
    /// data rate but the data path constraint is identical).
    pub critical_delay: f64,
}

impl StaResult {
    /// Maximum data rate implied by the critical path (Hz).
    pub fn fmax(&self) -> f64 {
        if self.critical_delay <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.critical_delay
        }
    }
}

/// Run the analysis.
pub fn analyze_paths(
    clustering: &Clustering,
    placement: &Placement,
    routing: &RouteResult,
    graph: &RrGraph,
    wires: &TimingModel,
    logic: &LogicDelays,
) -> StaResult {
    let nl = &clustering.netlist;

    // Per net, the worst routed delay into each tile holding one of its
    // sink pins, sorted by tile: the one home of a connection's wire delay.
    let mut sink_tiles: Vec<Vec<((u32, u32), f64)>> = vec![Vec::new(); nl.nets.len()];
    for rn in &routing.nets {
        let mut pins = Vec::new();
        for (&sink, delay) in rn.sinks.iter().zip(net_delays(rn, graph, wires)) {
            if let RrKind::Ipin { x, y, .. } = graph.kind(sink) {
                pins.push(((x, y), delay));
            }
        }
        pins.sort_by_key(|&(tile, _)| tile);
        sink_tiles[rn.net.index()] = pins
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().fold(0.0, |m: f64, p| m.max(p.1))))
            .collect();
    }
    let routed = |net: NetId, tile: (u32, u32)| {
        let tiles = &sink_tiles[net.index()];
        let i = tiles.binary_search_by_key(&tile, |&(t, _)| t).ok()?;
        Some(tiles[i].1)
    };

    // The cluster of each cell with its tile, and the producing cluster of
    // each net: the first in cluster order, as `Clustering::producer`
    // finds it.
    let mut site_of: Vec<Option<(ClusterId, (u32, u32))>> = vec![None; nl.cells.len()];
    let mut producer: Vec<Option<ClusterId>> = vec![None; nl.nets.len()];
    for (ci, cluster) in clustering.clusters.iter().enumerate() {
        let ci = ClusterId(ci as u32);
        let loc = placement.cluster_loc(ci);
        for &bid in &cluster.bles {
            let ble = &clustering.bles[bid.0 as usize];
            for cell in ble.lut.iter().chain(&ble.ff) {
                site_of[cell.index()] = Some((ci, (loc.x, loc.y)));
            }
            producer[ble.output.index()] = producer[ble.output.index()].or(Some(ci));
        }
    }

    // Interconnect delay of a net into a consuming cell: the crossbar
    // alone inside the producing cluster, else the routed delay into the
    // consumer's tile plus the crossbar.
    let conn_delay = |net: NetId, consumer: CellId| match site_of[consumer.index()] {
        Some((c, tile)) if producer[net.index()] != Some(c) => {
            routed(net, tile).unwrap_or(logic.local) + logic.local
        }
        _ => logic.local,
    };

    // Arrival propagation in topological order; over a cell's inputs the
    // last worst (`>=`) is the predecessor.
    let mut arrival = vec![0.0f64; nl.nets.len()];
    let mut pred: Vec<Option<NetId>> = vec![None; nl.nets.len()];
    for cell in nl.cells.iter().filter(|c| c.kind.is_ff()) {
        arrival[cell.output.index()] = logic.clk_to_q;
    }
    for cid in nl.topo_order().expect("mapped netlist is acyclic") {
        let cell = &nl.cells[cid.index()];
        let mut worst = 0.0f64;
        for &input in &cell.inputs {
            let a = arrival[input.index()] + conn_delay(input, cid);
            if a >= worst {
                worst = a;
                pred[cell.output.index()] = Some(input);
            }
        }
        arrival[cell.output.index()] = worst + logic.lut;
    }

    // Endpoints, the first worst (`>`) winning: FF D inputs in cell
    // order, then primary outputs plus their routed delay to the pad.
    let ff_ends = nl.cells.iter().filter_map(|cell| match cell.kind {
        // ROADMAP 1(a): a D net that arrives over routing is charged the
        // crossbar only; the routed delay of that hop is dropped.
        CellKind::Dff { .. } => {
            let d = cell.inputs[0];
            Some((d, arrival[d.index()] + logic.local + logic.setup))
        }
        _ => None,
    });
    let po_ends = nl.outputs.iter().map(|&po| {
        let pad_delay = placement
            .slot(BlockRef::OutputPad(po))
            .and_then(|s| routed(po, (s.loc.x, s.loc.y)))
            .unwrap_or(0.0);
        (po, arrival[po.index()] + pad_delay)
    });
    let (mut worst_end, mut cur) = (0.0f64, None);
    for (net, t) in ff_ends.chain(po_ends) {
        if t > worst_end {
            (worst_end, cur) = (t, Some(net));
        }
    }

    // Trace the critical path backwards (bounded; no cycles are expected).
    let mut critical_path: Vec<NetId> = std::iter::successors(cur, |net| pred[net.index()])
        .take(nl.nets.len() + 1)
        .collect();
    critical_path.reverse();

    StaResult {
        arrival,
        critical_path,
        critical_delay: worst_end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PathFinderRouter, RouteConfig, RouteEngine};
    use crate::rrgraph::RrGraph;
    use fpga_arch::device::Device;
    use fpga_arch::{Architecture, ClbArch};
    use fpga_netlist::ir::Netlist;
    use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};

    fn lut_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.net("a");
        nl.add_input(a);
        let mut prev = a;
        for i in 0..n {
            let w = nl.net(&format!("w{i}"));
            nl.add_cell(
                &format!("l{i}"),
                CellKind::Lut { k: 1, truth: 0b01 },
                vec![prev],
                w,
            );
            prev = w;
        }
        nl.add_output(prev);
        nl
    }

    fn analyzed(n: usize) -> StaResult {
        let nl = lut_chain(n);
        let c = fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap();
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        let p = AnnealingPlacer::new(PlaceConfig::new().seed(4).inner_num(1.0))
            .place(&c, device)
            .unwrap();
        let g = RrGraph::build(&p.device, 10);
        let r = PathFinderRouter::new(RouteConfig::new())
            .route(&c, &p, &g)
            .unwrap();
        analyze_paths(
            &c,
            &p,
            &r,
            &g,
            &TimingModel::default(),
            &LogicDelays::default(),
        )
    }

    #[test]
    fn deeper_chains_are_slower() {
        let d4 = analyzed(4).critical_delay;
        let d12 = analyzed(12).critical_delay;
        assert!(d12 > d4, "12-deep {d12:.3e} vs 4-deep {d4:.3e}");
        // A 12-LUT chain must cost at least 12 LUT delays.
        assert!(d12 >= 12.0 * LogicDelays::default().lut);
    }

    #[test]
    fn critical_path_traces_the_chain() {
        let sta = analyzed(8);
        // The path must run from the input to the final output net.
        assert!(sta.critical_path.len() >= 8, "{:?}", sta.critical_path);
        assert!(sta.fmax() > 0.0 && sta.fmax() < 1e9);
        // Arrivals are monotone along the reported path.
        let mut last = -1.0;
        for net in &sta.critical_path {
            let a = sta.arrival[net.index()];
            assert!(a >= last, "arrivals must not decrease along the path");
            last = a;
        }
    }

    #[test]
    fn registered_designs_measure_register_to_register() {
        let mut nl = Netlist::new("r2r");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let q0 = nl.net("q0");
        let w = nl.net("w");
        let d1 = nl.net("d1");
        let q1 = nl.net("q1");
        nl.add_output(q1);
        nl.add_cell(
            "f0",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![q1],
            q0,
        );
        nl.add_cell("l0", CellKind::Lut { k: 1, truth: 0b10 }, vec![q0], w);
        nl.add_cell("l1", CellKind::Lut { k: 1, truth: 0b01 }, vec![w], d1);
        nl.add_cell(
            "f1",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![d1],
            q1,
        );
        let c = fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap();
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 3);
        let p = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.0))
            .place(&c, device)
            .unwrap();
        let g = RrGraph::build(&p.device, 8);
        let r = PathFinderRouter::new(RouteConfig::new())
            .route(&c, &p, &g)
            .unwrap();
        let logic = LogicDelays::default();
        let sta = analyze_paths(&c, &p, &r, &g, &TimingModel::default(), &logic);
        // clk->Q + 2 LUTs + setup at minimum.
        assert!(sta.critical_delay >= logic.clk_to_q + 2.0 * logic.lut + logic.setup);
        assert!(sta.critical_delay < 100e-9);
    }

    /// ROADMAP 1(a), kept on purpose until the first `FLOW_VERSION` roll:
    /// an FF whose D net arrives over routing is charged `logic.local`
    /// only, and the routed delay of that last hop is dropped. When 1(a)
    /// is fixed this test fails; replace it with one that charges the hop.
    #[test]
    fn roadmap_1a_ff_d_over_routing_is_charged_local_only() {
        // One BLE per cluster. `w` feeds two FFs, so neither fuses with
        // the LUT and `w` crosses clusters to reach both.
        let mut nl = Netlist::new("d_hop");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let [q0, q1, q2, w] = ["q0", "q1", "q2", "w"].map(|n| nl.net(n));
        let dff = CellKind::Dff {
            clock: clk,
            init: false,
        };
        nl.add_cell("f0", dff.clone(), vec![q2], q0);
        nl.add_cell(
            "l0",
            CellKind::Lut {
                k: 2,
                truth: 0b0110,
            },
            vec![q0, q1],
            w,
        );
        nl.add_cell("f1", dff.clone(), vec![w], q1);
        nl.add_cell("f2", dff, vec![w], q2);
        let mut arch = Architecture::paper_default();
        arch.clb = ClbArch {
            cluster_size: 1,
            outputs: 1,
            inputs: fpga_arch::clb_inputs_eq1(4, 1),
            ..ClbArch::paper_default()
        };
        let c = fpga_pack::pack(&nl, &arch.clb).unwrap();
        // l0 drives w from its own cluster; f1 (which drives q1) sits in another.
        assert!(c.producer(w).is_some());
        assert_ne!(c.producer(w), c.producer(q1), "w must cross clusters");
        let device = Device::sized_for(arch, c.clusters.len(), 1);
        let p = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.0))
            .place(&c, device)
            .unwrap();
        let g = RrGraph::build(&p.device, 8);
        let r = PathFinderRouter::new(RouteConfig::new())
            .route(&c, &p, &g)
            .unwrap();
        assert!(r.nets.iter().any(|n| n.net == w), "w is routed");
        let logic = LogicDelays::default();
        let sta = analyze_paths(&c, &p, &r, &g, &TimingModel::default(), &logic);
        assert_eq!(sta.critical_path.last(), Some(&w));
        assert_eq!(
            sta.critical_delay,
            sta.arrival[w.index()] + logic.local + logic.setup
        );
    }
}
