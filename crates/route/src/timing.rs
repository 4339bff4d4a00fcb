//! Post-route delay estimation: Elmore delays over routed trees using the
//! platform's wire and switch electricals (§3.3's selected design point:
//! 10x pass transistors on length-1 segments).

use crate::pathfinder::RoutedNet;
use crate::rrgraph::{RrGraph, RrKind, RrNodeId};

/// Per-resource electrical parameters (seconds-friendly SI units).
#[derive(Clone, Copy, Debug)]
pub struct TimingModel {
    /// Switch on-resistance entering a wire (ohm).
    pub switch_r: f64,
    /// Wire segment capacitance (F).
    pub wire_c: f64,
    /// Wire segment resistance (ohm).
    pub wire_r: f64,
    /// Input-pin load (F).
    pub ipin_c: f64,
    /// Driver (output buffer) resistance (ohm).
    pub driver_r: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        // The selected platform point: 10x pass switches (~550 ohm),
        // length-1 double-spacing wires (~11 fF, ~450 ohm effective with
        // via resistance), minimum input buffers.
        TimingModel {
            switch_r: 550.0,
            wire_c: 11e-15,
            wire_r: 450.0,
            ipin_c: 2e-15,
            driver_r: 350.0,
        }
    }
}

/// Elmore delay (s) from the net source to each sink, in `net.sinks`
/// order; 0.0 for a sink the tree does not reach. Precondition: `tree`
/// lists every node after its parent, as the router grows it: one
/// backward pass sums capacitance and one forward pass accumulates delay.
pub fn net_delays(net: &RoutedNet, g: &RrGraph, model: &TimingModel) -> Vec<f64> {
    // Tree position of a node, by binary search over positions sorted
    // by node; a node listed twice resolves to its last listing.
    let mut by_node: Vec<usize> = (0..net.tree.len()).collect();
    by_node.sort_by_key(|&i| net.tree[i].0);
    let pos = |id: RrNodeId| {
        let k = by_node.partition_point(|&i| net.tree[i].0 <= id);
        let i = *by_node[..k].last()?;
        (net.tree[i].0 == id).then_some(i)
    };
    let parent_pos: Vec<Option<usize>> = net
        .tree
        .iter()
        .map(|&(_, p)| p.map(|p| pos(p).expect("a parent is a tree node")))
        .collect();
    // Capacitance of a node, and resistance of the edge into it.
    let rc = |id: RrNodeId| match g.kind(id) {
        RrKind::Chanx { .. } | RrKind::Chany { .. } => {
            (model.wire_c, model.switch_r + model.wire_r)
        }
        RrKind::Ipin { .. } => (model.ipin_c, model.switch_r),
        RrKind::Opin { .. } => (2e-15, model.driver_r),
    };
    // Downstream capacitance per tree node.
    let mut cdown: Vec<f64> = net.tree.iter().map(|&(id, _)| rc(id).0).collect();
    for i in (1..cdown.len()).rev() {
        if let Some(pi) = parent_pos[i] {
            cdown[pi] += cdown[i];
        }
    }
    // Delay accumulates root -> leaves: delay(child) = delay(parent) +
    // R(edge into child) * Cdown(child).
    let mut delay = vec![0.0f64; cdown.len()];
    for (i, &(id, _)) in net.tree.iter().enumerate() {
        delay[i] = match parent_pos[i] {
            None => model.driver_r * cdown[i],
            Some(pi) => delay[pi] + rc(id).1 * cdown[i],
        };
    }
    net.sinks
        .iter()
        .map(|&s| pos(s).map_or(0.0, |i| delay[i]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PathFinderRouter, RouteConfig, RouteEngine};
    use crate::pathfinder::RouteResult;
    use crate::rrgraph::RrGraph;
    use fpga_arch::device::Device;
    use fpga_arch::{Architecture, ClbArch};
    use fpga_netlist::ir::{CellKind, Netlist};
    use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};

    fn routed() -> (RouteResult, RrGraph) {
        let mut nl = Netlist::new("t");
        let a = nl.net("a");
        nl.add_input(a);
        let mut prev = a;
        for i in 0..6 {
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
        let c = fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap();
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        let p = AnnealingPlacer::new(PlaceConfig::new().seed(5).inner_num(1.0))
            .place(&c, device)
            .unwrap();
        let g = RrGraph::build(&p.device, 8);
        let r = PathFinderRouter::new(RouteConfig::new())
            .route(&c, &p, &g)
            .unwrap();
        (r, g)
    }

    #[test]
    fn delays_are_positive_and_ordered() {
        let (r, g) = routed();
        let model = TimingModel::default();
        for net in &r.nets {
            let delays = net_delays(net, &g, &model);
            assert_eq!(delays.len(), net.sinks.len());
            for d in delays {
                assert!(d > 0.0 && d < 100e-9, "delay {d}");
            }
        }
    }

    #[test]
    fn longer_routes_are_slower() {
        let (r, g) = routed();
        let model = TimingModel::default();
        // Compare two nets with different wirelength.
        let mut by_len: Vec<(usize, f64)> = r
            .nets
            .iter()
            .map(|n| {
                let wl = n.wirelength(&g);
                let worst = net_delays(n, &g, &model).into_iter().fold(0.0f64, f64::max);
                (wl, worst)
            })
            .collect();
        by_len.sort_by_key(|(wl, _)| *wl);
        if by_len.len() >= 2 {
            let (short_wl, short_d) = by_len[0];
            let (long_wl, long_d) = by_len[by_len.len() - 1];
            if long_wl > short_wl + 2 {
                assert!(
                    long_d > short_d,
                    "{long_wl} seg {long_d} vs {short_wl} seg {short_d}"
                );
            }
        }
    }
}
