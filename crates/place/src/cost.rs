//! Placement cost: bounding-box wirelength with VPR's crossing-count
//! compensation.

use fpga_netlist::ir::NetId;
use fpga_pack::{ClusterId, Clustering};

use crate::BlockRef;

/// A routable net with its terminal blocks (driver first).
#[derive(Clone, Debug)]
pub struct PlacedNet {
    pub net: NetId,
    pub terminals: Vec<BlockRef>,
}

/// What one pass over the clusters and the primary IO lists learns about
/// a net.
#[derive(Clone, Default)]
struct NetUse {
    /// First cluster (lowest index) with a BLE driving the net.
    producer: Option<ClusterId>,
    /// Clusters listing the net as an input, ascending, once each.
    sinks: Vec<ClusterId>,
    clock: bool,
    output: bool,
}

/// Build the net -> terminal-block list for all routable (non-clock)
/// nets of a clustering: primary IO pads plus cluster pins. Terminal
/// order — driver, sink clusters ascending, output pad — is part of the
/// placement artifact and of every routed byte downstream.
pub fn net_terminals(clustering: &Clustering) -> Vec<PlacedNet> {
    let nl = &clustering.netlist;
    let mut uses = vec![NetUse::default(); nl.nets.len()];
    for (ci, cluster) in clustering.clusters.iter().enumerate() {
        let c = ClusterId(ci as u32);
        for &bid in &cluster.bles {
            let driven = clustering.bles[bid.0 as usize].output;
            uses[driven.index()].producer.get_or_insert(c);
        }
        for &net in &cluster.inputs {
            let sinks = &mut uses[net.index()].sinks;
            if sinks.last() != Some(&c) {
                sinks.push(c);
            }
        }
    }
    for &net in &nl.clocks {
        uses[net.index()].clock = true;
    }
    for &net in &nl.outputs {
        uses[net.index()].output = true;
    }

    let mut nets = Vec::new();
    for net in clustering.external_nets() {
        let u = &uses[net.index()];
        if u.clock {
            continue; // dedicated global network
        }
        // Driver: producing cluster or an input pad.
        let mut terminals = vec![match u.producer {
            Some(c) => BlockRef::Cluster(c),
            None => BlockRef::InputPad(net),
        }];
        terminals.extend(u.sinks.iter().map(|&c| BlockRef::Cluster(c)));
        if u.output {
            terminals.push(BlockRef::OutputPad(net));
        }
        if terminals.len() >= 2 {
            nets.push(PlacedNet { net, terminals });
        }
    }
    nets
}

/// VPR's crossing-count factor `q(t)`: corrects the half-perimeter
/// wirelength estimate for nets with more than three terminals.
pub fn crossing_factor(terminals: usize) -> f64 {
    const Q: [f64; 51] = [
        1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991, 1.4493, 1.4974, 1.5455,
        1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114, 1.8519, 1.8924, 1.9288, 1.9652, 2.0015,
        2.0379, 2.0743, 2.1061, 2.1379, 2.1698, 2.2016, 2.2334, 2.2646, 2.2958, 2.3271, 2.3583,
        2.3895, 2.4187, 2.4479, 2.4772, 2.5064, 2.5356, 2.5610, 2.5864, 2.6117, 2.6371, 2.6625,
        2.6887, 2.7148, 2.7410, 2.7671, 2.7933,
    ];
    if terminals < Q.len() {
        Q[terminals]
    } else {
        // Linear extrapolation beyond 50 terminals, as VPR does.
        2.7933 + 0.02616 * (terminals as f64 - 50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_arch::ClbArch;
    use fpga_netlist::ir::{CellKind, Netlist};

    #[test]
    fn crossing_factor_monotone() {
        assert_eq!(crossing_factor(2), 1.0);
        assert_eq!(crossing_factor(3), 1.0);
        assert!(crossing_factor(10) > 1.0);
        assert!(crossing_factor(60) > crossing_factor(50));
        let mut prev = 0.0;
        for t in 0..80 {
            let q = crossing_factor(t);
            assert!(q >= prev);
            prev = q;
        }
    }

    /// The one-pass build lists exactly what the per-net definition
    /// lists, in its order — on a clustering with a cluster that reads
    /// its own output and one that lists an input twice.
    #[test]
    fn terminals_match_the_per_net_definition() {
        let mut nl = Netlist::new("chain");
        let x = nl.net("x");
        nl.add_input(x);
        let mut prev = nl.net("y");
        nl.add_input(prev);
        for i in 0..40 {
            let d = nl.net(&format!("d{i}"));
            let xor = CellKind::Lut {
                k: 2,
                truth: 0b0110,
            };
            nl.add_cell(&format!("l{i}"), xor, vec![x, prev], d);
            prev = d;
        }
        nl.add_output(prev);
        let mut c = fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap();
        assert!(c.clusters.len() > 4);
        let own = c.bles[c.clusters[1].bles[0].0 as usize].output;
        c.clusters[1].inputs.push(own);
        c.clusters[3].inputs.push(x);

        let mut by_definition = Vec::new();
        for net in c.external_nets() {
            let mut terminals = vec![match c.producer(net) {
                Some(cl) => BlockRef::Cluster(cl),
                None => BlockRef::InputPad(net),
            }];
            for (ci, cluster) in c.clusters.iter().enumerate() {
                if cluster.inputs.contains(&net) {
                    terminals.push(BlockRef::Cluster(ClusterId(ci as u32)));
                }
            }
            if c.netlist.outputs.contains(&net) {
                terminals.push(BlockRef::OutputPad(net));
            }
            if terminals.len() >= 2 {
                by_definition.push((net, terminals));
            }
        }
        let built: Vec<_> = net_terminals(&c)
            .into_iter()
            .map(|pn| (pn.net, pn.terminals))
            .collect();
        assert_eq!(built, by_definition);
        let looped = &built.iter().find(|(net, _)| *net == own).unwrap().1;
        let listed = looped.iter().filter(|&&t| t == looped[0]).count();
        assert_eq!(listed, 2, "driver listed again as a sink");
    }

    #[test]
    fn terminals_cover_io_and_clusters() {
        let mut nl = Netlist::new("t");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let a = nl.net("a");
        let b = nl.net("b");
        nl.add_input(a);
        nl.add_input(b);
        let d = nl.net("d");
        let q = nl.net("q");
        nl.add_output(q);
        nl.add_cell(
            "l",
            CellKind::Lut {
                k: 2,
                truth: 0b0110,
            },
            vec![a, b],
            d,
        );
        nl.add_cell(
            "f",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![d],
            q,
        );
        let c = fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap();
        let nets = net_terminals(&c);
        // Nets: a (pad -> cluster), b (pad -> cluster), q (cluster -> pad).
        // clk is global; d is internal to the fused BLE.
        assert_eq!(nets.len(), 3, "{nets:?}");
        for pn in &nets {
            assert!(pn.terminals.len() >= 2);
            match pn.terminals[0] {
                BlockRef::Cluster(_) | BlockRef::InputPad(_) => {}
                other => panic!("driver should be cluster or input pad, got {other:?}"),
            }
        }
        // The output net's last terminal is the output pad.
        let qnet = nets.iter().find(|p| p.net == q).unwrap();
        assert!(matches!(
            qnet.terminals.last(),
            Some(BlockRef::OutputPad(_))
        ));
    }
}
