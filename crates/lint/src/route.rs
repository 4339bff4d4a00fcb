//! Routing design rules: `RT001` resource overuse (two nets shorted on
//! one wire or input pin) and `RT002` disconnected routed nets (broken
//! route trees, missing sinks, edges the RR graph does not have).

use std::collections::{HashMap, HashSet};

use fpga_netlist::ir::{NetId, Netlist};
use fpga_route::rrgraph::{RrGraph, RrKind, RrNodeId};
use fpga_route::RouteResult;

use crate::diag::{Diagnostic, Severity};

const STAGE: &str = "route";

/// Human-readable routing-resource name.
pub fn rr_name(kind: RrKind) -> String {
    match kind {
        RrKind::Opin { x, y, pin } => format!("opin({x},{y}).{pin}"),
        RrKind::Ipin { x, y, pin } => format!("ipin({x},{y}).{pin}"),
        RrKind::Chanx { x, y, t } => format!("chanx({x},{y}).t{t}"),
        RrKind::Chany { x, y, t } => format!("chany({x},{y}).t{t}"),
    }
}

/// Run all routing rules.
pub fn lint_routing(nl: &Netlist, g: &RrGraph, r: &RouteResult) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    overused_resources(nl, g, r, &mut out);
    disconnected_nets(nl, g, r, &mut out);
    out
}

/// RT001: a wire segment or input pin carrying two different nets is a
/// short — pass-transistor switches have no arbitration. Output pins are
/// exempt only in being per-net by construction, so any sharing at all
/// is flagged.
fn overused_resources(nl: &Netlist, g: &RrGraph, r: &RouteResult, out: &mut Vec<Diagnostic>) {
    let mut users: HashMap<RrNodeId, Vec<NetId>> = HashMap::new();
    for net in &r.nets {
        let mut seen: HashSet<RrNodeId> = HashSet::new();
        for &(node, _) in &net.tree {
            if seen.insert(node) {
                users.entry(node).or_default().push(net.net);
            }
        }
    }
    let mut shorted: Vec<(&RrNodeId, &Vec<NetId>)> =
        users.iter().filter(|(_, nets)| nets.len() > 1).collect();
    shorted.sort_by_key(|(node, _)| node.0);
    for (&node, nets) in shorted {
        let mut d = Diagnostic::new(
            "RT001",
            Severity::Deny,
            STAGE,
            rr_name(g.kind(node)),
            format!(
                "routing resource {} is used by {} nets",
                rr_name(g.kind(node)),
                nets.len()
            ),
        );
        for &n in nets {
            d = d.with_note(format!("used by net '{}'", nl.net_name(n)));
        }
        out.push(d);
    }
}

/// RT002: each routed net must be one tree rooted at its source, with
/// every sink present and every parent edge realizable in the RR graph.
fn disconnected_nets(nl: &Netlist, g: &RrGraph, r: &RouteResult, out: &mut Vec<Diagnostic>) {
    for net in &r.nets {
        let subject = format!("net '{}'", nl.net_name(net.net));
        let mut problems: Vec<String> = Vec::new();
        let in_tree: HashSet<RrNodeId> = net.tree.iter().map(|&(n, _)| n).collect();

        let roots = net.tree.iter().filter(|(_, p)| p.is_none()).count();
        if roots != 1 {
            problems.push(format!("route tree has {roots} roots (expected 1)"));
        }
        if !net
            .tree
            .iter()
            .any(|&(n, p)| n == net.source && p.is_none())
        {
            problems.push(format!(
                "source {} is not the tree root",
                rr_name(g.kind(net.source))
            ));
        }
        for &sink in &net.sinks {
            if !in_tree.contains(&sink) {
                problems.push(format!(
                    "sink {} is not reached by the route",
                    rr_name(g.kind(sink))
                ));
            }
        }
        for &(node, parent) in &net.tree {
            let Some(parent) = parent else { continue };
            if !in_tree.contains(&parent) {
                problems.push(format!(
                    "node {} hangs off {}, which is not in the tree",
                    rr_name(g.kind(node)),
                    rr_name(g.kind(parent))
                ));
                continue;
            }
            if !g.successors(parent).contains(&node) {
                problems.push(format!(
                    "no RR-graph switch from {} to {}",
                    rr_name(g.kind(parent)),
                    rr_name(g.kind(node))
                ));
            }
        }

        if !problems.is_empty() {
            let mut d = Diagnostic::new(
                "RT002",
                Severity::Deny,
                STAGE,
                subject.clone(),
                format!("{subject} is not fully routed"),
            );
            for p in problems {
                d = d.with_note(p);
            }
            out.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_arch::{Architecture, Device};
    use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};
    use fpga_route::{PathFinderRouter, RouteConfig, RouteEngine};

    fn routed() -> (Netlist, RrGraph, RouteResult) {
        use fpga_netlist::ir::{CellKind, Netlist};
        let mut n = Netlist::new("two_bits");
        let clk = n.net("clk");
        n.add_clock(clk);
        for i in 0..2 {
            let a = n.net(&format!("a{i}"));
            let d = n.net(&format!("d{i}"));
            let q = n.net(&format!("q{i}"));
            n.add_input(a);
            n.add_output(q);
            n.add_cell(
                &format!("lut{i}"),
                CellKind::Lut { k: 1, truth: 0b01 },
                vec![a],
                d,
            );
            n.add_cell(
                &format!("ff{i}"),
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![d],
                q,
            );
        }
        let arch = Architecture::paper_default();
        let clustering = fpga_pack::pack(&n, &arch.clb).unwrap();
        let device = Device::sized_for(
            arch,
            clustering.clusters.len(),
            n.inputs.len() + n.outputs.len() + 1,
        );
        let placement = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.0))
            .place(&clustering, device)
            .unwrap();
        let g = RrGraph::build(&placement.device, 12);
        let r = PathFinderRouter::new(RouteConfig::new())
            .route(&clustering, &placement, &g)
            .unwrap();
        (clustering.netlist.clone(), g, r)
    }

    #[test]
    fn real_route_is_clean() {
        let (nl, g, r) = routed();
        assert!(!r.nets.is_empty());
        let diags = lint_routing(&nl, &g, &r);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn shared_wire_reports_rt001() {
        let (nl, g, mut r) = routed();
        assert!(r.nets.len() >= 2, "need two nets to short");
        // Graft net 0's first wire node into net 1's tree.
        let wire = r.nets[0]
            .tree
            .iter()
            .map(|&(n, _)| n)
            .find(|&n| g.kind(n).is_wire())
            .expect("net 0 uses a wire");
        let root = r.nets[1].tree[0].0;
        r.nets[1].tree.push((wire, Some(root)));
        let diags = lint_routing(&nl, &g, &r);
        let d = diags.iter().find(|d| d.code == "RT001").unwrap();
        assert_eq!(d.notes.len(), 2, "{d:?}");
    }

    #[test]
    fn missing_sink_reports_rt002() {
        let (nl, g, mut r) = routed();
        // Drop everything but the root from net 0's tree.
        r.nets[0].tree.truncate(1);
        let diags = lint_routing(&nl, &g, &r);
        let d = diags.iter().find(|d| d.code == "RT002").unwrap();
        assert!(
            d.notes.iter().any(|n| n.contains("not reached")),
            "{:?}",
            d.notes
        );
    }

    #[test]
    fn phantom_edge_reports_rt002() {
        let (nl, g, mut r) = routed();
        // Re-parent a leaf onto a node the graph has no switch from.
        let tree_len = r.nets[0].tree.len();
        assert!(tree_len > 2);
        let distant = r.nets[0].tree[tree_len - 1].0;
        let source = r.nets[0].tree[0].0;
        if g.successors(source).contains(&distant) {
            return; // adjacent by luck; nothing to break
        }
        r.nets[0].tree[tree_len - 1].1 = Some(source);
        let diags = lint_routing(&nl, &g, &r);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "RT002" && d.notes.iter().any(|n| n.contains("no RR-graph"))),
            "{diags:?}"
        );
    }

    #[test]
    fn detached_parent_reports_rt002() {
        let (nl, g, mut r) = routed();
        // Point a node at a parent that is not in the tree at all.
        let outsider = RrNodeId(
            (0..g.node_count() as u32)
                .find(|&i| !r.nets[0].tree.iter().any(|&(n, _)| n.0 == i))
                .unwrap(),
        );
        let last = r.nets[0].tree.len() - 1;
        r.nets[0].tree[last].1 = Some(outsider);
        let diags = lint_routing(&nl, &g, &r);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "RT002" && d.notes.iter().any(|n| n.contains("not in the tree"))),
            "{diags:?}"
        );
    }
}
