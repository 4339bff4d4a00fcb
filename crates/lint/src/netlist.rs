//! Netlist design rules: combinational loops (`NL001`), multiply-driven
//! nets (`NL002`), undriven/dangling nets (`NL003`).
//!
//! Unlike [`Netlist::validate`], which stops at the first structural
//! error, these passes sweep the whole netlist and report every finding,
//! so one lint run shows the complete damage.

use fpga_netlist::ir::{CellId, CellKind, Netlist};

use crate::diag::{Diagnostic, Severity};

const STAGE: &str = "netlist";

/// Run all netlist rules.
pub fn lint_netlist(nl: &Netlist) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    combinational_loops(nl, &mut out);
    multiply_driven(nl, &mut out);
    undriven_and_dangling(nl, &mut out);
    out
}

/// NL001: DFS over combinational fanin. Sequential elements break cycles
/// (a DFF's output is a fresh timing startpoint), so edges only connect
/// non-FF cells. Every distinct cycle is reported once, with its path.
fn combinational_loops(nl: &Netlist, out: &mut Vec<Diagnostic>) {
    let drivers = nl.drivers();
    let n = nl.cells.len();
    // fanin[i] = combinational cells driving cell i's inputs, each once:
    // a net read on two pins is one edge, so no cycle is closed twice.
    let mut fanin: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, c) in nl.cells.iter().enumerate() {
        if c.kind.is_ff() {
            continue;
        }
        for &input in &c.inputs {
            if let Some(drv) = drivers[input.index()] {
                if !nl.cells[drv.index()].kind.is_ff() && !fanin[i].contains(&drv.index()) {
                    fanin[i].push(drv.index());
                }
            }
        }
    }

    // Iterative three-color DFS; a gray-node hit closes a cycle, which is
    // read straight off the path stack.
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; n];
    for root in 0..n {
        if color[root] != WHITE || nl.cells[root].kind.is_ff() {
            continue;
        }
        // (cell, next fanin edge to explore)
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = GRAY;
        while let Some(top) = stack.last_mut() {
            let cell = top.0;
            if top.1 < fanin[cell].len() {
                let next = fanin[cell][top.1];
                top.1 += 1;
                match color[next] {
                    WHITE => {
                        color[next] = GRAY;
                        stack.push((next, 0));
                    }
                    GRAY => {
                        let start = stack
                            .iter()
                            .position(|&(c, _)| c == next)
                            .expect("gray cell is on the path");
                        let cycle: Vec<usize> = stack[start..].iter().map(|&(c, _)| c).collect();
                        // Canonical form: rotate so the smallest id leads.
                        let min_pos = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &c)| c)
                            .map(|(i, _)| i)
                            .expect("cycle is nonempty");
                        let mut canon = cycle;
                        canon.rotate_left(min_pos);
                        out.push(describe_cycle(nl, &canon));
                    }
                    _ => {}
                }
            } else {
                color[cell] = BLACK;
                stack.pop();
            }
        }
    }
}

fn describe_cycle(nl: &Netlist, cycle: &[usize]) -> Diagnostic {
    let name = |i: usize| nl.cells[i].name.clone();
    let subject = format!("cell '{}'", name(cycle[0]));
    let message = if cycle.len() == 1 {
        format!("cell '{}' drives its own input", name(cycle[0]))
    } else {
        format!("combinational loop through {} cells", cycle.len())
    };
    // The DFS walked fanin edges, so the stack order is sink-to-source;
    // print the loop in signal-flow order (source feeds the next cell).
    let mut path: Vec<String> = cycle.iter().rev().map(|&i| name(i)).collect();
    path.push(path[0].clone());
    Diagnostic::new("NL001", Severity::Deny, STAGE, subject, message)
        .with_note(format!("path: {}", path.join(" -> ")))
}

/// NL002: a net with two drivers, or a cell driving a primary input
/// (outside pads already drive those).
fn multiply_driven(nl: &Netlist, out: &mut Vec<Diagnostic>) {
    let mut driving: Vec<Vec<CellId>> = vec![Vec::new(); nl.nets.len()];
    for (i, c) in nl.cells.iter().enumerate() {
        driving[c.output.index()].push(CellId(i as u32));
    }
    for (i, cells) in driving.iter().enumerate() {
        let id = fpga_netlist::ir::NetId(i as u32);
        let net = format!("net '{}'", nl.net_name(id));
        let is_input = nl.inputs.contains(&id);
        if cells.len() > 1 {
            let mut d = Diagnostic::new(
                "NL002",
                Severity::Deny,
                STAGE,
                net.clone(),
                format!("{net} has {} drivers", cells.len()),
            );
            for c in cells {
                d = d.with_note(format!("driven by cell '{}'", nl.cells[c.index()].name));
            }
            out.push(d);
        } else if is_input && cells.len() == 1 {
            out.push(
                Diagnostic::new(
                    "NL002",
                    Severity::Deny,
                    STAGE,
                    net.clone(),
                    format!("primary input {net} is also driven by a cell"),
                )
                .with_note(format!(
                    "driven by cell '{}'",
                    nl.cells[cells[0].index()].name
                )),
            );
        }
    }
}

/// NL003, tiered by blast radius: a net something *reads* but nothing
/// drives is broken logic (deny); a driven net nothing reads is dead
/// logic (warn); a net that is neither driven nor read is leftover
/// interning (info).
fn undriven_and_dangling(nl: &Netlist, out: &mut Vec<Diagnostic>) {
    let drivers = nl.drivers();
    let sinks = nl.sinks();
    for (i, _) in nl.nets.iter().enumerate() {
        let id = fpga_netlist::ir::NetId(i as u32);
        let net = format!("net '{}'", nl.net_name(id));
        let driven = drivers[i].is_some() || nl.inputs.contains(&id);
        let read = !sinks[i].is_empty() || nl.outputs.contains(&id);
        match (driven, read) {
            (true, true) => {}
            (false, true) => out.push(Diagnostic::new(
                "NL003",
                Severity::Deny,
                STAGE,
                net.clone(),
                format!("{net} is read but never driven"),
            )),
            (true, false) => {
                let message = if nl.inputs.contains(&id) {
                    format!("primary input {net} is never read")
                } else {
                    format!("{net} is driven but never read")
                };
                out.push(Diagnostic::new(
                    "NL003",
                    Severity::Warn,
                    STAGE,
                    net,
                    message,
                ));
            }
            (false, false) => out.push(Diagnostic::new(
                "NL003",
                Severity::Info,
                STAGE,
                net.clone(),
                format!("{net} is dangling (no driver, no reader)"),
            )),
        }
    }
    // A DFF clocked by a net no clock tree serves deserves its own call-out.
    for c in &nl.cells {
        if let CellKind::Dff { clock, .. } = c.kind {
            let driven = drivers[clock.index()].is_some() || nl.inputs.contains(&clock);
            if driven && !nl.clocks.contains(&clock) {
                out.push(Diagnostic::new(
                    "NL003",
                    Severity::Warn,
                    STAGE,
                    format!("cell '{}'", c.name),
                    format!(
                        "flip-flop '{}' is clocked by '{}', which is not a declared clock",
                        c.name,
                        nl.net_name(clock)
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_netlist::ir::CellKind;

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    /// a & b -> w -> ff(clk) -> q: clean.
    fn clean() -> Netlist {
        let mut n = Netlist::new("clean");
        let a = n.net("a");
        let b = n.net("b");
        let clk = n.net("clk");
        let w = n.net("w");
        let q = n.net("q");
        n.add_input(a);
        n.add_input(b);
        n.add_clock(clk);
        n.add_output(q);
        n.add_cell("g1", CellKind::And, vec![a, b], w);
        n.add_cell(
            "ff1",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![w],
            q,
        );
        n
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        assert!(lint_netlist(&clean()).is_empty());
    }

    #[test]
    fn two_cell_loop_reports_nl001_with_path() {
        let mut n = Netlist::new("loop");
        let x = n.net("x");
        let y = n.net("y");
        n.add_output(x);
        n.add_cell("g1", CellKind::Not, vec![x], y);
        n.add_cell("g2", CellKind::Not, vec![y], x);
        let diags = lint_netlist(&n);
        let loops: Vec<_> = diags.iter().filter(|d| d.code == "NL001").collect();
        assert_eq!(loops.len(), 1, "{diags:?}");
        assert_eq!(loops[0].severity, Severity::Deny);
        assert!(loops[0].notes[0].contains("g1"), "{:?}", loops[0].notes);
        assert!(loops[0].notes[0].contains("g2"));
    }

    #[test]
    fn self_driving_cell_reports_single_cell_loop() {
        // And(x, x) reads its own output on two pins: still one loop.
        for (kind, pins) in [(CellKind::Buf, 1), (CellKind::And, 2)] {
            let mut n = Netlist::new("selfloop");
            let x = n.net("x");
            n.add_output(x);
            n.add_cell("g", kind, vec![x; pins], x);
            let diags = lint_netlist(&n);
            let loops: Vec<_> = diags.iter().filter(|d| d.code == "NL001").collect();
            assert_eq!(loops.len(), 1, "{diags:?}");
            assert!(
                loops[0].message.contains("drives its own input"),
                "{}",
                loops[0].message
            );
        }
    }

    #[test]
    fn ff_in_the_path_breaks_the_loop() {
        let mut n = Netlist::new("counter_bit");
        let clk = n.net("clk");
        let q = n.net("q");
        let d = n.net("d");
        n.add_clock(clk);
        n.add_output(q);
        n.add_cell("inv", CellKind::Not, vec![q], d);
        n.add_cell(
            "ff",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![d],
            q,
        );
        assert!(!codes(&lint_netlist(&n)).contains(&"NL001"));
    }

    #[test]
    fn two_distinct_loops_both_reported() {
        let mut n = Netlist::new("twoloops");
        let a = n.net("a");
        let b = n.net("b");
        let c = n.net("c");
        let d = n.net("d");
        n.add_output(a);
        n.add_output(c);
        n.add_cell("g1", CellKind::Not, vec![a], b);
        n.add_cell("g2", CellKind::Not, vec![b], a);
        n.add_cell("g3", CellKind::Not, vec![c], d);
        n.add_cell("g4", CellKind::Not, vec![d], c);
        let diags = lint_netlist(&n);
        assert_eq!(codes(&diags).iter().filter(|c| **c == "NL001").count(), 2);
    }

    #[test]
    fn multiply_driven_net_reports_nl002_with_both_drivers() {
        let mut n = clean();
        let a = n.find_net("a").unwrap();
        let w = n.find_net("w").unwrap();
        n.add_cell("g2", CellKind::Not, vec![a], w);
        let diags = lint_netlist(&n);
        let d = diags.iter().find(|d| d.code == "NL002").unwrap();
        assert_eq!(d.severity, Severity::Deny);
        assert_eq!(d.notes.len(), 2, "{:?}", d.notes);
    }

    #[test]
    fn cell_driving_primary_input_reports_nl002() {
        let mut n = clean();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        n.add_cell("bad", CellKind::Not, vec![b], a);
        let diags = lint_netlist(&n);
        let d = diags.iter().find(|d| d.code == "NL002").unwrap();
        assert!(d.message.contains("primary input"), "{}", d.message);
    }

    #[test]
    fn undriven_read_net_is_deny_unused_net_is_warn_dangling_is_info() {
        let mut n = clean();
        let ghost = n.net("ghost");
        let dead = n.net("dead");
        let limbo = n.net("limbo");
        let y = n.net("y");
        n.add_output(y);
        let b = n.find_net("b").unwrap();
        n.add_cell("g2", CellKind::And, vec![ghost, b], y);
        n.add_cell("g3", CellKind::Not, vec![b], dead);
        let _ = limbo; // interned, never wired
        let diags = lint_netlist(&n);
        let find = |name: &str| {
            diags
                .iter()
                .find(|d| d.code == "NL003" && d.subject.contains(name))
                .unwrap_or_else(|| panic!("no NL003 for {name}: {diags:?}"))
        };
        assert_eq!(find("ghost").severity, Severity::Deny);
        assert_eq!(find("dead").severity, Severity::Warn);
        assert_eq!(find("limbo").severity, Severity::Info);
    }

    #[test]
    fn undeclared_clock_net_warns() {
        let mut n = Netlist::new("softclock");
        let c = n.net("c");
        let d = n.net("d");
        let q = n.net("q");
        n.add_input(c); // an input, but not registered as a clock
        n.add_input(d);
        n.add_output(q);
        n.add_cell(
            "ff",
            CellKind::Dff {
                clock: c,
                init: false,
            },
            vec![d],
            q,
        );
        let diags = lint_netlist(&n);
        assert!(diags
            .iter()
            .any(|d| d.code == "NL003" && d.message.contains("not a declared clock")));
    }
}
