//! SIS-equivalent logic optimization passes.
//!
//! The classic pre-mapping cleanup: `sweep` (dead logic removal),
//! constant folding/propagation, buffer and double-inverter elision, and
//! structural hashing (common-subexpression merging). Each pass preserves
//! functional equivalence; `optimize` iterates them to a fixed point.

use fpga_netlist::ir::{CellKind, NetId, Netlist};
use fpga_netlist::sim::eval_cell;

use crate::Result;

/// Iterate all passes until nothing changes. Returns the number of cells
/// removed.
pub fn optimize(netlist: &mut Netlist) -> Result<usize> {
    let before = netlist.cells.len();
    loop {
        let mut changed = false;
        changed |= const_fold(netlist)? > 0;
        changed |= elide_buffers(netlist)? > 0;
        changed |= strash(netlist)? > 0;
        changed |= sweep(netlist)? > 0;
        if !changed {
            break;
        }
    }
    Ok(before.saturating_sub(netlist.cells.len()))
}

/// Replace every *use* of `from` (cell inputs, FF clocks, primary outputs)
/// with `to`. The driver of `from` is untouched.
fn replace_uses(netlist: &mut Netlist, from: NetId, to: NetId) {
    for cell in &mut netlist.cells {
        for input in &mut cell.inputs {
            if *input == from {
                *input = to;
            }
        }
        if let CellKind::Dff { clock, .. } = &mut cell.kind {
            if *clock == from {
                *clock = to;
            }
        }
    }
    for out in &mut netlist.outputs {
        if *out == from {
            *out = to;
        }
    }
}

/// Remove cells whose outputs are unused (not a PO and no sinks).
pub fn sweep(netlist: &mut Netlist) -> Result<usize> {
    Ok(netlist.sweep_dead())
}

/// Constant folding: cells all of whose inputs are constants become
/// constants; cells with *some* constant inputs simplify (absorbing /
/// identity elements).
pub fn const_fold(netlist: &mut Netlist) -> Result<usize> {
    let mut changed = 0usize;
    loop {
        // Net -> constant value, from Const cells.
        let mut const_of: Vec<Option<bool>> = vec![None; netlist.nets.len()];
        for c in &netlist.cells {
            match c.kind {
                CellKind::Const0 => const_of[c.output.index()] = Some(false),
                CellKind::Const1 => const_of[c.output.index()] = Some(true),
                _ => {}
            }
        }
        let mut round = 0usize;
        for i in 0..netlist.cells.len() {
            let c = &netlist.cells[i];
            if matches!(
                c.kind,
                CellKind::Dff { .. } | CellKind::Const0 | CellKind::Const1
            ) {
                continue;
            }
            let vals: Vec<Option<bool>> = c.inputs.iter().map(|n| const_of[n.index()]).collect();
            if let Some((nk, ni)) = simplify(&c.kind, &c.inputs, &vals) {
                if nk != c.kind || ni != c.inputs {
                    netlist.cells[i].kind = nk;
                    netlist.cells[i].inputs = ni;
                    round += 1;
                }
            }
        }
        changed += round;
        if round == 0 {
            break;
        }
    }
    Ok(changed)
}

/// Simplify one cell given known-constant inputs. Returns the replacement
/// (kind, inputs), or None to leave unchanged.
fn simplify(
    kind: &CellKind,
    inputs: &[NetId],
    vals: &[Option<bool>],
) -> Option<(CellKind, Vec<NetId>)> {
    // Fully-constant cells evaluate outright, by the reference semantics.
    let bits: Option<Vec<bool>> = vals.iter().copied().collect();
    if let Some(bits) = bits.filter(|_| !inputs.is_empty() && !kind.is_ff()) {
        let k = if eval_cell(kind, &bits) {
            CellKind::Const1
        } else {
            CellKind::Const0
        };
        return Some((k, Vec::new()));
    }
    // Partial simplifications on the common gates.
    match kind {
        CellKind::And | CellKind::Nand => {
            if vals.contains(&Some(false)) {
                let k = if matches!(kind, CellKind::And) {
                    CellKind::Const0
                } else {
                    CellKind::Const1
                };
                return Some((k, Vec::new()));
            }
            // Drop constant-1 inputs.
            let kept: Vec<NetId> = inputs
                .iter()
                .zip(vals.iter())
                .filter(|(_, v)| **v != Some(true))
                .map(|(&n, _)| n)
                .collect();
            if kept.len() != inputs.len() && !kept.is_empty() {
                let k = if kept.len() == 1 {
                    if matches!(kind, CellKind::And) {
                        CellKind::Buf
                    } else {
                        CellKind::Not
                    }
                } else {
                    kind.clone()
                };
                return Some((k, kept));
            }
            None
        }
        CellKind::Or | CellKind::Nor => {
            if vals.contains(&Some(true)) {
                let k = if matches!(kind, CellKind::Or) {
                    CellKind::Const1
                } else {
                    CellKind::Const0
                };
                return Some((k, Vec::new()));
            }
            let kept: Vec<NetId> = inputs
                .iter()
                .zip(vals.iter())
                .filter(|(_, v)| **v != Some(false))
                .map(|(&n, _)| n)
                .collect();
            if kept.len() != inputs.len() && !kept.is_empty() {
                let k = if kept.len() == 1 {
                    if matches!(kind, CellKind::Or) {
                        CellKind::Buf
                    } else {
                        CellKind::Not
                    }
                } else {
                    kind.clone()
                };
                return Some((k, kept));
            }
            None
        }
        CellKind::Mux2 => match vals[0] {
            Some(false) => Some((CellKind::Buf, vec![inputs[1]])),
            Some(true) => Some((CellKind::Buf, vec![inputs[2]])),
            None => {
                if inputs[1] == inputs[2] {
                    Some((CellKind::Buf, vec![inputs[1]]))
                } else {
                    None
                }
            }
        },
        _ => None,
    }
}

/// Remove buffers and double inverters by rewiring their sinks.
pub fn elide_buffers(netlist: &mut Netlist) -> Result<usize> {
    let is_po = po_flags(netlist);
    let mut changed = 0usize;
    loop {
        let drivers = netlist.drivers();
        let sinks = netlist.sinks();
        let mut did = false;
        for i in 0..netlist.cells.len() {
            let (is_buf, input, output) = {
                let c = &netlist.cells[i];
                (
                    matches!(c.kind, CellKind::Buf),
                    c.inputs.first().copied(),
                    c.output,
                )
            };
            // Nets whose value nobody consumes are dead; sweep handles
            // them — touching them here would loop forever.
            let output_used = !sinks[output.index()].is_empty() || is_po[output.index()];
            if !output_used {
                continue;
            }
            if !is_buf {
                // Double inverter: Not(Not(x)) -> x.
                let c = &netlist.cells[i];
                if matches!(c.kind, CellKind::Not) {
                    let inner = c.inputs[0];
                    if let Some(drv) = drivers[inner.index()] {
                        let dcell = &netlist.cells[drv.index()];
                        if matches!(dcell.kind, CellKind::Not) && !is_po[c.output.index()] {
                            let root = dcell.inputs[0];
                            let out = c.output;
                            replace_uses(netlist, out, root);
                            did = true;
                            changed += 1;
                            break; // drivers are stale; restart
                        }
                    }
                }
                continue;
            }
            let input = match input {
                Some(n) => n,
                None => continue,
            };
            // Keep buffers that drive a primary output (the PO net must
            // keep its driver).
            if is_po[output.index()] {
                continue;
            }
            replace_uses(netlist, output, input);
            did = true;
            changed += 1;
            break;
        }
        if !did {
            break;
        }
    }
    // Sweep the now-dead buffers.
    sweep(netlist)?;
    Ok(changed)
}

/// Structural hashing: merge cells with identical (kind, inputs). Inputs
/// of commutative gates are compared order-insensitively. A pass takes
/// every merge it finds, in cell order, into the first cell of each
/// class (a primary-output net is kept over a plain one); passes repeat
/// until none is left.
pub fn strash(netlist: &mut Netlist) -> Result<usize> {
    let is_po = po_flags(netlist);
    let mut changed = 0usize;
    loop {
        // A class lives in the bucket of its lowest input net; cells
        // without inputs (constants) share the last bucket.
        let mut buckets: Vec<Vec<(&CellKind, Vec<NetId>, NetId)>> =
            vec![Vec::new(); netlist.nets.len() + 1];
        let mut merges: Vec<(NetId, NetId)> = Vec::new();
        for c in &netlist.cells {
            if matches!(c.kind, CellKind::Dff { .. }) {
                continue;
            }
            let mut inputs = c.inputs.clone();
            if matches!(
                c.kind,
                CellKind::And
                    | CellKind::Or
                    | CellKind::Nand
                    | CellKind::Nor
                    | CellKind::Xor
                    | CellKind::Xnor
            ) {
                inputs.sort_unstable();
            }
            let lowest = inputs
                .iter()
                .min()
                .map_or(netlist.nets.len(), |n| n.index());
            let bucket = &mut buckets[lowest];
            match bucket
                .iter_mut()
                .find(|(kind, ins, _)| **kind == c.kind && *ins == inputs)
            {
                Some((_, _, existing)) if *existing != c.output => {
                    if is_po[c.output.index()] {
                        if !is_po[existing.index()] {
                            merges.push((*existing, c.output));
                            *existing = c.output;
                        }
                    } else {
                        merges.push((c.output, *existing));
                    }
                }
                Some(_) => {}
                None => bucket.push((&c.kind, inputs, c.output)),
            }
        }
        if merges.is_empty() {
            return Ok(changed);
        }
        changed += merges.len();
        for (from, to) in merges {
            replace_uses(netlist, from, to);
        }
        sweep(netlist)?;
    }
}

/// Which nets are primary outputs. The passes never rename one: a merge
/// or an elision always keeps the PO net.
fn po_flags(netlist: &Netlist) -> Vec<bool> {
    let mut is_po = vec![false; netlist.nets.len()];
    for &po in &netlist.outputs {
        is_po[po.index()] = true;
    }
    is_po
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_netlist::sim::check_equivalence;

    fn build_redundant() -> Netlist {
        // y = (a & b) | (a & b)  with a dead gate and a buffer chain.
        let mut n = Netlist::new("red");
        let a = n.net("a");
        let b = n.net("b");
        n.add_input(a);
        n.add_input(b);
        let w1 = n.net("w1");
        let w2 = n.net("w2");
        let w3 = n.net("w3");
        let dead = n.net("dead");
        let y = n.net("y");
        n.add_output(y);
        n.add_cell("g1", CellKind::And, vec![a, b], w1);
        n.add_cell("g2", CellKind::And, vec![b, a], w2); // duplicate (commuted)
        n.add_cell("g3", CellKind::Or, vec![w1, w2], w3);
        n.add_cell("g4", CellKind::Xor, vec![a, b], dead); // dead
        n.add_cell("g5", CellKind::Buf, vec![w3], y);
        n
    }

    #[test]
    fn optimize_shrinks_and_preserves_function() {
        let golden = build_redundant();
        let mut opt = golden.clone();
        opt.rebuild_index();
        let removed = optimize(&mut opt).unwrap();
        assert!(removed >= 2, "removed {removed}");
        opt.validate().unwrap();
        check_equivalence(&golden, &opt, 64, 9).unwrap();
        // OR of two identical signals should have collapsed the AND pair.
        let ands = opt
            .cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::And))
            .count();
        assert_eq!(ands, 1, "strash must merge the two ANDs");
    }

    #[test]
    fn const_folding_collapses() {
        let mut n = Netlist::new("c");
        let a = n.net("a");
        n.add_input(a);
        let one = n.net("one");
        let w = n.net("w");
        let y = n.net("y");
        n.add_output(y);
        n.add_cell("k1", CellKind::Const1, vec![], one);
        n.add_cell("g1", CellKind::And, vec![a, one], w); // = a
        n.add_cell("g2", CellKind::Xor, vec![w, one], y); // = !a
        let golden = n.clone();
        n.rebuild_index();
        optimize(&mut n).unwrap();
        n.validate().unwrap();
        check_equivalence(&golden, &n, 32, 2).unwrap();
        // Everything reduces to a single inverter-ish cell (plus none).
        assert!(n.cells.len() <= 2, "cells left: {}", n.cells.len());
    }

    #[test]
    fn mux_with_constant_select() {
        let mut n = Netlist::new("m");
        let a = n.net("a");
        let b = n.net("b");
        n.add_input(a);
        n.add_input(b);
        let zero = n.net("zero");
        let y = n.net("y");
        n.add_output(y);
        n.add_cell("k", CellKind::Const0, vec![], zero);
        n.add_cell("m", CellKind::Mux2, vec![zero, a, b], y);
        let golden = n.clone();
        n.rebuild_index();
        optimize(&mut n).unwrap();
        check_equivalence(&golden, &n, 32, 3).unwrap();
    }

    #[test]
    fn double_inverter_removed() {
        let mut n = Netlist::new("ii");
        let a = n.net("a");
        n.add_input(a);
        let w1 = n.net("w1");
        let w2 = n.net("w2");
        let y = n.net("y");
        n.add_output(y);
        n.add_cell("i1", CellKind::Not, vec![a], w1);
        n.add_cell("i2", CellKind::Not, vec![w1], w2);
        n.add_cell("g", CellKind::And, vec![w2, a], y);
        let golden = n.clone();
        n.rebuild_index();
        optimize(&mut n).unwrap();
        check_equivalence(&golden, &n, 32, 4).unwrap();
        let nots = n
            .cells
            .iter()
            .filter(|c| matches!(c.kind, CellKind::Not))
            .count();
        assert_eq!(nots, 0, "double inverter should vanish");
    }

    #[test]
    fn sequential_logic_untouched_by_value() {
        // FF feedback loop: optimization must not break state.
        let mut n = Netlist::new("t");
        let clk = n.net("clk");
        n.add_clock(clk);
        let q = n.net("q");
        let d = n.net("d");
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
        let golden = n.clone();
        n.rebuild_index();
        optimize(&mut n).unwrap();
        check_equivalence(&golden, &n, 32, 5).unwrap();
    }
}
