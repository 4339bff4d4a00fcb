//! SIS-equivalent logic optimization passes.
//!
//! The classic pre-mapping cleanup: `sweep` (dead logic removal),
//! constant folding/propagation, buffer and double-inverter elision, and
//! structural hashing (common-subexpression merging). Each pass preserves
//! functional equivalence; `optimize` iterates them to a fixed point.

use std::collections::HashMap;

use fpga_netlist::ir::{CellKind, NetId, Netlist};

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
        // Net -> constant value map from Const cells.
        let mut const_of: HashMap<NetId, bool> = HashMap::new();
        for c in &netlist.cells {
            match c.kind {
                CellKind::Const0 => {
                    const_of.insert(c.output, false);
                }
                CellKind::Const1 => {
                    const_of.insert(c.output, true);
                }
                _ => {}
            }
        }
        let mut round = 0usize;
        for i in 0..netlist.cells.len() {
            let (kind, inputs, _output) = {
                let c = &netlist.cells[i];
                (c.kind.clone(), c.inputs.clone(), c.output)
            };
            if matches!(
                kind,
                CellKind::Dff { .. } | CellKind::Const0 | CellKind::Const1
            ) {
                continue;
            }
            let vals: Vec<Option<bool>> = inputs.iter().map(|n| const_of.get(n).copied()).collect();
            let new_kind = simplify(&kind, &inputs, &vals);
            if let Some((nk, ni)) = new_kind {
                if nk != kind || ni != inputs {
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
    let all_known = vals.iter().all(|v| v.is_some());
    // Fully-constant cells evaluate outright.
    if all_known && !inputs.is_empty() {
        let bits: Vec<bool> = vals.iter().map(|v| v.unwrap()).collect();
        let out = match kind {
            CellKind::Buf => bits[0],
            CellKind::Not => !bits[0],
            CellKind::And => bits.iter().all(|&b| b),
            CellKind::Or => bits.iter().any(|&b| b),
            CellKind::Nand => !bits.iter().all(|&b| b),
            CellKind::Nor => !bits.iter().any(|&b| b),
            CellKind::Xor => bits.iter().filter(|&&b| b).count() % 2 == 1,
            CellKind::Xnor => bits.iter().filter(|&&b| b).count() % 2 == 0,
            CellKind::Mux2 => {
                if bits[0] {
                    bits[2]
                } else {
                    bits[1]
                }
            }
            CellKind::Lut { truth, .. } => {
                let m = bits
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
                truth >> m & 1 == 1
            }
            CellKind::Sop(cover) => {
                let m = bits
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
                cover.eval(m)
            }
            _ => return None,
        };
        let k = if out {
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
            let output_used =
                !sinks[output.index()].is_empty() || netlist.outputs.contains(&output);
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
                        if matches!(dcell.kind, CellKind::Not)
                            && !netlist.outputs.contains(&c.output)
                        {
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
            if netlist.outputs.contains(&output) {
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
/// of commutative gates are compared order-insensitively.
pub fn strash(netlist: &mut Netlist) -> Result<usize> {
    let mut changed = 0usize;
    loop {
        let mut seen: HashMap<String, NetId> = HashMap::new();
        let mut merge: Option<(NetId, NetId)> = None;
        for c in &netlist.cells {
            if matches!(c.kind, CellKind::Dff { .. }) {
                continue;
            }
            let mut key_inputs: Vec<u32> = c.inputs.iter().map(|n| n.0).collect();
            let commutative = matches!(
                c.kind,
                CellKind::And
                    | CellKind::Or
                    | CellKind::Nand
                    | CellKind::Nor
                    | CellKind::Xor
                    | CellKind::Xnor
            );
            if commutative {
                key_inputs.sort_unstable();
            }
            let key = format!("{:?}|{:?}", c.kind, key_inputs);
            match seen.get(&key) {
                Some(&existing) if existing != c.output => {
                    // Prefer keeping a PO net as the canonical output.
                    if netlist.outputs.contains(&c.output) && !netlist.outputs.contains(&existing) {
                        merge = Some((existing, c.output));
                    } else if !netlist.outputs.contains(&c.output) {
                        merge = Some((c.output, existing));
                    }
                    if merge.is_some() {
                        break;
                    }
                }
                _ => {
                    seen.insert(key, c.output);
                }
            }
        }
        match merge {
            Some((from, to)) => {
                replace_uses(netlist, from, to);
                sweep(netlist)?;
                changed += 1;
            }
            None => break,
        }
    }
    Ok(changed)
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
