//! Two-valued logic simulation: the reference semantics of the netlist IR.
//!
//! Every transformation in the flow — synthesis, optimization, LUT
//! mapping, packing, placement/routing (which must not change logic), and
//! bitstream generation — is validated by simulating before/after netlists
//! on the same stimulus and comparing outputs. Flip-flops capture on
//! [`Simulator::tick`]; the target platform's FFs are double-edge-
//! triggered, so one `tick` corresponds to one clock *edge* there, which
//! is transparent at this level.

use crate::ir::{CellId, CellKind, NetId, Netlist};
use crate::mix::xorshift64;
use crate::{NetlistError, Result};

/// Cycle-level simulator over a netlist.
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    order: Vec<CellId>,
    values: Vec<bool>,
    ff_state: Vec<bool>,
}

impl<'a> Simulator<'a> {
    pub fn new(netlist: &'a Netlist) -> Result<Self> {
        let order = netlist.topo_order()?;
        let ff_state = netlist
            .cells
            .iter()
            .map(|c| match c.kind {
                CellKind::Dff { init, .. } => init,
                _ => false,
            })
            .collect();
        let mut sim = Simulator {
            netlist,
            order,
            values: vec![false; netlist.nets.len()],
            ff_state,
        };
        sim.propagate();
        Ok(sim)
    }

    /// Set a primary input value. Does not propagate; call
    /// [`propagate`](Self::propagate) (or [`tick`](Self::tick)) after
    /// setting all inputs for the cycle.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.values[net.index()] = value;
    }

    /// Set an input by name; errors if the net does not exist.
    pub fn set_input_by_name(&mut self, name: &str, value: bool) -> Result<()> {
        let net = self
            .netlist
            .find_net(name)
            .ok_or_else(|| NetlistError::Validate(format!("no net named '{name}'")))?;
        self.set_input(net, value);
        Ok(())
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Values of the primary outputs, in declaration order.
    pub fn outputs(&self) -> Vec<bool> {
        self.netlist
            .outputs
            .iter()
            .map(|&n| self.value(n))
            .collect()
    }

    /// Re-evaluate all combinational logic from the current inputs and FF
    /// states.
    pub fn propagate(&mut self) {
        // FF outputs first.
        for (i, c) in self.netlist.cells.iter().enumerate() {
            if c.kind.is_ff() {
                self.values[c.output.index()] = self.ff_state[i];
            }
        }
        for &cid in &self.order {
            let c = &self.netlist.cells[cid.index()];
            let v = eval_cell(&c.kind, &c.inputs, &self.values);
            self.values[c.output.index()] = v;
        }
    }

    /// Apply one clock event: combinational logic settles, then every FF
    /// clocked by `clock` captures its D input, then logic settles again.
    pub fn tick(&mut self, clock: NetId) {
        self.propagate();
        for (i, c) in self.netlist.cells.iter().enumerate() {
            if let CellKind::Dff { clock: ff_clk, .. } = c.kind {
                if ff_clk == clock {
                    self.ff_state[i] = self.values[c.inputs[0].index()];
                }
            }
        }
        self.propagate();
    }

    /// Apply one clock event to every clock in the design.
    pub fn tick_all(&mut self) {
        self.propagate();
        for (i, c) in self.netlist.cells.iter().enumerate() {
            if c.kind.is_ff() {
                self.ff_state[i] = self.values[c.inputs[0].index()];
            }
        }
        self.propagate();
    }

    /// Reset every FF to its declared initial value.
    pub fn reset(&mut self) {
        for (i, c) in self.netlist.cells.iter().enumerate() {
            if let CellKind::Dff { init, .. } = c.kind {
                self.ff_state[i] = init;
            }
        }
        self.propagate();
    }
}

/// Evaluate one cell from net values.
pub fn eval_cell(kind: &CellKind, inputs: &[NetId], values: &[bool]) -> bool {
    let v = |i: usize| values[inputs[i].index()];
    match kind {
        CellKind::Const0 => false,
        CellKind::Const1 => true,
        CellKind::Buf => v(0),
        CellKind::Not => !v(0),
        CellKind::And => inputs.iter().all(|&n| values[n.index()]),
        CellKind::Or => inputs.iter().any(|&n| values[n.index()]),
        CellKind::Nand => !inputs.iter().all(|&n| values[n.index()]),
        CellKind::Nor => !inputs.iter().any(|&n| values[n.index()]),
        CellKind::Xor => inputs.iter().filter(|&&n| values[n.index()]).count() % 2 == 1,
        CellKind::Xnor => inputs.iter().filter(|&&n| values[n.index()]).count() % 2 == 0,
        CellKind::Mux2 => {
            if v(0) {
                v(2)
            } else {
                v(1)
            }
        }
        CellKind::Lut { truth, .. } => {
            let mut m = 0u64;
            for (i, &n) in inputs.iter().enumerate() {
                if values[n.index()] {
                    m |= 1 << i;
                }
            }
            truth >> m & 1 == 1
        }
        CellKind::Sop(cover) => {
            let mut m = 0u64;
            for (i, &n) in inputs.iter().enumerate() {
                if values[n.index()] {
                    m |= 1 << i;
                }
            }
            cover.eval(m)
        }
        // FF outputs are written by the simulator's state step.
        CellKind::Dff { .. } => unreachable!("FFs are not combinationally evaluated"),
    }
}

/// Drive both netlists with the same pseudo-random stimulus for
/// `cycles` cycles and compare primary outputs (matched by name).
/// Non-clock inputs get fresh random values each cycle; all clocks tick
/// once per cycle. Returns `Ok(())` or the first mismatch description.
pub fn check_equivalence(
    golden: &Netlist,
    candidate: &Netlist,
    cycles: usize,
    seed: u64,
) -> Result<()> {
    let mut sim_g = Simulator::new(golden)?;
    let mut sim_c = Simulator::new(candidate)?;

    // Match IO by name.
    let cand_input = |name: &str| candidate.find_net(name);
    let out_pairs: Vec<(NetId, NetId, String)> = golden
        .outputs
        .iter()
        .map(|&g| {
            let name = golden.net_name(g).to_string();
            let c = candidate.find_net(&name).ok_or_else(|| {
                NetlistError::Validate(format!("candidate lacks output '{name}'"))
            })?;
            Ok((g, c, name))
        })
        .collect::<Result<Vec<_>>>()?;

    let mut state = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0xDEADBEEF);
    let mut next_bit = || xorshift64(&mut state) & 1 == 1;

    for cycle in 0..cycles {
        for &input in &golden.inputs {
            if golden.clocks.contains(&input) {
                continue;
            }
            let bit = next_bit();
            let name = golden.net_name(input);
            sim_g.set_input(input, bit);
            if let Some(cn) = cand_input(name) {
                sim_c.set_input(cn, bit);
            }
        }
        sim_g.tick_all();
        sim_c.tick_all();
        for (g, c, name) in &out_pairs {
            let vg = sim_g.value(*g);
            let vc = sim_c.value(*c);
            if vg != vc {
                return Err(NetlistError::Validate(format!(
                    "output '{name}' differs at cycle {cycle}: golden {vg}, candidate {vc}"
                )));
            }
        }
    }
    Ok(())
}

/// Estimate per-net switching activity by random simulation: returns
/// (static probability, transition density per cycle) for every net.
/// This feeds the PowerModel tool.
pub fn activity_estimate(
    netlist: &Netlist,
    cycles: usize,
    seed: u64,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let mut sim = Simulator::new(netlist)?;
    let mut ones = vec![0usize; netlist.nets.len()];
    let mut transitions = vec![0usize; netlist.nets.len()];
    let mut prev: Vec<bool> = vec![false; netlist.nets.len()];

    let mut state = seed | 1;
    let mut next_bit = || xorshift64(&mut state) & 1 == 1;
    let data_inputs: Vec<NetId> = netlist
        .inputs
        .iter()
        .copied()
        .filter(|i| !netlist.clocks.contains(i))
        .collect();

    for cycle in 0..cycles {
        for &input in &data_inputs {
            sim.set_input(input, next_bit());
        }
        sim.tick_all();
        for n in 0..netlist.nets.len() {
            let v = sim.value(NetId(n as u32));
            if v {
                ones[n] += 1;
            }
            if cycle > 0 && v != prev[n] {
                transitions[n] += 1;
            }
            prev[n] = v;
        }
    }
    let p1: Vec<f64> = ones.iter().map(|&o| o as f64 / cycles as f64).collect();
    let density: Vec<f64> = transitions
        .iter()
        .map(|&t| t as f64 / (cycles.max(2) - 1) as f64)
        .collect();
    Ok((p1, density))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sop::SopCover;

    fn xor_netlist() -> Netlist {
        let mut n = Netlist::new("xor");
        let a = n.net("a");
        let b = n.net("b");
        let y = n.net("y");
        n.add_input(a);
        n.add_input(b);
        n.add_output(y);
        n.add_cell("g", CellKind::Xor, vec![a, b], y);
        n
    }

    #[test]
    fn combinational_eval() {
        let n = xor_netlist();
        let mut sim = Simulator::new(&n).unwrap();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let y = n.find_net("y").unwrap();
        for (va, vb, vy) in [
            (false, false, false),
            (true, false, true),
            (true, true, false),
        ] {
            sim.set_input(a, va);
            sim.set_input(b, vb);
            sim.propagate();
            assert_eq!(sim.value(y), vy, "{va} ^ {vb}");
        }
    }

    #[test]
    fn lut_and_sop_agree_with_gates() {
        // XOR as LUT and as SOP must match the gate.
        let mut n = Netlist::new("mix");
        let a = n.net("a");
        let b = n.net("b");
        let y_gate = n.net("y_gate");
        let y_lut = n.net("y_lut");
        let y_sop = n.net("y_sop");
        n.add_input(a);
        n.add_input(b);
        for y in [y_gate, y_lut, y_sop] {
            n.add_output(y);
        }
        n.add_cell("g", CellKind::Xor, vec![a, b], y_gate);
        n.add_cell(
            "l",
            CellKind::Lut {
                k: 2,
                truth: 0b0110,
            },
            vec![a, b],
            y_lut,
        );
        n.add_cell(
            "s",
            CellKind::Sop(SopCover::from_truth_table(2, 0b0110)),
            vec![a, b],
            y_sop,
        );
        let mut sim = Simulator::new(&n).unwrap();
        for m in 0..4u8 {
            sim.set_input(a, m & 1 == 1);
            sim.set_input(b, m & 2 == 2);
            sim.propagate();
            let vals = sim.outputs();
            assert_eq!(vals[0], vals[1]);
            assert_eq!(vals[0], vals[2]);
        }
    }

    #[test]
    fn toggle_ff_divides() {
        // q' = !q toggles every tick.
        let mut n = Netlist::new("t");
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
        let mut sim = Simulator::new(&n).unwrap();
        let qn = n.find_net("q").unwrap();
        assert!(!sim.value(qn));
        sim.tick(clk);
        assert!(sim.value(qn));
        sim.tick(clk);
        assert!(!sim.value(qn));
        sim.reset();
        assert!(!sim.value(qn));
    }

    #[test]
    fn mux_semantics() {
        let mut n = Netlist::new("m");
        let s = n.net("s");
        let a = n.net("a");
        let b = n.net("b");
        let y = n.net("y");
        n.add_input(s);
        n.add_input(a);
        n.add_input(b);
        n.add_output(y);
        n.add_cell("m", CellKind::Mux2, vec![s, a, b], y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(a, true);
        sim.set_input(b, false);
        sim.set_input(s, false);
        sim.propagate();
        assert!(sim.value(y), "sel=0 picks a");
        sim.set_input(s, true);
        sim.propagate();
        assert!(!sim.value(y), "sel=1 picks b");
    }

    #[test]
    fn equivalence_check_passes_and_fails() {
        let golden = xor_netlist();
        // Equivalent: XOR via LUT.
        let mut same = Netlist::new("xor2");
        let a = same.net("a");
        let b = same.net("b");
        let y = same.net("y");
        same.add_input(a);
        same.add_input(b);
        same.add_output(y);
        same.add_cell(
            "l",
            CellKind::Lut {
                k: 2,
                truth: 0b0110,
            },
            vec![a, b],
            y,
        );
        check_equivalence(&golden, &same, 64, 7).unwrap();

        // Not equivalent: OR.
        let mut diff = Netlist::new("or");
        let a = diff.net("a");
        let b = diff.net("b");
        let y = diff.net("y");
        diff.add_input(a);
        diff.add_input(b);
        diff.add_output(y);
        diff.add_cell("g", CellKind::Or, vec![a, b], y);
        assert!(check_equivalence(&golden, &diff, 64, 7).is_err());
    }

    #[test]
    fn activity_estimates_are_probabilities() {
        let n = xor_netlist();
        let (p1, density) = activity_estimate(&n, 500, 42).unwrap();
        for (p, d) in p1.iter().zip(density.iter()) {
            assert!((0.0..=1.0).contains(p));
            assert!(*d >= 0.0 && *d <= 1.0);
        }
        // A random-driven XOR output should toggle roughly half the time.
        let y = n.find_net("y").unwrap();
        assert!(density[y.index()] > 0.3 && density[y.index()] < 0.7);
    }
}
