//! Two-valued logic simulation: the reference semantics of the netlist IR.
//!
//! Every transformation in the flow — synthesis, optimization, LUT
//! mapping, packing, placement/routing (which must not change logic), and
//! bitstream generation — is validated by simulating before/after netlists
//! on the same stimulus and comparing outputs. Flip-flops capture on
//! [`Simulator::tick`]; the target platform's FFs are double-edge-
//! triggered, so one `tick` corresponds to one clock *edge* there, which
//! is transparent at this level.
//!
//! [`eval_cell`] is the scalar reference semantics of one cell. Whole
//! netlists run on the compiled [`Tape`]: the simulator on one lane, the
//! activity estimate on one lane per cycle.

use crate::ir::{CellKind, NetId, Netlist};
use crate::mix::xorshift64;
use crate::tape::{lanes, Tape};
use crate::{NetlistError, Result};

/// Cycle-level simulator over a netlist.
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    tape: Tape,
    /// One word per net, each 0 or !0 (the tape's lane 0 broadcast).
    values: Vec<u64>,
}

impl<'a> Simulator<'a> {
    pub fn new(netlist: &'a Netlist) -> Result<Self> {
        let tape = Tape::compile(netlist)?;
        let values = tape.values();
        let mut sim = Simulator {
            netlist,
            tape,
            values,
        };
        sim.propagate();
        Ok(sim)
    }

    /// Set a primary input value. Does not propagate; call
    /// [`propagate`](Self::propagate) (or [`tick`](Self::tick)) after
    /// setting all inputs for the cycle.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.values[net.index()] = lanes(value as u64);
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
        self.values[net.index()] & 1 == 1
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
        self.tape.eval1(&mut self.values);
    }

    /// Apply one clock event: combinational logic settles, then every FF
    /// clocked by `clock` captures its D input, then logic settles again.
    pub fn tick(&mut self, clock: NetId) {
        self.step(Some(clock));
    }

    /// Apply one clock event to every clock in the design.
    pub fn tick_all(&mut self) {
        self.step(None);
    }

    fn step(&mut self, clock: Option<NetId>) {
        self.propagate();
        self.tape.capture(&mut self.values, clock);
        self.propagate();
    }

    /// Reset every FF to its declared initial value.
    pub fn reset(&mut self) {
        self.tape.reset(&mut self.values);
        self.propagate();
    }
}

/// Evaluate one combinational cell from its input bits, in order.
pub fn eval_cell(kind: &CellKind, bits: &[bool]) -> bool {
    let ones = || bits.iter().filter(|&&b| b).count();
    let m = || (bits.iter().rev()).fold(0u64, |m, &b| m << 1 | b as u64);
    match kind {
        CellKind::Const0 => false,
        CellKind::Const1 => true,
        CellKind::Buf => bits[0],
        CellKind::Not => !bits[0],
        CellKind::And => ones() == bits.len(),
        CellKind::Or => ones() > 0,
        CellKind::Nand => ones() < bits.len(),
        CellKind::Nor => ones() == 0,
        CellKind::Xor => ones() % 2 == 1,
        CellKind::Xnor => ones() % 2 == 0,
        CellKind::Mux2 => {
            if bits[0] {
                bits[2]
            } else {
                bits[1]
            }
        }
        CellKind::Lut { truth, .. } => truth >> m() & 1 == 1,
        CellKind::Sop(cover) => cover.eval(m()),
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

/// Estimate per-net switching activity by random simulation: the
/// transition density per cycle of every net over `cycles` cycles (at
/// least 2: a density needs a transition to count). This feeds the
/// PowerModel tool.
///
/// Cycle `c` is lane `c % 64` of each net's history word, so transitions
/// are counted 64 cycles at a time, by popcount. A design without
/// flip-flops runs its 64 cycles as the 64 lanes of one tape pass; a
/// sequential one steps the tape on one lane per cycle and ORs each net's
/// bit into its history. Either way the stimulus is drawn cycle by cycle,
/// input by input.
pub fn activity_estimate(netlist: &Netlist, cycles: usize, seed: u64) -> Result<Vec<f64>> {
    if cycles < 2 {
        return Err(NetlistError::Validate(format!(
            "activity estimation needs at least 2 cycles, got {cycles}"
        )));
    }
    let tape = Tape::compile(netlist)?;
    let mut values = tape.values();
    let nets = netlist.nets.len();
    let mut history = vec![0u64; nets];
    // Each net's last cycle of the block before, in bit 0.
    let mut carry = vec![0u64; nets];
    let mut transitions = vec![0u32; nets];

    let mut state = seed | 1;
    let data_inputs: Vec<usize> = (netlist.inputs.iter())
        .filter(|i| !netlist.clocks.contains(i))
        .map(|i| i.index())
        .collect();

    for block in (0..cycles).step_by(64) {
        let width = (cycles - block).min(64);
        if tape.ffs() == 0 {
            for &i in &data_inputs {
                values[i] = 0;
            }
            for lane in 0..width {
                for &i in &data_inputs {
                    values[i] |= (xorshift64(&mut state) & 1) << lane;
                }
            }
            tape.eval(&mut values);
            history.copy_from_slice(&values[..nets]);
        } else {
            history.fill(0);
            for lane in 0..width {
                for &i in &data_inputs {
                    values[i] = lanes(xorshift64(&mut state));
                }
                tape.eval1(&mut values);
                tape.capture(&mut values, None);
                tape.eval1(&mut values);
                for (h, v) in history.iter_mut().zip(&values) {
                    *h |= v & 1 << lane;
                }
            }
        }
        // Bit `c` of `h ^ (h << 1 | carry)` is set where cycle `c` differs
        // from the cycle before it; the very first cycle has none.
        let mut mask = u64::MAX >> (64 - width);
        if block == 0 {
            mask &= !1;
        }
        for ((t, &h), c) in transitions.iter_mut().zip(&history).zip(&mut carry) {
            *t += ((h ^ (h << 1 | *c)) & mask).count_ones();
            *c = h >> 63;
        }
    }
    Ok((transitions.iter())
        .map(|&t| t as f64 / (cycles - 1) as f64)
        .collect())
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
        let density = activity_estimate(&n, 500, 42).unwrap();
        for d in &density {
            assert!(*d >= 0.0 && *d <= 1.0);
        }
        // A random-driven XOR output should toggle roughly half the time.
        let y = n.find_net("y").unwrap();
        assert!(density[y.index()] > 0.3 && density[y.index()] < 0.7);
    }

    #[test]
    fn too_few_cycles_to_count_a_transition_are_refused() {
        let n = xor_netlist();
        for cycles in [0, 1] {
            let err = activity_estimate(&n, cycles, 42).unwrap_err();
            assert!(
                matches!(&err, NetlistError::Validate(m) if m.contains("at least 2 cycles")),
                "{err}"
            );
        }
        assert_eq!(activity_estimate(&n, 2, 42).unwrap().len(), n.nets.len());
    }
}
