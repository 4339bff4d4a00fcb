//! One compiled evaluator under every simulation of a netlist.
//!
//! A [`Tape`] is compiled once from a cell list: its combinational ops in
//! topological order, their input nets in one flat `Vec<u32>`, and each
//! op's function inline. It evaluates one `u64` word per net, 64
//! independent lanes a run: the simulator runs one lane ([`Tape::eval1`]),
//! the equivalence checker 64 vectors, the LUT mapper a cut's 2^k leaf
//! combinations. A flip-flop is no op: its Q net is a source, and
//! [`Tape::capture`] copies its D word into it. [`crate::sim::eval_cell`]
//! is the scalar reference the tape is tested against.

use crate::ir::{comb_order, Cell, CellId, CellKind, Cycle, NetId, Netlist};
use crate::sop::Cube;
use crate::{NetlistError, Result};

/// What an op computes from its input words.
#[derive(Clone, Copy, Debug)]
enum Code {
    /// This word: 0 or !0.
    Const(u64),
    /// AND, OR or XOR of the inputs, then XOR with the word (0, or !0 to
    /// invert): the gates, `Buf`, `Not` and the inverted gates.
    And(u64),
    Or(u64),
    Xor(u64),
    /// `[sel, a, b]`: `sel ? b : a`.
    Mux,
    /// A truth table, input 0 the minterm's low bit: every LUT and every
    /// cover over at most six inputs.
    Lut(u64),
    /// A wider cover: the cubes `cubes[from..to]`.
    Sop(u32, u32),
}

#[derive(Clone, Copy, Debug)]
struct Op {
    code: Code,
    /// Its input nets are `args[from..to]`.
    from: u32,
    to: u32,
    out: u32,
}

/// A netlist compiled for evaluation; see the module doc.
#[derive(Clone, Debug)]
pub struct Tape {
    ops: Vec<Op>,
    args: Vec<u32>,
    cubes: Vec<Cube>,
    /// Each flip-flop's (d, q, clock, init).
    ffs: Vec<(u32, u32, u32, bool)>,
    nets: usize,
}

/// Every lane set to the low bit of `bit`.
pub fn lanes(bit: u64) -> u64 {
    0u64.wrapping_sub(bit & 1)
}

impl Tape {
    /// Compile a netlist. A combinational cycle is an error.
    pub fn compile(netlist: &Netlist) -> Result<Tape> {
        Tape::new(netlist.nets.len(), &netlist.cells).map_err(|c| {
            NetlistError::Validate(format!(
                "combinational cycle: ordered {} of {} cells",
                c.ordered, c.comb
            ))
        })
    }

    /// Compile `cells` over nets `0..nets`; on a combinational cycle,
    /// `Err` names a cell on it.
    pub fn new(nets: usize, cells: &[Cell]) -> std::result::Result<Tape, Cycle> {
        Ok(Tape::ordered(nets, cells, &comb_order(nets, cells)?))
    }

    /// Compile `cells` over nets `0..nets` in an order already known to
    /// be topological: every combinational cell once, each after the
    /// cells driving its inputs ([`Netlist::topo_order`]'s).
    pub fn ordered(nets: usize, cells: &[Cell], order: &[CellId]) -> Tape {
        let mut tape = Tape {
            ops: Vec::with_capacity(order.len()),
            args: Vec::with_capacity(order.len() * 2),
            cubes: Vec::new(),
            ffs: Vec::new(),
            nets,
        };
        for cid in order {
            let c = &cells[cid.index()];
            let code = match &c.kind {
                CellKind::Const0 => Code::Const(0),
                CellKind::Const1 => Code::Const(!0),
                CellKind::Buf | CellKind::And => Code::And(0),
                CellKind::Not | CellKind::Nand => Code::And(!0),
                CellKind::Or => Code::Or(0),
                CellKind::Nor => Code::Or(!0),
                CellKind::Xor => Code::Xor(0),
                CellKind::Xnor => Code::Xor(!0),
                CellKind::Mux2 => Code::Mux,
                CellKind::Lut { truth, .. } => Code::Lut(*truth),
                CellKind::Sop(cover) => match cover.truth_table() {
                    Some(truth) => Code::Lut(truth),
                    None => {
                        let from = tape.cubes.len() as u32;
                        tape.cubes.extend_from_slice(&cover.cubes);
                        Code::Sop(from, tape.cubes.len() as u32)
                    }
                },
                CellKind::Dff { .. } => unreachable!("the order holds combinational cells only"),
            };
            let from = tape.args.len() as u32;
            tape.args.extend(c.inputs.iter().map(|n| n.0));
            let (to, out) = (tape.args.len() as u32, c.output.0);
            tape.ops.push(Op {
                code,
                from,
                to,
                out,
            });
        }
        for c in cells {
            if let CellKind::Dff { clock, init } = c.kind {
                tape.ffs.push((c.inputs[0].0, c.output.0, clock.0, init));
            }
        }
        tape
    }

    /// A fresh value vector: every net low, every flip-flop's Q at its
    /// `init`. Past the nets, one word per flip-flop holds a capture.
    pub fn values(&self) -> Vec<u64> {
        let mut values = vec![0; self.nets + self.ffs.len()];
        self.reset(&mut values);
        values
    }

    /// Flip-flops in the tape.
    pub fn ffs(&self) -> usize {
        self.ffs.len()
    }

    /// Evaluate every op on all 64 lanes.
    pub fn eval(&self, values: &mut [u64]) {
        for op in &self.ops {
            values[op.out as usize] = self.run::<true>(op, values);
        }
    }

    /// Evaluate every op on lane 0, for a caller that holds each word at
    /// 0 or !0: a table is read at one minterm, and every word stays 0 or
    /// !0.
    pub fn eval1(&self, values: &mut [u64]) {
        for op in &self.ops {
            values[op.out as usize] = self.run::<false>(op, values);
        }
    }

    /// Evaluate the ops `ops` (indices into the tape, inputs first) on
    /// all 64 lanes: a slice of the tape, such as one cone.
    pub fn eval_ops(&self, ops: &[usize], values: &mut [u64]) {
        for &i in ops {
            let op = &self.ops[i];
            values[op.out as usize] = self.run::<true>(op, values);
        }
    }

    /// The op that computes each net, if one does.
    pub fn drivers(&self) -> Vec<Option<usize>> {
        let mut drivers = vec![None; self.nets];
        for (i, op) in self.ops.iter().enumerate() {
            drivers[op.out as usize] = Some(i);
        }
        drivers
    }

    /// The input nets of op `i`.
    pub fn inputs(&self, i: usize) -> impl Iterator<Item = NetId> + '_ {
        let op = &self.ops[i];
        (self.args[op.from as usize..op.to as usize].iter()).map(|&n| NetId(n))
    }

    /// One clock event's capture: every flip-flop clocked by `clock`
    /// (every one, for `None`) copies its D word into its Q, all at once.
    pub fn capture(&self, values: &mut [u64], clock: Option<NetId>) {
        let on = (self.ffs.iter().enumerate())
            .filter(|(_, ff)| clock.is_none_or(|c| c.0 == ff.2))
            .map(|(i, &(d, q, ..))| (self.nets + i, d as usize, q as usize));
        for (latch, d, _) in on.clone() {
            values[latch] = values[d];
        }
        for (latch, _, q) in on {
            values[q] = values[latch];
        }
    }

    /// Every flip-flop's Q back to its `init`, on every lane.
    pub fn reset(&self, values: &mut [u64]) {
        for &(_, q, _, init) in &self.ffs {
            values[q as usize] = lanes(init as u64);
        }
    }

    /// One op's output word.
    #[inline]
    fn run<const WIDE: bool>(&self, op: &Op, values: &[u64]) -> u64 {
        let ins = &self.args[op.from as usize..op.to as usize];
        let x = |i: &u32| values[*i as usize];
        // Lane 0's minterm over the inputs.
        let m = || (ins.iter().rev()).fold(0u64, |m, i| m << 1 | x(i) & 1);
        match op.code {
            Code::Const(w) => w,
            Code::And(flip) => ins.iter().fold(!0, |a, i| a & x(i)) ^ flip,
            Code::Or(flip) => ins.iter().fold(0, |a, i| a | x(i)) ^ flip,
            Code::Xor(flip) => ins.iter().fold(0, |a, i| a ^ x(i)) ^ flip,
            Code::Mux => {
                let s = x(&ins[0]);
                (s & x(&ins[2])) | (!s & x(&ins[1]))
            }
            Code::Lut(truth) if WIDE => {
                // Shannon expansion: minterm words, then one mux level per
                // input, lowest input first.
                let mut w = [0u64; 64];
                let mut n = 1usize << ins.len();
                for (m, word) in w[..n].iter_mut().enumerate() {
                    *word = lanes(truth >> m);
                }
                for i in ins {
                    let sel = x(i);
                    n /= 2;
                    for j in 0..n {
                        w[j] = w[2 * j] ^ ((w[2 * j] ^ w[2 * j + 1]) & sel);
                    }
                }
                w[0]
            }
            Code::Lut(truth) => lanes(truth >> m()),
            Code::Sop(from, to) => {
                // OR over cubes of the AND of each cared literal.
                let cube = |c: &Cube| {
                    let cared = ins.iter().enumerate().filter(|(i, _)| c.care >> i & 1 == 1);
                    cared.fold(!0, |a, (i, n)| a & (x(n) ^ lanes(!c.value >> i)))
                };
                let cubes = &self.cubes[from as usize..to as usize];
                cubes.iter().fold(0, |out, c| out | cube(c))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{eval_cell, Simulator};
    use crate::sop::SopCover;
    use proptest::prelude::*;

    fn draw(rng: &mut TestRng, below: usize) -> usize {
        rng.below(below)
    }

    /// A random netlist over `inputs` primary inputs holding every
    /// `CellKind`: n-ary gates of 1-8 inputs, LUTs of k 0-6, covers of up
    /// to 8 inputs, muxes, constants and flip-flops on two clocks. Every
    /// cell reads earlier nets only, except that a flip-flop's D may come
    /// from anywhere (a Q is a source).
    fn random_netlist(seed: u64, inputs: usize, cells: usize) -> Netlist {
        let mut rng = TestRng::seed_from(seed);
        let mut nl = Netlist::new("rand");
        let clocks = [nl.net("clk0"), nl.net("clk1")];
        for &c in &clocks {
            nl.add_clock(c);
        }
        let mut pool: Vec<NetId> = (0..inputs)
            .map(|i| {
                let n = nl.net(&format!("i{i}"));
                nl.add_input(n);
                n
            })
            .collect();
        let mut ffs = Vec::new();
        for c in 0..cells {
            let out = nl.net(&format!("n{c}"));
            let pick = |rng: &mut TestRng, n: usize| -> Vec<NetId> {
                (0..n).map(|_| pool[draw(rng, pool.len())]).collect()
            };
            let (kind, ins) = match draw(&mut rng, 14) {
                0 => (CellKind::Const0, vec![]),
                1 => (CellKind::Const1, vec![]),
                2 => (CellKind::Buf, pick(&mut rng, 1)),
                3 => (CellKind::Not, pick(&mut rng, 1)),
                4..=9 => {
                    let kinds = [
                        CellKind::And,
                        CellKind::Or,
                        CellKind::Nand,
                        CellKind::Nor,
                        CellKind::Xor,
                        CellKind::Xnor,
                    ];
                    let n = 1 + draw(&mut rng, 8);
                    (kinds[draw(&mut rng, 6)].clone(), pick(&mut rng, n))
                }
                10 => (CellKind::Mux2, pick(&mut rng, 3)),
                11 => {
                    let k = draw(&mut rng, 7);
                    let truth = rng.next_u64();
                    (CellKind::Lut { k: k as u8, truth }, pick(&mut rng, k))
                }
                12 => {
                    let n = 1 + draw(&mut rng, 8);
                    let cubes = (0..draw(&mut rng, 5))
                        .map(|_| {
                            let care = rng.next_u64() & ((1 << n) - 1);
                            let value = rng.next_u64() & care;
                            crate::sop::Cube { care, value }
                        })
                        .collect();
                    let cover = SopCover { n_inputs: n, cubes };
                    (CellKind::Sop(cover), pick(&mut rng, n))
                }
                _ => {
                    let clock = clocks[draw(&mut rng, 2)];
                    let init = draw(&mut rng, 2) == 1;
                    ffs.push(nl.cells.len());
                    (CellKind::Dff { clock, init }, vec![out])
                }
            };
            nl.add_cell(&format!("c{c}"), kind, ins, out);
            pool.push(out);
        }
        // Each flip-flop's D: any net at all.
        for i in ffs {
            nl.cells[i].inputs = vec![pool[draw(&mut rng, pool.len())]];
        }
        for &n in pool.iter().rev().take(8) {
            nl.add_output(n);
        }
        nl
    }

    /// The reference: every combinational cell through `eval_cell` in
    /// topological order, on one lane of `values`.
    fn reference(nl: &Netlist, values: &[u64], lane: usize) -> Vec<bool> {
        let mut bits: Vec<bool> = values.iter().map(|w| w >> lane & 1 == 1).collect();
        for cid in nl.topo_order().unwrap() {
            let c = &nl.cells[cid.index()];
            let ins: Vec<bool> = c.inputs.iter().map(|n| bits[n.index()]).collect();
            bits[c.output.index()] = eval_cell(&c.kind, &ins);
        }
        bits.truncate(nl.nets.len());
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each of 64 lanes, and lane 0 alone, is `eval_cell` on that
        /// lane's net values.
        #[test]
        fn every_lane_is_the_reference(seed in 0u64..u64::MAX) {
            let nl = random_netlist(seed, 10, 60);
            let tape = Tape::compile(&nl).unwrap();
            let mut rng = TestRng::seed_from(seed ^ 1);
            let mut wide: Vec<u64> = (0..tape.values().len()).map(|_| rng.next_u64()).collect();
            let before = wide.clone();
            tape.eval(&mut wide);
            for lane in 0..64 {
                let want = reference(&nl, &before, lane);
                let got: Vec<bool> = wide[..nl.nets.len()].iter().map(|w| w >> lane & 1 == 1).collect();
                prop_assert_eq!(&got, &want, "lane {}", lane);
            }
            let mut one: Vec<u64> = before.iter().map(|&w| lanes(w)).collect();
            tape.eval1(&mut one);
            let want = reference(&nl, &before, 0);
            for (n, &w) in one[..nl.nets.len()].iter().enumerate() {
                prop_assert!(w == 0 || w == !0, "net {} holds a mixed word", n);
                prop_assert_eq!(w & 1 == 1, want[n], "net {}", n);
            }
        }

        /// `capture` then `eval1` steps like the simulator's tick, and 64
        /// lanes of independent stimulus step like 64 simulators.
        #[test]
        fn capture_steps_like_the_simulator(seed in 0u64..u64::MAX) {
            let nl = random_netlist(seed, 6, 40);
            let tape = Tape::compile(&nl).unwrap();
            let data: Vec<NetId> = nl.inputs.iter().copied().filter(|i| !nl.clocks.contains(i)).collect();
            let mut rng = TestRng::seed_from(seed ^ 2);
            let mut sims: Vec<Simulator> = (0..64).map(|_| Simulator::new(&nl).unwrap()).collect();
            let mut wide = tape.values();
            tape.eval(&mut wide);
            for cycle in 0..6 {
                let clock = match cycle % 3 { 0 => None, c => Some(nl.clocks[c - 1]) };
                for &i in &data {
                    wide[i.index()] = rng.next_u64();
                    for (lane, sim) in sims.iter_mut().enumerate() {
                        sim.set_input(i, wide[i.index()] >> lane & 1 == 1);
                    }
                }
                tape.eval(&mut wide);
                tape.capture(&mut wide, clock);
                tape.eval(&mut wide);
                for (lane, sim) in sims.iter_mut().enumerate() {
                    match clock {
                        None => sim.tick_all(),
                        Some(c) => sim.tick(c),
                    }
                    for (n, w) in wide[..nl.nets.len()].iter().enumerate() {
                        let got = w >> lane & 1 == 1;
                        prop_assert_eq!(got, sim.value(NetId(n as u32)), "cycle {} lane {} net {}", cycle, lane, n);
                    }
                }
            }
        }
    }

    #[test]
    fn a_cycle_names_a_cell_on_it() {
        // a -> g0 -> g1 -> g2 -> g1: g0 is ordered, g1 and g2 are not,
        // and g3 (downstream of the cycle) is stuck without being on it.
        let mut nl = Netlist::new("loop");
        let a = nl.net("a");
        let [w0, w1, w2, w3] = ["w0", "w1", "w2", "w3"].map(|n| nl.net(n));
        nl.add_input(a);
        nl.add_cell("g3", CellKind::Not, vec![w2], w3);
        nl.add_cell("g0", CellKind::Not, vec![a], w0);
        nl.add_cell("g1", CellKind::And, vec![w0, w2], w1);
        nl.add_cell("g2", CellKind::Not, vec![w1], w2);
        let err = Tape::new(nl.nets.len(), &nl.cells).unwrap_err();
        assert_eq!((err.ordered, err.comb), (1, 4));
        assert!([2, 3].contains(&err.on_cycle.index()), "{err:?}");
        assert_eq!(
            Tape::compile(&nl).unwrap_err(),
            nl.topo_order().unwrap_err()
        );
    }
}
