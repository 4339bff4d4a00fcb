//! Fabric-level functional simulation of a configured device.
//!
//! The emulator reconstructs the electrical structure a bitstream
//! creates — wires shorted together through closed switch-box switches,
//! pins tapped onto wires through connection boxes — and then evaluates
//! the configured LUTs, crossbars, and flip-flops cycle by cycle. Nothing
//! here looks at the original netlist: if the emulated device behaves like
//! the reference simulation, the whole flow (mapping through DAGGER) is
//! end-to-end correct.
//!
//! The bits are read once, in [`Fabric::new`]: every LUT input and output
//! pad is bound to the one BLE or input pad that drives it, and the
//! combinational BLEs are put in dependency order, so a settle is a single
//! sweep over that order.

use fpga_route::rrgraph::RrKind;

use crate::config::{Bitstream, IoConfig, IoMode, WireKey, XbarSel};
use crate::{BitstreamError, Result};

/// Union-find over wire-key indices `0..n`: the reduction from closed
/// switches to electrical nets, shared with `fpga-verify`'s bitstream
/// decode.
pub struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// What drives a pin, resolved at load.
#[derive(Clone, Copy)]
enum Source {
    /// Nothing: an undriven pin, an unused BLE or an empty feedback slot.
    Low,
    /// A used BLE's output, by flat index over every CLB's slots.
    Ble(usize),
    /// An input pad, by index into the sorted pad symbols.
    Pad(usize),
}

impl Source {
    fn value(self, ble: &[bool], pad: &[bool]) -> bool {
        match self {
            Source::Low => false,
            Source::Ble(j) => ble[j],
            Source::Pad(p) => pad[p],
        }
    }
}

/// One BLE's LUT: its truth table and the source of each input.
struct Lut {
    truth: u64,
    inputs: Vec<Source>,
}

impl Lut {
    fn eval(&self, ble: &[bool], pad: &[bool]) -> bool {
        let m = (self.inputs.iter().enumerate())
            .fold(0, |m, (i, s)| m | (s.value(ble, pad) as usize) << i);
        self.truth >> m & 1 == 1
    }
}

/// A configured, emulatable device.
pub struct Fabric {
    n_nets: usize,
    /// Every BLE slot's LUT, flat over the CLBs in bitstream order.
    luts: Vec<Lut>,
    /// Every BLE slot's output; a registered BLE's is its FF state.
    ble: Vec<bool>,
    /// The used combinational BLEs, each after every such BLE it reads.
    order: Vec<usize>,
    /// The used registered BLEs, with their initial states.
    regs: Vec<(usize, bool)>,
    /// The registered BLEs that capture on a tick: both clock enables set.
    clocked: Vec<usize>,
    /// Input pad symbols, sorted and deduplicated, and their values.
    pad_names: Vec<String>,
    pad: Vec<bool>,
    /// Output pad symbols, sorted, each with its first pad's source.
    outputs: Vec<(String, Source)>,
}

impl Fabric {
    /// Build the electrical model from a bitstream. Two output pins on
    /// one net are contention, and a combinational loop is refused.
    pub fn new(bs: Bitstream) -> Result<Fabric> {
        let opin = |x, y, pin| RrKind::Opin { x, y, pin };
        let ipin = |x, y, pin| RrKind::Ipin { x, y, pin };
        // Every closed switch as a key pair; IO pads participate even if
        // unrouted (unused pads park).
        let ins = (bs.cb_inputs.iter()).map(|(&(x, y, p), &w)| (ipin(x, y, p), w));
        let outs = (bs.cb_outputs.iter()).map(|&((x, y, p), w)| (opin(x, y, p), w));
        let sb = bs.sb_switches.iter().copied();
        let pairs: Vec<(WireKey, WireKey)> = sb.chain(ins).chain(outs).collect();
        let pad_key = |io: &IoConfig| match io.mode {
            IoMode::Input => Some(opin(io.loc.x, io.loc.y, io.sub)),
            IoMode::Output => Some(ipin(io.loc.x, io.loc.y, io.sub)),
            IoMode::Unused => None,
        };
        let mut keys: Vec<WireKey> = (pairs.iter().flat_map(|&(a, b)| [a, b]))
            .chain(bs.ios.iter().filter_map(pad_key))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut dsu = Dsu::new(keys.len());
        for (a, b) in &pairs {
            if let (Ok(a), Ok(b)) = (keys.binary_search(a), keys.binary_search(b)) {
                dsu.union(a, b);
            }
        }
        let root: Vec<usize> = (0..keys.len()).map(|i| dsu.find(i)).collect();
        let n_nets = (root.iter().enumerate()).filter(|&(i, &r)| i == r).count();

        // Each net's one driving output pin, found in key order.
        let mut driver: Vec<Option<WireKey>> = vec![None; keys.len()];
        for (&k, &r) in keys.iter().zip(&root) {
            if let RrKind::Opin { .. } = k {
                if let Some(prev) = driver[r] {
                    return Err(BitstreamError::Fabric(format!(
                        "electrical contention: {prev:?} and {k:?} drive the same net"
                    )));
                }
                driver[r] = Some(k);
            }
        }

        // What each driver is: the first CLB at its location, else the
        // first input pad there.
        let base: Vec<usize> = (bs.clbs.iter())
            .scan(0, |n, clb| {
                *n += clb.bles.len();
                Some(*n - clb.bles.len())
            })
            .collect();
        let ble_src = |ci: usize, slot: usize| match bs.clbs[ci].bles.get(slot) {
            Some(ble) if ble.used => Source::Ble(base[ci] + slot),
            _ => Source::Low,
        };
        let mut clb_at: Vec<((u32, u32), usize)> = (bs.clbs.iter().enumerate())
            .map(|(ci, clb)| ((clb.loc.x, clb.loc.y), ci))
            .collect();
        clb_at.sort_by_key(|e| e.0);
        clb_at.dedup_by_key(|e| e.0);
        let inputs = bs.ios.iter().filter(|io| io.mode == IoMode::Input);
        let mut pad_names: Vec<String> = inputs.clone().map(|io| io.net.clone()).collect();
        pad_names.sort_unstable();
        pad_names.dedup();
        let mut pad_at: Vec<((u32, u32, u32), Source)> = inputs
            .map(|io| {
                let p = pad_names
                    .binary_search(&io.net)
                    .map_or(Source::Low, Source::Pad);
                ((io.loc.x, io.loc.y, io.sub), p)
            })
            .collect();
        pad_at.sort_by_key(|e| e.0);
        pad_at.dedup_by_key(|e| e.0);
        let net_src: Vec<Source> = (driver.iter())
            .map(|d| match *d {
                Some(RrKind::Opin { x, y, pin }) => {
                    match clb_at.binary_search_by_key(&(x, y), |e| e.0) {
                        Ok(i) => (pin as usize)
                            .checked_sub(bs.clb_inputs)
                            .map_or(Source::Low, |slot| ble_src(clb_at[i].1, slot)),
                        Err(_) => (pad_at.binary_search_by_key(&(x, y, pin), |e| e.0))
                            .map_or(Source::Low, |i| pad_at[i].1),
                    }
                }
                _ => Source::Low,
            })
            .collect();
        let read = |x, y, pin| {
            let k = keys.binary_search(&ipin(x, y, pin));
            k.map_or(Source::Low, |i| net_src[root[i]])
        };

        let (mut luts, mut comb) = (Vec::new(), Vec::new());
        let (mut regs, mut clocked) = (Vec::new(), Vec::new());
        for (ci, clb) in bs.clbs.iter().enumerate() {
            for ble in &clb.bles {
                let j = luts.len();
                let inputs = (ble.inputs.iter())
                    .map(|sel| match *sel {
                        XbarSel::ClusterInput(p) => read(clb.loc.x, clb.loc.y, p as u32),
                        XbarSel::Feedback(b) => ble_src(ci, b as usize),
                        XbarSel::Unused => Source::Low,
                    })
                    .collect();
                let truth = ble.truth;
                luts.push(Lut { truth, inputs });
                comb.push(ble.used && !ble.registered);
                if ble.used && ble.registered {
                    regs.push((j, ble.init));
                    if ble.clock_enable && clb.clock_enable {
                        clocked.push(j);
                    }
                }
            }
        }
        let order = levelize(&luts, &comb).map_err(|j| {
            let ci = base.partition_point(|&b| b <= j) - 1;
            let (slot, x, y) = (j - base[ci], bs.clbs[ci].loc.x, bs.clbs[ci].loc.y);
            BitstreamError::Fabric(format!(
                "combinational loop through slot {slot} of the CLB at ({x}, {y})"
            ))
        })?;

        let mut outputs: Vec<(String, Source)> = (bs.ios.iter())
            .filter(|io| io.mode == IoMode::Output)
            .map(|io| (io.net.clone(), read(io.loc.x, io.loc.y, io.sub)))
            .collect();
        outputs.sort_by(|a, b| a.0.cmp(&b.0));
        outputs.dedup_by(|a, b| a.0 == b.0);

        let mut fabric = Fabric {
            n_nets,
            ble: vec![false; luts.len()],
            luts,
            order,
            regs,
            clocked,
            pad: vec![false; pad_names.len()],
            pad_names,
            outputs,
        };
        fabric.reset();
        Ok(fabric)
    }

    /// Set the value on an input pad, by its net symbol.
    pub fn set_input(&mut self, net_symbol: &str, value: bool) -> Result<()> {
        let i = (self
            .pad_names
            .binary_search_by_key(&net_symbol, String::as_str))
        .map_err(|_| no_pad("input", net_symbol))?;
        self.pad[i] = value;
        Ok(())
    }

    /// Read the value observed by an output pad, by its net symbol.
    pub fn read_output(&self, net_symbol: &str) -> Result<bool> {
        let i = (self
            .outputs
            .binary_search_by_key(&net_symbol, |(n, _)| n.as_str()))
        .map_err(|_| no_pad("output", net_symbol))?;
        Ok(self.outputs[i].1.value(&self.ble, &self.pad))
    }

    /// Settle the combinational logic: one sweep in dependency order.
    pub fn settle(&mut self) {
        for &j in &self.order {
            let v = self.luts[j].eval(&self.ble, &self.pad);
            self.ble[j] = v;
        }
    }

    /// One clock event: settle, capture every enabled FF, settle again.
    pub fn tick(&mut self) {
        self.settle();
        let captured: Vec<bool> = (self.clocked.iter())
            .map(|&j| self.luts[j].eval(&self.ble, &self.pad))
            .collect();
        for (&j, v) in self.clocked.iter().zip(captured) {
            self.ble[j] = v;
        }
        self.settle();
    }

    /// Reset every FF to its configured initial state.
    pub fn reset(&mut self) {
        for &(j, init) in &self.regs {
            self.ble[j] = init;
        }
        self.settle();
    }

    /// Input pad symbols, sorted.
    pub fn input_names(&self) -> Vec<String> {
        self.pad_names.clone()
    }

    /// Electrical net count (diagnostics).
    pub fn electrical_net_count(&self) -> usize {
        self.n_nets
    }
}

fn no_pad(dir: &str, net_symbol: &str) -> BitstreamError {
    BitstreamError::Fabric(format!("no {dir} pad carries '{net_symbol}'"))
}

/// The BLEs marked in `comb`, each after every such BLE it reads (a
/// depth-first post-order); on a loop, `Err` with a BLE on it.
fn levelize(luts: &[Lut], comb: &[bool]) -> std::result::Result<Vec<usize>, usize> {
    // 0 = not reached, 1 = on the search path, 2 = ordered.
    let mut mark = vec![0u8; luts.len()];
    let mut order = Vec::new();
    for start in (0..luts.len()).filter(|&j| comb[j]) {
        if mark[start] != 0 {
            continue;
        }
        mark[start] = 1;
        let mut path = vec![(start, 0)];
        while let Some((j, next)) = path.pop() {
            let Some(&src) = luts[j].inputs.get(next) else {
                mark[j] = 2;
                order.push(j);
                continue;
            };
            path.push((j, next + 1));
            match src {
                Source::Ble(d) if comb[d] && mark[d] == 1 => return Err(d),
                Source::Ble(d) if comb[d] && mark[d] == 0 => {
                    mark[d] = 1;
                    path.push((d, 0));
                }
                _ => {}
            }
        }
    }
    Ok(order)
}

/// Run the same random stimulus through the fabric and the reference
/// netlist simulator and compare primary outputs. The strongest check of
/// the whole flow: placement, routing and bitstream encoding must all be
/// right for this to pass.
pub fn verify_against_netlist(
    fabric: &mut Fabric,
    netlist: &fpga_netlist::Netlist,
    cycles: usize,
    seed: u64,
) -> Result<()> {
    use fpga_netlist::{mix::xorshift64, sim::Simulator};
    let mut sim = Simulator::new(netlist).map_err(|e| BitstreamError::Fabric(e.to_string()))?;
    fabric.reset();

    let mut state = seed | 1;
    let mut next_bit = || xorshift64(&mut state) & 1 == 1;

    let fabric_inputs = fabric.input_names();
    for cycle in 0..cycles {
        for &input in &netlist.inputs {
            if netlist.clocks.contains(&input) {
                continue;
            }
            let name = netlist.net_name(input).to_string();
            let bit = next_bit();
            sim.set_input(input, bit);
            if fabric_inputs.contains(&name) {
                fabric.set_input(&name, bit)?;
            }
        }
        sim.tick_all();
        fabric.tick();
        for &po in &netlist.outputs {
            let name = netlist.net_name(po);
            let want = sim.value(po);
            let got = fabric.read_output(name)?;
            if want != got {
                return Err(BitstreamError::Fabric(format!(
                    "output '{name}' differs at cycle {cycle}: reference {want}, fabric {got}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::generate;
    use fpga_arch::device::Device;
    use fpga_arch::{Architecture, ClbArch};
    use fpga_netlist::ir::{CellKind, NetId, Netlist};
    use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};
    use fpga_route::rrgraph::RrGraph;
    use fpga_route::{PathFinderRouter, RouteConfig, RouteEngine};

    fn flow_bitstream(nl: &Netlist) -> Bitstream {
        let c = fpga_pack::pack(nl, &ClbArch::paper_default()).unwrap();
        let device = Device::sized_for(
            Architecture::paper_default(),
            c.clusters.len(),
            nl.inputs.len() + nl.outputs.len() + 2,
        );
        let p = AnnealingPlacer::new(PlaceConfig::new().seed(11).inner_num(1.5))
            .place(&c, device)
            .unwrap();
        let g = RrGraph::build(&p.device, p.device.arch.routing.channel_width.max(8));
        let r = PathFinderRouter::new(RouteConfig::new())
            .route(&c, &p, &g)
            .unwrap();
        let bs = generate(&c, &p, &r, &g).unwrap();
        // Exercise serialization in the loop as well.
        let bytes = crate::frames::write(&bs);
        crate::frames::parse(&bytes).unwrap()
    }

    fn full_flow(nl: &Netlist) -> (Fabric, Netlist) {
        (Fabric::new(flow_bitstream(nl)).unwrap(), nl.clone())
    }

    /// y = maj(a, b, c); z = a xor b xor c.
    fn comb_netlist() -> Netlist {
        let mut nl = Netlist::new("comb");
        let a = nl.net("a");
        let b = nl.net("b");
        let cnet = nl.net("c");
        let y = nl.net("y");
        let z = nl.net("z");
        for &i in &[a, b, cnet] {
            nl.add_input(i);
        }
        nl.add_output(y);
        nl.add_output(z);
        nl.add_cell(
            "m",
            CellKind::Lut {
                k: 3,
                truth: 0b1110_1000,
            },
            vec![a, b, cnet],
            y,
        );
        nl.add_cell(
            "x",
            CellKind::Lut {
                k: 3,
                truth: 0b1001_0110,
            },
            vec![a, b, cnet],
            z,
        );
        nl
    }

    #[test]
    fn combinational_design_emulates() {
        let (mut fabric, golden) = full_flow(&comb_netlist());
        verify_against_netlist(&mut fabric, &golden, 64, 5).unwrap();
    }

    #[test]
    fn sequential_design_emulates() {
        // 4-bit shift register with an XOR tap.
        let mut nl = Netlist::new("shift");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let din = nl.net("din");
        nl.add_input(din);
        let mut prev = din;
        let mut taps: Vec<NetId> = Vec::new();
        for i in 0..4 {
            let q = nl.net(&format!("q{i}"));
            nl.add_cell(
                &format!("f{i}"),
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![prev],
                q,
            );
            taps.push(q);
            prev = q;
        }
        let y = nl.net("y");
        nl.add_output(y);
        nl.add_cell(
            "tap",
            CellKind::Lut {
                k: 2,
                truth: 0b0110,
            },
            vec![taps[1], taps[3]],
            y,
        );
        let (mut fabric, golden) = full_flow(&nl);
        verify_against_netlist(&mut fabric, &golden, 64, 6).unwrap();
    }

    #[test]
    fn multi_cluster_design_emulates() {
        // Wide enough to force several clusters: 12 parallel LUT+FF pairs
        // reduced by an XOR tree.
        let mut nl = Netlist::new("wide");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let mut qs = Vec::new();
        for i in 0..12 {
            let a = nl.net(&format!("a{i}"));
            let b = nl.net(&format!("b{i}"));
            nl.add_input(a);
            nl.add_input(b);
            let d = nl.net(&format!("d{i}"));
            let q = nl.net(&format!("q{i}"));
            nl.add_cell(
                &format!("l{i}"),
                CellKind::Lut {
                    k: 2,
                    truth: 0b1000,
                },
                vec![a, b],
                d,
            );
            nl.add_cell(
                &format!("f{i}"),
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![d],
                q,
            );
            qs.push(q);
        }
        // XOR reduce in pairs with 2-LUTs.
        let mut layer = qs;
        let mut lvl = 0;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for (j, pair) in layer.chunks(2).enumerate() {
                if pair.len() == 2 {
                    let w = nl.net(&format!("x{lvl}_{j}"));
                    nl.add_cell(
                        &format!("g{lvl}_{j}"),
                        CellKind::Lut {
                            k: 2,
                            truth: 0b0110,
                        },
                        vec![pair[0], pair[1]],
                        w,
                    );
                    next.push(w);
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
            lvl += 1;
        }
        nl.add_output(layer[0]);
        let (mut fabric, golden) = full_flow(&nl);
        assert!(fabric.electrical_net_count() > 10);
        verify_against_netlist(&mut fabric, &golden, 48, 7).unwrap();
    }

    #[test]
    fn missing_pad_symbols_error() {
        let mut nl = Netlist::new("t");
        let a = nl.net("a");
        let y = nl.net("y");
        nl.add_input(a);
        nl.add_output(y);
        nl.add_cell("l", CellKind::Lut { k: 1, truth: 0b01 }, vec![a], y);
        let (mut fabric, _) = full_flow(&nl);
        assert!(fabric.set_input("nonexistent", true).is_err());
        assert!(fabric.read_output("nonexistent").is_err());
        assert!(fabric.set_input("a", true).is_ok());
    }

    #[test]
    fn contention_names_the_lower_driver_first_every_time() {
        // Short the first two driven output connections' wires together.
        let mut bs = flow_bitstream(&comb_netlist());
        let mut outs = bs.cb_outputs.iter().copied();
        let (o0, w0) = outs.next().unwrap();
        let (o1, w1) = outs.find(|&(o, _)| o != o0).unwrap();
        bs.sb_switches.insert((w0, w1));
        let opin = |(x, y, pin)| RrKind::Opin { x, y, pin };
        let (a, b) = (opin(o0), opin(o1));
        let want = format!(
            "electrical contention: {:?} and {:?} drive the same net",
            a.min(b),
            a.max(b)
        );
        for _ in 0..20 {
            match Fabric::new(bs.clone()) {
                Err(BitstreamError::Fabric(m)) => assert_eq!(m, want),
                other => panic!("expected contention, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn combinational_self_feedback_is_refused_as_a_loop() {
        let mut bs = flow_bitstream(&comb_netlist());
        let (ci, slot) = (bs.clbs.iter().enumerate())
            .find_map(|(ci, clb)| {
                let slot = clb.bles.iter().position(|b| b.used && !b.registered)?;
                Some((ci, slot))
            })
            .unwrap();
        bs.clbs[ci].bles[slot].inputs[0] = XbarSel::Feedback(slot as u8);
        let loc = bs.clbs[ci].loc;
        let want = format!(
            "combinational loop through slot {slot} of the CLB at ({}, {})",
            loc.x, loc.y
        );
        assert!(
            matches!(Fabric::new(bs), Err(BitstreamError::Fabric(m)) if m == want),
            "want: {want}"
        );
    }

    #[test]
    fn output_connection_below_the_output_pins_reads_low() {
        // A CLB input-pin number used as an output connection, on a wire
        // nothing else touches: the net it drives is simply low.
        let nl = comb_netlist();
        let mut bs = flow_bitstream(&nl);
        let loc = bs.clbs[0].loc;
        let spare = RrKind::Chanx {
            x: loc.x,
            y: loc.y,
            t: 999,
        };
        bs.cb_outputs.insert(((loc.x, loc.y, 0), spare));
        let mut fabric = Fabric::new(bs).unwrap();
        verify_against_netlist(&mut fabric, &nl, 16, 5).unwrap();
    }
}
