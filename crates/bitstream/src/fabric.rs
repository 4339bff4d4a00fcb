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
//! What each configuration bit means is decoded in one place,
//! [`Decoded::new`]: every LUT input and output pad is bound to the one
//! BLE or input pad that drives it. [`Fabric::new`] compiles that decode
//! to the netlist crate's [`Tape`], the evaluator every simulation in the
//! flow runs on, so a settle is one pass over the tape; `fpga-verify`'s
//! bitstream view rebuilds its netlist from the same decode.

use fpga_netlist::ir::{Cell, CellKind, NetId};
use fpga_netlist::tape::{lanes, Tape};
use fpga_route::rrgraph::RrKind;

use crate::config::{Bitstream, IoConfig, IoMode, WireKey, XbarSel};
use crate::{BitstreamError, Result};

/// Union-find over wire-key indices `0..n`: the reduction from closed
/// switches to electrical nets.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// A wire key as one integer, in the key's own order: kind, x, y, then
/// pin or track. Sorting these, not the enum, keeps the decode's sort and
/// lookups cheap.
fn packed(k: WireKey) -> u128 {
    let (tag, x, y, t) = match k {
        RrKind::Opin { x, y, pin } => (OPIN, x, y, pin),
        RrKind::Ipin { x, y, pin } => (1, x, y, pin),
        RrKind::Chanx { x, y, t } => (2, x, y, t),
        RrKind::Chany { x, y, t } => (3, x, y, t),
    };
    tag << 96 | (x as u128) << 64 | (y as u128) << 32 | t as u128
}

/// [`packed`]'s kind tag of an output pin: the lowest, so output pins sort
/// first.
const OPIN: u128 = 0;

/// What drives a pin.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Nothing: an undriven pin, an unused BLE or an empty feedback slot.
    Low,
    /// A used BLE's output, by index into [`Decoded::slots`].
    Ble(usize),
    /// An input pad, by index into [`Decoded::pads`].
    Pad(usize),
}

/// One BLE slot as the bitstream configures it.
#[derive(Debug)]
pub struct Slot {
    /// Its CLB, by index into [`Bitstream::clbs`], and its slot there.
    pub clb: usize,
    pub slot: usize,
    pub used: bool,
    pub registered: bool,
    /// The BLE's and its CLB's clock enables are both set: a registered
    /// BLE captures on a tick, and holds `init` otherwise.
    pub clocked: bool,
    pub init: bool,
    pub truth: u64,
    /// What drives each LUT input, in crossbar order.
    pub inputs: Vec<Source>,
}

/// A bitstream's configuration, decoded once: what each LUT input and
/// output pad reads.
#[derive(Debug)]
pub struct Decoded {
    /// Every BLE slot, flat over the CLBs in bitstream order.
    pub slots: Vec<Slot>,
    /// Input pad symbols, sorted and deduplicated.
    pub pads: Vec<String>,
    /// Output pad symbols, sorted, each with its first pad's source.
    pub outputs: Vec<(String, Source)>,
    /// Electrical net count.
    pub nets: usize,
}

/// Two output pins on one electrical net, the lower key first, with what
/// each one is. The configuration is refused; the rest of its decode
/// rides along (the net reads its lower pin) so a reader can name both.
#[derive(Debug)]
pub struct Contention {
    pub pins: [(WireKey, Source); 2],
    pub decoded: Decoded,
}

impl Decoded {
    /// Decode the connectivity of a bitstream. The first CLB or input pad
    /// at a location wins; a pin nothing drives, an unused BLE, an empty
    /// feedback slot and a CLB output connection below the output pins
    /// all read [`Source::Low`]. Two output pins on one net are refused.
    pub fn new(bs: &Bitstream) -> std::result::Result<Decoded, Box<Contention>> {
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
        // `keys`: the distinct keys, sorted; `key_of[i]`: the index there
        // of the `i`th key met (the pairs' ends in order, then the pads).
        let mut sorted: Vec<(u128, usize)> = (pairs.iter().flat_map(|&(a, b)| [a, b]))
            .chain(bs.ios.iter().filter_map(pad_key))
            .map(packed)
            .zip(0..)
            .collect();
        sorted.sort_unstable();
        let mut keys: Vec<u128> = Vec::with_capacity(sorted.len());
        let mut key_of = vec![0usize; sorted.len()];
        for (k, i) in sorted {
            if keys.last() != Some(&k) {
                keys.push(k);
            }
            key_of[i] = keys.len() - 1;
        }
        let mut dsu = Dsu::new(keys.len());
        for ab in key_of[..2 * pairs.len()].chunks_exact(2) {
            dsu.union(ab[0], ab[1]);
        }
        let root: Vec<usize> = (0..keys.len()).map(|i| dsu.find(i)).collect();
        let nets = (root.iter().enumerate()).filter(|&(i, &r)| i == r).count();

        // What an output pin is: a slot of the first CLB at its location,
        // else the first input pad there.
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
        let mut pads: Vec<String> = inputs.clone().map(|io| io.net.clone()).collect();
        pads.sort_unstable();
        pads.dedup();
        let mut pad_at: Vec<((u32, u32, u32), Source)> = inputs
            .map(|io| {
                let p = pads.binary_search(&io.net).map_or(Source::Low, Source::Pad);
                ((io.loc.x, io.loc.y, io.sub), p)
            })
            .collect();
        pad_at.sort_by_key(|e| e.0);
        pad_at.dedup_by_key(|e| e.0);
        let pin_src = |x, y, pin| match clb_at.binary_search_by_key(&(x, y), |e| e.0) {
            Ok(i) => (pin as usize)
                .checked_sub(bs.clb_inputs)
                .map_or(Source::Low, |slot| ble_src(clb_at[i].1, slot)),
            Err(_) => (pad_at.binary_search_by_key(&(x, y, pin), |e| e.0))
                .map_or(Source::Low, |i| pad_at[i].1),
        };

        // Each net's one driving output pin, found in key order (output
        // pins sort first); a second one is contention, named with the
        // first.
        let mut driver: Vec<Option<WireKey>> = vec![None; keys.len()];
        let mut net_src = vec![Source::Low; keys.len()];
        let mut contention = None;
        for (&k, &r) in keys.iter().zip(&root) {
            if k >> 96 != OPIN {
                break;
            }
            let (x, y, pin) = ((k >> 64) as u32, (k >> 32) as u32, k as u32);
            let k = opin(x, y, pin);
            match driver[r] {
                Some(prev) => {
                    contention.get_or_insert([(prev, net_src[r]), (k, pin_src(x, y, pin))]);
                }
                None => {
                    driver[r] = Some(k);
                    net_src[r] = pin_src(x, y, pin);
                }
            }
        }
        let read = |x, y, pin| {
            let k = keys.binary_search(&packed(ipin(x, y, pin)));
            k.map_or(Source::Low, |i| net_src[root[i]])
        };

        let mut slots = Vec::new();
        for (ci, clb) in bs.clbs.iter().enumerate() {
            for (slot, ble) in clb.bles.iter().enumerate() {
                let inputs = (ble.inputs.iter())
                    .map(|sel| match *sel {
                        XbarSel::ClusterInput(p) => read(clb.loc.x, clb.loc.y, p as u32),
                        XbarSel::Feedback(b) => ble_src(ci, b as usize),
                        XbarSel::Unused => Source::Low,
                    })
                    .collect();
                slots.push(Slot {
                    clb: ci,
                    slot,
                    used: ble.used,
                    registered: ble.registered,
                    clocked: ble.clock_enable && clb.clock_enable,
                    init: ble.init,
                    truth: ble.truth,
                    inputs,
                });
            }
        }

        let mut outputs: Vec<(String, Source)> = (bs.ios.iter())
            .filter(|io| io.mode == IoMode::Output)
            .map(|io| (io.net.clone(), read(io.loc.x, io.loc.y, io.sub)))
            .collect();
        outputs.sort_by(|a, b| a.0.cmp(&b.0));
        outputs.dedup_by(|a, b| a.0 == b.0);

        let decoded = Decoded {
            slots,
            pads,
            outputs,
            nets,
        };
        match contention {
            None => Ok(decoded),
            Some(pins) => Err(Box::new(Contention { pins, decoded })),
        }
    }

    /// The emulator's net for what a source carries: net 0 reads low,
    /// then one net per input pad, then one per BLE slot.
    fn net(&self, s: Source) -> NetId {
        let i = match s {
            Source::Low => 0,
            Source::Pad(p) => 1 + p,
            Source::Ble(j) => 1 + self.pads.len() + j,
        };
        NetId(i as u32)
    }
}

/// A configured, emulatable device.
pub struct Fabric {
    decoded: Decoded,
    /// The decode as cells: net 0 reads low, then one net per input pad,
    /// one per BLE slot's output, and one per clocked BLE's D input.
    tape: Tape,
    /// One word per tape net, each 0 or !0 (the tape's lane 0).
    values: Vec<u64>,
}

impl Fabric {
    /// Build the electrical model from a bitstream. Two output pins on
    /// one net are contention, and a combinational loop is refused.
    pub fn new(bs: Bitstream) -> Result<Fabric> {
        let decoded = Decoded::new(&bs).map_err(|c| {
            let [(a, _), (b, _)] = c.pins;
            BitstreamError::Fabric(format!(
                "electrical contention: {a:?} and {b:?} drive the same net"
            ))
        })?;
        let slots = &decoded.slots;
        let net = |s: Source| decoded.net(s);
        // A registered BLE whose clock is gated off holds `init`: a
        // constant. A clocked one's LUT drives its own D net.
        let cell = |kind, inputs, output| Cell {
            name: String::new(),
            kind,
            inputs,
            output,
        };
        let (mut cells, mut slot_of) = (Vec::new(), Vec::new());
        let mut nets = net(Source::Ble(slots.len())).index();
        for (j, s) in slots.iter().enumerate().filter(|(_, s)| s.used) {
            let out = net(Source::Ble(j));
            let k = s.inputs.len() as u8;
            let lut = CellKind::Lut { k, truth: s.truth };
            let ins = s.inputs.iter().map(|&i| net(i)).collect();
            if !s.registered {
                cells.push(cell(lut, ins, out));
            } else if !s.clocked {
                let held = if s.init {
                    CellKind::Const1
                } else {
                    CellKind::Const0
                };
                cells.push(cell(held, Vec::new(), out));
            } else {
                let d = NetId(nets as u32);
                nets += 1;
                cells.push(cell(lut, ins, d));
                let (clock, init) = (net(Source::Low), s.init);
                cells.push(cell(CellKind::Dff { clock, init }, vec![d], out));
            }
            slot_of.resize(cells.len(), j);
        }
        let tape = Tape::new(nets, &cells).map_err(|c| {
            let s = &slots[slot_of[c.on_cycle.index()]];
            let loc = bs.clbs[s.clb].loc;
            BitstreamError::Fabric(format!(
                "combinational loop through slot {} of the CLB at ({}, {})",
                s.slot, loc.x, loc.y
            ))
        })?;
        let mut fabric = Fabric {
            values: tape.values(),
            decoded,
            tape,
        };
        fabric.reset();
        Ok(fabric)
    }

    /// The tape net of the input pad carrying `net_symbol`.
    fn pad(&self, net_symbol: &str) -> Result<NetId> {
        let i = (self.decoded.pads)
            .binary_search_by_key(&net_symbol, String::as_str)
            .map_err(|_| no_pad("input", net_symbol))?;
        Ok(self.decoded.net(Source::Pad(i)))
    }

    /// The tape net the output pad carrying `net_symbol` reads.
    fn output(&self, net_symbol: &str) -> Result<NetId> {
        let outputs = &self.decoded.outputs;
        let i = (outputs.binary_search_by_key(&net_symbol, |(n, _)| n.as_str()))
            .map_err(|_| no_pad("output", net_symbol))?;
        Ok(self.decoded.net(outputs[i].1))
    }

    /// Set the value on an input pad, by its net symbol.
    pub fn set_input(&mut self, net_symbol: &str, value: bool) -> Result<()> {
        let net = self.pad(net_symbol)?;
        self.values[net.index()] = lanes(value as u64);
        Ok(())
    }

    /// Read the value observed by an output pad, by its net symbol.
    pub fn read_output(&self, net_symbol: &str) -> Result<bool> {
        Ok(self.values[self.output(net_symbol)?.index()] & 1 == 1)
    }

    /// One clock event: settle, capture every enabled FF, settle again.
    pub fn tick(&mut self) {
        self.tape.eval1(&mut self.values);
        self.tape.capture(&mut self.values, None);
        self.tape.eval1(&mut self.values);
    }

    /// Reset every FF to its configured initial state.
    pub fn reset(&mut self) {
        self.tape.reset(&mut self.values);
        self.tape.eval1(&mut self.values);
    }

    /// Electrical net count (diagnostics).
    pub fn electrical_net_count(&self) -> usize {
        self.decoded.nets
    }
}

fn no_pad(dir: &str, net_symbol: &str) -> BitstreamError {
    BitstreamError::Fabric(format!("no {dir} pad carries '{net_symbol}'"))
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

    // Each data input with the fabric net of the pad carrying it, if one
    // does, and each output with the net its pad reads: resolved once.
    let inputs: Vec<(NetId, Option<NetId>)> = (netlist.inputs.iter())
        .filter(|i| !netlist.clocks.contains(i))
        .map(|&i| (i, fabric.pad(netlist.net_name(i)).ok()))
        .collect();
    let outputs = (netlist.outputs.iter())
        .map(|&po| Ok((po, fabric.output(netlist.net_name(po))?)))
        .collect::<Result<Vec<_>>>()?;
    for cycle in 0..cycles {
        for &(input, pad) in &inputs {
            let bit = next_bit();
            sim.set_input(input, bit);
            if let Some(pad) = pad {
                fabric.values[pad.index()] = lanes(bit as u64);
            }
        }
        sim.tick_all();
        fabric.tick();
        for &(po, pad) in &outputs {
            let want = sim.value(po);
            let got = fabric.values[pad.index()] & 1 == 1;
            if want != got {
                let name = netlist.net_name(po);
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
