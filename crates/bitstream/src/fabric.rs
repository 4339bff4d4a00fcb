//! Fabric-level functional simulation of a configured device.
//!
//! The emulator reconstructs the electrical structure a bitstream
//! creates — wires shorted together through closed switch-box switches,
//! pins tapped onto wires through connection boxes — and then evaluates
//! the configured LUTs, crossbars, and flip-flops cycle by cycle. Nothing
//! here looks at the original netlist: if the emulated device behaves like
//! the reference simulation, the whole flow (mapping through DAGGER) is
//! end-to-end correct.

use std::collections::HashMap;

use fpga_route::rrgraph::RrKind;

use crate::config::{Bitstream, IoMode, WireKey, XbarSel};
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

/// A configured, emulatable device.
pub struct Fabric {
    bs: Bitstream,
    /// Wire/pin key -> electrical net index.
    net_of: HashMap<WireKey, usize>,
    n_nets: usize,
    /// Driver of each electrical net: an OPIN key.
    driver_of_net: Vec<Option<WireKey>>,
    /// FF state per (clb index, ble slot).
    ff_state: Vec<Vec<bool>>,
    /// Current value per electrical net.
    net_values: Vec<bool>,
    /// Current BLE output values per (clb, slot).
    ble_out: Vec<Vec<bool>>,
    /// Input pad values by net symbol.
    pad_inputs: HashMap<String, bool>,
}

impl Fabric {
    /// Build the electrical model from a bitstream.
    pub fn new(bs: Bitstream) -> Result<Fabric> {
        // Collect every key that participates in connectivity.
        let mut keys: Vec<WireKey> = Vec::new();
        let mut key_index: HashMap<WireKey, usize> = HashMap::new();
        let intern = |k: WireKey,
                      keys: &mut Vec<WireKey>,
                      key_index: &mut HashMap<WireKey, usize>|
         -> usize {
            *key_index.entry(k).or_insert_with(|| {
                keys.push(k);
                keys.len() - 1
            })
        };
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (a, b) in &bs.sb_switches {
            let ia = intern(*a, &mut keys, &mut key_index);
            let ib = intern(*b, &mut keys, &mut key_index);
            pairs.push((ia, ib));
        }
        for ((x, y, pin), wire) in &bs.cb_inputs {
            let ipin = intern(
                RrKind::Ipin {
                    x: *x,
                    y: *y,
                    pin: *pin,
                },
                &mut keys,
                &mut key_index,
            );
            let iw = intern(*wire, &mut keys, &mut key_index);
            pairs.push((ipin, iw));
        }
        for ((x, y, pin), wire) in &bs.cb_outputs {
            let opin = intern(
                RrKind::Opin {
                    x: *x,
                    y: *y,
                    pin: *pin,
                },
                &mut keys,
                &mut key_index,
            );
            let iw = intern(*wire, &mut keys, &mut key_index);
            pairs.push((opin, iw));
        }
        // IO pads participate even if unrouted (unused pads park).
        for io in &bs.ios {
            let k = match io.mode {
                IoMode::Input => RrKind::Opin {
                    x: io.loc.x,
                    y: io.loc.y,
                    pin: io.sub,
                },
                IoMode::Output => RrKind::Ipin {
                    x: io.loc.x,
                    y: io.loc.y,
                    pin: io.sub,
                },
                IoMode::Unused => continue,
            };
            intern(k, &mut keys, &mut key_index);
        }

        let mut dsu = Dsu::new(keys.len());
        for (a, b) in pairs {
            dsu.union(a, b);
        }

        // Electrical nets = DSU roots.
        let mut net_of: HashMap<WireKey, usize> = HashMap::new();
        let mut root_to_net: HashMap<usize, usize> = HashMap::new();
        let mut n_nets = 0usize;
        for (i, &k) in keys.iter().enumerate() {
            let root = dsu.find(i);
            let net = *root_to_net.entry(root).or_insert_with(|| {
                n_nets += 1;
                n_nets - 1
            });
            net_of.insert(k, net);
        }

        // Drivers: exactly one OPIN per net (contention check).
        let mut driver_of_net: Vec<Option<WireKey>> = vec![None; n_nets];
        for (&k, &net) in &net_of {
            if let RrKind::Opin { .. } = k {
                if let Some(prev) = driver_of_net[net] {
                    return Err(BitstreamError::Fabric(format!(
                        "electrical contention: {prev:?} and {k:?} drive the same net"
                    )));
                }
                driver_of_net[net] = Some(k);
            }
        }

        let ff_state: Vec<Vec<bool>> = bs
            .clbs
            .iter()
            .map(|clb| clb.bles.iter().map(|b| b.init).collect())
            .collect();
        let ble_out: Vec<Vec<bool>> = bs
            .clbs
            .iter()
            .map(|clb| vec![false; clb.bles.len()])
            .collect();

        let mut fabric = Fabric {
            bs,
            net_of,
            n_nets,
            driver_of_net,
            ff_state,
            net_values: vec![false; n_nets],
            ble_out,
            pad_inputs: HashMap::new(),
        };
        fabric.settle();
        Ok(fabric)
    }

    /// Set the value on an input pad, by its net symbol.
    pub fn set_input(&mut self, net_symbol: &str, value: bool) -> Result<()> {
        if !self
            .bs
            .ios
            .iter()
            .any(|io| io.mode == IoMode::Input && io.net == net_symbol)
        {
            return Err(BitstreamError::Fabric(format!(
                "no input pad carries '{net_symbol}'"
            )));
        }
        self.pad_inputs.insert(net_symbol.to_string(), value);
        Ok(())
    }

    /// Read the value observed by an output pad, by its net symbol.
    pub fn read_output(&self, net_symbol: &str) -> Result<bool> {
        let io = self
            .bs
            .ios
            .iter()
            .find(|io| io.mode == IoMode::Output && io.net == net_symbol)
            .ok_or_else(|| {
                BitstreamError::Fabric(format!("no output pad carries '{net_symbol}'"))
            })?;
        let key = RrKind::Ipin {
            x: io.loc.x,
            y: io.loc.y,
            pin: io.sub,
        };
        match self.net_of.get(&key) {
            Some(&net) => Ok(self.net_values[net]),
            None => Ok(false), // unconnected output pad reads low
        }
    }

    /// The value at a CLB input pin (through the connection box).
    fn clb_input_value(&self, x: u32, y: u32, pin: u32) -> bool {
        let key = RrKind::Ipin { x, y, pin };
        match self.net_of.get(&key) {
            Some(&net) => self.net_values[net],
            None => false,
        }
    }

    /// Evaluate one BLE's LUT output from current values.
    fn eval_ble(&self, ci: usize, slot: usize) -> bool {
        let clb = &self.bs.clbs[ci];
        let ble = &clb.bles[slot];
        let mut m = 0usize;
        for (i, sel) in ble.inputs.iter().enumerate() {
            let v = match sel {
                XbarSel::ClusterInput(pin) => {
                    self.clb_input_value(clb.loc.x, clb.loc.y, *pin as u32)
                }
                XbarSel::Feedback(b) => self.ble_out[ci][*b as usize],
                XbarSel::Unused => false,
            };
            if v {
                m |= 1 << i;
            }
        }
        ble.truth >> m & 1 == 1
    }

    /// Propagate until the fabric is stable (combinational settle).
    pub fn settle(&mut self) {
        // Iterate: pads drive nets; CLB outputs drive nets; BLEs evaluate.
        // The configured design is acyclic through LUTs, so this
        // converges in at most #levels passes; cap generously.
        let max_passes = 4 * (self.bs.clbs.len() + 2);
        for _ in 0..max_passes {
            let mut changed = false;
            // 1. Drive nets from their drivers.
            for net in 0..self.n_nets {
                let v = match self.driver_of_net[net] {
                    Some(RrKind::Opin { x, y, pin }) => self.opin_value(x, y, pin),
                    _ => false,
                };
                if self.net_values[net] != v {
                    self.net_values[net] = v;
                    changed = true;
                }
            }
            // 2. Evaluate BLE outputs (registered BLEs hold FF state).
            for ci in 0..self.bs.clbs.len() {
                for slot in 0..self.bs.clbs[ci].bles.len() {
                    let ble = &self.bs.clbs[ci].bles[slot];
                    if !ble.used {
                        continue;
                    }
                    let v = if ble.registered {
                        self.ff_state[ci][slot]
                    } else {
                        self.eval_ble(ci, slot)
                    };
                    if self.ble_out[ci][slot] != v {
                        self.ble_out[ci][slot] = v;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// What an OPIN currently drives.
    fn opin_value(&self, x: u32, y: u32, pin: u32) -> bool {
        // CLB output pin?
        if let Some((ci, clb)) = self
            .bs
            .clbs
            .iter()
            .enumerate()
            .find(|(_, c)| c.loc.x == x && c.loc.y == y)
        {
            let slot = pin as usize - self.bs.clb_inputs;
            if slot < clb.bles.len() {
                return self.ble_out[ci][slot];
            }
            return false;
        }
        // Input pad?
        if let Some(io) =
            self.bs.ios.iter().find(|io| {
                io.mode == IoMode::Input && io.loc.x == x && io.loc.y == y && io.sub == pin
            })
        {
            return self.pad_inputs.get(&io.net).copied().unwrap_or(false);
        }
        false
    }

    /// One clock event: settle, capture every enabled FF, settle again.
    pub fn tick(&mut self) {
        self.settle();
        let mut captures: Vec<(usize, usize, bool)> = Vec::new();
        for (ci, clb) in self.bs.clbs.iter().enumerate() {
            if !clb.clock_enable {
                continue;
            }
            for (slot, ble) in clb.bles.iter().enumerate() {
                if ble.used && ble.registered && ble.clock_enable {
                    captures.push((ci, slot, self.eval_ble(ci, slot)));
                }
            }
        }
        for (ci, slot, v) in captures {
            self.ff_state[ci][slot] = v;
        }
        self.settle();
    }

    /// Reset every FF to its configured initial state.
    pub fn reset(&mut self) {
        for (ci, clb) in self.bs.clbs.iter().enumerate() {
            for (slot, ble) in clb.bles.iter().enumerate() {
                self.ff_state[ci][slot] = ble.init;
            }
        }
        self.settle();
    }

    /// Input pad symbols.
    pub fn input_names(&self) -> Vec<String> {
        self.bs
            .ios
            .iter()
            .filter(|io| io.mode == IoMode::Input)
            .map(|io| io.net.clone())
            .collect()
    }

    /// Electrical net count (diagnostics).
    pub fn electrical_net_count(&self) -> usize {
        self.n_nets
    }
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

    fn full_flow(nl: &Netlist) -> (Fabric, Netlist) {
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
        let bs2 = crate::frames::parse(&bytes).unwrap();
        (Fabric::new(bs2).unwrap(), nl.clone())
    }

    #[test]
    fn combinational_design_emulates() {
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
        // y = maj(a, b, c); z = a xor b xor c.
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
        let (mut fabric, golden) = full_flow(&nl);
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
}
