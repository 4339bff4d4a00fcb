//! The decoded configuration model and its generation from a packed,
//! placed, and routed design.

use std::collections::{BTreeMap, BTreeSet};

use fpga_arch::device::{Device, GridLoc};
use fpga_netlist::ir::CellKind;
use fpga_pack::{ClusterId, Clustering};
use fpga_place::{BlockRef, Placement};
use fpga_route::rrgraph::{RrGraph, RrKind};
use fpga_route::RouteResult;

use crate::{BitstreamError, Result};

/// Crossbar selection for one LUT input (the 17:1 mux of §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum XbarSel {
    /// One of the cluster's I input pins.
    ClusterInput(u8),
    /// Feedback from BLE slot `b`'s output.
    Feedback(u8),
    /// Mux parked (input unused).
    Unused,
}

impl XbarSel {
    /// 5-bit encoding: 0..I = inputs, I..I+N = feedback, 31 = unused.
    pub fn encode(&self, inputs: usize) -> u8 {
        match self {
            XbarSel::ClusterInput(i) => *i,
            XbarSel::Feedback(b) => inputs as u8 + *b,
            XbarSel::Unused => 31,
        }
    }

    pub fn decode(code: u8, inputs: usize, cluster_size: usize) -> Result<XbarSel> {
        let inputs = inputs as u8;
        let n = cluster_size as u8;
        if code == 31 {
            Ok(XbarSel::Unused)
        } else if code < inputs {
            Ok(XbarSel::ClusterInput(code))
        } else if code < inputs + n {
            Ok(XbarSel::Feedback(code - inputs))
        } else {
            Err(BitstreamError::Format(format!("bad crossbar code {code}")))
        }
    }
}

/// Configuration of one BLE.
#[derive(Clone, Debug, PartialEq)]
pub struct BleConfig {
    pub used: bool,
    /// Truth table of the K-LUT (bit m = output for minterm m; up to
    /// 64 bits for K = 6).
    pub truth: u64,
    /// One crossbar selection per LUT input (K = 4).
    pub inputs: Vec<XbarSel>,
    /// Output mux: registered (FF) or combinational.
    pub registered: bool,
    /// BLE-level clock enable (Table 2's gate).
    pub clock_enable: bool,
    /// FF initial state.
    pub init: bool,
}

impl BleConfig {
    pub fn unused(k: usize) -> Self {
        BleConfig {
            used: false,
            truth: 0,
            inputs: vec![XbarSel::Unused; k],
            registered: false,
            clock_enable: false,
            init: false,
        }
    }
}

/// Configuration of one CLB tile.
#[derive(Clone, Debug, PartialEq)]
pub struct ClbConfig {
    pub loc: GridLoc,
    pub bles: Vec<BleConfig>,
    /// CLB-level clock enable (Table 3's gate).
    pub clock_enable: bool,
}

/// IO pad mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoMode {
    Input,
    Output,
    Unused,
}

/// Configuration of one IO pad.
#[derive(Clone, Debug, PartialEq)]
pub struct IoConfig {
    pub loc: GridLoc,
    pub sub: u32,
    pub mode: IoMode,
    /// Symbol: the design net this pad carries (programming files ship
    /// with a pin map; the emulator uses it to bind stimulus).
    pub net: String,
}

/// A wire-endpoint key in the routing fabric (stable across graph builds).
pub type WireKey = RrKind;

/// The whole decoded bitstream.
#[derive(Clone, Debug, Default)]
pub struct Bitstream {
    pub width: usize,
    pub height: usize,
    pub channel_width: usize,
    pub lut_k: usize,
    pub cluster_size: usize,
    pub clb_inputs: usize,
    pub clbs: Vec<ClbConfig>,
    pub ios: Vec<IoConfig>,
    /// Closed wire-to-wire switch-box switches (canonical ordered pairs).
    pub sb_switches: BTreeSet<(WireKey, WireKey)>,
    /// Closed connection-box switches: input pin <- wire.
    pub cb_inputs: BTreeMap<(u32, u32, u32), WireKey>,
    /// Closed output connections: output pin -> wires.
    pub cb_outputs: BTreeSet<((u32, u32, u32), WireKey)>,
}

fn canon(a: WireKey, b: WireKey) -> (WireKey, WireKey) {
    // Order by debug encoding of coordinates for a canonical pair.
    let ka = wire_sort_key(&a);
    let kb = wire_sort_key(&b);
    if ka <= kb {
        (a, b)
    } else {
        (b, a)
    }
}

fn wire_sort_key(k: &WireKey) -> (u8, u32, u32, u32) {
    match *k {
        RrKind::Chanx { x, y, t } => (0, x, y, t),
        RrKind::Chany { x, y, t } => (1, x, y, t),
        RrKind::Opin { x, y, pin } => (2, x, y, pin),
        RrKind::Ipin { x, y, pin } => (3, x, y, pin),
    }
}

/// Expand a k'-input truth table to the full K-LUT (unused selects
/// replicate the function).
pub fn expand_truth(truth: u64, k_used: usize, k_full: usize) -> u64 {
    assert!(k_full <= 6);
    let mut out = 0u64;
    for m in 0..(1usize << k_full) {
        let mm = m & ((1 << k_used) - 1);
        if truth >> mm & 1 == 1 {
            out |= 1 << m;
        }
    }
    out
}

/// Generate the bitstream for a packed, placed, routed design.
pub fn generate(
    clustering: &Clustering,
    placement: &Placement,
    routing: &RouteResult,
    graph: &RrGraph,
) -> Result<Bitstream> {
    let device: &Device = &placement.device;
    let arch = &device.arch;
    let k = arch.clb.lut_k;
    let nl = &clustering.netlist;

    let mut bs = Bitstream {
        width: device.width,
        height: device.height,
        channel_width: routing.channel_width,
        lut_k: k,
        cluster_size: arch.clb.cluster_size,
        clb_inputs: arch.clb.inputs,
        ..Default::default()
    };

    // --- CLB configurations.
    for (ci, cluster) in clustering.clusters.iter().enumerate() {
        let id = ClusterId(ci as u32);
        let loc = placement.cluster_loc(id);
        let mut bles = Vec::with_capacity(arch.clb.cluster_size);
        for slot in 0..arch.clb.cluster_size {
            match cluster.bles.get(slot) {
                None => bles.push(BleConfig::unused(k)),
                Some(&bid) => {
                    let ble = &clustering.bles[bid.0 as usize];
                    // Crossbar selection for a net feeding a LUT input.
                    let sel_for = |net| -> Result<XbarSel> {
                        if let Some(idx) = cluster.input_pin(net) {
                            return Ok(XbarSel::ClusterInput(idx as u8));
                        }
                        if let Some(fb) = clustering.output_slot(id, net) {
                            return Ok(XbarSel::Feedback(fb as u8));
                        }
                        Err(BitstreamError::Generate(format!(
                            "net '{}' unreachable inside cluster {ci}",
                            nl.net_name(net)
                        )))
                    };
                    let (truth, input_nets): (u64, Vec<_>) = match ble.lut {
                        Some(lut) => {
                            let cell = &nl.cells[lut.index()];
                            match cell.kind {
                                CellKind::Lut { k: ku, truth } => {
                                    (expand_truth(truth, ku as usize, k), cell.inputs.clone())
                                }
                                _ => {
                                    return Err(BitstreamError::Generate(
                                        "BLE LUT cell is not a LUT".into(),
                                    ))
                                }
                            }
                        }
                        None => {
                            // Route-through: FF fed directly by input 0.
                            let d = ble.inputs[0];
                            (expand_truth(0b10, 1, k), vec![d])
                        }
                    };
                    let mut inputs = vec![XbarSel::Unused; k];
                    for (i, &net) in input_nets.iter().enumerate() {
                        inputs[i] = sel_for(net)?;
                    }
                    let (registered, init) = match ble.ff {
                        Some(ff) => match nl.cells[ff.index()].kind {
                            CellKind::Dff { init, .. } => (true, init),
                            _ => (true, false),
                        },
                        None => (false, false),
                    };
                    bles.push(BleConfig {
                        used: true,
                        truth,
                        inputs,
                        registered,
                        clock_enable: registered,
                        init,
                    });
                }
            }
        }
        bs.clbs.push(ClbConfig {
            loc,
            bles,
            clock_enable: cluster.clock.is_some(),
        });
    }

    // --- IO configurations.
    for (block, slot) in &placement.slots {
        match block {
            BlockRef::InputPad(n) => bs.ios.push(IoConfig {
                loc: slot.loc,
                sub: slot.sub,
                mode: IoMode::Input,
                net: nl.net_name(*n).to_string(),
            }),
            BlockRef::OutputPad(n) => bs.ios.push(IoConfig {
                loc: slot.loc,
                sub: slot.sub,
                mode: IoMode::Output,
                net: nl.net_name(*n).to_string(),
            }),
            BlockRef::Cluster(_) => {}
        }
    }
    bs.ios.sort_by_key(|io| (io.loc.x, io.loc.y, io.sub));

    // --- Routing switches from the routed trees.
    for net in &routing.nets {
        for (node, parent) in &net.tree {
            let Some(parent) = parent else { continue };
            let a = graph.kind(*parent);
            let b = graph.kind(*node);
            match (a, b) {
                (
                    RrKind::Chanx { .. } | RrKind::Chany { .. },
                    RrKind::Chanx { .. } | RrKind::Chany { .. },
                ) => {
                    bs.sb_switches.insert(canon(a, b));
                }
                (RrKind::Opin { x, y, pin }, wire) if wire.is_wire() => {
                    bs.cb_outputs.insert(((x, y, pin), wire));
                }
                (wire, RrKind::Ipin { x, y, pin }) if wire.is_wire() => {
                    if bs.cb_inputs.insert((x, y, pin), wire).is_some() {
                        return Err(BitstreamError::Generate(format!(
                            "input pin ({x},{y},{pin}) driven twice"
                        )));
                    }
                }
                (pa, pb) => {
                    return Err(BitstreamError::Generate(format!(
                        "illegal tree edge {pa:?} -> {pb:?}"
                    )))
                }
            }
        }
    }

    Ok(bs)
}

/// Config-bit accounting (the report DAGGER prints).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitBudget {
    pub lut_bits: usize,
    pub crossbar_bits: usize,
    pub ble_mode_bits: usize,
    pub routing_bits: usize,
    pub io_bits: usize,
}

impl BitBudget {
    pub fn total(&self) -> usize {
        self.lut_bits + self.crossbar_bits + self.ble_mode_bits + self.routing_bits + self.io_bits
    }
}

/// How many configuration bits the device needs (independent of content).
pub fn bit_budget(bs: &Bitstream) -> BitBudget {
    let n_clb_tiles = bs.width * bs.height;
    let per_ble_lut = 1usize << bs.lut_k;
    let crossbar_sel_bits = 5; // 17:1 needs 5 bits
    let lut_bits = n_clb_tiles * bs.cluster_size * per_ble_lut;
    let crossbar_bits = n_clb_tiles * bs.cluster_size * bs.lut_k * crossbar_sel_bits;
    let ble_mode_bits = n_clb_tiles * (bs.cluster_size * 3 + 1); // reg, en, init + clb en
                                                                 // Routing: 6 bits per switch-box junction + Fc connections.
    let sb_junctions = (bs.width + 1) * (bs.height + 1) * bs.channel_width;
    let cb_bits = n_clb_tiles * (bs.clb_inputs + bs.cluster_size) * bs.channel_width;
    let routing_bits = sb_junctions * 6 + cb_bits;
    let io_bits = bs.ios.len().max(2 * (bs.width + bs.height)) * 2;
    BitBudget {
        lut_bits,
        crossbar_bits,
        ble_mode_bits,
        routing_bits,
        io_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xbar_encoding_roundtrip() {
        for sel in [
            XbarSel::ClusterInput(0),
            XbarSel::ClusterInput(11),
            XbarSel::Feedback(0),
            XbarSel::Feedback(4),
            XbarSel::Unused,
        ] {
            let code = sel.encode(12);
            let back = XbarSel::decode(code, 12, 5).unwrap();
            assert_eq!(back, sel);
        }
        assert!(XbarSel::decode(29, 12, 5).is_err());
    }

    #[test]
    fn truth_expansion_replicates() {
        // 2-input XOR expanded to 4 inputs: independent of inputs 2,3.
        let t = expand_truth(0b0110, 2, 4);
        for m in 0..16usize {
            let expect = ((m & 1) ^ ((m >> 1) & 1)) == 1;
            assert_eq!(t >> m & 1 == 1, expect, "m={m}");
        }
        // Constant-1 of 0 inputs.
        let t1 = expand_truth(0b1, 0, 4);
        assert_eq!(t1, 0xFFFF);
        // Full-width K = 6 expansion.
        let t6 = expand_truth(0b01, 1, 6);
        for m in 0..64u64 {
            assert_eq!(t6 >> m & 1 == 1, m & 1 == 0);
        }
    }

    #[test]
    fn unused_ble_is_parked() {
        let b = BleConfig::unused(4);
        assert!(!b.used);
        assert_eq!(b.inputs.len(), 4);
        assert!(b.inputs.iter().all(|s| *s == XbarSel::Unused));
    }
}
