//! The routing-resource graph.
//!
//! Geometry conventions (see `fpga_arch::device`): horizontal channel
//! segment `Chanx { x, y, t }` runs along row boundary `y` (0..=H) at
//! column `x` (1..=W); vertical segment `Chany { x, y, t }` runs along
//! column boundary `x` (0..=W) at row `y` (1..=H). A switch box sits at
//! every corner `(x, y)` with `x` in 0..=W, `y` in 0..=H, joining up to
//! four wires of the same track index (the disjoint topology, Fs = 3).
//!
//! Pins: CLB input pins are numbered `0..I`, output pins `I..I+N`; IO
//! tiles number their pads' fabric-driving pin (OPIN) and fabric-receiving
//! pin (IPIN) by the pad sub-slot.
//!
//! Node ids are arithmetic and part of the artifact contract (they are
//! heap tie-breakers in the router and are written into route artifacts):
//!
//! | block      | order                                   | id                                          |
//! |------------|-----------------------------------------|---------------------------------------------|
//! | `Chanx`    | `x` in 1..=W, `y` in 0..=H, `t`         | `((x-1)(H+1) + y)·cw + t`                   |
//! | `Chany`    | `x` in 0..=W, `y` in 1..=H, `t`         | `NX + (x·H + (y-1))·cw + t`                 |
//! | CLB pins   | `Device::clb_locs` order (row-major)    | `CLB + ((y-1)W + (x-1))·(I+N) + pin`        |
//! | pad pins   | `Device::io_locs` order, pad sub-slot   | `PAD + (loc·P + sub)·2 + {0: Opin, 1: Ipin}` |
//!
//! so `find` and `kind` are closed-form inverses of each other and the
//! graph stores no index. Adjacency is one CSR; every node's successor
//! range lists its wire successors first and its input-pin successors
//! after them, which lets the router leave the pin part unread unless
//! the wire borders a sink it is looking for.

use fpga_arch::device::{Device, GridLoc, PinClass};

/// Routing-resource node id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RrNodeId(pub u32);

/// Node kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RrKind {
    /// A block output pin at a grid location.
    Opin { x: u32, y: u32, pin: u32 },
    /// A block input pin.
    Ipin { x: u32, y: u32, pin: u32 },
    /// Horizontal channel wire.
    Chanx { x: u32, y: u32, t: u32 },
    /// Vertical channel wire.
    Chany { x: u32, y: u32, t: u32 },
}

impl RrKind {
    pub fn is_wire(&self) -> bool {
        matches!(self, RrKind::Chanx { .. } | RrKind::Chany { .. })
    }
}

/// The graph.
#[derive(Clone, Debug)]
pub struct RrGraph {
    device: Device,
    /// Grid and pin-count parameters as `u32`: W, H, tracks per channel,
    /// CLB inputs I, CLB outputs N, pads per IO tile P.
    w: u32,
    h: u32,
    cw: u32,
    clb_in: u32,
    clb_out: u32,
    pads: u32,
    /// First id of the chany / CLB-pin / pad-pin blocks, and the node count.
    chany_base: u32,
    clb_base: u32,
    pad_base: u32,
    n_nodes: u32,
    /// CSR forward adjacency (switches are bidirectional pass
    /// transistors, so wire-wire edges appear in both directions):
    /// node `i`'s successors are `targets[offsets[i]..offsets[i + 1]]`,
    /// wires in `..pin_split[i]`, input pins from there on.
    offsets: Vec<u32>,
    pin_split: Vec<u32>,
    targets: Vec<RrNodeId>,
    /// Grid label of every node, the one attribute the search reads per
    /// relaxed edge.
    tiles: Vec<(u16, u16)>,
}

impl RrGraph {
    pub fn node_count(&self) -> usize {
        self.n_nodes as usize
    }

    pub fn channel_width(&self) -> usize {
        self.cw as usize
    }

    /// Whether `id` is a channel wire (wires are numbered before pins).
    pub fn is_wire(&self, id: RrNodeId) -> bool {
        id.0 < self.clb_base
    }

    /// Perimeter IO locations in `Device::io_locs` order: bottom/top
    /// pairs by column, then left/right pairs by row.
    fn io_index(&self, x: u32, y: u32) -> Option<u32> {
        let (w, h) = (self.w, self.h);
        if (1..=w).contains(&x) && (y == 0 || y == h + 1) {
            Some(2 * (x - 1) + (y != 0) as u32)
        } else if (1..=h).contains(&y) && (x == 0 || x == w + 1) {
            Some(2 * w + 2 * (y - 1) + (x != 0) as u32)
        } else {
            None
        }
    }

    fn is_clb(&self, x: u32, y: u32) -> bool {
        (1..=self.w).contains(&x) && (1..=self.h).contains(&y)
    }

    fn chanx(&self, x: u32, y: u32, t: u32) -> RrNodeId {
        RrNodeId(((x - 1) * (self.h + 1) + y) * self.cw + t)
    }

    fn chany(&self, x: u32, y: u32, t: u32) -> RrNodeId {
        RrNodeId(self.chany_base + (x * self.h + (y - 1)) * self.cw + t)
    }

    fn wire(&self, (horiz, x, y): (bool, u32, u32), t: u32) -> RrNodeId {
        if horiz {
            self.chanx(x, y, t)
        } else {
            self.chany(x, y, t)
        }
    }

    fn clb_pin(&self, x: u32, y: u32, pin: u32) -> RrNodeId {
        let tile = (y - 1) * self.w + (x - 1);
        RrNodeId(self.clb_base + tile * (self.clb_in + self.clb_out) + pin)
    }

    fn pad_pin(&self, io_index: u32, sub: u32, input: bool) -> RrNodeId {
        RrNodeId(self.pad_base + (io_index * self.pads + sub) * 2 + input as u32)
    }

    pub fn find(&self, kind: RrKind) -> Option<RrNodeId> {
        let (w, h, cw) = (self.w, self.h, self.cw);
        match kind {
            RrKind::Chanx { x, y, t } => {
                ((1..=w).contains(&x) && y <= h && t < cw).then(|| self.chanx(x, y, t))
            }
            RrKind::Chany { x, y, t } => {
                (x <= w && (1..=h).contains(&y) && t < cw).then(|| self.chany(x, y, t))
            }
            RrKind::Ipin { x, y, pin } | RrKind::Opin { x, y, pin } => {
                let input = matches!(kind, RrKind::Ipin { .. });
                if self.is_clb(x, y) {
                    let pins = if input {
                        0..self.clb_in
                    } else {
                        self.clb_in..self.clb_in + self.clb_out
                    };
                    pins.contains(&pin).then(|| self.clb_pin(x, y, pin))
                } else {
                    let io = self.io_index(x, y)?;
                    (pin < self.pads).then(|| self.pad_pin(io, pin, input))
                }
            }
        }
    }

    /// Inverse of [`RrGraph::find`]. Panics on an id outside the graph.
    pub fn kind(&self, id: RrNodeId) -> RrKind {
        let (w, h, cw) = (self.w, self.h, self.cw);
        assert!(id.0 < self.n_nodes, "RR node {} out of range", id.0);
        if id.0 < self.chany_base {
            let (seg, t) = (id.0 / cw, id.0 % cw);
            let (x, y) = (seg / (h + 1) + 1, seg % (h + 1));
            RrKind::Chanx { x, y, t }
        } else if id.0 < self.clb_base {
            let r = id.0 - self.chany_base;
            let (seg, t) = (r / cw, r % cw);
            let (x, y) = (seg / h, seg % h + 1);
            RrKind::Chany { x, y, t }
        } else if id.0 < self.pad_base {
            let r = id.0 - self.clb_base;
            let per_tile = self.clb_in + self.clb_out;
            let (tile, pin) = (r / per_tile, r % per_tile);
            let (x, y) = (tile % w + 1, tile / w + 1);
            if pin < self.clb_in {
                RrKind::Ipin { x, y, pin }
            } else {
                RrKind::Opin { x, y, pin }
            }
        } else {
            let r = id.0 - self.pad_base;
            let (slot, input) = (r / 2, r % 2 == 1);
            let (io, pin) = (slot / self.pads, slot % self.pads);
            let (x, y) = if io < 2 * w {
                (io / 2 + 1, if io % 2 == 0 { 0 } else { h + 1 })
            } else {
                let j = io - 2 * w;
                (if j % 2 == 0 { 0 } else { w + 1 }, j / 2 + 1)
            };
            if input {
                RrKind::Ipin { x, y, pin }
            } else {
                RrKind::Opin { x, y, pin }
            }
        }
    }

    /// Forward adjacency of a node: its wire successors, then its
    /// input-pin successors.
    pub fn successors(&self, id: RrNodeId) -> &[RrNodeId] {
        let i = id.0 as usize;
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// [`RrGraph::successors`] cut at the wire/pin boundary.
    pub(crate) fn split_successors(&self, id: RrNodeId) -> (&[RrNodeId], &[RrNodeId]) {
        let i = id.0 as usize;
        let split = (self.pin_split[i] - self.offsets[i]) as usize;
        self.successors(id).split_at(split)
    }

    /// Grid label of a node: the `(x, y)` its [`RrKind`] carries.
    pub(crate) fn tile(&self, id: RrNodeId) -> (i32, i32) {
        let (x, y) = self.tiles[id.0 as usize];
        (x as i32, y as i32)
    }

    /// The tracks a pin with flexibility `fc` connects to in its channel:
    /// `ceil(fc * cw)` of them, spread evenly from track `pin` on. The
    /// stride walk repeats itself after `cw / gcd(stride, cw)` steps, so
    /// it is cut there and no track is listed twice.
    fn pin_tracks(&self, fc: f64, pin: u32) -> impl Iterator<Item = u32> {
        let cw = self.cw;
        let n = ((fc * cw as f64).ceil() as u32).clamp(1, cw);
        let stride = cw.div_ceil(n);
        let period = cw / gcd(stride, cw);
        (0..n.min(period)).map(move |k| (pin + k * stride) % cw)
    }

    /// The wires with an edge into input pin `ipin` — its only
    /// predecessors. Calls `f` with nothing if `ipin` is not an input pin.
    pub(crate) fn for_each_feeder(&self, ipin: RrNodeId, mut f: impl FnMut(RrNodeId)) {
        let RrKind::Ipin { x, y, pin } = self.kind(ipin) else {
            return;
        };
        let loc = GridLoc::new(x, y);
        if self.is_clb(x, y) {
            let chan = self.device.pin_channel(loc, PinClass::Input(pin));
            for t in self.pin_tracks(self.device.arch.routing.fc_in, pin) {
                f(self.wire(chan, t));
            }
        } else {
            let chan = self.device.io_channel(loc);
            for t in 0..self.cw {
                f(self.wire(chan, t));
            }
        }
    }

    /// Every edge, in the per-source order the adjacency lists carry:
    /// switch boxes corner by corner, then CLB pins in `clb_locs` order,
    /// then pads in `io_locs` order. A wire's wire successors are
    /// therefore emitted before any of its pin successors.
    fn for_each_edge(&self, mut edge: impl FnMut(RrNodeId, RrNodeId)) {
        let (w, h, cw) = (self.w, self.h, self.cw);
        // Disjoint switch boxes: same track index joins at each corner.
        // The four wires at corner (x, y): chanx(x, y) [west side],
        // chanx(x+1, y) [east], chany(x, y) [below], chany(x, y+1) [above].
        // No two wires meet at more than one corner, so no edge repeats.
        for x in 0..=w {
            for y in 0..=h {
                for t in 0..cw {
                    let mut here = [RrNodeId(0); 4];
                    let mut n = 0;
                    let mut push = |id| {
                        here[n] = id;
                        n += 1;
                    };
                    if x >= 1 {
                        push(self.chanx(x, y, t));
                    }
                    if x < w {
                        push(self.chanx(x + 1, y, t));
                    }
                    if y >= 1 {
                        push(self.chany(x, y, t));
                    }
                    if y < h {
                        push(self.chany(x, y + 1, t));
                    }
                    for (i, &a) in here[..n].iter().enumerate() {
                        for (j, &b) in here[..n].iter().enumerate() {
                            if i != j {
                                edge(a, b);
                            }
                        }
                    }
                }
            }
        }

        // CLB pins.
        let routing = &self.device.arch.routing;
        for loc in self.device.clb_locs() {
            for pin in 0..self.clb_in {
                let ipin = self.clb_pin(loc.x, loc.y, pin);
                let chan = self.device.pin_channel(loc, PinClass::Input(pin));
                for t in self.pin_tracks(routing.fc_in, pin) {
                    edge(self.wire(chan, t), ipin);
                }
            }
            for out in 0..self.clb_out {
                let pin = self.clb_in + out;
                let opin = self.clb_pin(loc.x, loc.y, pin);
                let chan = self.device.pin_channel(loc, PinClass::Output(out));
                for t in self.pin_tracks(routing.fc_out, pin) {
                    edge(opin, self.wire(chan, t));
                }
            }
        }

        // IO pads: every pad can both drive and receive on all tracks of
        // its adjacent channel (pads are flexible).
        for (io, loc) in self.device.io_locs().into_iter().enumerate() {
            debug_assert_eq!(self.io_index(loc.x, loc.y), Some(io as u32));
            let chan = self.device.io_channel(loc);
            for sub in 0..self.pads {
                let opin = self.pad_pin(io as u32, sub, false);
                let ipin = self.pad_pin(io as u32, sub, true);
                for t in 0..cw {
                    let wire = self.wire(chan, t);
                    edge(opin, wire);
                    edge(wire, ipin);
                }
            }
        }
    }

    /// Build the full graph for a device at the given channel width.
    pub fn build(device: &Device, channel_width: usize) -> RrGraph {
        let dim = |v: usize, what: &str| -> u32 {
            u32::try_from(v)
                .ok()
                .filter(|&v| v < u16::MAX as u32)
                .unwrap_or_else(|| panic!("{what} {v} is beyond the RR graph's range"))
        };
        let (w, h) = (
            dim(device.width, "grid width"),
            dim(device.height, "grid height"),
        );
        let cw = dim(channel_width, "channel width");
        assert!(
            w >= 1 && h >= 1 && cw >= 1,
            "empty RR graph: {w} x {h} grid, {cw} tracks"
        );
        let clb_in = dim(device.arch.clb.inputs, "CLB input count");
        let clb_out = dim(device.arch.clb.outputs, "CLB output count");
        let pads = dim(device.arch.io_per_tile, "pads per IO tile");
        let count = |v: u64| -> u32 { u32::try_from(v).expect("RR graph node ids fit in 32 bits") };
        let (w64, h64, cw64) = (w as u64, h as u64, cw as u64);
        let chany_base = count(w64 * (h64 + 1) * cw64);
        let clb_base = count(chany_base as u64 + (w64 + 1) * h64 * cw64);
        let pad_base = count(clb_base as u64 + w64 * h64 * (clb_in + clb_out) as u64);
        let n_nodes = count(pad_base as u64 + 2 * (w64 + h64) * pads as u64 * 2);
        let n = n_nodes as usize;
        let mut g = RrGraph {
            device: device.clone(),
            w,
            h,
            cw,
            clb_in,
            clb_out,
            pads,
            chany_base,
            clb_base,
            pad_base,
            n_nodes,
            offsets: Vec::new(),
            pin_split: Vec::new(),
            targets: Vec::new(),
            tiles: Vec::new(),
        };

        g.tiles = (0..n_nodes)
            .map(|id| match g.kind(RrNodeId(id)) {
                RrKind::Opin { x, y, .. }
                | RrKind::Ipin { x, y, .. }
                | RrKind::Chanx { x, y, .. }
                | RrKind::Chany { x, y, .. } => (x as u16, y as u16),
            })
            .collect();

        // Pass 1: out-degrees, wire successors counted apart.
        let mut degree = vec![0u32; n];
        let mut wire_degree = vec![0u32; n];
        g.for_each_edge(|from, to| {
            degree[from.0 as usize] += 1;
            wire_degree[from.0 as usize] += g.is_wire(to) as u32;
        });
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        for d in &degree {
            offsets.push(total);
            total = total
                .checked_add(*d)
                .expect("RR graph edge count fits in 32 bits");
        }
        offsets.push(total);
        // Pass 2: fill, reusing `degree` as each node's write cursor.
        let mut cursor = degree;
        cursor.copy_from_slice(&offsets[..n]);
        let mut targets = vec![RrNodeId(0); total as usize];
        g.for_each_edge(|from, to| {
            let c = &mut cursor[from.0 as usize];
            targets[*c as usize] = to;
            *c += 1;
        });
        g.pin_split = offsets[..n]
            .iter()
            .zip(&wire_degree)
            .map(|(o, d)| o + d)
            .collect();
        g.offsets = offsets;
        g.targets = targets;
        g
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Convenience: the RR node of a cluster's output pin for BLE slot `slot`.
pub fn clb_opin(g: &RrGraph, device: &Device, loc: GridLoc, slot: usize) -> Option<RrNodeId> {
    let pin = device.arch.clb.inputs as u32 + slot as u32;
    g.find(RrKind::Opin {
        x: loc.x,
        y: loc.y,
        pin,
    })
}

/// The RR node of a cluster's input pin at list position `idx`.
pub fn clb_ipin(g: &RrGraph, loc: GridLoc, idx: usize) -> Option<RrNodeId> {
    g.find(RrKind::Ipin {
        x: loc.x,
        y: loc.y,
        pin: idx as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_arch::Architecture;

    fn graph() -> (Device, RrGraph) {
        let device = Device::new(Architecture::paper_default(), 3, 3);
        let g = RrGraph::build(&device, 6);
        (device, g)
    }

    fn ids(g: &RrGraph) -> impl Iterator<Item = RrNodeId> {
        (0..g.node_count() as u32).map(RrNodeId)
    }

    /// The wires with an edge into `pin`, by scanning the adjacency.
    fn feeders_by_scan(g: &RrGraph, pin: RrNodeId) -> Vec<RrNodeId> {
        ids(g)
            .filter(|&id| g.successors(id).contains(&pin))
            .collect()
    }

    #[test]
    fn node_counts_match_geometry() {
        let (device, g) = graph();
        let w = device.width;
        let h = device.height;
        let cw = g.channel_width();
        let chanx = w * (h + 1) * cw;
        let chany = (w + 1) * h * cw;
        // Clock is global, so CLB pins = inputs + outputs only.
        let clb_pins = w * h * (device.arch.clb.inputs + device.arch.clb.outputs);
        let io_pins = device.io_locs().len() * device.arch.io_per_tile * 2;
        assert_eq!(
            g.node_count(),
            chanx + chany + clb_pins + io_pins,
            "chanx {chanx} chany {chany} clb {clb_pins} io {io_pins}"
        );
    }

    #[test]
    fn numbering_follows_the_documented_block_order() {
        let (device, g) = graph();
        // Walk the blocks in contract order and expect consecutive ids.
        let (w, h, cw) = (3u32, 3u32, 6u32);
        let mut expect = Vec::new();
        for x in 1..=w {
            for y in 0..=h {
                expect.extend((0..cw).map(|t| RrKind::Chanx { x, y, t }));
            }
        }
        for x in 0..=w {
            for y in 1..=h {
                expect.extend((0..cw).map(|t| RrKind::Chany { x, y, t }));
            }
        }
        let inputs = device.arch.clb.inputs as u32;
        for GridLoc { x, y } in device.clb_locs() {
            expect.extend((0..inputs).map(|pin| RrKind::Ipin { x, y, pin }));
            expect.extend((0..device.arch.clb.outputs as u32).map(|o| RrKind::Opin {
                x,
                y,
                pin: inputs + o,
            }));
        }
        for GridLoc { x, y } in device.io_locs() {
            for pin in 0..device.arch.io_per_tile as u32 {
                expect.push(RrKind::Opin { x, y, pin });
                expect.push(RrKind::Ipin { x, y, pin });
            }
        }
        assert_eq!(expect.len(), g.node_count());
        for (id, kind) in ids(&g).zip(expect) {
            assert_eq!(g.kind(id), kind);
            assert_eq!(g.find(kind), Some(id));
        }
    }

    #[test]
    fn successor_ranges_list_wires_before_pins() {
        let (_, g) = graph();
        for id in ids(&g) {
            let (wires, pins) = g.split_successors(id);
            assert!(wires.iter().all(|&s| g.is_wire(s)));
            assert!(pins
                .iter()
                .all(|&s| matches!(g.kind(s), RrKind::Ipin { .. })));
            assert_eq!(g.tile(id), {
                let (RrKind::Opin { x, y, .. }
                | RrKind::Ipin { x, y, .. }
                | RrKind::Chanx { x, y, .. }
                | RrKind::Chany { x, y, .. }) = g.kind(id);
                (x as i32, y as i32)
            });
        }
    }

    #[test]
    fn feeders_are_exactly_the_predecessors_of_an_input_pin() {
        // Fractional Fc too: the feeder list must track `pin_tracks`.
        for fc_in in [1.0, 0.5, 0.75] {
            let mut arch = Architecture::paper_default();
            arch.routing.fc_in = fc_in;
            let g = RrGraph::build(&Device::new(arch, 2, 3), 4);
            for id in ids(&g) {
                let mut fed = Vec::new();
                g.for_each_feeder(id, |wire| fed.push(wire));
                if matches!(g.kind(id), RrKind::Ipin { .. }) {
                    fed.sort();
                    assert_eq!(fed, feeders_by_scan(&g, id), "fc_in {fc_in}");
                } else {
                    assert!(fed.is_empty());
                }
            }
        }
    }

    #[test]
    fn disjoint_switchbox_preserves_track_index() {
        let (_, g) = graph();
        for id in ids(&g) {
            if let RrKind::Chanx { t, .. } | RrKind::Chany { t, .. } = g.kind(id) {
                for succ in g.successors(id) {
                    if let RrKind::Chanx { t: t2, .. } | RrKind::Chany { t: t2, .. } = g.kind(*succ)
                    {
                        assert_eq!(t, t2, "disjoint SB must keep the track index");
                    }
                }
            }
        }
    }

    #[test]
    fn wires_have_at_most_fs_wire_neighbours_per_end() {
        let (_, g) = graph();
        // A wire touches two switch boxes; with Fs = 3 it can reach at
        // most 3 other wires per end = 6 wire neighbours total.
        for id in ids(&g).filter(|&id| g.is_wire(id)) {
            let wire_neighbours = g.split_successors(id).0.len();
            assert!(
                wire_neighbours <= 6,
                "{:?} has {wire_neighbours}",
                g.kind(id)
            );
        }
    }

    #[test]
    fn clb_pins_connect_to_adjacent_channels_only() {
        let (device, g) = graph();
        for pin in 0..device.arch.clb.inputs as u32 {
            let ipin = g.find(RrKind::Ipin { x: 2, y: 2, pin }).unwrap();
            // Input pins are edge *targets*; find sources pointing at them.
            let feeders = feeders_by_scan(&g, ipin);
            assert!(!feeders.is_empty(), "pin {pin} unreachable");
            for wire in feeders {
                match g.kind(wire) {
                    RrKind::Chanx { x, y, .. } => {
                        assert_eq!(x, 2);
                        assert!(y == 1 || y == 2);
                    }
                    RrKind::Chany { x, y, .. } => {
                        assert!(x == 1 || x == 2);
                        assert_eq!(y, 2);
                    }
                    other => panic!("pin fed by {other:?}"),
                }
            }
        }
    }

    #[test]
    fn fc_one_reaches_every_track() {
        let (_, g) = graph();
        // fc_in = 1.0: every input pin must see all tracks of its channel.
        let ipin = g.find(RrKind::Ipin { x: 1, y: 1, pin: 0 }).unwrap();
        let feeders = feeders_by_scan(&g, ipin);
        assert_eq!(feeders.len(), g.channel_width(), "{feeders:?}");
    }

    #[test]
    fn io_pads_reach_the_ring_channels() {
        let (device, g) = graph();
        let loc = device.io_locs()[0];
        let opin = g
            .find(RrKind::Opin {
                x: loc.x,
                y: loc.y,
                pin: 0,
            })
            .unwrap();
        assert_eq!(g.successors(opin).len(), g.channel_width());
    }

    #[test]
    fn helpers_find_pins() {
        let (device, g) = graph();
        let loc = GridLoc::new(1, 1);
        assert!(clb_opin(&g, &device, loc, 0).is_some());
        assert!(clb_opin(&g, &device, loc, device.arch.clb.outputs - 1).is_some());
        assert!(clb_ipin(&g, loc, 0).is_some());
        assert!(clb_ipin(&g, loc, device.arch.clb.inputs - 1).is_some());
        assert!(clb_ipin(&g, loc, 99).is_none());
    }
}
