//! Register-bounded cone views of flow artifacts.
//!
//! A [`CombView`] is the purely combinational slice of one stage
//! artifact: every flip-flop is cut open (its Q output becomes a free
//! *cut point*, its D input becomes an *observable*), primary inputs are
//! cut points, primary outputs are observables. Two views whose cut and
//! observable name sets agree can be compared cone-by-cone without
//! unrolling sequential behaviour — the classic DFF-cut reduction of
//! sequential equivalence to combinational equivalence (sound as long as
//! both sides carry the same state elements, which the boundary check
//! enforces).
//!
//! Cut points are keyed by *name*, never by net id: a packed, placed,
//! routed or bitstream-decoded artifact numbers its nets differently,
//! but the design symbols survive every stage, so name-keyed cuts line
//! the views up.

use fpga_bitstream::config::Bitstream;
use fpga_bitstream::fabric::{Decoded, Source};
use fpga_netlist::ir::{CellKind, NetId, Netlist};
use fpga_netlist::mix::{fnv1a, FNV_OFFSET, FNV_PRIME};
use fpga_netlist::sim::eval_cell;
use fpga_netlist::tape::Tape;
use fpga_pack::{ClusterId, Clustering};
use fpga_place::{BlockRef, Placement};
use fpga_route::{RouteResult, RrGraph, RrKind};

use crate::{Result, VerifyError};

/// One side of a view boundary: (name, net) pairs, sorted by name.
type Boundary = Vec<(String, NetId)>;

/// A combinational view of one stage artifact.
pub struct CombView {
    /// Stage label, e.g. "netlist", "pack", "bitstream" (diagnostics).
    pub stage: &'static str,
    /// The rebuilt (or cloned) netlist holding the combinational logic.
    pub netlist: Netlist,
    /// The netlist compiled for 64-lane evaluation.
    tape: Tape,
    /// Cut points: (name, net), sorted by name. Non-clock primary inputs
    /// under their own name, flip-flop Q outputs under the Q net name.
    pub cuts: Vec<(String, NetId)>,
    /// Observables: (name, net), sorted by name. Primary outputs as
    /// `po:<name>`, flip-flop D inputs as `ff:<q net name>`.
    pub observables: Vec<(String, NetId)>,
}

impl CombView {
    fn assemble(
        stage: &'static str,
        netlist: Netlist,
        mut cuts: Vec<(String, NetId)>,
        mut observables: Vec<(String, NetId)>,
    ) -> Result<CombView> {
        // Cut at its flip-flops, a design the flow accepts is acyclic, so
        // a loop here is a finding about the artifact, not a gap in the
        // checker: a boundary mismatch for a candidate. A cyclic
        // reference still makes every verdict unknown (`EquivGate`).
        let tape = Tape::compile(&netlist).map_err(|e| {
            VerifyError::Boundary(format!("{stage} view has a combinational loop: {e}"))
        })?;
        cuts.sort();
        observables.sort();
        for pair in cuts.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(VerifyError::View(format!(
                    "{stage} view has two cut points named '{}'",
                    pair[0].0
                )));
            }
        }
        for pair in observables.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(VerifyError::View(format!(
                    "{stage} view has two observables named '{}'",
                    pair[0].0
                )));
            }
        }
        Ok(CombView {
            stage,
            netlist,
            tape,
            cuts,
            observables,
        })
    }

    /// The default cut/observable recipe over a netlist: non-clock PIs
    /// and FF Qs are cuts; POs and FF Ds are observables.
    fn boundaries(nl: &Netlist) -> (Boundary, Boundary) {
        let mut cuts = Vec::new();
        let mut observables = Vec::new();
        for &pi in &nl.inputs {
            if !nl.clocks.contains(&pi) {
                cuts.push((nl.net_name(pi).to_string(), pi));
            }
        }
        for &po in &nl.outputs {
            observables.push((format!("po:{}", nl.net_name(po)), po));
        }
        for c in &nl.cells {
            if let CellKind::Dff { .. } = c.kind {
                let q = nl.net_name(c.output).to_string();
                observables.push((format!("ff:{q}"), c.inputs[0]));
                cuts.push((q, c.output));
            }
        }
        (cuts, observables)
    }

    /// View of a plain netlist (the synthesized or mapped reference).
    ///
    /// Dead cells — those whose output feeds nothing and is not a
    /// primary output — are swept first, by the mapper's own sweep
    /// ([`Netlist::sweep_dead`]): a register the flow legitimately swept
    /// must not count as a missing state element, and its unobservable
    /// cone must not enter the boundary.
    pub fn from_netlist(stage: &'static str, nl: &Netlist) -> Result<CombView> {
        let mut nl = nl.clone();
        nl.sweep_dead();
        let (cuts, observables) = Self::boundaries(&nl);
        Self::assemble(stage, nl, cuts, observables)
    }

    /// View of a packed design: the mapped netlist restricted to the
    /// cells the clustering actually carries.
    pub fn from_clustering(c: &Clustering) -> Result<CombView> {
        rebuild(c, "pack", None)
    }

    /// View of a placed design: functionally the packed view, after
    /// checking the placement binds every block to exactly one site.
    pub fn from_placement(c: &Clustering, p: &Placement) -> Result<CombView> {
        check_placement(c, p)?;
        rebuild(c, "place", None)
    }

    /// View of a routed design: packed logic with every cross-cluster
    /// connection rewired to the net the routed trees *actually* deliver
    /// to each cluster input pin and output pad.
    pub fn from_routing(
        c: &Clustering,
        p: &Placement,
        g: &RrGraph,
        r: &RouteResult,
    ) -> Result<CombView> {
        check_placement(c, p)?;
        let loc2c = clusters_by_loc(c, p);
        let mut pad2po: Vec<((u32, u32, u32), NetId)> = p
            .slots
            .iter()
            .filter_map(|&(block, slot)| match block {
                BlockRef::OutputPad(po) => Some(((slot.loc.x, slot.loc.y, slot.sub), po)),
                _ => None,
            })
            .collect();
        pad2po.sort_unstable();

        // What the trees deliver to each cluster input pin and each
        // primary output's pad.
        let mut delivered: Vec<Vec<Option<NetId>>> = c
            .clusters
            .iter()
            .map(|cl| vec![None; cl.inputs.len()])
            .collect();
        let mut po_nets: Vec<Option<NetId>> = vec![None; c.netlist.nets.len()];
        let claim =
            |slot: &mut Option<NetId>, net: NetId| slot.replace(net).is_none_or(|n| n == net);
        for rn in &r.nets {
            for &s in &rn.sinks {
                let RrKind::Ipin { x, y, pin } = g.kind(s) else {
                    return Err(VerifyError::Boundary(format!(
                        "net '{}' has a routed sink that is not an input pin",
                        c.netlist.net_name(rn.net)
                    )));
                };
                if let Some(ci) = first_at(&loc2c, (x, y)) {
                    let Some(slot) = delivered[ci].get_mut(pin as usize) else {
                        return Err(VerifyError::Boundary(format!(
                            "net '{}' routed to cluster {ci} pin {pin}, which is unused",
                            c.netlist.net_name(rn.net)
                        )));
                    };
                    if !claim(slot, rn.net) {
                        return Err(VerifyError::Boundary(format!(
                            "two nets routed to cluster {ci} input pin {pin}"
                        )));
                    }
                } else if let Some(po) = first_at(&pad2po, (x, y, pin)) {
                    if !claim(&mut po_nets[po.index()], rn.net) {
                        return Err(VerifyError::Boundary(format!(
                            "two nets routed to output pad '{}'",
                            c.netlist.net_name(po)
                        )));
                    }
                } else {
                    return Err(VerifyError::Boundary(format!(
                        "net '{}' routed to pin ({x},{y},{pin}) where nothing is placed",
                        c.netlist.net_name(rn.net)
                    )));
                }
            }
        }
        rebuild(c, "route", Some((&delivered, &po_nets)))
    }

    /// View decoded from a bitstream: the fabric emulator's own decode
    /// ([`Decoded`]) gives each LUT input and output pad its driver, and
    /// the placement correspondence names it (CLB location -> cluster ->
    /// BLE output symbol, or the input pad symbol the bitstream carries).
    pub fn from_bitstream(bs: &Bitstream, c: &Clustering, p: &Placement) -> Result<CombView> {
        let src = &c.netlist;
        let loc2c = clusters_by_loc(c, p);
        // The cluster placed at each configured CLB's location.
        let clb2c: Vec<Option<usize>> = (bs.clbs.iter())
            .map(|clb| first_at(&loc2c, (clb.loc.x, clb.loc.y)))
            .collect();
        let ble_name = |clb: usize, slot: usize| -> Option<&str> {
            let bid = c.clusters[clb2c[clb]?].bles.get(slot)?;
            Some(src.net_name(c.bles[bid.0 as usize].output))
        };
        let name = |d: &Decoded, s: Source| -> Option<String> {
            match s {
                Source::Low => None,
                Source::Ble(j) => ble_name(d.slots[j].clb, d.slots[j].slot).map(str::to_string),
                Source::Pad(p) => Some(d.pads[p].clone()),
            }
        };
        let decoded = Decoded::new(bs).map_err(|e| {
            let [a, b] =
                (e.pins).map(|(pin, s)| name(&e.decoded, s).unwrap_or_else(|| format!("{pin:?}")));
            VerifyError::Boundary(format!(
                "electrical contention: '{a}' and '{b}' drive one net"
            ))
        })?;

        // Rebuild the decoded logic as a netlist.
        let mut nl = Netlist::new(&src.name);
        let zero = nl.net("$verify$zero"); // undriven pins read low
        let clk = nl.net("$verify$clk");
        nl.add_clock(clk);
        let net_of = |nl: &mut Netlist, s: Source| name(&decoded, s).map_or(zero, |n| nl.net(&n));
        let mut cuts: Vec<(String, NetId)> = Vec::new();
        let mut observables: Vec<(String, NetId)> = Vec::new();
        for &pi in &src.inputs {
            if !src.clocks.contains(&pi) {
                let name = src.net_name(pi);
                let n = nl.net(name);
                cuts.push((name.to_string(), n));
            }
        }
        for s in &decoded.slots {
            let loc = bs.clbs[s.clb].loc;
            let Some(ci) = clb2c[s.clb] else {
                return Err(VerifyError::Boundary(format!(
                    "bitstream configures a CLB at ({}, {}) where no cluster is placed",
                    loc.x, loc.y
                )));
            };
            if !s.used {
                continue;
            }
            let Some(out_name) = ble_name(s.clb, s.slot) else {
                return Err(VerifyError::Boundary(format!(
                    "bitstream configures BLE slot {} of cluster {ci}, which is empty",
                    s.slot
                )));
            };
            let out_name = out_name.to_string();
            let out_net = nl.net(&out_name);
            let ins: Vec<NetId> = s.inputs.iter().map(|&i| net_of(&mut nl, i)).collect();
            let lut_kind = CellKind::Lut {
                k: s.inputs.len() as u8,
                truth: s.truth,
            };
            let tag = format!("{}_{}_{}", loc.x, loc.y, s.slot);
            if s.registered && !s.clocked {
                // A flip-flop whose clock is gated off never captures:
                // it holds its `init` and is no register boundary.
                let held = if s.init {
                    CellKind::Const1
                } else {
                    CellKind::Const0
                };
                nl.add_cell(&format!("$ff${tag}"), held, Vec::new(), out_net);
            } else if s.registered {
                let d = nl.net(&format!("$verify$d${tag}"));
                nl.add_cell(&format!("$lut${tag}"), lut_kind, ins, d);
                nl.add_cell(
                    &format!("$ff${tag}"),
                    CellKind::Dff {
                        clock: clk,
                        init: s.init,
                    },
                    vec![d],
                    out_net,
                );
                observables.push((format!("ff:{out_name}"), d));
                cuts.push((out_name, out_net));
            } else {
                nl.add_cell(&format!("$lut${tag}"), lut_kind, ins, out_net);
            }
        }
        for &po in &src.outputs {
            let po_name = src.net_name(po);
            let outputs = &decoded.outputs;
            let i = (outputs.binary_search_by_key(&po_name, |(n, _)| n.as_str()))
                .map_err(|_| VerifyError::Boundary(format!("no output pad carries '{po_name}'")))?;
            let n = net_of(&mut nl, outputs[i].1);
            observables.push((format!("po:{po_name}"), n));
        }
        Self::assemble("bitstream", nl, cuts, observables)
    }

    /// Evaluate all 64 lanes at once. `cut_words` is aligned with
    /// [`cuts`](Self::cuts); the result is aligned with
    /// [`observables`](Self::observables).
    pub fn eval64(&self, cut_words: &[u64]) -> Vec<u64> {
        debug_assert_eq!(cut_words.len(), self.cuts.len());
        let mut values = self.tape.values();
        for ((_, net), &w) in self.cuts.iter().zip(cut_words) {
            values[net.index()] = w;
        }
        self.tape.eval(&mut values);
        self.observables
            .iter()
            .map(|(_, n)| values[n.index()])
            .collect()
    }

    /// Replay one concrete cut assignment through the scalar reference
    /// evaluator ([`fpga_netlist::sim::eval_cell`]), cell by cell in the
    /// netlist's own topological order — the independent semantics the
    /// tape is checked against. Returns the observable values, aligned
    /// with [`observables`](Self::observables).
    pub fn replay(&self, assignment: &[(String, bool)]) -> Result<Vec<(String, bool)>> {
        let mut values = vec![false; self.netlist.nets.len()];
        for (name, v) in assignment {
            let net = self
                .cuts
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, id)| *id)
                .ok_or_else(|| {
                    VerifyError::View(format!(
                        "replay assignment names unknown cut point '{name}'"
                    ))
                })?;
            values[net.index()] = *v;
        }
        for cid in self.order()? {
            let cell = &self.netlist.cells[cid.index()];
            let bits: Vec<bool> = cell.inputs.iter().map(|n| values[n.index()]).collect();
            values[cell.output.index()] = eval_cell(&cell.kind, &bits);
        }
        Ok(self
            .observables
            .iter()
            .map(|(name, n)| (name.clone(), values[n.index()]))
            .collect())
    }

    /// Structural hash of every observable cone, aligned with
    /// [`observables`](Self::observables). Cut leaves hash by *name*, so
    /// isomorphic cones hash equal across views regardless of net
    /// numbering; hash-equal cone pairs are deduplicated without
    /// simulation.
    pub fn cone_hashes(&self) -> Result<Vec<u64>> {
        let mut memo: Vec<u64> = vec![fnv64(b"undriven"); self.netlist.nets.len()];
        for (name, net) in &self.cuts {
            memo[net.index()] = fnv64(format!("cut:{name}").as_bytes());
        }
        for cid in self.order()? {
            let cell = &self.netlist.cells[cid.index()];
            let mut h = kind_hash(&cell.kind);
            for &i in &cell.inputs {
                h = mix(h, memo[i.index()]);
            }
            memo[cell.output.index()] = h;
        }
        Ok(self
            .observables
            .iter()
            .map(|(_, n)| memo[n.index()])
            .collect())
    }

    /// The combinational cells in topological order (the view was
    /// checked acyclic when it was built).
    fn order(&self) -> Result<Vec<fpga_netlist::CellId>> {
        (self.netlist.topo_order()).map_err(|e| VerifyError::View(format!("{}: {e}", self.stage)))
    }
}

/// What routing delivered: per cluster input pin, and per primary
/// output net (its pad's net).
type Delivered<'a> = (&'a [Vec<Option<NetId>>], &'a [Option<NetId>]);

/// Copy the clustering's cells into a fresh netlist, optionally rewiring
/// each cluster's external inputs to what routing delivered.
fn rebuild(c: &Clustering, stage: &'static str, routed: Option<Delivered>) -> Result<CombView> {
    let src = &c.netlist;
    let mut nl = Netlist::new(&src.name);
    for net in &src.nets {
        nl.net(&net.name);
    }
    nl.inputs = src.inputs.clone();
    nl.outputs = src.outputs.clone();
    nl.clocks = src.clocks.clone();

    for (ci, cluster) in c.clusters.iter().enumerate() {
        // What each external input pin carries inside this cluster: its
        // own net, unless a routed view says otherwise.
        let mut actual = cluster.inputs.clone();
        if let Some((delivered, _)) = routed {
            for (i, &expected) in cluster.inputs.iter().enumerate() {
                actual[i] = delivered[ci][i].ok_or_else(|| {
                    VerifyError::Boundary(format!(
                        "net '{}' expected at cluster {ci} input {i} was never routed",
                        src.net_name(expected)
                    ))
                })?;
            }
        }
        let remap = |nets: &[NetId]| -> Vec<NetId> {
            nets.iter()
                .map(|&n| cluster.input_pin(n).map_or(n, |i| actual[i]))
                .collect()
        };
        for &bid in &cluster.bles {
            let ble = &c.bles[bid.0 as usize];
            if ble.lut.is_none() && ble.ff.is_none() {
                return Err(VerifyError::View(format!(
                    "BLE '{}' carries neither a LUT nor an FF",
                    ble.name
                )));
            }
            if let Some(l) = ble.lut {
                let cell = &src.cells[l.index()];
                nl.add_cell(
                    &cell.name,
                    cell.kind.clone(),
                    remap(&cell.inputs),
                    cell.output,
                );
            }
            if let Some(f) = ble.ff {
                let cell = &src.cells[f.index()];
                nl.add_cell(
                    &cell.name,
                    cell.kind.clone(),
                    remap(&cell.inputs),
                    cell.output,
                );
            }
        }
    }

    let (cuts, mut observables) = CombView::boundaries(&nl);
    if let Some((_, po_nets)) = routed {
        for (name, net) in observables.iter_mut() {
            let Some(po_name) = name.strip_prefix("po:") else {
                continue;
            };
            let po = src.find_net(po_name).ok_or_else(|| {
                VerifyError::View(format!("primary output '{po_name}' has no net"))
            })?;
            *net = po_nets[po.index()].ok_or_else(|| {
                VerifyError::Boundary(format!(
                    "primary output '{po_name}' was never routed to its pad"
                ))
            })?;
        }
    }
    CombView::assemble(stage, nl, cuts, observables)
}

/// The value of the first entry keyed `k` in a table stably sorted by
/// key.
fn first_at<K: Ord, V: Copy>(table: &[(K, V)], k: K) -> Option<V> {
    let i = table.partition_point(|e| e.0 < k);
    table.get(i).filter(|e| e.0 == k).map(|e| e.1)
}

/// Cluster index by CLB location, for [`first_at`]. Entered last cluster
/// first, so the last cluster placed at a location is the one found.
fn clusters_by_loc(c: &Clustering, p: &Placement) -> Vec<((u32, u32), usize)> {
    let mut table: Vec<((u32, u32), usize)> = (0..c.clusters.len())
        .rev()
        .map(|ci| {
            let loc = p.cluster_loc(ClusterId(ci as u32));
            ((loc.x, loc.y), ci)
        })
        .collect();
    table.sort_by_key(|e| e.0);
    table
}

/// Placement sanity: every cluster and IO block bound to a site, no two
/// blocks sharing one.
fn check_placement(c: &Clustering, p: &Placement) -> Result<()> {
    let nl = &c.netlist;
    for ci in 0..c.clusters.len() {
        if p.slot(BlockRef::Cluster(ClusterId(ci as u32))).is_none() {
            return Err(VerifyError::Boundary(format!("cluster {ci} is unplaced")));
        }
    }
    for &pi in &nl.inputs {
        if !nl.clocks.contains(&pi) && p.slot(BlockRef::InputPad(pi)).is_none() {
            return Err(VerifyError::Boundary(format!(
                "input '{}' has no pad",
                nl.net_name(pi)
            )));
        }
    }
    for &po in &nl.outputs {
        if p.slot(BlockRef::OutputPad(po)).is_none() {
            return Err(VerifyError::Boundary(format!(
                "output '{}' has no pad",
                nl.net_name(po)
            )));
        }
    }
    let mut sites: Vec<(u32, u32, u32)> = p
        .slots
        .iter()
        .map(|(_, s)| (s.loc.x, s.loc.y, s.sub))
        .collect();
    sites.sort_unstable();
    for pair in sites.windows(2) {
        if pair[0] == pair[1] {
            return Err(VerifyError::Boundary(format!(
                "two blocks placed at ({}, {}) sub {}",
                pair[0].0, pair[0].1, pair[0].2
            )));
        }
    }
    Ok(())
}

fn fnv64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x.wrapping_mul(0x9E3779B97F4A7C15))
        .rotate_left(23)
        .wrapping_mul(FNV_PRIME)
}

fn kind_hash(kind: &CellKind) -> u64 {
    match kind {
        CellKind::Const0 => fnv64(b"const0"),
        CellKind::Const1 => fnv64(b"const1"),
        CellKind::Buf => fnv64(b"buf"),
        CellKind::Not => fnv64(b"not"),
        CellKind::And => fnv64(b"and"),
        CellKind::Or => fnv64(b"or"),
        CellKind::Nand => fnv64(b"nand"),
        CellKind::Nor => fnv64(b"nor"),
        CellKind::Xor => fnv64(b"xor"),
        CellKind::Xnor => fnv64(b"xnor"),
        CellKind::Mux2 => fnv64(b"mux2"),
        CellKind::Lut { k, truth } => mix(mix(fnv64(b"lut"), *k as u64), *truth),
        CellKind::Sop(cover) => {
            let mut h = mix(fnv64(b"sop"), cover.n_inputs as u64);
            for cube in &cover.cubes {
                h = mix(mix(h, cube.care), cube.value);
            }
            h
        }
        CellKind::Dff { .. } => fnv64(b"dff"),
    }
}

#[cfg(test)]
mod tests {
    /// Recorded at eb39634, before the byte loop moved to
    /// `fpga_netlist::mix`: the structural hash's leaf values.
    #[test]
    fn fnv64_keeps_its_recorded_value() {
        assert_eq!(super::fnv64(b"undriven"), 0x35af52179fc45a10);
    }
}
