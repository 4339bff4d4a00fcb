//! # fpga-pack
//!
//! T-VPack: packs a LUT + flip-flop netlist into the platform's
//! cluster-based CLBs (Fig. 1b).
//!
//! Two stages, as in the original tool:
//!
//! 1. **BLE formation** — a LUT and a DFF fuse into one Basic Logic
//!    Element when the FF's D input is the LUT's only fanout (the BLE's
//!    2:1 output mux then selects the registered path). Lone LUTs and
//!    lone FFs each get their own BLE.
//! 2. **Greedy attraction-based clustering** — clusters are seeded with
//!    the unclustered BLE using the most inputs, then grown by repeatedly
//!    absorbing the BLE sharing the most nets with the cluster, subject to
//!    the architecture limits: N BLEs, I distinct input nets (Eq. 1's
//!    I = 12 for the platform), and one clock per cluster.
//!
//! The result ([`Clustering`]) is what VPR places and routes and what
//! DAGGER encodes into the bitstream; [`netformat`] serializes it in the
//! `.net` text format.

pub mod codec;
pub mod netformat;

pub use codec::{clustering_from_bytes, clustering_to_bytes};

use std::cmp::Reverse;

use fpga_arch::ClbArch;
use fpga_netlist::ir::{CellId, CellKind, NetId, Netlist};

/// Errors from packing.
#[derive(Debug, Clone, PartialEq)]
pub enum PackError {
    /// The netlist contains cells that are not LUTs/FFs (run mapping first).
    NotMapped(String),
    /// A LUT has more inputs than the architecture's K.
    LutTooWide {
        cell: String,
        k: usize,
        max: usize,
    },
    /// More clocks in one BLE/cluster than the architecture allows.
    ClockConflict(String),
    Internal(String),
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::NotMapped(c) => {
                write!(
                    f,
                    "cell '{c}' is not a LUT or FF; run technology mapping first"
                )
            }
            PackError::LutTooWide { cell, k, max } => {
                write!(
                    f,
                    "LUT '{cell}' has {k} inputs but the architecture allows {max}"
                )
            }
            PackError::ClockConflict(msg) => write!(f, "clock conflict: {msg}"),
            PackError::Internal(msg) => write!(f, "internal packing error: {msg}"),
        }
    }
}

impl std::error::Error for PackError {}

pub type Result<T> = std::result::Result<T, PackError>;

/// Index of a BLE.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BleId(pub u32);

/// Index of a cluster (CLB).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

/// One Basic Logic Element: optional LUT, optional FF, one output.
#[derive(Clone, Debug)]
pub struct Ble {
    pub name: String,
    /// The LUT cell, if any.
    pub lut: Option<CellId>,
    /// The FF cell, if any (registered output).
    pub ff: Option<CellId>,
    /// Distinct input nets of the BLE (LUT inputs, or the FF's D when
    /// there is no LUT).
    pub inputs: Vec<NetId>,
    /// The BLE output net (FF Q if registered, else LUT output).
    pub output: NetId,
    /// Clock net if the BLE is registered.
    pub clock: Option<NetId>,
}

/// One packed cluster.
#[derive(Clone, Debug, Default)]
pub struct Cluster {
    pub bles: Vec<BleId>,
    /// Distinct external input nets used.
    pub inputs: Vec<NetId>,
    /// The cluster clock, if any BLE is registered.
    pub clock: Option<NetId>,
}

/// The packing result. Keeps the mapped netlist alongside.
#[derive(Clone, Debug)]
pub struct Clustering {
    pub netlist: Netlist,
    pub arch: ClbArch,
    pub bles: Vec<Ble>,
    pub clusters: Vec<Cluster>,
}

impl Cluster {
    /// The input pin that carries `net` into the cluster.
    pub fn input_pin(&self, net: NetId) -> Option<usize> {
        self.inputs.iter().position(|&n| n == net)
    }
}

impl Clustering {
    /// BLE utilization: fraction of available BLE slots filled.
    pub fn utilization(&self) -> f64 {
        if self.clusters.is_empty() {
            return 1.0;
        }
        self.bles.len() as f64 / (self.clusters.len() * self.arch.cluster_size) as f64
    }

    /// Nets that cross cluster boundaries (must be routed), including
    /// primary IO nets: every cluster input and clock and every primary
    /// output, sorted and distinct.
    pub fn external_nets(&self) -> Vec<NetId> {
        let mut out: Vec<NetId> = self
            .clusters
            .iter()
            .flat_map(|c| c.inputs.iter().copied().chain(c.clock))
            .chain(self.netlist.outputs.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Which cluster produces a net (None if a primary input).
    pub fn producer(&self, net: NetId) -> Option<ClusterId> {
        for (ci, cluster) in self.clusters.iter().enumerate() {
            for &bid in &cluster.bles {
                if self.bles[bid.0 as usize].output == net {
                    return Some(ClusterId(ci as u32));
                }
            }
        }
        None
    }

    /// The BLE slot (output pin) of cluster `c` that drives `net`; `None`
    /// also when there is no cluster `c`.
    pub fn output_slot(&self, c: ClusterId, net: NetId) -> Option<usize> {
        self.clusters
            .get(c.0 as usize)?
            .bles
            .iter()
            .position(|&b| self.bles[b.0 as usize].output == net)
    }
}

/// Convert constant cells into 0-input LUTs so they pack like logic.
pub fn absorb_constants(netlist: &mut Netlist) {
    for cell in &mut netlist.cells {
        match cell.kind {
            CellKind::Const0 => cell.kind = CellKind::Lut { k: 0, truth: 0 },
            CellKind::Const1 => cell.kind = CellKind::Lut { k: 0, truth: 1 },
            _ => {}
        }
    }
}

/// Normalize a mapped netlist for packing: SOP covers (as BLIF `.names`
/// round-trips produce) become LUTs, and constants become 0-input LUTs.
/// Errors if a cover is too wide for a LUT.
pub fn prepare(netlist: &mut Netlist) -> Result<()> {
    for cell in &mut netlist.cells {
        if let CellKind::Sop(cover) = &cell.kind {
            let k = cover.n_inputs;
            if k > 6 {
                return Err(PackError::LutTooWide {
                    cell: cell.name.clone(),
                    k,
                    max: 6,
                });
            }
            let truth = cover.truth_table().expect("k <= 6 has a truth table");
            cell.kind = CellKind::Lut { k: k as u8, truth };
        }
    }
    absorb_constants(netlist);
    Ok(())
}

/// Stage 1: form BLEs from a mapped netlist.
pub fn form_bles(netlist: &Netlist, arch: &ClbArch) -> Result<Vec<Ble>> {
    let sinks = netlist.sinks();
    let drivers = netlist.drivers();

    // A LUT whose only fanout is one FF's D fuses with that FF; `fused`
    // pairs the two cells both ways (the FF's LUT, the LUT's FF).
    let mut fused: Vec<Option<CellId>> = vec![None; netlist.cells.len()];
    for (i, cell) in netlist.cells.iter().enumerate() {
        if let CellKind::Dff { .. } = cell.kind {
            let d = cell.inputs[0];
            if netlist.outputs.contains(&d) {
                continue; // D net is observable; keep the LUT separate
            }
            if let Some(drv) = drivers[d.index()] {
                let drv_cell = &netlist.cells[drv.index()];
                if matches!(drv_cell.kind, CellKind::Lut { .. }) && sinks[d.index()].len() == 1 {
                    fused[i] = Some(drv);
                    fused[drv.index()] = Some(CellId(i as u32));
                }
            }
        }
    }

    let mut bles = Vec::new();
    for (i, cell) in netlist.cells.iter().enumerate() {
        let cid = CellId(i as u32);
        match &cell.kind {
            CellKind::Lut { k, .. } => {
                if *k as usize > arch.lut_k {
                    return Err(PackError::LutTooWide {
                        cell: cell.name.clone(),
                        k: *k as usize,
                        max: arch.lut_k,
                    });
                }
                if fused[i].is_some() {
                    continue; // emitted with its FF
                }
                let mut inputs: Vec<NetId> = cell.inputs.clone();
                inputs.sort();
                inputs.dedup();
                bles.push(Ble {
                    name: cell.name.clone(),
                    lut: Some(cid),
                    ff: None,
                    inputs,
                    output: cell.output,
                    clock: None,
                });
            }
            CellKind::Dff { clock, .. } => {
                let lut = fused[i];
                let inputs: Vec<NetId> = match lut {
                    Some(l) => {
                        let mut v = netlist.cells[l.index()].inputs.clone();
                        v.sort();
                        v.dedup();
                        v
                    }
                    None => vec![cell.inputs[0]],
                };
                bles.push(Ble {
                    name: cell.name.clone(),
                    lut,
                    ff: Some(cid),
                    inputs,
                    output: cell.output,
                    clock: Some(*clock),
                });
            }
            other => {
                return Err(PackError::NotMapped(format!(
                    "{} ({})",
                    cell.name,
                    other.mnemonic()
                )))
            }
        }
    }
    Ok(bles)
}

/// The cluster `members` form: its inputs are the member inputs that no
/// member drives, sorted and distinct, and its clock is the first
/// registered member's. [`pack`] and [`netformat::parse_net`] both build
/// their clusters here.
pub fn cluster_of(bles: &[Ble], members: Vec<BleId>) -> Cluster {
    let ble = |b: &BleId| &bles[b.0 as usize];
    let driven: Vec<NetId> = members.iter().map(|b| ble(b).output).collect();
    let mut inputs: Vec<NetId> = members
        .iter()
        .flat_map(|b| ble(b).inputs.iter().copied())
        .filter(|net| !driven.contains(net))
        .collect();
    inputs.sort_unstable();
    inputs.dedup();
    let clock = members.iter().find_map(|b| ble(b).clock);
    Cluster {
        bles: members,
        inputs,
        clock,
    }
}

/// The cluster being grown, on per-net stamps that equal `epoch` while
/// the net belongs to it: `used` when a member reads the net, `driven`
/// when a member drives it. Its inputs are the used, undriven nets
/// (`inputs` counts them); `nets` lists every net it touches.
#[derive(Default)]
struct Growing {
    epoch: u32,
    used: Vec<u32>,
    driven: Vec<u32>,
    nets: Vec<NetId>,
    members: Vec<BleId>,
    inputs: usize,
    clock: Option<NetId>,
}

impl Growing {
    fn touches(&self, net: NetId) -> bool {
        self.used[net.index()] == self.epoch || self.driven[net.index()] == self.epoch
    }

    /// The cluster's input count with `b` absorbed. No member drives
    /// `b`'s output, so a used output is an input `b` closes.
    fn inputs_with(&self, b: &Ble) -> usize {
        let opened = b
            .inputs
            .iter()
            .filter(|&&n| n != b.output && !self.touches(n));
        let closed = self.used[b.output.index()] == self.epoch;
        self.inputs + opened.count() - usize::from(closed)
    }

    /// Attraction: how many of `b`'s inputs and output the cluster touches.
    fn shared(&self, b: &Ble) -> usize {
        let nets = b.inputs.iter().chain([&b.output]);
        nets.filter(|&&n| self.touches(n)).count()
    }

    /// Start the next cluster with `seed` alone: a new epoch, so no
    /// stamp needs clearing.
    fn seed(&mut self, i: usize, b: &Ble) {
        self.epoch += 1;
        self.nets.clear();
        (self.inputs, self.clock) = (0, None);
        self.absorb(i, b);
    }

    fn absorb(&mut self, i: usize, b: &Ble) {
        self.inputs = self.inputs_with(b);
        for &n in &b.inputs {
            if !self.touches(n) {
                self.nets.push(n);
            }
            self.used[n.index()] = self.epoch;
        }
        if !self.touches(b.output) {
            self.nets.push(b.output);
        }
        self.driven[b.output.index()] = self.epoch;
        self.clock = self.clock.or(b.clock);
        self.members.push(BleId(i as u32));
    }
}

/// Stage 2: greedy clustering.
pub fn pack(netlist: &Netlist, arch: &ClbArch) -> Result<Clustering> {
    let bles = form_bles(netlist, arch)?;
    let n = bles.len();
    let n_nets = netlist.nets.len();

    // Net -> BLEs using it (for attraction).
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); n_nets];
    for (i, ble) in bles.iter().enumerate() {
        for &net in ble.inputs.iter().chain([&ble.output]) {
            users[net.index()].push(i);
        }
    }
    // Seeds in pick order: the most inputs first, then the lowest index.
    let mut seeds: Vec<usize> = (0..n).collect();
    seeds.sort_by_key(|&i| (Reverse(bles[i].inputs.len()), i));

    let mut clustered = vec![false; n];
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut g = Growing::default();
    (g.used, g.driven) = (vec![0; n_nets], vec![0; n_nets]);

    for &seed in &seeds {
        if clustered[seed] {
            continue;
        }
        clustered[seed] = true;
        g.seed(seed, &bles[seed]);
        if g.inputs > arch.inputs {
            return Err(PackError::Internal(format!(
                "BLE '{}' needs {} distinct inputs but the architecture provides I = {}",
                bles[seed].name,
                bles[seed].inputs.len(),
                arch.inputs
            )));
        }

        while g.members.len() < arch.cluster_size {
            let fits = |c: usize| {
                let clock_fits = g.clock.zip(bles[c].clock).is_none_or(|(a, b)| a == b);
                !clustered[c] && clock_fits && g.inputs_with(&bles[c]) <= arch.inputs
            };
            // Attraction: of the fitting BLEs that share a net with the
            // cluster, the one sharing the most, the lowest index on a tie.
            let attracted = g
                .nets
                .iter()
                .flat_map(|net| users[net.index()].iter().copied())
                .filter(|&c| fits(c))
                .max_by_key(|&c| (g.shared(&bles[c]), Reverse(c)));
            // T-VPack fills clusters: when no connected BLE fits, absorb
            // the first fitting unclustered BLE rather than leaving the
            // slot empty (this is what makes Eq. 1's input budget achieve
            // its high BLE utilization).
            let pick = attracted.or_else(|| (0..n).find(|&c| fits(c)));
            let Some(cand) = pick else { break };
            clustered[cand] = true;
            g.absorb(cand, &bles[cand]);
        }

        clusters.push(cluster_of(&bles, std::mem::take(&mut g.members)));
    }

    let clustering = Clustering {
        netlist: netlist.clone(),
        arch: arch.clone(),
        bles,
        clusters,
    };
    validate(&clustering)?;
    Ok(clustering)
}

/// Check all architecture constraints hold.
pub fn validate(c: &Clustering) -> Result<()> {
    let mut seen = vec![false; c.bles.len()];
    for (ci, cluster) in c.clusters.iter().enumerate() {
        if cluster.bles.is_empty() || cluster.bles.len() > c.arch.cluster_size {
            return Err(PackError::Internal(format!(
                "cluster {ci} has {} BLEs (N = {})",
                cluster.bles.len(),
                c.arch.cluster_size
            )));
        }
        if cluster.inputs.len() > c.arch.inputs {
            return Err(PackError::Internal(format!(
                "cluster {ci} uses {} inputs (I = {})",
                cluster.inputs.len(),
                c.arch.inputs
            )));
        }
        let mut clocks: Vec<NetId> = Vec::new();
        for &b in &cluster.bles {
            if std::mem::replace(&mut seen[b.0 as usize], true) {
                return Err(PackError::Internal(format!("BLE {} in two clusters", b.0)));
            }
            clocks.extend(c.bles[b.0 as usize].clock);
        }
        clocks.sort_unstable();
        clocks.dedup();
        if clocks.len() > c.arch.clocks {
            return Err(PackError::ClockConflict(format!(
                "cluster {ci} needs {} clocks",
                clocks.len()
            )));
        }
    }
    let clustered = seen.iter().filter(|&&s| s).count();
    if clustered != c.bles.len() {
        return Err(PackError::Internal(format!(
            "{clustered} of {} BLEs clustered",
            c.bles.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_netlist::ir::CellKind;
    use std::collections::HashSet;

    /// A chain of `n` LUT+FF pairs: lut_i(q_{i-1}, x_i) -> ff_i -> q_i.
    fn lut_ff_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let mut prev = nl.net("x_in");
        nl.add_input(prev);
        for i in 0..n {
            let x = nl.net(&format!("x{i}"));
            nl.add_input(x);
            let d = nl.net(&format!("d{i}"));
            let q = nl.net(&format!("q{i}"));
            nl.add_cell(
                &format!("l{i}"),
                CellKind::Lut {
                    k: 2,
                    truth: 0b0110,
                },
                vec![prev, x],
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
            prev = q;
        }
        nl.add_output(prev);
        nl
    }

    #[test]
    fn cluster_of_derives_inputs_and_clock() {
        let ble = |inputs: &[u32], output: u32, clock: Option<u32>| Ble {
            name: format!("b{output}"),
            lut: None,
            ff: None,
            inputs: inputs.iter().map(|&n| NetId(n)).collect(),
            output: NetId(output),
            clock: clock.map(NetId),
        };
        let bles = [
            ble(&[3, 10], 10, Some(20)), // toggle FF: reads its own output
            ble(&[1, 7, 10], 11, None),
            ble(&[2, 11], 12, Some(21)),
        ];
        let nets = |ids: &[u32]| ids.iter().map(|&n| NetId(n)).collect::<Vec<_>>();

        let toggle = cluster_of(&bles, vec![BleId(0)]);
        assert_eq!(toggle.inputs, nets(&[3]), "its own output is no input");
        assert_eq!(toggle.clock, Some(NetId(20)));

        let c = cluster_of(&bles, vec![BleId(2), BleId(1)]);
        assert_eq!(c.bles, vec![BleId(2), BleId(1)], "member order is kept");
        assert_eq!(c.inputs, nets(&[1, 2, 7, 10]), "inputs come out sorted");
        assert_eq!(c.clock, Some(NetId(21)));

        let c = cluster_of(&bles, vec![BleId(1), BleId(0), BleId(2)]);
        assert_eq!(c.inputs, nets(&[1, 2, 3, 7]));
        assert_eq!(c.clock, Some(NetId(20)), "the first clocked member's");
    }

    #[test]
    fn ble_formation_fuses_lut_ff() {
        let nl = lut_ff_chain(4);
        let arch = ClbArch::paper_default();
        let bles = form_bles(&nl, &arch).unwrap();
        assert_eq!(bles.len(), 4, "each LUT+FF pair is one BLE");
        for b in &bles {
            assert!(b.lut.is_some() && b.ff.is_some());
            assert!(b.clock.is_some());
        }
    }

    #[test]
    fn lut_with_fanout_not_fused() {
        let mut nl = Netlist::new("t");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let a = nl.net("a");
        nl.add_input(a);
        let d = nl.net("d");
        let q = nl.net("q");
        let y = nl.net("y");
        nl.add_output(q);
        nl.add_output(y);
        nl.add_cell("l", CellKind::Lut { k: 1, truth: 0b10 }, vec![a], d);
        nl.add_cell(
            "f",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![d],
            q,
        );
        nl.add_cell("l2", CellKind::Lut { k: 1, truth: 0b01 }, vec![d], y);
        let bles = form_bles(&nl, &ClbArch::paper_default()).unwrap();
        // LUT 'l' has two sinks -> separate BLEs for l, f, l2.
        assert_eq!(bles.len(), 3);
    }

    #[test]
    fn packing_respects_limits() {
        let nl = lut_ff_chain(23);
        let arch = ClbArch::paper_default();
        let c = pack(&nl, &arch).unwrap();
        validate(&c).unwrap();
        // 23 BLEs at N = 5: at least 5 clusters.
        assert!(c.clusters.len() >= 5, "{} clusters", c.clusters.len());
        assert!(c.utilization() > 0.7, "utilization {}", c.utilization());
        for cl in &c.clusters {
            assert!(cl.inputs.len() <= arch.inputs);
            assert!(cl.bles.len() <= arch.cluster_size);
        }
    }

    #[test]
    fn tight_input_budget_lowers_utilization() {
        let nl = lut_ff_chain(30);
        let mut tight = ClbArch::paper_default();
        tight.inputs = 4; // starve the clusters
        let loose = ClbArch::paper_default(); // Eq. 1: I = 12
        let u_tight = pack(&nl, &tight).unwrap().utilization();
        let u_loose = pack(&nl, &loose).unwrap().utilization();
        assert!(
            u_loose > u_tight,
            "Eq.1 input budget must fill clusters better: {u_loose} vs {u_tight}"
        );
    }

    #[test]
    fn mixed_clocks_split_clusters() {
        let mut nl = Netlist::new("2clk");
        let clk1 = nl.net("clk1");
        let clk2 = nl.net("clk2");
        nl.add_clock(clk1);
        nl.add_clock(clk2);
        let a = nl.net("a");
        nl.add_input(a);
        for i in 0..4 {
            let q = nl.net(&format!("q{i}"));
            nl.add_output(q);
            let clk = if i % 2 == 0 { clk1 } else { clk2 };
            nl.add_cell(
                &format!("f{i}"),
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![a],
                q,
            );
        }
        let c = pack(&nl, &ClbArch::paper_default()).unwrap();
        for cl in &c.clusters {
            let clocks: HashSet<_> = cl
                .bles
                .iter()
                .filter_map(|&b| c.bles[b.0 as usize].clock)
                .collect();
            assert!(clocks.len() <= 1, "one clock per cluster");
        }
        assert!(c.clusters.len() >= 2);
    }

    #[test]
    fn unmapped_netlist_rejected() {
        let mut nl = Netlist::new("g");
        let a = nl.net("a");
        let y = nl.net("y");
        nl.add_input(a);
        nl.add_output(y);
        nl.add_cell("g", CellKind::Not, vec![a], y);
        assert!(matches!(
            pack(&nl, &ClbArch::paper_default()),
            Err(PackError::NotMapped(_))
        ));
    }

    #[test]
    fn wide_lut_rejected() {
        let mut nl = Netlist::new("w");
        let ins: Vec<NetId> = (0..6).map(|i| nl.net(&format!("i{i}"))).collect();
        let y = nl.net("y");
        for &i in &ins {
            nl.add_input(i);
        }
        nl.add_output(y);
        nl.add_cell("l", CellKind::Lut { k: 6, truth: 1 }, ins, y);
        assert!(matches!(
            pack(&nl, &ClbArch::paper_default()),
            Err(PackError::LutTooWide { .. })
        ));
    }

    #[test]
    fn constants_absorbed() {
        let mut nl = Netlist::new("k");
        let y = nl.net("y");
        nl.add_output(y);
        nl.add_cell("c", CellKind::Const1, vec![], y);
        absorb_constants(&mut nl);
        let c = pack(&nl, &ClbArch::paper_default()).unwrap();
        assert_eq!(c.bles.len(), 1);
    }

    #[test]
    fn external_nets_and_producers() {
        let nl = lut_ff_chain(8);
        let c = pack(&nl, &ClbArch::paper_default()).unwrap();
        let ext = c.external_nets();
        assert!(!ext.is_empty());
        // The final output net must be produced by some cluster.
        let out = *c.netlist.outputs.first().unwrap();
        assert!(c.producer(out).is_some());
        // Primary inputs have no producer.
        let pi = c.netlist.find_net("x0").unwrap();
        assert!(c.producer(pi).is_none());
    }
}
