//! Depth-oriented K-LUT technology mapping (the "SIS" mapping stage of the
//! Fig. 11 flow).
//!
//! The algorithm is priority-cut mapping: for every node of the 2-bounded
//! network, enumerate up to `cut_limit` K-feasible cuts (merging the cuts
//! of the two fanins), label each node with the best achievable LUT depth
//! (FlowMap's optimality criterion), and tie-break on area flow so the
//! cover stays compact. Covering walks from the outputs, instantiating one
//! K-LUT per selected cut; each LUT's truth table is computed by
//! simulating its cone over all leaf combinations.

use fpga_netlist::ir::{CellId, CellKind, NetId, Netlist};

use crate::decompose::decompose;
use crate::{Result, SynthError};

/// Mapping options.
#[derive(Clone, Copy, Debug)]
pub struct MapOptions {
    /// LUT input count (the platform's K = 4).
    pub k: usize,
    /// Cuts kept per node.
    pub cut_limit: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            k: 4,
            cut_limit: 10,
        }
    }
}

/// Mapping statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapReport {
    /// Number of LUTs in the mapped netlist.
    pub luts: usize,
    /// LUT depth of the mapped netlist (levels of LUTs).
    pub depth: usize,
    /// Flip-flops carried through.
    pub ffs: usize,
}

/// One cut: up to K leaf nets, sorted.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Cut {
    leaves: Vec<NetId>,
}

impl Cut {
    fn merge(a: &Cut, b: &Cut, k: usize) -> Option<Cut> {
        let mut leaves = Vec::with_capacity(k);
        let (mut i, mut j) = (0, 0);
        while i < a.leaves.len() || j < b.leaves.len() {
            let next = match (a.leaves.get(i), b.leaves.get(j)) {
                (Some(&x), Some(&y)) => {
                    if x < y {
                        i += 1;
                        x
                    } else if y < x {
                        j += 1;
                        y
                    } else {
                        i += 1;
                        j += 1;
                        x
                    }
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => break,
            };
            if leaves.len() == k {
                return None;
            }
            leaves.push(next);
        }
        Some(Cut { leaves })
    }
}

/// Map a netlist (any gate mix) to K-LUTs + FFs.
pub fn map_to_luts(netlist: &Netlist, opts: MapOptions) -> Result<(Netlist, MapReport)> {
    if opts.k < 2 || opts.k > 6 {
        return Err(SynthError::Internal(format!(
            "unsupported LUT size K={}",
            opts.k
        )));
    }
    let two_bounded = decompose(netlist)?;
    let order = two_bounded.topo_order()?;
    let drivers = two_bounded.drivers();

    // Leaf nets: PIs, FF outputs, and constant-cell outputs.
    let is_leaf_net = |net: NetId| -> bool {
        match drivers[net.index()] {
            None => true, // primary input (validated netlists only)
            Some(cid) => matches!(
                two_bounded.cells[cid.index()].kind,
                CellKind::Dff { .. } | CellKind::Const0 | CellKind::Const1
            ),
        }
    };

    // Cut enumeration in topological order. Every net starts with its
    // singleton cut (all a leaf offers); labeling a node replaces it.
    let n_nets = two_bounded.nets.len();
    let leaf_cut = |net: NetId| Cut { leaves: vec![net] };
    let mut cuts: Vec<Vec<Cut>> = (0..n_nets)
        .map(|n| vec![leaf_cut(NetId(n as u32))])
        .collect();
    let mut arrival: Vec<usize> = vec![0; n_nets];
    let mut fanout_est: Vec<usize> = vec![0; n_nets];
    for c in &two_bounded.cells {
        for &i in &c.inputs {
            fanout_est[i.index()] += 1;
        }
    }

    let cut_arrival = |cut: &Cut, arrival: &[usize]| -> usize {
        cut.leaves
            .iter()
            .map(|l| arrival[l.index()])
            .max()
            .unwrap_or(0)
    };

    for &cid in &order {
        let cell = &two_bounded.cells[cid.index()];
        let out = cell.output;
        if matches!(cell.kind, CellKind::Const0 | CellKind::Const1) {
            continue;
        }
        let fanin = |i: usize| cuts[cell.inputs[i].index()].as_slice();
        let mut candidates: Vec<Cut> = Vec::new();
        match cell.inputs.len() {
            0 => {}
            1 => {
                for a in fanin(0) {
                    if a.leaves.len() <= opts.k {
                        candidates.push(a.clone());
                    }
                }
            }
            2 => {
                for a in fanin(0) {
                    for b in fanin(1) {
                        if let Some(m) = Cut::merge(a, b, opts.k) {
                            candidates.push(m);
                        }
                    }
                }
            }
            n => {
                return Err(SynthError::Internal(format!(
                    "decomposition left a {n}-input cell '{}'",
                    cell.name
                )))
            }
        }
        // The trivial cut of the node itself (so fanouts can stop here).
        candidates.push(leaf_cut(out));
        candidates.sort();
        candidates.dedup();

        // Rank: arrival (depth) first, then size, then estimated area flow
        // (prefer high-fanout leaves, which are likely shared).
        let score = |cut: &Cut| -> (usize, usize, isize) {
            let arr = if cut.leaves == [out] {
                // The trivial cut's depth is the node's own arrival; it is
                // only usable by fanouts, not for labeling this node.
                usize::MAX / 2
            } else {
                cut_arrival(cut, &arrival) + 1
            };
            let shared: isize = cut
                .leaves
                .iter()
                .map(|l| fanout_est[l.index()].max(1) as isize)
                .sum();
            (arr, cut.leaves.len(), -shared)
        };
        candidates.sort_by_key(&score);
        candidates.truncate(opts.cut_limit.max(2));

        // Label the node with the best non-trivial cut's depth.
        let best = candidates
            .iter()
            .find(|c| c.leaves != [out])
            .ok_or_else(|| SynthError::Internal("node with no usable cut".into()))?;
        arrival[out.index()] = cut_arrival(best, &arrival) + 1;

        // Keep the trivial cut available for fanout merging.
        if !candidates.iter().any(|c| c.leaves == [out]) {
            candidates.push(leaf_cut(out));
        }
        cuts[out.index()] = candidates;
    }

    // Covering: choose the best cut at every required root.
    // Roots keep their first-occurrence order: the cover pops from the end.
    let mut required: Vec<NetId> = Vec::new();
    let mut is_required = vec![false; n_nets];
    let mut push_root = |net: NetId| {
        if !is_leaf_net(net) && !is_required[net.index()] {
            is_required[net.index()] = true;
            required.push(net);
        }
    };
    for &po in &two_bounded.outputs {
        push_root(po);
    }
    for c in &two_bounded.cells {
        if let CellKind::Dff { clock, .. } = c.kind {
            push_root(c.inputs[0]);
            push_root(clock);
        }
    }

    let mut mapped = Netlist::new(&two_bounded.name);
    for net in &two_bounded.nets {
        mapped.net(&net.name);
    }
    mapped.inputs = two_bounded.inputs.clone();
    mapped.outputs = two_bounded.outputs.clone();
    mapped.clocks = two_bounded.clocks.clone();

    // Constants and FFs are carried over directly.
    for c in &two_bounded.cells {
        match &c.kind {
            CellKind::Const0 | CellKind::Const1 => {
                // Only keep constants that something visible uses; covering
                // may reference them as leaves.
                mapped.add_cell(&c.name, c.kind.clone(), vec![], c.output);
            }
            CellKind::Dff { clock, init } => {
                mapped.add_cell(
                    &c.name,
                    CellKind::Dff {
                        clock: *clock,
                        init: *init,
                    },
                    c.inputs.clone(),
                    c.output,
                );
            }
            _ => {}
        }
    }

    let mut emitted: Vec<bool> = vec![false; n_nets];
    // Cone evaluation scratch: (stamp, truth-table word) per net.
    let mut cone: Vec<(usize, u64)> = vec![(0, 0); n_nets];
    let mut lut_count = 0usize;
    let mut max_depth = 0usize;
    let mut queue = required;
    while let Some(root) = queue.pop() {
        if emitted[root.index()] {
            continue;
        }
        emitted[root.index()] = true;
        let cut = cuts[root.index()]
            .iter()
            .find(|c| c.leaves != [root])
            .ok_or_else(|| SynthError::Internal("required net has no cut".into()))?;
        // Compute the truth table of the cone.
        let truth = cone_truth(&two_bounded, &drivers, root, &cut.leaves, &mut cone)?;
        let name = format!(
            "lut_{}",
            two_bounded.net_name(root).replace(['(', ')'], "_")
        );
        // Pad to exactly K inputs? No: LUTs may use fewer inputs.
        let k = cut.leaves.len() as u8;
        lut_count += 1;
        mapped.add_cell(&name, CellKind::Lut { k, truth }, cut.leaves.clone(), root);
        for &leaf in &cut.leaves {
            if !is_leaf_net(leaf) && !emitted[leaf.index()] {
                queue.push(leaf);
            }
        }
    }

    // LUT depth: levelize the mapped netlist.
    let order = mapped.topo_order().map_err(SynthError::Netlist)?;
    let mdrivers = mapped.drivers();
    let mut level: Vec<usize> = vec![0; mapped.cells.len()];
    for &cid in &order {
        let c = &mapped.cells[cid.index()];
        if !matches!(c.kind, CellKind::Lut { .. }) {
            continue;
        }
        let mut lvl = 1usize;
        for &i in &c.inputs {
            if let Some(drv) = mdrivers[i.index()] {
                if matches!(mapped.cells[drv.index()].kind, CellKind::Lut { .. }) {
                    lvl = lvl.max(level[drv.index()] + 1);
                }
            }
        }
        level[cid.index()] = lvl;
        max_depth = max_depth.max(lvl);
    }

    // Remove constants nothing references.
    crate::opt::sweep(&mut mapped)?;

    let report = MapReport {
        luts: lut_count,
        depth: max_depth,
        ffs: mapped.cells.iter().filter(|c| c.kind.is_ff()).count(),
    };
    Ok((mapped, report))
}

/// Truth table of the cone rooted at `root` with the given leaves:
/// bit `m` = root value when leaf `i` carries bit `i` of `m`. `values`
/// holds one word per net, valid where its stamp is the root's id + 1
/// (the cover evaluates each root once).
fn cone_truth(
    netlist: &Netlist,
    drivers: &[Option<CellId>],
    root: NetId,
    leaves: &[NetId],
    values: &mut [(usize, u64)],
) -> Result<u64> {
    let stamp = root.index() + 1;
    let k = leaves.len();
    debug_assert!(k <= 6);
    // Projection patterns: leaf i toggles with period 2^(i+1).
    let n_bits = 1usize << k;
    let mask: u64 = if n_bits == 64 {
        !0
    } else {
        (1u64 << n_bits) - 1
    };
    for (i, &leaf) in leaves.iter().enumerate() {
        let mut pat = 0u64;
        for m in 0..n_bits {
            if m >> i & 1 == 1 {
                pat |= 1 << m;
            }
        }
        values[leaf.index()] = (stamp, pat);
    }
    let v = eval_net(netlist, drivers, root, values, stamp, mask)?;
    Ok(v & mask)
}

fn eval_net(
    netlist: &Netlist,
    drivers: &[Option<CellId>],
    net: NetId,
    values: &mut [(usize, u64)],
    stamp: usize,
    mask: u64,
) -> Result<u64> {
    let (s, v) = values[net.index()];
    if s == stamp {
        return Ok(v);
    }
    let cid = drivers[net.index()].ok_or_else(|| {
        SynthError::Internal(format!(
            "cone evaluation reached undriven net '{}' outside the cut",
            netlist.net_name(net)
        ))
    })?;
    let cell = &netlist.cells[cid.index()];
    let v = match &cell.kind {
        CellKind::Const0 => 0,
        CellKind::Const1 => mask,
        CellKind::Buf => eval_net(netlist, drivers, cell.inputs[0], values, stamp, mask)?,
        CellKind::Not => !eval_net(netlist, drivers, cell.inputs[0], values, stamp, mask)? & mask,
        CellKind::And
        | CellKind::Or
        | CellKind::Xor
        | CellKind::Nand
        | CellKind::Nor
        | CellKind::Xnor => {
            let a = eval_net(netlist, drivers, cell.inputs[0], values, stamp, mask)?;
            let b = if cell.inputs.len() > 1 {
                eval_net(netlist, drivers, cell.inputs[1], values, stamp, mask)?
            } else {
                a
            };
            match cell.kind {
                CellKind::And => a & b,
                CellKind::Or => a | b,
                CellKind::Xor => a ^ b,
                CellKind::Nand => !(a & b) & mask,
                CellKind::Nor => !(a | b) & mask,
                CellKind::Xnor => !(a ^ b) & mask,
                _ => unreachable!(),
            }
        }
        CellKind::Dff { .. } => {
            return Err(SynthError::Internal(
                "cone crossed a flip-flop; FF outputs must be cut leaves".into(),
            ))
        }
        other => {
            return Err(SynthError::Internal(format!(
                "unexpected {} cell in 2-bounded network",
                other.mnemonic()
            )))
        }
    };
    values[net.index()] = (stamp, v & mask);
    Ok(v & mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_netlist::sim::check_equivalence;

    fn assert_mapped(netlist: &Netlist, k: usize) -> MapReport {
        let (mapped, report) = map_to_luts(netlist, MapOptions { k, cut_limit: 8 }).unwrap();
        mapped.validate().unwrap();
        for c in &mapped.cells {
            match &c.kind {
                CellKind::Lut { k: kk, .. } => {
                    assert!(*kk as usize <= k, "LUT too wide: {kk} > {k}")
                }
                CellKind::Dff { .. } | CellKind::Const0 | CellKind::Const1 => {}
                other => panic!("non-LUT cell {} survived mapping", other.mnemonic()),
            }
        }
        check_equivalence(netlist, &mapped, 128, 77).unwrap();
        report
    }

    #[test]
    fn maps_wide_and_into_single_lut_when_possible() {
        let mut n = Netlist::new("w");
        let ins: Vec<NetId> = (0..4).map(|i| n.net(&format!("i{i}"))).collect();
        let y = n.net("y");
        for &i in &ins {
            n.add_input(i);
        }
        n.add_output(y);
        n.add_cell("g", CellKind::And, ins, y);
        let report = assert_mapped(&n, 4);
        assert_eq!(report.luts, 1, "AND4 fits one 4-LUT");
        assert_eq!(report.depth, 1);
    }

    #[test]
    fn maps_adder_slice() {
        // Full adder: s = a^b^cin, cout = maj(a,b,cin).
        let mut n = Netlist::new("fa");
        let a = n.net("a");
        let b = n.net("b");
        let cin = n.net("cin");
        let s = n.net("s");
        let cout = n.net("cout");
        for &i in &[a, b, cin] {
            n.add_input(i);
        }
        n.add_output(s);
        n.add_output(cout);
        let w1 = n.net("w1");
        n.add_cell("x1", CellKind::Xor, vec![a, b], w1);
        n.add_cell("x2", CellKind::Xor, vec![w1, cin], s);
        let w2 = n.net("w2");
        let w3 = n.net("w3");
        let w4 = n.net("w4");
        n.add_cell("a1", CellKind::And, vec![a, b], w2);
        n.add_cell("a2", CellKind::And, vec![w1, cin], w3);
        n.add_cell("o1", CellKind::Or, vec![w2, w3], w4);
        n.add_cell("b1", CellKind::Buf, vec![w4], cout);
        let report = assert_mapped(&n, 4);
        assert!(
            report.luts <= 2,
            "full adder fits two 4-LUTs, got {}",
            report.luts
        );
        assert_eq!(report.depth, 1);
    }

    #[test]
    fn sequential_mapping_keeps_ffs() {
        // 3-bit LFSR-ish ring.
        let mut n = Netlist::new("ring");
        let clk = n.net("clk");
        n.add_clock(clk);
        let q: Vec<NetId> = (0..3).map(|i| n.net(&format!("q{i}"))).collect();
        let d0 = n.net("d0");
        n.add_output(q[2]);
        n.add_cell("fb", CellKind::Xor, vec![q[1], q[2]], d0);
        n.add_cell(
            "f0",
            CellKind::Dff {
                clock: clk,
                init: true,
            },
            vec![d0],
            q[0],
        );
        n.add_cell(
            "f1",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![q[0]],
            q[1],
        );
        n.add_cell(
            "f2",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![q[1]],
            q[2],
        );
        let report = assert_mapped(&n, 4);
        assert_eq!(report.ffs, 3);
        assert!(report.luts >= 1);
    }

    #[test]
    fn depth_is_logarithmic_for_wide_and() {
        // A 16-input AND in 4-LUTs needs depth 2.
        let mut n = Netlist::new("w16");
        let ins: Vec<NetId> = (0..16).map(|i| n.net(&format!("i{i}"))).collect();
        let y = n.net("y");
        for &i in &ins {
            n.add_input(i);
        }
        n.add_output(y);
        n.add_cell("g", CellKind::And, ins, y);
        let report = assert_mapped(&n, 4);
        assert_eq!(report.depth, 2, "16-AND maps to two LUT levels");
        assert!(report.luts <= 5);
    }

    #[test]
    fn k6_uses_wider_luts() {
        let mut n = Netlist::new("w6");
        let ins: Vec<NetId> = (0..6).map(|i| n.net(&format!("i{i}"))).collect();
        let y = n.net("y");
        for &i in &ins {
            n.add_input(i);
        }
        n.add_output(y);
        n.add_cell("g", CellKind::Xor, ins, y);
        let r4 = assert_mapped(&n, 4);
        let r6 = assert_mapped(&n, 6);
        assert!(r6.luts <= r4.luts);
        assert!(r6.depth <= r4.depth);
        assert_eq!(r6.depth, 1);
    }

    #[test]
    fn po_fed_directly_by_pi_needs_no_lut() {
        let mut n = Netlist::new("wire");
        let a = n.net("a");
        n.add_input(a);
        n.add_output(a);
        let (mapped, report) = map_to_luts(&n, MapOptions::default()).unwrap();
        mapped.validate().unwrap();
        assert_eq!(report.luts, 0);
    }

    #[test]
    fn vhdl_counter_maps_and_matches() {
        let src = "
entity c is port (clk, rst : in std_logic; q : out std_logic_vector(3 downto 0)); end c;
architecture r of c is
  signal cnt : std_logic_vector(3 downto 0);
begin
  process (clk) begin
    if rising_edge(clk) then
      if rst = '1' then cnt <= \"0000\"; else cnt <= cnt + 1; end if;
    end if;
  end process;
  q <= cnt;
end r;";
        let n = crate::diviner::synthesize(src).unwrap();
        let report = assert_mapped(&n, 4);
        assert_eq!(report.ffs, 4);
        assert!(
            report.luts <= 12,
            "4-bit counter should be small: {}",
            report.luts
        );
    }
}
