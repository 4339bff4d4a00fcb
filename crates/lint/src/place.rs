//! Placement design rules: `PL001` — overlapping, out-of-bounds, or
//! missing block placements.

use fpga_arch::device::BlockKind;
use fpga_pack::{ClusterId, Clustering};
use fpga_place::{BlockRef, Placement};

use crate::diag::{Diagnostic, Severity};

const STAGE: &str = "place";

fn deny(subject: String, message: String) -> Diagnostic {
    Diagnostic::new("PL001", Severity::Deny, STAGE, subject, message)
}

fn block_name(c: &Clustering, b: BlockRef) -> String {
    match b {
        BlockRef::Cluster(id) => format!("cluster {}", id.0),
        BlockRef::InputPad(n) => format!("input pad '{}'", c.netlist.net_name(n)),
        BlockRef::OutputPad(n) => format!("output pad '{}'", c.netlist.net_name(n)),
    }
}

/// Run all placement rules.
pub fn lint_placement(c: &Clustering, p: &Placement) -> Vec<Diagnostic> {
    let device = &p.device;
    let mut out = Vec::new();

    for ci in 0..c.clusters.len() {
        if p.slot(BlockRef::Cluster(ClusterId(ci as u32))).is_none() {
            out.push(deny(
                format!("cluster {ci}"),
                format!("cluster {ci} has no placed location"),
            ));
        }
    }

    // By slot; a stable sort keeps each run of equal slots in block
    // order, so every later block of a run overlaps its first, lowest.
    let mut blocks = p.slots.clone();
    blocks.sort_by_key(|&(_, slot)| slot);
    let mut run_first = None;
    for (block, slot) in blocks {
        let subject = block_name(c, block);
        let at = format!("({}, {})", slot.loc.x, slot.loc.y);
        match (device.block_at(slot.loc), block.is_io()) {
            (BlockKind::Clb, false) => {
                if slot.sub != 0 {
                    out.push(deny(
                        subject.clone(),
                        format!(
                            "{subject} uses sub-slot {} of single-cluster CLB tile {at}",
                            slot.sub
                        ),
                    ));
                }
            }
            (BlockKind::Io, true) => {
                let cap = device.arch.io_per_tile;
                if slot.sub as usize >= cap {
                    out.push(deny(
                        subject.clone(),
                        format!(
                            "{subject} uses pad {} of IO tile {at}, which holds {cap} pads",
                            slot.sub
                        ),
                    ));
                }
            }
            (BlockKind::Empty, _) => out.push(deny(
                subject.clone(),
                format!("{subject} is placed outside the fabric at {at}"),
            )),
            (kind, _) => out.push(deny(
                subject.clone(),
                format!("{subject} is placed on a {kind:?} tile at {at}"),
            )),
        }
        match run_first {
            Some((first, first_slot)) if first_slot == slot => out.push(deny(
                subject.clone(),
                format!(
                    "{subject} overlaps {} at {at} sub-slot {}",
                    block_name(c, first),
                    slot.sub
                ),
            )),
            _ => run_first = Some((block, slot)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_arch::device::GridLoc;
    use fpga_arch::Architecture;
    use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine, Slot};

    fn placed(bits: usize) -> (Clustering, Placement) {
        let nl = fpga_circuits_stub(bits);
        let arch = Architecture::paper_default();
        let clustering = fpga_pack::pack(&nl, &arch.clb).unwrap();
        let device = fpga_arch::Device::sized_for(
            arch,
            clustering.clusters.len(),
            nl.inputs.len() + nl.outputs.len() + 1,
        );
        let placement = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.0))
            .place(&clustering, device)
            .unwrap();
        (clustering, placement)
    }

    /// A small mapped netlist (`bits` LUT+FF bits) without pulling in
    /// the circuits crate.
    fn fpga_circuits_stub(bits: usize) -> fpga_netlist::ir::Netlist {
        use fpga_netlist::ir::{CellKind, Netlist};
        let mut n = Netlist::new("bits");
        let clk = n.net("clk");
        n.add_clock(clk);
        for i in 0..bits {
            let a = n.net(&format!("a{i}"));
            let d = n.net(&format!("d{i}"));
            let q = n.net(&format!("q{i}"));
            n.add_input(a);
            n.add_output(q);
            n.add_cell(
                &format!("lut{i}"),
                CellKind::Lut { k: 1, truth: 0b01 },
                vec![a],
                d,
            );
            n.add_cell(
                &format!("ff{i}"),
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![d],
                q,
            );
        }
        n
    }

    /// Moves `block` to `slot` in the table.
    fn move_block(p: &mut Placement, block: BlockRef, slot: Slot) {
        let entry = p.slots.iter_mut().find(|(b, _)| *b == block).unwrap();
        entry.1 = slot;
    }

    #[test]
    fn real_placement_is_clean() {
        let (c, p) = placed(2);
        assert!(lint_placement(&c, &p).is_empty());
    }

    /// Clusters 1 and 2 moved onto cluster 0's slot: every decode of the
    /// placement gives one report, and it names cluster 0, the lowest
    /// block on the slot, as the occupant.
    #[test]
    fn overlap_reports_pl001() {
        let (c, mut p) = placed(11);
        assert!(c.clusters.len() >= 3, "{} clusters", c.clusters.len());
        let target = p.slots[0].1;
        for (_, slot) in &mut p.slots[1..3] {
            *slot = target;
        }
        let bytes = fpga_place::placement_to_bytes(&p);
        let report = || -> Vec<String> {
            let decoded = fpga_place::placement_from_bytes(&bytes).unwrap();
            let diags = lint_placement(&c, &decoded);
            diags.into_iter().map(|d| d.message).collect()
        };
        let first = report();
        let overlaps: Vec<&String> = first.iter().filter(|m| m.contains("overlaps")).collect();
        assert_eq!(overlaps.len(), 2, "{first:?}");
        assert!(overlaps[0].starts_with("cluster 1 overlaps cluster 0 "));
        assert!(overlaps[1].starts_with("cluster 2 overlaps cluster 0 "));
        for _ in 0..20 {
            assert_eq!(report(), first);
        }
    }

    #[test]
    fn out_of_bounds_and_wrong_tile_report_pl001() {
        let (c, mut p) = placed(2);
        let block = BlockRef::Cluster(ClusterId(0));
        // A corner is Empty; (0, y) mid-edge is an IO tile.
        move_block(
            &mut p,
            block,
            Slot {
                loc: GridLoc::new(0, 0),
                sub: 0,
            },
        );
        let diags = lint_placement(&c, &p);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("outside the fabric")),
            "{diags:?}"
        );

        move_block(
            &mut p,
            block,
            Slot {
                loc: GridLoc::new(0, 1),
                sub: 0,
            },
        );
        let diags = lint_placement(&c, &p);
        assert!(
            diags.iter().any(|d| d.message.contains("Io tile")),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_cluster_reports_pl001() {
        let (c, mut p) = placed(2);
        p.slots
            .retain(|(b, _)| *b != BlockRef::Cluster(ClusterId(0)));
        let diags = lint_placement(&c, &p);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("no placed location")),
            "{diags:?}"
        );
    }

    #[test]
    fn io_pad_past_tile_capacity_reports_pl001() {
        let (c, mut p) = placed(2);
        let (io, slot) = *p
            .slots
            .iter()
            .find(|(b, _)| b.is_io())
            .expect("some pad exists");
        let sub = p.device.arch.io_per_tile as u32 + 1;
        move_block(&mut p, io, Slot { loc: slot.loc, sub });
        let diags = lint_placement(&c, &p);
        assert!(
            diags.iter().any(|d| d.message.contains("pads")),
            "{diags:?}"
        );
    }
}
