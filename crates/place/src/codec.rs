//! Binary wire codec for [`Placement`] — the placed-design artifact the
//! flow server persists between runs.
//!
//! The block table is written as it stands, ascending by block, and a
//! decode refuses any other order: [`Placement::slot`] binary-searches
//! it. A decode also refuses a net the router could not route: one with
//! fewer than two terminals, or with a terminal the table does not
//! place. The device's [`Architecture`] already has a canonical, stable
//! JSON form (it is what the stage-cache keys digest), so that existing
//! machinery is reused verbatim rather than re-encoded field by field.

use fpga_arch::device::{Device, GridLoc};
use fpga_arch::Architecture;
use fpga_netlist::codec::{ByteReader, ByteWriter, CodecError, CodecResult};
use fpga_netlist::NetId;
use fpga_pack::ClusterId;

use crate::cost::PlacedNet;
use crate::{BlockRef, Placement, Slot};

/// A block as its variant tag, then its index.
fn write_block_ref(w: &mut ByteWriter, b: &BlockRef) {
    let (tag, index) = match b {
        BlockRef::Cluster(c) => (0, c.0),
        BlockRef::InputPad(n) => (1, n.0),
        BlockRef::OutputPad(n) => (2, n.0),
    };
    w.u8(tag);
    w.u32(index);
}

fn read_block_ref(r: &mut ByteReader) -> CodecResult<BlockRef> {
    let tag = r.u8()?;
    let index = r.u32()?;
    Ok(match tag {
        0 => BlockRef::Cluster(ClusterId(index)),
        1 => BlockRef::InputPad(NetId(index)),
        2 => BlockRef::OutputPad(NetId(index)),
        other => return Err(CodecError(format!("bad block-ref tag {other}"))),
    })
}

/// Serialize a device: the architecture's canonical JSON plus the grid.
pub fn write_device(w: &mut ByteWriter, d: &Device) {
    w.str(&d.arch.canonical_text());
    w.usize(d.width);
    w.usize(d.height);
}

/// Inverse of [`write_device`].
pub fn read_device(r: &mut ByteReader) -> CodecResult<Device> {
    let arch = Architecture::from_json(&r.str()?)
        .map_err(|e| CodecError(format!("bad architecture JSON: {e}")))?;
    Ok(Device {
        arch,
        width: r.usize()?,
        height: r.usize()?,
    })
}

/// Serialize a placement (device, block table, cost, placed nets).
pub fn placement_to_bytes(p: &Placement) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_device(&mut w, &p.device);
    w.seq(&p.slots, |w, (block, slot)| {
        write_block_ref(w, block);
        w.u32(slot.loc.x);
        w.u32(slot.loc.y);
        w.u32(slot.sub);
    });
    w.f64(p.cost);
    w.seq(&p.nets, |w, net: &PlacedNet| {
        w.u32(net.net.0);
        w.seq(&net.terminals, write_block_ref);
    });
    w.into_bytes()
}

/// Inverse of [`placement_to_bytes`].
pub fn placement_from_bytes(bytes: &[u8]) -> CodecResult<Placement> {
    let mut r = ByteReader::new(bytes);
    let device = read_device(&mut r)?;
    let slots: Vec<(BlockRef, Slot)> = r.seq(|r| {
        let block = read_block_ref(r)?;
        let slot = Slot {
            loc: GridLoc {
                x: r.u32()?,
                y: r.u32()?,
            },
            sub: r.u32()?,
        };
        Ok((block, slot))
    })?;
    if slots.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
        return Err(CodecError("placement blocks not strictly ascending".into()));
    }
    let cost = r.f64()?;
    let nets = r.seq(|r| {
        let net = NetId(r.u32()?);
        let terminals = r.seq(read_block_ref)?;
        if terminals.len() < 2 {
            return Err(CodecError(format!(
                "placed net {} has {} terminal(s)",
                net.0,
                terminals.len()
            )));
        }
        let unplaced = |t: &&BlockRef| slots.binary_search_by_key(*t, |(b, _)| *b).is_err();
        if let Some(t) = terminals.iter().find(unplaced) {
            return Err(CodecError(format!(
                "placed net {} has terminal {t:?}, which no slot places",
                net.0
            )));
        }
        Ok(PlacedNet { net, terminals })
    })?;
    r.finish()?;
    Ok(Placement {
        device,
        slots,
        cost,
        nets,
        stats: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Placement {
        let device = Device::new(Architecture::paper_default(), 2, 2);
        let slot = |x, y, sub| Slot {
            loc: GridLoc::new(x, y),
            sub,
        };
        let slots = vec![
            (BlockRef::Cluster(ClusterId(0)), slot(1, 1, 0)),
            (BlockRef::InputPad(NetId(3)), slot(0, 1, 1)),
            (BlockRef::OutputPad(NetId(4)), slot(3, 2, 0)),
        ];
        Placement {
            device,
            slots,
            cost: 1.25,
            nets: vec![PlacedNet {
                net: NetId(3),
                terminals: vec![
                    BlockRef::InputPad(NetId(3)),
                    BlockRef::Cluster(ClusterId(0)),
                ],
            }],
            stats: vec![crate::SweepStats::default()],
        }
    }

    #[test]
    fn placement_round_trips_exactly() {
        let p = sample();
        let bytes = placement_to_bytes(&p);
        let back = placement_from_bytes(&bytes).unwrap();
        assert_eq!(placement_to_bytes(&back), bytes);
        assert_eq!(back.slots, p.slots);
        assert_eq!(back.cost, p.cost);
        assert_eq!(back.device.arch, p.device.arch);
        assert_eq!((back.device.width, back.device.height), (2, 2));
        assert!(back.stats.is_empty(), "run statistics are not serialized");
    }

    /// `Placement::slot` binary-searches the table, so a decode refuses
    /// entries out of order and a block listed twice.
    #[test]
    fn unordered_or_repeated_blocks_are_refused() {
        let mut swapped = sample();
        swapped.slots.swap(0, 2);
        let mut repeated = sample();
        repeated.slots.insert(1, repeated.slots[1]);
        for p in [swapped, repeated] {
            let err = placement_from_bytes(&placement_to_bytes(&p)).unwrap_err();
            assert!(err.0.contains("strictly ascending"), "{err:?}");
        }
    }

    /// The router needs a driver and a sink for every net, each in the
    /// block table: a decode refuses a net with fewer than two
    /// terminals, or with one no slot places.
    #[test]
    fn nets_the_router_cannot_route_are_refused() {
        let mut lone = sample();
        lone.nets[0].terminals.pop();
        let mut unplaced = sample();
        unplaced.nets[0]
            .terminals
            .push(BlockRef::Cluster(ClusterId(7)));
        for (p, want) in [(lone, "1 terminal"), (unplaced, "Cluster(ClusterId(7))")] {
            let err = placement_from_bytes(&placement_to_bytes(&p)).unwrap_err();
            assert!(err.0.contains(want), "{err:?}");
        }
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut bytes = placement_to_bytes(&sample());
        // Corrupt the architecture JSON length so the decode fails cleanly.
        bytes[0] ^= 0xff;
        assert!(placement_from_bytes(&bytes).is_err());
    }
}
