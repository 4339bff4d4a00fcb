//! Binary wire codec for [`Clustering`] — the packed-design artifact the
//! flow server persists between runs. Built on the primitives in
//! [`fpga_netlist::codec`]; see there for the format conventions
//! (little-endian, length prefixes, no type tags).

use fpga_arch::ClbArch;
use fpga_netlist::codec::{
    netlist_from_bytes, netlist_to_bytes, ByteReader, ByteWriter, CodecResult,
};
use fpga_netlist::{CellId, NetId};

use crate::{Ble, BleId, Cluster, Clustering};

fn write_net_id(w: &mut ByteWriter, id: NetId) {
    w.u32(id.0);
}

/// Serialize a clustering (the mapped netlist rides along, exactly as
/// the in-memory struct keeps it).
pub fn clustering_to_bytes(c: &Clustering) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&netlist_to_bytes(&c.netlist));
    w.usize(c.arch.lut_k);
    w.usize(c.arch.cluster_size);
    w.usize(c.arch.inputs);
    w.usize(c.arch.outputs);
    w.usize(c.arch.clocks);
    w.bool(c.arch.full_crossbar);
    w.seq(&c.bles, |w, ble: &Ble| {
        w.str(&ble.name);
        w.opt(&ble.lut, |w, id| w.u32(id.0));
        w.opt(&ble.ff, |w, id| w.u32(id.0));
        w.seq(&ble.inputs, |w, &id| write_net_id(w, id));
        write_net_id(w, ble.output);
        w.opt(&ble.clock, |w, &id| write_net_id(w, id));
    });
    w.seq(&c.clusters, |w, cluster: &Cluster| {
        w.seq(&cluster.bles, |w, id| w.u32(id.0));
        w.seq(&cluster.inputs, |w, &id| write_net_id(w, id));
        w.opt(&cluster.clock, |w, &id| write_net_id(w, id));
    });
    w.into_bytes()
}

/// Inverse of [`clustering_to_bytes`]. Every cell, net and BLE id must
/// index its table.
pub fn clustering_from_bytes(bytes: &[u8]) -> CodecResult<Clustering> {
    let mut r = ByteReader::new(bytes);
    let netlist = netlist_from_bytes(r.bytes()?)?;
    let (nets, cells) = (netlist.nets.len(), netlist.cells.len());
    let net = |r: &mut ByteReader| Ok(NetId(r.index("net", nets)?));
    let cell = |r: &mut ByteReader| Ok(CellId(r.index("cell", cells)?));
    let arch = ClbArch {
        lut_k: r.usize()?,
        cluster_size: r.usize()?,
        inputs: r.usize()?,
        outputs: r.usize()?,
        clocks: r.usize()?,
        full_crossbar: r.bool()?,
    };
    let bles = r.seq(|r| {
        Ok(Ble {
            name: r.str()?,
            lut: r.opt(cell)?,
            ff: r.opt(cell)?,
            inputs: r.seq(net)?,
            output: net(r)?,
            clock: r.opt(net)?,
        })
    })?;
    let clusters = r.seq(|r| {
        Ok(Cluster {
            bles: r.seq(|r| Ok(BleId(r.index("BLE", bles.len())?)))?,
            inputs: r.seq(net)?,
            clock: r.opt(net)?,
        })
    })?;
    r.finish()?;
    Ok(Clustering {
        netlist,
        arch,
        bles,
        clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_netlist::blif;

    fn sample() -> Clustering {
        let blif = "
.model majority
.inputs a b c
.outputs y
.names a b c y
11- 1
1-1 1
-11 1
.end";
        let mut nl = blif::parse(blif).unwrap();
        crate::prepare(&mut nl).unwrap();
        crate::pack(&nl, &ClbArch::paper_default()).unwrap()
    }

    #[test]
    fn clustering_round_trips_exactly() {
        let c = sample();
        let bytes = clustering_to_bytes(&c);
        let back = clustering_from_bytes(&bytes).unwrap();
        assert_eq!(clustering_to_bytes(&back), bytes);
        assert_eq!(back.bles.len(), c.bles.len());
        assert_eq!(back.clusters.len(), c.clusters.len());
        assert_eq!(back.arch, c.arch);
        assert_eq!(back.netlist.name, c.netlist.name);
    }

    /// Encode `c` after `corrupt`, decode, and return the refusal.
    fn refusal(corrupt: impl FnOnce(&mut Clustering)) -> String {
        let mut c = sample();
        corrupt(&mut c);
        clustering_from_bytes(&clustering_to_bytes(&c))
            .unwrap_err()
            .0
    }

    #[test]
    fn cell_ids_outside_the_cell_table_are_refused() {
        let cells = sample().netlist.cells.len();
        let want = format!("cell id 500 out of range: the table holds {cells}");
        assert_eq!(refusal(|c| c.bles[0].lut = Some(CellId(500))), want);
        assert_eq!(refusal(|c| c.bles[0].ff = Some(CellId(500))), want);
    }

    #[test]
    fn net_ids_outside_the_net_table_are_refused() {
        let nets = sample().netlist.nets.len();
        let want = format!("net id 500 out of range: the table holds {nets}");
        assert_eq!(refusal(|c| c.bles[0].inputs[0] = NetId(500)), want);
        assert_eq!(refusal(|c| c.bles[0].output = NetId(500)), want);
        assert_eq!(refusal(|c| c.bles[0].clock = Some(NetId(500))), want);
        assert_eq!(refusal(|c| c.clusters[0].inputs[0] = NetId(500)), want);
        assert_eq!(refusal(|c| c.clusters[0].clock = Some(NetId(500))), want);
    }

    #[test]
    fn ble_ids_outside_the_ble_table_are_refused() {
        let bles = sample().bles.len();
        let want = format!("BLE id {bles} out of range: the table holds {bles}");
        assert_eq!(
            refusal(|c| c.clusters[0].bles[0] = BleId(bles as u32)),
            want
        );
    }

    #[test]
    fn truncation_never_decodes() {
        let bytes = clustering_to_bytes(&sample());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(clustering_from_bytes(&bytes[..cut]).is_err());
        }
    }
}
