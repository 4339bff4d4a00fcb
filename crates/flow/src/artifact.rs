//! Canonical byte forms for every staged result type.
//!
//! The durable stage store ([`crate::store`]) persists stage outputs on
//! disk; [`Artifact`] is the contract a staged type must satisfy to be
//! storable: an exact, deterministic byte encoding and its inverse.
//! "Exact" means `from_bytes(to_bytes(x))` reproduces `x` completely
//! (cell names included — the lossy, human-facing `canonical_text`
//! renderings are *key* material, not storage formats), and
//! "deterministic" means equal values encode to equal bytes, so a stored
//! payload can be digest-verified on every load.
//!
//! Each implementation delegates to the codec beside its type
//! ([`fpga_netlist::codec`], `fpga_pack::codec`, `fpga_place::codec`,
//! `fpga_route::codec`, bitstream frames); this module only composes
//! them. Decode errors are plain strings: the caller (the disk-store
//! read path) treats *any* failure identically — quarantine the entry
//! and recompute.

use std::iter::once;

use fpga_bitstream::frames;
use fpga_netlist::codec::{ByteReader, ByteWriter};
use fpga_netlist::{NetId, Netlist};
use fpga_pack::Clustering;
use fpga_place::codec::{read_device, write_device};
use fpga_place::Placement;
use fpga_power::PowerReport;
use fpga_route::rrgraph::RrGraph;

use crate::stages::{GeneratedBitstream, RoutedDesign};

/// A staged result type with an exact canonical byte form.
pub trait Artifact: Sized + Send + Sync + 'static {
    /// Short stable name recorded in stored-entry headers (a second
    /// guard, besides the stage id, against decoding bytes as the wrong
    /// type).
    const KIND: &'static str;

    /// Exact, deterministic encoding.
    fn to_bytes(&self) -> Vec<u8>;

    /// Inverse of [`Artifact::to_bytes`]. Any error means "treat the
    /// entry as corrupt": the store quarantines it and the stage is
    /// recomputed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, String>;
}

impl Artifact for Netlist {
    const KIND: &'static str = "netlist";

    fn to_bytes(&self) -> Vec<u8> {
        fpga_netlist::codec::netlist_to_bytes(self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        fpga_netlist::codec::netlist_from_bytes(bytes).map_err(|e| e.to_string())
    }
}

impl Artifact for Clustering {
    const KIND: &'static str = "clustering";

    fn to_bytes(&self) -> Vec<u8> {
        fpga_pack::clustering_to_bytes(self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        fpga_pack::clustering_from_bytes(bytes).map_err(|e| e.to_string())
    }
}

impl Artifact for Placement {
    const KIND: &'static str = "placement";

    fn to_bytes(&self) -> Vec<u8> {
        fpga_place::placement_to_bytes(self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        fpga_place::placement_from_bytes(bytes).map_err(|e| e.to_string())
    }
}

/// The routing-resource graph is regenerable ([`RrGraph::build`] is a
/// deterministic function of device × channel width), so the stored form
/// is the device, the route trees, and the critical path — the graph is
/// rebuilt on load and the stored node ids stay valid against it.
impl Artifact for RoutedDesign {
    const KIND: &'static str = "routed-design";

    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_device(&mut w, &self.device);
        w.bytes(&fpga_route::route_result_to_bytes(&self.routing));
        w.seq(&self.critical_nets, |w, net| w.u32(net.0));
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(bytes);
        let inner = (|| {
            let device = read_device(&mut r)?;
            let routing = fpga_route::route_result_from_bytes(r.bytes()?)?;
            let critical_nets = r.seq(|r| Ok(NetId(r.u32()?)))?;
            r.finish()?;
            Ok::<_, fpga_netlist::CodecError>((device, routing, critical_nets))
        })();
        let (device, routing, critical_nets) = inner.map_err(|e| e.to_string())?;
        let graph = RrGraph::build(&device, routing.channel_width);
        // The entry's digest proves only that these are the bytes the
        // writer wrote: an id past the rebuilt graph would index out of it
        // in the bitstream, lint and timing code, so refuse it here.
        let nodes = graph.node_count();
        let mut ids = routing.nets.iter().flat_map(|net| {
            let tree = net
                .tree
                .iter()
                .flat_map(|&(node, parent)| once(node).chain(parent));
            once(net.source)
                .chain(net.sinks.iter().copied())
                .chain(tree)
        });
        if let Some(id) = ids.find(|id| id.0 as usize >= nodes) {
            return Err(format!(
                "RR node id {} out of range: the graph holds {nodes}",
                id.0
            ));
        }
        Ok(RoutedDesign {
            device,
            graph,
            routing,
            critical_nets,
        })
    }
}

impl Artifact for PowerReport {
    const KIND: &'static str = "power-report";

    fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        PowerReport::from_bytes(bytes).map_err(|e| e.to_string())
    }
}

/// The frame writer/parser pair is already an exact, CRC-protected
/// binary codec ("readback returns exactly what was written"), so the
/// stored payload *is* the bitstream file format.
impl Artifact for GeneratedBitstream {
    const KIND: &'static str = "bitstream";

    fn to_bytes(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let bitstream = frames::parse(bytes).map_err(|e| e.to_string())?;
        Ok(GeneratedBitstream {
            bitstream,
            bytes: bytes.to_vec(),
        })
    }
}

/// The verify stage's cached value is the *fact that it passed*; the
/// payload is empty.
impl Artifact for () {
    const KIND: &'static str = "verified";

    fn to_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!("verify artifact carries {} byte(s)", bytes.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_artifact_is_empty_and_strict() {
        assert!(Artifact::to_bytes(&()).is_empty());
        <() as Artifact>::from_bytes(&[]).unwrap();
        assert!(<() as Artifact>::from_bytes(&[0]).is_err());
    }

    #[test]
    fn rr_node_ids_outside_the_rebuilt_graph_are_refused() {
        use fpga_route::rrgraph::RrNodeId;
        use fpga_route::{RouteResult, RoutedNet};

        let device = fpga_arch::Device::new(fpga_arch::Architecture::paper_default(), 2, 2);
        let graph = RrGraph::build(&device, 4);
        let nodes = graph.node_count();
        let design = RoutedDesign {
            device,
            graph,
            routing: RouteResult {
                nets: vec![RoutedNet {
                    net: NetId(0),
                    source: RrNodeId(0),
                    sinks: vec![RrNodeId(1)],
                    tree: vec![(RrNodeId(0), None), (RrNodeId(1), Some(RrNodeId(0)))],
                }],
                channel_width: 4,
                iterations: 1,
                wirelength: 0,
                stats: Vec::new(),
                probes: Vec::new(),
            },
            critical_nets: Vec::new(),
        };
        // Encode `design` after `corrupt`, decode, and return the refusal.
        let refusal = |corrupt: fn(&mut RoutedNet, RrNodeId)| {
            let mut bad = design.clone();
            corrupt(&mut bad.routing.nets[0], RrNodeId(nodes as u32));
            RoutedDesign::from_bytes(&bad.to_bytes()).err()
        };
        assert_eq!(refusal(|_, _| {}), None, "the clean design decodes");
        let want = Some(format!(
            "RR node id {nodes} out of range: the graph holds {nodes}"
        ));
        assert_eq!(refusal(|n, id| n.source = id), want);
        assert_eq!(refusal(|n, id| n.sinks[0] = id), want);
        assert_eq!(refusal(|n, id| n.tree[1].0 = id), want);
        assert_eq!(refusal(|n, id| n.tree[1].1 = Some(id)), want);
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds = [
            <Netlist as Artifact>::KIND,
            <Clustering as Artifact>::KIND,
            <Placement as Artifact>::KIND,
            <RoutedDesign as Artifact>::KIND,
            <PowerReport as Artifact>::KIND,
            <GeneratedBitstream as Artifact>::KIND,
            <() as Artifact>::KIND,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
