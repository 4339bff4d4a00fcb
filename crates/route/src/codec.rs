//! Binary wire codec for [`RouteResult`] — the routed-design artifact
//! the flow server persists between runs.
//!
//! The routing-resource graph is deliberately *not* serialized: it is a
//! pure function of the device and the channel width
//! ([`crate::rrgraph::RrGraph::build`] is deterministic), so consumers
//! rebuild it instead of storing megabytes of regenerable structure.
//! Node ids in the stored trees stay valid because the rebuilt graph is
//! bit-identical to the one the router used.

use fpga_netlist::codec::{ByteReader, ByteWriter, CodecResult};
use fpga_netlist::NetId;

use crate::rrgraph::RrNodeId;
use crate::{RouteResult, RoutedNet};

fn write_node(w: &mut ByteWriter, n: RrNodeId) {
    w.u32(n.0);
}

fn read_node(r: &mut ByteReader) -> CodecResult<RrNodeId> {
    Ok(RrNodeId(r.u32()?))
}

/// Serialize a routing result (net trees, channel width, iteration and
/// wirelength counters). The per-iteration search statistics and the
/// min-W search's probes stay out: they describe a run, not the
/// routing, and the bytes are a contract
/// with every store already on disk.
pub fn route_result_to_bytes(res: &RouteResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.usize(res.channel_width);
    w.usize(res.iterations);
    w.usize(res.wirelength);
    w.seq(&res.nets, |w, net: &RoutedNet| {
        w.u32(net.net.0);
        write_node(w, net.source);
        w.seq(&net.sinks, |w, &n| write_node(w, n));
        w.seq(&net.tree, |w, (node, parent)| {
            write_node(w, *node);
            w.opt(parent, |w, &p| write_node(w, p));
        });
    });
    w.into_bytes()
}

/// Inverse of [`route_result_to_bytes`].
pub fn route_result_from_bytes(bytes: &[u8]) -> CodecResult<RouteResult> {
    let mut r = ByteReader::new(bytes);
    let channel_width = r.usize()?;
    let iterations = r.usize()?;
    let wirelength = r.usize()?;
    let nets = r.seq(|r| {
        Ok(RoutedNet {
            net: NetId(r.u32()?),
            source: read_node(r)?,
            sinks: r.seq(read_node)?,
            tree: r.seq(|r| Ok((read_node(r)?, r.opt(|r| read_node(r))?)))?,
        })
    })?;
    r.finish()?;
    Ok(RouteResult {
        nets,
        channel_width,
        iterations,
        wirelength,
        stats: Vec::new(),
        probes: Vec::new(),
        polished: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RouteResult {
        RouteResult {
            nets: vec![
                RoutedNet {
                    net: NetId(0),
                    source: RrNodeId(10),
                    sinks: vec![RrNodeId(20), RrNodeId(21)],
                    tree: vec![
                        (RrNodeId(10), None),
                        (RrNodeId(15), Some(RrNodeId(10))),
                        (RrNodeId(20), Some(RrNodeId(15))),
                        (RrNodeId(21), Some(RrNodeId(15))),
                    ],
                },
                RoutedNet {
                    net: NetId(3),
                    source: RrNodeId(7),
                    sinks: vec![],
                    tree: vec![(RrNodeId(7), None)],
                },
            ],
            channel_width: 12,
            iterations: 3,
            wirelength: 2,
            stats: vec![crate::IterationStats::default()],
            probes: vec![(12, crate::Probe::Routed)],
            polished: true,
        }
    }

    #[test]
    fn route_result_round_trips_exactly() {
        let res = sample();
        let bytes = route_result_to_bytes(&res);
        let back = route_result_from_bytes(&bytes).unwrap();
        assert_eq!(route_result_to_bytes(&back), bytes);
        assert_eq!(back.nets.len(), 2);
        assert_eq!(back.nets[0].tree.len(), 4);
        assert_eq!(back.channel_width, 12);
        assert!(back.stats.is_empty(), "run statistics are not serialized");
        assert!(back.probes.is_empty(), "search probes are not serialized");
        assert!(!back.polished, "the polish record is not serialized");
    }

    #[test]
    fn truncation_never_decodes() {
        let bytes = route_result_to_bytes(&sample());
        for cut in [0, 8, bytes.len() - 1] {
            assert!(route_result_from_bytes(&bytes[..cut]).is_err());
        }
    }
}
