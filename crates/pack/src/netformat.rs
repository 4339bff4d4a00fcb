//! The `.net` clustered-netlist text format (T-VPack's output).
//!
//! One block per primary input, primary output, and CLB. Each CLB lists
//! its pins (`open` for unused) and one `subblock` line per BLE, in the
//! classic T-VPack style.

use crate::{BleId, Cluster, Clustering};
use fpga_netlist::ir::NetId;

/// Render a clustering in `.net` format.
pub fn write_net(c: &Clustering) -> String {
    let mut out = String::new();
    let nn = |n: NetId| c.netlist.net_name(n).to_string();

    for &clk in &c.netlist.clocks {
        out.push_str(&format!(".global {}\n\n", nn(clk)));
    }
    for &pi in &c.netlist.inputs {
        if c.netlist.clocks.contains(&pi) {
            continue;
        }
        out.push_str(&format!(".input {}\npinlist: {}\n\n", nn(pi), nn(pi)));
    }
    for &po in &c.netlist.outputs {
        out.push_str(&format!(".output out_{}\npinlist: {}\n\n", nn(po), nn(po)));
    }

    for (ci, cluster) in c.clusters.iter().enumerate() {
        out.push_str(&format!(".clb clb_{ci}\npinlist:"));
        // I input pins, padded with 'open'.
        for slot in 0..c.arch.inputs {
            match cluster.inputs.get(slot) {
                Some(&net) => out.push_str(&format!(" {}", nn(net))),
                None => out.push_str(" open"),
            }
        }
        // N output pins.
        for slot in 0..c.arch.cluster_size {
            match cluster.bles.get(slot) {
                Some(&bid) => out.push_str(&format!(" {}", nn(c.bles[bid.0 as usize].output))),
                None => out.push_str(" open"),
            }
        }
        // Clock pin.
        match cluster.clock {
            Some(clk) => out.push_str(&format!(" {}\n", nn(clk))),
            None => out.push_str(" open\n"),
        }
        for (si, &bid) in cluster.bles.iter().enumerate() {
            let ble = &c.bles[bid.0 as usize];
            out.push_str(&format!("subblock: {} slot{si}", ble.name));
            for &inp in &ble.inputs {
                out.push_str(&format!(" {}", nn(inp)));
            }
            out.push_str(&format!(" -> {}", nn(ble.output)));
            if ble.ff.is_some() {
                out.push_str(" [registered]");
            }
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Summary counts parsed back from a `.net` document (used by the flow's
/// stage reports and by tests as a cheap structural check).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetFileSummary {
    pub inputs: usize,
    pub outputs: usize,
    pub clbs: usize,
    pub subblocks: usize,
    pub globals: usize,
}

/// Scan a `.net` document.
pub fn summarize_net(text: &str) -> NetFileSummary {
    let mut s = NetFileSummary::default();
    for line in text.lines() {
        let t = line.trim_start();
        if t.starts_with(".input ") {
            s.inputs += 1;
        } else if t.starts_with(".output ") {
            s.outputs += 1;
        } else if t.starts_with(".clb ") {
            s.clbs += 1;
        } else if t.starts_with("subblock: ") {
            s.subblocks += 1;
        } else if t.starts_with(".global ") {
            s.globals += 1;
        }
    }
    s
}

/// Parse a `.net` document back into a [`Clustering`], given the mapped
/// netlist it was produced from. The text's BLE groupings are
/// reconstructed against the netlist (BLEs are re-derived and matched by
/// output net name), so `write_net` -> `parse_net` round-trips the
/// clustering exactly — this is what lets `tvpack`'s output file drive
/// `vpr-pr` as a separate process, the paper's modularity requirement.
pub fn parse_net(
    text: &str,
    netlist: &fpga_netlist::Netlist,
    arch: &fpga_arch::ClbArch,
) -> crate::Result<Clustering> {
    use crate::{cluster_of, form_bles, PackError};

    let bles = form_bles(netlist, arch)?;
    // Net -> the BLE driving it.
    let mut driver: Vec<Option<BleId>> = vec![None; netlist.nets.len()];
    for (i, b) in bles.iter().enumerate() {
        driver[b.output.index()] = Some(BleId(i as u32));
    }

    let mut clusters: Vec<Cluster> = Vec::new();
    let mut current: Option<Vec<BleId>> = None;
    let flush = |current: &mut Option<Vec<BleId>>, clusters: &mut Vec<Cluster>| {
        if let Some(members) = current.take() {
            if members.is_empty() {
                return Err(PackError::Internal("empty .clb block".into()));
            }
            clusters.push(cluster_of(&bles, members));
        }
        Ok(())
    };

    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.starts_with(".clb ") {
            flush(&mut current, &mut clusters)?;
            current = Some(Vec::new());
        } else if t.starts_with(".input") || t.starts_with(".output") || t.starts_with(".global") {
            flush(&mut current, &mut clusters)?;
        } else if let Some(rest) = t.strip_prefix("subblock: ") {
            let Some(members) = current.as_mut() else {
                return Err(PackError::Internal(format!(
                    "line {}: subblock outside a .clb block",
                    lineno + 1
                )));
            };
            // "name slotK in... -> out [registered]"
            let out_name = rest
                .split("-> ")
                .nth(1)
                .map(|o| o.split_whitespace().next().unwrap_or(""))
                .ok_or_else(|| {
                    PackError::Internal(format!("line {}: malformed subblock", lineno + 1))
                })?;
            let ble = netlist
                .find_net(out_name)
                .and_then(|net| driver[net.index()])
                .ok_or_else(|| {
                    PackError::Internal(format!(
                        "line {}: no BLE drives '{out_name}' in the netlist",
                        lineno + 1
                    ))
                })?;
            members.push(ble);
        }
    }
    flush(&mut current, &mut clusters)?;

    let clustering = Clustering {
        netlist: netlist.clone(),
        arch: arch.clone(),
        bles,
        clusters,
    };
    crate::validate(&clustering)?;
    Ok(clustering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack;
    use fpga_arch::ClbArch;
    use fpga_netlist::ir::{CellKind, Netlist};

    fn small_clustering() -> Clustering {
        let mut nl = Netlist::new("t");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let a = nl.net("a");
        let b = nl.net("b");
        nl.add_input(a);
        nl.add_input(b);
        let d = nl.net("d");
        let q = nl.net("q");
        nl.add_output(q);
        nl.add_cell(
            "l0",
            CellKind::Lut {
                k: 2,
                truth: 0b1000,
            },
            vec![a, b],
            d,
        );
        nl.add_cell(
            "f0",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![d],
            q,
        );
        pack(&nl, &ClbArch::paper_default()).unwrap()
    }

    #[test]
    fn net_format_structure() {
        let c = small_clustering();
        let text = write_net(&c);
        let s = summarize_net(&text);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.clbs, 1);
        assert_eq!(s.subblocks, 1);
        assert_eq!(s.globals, 1);
        assert!(text.contains("[registered]"));
        // Pin list padded to I + N + 1 entries.
        let pinline = text
            .lines()
            .find(|l| l.starts_with("pinlist:") && l.contains("open"));
        assert!(pinline.is_some());
    }

    #[test]
    fn net_file_round_trips_the_clustering() {
        let c = small_clustering();
        let text = write_net(&c);
        let back = parse_net(&text, &c.netlist, &c.arch).unwrap();
        assert_eq!(back.clusters.len(), c.clusters.len());
        for (a, b) in back.clusters.iter().zip(c.clusters.iter()) {
            assert_eq!(a.bles, b.bles);
            assert_eq!(a.inputs, b.inputs);
            assert_eq!(a.clock, b.clock);
        }
    }

    #[test]
    fn parse_net_rejects_unknown_outputs() {
        let c = small_clustering();
        let text = write_net(&c).replace("-> q", "-> ghost_net");
        assert!(parse_net(&text, &c.netlist, &c.arch).is_err());
    }
}
