//! Packing design rules: `PK001`, cluster exceeds architecture limits.
//!
//! `fpga_pack::validate` errors out on the first violation; this pass
//! reports every over-limit cluster so a bad packer run is diagnosed in
//! one shot.

use fpga_netlist::ir::NetId;
use fpga_pack::Clustering;

use crate::diag::{Diagnostic, Severity};

const STAGE: &str = "pack";

fn deny(subject: String, message: String) -> Diagnostic {
    Diagnostic::new("PK001", Severity::Deny, STAGE, subject, message)
}

/// Run all packing rules.
pub fn lint_clustering(c: &Clustering) -> Vec<Diagnostic> {
    let arch = &c.arch;
    let mut out = Vec::new();
    let mut owner: Vec<Option<usize>> = vec![None; c.bles.len()];
    for (ci, cluster) in c.clusters.iter().enumerate() {
        let subject = format!("cluster {ci}");
        if cluster.bles.len() > arch.cluster_size {
            out.push(deny(
                subject.clone(),
                format!(
                    "cluster {ci} holds {} BLEs but the architecture allows N = {}",
                    cluster.bles.len(),
                    arch.cluster_size
                ),
            ));
        }
        if cluster.inputs.len() > arch.inputs {
            out.push(deny(
                subject.clone(),
                format!(
                    "cluster {ci} uses {} distinct inputs but the architecture allows I = {}",
                    cluster.inputs.len(),
                    arch.inputs
                ),
            ));
        }
        let mut clocks: Vec<NetId> = Vec::new();
        for &b in &cluster.bles {
            let Some(ble) = c.bles.get(b.0 as usize) else {
                out.push(deny(
                    subject.clone(),
                    format!("cluster {ci} references BLE {} which does not exist", b.0),
                ));
                continue;
            };
            if ble.inputs.len() > arch.lut_k {
                out.push(deny(
                    format!("ble '{}'", ble.name),
                    format!(
                        "BLE '{}' in cluster {ci} has {} inputs but the architecture allows K = {}",
                        ble.name,
                        ble.inputs.len(),
                        arch.lut_k
                    ),
                ));
            }
            clocks.extend(ble.clock);
            match owner[b.0 as usize] {
                None => owner[b.0 as usize] = Some(ci),
                Some(first) => out.push(deny(
                    format!("ble '{}'", ble.name),
                    format!(
                        "BLE '{}' is packed into both cluster {first} and cluster {ci}",
                        ble.name
                    ),
                )),
            }
        }
        clocks.sort_unstable();
        clocks.dedup();
        if clocks.len() > arch.clocks {
            let mut names: Vec<&str> = clocks.iter().map(|&n| c.netlist.net_name(n)).collect();
            names.sort_unstable();
            out.push(
                deny(
                    subject,
                    format!(
                        "cluster {ci} needs {} clocks but the architecture provides {}",
                        clocks.len(),
                        arch.clocks
                    ),
                )
                .with_note(format!("clocks: {}", names.join(", "))),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_arch::ClbArch;
    use fpga_netlist::ir::{CellKind, Netlist};
    use fpga_pack::{Ble, BleId, Cluster};

    /// Hand-build a clustering: the packer itself refuses to produce an
    /// illegal one, which is exactly why the lint exists.
    fn tiny_clustering(bles_in_cluster: usize) -> Clustering {
        let mut nl = Netlist::new("t");
        let mut bles = Vec::new();
        let mut ids = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..bles_in_cluster {
            let a = nl.net(&format!("a{i}"));
            let y = nl.net(&format!("y{i}"));
            nl.add_input(a);
            nl.add_output(y);
            nl.add_cell(
                &format!("lut{i}"),
                CellKind::Lut { k: 1, truth: 0b01 },
                vec![a],
                y,
            );
            bles.push(Ble {
                name: format!("ble{i}"),
                lut: Some(fpga_netlist::ir::CellId(i as u32)),
                ff: None,
                inputs: vec![a],
                output: y,
                clock: None,
            });
            ids.push(BleId(i as u32));
            inputs.push(a);
        }
        Clustering {
            netlist: nl,
            arch: ClbArch::paper_default(),
            bles,
            clusters: vec![Cluster {
                bles: ids,
                inputs,
                clock: None,
            }],
        }
    }

    #[test]
    fn legal_clustering_is_clean() {
        let c = tiny_clustering(3);
        assert!(fpga_pack::validate(&c).is_ok());
        assert!(lint_clustering(&c).is_empty());
    }

    #[test]
    fn over_capacity_cluster_reports_pk001() {
        // N = 5 for the paper architecture; 6 BLEs exceed it.
        let c = tiny_clustering(6);
        let diags = lint_clustering(&c);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "PK001" && d.message.contains("N = 5")),
            "{diags:?}"
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    }

    #[test]
    fn too_many_inputs_reports_pk001() {
        let mut c = tiny_clustering(4);
        // Inflate the cluster's distinct-input list past I = 12.
        let extra: Vec<_> = (0..13).map(|i| c.netlist.net(&format!("x{i}"))).collect();
        c.clusters[0].inputs = extra;
        let diags = lint_clustering(&c);
        assert!(
            diags.iter().any(|d| d.message.contains("I = 12")),
            "{diags:?}"
        );
    }

    #[test]
    fn wide_ble_and_double_packing_report_pk001() {
        let mut c = tiny_clustering(2);
        // Widen BLE 0 past K = 4.
        let wide: Vec<_> = (0..5).map(|i| c.netlist.net(&format!("w{i}"))).collect();
        c.bles[0].inputs = wide;
        // Pack BLE 1 twice.
        let dup = c.clusters[0].clone();
        c.clusters.push(dup);
        let diags = lint_clustering(&c);
        assert!(
            diags.iter().any(|d| d.message.contains("K = 4")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("both cluster")),
            "{diags:?}"
        );
    }

    #[test]
    fn clock_conflict_reports_pk001() {
        let mut c = tiny_clustering(2);
        let clk_a = c.netlist.net("clk_a");
        let clk_b = c.netlist.net("clk_b");
        c.bles[0].clock = Some(clk_a);
        c.bles[1].clock = Some(clk_b);
        let diags = lint_clustering(&c);
        let d = diags.iter().find(|d| d.message.contains("clocks")).unwrap();
        assert!(d.notes[0].contains("clk_a"), "{:?}", d.notes);
    }
}
