//! DRUID: EDIF normalization.
//!
//! The paper uses DRUID to rewrite the synthesizer's (commercial-dialect)
//! EDIF so the downstream academic tools accept it. Here that means:
//! parse any EDIF our reader understands, canonicalize names (lower-case,
//! EDIF-safe identifiers), drop unconnected dangling logic, and re-emit
//! the netlist in the dialect `e2fmt`/T-VPack expect.

use fpga_netlist::Netlist;

use crate::{opt, Result};

/// Normalize an EDIF document (text to text).
pub fn normalize_edif(text: &str) -> Result<String> {
    let netlist = fpga_netlist::edif::parse(text)?;
    let netlist = normalize(netlist)?;
    Ok(fpga_netlist::edif::write(&netlist)?)
}

/// Normalize an in-memory netlist: canonical names + dead-logic sweep.
pub fn normalize(mut netlist: Netlist) -> Result<Netlist> {
    // Canonical design name.
    netlist.name = canonical(&netlist.name);
    // Cell instance names: lower-case, identifier-safe, unique.
    let mut seen = std::collections::BTreeSet::new();
    for (i, cell) in netlist.cells.iter_mut().enumerate() {
        let mut name = canonical(&cell.name);
        if !seen.insert(name.clone()) {
            name = format!("{name}_u{i}");
            seen.insert(name.clone());
        }
        cell.name = name;
    }
    opt::sweep(&mut netlist)?;
    netlist.validate()?;
    Ok(netlist)
}

fn canonical(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.starts_with(|c: char| c.is_ascii_digit()) {
        s.insert(0, 'n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_netlist::ir::{CellKind, Netlist};
    use fpga_netlist::sim::check_equivalence;

    #[test]
    fn canonical_names() {
        assert_eq!(canonical("Foo-Bar"), "foo_bar");
        assert_eq!(canonical("3x"), "n3x");
        assert_eq!(canonical(""), "n");
    }

    #[test]
    fn normalizes_and_sweeps() {
        let mut n = Netlist::new("My Design");
        let a = n.net("a");
        let y = n.net("y");
        let dead = n.net("dead");
        n.add_input(a);
        n.add_output(y);
        n.add_cell("G1!", CellKind::Not, vec![a], y);
        n.add_cell("G1!", CellKind::Buf, vec![a], dead); // duplicate name + dead
        let golden = n.clone();
        let norm = normalize(n).unwrap();
        assert_eq!(norm.name, "my_design");
        assert_eq!(norm.cells.len(), 1);
        assert_eq!(norm.cells[0].name, "g1_");
        check_equivalence(&golden, &norm, 16, 1).unwrap();
    }

    #[test]
    fn edif_text_roundtrip() {
        let mut n = Netlist::new("t");
        let a = n.net("a");
        let b = n.net("b");
        let y = n.net("y");
        n.add_input(a);
        n.add_input(b);
        n.add_output(y);
        n.add_cell("g", CellKind::Nor, vec![a, b], y);
        let edif = fpga_netlist::edif::write(&n).unwrap();
        let normalized = normalize_edif(&edif).unwrap();
        let back = fpga_netlist::edif::parse(&normalized).unwrap();
        check_equivalence(&n, &back, 32, 2).unwrap();
    }
}
