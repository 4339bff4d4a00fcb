//! EDIF 2.0.0 netlist reader/writer (the subset the flow exchanges).
//!
//! DIVINER emits EDIF after synthesis, DRUID normalizes it, and E2FMT
//! translates it to BLIF. The dialect here is a generic gate-level EDIF:
//! one library of primitive cells (`INV`, `BUF`, `AND<n>`, `OR<n>`,
//! `NAND<n>`, `NOR<n>`, `XOR<n>`, `XNOR<n>`, `MUX2`, `DFF`) plus one
//! design cell whose contents instantiate them.

use std::collections::HashMap;

use crate::ir::{CellKind, NetId, Netlist};
use crate::{NetlistError, Result};

/// An s-expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Sexp {
    Atom(String),
    List(Vec<Sexp>),
}

impl Sexp {
    /// Head symbol of a list (lower-cased), if any.
    fn head(&self) -> Option<String> {
        match self {
            Sexp::List(items) => match items.first() {
                Some(Sexp::Atom(a)) => Some(a.to_ascii_lowercase()),
                _ => None,
            },
            _ => None,
        }
    }

    fn atom(&self) -> Option<&str> {
        match self {
            Sexp::Atom(a) => Some(a),
            _ => None,
        }
    }

    fn items(&self) -> &[Sexp] {
        match self {
            Sexp::List(items) => items,
            _ => &[],
        }
    }

    /// First child list with the given head.
    fn find(&self, head: &str) -> Option<&Sexp> {
        self.items()
            .iter()
            .find(|s| s.head().as_deref() == Some(head))
    }

    /// All child lists with the given head.
    fn find_all<'a>(&'a self, head: &'a str) -> impl Iterator<Item = &'a Sexp> + 'a {
        self.items()
            .iter()
            .filter(move |s| s.head().as_deref() == Some(head))
    }

    /// Second element as an atom (the "name" slot of most EDIF forms).
    fn name(&self) -> Option<&str> {
        self.items().get(1).and_then(|s| s.atom())
    }
}

/// Tokenize + parse an s-expression document (must contain exactly one
/// top-level form).
pub fn parse_sexp(text: &str) -> Result<Sexp> {
    let mut stack: Vec<Vec<Sexp>> = Vec::new();
    let mut cur = String::new();
    let mut top: Option<Sexp> = None;
    let mut line = 1usize;
    let mut in_string = false;

    let flush = |cur: &mut String, stack: &mut Vec<Vec<Sexp>>| -> Result<()> {
        if !cur.is_empty() {
            let atom = Sexp::Atom(std::mem::take(cur));
            match stack.last_mut() {
                Some(list) => list.push(atom),
                None => {
                    return Err(NetlistError::Parse {
                        line: 0,
                        msg: "atom outside any list".into(),
                    })
                }
            }
        }
        Ok(())
    };

    for ch in text.chars() {
        if ch == '\n' {
            line += 1;
        }
        if in_string {
            if ch == '"' {
                in_string = false;
            } else {
                cur.push(ch);
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '(' => {
                flush(&mut cur, &mut stack)?;
                stack.push(Vec::new());
            }
            ')' => {
                flush(&mut cur, &mut stack)?;
                let done = stack.pop().ok_or(NetlistError::Parse {
                    line,
                    msg: "unbalanced ')'".into(),
                })?;
                let sexp = Sexp::List(done);
                match stack.last_mut() {
                    Some(list) => list.push(sexp),
                    None => {
                        if top.is_some() {
                            return Err(NetlistError::Parse {
                                line,
                                msg: "multiple top-level forms".into(),
                            });
                        }
                        top = Some(sexp);
                    }
                }
            }
            c if c.is_whitespace() => flush(&mut cur, &mut stack)?,
            c => cur.push(c),
        }
    }
    if !stack.is_empty() {
        return Err(NetlistError::Parse {
            line,
            msg: "unbalanced '('".into(),
        });
    }
    top.ok_or(NetlistError::Parse {
        line,
        msg: "empty document".into(),
    })
}

/// Primitive cell descriptions: ordered input pin names and output pin.
fn primitive_pins(cell: &str) -> Option<(Vec<String>, String)> {
    let upper = cell.to_ascii_uppercase();
    let simple = |n: usize| -> (Vec<String>, String) {
        ((0..n).map(|i| format!("A{i}")).collect(), "Y".to_string())
    };
    match upper.as_str() {
        "INV" | "BUF" => Some((vec!["A0".into()], "Y".into())),
        "MUX2" => Some((vec!["S".into(), "A0".into(), "A1".into()], "Y".into())),
        "DFF" | "DFF1" => Some((vec!["D".into(), "C".into()], "Q".into())),
        "CONST0" | "CONST1" => Some((vec![], "Y".into())),
        _ => {
            for prefix in ["AND", "NAND", "NOR", "XNOR", "XOR", "OR"] {
                if let Some(rest) = upper.strip_prefix(prefix) {
                    if let Ok(n) = rest.parse::<usize>() {
                        if (1..=16).contains(&n) {
                            return Some(simple(n));
                        }
                    }
                }
            }
            None
        }
    }
}

fn primitive_kind(cell: &str, clock: NetId) -> Result<CellKind> {
    let upper = cell.to_ascii_uppercase();
    Ok(match upper.as_str() {
        "INV" => CellKind::Not,
        "BUF" => CellKind::Buf,
        "MUX2" => CellKind::Mux2,
        "DFF" => CellKind::Dff { clock, init: false },
        // DFF1: a flip-flop whose configured initial state is 1.
        "DFF1" => CellKind::Dff { clock, init: true },
        "CONST0" => CellKind::Const0,
        "CONST1" => CellKind::Const1,
        _ => {
            for (prefix, kind) in [
                ("NAND", CellKind::Nand),
                ("NOR", CellKind::Nor),
                ("XNOR", CellKind::Xnor),
                ("AND", CellKind::And),
                ("XOR", CellKind::Xor),
                ("OR", CellKind::Or),
            ] {
                if upper
                    .strip_prefix(prefix)
                    .is_some_and(|r| r.parse::<usize>().is_ok())
                {
                    return Ok(kind);
                }
            }
            return Err(NetlistError::Unsupported(format!(
                "EDIF primitive '{cell}'"
            )));
        }
    })
}

/// Extract a netlist from an EDIF document.
pub fn parse(text: &str) -> Result<Netlist> {
    let doc = parse_sexp(text)?;
    if doc.head().as_deref() != Some("edif") {
        return Err(NetlistError::Parse {
            line: 1,
            msg: "not an EDIF document".into(),
        });
    }

    // Find the design cell: the last cell of the last library that has
    // contents with instances (primitive libraries have no contents).
    let mut design: Option<&Sexp> = None;
    for lib in doc.find_all("library").chain(doc.find_all("external")) {
        for cell in lib.find_all("cell") {
            let has_contents = cell
                .find("view")
                .and_then(|v| v.find("contents"))
                .map(|c| c.find("instance").is_some() || c.find("net").is_some())
                .unwrap_or(false);
            if has_contents {
                design = Some(cell);
            }
        }
    }
    let design = design.ok_or(NetlistError::Parse {
        line: 1,
        msg: "no design cell with contents found".into(),
    })?;
    let design_name = design.name().unwrap_or("top").to_string();
    let view = design.find("view").unwrap();
    let interface = view.find("interface").ok_or(NetlistError::Parse {
        line: 1,
        msg: "design cell has no interface".into(),
    })?;
    let contents = view.find("contents").unwrap();

    let mut netlist = Netlist::new(&design_name);

    // Ports.
    let mut port_dir: HashMap<String, bool> = HashMap::new(); // true = input
    for port in interface.find_all("port") {
        let pname = port.name().ok_or(NetlistError::Parse {
            line: 1,
            msg: "port without name".into(),
        })?;
        let dir = port
            .find("direction")
            .and_then(|d| d.items().get(1))
            .and_then(|a| a.atom())
            .unwrap_or("INPUT")
            .to_ascii_uppercase();
        port_dir.insert(pname.to_string(), dir == "INPUT");
    }

    // Instances: name -> primitive cell.
    let mut inst_cell: HashMap<String, String> = HashMap::new();
    for inst in contents.find_all("instance") {
        let iname = inst.name().ok_or(NetlistError::Parse {
            line: 1,
            msg: "instance without name".into(),
        })?;
        let cellref = inst
            .find("viewref")
            .or_else(|| inst.find("viewRef"))
            .and_then(|v| v.find("cellref").or_else(|| v.find("cellRef")))
            .and_then(|c| c.name().map(|s| s.to_string()))
            .ok_or(NetlistError::Parse {
                line: 1,
                msg: format!("instance '{iname}' without cellRef"),
            })?;
        inst_cell.insert(iname.to_string(), cellref);
    }

    // Nets: record which (instance, pin) each net touches.
    // pin_net[(instance, pin)] = net id.
    let mut pin_net: HashMap<(String, String), NetId> = HashMap::new();
    for netform in contents.find_all("net") {
        let nname = netform.name().ok_or(NetlistError::Parse {
            line: 1,
            msg: "net without name".into(),
        })?;
        let net = netlist.net(nname);
        let joined = netform.find("joined").ok_or(NetlistError::Parse {
            line: 1,
            msg: format!("net '{nname}' without joined"),
        })?;
        for pr in joined.find_all("portref") {
            let pin = pr.name().ok_or(NetlistError::Parse {
                line: 1,
                msg: "portRef without pin".into(),
            })?;
            match pr.find("instanceref").and_then(|ir| ir.name()) {
                Some(inst) => {
                    pin_net.insert((inst.to_string(), pin.to_string()), net);
                }
                None => {
                    // A top-level port: register IO direction.
                    match port_dir.get(pin) {
                        Some(true) => netlist.add_input(net),
                        Some(false) => netlist.add_output(net),
                        None => {
                            return Err(NetlistError::Parse {
                                line: 1,
                                msg: format!("portRef to unknown port '{pin}'"),
                            })
                        }
                    }
                }
            }
        }
    }

    // Build cells.
    let mut insts: Vec<(&String, &String)> = inst_cell.iter().collect();
    insts.sort();
    for (iname, cellname) in insts {
        let (in_pins, out_pin) = primitive_pins(cellname)
            .ok_or_else(|| NetlistError::Unsupported(format!("EDIF primitive '{cellname}'")))?;
        let lookup = |pin: &str| -> Result<NetId> {
            pin_net
                .get(&(iname.clone(), pin.to_string()))
                .copied()
                .ok_or_else(|| NetlistError::Parse {
                    line: 1,
                    msg: format!("instance '{iname}' pin '{pin}' unconnected"),
                })
        };
        let output = lookup(&out_pin)?;
        if cellname.eq_ignore_ascii_case("DFF") || cellname.eq_ignore_ascii_case("DFF1") {
            let d = lookup("D")?;
            let clk = lookup("C")?;
            netlist.add_clock(clk);
            let kind = primitive_kind(cellname, clk)?;
            netlist.add_cell(iname, kind, vec![d], output);
        } else {
            let inputs = in_pins
                .iter()
                .map(|p| lookup(p))
                .collect::<Result<Vec<_>>>()?;
            let kind = primitive_kind(cellname, NetId(0))?;
            netlist.add_cell(iname, kind, inputs, output);
        }
    }

    Ok(netlist)
}

/// Serialize a gate-level netlist to EDIF. LUT and SOP cells are not
/// primitives of the EDIF library; callers must lower them first (or use
/// BLIF, the post-mapping format).
pub fn write(netlist: &Netlist) -> Result<String> {
    let mut cells_used: Vec<String> = Vec::new();
    let mut instances = String::new();
    let mut net_joins: Vec<Vec<String>> = vec![Vec::new(); netlist.nets.len()];

    for (i, cell) in netlist.cells.iter().enumerate() {
        let (prim, pins): (String, Vec<String>) = match &cell.kind {
            CellKind::Const0 => ("CONST0".into(), vec![]),
            CellKind::Const1 => ("CONST1".into(), vec![]),
            CellKind::Buf => ("BUF".into(), vec!["A0".into()]),
            CellKind::Not => ("INV".into(), vec!["A0".into()]),
            CellKind::And => gate("AND", cell.inputs.len()),
            CellKind::Or => gate("OR", cell.inputs.len()),
            CellKind::Nand => gate("NAND", cell.inputs.len()),
            CellKind::Nor => gate("NOR", cell.inputs.len()),
            CellKind::Xor => gate("XOR", cell.inputs.len()),
            CellKind::Xnor => gate("XNOR", cell.inputs.len()),
            CellKind::Mux2 => ("MUX2".into(), vec!["S".into(), "A0".into(), "A1".into()]),
            CellKind::Dff { init, .. } => (
                if *init { "DFF1".into() } else { "DFF".into() },
                vec!["D".into(), "C".into()],
            ),
            CellKind::Lut { .. } | CellKind::Sop(_) => {
                return Err(NetlistError::Unsupported(
                    "LUT/SOP cells have no EDIF primitive; write BLIF instead".into(),
                ))
            }
        };
        if !cells_used.contains(&prim) {
            cells_used.push(prim.clone());
        }
        let iname = format!("i{}_{}", i, sanitize(&cell.name));
        instances.push_str(&format!(
            "      (instance {iname} (viewRef netlist (cellRef {prim} (libraryRef prims))))\n"
        ));
        // Pin joins.
        if let CellKind::Dff { clock, .. } = cell.kind {
            net_joins[cell.inputs[0].index()].push(format!("(portRef D (instanceRef {iname}))"));
            net_joins[clock.index()].push(format!("(portRef C (instanceRef {iname}))"));
            net_joins[cell.output.index()].push(format!("(portRef Q (instanceRef {iname}))"));
        } else {
            for (pin, &net) in pins.iter().zip(cell.inputs.iter()) {
                net_joins[net.index()].push(format!("(portRef {pin} (instanceRef {iname}))"));
            }
            net_joins[cell.output.index()].push(format!("(portRef Y (instanceRef {iname}))"));
        }
    }

    // Top-level ports join their own nets.
    for &n in netlist.inputs.iter().chain(netlist.outputs.iter()) {
        net_joins[n.index()].push(format!("(portRef {})", sanitize(netlist.net_name(n))));
    }

    let mut out = String::new();
    out.push_str(&format!("(edif {}\n", sanitize(&netlist.name)));
    out.push_str("  (edifVersion 2 0 0)\n  (edifLevel 0)\n");
    out.push_str("  (library prims\n    (edifLevel 0)\n");
    for prim in &cells_used {
        out.push_str(&format!(
            "    (cell {prim} (cellType GENERIC) (view netlist (viewType NETLIST) (interface)))\n"
        ));
    }
    out.push_str("  )\n");
    out.push_str(&format!(
        "  (library work\n    (cell {}\n",
        sanitize(&netlist.name)
    ));
    out.push_str("      (cellType GENERIC)\n      (view netlist (viewType NETLIST)\n");
    out.push_str("      (interface\n");
    for &n in &netlist.inputs {
        out.push_str(&format!(
            "        (port {} (direction INPUT))\n",
            sanitize(netlist.net_name(n))
        ));
    }
    for &n in &netlist.outputs {
        out.push_str(&format!(
            "        (port {} (direction OUTPUT))\n",
            sanitize(netlist.net_name(n))
        ));
    }
    out.push_str("      )\n      (contents\n");
    out.push_str(&instances);
    for (net, joins) in netlist.nets.iter().zip(&net_joins) {
        if !joins.is_empty() {
            out.push_str(&format!(
                "      (net {} (joined {}))\n",
                sanitize(&net.name),
                joins.join(" ")
            ));
        }
    }
    // Close: contents, view, cell, library, edif.
    out.push_str("      )\n      )\n    )\n  )\n)\n");
    Ok(out)
}

fn gate(prefix: &str, n: usize) -> (String, Vec<String>) {
    (
        format!("{prefix}{n}"),
        (0..n).map(|i| format!("A{i}")).collect(),
    )
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, 'n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::check_equivalence;

    fn sample_netlist() -> Netlist {
        let mut n = Netlist::new("demo");
        let a = n.net("a");
        let b = n.net("b");
        let clk = n.net("clk");
        let w = n.net("w");
        let q = n.net("q");
        n.add_input(a);
        n.add_input(b);
        n.add_clock(clk);
        n.add_output(q);
        n.add_cell("g1", CellKind::Xor, vec![a, b], w);
        n.add_cell(
            "ff",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![w],
            q,
        );
        n
    }

    #[test]
    fn sexp_parser_basics() {
        let s = parse_sexp("(a (b \"c d\") e)").unwrap();
        assert_eq!(s.head().as_deref(), Some("a"));
        let items = s.items();
        assert_eq!(items.len(), 3);
        assert_eq!(items[1].items()[1].atom(), Some("c d"));
        assert!(parse_sexp("(a (b)").is_err());
        assert!(parse_sexp("(a)) ").is_err());
        assert!(parse_sexp("").is_err());
    }

    #[test]
    fn roundtrip_preserves_function() {
        let n = sample_netlist();
        let text = write(&n).unwrap();
        let back = parse(&text).unwrap();
        back.validate().unwrap();
        assert_eq!(back.inputs.len(), n.inputs.len());
        assert_eq!(back.outputs.len(), n.outputs.len());
        check_equivalence(&n, &back, 64, 11).unwrap();
    }

    #[test]
    fn lut_cells_rejected_by_writer() {
        let mut n = Netlist::new("t");
        let a = n.net("a");
        let y = n.net("y");
        n.add_input(a);
        n.add_output(y);
        n.add_cell("l", CellKind::Lut { k: 1, truth: 0b01 }, vec![a], y);
        assert!(matches!(write(&n), Err(NetlistError::Unsupported(_))));
    }

    #[test]
    fn unknown_primitive_rejected_by_reader() {
        let text = r#"(edif t (library work (cell t (cellType GENERIC) (view netlist
            (viewType NETLIST)
            (interface (port a (direction INPUT)) (port y (direction OUTPUT)))
            (contents
              (instance u1 (viewRef netlist (cellRef MAGIC (libraryRef prims))))
              (net a (joined (portRef a) (portRef A0 (instanceRef u1))))
              (net y (joined (portRef y) (portRef Y (instanceRef u1))))
            )))))"#;
        assert!(matches!(parse(text), Err(NetlistError::Unsupported(_))));
    }

    #[test]
    fn wide_gates_roundtrip() {
        let mut n = Netlist::new("wide");
        let nets: Vec<NetId> = (0..5).map(|i| n.net(&format!("i{i}"))).collect();
        let y = n.net("y");
        for &net in &nets {
            n.add_input(net);
        }
        n.add_output(y);
        n.add_cell("g", CellKind::And, nets, y);
        let text = write(&n).unwrap();
        assert!(text.contains("AND5"));
        let back = parse(&text).unwrap();
        check_equivalence(&n, &back, 64, 5).unwrap();
    }
}
