//! The in-memory logic netlist.
//!
//! A [`Netlist`] is a set of single-output [`Cell`]s connected by
//! [`Net`]s. Primary inputs and outputs are nets registered in
//! `inputs`/`outputs`; clocks are nets registered in `clocks` (and also
//! appear as inputs). Flip-flops reference their clock net explicitly.
//! Indices are `u32` newtypes — netlists of this era are tens of thousands
//! of cells at most, and compact indices keep the hot algorithms
//! (levelization, packing, placement cost) cache-friendly.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::sop::SopCover;
use crate::{NetlistError, Result};

/// Index of a net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

impl NetId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

impl CellId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Logic function of a cell. All gates are single-output.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CellKind {
    /// Constant drivers.
    Const0,
    Const1,
    /// Identity / inversion.
    Buf,
    Not,
    /// N-ary gates (inputs.len() >= 1).
    And,
    Or,
    Nand,
    Nor,
    Xor,
    Xnor,
    /// 2:1 multiplexer; inputs are `[sel, a, b]`, output = sel ? b : a.
    Mux2,
    /// K-input lookup table; `truth` bit m = output for input combination m
    /// (input 0 is the LSB of m). K <= 6.
    Lut {
        k: u8,
        truth: u64,
    },
    /// Sum-of-products (BLIF `.names`); inputs match `cover.n_inputs`.
    Sop(SopCover),
    /// D flip-flop; inputs are `[d]`, `clock` names the clock net.
    /// On the target platform this maps to the double-edge-triggered FF.
    Dff {
        clock: NetId,
        init: bool,
    },
}

impl CellKind {
    /// Is this a sequential element?
    pub fn is_ff(&self) -> bool {
        matches!(self, CellKind::Dff { .. })
    }

    /// Short mnemonic for reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CellKind::Const0 => "const0",
            CellKind::Const1 => "const1",
            CellKind::Buf => "buf",
            CellKind::Not => "not",
            CellKind::And => "and",
            CellKind::Or => "or",
            CellKind::Nand => "nand",
            CellKind::Nor => "nor",
            CellKind::Xor => "xor",
            CellKind::Xnor => "xnor",
            CellKind::Mux2 => "mux2",
            CellKind::Lut { .. } => "lut",
            CellKind::Sop(_) => "sop",
            CellKind::Dff { .. } => "dff",
        }
    }
}

/// One cell instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cell {
    pub name: String,
    pub kind: CellKind,
    pub inputs: Vec<NetId>,
    pub output: NetId,
}

/// One net.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Net {
    pub name: String,
}

/// The netlist.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Netlist {
    pub name: String,
    pub nets: Vec<Net>,
    pub cells: Vec<Cell>,
    /// Primary inputs (driven from outside). Includes clocks.
    pub inputs: Vec<NetId>,
    /// Primary outputs (observed outside).
    pub outputs: Vec<NetId>,
    /// Clock nets (subset of inputs in a well-formed design).
    pub clocks: Vec<NetId>,
    #[serde(skip)]
    net_by_name: HashMap<String, NetId>,
}

impl Netlist {
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Create or look up a net by name.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.net_by_name.get(name) {
            return id;
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.to_string(),
        });
        self.net_by_name.insert(name.to_string(), id);
        id
    }

    /// Create a fresh net with a unique generated name.
    pub fn fresh_net(&mut self, prefix: &str) -> NetId {
        let mut i = self.nets.len();
        loop {
            let name = format!("{prefix}${i}");
            if !self.net_by_name.contains_key(&name) {
                return self.net(&name);
            }
            i += 1;
        }
    }

    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_by_name.get(name).copied()
    }

    pub fn net_name(&self, id: NetId) -> &str {
        &self.nets[id.index()].name
    }

    /// Rebuild the name index (needed after deserialization).
    pub fn rebuild_index(&mut self) {
        self.net_by_name = self
            .nets
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), NetId(i as u32)))
            .collect();
    }

    /// Add a cell; returns its id.
    pub fn add_cell(
        &mut self,
        name: &str,
        kind: CellKind,
        inputs: Vec<NetId>,
        output: NetId,
    ) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            name: name.to_string(),
            kind,
            inputs,
            output,
        });
        id
    }

    /// Register a primary input.
    pub fn add_input(&mut self, net: NetId) {
        if !self.inputs.contains(&net) {
            self.inputs.push(net);
        }
    }

    /// Register a primary output.
    pub fn add_output(&mut self, net: NetId) {
        if !self.outputs.contains(&net) {
            self.outputs.push(net);
        }
    }

    /// Register a clock (also becomes an input).
    pub fn add_clock(&mut self, net: NetId) {
        if !self.clocks.contains(&net) {
            self.clocks.push(net);
        }
        self.add_input(net);
    }

    /// Map from net to driving cell (if any).
    pub fn drivers(&self) -> Vec<Option<CellId>> {
        let mut d = vec![None; self.nets.len()];
        for (i, c) in self.cells.iter().enumerate() {
            d[c.output.index()] = Some(CellId(i as u32));
        }
        d
    }

    /// Map from net to consuming cells (fanout). Clock pins count.
    pub fn sinks(&self) -> Vec<Vec<CellId>> {
        let mut s: Vec<Vec<CellId>> = vec![Vec::new(); self.nets.len()];
        for (i, c) in self.cells.iter().enumerate() {
            for &n in &c.inputs {
                s[n.index()].push(CellId(i as u32));
            }
            if let CellKind::Dff { clock, .. } = c.kind {
                s[clock.index()].push(CellId(i as u32));
            }
        }
        s
    }

    /// Remove cells whose output feeds nothing and is not a primary
    /// output, to a fixpoint; returns how many went. The one dead-logic
    /// rule: the synthesis sweep and the verifier's netlist view both
    /// call it, so a pre-sweep netlist and its swept image present
    /// identical boundaries by construction.
    pub fn sweep_dead(&mut self) -> usize {
        let before = self.cells.len();
        loop {
            let sinks = self.sinks();
            let live: Vec<bool> = self
                .cells
                .iter()
                .map(|c| !sinks[c.output.index()].is_empty() || self.outputs.contains(&c.output))
                .collect();
            if live.iter().all(|&l| l) {
                return before - self.cells.len();
            }
            let mut live = live.into_iter();
            self.cells.retain(|_| live.next() == Some(true));
        }
    }

    /// Topological order of the combinational cells (FF outputs and primary
    /// inputs are sources; FFs and outputs are sinks). Errors on
    /// combinational cycles.
    pub fn topo_order(&self) -> Result<Vec<CellId>> {
        comb_order(self.nets.len(), &self.cells).map_err(|l| {
            NetlistError::Validate(format!(
                "combinational cycle: ordered {} of {} cells",
                l.ordered, l.comb
            ))
        })
    }

    /// Structural validation: net ids in range, unique drivers, no
    /// floating internal nets, inputs not driven, outputs driven, arities
    /// consistent.
    pub fn validate(&self) -> Result<()> {
        let clocks = self.cells.iter().filter_map(|c| match c.kind {
            CellKind::Dff { clock, .. } => Some(clock),
            _ => None,
        });
        let pins = self
            .cells
            .iter()
            .flat_map(|c| c.inputs.iter().chain([&c.output]));
        let lists = self.inputs.iter().chain(&self.outputs).chain(&self.clocks);
        if let Some(id) = pins
            .chain(lists)
            .copied()
            .chain(clocks)
            .find(|id| id.index() >= self.nets.len())
        {
            return Err(NetlistError::Validate(format!(
                "net id {} out of range: the netlist has {} nets",
                id.0,
                self.nets.len()
            )));
        }
        let mut driver_count = vec![0usize; self.nets.len()];
        for c in &self.cells {
            driver_count[c.output.index()] += 1;
            let arity_ok = match &c.kind {
                CellKind::Const0 | CellKind::Const1 => c.inputs.is_empty(),
                CellKind::Buf | CellKind::Not => c.inputs.len() == 1,
                CellKind::And
                | CellKind::Or
                | CellKind::Nand
                | CellKind::Nor
                | CellKind::Xor
                | CellKind::Xnor => !c.inputs.is_empty(),
                CellKind::Mux2 => c.inputs.len() == 3,
                CellKind::Lut { k, .. } => c.inputs.len() == *k as usize && *k <= 6,
                CellKind::Sop(cover) => c.inputs.len() == cover.n_inputs,
                CellKind::Dff { .. } => c.inputs.len() == 1,
            };
            if !arity_ok {
                return Err(NetlistError::Validate(format!(
                    "cell '{}' ({}) has wrong arity {}",
                    c.name,
                    c.kind.mnemonic(),
                    c.inputs.len()
                )));
            }
            // Self-driving cells: a combinational cell feeding its own
            // input can never stabilize — name it here instead of leaving
            // it to `topo_order`'s generic cycle count. A DFF whose D is
            // its own Q is a legal hold/toggle register, but a DFF
            // *clocked* by its own output is a ring oscillator.
            match &c.kind {
                CellKind::Dff { clock, .. } => {
                    if *clock == c.output {
                        return Err(NetlistError::Validate(format!(
                            "flip-flop '{}' is clocked by its own output '{}'",
                            c.name,
                            self.net_name(c.output)
                        )));
                    }
                }
                _ => {
                    if c.inputs.contains(&c.output) {
                        return Err(NetlistError::Validate(format!(
                            "cell '{}' ({}) drives its own input '{}'",
                            c.name,
                            c.kind.mnemonic(),
                            self.net_name(c.output)
                        )));
                    }
                }
            }
        }
        for &input in &self.inputs {
            if driver_count[input.index()] != 0 {
                return Err(NetlistError::Validate(format!(
                    "primary input '{}' is also driven by a cell",
                    self.net_name(input)
                )));
            }
        }
        for (i, &count) in driver_count.iter().enumerate() {
            let id = NetId(i as u32);
            if count > 1 {
                return Err(NetlistError::Validate(format!(
                    "net '{}' has {} drivers",
                    self.net_name(id),
                    count
                )));
            }
            if count == 0 && !self.inputs.contains(&id) {
                // Undriven non-input nets are allowed only if unused.
                let used = self.cells.iter().any(|c| {
                    c.inputs.contains(&id)
                        || matches!(c.kind, CellKind::Dff { clock, .. } if clock == id)
                }) || self.outputs.contains(&id);
                if used {
                    return Err(NetlistError::Validate(format!(
                        "net '{}' is used but never driven",
                        self.net_name(id)
                    )));
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Counts: (combinational cells, flip-flops).
    pub fn cell_counts(&self) -> (usize, usize) {
        let ffs = self.cells.iter().filter(|c| c.kind.is_ff()).count();
        (self.cells.len() - ffs, ffs)
    }

    /// All LUT cells (id, k) — what T-VPack packs.
    pub fn luts(&self) -> Vec<(CellId, u8)> {
        self.cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c.kind {
                CellKind::Lut { k, .. } => Some((CellId(i as u32), k)),
                _ => None,
            })
            .collect()
    }
}

/// A combinational cycle in a cell list: how many of its `comb`
/// combinational cells could be ordered, and one cell on the cycle.
#[derive(Clone, Copy, Debug)]
pub struct Cycle {
    pub ordered: usize,
    pub comb: usize,
    pub on_cycle: CellId,
}

/// Kahn's topological order of the combinational `cells` over `nets`
/// nets, [`Netlist::topo_order`]'s and the [`crate::tape::Tape`]'s one
/// ordering. Each cell waits for the combinational cells driving its
/// inputs; FF outputs and undriven nets are sources.
pub fn comb_order(nets: usize, cells: &[Cell]) -> std::result::Result<Vec<CellId>, Cycle> {
    let mut drivers = vec![None; nets];
    for (i, c) in cells.iter().enumerate() {
        drivers[c.output.index()] = Some(i);
    }
    let comb_driver = |net: NetId| drivers[net.index()].filter(|&d| !cells[d].kind.is_ff());
    let n = cells.len();
    // in-degree of each combinational cell = number of its inputs that
    // are driven by other combinational cells. The cells reading cell
    // `d` are `consumers[at[d]..at[d + 1]]`, in cell then pin order.
    let edges = || {
        let comb = cells.iter().enumerate().filter(|(_, c)| !c.kind.is_ff());
        comb.flat_map(|(i, c)| {
            c.inputs
                .iter()
                .filter_map(move |&n| Some((comb_driver(n)?, i)))
        })
    };
    let mut indeg = vec![0usize; n];
    let mut at = vec![0usize; n + 1];
    for (d, i) in edges() {
        indeg[i] += 1;
        at[d + 1] += 1;
    }
    for d in 0..n {
        at[d + 1] += at[d];
    }
    let mut consumers = vec![0usize; at[n]];
    let mut fill = at.clone();
    for (d, i) in edges() {
        consumers[fill[d]] = i;
        fill[d] += 1;
    }
    let mut queue: Vec<usize> = (0..n)
        .filter(|&i| !cells[i].kind.is_ff() && indeg[i] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(CellId(i as u32));
        for &j in &consumers[at[i]..at[i + 1]] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
            }
        }
    }
    let comb = cells.iter().filter(|c| !c.kind.is_ff()).count();
    if order.len() == comb {
        return Ok(order);
    }
    // Every cell left unordered reads one that is left too: walk back
    // along those until a cell comes round again.
    let stuck = |i: usize| !cells[i].kind.is_ff() && indeg[i] > 0;
    let mut seen = vec![false; n];
    let mut at = (0..n).find(|&i| stuck(i)).unwrap_or_default();
    while !seen[at] {
        seen[at] = true;
        let mut back = cells[at].inputs.iter().filter_map(|&i| comb_driver(i));
        at = back.find(|&d| stuck(d)).unwrap_or(at);
    }
    Err(Cycle {
        ordered: order.len(),
        comb,
        on_cycle: CellId(at as u32),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in0 -> and -> ff -> out with clock.
    fn small() -> Netlist {
        let mut n = Netlist::new("small");
        let a = n.net("a");
        let b = n.net("b");
        let clk = n.net("clk");
        let w = n.net("w");
        let q = n.net("q");
        n.add_input(a);
        n.add_input(b);
        n.add_clock(clk);
        n.add_output(q);
        n.add_cell("g1", CellKind::And, vec![a, b], w);
        n.add_cell(
            "ff1",
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
    fn out_of_range_net_ids_fail_validation() {
        let mut n = small();
        n.cells[0].output = NetId(77);
        let err = n.validate().unwrap_err().to_string();
        assert!(
            err.contains("net id 77 out of range: the netlist has 5 nets"),
            "{err}"
        );
        let mut n = small();
        n.cells[1].kind = CellKind::Dff {
            clock: NetId(5),
            init: false,
        };
        assert!(n.validate().is_err());
    }

    #[test]
    fn build_and_validate() {
        let n = small();
        n.validate().unwrap();
        assert_eq!(n.cell_counts(), (1, 1));
        assert_eq!(n.inputs.len(), 3); // a, b, clk
        assert_eq!(n.clocks.len(), 1);
    }

    #[test]
    fn net_interning_and_fresh() {
        let mut n = Netlist::new("t");
        let x = n.net("x");
        assert_eq!(n.net("x"), x);
        let f1 = n.fresh_net("tmp");
        let f2 = n.fresh_net("tmp");
        assert_ne!(f1, f2);
        assert_eq!(n.find_net("nope"), None);
    }

    #[test]
    fn detects_multiple_drivers() {
        let mut n = small();
        let a = n.find_net("a").unwrap();
        let w = n.find_net("w").unwrap();
        // Second driver onto w... and 'a' is an input being driven too.
        n.add_cell("g2", CellKind::Not, vec![a], w);
        assert!(n.validate().is_err());
    }

    #[test]
    fn detects_undriven_used_net() {
        let mut n = small();
        let ghost = n.net("ghost");
        let q2 = n.net("q2");
        n.add_cell("g3", CellKind::Not, vec![ghost], q2);
        assert!(n.validate().is_err());
    }

    #[test]
    fn detects_combinational_cycle() {
        let mut n = Netlist::new("loop");
        let x = n.net("x");
        let y = n.net("y");
        n.add_cell("g1", CellKind::Not, vec![x], y);
        n.add_cell("g2", CellKind::Not, vec![y], x);
        assert!(n.topo_order().is_err());
    }

    #[test]
    fn ff_breaks_cycle() {
        let mut n = Netlist::new("counter_bit");
        let clk = n.net("clk");
        let q = n.net("q");
        let d = n.net("d");
        n.add_clock(clk);
        n.add_output(q);
        n.add_cell("inv", CellKind::Not, vec![q], d);
        n.add_cell(
            "ff",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![d],
            q,
        );
        n.validate().unwrap();
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut n = Netlist::new("chain");
        let a = n.net("a");
        n.add_input(a);
        let w1 = n.net("w1");
        let w2 = n.net("w2");
        n.add_output(w2);
        // Add in reverse order to exercise the sort.
        n.add_cell("g2", CellKind::Not, vec![w1], w2);
        n.add_cell("g1", CellKind::Not, vec![a], w1);
        let order = n.topo_order().unwrap();
        let pos = |name: &str| {
            order
                .iter()
                .position(|&c| n.cells[c.index()].name == name)
                .unwrap()
        };
        assert!(pos("g1") < pos("g2"));
    }

    #[test]
    fn sinks_include_clock_pins() {
        let n = small();
        let clk = n.find_net("clk").unwrap();
        let sinks = n.sinks();
        assert_eq!(sinks[clk.index()].len(), 1);
    }

    #[test]
    fn self_driving_cell_rejected_by_name() {
        let mut n = Netlist::new("selfloop");
        let x = n.net("x");
        n.add_output(x);
        n.add_cell("g", CellKind::Buf, vec![x], x);
        let err = n.validate().unwrap_err().to_string();
        assert!(err.contains("'g'"), "{err}");
        assert!(err.contains("drives its own input"), "{err}");
    }

    #[test]
    fn self_clocked_ff_rejected() {
        let mut n = Netlist::new("ringosc");
        let d = n.net("d");
        let q = n.net("q");
        n.add_input(d);
        n.add_output(q);
        n.add_cell(
            "ff",
            CellKind::Dff {
                clock: q,
                init: false,
            },
            vec![d],
            q,
        );
        let err = n.validate().unwrap_err().to_string();
        assert!(err.contains("clocked by its own output"), "{err}");
    }

    #[test]
    fn ff_feeding_its_own_d_is_legal() {
        // A hold register: q feeds back into d. Sequential feedback is
        // exactly what the FF is for.
        let mut n = Netlist::new("hold");
        let clk = n.net("clk");
        let q = n.net("q");
        n.add_clock(clk);
        n.add_output(q);
        n.add_cell(
            "ff",
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![q],
            q,
        );
        n.validate().unwrap();
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut n = Netlist::new("bad");
        let a = n.net("a");
        let y = n.net("y");
        n.add_input(a);
        n.add_cell("m", CellKind::Mux2, vec![a], y);
        assert!(n.validate().is_err());
    }
}
