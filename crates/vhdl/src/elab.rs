//! Elaboration: lower a checked VHDL design to a gate-level netlist.
//!
//! Vectors are bit-blasted (`v(3)` becomes net `v(3)`), concurrent
//! assignments become gate trees, `when/else` chains become 2:1 mux
//! chains, and clocked processes become D flip-flops whose data inputs are
//! the symbolically-executed next-state expressions (if/elsif/else lowers
//! to mux trees; unassigned paths hold the previous value).

use std::collections::HashMap;

use fpga_netlist::ir::{CellKind, NetId, Netlist};

use crate::ast::*;
use crate::sema::Scope;
use crate::{Result, VhdlError};

struct Elab<'d> {
    #[allow(dead_code)] // retained for multi-entity elaboration (component support)
    design: &'d Design,
    netlist: Netlist,
    scope: Scope,
    const0: Option<NetId>,
    const1: Option<NetId>,
    gate_counter: usize,
}

/// Elaborate the top entity of a design.
pub fn elaborate(design: &Design) -> Result<Netlist> {
    let (entity, arch) = design.top().ok_or(VhdlError {
        line: 1,
        msg: "no elaboratable entity".into(),
    })?;
    let scope = Scope::build(entity, arch)?;
    let mut e = Elab {
        design,
        netlist: Netlist::new(&entity.name),
        scope,
        const0: None,
        const1: None,
        gate_counter: 0,
    };

    // Ports first so their nets carry the canonical names.
    for p in &entity.ports {
        let bits = e.signal_bits(&p.name, p.ty);
        for b in bits {
            match p.dir {
                Dir::In => e.netlist.add_input(b),
                Dir::Out => e.netlist.add_output(b),
            }
        }
    }

    for stmt in &arch.stmts {
        match stmt {
            ConcStmt::Assign { target, expr, line } => {
                let tbits = e.target_bits(target, *line)?;
                let value = e.eval_fit(expr, tbits.len(), *line)?;
                e.connect(&tbits, &value, *line)?;
            }
            ConcStmt::CondAssign {
                target,
                arms,
                default,
                line,
            } => {
                // Build the mux chain from the last arm backwards.
                let tbits = e.target_bits(target, *line)?;
                let mut value = e.eval_fit(default, tbits.len(), *line)?;
                for (arm_value, cond) in arms.iter().rev() {
                    let v = e.eval_fit(arm_value, tbits.len(), *line)?;
                    let c = e.eval_bit(cond, *line)?;
                    value = e.mux(c, &value, &v, *line)?;
                }
                e.connect(&tbits, &value, *line)?;
            }
            ConcStmt::Process(p) => e.elaborate_process(p)?,
        }
    }

    let netlist = e.netlist;
    netlist.validate().map_err(|err| VhdlError {
        line: arch.line,
        msg: format!("elaboration bug: {err}"),
    })?;
    Ok(netlist)
}

impl<'d> Elab<'d> {
    /// Net name of one bit of a signal.
    fn bit_name(name: &str, ty: Ty, bit: u32) -> String {
        match ty {
            Ty::Bit => name.to_string(),
            Ty::Vector { .. } => format!("{name}({bit})"),
        }
    }

    /// All bit nets of a signal, LSB first.
    fn signal_bits(&mut self, name: &str, ty: Ty) -> Vec<NetId> {
        match ty {
            Ty::Bit => vec![self.netlist.net(name)],
            Ty::Vector { msb, lsb } => (lsb..=msb)
                .map(|b| {
                    let n = Self::bit_name(name, ty, b);
                    self.netlist.net(&n)
                })
                .collect(),
        }
    }

    fn lookup(&self, name: &str, line: usize) -> Result<Ty> {
        self.scope
            .symbols
            .get(name)
            .map(|(ty, _)| *ty)
            .ok_or_else(|| VhdlError {
                line,
                msg: format!("undeclared '{name}'"),
            })
    }

    fn const_net(&mut self, v: bool) -> NetId {
        if v {
            if let Some(n) = self.const1 {
                return n;
            }
            let n = self.netlist.net("$const1");
            self.netlist
                .add_cell("$const1", CellKind::Const1, vec![], n);
            self.const1 = Some(n);
            n
        } else {
            if let Some(n) = self.const0 {
                return n;
            }
            let n = self.netlist.net("$const0");
            self.netlist
                .add_cell("$const0", CellKind::Const0, vec![], n);
            self.const0 = Some(n);
            n
        }
    }

    fn gate(&mut self, kind: CellKind, inputs: Vec<NetId>) -> NetId {
        let out = self.netlist.fresh_net("$w");
        let name = format!("$g{}", self.gate_counter);
        self.gate_counter += 1;
        self.netlist.add_cell(&name, kind, inputs, out);
        out
    }

    /// Evaluate an expression to its bit nets (LSB first).
    fn eval(&mut self, expr: &Expr, line: usize) -> Result<Vec<NetId>> {
        Ok(match expr {
            Expr::Bit(b) => vec![self.const_net(*b)],
            Expr::Vec(bits) => {
                // Literal is written MSB-first; we store LSB-first.
                bits.iter().rev().map(|&b| self.const_net(b)).collect()
            }
            Expr::Int(v) => {
                // Elastic: width resolved by the context via `fit`.
                let mut bits = Vec::new();
                let mut x = *v;
                loop {
                    bits.push(self.const_net(x & 1 == 1));
                    x >>= 1;
                    if x == 0 {
                        break;
                    }
                }
                bits
            }
            Expr::Ref(name) => {
                let ty = self.lookup(name, line)?;
                self.signal_bits(name, ty)
            }
            Expr::Index(name, i) => {
                let ty = self.lookup(name, line)?;
                let n = Self::bit_name(name, ty, *i);
                vec![self.netlist.net(&n)]
            }
            Expr::Not(e) => {
                let bits = self.eval(e, line)?;
                bits.into_iter()
                    .map(|b| self.gate(CellKind::Not, vec![b]))
                    .collect()
            }
            Expr::Bin(op, a, b) => self.eval_bin(*op, a, b, line)?,
            Expr::Others(_) => {
                return Err(VhdlError {
                    line,
                    msg: "(others => ...) is only allowed as an assignment source".into(),
                })
            }
            Expr::RisingEdge(_) => {
                return Err(VhdlError {
                    line,
                    msg: "rising_edge used outside a process condition".into(),
                })
            }
        })
    }

    /// Pad an elastic (integer-literal) value with zeros to `width`.
    fn fit(&mut self, mut bits: Vec<NetId>, width: usize, line: usize) -> Result<Vec<NetId>> {
        use std::cmp::Ordering;
        match bits.len().cmp(&width) {
            Ordering::Equal => Ok(bits),
            Ordering::Less => {
                let zero = self.const_net(false);
                while bits.len() < width {
                    bits.push(zero);
                }
                Ok(bits)
            }
            Ordering::Greater => Err(VhdlError {
                line,
                msg: format!("value of {} bits does not fit in {width}", bits.len()),
            }),
        }
    }

    /// Evaluate an expression whose width is dictated by the target:
    /// aggregates fill, integer literals zero-extend, everything else must
    /// match exactly.
    fn eval_fit(&mut self, expr: &Expr, width: usize, line: usize) -> Result<Vec<NetId>> {
        match expr {
            Expr::Others(b) => {
                let bit = self.const_net(*b);
                Ok(vec![bit; width])
            }
            Expr::Int(_) => {
                let bits = self.eval(expr, line)?;
                self.fit(bits, width, line)
            }
            _ => {
                let bits = self.eval(expr, line)?;
                if bits.len() != width {
                    return Err(VhdlError {
                        line,
                        msg: format!("expression is {} bits, target needs {width}", bits.len()),
                    });
                }
                Ok(bits)
            }
        }
    }

    fn eval_bin(&mut self, op: BinOp, a: &Expr, b: &Expr, line: usize) -> Result<Vec<NetId>> {
        let va = self.eval(a, line)?;
        let vb = self.eval(b, line)?;
        let width = va.len().max(vb.len());
        let elastic = matches!(a, Expr::Int(_)) || matches!(b, Expr::Int(_));
        let (va, vb) = if elastic {
            (self.fit(va, width, line)?, self.fit(vb, width, line)?)
        } else {
            (va, vb)
        };
        Ok(match op {
            BinOp::And | BinOp::Or | BinOp::Nand | BinOp::Nor | BinOp::Xor | BinOp::Xnor => {
                let kind = |op: BinOp| match op {
                    BinOp::And => CellKind::And,
                    BinOp::Or => CellKind::Or,
                    BinOp::Nand => CellKind::Nand,
                    BinOp::Nor => CellKind::Nor,
                    BinOp::Xor => CellKind::Xor,
                    BinOp::Xnor => CellKind::Xnor,
                    _ => unreachable!(),
                };
                va.iter()
                    .zip(vb.iter())
                    .map(|(&x, &y)| self.gate(kind(op), vec![x, y]))
                    .collect()
            }
            BinOp::Add => {
                // Ripple-carry adder, carry-in 0; result truncated to width.
                let mut carry = self.const_net(false);
                let mut sum = Vec::with_capacity(width);
                for (&x, &y) in va.iter().zip(vb.iter()) {
                    let xy = self.gate(CellKind::Xor, vec![x, y]);
                    let s = self.gate(CellKind::Xor, vec![xy, carry]);
                    let g = self.gate(CellKind::And, vec![x, y]);
                    let p = self.gate(CellKind::And, vec![xy, carry]);
                    carry = self.gate(CellKind::Or, vec![g, p]);
                    sum.push(s);
                }
                sum
            }
            BinOp::Sub => {
                // Ripple-borrow subtractor: diff = a ^ b ^ bin,
                // borrow' = (!a & (b | bin)) | (b & bin); truncated.
                let mut borrow = self.const_net(false);
                let mut diff = Vec::with_capacity(width);
                for (&x, &y) in va.iter().zip(vb.iter()) {
                    let xy = self.gate(CellKind::Xor, vec![x, y]);
                    let d = self.gate(CellKind::Xor, vec![xy, borrow]);
                    let nx = self.gate(CellKind::Not, vec![x]);
                    let ob = self.gate(CellKind::Or, vec![y, borrow]);
                    let t1 = self.gate(CellKind::And, vec![nx, ob]);
                    let t2 = self.gate(CellKind::And, vec![y, borrow]);
                    borrow = self.gate(CellKind::Or, vec![t1, t2]);
                    diff.push(d);
                }
                diff
            }
            BinOp::Eq | BinOp::Neq => {
                let mut eq_bits: Vec<NetId> = va
                    .iter()
                    .zip(vb.iter())
                    .map(|(&x, &y)| self.gate(CellKind::Xnor, vec![x, y]))
                    .collect();
                let all_eq = if eq_bits.len() == 1 {
                    eq_bits.pop().unwrap()
                } else {
                    self.gate(CellKind::And, eq_bits)
                };
                if op == BinOp::Neq {
                    vec![self.gate(CellKind::Not, vec![all_eq])]
                } else {
                    vec![all_eq]
                }
            }
            BinOp::Concat => {
                // a & b: `a` supplies the more significant bits.
                let mut bits = vb;
                bits.extend(va);
                bits
            }
        })
    }

    fn eval_bit(&mut self, expr: &Expr, line: usize) -> Result<NetId> {
        let bits = self.eval(expr, line)?;
        if bits.len() != 1 {
            return Err(VhdlError {
                line,
                msg: format!("expected a 1-bit value, got {} bits", bits.len()),
            });
        }
        Ok(bits[0])
    }

    /// Per-bit 2:1 mux: `sel ? when_true : when_false`.
    fn mux(
        &mut self,
        sel: NetId,
        when_false: &[NetId],
        when_true: &[NetId],
        line: usize,
    ) -> Result<Vec<NetId>> {
        if when_false.len() != when_true.len() {
            return Err(VhdlError {
                line,
                msg: format!(
                    "mux arm widths differ ({} vs {})",
                    when_false.len(),
                    when_true.len()
                ),
            });
        }
        Ok(when_false
            .iter()
            .zip(when_true.iter())
            .map(|(&f, &t)| self.gate(CellKind::Mux2, vec![sel, f, t]))
            .collect())
    }

    /// Bit nets of an assignment target.
    fn target_bits(&mut self, target: &Target, line: usize) -> Result<Vec<NetId>> {
        let ty = self.lookup(target.base(), line)?;
        Ok(match target {
            Target::Sig(name) => self.signal_bits(name, ty),
            Target::Index(name, i) => {
                let n = Self::bit_name(name, ty, *i);
                vec![self.netlist.net(&n)]
            }
        })
    }

    /// Drive target bits from value bits with buffers (keeping the target
    /// net names stable for IO and FF outputs).
    fn connect(&mut self, targets: &[NetId], values: &[NetId], line: usize) -> Result<()> {
        if targets.len() != values.len() {
            return Err(VhdlError {
                line,
                msg: format!(
                    "assignment width mismatch ({} vs {})",
                    targets.len(),
                    values.len()
                ),
            });
        }
        for (&t, &v) in targets.iter().zip(values.iter()) {
            let name = format!("$buf{}", self.gate_counter);
            self.gate_counter += 1;
            self.netlist.add_cell(&name, CellKind::Buf, vec![v], t);
        }
        Ok(())
    }

    fn elaborate_process(&mut self, p: &Process) -> Result<()> {
        // sema guarantees this shape.
        let (clk_name, body) = match p.body.as_slice() {
            [SeqStmt::If {
                cond: Expr::RisingEdge(c),
                then_body,
                ..
            }] => (c.clone(), then_body),
            _ => {
                return Err(VhdlError {
                    line: p.line,
                    msg: "unsupported process shape".into(),
                })
            }
        };
        let clk = self.netlist.net(&clk_name);
        self.netlist.add_clock(clk);

        // Symbolic execution: environment maps target bit net -> next value.
        let mut env: HashMap<NetId, NetId> = HashMap::new();
        self.exec_body(body, &mut env)?;

        // One DFF per assigned bit; D = computed next value, Q = the bit.
        let mut assigned: Vec<(NetId, NetId)> = env.into_iter().collect();
        assigned.sort_by_key(|(q, _)| q.0);
        for (q, d) in assigned {
            let name = format!("$ff_{}", self.netlist.net_name(q).replace(['(', ')'], "_"));
            self.netlist.add_cell(
                &name,
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![d],
                q,
            );
        }
        Ok(())
    }

    /// Execute a sequential body, updating the next-value environment.
    fn exec_body(&mut self, body: &[SeqStmt], env: &mut HashMap<NetId, NetId>) -> Result<()> {
        for stmt in body {
            match stmt {
                SeqStmt::Assign { target, expr, line } => {
                    // VHDL signal semantics: reads inside a process see the
                    // *old* value, so expressions are evaluated against the
                    // base nets — no env substitution needed.
                    let tbits = self.target_bits(target, *line)?;
                    let value = self.eval_fit(expr, tbits.len(), *line)?;
                    for (&t, &v) in tbits.iter().zip(value.iter()) {
                        env.insert(t, v);
                    }
                }
                SeqStmt::If {
                    cond,
                    then_body,
                    elsifs,
                    else_body,
                    line,
                } => {
                    let branches: Vec<(Option<&Expr>, &[SeqStmt])> =
                        std::iter::once((Some(cond), then_body.as_slice()))
                            .chain(elsifs.iter().map(|(c, b)| (Some(c), b.as_slice())))
                            .chain(std::iter::once((None, else_body.as_slice())))
                            .collect();
                    // Fold right: start from the implicit "hold" env and
                    // wrap each condition around it.
                    let mut result: HashMap<NetId, NetId> = env.clone();
                    for (c, b) in branches.into_iter().rev() {
                        let mut branch_env = env.clone();
                        self.exec_body(b, &mut branch_env)?;
                        match c {
                            None => result = branch_env,
                            Some(cexpr) => {
                                let sel = self.eval_bit(cexpr, *line)?;
                                // Bits written in either branch get a mux.
                                // Sorted + deduped: HashMap order would make
                                // mux cell/net numbering (and so every artifact
                                // under the source text's stage keys) vary
                                // run to run, and a bit in both envs
                                // would get a second, orphaned mux.
                                let mut merged = HashMap::new();
                                let mut keys: Vec<NetId> =
                                    branch_env.keys().chain(result.keys()).copied().collect();
                                keys.sort_unstable_by_key(|n| n.0);
                                keys.dedup();
                                for q in keys {
                                    let tv = branch_env.get(&q).copied().unwrap_or(q);
                                    let fv = result.get(&q).copied().unwrap_or(q);
                                    if tv == fv {
                                        merged.insert(q, tv);
                                    } else {
                                        let m = self.mux(sel, &[fv], &[tv], *line)?;
                                        merged.insert(q, m[0]);
                                    }
                                }
                                result = merged;
                            }
                        }
                    }
                    *env = result;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use fpga_netlist::sim::Simulator;

    fn elab(src: &str) -> Netlist {
        let d = parse(src).unwrap();
        crate::check(&d).unwrap();
        elaborate(&d).unwrap()
    }

    #[test]
    fn combinational_gates() {
        let n = elab(
            "entity x is port (a, b : in std_logic; y : out std_logic); end x;
             architecture r of x is begin y <= a nand (not b); end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        for (a, b, want) in [
            (false, false, true),
            (true, true, true),
            (true, false, false),
        ] {
            sim.set_input_by_name("a", a).unwrap();
            sim.set_input_by_name("b", b).unwrap();
            sim.propagate();
            let y = n.find_net("y").unwrap();
            assert_eq!(sim.value(y), want, "a={a} b={b}");
        }
    }

    #[test]
    fn vector_ops_bit_blast() {
        let n = elab(
            "entity x is port (a, b : in std_logic_vector(2 downto 0);
                               y : out std_logic_vector(2 downto 0)); end x;
             architecture r of x is begin y <= a xor b; end r;",
        );
        assert_eq!(n.inputs.len(), 6);
        assert_eq!(n.outputs.len(), 3);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input_by_name("a(0)", true).unwrap();
        sim.set_input_by_name("b(0)", true).unwrap();
        sim.set_input_by_name("a(2)", true).unwrap();
        sim.propagate();
        assert!(!sim.value(n.find_net("y(0)").unwrap()));
        assert!(sim.value(n.find_net("y(2)").unwrap()));
    }

    #[test]
    fn when_else_is_a_mux() {
        let n = elab(
            "entity x is port (s, a, b : in std_logic; y : out std_logic); end x;
             architecture r of x is begin y <= a when s = '1' else b; end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input_by_name("a", true).unwrap();
        sim.set_input_by_name("b", false).unwrap();
        sim.set_input_by_name("s", true).unwrap();
        sim.propagate();
        assert!(sim.value(n.find_net("y").unwrap()));
        sim.set_input_by_name("s", false).unwrap();
        sim.propagate();
        assert!(!sim.value(n.find_net("y").unwrap()));
    }

    #[test]
    fn dff_process() {
        let n = elab(
            "entity x is port (clk, d : in std_logic; q : out std_logic); end x;
             architecture r of x is begin
               process (clk) begin
                 if rising_edge(clk) then q <= d; end if;
               end process;
             end r;",
        );
        assert_eq!(n.clocks.len(), 1);
        let (_, ffs) = n.cell_counts();
        assert_eq!(ffs, 1);
        let mut sim = Simulator::new(&n).unwrap();
        let clk = n.clocks[0];
        sim.set_input_by_name("d", true).unwrap();
        sim.tick(clk);
        assert!(sim.value(n.find_net("q").unwrap()));
        sim.set_input_by_name("d", false).unwrap();
        sim.tick(clk);
        assert!(!sim.value(n.find_net("q").unwrap()));
    }

    #[test]
    fn counter_counts() {
        let n = elab(
            "entity c is port (clk, rst : in std_logic;
                               q : out std_logic_vector(3 downto 0)); end c;
             architecture r of c is
               signal cnt : std_logic_vector(3 downto 0);
             begin
               process (clk) begin
                 if rising_edge(clk) then
                   if rst = '1' then
                     cnt <= \"0000\";
                   else
                     cnt <= cnt + 1;
                   end if;
                 end if;
               end process;
               q <= cnt;
             end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        let clk = n.clocks[0];
        let value = |sim: &Simulator, n: &Netlist| -> u32 {
            (0..4)
                .map(|i| {
                    let net = n.find_net(&format!("q({i})")).unwrap();
                    (sim.value(net) as u32) << i
                })
                .sum()
        };
        sim.set_input_by_name("rst", true).unwrap();
        sim.tick(clk);
        assert_eq!(value(&sim, &n), 0);
        sim.set_input_by_name("rst", false).unwrap();
        for expect in 1..=10u32 {
            sim.tick(clk);
            assert_eq!(value(&sim, &n), expect % 16, "after {expect} ticks");
        }
    }

    #[test]
    fn enable_holds_value() {
        let n = elab(
            "entity x is port (clk, en, d : in std_logic; q : out std_logic); end x;
             architecture r of x is begin
               process (clk) begin
                 if rising_edge(clk) then
                   if en = '1' then q <= d; end if;
                 end if;
               end process;
             end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        let clk = n.clocks[0];
        let q = n.find_net("q").unwrap();
        sim.set_input_by_name("en", true).unwrap();
        sim.set_input_by_name("d", true).unwrap();
        sim.tick(clk);
        assert!(sim.value(q));
        // Disable: q must hold even though d changes.
        sim.set_input_by_name("en", false).unwrap();
        sim.set_input_by_name("d", false).unwrap();
        sim.tick(clk);
        assert!(sim.value(q), "disabled FF must hold");
    }

    #[test]
    fn others_aggregate_fills_target() {
        let n = elab(
            "entity x is port (clk, rst : in std_logic;
                               q : out std_logic_vector(4 downto 0)); end x;
             architecture r of x is
               signal s : std_logic_vector(4 downto 0);
             begin
               process (clk) begin
                 if rising_edge(clk) then
                   if rst = '1' then s <= (others => '1'); else s <= (others => '0'); end if;
                 end if;
               end process;
               q <= s;
             end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        let clk = n.clocks[0];
        sim.set_input_by_name("rst", true).unwrap();
        sim.tick(clk);
        for i in 0..5 {
            assert!(
                sim.value(n.find_net(&format!("q({i})")).unwrap()),
                "bit {i} set"
            );
        }
        sim.set_input_by_name("rst", false).unwrap();
        sim.tick(clk);
        for i in 0..5 {
            assert!(
                !sim.value(n.find_net(&format!("q({i})")).unwrap()),
                "bit {i} clear"
            );
        }
    }

    #[test]
    fn down_counter_subtracts() {
        let n = elab(
            "entity d is port (clk : in std_logic;
                               q : out std_logic_vector(3 downto 0)); end d;
             architecture r of d is
               signal cnt : std_logic_vector(3 downto 0);
             begin
               process (clk) begin
                 if rising_edge(clk) then cnt <= cnt - 1; end if;
               end process;
               q <= cnt;
             end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        let clk = n.clocks[0];
        let value = |sim: &Simulator| -> u32 {
            (0..4)
                .map(|i| (sim.value(n.find_net(&format!("q({i})")).unwrap()) as u32) << i)
                .sum()
        };
        assert_eq!(value(&sim), 0);
        sim.tick(clk);
        assert_eq!(value(&sim), 15, "0 - 1 wraps to 15");
        sim.tick(clk);
        assert_eq!(value(&sim), 14);
        sim.tick(clk);
        assert_eq!(value(&sim), 13);
    }

    #[test]
    fn vector_subtraction() {
        let n = elab(
            "entity s is port (a, b : in std_logic_vector(3 downto 0);
                               y : out std_logic_vector(3 downto 0)); end s;
             architecture r of s is begin y <= a - b; end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        for (a, b) in [(9u32, 4u32), (3, 7), (15, 15)] {
            for i in 0..4 {
                sim.set_input_by_name(&format!("a({i})"), a >> i & 1 == 1)
                    .unwrap();
                sim.set_input_by_name(&format!("b({i})"), b >> i & 1 == 1)
                    .unwrap();
            }
            sim.propagate();
            let y: u32 = (0..4)
                .map(|i| (sim.value(n.find_net(&format!("y({i})")).unwrap()) as u32) << i)
                .sum();
            assert_eq!(y, a.wrapping_sub(b) & 0xF, "{a} - {b}");
        }
    }

    #[test]
    fn case_statement_fsm() {
        // 2-bit sequence controller written with a case statement.
        let n = elab(
            "entity f is port (clk, go : in std_logic;
                               st : out std_logic_vector(1 downto 0)); end f;
             architecture r of f is
               signal s : std_logic_vector(1 downto 0);
             begin
               process (clk) begin
                 if rising_edge(clk) then
                   case s is
                     when \"00\" =>
                       if go = '1' then s <= \"01\"; end if;
                     when \"01\" => s <= \"10\";
                     when \"10\" => s <= \"11\";
                     when others => s <= \"00\";
                   end case;
                 end if;
               end process;
               st <= s;
             end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        let clk = n.clocks[0];
        let state = |sim: &Simulator| -> u32 {
            (0..2)
                .map(|i| (sim.value(n.find_net(&format!("st({i})")).unwrap()) as u32) << i)
                .sum()
        };
        // Hold in state 0 until 'go'.
        sim.set_input_by_name("go", false).unwrap();
        sim.tick(clk);
        assert_eq!(state(&sim), 0);
        sim.set_input_by_name("go", true).unwrap();
        sim.tick(clk);
        assert_eq!(state(&sim), 1);
        sim.tick(clk);
        assert_eq!(state(&sim), 2);
        sim.tick(clk);
        assert_eq!(state(&sim), 3);
        sim.tick(clk);
        assert_eq!(state(&sim), 0, "others arm wraps to 00");
    }

    #[test]
    fn concat_orders_bits() {
        let n = elab(
            "entity x is port (a, b : in std_logic;
                               y : out std_logic_vector(1 downto 0)); end x;
             architecture r of x is begin y <= a & b; end r;",
        );
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input_by_name("a", true).unwrap();
        sim.set_input_by_name("b", false).unwrap();
        sim.propagate();
        // a is the MSB: y = "10".
        assert!(sim.value(n.find_net("y(1)").unwrap()));
        assert!(!sim.value(n.find_net("y(0)").unwrap()));
    }
}
