//! # fpga-circuits
//!
//! Benchmark workload generators. The paper evaluates its flow on the
//! MCNC LGSynth93 suite, which is not redistributable; these generators
//! produce circuits of the same families (arithmetic, sequential control,
//! random logic with locality) with controllable size, so the packing,
//! placement, routing, and power experiments exercise the same code paths
//! and scaling behaviour.
//!
//! Every generator returns a gate-level [`Netlist`] ready for the SIS/
//! FlowMap mapping stage; [`vhdl_counter`] additionally emits VHDL source
//! for flows that start from the front of the chain.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fpga_netlist::ir::{CellKind, NetId, Netlist};

/// An n-bit synchronous counter with reset, as VHDL source (entry point
/// for the full VHDL-to-bitstream flow).
pub fn vhdl_counter(bits: usize) -> String {
    assert!(bits >= 1);
    format!(
        "-- generated: {bits}-bit counter
library ieee;
use ieee.std_logic_1164.all;

entity counter{bits} is
  port ( clk : in std_logic;
         rst : in std_logic;
         q   : out std_logic_vector({msb} downto 0) );
end counter{bits};

architecture rtl of counter{bits} is
  signal cnt : std_logic_vector({msb} downto 0);
begin
  process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        cnt <= \"{zeros}\";
      else
        cnt <= cnt + 1;
      end if;
    end if;
  end process;
  q <= cnt;
end rtl;
",
        msb = bits - 1,
        zeros = "0".repeat(bits),
    )
}

/// A "1011" sequence detector as VHDL, exercising the front end's case
/// statements, aggregates, and clocked processes — the control-logic
/// benchmark family.
pub fn vhdl_sequence_detector() -> String {
    "
library ieee;
use ieee.std_logic_1164.all;

entity seqdet is
  port ( clk  : in std_logic;
         din  : in std_logic;
         seen : out std_logic );
end seqdet;

architecture rtl of seqdet is
  signal state : std_logic_vector(1 downto 0);
begin
  process (clk)
  begin
    if rising_edge(clk) then
      case state is
        when \"00\" =>
          if din = '1' then state <= \"01\"; end if;
        when \"01\" =>
          if din = '0' then state <= \"10\"; end if;
        when \"10\" =>
          if din = '1' then state <= \"11\"; else state <= (others => '0'); end if;
        when others =>
          state <= (others => '0');
      end case;
    end if;
  end process;
  seen <= state(1) and state(0);
end rtl;
"
    .to_string()
}

/// Gate-level ripple-carry adder: `sum = a + b`, with carry out.
pub fn ripple_adder(width: usize) -> Netlist {
    assert!(width >= 1);
    let mut nl = Netlist::new(&format!("add{width}"));
    let a: Vec<NetId> = (0..width).map(|i| nl.net(&format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..width).map(|i| nl.net(&format!("b{i}"))).collect();
    for &n in a.iter().chain(b.iter()) {
        nl.add_input(n);
    }
    let mut carry: Option<NetId> = None;
    for i in 0..width {
        let s = nl.net(&format!("sum{i}"));
        nl.add_output(s);
        let axb = nl.net(&format!("axb{i}"));
        nl.add_cell(&format!("x1_{i}"), CellKind::Xor, vec![a[i], b[i]], axb);
        match carry {
            None => {
                nl.add_cell(&format!("s_{i}"), CellKind::Buf, vec![axb], s);
                let c = nl.net(&format!("c{i}"));
                nl.add_cell(&format!("c_{i}"), CellKind::And, vec![a[i], b[i]], c);
                carry = Some(c);
            }
            Some(cin) => {
                nl.add_cell(&format!("s_{i}"), CellKind::Xor, vec![axb, cin], s);
                let g = nl.net(&format!("g{i}"));
                let p = nl.net(&format!("p{i}"));
                let c = nl.net(&format!("c{i}"));
                nl.add_cell(&format!("g_{i}"), CellKind::And, vec![a[i], b[i]], g);
                nl.add_cell(&format!("p_{i}"), CellKind::And, vec![axb, cin], p);
                nl.add_cell(&format!("c_{i}"), CellKind::Or, vec![g, p], c);
                carry = Some(c);
            }
        }
    }
    let cout = nl.net("cout");
    nl.add_output(cout);
    nl.add_cell("co", CellKind::Buf, vec![carry.unwrap()], cout);
    nl
}

/// A small ALU: op = 00 add, 01 and, 10 or, 11 xor.
pub fn alu(width: usize) -> Netlist {
    let mut nl = ripple_adder(width);
    nl.name = format!("alu{width}");
    let op0 = nl.net("op0");
    let op1 = nl.net("op1");
    nl.add_input(op0);
    nl.add_input(op1);
    let a: Vec<NetId> = (0..width)
        .map(|i| nl.find_net(&format!("a{i}")).unwrap())
        .collect();
    let b: Vec<NetId> = (0..width)
        .map(|i| nl.find_net(&format!("b{i}")).unwrap())
        .collect();
    for i in 0..width {
        let and = nl.net(&format!("land{i}"));
        let or = nl.net(&format!("lor{i}"));
        let xor = nl.net(&format!("lxor{i}"));
        nl.add_cell(&format!("la{i}"), CellKind::And, vec![a[i], b[i]], and);
        nl.add_cell(&format!("lo{i}"), CellKind::Or, vec![a[i], b[i]], or);
        nl.add_cell(&format!("lx{i}"), CellKind::Xor, vec![a[i], b[i]], xor);
        let sum = nl.find_net(&format!("sum{i}")).unwrap();
        // mux level 1: op0 selects (add vs and), (or vs xor).
        let m0 = nl.net(&format!("m0_{i}"));
        let m1 = nl.net(&format!("m1_{i}"));
        nl.add_cell(&format!("mx0_{i}"), CellKind::Mux2, vec![op0, sum, and], m0);
        nl.add_cell(&format!("mx1_{i}"), CellKind::Mux2, vec![op0, or, xor], m1);
        let y = nl.net(&format!("y{i}"));
        nl.add_output(y);
        nl.add_cell(&format!("mx2_{i}"), CellKind::Mux2, vec![op1, m0, m1], y);
    }
    nl
}

/// Galois LFSR with the given tap mask (bit i set = tap at stage i).
/// A compact sequential benchmark with global feedback.
pub fn lfsr(width: usize, taps: u64) -> Netlist {
    assert!((2..=64).contains(&width));
    let mut nl = Netlist::new(&format!("lfsr{width}"));
    let clk = nl.net("clk");
    nl.add_clock(clk);
    let q: Vec<NetId> = (0..width).map(|i| nl.net(&format!("q{i}"))).collect();
    let fb = q[width - 1];
    for i in 0..width {
        let d = if i == 0 {
            fb
        } else if taps >> i & 1 == 1 {
            let d = nl.net(&format!("d{i}"));
            nl.add_cell(&format!("t{i}"), CellKind::Xor, vec![q[i - 1], fb], d);
            d
        } else {
            q[i - 1]
        };
        // Initialize to the all-ones state so the register is not stuck.
        nl.add_cell(
            &format!("f{i}"),
            CellKind::Dff {
                clock: clk,
                init: true,
            },
            vec![d],
            q[i],
        );
    }
    nl.add_output(q[width - 1]);
    nl
}

/// CRC update logic: `width`-bit register consuming one data bit per
/// cycle with polynomial `poly`.
pub fn crc(width: usize, poly: u64) -> Netlist {
    assert!((2..=32).contains(&width));
    let mut nl = Netlist::new(&format!("crc{width}"));
    let clk = nl.net("clk");
    nl.add_clock(clk);
    let din = nl.net("din");
    nl.add_input(din);
    let q: Vec<NetId> = (0..width).map(|i| nl.net(&format!("q{i}"))).collect();
    // feedback = din xor q[msb]
    let fb = nl.net("fb");
    nl.add_cell("fb", CellKind::Xor, vec![din, q[width - 1]], fb);
    for i in 0..width {
        let prev = if i == 0 { None } else { Some(q[i - 1]) };
        let d = match (prev, poly >> i & 1 == 1) {
            (None, _) => fb,
            (Some(p), false) => p,
            (Some(p), true) => {
                let d = nl.net(&format!("d{i}"));
                nl.add_cell(&format!("t{i}"), CellKind::Xor, vec![p, fb], d);
                d
            }
        };
        nl.add_cell(
            &format!("f{i}"),
            CellKind::Dff {
                clock: clk,
                init: false,
            },
            vec![d],
            q[i],
        );
    }
    for (i, &qn) in q.iter().enumerate() {
        let o = nl.net(&format!("crc_out{i}"));
        nl.add_output(o);
        nl.add_cell(&format!("o{i}"), CellKind::Buf, vec![qn], o);
    }
    nl
}

/// A one-hot finite state machine cycling through `states` states with a
/// 1-bit input steering forward/backward, plus a decoded output per state.
pub fn fsm(states: usize) -> Netlist {
    assert!(states >= 2);
    let mut nl = Netlist::new(&format!("fsm{states}"));
    let clk = nl.net("clk");
    nl.add_clock(clk);
    let dir = nl.net("dir");
    nl.add_input(dir);
    let s: Vec<NetId> = (0..states).map(|i| nl.net(&format!("s{i}"))).collect();
    let ndir = nl.net("ndir");
    nl.add_cell("ndir", CellKind::Not, vec![dir], ndir);
    for i in 0..states {
        let from_prev = s[(i + states - 1) % states];
        let from_next = s[(i + 1) % states];
        let fwd = nl.net(&format!("fwd{i}"));
        let bwd = nl.net(&format!("bwd{i}"));
        let d = nl.net(&format!("d{i}"));
        nl.add_cell(&format!("af{i}"), CellKind::And, vec![from_prev, dir], fwd);
        nl.add_cell(&format!("ab{i}"), CellKind::And, vec![from_next, ndir], bwd);
        nl.add_cell(&format!("od{i}"), CellKind::Or, vec![fwd, bwd], d);
        // State 0 starts hot.
        nl.add_cell(
            &format!("f{i}"),
            CellKind::Dff {
                clock: clk,
                init: i == 0,
            },
            vec![d],
            s[i],
        );
        let o = nl.net(&format!("state{i}"));
        nl.add_output(o);
        nl.add_cell(&format!("o{i}"), CellKind::Buf, vec![s[i]], o);
    }
    nl
}

/// Array multiplier: `prod = a * b` (unsigned), built from AND partial
/// products reduced by ripple-carry rows — the classic arithmetic-heavy
/// benchmark family. Scales to wide operands (`mult32` is a ~12k-gate
/// benchmark-suite point); the structure is identical at every width, so
/// the netlist is a pure function of `width`.
pub fn multiplier(width: usize) -> Netlist {
    assert!((2..=64).contains(&width));
    let mut nl = Netlist::new(&format!("mult{width}"));
    let a: Vec<NetId> = (0..width).map(|i| nl.net(&format!("a{i}"))).collect();
    let b: Vec<NetId> = (0..width).map(|i| nl.net(&format!("b{i}"))).collect();
    for &n in a.iter().chain(b.iter()) {
        nl.add_input(n);
    }
    // Partial products.
    let mut pp: Vec<Vec<NetId>> = Vec::with_capacity(width);
    for (j, &bj) in b.iter().enumerate() {
        let row: Vec<NetId> = a
            .iter()
            .enumerate()
            .map(|(i, &ai)| {
                let w = nl.net(&format!("pp{j}_{i}"));
                nl.add_cell(&format!("and{j}_{i}"), CellKind::And, vec![ai, bj], w);
                w
            })
            .collect();
        pp.push(row);
    }
    // Schoolbook accumulation: a full-width ripple add of each shifted
    // partial-product row into the running 2w-bit product.
    let full_adder = |nl: &mut Netlist, tag: String, x: NetId, y: NetId, cin: NetId| {
        let axb = nl.net(&format!("{tag}_axb"));
        nl.add_cell(&format!("{tag}_x1"), CellKind::Xor, vec![x, y], axb);
        let s = nl.net(&format!("{tag}_s"));
        nl.add_cell(&format!("{tag}_x2"), CellKind::Xor, vec![axb, cin], s);
        let g = nl.net(&format!("{tag}_g"));
        let q = nl.net(&format!("{tag}_p"));
        let c = nl.net(&format!("{tag}_c"));
        nl.add_cell(&format!("{tag}_a1"), CellKind::And, vec![x, y], g);
        nl.add_cell(&format!("{tag}_a2"), CellKind::And, vec![axb, cin], q);
        nl.add_cell(&format!("{tag}_o1"), CellKind::Or, vec![g, q], c);
        (s, c)
    };
    let zero = nl.net("zero");
    nl.add_cell("zero", CellKind::Const0, vec![], zero);
    let mut prod: Vec<NetId> = vec![zero; 2 * width];
    for (j, row) in pp.iter().enumerate() {
        let mut carry = zero;
        for i in 0..width {
            let (s2, c2) = full_adder(&mut nl, format!("fa{j}_{i}"), row[i], prod[j + i], carry);
            prod[j + i] = s2;
            carry = c2;
        }
        // Propagate the final carry into the upper bits.
        let mut k = j + width;
        while k < 2 * width {
            let (s2, c2) = full_adder(&mut nl, format!("fc{j}_{k}"), prod[k], carry, zero);
            prod[k] = s2;
            carry = c2;
            k += 1;
        }
    }
    let outputs = prod;
    for (k, &bit) in outputs.iter().take(2 * width).enumerate() {
        let o = nl.net(&format!("p{k}"));
        nl.add_output(o);
        nl.add_cell(&format!("po{k}"), CellKind::Buf, vec![bit], o);
    }
    nl
}

/// Parameters for random logic generation.
#[derive(Clone, Debug)]
pub struct RandomLogicParams {
    pub n_gates: usize,
    pub n_inputs: usize,
    pub n_outputs: usize,
    /// Fraction of gates that are registered (followed by a FF).
    pub ff_fraction: f64,
    /// Locality: each gate prefers inputs among the most recent `window`
    /// signals (models the Rent-style locality of real netlists).
    pub window: usize,
    pub seed: u64,
}

impl Default for RandomLogicParams {
    fn default() -> Self {
        RandomLogicParams {
            n_gates: 200,
            n_inputs: 12,
            n_outputs: 8,
            ff_fraction: 0.25,
            window: 24,
            seed: 7,
        }
    }
}

/// Random 2-input gate network with locality and optional registers.
/// Always acyclic (gates only consume earlier signals).
pub fn random_logic(p: &RandomLogicParams) -> Netlist {
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut nl = Netlist::new(&format!("rand{}", p.n_gates));
    let clk = nl.net("clk");
    let has_ffs = p.ff_fraction > 0.0;
    if has_ffs {
        nl.add_clock(clk);
    }
    let mut pool: Vec<NetId> = (0..p.n_inputs)
        .map(|i| {
            let n = nl.net(&format!("in{i}"));
            nl.add_input(n);
            n
        })
        .collect();
    let kinds = [
        CellKind::And,
        CellKind::Or,
        CellKind::Xor,
        CellKind::Nand,
        CellKind::Nor,
    ];
    for g in 0..p.n_gates {
        let lo = pool.len().saturating_sub(p.window);
        let i1 = rng.gen_range(lo..pool.len());
        let mut i2 = rng.gen_range(lo..pool.len());
        if i2 == i1 {
            i2 = rng.gen_range(0..pool.len());
        }
        let kind = kinds[rng.gen_range(0..kinds.len())].clone();
        let w = nl.net(&format!("w{g}"));
        nl.add_cell(&format!("g{g}"), kind, vec![pool[i1], pool[i2]], w);
        let out = if has_ffs && rng.gen::<f64>() < p.ff_fraction {
            let q = nl.net(&format!("r{g}"));
            nl.add_cell(
                &format!("ff{g}"),
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![w],
                q,
            );
            q
        } else {
            w
        };
        pool.push(out);
    }
    // Outputs: the last distinct signals.
    let n_out = p.n_outputs.min(pool.len());
    for (k, &sig) in pool.iter().rev().take(n_out).enumerate() {
        let o = nl.net(&format!("out{k}"));
        nl.add_output(o);
        nl.add_cell(&format!("po{k}"), CellKind::Buf, vec![sig], o);
    }
    nl
}

/// An adder reduction tree: sums `leaves` `width`-bit inputs pairwise,
/// operand width growing by one bit per level — the wide-datapath
/// arithmetic benchmark family (filter taps, popcount/accumulate cores).
pub fn adder_tree(width: usize, leaves: usize) -> Netlist {
    assert!(width >= 1);
    assert!(leaves >= 2 && leaves.is_power_of_two());
    let mut nl = Netlist::new(&format!("addtree{leaves}x{width}"));
    // Leaf operands are primary inputs.
    let mut level: Vec<Vec<NetId>> = (0..leaves)
        .map(|l| {
            (0..width)
                .map(|i| {
                    let n = nl.net(&format!("in{l}_{i}"));
                    nl.add_input(n);
                    n
                })
                .collect()
        })
        .collect();
    // Each tree level ripple-adds operand pairs; the sum keeps the carry
    // as its new MSB, so no overflow is ever dropped.
    let mut depth = 0usize;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len() / 2);
        for (pair, ops) in level.chunks(2).enumerate() {
            let (a, b) = (&ops[0], &ops[1]);
            let w = a.len();
            let tag = format!("l{depth}n{pair}");
            let mut sum = Vec::with_capacity(w + 1);
            let mut carry: Option<NetId> = None;
            for i in 0..w {
                let axb = nl.net(&format!("{tag}_axb{i}"));
                nl.add_cell(
                    &format!("{tag}_x1_{i}"),
                    CellKind::Xor,
                    vec![a[i], b[i]],
                    axb,
                );
                match carry {
                    None => {
                        sum.push(axb);
                        let c = nl.net(&format!("{tag}_c{i}"));
                        nl.add_cell(&format!("{tag}_a1_{i}"), CellKind::And, vec![a[i], b[i]], c);
                        carry = Some(c);
                    }
                    Some(cin) => {
                        let s = nl.net(&format!("{tag}_s{i}"));
                        nl.add_cell(&format!("{tag}_x2_{i}"), CellKind::Xor, vec![axb, cin], s);
                        sum.push(s);
                        let g = nl.net(&format!("{tag}_g{i}"));
                        let p = nl.net(&format!("{tag}_p{i}"));
                        let c = nl.net(&format!("{tag}_cc{i}"));
                        nl.add_cell(&format!("{tag}_a2_{i}"), CellKind::And, vec![a[i], b[i]], g);
                        nl.add_cell(&format!("{tag}_a3_{i}"), CellKind::And, vec![axb, cin], p);
                        nl.add_cell(&format!("{tag}_o1_{i}"), CellKind::Or, vec![g, p], c);
                        carry = Some(c);
                    }
                }
            }
            sum.push(carry.expect("width >= 1 always produces a carry"));
            next.push(sum);
        }
        level = next;
        depth += 1;
    }
    for (i, &bit) in level[0].iter().enumerate() {
        let o = nl.net(&format!("sum{i}"));
        nl.add_output(o);
        nl.add_cell(&format!("po{i}"), CellKind::Buf, vec![bit], o);
    }
    nl
}

/// A chain of `segments` one-hot FSMs, each steered by the previous
/// segment's state-0 wire (the first by a primary input) — the deep
/// sequential-control benchmark family: long state-dependent paths with
/// dense feedback, the opposite locality profile of the datapath trees.
pub fn fsm_chain(segments: usize, states: usize) -> Netlist {
    assert!(segments >= 1);
    assert!(states >= 2);
    let mut nl = Netlist::new(&format!("fsmchain{segments}x{states}"));
    let clk = nl.net("clk");
    nl.add_clock(clk);
    let dir0 = nl.net("dir");
    nl.add_input(dir0);
    let mut dir = dir0;
    for seg in 0..segments {
        let s: Vec<NetId> = (0..states)
            .map(|i| nl.net(&format!("k{seg}_s{i}")))
            .collect();
        let ndir = nl.net(&format!("k{seg}_ndir"));
        nl.add_cell(&format!("k{seg}_ndir"), CellKind::Not, vec![dir], ndir);
        for i in 0..states {
            let from_prev = s[(i + states - 1) % states];
            let from_next = s[(i + 1) % states];
            let fwd = nl.net(&format!("k{seg}_fwd{i}"));
            let bwd = nl.net(&format!("k{seg}_bwd{i}"));
            let d = nl.net(&format!("k{seg}_d{i}"));
            nl.add_cell(
                &format!("k{seg}_af{i}"),
                CellKind::And,
                vec![from_prev, dir],
                fwd,
            );
            nl.add_cell(
                &format!("k{seg}_ab{i}"),
                CellKind::And,
                vec![from_next, ndir],
                bwd,
            );
            nl.add_cell(&format!("k{seg}_od{i}"), CellKind::Or, vec![fwd, bwd], d);
            nl.add_cell(
                &format!("k{seg}_f{i}"),
                CellKind::Dff {
                    clock: clk,
                    init: i == 0,
                },
                vec![d],
                s[i],
            );
        }
        // The next segment walks whenever this one sits in state 0.
        dir = s[0];
    }
    // Decoded outputs come from the last segment.
    let last = segments - 1;
    for i in 0..states {
        let hot = nl
            .find_net(&format!("k{last}_s{i}"))
            .expect("last segment states exist");
        let o = nl.net(&format!("state{i}"));
        nl.add_output(o);
        nl.add_cell(&format!("o{i}"), CellKind::Buf, vec![hot], o);
    }
    nl
}

/// Rent's-rule random logic: a 2-input gate network whose wiring
/// locality follows `window(i) ~ i^p` for Rent exponent `p`, with a
/// small fraction of global (whole-pool) picks for the long-wire tail.
/// `target_luts` is the nominal post-mapping 4-LUT count; the generator
/// overshoots slightly so a `rent_10k` sweep point maps to >= 10k LUTs.
///
/// Deterministic: the netlist is a pure function of the three parameters
/// (the RNG is seeded, names are sequential), so its bytes — and
/// therefore every stage-cache key — are identical across runs.
pub fn rent_logic(target_luts: usize, rent_exponent: f64, seed: u64) -> Netlist {
    assert!(target_luts >= 16);
    assert!((0.0..=1.0).contains(&rent_exponent));
    let n_gates = target_luts * 2;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut nl = Netlist::new(&format!(
        "rent{}p{}s{}",
        target_luts,
        (rent_exponent * 100.0).round() as u64,
        seed
    ));
    let clk = nl.net("clk");
    nl.add_clock(clk);
    // External I/O follows Rent with t = 4 terminals per gate, clamped to
    // a realistic pad budget.
    let n_inputs = ((4.0 * (n_gates as f64).powf(rent_exponent)) as usize).clamp(16, 256);
    let n_outputs = (n_inputs / 2).max(8);
    let mut pool: Vec<NetId> = (0..n_inputs)
        .map(|i| {
            let n = nl.net(&format!("in{i}"));
            nl.add_input(n);
            n
        })
        .collect();
    let kinds = [
        CellKind::And,
        CellKind::Or,
        CellKind::Xor,
        CellKind::Nand,
        CellKind::Nor,
    ];
    for g in 0..n_gates {
        // Locality window grows as pool^p; one pick in twenty is global,
        // producing the long-wire tail real netlists exhibit.
        let window = ((pool.len() as f64).powf(rent_exponent) as usize).max(8);
        let lo = pool.len().saturating_sub(window);
        let pick = |rng: &mut SmallRng| {
            if rng.gen_range(0..20usize) == 0 {
                rng.gen_range(0..pool.len())
            } else {
                rng.gen_range(lo..pool.len())
            }
        };
        let i1 = pick(&mut rng);
        let mut i2 = pick(&mut rng);
        if i2 == i1 {
            i2 = rng.gen_range(0..pool.len());
        }
        let kind = kinds[rng.gen_range(0..kinds.len())].clone();
        let w = nl.net(&format!("w{g}"));
        nl.add_cell(&format!("g{g}"), kind, vec![pool[i1], pool[i2]], w);
        // A fifth of the gates are registered, like the seed generator.
        let out = if rng.gen_range(0..5usize) == 0 {
            let q = nl.net(&format!("r{g}"));
            nl.add_cell(
                &format!("ff{g}"),
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![w],
                q,
            );
            q
        } else {
            w
        };
        pool.push(out);
    }
    for (k, &sig) in pool.iter().rev().take(n_outputs).enumerate() {
        let o = nl.net(&format!("out{k}"));
        nl.add_output(o);
        nl.add_cell(&format!("po{k}"), CellKind::Buf, vec![sig], o);
    }
    nl
}

/// Which benchmark runs a suite design belongs to. `Smoke` is the
/// seconds-scale tier CI runs on every change; `Full` adds the scaled
/// sweep points (tens of thousands of LUTs) behind `BENCH_<n>.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteTier {
    Smoke,
    Full,
}

/// One registered suite design: a stable row name (benchmark trajectories
/// compare rows across PRs by this key), its tier, the routing policy,
/// and the deterministic generator behind it.
#[derive(Clone)]
pub struct SuiteEntry {
    /// Stable row name (`rent_1k`, `mult32`, ...). Never rename — the
    /// `BENCH_*.json` trajectory and `bench-diff` join on it.
    pub name: &'static str,
    pub tier: SuiteTier,
    /// Fixed routing channel width for designs too large for the min-W
    /// binary search; `None` searches (reporting minimum W as QoR).
    pub channel_width: Option<usize>,
    pub build: fn() -> Netlist,
}

/// The QoR/speed benchmark suite registry. Names are append-only: new
/// sweep points may be added, existing ones must keep their generator
/// parameters (a changed generator silently invalidates every historical
/// `BENCH_*.json` row it produced).
pub fn qor_suite() -> Vec<SuiteEntry> {
    use SuiteTier::*;
    vec![
        SuiteEntry {
            name: "add32",
            tier: Smoke,
            channel_width: None,
            build: || ripple_adder(32),
        },
        SuiteEntry {
            name: "alu8",
            tier: Smoke,
            channel_width: None,
            build: || alu(8),
        },
        SuiteEntry {
            name: "mult8",
            tier: Smoke,
            channel_width: None,
            build: || multiplier(8),
        },
        SuiteEntry {
            name: "crc16",
            tier: Smoke,
            channel_width: None,
            build: || crc(16, 0x1021),
        },
        SuiteEntry {
            name: "fsm_chain_4x8",
            tier: Smoke,
            channel_width: None,
            build: || fsm_chain(4, 8),
        },
        SuiteEntry {
            name: "rent_500",
            tier: Smoke,
            channel_width: Some(28),
            build: || rent_logic(500, 0.62, 17),
        },
        SuiteEntry {
            name: "rent_1k",
            tier: Smoke,
            channel_width: Some(32),
            build: || rent_logic(1_000, 0.62, 17),
        },
        SuiteEntry {
            name: "add_tree_8x16",
            tier: Full,
            channel_width: None,
            build: || adder_tree(16, 8),
        },
        SuiteEntry {
            name: "mult16",
            tier: Full,
            channel_width: Some(28),
            build: || multiplier(16),
        },
        SuiteEntry {
            name: "mult32",
            tier: Full,
            channel_width: Some(40),
            build: || multiplier(32),
        },
        SuiteEntry {
            name: "rent_2k",
            tier: Full,
            channel_width: Some(36),
            build: || rent_logic(2_000, 0.62, 17),
        },
        SuiteEntry {
            name: "rent_4k",
            tier: Full,
            channel_width: Some(44),
            build: || rent_logic(4_000, 0.62, 17),
        },
        SuiteEntry {
            name: "rent_10k",
            tier: Full,
            channel_width: Some(80),
            build: || rent_logic(10_000, 0.62, 17),
        },
    ]
}

/// Look up one suite design by its stable row name.
pub fn suite_entry(name: &str) -> Option<SuiteEntry> {
    qor_suite().into_iter().find(|e| e.name == name)
}

/// The benchmark suite used by the flow experiments: a spread of circuit
/// families and sizes, with stable names.
pub fn benchmark_suite() -> Vec<Netlist> {
    vec![
        ripple_adder(8),
        alu(4),
        multiplier(4),
        lfsr(16, 0b0110_1000_0000_0000),
        crc(8, 0x07),
        fsm(10),
        random_logic(&RandomLogicParams {
            n_gates: 120,
            seed: 3,
            ..Default::default()
        }),
        random_logic(&RandomLogicParams {
            n_gates: 300,
            n_inputs: 20,
            n_outputs: 12,
            seed: 9,
            ..Default::default()
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_netlist::sim::Simulator;

    #[test]
    fn adder_adds() {
        let nl = ripple_adder(4);
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        for (a, b) in [(3u32, 5u32), (15, 1), (7, 7), (0, 0)] {
            for i in 0..4 {
                sim.set_input_by_name(&format!("a{i}"), a >> i & 1 == 1)
                    .unwrap();
                sim.set_input_by_name(&format!("b{i}"), b >> i & 1 == 1)
                    .unwrap();
            }
            sim.propagate();
            let mut sum = 0u32;
            for i in 0..4 {
                if sim.value(nl.find_net(&format!("sum{i}")).unwrap()) {
                    sum |= 1 << i;
                }
            }
            if sim.value(nl.find_net("cout").unwrap()) {
                sum |= 1 << 4;
            }
            assert_eq!(sum, a + b, "{a} + {b}");
        }
    }

    #[test]
    fn alu_ops() {
        let nl = alu(4);
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let a = 0b1010u32;
        let b = 0b0110u32;
        for i in 0..4 {
            sim.set_input_by_name(&format!("a{i}"), a >> i & 1 == 1)
                .unwrap();
            sim.set_input_by_name(&format!("b{i}"), b >> i & 1 == 1)
                .unwrap();
        }
        for (op, expect) in [(0u32, (a + b) & 0xF), (1, a & b), (2, a | b), (3, a ^ b)] {
            sim.set_input_by_name("op0", op & 1 == 1).unwrap();
            sim.set_input_by_name("op1", op & 2 == 2).unwrap();
            sim.propagate();
            let mut y = 0u32;
            for i in 0..4 {
                if sim.value(nl.find_net(&format!("y{i}")).unwrap()) {
                    y |= 1 << i;
                }
            }
            assert_eq!(y, expect, "op {op}");
        }
    }

    #[test]
    fn multiplier_multiplies() {
        let nl = multiplier(4);
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        for (a, b) in [(0u32, 0u32), (3, 5), (15, 15), (7, 9), (12, 1)] {
            for i in 0..4 {
                sim.set_input_by_name(&format!("a{i}"), a >> i & 1 == 1)
                    .unwrap();
                sim.set_input_by_name(&format!("b{i}"), b >> i & 1 == 1)
                    .unwrap();
            }
            sim.propagate();
            let mut p = 0u32;
            for k in 0..8 {
                if sim.value(nl.find_net(&format!("p{k}")).unwrap()) {
                    p |= 1 << k;
                }
            }
            assert_eq!(p, a * b, "{a} * {b}");
        }
    }

    #[test]
    fn lfsr_cycles_without_sticking() {
        let nl = lfsr(8, 0b0001_1100);
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let clk = nl.clocks[0];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let state: u32 = (0..8)
                .map(|i| (sim.value(nl.find_net(&format!("q{i}")).unwrap()) as u32) << i)
                .sum();
            seen.insert(state);
            sim.tick(clk);
        }
        assert!(
            seen.len() > 20,
            "LFSR visits many states, got {}",
            seen.len()
        );
    }

    #[test]
    fn crc_depends_on_data() {
        let nl = crc(8, 0x07);
        nl.validate().unwrap();
        let run = |bits: &[bool]| {
            let mut sim = Simulator::new(&nl).unwrap();
            let clk = nl.clocks[0];
            for &b in bits {
                sim.set_input_by_name("din", b).unwrap();
                sim.tick(clk);
            }
            (0..8)
                .map(|i| (sim.value(nl.find_net(&format!("q{i}")).unwrap()) as u32) << i)
                .sum::<u32>()
        };
        let c1 = run(&[true, false, true, true, false, false, true, false]);
        let c2 = run(&[true, false, true, true, false, false, true, true]);
        assert_ne!(c1, c2, "different data, different CRC");
    }

    #[test]
    fn fsm_walks() {
        let nl = fsm(6);
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let clk = nl.clocks[0];
        sim.set_input_by_name("dir", true).unwrap();
        sim.propagate();
        for step in 0..6 {
            let hot: Vec<usize> = (0..6)
                .filter(|i| sim.value(nl.find_net(&format!("state{i}")).unwrap()))
                .collect();
            assert_eq!(hot, vec![step % 6], "exactly one hot state");
            sim.tick(clk);
        }
    }

    #[test]
    fn random_logic_reproducible_and_valid() {
        let p = RandomLogicParams {
            n_gates: 150,
            seed: 42,
            ..Default::default()
        };
        let n1 = random_logic(&p);
        let n2 = random_logic(&p);
        n1.validate().unwrap();
        assert_eq!(n1.cells.len(), n2.cells.len());
        fpga_netlist::sim::check_equivalence(&n1, &n2, 32, 1).unwrap();
        // Different seed differs structurally.
        let n3 = random_logic(&RandomLogicParams { seed: 43, ..p });
        assert!(fpga_netlist::sim::check_equivalence(&n1, &n3, 64, 1).is_err());
    }

    #[test]
    fn vhdl_sequence_detector_detects() {
        let src = vhdl_sequence_detector();
        let d = fpga_vhdl::parse(&src).unwrap();
        fpga_vhdl::check(&d).unwrap();
        let nl = fpga_vhdl::elaborate(&d).unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let clk = nl.clocks[0];
        let seen = nl.find_net("seen").unwrap();
        // Feed 1,0,1: the detector walks 00 -> 01 -> 10 -> 11 and asserts.
        for bit in [true, false, true] {
            sim.set_input_by_name("din", bit).unwrap();
            sim.tick(clk);
        }
        assert!(sim.value(seen), "1011-prefix walk reaches the accept state");
        // One more cycle resets.
        sim.set_input_by_name("din", false).unwrap();
        sim.tick(clk);
        assert!(!sim.value(seen));
    }

    #[test]
    fn vhdl_counter_synthesizes() {
        let src = vhdl_counter(5);
        let d = fpga_vhdl::parse(&src).unwrap();
        fpga_vhdl::check(&d).unwrap();
        let nl = fpga_vhdl::elaborate(&d).unwrap();
        assert_eq!(nl.cell_counts().1, 5, "five flip-flops");
    }

    #[test]
    fn adder_tree_sums_leaves() {
        let nl = adder_tree(4, 4);
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let leaves = [3u32, 9, 15, 6];
        for (l, v) in leaves.iter().enumerate() {
            for i in 0..4 {
                sim.set_input_by_name(&format!("in{l}_{i}"), v >> i & 1 == 1)
                    .unwrap();
            }
        }
        sim.propagate();
        let mut sum = 0u32;
        for i in 0..6 {
            if sim.value(nl.find_net(&format!("sum{i}")).unwrap()) {
                sum |= 1 << i;
            }
        }
        assert_eq!(sum, leaves.iter().sum::<u32>());
    }

    #[test]
    fn fsm_chain_walks_the_first_segment() {
        let nl = fsm_chain(3, 5);
        nl.validate().unwrap();
        let mut sim = Simulator::new(&nl).unwrap();
        let clk = nl.clocks[0];
        sim.set_input_by_name("dir", true).unwrap();
        sim.propagate();
        for step in 0..5 {
            let hot: Vec<usize> = (0..5)
                .filter(|i| sim.value(nl.find_net(&format!("k0_s{i}")).unwrap()))
                .collect();
            assert_eq!(hot, vec![step % 5], "segment 0 is one-hot");
            sim.tick(clk);
        }
    }

    #[test]
    fn rent_logic_is_deterministic_and_scales() {
        let a = rent_logic(500, 0.62, 17);
        let b = rent_logic(500, 0.62, 17);
        a.validate().unwrap();
        assert_eq!(
            fpga_netlist::canonical_text(&a),
            fpga_netlist::canonical_text(&b),
            "same parameters, byte-identical canonical text"
        );
        let c = rent_logic(500, 0.62, 18);
        assert_ne!(
            fpga_netlist::canonical_text(&a),
            fpga_netlist::canonical_text(&c),
            "different seed, different circuit"
        );
        // Bigger target, strictly bigger circuit.
        let d = rent_logic(1_000, 0.62, 17);
        assert!(d.cells.len() > a.cells.len());
    }

    #[test]
    fn qor_suite_names_are_stable_and_unique() {
        let suite = qor_suite();
        let smoke = suite.iter().filter(|e| e.tier == SuiteTier::Smoke).count();
        assert!(smoke >= 5, "smoke tier stays meaningful");
        assert!(suite.len() >= 8, "full suite has >= 8 designs");
        let mut names = std::collections::HashSet::new();
        for e in &suite {
            assert!(names.insert(e.name), "duplicate suite name {}", e.name);
            assert!(suite_entry(e.name).is_some(), "lookup finds {}", e.name);
        }
        assert!(suite_entry("rent_10k").is_some(), "the 10k sweep point");
        assert!(suite_entry("nope").is_none());
    }

    #[test]
    fn suite_is_diverse_and_valid() {
        let suite = benchmark_suite();
        assert!(suite.len() >= 6);
        let mut names = std::collections::HashSet::new();
        for nl in &suite {
            nl.validate().unwrap();
            assert!(names.insert(nl.name.clone()), "duplicate name {}", nl.name);
        }
    }
}
