//! Properties of the stage keys the flow server's content-addressed
//! stage cache is built on, derived through the real stages
//! (`stages::adopt_rtl` → `stages::lut_map`):
//!
//! 1. permuting cell/net *storage order* never changes the canonical
//!    text, but mapping, packing, placement and routing break ties by
//!    storage order, so it either changes the `lut_map` key or leaves
//!    every artifact byte-equal;
//! 2. a logic-visible mutation (gate polarity, LUT truth bit, FF init,
//!    rewired input) always changes both;
//! 3. a compile's bytes do not depend on what the cache already holds:
//!    a BLIF with its blocks reversed compiles the same through a warm
//!    cache as it does fresh.

use fpga_framework::circuits::{random_logic, suite_entry, RandomLogicParams};
use fpga_framework::flow::stages::{adopt_rtl, lut_map};
use fpga_framework::flow::{
    run_blif, run_blif_ctx, run_netlist, Artifact, FlowCtx, FlowOptions, StageCache,
};
use fpga_framework::netlist::{blif, canonical_text, CellKind, NetId, Netlist};
use proptest::prelude::*;

/// Small deterministic generator for the shuffles (xorshift64*).
struct Shuffler(u64);

impl Shuffler {
    fn new(seed: u64) -> Self {
        Shuffler(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Rebuild `n` with both the net vector and the cell vector in a random
/// order, remapping every `NetId` reference so the logic is untouched.
fn permute_storage(n: &Netlist, seed: u64) -> Netlist {
    let mut rng = Shuffler::new(seed);

    let mut net_order: Vec<usize> = (0..n.nets.len()).collect();
    rng.shuffle(&mut net_order);
    let mut out = Netlist::new(&n.name);
    for &old in &net_order {
        out.net(&n.nets[old].name);
    }
    let remap = |id: NetId| -> NetId {
        out.find_net(n.net_name(id))
            .expect("every net was re-interned")
    };

    let mut cell_order: Vec<usize> = (0..n.cells.len()).collect();
    rng.shuffle(&mut cell_order);
    let cells: Vec<_> = cell_order
        .iter()
        .map(|&ci| {
            let c = &n.cells[ci];
            let kind = match &c.kind {
                CellKind::Dff { clock, init } => CellKind::Dff {
                    clock: remap(*clock),
                    init: *init,
                },
                other => other.clone(),
            };
            (
                c.name.clone(),
                kind,
                c.inputs.iter().map(|&i| remap(i)).collect::<Vec<_>>(),
                remap(c.output),
            )
        })
        .collect();

    let inputs: Vec<NetId> = n.inputs.iter().map(|&i| remap(i)).collect();
    let outputs: Vec<NetId> = n.outputs.iter().map(|&i| remap(i)).collect();
    let clocks: Vec<NetId> = n.clocks.iter().map(|&i| remap(i)).collect();
    for (name, kind, ins, outp) in cells {
        out.add_cell(&name, kind, ins, outp);
    }
    out.inputs = inputs;
    out.outputs = outputs;
    out.clocks = clocks;
    out
}

/// Apply one logic-visible mutation to cell `pick` (wraps around).
/// Returns a description for failure messages.
fn mutate_logic(n: &mut Netlist, pick: usize, tweak: u64) -> String {
    assert!(!n.cells.is_empty(), "random netlists always have gates");
    let ci = pick % n.cells.len();
    let cell = &mut n.cells[ci];
    match &mut cell.kind {
        CellKind::Lut { k, truth } => {
            let bit = (tweak % (1u64 << *k).min(64)) as u32;
            *truth ^= 1u64 << bit;
            format!("flip LUT truth bit {bit} of cell {ci}")
        }
        CellKind::Dff { init, .. } => {
            *init = !*init;
            format!("flip FF init of cell {ci}")
        }
        CellKind::And => {
            cell.kind = CellKind::Nand;
            format!("And -> Nand on cell {ci}")
        }
        CellKind::Or => {
            cell.kind = CellKind::Nor;
            format!("Or -> Nor on cell {ci}")
        }
        CellKind::Xor => {
            cell.kind = CellKind::Xnor;
            format!("Xor -> Xnor on cell {ci}")
        }
        CellKind::Nand => {
            cell.kind = CellKind::And;
            format!("Nand -> And on cell {ci}")
        }
        CellKind::Nor => {
            cell.kind = CellKind::Or;
            format!("Nor -> Or on cell {ci}")
        }
        CellKind::Xnor => {
            cell.kind = CellKind::Xor;
            format!("Xnor -> Xor on cell {ci}")
        }
        CellKind::Not => {
            cell.kind = CellKind::Buf;
            format!("Not -> Buf on cell {ci}")
        }
        CellKind::Buf => {
            cell.kind = CellKind::Not;
            format!("Buf -> Not on cell {ci}")
        }
        CellKind::Const0 => {
            cell.kind = CellKind::Const1;
            format!("Const0 -> Const1 on cell {ci}")
        }
        CellKind::Const1 => {
            cell.kind = CellKind::Const0;
            format!("Const1 -> Const0 on cell {ci}")
        }
        CellKind::Mux2 => {
            // Inverting the select picks the other data input: swap them.
            cell.inputs.swap(0, 1);
            if cell.inputs[0] == cell.inputs[1] {
                cell.kind = CellKind::Nand;
                return format!("degenerate Mux2 -> Nand on cell {ci}");
            }
            format!("swap Mux2 data inputs of cell {ci}")
        }
        CellKind::Sop(cover) => {
            let flipped = fpga_framework::netlist::Cube {
                care: (1u64 << cover.n_inputs.min(63)) - 1,
                value: tweak & ((1u64 << cover.n_inputs.min(63)) - 1),
            };
            cover.cubes.push(flipped);
            format!("extra SOP cube on cell {ci}")
        }
    }
}

fn gen(seed: u64, n_gates: usize) -> Netlist {
    random_logic(&RandomLogicParams {
        n_gates,
        n_inputs: 6,
        n_outputs: 4,
        ff_fraction: 0.3,
        window: 12,
        seed,
    })
}

/// A netlist's `lut_map` key, as a compile that enters with it derives it.
fn map_key(n: &Netlist) -> String {
    let rtl = adopt_rtl(n.clone());
    let opts = FlowOptions::default();
    lut_map(&rtl, &opts, FlowCtx::default())
        .expect("random logic maps")
        .key
}

/// Every artifact an uncached compile of `n` stores, as bytes, by name.
fn artifact_bytes(n: &Netlist) -> [(&'static str, Vec<u8>); 4] {
    let opts = FlowOptions::builder().verify_cycles(0).build();
    let art = run_netlist(n.clone(), &opts).expect("random logic compiles");
    [
        ("mapped", art.mapped.to_bytes()),
        ("clustering", art.clustering.to_bytes()),
        ("placement", art.placement.to_bytes()),
        ("bitstream", art.bitstream_bytes),
    ]
}

proptest! {
    #[test]
    fn canonical_form_survives_storage_permutation(
        seed in 0u64..400,
        shuffle_seed in 1u64..10_000,
    ) {
        let original = gen(seed, 24);
        let permuted = permute_storage(&original, shuffle_seed);
        prop_assert_eq!(canonical_text(&original), canonical_text(&permuted));
        // One key, one artifact: a permutation the key cannot see must
        // not move a byte.
        if map_key(&original) == map_key(&permuted) {
            let (a, b) = (artifact_bytes(&original), artifact_bytes(&permuted));
            for ((name, a), (_, b)) in a.iter().zip(&b) {
                prop_assert!(a == b, "one lut_map key, two {} artifacts", name);
            }
        }
    }

    #[test]
    fn logic_visible_mutation_changes_key(
        seed in 0u64..400,
        pick in 0usize..64,
        tweak in 1u64..1_000_000,
    ) {
        let original = gen(seed, 24);
        let mut mutated = permute_storage(&original, tweak);
        let what = mutate_logic(&mut mutated, pick, tweak);
        prop_assert_ne!(
            canonical_text(&original), canonical_text(&mutated),
            "mutation was invisible: {}", what
        );
        prop_assert_ne!(map_key(&original), map_key(&mutated), "key unchanged: {}", what);
    }
}

/// `text` with its `.names`/`.latch` blocks in reverse order: the same
/// logic, read into another storage order.
fn reverse_blocks(text: &str) -> String {
    let mut head = String::new();
    let mut blocks: Vec<String> = Vec::new();
    let mut tail = String::new();
    for line in text.lines() {
        let line = format!("{line}\n");
        if line.starts_with(".names") || line.starts_with(".latch") {
            blocks.push(line);
        } else if line.starts_with(".end") || !tail.is_empty() {
            tail.push_str(&line);
        } else if let Some(block) = blocks.last_mut() {
            block.push_str(&line);
        } else {
            head.push_str(&line);
        }
    }
    blocks.reverse();
    head + &blocks.concat() + &tail
}

#[test]
fn a_warm_cache_does_not_decide_the_result() {
    let opts = FlowOptions::default();
    for name in ["add32", "alu8"] {
        let entry = suite_entry(name).expect("suite design");
        let text = blif::write(&(entry.build)()).expect("suite design writes as BLIF");
        let reversed = reverse_blocks(&text);
        let (a, b) = (blif::parse(&text).unwrap(), blif::parse(&reversed).unwrap());
        assert_eq!(canonical_text(&a), canonical_text(&b), "{name}: same logic");
        assert_ne!(
            a.cells[0].name, b.cells[0].name,
            "{name}: another storage order"
        );

        let cache = StageCache::new();
        run_blif_ctx(&text, &opts, FlowCtx::with_cache(&cache)).unwrap();
        let warm = run_blif_ctx(&reversed, &opts, FlowCtx::with_cache(&cache)).unwrap();
        let fresh = run_blif(&reversed, &opts).unwrap();
        assert!(
            warm.bitstream_bytes == fresh.bitstream_bytes,
            "{name}: the reversed text compiled to other bytes through a warm cache"
        );
    }
}

/// Not a property but a pin: the canonical form is byte-stable across
/// releases of this crate *by construction of the tests above*; the stage
/// key folds in FLOW_VERSION so a flow upgrade still invalidates caches.
#[test]
fn stage_key_folds_in_flow_version() {
    let n = gen(7, 12);
    let key = map_key(&n);
    assert_eq!(key.len(), 64, "SHA-256 hex");
    assert!(fpga_framework::flow::FLOW_VERSION.starts_with("ifdf-"));
}
