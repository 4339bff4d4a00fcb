//! Determinism of the cross-stage equivalence checker — the property
//! that lets `FlowOptions.verify` stay outside the stage-cache keys
//! (see DESIGN.md, "Cross-stage equivalence checking").
//!
//! The verifier's simulation signatures are pure functions of (view,
//! seed, batch count): they must not move with the place-and-route
//! thread count, and a warm-cache replay of the same flow must verify
//! the cached artifacts to the same signatures a cold run computed.
//! If either drifted, a verify-deny farm would flag cached jobs that
//! passed when first computed.

use fpga_framework::circuits::rent_logic;
use fpga_framework::flow::equiv::EquivGate;
use fpga_framework::flow::pipeline::run_netlist_ctx;
use fpga_framework::flow::{FlowCtx, FlowOptions, GateMode, StageCache};
use fpga_framework::verify::{signature_digest, CombView, DEFAULT_BATCHES, DEFAULT_SEED};
use proptest::prelude::*;

/// Signature digests of every stage view for one Rent netlist pushed
/// through the flow at a given thread count.
fn stage_digests(luts: usize, seed: u64, threads: usize) -> Vec<u64> {
    let nl = rent_logic(luts, 0.62, seed);
    let reference = CombView::from_netlist("rtl", &nl).expect("reference view");
    let opts = FlowOptions::builder()
        .threads(threads)
        .verify(GateMode::Deny)
        .build();
    let art = run_netlist_ctx(nl, &opts, FlowCtx::default()).expect("flow verifies");
    let mapped = CombView::from_netlist("mapped", &art.mapped).expect("mapped view");
    let packed = CombView::from_clustering(&art.clustering).expect("packed view");
    let placed = CombView::from_placement(&art.clustering, &art.placement).expect("placed view");
    let bits = CombView::from_bitstream(&art.bitstream, &art.clustering, &art.placement)
        .expect("bitstream view");
    [reference, mapped, packed, placed, bits]
        .iter()
        .map(|v| signature_digest(v, DEFAULT_SEED, DEFAULT_BATCHES))
        .collect()
}

proptest! {
    // Each case is three full verify-deny flows; a handful of random
    // instances buys the coverage without minutes of wall clock.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn signatures_are_thread_count_invariant(
        luts in 24usize..64,
        seed in 1u64..500,
    ) {
        let serial = stage_digests(luts, seed, 1);
        for threads in [2usize, 8] {
            let parallel = stage_digests(luts, seed, threads);
            prop_assert_eq!(
                &serial, &parallel,
                "signatures differ at {} threads (luts={}, seed={})", threads, luts, seed
            );
        }
    }
}

/// Warm-cache corollary: replaying the same verify-deny flow against a
/// shared stage cache re-verifies the *cached* artifacts — the gate
/// runs on every replay (verify never enters the cache keys, so hits
/// don't skip it) and must reach the same verdict and signatures.
#[test]
fn warm_cache_replays_verify_to_identical_signatures() {
    let cache = StageCache::new();
    let mut first: Option<Vec<u64>> = None;
    for _ in 0..3 {
        let nl = rent_logic(40, 0.62, 11);
        let gate = EquivGate::new(&nl);
        let opts = FlowOptions::builder().verify(GateMode::Deny).build();
        let art = run_netlist_ctx(nl, &opts, FlowCtx::with_cache(&cache)).expect("flow verifies");
        assert_gate_clean(&gate, &art);
        let digests: Vec<u64> = [
            CombView::from_netlist("mapped", &art.mapped).expect("mapped view"),
            CombView::from_clustering(&art.clustering).expect("packed view"),
            CombView::from_bitstream(&art.bitstream, &art.clustering, &art.placement)
                .expect("bitstream view"),
        ]
        .iter()
        .map(|v| signature_digest(v, DEFAULT_SEED, DEFAULT_BATCHES))
        .collect();
        match &first {
            None => first = Some(digests),
            Some(cold) => assert_eq!(cold, &digests, "warm replay drifted"),
        }
    }
}

/// The replayed artifacts must also pass the gate directly (not just
/// hash alike) — a digest collision would slip past `assert_eq!` but
/// not past a full cone-by-cone check.
fn assert_gate_clean(gate: &EquivGate, art: &fpga_framework::flow::FlowArtifacts) {
    let findings = gate.check_bitstream(&art.bitstream, &art.clustering, &art.placement);
    assert!(
        findings.is_empty(),
        "cached bitstream fails the gate: {findings:?}"
    );
}
