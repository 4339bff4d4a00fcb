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

use fpga_framework::bitstream::config::IoMode;
use fpga_framework::circuits::{qor_suite, rent_logic, SuiteTier};
use fpga_framework::flow::equiv::EquivGate;
use fpga_framework::flow::hash::Sha256;
use fpga_framework::flow::pipeline::run_netlist_ctx;
use fpga_framework::flow::{FlowCtx, FlowOptions, GateMode, StageCache};
use fpga_framework::netlist::codec::netlist_to_bytes;
use fpga_framework::netlist::{CellKind, Netlist};
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

fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finish().iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 of a view's netlist bytes followed by its cut and observable
/// lists, one `name net` line each.
fn view_digest(v: &CombView) -> String {
    let mut bytes = netlist_to_bytes(&v.netlist);
    for (name, net) in v.cuts.iter().chain(&v.observables) {
        bytes.extend_from_slice(format!("{name} {}\n", net.0).as_bytes());
    }
    sha256_hex(&bytes)
}

/// The routed and bitstream-decoded views of every smoke-tier design are
/// byte-identical to the views the commit *before* `view.rs` moved onto
/// dense tables (`a83aa00`) built: same nets in the same order, same
/// cells, same cut and observable names.
#[test]
fn routed_and_bitstream_views_match_parent() {
    let mut got = String::new();
    for e in qor_suite()
        .into_iter()
        .filter(|e| e.tier == SuiteTier::Smoke)
    {
        let opts = FlowOptions::builder()
            .channel_width(e.channel_width.unwrap_or(20))
            .verify_cycles(0)
            .threads(1)
            .build();
        let art = run_netlist_ctx((e.build)(), &opts, FlowCtx::default()).expect("flow runs");
        let routed =
            CombView::from_routing(&art.clustering, &art.placement, &art.graph, &art.routing)
                .expect("routed view");
        let bits = CombView::from_bitstream(&art.bitstream, &art.clustering, &art.placement)
            .expect("bitstream view");
        got.push_str(&format!(
            "{} {} {}\n",
            e.name,
            view_digest(&routed),
            view_digest(&bits)
        ));
    }
    assert_eq!(
        got, GOLDEN_VIEWS,
        "view bytes differ from the parent commit's"
    );
}

/// `name SHA-256(routed view) SHA-256(bitstream view)`, recorded at
/// `a83aa00`.
const GOLDEN_VIEWS: &str = "\
add32 799a0d9d6d672078b7a5bd779eefd7fd8a75b8004f772f3471ecf67902ed4055 6c2ceb58e71bcd238963e0997c3913bbe411702dcadd58ad1b9d609ad25d9293\n\
alu8 b9cfdf3b7b4d4c6e06770fb2212533029406ecd434fe9fac2f2f11c45bd791ac b9f82431f10a1aeff2275b68b1f9bd39ab2148b27e36a71a4541c6f92a6fd4c6\n\
mult8 208c7bdf5b4fdc8df1053b8c5c7b3934bb45db172230f4330fbfe78df58686b8 02433934508532c79c45d6137d82cbef24c7a04b70ee72cfbd826ac8f8d10485\n\
crc16 32df62572807c4069101562e8c690be4085f3dca5b7c43797c4043390abd1eb2 84ea76397872a321855f9dd87d0593169f4011c11404909318ba11f651604b6f\n\
fsm_chain_4x8 9fd3abcefa68594b1c58d46e5c9b9004b63f38da25a4a598e53edec0d4b4d435 6859bc67c5419ba8434f0163555b9eba9427efb4bf2619696f67e0b93b57416c\n\
rent_500 7b40b917fd3a05a360c0e927b5924c5529bb830d071a0bc9ed35e5423f2aa599 5684e46e0cef5614568d6b2c29d4eee85e36974b1f07a7dc92cbacb309d38aaa\n\
rent_1k 7a07643e8ddf0c9c545fc6346e31f844ceaacfcd762b43d1324b13a1c2705ed3 0c626803f8ac96944365a27b82a05c4a0954ec3365a5fa7a59e190135cbb0479\n\
";

/// Shorting the wires two input pads drive is named by the two pad
/// symbols, in the order the view interns the pins (the lower output
/// connection first), with the same text every run.
#[test]
fn bitstream_view_names_shorted_drivers() {
    let mut nl = Netlist::new("short");
    let a = nl.net("a");
    let b = nl.net("b");
    let y = nl.net("y");
    nl.add_input(a);
    nl.add_input(b);
    nl.add_output(y);
    nl.add_cell("g", CellKind::Xor, vec![a, b], y);
    let opts = FlowOptions::builder()
        .channel_width(8)
        .verify_cycles(0)
        .threads(1)
        .build();
    let art = run_netlist_ctx(nl, &opts, FlowCtx::default()).expect("flow runs");
    let mut bs = art.bitstream.clone();
    let wire_of = |sym: &str| {
        let io = bs
            .ios
            .iter()
            .find(|io| io.mode == IoMode::Input && io.net == sym)
            .expect("input pad");
        bs.cb_outputs
            .iter()
            .find(|((x, y, pin), _)| (*x, *y, *pin) == (io.loc.x, io.loc.y, io.sub))
            .map(|&(_, w)| w)
            .expect("pad drives a wire")
    };
    let (wa, wb) = (wire_of("a"), wire_of("b"));
    bs.sb_switches.insert((wa, wb));
    let err = CombView::from_bitstream(&bs, &art.clustering, &art.placement)
        .err()
        .expect("a short is refused");
    assert_eq!(err.to_string(), CONTENTION);
}

/// Recorded at `a83aa00`.
const CONTENTION: &str = "boundary mismatch: electrical contention: 'b' and 'a' drive one net";
