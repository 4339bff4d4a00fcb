//! Cross-thread determinism of synthesis — the property the durable
//! cache's key scheme rests on.
//!
//! Downstream stage keys hash the *canonical text* of the synthesized
//! netlist (see `flow::stages::lut_map`), so elaboration must produce
//! byte-identical canonical text no matter which worker thread runs it,
//! in which daemon lifetime. A HashMap-ordered mux merge in the VHDL
//! elaborator used to break this: a restart that recomputed synthesis
//! (e.g. after a quarantined entry) would derive *different* downstream
//! keys and miss every surviving disk entry.

use fpga_framework::circuits::vhdl_counter;
use fpga_framework::flow::{stages, FlowCtx, FlowOptions};
use fpga_framework::netlist::canonical_text;
use fpga_framework::place::placement_to_bytes;
use fpga_framework::route::route_result_to_bytes;

/// Elaborate the same design on several threads (each thread gets its
/// own HashMap hasher seeds) and require identical canonical text.
#[test]
fn elaboration_canonical_text_is_thread_deterministic() {
    for bits in [3, 5, 8] {
        let src = vhdl_counter(bits);
        let texts: Vec<String> = (0..4)
            .map(|_| {
                let src = src.clone();
                std::thread::spawn(move || {
                    let design = fpga_framework::vhdl::parse(&src).expect("parse");
                    let nl = fpga_framework::vhdl::elaborate(&design).expect("elaborate");
                    canonical_text(&nl)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        for t in &texts[1..] {
            assert_eq!(t, &texts[0], "counter{bits}: elaboration differs by thread");
        }
    }
}

/// The cache-layer corollary: the front-end stage keys — what the
/// durable store files entries under — are identical across threads.
/// `lut_map`'s key hashes the synthesized netlist's canonical text, so
/// it is the first key a nondeterministic elaboration would break.
#[test]
fn stage_keys_are_thread_deterministic() {
    let src = vhdl_counter(4);
    let key_sets: Vec<Vec<String>> = (0..3)
        .map(|_| {
            let src = src.clone();
            std::thread::spawn(move || {
                let opts = FlowOptions::default();
                let ctx = FlowCtx::default();
                let rtl = stages::synthesize_vhdl(&src, ctx).expect("synthesis");
                let mapped = stages::lut_map(&rtl, &opts, ctx).expect("lut map");
                let packed = stages::pack(&mapped, &opts.arch, ctx).expect("pack");
                vec![rtl.key, mapped.key, packed.key]
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .collect();
    for ks in &key_sets[1..] {
        assert_eq!(ks, &key_sets[0], "stage keys differ by thread");
    }
}

/// The back end under the same lens: place and route the same design on
/// several worker threads (fresh `HashMap` hasher seeds each), and
/// require byte-identical artifacts.
/// The annealer and router both walk `HashMap`-backed structures
/// internally — any leak of iteration order into move selection, net
/// ordering, or cost accumulation shows up here as a differing byte.
#[test]
fn place_and_route_artifacts_are_thread_deterministic() {
    let src = vhdl_counter(5);
    let runs: Vec<(Vec<u8>, Vec<u8>)> = (0..4)
        .map(|_| {
            let src = src.clone();
            std::thread::spawn(move || {
                let opts = FlowOptions::default();
                let ctx = FlowCtx::default();
                let rtl = stages::synthesize_vhdl(&src, ctx).expect("synthesis");
                let mapped = stages::lut_map(&rtl, &opts, ctx).expect("lut map");
                let packed = stages::pack(&mapped, &opts.arch, ctx).expect("pack");
                let placed = stages::place(&packed, &opts, ctx).expect("place");
                let routed = stages::route(&packed, &placed, &opts, ctx).expect("route");
                (
                    placement_to_bytes(&placed.value),
                    route_result_to_bytes(&routed.value.routing),
                )
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .collect();
    for r in &runs[1..] {
        assert_eq!(r.0, runs[0].0, "placement differs by thread");
        assert_eq!(r.1, runs[0].1, "routing differs by thread");
    }
}
