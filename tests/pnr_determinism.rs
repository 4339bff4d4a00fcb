//! Cross-thread-count determinism of the parallel place & route
//! engines — the property that lets `threads` stay outside the
//! stage-cache keys (see DESIGN.md, "Parallel deterministic place &
//! route").
//!
//! Randomized Rent's-rule netlists are pushed through the back end at
//! 1, 2, and 8 worker threads. The `Placement` and `RouteResult`
//! artifacts must come back byte-identical in their canonical store
//! encodings, and a full flow run at any thread count must *hit* every
//! stage-cache entry a serial run populated — a single differing byte
//! anywhere in the artifact chain would fork the downstream keys.

use fpga_framework::arch::device::Device;
use fpga_framework::arch::Architecture;
use fpga_framework::circuits::rent_logic;
use fpga_framework::flow::cache::STAGES;
use fpga_framework::flow::pipeline::run_netlist_ctx;
use fpga_framework::flow::{FlowCtx, FlowOptions, StageCache};
use fpga_framework::place::{
    placement_to_bytes, AnnealingPlacer, Parallelism, PlaceConfig, PlaceEngine,
};
use fpga_framework::route::{route_result_to_bytes, PathFinderRouter, RouteConfig, RouteEngine};
use fpga_framework::synth::{map_to_luts, MapOptions};
use proptest::prelude::*;

/// Place and route one Rent netlist at a given thread count; return the
/// canonical artifact bytes the durable store would hash.
fn pnr_bytes(luts: usize, seed: u64, threads: usize) -> (Vec<u8>, Vec<u8>) {
    let netlist = rent_logic(luts, 0.62, seed);
    let (mut mapped, _) = map_to_luts(&netlist, MapOptions::default()).expect("maps");
    fpga_framework::pack::prepare(&mut mapped).expect("prepares");
    let arch = Architecture::paper_default();
    let clustering = fpga_framework::pack::pack(&mapped, &arch.clb).expect("packs");
    let ios = mapped.inputs.len() + mapped.outputs.len() + 1;
    let device = Device::sized_for(arch, clustering.clusters.len(), ios);
    // serial() rather than default(): keep the test independent of any
    // FLOW_THREADS ambient in the environment (CI sets it on purpose).
    let par = Parallelism::serial().threads(threads);
    let placement = AnnealingPlacer::new(PlaceConfig::new().seed(1).parallelism(par))
        .place(&clustering, device)
        .expect("places");
    let (_, routed) = PathFinderRouter::new(RouteConfig::new().parallelism(par))
        .find_min_channel_width(&clustering, &placement, 96)
        .expect("routes");
    (
        placement_to_bytes(&placement),
        route_result_to_bytes(&routed),
    )
}

proptest! {
    // Each case is three full place-and-route runs; a handful of
    // random instances buys the coverage without minutes of wall clock.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pnr_artifacts_are_thread_count_invariant(
        luts in 24usize..64,
        seed in 1u64..500,
    ) {
        let (place_1, route_1) = pnr_bytes(luts, seed, 1);
        for threads in [2usize, 8] {
            let (place_n, route_n) = pnr_bytes(luts, seed, threads);
            prop_assert_eq!(
                &place_1, &place_n,
                "placement differs at {} threads (luts={}, seed={})", threads, luts, seed
            );
            prop_assert_eq!(
                &route_1, &route_n,
                "routing differs at {} threads (luts={}, seed={})", threads, luts, seed
            );
        }
    }
}

/// The cache-layer corollary on a full flow: a serial run populates the
/// cache, and re-runs at 2 and 8 threads hit every stage — identical
/// artifacts *and* identical keys, or the miss counters would move.
#[test]
fn stage_cache_keys_are_thread_count_invariant() {
    let cache = StageCache::new();
    for (i, threads) in [1usize, 2, 8].into_iter().enumerate() {
        let nl = rent_logic(40, 0.62, 11);
        let opts = FlowOptions::builder().threads(threads).build();
        run_netlist_ctx(nl, &opts, FlowCtx::with_cache(&cache)).expect("flow");
        for stage in STAGES {
            if stage == fpga_framework::flow::StageId::Synthesis {
                // A netlist entry point skips VHDL synthesis entirely.
                continue;
            }
            let s = cache.stats(stage);
            assert_eq!(
                (s.misses.get(), s.hits.get()),
                (1, i as u64),
                "{} at {} threads",
                stage.name(),
                threads
            );
        }
    }
}
