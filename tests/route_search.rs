//! The router's search, pinned by what it produces and by what it
//! counts, against values recorded at `795d8da` — the commit before the
//! search's per-edge work was cut down (16-byte integer-keyed heap
//! entries, push-id staleness, the relaxation early-out, packed
//! per-node state; DESIGN.md "Router search fast path").
//!
//! `route_golden` pins jitter mode on `rent_1k` at W = 48, where it
//! converges in a few iterations. `mult16` at its benchmark width of 28
//! is jitter mode under real congestion: history cost, stagnation, the
//! polish sweeps and 9 iterations. The search totals (`heap_pops`,
//! `relaxations`, `pins_skipped`) are cached route-stage metrics, so an
//! exact speed-up must leave them where they were too.

use fpga_framework::circuits::suite_entry;
use fpga_framework::flow::hash::Sha256;
use fpga_framework::flow::stages;
use fpga_framework::flow::{FlowCtx, FlowOptions};
use fpga_framework::pack::Clustering;
use fpga_framework::place::Placement;
use fpga_framework::route::{
    route_result_to_bytes, PathFinderRouter, RouteEngine, RouteResult, RrGraph,
};
use std::sync::Arc;

fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finish().iter().map(|b| format!("{b:02x}")).collect()
}

/// Map, pack and place a suite design exactly as the benchmark's
/// compiles do (`place_effort` 1.0, place seed 1).
fn placed(name: &str) -> (Arc<Clustering>, Arc<Placement>) {
    let entry = suite_entry(name).expect("suite design exists");
    let opts = FlowOptions::builder()
        .place_effort(1.0)
        .verify_cycles(0)
        .build();
    let ctx = FlowCtx::default();
    let rtl = stages::adopt_rtl((entry.build)());
    let mapped = stages::lut_map(&rtl, &opts, ctx).expect("maps");
    let clustering = stages::pack(&mapped, &opts.arch, ctx).expect("packs");
    let placement = stages::place(&clustering, &opts, ctx).expect("places");
    (clustering.value, placement.value)
}

/// Route `name` at width `w`.
fn route_at(name: &str, w: usize) -> RouteResult {
    let (c, p) = placed(name);
    assert!(p.nets.len() > 512, "{name} must route in jitter mode");
    let g = RrGraph::build(&p.device, w);
    PathFinderRouter.route(&c, &p, &g).expect("routes")
}

fn totals(r: &RouteResult) -> (u64, u64, u64) {
    let s = r.search_totals();
    (s.heap_pops, s.relaxations, s.pins_skipped)
}

#[test]
fn mult16_under_congestion_matches_parent() {
    let r = route_at("mult16", 28);
    let digest = sha256_hex(&route_result_to_bytes(&r));
    assert_eq!((r.channel_width, digest.as_str()), GOLDEN_MULT16);
    assert_eq!(r.wirelength, 5001);
    assert_eq!(r.iterations, 9);
    assert_eq!(totals(&r), (863160, 4800701, 4730382));
}

#[test]
fn rent_1k_search_totals_match_parent() {
    let r = route_at("rent_1k", 48);
    assert_eq!(totals(&r), (8391114, 43163276, 42843172));
}

/// `(W, SHA-256 of route_result_to_bytes)` for `mult16` at its
/// benchmark width.
const GOLDEN_MULT16: (usize, &str) = (
    28,
    "bb36dfb3e94a0827f7bf308da7a4f2a391a9e6eda71a215042ba140b275c3123",
);
