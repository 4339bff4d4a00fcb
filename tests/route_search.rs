//! The router's search, pinned by what it produces and by what it
//! counts. The values were first recorded at `795d8da`, the commit
//! before the search's per-edge work was cut down (16-byte
//! integer-keyed heap entries, push-id staleness, the relaxation
//! early-out, packed per-node state; DESIGN.md "Router search fast
//! path"), and re-recorded when the router went serial (`ifdf-0.2.0+r1`,
//! DESIGN.md "Router: serial PathFinder").
//!
//! `route_golden` pins jitter mode on `rent_1k` at W = 48, where it
//! converges in a few iterations. `mult16` at its benchmark width of 28
//! is jitter mode under real congestion: history cost, the polish
//! sweeps and 7 iterations. The search totals (`heap_pops`,
//! `relaxations`, `pins_skipped`) are cached route-stage metrics, so an
//! exact speed-up must leave them where they were too.
//!
//! The last test pins what serial routing fixed: at the benchmark's
//! widths, a polish sweep never brings overuse back.

use fpga_framework::circuits::suite_entry;
use fpga_framework::flow::hash::Sha256;
use fpga_framework::flow::stages;
use fpga_framework::flow::{run_netlist, FlowCtx, FlowOptions};
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
    assert_eq!(r.wirelength, 4941);
    assert_eq!(r.iterations, 7);
    assert_eq!(totals(&r), (812236, 4533772, 4460733));
}

#[test]
fn rent_1k_search_totals_match_parent() {
    let r = route_at("rent_1k", 48);
    assert_eq!(totals(&r), (7878664, 40474496, 40184480));
}

/// `rent_1k` and `mult16` compiled as the benchmark compiles them, at
/// their pinned widths: once the routing is legal, every later iteration
/// (the polish sweeps) stays legal, and the route stage reports the
/// polished routing shipped. Under the blind 32-net batches the first
/// polish sweep brought back 25 and 6 overused nodes. (`mult24` at
/// W = 34 still brings back 1 on its first polish sweep, so it is not
/// here.)
#[test]
fn polish_sweeps_never_bring_overuse_back() {
    for (name, w, first_legal) in [("rent_1k", 32, 8), ("mult16", 28, 5)] {
        let entry = suite_entry(name).expect("suite design exists");
        assert_eq!(entry.channel_width, Some(w), "{name}'s pinned width");
        let opts = FlowOptions::builder()
            .place_effort(1.0)
            .verify_cycles(0)
            .channel_width(w)
            .build();
        let art = run_netlist((entry.build)(), &opts).expect("compiles");
        let overused: Vec<usize> = art.routing.stats.iter().map(|r| r.overused).collect();
        let first = art.routing.first_legal_iteration().expect("routes legally");
        assert!(
            overused[first..].iter().all(|&o| o == 0),
            "{name}: a polish sweep brought overuse back: {overused:?}"
        );
        assert_eq!(
            first, first_legal,
            "{name}: overused per iteration {overused:?}"
        );
        let route = art
            .report
            .stages
            .iter()
            .find(|s| s.stage.contains("routing"))
            .expect("routing stage present");
        let m = &route.metrics;
        assert_eq!(
            m["first_legal_iteration"].as_u64(),
            Some(first_legal as u64)
        );
        assert_eq!(
            m["polished"].as_bool(),
            Some(true),
            "{name}: fallback shipped"
        );
    }
}

/// `(W, SHA-256 of route_result_to_bytes)` for `mult16` at its
/// benchmark width, recorded at `ifdf-0.2.0+r1`.
const GOLDEN_MULT16: (usize, &str) = (
    28,
    "c6614ed59dead048b85ee429ee42cb9357c32bb1d5697de71ba15e1fe9f7515d",
);
