//! Byte-identity of the router's output against digests recorded from
//! the commit *before* the search fast path landed (PR 11, `e7f914a`).
//!
//! RR node ids are heap tie-breakers and are written into route
//! artifacts, so "the same trees" means the same bytes: a warm
//! `DiskStore` written by an older build must still serve route-stage
//! hits. Classic mode (<= 512 nets, no jitter, ties resolved by pop
//! order) is covered through the min-W search on the five `minw_small`
//! designs (`mult8` and `fsm_chain_4x8` recorded at PR 21); jitter mode
//! through `rent_1k`, the smallest suite design with more than 512
//! routable nets, at a comfortable pinned width. The widths the search
//! still routes are pinned beside them.
//!
//! The second half is a proptest over random fabrics that pins the
//! graph facts the fast path rests on: `find` inverts `kind`, no
//! duplicate successors, symmetric track-preserving wire edges, and
//! pins that are pure sources (`Opin`) or pure dead ends (`Ipin`).

use fpga_framework::arch::device::Device;
use fpga_framework::arch::Architecture;
use fpga_framework::circuits::suite_entry;
use fpga_framework::flow::hash::Sha256;
use fpga_framework::flow::stages;
use fpga_framework::flow::{FlowCtx, FlowOptions};
use fpga_framework::pack::Clustering;
use fpga_framework::place::Placement;
use fpga_framework::route::timing::TimingModel;
use fpga_framework::route::{
    analyze_paths, route_result_to_bytes, LogicDelays, PathFinderRouter, RouteEngine, RouteError,
    RouteResult, RrGraph, RrKind, RrNodeId,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::sync::Arc;

type Result<T> = std::result::Result<T, RouteError>;

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

/// Compare `(channel width, SHA-256 of route_result_to_bytes)` with the
/// recorded pair.
fn check(name: &str, golden: (usize, &str), r: &RouteResult) {
    let digest = sha256_hex(&route_result_to_bytes(r));
    assert_eq!(
        (r.channel_width, digest.as_str()),
        golden,
        "{name}: route bytes differ from the parent commit's"
    );
}

fn check_min_width(name: &str, golden: (usize, &str)) {
    let (c, p) = placed(name);
    assert!(p.nets.len() <= 512, "{name} must route in classic mode");
    let (_, r) = PathFinderRouter
        .find_min_channel_width(&c, &p, 128)
        .expect("routes");
    check(name, golden, &r);
}

#[test]
fn add32_min_width_bytes_match_parent() {
    check_min_width("add32", GOLDEN_ADD32);
}

#[test]
fn alu8_min_width_bytes_match_parent() {
    check_min_width("alu8", GOLDEN_ALU8);
}

#[test]
fn crc16_min_width_bytes_match_parent() {
    check_min_width("crc16", GOLDEN_CRC16);
}

#[test]
fn mult8_min_width_bytes_match_parent() {
    check_min_width("mult8", GOLDEN_MULT8);
}

#[test]
fn fsm_chain_4x8_min_width_bytes_match_parent() {
    check_min_width("fsm_chain_4x8", GOLDEN_FSM_CHAIN_4X8);
}

/// Records the width of every probe the min-W search routes.
struct Counting<E> {
    inner: E,
    widths: RefCell<Vec<usize>>,
}

impl<E: RouteEngine> RouteEngine for Counting<E> {
    fn route(&self, c: &Clustering, p: &Placement, g: &RrGraph) -> Result<RouteResult> {
        self.widths.borrow_mut().push(g.channel_width());
        self.inner.route(c, p, g)
    }
}

/// The widths `minw_small`'s designs still route. Below the channel
/// demand nothing is routed (`add32`'s 3 and 5), and a width that failed
/// is not routed again (`mult8`'s 12, met first while doubling and
/// again as the bisection's first midpoint).
#[test]
fn min_width_search_routes_only_the_probes_it_must() {
    for (name, expected) in [
        ("add32", &[12, 6][..]),
        ("alu8", &[12, 9, 8]),
        ("mult8", &[12, 24, 18, 15, 14, 13]),
        ("crc16", &[12, 6]),
        ("fsm_chain_4x8", &[12, 6, 9, 8, 7]),
    ] {
        let (c, p) = placed(name);
        let engine = Counting {
            inner: PathFinderRouter,
            widths: RefCell::new(Vec::new()),
        };
        let (_, r) = engine.find_min_channel_width(&c, &p, 128).expect("routes");
        let routed = engine.widths.into_inner();
        assert_eq!(routed, expected, "{name}: widths routed ({:?})", r.probes);
        let listed: Vec<usize> = r
            .probes
            .iter()
            .filter(|(_, p)| p.routed())
            .map(|&(w, _)| w)
            .collect();
        assert_eq!(
            listed, routed,
            "{name}: `probes` names exactly the widths routed"
        );
    }
}

#[test]
fn rent_1k_jitter_mode_bytes_match_parent() {
    let (c, p) = placed("rent_1k");
    assert!(p.nets.len() > 512, "rent_1k must route in jitter mode");
    let g = RrGraph::build(&p.device, GOLDEN_RENT_1K.0);
    let r = PathFinderRouter.route(&c, &p, &g).expect("routes");
    check("rent_1k", GOLDEN_RENT_1K, &r);
}

/// `(min W, digest)` per classic-mode design.
const GOLDEN_ADD32: (usize, &str) = (
    6,
    "5f2577d2ff8e84ab090577a4556769c4f32d6b571512baa4f4be80873d5f1b8d",
);
const GOLDEN_ALU8: (usize, &str) = (
    9,
    "bbf69b639264936a3c88d3ca7c2dc85ad0fb3f6d3fc73d58849a30377e2c9b5a",
);
const GOLDEN_CRC16: (usize, &str) = (
    6,
    "d4d6dc7d680bf1fba5984062309683496c1d26913d9eb60e3d0781f8bb9cdd70",
);
/// Recorded at PR 21 (`6820305`), before the min-W search skipped
/// probes: `mult8` fails W = 12 while doubling and meets it again as the
/// bisection's first midpoint; `fsm_chain_4x8`'s search skips nothing.
const GOLDEN_MULT8: (usize, &str) = (
    13,
    "e37e0ca4cfa554d6ba717e2d94f670a56478090cd5f39ad4dff684c498d5f5b1",
);
const GOLDEN_FSM_CHAIN_4X8: (usize, &str) = (
    7,
    "2a77db1cc08eb60b64c88a2274478bfb964f1691937f216d0a340f843394d93b",
);
/// Jitter mode at W = 48, well above `rent_1k`'s pinned 32: converges in
/// a few iterations, so the case stays affordable in a debug build.
const GOLDEN_RENT_1K: (usize, &str) = (
    48,
    "9c5002234ce0e998a91d859ebef68247285823ffcef4a7203db9e50721574899",
);

/// Static timing of a routed suite design at its pinned width, or at the
/// width the min-W search finds: the bits of `critical_delay` and the
/// SHA-256 of the critical path's net ids (`u32` little-endian, source
/// first), recorded at `f434944`, before STA moved to dense arrays.
#[test]
fn sta_critical_path_matches_parent() {
    for (name, golden_delay, golden_path) in GOLDEN_STA {
        let (c, p) = placed(name);
        let (g, r) = match suite_entry(name).and_then(|e| e.channel_width) {
            Some(w) => {
                let g = RrGraph::build(&p.device, w);
                let r = PathFinderRouter.route(&c, &p, &g).expect("routes");
                (g, r)
            }
            None => {
                let (w, r) = PathFinderRouter
                    .find_min_channel_width(&c, &p, 128)
                    .expect("routes");
                (RrGraph::build(&p.device, w), r)
            }
        };
        let sta = analyze_paths(
            &c,
            &p,
            &r,
            &g,
            &TimingModel::default(),
            &LogicDelays::default(),
        );
        let path: Vec<u8> = sta
            .critical_path
            .iter()
            .flat_map(|n| n.0.to_le_bytes())
            .collect();
        assert_eq!(
            (sta.critical_delay.to_bits(), sha256_hex(&path).as_str()),
            (golden_delay, golden_path),
            "{name}: critical delay {:.6e} s over {} nets",
            sta.critical_delay,
            sta.critical_path.len()
        );
    }
}

/// `(design, critical_delay bits, critical-path digest)`.
const GOLDEN_STA: [(&str, u64, &str); 5] = [
    (
        "add32",
        0x3e59830b49b4a18d,
        "71ecd3dcffc6b2ebe1a87f02e76a6629768578d4dc1c24bb2eb663d2fb2c8cc5",
    ),
    (
        "mult16",
        0x3e6ed9f33840ea9d,
        "818221bb1e2a564b7f7f335aff19a9a002b4e2f8bf18f1b4d994ce156a8a2141",
    ),
    (
        "crc16",
        0x3e14a2461546ea59,
        "7c87e0ace4b12ff2dd3f2aa8f84abbd43a2180eba90adce3b720adab22be68a8",
    ),
    (
        "rent_1k",
        0x3e72b0ffbf4b2101,
        "37081e203ad0a662e7be401ea4d1d5248bdf995d95c5fb84b0f57e3645f84380",
    ),
    (
        "fsm_chain_4x8",
        0x3e197e0a93a7187f,
        "fd35fcede3c7bcb1220806bc9468d6edd52898b59eeac7f06bd390a3f1ae1b5c",
    ),
];

fn wire_track(kind: RrKind) -> Option<u32> {
    match kind {
        RrKind::Chanx { t, .. } | RrKind::Chany { t, .. } => Some(t),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn rr_graph_structure_holds_on_random_fabrics(
        w in 1usize..6,
        h in 1usize..6,
        cw in 1usize..9,
    ) {
        let device = Device::new(Architecture::paper_default(), w, h);
        let g = RrGraph::build(&device, cw);
        let n = g.node_count();
        let ids = || (0..n as u32).map(RrNodeId);
        let mut has_pred = vec![false; n];
        for id in ids() {
            let kind = g.kind(id);
            prop_assert_eq!(g.find(kind), Some(id), "find(kind(id)) for {:?}", kind);
            let succs = g.successors(id);
            let mut sorted: Vec<RrNodeId> = succs.to_vec();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), succs.len(), "{:?} lists a successor twice", kind);
            for &s in succs {
                has_pred[s.0 as usize] = true;
                let sk = g.kind(s);
                match (wire_track(kind), wire_track(sk)) {
                    (Some(t), Some(t2)) => {
                        prop_assert_eq!(t, t2, "switch box changed track: {:?} -> {:?}", kind, sk);
                        prop_assert!(
                            g.successors(s).contains(&id),
                            "wire edge {:?} -> {:?} has no reverse", kind, sk
                        );
                    }
                    (Some(_), None) => prop_assert!(
                        matches!(sk, RrKind::Ipin { .. }), "wire drives {:?}", sk
                    ),
                    (None, Some(_)) => prop_assert!(
                        matches!(kind, RrKind::Opin { .. }), "{:?} drives a wire", kind
                    ),
                    (None, None) => prop_assert!(false, "pin-to-pin edge {:?} -> {:?}", kind, sk),
                }
            }
            if matches!(kind, RrKind::Ipin { .. }) {
                prop_assert!(succs.is_empty(), "{:?} has successors", kind);
            }
        }
        for id in ids() {
            if matches!(g.kind(id), RrKind::Opin { .. }) {
                prop_assert!(!has_pred[id.0 as usize], "{:?} has a predecessor", g.kind(id));
            }
        }
        // Out-of-range kinds are absent, on every axis.
        let (w, h, cw) = (w as u32, h as u32, cw as u32);
        for kind in [
            RrKind::Chanx { x: 0, y: 0, t: 0 },
            RrKind::Chanx { x: w + 1, y: 0, t: 0 },
            RrKind::Chanx { x: 1, y: h + 1, t: 0 },
            RrKind::Chanx { x: 1, y: 0, t: cw },
            RrKind::Chany { x: 0, y: 0, t: 0 },
            RrKind::Chany { x: w + 1, y: 1, t: 0 },
            RrKind::Chany { x: 0, y: h + 1, t: 0 },
            RrKind::Chany { x: 0, y: 1, t: cw },
            RrKind::Ipin { x: 1, y: 1, pin: 1_000 },
            RrKind::Opin { x: 1, y: 1, pin: 0 },
            RrKind::Opin { x: 1, y: 1, pin: 1_000 },
            RrKind::Ipin { x: 0, y: 0, pin: 0 },
            RrKind::Opin { x: w + 1, y: h + 1, pin: 0 },
            RrKind::Ipin { x: w + 2, y: 1, pin: 0 },
            RrKind::Opin { x: 0, y: 1, pin: 1_000 },
        ] {
            prop_assert_eq!(g.find(kind), None, "{:?} should be out of range", kind);
        }
    }
}
