//! Byte-identity of the placer's output against digests recorded from
//! the commit *before* the annealer's move loop went to flat state
//! (PR 17, `ac7a107`).
//!
//! A placement is a cache value and the input of every routed byte
//! (`tests/route_golden.rs` sits downstream of it), so "the same
//! anneal" means the same bytes: a warm `DiskStore` written by an
//! older build must still serve place-stage hits. The four designs are
//! the ones whose placement the benchmark times (`mult16` and `mult24`
//! in `cold_mult`, `rent_1k` in `cold_rent`) plus `crc16`, small enough
//! to never leave the single whole-chip region. Each is driven through
//! `stages::place` exactly as the benchmark's compiles are
//! (`place_effort` 1.0, no fabric verify) at two place seeds; `crc16`
//! also through the engine at the seed the removed
//! `Parallelism::deterministic_seed` knob aliased.

use fpga_framework::arch::device::Device;
use fpga_framework::circuits::{multiplier, suite_entry};
use fpga_framework::flow::hash::Sha256;
use fpga_framework::flow::stages::{self, Staged};
use fpga_framework::flow::{FlowCtx, FlowOptions};
use fpga_framework::netlist::Netlist;
use fpga_framework::pack::Clustering;
use fpga_framework::place::{
    placement_to_bytes, AnnealingPlacer, PlaceConfig, PlaceEngine, Placement,
};

fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finish().iter().map(|b| format!("{b:02x}")).collect()
}

fn options(place_seed: u64) -> FlowOptions {
    FlowOptions::builder()
        .place_effort(1.0)
        .place_seed(place_seed)
        .verify_cycles(0)
        .build()
}

fn packed(rtl: Netlist) -> Staged<Clustering> {
    let opts = options(1);
    let ctx = FlowCtx::default();
    let mapped = stages::lut_map(&stages::adopt_rtl(rtl), &opts, ctx).expect("maps");
    stages::pack(&mapped, &opts.arch, ctx).expect("packs")
}

/// `(SHA-256 of placement_to_bytes, cost.to_bits())`.
type Golden = (&'static str, u64);

fn assert_golden(what: &str, p: &Placement, golden: Golden) {
    let digest = sha256_hex(&placement_to_bytes(p));
    assert_eq!(
        (digest.as_str(), p.cost.to_bits()),
        golden,
        "{what}: placement bytes differ from the parent commit's"
    );
}

/// Place at seeds 1 and 7 through the stage.
fn check(name: &str, rtl: Netlist, goldens: [Golden; 2]) {
    let clustering = packed(rtl);
    for (seed, golden) in [1u64, 7].into_iter().zip(goldens) {
        let p = stages::place(&clustering, &options(seed), FlowCtx::default()).expect("places");
        assert_golden(&format!("{name} seed {seed}"), &p.value, golden);
    }
}

fn suite(name: &str) -> Netlist {
    (suite_entry(name).expect("suite design exists").build)()
}

#[test]
fn mult16_placement_bytes_match_parent() {
    check("mult16", suite("mult16"), GOLDEN_MULT16);
}

#[test]
fn mult24_placement_bytes_match_parent() {
    check("mult24", multiplier(24), GOLDEN_MULT24);
}

#[test]
fn rent_1k_placement_bytes_match_parent() {
    check("rent_1k", suite("rent_1k"), GOLDEN_RENT_1K);
}

#[test]
fn crc16_placement_bytes_match_parent() {
    check("crc16", suite("crc16"), GOLDEN_CRC16);
}

/// `Parallelism::deterministic_seed` was a second name for the seed: the
/// per-region streams read `seed ^ deterministic_seed.rotate_left(17)`
/// and nothing else read either. The digest recorded with the knob at 99
/// is reached through the seed alone, on the engine with the device
/// sized as `stages::place` sizes it.
#[test]
fn crc16_deterministic_seed_bytes_match_parent() {
    let clustering = packed(suite("crc16")).value;
    let nl = &clustering.netlist;
    let opts = options(1);
    let device = Device::sized_for(
        opts.arch.clone(),
        clustering.clusters.len(),
        nl.inputs.len() + nl.outputs.len() + 1,
    );
    let cfg = PlaceConfig::new()
        .seed(opts.place_seed ^ 99u64.rotate_left(17))
        .inner_num(opts.place_effort);
    let p = AnnealingPlacer::new(cfg)
        .place(&clustering, device)
        .expect("places");
    assert_golden("crc16 seed 1 ^ 99.rotate_left(17)", &p, GOLDEN_CRC16_DET99);
}

/// Seeds 1 and 7 per design.
const GOLDEN_MULT16: [Golden; 2] = [
    (
        "4ff19896fdee1a7c11a4e1269054145272ad9b84a7cffdaafeba90767a3d337e",
        0x40ac14a94467381d,
    ),
    (
        "d9a7d0c38c5aad6b8cbdf86a76f41df358fbf4d6129ce2738f5afa04fadd2af1",
        0x40abf9d2474538f0,
    ),
];
const GOLDEN_MULT24: [Golden; 2] = [
    (
        "da336efd5324dd08d550af5288d865238d6cc5d6f5c360232bc5d7fa4fd31a9e",
        0x40c2583b09e98dcf,
    ),
    (
        "fce4bbb9697337dcd9e767ef4373f850bcff9183466f62b185f21778ae2cf8da",
        0x40c19fcd61911490,
    ),
];
const GOLDEN_RENT_1K: [Golden; 2] = [
    (
        "e049931f45aaaa150e2d6877e1b2fdc50b6930c7c516830d8403b6696c25f3c8",
        0x40c64491d14e3bcd,
    ),
    (
        "565bdff80fc143ad935249595bcf7e71111bcf940fe1be7ee96822877727aace",
        0x40c5fe5318fc504b,
    ),
];
const GOLDEN_CRC16: [Golden; 2] = [
    (
        "666db1e33b7374cc949c972f1abb634330fa414d3279c4f7a30f1d77fad72492",
        0x4044000000000000,
    ),
    (
        "43810776fddf456e03c3ab4307cf09d9476bf6efa77f2837919c09d4bacdcf20",
        0x4043800000000000,
    ),
];
/// Seed `1 ^ 99.rotate_left(17)` (recorded as seed 1, `deterministic_seed` 99).
const GOLDEN_CRC16_DET99: Golden = (
    "6b44d0484c7bec470a4a0143eb1d0e9998ba6becd161db6ee2b690926f6117d2",
    0x4044000000000000,
);
