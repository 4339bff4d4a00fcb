//! Byte-identity of the packer's output against digests recorded from
//! the commit *before* `fpga_pack::pack` moved onto dense per-net state
//! (`67a1237`).
//!
//! A clustering is a cache value and the input of every placed, routed
//! and encoded byte downstream, so "the same packing" means the same
//! `clustering_to_bytes`: a warm `DiskStore` written by an older build
//! must still serve pack-stage hits. Two families of cases:
//!
//! - every smoke-tier suite design plus `mult16`, `mult32` and `rent_2k`,
//!   driven through `stages::lut_map` + `stages::pack` exactly as a
//!   compile drives them, at the paper architecture (K = 4, N = 5,
//!   I = 12);
//! - `benchmark_suite()` at four (K, N) points with I from Eq. (1),
//!   mapped and prepared the way the Eq. (1) and ablation binaries do.
//!
//! Each case also round-trips through the `.net` text: `parse_net` of
//! `write_net` must give the same bytes.

use fpga_framework::arch::{clb_inputs_eq1, ClbArch};
use fpga_framework::circuits::{benchmark_suite, qor_suite, SuiteTier};
use fpga_framework::flow::hash::Sha256;
use fpga_framework::flow::stages;
use fpga_framework::flow::{FlowCtx, FlowOptions};
use fpga_framework::pack::netformat::{parse_net, write_net};
use fpga_framework::pack::{clustering_to_bytes, Clustering};
use fpga_framework::synth::{map_to_luts, MapOptions};

fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finish().iter().map(|b| format!("{b:02x}")).collect()
}

/// Digest the clustering and check that its `.net` text parses back to
/// the same bytes.
fn digest(what: &str, c: &Clustering) -> String {
    let bytes = clustering_to_bytes(c);
    let back = parse_net(&write_net(c), &c.netlist, &c.arch)
        .unwrap_or_else(|e| panic!("{what}: .net does not parse back: {e}"));
    assert!(
        clustering_to_bytes(&back) == bytes,
        "{what}: .net round trip changed the clustering"
    );
    sha256_hex(&bytes)
}

/// Compare `name digest` lines; a mismatch prints the computed table.
fn check(cases: Vec<(String, Clustering)>, golden: &str) {
    let got: String = cases
        .iter()
        .map(|(name, c)| format!("{name} {}\n", digest(name, c)))
        .collect();
    assert_eq!(
        got, golden,
        "clustering bytes differ from the parent commit's"
    );
}

#[test]
fn suite_clusterings_match_parent() {
    let opts = FlowOptions::builder().verify_cycles(0).build();
    let ctx = FlowCtx::default();
    let full = ["mult16", "mult32", "rent_2k"];
    let cases = qor_suite()
        .into_iter()
        .filter(|e| e.tier == SuiteTier::Smoke || full.contains(&e.name))
        .map(|e| {
            let rtl = stages::adopt_rtl((e.build)());
            let mapped = stages::lut_map(&rtl, &opts, ctx).expect("maps");
            let packed = stages::pack(&mapped, &opts.arch, ctx).expect("packs");
            (e.name.to_string(), (*packed.value).clone())
        })
        .collect();
    check(cases, GOLDEN_SUITE);
}

#[test]
fn benchmark_suite_clusterings_match_parent_across_k_n() {
    let suite = benchmark_suite();
    let mut cases = Vec::new();
    for (k, n) in [(2usize, 5usize), (4, 1), (4, 10), (6, 5)] {
        let arch = ClbArch {
            lut_k: k,
            cluster_size: n,
            inputs: clb_inputs_eq1(k, n),
            outputs: n,
            clocks: 1,
            full_crossbar: true,
        };
        for nl in &suite {
            let (mut mapped, _) = map_to_luts(nl, MapOptions { k, cut_limit: 10 }).expect("maps");
            fpga_framework::pack::prepare(&mut mapped).expect("prepares");
            let c = fpga_framework::pack::pack(&mapped, &arch).expect("packs");
            cases.push((format!("{} K={k} N={n}", nl.name), c));
        }
    }
    check(cases, GOLDEN_BENCHMARK_SUITE);
}

/// `name SHA-256(clustering_to_bytes)`, recorded at `67a1237`.
const GOLDEN_SUITE: &str = "\
add32 3b587177d311f0e300934beb838277754fcd23c970ac53b010e3e9f6fb87bd20\n\
alu8 c9b160010cdf12c38c2cdc25c0bf81e1e70e448e78c9b71a60b664c6a1633c46\n\
mult8 122d469c89bd77115661d90a6b16bd5c166d45304bb5f738e293c2e048692983\n\
crc16 530b12a1f5c83edfeeea110ae5ae0197fe6f8dc68cee26669d9657614650d4a5\n\
fsm_chain_4x8 fcc4dfbf0bd6b7e0fbe306cfad20315f24f3d0dbb69f46a4ce68d478bcae4605\n\
rent_500 cc2ce95af6f9aa7e59176d2b18c3d39d1687dad90b6efa678003e13005ce2ccb\n\
rent_1k aff562046dd16f7c0d7aa47b5949ab63febb86eb440c17f46a21ecc0c9011b49\n\
mult16 198ab3feb8628303d7d4f4c6041192eb76c109d7ed7bb64a6ffae77db0ad8ca2\n\
mult32 8caf1318704251ca498d089587203b95e6722900b93ce3e2db429f7de6eeb402\n\
rent_2k 8b1c49c085af8d20b1e14eb72416885252c5d57852ec90c87a2df1c5c2a015c2\n\
";

/// `name SHA-256(clustering_to_bytes)`, recorded at `67a1237`.
const GOLDEN_BENCHMARK_SUITE: &str = "\
add8 K=2 N=5 e74c464e6ce5d058c6c3a71e8ae74a769e08d69648799d33c31925affe5e3e8e\n\
alu4 K=2 N=5 2b3511d477b9dd87d2fd3a2a36a000489a0a69e6a8d0743440d57eecc7b3f9a2\n\
mult4 K=2 N=5 d135f53787b84734bac507ea788efe92e2711f95688e929978a67b7657893891\n\
lfsr16 K=2 N=5 3e1088d343db76386421a0674bebdbd126d46011f9875d9fda3219265ca6f228\n\
crc8 K=2 N=5 ff425a85a9a24e301fdbace583c94f9f8d8f3966834fca6956f19791d11b213b\n\
fsm10 K=2 N=5 1342d0c6d581f4647e932625d401a344a222c5bcbd5d359fccfcac6cb4fbbc51\n\
rand120 K=2 N=5 77bd4591dd73703c8f7957b761157d08fcbc19cbe8eb61470f22b1e8cda331ad\n\
rand300 K=2 N=5 c7f537453f3a0319ae05e99b08caddeab585d00cd7df3e416df457e70543277f\n\
add8 K=4 N=1 2342a362ee307650c0bfd5d1f539425e18b62e69dba5cb6934acd148f3d0ceee\n\
alu4 K=4 N=1 4e509009c7536a5cd54d1fe138c088a35545e05de64b211716539424e978bd9c\n\
mult4 K=4 N=1 5ca76233dcbe0fff78687a3b049322fc739d40e790b0d4b00ff27cd7c02bae13\n\
lfsr16 K=4 N=1 4a4453e53f9c835bd27d960f7e988c98a993fd25e05e09e9eb6c979995faaaa7\n\
crc8 K=4 N=1 54b9d6adc2377765d8ab373ec66b85ebbd91f0dadb3a4fc6fdf9e32b4e89a4eb\n\
fsm10 K=4 N=1 9941bab7a4f3314b439625193a3d5e4eb991d4a6872c8f58750af7631d7fb771\n\
rand120 K=4 N=1 8917fc288f327a83eac6c9a7a3844ba06a9629f208363d36fc95e5984a2674f2\n\
rand300 K=4 N=1 286f3fb9ca4912f609f37ae07aea66ee45a1e508559afe19c210c52e624821fc\n\
add8 K=4 N=10 909c23beb216ba045edea04a6dba0eb7b5a61811192567b06def26c06211f6d1\n\
alu4 K=4 N=10 7fbd3d74d453518a2ed46cfa40c1716f68f75b2d7176c66b69e00150d8d166d2\n\
mult4 K=4 N=10 d74bf369ad9d1de3e95dfb06f156c39f2c0f97624b316966d96016c25b05d599\n\
lfsr16 K=4 N=10 445ad8aea571e70c52e97b1e72fd9949f27b8c35cff8f3422821e489aaec40cc\n\
crc8 K=4 N=10 b11630dbf479d8230e756ae00fa5885f40fc57ce70235d7b3f7075b2f0b6703f\n\
fsm10 K=4 N=10 149e2f20df11256c92f25e2fd5f1c9f0d373f5d64026051d123e6d51a61c7a75\n\
rand120 K=4 N=10 6a4b0d7f6e1fb1af2f0b0c0018b78290f53e6fcd90e99d2ccaf684b394247db9\n\
rand300 K=4 N=10 701dfff3e26e60af5568cc05297c1f189d4bfa62364271441700ddf07ef52368\n\
add8 K=6 N=5 1ccddbf7ebf9fc5400fbfb29570352d8d97649094a357c795722d49661900116\n\
alu4 K=6 N=5 8a9c279487dc1ea9a26e36b125dd49d3a3b8157124d4e6386c23a3610a85a8c3\n\
mult4 K=6 N=5 914e07a6e0f30d8d5aab847e70ae450398dcd089bb53c08635c457727189ca76\n\
lfsr16 K=6 N=5 5088aa0e1dc2a1dad23a78939e6305fb684c3eb23906317c8358050fc154c91e\n\
crc8 K=6 N=5 1060d06a755abc1ab6ed73394d9336ab57c1c9227b3c33d9d9d83e726a14da81\n\
fsm10 K=6 N=5 7cc2d67408c02c94fae21365202fb762b62ea1029e0819ed6fcc51e508e5c76b\n\
rand120 K=6 N=5 bf7a52b1664ac7ada2b785c319e63d448cfeee2d6696ccf5719af43e960b3786\n\
rand300 K=6 N=5 e1610357f69846b48439ffc0773d0fb5e53f68e27688d16030709c8a7aa8cef8\n\
";
