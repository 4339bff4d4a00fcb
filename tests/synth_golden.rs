//! Byte-identity of synthesis against digests recorded from the commit
//! *before* `opt.rs` and `flowmap.rs` moved onto the netlist's own
//! indices (`a83aa00`).
//!
//! A mapped netlist is a cache value and the input of every packed,
//! placed and routed byte downstream, so "the same mapping" means the
//! same `netlist_to_bytes`: a warm `DiskStore` written by an older build
//! must still serve lut-map hits. Three families of cases:
//!
//! - every smoke-tier suite design plus `mult16`, `mult32` and `rent_2k`
//!   (`pack_golden`'s set), driven through `stages::lut_map` exactly as
//!   a compile drives it;
//! - `benchmark_suite()` mapped by `map_to_luts` at K = 2, 4 and 6;
//! - the VHDL sources through `diviner::synthesize`, where the
//!   synthesized netlist's canonical text is pinned as well: it is the
//!   output of `opt::optimize` (constant folding, buffer elision,
//!   structural hashing).

use fpga_framework::circuits::{
    benchmark_suite, qor_suite, vhdl_counter, vhdl_sequence_detector, SuiteTier,
};
use fpga_framework::flow::hash::Sha256;
use fpga_framework::flow::stages;
use fpga_framework::flow::{FlowCtx, FlowOptions};
use fpga_framework::netlist::codec::netlist_to_bytes;
use fpga_framework::netlist::{canonical_text, Netlist};
use fpga_framework::synth::{diviner, map_to_luts, MapOptions};

fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(bytes);
    h.finish().iter().map(|b| format!("{b:02x}")).collect()
}

/// Compare `name digest` lines; a mismatch prints the computed table.
fn check(got: String, golden: &str) {
    assert_eq!(
        got, golden,
        "synthesis bytes differ from the parent commit's"
    );
}

fn lut_map(rtl: Netlist) -> Netlist {
    let opts = FlowOptions::builder().verify_cycles(0).build();
    let mapped = stages::lut_map(&stages::adopt_rtl(rtl), &opts, FlowCtx::default()).expect("maps");
    (*mapped.value).clone()
}

#[test]
fn suite_mappings_match_parent() {
    let full = ["mult16", "mult32", "rent_2k"];
    let got = qor_suite()
        .into_iter()
        .filter(|e| e.tier == SuiteTier::Smoke || full.contains(&e.name))
        .map(|e| {
            let mapped = lut_map((e.build)());
            format!("{} {}\n", e.name, sha256_hex(&netlist_to_bytes(&mapped)))
        })
        .collect();
    check(got, GOLDEN_SUITE);
}

#[test]
fn benchmark_suite_mappings_match_parent_across_k() {
    let mut got = String::new();
    for k in [2usize, 4, 6] {
        for nl in &benchmark_suite() {
            let (mapped, _) = map_to_luts(nl, MapOptions { k, cut_limit: 10 }).expect("maps");
            let digest = sha256_hex(&netlist_to_bytes(&mapped));
            got.push_str(&format!("{} K={k} {digest}\n", nl.name));
        }
    }
    check(got, GOLDEN_BENCHMARK_SUITE);
}

#[test]
fn vhdl_syntheses_match_parent() {
    let sources = [
        ("counter3", vhdl_counter(3)),
        ("counter5", vhdl_counter(5)),
        ("counter8", vhdl_counter(8)),
        ("seqdet", vhdl_sequence_detector()),
        (
            "examples/counter.vhd",
            include_str!("../examples/counter.vhd").to_string(),
        ),
    ];
    let got = sources
        .iter()
        .map(|(name, src)| {
            let rtl = diviner::synthesize(src).expect("synthesizes");
            let text = sha256_hex(canonical_text(&rtl).as_bytes());
            let mapped = sha256_hex(&netlist_to_bytes(&lut_map(rtl)));
            format!("{name} {text} {mapped}\n")
        })
        .collect();
    check(got, GOLDEN_VHDL);
}

/// `name SHA-256(netlist_to_bytes)`, recorded at `a83aa00`.
const GOLDEN_SUITE: &str = "\
add32 cb9195b9cf76456fa3cc84cbf989deb0f50120caa27a9cdeb6b8e54119a472c4\n\
alu8 10eebe4dc52ac2ec45013470fe79c76225056ea18ea9d18f69bc1eeceef1da2b\n\
mult8 d2ef83784cf76fe57ac663b830db65b439e0359ec87cc5793c9084884fee3d0a\n\
crc16 5322c7b2d907dc0d2e2331b5adc34d01851806ab27a20eb54f354967b62f7467\n\
fsm_chain_4x8 a896e84e1ead9434b3a85182b2164e30720bb76a94753660f1b00c9597ac1400\n\
rent_500 7949e9d885a314179ef9e566dc987ab35cf74da3e936dea139512c0af9743d31\n\
rent_1k c042d422ad598afa29e8f5df730464a6b11b8f3e4ffb852e20c3c7b82e4081bb\n\
mult16 bb30a8b9b2041a056afe3c341ac8a47f2928b44f76e2a3202e2db05e3182c04d\n\
mult32 8baeecfd411cf04313b009493d0640d15213061329c66755584a381e4115f3e8\n\
rent_2k 1285d95313fcf52c95766956a8b0e18b266702f558a144e4ad0c0ede76a859b2\n\
";

/// `name K SHA-256(netlist_to_bytes)`, recorded at `a83aa00`.
const GOLDEN_BENCHMARK_SUITE: &str = "\
add8 K=2 96e56b2e2f776f7214561fe759a9b5a138886202820ce9ea3d654284cdcb5bc2\n\
alu4 K=2 5bc7ba08f8bd15050d0567783ed3f9a48e68fadc0e5f0e63bc668a2e3c13f5a0\n\
mult4 K=2 875043340ab264a089fa384682f961bbcd5bc64a258641628f516e31f42a5b03\n\
lfsr16 K=2 ddfae7ca1a86704cb5b7dc19973dc28d3d13c52e131047f36f7b12627afb7e44\n\
crc8 K=2 ed4e9a579479a100d9c236340d529c6028d257a88da8ec7c143d4a68d498d6b0\n\
fsm10 K=2 54c54121b245f6f9996f7d7f8b63cf1625754ede45bb8789c8123631eeb31fca\n\
rand120 K=2 725d07fba3402901774e31d57ac32f08a1c2982a878d4ca5cbcef2737afec1b6\n\
rand300 K=2 ce14bf279e80d322677ac9f13b47b8c91ca615969fd0be9a2b4e6fc575f3ee0e\n\
add8 K=4 d566b571994ad7d675516baa212bb19f6da563734b26df04d78c58eb70bd974e\n\
alu4 K=4 5dc4d5ae597b02595aa2b6ea47fbece573050973751150119108f7bdee45e615\n\
mult4 K=4 5d7d38f05706d287e1ab68266c4d99bad62435f538fba3bb9e70f20f59edbf5c\n\
lfsr16 K=4 ddfae7ca1a86704cb5b7dc19973dc28d3d13c52e131047f36f7b12627afb7e44\n\
crc8 K=4 0cf3e1268e91c5299a4e1b5452ac5df553ced82655cd0b611fc1234195aa3151\n\
fsm10 K=4 bce2e0a4ec8b3febd1c3a7c5b856b6338544188aede7be6540b1748de166f546\n\
rand120 K=4 4d63af9b743c426d0ce728b9fd6828a22d188952dd0610a72c7046e1690e0355\n\
rand300 K=4 02a439ed320480a8a9c14d80131824586dd1022c51f02daca4961c9fe621c172\n\
add8 K=6 4c7acb0739fd202127a00edf64c02d607552847148c618aaa0f77553e14a8639\n\
alu4 K=6 2d2ce18cff862f52d426be4d8afca64ef8e935efe97bd40dbc41d8b8681e6afa\n\
mult4 K=6 f25f4b15d523a5a78746767fce311943e0dac2b8f114b316065fc266167be503\n\
lfsr16 K=6 ddfae7ca1a86704cb5b7dc19973dc28d3d13c52e131047f36f7b12627afb7e44\n\
crc8 K=6 0cf3e1268e91c5299a4e1b5452ac5df553ced82655cd0b611fc1234195aa3151\n\
fsm10 K=6 bce2e0a4ec8b3febd1c3a7c5b856b6338544188aede7be6540b1748de166f546\n\
rand120 K=6 05f810b87bc0a6d4d59841351cbf62ff0da6b647a3d6d59a09f1b861e24ecc2f\n\
rand300 K=6 5935ea7756d225d4e88601c6be516fc2254346121a0dce08021c5eb61048ab03\n\
";

/// `name SHA-256(canonical_text) SHA-256(netlist_to_bytes of the
/// mapped netlist)`, recorded at `a83aa00`.
const GOLDEN_VHDL: &str = "\
counter3 f7f58c22bab22f1787b8aff4815958b5674e1f73b9535f89c209a25ef07d3c1a ce9ce118a5aa38939dd52125b2244f885cd04df8c864baa09a4651dfb383a873\n\
counter5 62c2bf1b6f238ee4a82256cdf78da4a18d16bc2d4781d95ff47226369cac7996 d3ed10f34e14e8d00b87631e5fb016525fc8b10c7b6a87207d59ad2bfb3eee2a\n\
counter8 ce654302c00937475370c61d999f898713a42f24dbc4f11c6e06137478def870 6b5b539a94149391d374cc2a77714b974c78f96177aa38b0adb8dfabcf678869\n\
seqdet 878c0b909e0b750106f61b858b3a1ba0910af4ba79f7dcf62556043e3a75552e 244d33239767ce70596afa0e341f0f2d78c441e3874682cadffa786a75e87b65\n\
examples/counter.vhd ce654302c00937475370c61d999f898713a42f24dbc4f11c6e06137478def870 6b5b539a94149391d374cc2a77714b974c78f96177aa38b0adb8dfabcf678869\n\
";
