//! Bit-identity of the switching activity that feeds the power stage.
//!
//! `power_mw` is a cached stage metric and a benchmark QoR field, and
//! every per-net density enters it. These digests (FNV-1a over each
//! density's IEEE-754 bits, in net order) were recorded with the scalar
//! per-cell simulator the compiled tape replaced, so a drift of one bit
//! in any net's density fails here rather than as a small `power_mw`
//! move. 130 cycles covers a partial 64-cycle block.

use fpga_framework::circuits::{multiplier, rent_logic};
use fpga_framework::netlist::mix::{fnv1a, FNV_OFFSET};
use fpga_framework::netlist::sim::activity_estimate;
use fpga_framework::synth::{map_to_luts, MapOptions};

#[test]
fn densities_keep_their_recorded_bits() {
    let cases = [
        (
            "rent_500",
            rent_logic(500, 0.62, 17),
            1000,
            0xfce50cb0d4422788,
        ),
        (
            "rent_500",
            rent_logic(500, 0.62, 17),
            130,
            0x0da764b6238cd847,
        ),
        ("mult8", multiplier(8), 1000, 0xed631f0e3c5b7a96),
        ("mult8", multiplier(8), 130, 0x00c3778ce5ad72a3),
    ];
    for (name, rtl, cycles, want) in cases {
        let mapped = map_to_luts(&rtl, MapOptions::default()).unwrap().0;
        let density = activity_estimate(&mapped, cycles, 42).unwrap();
        let got = (density.iter()).fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_bits().to_le_bytes()));
        assert_eq!(got, want, "{name} at {cycles} cycles: {got:#018x}");
    }
}
