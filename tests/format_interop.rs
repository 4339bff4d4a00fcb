//! Integration: file-format interoperability between the tools, plus
//! property-based checks on the transformations' functional invariants.

use proptest::prelude::*;

use fpga_framework::circuits::{random_logic, RandomLogicParams};
use fpga_framework::netlist::sim::check_equivalence;
use fpga_framework::netlist::{blif, edif};
use fpga_framework::pack::clustering_to_bytes;
use fpga_framework::synth::{map_to_luts, MapOptions};

#[test]
fn blif_edif_blif_roundtrip_suite() {
    for netlist in fpga_framework::circuits::benchmark_suite() {
        let name = netlist.name.clone();
        // gates -> EDIF -> netlist -> BLIF -> netlist, equivalent throughout.
        let edif_text = edif::write(&netlist).unwrap_or_else(|e| panic!("{name}: {e}"));
        let from_edif = edif::parse(&edif_text).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_equivalence(&netlist, &from_edif, 48, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
        let blif_text = blif::write(&from_edif).unwrap();
        let from_blif = blif::parse(&blif_text).unwrap();
        check_equivalence(&netlist, &from_blif, 48, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn net_file_matches_clustering() {
    let nl = fpga_framework::circuits::ripple_adder(8);
    let (mut mapped, _) = map_to_luts(&nl, MapOptions::default()).unwrap();
    fpga_framework::pack::prepare(&mut mapped).unwrap();
    let c = fpga_framework::pack::pack(&mapped, &fpga_framework::arch::ClbArch::paper_default())
        .unwrap();
    let text = fpga_framework::pack::netformat::write_net(&c);
    let summary = fpga_framework::pack::netformat::summarize_net(&text);
    assert_eq!(summary.clbs, c.clusters.len());
    assert_eq!(summary.subblocks, c.bles.len());
    assert_eq!(summary.outputs, mapped.outputs.len());
}

#[test]
fn arch_text_and_json_agree() {
    let arch = fpga_framework::arch::Architecture::paper_default();
    let text = fpga_framework::arch::write_arch_text(&arch);
    let from_text = fpga_framework::arch::parse_arch_text(&text).unwrap();
    let from_json = fpga_framework::arch::Architecture::from_json(&arch.to_json()).unwrap();
    assert_eq!(from_text, from_json);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// LUT mapping preserves function for arbitrary generated circuits.
    #[test]
    fn mapping_preserves_function(seed in 0u64..5000, gates in 20usize..150) {
        let nl = random_logic(&RandomLogicParams {
            n_gates: gates,
            seed,
            ..Default::default()
        });
        let (mapped, report) = map_to_luts(&nl, MapOptions::default()).unwrap();
        prop_assert!(report.luts > 0 || nl.outputs.is_empty());
        check_equivalence(&nl, &mapped, 48, seed).map_err(|e| {
            TestCaseError::fail(format!("seed {seed}: {e}"))
        })?;
    }

    /// Packing any mapped circuit satisfies every architecture constraint,
    /// and its `.net` text parses back to the same clustering bytes.
    #[test]
    fn packing_is_always_legal(seed in 0u64..5000, gates in 20usize..120) {
        let nl = random_logic(&RandomLogicParams {
            n_gates: gates,
            seed,
            ff_fraction: 0.3,
            ..Default::default()
        });
        let (mut mapped, _) = map_to_luts(&nl, MapOptions::default()).unwrap();
        fpga_framework::pack::prepare(&mut mapped).unwrap();
        let arch = fpga_framework::arch::ClbArch::paper_default();
        let c = fpga_framework::pack::pack(&mapped, &arch).unwrap();
        fpga_framework::pack::validate(&c).map_err(|e| {
            TestCaseError::fail(format!("seed {seed}: {e}"))
        })?;
        // Every BLE output net is either a PO or consumed somewhere.
        prop_assert!(c.utilization() > 0.0);
        let text = fpga_framework::pack::netformat::write_net(&c);
        let back = fpga_framework::pack::netformat::parse_net(&text, &c.netlist, &arch)
            .map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
        prop_assert_eq!(clustering_to_bytes(&back), clustering_to_bytes(&c));
    }

    /// BLIF round-trips preserve function for generated circuits.
    #[test]
    fn blif_roundtrip_random(seed in 0u64..5000) {
        let nl = random_logic(&RandomLogicParams {
            n_gates: 60,
            seed,
            ..Default::default()
        });
        let text = blif::write(&nl).unwrap();
        let back = blif::parse(&text).unwrap();
        check_equivalence(&nl, &back, 32, seed).map_err(|e| {
            TestCaseError::fail(format!("seed {seed}: {e}"))
        })?;
    }

    /// SIS-style optimization never changes observable behaviour.
    #[test]
    fn optimization_preserves_function(seed in 0u64..5000) {
        let golden = random_logic(&RandomLogicParams {
            n_gates: 80,
            seed,
            ..Default::default()
        });
        let mut opt = golden.clone();
        opt.rebuild_index();
        fpga_framework::synth::opt::optimize(&mut opt).unwrap();
        opt.validate().unwrap();
        check_equivalence(&golden, &opt, 48, seed).map_err(|e| {
            TestCaseError::fail(format!("seed {seed}: {e}"))
        })?;
    }
}
