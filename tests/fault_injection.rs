//! Fault injection: mutate generated bitstreams and check that the
//! verification machinery actually catches the damage. A verifier that
//! passes everything is worse than none — these tests give it teeth.
//!
//! Every fault class runs through both checks: the fabric emulator
//! against the mapped netlist ([`fault_detected`]) and the bitstream
//! equivalence check, EQ002 ([`eq_verdict`]), whose verdict per class is
//! pinned.

use std::collections::BTreeMap;

use fpga_framework::bitstream::config::XbarSel;
use fpga_framework::bitstream::fabric::{verify_against_netlist, Fabric};
use fpga_framework::bitstream::Bitstream;
use fpga_framework::flow::EquivGate;
use fpga_framework::flow::{run_netlist, FlowArtifacts, FlowOptions};

fn flow_artifacts() -> FlowArtifacts {
    // A design with enough asymmetric logic (ALU muxes) that single-bit
    // faults are observable.
    let nl = fpga_framework::circuits::alu(4);
    run_netlist(nl, &FlowOptions::default()).expect("flow")
}

/// A design with registers, for the faults that only a flip-flop shows.
fn registered_artifacts() -> FlowArtifacts {
    let nl = fpga_framework::circuits::crc(8, 0x07);
    run_netlist(nl, &FlowOptions::default()).expect("flow")
}

/// The first used, registered BLE, as (CLB, slot).
fn registered_ble(bs: &Bitstream) -> (usize, usize) {
    (bs.clbs.iter().enumerate())
        .find_map(|(ci, clb)| {
            let slot = clb.bles.iter().position(|b| b.used && b.registered)?;
            Some((ci, slot))
        })
        .expect("a registered BLE")
}

/// Truth table with LUT input positions `a` and `b` exchanged.
fn permute_truth(truth: u64, a: usize, b: usize, k: usize) -> u64 {
    let mut out = 0u64;
    for m in 0..(1usize << k) {
        let ba = m >> a & 1;
        let bb = m >> b & 1;
        let swapped = (m & !(1 << a) & !(1 << b)) | (ba << b) | (bb << a);
        if truth >> swapped & 1 == 1 {
            out |= 1 << m;
        }
    }
    out
}

/// Re-verify a mutated bitstream; returns true when verification FAILS
/// (i.e. the fault was detected).
fn fault_detected(art: &FlowArtifacts, mutate: impl FnOnce(&mut Bitstream)) -> bool {
    let mut bs = art.bitstream.clone();
    mutate(&mut bs);
    let fabric = match Fabric::new(bs) {
        Ok(f) => f,
        // Structural contention (e.g. shorted drivers) is also detection.
        Err(_) => return true,
    };
    let mut fabric = fabric;
    verify_against_netlist(&mut fabric, &art.mapped, 64, 0xBEEF).is_err()
}

/// EQ002's verdict on a mutated bitstream: the rule code of the bitstream
/// check's finding (`EQ002` deny, `EQ003` warn), or `clean`.
fn eq_verdict(art: &FlowArtifacts, mutate: impl FnOnce(&mut Bitstream)) -> String {
    let mut bs = art.bitstream.clone();
    mutate(&mut bs);
    let gate = EquivGate::new(&art.rtl);
    let findings = gate.check_bitstream(&bs, &art.clustering, &art.placement);
    findings.first().map_or("clean".into(), |d| d.code.clone())
}

/// How many mutations of one class got each EQ verdict.
type Tally = BTreeMap<String, usize>;

fn tally(verdicts: &[(&str, usize)]) -> Tally {
    verdicts.iter().map(|&(v, n)| (v.to_string(), n)).collect()
}

#[test]
fn pristine_bitstream_verifies() {
    for art in [flow_artifacts(), registered_artifacts()] {
        assert!(
            !fault_detected(&art, |_| ()),
            "unmutated bitstream must pass"
        );
        assert_eq!(eq_verdict(&art, |_| ()), "clean");
    }
}

#[test]
fn flipped_lut_bit_is_caught() {
    let art = flow_artifacts();
    let mut caught = 0usize;
    let mut tried = 0usize;
    let mut eq = Tally::new();
    // Flip one truth bit in each used BLE; most flips must be observable.
    let n_clbs = art.bitstream.clbs.len();
    for ci in 0..n_clbs {
        for slot in 0..art.bitstream.clbs[ci].bles.len() {
            if !art.bitstream.clbs[ci].bles[slot].used {
                continue;
            }
            // Flip the all-zeros minterm: unused crossbar inputs read 0,
            // so m = 0 is always exercisable (other minterms may be
            // unreachable don't-cares, which real fabrics also have).
            let flip = |bs: &mut Bitstream| bs.clbs[ci].bles[slot].truth ^= 1;
            tried += 1;
            if fault_detected(&art, flip) {
                caught += 1;
            }
            *eq.entry(eq_verdict(&art, flip)).or_default() += 1;
        }
    }
    assert!(tried > 0);
    assert!(
        caught * 2 > tried,
        "most LUT-bit faults must be detected: {caught}/{tried}"
    );
    assert_eq!(eq, tally(&[("EQ002", 22)]));
}

#[test]
fn swapped_crossbar_select_is_caught() {
    let art = flow_artifacts();
    let mut caught = 0usize;
    let mut tried = 0usize;
    let mut eq = Tally::new();
    for ci in 0..art.bitstream.clbs.len() {
        for slot in 0..art.bitstream.clbs[ci].bles.len() {
            let ble = &art.bitstream.clbs[ci].bles[slot];
            if !ble.used {
                continue;
            }
            // Find two distinct connected selects to swap.
            let connected: Vec<usize> = ble
                .inputs
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s, XbarSel::Unused))
                .map(|(i, _)| i)
                .collect();
            if connected.len() < 2 {
                continue;
            }
            let (a, b) = (connected[0], connected[1]);
            let ble = &art.bitstream.clbs[ci].bles[slot];
            if ble.inputs[a] == ble.inputs[b] {
                continue;
            }
            // Skip swaps the LUT function is symmetric under (an XOR of
            // two inputs computes the same thing either way — real
            // don't-care configurations).
            let permuted = permute_truth(ble.truth, a, b, ble.inputs.len());
            if permuted == ble.truth {
                continue;
            }
            let swap = |bs: &mut Bitstream| bs.clbs[ci].bles[slot].inputs.swap(a, b);
            tried += 1;
            if fault_detected(&art, swap) {
                caught += 1;
            }
            *eq.entry(eq_verdict(&art, swap)).or_default() += 1;
        }
    }
    assert!(tried > 0);
    assert!(
        caught * 2 > tried,
        "most crossbar swaps must be detected: {caught}/{tried}"
    );
    assert_eq!(eq, tally(&[("EQ002", 5)]));
}

#[test]
fn dropped_routing_switch_is_caught() {
    let art = flow_artifacts();
    // Removing a used switch-box connection severs a net.
    let first = *art.bitstream.sb_switches.iter().next().expect("a switch");
    let drop = |bs: &mut Bitstream| {
        bs.sb_switches.remove(&first);
    };
    assert!(
        fault_detected(&art, drop),
        "a severed route must not verify"
    );
    assert_eq!(eq_verdict(&art, drop), "EQ002");
}

#[test]
fn unregistering_a_ff_is_caught() {
    let art = registered_artifacts();
    // Turn one registered BLE combinational: sequential behaviour changes.
    let (ci, slot) = registered_ble(&art.bitstream);
    let unregister = |bs: &mut Bitstream| bs.clbs[ci].bles[slot].registered = false;
    assert!(
        fault_detected(&art, unregister),
        "de-registered FF must not verify"
    );
    assert_eq!(eq_verdict(&art, unregister), "EQ002");
}

#[test]
fn shorted_nets_are_reported_as_contention() {
    let art = flow_artifacts();
    // Short two different electrical nets by closing an extra SB switch
    // between two driven tracks: Fabric::new must flag contention (or the
    // changed function must fail verification).
    let switches: Vec<_> = art.bitstream.sb_switches.iter().cloned().collect();
    assert!(switches.len() >= 2);
    let (a0, _) = switches[0];
    let (b0, _) = switches[switches.len() - 1];
    assert_ne!(a0, b0);
    let short = |bs: &mut Bitstream| {
        bs.sb_switches.insert((a0.min(b0), a0.max(b0)));
    };
    assert!(
        fault_detected(&art, short),
        "shorting two driven nets must be caught"
    );
    assert_eq!(eq_verdict(&art, short), "EQ002");
}

#[test]
fn stray_output_connection_onto_a_driven_wire_is_caught() {
    let art = flow_artifacts();
    // Connect a CLB's pin 0, an input pin, as an output onto a wire a
    // routed net's driver already drives: two pins drive one net, and
    // the stray one names no BLE.
    let loc = art.bitstream.clbs[0].loc;
    let &(_, wire) = art
        .bitstream
        .cb_outputs
        .iter()
        .next()
        .expect("a driven wire");
    let stray = |bs: &mut Bitstream| {
        bs.cb_outputs.insert(((loc.x, loc.y, 0), wire));
    };
    assert!(fault_detected(&art, stray), "two drivers must not verify");
    assert_eq!(eq_verdict(&art, stray), "EQ002");
}

#[test]
fn combinational_self_feedback_is_caught() {
    let art = flow_artifacts();
    // Switch LUT input 0 of each combinational BLE to its own output: a
    // configured loop the flow never writes.
    let mut tried = 0usize;
    let mut eq = Tally::new();
    for ci in 0..art.bitstream.clbs.len() {
        for slot in 0..art.bitstream.clbs[ci].bles.len() {
            let ble = &art.bitstream.clbs[ci].bles[slot];
            if !ble.used || ble.registered {
                continue;
            }
            let feedback = |bs: &mut Bitstream| {
                bs.clbs[ci].bles[slot].inputs[0] = XbarSel::Feedback(slot as u8)
            };
            tried += 1;
            assert!(
                fault_detected(&art, feedback),
                "self-feedback at CLB {ci} slot {slot} must not verify"
            );
            *eq.entry(eq_verdict(&art, feedback)).or_default() += 1;
        }
    }
    assert!(tried > 0);
    // Cut at its flip-flops the reference is acyclic, so a configured
    // loop is a deny at the bitstream, not an unknown.
    assert_eq!(eq, tally(&[("EQ002", 22)]));
}

#[test]
fn disabled_clb_clock_is_caught() {
    let art = registered_artifacts();
    let (ci, _) = registered_ble(&art.bitstream);
    assert!(art.bitstream.clbs[ci].clock_enable);
    let gate_off = |bs: &mut Bitstream| bs.clbs[ci].clock_enable = false;
    assert!(
        fault_detected(&art, gate_off),
        "a clock-gated-off cluster must not verify"
    );
    assert_eq!(eq_verdict(&art, gate_off), "EQ002");
}

/// Why `disabled_clb_clock_is_caught` is EQ002: the decode the bitstream
/// view reads carries the clock enables, so a cluster whose clock is
/// gated off is refused at the register boundary (its cut points go
/// missing) with no re-simulation at all.
#[test]
fn disabled_clb_clock_is_an_eq002_boundary_mismatch() {
    let art = registered_artifacts();
    let (ci, _) = registered_ble(&art.bitstream);
    let mut bs = art.bitstream.clone();
    bs.clbs[ci].clock_enable = false;
    let gate = EquivGate::new(&art.rtl);
    let findings = gate.check_bitstream(&bs, &art.clustering, &art.placement);
    assert!(
        findings
            .iter()
            .any(|d| d.code == "EQ002" && d.message.contains("missing")),
        "a clock-gated-off cluster must be an EQ002 boundary mismatch: {findings:?}"
    );
}
