//! Fault injection: mutate generated bitstreams and check that the
//! verification machinery actually catches the damage. A verifier that
//! passes everything is worse than none — these tests give it teeth.

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

#[test]
fn pristine_bitstream_verifies() {
    let art = flow_artifacts();
    assert!(
        !fault_detected(&art, |_| ()),
        "unmutated bitstream must pass"
    );
}

#[test]
fn flipped_lut_bit_is_caught() {
    let art = flow_artifacts();
    let mut caught = 0usize;
    let mut tried = 0usize;
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
            tried += 1;
            if fault_detected(&art, |bs| {
                bs.clbs[ci].bles[slot].truth ^= 1;
            }) {
                caught += 1;
            }
        }
    }
    assert!(tried > 0);
    assert!(
        caught * 2 > tried,
        "most LUT-bit faults must be detected: {caught}/{tried}"
    );
}

#[test]
fn swapped_crossbar_select_is_caught() {
    let art = flow_artifacts();
    let mut caught = 0usize;
    let mut tried = 0usize;
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
            tried += 1;
            if fault_detected(&art, |bs| {
                bs.clbs[ci].bles[slot].inputs.swap(a, b);
            }) {
                caught += 1;
            }
        }
    }
    if tried > 0 {
        assert!(
            caught * 2 > tried,
            "most crossbar swaps must be detected: {caught}/{tried}"
        );
    }
}

#[test]
fn dropped_routing_switch_is_caught() {
    let art = flow_artifacts();
    // Removing a used switch-box connection severs a net.
    let Some(&first) = art.bitstream.sb_switches.iter().next() else {
        return; // design routed with no SB switches (tiny grid)
    };
    assert!(
        fault_detected(&art, |bs| {
            bs.sb_switches.remove(&first);
        }),
        "a severed route must not verify"
    );
}

#[test]
fn unregistering_a_ff_is_caught() {
    let art = flow_artifacts();
    // Turn one registered BLE combinational: sequential behaviour changes.
    'outer: for ci in 0..art.bitstream.clbs.len() {
        for slot in 0..art.bitstream.clbs[ci].bles.len() {
            let ble = &art.bitstream.clbs[ci].bles[slot];
            if ble.used && ble.registered {
                assert!(
                    fault_detected(&art, |bs| {
                        bs.clbs[ci].bles[slot].registered = false;
                    }),
                    "de-registered FF must not verify"
                );
                break 'outer;
            }
        }
    }
}

#[test]
fn shorted_nets_are_reported_as_contention() {
    let art = flow_artifacts();
    // Short two different electrical nets by closing an extra SB switch
    // between two driven tracks: Fabric::new must flag contention (or the
    // changed function must fail verification).
    let switches: Vec<_> = art.bitstream.sb_switches.iter().cloned().collect();
    if switches.len() < 2 {
        return;
    }
    let (a0, _) = switches[0];
    let (b0, _) = switches[switches.len() - 1];
    if a0 == b0 {
        return;
    }
    assert!(
        fault_detected(&art, |bs| {
            bs.sb_switches
                .insert(if a0 < b0 { (a0, b0) } else { (b0, a0) });
        }),
        "shorting two driven nets must be caught"
    );
}

#[test]
fn combinational_self_feedback_is_caught() {
    let art = flow_artifacts();
    // Switch LUT input 0 of each combinational BLE to its own output: a
    // configured loop the flow never writes.
    let mut tried = 0usize;
    for ci in 0..art.bitstream.clbs.len() {
        for slot in 0..art.bitstream.clbs[ci].bles.len() {
            let ble = &art.bitstream.clbs[ci].bles[slot];
            if !ble.used || ble.registered {
                continue;
            }
            tried += 1;
            assert!(
                fault_detected(&art, |bs| {
                    bs.clbs[ci].bles[slot].inputs[0] = XbarSel::Feedback(slot as u8);
                }),
                "self-feedback at CLB {ci} slot {slot} must not verify"
            );
        }
    }
    assert!(tried > 0);
}

#[test]
fn disabled_clb_clock_is_caught() {
    let art = flow_artifacts();
    for ci in 0..art.bitstream.clbs.len() {
        if art.bitstream.clbs[ci].clock_enable
            && art.bitstream.clbs[ci]
                .bles
                .iter()
                .any(|b| b.used && b.registered)
        {
            assert!(
                fault_detected(&art, |bs| {
                    bs.clbs[ci].clock_enable = false;
                }),
                "a clock-gated-off cluster must not verify"
            );
            return;
        }
    }
}

/// The EQ002 twin of `disabled_clb_clock_is_caught`, on a design with
/// registers: the bitstream view reads the clock enables itself, so a
/// cluster whose clock is gated off is refused at the register boundary
/// with no re-simulation at all.
#[test]
fn disabled_clb_clock_is_an_eq002_boundary_mismatch() {
    let nl = fpga_framework::circuits::crc(8, 0x07);
    let art = run_netlist(nl, &FlowOptions::default()).expect("flow");
    let gate = EquivGate::new(&art.rtl);
    let check = |bs: &Bitstream| gate.check_bitstream(bs, &art.clustering, &art.placement);
    assert_eq!(
        check(&art.bitstream),
        Vec::new(),
        "the generated bitstream passes EQ002"
    );
    let ci = (art.bitstream.clbs.iter())
        .position(|clb| clb.clock_enable && clb.bles.iter().any(|b| b.used && b.registered))
        .expect("a cluster with registers");
    let mut bs = art.bitstream.clone();
    bs.clbs[ci].clock_enable = false;
    let findings = check(&bs);
    assert!(
        findings
            .iter()
            .any(|d| d.code == "EQ002" && d.message.contains("missing")),
        "a clock-gated-off cluster must be an EQ002 boundary mismatch: {findings:?}"
    );
}
