//! `equiv-fault` — seeded fault-injection harness for the cross-stage
//! equivalence checker (the falsifiability leg of `scripts/check.sh`).
//!
//! ```text
//! equiv-fault --seed N            # corrupt one LUT truth bit, expect EQ001
//! equiv-fault --seed N --clean    # no corruption, expect zero findings
//! ```
//!
//! The corrupt leg maps a seeded Rent's-rule netlist to LUTs, flips one
//! truth-table bit of a live LUT mid-flow (exactly the class of defect a
//! buggy mapper or bitstream writer would introduce), and demands that
//! the [`fpga_flow::EquivGate`] catches it as an EQ001 deny whose
//! counterexample, replayed through the reference simulator
//! (`fpga_netlist::sim`), reproduces the divergence bit-for-bit. Exit 0
//! means the gate both caught the fault and proved its evidence; any
//! other path exits 1 with a diagnosis on stderr.

use fpga_flow::cli;
use fpga_flow::EquivGate;
use fpga_netlist::mix::{xorshift64, XORSHIFT_STAR};
use fpga_netlist::sim::Simulator;
use fpga_netlist::{CellKind, NetId, Netlist};
use fpga_verify::Counterexample;

/// Cut a netlist at its register boundary the same way the verifier
/// does: drop every DFF and promote its Q net to a primary input, so
/// the reference simulator can drive the counterexample's cut
/// assignment directly.
fn dff_cut(nl: &Netlist) -> Netlist {
    let mut cut = nl.clone();
    let mut qs: Vec<NetId> = Vec::new();
    cut.cells.retain(|c| {
        if matches!(c.kind, CellKind::Dff { .. }) {
            qs.push(c.output);
            false
        } else {
            true
        }
    });
    for q in qs {
        if !cut.inputs.contains(&q) {
            cut.inputs.push(q);
        }
    }
    cut
}

/// Resolve an observable (`po:<net>` or `ff:<q net>`) to the net the
/// simulator should read: the output net itself, or the cut FF's D net.
fn observable_net(nl: &Netlist, observable: &str) -> Result<NetId, String> {
    if let Some(name) = observable.strip_prefix("po:") {
        return nl
            .find_net(name)
            .ok_or_else(|| format!("no output net '{name}'"));
    }
    if let Some(qname) = observable.strip_prefix("ff:") {
        let cell = nl
            .cells
            .iter()
            .find(|c| matches!(c.kind, CellKind::Dff { .. }) && nl.net_name(c.output) == qname)
            .ok_or_else(|| format!("no FF with Q net '{qname}'"))?;
        return Ok(cell.inputs[0]);
    }
    Err(format!("unrecognized observable '{observable}'"))
}

/// Evaluate one observable of `nl` under a cut assignment, through the
/// reference simulator.
fn replay(nl: &Netlist, cex: &Counterexample) -> Result<bool, String> {
    let watch = observable_net(nl, &cex.observable)?;
    let cut = dff_cut(nl);
    let mut sim = Simulator::new(&cut).map_err(|e| format!("simulator: {e}"))?;
    for (name, value) in &cex.assignment {
        // A cut name the candidate swept (dead in both views) cannot
        // affect the observable; skip rather than fail the replay.
        if cut.find_net(name).is_some() {
            sim.set_input_by_name(name, *value)
                .map_err(|e| format!("drive '{name}': {e}"))?;
        }
    }
    sim.propagate();
    Ok(sim.value(watch))
}

/// xorshift64* — the same cheap deterministic generator the verifier
/// seeds its vectors with; good enough to pick a fault site.
fn xorshift(state: &mut u64) -> u64 {
    xorshift64(state).wrapping_mul(XORSHIFT_STAR)
}

fn main() {
    let args = cli::parse_args(&["seed", "luts"]);
    cli::handle_version("equiv-fault", &args);
    let seed: u64 = args
        .options
        .get("seed")
        .map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| cli::die("equiv-fault", format!("bad --seed '{raw}'")))
        })
        .unwrap_or(7);
    let luts: usize = args
        .options
        .get("luts")
        .map(|raw| {
            raw.parse()
                .unwrap_or_else(|_| cli::die("equiv-fault", format!("bad --luts '{raw}'")))
        })
        .unwrap_or(48);

    let rtl = fpga_circuits::rent_logic(luts, 0.62, seed);
    let (mapped, _) = fpga_synth::map_to_luts(&rtl, fpga_synth::MapOptions::default())
        .unwrap_or_else(|e| cli::die("equiv-fault", format!("mapping failed: {e}")));
    let gate = EquivGate::new(&rtl);

    if args.flags.iter().any(|f| f == "clean") {
        let diags = gate.check_netlist("mapped", &mapped);
        if !diags.is_empty() {
            eprintln!("equiv-fault: clean mapping produced findings:");
            for d in &diags {
                eprintln!("  {d}");
            }
            std::process::exit(1);
        }
        println!("clean: seed {seed}, {luts} LUTs, mapped netlist proves equivalent");
        return;
    }

    // Corrupt leg: flip one seeded truth bit of a LUT. A fault in a net
    // the sweep already removed is invisible by construction, so walk
    // the LUTs in seeded order until the gate reports the corruption —
    // the first live site should trip it.
    let lut_sites: Vec<usize> = mapped
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.kind, CellKind::Lut { .. }))
        .map(|(i, _)| i)
        .collect();
    if lut_sites.is_empty() {
        cli::die("equiv-fault", "mapped netlist has no LUTs to corrupt");
    }
    let mut rng = seed | 1;
    for attempt in 0..lut_sites.len().min(8) {
        let site = lut_sites[xorshift(&mut rng) as usize % lut_sites.len()];
        let bit = xorshift(&mut rng) % 16;
        let mut bad = mapped.clone();
        if let CellKind::Lut { truth, .. } = &mut bad.cells[site].kind {
            *truth ^= 1 << bit;
        }
        let diags = gate.check_netlist("mapped", &bad);
        let Some(d) = diags.iter().find(|d| d.code == "EQ001") else {
            eprintln!(
                "equiv-fault: attempt {attempt}: fault at cell {site} bit {bit} not observed; retrying"
            );
            continue;
        };
        let note = d
            .notes
            .iter()
            .find_map(|n| n.strip_prefix("counterexample: "))
            .unwrap_or_else(|| {
                cli::die(
                    "equiv-fault",
                    format!("EQ001 without a counterexample: {d}"),
                )
            });
        let cex = Counterexample::parse(note).unwrap_or_else(|| {
            cli::die(
                "equiv-fault",
                format!("unparseable counterexample '{note}'"),
            )
        });

        // The deny is only evidence once the vector reproduces: the
        // reference netlist must evaluate to `reference=` and the
        // corrupted one to `candidate=` under the same assignment.
        let want = replay(&rtl, &cex)
            .unwrap_or_else(|e| cli::die("equiv-fault", format!("reference replay: {e}")));
        let got = replay(&bad, &cex)
            .unwrap_or_else(|e| cli::die("equiv-fault", format!("candidate replay: {e}")));
        if want != cex.want || got != cex.got || want == got {
            cli::die(
                "equiv-fault",
                format!(
                    "counterexample does not reproduce: sim reference={} candidate={}, claimed {note}",
                    want as u8, got as u8
                ),
            );
        }
        println!(
            "caught: seed {seed}, cell {site} truth bit {bit} -> [EQ001] at {}, \
             counterexample replayed through the reference simulator",
            d.subject
        );
        return;
    }
    cli::die(
        "equiv-fault",
        format!("no seeded fault was observable in {} attempts", 8),
    );
}
