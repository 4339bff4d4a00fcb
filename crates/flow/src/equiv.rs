//! Cross-stage equivalence gates: the glue between the `fpga-verify`
//! engine and the flow's diagnostic surfaces.
//!
//! [`EquivGate`] extracts the reference register-bounded view from the
//! synthesized netlist once, then checks every downstream artifact —
//! mapped netlist, clustering, placement, routing, bitstream — against
//! it, rendering each verdict as [`Diagnostic`]s under the EQ rule codes
//! shared with `fpga-lint`:
//!
//! * `EQ001` (deny) — a stage artifact is not equivalent to the netlist.
//!   When random simulation found a concrete diverging vector, the
//!   counterexample rides in the diagnostic's note in the replayable
//!   one-line format (see `fpga-verify`); boundary mismatches (missing
//!   state elements, unrouted pins, contention) carry the boundary
//!   detail instead.
//! * `EQ002` (deny) — same, for the bitstream-decoded fabric model.
//! * `EQ003` (warn) — a view could not be extracted, so equivalence is
//!   *unknown*. Warn severity: an unverifiable cone is a gap in
//!   assurance, not a proven bug.
//!
//! A compile's `verify:{point}` gates (active when
//! [`crate::FlowOptions::verify`] is not `Off`) and the deep check
//! (`flowc verify`) both reach this through [`crate::check`], so a
//! finding looks identical no matter which surface produced it.

use fpga_bitstream::Bitstream;
use fpga_lint::{Diagnostic, Severity};
use fpga_netlist::Netlist;
use fpga_pack::Clustering;
use fpga_place::Placement;
use fpga_route::rrgraph::RrGraph;
use fpga_route::RouteResult;
use fpga_verify::{
    check_equiv, CombView, Counterexample, VerifyError, DEFAULT_BATCHES, DEFAULT_SEED,
};

/// One flow run's equivalence checker: the reference view plus the
/// seed/batch policy. Build it once per run; each `check_*` extracts the
/// stage's candidate view and compares.
pub struct EquivGate {
    reference: fpga_verify::Result<CombView>,
}

impl EquivGate {
    /// Extract the reference view from the synthesized netlist. A
    /// failure here is not fatal: it is reported as `EQ003` at every
    /// subsequent check point (equivalence unknown everywhere).
    pub fn new(rtl: &Netlist) -> EquivGate {
        EquivGate {
            reference: CombView::from_netlist("netlist", rtl),
        }
    }

    /// Check a netlist-shaped stage artifact (the LUT-mapped netlist).
    pub fn check_netlist(&self, point: &'static str, nl: &Netlist) -> Vec<Diagnostic> {
        self.verdict(point, "EQ001", || CombView::from_netlist(point, nl))
    }

    /// Check the packed clustering.
    pub fn check_clustering(&self, c: &Clustering) -> Vec<Diagnostic> {
        self.verdict("pack", "EQ001", || CombView::from_clustering(c))
    }

    /// Check the placement (clustering plus legal block sites).
    pub fn check_placement(&self, c: &Clustering, p: &Placement) -> Vec<Diagnostic> {
        self.verdict("place", "EQ001", || CombView::from_placement(c, p))
    }

    /// Check the routed design: every routed sink must deliver the net
    /// the placed netlist expects.
    pub fn check_routing(
        &self,
        c: &Clustering,
        p: &Placement,
        g: &RrGraph,
        r: &RouteResult,
    ) -> Vec<Diagnostic> {
        self.verdict("route", "EQ001", || CombView::from_routing(c, p, g, r))
    }

    /// Check the bitstream-decoded fabric model (rule `EQ002`: this is
    /// the end-to-end leg, independent of the in-memory routing).
    pub fn check_bitstream(
        &self,
        bs: &Bitstream,
        c: &Clustering,
        p: &Placement,
    ) -> Vec<Diagnostic> {
        self.verdict("bitstream", "EQ002", || CombView::from_bitstream(bs, c, p))
    }

    fn verdict(
        &self,
        point: &'static str,
        rule: &'static str,
        build: impl FnOnce() -> fpga_verify::Result<CombView>,
    ) -> Vec<Diagnostic> {
        let reference = match &self.reference {
            Ok(view) => view,
            // A reference that cannot be built, a cyclic one included,
            // leaves every verdict unknown.
            Err(VerifyError::View(msg) | VerifyError::Boundary(msg)) => {
                return vec![unverifiable(point, format!("reference view: {msg}"))]
            }
        };
        let candidate = match build() {
            Ok(view) => view,
            Err(VerifyError::View(msg)) => {
                return vec![unverifiable(point, format!("candidate view: {msg}"))]
            }
            Err(VerifyError::Boundary(msg)) => {
                return vec![mismatch(rule, point, point, msg, None)]
            }
        };
        match check_equiv(reference, &candidate, DEFAULT_SEED, DEFAULT_BATCHES) {
            Err(VerifyError::View(msg)) => vec![unverifiable(point, msg)],
            Err(VerifyError::Boundary(msg)) => vec![mismatch(rule, point, point, msg, None)],
            Ok(report) => match report.counterexample {
                None => Vec::new(),
                Some(cex) => {
                    let subject = cex.observable.clone();
                    let message = format!(
                        "'{point}' diverges from the netlist on {} (reference={}, candidate={}; \
                         {} cones, {} deduped structurally, {} vectors)",
                        cex.observable,
                        bit(cex.want),
                        bit(cex.got),
                        report.cones,
                        report.deduped,
                        report.vectors,
                    );
                    vec![mismatch(rule, point, &subject, message, Some(cex))]
                }
            },
        }
    }
}

fn bit(b: bool) -> char {
    if b {
        '1'
    } else {
        '0'
    }
}

fn unverifiable(point: &'static str, detail: String) -> Diagnostic {
    Diagnostic::new(
        "EQ003",
        Severity::Warn,
        "verify",
        point,
        format!("equivalence unknown at '{point}': a cone could not be extracted or replayed"),
    )
    .with_note(detail)
}

fn mismatch(
    rule: &'static str,
    point: &'static str,
    subject: &str,
    message: impl Into<String>,
    cex: Option<Counterexample>,
) -> Diagnostic {
    let mut d = Diagnostic::new(rule, Severity::Deny, "verify", subject, message);
    d.notes.push(format!("check point: {point}"));
    if let Some(cex) = cex {
        d.notes.push(format!("counterexample: {}", cex.render()));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_netlist::mix::{xorshift64, XORSHIFT_STAR};
    use fpga_netlist::sim::Simulator;
    use fpga_netlist::{CellKind, NetId};

    fn mapped(rtl: &Netlist) -> Netlist {
        fpga_synth::map_to_luts(rtl, fpga_synth::MapOptions::default())
            .unwrap()
            .0
    }

    #[test]
    fn clean_mapping_yields_no_findings() {
        let rtl = fpga_circuits::rent_logic(40, 0.6, 7);
        let gate = EquivGate::new(&rtl);
        let diags = gate.check_netlist("mapped", &mapped(&rtl));
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// Cut a netlist at its register boundary the way the verifier does:
    /// drop every DFF and promote its Q net to a primary input, so the
    /// reference simulator can drive a counterexample's cut assignment.
    fn dff_cut(nl: &Netlist) -> Netlist {
        let mut cut = nl.clone();
        let mut qs: Vec<NetId> = Vec::new();
        cut.cells.retain(|c| {
            let dff = matches!(c.kind, CellKind::Dff { .. });
            if dff {
                qs.push(c.output);
            }
            !dff
        });
        for q in qs {
            if !cut.inputs.contains(&q) {
                cut.inputs.push(q);
            }
        }
        cut
    }

    /// The net an observable reads: a `po:<net>` itself, or the D input
    /// of the FF whose Q net is `ff:<q net>`.
    fn observable_net(nl: &Netlist, observable: &str) -> NetId {
        if let Some(name) = observable.strip_prefix("po:") {
            return nl.find_net(name).expect("output net");
        }
        let q = observable
            .strip_prefix("ff:")
            .expect("po: or ff: observable");
        let ff = (nl.cells.iter())
            .find(|c| matches!(c.kind, CellKind::Dff { .. }) && nl.net_name(c.output) == q)
            .expect("FF with that Q net");
        ff.inputs[0]
    }

    /// One observable of `nl` under a counterexample's cut assignment,
    /// through the reference simulator (`fpga_netlist::sim`).
    fn replay(nl: &Netlist, cex: &Counterexample) -> bool {
        let watch = observable_net(nl, &cex.observable);
        let cut = dff_cut(nl);
        let mut sim = Simulator::new(&cut).expect("simulator");
        for (name, value) in &cex.assignment {
            // A cut the candidate swept (dead in both views) cannot
            // affect the observable.
            if cut.find_net(name).is_some() {
                sim.set_input_by_name(name, *value).expect("cut input");
            }
        }
        sim.propagate();
        sim.value(watch)
    }

    /// For each seed: the mapped netlist of a seeded Rent's-rule design
    /// checks clean, and one seeded LUT truth bit flipped after mapping is
    /// an EQ001 deny whose counterexample, replayed through the reference
    /// simulator, reproduces the divergence bit for bit. A flip in a
    /// don't-care minterm is invisible by construction, so up to eight
    /// seeded (cell, bit) sites are tried; the first live one must trip.
    #[test]
    fn corrupted_lut_is_an_eq001_deny_with_a_replayable_counterexample() {
        for seed in [1u64, 7, 42] {
            let rtl = fpga_circuits::rent_logic(48, 0.62, seed);
            let good = mapped(&rtl);
            let gate = EquivGate::new(&rtl);
            let clean = gate.check_netlist("mapped", &good);
            assert!(clean.is_empty(), "seed {seed}: {clean:?}");

            let luts: Vec<usize> = (good.cells.iter().enumerate())
                .filter(|(_, c)| matches!(c.kind, CellKind::Lut { .. }))
                .map(|(i, _)| i)
                .collect();
            let mut rng = seed | 1;
            let mut pick = || xorshift64(&mut rng).wrapping_mul(XORSHIFT_STAR);
            let caught = (0..luts.len().min(8)).find_map(|_| {
                let site = luts[pick() as usize % luts.len()];
                let mut bad = good.clone();
                if let CellKind::Lut { truth, .. } = &mut bad.cells[site].kind {
                    *truth ^= 1 << (pick() % 16);
                }
                let diags = gate.check_netlist("mapped", &bad);
                (!diags.is_empty()).then_some((bad, diags))
            });
            let (bad, diags) = caught.unwrap_or_else(|| panic!("seed {seed}: no flip observed"));
            assert_eq!(diags.len(), 1, "{diags:?}");
            let d = &diags[0];
            assert_eq!(d.code, "EQ001");
            assert_eq!(d.severity, Severity::Deny);
            assert_eq!(d.stage, "verify");
            let note = (d.notes.iter())
                .find_map(|n| n.strip_prefix("counterexample: "))
                .expect("counterexample note");
            let cex = Counterexample::parse(note).expect("replayable format");
            assert_eq!(cex.observable, d.subject);
            let (want, got) = (replay(&rtl, &cex), replay(&bad, &cex));
            assert_eq!((want, got), (cex.want, cex.got), "seed {seed}: {note}");
            assert_ne!(want, got, "seed {seed}: {note}");
        }
    }

    /// A LUT fed from its own output: in a candidate that is a deny
    /// (the reference is acyclic once its flip-flops are cut), in the
    /// reference it leaves every verdict unknown.
    #[test]
    fn combinational_loop_denies_a_candidate_and_blinds_a_reference() {
        let rtl = fpga_circuits::rent_logic(30, 0.6, 11);
        let good = mapped(&rtl);
        let mut looped = good.clone();
        let lut = (looped.cells.iter_mut())
            .find(|c| matches!(c.kind, CellKind::Lut { .. }) && !c.inputs.is_empty())
            .expect("a LUT with an input");
        lut.inputs[0] = lut.output;

        let diags = EquivGate::new(&rtl).check_netlist("mapped", &looped);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(
            (diags[0].code.as_str(), diags[0].severity),
            ("EQ001", Severity::Deny)
        );
        assert!(diags[0].message.contains("combinational loop"), "{diags:?}");

        let diags = EquivGate::new(&looped).check_netlist("mapped", &good);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0]
                .notes
                .iter()
                .any(|n| n.contains("combinational loop")),
            "{diags:?}"
        );
        assert_eq!(
            (diags[0].code.as_str(), diags[0].severity),
            ("EQ003", Severity::Warn)
        );
    }

    #[test]
    fn missing_register_is_an_eq001_boundary_deny() {
        let rtl = fpga_circuits::rent_logic(30, 0.6, 11);
        let mut bad = mapped(&rtl);
        let pos = bad
            .cells
            .iter()
            .position(|c| matches!(c.kind, CellKind::Dff { .. }))
            .unwrap();
        bad.cells.remove(pos);
        let gate = EquivGate::new(&rtl);
        let diags = gate.check_netlist("mapped", &bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "EQ001");
        assert!(
            !diags[0]
                .notes
                .iter()
                .any(|n| n.starts_with("counterexample")),
            "boundary mismatch has no single vector: {:?}",
            diags[0]
        );
    }
}
