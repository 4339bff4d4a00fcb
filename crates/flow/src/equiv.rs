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
            Err(e) => return vec![unverifiable(point, format!("reference view: {e}"))],
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
    use fpga_netlist::CellKind;

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

    #[test]
    fn corrupted_lut_is_an_eq001_deny_with_a_replayable_counterexample() {
        let rtl = fpga_circuits::rent_logic(40, 0.6, 7);
        let mut bad = mapped(&rtl);
        let cell = bad
            .cells
            .iter_mut()
            .find(|c| matches!(c.kind, CellKind::Lut { .. }))
            .unwrap();
        if let CellKind::Lut { truth, .. } = &mut cell.kind {
            *truth ^= 1;
        }
        let gate = EquivGate::new(&rtl);
        let diags = gate.check_netlist("mapped", &bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.code, "EQ001");
        assert_eq!(d.severity, Severity::Deny);
        assert_eq!(d.stage, "verify");
        let note = d
            .notes
            .iter()
            .find(|n| n.starts_with("counterexample: "))
            .expect("counterexample note");
        let cex = Counterexample::parse(note.trim_start_matches("counterexample: "))
            .expect("replayable format");
        assert_eq!(cex.observable, d.subject);
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
