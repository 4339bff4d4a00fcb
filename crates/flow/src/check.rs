//! The check path: the design-rule lint and the cross-stage equivalence
//! check, as two kinds of one job.
//!
//! Both kinds look at the same stage boundaries of the same stage walk
//! ([`crate::pipeline`] owns the sequence); [`checks_at`] is the only
//! place that knows which `fpga-lint` pass or [`EquivGate`] comparison a
//! boundary gets. Two callers drive it:
//!
//! * a **compile** runs [`gate`] at every boundary, per kind, under that
//!   kind's [`GateMode`] from [`FlowOptions`]: `Off` does nothing, `Warn`
//!   reports, `Deny` fails the job at the first denied boundary;
//! * a **deep check** ([`deep`] — what `flowc lint`/`flowc verify` and
//!   the standalone `fpga-lint` binary run) drives the stages purely to
//!   check them and collects *every* finding instead of stopping at the
//!   first. A lint whose netlist has deny-severity findings stops before
//!   mapping (a broken netlist cannot be mapped meaningfully); anything
//!   else runs through bitstream generation. Power estimation and fabric
//!   re-simulation are skipped: they measure, they don't check.
//!
//! The stage steps run through the normal [`crate::stages`] funnel either
//! way, so a shared cache, cancellation deadline, and trace log all
//! behave exactly as they do for a compile.

use fpga_lint::{Diagnostic, GateMode, Severity};
use fpga_netlist::Netlist;

use crate::equiv::EquivGate;
use crate::pipeline::{enter, walk, Boundary, EntryCheck, FlowCtx, FlowOptions, Source};
use crate::trace::SpanOutcome;
use crate::{FlowError, Result};

/// Which check a gate or a deep check job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckKind {
    /// Design-rule lint: the structural `fpga-lint` passes.
    Lint,
    /// Cross-stage equivalence: every artifact against the netlist.
    Verify,
}

impl CheckKind {
    /// `lint` / `verify`: the protocol verb and flow option, the stage a
    /// denied gate's [`FlowError`] names, and the prefix of its trace
    /// spans (`lint:pack`, `verify:route`, ...).
    pub fn verb(self) -> &'static str {
        match self {
            CheckKind::Lint => "lint",
            CheckKind::Verify => "verify",
        }
    }
}

/// The findings of one check kind at one stage boundary. `equiv` is the
/// run's reference view; an equivalence check without one has nothing
/// to compare against and finds nothing.
pub(crate) fn checks_at(
    kind: CheckKind,
    equiv: Option<&EquivGate>,
    at: &Boundary,
) -> Vec<Diagnostic> {
    match (kind, equiv) {
        (CheckKind::Lint, _) => match *at {
            Boundary::Netlist(_, nl) => fpga_lint::lint_netlist(nl),
            Boundary::Pack(c) => fpga_lint::lint_clustering(c),
            Boundary::Place(c, p) => fpga_lint::lint_placement(c, p),
            Boundary::Route(c, _, r) => fpga_lint::lint_routing(&c.netlist, &r.graph, &r.routing),
            Boundary::Bitstream(c, _, r, bs) => {
                fpga_lint::lint_bitstream(&c.netlist, &r.device, &r.graph, &r.routing, bs)
            }
        },
        (CheckKind::Verify, Some(equiv)) => match *at {
            Boundary::Netlist(point, nl) => equiv.check_netlist(point, nl),
            Boundary::Pack(c) => equiv.check_clustering(c),
            Boundary::Place(c, p) => equiv.check_placement(c, p),
            Boundary::Route(c, p, r) => equiv.check_routing(c, p, &r.graph, &r.routing),
            Boundary::Bitstream(c, p, _, bs) => equiv.check_bitstream(bs, c, p),
        },
        (CheckKind::Verify, None) => Vec::new(),
    }
}

/// One gate of a compile: check a boundary, record the findings (trace
/// span `{kind}:{point}`, the run's accumulator `found`), and — under
/// [`GateMode::Deny`] — fail the flow when the boundary has a
/// deny-severity finding, moving `found` into the error so a denied job
/// still hands its findings to the caller. `Off` short-circuits before
/// doing any work, so the default flow is untouched (byte for byte,
/// including cache keys).
pub(crate) fn gate(
    ctx: &FlowCtx,
    opts: &FlowOptions,
    kind: CheckKind,
    equiv: Option<&EquivGate>,
    at: &Boundary,
    found: &mut Vec<Diagnostic>,
) -> Result<()> {
    let mode = opts.mode(kind);
    if !mode.enabled() {
        return Ok(());
    }
    let point = at.point();
    let span = ctx
        .trace
        .map(|t| t.start(&format!("{}:{point}", kind.verb())));
    let diags = checks_at(kind, equiv, at);
    let first_deny = match mode {
        GateMode::Deny => diags.iter().position(is_deny),
        _ => None,
    };
    if let (Some(log), Some(id)) = (ctx.trace, span) {
        let (outcome, detail) = match first_deny {
            Some(_) => (SpanOutcome::Error, Some(fpga_lint::summarize(&diags))),
            None => (SpanOutcome::Computed, None),
        };
        log.finish(id, outcome, detail);
    }
    let first_new = found.len();
    found.extend(diags);
    let Some(i) = first_deny else {
        return Ok(());
    };
    let denied = &found[first_new + i];
    // The two kinds word their denial differently: lint sums up every
    // finding of the run so far, verify cites this boundary's first
    // mismatch with its replayable counterexample.
    let message = match kind {
        CheckKind::Lint => {
            let denies = found.iter().filter(|d| is_deny(d)).count();
            let first = found.iter().find(|d| is_deny(d)).unwrap_or(denied);
            format!(
                "design-rule check failed at '{point}': {} ({denies} deny finding{}; first: [{}] {})",
                fpga_lint::summarize(found),
                if denies == 1 { "" } else { "s" },
                first.code,
                first.message
            )
        }
        CheckKind::Verify => {
            let cex = denied
                .notes
                .iter()
                .find(|n| n.starts_with("counterexample: "))
                .map(|n| format!(" — {n}"))
                .unwrap_or_default();
            format!(
                "equivalence check failed at '{point}': [{}] {}{}",
                denied.code, denied.message, cex
            )
        }
    };
    Err(FlowError {
        stage: kind.verb(),
        message,
        diagnostics: std::mem::take(found),
    })
}

fn is_deny(d: &Diagnostic) -> bool {
    d.severity == Severity::Deny
}

/// The outcome of a deep check: every finding, plus how far it got.
#[derive(Debug)]
pub struct CheckReport {
    pub design: String,
    pub diagnostics: Vec<Diagnostic>,
    /// The last boundary checked (`netlist`, `mapped`, `pack`, `place`,
    /// `route`, `bitstream`).
    pub reached: &'static str,
}

impl CheckReport {
    /// Whether the design passed: no deny-severity findings. Warnings
    /// (an `EQ003` unverifiable cone, say) do not fail a design, but
    /// callers can still see them in `diagnostics`.
    pub fn clean(&self) -> bool {
        self.deny_count() == 0
    }

    pub fn deny_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| is_deny(d)).count()
    }
}

/// Deep-check a design: drive the stages and collect every finding of
/// `kind`, unlike a compile gated with [`GateMode::Deny`], which stops at
/// the first denied boundary. A design the flow cannot read or build
/// (synthesis error, unparseable BLIF, unroutable) is a flow error, not
/// a finding.
pub fn deep(
    kind: CheckKind,
    source: Source,
    opts: &FlowOptions,
    ctx: FlowCtx,
) -> Result<CheckReport> {
    let mut diagnostics = Vec::new();
    let mut lint_netlist = |rtl: &Netlist| {
        diagnostics = checks_at(kind, None, &Boundary::Netlist("netlist", rtl));
        Ok(())
    };
    let lint = kind == CheckKind::Lint;
    let check = lint.then_some(&mut lint_netlist as EntryCheck);
    let rtl = enter(source, lint, ctx, None, check)?;
    let mut report = CheckReport {
        design: rtl.value.name.clone(),
        diagnostics,
        reached: "netlist",
    };
    if !report.clean() {
        // Mapping a netlist with loops or double drivers would either
        // fail or silently "fix" the design; the netlist findings are
        // the whole story.
        return Ok(report);
    }
    let equiv = (kind == CheckKind::Verify).then(|| EquivGate::new(&rtl.value));
    walk(&rtl, opts, ctx, None, |at| {
        report.reached = at.point();
        report
            .diagnostics
            .extend(checks_at(kind, equiv.as_ref(), &at));
        Ok(())
    })?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KINDS: [CheckKind; 2] = [CheckKind::Lint, CheckKind::Verify];

    fn check(kind: CheckKind, source: Source) -> Result<CheckReport> {
        deep(kind, source, &FlowOptions::default(), FlowCtx::default())
    }

    #[test]
    fn clean_vhdl_counter_checks_clean_through_bitstream() {
        let src = fpga_circuits::vhdl_counter(3);
        for kind in KINDS {
            let report = check(kind, Source::Vhdl(&src)).unwrap();
            assert_eq!(report.reached, "bitstream", "{kind:?}");
            assert!(report.clean(), "{kind:?}: {:?}", report.diagnostics);
        }
        // Equivalence leaves nothing to warn about on a clean design.
        let report = check(CheckKind::Verify, Source::Vhdl(&src)).unwrap();
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    /// `y` and `w` drive each other combinationally (NL001).
    const LOOPY: &str = "
.model loopy
.inputs a
.outputs y
.names a y w
11 1
.names w y
0 1
.end";

    /// `y` has two drivers (NL002).
    const DOUBLE_DRIVER: &str = "
.model twice
.inputs a b
.outputs y
.names a y
1 1
.names b y
1 1
.end";

    #[test]
    fn broken_blif_is_a_lint_finding_but_a_verify_upload_error() {
        for (blif, rule) in [(LOOPY, "NL001"), (DOUBLE_DRIVER, "NL002")] {
            // Lint reads the raw parse and reports the rule ...
            let report = check(CheckKind::Lint, Source::Blif(blif)).unwrap();
            assert_eq!(report.reached, "netlist", "{rule}");
            assert!(!report.clean(), "{rule}");
            assert!(
                report.diagnostics.iter().any(|d| d.code == rule),
                "{rule}: {:?}",
                report.diagnostics
            );
            // ... verify enters through the validating upload stage, so
            // the broken netlist never reaches the mapper.
            let err = check(CheckKind::Verify, Source::Blif(blif)).expect_err(rule);
            assert_eq!(err.stage, "blif", "{rule}: {err}");
            assert!(err.message.contains("invalid netlist"), "{rule}: {err}");
        }
    }

    #[test]
    fn unparseable_blif_is_a_flow_error_not_a_finding() {
        for kind in KINDS {
            let err = check(kind, Source::Blif("not a blif")).expect_err("parse must fail");
            assert_eq!(err.stage, "blif", "{kind:?}");
        }
    }

    #[test]
    fn deep_verify_checks_a_rent_netlist_end_to_end() {
        let rtl = fpga_circuits::rent_logic(24, 0.6, 5);
        let report = check(CheckKind::Verify, Source::Netlist(rtl)).unwrap();
        assert_eq!(report.reached, "bitstream");
        assert!(report.clean(), "{:?}", report.diagnostics);
    }
}
