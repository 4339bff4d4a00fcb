//! The end-to-end pipeline: VHDL/BLIF in, verified bitstream out.
//!
//! The work itself lives in [`crate::stages`] as individually-cacheable
//! steps; this module composes them. [`FlowCtx`] carries the optional
//! [`StageCache`] (content-addressed, shared across jobs by the flow
//! server) and an optional per-stage observer used to stream progress to
//! connected clients.

use std::sync::Arc;
use std::time::Instant;

use fpga_arch::Architecture;
use fpga_bitstream::Bitstream;
use fpga_lint::{Diagnostic, GateMode};
use fpga_netlist::{NetId, Netlist};
use fpga_pack::Clustering;
use fpga_place::Placement;
use fpga_power::{PowerOptions, PowerReport};
use fpga_route::rrgraph::RrGraph;
use fpga_route::RouteResult;

use crate::cache::{StageCache, StageId};
use crate::check::{gate, CheckKind};
use crate::equiv::EquivGate;
use crate::fault::{CancelReason, CancelToken, FaultPlan};
use crate::report::{FlowReport, StageReport};
use crate::stages::{self, GeneratedBitstream, RoutedDesign, Staged};
use crate::trace::TraceLog;
use crate::{stage_err, FlowError, Result};

/// Flow configuration.
#[derive(Clone, Debug)]
pub struct FlowOptions {
    pub arch: Architecture,
    pub place_seed: u64,
    pub place_effort: f64,
    /// Fixed channel width, or `None` to binary-search the minimum.
    pub channel_width: Option<usize>,
    pub power: PowerOptions,
    /// Random-simulation cycles used to verify the bitstream against the
    /// mapped netlist (0 disables verification).
    pub verify_cycles: usize,
    /// Design-rule lint gate at every stage boundary: `Off` (default —
    /// today's behavior, byte for byte, including cache keys), `Warn`
    /// (run the passes, report, proceed), or `Deny` (any deny-severity
    /// finding fails the job with the diagnostics attached).
    pub lint: GateMode,
    /// No effect: P&R runs on one thread; goes with ROADMAP 5's unfreeze.
    pub threads: Option<usize>,
    /// Cross-stage equivalence gate (signature-based CEC, `fpga-verify`)
    /// at every stage boundary: `Off` (default — today's behavior, byte
    /// for byte, including cache keys), `Warn` (check, report EQ
    /// findings, proceed), or `Deny` (a non-equivalent artifact fails
    /// the job with the counterexample attached). Like `lint`, this is a
    /// check on the flow, not an input to it — it never enters
    /// stage-cache keys.
    pub verify: GateMode,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            arch: Architecture::paper_default(),
            place_seed: 1,
            place_effort: 3.0,
            channel_width: None,
            power: PowerOptions::default(),
            verify_cycles: 48,
            lint: GateMode::Off,
            threads: None,
            verify: GateMode::Off,
        }
    }
}

impl FlowOptions {
    /// Start from the defaults and override selectively:
    /// `FlowOptions::builder().place_seed(7).channel_width(14).build()`.
    pub fn builder() -> FlowOptionsBuilder {
        FlowOptionsBuilder::default()
    }

    /// No effect: P&R runs on one thread; goes with ROADMAP 5's unfreeze.
    pub fn parallelism(&self) -> fpga_route::Parallelism {
        fpga_route::Parallelism
    }

    /// The gate mode these options select for one check kind.
    pub(crate) fn mode(&self, kind: CheckKind) -> GateMode {
        match kind {
            CheckKind::Lint => self.lint,
            CheckKind::Verify => self.verify,
        }
    }
}

/// Builder for [`FlowOptions`]; every setter overrides one default.
#[derive(Clone, Debug, Default)]
pub struct FlowOptionsBuilder {
    opts: FlowOptions,
}

impl FlowOptionsBuilder {
    pub fn arch(mut self, arch: Architecture) -> Self {
        self.opts.arch = arch;
        self
    }

    pub fn place_seed(mut self, seed: u64) -> Self {
        self.opts.place_seed = seed;
        self
    }

    pub fn place_effort(mut self, inner_num: f64) -> Self {
        self.opts.place_effort = inner_num;
        self
    }

    /// Fix the routing channel width (the default binary-searches the
    /// minimum).
    pub fn channel_width(mut self, width: usize) -> Self {
        self.opts.channel_width = Some(width);
        self
    }

    pub fn power(mut self, power: PowerOptions) -> Self {
        self.opts.power = power;
        self
    }

    /// Random-simulation cycles for bitstream verification (0 disables
    /// the verify stage).
    pub fn verify_cycles(mut self, cycles: usize) -> Self {
        self.opts.verify_cycles = cycles;
        self
    }

    /// Design-rule lint gate mode (see [`FlowOptions::lint`]).
    pub fn lint(mut self, mode: GateMode) -> Self {
        self.opts.lint = mode;
        self
    }

    /// No effect: P&R runs on one thread; goes with ROADMAP 5's unfreeze.
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = Some(threads.max(1));
        self
    }

    /// Cross-stage equivalence gate mode (see [`FlowOptions::verify`]).
    pub fn verify(mut self, mode: GateMode) -> Self {
        self.opts.verify = mode;
        self
    }

    pub fn build(self) -> FlowOptions {
        self.opts
    }
}

/// Per-run context: options plus the optional cross-job machinery.
/// Construct through [`FlowCtx::builder`] (the fields stay public for
/// pattern matching, but builder construction is the supported path —
/// new observability hooks land as new builder setters, not breakage).
#[derive(Clone, Copy, Default)]
pub struct FlowCtx<'a> {
    /// Content-addressed stage cache shared across jobs, or `None` to
    /// compute everything.
    pub cache: Option<&'a StageCache>,
    /// Called after each stage completes (hit or miss) with its report
    /// entry; the flow server streams these to the submitting client.
    pub observer: Option<&'a (dyn Fn(&StageReport) + Send + Sync)>,
    /// Cooperative cancellation: checked at every stage boundary, so a
    /// cancelled or deadline-exceeded job stops before its next stage.
    pub cancel: Option<&'a CancelToken>,
    /// Deterministic fault injection for tests; fires in the stage gate,
    /// before the stage's cache lookup.
    pub fault: Option<&'a FaultPlan>,
    /// Per-job trace log: every stage step records one span into it
    /// (start/finish, cache-vs-compute attribution, faults).
    pub trace: Option<&'a TraceLog>,
}

impl<'a> FlowCtx<'a> {
    /// `FlowCtx::builder().cache(&cache).cancel(&token).build()`.
    pub fn builder() -> FlowCtxBuilder<'a> {
        FlowCtxBuilder::default()
    }

    pub fn with_cache(cache: &'a StageCache) -> Self {
        FlowCtx::builder().cache(cache).build()
    }

    /// The gate every stage step passes before doing work: observe
    /// cancellation (deadline or explicit), then fire any injected fault.
    /// Faults run outside the stage cache, so an injected panic cannot
    /// strand an in-flight cache entry.
    pub fn stage_gate(&self, stage: StageId) -> Result<()> {
        if let Some(reason) = self.cancel.and_then(CancelToken::status) {
            return Err(FlowError::new(
                "cancelled",
                match reason {
                    CancelReason::Cancelled => "job cancelled".to_string(),
                    CancelReason::DeadlineExceeded => {
                        format!("deadline exceeded before stage '{}'", stage.name())
                    }
                },
            ));
        }
        if let Some(plan) = self.fault {
            plan.before_stage(stage.name(), self.cancel)?;
        }
        Ok(())
    }
}

/// Builder for [`FlowCtx`]; each setter attaches one borrowed hook.
#[derive(Clone, Copy, Default)]
pub struct FlowCtxBuilder<'a> {
    ctx: FlowCtx<'a>,
}

impl<'a> FlowCtxBuilder<'a> {
    pub fn cache(mut self, cache: &'a StageCache) -> Self {
        self.ctx.cache = Some(cache);
        self
    }

    pub fn observer(mut self, observer: &'a (dyn Fn(&StageReport) + Send + Sync)) -> Self {
        self.ctx.observer = Some(observer);
        self
    }

    pub fn cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.ctx.cancel = Some(cancel);
        self
    }

    pub fn fault(mut self, fault: &'a FaultPlan) -> Self {
        self.ctx.fault = Some(fault);
        self
    }

    pub fn trace(mut self, trace: &'a TraceLog) -> Self {
        self.ctx.trace = Some(trace);
        self
    }

    pub fn build(self) -> FlowCtx<'a> {
        self.ctx
    }
}

/// A finished compile as the stage walk left it: every stage's output
/// still behind the `Arc` it shares with the stage cache — building this
/// copies no artifact — plus the report and the gate findings. It is all
/// a caller that wants the bitstream and the report needs (the flow
/// server answers a cache hit from it); [`FlowArtifacts`] is the owned,
/// field-per-artifact view converted from it.
pub struct Compiled {
    rtl: Arc<Netlist>,
    mapped: Arc<Netlist>,
    clustering: Arc<Clustering>,
    placement: Arc<Placement>,
    routed: Arc<RoutedDesign>,
    power: PowerReport,
    bits: Arc<GeneratedBitstream>,
    pub report: FlowReport,
    /// Design-rule findings from the lint gates (empty when
    /// [`FlowOptions::lint`] is `Off`).
    pub lint: Vec<Diagnostic>,
}

impl Compiled {
    /// The serialized bitstream, as the bitstream stage produced it.
    pub fn bitstream_bytes(&self) -> &[u8] {
        &self.bits.bytes
    }
}

/// The value out of its `Arc`: moved when this is the only holder (an
/// uncached run), copied when a stage cache holds it too.
fn owned<T: Clone>(shared: Arc<T>) -> T {
    Arc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone())
}

impl From<Compiled> for FlowArtifacts {
    fn from(done: Compiled) -> FlowArtifacts {
        let routed = owned(done.routed);
        let bits = owned(done.bits);
        FlowArtifacts {
            rtl: owned(done.rtl),
            mapped: owned(done.mapped),
            clustering: owned(done.clustering),
            placement: owned(done.placement),
            graph: routed.graph,
            routing: routed.routing,
            critical_nets: routed.critical_nets,
            power: done.power,
            bitstream: bits.bitstream,
            bitstream_bytes: bits.bytes,
            report: done.report,
            lint: done.lint,
        }
    }
}

/// Everything the flow produces, each artifact owned by the caller.
pub struct FlowArtifacts {
    pub rtl: Netlist,
    pub mapped: Netlist,
    pub clustering: Clustering,
    pub placement: Placement,
    pub graph: RrGraph,
    pub routing: RouteResult,
    /// Nets on the reported critical path (from the STA), source first.
    pub critical_nets: Vec<NetId>,
    pub power: PowerReport,
    pub bitstream: Bitstream,
    pub bitstream_bytes: Vec<u8>,
    pub report: FlowReport,
    /// Design-rule findings from the lint gates (empty when
    /// [`FlowOptions::lint`] is `Off`).
    pub lint: Vec<Diagnostic>,
}

/// A design as it enters the flow: the paper's two front doors, VHDL
/// through the VHDL Parser and DIVINER and BLIF through the E2FMT
/// hand-off, plus a gate-level netlist already in memory. Everything
/// after the entering netlist is shared; [`compile`] and
/// [`crate::check::deep`] both take one.
pub enum Source<'a> {
    Vhdl(&'a str),
    Blif(&'a str),
    Netlist(Netlist),
}

/// Run the full flow from VHDL source.
pub fn run_vhdl(source: &str, opts: &FlowOptions) -> Result<FlowArtifacts> {
    run_vhdl_ctx(source, opts, FlowCtx::default())
}

/// Run the flow from a BLIF file (entering after synthesis, as the
/// paper's E2FMT hand-off does).
pub fn run_blif(text: &str, opts: &FlowOptions) -> Result<FlowArtifacts> {
    run_blif_ctx(text, opts, FlowCtx::default())
}

/// Run the flow from an in-memory gate-level netlist.
pub fn run_netlist(rtl: Netlist, opts: &FlowOptions) -> Result<FlowArtifacts> {
    compile(Source::Netlist(rtl), opts, FlowCtx::default()).map(FlowArtifacts::from)
}

/// [`run_vhdl`] with a cache/observer context (`benchmark/flowbench`
/// calls this form).
pub fn run_vhdl_ctx(source: &str, opts: &FlowOptions, ctx: FlowCtx) -> Result<FlowArtifacts> {
    compile(Source::Vhdl(source), opts, ctx).map(FlowArtifacts::from)
}

/// [`run_blif`] with a cache/observer context (`benchmark/flowbench`
/// calls this form).
pub fn run_blif_ctx(text: &str, opts: &FlowOptions, ctx: FlowCtx) -> Result<FlowArtifacts> {
    compile(Source::Blif(text), opts, ctx).map(FlowArtifacts::from)
}

/// A netlist check run as a design enters: a compile's lint gate, or a
/// deep lint's netlist pass.
pub(crate) type EntryCheck<'c> = &'c mut dyn FnMut(&Netlist) -> Result<()>;

/// How a design enters the flow, written once: the step that reads each
/// source, and the title a compile's `report` records it under (none for
/// a netlist already in memory, which no step reads). `check` then sees
/// the entering netlist.
///
/// BLIF has one more rule: lint reads it *without* the upload stage's
/// validation, because structurally broken designs (NL001/NL002) are
/// what it reports rather than rejects. A deep lint (`raw_blif`) enters
/// on that raw parse. Every other reader enters through the validating
/// upload stage, and `check` sees the raw parse before that stage runs:
/// a broken design then fails with its precise findings instead of the
/// stage's first-error validate message, and without ever writing a
/// cache entry. A raw parse error there falls through to the stage,
/// which owns error reporting for unreadable input.
pub(crate) fn enter(
    source: Source,
    raw_blif: bool,
    ctx: FlowCtx,
    report: Option<&mut FlowReport>,
    mut check: Option<EntryCheck>,
) -> Result<Staged<Netlist>> {
    let mut started = Instant::now();
    let (rtl, title) = match source {
        Source::Vhdl(text) => (
            stages::synthesize_vhdl(text, ctx)?,
            Some("synthesis (VHDL Parser + DIVINER)"),
        ),
        Source::Blif(text) if raw_blif => {
            let raw = fpga_netlist::blif::parse(text).map_err(stage_err("blif"))?;
            (stages::adopt_rtl(raw), None)
        }
        Source::Blif(text) => {
            if let Some(check) = check.take() {
                if let Ok(raw) = fpga_netlist::blif::parse(text) {
                    check(&raw)?;
                }
            }
            started = Instant::now();
            (stages::parse_blif(text, ctx)?, Some("file upload (BLIF)"))
        }
        Source::Netlist(rtl) => (stages::adopt_rtl(rtl), None),
    };
    if let Some(title) = title {
        record(report, &ctx, title, &rtl, started);
    }
    if let Some(check) = check {
        check(&rtl.value)?;
    }
    Ok(rtl)
}

/// Append a stage's report entry (tagging cache hits and their tier) and
/// notify the observer. A walk that only checks passes no report and
/// records nothing.
fn record<T>(
    report: Option<&mut FlowReport>,
    ctx: &FlowCtx,
    name: &str,
    staged: &Staged<T>,
    started: Instant,
) {
    let Some(report) = report else { return };
    let mut metrics = staged.metrics.clone();
    if staged.cache_hit() {
        if let serde_json::Value::Object(m) = &mut metrics {
            m.insert(
                "cache".to_string(),
                serde_json::Value::String("hit".to_string()),
            );
            m.insert(
                "cache_tier".to_string(),
                serde_json::Value::String(staged.outcome.label().to_string()),
            );
        }
    }
    report.push_with_id(Some(staged.stage.name()), name, metrics, started);
    if let (Some(observe), Some(entry)) = (ctx.observer, report.stages.last()) {
        observe(entry);
    }
}

/// One stage boundary of the walk: the artifacts a check at that point
/// may look at, borrowed from the stages that produced them.
pub(crate) enum Boundary<'a> {
    /// A netlist-shaped artifact: the design as it enters the flow
    /// (point `netlist`) or the LUT-mapped netlist (point `mapped`).
    Netlist(&'static str, &'a Netlist),
    Pack(&'a Clustering),
    Place(&'a Clustering, &'a Placement),
    Route(&'a Clustering, &'a Placement, &'a RoutedDesign),
    Bitstream(
        &'a Clustering,
        &'a Placement,
        &'a RoutedDesign,
        &'a Bitstream,
    ),
}

impl Boundary<'_> {
    /// The point's name: what trace spans, deny messages and a check
    /// report's `reached` call this boundary.
    pub(crate) fn point(&self) -> &'static str {
        match self {
            Boundary::Netlist(point, _) => point,
            Boundary::Pack(..) => "pack",
            Boundary::Place(..) => "place",
            Boundary::Route(..) => "route",
            Boundary::Bitstream(..) => "bitstream",
        }
    }
}

/// What a completed walk leaves behind.
pub(crate) struct Walked {
    mapped: Staged<Netlist>,
    clustering: Staged<Clustering>,
    placement: Staged<Placement>,
    routed: Staged<RoutedDesign>,
    bits: Staged<GeneratedBitstream>,
    /// Present when the walk measured (a compile), absent for a check.
    power: Option<Staged<PowerReport>>,
}

/// The stage sequence, written once: map, pack, place, route, bitstream,
/// handing each boundary to `at` as soon as its stage completes; an
/// error from `at` stops the walk. With a `report` the walk is a
/// compile — every stage is recorded (and streamed to the observer) and
/// the measuring stages, power estimation and fabric re-simulation, run
/// too. Without one it only produces the artifacts to be checked.
pub(crate) fn walk(
    rtl: &Staged<Netlist>,
    opts: &FlowOptions,
    ctx: FlowCtx,
    mut report: Option<&mut FlowReport>,
    mut at: impl FnMut(Boundary) -> Result<()>,
) -> Result<Walked> {
    let t = Instant::now();
    let mapped = stages::lut_map(rtl, opts, ctx)?;
    record(report.as_deref_mut(), &ctx, "lut mapping (SIS)", &mapped, t);
    at(Boundary::Netlist("mapped", &mapped.value))?;

    let t = Instant::now();
    let clustering = stages::pack(&mapped, &opts.arch, ctx)?;
    record(
        report.as_deref_mut(),
        &ctx,
        "packing (T-VPack)",
        &clustering,
        t,
    );
    at(Boundary::Pack(&clustering.value))?;

    let t = Instant::now();
    let placement = stages::place(&clustering, opts, ctx)?;
    record(
        report.as_deref_mut(),
        &ctx,
        "placement (VPR)",
        &placement,
        t,
    );
    at(Boundary::Place(&clustering.value, &placement.value))?;

    let t = Instant::now();
    let routed = stages::route(&clustering, &placement, opts, ctx)?;
    record(report.as_deref_mut(), &ctx, "routing (VPR)", &routed, t);
    at(Boundary::Route(
        &clustering.value,
        &placement.value,
        &routed.value,
    ))?;

    let power = match report.as_deref_mut() {
        Some(report) => {
            let t = Instant::now();
            let power = stages::power(&clustering, &routed, opts, ctx)?;
            record(Some(report), &ctx, "power (PowerModel)", &power, t);
            Some(power)
        }
        None => None,
    };

    let t = Instant::now();
    let bits = stages::bitstream(&clustering, &placement, &routed, ctx)?;
    record(report.as_deref_mut(), &ctx, "bitstream (DAGGER)", &bits, t);
    at(Boundary::Bitstream(
        &clustering.value,
        &placement.value,
        &routed.value,
        &bits.value.bitstream,
    ))?;

    if let Some(report) = report {
        if opts.verify_cycles > 0 {
            let t = Instant::now();
            let verified = stages::verify(&bits, &mapped, opts.verify_cycles, ctx)?;
            record(
                Some(report),
                &ctx,
                "verify (fabric emulation)",
                &verified,
                t,
            );
        }
    }

    Ok(Walked {
        mapped,
        clustering,
        placement,
        routed,
        bits,
        power,
    })
}

/// Compile a design, leaving the artifacts shared with the cache.
pub fn compile(source: Source, opts: &FlowOptions, ctx: FlowCtx) -> Result<Compiled> {
    let mut report = FlowReport::default();
    let mut lint = Vec::new();
    // The lint gate on the design as it enters the flow. The equivalence
    // gate has no counterpart here: the entering netlist *is* its
    // reference.
    let mut lint_gate = |rtl: &Netlist| {
        let at = Boundary::Netlist("netlist", rtl);
        gate(&ctx, opts, CheckKind::Lint, None, &at, &mut lint)
    };
    let check = opts.lint.enabled().then_some(&mut lint_gate as EntryCheck);
    let rtl = enter(source, false, ctx, Some(&mut report), check)?;
    report.design = rtl.value.name.clone();

    // The equivalence gates all compare against one reference view,
    // extracted from the synthesized netlist exactly once per run.
    let equiv = opts.verify.enabled().then(|| EquivGate::new(&rtl.value));
    let done = walk(&rtl, opts, ctx, Some(&mut report), |at| {
        gate(&ctx, opts, CheckKind::Lint, None, &at, &mut lint)?;
        let equiv = equiv.as_ref();
        gate(&ctx, opts, CheckKind::Verify, equiv, &at, &mut lint)
    })?;
    let power = done.power.ok_or_else(|| {
        FlowError::new(
            "power",
            "internal: a recorded walk skipped power estimation",
        )
    })?;

    // Typed QoR summary. Everything comes from the artifacts except the
    // STA numbers, which ride in the routing stage's metrics (they are
    // preserved verbatim across cache tiers, so a fully-warm run reports
    // the same QoR as the run that computed it).
    let (mapped, routed) = (&done.mapped, &done.routed);
    let luts = mapped
        .value
        .cells
        .iter()
        .filter(|c| matches!(c.kind, fpga_netlist::CellKind::Lut { .. }))
        .count() as u64;
    report.qor = Some(crate::report::QorSummary {
        luts,
        ffs: mapped.value.cell_counts().1 as u64,
        clbs: done.clustering.value.clusters.len() as u64,
        grid_w: done.placement.value.device.width as u64,
        grid_h: done.placement.value.device.height as u64,
        channel_width: routed.value.routing.channel_width as u64,
        wirelength: routed.value.routing.wirelength as u64,
        critical_path_ns: routed.metrics["critical_ns"].as_f64().unwrap_or(0.0),
        fmax_mhz: routed.metrics["fmax_mhz"].as_f64().unwrap_or(0.0),
        power_mw: power.value.total() * 1e3,
    });

    Ok(Compiled {
        rtl: rtl.value,
        mapped: done.mapped.value,
        clustering: done.clustering.value,
        placement: done.placement.value,
        routed: done.routed.value,
        power: *power.value,
        bits: done.bits.value,
        report,
        lint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{stage_key, StageId, STAGES};
    use fpga_lint::Severity;

    #[test]
    fn vhdl_counter_to_verified_bitstream() {
        let src = fpga_circuits::vhdl_counter(4);
        let art = run_vhdl(&src, &FlowOptions::default()).unwrap();
        assert!(art.bitstream_bytes.len() > 64);
        assert_eq!(art.report.stages.len(), 8);
        assert!(art.report.stages.iter().all(|s| s.ok));
        assert!(art.clustering.bles.len() >= 4);
        assert!(art.routing.wirelength > 0);
        assert!(art.power.total() > 0.0);
        let summary = art.report.summary();
        assert!(summary.contains("DAGGER"), "{summary}");
    }

    #[test]
    fn blif_flow_works() {
        let blif = "
.model majority
.inputs a b c
.outputs y
.names a b c y
11- 1
1-1 1
-11 1
.end";
        let art = run_blif(blif, &FlowOptions::default()).unwrap();
        assert_eq!(art.clustering.bles.len(), 1, "majority fits one 4-LUT");
        assert!(art.report.stages.iter().any(|s| s.stage.contains("fabric")));
    }

    #[test]
    fn netlist_flow_with_fixed_channel() {
        let nl = fpga_circuits::ripple_adder(4);
        let opts = FlowOptions::builder().channel_width(14).build();
        let art = run_netlist(nl, &opts).unwrap();
        assert_eq!(art.routing.channel_width, 14);
    }

    #[test]
    fn bad_vhdl_fails_in_synthesis_stage() {
        match run_vhdl("entity oops", &FlowOptions::default()) {
            Err(err) => {
                assert_eq!(err.stage, "synthesis");
                // Only a denied gate attaches findings.
                assert!(err.diagnostics.is_empty(), "{:?}", err.diagnostics);
            }
            Ok(_) => panic!("bad VHDL must fail"),
        }
    }

    #[test]
    fn cached_rerun_recomputes_nothing_and_matches_bytes() {
        let cache = StageCache::new();
        let src = fpga_circuits::vhdl_counter(3);
        let opts = FlowOptions::default();

        let cold = run_vhdl_ctx(&src, &opts, FlowCtx::with_cache(&cache)).unwrap();
        for stage in STAGES {
            let s = cache.stats(stage);
            assert_eq!((s.misses.get(), s.hits()), (1, 0), "{}", stage.name());
        }

        let warm = run_vhdl_ctx(&src, &opts, FlowCtx::with_cache(&cache)).unwrap();
        for stage in STAGES {
            let s = cache.stats(stage);
            assert_eq!((s.misses.get(), s.hits()), (1, 1), "{}", stage.name());
        }
        assert_eq!(cold.bitstream_bytes, warm.bitstream_bytes);
        assert!(warm
            .report
            .stages
            .iter()
            .all(|s| s.metrics["cache"] == serde_json::json!("hit")));
    }

    #[test]
    fn cancelled_token_stops_at_the_next_stage_boundary() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let ctx = FlowCtx::builder().cancel(&cancel).build();
        let src = fpga_circuits::vhdl_counter(3);
        let err = expect_err(run_vhdl_ctx(&src, &FlowOptions::default(), ctx));
        assert_eq!(err.stage, "cancelled");
    }

    fn expect_err(r: Result<FlowArtifacts>) -> crate::FlowError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("flow unexpectedly succeeded"),
        }
    }

    #[test]
    fn expired_deadline_reports_the_blocked_stage() {
        let cancel = CancelToken::with_deadline(std::time::Duration::from_millis(0));
        let ctx = FlowCtx::builder().cancel(&cancel).build();
        let src = fpga_circuits::vhdl_counter(3);
        let err = expect_err(run_vhdl_ctx(&src, &FlowOptions::default(), ctx));
        assert_eq!(err.stage, "cancelled");
        assert!(err.message.contains("deadline exceeded"), "{}", err.message);
        assert!(err.message.contains("synthesis"), "{}", err.message);
    }

    #[test]
    fn injected_failure_surfaces_as_flow_error_and_later_runs_recover() {
        let cache = StageCache::new();
        let plan = crate::fault::FaultPlan::new().on(
            "place",
            1,
            crate::fault::FaultAction::Fail("chaos".into()),
        );
        let ctx = FlowCtx::builder().cache(&cache).fault(&plan).build();
        let src = fpga_circuits::vhdl_counter(3);
        let err = expect_err(run_vhdl_ctx(&src, &FlowOptions::default(), ctx));
        assert_eq!(err.stage, "fault");
        assert!(err.message.contains("chaos"), "{}", err.message);
        // The rule fired once; the same plan lets the retry through, and
        // the front-end stages it completed are served from cache.
        let art = run_vhdl_ctx(&src, &FlowOptions::default(), ctx).unwrap();
        assert!(art.bitstream_bytes.len() > 64);
        let synth = cache.stats(StageId::Synthesis);
        assert_eq!((synth.misses.get(), synth.hits()), (1, 1));
    }

    #[test]
    fn injected_panic_does_not_strand_the_cache() {
        let cache = StageCache::new();
        let plan =
            crate::fault::FaultPlan::new().on("lut_map", 1, crate::fault::FaultAction::Panic);
        let src = fpga_circuits::vhdl_counter(3);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ctx = FlowCtx::builder().cache(&cache).fault(&plan).build();
            run_vhdl_ctx(&src, &FlowOptions::default(), ctx)
        }));
        assert!(panicked.is_err());
        // No in-flight marker left behind: a clean run completes.
        let art = run_vhdl_ctx(&src, &FlowOptions::default(), FlowCtx::with_cache(&cache)).unwrap();
        assert!(art.bitstream_bytes.len() > 64);
    }

    #[test]
    fn every_entered_stage_emits_one_span_pair_even_under_fault() {
        use crate::trace::{SpanOutcome, TraceLog};

        let cache = StageCache::new();
        let plan = crate::fault::FaultPlan::new().on(
            "place",
            1,
            crate::fault::FaultAction::Fail("injected".into()),
        );
        let src = fpga_circuits::vhdl_counter(3);

        // Faulted run: every entered stage — including the one the fault
        // stopped — closes its span exactly once.
        let log = TraceLog::new();
        let ctx = FlowCtx::builder()
            .cache(&cache)
            .fault(&plan)
            .trace(&log)
            .build();
        expect_err(run_vhdl_ctx(&src, &FlowOptions::default(), ctx));
        let spans = log.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["synthesis", "lut_map", "pack", "place"]);
        for s in &spans {
            assert!(s.end_us.is_some(), "span '{}' closed", s.stage);
            let starts = s.events.iter().filter(|e| e.kind == "start").count();
            let finishes = s.events.iter().filter(|e| e.kind == "finish").count();
            assert_eq!((starts, finishes), (1, 1), "stage '{}'", s.stage);
        }
        assert_eq!(spans[3].outcome, SpanOutcome::Fault);
        assert!(spans[3].detail.as_deref().unwrap().contains("injected"));

        // Clean retry on the same cache: all 8 stages span-paired, the
        // fault-survivor stages attributed to the memory cache.
        let log = TraceLog::new();
        let ctx = FlowCtx::builder().cache(&cache).trace(&log).build();
        run_vhdl_ctx(&src, &FlowOptions::default(), ctx).unwrap();
        let spans = log.spans();
        assert_eq!(spans.len(), 8);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_us.is_some(), "span '{}' closed", s.stage);
            let starts = s.events.iter().filter(|e| e.kind == "start").count();
            let finishes = s.events.iter().filter(|e| e.kind == "finish").count();
            assert_eq!((starts, finishes), (1, 1), "stage '{}'", s.stage);
            let expected = if i < 3 {
                SpanOutcome::MemoryHit // completed before the fault
            } else {
                SpanOutcome::Computed
            };
            assert_eq!(s.outcome, expected, "stage '{}'", s.stage);
        }
    }

    #[test]
    fn builders_compose_options_and_ctx() {
        let opts = FlowOptions::builder()
            .place_seed(9)
            .place_effort(1.0)
            .channel_width(12)
            .verify_cycles(0)
            .build();
        assert_eq!(opts.place_seed, 9);
        assert_eq!(opts.channel_width, Some(12));
        assert_eq!(opts.verify_cycles, 0);

        let cache = StageCache::new();
        let log = crate::trace::TraceLog::new();
        let ctx = FlowCtx::builder().cache(&cache).trace(&log).build();
        assert!(ctx.cache.is_some());
        assert!(ctx.trace.is_some());
        assert!(ctx.cancel.is_none());
    }

    #[test]
    fn lint_deny_fails_cyclic_netlist_with_nl001_on_the_error() {
        use fpga_netlist::ir::CellKind;
        let mut nl = Netlist::new("loopy");
        let x = nl.net("x");
        let y = nl.net("y");
        nl.add_output(x);
        nl.add_cell("g1", CellKind::Not, vec![x], y);
        nl.add_cell("g2", CellKind::Not, vec![y], x);

        let opts = FlowOptions::builder().lint(GateMode::Deny).build();
        let err = expect_err(run_netlist(nl.clone(), &opts));
        assert_eq!(err.stage, "lint");
        assert!(err.message.contains("NL001"), "{}", err.message);
        let diags = &err.diagnostics;
        assert!(diags.iter().any(|d| d.code == "NL001"), "{diags:?}");

        // Off preserves today's behavior: the failure comes from the
        // mapping stage tripping over the cycle, not from a lint gate.
        let err = expect_err(run_netlist(nl, &FlowOptions::default()));
        assert_ne!(err.stage, "lint");
    }

    #[test]
    fn lint_warn_reports_but_does_not_fail() {
        let src = fpga_circuits::vhdl_counter(3);
        let opts = FlowOptions::builder().lint(GateMode::Warn).build();
        let art = run_vhdl(&src, &opts).unwrap();
        assert!(
            art.lint.iter().all(|d| d.severity != Severity::Deny),
            "{:?}",
            art.lint
        );
        // Off mode collects nothing.
        let art = run_vhdl(&src, &FlowOptions::default()).unwrap();
        assert!(art.lint.is_empty());
    }

    #[test]
    fn lint_deny_on_cyclic_blif_stops_before_the_upload_stage_cache() {
        let blif = "
.model loopy
.inputs a
.outputs y
.names a y w
11 1
.names w y
0 1
.end";
        let cache = StageCache::new();
        let opts = FlowOptions::builder().lint(GateMode::Deny).build();
        let err = expect_err(run_blif_ctx(blif, &opts, FlowCtx::with_cache(&cache)));
        assert_eq!(err.stage, "lint");
        // The deny fired before the cached upload stage ever ran.
        let s = cache.stats(StageId::Synthesis);
        assert_eq!((s.misses.get(), s.hits()), (0, 0));
    }

    #[test]
    fn lint_mode_does_not_change_cache_keys() {
        let cache = StageCache::new();
        let src = fpga_circuits::vhdl_counter(3);
        let off = FlowOptions::default();
        let warn = FlowOptions::builder().lint(GateMode::Warn).build();
        run_vhdl_ctx(&src, &off, FlowCtx::with_cache(&cache)).unwrap();
        // Same design with lint on: every stage is a memory hit — the
        // lint gate lives outside the content-addressed keys.
        run_vhdl_ctx(&src, &warn, FlowCtx::with_cache(&cache)).unwrap();
        for stage in STAGES {
            let s = cache.stats(stage);
            assert_eq!((s.misses.get(), s.hits()), (1, 1), "{}", stage.name());
        }
    }

    #[test]
    fn lint_gates_emit_their_own_trace_spans() {
        let src = fpga_circuits::vhdl_counter(3);
        let log = crate::trace::TraceLog::new();
        let ctx = FlowCtx::builder().trace(&log).build();
        let opts = FlowOptions::builder().lint(GateMode::Warn).build();
        run_vhdl_ctx(&src, &opts, ctx).unwrap();
        let names: Vec<String> = log.spans().iter().map(|s| s.stage.clone()).collect();
        for point in ["lint:netlist", "lint:pack", "lint:route", "lint:bitstream"] {
            assert!(names.iter().any(|n| n == point), "{names:?}");
        }
        // Default (Off) runs keep the exact 8-stage span shape.
        let log = crate::trace::TraceLog::new();
        let ctx = FlowCtx::builder().trace(&log).build();
        run_vhdl_ctx(&src, &FlowOptions::default(), ctx).unwrap();
        assert_eq!(log.spans().len(), 8);
    }

    #[test]
    fn verify_mode_does_not_change_cache_keys() {
        let cache = StageCache::new();
        let src = fpga_circuits::vhdl_counter(3);
        let off = FlowOptions::default();
        let deny = FlowOptions::builder().verify(GateMode::Deny).build();
        run_vhdl_ctx(&src, &off, FlowCtx::with_cache(&cache)).unwrap();
        // Same design with the equivalence gate on: every stage is a
        // memory hit — verification lives outside the content-addressed
        // keys, exactly like lint.
        run_vhdl_ctx(&src, &deny, FlowCtx::with_cache(&cache)).unwrap();
        for stage in STAGES {
            let s = cache.stats(stage);
            assert_eq!((s.misses.get(), s.hits()), (1, 1), "{}", stage.name());
        }
    }

    #[test]
    fn verify_gates_emit_their_own_trace_spans() {
        let src = fpga_circuits::vhdl_counter(3);
        let log = crate::trace::TraceLog::new();
        let ctx = FlowCtx::builder().trace(&log).build();
        let opts = FlowOptions::builder().verify(GateMode::Warn).build();
        run_vhdl_ctx(&src, &opts, ctx).unwrap();
        let names: Vec<String> = log.spans().iter().map(|s| s.stage.clone()).collect();
        for point in [
            "verify:mapped",
            "verify:pack",
            "verify:place",
            "verify:route",
            "verify:bitstream",
        ] {
            assert!(names.iter().any(|n| n == point), "{names:?}");
        }
        // Default (Off) runs keep the exact 8-stage span shape.
        let log = crate::trace::TraceLog::new();
        let ctx = FlowCtx::builder().trace(&log).build();
        run_vhdl_ctx(&src, &FlowOptions::default(), ctx).unwrap();
        assert_eq!(log.spans().len(), 8);
    }

    #[test]
    fn verify_deny_passes_a_clean_design_with_no_findings() {
        let src = fpga_circuits::vhdl_counter(3);
        let opts = FlowOptions::builder().verify(GateMode::Deny).build();
        let art = run_vhdl(&src, &opts).unwrap();
        assert!(art.lint.is_empty(), "{:?}", art.lint);
    }

    #[test]
    fn verify_deny_surfaces_eq001_with_a_counterexample() {
        use fpga_netlist::ir::CellKind;
        let rtl = fpga_circuits::rent_logic(24, 0.6, 3);
        let (mut bad, _) =
            fpga_synth::map_to_luts(&rtl, fpga_synth::MapOptions::default()).unwrap();
        let lut = bad
            .cells
            .iter_mut()
            .find(|c| matches!(c.kind, CellKind::Lut { .. }))
            .unwrap();
        if let CellKind::Lut { truth, .. } = &mut lut.kind {
            *truth ^= 1;
        }
        let equiv = EquivGate::new(&rtl);
        let ctx = FlowCtx::default();
        let opts = FlowOptions::builder().verify(GateMode::Deny).build();
        let mut collected = Vec::new();
        let at = Boundary::Netlist("mapped", &bad);
        let err = gate(
            &ctx,
            &opts,
            CheckKind::Verify,
            Some(&equiv),
            &at,
            &mut collected,
        )
        .expect_err("corrupted LUT must be denied");
        assert_eq!(err.stage, "verify");
        assert!(err.message.contains("EQ001"), "{}", err.message);
        assert!(err.message.contains("counterexample: "), "{}", err.message);
        // The finding rides on the error (how the flow server attaches it
        // to the structured error event), taken out of the accumulator.
        assert!(err.diagnostics.iter().any(|d| d.code == "EQ001"));
        assert!(collected.is_empty());

        // Warn mode reports the same finding but does not fail.
        let opts = FlowOptions::builder().verify(GateMode::Warn).build();
        let mut collected = Vec::new();
        gate(
            &ctx,
            &opts,
            CheckKind::Verify,
            Some(&equiv),
            &at,
            &mut collected,
        )
        .unwrap();
        assert!(collected.iter().any(|d| d.code == "EQ001"), "{collected:?}");
    }

    #[test]
    fn lut_size_is_part_of_the_lut_map_key() {
        let cache = StageCache::new();
        let ctx = FlowCtx::with_cache(&cache);
        let blif = fpga_netlist::blif::write(&fpga_circuits::ripple_adder(4)).unwrap();
        let rtl = stages::parse_blif(&blif, ctx).unwrap();
        let k = FlowOptions::default().arch.clb.lut_k;
        let keys: Vec<String> = [k, k + 2, k]
            .into_iter()
            .map(|lut_k| {
                let mut arch = Architecture::paper_default();
                arch.clb.lut_k = lut_k;
                let opts = FlowOptions::builder().arch(arch).build();
                let key = stages::lut_map(&rtl, &opts, ctx).unwrap().key;
                // Chained on the entry's key, like every later stage.
                let fingerprint = format!("k={lut_k} cut_limit=10");
                assert_eq!(key, stage_key(StageId::LutMap, &[&rtl.key, &fingerprint]));
                key
            })
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_eq!(keys[0], keys[2]);
        let s = cache.stats(StageId::LutMap);
        assert_eq!((s.misses.get(), s.hits()), (2, 1));
    }

    #[test]
    fn cache_shares_backend_stages_across_seeds() {
        let cache = StageCache::new();
        let src = fpga_circuits::vhdl_counter(3);
        let a = FlowOptions::default();
        let b = FlowOptions::builder().place_seed(99).build();
        run_vhdl_ctx(&src, &a, FlowCtx::with_cache(&cache)).unwrap();
        run_vhdl_ctx(&src, &b, FlowCtx::with_cache(&cache)).unwrap();
        // Front end (synth/map/pack) is seed-independent: shared.
        for stage in [StageId::Synthesis, StageId::LutMap, StageId::Pack] {
            let s = cache.stats(stage);
            assert_eq!((s.misses.get(), s.hits()), (1, 1), "{}", stage.name());
        }
        // Placement and everything chained after it re-ran.
        for stage in [StageId::Place, StageId::Route, StageId::Bitstream] {
            let s = cache.stats(stage);
            assert_eq!((s.misses.get(), s.hits()), (2, 0), "{}", stage.name());
        }
    }
}
