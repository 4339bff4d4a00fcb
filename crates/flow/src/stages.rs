//! The pipeline, decomposed into resumable, individually-cacheable stage
//! steps.
//!
//! Each step takes its typed inputs plus the run's [`FlowCtx`] and
//! returns a [`Staged`] output: the value (shared via `Arc` so cached
//! entries are never deep-copied on a hit), the stage's content-address
//! key, the metrics it reported, and the [`CacheOutcome`] that served it.
//! Keys chain: a step's key digests its upstream step's key plus its own
//! options, so content addressing holds transitively — see
//! [`crate::cache`] for the scheme.
//!
//! Every step runs through one funnel, [`run_step`]: it opens a trace
//! span (when the context carries a [`TraceLog`](crate::TraceLog)),
//! passes [`FlowCtx::stage_gate`] — cancellation (deadline or client
//! hang-up) and injected faults are observed at stage granularity,
//! *before* the cache lookup — resolves the work through the cache, and
//! closes the span with the outcome (computed / memory-hit / disk-hit /
//! fault / cancelled / error). Standalone step drivers therefore get the
//! same fault-tolerance *and* observability behavior as the full
//! pipeline.
//!
//! [`crate::pipeline`] composes these steps into the classic end-to-end
//! runs; the flow server (`fpga-server`) drives them with a shared cache
//! and a per-stage observer.

use std::sync::Arc;

use fpga_arch::device::Device;
use fpga_arch::Architecture;
use fpga_bitstream::fabric::{verify_against_netlist, Fabric};
use fpga_bitstream::Bitstream;
use fpga_cells::caps::ClbCaps;
use fpga_cells::tech::Tech;
use fpga_netlist::{NetId, Netlist};
use fpga_pack::Clustering;
use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine, Placement, SweepStats};
use fpga_power::PowerReport;
use fpga_route::rrgraph::RrGraph;
use fpga_route::{PathFinderRouter, RouteEngine, RouteResult};
use fpga_synth::{map_to_luts, MapOptions};
use serde_json::Value;

use crate::artifact::Artifact;
use crate::cache::{stage_key, CacheOutcome, StageId};
use crate::pipeline::{FlowCtx, FlowOptions};
use crate::trace::SpanOutcome;
use crate::{stage_err, Result};

/// One stage step's output.
pub struct Staged<T> {
    pub value: Arc<T>,
    /// Which pipeline stage produced this.
    pub stage: StageId,
    /// Content-address of this output (chains the upstream stage's key).
    pub key: String,
    /// The metrics the stage reported when it (first) ran.
    pub metrics: Value,
    /// How the lookup resolved: computed, or served from which cache tier.
    pub outcome: CacheOutcome,
}

impl<T> Staged<T> {
    /// Whether this invocation was served from a cache tier.
    pub fn cache_hit(&self) -> bool {
        self.outcome.is_hit()
    }
}

/// Routing's bundled output: the stage is only meaningful as a whole.
#[derive(Clone)]
pub struct RoutedDesign {
    /// The device the design was routed on — carried so the durable form
    /// can rebuild [`RrGraph`] on load instead of serializing it.
    pub device: Device,
    pub graph: RrGraph,
    pub routing: RouteResult,
    /// Nets on the reported critical path (from the STA), source first.
    pub critical_nets: Vec<NetId>,
}

/// Bitstream generation's bundled output.
#[derive(Clone)]
pub struct GeneratedBitstream {
    pub bitstream: Bitstream,
    pub bytes: Vec<u8>,
}

/// The single funnel every stage step passes through: open a trace span,
/// pass the stage gate (cancellation, injected faults), resolve `compute`
/// through the cache when one is present (directly otherwise), and close
/// the span with the attribution. Every staged type is an [`Artifact`],
/// so a cache backed by a durable store transparently serves misses from
/// disk and persists fresh computations.
///
/// The span is closed on both success and error, so a traced run sees
/// exactly one start/finish pair per entered stage — including stages
/// stopped by a fault, a deadline, or a flow error. The one exception is
/// a *panicking* stage (an injected `Panic` fault): the unwind skips the
/// finish, leaving the span `Pending` — which is itself the signal, and
/// the flow server's worker loop owns that path.
fn run_step<T: Artifact>(
    ctx: FlowCtx,
    stage: StageId,
    key: String,
    compute: impl FnOnce() -> Result<(T, Value)>,
) -> Result<Staged<T>> {
    let span = ctx.trace.map(|t| t.start(stage.name()));
    let result = gated_step(ctx, stage, key, compute);
    if let (Some(log), Some(id)) = (ctx.trace, span) {
        match &result {
            Ok(staged) => log.finish(id, staged.outcome.into(), None),
            Err(e) => log.finish(id, SpanOutcome::from_flow_error(e), Some(e.message.clone())),
        }
    }
    result
}

fn gated_step<T: Artifact>(
    ctx: FlowCtx,
    stage: StageId,
    key: String,
    compute: impl FnOnce() -> Result<(T, Value)>,
) -> Result<Staged<T>> {
    ctx.stage_gate(stage)?;
    match ctx.cache {
        Some(c) => {
            let (value, metrics, outcome) = c.get_or_compute_artifact(stage, &key, compute)?;
            Ok(Staged {
                value,
                stage,
                key,
                metrics,
                outcome,
            })
        }
        None => {
            let (value, metrics) = compute()?;
            Ok(Staged {
                value: Arc::new(value),
                stage,
                key,
                metrics,
                outcome: CacheOutcome::Computed,
            })
        }
    }
}

/// Synthesis: VHDL source to a gate-level netlist (VHDL Parser +
/// DIVINER). Keyed on the source text itself.
pub fn synthesize_vhdl(source: &str, ctx: FlowCtx) -> Result<Staged<Netlist>> {
    let key = stage_key(StageId::Synthesis, &["vhdl", source]);
    run_step(ctx, StageId::Synthesis, key, || {
        let rtl = fpga_synth::diviner::synthesize(source).map_err(stage_err("synthesis"))?;
        let metrics = serde_json::json!({
            "cells": rtl.cells.len(),
            "ffs": rtl.cell_counts().1,
            "nets": rtl.nets.len(),
        });
        Ok((rtl, metrics))
    })
}

/// BLIF upload: parse + validate (the paper's E2FMT hand-off entry).
/// Shares the synthesis counters — it is the flow's front door.
pub fn parse_blif(text: &str, ctx: FlowCtx) -> Result<Staged<Netlist>> {
    let key = stage_key(StageId::Synthesis, &["blif", text]);
    run_step(ctx, StageId::Synthesis, key, || {
        let rtl = fpga_netlist::blif::parse(text).map_err(stage_err("blif"))?;
        rtl.validate().map_err(stage_err("blif"))?;
        let metrics = serde_json::json!({"cells": rtl.cells.len()});
        Ok((rtl, metrics))
    })
}

/// Wrap an already-synthesized netlist as a stage output without running
/// (or counting) anything: the key is its codec bytes, storage order and
/// names included, since every later stage breaks ties by storage order.
pub fn adopt_rtl(rtl: Netlist) -> Staged<Netlist> {
    let bytes = fpga_netlist::codec::netlist_to_bytes(&rtl);
    let key = stage_key(StageId::Synthesis, &[&b"netlist"[..], &bytes]);
    Staged {
        value: Arc::new(rtl),
        stage: StageId::Synthesis,
        key,
        metrics: Value::Null,
        outcome: CacheOutcome::Computed,
    }
}

/// LUT mapping (SIS) plus constant absorption, keyed on the upstream
/// entry's key like every later stage: a key names one artifact.
pub fn lut_map(rtl: &Staged<Netlist>, opts: &FlowOptions, ctx: FlowCtx) -> Result<Staged<Netlist>> {
    let map_opts = MapOptions {
        k: opts.arch.clb.lut_k,
        cut_limit: 10,
    };
    let fingerprint = format!("k={} cut_limit={}", map_opts.k, map_opts.cut_limit);
    let key = stage_key(StageId::LutMap, &[&rtl.key, &fingerprint]);
    let rtl = Arc::clone(&rtl.value);
    run_step(ctx, StageId::LutMap, key, move || {
        let (mut mapped, map_report) =
            map_to_luts(&rtl, map_opts).map_err(stage_err("lut mapping (SIS)"))?;
        fpga_pack::absorb_constants(&mut mapped);
        let metrics = serde_json::json!({
            "luts": map_report.luts,
            "depth": map_report.depth,
            "ffs": map_report.ffs,
        });
        Ok((mapped, metrics))
    })
}

/// Packing (T-VPack): BLEs into CLBs.
pub fn pack(
    mapped: &Staged<Netlist>,
    arch: &Architecture,
    ctx: FlowCtx,
) -> Result<Staged<Clustering>> {
    let key = stage_key(StageId::Pack, &[&mapped.key, &arch.canonical_text()]);
    let mapped = Arc::clone(&mapped.value);
    let clb = arch.clb.clone();
    run_step(ctx, StageId::Pack, key, move || {
        let clustering = fpga_pack::pack(&mapped, &clb).map_err(stage_err("packing (T-VPack)"))?;
        let metrics = serde_json::json!({
            "bles": clustering.bles.len(),
            "clbs": clustering.clusters.len(),
            "utilization": clustering.utilization(),
        });
        Ok((clustering, metrics))
    })
}

/// Placement (VPR simulated annealing).
pub fn place(
    clustering: &Staged<Clustering>,
    opts: &FlowOptions,
    ctx: FlowCtx,
) -> Result<Staged<Placement>> {
    let fingerprint = format!("seed={} inner_num={}", opts.place_seed, opts.place_effort);
    let key = stage_key(
        StageId::Place,
        &[&clustering.key, &opts.arch.canonical_text(), &fingerprint],
    );
    let clustering = Arc::clone(&clustering.value);
    let arch = opts.arch.clone();
    let engine = AnnealingPlacer::new(
        PlaceConfig::new()
            .seed(opts.place_seed)
            .inner_num(opts.place_effort),
    );
    run_step(ctx, StageId::Place, key, move || {
        let nl = &clustering.netlist;
        let io_count = nl.inputs.len() + nl.outputs.len() + 1;
        let device = Device::sized_for(arch, clustering.clusters.len(), io_count);
        let placement = engine
            .place(&clustering, device)
            .map_err(stage_err("placement (VPR)"))?;
        let moves = |of: fn(&SweepStats) -> usize| placement.stats.iter().map(of).sum::<usize>();
        let metrics = serde_json::json!({
            "grid_w": placement.device.width,
            "grid_h": placement.device.height,
            "cost": placement.cost,
            "hpwl": placement.hpwl(),
            "sweeps": placement.stats.len(),
            "moves_attempted": moves(|s| s.attempted),
            "moves_accepted": moves(|s| s.accepted),
        });
        Ok((placement, metrics))
    })
}

/// Routing (VPR PathFinder) plus static timing analysis.
pub fn route(
    clustering: &Staged<Clustering>,
    placement: &Staged<Placement>,
    opts: &FlowOptions,
    ctx: FlowCtx,
) -> Result<Staged<RoutedDesign>> {
    let fingerprint = format!("channel_width={:?}", opts.channel_width);
    let key = stage_key(StageId::Route, &[&placement.key, &fingerprint]);
    let clustering = Arc::clone(&clustering.value);
    let placement = Arc::clone(&placement.value);
    let channel_width = opts.channel_width;
    let engine = PathFinderRouter;
    run_step(ctx, StageId::Route, key, move || {
        let (graph, routing) = match channel_width {
            Some(w) => {
                let g = RrGraph::build(&placement.device, w);
                let r = engine
                    .route(&clustering, &placement, &g)
                    .map_err(stage_err("routing (VPR)"))?;
                (g, r)
            }
            None => {
                let (w, r) = engine
                    .find_min_channel_width(&clustering, &placement, 128)
                    .map_err(stage_err("routing (VPR)"))?;
                (RrGraph::build(&placement.device, w), r)
            }
        };
        let sta = fpga_route::analyze_paths(
            &clustering,
            &placement,
            &routing,
            &graph,
            &fpga_route::timing::TimingModel::default(),
            &fpga_route::LogicDelays::default(),
        );
        // Search effort of the route that produced the result (under the
        // min-W search: of the final probe).
        let search = routing.search_totals();
        let mut metrics = serde_json::json!({
            "channel_width": routing.channel_width,
            "wirelength": routing.wirelength,
            "iterations": routing.iterations,
            "first_legal_iteration": routing.first_legal_iteration(),
            "polished": routing.polished,
            "critical_ns": sta.critical_delay * 1e9,
            "fmax_mhz": sta.fmax() / 1e6,
            "nets_rerouted": routing.stats.iter().map(|r| r.worklist).sum::<usize>(),
            "heap_pops": search.heap_pops,
            "relaxations": search.relaxations,
            "pins_skipped": search.pins_skipped,
        });
        // The search's own effort, under the min-W search only, so a
        // pinned-width report keeps its bytes.
        if let (None, serde_json::Value::Object(m)) = (channel_width, &mut metrics) {
            let routed = routing.probes.iter().filter(|(_, p)| p.routed()).count();
            let skipped = routing.probes.len() - routed;
            m.insert("probes_routed".into(), routed.into());
            m.insert("probes_skipped".into(), skipped.into());
        }
        let routed = RoutedDesign {
            device: placement.device.clone(),
            graph,
            routing,
            critical_nets: sta.critical_path.clone(),
        };
        Ok((routed, metrics))
    })
}

/// Power estimation (PowerModel) over the routed design.
pub fn power(
    clustering: &Staged<Clustering>,
    routed: &Staged<RoutedDesign>,
    opts: &FlowOptions,
    ctx: FlowCtx,
) -> Result<Staged<PowerReport>> {
    // PowerOptions is a plain value struct: its Debug form spells out
    // every field, which is all a process-local key needs.
    let key = stage_key(StageId::Power, &[&routed.key, &format!("{:?}", opts.power)]);
    let clustering = Arc::clone(&clustering.value);
    let routed = Arc::clone(&routed.value);
    let power_opts = opts.power.clone();
    run_step(ctx, StageId::Power, key, move || {
        let tech = Tech::stm018();
        let caps = ClbCaps::from_designs(&tech);
        let power = fpga_power::estimate(
            &clustering,
            Some((&routed.routing, &routed.graph)),
            &tech,
            &caps,
            &power_opts,
        )
        .map_err(stage_err("power (PowerModel)"))?;
        let metrics = serde_json::json!({
            "dynamic_mw": power.dynamic() * 1e3,
            "total_mw": power.total() * 1e3,
        });
        Ok((power, metrics))
    })
}

/// Bitstream generation (DAGGER): frames plus the serialized bytes.
pub fn bitstream(
    clustering: &Staged<Clustering>,
    placement: &Staged<Placement>,
    routed: &Staged<RoutedDesign>,
    ctx: FlowCtx,
) -> Result<Staged<GeneratedBitstream>> {
    let key = stage_key(StageId::Bitstream, &[&routed.key]);
    let clustering = Arc::clone(&clustering.value);
    let placement = Arc::clone(&placement.value);
    let routed = Arc::clone(&routed.value);
    run_step(ctx, StageId::Bitstream, key, move || {
        let bitstream =
            fpga_bitstream::generate(&clustering, &placement, &routed.routing, &routed.graph)
                .map_err(stage_err("bitstream (DAGGER)"))?;
        let bytes = fpga_bitstream::frames::write(&bitstream);
        let budget = fpga_bitstream::config::bit_budget(&bitstream);
        let metrics = serde_json::json!({
            "bytes": bytes.len(),
            "config_bits": budget.total(),
        });
        Ok((GeneratedBitstream { bitstream, bytes }, metrics))
    })
}

/// Verification: emulate the configured fabric against the mapped netlist
/// (the flow's "program the FPGA and check" step). The cached value is
/// the *fact that it passed* for this (bitstream, netlist, cycles) triple.
pub fn verify(
    bits: &Staged<GeneratedBitstream>,
    mapped: &Staged<Netlist>,
    cycles: usize,
    ctx: FlowCtx,
) -> Result<Staged<()>> {
    let key = stage_key(
        StageId::Verify,
        &[&bits.key, &mapped.key, &format!("cycles={cycles}")],
    );
    let bits = Arc::clone(&bits.value);
    let mapped = Arc::clone(&mapped.value);
    run_step(ctx, StageId::Verify, key, move || {
        let parsed =
            fpga_bitstream::frames::parse(&bits.bytes).map_err(stage_err("verify (fabric)"))?;
        let mut fabric = Fabric::new(parsed).map_err(stage_err("verify (fabric)"))?;
        verify_against_netlist(&mut fabric, &mapped, cycles, 0xF00D)
            .map_err(stage_err("verify (fabric)"))?;
        let metrics = serde_json::json!({"cycles": cycles, "match": true});
        Ok(((), metrics))
    })
}
