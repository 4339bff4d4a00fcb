//! The uncached in-process workloads: `cold_rent`, `cold_mult`,
//! `minw_small`. A request is one `run_netlist` call: one thread of
//! deterministic computation that never waits for I/O, so every pass over
//! a design does exactly the same work and whatever makes one pass slower
//! than another is the host, not the program. Two consequences:
//!
//! - a pass is timed on the process's CPU clock, which agrees with the
//!   wall clock to a tenth of a percent on an idle machine and leaves out
//!   the time a virtual CPU was given to someone else;
//! - a design's cost is its *fastest* pass. On the shared host the
//!   benchmark is sized for, busy neighbours slow this guest's cores by
//!   a tenth to a third for seconds to minutes at a time without any of
//!   it showing up as stolen time; the slowdown is one-sided, so the
//!   fastest pass is the steadiest estimate of what the program costs
//!   (the measured spreads are in `benchmark/README.md`).

use std::time::Instant;

use fpga_flow::hash::digest_hex;
use fpga_flow::stages::{self, Staged};
use fpga_flow::{run_netlist, Artifact, EquivGate, FlowCtx, FlowOptions};
use fpga_lint::Severity;
use fpga_netlist::Netlist;
use fpga_route::timing::TimingModel;
use fpga_route::{analyze_paths, LogicDelays, PathFinderRouter, RouteConfig, RouteEngine, RrGraph};

use crate::report::{peak_rss_mb, process_cpu_s, Checks, Outcome};
use crate::spans::Recorder;
use crate::stats::{fastest, geomean, median, percentile};

/// Set-ups timed back to back at the start of every pass over the design
/// set, so that a run's samples are spread over its whole length;
/// `setup_s` is the fastest of them, for the reason `compile_s` is.
const SETUP_BURST: usize = 5;
/// Annealing effort of every benchmark compile (the `qor_bench` standard).
pub const PLACE_EFFORT: f64 = 1.0;

pub struct Design {
    pub name: &'static str,
    pub build: fn() -> Netlist,
    /// Pinned channel width; `None` binary-searches the minimum.
    pub width: Option<usize>,
}

fn suite(name: &'static str) -> Design {
    let e = fpga_circuits::suite_entry(name).expect("suite design exists");
    Design {
        name,
        build: e.build,
        width: e.channel_width,
    }
}

/// The fixed design set of a cold workload. The seed does not enter:
/// QoR numbers must repeat exactly from run to run.
pub fn designs(workload: &str) -> Vec<Design> {
    match workload {
        "cold_rent" => vec![suite("rent_1k")],
        "cold_mult" => vec![
            suite("mult16"),
            Design {
                name: "mult24",
                build: || fpga_circuits::multiplier(24),
                width: Some(34),
            },
        ],
        "minw_small" => ["add32", "alu8", "mult8", "crc16", "fsm_chain_4x8"]
            .into_iter()
            .map(suite)
            .collect(),
        other => panic!("'{other}' is not a cold workload"),
    }
}

/// All timed P&R runs use one thread: the repeatable configuration on a
/// shared 2-core host.
fn options(d: &Design, threads: usize) -> FlowOptions {
    let b = FlowOptions::builder()
        .place_effort(PLACE_EFFORT)
        .verify_cycles(0)
        .threads(threads);
    match d.width {
        Some(w) => b.channel_width(w).build(),
        None => b.build(),
    }
}

/// Generate, validate and fingerprint the inputs once. Returns (CPU
/// seconds, generation-only ms, netlists).
fn setup(designs: &[Design]) -> (f64, f64, Vec<Netlist>) {
    let t = process_cpu_s();
    let netlists: Vec<Netlist> = designs.iter().map(|d| (d.build)()).collect();
    let build_ms = (process_cpu_s() - t) * 1e3;
    for (d, nl) in designs.iter().zip(&netlists) {
        nl.validate()
            .unwrap_or_else(|e| panic!("generated design '{}' is invalid: {e}", d.name));
        let id = digest_hex(&[fpga_netlist::canonical_text(nl).as_bytes()]);
        std::hint::black_box(id);
    }
    (process_cpu_s() - t, build_ms, netlists)
}

/// One design's QoR as the flow reported it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Qor {
    pub fmax_mhz: f64,
    pub wirelength: f64,
    pub channel_width: f64,
    pub power_mw: f64,
}

/// The four QoR end-to-end metrics over a design set.
pub fn qor_values(qors: &[Qor]) -> Vec<(&'static str, f64)> {
    let col = |f: fn(&Qor) -> f64| qors.iter().map(f).collect::<Vec<_>>();
    vec![
        ("fmax_mhz", geomean(&col(|q| q.fmax_mhz))),
        ("wirelength", col(|q| q.wirelength).iter().sum()),
        ("channel_width", col(|q| q.channel_width).iter().sum()),
        ("power_mw", geomean(&col(|q| q.power_mw))),
    ]
}

struct PassResult {
    cpu_s: f64,
    qor: Qor,
    bitstream_sha: String,
}

/// One untraced request. Failures are counted, never panicked on.
fn compile(
    d: &Design,
    rtl: Netlist,
    opts: &FlowOptions,
    checks: &mut Checks,
) -> Option<PassResult> {
    let t = process_cpu_s();
    let result = run_netlist(rtl, opts);
    let cpu_s = process_cpu_s() - t;
    let art = match result {
        Ok(art) => art,
        Err(e) => {
            checks.check(false, || format!("{}: run_netlist failed: {e}", d.name));
            return None;
        }
    };
    let Some(q) = art.report.qor else {
        checks.check(false, || format!("{}: no QoR summary", d.name));
        return None;
    };
    let pinned_ok = d.width.is_none_or(|w| q.channel_width == w as u64);
    checks.check(pinned_ok, || {
        format!(
            "{}: routed at W={} instead of its pinned width",
            d.name, q.channel_width
        )
    });
    Some(PassResult {
        cpu_s,
        qor: Qor {
            fmax_mhz: q.fmax_mhz,
            wirelength: q.wirelength as f64,
            channel_width: q.channel_width as f64,
            power_mw: q.power_mw,
        },
        bitstream_sha: digest_hex(&[&art.bitstream_bytes]),
    })
}

/// Round-robin compiles of the design set, each pass on freshly generated
/// inputs: every design once, then on until `seconds` have elapsed.
struct Passes {
    /// CPU seconds of every set-up.
    setups: Vec<f64>,
    /// Generation-only ms of every set-up.
    build_ms: Vec<f64>,
    /// Per design: CPU seconds of every successful pass.
    costs: Vec<Vec<f64>>,
    /// Per design: QoR and bitstream digest of the first successful pass.
    first: Vec<Option<(Qor, String)>>,
    /// The inputs of the last pass.
    netlists: Vec<Netlist>,
    wall_s: f64,
}

fn run_passes(designs: &[Design], seconds: f64, checks: &mut Checks) -> Passes {
    let opts: Vec<FlowOptions> = designs.iter().map(|d| options(d, 1)).collect();
    let (mut setups, mut build_ms) = (Vec::new(), Vec::new());
    let mut netlists = Vec::new();
    let mut costs = vec![Vec::new(); designs.len()];
    let mut first: Vec<Option<(Qor, String)>> = vec![None; designs.len()];
    let t0 = Instant::now();
    'run: for pass in 0.. {
        for _ in 0..SETUP_BURST {
            let (cost, build, generated) = setup(designs);
            setups.push(cost);
            build_ms.push(build);
            netlists = generated;
        }
        for (i, d) in designs.iter().enumerate() {
            if pass > 0 && t0.elapsed().as_secs_f64() >= seconds {
                break 'run;
            }
            let Some(r) = compile(d, netlists[i].clone(), &opts[i], checks) else {
                continue;
            };
            costs[i].push(r.cpu_s);
            match &first[i] {
                None => first[i] = Some((r.qor, r.bitstream_sha)),
                Some((qor, sha)) => {
                    checks.check(*sha == r.bitstream_sha && *qor == r.qor, || {
                        format!("{}: bitstream or QoR differs between passes", d.name)
                    });
                }
            }
        }
    }
    Passes {
        setups,
        build_ms,
        costs,
        first,
        netlists,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The untraced run: every end-to-end metric.
pub fn timed(workload: &str, seconds: f64) -> Outcome {
    let designs = designs(workload);
    let mut checks = Checks::default();
    let passes = run_passes(&designs, seconds, &mut checks);

    // One latency per design, its fastest pass; the request percentiles
    // are taken over the workload's designs.
    let best_ms: Vec<f64> = passes.costs.iter().map(|c| fastest(c) * 1e3).collect();
    let compile_s = best_ms.iter().sum::<f64>() / 1e3;
    let qors: Vec<Qor> = passes.first.iter().flatten().map(|(q, _)| *q).collect();
    eprintln!(
        "flowbench: {workload}: {} requests over {} designs, {:.1} CPU s in {:.1} wall s",
        passes.costs.iter().map(Vec::len).sum::<usize>(),
        designs.len(),
        passes.costs.iter().flatten().sum::<f64>(),
        passes.wall_s
    );
    for (d, costs) in designs.iter().zip(&passes.costs) {
        eprintln!("flowbench: {workload}: {} pass CPU s: {costs:.3?}", d.name);
    }
    let mut values = vec![
        ("setup_s", fastest(&passes.setups)),
        ("compile_s", compile_s),
        ("req_p50_ms", median(&best_ms)),
        ("req_p95_ms", percentile(&best_ms, 0.95)),
        ("req_per_s", best_ms.len() as f64 / compile_s),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    if qors.len() == designs.len() {
        values.extend(qor_values(&qors));
    }
    values.push(("ok_share", checks.ok_share()));
    Outcome {
        checks,
        values,
        spans: Vec::new(),
    }
}

/// Flatten a stage result into the run's failure accounting.
fn stage<T>(
    checks: &mut Checks,
    design: &str,
    what: &str,
    r: fpga_flow::Result<Staged<T>>,
) -> Option<Staged<T>> {
    match r {
        Ok(s) => Some(s),
        Err(e) => {
            checks.check(false, || format!("{design}: {what} failed: {e}"));
            None
        }
    }
}

/// Counters the traced pass reads off stage outputs.
#[derive(Default)]
struct Counts {
    luts: f64,
    depth: f64,
    clbs: f64,
    utilization: Vec<f64>,
    hpwl: f64,
    grid_tiles: f64,
    rr_nodes: f64,
    iterations: f64,
    bitstream_bytes: f64,
    eq_denies: f64,
    /// Wall of the six timed stages plus glue, i.e. what `run_netlist`
    /// does with verification off.
    pass_ms: f64,
    /// The same pass on the CPU clock, to set against the untraced passes.
    pass_cpu_ms: f64,
}

/// Drive one design through the public stage functions under the
/// benchmark's recorder, then check the bitstream against the source
/// netlist (fabric re-simulation + CEC), split the route stage by calling
/// the router's public pieces directly, and repeat P&R at two threads.
fn traced_design(
    rec: &mut Recorder,
    d: &Design,
    netlist: &Netlist,
    reference_sha: Option<&str>,
    counts: &mut Counts,
    checks: &mut Checks,
) -> Option<()> {
    let opts = options(d, 1);
    let ctx = FlowCtx::default();
    let n = d.name;

    let (t, c) = (Instant::now(), process_cpu_s());
    let (rtl, mapped, clustering, placement, routed, bits) = rec.span("pass", |rec| {
        let rtl = stages::adopt_rtl(netlist.clone());
        let mapped = rec.span("lut_map", |_| stages::lut_map(&rtl, &opts, ctx));
        let mapped = stage(checks, n, "lut_map", mapped)?;
        let clustering = rec.span("pack", |_| stages::pack(&mapped, &opts.arch, ctx));
        let clustering = stage(checks, n, "pack", clustering)?;
        let placement = rec.span("place", |_| stages::place(&clustering, &opts, ctx));
        let placement = stage(checks, n, "place", placement)?;
        let routed = rec.span("route", |_| {
            stages::route(&clustering, &placement, &opts, ctx)
        });
        let routed = stage(checks, n, "route", routed)?;
        let power = rec.span("power", |_| stages::power(&clustering, &routed, &opts, ctx));
        stage(checks, n, "power", power)?;
        let bits = rec.span("bitstream", |_| {
            stages::bitstream(&clustering, &placement, &routed, ctx)
        });
        let bits = stage(checks, n, "bitstream", bits)?;
        Some((rtl, mapped, clustering, placement, routed, bits))
    })?;
    counts.pass_ms += t.elapsed().as_secs_f64() * 1e3;
    counts.pass_cpu_ms += (process_cpu_s() - c) * 1e3;

    counts.luts += mapped.metrics["luts"].as_f64().unwrap_or(0.0);
    counts.depth += mapped.metrics["depth"].as_f64().unwrap_or(0.0);
    counts.clbs += clustering.value.clusters.len() as f64;
    counts.utilization.push(clustering.value.utilization());
    counts.hpwl += placement.value.hpwl() as f64;
    counts.grid_tiles += (placement.value.device.width * placement.value.device.height) as f64;
    counts.iterations += routed.value.routing.iterations as f64;
    counts.bitstream_bytes += bits.value.bytes.len() as f64;
    let routing = &routed.value.routing;
    checks.check(d.width.is_none_or(|w| routing.channel_width == w), || {
        format!(
            "{n}: routed at W={} instead of its pinned width",
            routing.channel_width
        )
    });
    if let Some(sha) = reference_sha {
        checks.check(digest_hex(&[&bits.value.bytes]) == sha, || {
            format!("{n}: stage-by-stage bitstream differs from run_netlist's")
        });
    }

    // Verification is off in timed passes; here it is the correctness
    // check: the independent reference simulator against the configured
    // fabric, then signature CEC at every stage boundary.
    rec.span("verify", |rec| {
        let verified = rec.span("fabric_verify", |_| stages::verify(&bits, &mapped, 32, ctx));
        stage(checks, n, "fabric verify", verified);
        let gate = rec.span("cec:reference", |_| EquivGate::new(&rtl.value));
        let (c, p, r) = (&*clustering.value, &*placement.value, &*routed.value);
        let mut diags = rec.span("cec:mapped", |_| {
            gate.check_netlist("mapped", &mapped.value)
        });
        diags.extend(rec.span("cec:pack", |_| gate.check_clustering(c)));
        diags.extend(rec.span("cec:place", |_| gate.check_placement(c, p)));
        diags.extend(rec.span("cec:route", |_| {
            gate.check_routing(c, p, &r.graph, &r.routing)
        }));
        diags.extend(rec.span("cec:bitstream", |_| {
            gate.check_bitstream(&bits.value.bitstream, c, p)
        }));
        for diag in diags.iter().filter(|d| d.severity == Severity::Deny) {
            counts.eq_denies += 1.0;
            checks.check(false, || format!("{n}: [{}] {}", diag.code, diag.message));
        }
        checks.check(true, String::new);
    });

    // The route stage again, piece by piece, through the router's public
    // API only (`build` / `node_count`, never RrGraph's fields).
    rec.span("route_split", |rec| {
        let engine = PathFinderRouter::new(RouteConfig::new().parallelism(opts.parallelism()));
        let (c, p) = (&*clustering.value, &*placement.value);
        let build = |rec: &mut Recorder, w| {
            rec.span("route.rrgraph_build", |_| RrGraph::build(&p.device, w))
        };
        let found = match opts.channel_width {
            Some(w) => {
                let g = build(rec, w);
                rec.span("route.search", |_| engine.route(c, p, &g))
                    .map(|r| (g, r))
            }
            None => rec
                .span("route.search", |_| engine.find_min_channel_width(c, p, 128))
                .map(|(w, r)| (build(rec, w), r)),
        };
        match found {
            Ok((graph, direct)) => {
                counts.rr_nodes += graph.node_count() as f64;
                rec.span("route.sta", |_| {
                    analyze_paths(
                        c,
                        p,
                        &direct,
                        &graph,
                        &TimingModel::default(),
                        &LogicDelays::default(),
                    )
                });
                let same = direct.channel_width == routing.channel_width
                    && direct.wirelength == routing.wirelength;
                checks.check(same, || {
                    format!("{n}: direct router call disagrees with the stage")
                });
            }
            Err(e) => {
                checks.check(false, || format!("{n}: direct router call failed: {e}"));
            }
        }
    });

    // Thread-scaling datum, and a thread-invariance check on the side.
    rec.span("threads2", |rec| {
        let opts2 = options(d, 2);
        let placed = rec.span("place@t2", |_| stages::place(&clustering, &opts2, ctx));
        let placed = stage(checks, n, "place@t2", placed)?;
        let rerouted = rec.span("route@t2", |_| {
            stages::route(&clustering, &placed, &opts2, ctx)
        });
        let rerouted = stage(checks, n, "route@t2", rerouted)?;
        let same = placed.value.to_bytes() == placement.value.to_bytes()
            && rerouted.value.to_bytes() == routed.value.to_bytes();
        checks.check(same, || {
            format!("{n}: P&R at 2 threads is not bit-identical to 1 thread")
        });
        Some(())
    })
}

/// The traced run: every per-layer metric this workload exercises.
pub fn traced(workload: &str, seconds: f64) -> Outcome {
    let designs = designs(workload);
    let mut checks = Checks::default();
    // Untraced reference for the tracing overhead: the same passes the
    // timed run makes, for a third of its time.
    let passes = run_passes(&designs, seconds / 3.0, &mut checks);
    let netlists = &passes.netlists;
    let untraced_ms: f64 = passes.costs.iter().map(|c| median(c) * 1e3).sum();

    let mut rec = Recorder::new(Instant::now());
    let mut counts = Counts::default();
    for (i, d) in designs.iter().enumerate() {
        rec.set_request(i as u64);
        let sha = passes.first[i].as_ref().map(|(_, sha)| sha.as_str());
        rec.span(&format!("design:{}", d.name), |rec| {
            traced_design(rec, d, &netlists[i], sha, &mut counts, &mut checks)
        });
    }

    const STAGES: [&str; 6] = ["lut_map", "pack", "place", "route", "power", "bitstream"];
    let stage_ms: f64 = STAGES.iter().map(|s| rec.total_ms(s)).sum();
    let cec_ms: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("cec:"))
        .map(|s| s.ms())
        .sum();
    let values = vec![
        ("circuits.build_ms", fastest(&passes.build_ms)),
        ("synth.lut_map_ms", rec.total_ms("lut_map")),
        ("synth.luts", counts.luts),
        ("synth.depth", counts.depth),
        ("pack.pack_ms", rec.total_ms("pack")),
        ("pack.clbs", counts.clbs),
        ("pack.utilization", crate::stats::mean(&counts.utilization)),
        ("place.place_ms", rec.total_ms("place")),
        ("place.hpwl", counts.hpwl),
        ("place.grid_tiles", counts.grid_tiles),
        ("place.place_ms_t2", rec.total_ms("place@t2")),
        ("route.route_ms", rec.total_ms("route")),
        (
            "route.rrgraph_build_ms",
            rec.total_ms("route.rrgraph_build"),
        ),
        ("route.rr_nodes", counts.rr_nodes),
        ("route.search_ms", rec.total_ms("route.search")),
        ("route.sta_ms", rec.total_ms("route.sta")),
        ("route.iterations", counts.iterations),
        ("route.route_ms_t2", rec.total_ms("route@t2")),
        ("power.estimate_ms", rec.total_ms("power")),
        ("bitstream.generate_ms", rec.total_ms("bitstream")),
        ("bitstream.bytes", counts.bitstream_bytes),
        ("bitstream.fabric_verify_ms", rec.total_ms("fabric_verify")),
        ("verify.cec_ms", cec_ms),
        ("verify.eq_denies", counts.eq_denies),
        (
            "trace.stage_cover_share",
            stage_ms / counts.pass_ms.max(1e-9),
        ),
        (
            "trace.overhead_share",
            (counts.pass_cpu_ms - untraced_ms) / untraced_ms.max(1e-9),
        ),
        ("trace.spans", rec.spans().len() as f64),
    ];
    Outcome {
        checks,
        values,
        spans: rec.spans().to_vec(),
    }
}
