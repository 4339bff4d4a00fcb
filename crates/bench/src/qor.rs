//! The QoR + speed regression subsystem.
//!
//! This module is the library behind `qor_bench` and `bench-diff`: it
//! runs the registered circuit suite ([`fpga_circuits::qor_suite`])
//! through the full staged pipeline, collects per-stage wall-clock from
//! the flow's own [`TraceLog`] (the same substrate the daemon's metrics
//! registry aggregates — no ad-hoc timers), pairs it with the typed
//! [`QorSummary`] the pipeline now reports, and emits a schema-versioned
//! [`BenchReport`] (`BENCH_<n>.json` at the repo root is the standing
//! trajectory; `BENCH_ci.json` is the per-change smoke record).
//!
//! [`diff`] compares two reports row-by-row with configurable
//! regression thresholds, so "make it faster" PRs (a faster router, AIG
//! mapping) prove their claims — and CI fails when a change quietly
//! regresses wall-clock or QoR.
//!
//! Schema evolution: bump [`BENCH_SCHEMA_VERSION`] whenever a field
//! changes meaning or is removed (pure additions that old readers can
//! ignore do not need a bump). [`diff`] refuses to compare reports
//! across schema versions.

use fpga_circuits::{qor_suite, SuiteEntry, SuiteTier};
use fpga_flow::report::QorSummary;
use fpga_flow::trace::TraceLog;
use fpga_flow::{compile, FlowCtx, FlowOptions, FlowReport, GateMode, Source};
use fpga_server::client::FlowClient;
use fpga_server::proto::{CompileRequest, SourceFormat};
use serde::{Deserialize, Serialize};

/// Version of the `BENCH_*.json` schema. See the module docs for the
/// bump policy.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// How a benchmark run is configured. Everything here is recorded in
/// the emitted report, so two reports are comparable exactly when their
/// recorded configs agree.
#[derive(Clone, Debug)]
pub struct BenchConfig {
    pub tier: SuiteTier,
    pub place_seed: u64,
    /// Annealing effort. The benchmark standard is 1.0 (QoR at default
    /// effort 3.0 is better but the suite's large points triple their
    /// placement time for numbers no trajectory needs).
    pub place_effort: f64,
    /// Bitstream verification cycles (0 = skip the verify stage; the
    /// correctness suites own functional verification).
    pub verify_cycles: usize,
    /// Restrict the run to these design names (empty = whole tier).
    /// Filtered reports still diff: missing rows are regressions only
    /// when the *baseline* had them, and a subset run is for debugging,
    /// not for checking in.
    pub only: Vec<String>,
    /// Cross-stage equivalence checking mode for the run. `Off` (the
    /// default) keeps trajectory numbers comparable with pre-verify
    /// baselines; `Warn`/`Deny` add the `verify:*` spans, reported in
    /// the per-row `verify_ms` column (and inside `wall_ms`).
    pub verify: GateMode,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            tier: SuiteTier::Smoke,
            place_seed: 1,
            place_effort: 1.0,
            verify_cycles: 0,
            only: Vec::new(),
            verify: GateMode::Off,
        }
    }
}

/// One stage's share of a design's wall-clock, with its cache-tier
/// attribution (`computed`, `memory-hit`, `disk-hit`) from the trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StageTime {
    pub stage: String,
    pub ms: f64,
    pub tier: String,
}

/// One suite design's benchmark row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DesignRow {
    /// Stable suite-registry name (`rent_1k`, `mult32`, ...).
    pub name: String,
    pub qor: QorSummary,
    /// Total wall-clock across all pipeline stages, in milliseconds —
    /// the sum of the trace spans, so it excludes netlist generation.
    pub wall_ms: f64,
    /// Wall-clock spent in the cross-stage equivalence gates — the sum
    /// of the `verify:*` spans, already included in `wall_ms`. Zero on
    /// verify-off runs; `None` on reports from before the column
    /// existed (the vendored serde treats absent `Option` fields as
    /// `None`, so old reports still load).
    pub verify_ms: Option<f64>,
    pub stages: Vec<StageTime>,
}

/// Where the run happened.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HostInfo {
    pub os: String,
    pub arch: String,
    pub threads: u64,
}

impl HostInfo {
    pub fn current() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }
}

/// Suite-level aggregates, geomeans over the rows.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Aggregate {
    pub designs: u64,
    pub total_luts: u64,
    pub total_wall_ms: f64,
    /// Total wall-clock inside the `verify:*` equivalence gates (already
    /// part of `total_wall_ms`); zero when the run had verify off,
    /// `None` on pre-column reports.
    pub total_verify_ms: Option<f64>,
    pub geomean_wall_ms: f64,
    pub geomean_critical_ns: f64,
    pub geomean_wirelength: f64,
    pub geomean_power_mw: f64,
}

/// Cache-tier counters scraped from a live daemon's typed `metrics`
/// verb after a `--via-daemon` run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DaemonCacheStats {
    pub memory_hits: u64,
    pub disk_hits: u64,
    pub misses: u64,
}

/// A complete schema-versioned benchmark report — the content of every
/// `BENCH_*.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchReport {
    pub schema_version: u32,
    pub flow_version: String,
    /// `git rev-parse --short HEAD` at run time, or `"unknown"`.
    pub git_rev: String,
    /// `smoke` or `full`.
    pub tier: String,
    pub place_seed: u64,
    pub place_effort: f64,
    pub verify_cycles: u64,
    /// Equivalence-checking mode the run used (`off`/`warn`/`deny`);
    /// `None` on reports from before the column existed (same as `off`).
    pub verify: Option<String>,
    /// Place-and-route worker threads a run asked for, on reports from
    /// before P&R ran on one thread (`BENCH_2.json`, `BENCH_3.json`);
    /// `None` on every newer report. Never affected QoR columns.
    pub pnr_threads: Option<u64>,
    /// Whether the rows went through a live `flowd` (wire path, shared
    /// cache) instead of the in-process pipeline.
    pub via_daemon: bool,
    pub host: HostInfo,
    pub rows: Vec<DesignRow>,
    pub aggregate: Aggregate,
    /// Present on `--via-daemon` runs: the daemon's cache-tier counters
    /// after the suite, from the typed `metrics` verb.
    pub daemon_cache: Option<DaemonCacheStats>,
}

impl BenchReport {
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_else(|e| {
            // Serialization of a value we just built cannot fail with the
            // vendored writer; keep a readable artifact if it ever does.
            format!("{{\"error\":\"{e}\"}}")
        });
        s.push('\n');
        s
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: BenchReport =
            serde_json::from_str(text).map_err(|e| format!("bad bench report: {e}"))?;
        Ok(report)
    }

    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }

    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    pub fn row(&self, name: &str) -> Option<&DesignRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Geometric mean. Non-positive samples are floored at a microscopic
/// epsilon so a zero-delay row cannot collapse the whole aggregate.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (sum / xs.len() as f64).exp()
}

fn aggregate(rows: &[DesignRow]) -> Aggregate {
    let wall: Vec<f64> = rows.iter().map(|r| r.wall_ms).collect();
    let crit: Vec<f64> = rows.iter().map(|r| r.qor.critical_path_ns).collect();
    let wirelen: Vec<f64> = rows.iter().map(|r| r.qor.wirelength as f64).collect();
    let power: Vec<f64> = rows.iter().map(|r| r.qor.power_mw).collect();
    Aggregate {
        designs: rows.len() as u64,
        total_luts: rows.iter().map(|r| r.qor.luts).sum(),
        total_wall_ms: wall.iter().sum(),
        total_verify_ms: Some(rows.iter().filter_map(|r| r.verify_ms).sum()),
        geomean_wall_ms: geomean(&wall),
        geomean_critical_ns: geomean(&crit),
        geomean_wirelength: geomean(&wirelen),
        geomean_power_mw: geomean(&power),
    }
}

/// The suite entries a config selects: `Smoke` runs the smoke tier
/// only, `Full` runs everything.
pub fn entries_for(tier: SuiteTier) -> Vec<SuiteEntry> {
    qor_suite()
        .into_iter()
        .filter(|e| tier == SuiteTier::Full || e.tier == SuiteTier::Smoke)
        .collect()
}

/// The tier's entries narrowed by `cfg.only`; unknown names are an
/// error (a typo would otherwise silently bench nothing).
fn selected_entries(cfg: &BenchConfig) -> Result<Vec<SuiteEntry>, String> {
    let entries = entries_for(cfg.tier);
    if cfg.only.is_empty() {
        return Ok(entries);
    }
    for name in &cfg.only {
        if !entries.iter().any(|e| e.name == name.as_str()) {
            return Err(format!(
                "--only '{name}' is not in the {} tier (try --list)",
                tier_name(cfg.tier)
            ));
        }
    }
    Ok(entries
        .into_iter()
        .filter(|e| cfg.only.iter().any(|n| n == e.name))
        .collect())
}

fn tier_name(tier: SuiteTier) -> &'static str {
    match tier {
        SuiteTier::Smoke => "smoke",
        SuiteTier::Full => "full",
    }
}

fn flow_options(entry: &SuiteEntry, cfg: &BenchConfig) -> FlowOptions {
    let mut b = FlowOptions::builder()
        .place_seed(cfg.place_seed)
        .place_effort(cfg.place_effort)
        .verify_cycles(cfg.verify_cycles)
        .verify(cfg.verify);
    if let Some(w) = entry.channel_width {
        b = b.channel_width(w);
    }
    b.build()
}

/// Run one suite design through the in-process pipeline, timing every
/// stage through the flow's own [`TraceLog`].
pub fn run_design(entry: &SuiteEntry, cfg: &BenchConfig) -> Result<DesignRow, String> {
    let netlist = (entry.build)();
    let opts = flow_options(entry, cfg);
    let trace = TraceLog::new();
    let ctx = FlowCtx::builder().trace(&trace).build();
    let compiled = compile(Source::Netlist(netlist), &opts, ctx)
        .map_err(|e| format!("design '{}' failed: {e}", entry.name))?;
    let qor = compiled
        .report
        .qor
        .ok_or_else(|| format!("design '{}' completed without a QoR summary", entry.name))?;
    Ok(row_from_spans(entry.name, qor, &trace.spans()))
}

fn row_from_spans(name: &str, qor: QorSummary, spans: &[fpga_flow::trace::TraceSpan]) -> DesignRow {
    let stages: Vec<StageTime> = spans
        .iter()
        .map(|s| StageTime {
            stage: s.stage.clone(),
            ms: s.duration_us() as f64 / 1e3,
            tier: s.outcome.label().to_string(),
        })
        .collect();
    let wall_ms = stages.iter().map(|s| s.ms).sum();
    let verify_ms = stages
        .iter()
        .filter(|s| s.stage.starts_with("verify:"))
        .map(|s| s.ms)
        .sum();
    DesignRow {
        name: name.to_string(),
        qor,
        wall_ms,
        verify_ms: Some(verify_ms),
        stages,
    }
}

/// Assemble a full, schema-versioned report from already-measured rows.
/// The suite runners call this; it is public so harnesses (and tests)
/// can build reports from hand-picked row subsets.
pub fn assemble(cfg: &BenchConfig, via_daemon: bool, rows: Vec<DesignRow>) -> BenchReport {
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        flow_version: fpga_flow::FLOW_VERSION.to_string(),
        git_rev: git_rev(),
        tier: tier_name(cfg.tier).to_string(),
        place_seed: cfg.place_seed,
        place_effort: cfg.place_effort,
        verify_cycles: cfg.verify_cycles as u64,
        verify: Some(cfg.verify.name().to_string()),
        pnr_threads: None,
        via_daemon,
        host: HostInfo::current(),
        aggregate: aggregate(&rows),
        rows,
        daemon_cache: None,
    }
}

/// Run the configured tier in-process and assemble the report.
/// `progress` is called before each design with (index, count, name).
pub fn run_suite(
    cfg: &BenchConfig,
    mut progress: impl FnMut(usize, usize, &str),
) -> Result<BenchReport, String> {
    let entries = selected_entries(cfg)?;
    let mut rows = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        progress(i, entries.len(), entry.name);
        rows.push(run_design(entry, cfg)?);
    }
    Ok(assemble(cfg, false, rows))
}

/// Run the configured tier through a live `flowd` at `addr` (TCP),
/// measuring the wire path: each design is serialized to BLIF,
/// submitted with `trace`, and timed from the daemon's own span tree —
/// so rows carry the daemon's cache-tier attribution per stage. After
/// the suite, the daemon's typed `metrics` verb is scraped for the
/// aggregate tier counters.
pub fn run_suite_via_daemon(
    addr: &str,
    cfg: &BenchConfig,
    mut progress: impl FnMut(usize, usize, &str),
) -> Result<BenchReport, String> {
    let entries = selected_entries(cfg)?;
    let mut client =
        FlowClient::connect_tcp(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut rows = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        progress(i, entries.len(), entry.name);
        rows.push(run_design_via_daemon(&mut client, entry, cfg)?);
    }
    let mut report = assemble(cfg, true, rows);
    report.daemon_cache = Some(scrape_cache_stats(&mut client)?);
    Ok(report)
}

/// One design over the wire; see [`run_suite_via_daemon`].
pub fn run_design_via_daemon(
    client: &mut FlowClient,
    entry: &SuiteEntry,
    cfg: &BenchConfig,
) -> Result<DesignRow, String> {
    let netlist = (entry.build)();
    let blif = fpga_netlist::blif::write(&netlist)
        .map_err(|e| format!("design '{}' has no BLIF form: {e}", entry.name))?;
    let mut options = serde_json::Map::new();
    options.insert("place_seed".into(), cfg.place_seed.into());
    options.insert("place_effort".into(), cfg.place_effort.into());
    options.insert("verify_cycles".into(), (cfg.verify_cycles as u64).into());
    if cfg.verify.enabled() {
        options.insert("verify".into(), cfg.verify.name().into());
    }
    if let Some(w) = entry.channel_width {
        options.insert("channel_width".into(), (w as u64).into());
    }
    let mut req = CompileRequest::new(SourceFormat::Blif, blif)
        .with_options(serde_json::Value::Object(options))
        .map_err(|e| format!("design '{}': bad options: {e}", entry.name))?;
    req.trace = true;
    let outcome = client
        .compile_request(&req)
        .map_err(|e| format!("design '{}' failed over the wire: {e}", entry.name))?;
    let report: FlowReport = serde_json::from_value(&outcome.report)
        .map_err(|e| format!("design '{}': bad flow report: {e}", entry.name))?;
    let qor = report
        .qor
        .ok_or_else(|| format!("design '{}': daemon sent no QoR summary", entry.name))?;
    let trace = outcome
        .trace
        .ok_or_else(|| format!("design '{}': daemon sent no trace", entry.name))?;
    let spans = fpga_flow::trace::spans_from_value(&trace)
        .map_err(|e| format!("design '{}': {e}", entry.name))?;
    Ok(row_from_spans(entry.name, qor, &spans))
}

/// Pull the cache-tier counters out of a `metrics` snapshot (the typed
/// verb's JSON form carries the snapshot at the event root:
/// `{"event":"metrics","cache":{"memory_hits":..,"disk_hits":..,"misses":..},...}`).
fn scrape_cache_stats(client: &mut FlowClient) -> Result<DaemonCacheStats, String> {
    let snapshot = client
        .metrics(false)
        .map_err(|e| format!("metrics verb failed: {e}"))?;
    let cache = &snapshot["cache"];
    let count = |k: &str| cache[k].as_u64().unwrap_or(0);
    Ok(DaemonCacheStats {
        memory_hits: count("memory_hits"),
        disk_hits: count("disk_hits"),
        misses: count("misses"),
    })
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

// --- Regression diff ---------------------------------------------------

/// Regression threshold for [`diff`]. A *regression* is the current
/// report being worse than baseline by more than the threshold; getting
/// better is always fine (and reported as a note). Wall-clock is not
/// gated here — it drifts 10–30 % on a shared host, and `flowbench`
/// owns timing claims; the geomean delta is printed for the reader.
#[derive(Clone, Debug)]
pub struct DiffThresholds {
    /// Max tolerated per-design QoR growth, percent, for every
    /// lower-is-better metric (critical path, channel width, wirelength,
    /// LUTs, CLBs, power).
    pub max_qor_regress_pct: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            max_qor_regress_pct: 5.0,
        }
    }
}

/// The outcome of comparing two reports.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// Failures: each line names the design, the metric, both values,
    /// and the threshold it broke.
    pub regressions: Vec<String>,
    /// Non-fatal observations (improvements, new rows, host changes).
    pub notes: Vec<String>,
    /// Designs present in both reports.
    pub compared: usize,
    /// Geomean wall-clock over the common rows: (baseline, current).
    pub wall_geomean_ms: (f64, f64),
}

impl DiffOutcome {
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Render a human-readable verdict.
    pub fn render(&self) -> String {
        let (base, cur) = self.wall_geomean_ms;
        let delta = if base > 0.0 {
            (cur / base - 1.0) * 100.0
        } else {
            0.0
        };
        let mut out = format!(
            "bench-diff: {} designs compared, geomean wall {:.1} ms -> {:.1} ms ({:+.1}%)\n",
            self.compared, base, cur, delta
        );
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        for r in &self.regressions {
            out.push_str(&format!("  REGRESSION: {r}\n"));
        }
        out.push_str(if self.passed() {
            "PASS: no regressions beyond thresholds.\n"
        } else {
            "FAIL: regressions beyond thresholds.\n"
        });
        out
    }
}

/// Compare `current` against `baseline`. Refuses mismatched schema
/// versions and reports that came through different front doors; a
/// design missing from `current` is a regression (rows are
/// append-only); every lower-is-better QoR metric is checked against
/// the threshold.
pub fn diff(baseline: &BenchReport, current: &BenchReport, th: &DiffThresholds) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    if baseline.schema_version != current.schema_version {
        out.regressions.push(format!(
            "schema version mismatch: baseline v{}, current v{} (regenerate the baseline)",
            baseline.schema_version, current.schema_version
        ));
        return out;
    }
    // `--via-daemon` ships each design as BLIF, which reads back as SOP
    // covers and maps differently (`rent_1k`: 1594 LUTs over the wire,
    // 1373 in process), so rows from the two paths never compare.
    if baseline.via_daemon != current.via_daemon {
        let path = |via_daemon| {
            if via_daemon {
                "via a daemon"
            } else {
                "in process"
            }
        };
        out.regressions.push(format!(
            "front door mismatch: baseline ran {}, current ran {} (BLIF over the wire maps differently; compare like with like)",
            path(baseline.via_daemon),
            path(current.via_daemon)
        ));
        return out;
    }
    if baseline.place_seed != current.place_seed
        || baseline.place_effort != current.place_effort
        || baseline.verify_cycles != current.verify_cycles
    {
        out.notes.push(format!(
            "configs differ (seed {}→{}, effort {}→{}, verify {}→{}): QoR deltas may be config, not code",
            baseline.place_seed, current.place_seed,
            baseline.place_effort, current.place_effort,
            baseline.verify_cycles, current.verify_cycles,
        ));
    }
    if baseline.host.os != current.host.os || baseline.host.arch != current.host.arch {
        out.notes.push(format!(
            "hosts differ ({}-{} vs {}-{}): wall-clock deltas are cross-machine",
            baseline.host.os, baseline.host.arch, current.host.os, current.host.arch
        ));
    }

    let mut base_wall = Vec::new();
    let mut cur_wall = Vec::new();
    for b in &baseline.rows {
        let Some(c) = current.row(&b.name) else {
            out.regressions.push(format!(
                "design '{}' present in baseline but missing from current (suite rows are append-only)",
                b.name
            ));
            continue;
        };
        out.compared += 1;
        base_wall.push(b.wall_ms);
        cur_wall.push(c.wall_ms);
        for (metric, bv, cv) in qor_metrics(&b.qor, &c.qor) {
            if bv <= 0.0 {
                continue;
            }
            let pct = (cv / bv - 1.0) * 100.0;
            if pct > th.max_qor_regress_pct {
                out.regressions.push(format!(
                    "{}: {metric} {bv:.3} -> {cv:.3} (+{pct:.1}%, threshold {:.1}%)",
                    b.name, th.max_qor_regress_pct
                ));
            } else if pct < -th.max_qor_regress_pct {
                out.notes
                    .push(format!("{}: {metric} improved {bv:.3} -> {cv:.3}", b.name));
            }
        }
    }
    for c in &current.rows {
        if baseline.row(&c.name).is_none() {
            out.notes
                .push(format!("new design '{}' (no baseline row yet)", c.name));
        }
    }

    out.wall_geomean_ms = (geomean(&base_wall), geomean(&cur_wall));
    out
}

/// The lower-is-better QoR metric pairs a diff inspects.
fn qor_metrics(b: &QorSummary, c: &QorSummary) -> Vec<(&'static str, f64, f64)> {
    vec![
        ("critical_path_ns", b.critical_path_ns, c.critical_path_ns),
        (
            "channel_width",
            b.channel_width as f64,
            c.channel_width as f64,
        ),
        ("wirelength", b.wirelength as f64, c.wirelength as f64),
        ("luts", b.luts as f64, c.luts as f64),
        ("clbs", b.clbs as f64, c.clbs as f64),
        ("power_mw", b.power_mw, c.power_mw),
    ]
}

/// Render the trajectory table documentation and EXPERIMENTS.md embed:
/// one row per design, markdown.
pub fn render_table(report: &BenchReport) -> String {
    // The verify column only appears when the run actually checked
    // equivalence — verify-off (and pre-column) reports keep the table
    // shape their baselines were rendered with.
    let verified = report
        .verify
        .as_deref()
        .map(|m| m != "off")
        .unwrap_or(false);
    let mut out = if verified {
        String::from(
            "| design | LUTs | CLBs | W | critical ns | fmax MHz | power mW | wall ms | verify ms |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        )
    } else {
        String::from(
            "| design | LUTs | CLBs | W | critical ns | fmax MHz | power mW | wall ms |\n\
             |---|---|---|---|---|---|---|---|\n",
        )
    };
    for r in &report.rows {
        let verify_col = if verified {
            format!(" {:.0} |", r.verify_ms.unwrap_or(0.0))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.2} | {:.1} | {:.2} | {:.0} |{verify_col}\n",
            r.name,
            r.qor.luts,
            r.qor.clbs,
            r.qor.channel_width,
            r.qor.critical_path_ns,
            r.qor.fmax_mhz,
            r.qor.power_mw,
            r.wall_ms
        ));
    }
    let verify_total = if verified {
        format!(" {:.0} |", report.aggregate.total_verify_ms.unwrap_or(0.0))
    } else {
        String::new()
    };
    out.push_str(&format!(
        "| **geomean / total** | {} | | | {:.2} | | {:.2} | {:.0} |{verify_total}\n",
        report.aggregate.total_luts,
        report.aggregate.geomean_critical_ns,
        report.aggregate.geomean_power_mw,
        report.aggregate.total_wall_ms
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, wall: f64, crit: f64, luts: u64) -> DesignRow {
        DesignRow {
            name: name.to_string(),
            qor: QorSummary {
                luts,
                ffs: 1,
                clbs: luts / 4 + 1,
                grid_w: 8,
                grid_h: 8,
                channel_width: 12,
                wirelength: 100 * luts,
                critical_path_ns: crit,
                fmax_mhz: 1e3 / crit,
                power_mw: 2.0,
            },
            wall_ms: wall,
            verify_ms: None,
            stages: vec![StageTime {
                stage: "route".into(),
                ms: wall,
                tier: "computed".into(),
            }],
        }
    }

    fn report(rows: Vec<DesignRow>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            flow_version: "test".into(),
            git_rev: "deadbeef".into(),
            tier: "smoke".into(),
            place_seed: 1,
            place_effort: 1.0,
            verify_cycles: 0,
            verify: None,
            pnr_threads: None,
            via_daemon: false,
            host: HostInfo::current(),
            aggregate: aggregate(&rows),
            rows,
            daemon_cache: None,
        }
    }

    #[test]
    fn pre_parallelism_reports_still_load() {
        // Reports written before the schema grew `pnr_threads` (e.g. a
        // checked-in BENCH_1.json baseline) must keep deserializing,
        // with the missing field reading as "engine default".
        let mut r = report(vec![row("add32", 12.0, 10.0, 50)]);
        r.pnr_threads = Some(8);
        let v: serde_json::Value = serde_json::from_str(&r.to_json()).expect("valid json");
        let serde_json::Value::Object(fields) = v else {
            panic!("report is not an object")
        };
        let mut stripped = serde_json::Map::new();
        for (k, val) in fields {
            if k != "pnr_threads" {
                stripped.insert(k, val);
            }
        }
        let old_wire = serde_json::Value::Object(stripped).to_string();
        let loaded = BenchReport::from_json(&old_wire).expect("loads");
        assert_eq!(loaded.pnr_threads, None);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0, 16.0]) - 8.0).abs() < 1e-9);
        // A zero sample is floored, not fatal.
        assert!(geomean(&[0.0, 8.0]) > 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = report(vec![row("add32", 12.0, 10.0, 50)]);
        r.daemon_cache = Some(DaemonCacheStats {
            memory_hits: 8,
            disk_hits: 0,
            misses: 8,
        });
        let back = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0].name, "add32");
        assert_eq!(back.rows[0].qor.luts, 50);
        assert_eq!(back.rows[0].stages[0].tier, "computed");
        assert_eq!(back.daemon_cache.as_ref().unwrap().memory_hits, 8);
        assert!((back.aggregate.geomean_wall_ms - 12.0).abs() < 1e-9);
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(vec![row("a", 10.0, 5.0, 100), row("b", 20.0, 7.0, 200)]);
        let out = diff(&r, &r.clone(), &DiffThresholds::default());
        assert!(out.passed(), "{:?}", out.regressions);
        assert_eq!(out.compared, 2);
        assert!(out.render().contains("PASS"));
    }

    #[test]
    fn wall_clock_is_reported_never_gated() {
        let base = report(vec![row("a", 10.0, 5.0, 100)]);
        let slower = report(vec![row("a", 15.0, 5.0, 100)]);
        let out = diff(&base, &slower, &DiffThresholds::default());
        assert!(out.passed(), "{:?}", out.regressions);
        assert!(out.render().contains("(+50.0%)"), "{}", out.render());
    }

    #[test]
    fn qor_regression_fails_per_design() {
        let base = report(vec![row("a", 10.0, 5.0, 100)]);
        let worse = report(vec![row("a", 10.0, 5.0, 120)]); // +20% LUTs
        let out = diff(&base, &worse, &DiffThresholds::default());
        assert!(!out.passed());
        assert!(
            out.regressions.iter().any(|r| r.contains("luts")),
            "{:?}",
            out.regressions
        );
        // Improvement is a note, never a failure.
        let better = report(vec![row("a", 10.0, 5.0, 80)]);
        let out = diff(&base, &better, &DiffThresholds::default());
        assert!(out.passed());
        assert!(out.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn missing_design_is_a_regression_new_design_is_a_note() {
        let base = report(vec![row("a", 10.0, 5.0, 100), row("b", 10.0, 5.0, 100)]);
        let cur = report(vec![row("a", 10.0, 5.0, 100), row("c", 10.0, 5.0, 100)]);
        let out = diff(&base, &cur, &DiffThresholds::default());
        assert!(!out.passed());
        assert!(out.regressions.iter().any(|r| r.contains("'b'")));
        assert!(out.notes.iter().any(|n| n.contains("'c'")));
    }

    #[test]
    fn schema_mismatch_refuses_to_compare() {
        let base = report(vec![row("a", 10.0, 5.0, 100)]);
        let mut cur = base.clone();
        cur.schema_version += 1;
        let out = diff(&base, &cur, &DiffThresholds::default());
        assert!(!out.passed());
        assert_eq!(out.compared, 0);
        assert!(out.regressions[0].contains("schema version"));
    }

    #[test]
    fn front_door_mismatch_refuses_to_compare() {
        let base = report(vec![row("a", 10.0, 5.0, 100)]);
        let mut wire = base.clone();
        wire.via_daemon = true;
        for (b, c) in [(&base, &wire), (&wire, &base)] {
            let out = diff(b, c, &DiffThresholds::default());
            assert!(!out.passed());
            assert_eq!(out.compared, 0);
            assert_eq!(out.regressions.len(), 1);
            assert!(out.regressions[0].contains("front door mismatch"));
        }
        // Two wire reports still compare.
        let out = diff(&wire, &wire.clone(), &DiffThresholds::default());
        assert!(out.passed());
        assert_eq!(out.compared, 1);
    }

    #[test]
    fn thresholds_are_configurable() {
        let base = report(vec![row("a", 10.0, 5.0, 100)]);
        let worse = report(vec![row("a", 30.0, 5.0, 106)]);
        let lax = DiffThresholds {
            max_qor_regress_pct: 10.0,
        };
        // Tripled wall-clock is reported, never gated.
        assert!(diff(&base, &worse, &lax).passed());
        let strict = DiffThresholds {
            max_qor_regress_pct: 1.0,
        };
        assert!(!diff(&base, &worse, &strict).passed());
    }

    #[test]
    fn entries_for_tiers_nest() {
        let smoke = entries_for(SuiteTier::Smoke);
        let full = entries_for(SuiteTier::Full);
        assert!(smoke.len() >= 5);
        assert!(full.len() > smoke.len());
        for e in &smoke {
            assert!(full.iter().any(|f| f.name == e.name), "smoke ⊂ full");
        }
    }

    #[test]
    fn smoke_design_runs_and_fills_every_field() {
        let entry = fpga_circuits::suite_entry("add32").unwrap();
        let cfg = BenchConfig::default();
        let row = run_design(&entry, &cfg).unwrap();
        assert_eq!(row.name, "add32");
        assert!(row.qor.luts > 0);
        assert!(row.qor.clbs > 0);
        assert!(row.qor.channel_width > 0);
        assert!(row.qor.critical_path_ns > 0.0);
        assert!(row.qor.power_mw > 0.0);
        assert!(row.wall_ms > 0.0);
        // In-memory entry (no synthesis span), verify_cycles = 0: six
        // staged steps, all computed.
        assert_eq!(row.stages.len(), 6);
        assert!(row.stages.iter().all(|s| s.tier == "computed"));
        let table = render_table(&report(vec![row]));
        assert!(table.contains("add32"), "{table}");
    }

    #[test]
    fn render_table_has_header_and_geomean() {
        let t = render_table(&report(vec![row("x", 1.0, 2.0, 3)]));
        assert!(t.contains("| design |"));
        assert!(t.contains("geomean"));
        // Verify-off runs keep the pre-verify table shape.
        assert!(!t.contains("verify ms"));
    }

    #[test]
    fn verify_deny_run_is_clean_and_reports_its_wall_clock() {
        let entry = fpga_circuits::suite_entry("add32").unwrap();
        let cfg = BenchConfig {
            verify: GateMode::Deny,
            ..Default::default()
        };
        // Deny means a non-equivalent stage artifact would have failed
        // the whole run; completing is the equivalence proof.
        let checked = run_design(&entry, &cfg).unwrap();
        assert!(checked.verify_ms.unwrap_or(0.0) > 0.0);
        assert!(checked
            .stages
            .iter()
            .any(|s| s.stage.starts_with("verify:")));

        // QoR must be untouched by the gates — only wall-clock moves.
        let baseline = run_design(&entry, &BenchConfig::default()).unwrap();
        assert_eq!(checked.qor.wirelength, baseline.qor.wirelength);
        assert_eq!(checked.qor.luts, baseline.qor.luts);

        let mut r = report(vec![checked]);
        r.verify = Some("deny".to_string());
        let t = render_table(&r);
        assert!(t.contains("verify ms"), "{t}");
    }

    #[test]
    fn pre_verify_reports_still_load() {
        // Baselines written before the verify columns existed must keep
        // deserializing, with the missing fields reading as verify-off.
        let r = report(vec![row("add32", 12.0, 10.0, 50)]);
        let v: serde_json::Value = serde_json::from_str(&r.to_json()).expect("valid json");
        let serde_json::Value::Object(fields) = v else {
            panic!("report is not an object")
        };
        let mut stripped = serde_json::Map::new();
        for (k, val) in fields {
            if k != "verify" {
                stripped.insert(k, val);
            }
        }
        let old_wire = serde_json::Value::Object(stripped).to_string();
        let loaded = BenchReport::from_json(&old_wire).expect("loads");
        assert_eq!(loaded.verify, None);
    }
}
