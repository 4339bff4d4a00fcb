//! Process-wide metrics for `flowd`: per-stage latency histograms plus
//! the counters the rest of the daemon already keeps (job outcomes,
//! queue depth, cache tiers), gathered into one snapshot for the
//! `metrics` protocol verb.
//!
//! Histograms use fixed millisecond bucket bounds (the classic
//! log-ish ladder 1..5000 ms plus `+Inf`), so two snapshots can be
//! subtracted and exports stay mergeable across restarts. Everything is
//! [`Counter`]s — `observe` on the hot path is a couple of relaxed
//! adds, no locks.
//!
//! Two renderings:
//!
//! * [`MetricsSnapshot::to_json`] — the structured body of the
//!   `{"cmd":"metrics"}` response, a hand-shaped tree;
//! * [`MetricsSnapshot::to_prometheus_text`] — a Prometheus-style text
//!   exposition (`flowd_*` families) for `flowc metrics --text` and
//!   `flowd --metrics-dump`.
//!
//! The exposition is split in two: each family's name, type and help
//! text is declared once, as a named `const` (listed by [`catalogue`]),
//! and the `Exposition` writer owns the text syntax (headers, label
//! escaping, histogram expansion). The snapshots own the values and only
//! list writer calls, each naming its family's const. [`GatewaySnapshot`]
//! renders `flow-gateway`'s `flowgw_*` families the same way.
//!
//! The counter structs here ([`Histogram`], [`RemoteTierCounters`],
//! [`GatewayArtifactCounters`], [`BackendCounters`]) and `fpga_flow`'s
//! ([`StageStats`], [`StoreCounters`](fpga_flow::StoreCounters)) are the
//! live structs their owners increment; a snapshot holds a `clone` of
//! them.

use std::borrow::Cow;
use std::time::Instant;

use fpga_flow::cache::STAGES;
use fpga_flow::sync::Counter;
use fpga_flow::{CheckKind, StageStats, StoreSnapshot};
use fpga_lint::{Diagnostic, Rule, RULES};
use serde_json::Value;

use crate::breaker::{BreakerCounters, BreakerState};
use crate::proto::JobKind;
use crate::tenancy::TenantCounters;

/// Upper bounds (milliseconds, inclusive) of the latency buckets; an
/// implicit `+Inf` bucket follows. Chosen to straddle the stand-in
/// pipeline's stage times (sub-millisecond to seconds under `--fault
/// sleep`).
pub const BUCKET_BOUNDS_MS: [u64; 12] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];

/// A fixed-bucket latency histogram. Cheap to observe, lock-free; a
/// clone is its point-in-time snapshot.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// One slot per bound in [`BUCKET_BOUNDS_MS`] plus the `+Inf` slot.
    /// *Not* cumulative; rendering accumulates.
    buckets: [Counter; BUCKET_BOUNDS_MS.len() + 1],
    count: Counter,
    /// Sum in microseconds: integer atomics, converted to ms on export.
    sum_us: Counter,
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation, in milliseconds.
    pub fn observe_ms(&self, ms: f64) {
        let ms = if ms.is_finite() && ms > 0.0 { ms } else { 0.0 };
        let slot = BUCKET_BOUNDS_MS
            .iter()
            .position(|&bound| ms <= bound as f64)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.buckets[slot].inc();
        self.count.inc();
        self.sum_us.add((ms * 1e3).round() as u64);
    }

    fn sum_ms(&self) -> f64 {
        self.sum_us.get() as f64 / 1e3
    }

    /// Cumulative `(le, count)` buckets, Prometheus-style; `None` is the
    /// `+Inf` bound.
    fn cumulative(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        let mut count = 0;
        self.buckets.iter().enumerate().map(move |(i, n)| {
            count += n.get();
            (BUCKET_BOUNDS_MS.get(i).copied(), count)
        })
    }

    /// JSON form: cumulative `le` buckets.
    pub fn to_json(&self) -> Value {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (le, count) in self.cumulative() {
            let le = le.map_or(Value::from("+Inf"), Value::from);
            buckets.push(serde_json::json!({"le": le, "count": count}));
        }
        serde_json::json!({
            "count": self.count.get(),
            "sum_ms": self.sum_ms(),
            "buckets": Value::Array(buckets),
        })
    }
}

/// The job kinds, in the order every rendering lists their verbs.
const JOB_KINDS: [JobKind; 3] = [
    JobKind::Compile,
    JobKind::Check(CheckKind::Lint),
    JobKind::Check(CheckKind::Verify),
];

/// One histogram per observed job verb, `(verb, histogram)` in
/// [`JOB_KINDS`] order.
pub type JobDurationSnapshot = Vec<(&'static str, Histogram)>;

/// Whole-job latency per verb, as the node itself clocks it. The stage
/// histograms time the stages only; this one also covers everything
/// between them and the client — queue wait, serialization, the wire —
/// which is where a transport stall shows and no stage span does.
#[derive(Default)]
pub(crate) struct JobDurations([Histogram; JOB_KINDS.len()]);

impl JobDurations {
    /// Record a `kind` job that took from `started` until now.
    pub(crate) fn observe_since(&self, kind: JobKind, started: Instant) {
        if let Some(i) = JOB_KINDS.iter().position(|k| *k == kind) {
            self.0[i].observe_ms(started.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// A verb's series appears with its first observation, like any
    /// labelled series: a node that only ever compiles reports one.
    pub(crate) fn snapshot(&self) -> JobDurationSnapshot {
        JOB_KINDS
            .iter()
            .zip(&self.0)
            .map(|(kind, hist)| (kind.verb(), hist.clone()))
            .filter(|(_, hist)| hist.count.get() > 0)
            .collect()
    }
}

/// The JSON form of a job-duration family: `{"<verb>": <histogram>}`.
fn job_durations_json(durations: &JobDurationSnapshot) -> Value {
    let mut verbs = serde_json::Map::new();
    for (verb, hist) in durations {
        verbs.insert(verb.to_string(), hist.to_json());
    }
    Value::Object(verbs)
}

/// The exposition series of a job-duration family.
fn job_duration_series(
    durations: &JobDurationSnapshot,
) -> impl Iterator<Item = ((&str, &str), &Histogram)> {
    durations.iter().map(|(verb, hist)| (("verb", *verb), hist))
}

/// The registry: one latency histogram per pipeline stage, keyed by the
/// stage's short stable id (`"synthesis"`, `"lut_map"`, ...). Job and
/// queue counters live with the daemon's `Shared` state; the service
/// folds both into a [`MetricsSnapshot`] when a client asks.
#[derive(Default)]
pub struct Metrics {
    stage_latency: [Histogram; STAGES.len()],
    /// Stage events whose id the registry did not recognize — should
    /// stay zero; nonzero means a flow/daemon version skew.
    unknown_stage_events: Counter,
    /// Findings by rule code, one table per family (indexed by
    /// [`CheckKind`]): the structural design rules under `flowd_lint_*`,
    /// the EQ equivalence rules under `flowd_verify_*`.
    rule_hits: [RuleHits; 2],
}

/// One rule family's finding counters.
#[derive(Default)]
struct RuleHits {
    /// By rule code, in [`RULES`] order.
    hits: [Counter; RULES.len()],
    /// Findings whose code the family does not list — the rule analogue
    /// of `unknown_stage_events`; nonzero means version skew.
    unknown: Counter,
}

/// The rule families, indexed by [`CheckKind`]: metric name stem and
/// help text.
const RULE_FAMILIES: [(&str, &str); 2] = [
    ("lint", "Design-rule findings by rule code."),
    ("verify", "Equivalence findings by EQ rule code."),
];

/// Whether a family lists a catalogue rule: `verify` the EQ slice of
/// [`RULES`], `lint` the whole catalogue (the EQ codes included, which
/// it never counts).
fn family_lists(family: CheckKind, rule: &Rule) -> bool {
    family == CheckKind::Lint || rule.stage == "verify"
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed stage execution (cache hits included: a hit is
    /// a real, observable service latency, it is just a fast one).
    pub fn observe_stage(&self, stage_id: &str, elapsed_ms: f64) {
        match STAGES.iter().position(|s| s.name() == stage_id) {
            Some(i) => self.stage_latency[i].observe_ms(elapsed_ms),
            None => self.unknown_stage_events.inc(),
        }
    }

    pub fn unknown_stage_events(&self) -> u64 {
        self.unknown_stage_events.get()
    }

    /// Record one finding. It is counted where its rule lives — EQ
    /// findings (stage `verify`) in the verify family, everything else
    /// in the lint family — not by which job kind surfaced it.
    pub fn observe_rule(&self, d: &Diagnostic) {
        let family = if d.stage == "verify" {
            CheckKind::Verify
        } else {
            CheckKind::Lint
        };
        let counters = &self.rule_hits[family as usize];
        let listed = RULES
            .iter()
            .position(|r| r.code == d.code && family_lists(family, r));
        match listed {
            Some(i) => counters.hits[i].inc(),
            None => counters.unknown.inc(),
        }
    }

    /// Every family's per-rule finding counts, in catalogue order.
    pub fn rule_counts(&self) -> [RuleCounts; 2] {
        [CheckKind::Lint, CheckKind::Verify].map(|family| {
            let counters = &self.rule_hits[family as usize];
            RuleCounts {
                hits: RULES
                    .iter()
                    .zip(counters.hits.iter())
                    .filter(|(r, _)| family_lists(family, r))
                    .map(|(r, n)| (r.code, n.get()))
                    .collect(),
                unknown: counters.unknown.get(),
            }
        })
    }

    /// Snapshot every stage histogram, in flow order.
    pub fn stage_snapshots(&self) -> Vec<(&'static str, Histogram)> {
        STAGES
            .iter()
            .zip(self.stage_latency.iter())
            .map(|(s, h)| (s.name(), h.clone()))
            .collect()
    }
}

/// What a family's samples mean to a scraper: its declared type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One metric family's declaration. Every family either daemon exposes
/// is declared exactly once — as a `const` below, or from
/// [`RULE_FAMILIES`] — and listed by [`catalogue`], which README's
/// "Metrics reference" table is tested against.
#[derive(Clone, Debug)]
pub struct Family {
    pub name: Cow<'static, str>,
    pub kind: Kind,
    pub help: Option<&'static str>,
}

const fn family(name: &'static str, kind: Kind, help: Option<&'static str>) -> Family {
    Family {
        name: Cow::Borrowed(name),
        kind,
        help,
    }
}

const fn counter(name: &'static str, help: Option<&'static str>) -> Family {
    family(name, Kind::Counter, help)
}

const fn gauge(name: &'static str, help: Option<&'static str>) -> Family {
    family(name, Kind::Gauge, help)
}

// The `flowd_*` families with fixed names. Each is declared here once
// and bound by name wherever it is rendered; [`FLOWD_FAMILIES`] lists
// them in exposition order (the rule families follow them).
const JOBS: Family = counter("flowd_jobs_total", Some("Jobs by terminal state."));
const QUEUE_DEPTH: Family = gauge("flowd_queue_depth", None);
const QUEUE_DEPTH_PEAK: Family = gauge("flowd_queue_depth_peak", None);
const WORKERS_CONFIGURED: Family = gauge("flowd_workers_configured", None);
const CONNECTIONS_OPEN: Family = gauge("flowd_connections_open", None);
const CONNECTIONS_REJECTED: Family = counter("flowd_connections_rejected_total", None);
const CACHE_HITS: Family = counter("flowd_cache_hits_total", Some("Stage-cache hits by tier."));
const CACHE_MISSES: Family = counter("flowd_cache_misses_total", None);
const CACHE_ENTRIES: Family = gauge("flowd_cache_entries", None);
const CACHE_MEMORY_EVICTED: Family = counter("flowd_cache_memory_evicted_total", None);
const STORE_DISK_HITS: Family = counter("flowd_store_disk_hits_total", None);
const STORE_DISK_MISSES: Family = counter("flowd_store_disk_misses_total", None);
const STORE_QUARANTINED: Family = counter("flowd_store_quarantined_total", None);
const STORE_EVICTED: Family = counter("flowd_store_evicted_total", None);
const STORE_WRITES: Family = counter("flowd_store_writes_total", None);
const STORE_WRITE_ERRORS: Family = counter("flowd_store_write_errors_total", None);
const STORE_SCRUBBED: Family = counter("flowd_store_scrubbed_total", None);
const REMOTE_PUBLISH: Family = counter("flowd_remote_publish_total", None);
const REMOTE_BREAKER_STATE: Family = gauge(
    "flowd_remote_breaker_state",
    Some("0=closed 1=half-open 2=open."),
);
const STAGE_DURATION: Family = family(
    "flowd_stage_duration_ms",
    Kind::Histogram,
    Some("Per-stage service latency (cache hits included)."),
);
const JOB_DURATION: Family = family(
    "flowd_job_duration_ms",
    Kind::Histogram,
    Some("Request parsed to terminal event written, per job verb."),
);
const UNKNOWN_STAGE_EVENTS: Family = counter("flowd_unknown_stage_events_total", None);

const FLOWD_FAMILIES: [Family; 22] = [
    JOBS,
    QUEUE_DEPTH,
    QUEUE_DEPTH_PEAK,
    WORKERS_CONFIGURED,
    CONNECTIONS_OPEN,
    CONNECTIONS_REJECTED,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_ENTRIES,
    CACHE_MEMORY_EVICTED,
    STORE_DISK_HITS,
    STORE_DISK_MISSES,
    STORE_QUARANTINED,
    STORE_EVICTED,
    STORE_WRITES,
    STORE_WRITE_ERRORS,
    STORE_SCRUBBED,
    REMOTE_PUBLISH,
    REMOTE_BREAKER_STATE,
    STAGE_DURATION,
    JOB_DURATION,
    UNKNOWN_STAGE_EVENTS,
];

// The `flowgw_*` families, likewise; [`FLOWGW_FAMILIES`] is their
// exposition order.
const GW_JOBS: Family = counter("flowgw_jobs_total", Some("Gateway jobs by terminal state."));
const GW_JOB_DURATION: Family = family(
    "flowgw_job_duration_ms",
    Kind::Histogram,
    Some("Admission to terminal event forwarded, per job verb."),
);
const GW_BACKEND_REQUESTS: Family = counter(
    "flowgw_backend_requests_total",
    Some("Job attempts per backend."),
);
const GW_BACKEND_FAILURES: Family = counter("flowgw_backend_failures_total", None);
const GW_BACKEND_FAILOVERS: Family = counter(
    "flowgw_backend_failovers_total",
    Some("Attempts re-routed here from a dead peer."),
);
const GW_BACKEND_STEALS: Family = counter(
    "flowgw_backend_steals_total",
    Some("Jobs routed here instead of their busy affinity backend."),
);
const GW_STEALS: Family = counter("flowgw_steals_total", None);
const GW_BACKEND_IN_FLIGHT: Family = gauge("flowgw_backend_in_flight", None);
const GW_BACKEND_HEALTHY: Family = gauge(
    "flowgw_backend_healthy",
    Some("Last probe ok and breaker not open."),
);
const GW_BREAKER_STATE: Family =
    gauge("flowgw_breaker_state", Some("0=closed 1=half-open 2=open."));
const GW_PUT_BREAKER_STATE: Family = gauge(
    "flowgw_put_breaker_state",
    Some("artifact_put replication breaker: 0=closed 1=half-open 2=open."),
);
const GW_BREAKER_TRANSITIONS: Family = counter("flowgw_breaker_transitions_total", None);
const GW_TENANT_JOBS: Family = counter(
    "flowgw_tenant_jobs_total",
    Some("Per-tenant admission outcomes."),
);
const GW_ADMISSION_INFLIGHT: Family = gauge("flowgw_admission_inflight", None);
const GW_ADMISSION_QUEUED: Family = gauge("flowgw_admission_queued", None);
const GW_ARTIFACT_REQUESTS: Family = counter(
    "flowgw_artifact_requests_total",
    Some("Artifact verbs received from daemons."),
);
const GW_ARTIFACT_PUT_FAILURES: Family = counter("flowgw_artifact_put_failures_total", None);
const GW_ARTIFACT_BYTES: Family = counter("flowgw_artifact_bytes_total", None);
const GW_CACHE_HITS: Family = counter(
    "flowgw_cache_hits_total",
    Some("Backend stage-cache hits by tier (aggregated)."),
);
const GW_CACHE_MISSES: Family = counter("flowgw_cache_misses_total", None);

const FLOWGW_FAMILIES: [Family; 20] = [
    GW_JOBS,
    GW_JOB_DURATION,
    GW_BACKEND_REQUESTS,
    GW_BACKEND_FAILURES,
    GW_BACKEND_FAILOVERS,
    GW_BACKEND_STEALS,
    GW_STEALS,
    GW_BACKEND_IN_FLIGHT,
    GW_BACKEND_HEALTHY,
    GW_BREAKER_STATE,
    GW_PUT_BREAKER_STATE,
    GW_BREAKER_TRANSITIONS,
    GW_TENANT_JOBS,
    GW_ADMISSION_INFLIGHT,
    GW_ADMISSION_QUEUED,
    GW_ARTIFACT_REQUESTS,
    GW_ARTIFACT_PUT_FAILURES,
    GW_ARTIFACT_BYTES,
    GW_CACHE_HITS,
    GW_CACHE_MISSES,
];

/// One [`RULE_FAMILIES`] row's two metric families: findings per rule
/// code, and the unknown-code tripwire.
fn rule_families((stem, help): (&str, &'static str)) -> [Family; 2] {
    let named = |name: String, help| Family {
        name: Cow::Owned(name),
        kind: Kind::Counter,
        help,
    };
    [
        named(format!("flowd_{stem}_rule_hits_total"), Some(help)),
        named(format!("flowd_unknown_{stem}_rules_total"), None),
    ]
}

/// Every family `flowd` and `flow-gateway` can expose, in exposition
/// order: the daemon's (fixed, then one pair per rule family), then the
/// gateway's.
pub fn catalogue() -> Vec<Family> {
    let mut all = FLOWD_FAMILIES.to_vec();
    all.extend(RULE_FAMILIES.into_iter().flat_map(rule_families));
    all.extend(FLOWGW_FAMILIES);
    all
}

/// The text exposition writer — the only code that knows the format:
/// the help and type comment lines a family opens with, the sample line
/// syntax, label-value escaping, and how a histogram expands.
#[derive(Default)]
struct Exposition {
    out: String,
}

impl Exposition {
    fn header(&mut self, f: &Family) {
        if let Some(help) = f.help {
            self.out.push_str(&format!("# HELP {} {help}\n", f.name));
        }
        self.out
            .push_str(&format!("# TYPE {} {}\n", f.name, f.kind.name()));
    }

    /// One `name{k="v",...} value` line. Label values may be arbitrary
    /// client strings (`tenant`), so `\`, `"` and newline are escaped as
    /// the format prescribes — a value can never end its quotes or line.
    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: impl std::fmt::Display) {
        self.out.push_str(name);
        let mut open = '{';
        for (key, raw) in labels {
            self.out.push(open);
            open = ',';
            self.out.push_str(key);
            self.out.push_str("=\"");
            for c in raw.chars() {
                match c {
                    '\\' => self.out.push_str("\\\\"),
                    '"' => self.out.push_str("\\\""),
                    '\n' => self.out.push_str("\\n"),
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }
        if !labels.is_empty() {
            self.out.push('}');
        }
        self.out.push_str(&format!(" {value}\n"));
    }

    /// A family whose samples each carry `N` labels.
    fn family<'a, const N: usize>(
        &mut self,
        f: &Family,
        samples: impl IntoIterator<Item = ([(&'a str, &'a str); N], u64)>,
    ) {
        self.header(f);
        for (labels, value) in samples {
            self.sample(&f.name, &labels, value);
        }
    }

    /// A family with one unlabelled sample.
    fn scalar(&mut self, f: &Family, value: u64) {
        self.family(f, [([], value)]);
    }

    /// A family split by one label: a sample per `(label value, n)`.
    fn labelled<'a>(
        &mut self,
        f: &Family,
        key: &'a str,
        samples: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        self.family(f, samples.into_iter().map(|(v, n)| ([(key, v)], n)));
    }

    /// A histogram family: per series, cumulative `_bucket{..,le=..}`
    /// lines over [`BUCKET_BOUNDS_MS`] and `+Inf`, then `_sum`, `_count`.
    fn histogram<'a>(
        &mut self,
        f: &Family,
        series: impl IntoIterator<Item = ((&'a str, &'a str), &'a Histogram)>,
    ) {
        self.header(f);
        let [bucket, sum, count] = ["bucket", "sum", "count"].map(|s| format!("{}_{s}", f.name));
        for (label, hist) in series {
            for (le, cumulative) in hist.cumulative() {
                let le = le.map_or("+Inf".to_string(), |bound| bound.to_string());
                self.sample(&bucket, &[label, ("le", &le)], cumulative);
            }
            self.sample(&sum, &[label], hist.sum_ms());
            self.sample(&count, &[label], hist.count.get());
        }
    }

    /// The stage-cache view both roles expose: hits by tier, and misses.
    fn cache_tiers(&mut self, hits: &Family, misses: &Family, c: &StageStats) {
        let tiers = [("memory", c.memory_hits()), ("disk", c.disk_hits.get())];
        self.labelled(hits, "tier", tiers);
        self.scalar(misses, c.misses.get());
    }
}

/// flowd's job states, in the order every rendering lists them.
pub const JOB_STATES: [&str; 7] = [
    "submitted",
    "completed",
    "failed",
    "rejected",
    "panicked",
    "timed_out",
    "cancelled",
];

/// The gateway's job states. `shed` covers admission (tenant quota /
/// queue bound) and every backend being saturated or broken.
pub const GATEWAY_JOB_STATES: [&str; 5] = ["submitted", "completed", "failed", "shed", "timed_out"];

/// A [`JOB_STATES`] slot, named: a misspelled state does not compile.
#[derive(Clone, Copy, Debug)]
pub(crate) enum JobState {
    Submitted,
    Completed,
    Failed,
    Rejected,
    Panicked,
    TimedOut,
    Cancelled,
}

/// A [`GATEWAY_JOB_STATES`] slot, named.
#[derive(Clone, Copy, Debug)]
pub(crate) enum GatewayJobState {
    Submitted,
    Completed,
    Failed,
    Shed,
    TimedOut,
}

/// Live job counters of one role: a slot per name in its state list.
pub(crate) struct JobCounters<const N: usize> {
    counts: [Counter; N],
}

impl<const N: usize> JobCounters<N> {
    pub(crate) fn new() -> Self {
        JobCounters {
            counts: std::array::from_fn(|_| Counter::default()),
        }
    }

    pub(crate) fn snapshot(&self) -> [u64; N] {
        std::array::from_fn(|i| self.counts[i].get())
    }
}

impl JobCounters<{ JOB_STATES.len() }> {
    /// Count one flowd job reaching `state`.
    pub(crate) fn inc(&self, state: JobState) {
        self.counts[state as usize].inc();
    }
}

impl JobCounters<{ GATEWAY_JOB_STATES.len() }> {
    /// Count one gateway job reaching `state`.
    pub(crate) fn inc(&self, state: GatewayJobState) {
        self.counts[state as usize].inc();
    }
}

/// A JSON object of counters, keys in the order given.
pub(crate) fn counts_json<'a>(
    counts: impl IntoIterator<Item = (&'a str, u64)>,
) -> serde_json::Map<String, Value> {
    let mut map = serde_json::Map::new();
    for (key, n) in counts {
        map.insert(key.to_string(), n.into());
    }
    map
}

/// Scalar counters the service contributes to a snapshot (already
/// tracked elsewhere in the daemon; gathered here so the two renderings
/// agree on names).
#[derive(Clone, Debug, Default)]
pub struct ServiceCounters {
    /// One count per [`JOB_STATES`] entry.
    pub jobs: [u64; JOB_STATES.len()],
    pub queue_depth: u64,
    pub queue_peak: u64,
    pub workers_configured: u64,
    pub connections_open: u64,
    pub connections_rejected: u64,
}

/// The three keys every JSON `cache` object (and stage row) carries, from
/// cache tier counts: one stage's, or a sum over stages (and, at the
/// gateway, over backends).
fn insert_tiers(c: &StageStats, map: &mut serde_json::Map<String, Value>) {
    map.insert("memory_hits".into(), c.memory_hits().into());
    map.insert("disk_hits".into(), c.disk_hits.get().into());
    map.insert("misses".into(), c.misses.get().into());
}

/// Daemon-side replication client counters, present when
/// `--artifact-gateway` is configured. A failure here is never a job
/// error — the counters are how operators see replication limping.
#[derive(Clone, Debug, Default)]
pub struct RemoteTierCounters {
    pub published: Counter,
    pub publish_failures: Counter,
    /// Publishes skipped outright because the per-gateway breaker was
    /// open.
    pub breaker_skips: Counter,
    /// Publish breaker state, filled in when the snapshot is taken.
    pub breaker: BreakerState,
}

/// Everything the `metrics` verb reports, assembled by the service.
#[derive(Default)]
pub struct MetricsSnapshot {
    pub service: ServiceCounters,
    /// `(stage_id, latency, cache)` in flow order.
    pub stages: Vec<(&'static str, Histogram, StageStats)>,
    /// Request parsed → terminal event written, per job verb.
    pub job_durations: JobDurationSnapshot,
    pub cache_entries: u64,
    pub cache_memory_evicted: u64,
    /// Durable-store counters and size, when `--cache-dir` is configured.
    pub store: Option<StoreSnapshot>,
    /// Replication client counters, when `--artifact-gateway` is
    /// configured.
    pub remote: Option<RemoteTierCounters>,
    pub unknown_stage_events: u64,
    /// Findings per rule family, indexed by [`CheckKind`].
    pub rules: [RuleCounts; 2],
}

/// One rule family's findings in a [`MetricsSnapshot`].
#[derive(Default)]
pub struct RuleCounts {
    /// `(rule_code, findings)` in catalogue order.
    pub hits: Vec<(&'static str, u64)>,
    pub unknown: u64,
}

impl MetricsSnapshot {
    /// Tier counts summed over the stages.
    fn totals(&self) -> StageStats {
        let total = StageStats::default();
        for (_, _, c) in &self.stages {
            total.hits.add(c.hits.get());
            total.disk_hits.add(c.disk_hits.get());
            total.misses.add(c.misses.get());
        }
        total
    }

    /// The structured body of the `{"cmd":"metrics"}` response. Field
    /// names are part of the wire protocol (see DESIGN.md).
    pub fn to_json(&self) -> Value {
        let mut stages = serde_json::Map::new();
        for (name, hist, c) in &self.stages {
            let mut stage = serde_json::Map::new();
            stage.insert("latency".into(), hist.to_json());
            insert_tiers(c, &mut stage);
            stage.insert("wall_ms".into(), (c.wall_nanos.get() / 1_000_000).into());
            stages.insert(name.to_string(), Value::Object(stage));
        }
        let s = &self.service;
        let mut root = serde_json::Map::new();
        let jobs = counts_json(JOB_STATES.into_iter().zip(s.jobs));
        root.insert("jobs".into(), Value::Object(jobs));
        root.insert(
            "queue".into(),
            serde_json::json!({"depth": s.queue_depth, "peak": s.queue_peak}),
        );
        root.insert(
            "workers".into(),
            serde_json::json!({"configured": s.workers_configured}),
        );
        root.insert(
            "connections".into(),
            serde_json::json!({"open": s.connections_open, "rejected": s.connections_rejected}),
        );
        let mut cache = serde_json::Map::new();
        insert_tiers(&self.totals(), &mut cache);
        cache.insert("entries".into(), self.cache_entries.into());
        cache.insert("memory_evicted".into(), self.cache_memory_evicted.into());
        if let Some(st) = &self.store {
            let c = &st.counters;
            cache.insert(
                "store".into(),
                serde_json::json!({
                    "entries": st.entries,
                    "bytes": st.bytes,
                    "budget_bytes": st.budget_bytes,
                    "disk_hits": c.disk_hits.get(),
                    "disk_misses": c.disk_misses.get(),
                    "quarantined": c.quarantined.get(),
                    "evicted": c.evicted.get(),
                    "writes": c.writes.get(),
                    "write_errors": c.write_errors.get(),
                    "scrubbed": c.scrubbed.get(),
                }),
            );
        }
        if let Some(r) = &self.remote {
            cache.insert(
                "remote".into(),
                serde_json::json!({
                    "published": r.published.get(),
                    "publish_failures": r.publish_failures.get(),
                    "breaker_skips": r.breaker_skips.get(),
                    "breaker": r.breaker.name(),
                }),
            );
        }
        root.insert("cache".into(), Value::Object(cache));
        root.insert("stages".into(), Value::Object(stages));
        root.insert(
            "job_duration_ms".into(),
            job_durations_json(&self.job_durations),
        );
        root.insert(
            "unknown_stage_events".into(),
            self.unknown_stage_events.into(),
        );
        for ((family, _), counts) in RULE_FAMILIES.iter().zip(&self.rules) {
            let unknown = [("unknown", counts.unknown)];
            let rules = counts_json(counts.hits.iter().copied().chain(unknown));
            root.insert(format!("{family}_rules"), Value::Object(rules));
        }
        Value::Object(root)
    }

    /// Prometheus-style text exposition (`flowd --metrics-dump`,
    /// `flowc metrics --text`).
    pub fn to_prometheus_text(&self) -> String {
        let mut w = Exposition::default();
        let s = &self.service;
        w.labelled(&JOBS, "state", JOB_STATES.into_iter().zip(s.jobs));
        w.scalar(&QUEUE_DEPTH, s.queue_depth);
        w.scalar(&QUEUE_DEPTH_PEAK, s.queue_peak);
        w.scalar(&WORKERS_CONFIGURED, s.workers_configured);
        w.scalar(&CONNECTIONS_OPEN, s.connections_open);
        w.scalar(&CONNECTIONS_REJECTED, s.connections_rejected);
        w.cache_tiers(&CACHE_HITS, &CACHE_MISSES, &self.totals());
        w.scalar(&CACHE_ENTRIES, self.cache_entries);
        w.scalar(&CACHE_MEMORY_EVICTED, self.cache_memory_evicted);
        if let Some(st) = &self.store {
            let c = &st.counters;
            w.scalar(&STORE_DISK_HITS, c.disk_hits.get());
            w.scalar(&STORE_DISK_MISSES, c.disk_misses.get());
            w.scalar(&STORE_QUARANTINED, c.quarantined.get());
            w.scalar(&STORE_EVICTED, c.evicted.get());
            w.scalar(&STORE_WRITES, c.writes.get());
            w.scalar(&STORE_WRITE_ERRORS, c.write_errors.get());
            w.scalar(&STORE_SCRUBBED, c.scrubbed.get());
        }
        if let Some(r) = &self.remote {
            let publishes = [
                ("ok", r.published.get()),
                ("failure", r.publish_failures.get()),
            ];
            w.labelled(&REMOTE_PUBLISH, "result", publishes);
            w.scalar(&REMOTE_BREAKER_STATE, r.breaker.code());
        }
        let latencies = self.stages.iter().map(|(id, h, _)| (("stage", *id), h));
        w.histogram(&STAGE_DURATION, latencies);
        w.histogram(&JOB_DURATION, job_duration_series(&self.job_durations));
        w.scalar(&UNKNOWN_STAGE_EVENTS, self.unknown_stage_events);
        for (family, counts) in RULE_FAMILIES.into_iter().zip(&self.rules) {
            let [hits, unknown] = rule_families(family);
            w.labelled(&hits, "rule", counts.hits.iter().copied());
            w.scalar(&unknown, counts.unknown);
        }
        w.out
    }
}

/// One backend's row in a [`GatewaySnapshot`].
#[derive(Clone, Debug)]
pub struct BackendSnapshot {
    pub addr: String,
    /// Last health probe succeeded and the breaker is not open.
    pub healthy: bool,
    pub breaker: BreakerState,
    pub breaker_transitions: BreakerCounters,
    pub in_flight: u64,
    pub counters: BackendCounters,
    /// `artifact_put` replication breaker — separate from the job
    /// breaker so a flaky replication path never stops job routing.
    pub put_breaker: BreakerState,
}

/// One backend's routing counters: the gateway increments them on its
/// live backend, and a clone rides in that backend's snapshot row.
#[derive(Clone, Debug, Default)]
pub struct BackendCounters {
    /// Job attempts routed to this backend (including failed ones).
    pub requests: Counter,
    /// Attempts that ended in a transport failure or lost worker.
    pub failures: Counter,
    /// Attempts re-routed here *from* a failed peer attempt.
    pub failovers: Counter,
    /// Jobs routed here instead of their busy affinity backend.
    pub steals: Counter,
}

/// Gateway replication counters (`artifact_put` fanned out to
/// backends).
#[derive(Clone, Debug, Default)]
pub struct GatewayArtifactCounters {
    /// `artifact_put` requests received from daemons.
    pub puts: Counter,
    /// Put replications that failed on a backend.
    pub put_failures: Counter,
    /// Payload bytes accepted from publishing daemons.
    pub bytes_stored: Counter,
}

/// Everything `flow-gateway`'s `metrics` verb reports — the gateway
/// family the issue asks for, rendered in the same two shapes as the
/// daemon's snapshot (JSON body + `flowgw_*` Prometheus text).
#[derive(Clone, Debug, Default)]
pub struct GatewaySnapshot {
    /// One count per [`GATEWAY_JOB_STATES`] entry.
    pub jobs: [u64; GATEWAY_JOB_STATES.len()],
    /// Admission → a backend's terminal event forwarded, per job verb.
    pub job_durations: JobDurationSnapshot,
    pub backends: Vec<BackendSnapshot>,
    /// `(tenant, counters)` sorted by tenant name.
    pub tenants: Vec<(String, TenantCounters)>,
    pub admission_inflight: u64,
    pub admission_queued: u64,
    pub max_inflight: u64,
    pub queue_bound: u64,
    /// Replication traffic through the gateway.
    pub artifacts: GatewayArtifactCounters,
    /// Tier counts summed over the healthy backends, scraped at
    /// snapshot time — lets cache-aware clients (`qor_bench
    /// --via-daemon`) read one `cache` object through the gateway
    /// exactly as they would from a single daemon.
    pub cache: Option<StageStats>,
}

impl GatewaySnapshot {
    /// Total failovers across backends (the headline counter the chaos
    /// harness asserts on).
    pub fn failover_total(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.counters.failovers.get())
            .sum()
    }

    /// Total work steals across backends.
    pub fn steal_total(&self) -> u64 {
        self.backends.iter().map(|b| b.counters.steals.get()).sum()
    }

    /// The structured body of the gateway's `{"cmd":"metrics"}` reply.
    pub fn to_json(&self) -> Value {
        let mut root = serde_json::Map::new();
        root.insert("role".into(), "gateway".into());
        let totals = [
            ("failovers", self.failover_total()),
            ("steals", self.steal_total()),
        ];
        let jobs = counts_json(GATEWAY_JOB_STATES.into_iter().zip(self.jobs).chain(totals));
        root.insert("jobs".into(), Value::Object(jobs));
        root.insert(
            "job_duration_ms".into(),
            job_durations_json(&self.job_durations),
        );
        let backends: Vec<Value> = self
            .backends
            .iter()
            .map(|b| {
                serde_json::json!({
                    "addr": b.addr.clone(),
                    "healthy": b.healthy,
                    "breaker": b.breaker.name(),
                    "breaker_transitions": serde_json::json!({
                        "opened": b.breaker_transitions.opened,
                        "half_opened": b.breaker_transitions.half_opened,
                        "closed": b.breaker_transitions.closed,
                    }),
                    "in_flight": b.in_flight,
                    "requests": b.counters.requests.get(),
                    "failures": b.counters.failures.get(),
                    "failovers": b.counters.failovers.get(),
                    "put_breaker": b.put_breaker.name(),
                    "steals": b.counters.steals.get(),
                })
            })
            .collect();
        root.insert("backends".into(), Value::Array(backends));
        let mut tenants = serde_json::Map::new();
        for (name, c) in &self.tenants {
            tenants.insert(
                name.clone(),
                serde_json::json!({
                    "admitted": c.admitted,
                    "queued": c.queued,
                    "shed": c.shed,
                }),
            );
        }
        root.insert("tenants".into(), Value::Object(tenants));
        root.insert(
            "admission".into(),
            serde_json::json!({
                "inflight": self.admission_inflight,
                "queued": self.admission_queued,
                "max_inflight": self.max_inflight,
                "queue_bound": self.queue_bound,
            }),
        );
        let a = &self.artifacts;
        root.insert(
            "artifacts".into(),
            serde_json::json!({
                "puts": a.puts.get(),
                "put_failures": a.put_failures.get(),
                "bytes_stored": a.bytes_stored.get(),
            }),
        );
        if let Some(c) = &self.cache {
            let mut cache = serde_json::Map::new();
            insert_tiers(c, &mut cache);
            root.insert("cache".into(), Value::Object(cache));
        }
        Value::Object(root)
    }

    /// Prometheus-style text exposition (`flowgw_*` families).
    pub fn to_prometheus_text(&self) -> String {
        let mut w = Exposition::default();
        w.labelled(
            &GW_JOBS,
            "state",
            GATEWAY_JOB_STATES.into_iter().zip(self.jobs),
        );
        w.histogram(&GW_JOB_DURATION, job_duration_series(&self.job_durations));
        let per_backend = |value: fn(&BackendSnapshot) -> u64| {
            self.backends
                .iter()
                .map(move |b| (b.addr.as_str(), value(b)))
        };
        let requests = per_backend(|b| b.counters.requests.get());
        w.labelled(&GW_BACKEND_REQUESTS, "backend", requests);
        let failures = per_backend(|b| b.counters.failures.get());
        w.labelled(&GW_BACKEND_FAILURES, "backend", failures);
        let failovers = per_backend(|b| b.counters.failovers.get());
        w.labelled(&GW_BACKEND_FAILOVERS, "backend", failovers);
        let steals = per_backend(|b| b.counters.steals.get());
        w.labelled(&GW_BACKEND_STEALS, "backend", steals);
        w.scalar(&GW_STEALS, self.steal_total());
        let in_flight = per_backend(|b| b.in_flight);
        w.labelled(&GW_BACKEND_IN_FLIGHT, "backend", in_flight);
        let healthy = per_backend(|b| b.healthy.into());
        w.labelled(&GW_BACKEND_HEALTHY, "backend", healthy);
        let breaker = per_backend(|b| b.breaker.code());
        w.labelled(&GW_BREAKER_STATE, "backend", breaker);
        let put_breaker = per_backend(|b| b.put_breaker.code());
        w.labelled(&GW_PUT_BREAKER_STATE, "backend", put_breaker);
        let by_backend = self.backends.iter().flat_map(|b| {
            let t = &b.breaker_transitions;
            let to = [
                ("open", t.opened),
                ("half-open", t.half_opened),
                ("closed", t.closed),
            ];
            to.map(|(to, n)| ([("backend", b.addr.as_str()), ("to", to)], n))
        });
        w.family(&GW_BREAKER_TRANSITIONS, by_backend);
        let by_tenant = self.tenants.iter().flat_map(|(tenant, c)| {
            let states = [
                ("admitted", c.admitted),
                ("queued", c.queued),
                ("shed", c.shed),
            ];
            states.map(|(state, n)| ([("tenant", tenant.as_str()), ("state", state)], n))
        });
        w.family(&GW_TENANT_JOBS, by_tenant);
        w.scalar(&GW_ADMISSION_INFLIGHT, self.admission_inflight);
        w.scalar(&GW_ADMISSION_QUEUED, self.admission_queued);
        let a = &self.artifacts;
        w.labelled(&GW_ARTIFACT_REQUESTS, "verb", [("put", a.puts.get())]);
        w.scalar(&GW_ARTIFACT_PUT_FAILURES, a.put_failures.get());
        let bytes = [("stored", a.bytes_stored.get())];
        w.labelled(&GW_ARTIFACT_BYTES, "direction", bytes);
        if let Some(c) = &self.cache {
            w.cache_tiers(&GW_CACHE_HITS, &GW_CACHE_MISSES, c);
        }
        w.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga_flow::StoreCounters;

    #[test]
    fn histogram_buckets_observations_by_bound() {
        let h = Histogram::new();
        h.observe_ms(0.4); // le=1
        h.observe_ms(1.0); // le=1 (inclusive bound)
        h.observe_ms(7.0); // le=10
        h.observe_ms(9999.0); // +Inf
        let snap = h.clone();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[3], 1, "7ms lands in the le=10 bucket");
        assert_eq!(*snap.buckets.last().unwrap(), 1, "overflow lands in +Inf");
        assert!((snap.sum_ms() - 10007.4).abs() < 0.01);

        let js = snap.to_json();
        let buckets = js["buckets"].as_array().unwrap();
        assert_eq!(buckets.len(), BUCKET_BOUNDS_MS.len() + 1);
        // Cumulative: the +Inf bucket always equals the total count.
        assert_eq!(buckets.last().unwrap()["count"].as_u64(), Some(4));
        assert_eq!(buckets.last().unwrap()["le"].as_str(), Some("+Inf"));
    }

    #[test]
    fn registry_routes_by_stage_id_and_flags_unknowns() {
        let m = Metrics::new();
        m.observe_stage("synthesis", 3.0);
        m.observe_stage("route", 42.0);
        m.observe_stage("not_a_stage", 1.0);
        let stages = m.stage_snapshots();
        let synth = &stages.iter().find(|(n, _)| *n == "synthesis").unwrap().1;
        assert_eq!(synth.count, 1);
        let route = &stages.iter().find(|(n, _)| *n == "route").unwrap().1;
        assert_eq!(route.count, 1);
        assert_eq!(m.unknown_stage_events(), 1);
    }

    /// A typed state counts into the slot its name labels: the variant
    /// in snake case is its state-list entry, for both roles.
    #[test]
    fn job_states_count_into_their_named_slots() {
        // State `n` (0-based) was counted `n + 1` times.
        fn expected<S: std::fmt::Debug>(states: &[S]) -> Vec<(String, u64)> {
            let snake = |state: &S| {
                let mut out = String::new();
                for c in format!("{state:?}").chars() {
                    if c.is_ascii_uppercase() && !out.is_empty() {
                        out.push('_');
                    }
                    out.push(c.to_ascii_lowercase());
                }
                out
            };
            states.iter().map(snake).zip(1..).collect()
        }
        fn counted(names: &[&str], counts: &[u64]) -> Vec<(String, u64)> {
            let names = names.iter().map(|name| name.to_string());
            names.zip(counts.iter().copied()).collect()
        }
        use GatewayJobState as G;
        use JobState as J;
        let flowd = JobCounters::<{ JOB_STATES.len() }>::new();
        let states = [
            J::Submitted,
            J::Completed,
            J::Failed,
            J::Rejected,
            J::Panicked,
            J::TimedOut,
            J::Cancelled,
        ];
        for (n, state) in states.into_iter().enumerate() {
            (0..=n).for_each(|_| flowd.inc(state));
        }
        assert_eq!(counted(&JOB_STATES, &flowd.snapshot()), expected(&states));
        let gateway = JobCounters::<{ GATEWAY_JOB_STATES.len() }>::new();
        let states = [G::Submitted, G::Completed, G::Failed, G::Shed, G::TimedOut];
        for (n, state) in states.into_iter().enumerate() {
            (0..=n).for_each(|_| gateway.inc(state));
        }
        let gateway = counted(&GATEWAY_JOB_STATES, &gateway.snapshot());
        assert_eq!(gateway, expected(&states));
    }

    /// The rule families keep the exact JSON and exposition the two
    /// hand-written counter families produced before they became one
    /// table (strings recorded from that commit), including the quirk
    /// that `lint_rules` lists the EQ codes it never counts.
    #[test]
    fn rule_families_route_by_stage_and_render_as_recorded() {
        let m = Metrics::new();
        for (code, stage) in [
            ("NL001", "netlist"),
            ("EQ001", "verify"),
            ("EQ003", "verify"),
            ("XX999", "route"),
            ("EQ999", "verify"),
        ] {
            m.observe_rule(&Diagnostic::new(
                code,
                fpga_lint::Severity::Warn,
                stage,
                "subject",
                "message",
            ));
        }
        let rules = m.rule_counts();
        let lint = &rules[CheckKind::Lint as usize];
        assert_eq!(lint.hits.len(), RULES.len());
        assert_eq!((lint.hits[0], lint.unknown), (("NL001", 1), 1));
        let snap = MetricsSnapshot {
            rules,
            ..Default::default()
        };

        assert_eq!(snap.to_json().to_string(), RECORDED_JSON);
        assert_eq!(snap.to_prometheus_text(), RECORDED_TEXT);
    }

    const RECORDED_JSON: &str = r#"{"jobs":{"submitted":0,"completed":0,"failed":0,"rejected":0,"panicked":0,"timed_out":0,"cancelled":0},"queue":{"depth":0,"peak":0},"workers":{"configured":0},"connections":{"open":0,"rejected":0},"cache":{"memory_hits":0,"disk_hits":0,"misses":0,"entries":0,"memory_evicted":0},"stages":{},"job_duration_ms":{},"unknown_stage_events":0,"lint_rules":{"NL001":1,"NL002":0,"NL003":0,"PK001":0,"PL001":0,"RT001":0,"RT002":0,"BS001":0,"EQ001":0,"EQ002":0,"EQ003":0,"unknown":1},"verify_rules":{"EQ001":1,"EQ002":0,"EQ003":1,"unknown":1}}"#;

    const RECORDED_TEXT: &str = "\
# HELP flowd_jobs_total Jobs by terminal state.
# TYPE flowd_jobs_total counter
flowd_jobs_total{state=\"submitted\"} 0
flowd_jobs_total{state=\"completed\"} 0
flowd_jobs_total{state=\"failed\"} 0
flowd_jobs_total{state=\"rejected\"} 0
flowd_jobs_total{state=\"panicked\"} 0
flowd_jobs_total{state=\"timed_out\"} 0
flowd_jobs_total{state=\"cancelled\"} 0
# TYPE flowd_queue_depth gauge
flowd_queue_depth 0
# TYPE flowd_queue_depth_peak gauge
flowd_queue_depth_peak 0
# TYPE flowd_workers_configured gauge
flowd_workers_configured 0
# TYPE flowd_connections_open gauge
flowd_connections_open 0
# TYPE flowd_connections_rejected_total counter
flowd_connections_rejected_total 0
# HELP flowd_cache_hits_total Stage-cache hits by tier.
# TYPE flowd_cache_hits_total counter
flowd_cache_hits_total{tier=\"memory\"} 0
flowd_cache_hits_total{tier=\"disk\"} 0
# TYPE flowd_cache_misses_total counter
flowd_cache_misses_total 0
# TYPE flowd_cache_entries gauge
flowd_cache_entries 0
# TYPE flowd_cache_memory_evicted_total counter
flowd_cache_memory_evicted_total 0
# HELP flowd_stage_duration_ms Per-stage service latency (cache hits included).
# TYPE flowd_stage_duration_ms histogram
# HELP flowd_job_duration_ms Request parsed to terminal event written, per job verb.
# TYPE flowd_job_duration_ms histogram
# TYPE flowd_unknown_stage_events_total counter
flowd_unknown_stage_events_total 0
# HELP flowd_lint_rule_hits_total Design-rule findings by rule code.
# TYPE flowd_lint_rule_hits_total counter
flowd_lint_rule_hits_total{rule=\"NL001\"} 1
flowd_lint_rule_hits_total{rule=\"NL002\"} 0
flowd_lint_rule_hits_total{rule=\"NL003\"} 0
flowd_lint_rule_hits_total{rule=\"PK001\"} 0
flowd_lint_rule_hits_total{rule=\"PL001\"} 0
flowd_lint_rule_hits_total{rule=\"RT001\"} 0
flowd_lint_rule_hits_total{rule=\"RT002\"} 0
flowd_lint_rule_hits_total{rule=\"BS001\"} 0
flowd_lint_rule_hits_total{rule=\"EQ001\"} 0
flowd_lint_rule_hits_total{rule=\"EQ002\"} 0
flowd_lint_rule_hits_total{rule=\"EQ003\"} 0
# TYPE flowd_unknown_lint_rules_total counter
flowd_unknown_lint_rules_total 1
# HELP flowd_verify_rule_hits_total Equivalence findings by EQ rule code.
# TYPE flowd_verify_rule_hits_total counter
flowd_verify_rule_hits_total{rule=\"EQ001\"} 1
flowd_verify_rule_hits_total{rule=\"EQ002\"} 0
flowd_verify_rule_hits_total{rule=\"EQ003\"} 1
# TYPE flowd_unknown_verify_rules_total counter
flowd_unknown_verify_rules_total 1
";

    fn hist(observations: &[f64]) -> Histogram {
        let h = Histogram::new();
        for ms in observations {
            h.observe_ms(*ms);
        }
        h
    }

    /// Every section present: two stages with observations in different
    /// buckets (`+Inf` included), all tier counters nonzero, a store,
    /// replication with its breaker half-open, both rule families with
    /// an unknown each.
    fn full_flowd_snapshot() -> MetricsSnapshot {
        let tiers = |memory_hits: u64, disk_hits, misses, wall_ms: u64| StageStats {
            hits: Counter::from(memory_hits + disk_hits),
            misses: Counter::from(misses),
            disk_hits: Counter::from(disk_hits),
            wall_nanos: Counter::from(wall_ms * 1_000_000),
        };
        let m = Metrics::new();
        for (code, stage) in [
            ("NL001", "netlist"),
            ("RT002", "route"),
            ("RT002", "route"),
            ("EQ002", "verify"),
            ("XX999", "route"),
            ("EQ999", "verify"),
        ] {
            m.observe_rule(&Diagnostic::new(
                code,
                fpga_lint::Severity::Warn,
                stage,
                "subject",
                "message",
            ));
        }
        MetricsSnapshot {
            service: ServiceCounters {
                jobs: [11, 7, 2, 3, 1, 4, 5],
                queue_depth: 6,
                queue_peak: 9,
                workers_configured: 2,
                connections_open: 3,
                connections_rejected: 8,
            },
            stages: vec![
                ("pack", hist(&[0.4, 12.0]), tiers(5, 2, 3, 40)),
                ("route", hist(&[150.0, 9999.0]), tiers(4, 1, 6, 10150)),
            ],
            job_durations: vec![("compile", hist(&[1.5, 88.0]))],
            cache_entries: 14,
            cache_memory_evicted: 3,
            store: Some(StoreSnapshot {
                counters: StoreCounters {
                    disk_hits: Counter::from(8),
                    disk_misses: Counter::from(1),
                    quarantined: Counter::from(2),
                    evicted: Counter::from(3),
                    writes: Counter::from(9),
                    write_errors: Counter::from(4),
                    scrubbed: Counter::from(6),
                },
                entries: 11,
                bytes: 5120,
                budget_bytes: Some(8192),
            }),
            remote: Some(RemoteTierCounters {
                published: Counter::from(5),
                publish_failures: Counter::from(1),
                breaker_skips: Counter::from(2),
                breaker: BreakerState::HalfOpen,
            }),
            unknown_stage_events: 1,
            rules: m.rule_counts(),
        }
    }

    /// Two backends (breakers closed and open), one tenant, an
    /// aggregated cache.
    fn full_gateway_snapshot() -> GatewaySnapshot {
        GatewaySnapshot {
            jobs: [5, 4, 0, 1, 0],
            job_durations: vec![("compile", hist(&[2.5]))],
            backends: vec![
                BackendSnapshot {
                    addr: "127.0.0.1:9101".into(),
                    healthy: true,
                    breaker: BreakerState::Closed,
                    breaker_transitions: BreakerCounters::default(),
                    in_flight: 1,
                    counters: BackendCounters {
                        requests: Counter::from(3),
                        failures: Counter::from(0),
                        failovers: Counter::from(0),
                        steals: Counter::from(2),
                    },
                    put_breaker: BreakerState::Closed,
                },
                BackendSnapshot {
                    addr: "127.0.0.1:9102".into(),
                    healthy: false,
                    breaker: BreakerState::Open,
                    breaker_transitions: BreakerCounters {
                        opened: 1,
                        half_opened: 0,
                        closed: 0,
                    },
                    in_flight: 0,
                    counters: BackendCounters {
                        requests: Counter::from(2),
                        failures: Counter::from(1),
                        failovers: Counter::from(1),
                        steals: Counter::from(0),
                    },
                    put_breaker: BreakerState::Open,
                },
            ],
            tenants: vec![(
                "acme".to_string(),
                TenantCounters {
                    admitted: 4,
                    queued: 2,
                    shed: 1,
                },
            )],
            admission_inflight: 1,
            admission_queued: 0,
            max_inflight: 8,
            queue_bound: 16,
            artifacts: GatewayArtifactCounters {
                puts: Counter::from(5),
                put_failures: Counter::from(0),
                bytes_stored: Counter::from(4096),
            },
            cache: Some(StageStats {
                hits: Counter::from(10 + 2),
                misses: Counter::from(3),
                disk_hits: Counter::from(2),
                wall_nanos: Counter::from(0),
            }),
        }
    }

    /// Both renderings of both roles, byte for byte as commit 17b1350's
    /// hand-written renderers produced them for these snapshots.
    #[test]
    fn full_snapshots_render_as_recorded() {
        let flowd = full_flowd_snapshot();
        assert_eq!(flowd.to_json().to_string(), RECORDED_FLOWD_JSON);
        assert_eq!(flowd.to_prometheus_text(), RECORDED_FLOWD_TEXT);
        let gateway = full_gateway_snapshot();
        assert_eq!((gateway.failover_total(), gateway.steal_total()), (1, 2));
        assert_eq!(gateway.to_json().to_string(), RECORDED_GATEWAY_JSON);
        assert_eq!(gateway.to_prometheus_text(), RECORDED_GATEWAY_TEXT);
    }

    /// One sample line taken apart: `name`, optional
    /// `{key="escaped value",...}`, one space, a number. Gives the name
    /// and the labels, values un-escaped; `None` for anything else.
    fn parse_sample(line: &str) -> Option<(&str, Vec<(&str, String)>)> {
        let ident =
            |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        let name_end = line.find(['{', ' '])?;
        let (name, mut rest) = line.split_at(name_end);
        let mut labels = Vec::new();
        if let Some(body) = rest.strip_prefix('{') {
            rest = body;
            loop {
                let (key, tail) = rest.split_once("=\"")?;
                let mut value = String::new();
                let mut chars = tail.char_indices();
                let close = loop {
                    match chars.next()? {
                        (_, '\\') => value.push(match chars.next()?.1 {
                            'n' => '\n',
                            c @ ('\\' | '"') => c,
                            _ => return None,
                        }),
                        (i, '"') => break i,
                        (_, c) => value.push(c),
                    }
                };
                labels.push((key, value));
                rest = &tail[close + 1..];
                match rest.strip_prefix(',') {
                    Some(more) => rest = more,
                    None => break,
                }
            }
            rest = rest.strip_prefix('}')?;
        }
        rest.strip_prefix(' ')?.parse::<f64>().ok()?;
        (ident(name) && labels.iter().all(|(key, _)| ident(key))).then_some((name, labels))
    }

    /// The family a sample belongs to: its name, or for a histogram's
    /// expansion the name without `_bucket` / `_sum` / `_count`.
    fn sample_family<'a>(name: &'a str, typed: &[(String, Kind)]) -> Option<&'a str> {
        let owns = |family: &str, kind| typed.contains(&(family.to_string(), kind));
        if owns(name, Kind::Counter) || owns(name, Kind::Gauge) {
            return Some(name);
        }
        ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|family| owns(family, Kind::Histogram))
    }

    /// Rendering the two full snapshots emits every catalogue entry
    /// exactly once, in catalogue order, typed before its first sample,
    /// and nothing the catalogue does not list.
    #[test]
    fn catalogue_is_exactly_what_the_snapshots_expose() {
        let catalogue = catalogue();
        for (i, f) in catalogue.iter().enumerate() {
            assert!(
                catalogue[..i].iter().all(|g| g.name != f.name),
                "{} is declared twice",
                f.name
            );
        }
        let text = full_flowd_snapshot().to_prometheus_text()
            + &full_gateway_snapshot().to_prometheus_text();
        let mut typed: Vec<(String, Kind)> = Vec::new();
        let mut helped = Vec::new();
        for line in text.lines() {
            if let Some(header) = line.strip_prefix("# TYPE ") {
                let (name, kind) = header.split_once(' ').expect("# TYPE name kind");
                let kind = [Kind::Counter, Kind::Gauge, Kind::Histogram]
                    .into_iter()
                    .find(|k| k.name() == kind)
                    .expect("a known kind");
                typed.push((name.to_string(), kind));
            } else if let Some(header) = line.strip_prefix("# HELP ") {
                helped.push(header.split_once(' ').expect("# HELP name text"));
            } else {
                let (name, _) =
                    parse_sample(line).unwrap_or_else(|| panic!("malformed sample line: {line}"));
                let family = sample_family(name, &typed)
                    .unwrap_or_else(|| panic!("sample outside the catalogue: {line}"));
                assert_eq!(
                    typed.last().map(|(name, _)| name.as_str()),
                    Some(family),
                    "sample not under its own # TYPE: {line}"
                );
            }
        }
        let declared: Vec<(String, Kind)> = catalogue
            .iter()
            .map(|f| (f.name.to_string(), f.kind))
            .collect();
        assert_eq!(typed, declared);
        let with_help: Vec<(&str, &str)> = catalogue
            .iter()
            .filter_map(|f| Some((f.name.as_ref(), f.help?)))
            .collect();
        assert_eq!(helped, with_help);
    }

    /// Every family `const` in this file is named in exactly one table
    /// row, and the tables hold nothing else — so each is in the
    /// catalogue once (the test above shows the catalogue has no name
    /// twice). Read from the source, since a `const` nobody lists is
    /// otherwise only a dead-code warning away from unnoticed.
    #[test]
    fn every_family_const_is_catalogued_exactly_once() {
        let source = include_str!("metrics.rs");
        let declared: Vec<&str> = source
            .lines()
            .filter_map(|line| Some(line.strip_prefix("const ")?.split_once(": Family =")?.0))
            .collect();
        let listed: Vec<&str> = source
            .lines()
            .filter_map(|line| line.strip_prefix("    ")?.strip_suffix(','))
            .filter(|row| row.chars().all(|c| c.is_ascii_uppercase() || c == '_'))
            .collect();
        for name in &declared {
            let rows = listed.iter().filter(|row| *row == name).count();
            assert_eq!(rows, 1, "{name} is in {rows} table rows");
        }
        assert_eq!(declared.len(), listed.len());
        assert_eq!(listed.len(), FLOWD_FAMILIES.len() + FLOWGW_FAMILIES.len());
    }

    /// README's "Metrics reference" table lists exactly the catalogue:
    /// same families, same types, same order.
    #[test]
    fn readme_metrics_reference_matches_the_catalogue() {
        let readme = include_str!("../../../README.md");
        let section = readme
            .split_once("#### Metrics reference\n")
            .expect("README has a Metrics reference section")
            .1;
        let section = section.split("\n#").next().unwrap_or(section);
        let documented: Vec<(String, String)> = section
            .lines()
            .filter_map(|line| {
                let mut cells = line.strip_prefix("| `")?.split('|');
                let name = cells.next()?.trim().trim_matches('`');
                Some((name.to_string(), cells.next()?.trim().to_string()))
            })
            .collect();
        let declared: Vec<(String, String)> = catalogue()
            .iter()
            .map(|f| (f.name.to_string(), f.kind.name().to_string()))
            .collect();
        assert_eq!(documented, declared);
    }

    /// A label value is client-chosen (`tenant`): whatever it contains,
    /// it stays inside its quotes on its one line, and parses back.
    #[test]
    fn label_values_are_escaped() {
        let hostile = "evil\"} 1\nflowgw_jobs_total{state=\"shed\\";
        let mut snap = full_gateway_snapshot();
        snap.tenants[0].0 = hostile.to_string();
        let text = snap.to_prometheus_text();
        assert_eq!(
            text.lines().count(),
            RECORDED_GATEWAY_TEXT.lines().count(),
            "a label value must not add lines"
        );
        let tenant_samples: Vec<_> = text
            .lines()
            .filter_map(parse_sample)
            .filter(|(name, _)| *name == "flowgw_tenant_jobs_total")
            .collect();
        assert_eq!(tenant_samples.len(), 3);
        for (_, labels) in &tenant_samples {
            assert_eq!(labels[0], ("tenant", hostile.to_string()));
        }
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with("flowgw_jobs_total{state=\"shed\"}"))
                .collect::<Vec<_>>(),
            ["flowgw_jobs_total{state=\"shed\"} 1"]
        );
    }

    const RECORDED_FLOWD_JSON: &str = r#"{"jobs":{"submitted":11,"completed":7,"failed":2,"rejected":3,"panicked":1,"timed_out":4,"cancelled":5},"queue":{"depth":6,"peak":9},"workers":{"configured":2},"connections":{"open":3,"rejected":8},"cache":{"memory_hits":9,"disk_hits":3,"misses":9,"entries":14,"memory_evicted":3,"store":{"entries":11,"bytes":5120,"budget_bytes":8192,"disk_hits":8,"disk_misses":1,"quarantined":2,"evicted":3,"writes":9,"write_errors":4,"scrubbed":6},"remote":{"published":5,"publish_failures":1,"breaker_skips":2,"breaker":"half-open"}},"stages":{"pack":{"latency":{"count":2,"sum_ms":12.4,"buckets":[{"le":1,"count":1},{"le":2,"count":1},{"le":5,"count":1},{"le":10,"count":1},{"le":20,"count":2},{"le":50,"count":2},{"le":100,"count":2},{"le":200,"count":2},{"le":500,"count":2},{"le":1000,"count":2},{"le":2000,"count":2},{"le":5000,"count":2},{"le":"+Inf","count":2}]},"memory_hits":5,"disk_hits":2,"misses":3,"wall_ms":40},"route":{"latency":{"count":2,"sum_ms":10149.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":1},{"le":500,"count":1},{"le":1000,"count":1},{"le":2000,"count":1},{"le":5000,"count":1},{"le":"+Inf","count":2}]},"memory_hits":4,"disk_hits":1,"misses":6,"wall_ms":10150}},"job_duration_ms":{"compile":{"count":2,"sum_ms":89.5,"buckets":[{"le":1,"count":0},{"le":2,"count":1},{"le":5,"count":1},{"le":10,"count":1},{"le":20,"count":1},{"le":50,"count":1},{"le":100,"count":2},{"le":200,"count":2},{"le":500,"count":2},{"le":1000,"count":2},{"le":2000,"count":2},{"le":5000,"count":2},{"le":"+Inf","count":2}]}},"unknown_stage_events":1,"lint_rules":{"NL001":1,"NL002":0,"NL003":0,"PK001":0,"PL001":0,"RT001":0,"RT002":2,"BS001":0,"EQ001":0,"EQ002":0,"EQ003":0,"unknown":1},"verify_rules":{"EQ001":0,"EQ002":1,"EQ003":0,"unknown":1}}"#;

    const RECORDED_FLOWD_TEXT: &str = r#"# HELP flowd_jobs_total Jobs by terminal state.
# TYPE flowd_jobs_total counter
flowd_jobs_total{state="submitted"} 11
flowd_jobs_total{state="completed"} 7
flowd_jobs_total{state="failed"} 2
flowd_jobs_total{state="rejected"} 3
flowd_jobs_total{state="panicked"} 1
flowd_jobs_total{state="timed_out"} 4
flowd_jobs_total{state="cancelled"} 5
# TYPE flowd_queue_depth gauge
flowd_queue_depth 6
# TYPE flowd_queue_depth_peak gauge
flowd_queue_depth_peak 9
# TYPE flowd_workers_configured gauge
flowd_workers_configured 2
# TYPE flowd_connections_open gauge
flowd_connections_open 3
# TYPE flowd_connections_rejected_total counter
flowd_connections_rejected_total 8
# HELP flowd_cache_hits_total Stage-cache hits by tier.
# TYPE flowd_cache_hits_total counter
flowd_cache_hits_total{tier="memory"} 9
flowd_cache_hits_total{tier="disk"} 3
# TYPE flowd_cache_misses_total counter
flowd_cache_misses_total 9
# TYPE flowd_cache_entries gauge
flowd_cache_entries 14
# TYPE flowd_cache_memory_evicted_total counter
flowd_cache_memory_evicted_total 3
# TYPE flowd_store_disk_hits_total counter
flowd_store_disk_hits_total 8
# TYPE flowd_store_disk_misses_total counter
flowd_store_disk_misses_total 1
# TYPE flowd_store_quarantined_total counter
flowd_store_quarantined_total 2
# TYPE flowd_store_evicted_total counter
flowd_store_evicted_total 3
# TYPE flowd_store_writes_total counter
flowd_store_writes_total 9
# TYPE flowd_store_write_errors_total counter
flowd_store_write_errors_total 4
# TYPE flowd_store_scrubbed_total counter
flowd_store_scrubbed_total 6
# TYPE flowd_remote_publish_total counter
flowd_remote_publish_total{result="ok"} 5
flowd_remote_publish_total{result="failure"} 1
# HELP flowd_remote_breaker_state 0=closed 1=half-open 2=open.
# TYPE flowd_remote_breaker_state gauge
flowd_remote_breaker_state 1
# HELP flowd_stage_duration_ms Per-stage service latency (cache hits included).
# TYPE flowd_stage_duration_ms histogram
flowd_stage_duration_ms_bucket{stage="pack",le="1"} 1
flowd_stage_duration_ms_bucket{stage="pack",le="2"} 1
flowd_stage_duration_ms_bucket{stage="pack",le="5"} 1
flowd_stage_duration_ms_bucket{stage="pack",le="10"} 1
flowd_stage_duration_ms_bucket{stage="pack",le="20"} 2
flowd_stage_duration_ms_bucket{stage="pack",le="50"} 2
flowd_stage_duration_ms_bucket{stage="pack",le="100"} 2
flowd_stage_duration_ms_bucket{stage="pack",le="200"} 2
flowd_stage_duration_ms_bucket{stage="pack",le="500"} 2
flowd_stage_duration_ms_bucket{stage="pack",le="1000"} 2
flowd_stage_duration_ms_bucket{stage="pack",le="2000"} 2
flowd_stage_duration_ms_bucket{stage="pack",le="5000"} 2
flowd_stage_duration_ms_bucket{stage="pack",le="+Inf"} 2
flowd_stage_duration_ms_sum{stage="pack"} 12.4
flowd_stage_duration_ms_count{stage="pack"} 2
flowd_stage_duration_ms_bucket{stage="route",le="1"} 0
flowd_stage_duration_ms_bucket{stage="route",le="2"} 0
flowd_stage_duration_ms_bucket{stage="route",le="5"} 0
flowd_stage_duration_ms_bucket{stage="route",le="10"} 0
flowd_stage_duration_ms_bucket{stage="route",le="20"} 0
flowd_stage_duration_ms_bucket{stage="route",le="50"} 0
flowd_stage_duration_ms_bucket{stage="route",le="100"} 0
flowd_stage_duration_ms_bucket{stage="route",le="200"} 1
flowd_stage_duration_ms_bucket{stage="route",le="500"} 1
flowd_stage_duration_ms_bucket{stage="route",le="1000"} 1
flowd_stage_duration_ms_bucket{stage="route",le="2000"} 1
flowd_stage_duration_ms_bucket{stage="route",le="5000"} 1
flowd_stage_duration_ms_bucket{stage="route",le="+Inf"} 2
flowd_stage_duration_ms_sum{stage="route"} 10149
flowd_stage_duration_ms_count{stage="route"} 2
# HELP flowd_job_duration_ms Request parsed to terminal event written, per job verb.
# TYPE flowd_job_duration_ms histogram
flowd_job_duration_ms_bucket{verb="compile",le="1"} 0
flowd_job_duration_ms_bucket{verb="compile",le="2"} 1
flowd_job_duration_ms_bucket{verb="compile",le="5"} 1
flowd_job_duration_ms_bucket{verb="compile",le="10"} 1
flowd_job_duration_ms_bucket{verb="compile",le="20"} 1
flowd_job_duration_ms_bucket{verb="compile",le="50"} 1
flowd_job_duration_ms_bucket{verb="compile",le="100"} 2
flowd_job_duration_ms_bucket{verb="compile",le="200"} 2
flowd_job_duration_ms_bucket{verb="compile",le="500"} 2
flowd_job_duration_ms_bucket{verb="compile",le="1000"} 2
flowd_job_duration_ms_bucket{verb="compile",le="2000"} 2
flowd_job_duration_ms_bucket{verb="compile",le="5000"} 2
flowd_job_duration_ms_bucket{verb="compile",le="+Inf"} 2
flowd_job_duration_ms_sum{verb="compile"} 89.5
flowd_job_duration_ms_count{verb="compile"} 2
# TYPE flowd_unknown_stage_events_total counter
flowd_unknown_stage_events_total 1
# HELP flowd_lint_rule_hits_total Design-rule findings by rule code.
# TYPE flowd_lint_rule_hits_total counter
flowd_lint_rule_hits_total{rule="NL001"} 1
flowd_lint_rule_hits_total{rule="NL002"} 0
flowd_lint_rule_hits_total{rule="NL003"} 0
flowd_lint_rule_hits_total{rule="PK001"} 0
flowd_lint_rule_hits_total{rule="PL001"} 0
flowd_lint_rule_hits_total{rule="RT001"} 0
flowd_lint_rule_hits_total{rule="RT002"} 2
flowd_lint_rule_hits_total{rule="BS001"} 0
flowd_lint_rule_hits_total{rule="EQ001"} 0
flowd_lint_rule_hits_total{rule="EQ002"} 0
flowd_lint_rule_hits_total{rule="EQ003"} 0
# TYPE flowd_unknown_lint_rules_total counter
flowd_unknown_lint_rules_total 1
# HELP flowd_verify_rule_hits_total Equivalence findings by EQ rule code.
# TYPE flowd_verify_rule_hits_total counter
flowd_verify_rule_hits_total{rule="EQ001"} 0
flowd_verify_rule_hits_total{rule="EQ002"} 1
flowd_verify_rule_hits_total{rule="EQ003"} 0
# TYPE flowd_unknown_verify_rules_total counter
flowd_unknown_verify_rules_total 1
"#;

    const RECORDED_GATEWAY_JSON: &str = r#"{"role":"gateway","jobs":{"submitted":5,"completed":4,"failed":0,"shed":1,"timed_out":0,"failovers":1,"steals":2},"job_duration_ms":{"compile":{"count":1,"sum_ms":2.5,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":1},{"le":10,"count":1},{"le":20,"count":1},{"le":50,"count":1},{"le":100,"count":1},{"le":200,"count":1},{"le":500,"count":1},{"le":1000,"count":1},{"le":2000,"count":1},{"le":5000,"count":1},{"le":"+Inf","count":1}]}},"backends":[{"addr":"127.0.0.1:9101","healthy":true,"breaker":"closed","breaker_transitions":{"opened":0,"half_opened":0,"closed":0},"in_flight":1,"requests":3,"failures":0,"failovers":0,"put_breaker":"closed","steals":2},{"addr":"127.0.0.1:9102","healthy":false,"breaker":"open","breaker_transitions":{"opened":1,"half_opened":0,"closed":0},"in_flight":0,"requests":2,"failures":1,"failovers":1,"put_breaker":"open","steals":0}],"tenants":{"acme":{"admitted":4,"queued":2,"shed":1}},"admission":{"inflight":1,"queued":0,"max_inflight":8,"queue_bound":16},"artifacts":{"puts":5,"put_failures":0,"bytes_stored":4096},"cache":{"memory_hits":10,"disk_hits":2,"misses":3}}"#;

    const RECORDED_GATEWAY_TEXT: &str = r#"# HELP flowgw_jobs_total Gateway jobs by terminal state.
# TYPE flowgw_jobs_total counter
flowgw_jobs_total{state="submitted"} 5
flowgw_jobs_total{state="completed"} 4
flowgw_jobs_total{state="failed"} 0
flowgw_jobs_total{state="shed"} 1
flowgw_jobs_total{state="timed_out"} 0
# HELP flowgw_job_duration_ms Admission to terminal event forwarded, per job verb.
# TYPE flowgw_job_duration_ms histogram
flowgw_job_duration_ms_bucket{verb="compile",le="1"} 0
flowgw_job_duration_ms_bucket{verb="compile",le="2"} 0
flowgw_job_duration_ms_bucket{verb="compile",le="5"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="10"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="20"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="50"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="100"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="200"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="500"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="1000"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="2000"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="5000"} 1
flowgw_job_duration_ms_bucket{verb="compile",le="+Inf"} 1
flowgw_job_duration_ms_sum{verb="compile"} 2.5
flowgw_job_duration_ms_count{verb="compile"} 1
# HELP flowgw_backend_requests_total Job attempts per backend.
# TYPE flowgw_backend_requests_total counter
flowgw_backend_requests_total{backend="127.0.0.1:9101"} 3
flowgw_backend_requests_total{backend="127.0.0.1:9102"} 2
# TYPE flowgw_backend_failures_total counter
flowgw_backend_failures_total{backend="127.0.0.1:9101"} 0
flowgw_backend_failures_total{backend="127.0.0.1:9102"} 1
# HELP flowgw_backend_failovers_total Attempts re-routed here from a dead peer.
# TYPE flowgw_backend_failovers_total counter
flowgw_backend_failovers_total{backend="127.0.0.1:9101"} 0
flowgw_backend_failovers_total{backend="127.0.0.1:9102"} 1
# HELP flowgw_backend_steals_total Jobs routed here instead of their busy affinity backend.
# TYPE flowgw_backend_steals_total counter
flowgw_backend_steals_total{backend="127.0.0.1:9101"} 2
flowgw_backend_steals_total{backend="127.0.0.1:9102"} 0
# TYPE flowgw_steals_total counter
flowgw_steals_total 2
# TYPE flowgw_backend_in_flight gauge
flowgw_backend_in_flight{backend="127.0.0.1:9101"} 1
flowgw_backend_in_flight{backend="127.0.0.1:9102"} 0
# HELP flowgw_backend_healthy Last probe ok and breaker not open.
# TYPE flowgw_backend_healthy gauge
flowgw_backend_healthy{backend="127.0.0.1:9101"} 1
flowgw_backend_healthy{backend="127.0.0.1:9102"} 0
# HELP flowgw_breaker_state 0=closed 1=half-open 2=open.
# TYPE flowgw_breaker_state gauge
flowgw_breaker_state{backend="127.0.0.1:9101"} 0
flowgw_breaker_state{backend="127.0.0.1:9102"} 2
# HELP flowgw_put_breaker_state artifact_put replication breaker: 0=closed 1=half-open 2=open.
# TYPE flowgw_put_breaker_state gauge
flowgw_put_breaker_state{backend="127.0.0.1:9101"} 0
flowgw_put_breaker_state{backend="127.0.0.1:9102"} 2
# TYPE flowgw_breaker_transitions_total counter
flowgw_breaker_transitions_total{backend="127.0.0.1:9101",to="open"} 0
flowgw_breaker_transitions_total{backend="127.0.0.1:9101",to="half-open"} 0
flowgw_breaker_transitions_total{backend="127.0.0.1:9101",to="closed"} 0
flowgw_breaker_transitions_total{backend="127.0.0.1:9102",to="open"} 1
flowgw_breaker_transitions_total{backend="127.0.0.1:9102",to="half-open"} 0
flowgw_breaker_transitions_total{backend="127.0.0.1:9102",to="closed"} 0
# HELP flowgw_tenant_jobs_total Per-tenant admission outcomes.
# TYPE flowgw_tenant_jobs_total counter
flowgw_tenant_jobs_total{tenant="acme",state="admitted"} 4
flowgw_tenant_jobs_total{tenant="acme",state="queued"} 2
flowgw_tenant_jobs_total{tenant="acme",state="shed"} 1
# TYPE flowgw_admission_inflight gauge
flowgw_admission_inflight 1
# TYPE flowgw_admission_queued gauge
flowgw_admission_queued 0
# HELP flowgw_artifact_requests_total Artifact verbs received from daemons.
# TYPE flowgw_artifact_requests_total counter
flowgw_artifact_requests_total{verb="put"} 5
# TYPE flowgw_artifact_put_failures_total counter
flowgw_artifact_put_failures_total 0
# TYPE flowgw_artifact_bytes_total counter
flowgw_artifact_bytes_total{direction="stored"} 4096
# HELP flowgw_cache_hits_total Backend stage-cache hits by tier (aggregated).
# TYPE flowgw_cache_hits_total counter
flowgw_cache_hits_total{tier="memory"} 10
flowgw_cache_hits_total{tier="disk"} 2
# TYPE flowgw_cache_misses_total counter
flowgw_cache_misses_total 3
"#;
}
