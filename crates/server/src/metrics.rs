//! Process-wide metrics for `flowd`: per-stage latency histograms plus
//! the counters the rest of the daemon already keeps (job outcomes,
//! queue depth, worker restarts, cache tiers), gathered into one
//! snapshot for the `metrics` protocol verb.
//!
//! Histograms use fixed millisecond bucket bounds (the classic
//! log-ish ladder 1..5000 ms plus `+Inf`), so two snapshots can be
//! subtracted and exports stay mergeable across restarts. Everything is
//! atomics — `observe` on the hot path is a couple of relaxed
//! `fetch_add`s, no locks.
//!
//! Two renderings:
//!
//! * [`MetricsSnapshot::to_json`] — the structured body of the
//!   `{"cmd":"metrics"}` response;
//! * [`MetricsSnapshot::to_prometheus_text`] — a Prometheus-style text
//!   exposition (`flowd_*` families) for `flowc metrics --text` and
//!   `flowd --metrics-dump`.

use std::sync::atomic::{AtomicU64, Ordering};

use fpga_flow::cache::STAGES;
use fpga_flow::CheckKind;
use fpga_lint::{Diagnostic, Rule, RULES};
use serde_json::Value;

use crate::breaker::BreakerCounters;
use crate::tenancy::TenantCounters;

/// Upper bounds (milliseconds, inclusive) of the latency buckets; an
/// implicit `+Inf` bucket follows. Chosen to straddle the stand-in
/// pipeline's stage times (sub-millisecond to seconds under `--fault
/// sleep`).
pub const BUCKET_BOUNDS_MS: [u64; 12] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000];

/// A fixed-bucket latency histogram. Cheap to observe, lock-free.
#[derive(Default)]
pub struct Histogram {
    /// One slot per bound in [`BUCKET_BOUNDS_MS`] plus the `+Inf` slot.
    buckets: [AtomicU64; BUCKET_BOUNDS_MS.len() + 1],
    count: AtomicU64,
    /// Sum in microseconds: integer atomics, converted to ms on export.
    sum_us: AtomicU64,
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
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us
            .fetch_add((ms * 1e3).round() as u64, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ms: self.sum_us.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, same order as [`BUCKET_BOUNDS_MS`] with the
    /// trailing `+Inf` slot. *Not* cumulative; rendering accumulates.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum_ms: f64,
}

impl HistogramSnapshot {
    /// JSON form: cumulative `le` buckets, Prometheus-style.
    pub fn to_json(&self) -> Value {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cumulative += n;
            let le = match BUCKET_BOUNDS_MS.get(i) {
                Some(bound) => Value::from(*bound),
                None => Value::from("+Inf"),
            };
            buckets.push(serde_json::json!({"le": le, "count": cumulative}));
        }
        serde_json::json!({
            "count": self.count,
            "sum_ms": self.sum_ms,
            "buckets": Value::Array(buckets),
        })
    }
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
    unknown_stage_events: AtomicU64,
    /// Findings by rule code, one table per family (indexed by
    /// [`CheckKind`]): the structural design rules under `flowd_lint_*`,
    /// the EQ equivalence rules under `flowd_verify_*`.
    rule_hits: [RuleHits; 2],
}

/// One rule family's finding counters.
#[derive(Default)]
struct RuleHits {
    /// By rule code, in [`RULES`] order.
    hits: [AtomicU64; RULES.len()],
    /// Findings whose code the family does not list — the rule analogue
    /// of `unknown_stage_events`; nonzero means version skew.
    unknown: AtomicU64,
}

/// The rule families, indexed by [`CheckKind`]: metric name stem and
/// `# HELP` text.
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
            None => {
                self.unknown_stage_events.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub fn unknown_stage_events(&self) -> u64 {
        self.unknown_stage_events.load(Ordering::Relaxed)
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
            Some(i) => counters.hits[i].fetch_add(1, Ordering::Relaxed),
            None => counters.unknown.fetch_add(1, Ordering::Relaxed),
        };
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
                    .map(|(r, n)| (r.code, n.load(Ordering::Relaxed)))
                    .collect(),
                unknown: counters.unknown.load(Ordering::Relaxed),
            }
        })
    }

    /// Snapshot every stage histogram, in flow order.
    pub fn stage_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        STAGES
            .iter()
            .zip(self.stage_latency.iter())
            .map(|(s, h)| (s.name(), h.snapshot()))
            .collect()
    }
}

/// Scalar counters the service contributes to a snapshot (already
/// tracked elsewhere in the daemon; gathered here so the two renderings
/// agree on names).
#[derive(Clone, Debug, Default)]
pub struct ServiceCounters {
    pub jobs_submitted: u64,
    pub jobs_completed: u64,
    pub jobs_failed: u64,
    pub jobs_rejected: u64,
    pub jobs_panicked: u64,
    pub jobs_timed_out: u64,
    pub jobs_cancelled: u64,
    pub queue_depth: u64,
    pub queue_peak: u64,
    pub workers_configured: u64,
    pub workers_respawned: u64,
    pub connections_open: u64,
    pub connections_rejected: u64,
}

/// Per-stage cache tier counts folded into a snapshot.
#[derive(Clone, Debug, Default)]
pub struct StageCacheCounters {
    pub memory_hits: u64,
    pub disk_hits: u64,
    /// Hits served from a peer's store via the remote artifact tier.
    pub remote_hits: u64,
    pub misses: u64,
    pub wall_ms: u64,
}

/// Daemon-side remote artifact tier client counters, present when
/// `--artifact-gateway` is configured. Every failure here is a
/// degradation (the stage recomputes locally), never a job error — the
/// counters are how operators see the tier limping.
#[derive(Clone, Debug, Default)]
pub struct RemoteTierCounters {
    pub fetch_hits: u64,
    pub fetch_misses: u64,
    /// Fetch attempts that errored out (connect/timeout/short read)
    /// after retries — degraded to a local recompute.
    pub fetch_failures: u64,
    pub bytes_fetched: u64,
    pub published: u64,
    pub publish_failures: u64,
    /// Fetches skipped outright because the per-gateway breaker was open.
    pub breaker_skips: u64,
    /// Fetch breaker state name: `closed` / `open` / `half-open`.
    pub breaker: &'static str,
}

/// Everything the `metrics` verb reports, assembled by the service.
#[derive(Default)]
pub struct MetricsSnapshot {
    pub service: ServiceCounters,
    /// `(stage_id, latency, cache)` in flow order.
    pub stages: Vec<(&'static str, HistogramSnapshot, StageCacheCounters)>,
    pub cache_entries: u64,
    pub cache_memory_evicted: u64,
    /// Durable-store counters, when `--cache-dir` is configured:
    /// `(disk_hits, disk_misses, quarantined, evicted, writes)`.
    pub store: Option<(u64, u64, u64, u64, u64)>,
    /// Remote artifact tier client counters, when `--artifact-gateway`
    /// is configured.
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
    fn totals(&self) -> (u64, u64, u64, u64) {
        let mut memory = 0;
        let mut disk = 0;
        let mut remote = 0;
        let mut misses = 0;
        for (_, _, c) in &self.stages {
            memory += c.memory_hits;
            disk += c.disk_hits;
            remote += c.remote_hits;
            misses += c.misses;
        }
        (memory, disk, remote, misses)
    }

    /// The structured body of the `{"cmd":"metrics"}` response. Field
    /// names are part of the wire protocol (see DESIGN.md).
    pub fn to_json(&self) -> Value {
        let mut stages = serde_json::Map::new();
        for (name, hist, cache) in &self.stages {
            stages.insert(
                name.to_string(),
                serde_json::json!({
                    "latency": hist.to_json(),
                    "memory_hits": cache.memory_hits,
                    "disk_hits": cache.disk_hits,
                    "remote_hits": cache.remote_hits,
                    "misses": cache.misses,
                    "wall_ms": cache.wall_ms,
                }),
            );
        }
        let (memory_hits, disk_hits, remote_hits, misses) = self.totals();
        let s = &self.service;
        let mut root = serde_json::Map::new();
        root.insert(
            "jobs".into(),
            serde_json::json!({
                "submitted": s.jobs_submitted,
                "completed": s.jobs_completed,
                "failed": s.jobs_failed,
                "rejected": s.jobs_rejected,
                "panicked": s.jobs_panicked,
                "timed_out": s.jobs_timed_out,
                "cancelled": s.jobs_cancelled,
            }),
        );
        root.insert(
            "queue".into(),
            serde_json::json!({"depth": s.queue_depth, "peak": s.queue_peak}),
        );
        root.insert(
            "workers".into(),
            serde_json::json!({"configured": s.workers_configured, "respawned": s.workers_respawned}),
        );
        root.insert(
            "connections".into(),
            serde_json::json!({"open": s.connections_open, "rejected": s.connections_rejected}),
        );
        let mut cache = serde_json::Map::new();
        cache.insert("memory_hits".into(), memory_hits.into());
        cache.insert("disk_hits".into(), disk_hits.into());
        cache.insert("remote_hits".into(), remote_hits.into());
        cache.insert("misses".into(), misses.into());
        cache.insert("entries".into(), self.cache_entries.into());
        cache.insert("memory_evicted".into(), self.cache_memory_evicted.into());
        if let Some((dh, dm, q, ev, w)) = self.store {
            cache.insert(
                "store".into(),
                serde_json::json!({
                    "disk_hits": dh,
                    "disk_misses": dm,
                    "quarantined": q,
                    "evicted": ev,
                    "writes": w,
                }),
            );
        }
        if let Some(r) = &self.remote {
            cache.insert(
                "remote".into(),
                serde_json::json!({
                    "fetch_hits": r.fetch_hits,
                    "fetch_misses": r.fetch_misses,
                    "fetch_failures": r.fetch_failures,
                    "bytes_fetched": r.bytes_fetched,
                    "published": r.published,
                    "publish_failures": r.publish_failures,
                    "breaker_skips": r.breaker_skips,
                    "breaker": r.breaker,
                }),
            );
        }
        root.insert("cache".into(), Value::Object(cache));
        root.insert("stages".into(), Value::Object(stages));
        root.insert(
            "unknown_stage_events".into(),
            self.unknown_stage_events.into(),
        );
        for ((family, _), counts) in RULE_FAMILIES.iter().zip(&self.rules) {
            let mut rules = serde_json::Map::new();
            for (code, n) in &counts.hits {
                rules.insert(code.to_string(), (*n).into());
            }
            rules.insert("unknown".into(), counts.unknown.into());
            root.insert(format!("{family}_rules"), Value::Object(rules));
        }
        Value::Object(root)
    }

    /// Prometheus-style text exposition (`flowd --metrics-dump`,
    /// `flowc metrics --text`).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let s = &self.service;
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };

        push(
            &mut out,
            "# HELP flowd_jobs_total Jobs by terminal state.".into(),
        );
        push(&mut out, "# TYPE flowd_jobs_total counter".into());
        for (state, n) in [
            ("submitted", s.jobs_submitted),
            ("completed", s.jobs_completed),
            ("failed", s.jobs_failed),
            ("rejected", s.jobs_rejected),
            ("panicked", s.jobs_panicked),
            ("timed_out", s.jobs_timed_out),
            ("cancelled", s.jobs_cancelled),
        ] {
            push(
                &mut out,
                format!("flowd_jobs_total{{state=\"{state}\"}} {n}"),
            );
        }

        push(&mut out, "# TYPE flowd_queue_depth gauge".into());
        push(&mut out, format!("flowd_queue_depth {}", s.queue_depth));
        push(&mut out, "# TYPE flowd_queue_depth_peak gauge".into());
        push(&mut out, format!("flowd_queue_depth_peak {}", s.queue_peak));
        push(&mut out, "# TYPE flowd_workers_configured gauge".into());
        push(
            &mut out,
            format!("flowd_workers_configured {}", s.workers_configured),
        );
        push(
            &mut out,
            "# TYPE flowd_workers_respawned_total counter".into(),
        );
        push(
            &mut out,
            format!("flowd_workers_respawned_total {}", s.workers_respawned),
        );
        push(&mut out, "# TYPE flowd_connections_open gauge".into());
        push(
            &mut out,
            format!("flowd_connections_open {}", s.connections_open),
        );
        push(
            &mut out,
            "# TYPE flowd_connections_rejected_total counter".into(),
        );
        push(
            &mut out,
            format!(
                "flowd_connections_rejected_total {}",
                s.connections_rejected
            ),
        );

        let (memory_hits, disk_hits, remote_hits, misses) = self.totals();
        push(
            &mut out,
            "# HELP flowd_cache_hits_total Stage-cache hits by tier.".into(),
        );
        push(&mut out, "# TYPE flowd_cache_hits_total counter".into());
        push(
            &mut out,
            format!("flowd_cache_hits_total{{tier=\"memory\"}} {memory_hits}"),
        );
        push(
            &mut out,
            format!("flowd_cache_hits_total{{tier=\"disk\"}} {disk_hits}"),
        );
        push(
            &mut out,
            format!("flowd_cache_hits_total{{tier=\"remote\"}} {remote_hits}"),
        );
        push(&mut out, "# TYPE flowd_cache_misses_total counter".into());
        push(&mut out, format!("flowd_cache_misses_total {misses}"));
        push(&mut out, "# TYPE flowd_cache_entries gauge".into());
        push(
            &mut out,
            format!("flowd_cache_entries {}", self.cache_entries),
        );
        push(
            &mut out,
            "# TYPE flowd_cache_memory_evicted_total counter".into(),
        );
        push(
            &mut out,
            format!(
                "flowd_cache_memory_evicted_total {}",
                self.cache_memory_evicted
            ),
        );
        if let Some((dh, dm, q, ev, w)) = self.store {
            push(
                &mut out,
                "# TYPE flowd_store_disk_hits_total counter".into(),
            );
            push(&mut out, format!("flowd_store_disk_hits_total {dh}"));
            push(
                &mut out,
                "# TYPE flowd_store_disk_misses_total counter".into(),
            );
            push(&mut out, format!("flowd_store_disk_misses_total {dm}"));
            push(
                &mut out,
                "# TYPE flowd_store_quarantined_total counter".into(),
            );
            push(&mut out, format!("flowd_store_quarantined_total {q}"));
            push(&mut out, "# TYPE flowd_store_evicted_total counter".into());
            push(&mut out, format!("flowd_store_evicted_total {ev}"));
            push(&mut out, "# TYPE flowd_store_writes_total counter".into());
            push(&mut out, format!("flowd_store_writes_total {w}"));
        }
        if let Some(r) = &self.remote {
            push(
                &mut out,
                "# HELP flowd_remote_fetch_total Remote artifact fetches by result.".into(),
            );
            push(&mut out, "# TYPE flowd_remote_fetch_total counter".into());
            for (result, n) in [
                ("hit", r.fetch_hits),
                ("miss", r.fetch_misses),
                ("failure", r.fetch_failures),
                ("breaker-skip", r.breaker_skips),
            ] {
                push(
                    &mut out,
                    format!("flowd_remote_fetch_total{{result=\"{result}\"}} {n}"),
                );
            }
            push(
                &mut out,
                "# TYPE flowd_remote_bytes_fetched_total counter".into(),
            );
            push(
                &mut out,
                format!("flowd_remote_bytes_fetched_total {}", r.bytes_fetched),
            );
            push(&mut out, "# TYPE flowd_remote_publish_total counter".into());
            for (result, n) in [("ok", r.published), ("failure", r.publish_failures)] {
                push(
                    &mut out,
                    format!("flowd_remote_publish_total{{result=\"{result}\"}} {n}"),
                );
            }
            push(
                &mut out,
                "# HELP flowd_remote_breaker_state 0=closed 1=half-open 2=open.".into(),
            );
            push(&mut out, "# TYPE flowd_remote_breaker_state gauge".into());
            let code = match r.breaker {
                "closed" => 0,
                "half-open" => 1,
                _ => 2,
            };
            push(&mut out, format!("flowd_remote_breaker_state {code}"));
        }

        push(
            &mut out,
            "# HELP flowd_stage_duration_ms Per-stage service latency (cache hits included)."
                .into(),
        );
        push(&mut out, "# TYPE flowd_stage_duration_ms histogram".into());
        for (stage, hist, _) in &self.stages {
            let mut cumulative = 0u64;
            for (i, n) in hist.buckets.iter().enumerate() {
                cumulative += n;
                let le = match BUCKET_BOUNDS_MS.get(i) {
                    Some(bound) => bound.to_string(),
                    None => "+Inf".to_string(),
                };
                push(
                    &mut out,
                    format!(
                        "flowd_stage_duration_ms_bucket{{stage=\"{stage}\",le=\"{le}\"}} {cumulative}"
                    ),
                );
            }
            push(
                &mut out,
                format!(
                    "flowd_stage_duration_ms_sum{{stage=\"{stage}\"}} {}",
                    hist.sum_ms
                ),
            );
            push(
                &mut out,
                format!(
                    "flowd_stage_duration_ms_count{{stage=\"{stage}\"}} {}",
                    hist.count
                ),
            );
        }

        push(
            &mut out,
            "# TYPE flowd_unknown_stage_events_total counter".into(),
        );
        push(
            &mut out,
            format!(
                "flowd_unknown_stage_events_total {}",
                self.unknown_stage_events
            ),
        );

        for ((family, help), counts) in RULE_FAMILIES.iter().zip(&self.rules) {
            push(
                &mut out,
                format!("# HELP flowd_{family}_rule_hits_total {help}"),
            );
            push(
                &mut out,
                format!("# TYPE flowd_{family}_rule_hits_total counter"),
            );
            for (code, n) in &counts.hits {
                push(
                    &mut out,
                    format!("flowd_{family}_rule_hits_total{{rule=\"{code}\"}} {n}"),
                );
            }
            push(
                &mut out,
                format!("# TYPE flowd_unknown_{family}_rules_total counter"),
            );
            push(
                &mut out,
                format!("flowd_unknown_{family}_rules_total {}", counts.unknown),
            );
        }
        out
    }
}

/// One backend's row in a [`GatewaySnapshot`].
#[derive(Clone, Debug)]
pub struct BackendSnapshot {
    pub addr: String,
    /// Last health probe succeeded and the breaker is not open.
    pub healthy: bool,
    /// Breaker state name: `closed` / `open` / `half-open`.
    pub breaker: &'static str,
    pub breaker_transitions: BreakerCounters,
    pub in_flight: u64,
    /// Job attempts routed to this backend (including failed ones).
    pub requests: u64,
    /// Attempts that ended in a transport failure or lost worker.
    pub failures: u64,
    /// Attempts re-routed here *from* a failed peer attempt.
    pub failovers: u64,
    /// Artifact-fetch breaker state name (`closed` / `open` /
    /// `half-open`) — separate from the job breaker so a flaky artifact
    /// path never stops job routing.
    pub fetch_breaker: &'static str,
    /// Jobs routed here instead of their busy affinity backend.
    pub steals: u64,
}

/// Gateway artifact-tier counters (`artifact_get` / `artifact_put`
/// verbs fanned out to backends).
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayArtifactCounters {
    /// `artifact_get` requests received from daemons.
    pub gets: u64,
    /// Gets answered with a payload from some backend.
    pub hits: u64,
    /// Gets answered `hit=false` (no backend had the entry).
    pub misses: u64,
    /// Backend exchanges that errored during a get (fed the fetch
    /// breaker; the get degrades to a miss, never an error).
    pub fetch_failures: u64,
    /// `artifact_put` requests received from daemons.
    pub puts: u64,
    /// Put replications that failed on a backend.
    pub put_failures: u64,
    /// Payload bytes served to fetching daemons.
    pub bytes_served: u64,
    /// Payload bytes accepted from publishing daemons.
    pub bytes_stored: u64,
    /// Payloads deliberately corrupted by the `--corrupt-artifacts`
    /// chaos hook before serving.
    pub corrupted: u64,
}

/// Gateway-level job terminals.
#[derive(Clone, Copy, Debug, Default)]
pub struct GatewayJobCounters {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Shed at admission (tenant quota / queue bound) or because every
    /// backend was saturated or broken.
    pub shed: u64,
    pub timed_out: u64,
}

/// Everything `flow-gateway`'s `metrics` verb reports — the gateway
/// family the issue asks for, rendered in the same two shapes as the
/// daemon's snapshot (JSON body + `flowgw_*` Prometheus text).
#[derive(Clone, Debug, Default)]
pub struct GatewaySnapshot {
    pub jobs: GatewayJobCounters,
    pub backends: Vec<BackendSnapshot>,
    /// `(tenant, counters)` sorted by tenant name.
    pub tenants: Vec<(String, TenantCounters)>,
    pub admission_inflight: u64,
    pub admission_queued: u64,
    pub max_inflight: u64,
    pub queue_bound: u64,
    /// Artifact-tier traffic through the gateway.
    pub artifacts: GatewayArtifactCounters,
    /// Aggregated `(memory_hits, disk_hits, remote_hits, misses)`
    /// scraped from the healthy backends at snapshot time — lets
    /// cache-aware clients (`qor_bench --via-daemon`) read one `cache`
    /// object through the gateway exactly as they would from a single
    /// daemon.
    pub cache: Option<(u64, u64, u64, u64)>,
}

impl GatewaySnapshot {
    /// Total failovers across backends (the headline counter the chaos
    /// harness asserts on).
    pub fn failover_total(&self) -> u64 {
        self.backends.iter().map(|b| b.failovers).sum()
    }

    /// Total work steals across backends.
    pub fn steal_total(&self) -> u64 {
        self.backends.iter().map(|b| b.steals).sum()
    }

    /// The structured body of the gateway's `{"cmd":"metrics"}` reply.
    pub fn to_json(&self) -> Value {
        let j = &self.jobs;
        let mut root = serde_json::Map::new();
        root.insert("role".into(), "gateway".into());
        root.insert(
            "jobs".into(),
            serde_json::json!({
                "submitted": j.submitted,
                "completed": j.completed,
                "failed": j.failed,
                "shed": j.shed,
                "timed_out": j.timed_out,
                "failovers": self.failover_total(),
                "steals": self.steal_total(),
            }),
        );
        let backends: Vec<Value> = self
            .backends
            .iter()
            .map(|b| {
                serde_json::json!({
                    "addr": b.addr.clone(),
                    "healthy": b.healthy,
                    "breaker": b.breaker,
                    "breaker_transitions": serde_json::json!({
                        "opened": b.breaker_transitions.opened,
                        "half_opened": b.breaker_transitions.half_opened,
                        "closed": b.breaker_transitions.closed,
                    }),
                    "in_flight": b.in_flight,
                    "requests": b.requests,
                    "failures": b.failures,
                    "failovers": b.failovers,
                    "fetch_breaker": b.fetch_breaker,
                    "steals": b.steals,
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
                "gets": a.gets,
                "hits": a.hits,
                "misses": a.misses,
                "fetch_failures": a.fetch_failures,
                "puts": a.puts,
                "put_failures": a.put_failures,
                "bytes_served": a.bytes_served,
                "bytes_stored": a.bytes_stored,
                "corrupted": a.corrupted,
            }),
        );
        if let Some((memory_hits, disk_hits, remote_hits, misses)) = self.cache {
            root.insert(
                "cache".into(),
                serde_json::json!({
                    "memory_hits": memory_hits,
                    "disk_hits": disk_hits,
                    "remote_hits": remote_hits,
                    "misses": misses,
                }),
            );
        }
        Value::Object(root)
    }

    /// Prometheus-style text exposition (`flowgw_*` families).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        let j = &self.jobs;
        push(
            &mut out,
            "# HELP flowgw_jobs_total Gateway jobs by terminal state.".into(),
        );
        push(&mut out, "# TYPE flowgw_jobs_total counter".into());
        for (state, n) in [
            ("submitted", j.submitted),
            ("completed", j.completed),
            ("failed", j.failed),
            ("shed", j.shed),
            ("timed_out", j.timed_out),
        ] {
            push(
                &mut out,
                format!("flowgw_jobs_total{{state=\"{state}\"}} {n}"),
            );
        }
        push(
            &mut out,
            "# HELP flowgw_backend_requests_total Job attempts per backend.".into(),
        );
        push(
            &mut out,
            "# TYPE flowgw_backend_requests_total counter".into(),
        );
        for b in &self.backends {
            push(
                &mut out,
                format!(
                    "flowgw_backend_requests_total{{backend=\"{}\"}} {}",
                    b.addr, b.requests
                ),
            );
        }
        push(
            &mut out,
            "# TYPE flowgw_backend_failures_total counter".into(),
        );
        for b in &self.backends {
            push(
                &mut out,
                format!(
                    "flowgw_backend_failures_total{{backend=\"{}\"}} {}",
                    b.addr, b.failures
                ),
            );
        }
        push(
            &mut out,
            "# HELP flowgw_backend_failovers_total Attempts re-routed here from a dead peer."
                .into(),
        );
        push(
            &mut out,
            "# TYPE flowgw_backend_failovers_total counter".into(),
        );
        for b in &self.backends {
            push(
                &mut out,
                format!(
                    "flowgw_backend_failovers_total{{backend=\"{}\"}} {}",
                    b.addr, b.failovers
                ),
            );
        }
        push(
            &mut out,
            "# HELP flowgw_backend_steals_total Jobs routed here instead of their busy affinity backend.".into(),
        );
        push(
            &mut out,
            "# TYPE flowgw_backend_steals_total counter".into(),
        );
        for b in &self.backends {
            push(
                &mut out,
                format!(
                    "flowgw_backend_steals_total{{backend=\"{}\"}} {}",
                    b.addr, b.steals
                ),
            );
        }
        push(&mut out, "# TYPE flowgw_steals_total counter".into());
        push(
            &mut out,
            format!("flowgw_steals_total {}", self.steal_total()),
        );
        push(&mut out, "# TYPE flowgw_backend_in_flight gauge".into());
        for b in &self.backends {
            push(
                &mut out,
                format!(
                    "flowgw_backend_in_flight{{backend=\"{}\"}} {}",
                    b.addr, b.in_flight
                ),
            );
        }
        push(
            &mut out,
            "# HELP flowgw_backend_healthy Last probe ok and breaker not open.".into(),
        );
        push(&mut out, "# TYPE flowgw_backend_healthy gauge".into());
        for b in &self.backends {
            push(
                &mut out,
                format!(
                    "flowgw_backend_healthy{{backend=\"{}\"}} {}",
                    b.addr,
                    u64::from(b.healthy)
                ),
            );
        }
        push(
            &mut out,
            "# HELP flowgw_breaker_state 0=closed 1=half-open 2=open.".into(),
        );
        push(&mut out, "# TYPE flowgw_breaker_state gauge".into());
        for b in &self.backends {
            let code = match b.breaker {
                "closed" => 0,
                "half-open" => 1,
                _ => 2,
            };
            push(
                &mut out,
                format!("flowgw_breaker_state{{backend=\"{}\"}} {code}", b.addr),
            );
        }
        push(
            &mut out,
            "# HELP flowgw_fetch_breaker_state Artifact-fetch breaker: 0=closed 1=half-open 2=open.".into(),
        );
        push(&mut out, "# TYPE flowgw_fetch_breaker_state gauge".into());
        for b in &self.backends {
            let code = match b.fetch_breaker {
                "closed" => 0,
                "half-open" => 1,
                _ => 2,
            };
            push(
                &mut out,
                format!(
                    "flowgw_fetch_breaker_state{{backend=\"{}\"}} {code}",
                    b.addr
                ),
            );
        }
        push(
            &mut out,
            "# TYPE flowgw_breaker_transitions_total counter".into(),
        );
        for b in &self.backends {
            for (to, n) in [
                ("open", b.breaker_transitions.opened),
                ("half-open", b.breaker_transitions.half_opened),
                ("closed", b.breaker_transitions.closed),
            ] {
                push(
                    &mut out,
                    format!(
                        "flowgw_breaker_transitions_total{{backend=\"{}\",to=\"{to}\"}} {n}",
                        b.addr
                    ),
                );
            }
        }
        push(
            &mut out,
            "# HELP flowgw_tenant_jobs_total Per-tenant admission outcomes.".into(),
        );
        push(&mut out, "# TYPE flowgw_tenant_jobs_total counter".into());
        for (tenant, c) in &self.tenants {
            for (state, n) in [
                ("admitted", c.admitted),
                ("queued", c.queued),
                ("shed", c.shed),
            ] {
                push(
                    &mut out,
                    format!(
                        "flowgw_tenant_jobs_total{{tenant=\"{tenant}\",state=\"{state}\"}} {n}"
                    ),
                );
            }
        }
        push(&mut out, "# TYPE flowgw_admission_inflight gauge".into());
        push(
            &mut out,
            format!("flowgw_admission_inflight {}", self.admission_inflight),
        );
        push(&mut out, "# TYPE flowgw_admission_queued gauge".into());
        push(
            &mut out,
            format!("flowgw_admission_queued {}", self.admission_queued),
        );
        let a = &self.artifacts;
        push(
            &mut out,
            "# HELP flowgw_artifact_requests_total Artifact verbs received from daemons.".into(),
        );
        push(
            &mut out,
            "# TYPE flowgw_artifact_requests_total counter".into(),
        );
        for (verb, n) in [("get", a.gets), ("put", a.puts)] {
            push(
                &mut out,
                format!("flowgw_artifact_requests_total{{verb=\"{verb}\"}} {n}"),
            );
        }
        push(
            &mut out,
            "# HELP flowgw_artifact_gets_total Artifact gets by result (failures degrade to misses downstream).".into(),
        );
        push(&mut out, "# TYPE flowgw_artifact_gets_total counter".into());
        for (result, n) in [
            ("hit", a.hits),
            ("miss", a.misses),
            ("fetch-failure", a.fetch_failures),
        ] {
            push(
                &mut out,
                format!("flowgw_artifact_gets_total{{result=\"{result}\"}} {n}"),
            );
        }
        push(
            &mut out,
            "# TYPE flowgw_artifact_put_failures_total counter".into(),
        );
        push(
            &mut out,
            format!("flowgw_artifact_put_failures_total {}", a.put_failures),
        );
        push(
            &mut out,
            "# TYPE flowgw_artifact_bytes_total counter".into(),
        );
        for (direction, n) in [("served", a.bytes_served), ("stored", a.bytes_stored)] {
            push(
                &mut out,
                format!("flowgw_artifact_bytes_total{{direction=\"{direction}\"}} {n}"),
            );
        }
        push(
            &mut out,
            "# HELP flowgw_artifact_corrupted_total Payloads corrupted by the chaos hook.".into(),
        );
        push(
            &mut out,
            "# TYPE flowgw_artifact_corrupted_total counter".into(),
        );
        push(
            &mut out,
            format!("flowgw_artifact_corrupted_total {}", a.corrupted),
        );
        if let Some((memory_hits, disk_hits, remote_hits, misses)) = self.cache {
            push(
                &mut out,
                "# HELP flowgw_cache_hits_total Backend stage-cache hits by tier (aggregated)."
                    .into(),
            );
            push(&mut out, "# TYPE flowgw_cache_hits_total counter".into());
            push(
                &mut out,
                format!("flowgw_cache_hits_total{{tier=\"memory\"}} {memory_hits}"),
            );
            push(
                &mut out,
                format!("flowgw_cache_hits_total{{tier=\"disk\"}} {disk_hits}"),
            );
            push(
                &mut out,
                format!("flowgw_cache_hits_total{{tier=\"remote\"}} {remote_hits}"),
            );
            push(&mut out, "# TYPE flowgw_cache_misses_total counter".into());
            push(&mut out, format!("flowgw_cache_misses_total {misses}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observations_by_bound() {
        let h = Histogram::new();
        h.observe_ms(0.4); // le=1
        h.observe_ms(1.0); // le=1 (inclusive bound)
        h.observe_ms(7.0); // le=10
        h.observe_ms(9999.0); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[3], 1, "7ms lands in the le=10 bucket");
        assert_eq!(*snap.buckets.last().unwrap(), 1, "overflow lands in +Inf");
        assert!((snap.sum_ms - 10007.4).abs() < 0.01);

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

    const RECORDED_JSON: &str = r#"{"jobs":{"submitted":0,"completed":0,"failed":0,"rejected":0,"panicked":0,"timed_out":0,"cancelled":0},"queue":{"depth":0,"peak":0},"workers":{"configured":0,"respawned":0},"connections":{"open":0,"rejected":0},"cache":{"memory_hits":0,"disk_hits":0,"remote_hits":0,"misses":0,"entries":0,"memory_evicted":0},"stages":{},"unknown_stage_events":0,"lint_rules":{"NL001":1,"NL002":0,"NL003":0,"PK001":0,"PL001":0,"RT001":0,"RT002":0,"BS001":0,"EQ001":0,"EQ002":0,"EQ003":0,"unknown":1},"verify_rules":{"EQ001":1,"EQ002":0,"EQ003":1,"unknown":1}}"#;

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
# TYPE flowd_workers_respawned_total counter
flowd_workers_respawned_total 0
# TYPE flowd_connections_open gauge
flowd_connections_open 0
# TYPE flowd_connections_rejected_total counter
flowd_connections_rejected_total 0
# HELP flowd_cache_hits_total Stage-cache hits by tier.
# TYPE flowd_cache_hits_total counter
flowd_cache_hits_total{tier=\"memory\"} 0
flowd_cache_hits_total{tier=\"disk\"} 0
flowd_cache_hits_total{tier=\"remote\"} 0
# TYPE flowd_cache_misses_total counter
flowd_cache_misses_total 0
# TYPE flowd_cache_entries gauge
flowd_cache_entries 0
# TYPE flowd_cache_memory_evicted_total counter
flowd_cache_memory_evicted_total 0
# HELP flowd_stage_duration_ms Per-stage service latency (cache hits included).
# TYPE flowd_stage_duration_ms histogram
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

    #[test]
    fn prometheus_text_has_expected_families() {
        let m = Metrics::new();
        m.observe_stage("pack", 12.0);
        let snap = MetricsSnapshot {
            service: ServiceCounters {
                jobs_completed: 3,
                queue_peak: 2,
                ..Default::default()
            },
            stages: m
                .stage_snapshots()
                .into_iter()
                .map(|(n, h)| (n, h, StageCacheCounters::default()))
                .collect(),
            store: Some((8, 1, 0, 0, 9)),
            remote: Some(RemoteTierCounters {
                fetch_hits: 4,
                fetch_misses: 2,
                fetch_failures: 1,
                bytes_fetched: 1024,
                published: 5,
                publish_failures: 0,
                breaker_skips: 0,
                breaker: "closed",
            }),
            ..Default::default()
        };
        let text = snap.to_prometheus_text();
        assert!(text.contains("flowd_jobs_total{state=\"completed\"} 3"));
        assert!(text.contains("flowd_queue_depth_peak 2"));
        assert!(text.contains("flowd_stage_duration_ms_bucket{stage=\"pack\",le=\"20\"} 1"));
        assert!(text.contains("flowd_stage_duration_ms_count{stage=\"pack\"} 1"));
        assert!(text.contains("flowd_store_disk_hits_total 8"));
        assert!(text.contains("flowd_cache_hits_total{tier=\"memory\"} 0"));
        assert!(text.contains("flowd_cache_hits_total{tier=\"remote\"} 0"));
        assert!(text.contains("flowd_remote_fetch_total{result=\"hit\"} 4"));
        assert!(text.contains("flowd_remote_fetch_total{result=\"failure\"} 1"));
        assert!(text.contains("flowd_remote_bytes_fetched_total 1024"));
        assert!(text.contains("flowd_remote_publish_total{result=\"ok\"} 5"));
        assert!(text.contains("flowd_remote_breaker_state 0"));
        // Every line is a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn gateway_snapshot_renders_both_shapes() {
        let snap = GatewaySnapshot {
            jobs: GatewayJobCounters {
                submitted: 5,
                completed: 4,
                failed: 0,
                shed: 1,
                timed_out: 0,
            },
            backends: vec![
                BackendSnapshot {
                    addr: "127.0.0.1:9101".into(),
                    healthy: true,
                    breaker: "closed",
                    breaker_transitions: BreakerCounters::default(),
                    in_flight: 1,
                    requests: 3,
                    failures: 0,
                    failovers: 0,
                    fetch_breaker: "closed",
                    steals: 2,
                },
                BackendSnapshot {
                    addr: "127.0.0.1:9102".into(),
                    healthy: false,
                    breaker: "open",
                    breaker_transitions: BreakerCounters {
                        opened: 1,
                        half_opened: 0,
                        closed: 0,
                    },
                    in_flight: 0,
                    requests: 2,
                    failures: 1,
                    failovers: 1,
                    fetch_breaker: "open",
                    steals: 0,
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
                gets: 7,
                hits: 4,
                misses: 2,
                fetch_failures: 1,
                puts: 5,
                put_failures: 0,
                bytes_served: 2048,
                bytes_stored: 4096,
                corrupted: 1,
            },
            cache: Some((10, 2, 4, 3)),
        };
        assert_eq!(snap.failover_total(), 1);
        assert_eq!(snap.steal_total(), 2);

        let js = snap.to_json();
        assert_eq!(js["role"].as_str(), Some("gateway"));
        assert_eq!(js["jobs"]["failovers"].as_u64(), Some(1));
        assert_eq!(js["jobs"]["steals"].as_u64(), Some(2));
        assert_eq!(js["backends"][1]["breaker"].as_str(), Some("open"));
        assert_eq!(js["backends"][1]["fetch_breaker"].as_str(), Some("open"));
        assert_eq!(
            js["backends"][1]["breaker_transitions"]["opened"].as_u64(),
            Some(1)
        );
        assert_eq!(js["tenants"]["acme"]["shed"].as_u64(), Some(1));
        assert_eq!(js["artifacts"]["hits"].as_u64(), Some(4));
        assert_eq!(js["artifacts"]["bytes_served"].as_u64(), Some(2048));
        // The aggregated cache object matches the daemon's field names,
        // so cache-aware clients work unchanged through the gateway.
        assert_eq!(js["cache"]["memory_hits"].as_u64(), Some(10));
        assert_eq!(js["cache"]["disk_hits"].as_u64(), Some(2));
        assert_eq!(js["cache"]["remote_hits"].as_u64(), Some(4));
        assert_eq!(js["cache"]["misses"].as_u64(), Some(3));

        let text = snap.to_prometheus_text();
        assert!(text.contains("flowgw_jobs_total{state=\"shed\"} 1"));
        assert!(text.contains("flowgw_backend_failovers_total{backend=\"127.0.0.1:9102\"} 1"));
        assert!(text.contains("flowgw_breaker_state{backend=\"127.0.0.1:9102\"} 2"));
        assert!(text.contains(
            "flowgw_breaker_transitions_total{backend=\"127.0.0.1:9102\",to=\"open\"} 1"
        ));
        assert!(text.contains("flowgw_tenant_jobs_total{tenant=\"acme\",state=\"admitted\"} 4"));
        assert!(text.contains("flowgw_backend_healthy{backend=\"127.0.0.1:9101\"} 1"));
        assert!(text.contains("flowgw_cache_hits_total{tier=\"memory\"} 10"));
        assert!(text.contains("flowgw_cache_hits_total{tier=\"remote\"} 4"));
        assert!(text.contains("flowgw_steals_total 2"));
        assert!(text.contains("flowgw_backend_steals_total{backend=\"127.0.0.1:9101\"} 2"));
        assert!(text.contains("flowgw_fetch_breaker_state{backend=\"127.0.0.1:9102\"} 2"));
        assert!(text.contains("flowgw_artifact_requests_total{verb=\"get\"} 7"));
        assert!(text.contains("flowgw_artifact_gets_total{result=\"hit\"} 4"));
        assert!(text.contains("flowgw_artifact_bytes_total{direction=\"served\"} 2048"));
        assert!(text.contains("flowgw_artifact_corrupted_total 1"));
        // Same exposition-format invariant as the daemon family.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }
}
