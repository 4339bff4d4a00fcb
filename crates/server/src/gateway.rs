//! `flow-gateway` — the farm's front door.
//!
//! A gateway sits in front of N `flowd` backends and gives clients one
//! address that survives node death and overload:
//!
//! * **Affinity sharding.** Jobs are routed by rendezvous hashing over
//!   the stage-cache key material (format + source + options), so
//!   resubmissions of the same design land on the backend that already
//!   holds its cached stage artifacts — the shared-cache win without a
//!   shared disk.
//! * **Health checks + circuit breakers.** A background prober pings
//!   every backend (`proto_version` hello) on an interval; probe and job
//!   failures feed a per-backend [`CircuitBreaker`], so a dead node is
//!   cut off after a few failures and re-probed with a jittered backoff
//!   instead of hammering it in lockstep.
//! * **Mid-job failover.** If a backend dies mid-pipeline (connection
//!   drop, read timeout, SIGKILL), the gateway replays the job on the
//!   next-best healthy peer, carrying only the *remaining* deadline
//!   budget. The client sees one `queued` and exactly one terminal
//!   event; stage events may repeat across attempts (the peer re-runs
//!   the pipeline, cache-accelerated), terminals never do.
//! * **Tenant fair-share.** Admission runs through the
//!   [`TenantGovernor`]: token-bucket quotas per tenant (the optional
//!   `tenant` request field, proto v4) and round-robin fair queuing, with
//!   bounded waiting — overload sheds with a `retry_after_ms` hint
//!   instead of queueing without limit.
//!
//! The gateway speaks the same typed protocol as `flowd` (`ping`,
//! `status`, `metrics`, `compile`, `lint`, `verify`, `shutdown`, and
//! `artifact_put`), so
//! `flowc` and `qor_bench --via-daemon` work against either unchanged.

use std::io::BufReader;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use fpga_flow::hash::Sha256;
use fpga_flow::sync::lock;
use fpga_flow::StageStats;
use serde_json::Value;

use crate::breaker::{BreakerState, CircuitBreaker, MsClock};
use crate::metrics::{
    BackendCounters, BackendSnapshot, GatewayArtifactCounters, GatewayJobState, GatewaySnapshot,
    JobCounters, JobDurations, GATEWAY_JOB_STATES,
};
use crate::net::{self, Conns, Endpoint, Limits, Node};
use crate::proto::{self, CompileRequest, Event, JobKind, ReadLineError, Request, PROTO_VERSION};
use crate::tenancy::{AdmitOutcome, GovernorConfig, TenantGovernor};

/// Gateway tuning. Durations are milliseconds, like [`super::ServerConfig`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Listen address (`host:port`; port 0 picks a free one).
    pub tcp_addr: String,
    /// Backend `flowd` addresses, in priority-independent order.
    pub backends: Vec<String>,
    /// Health-probe period.
    pub health_interval_ms: u64,
    /// Connect/read timeout for probes, backend connects, and scrapes.
    pub probe_timeout_ms: u64,
    /// Consecutive failures that trip a backend's breaker.
    pub breaker_threshold: u32,
    /// Base quiet period before a tripped breaker half-opens.
    pub breaker_reopen_ms: u64,
    /// Seed for breaker reopen jitter (pin for deterministic chaos runs).
    pub jitter_seed: u64,
    /// Admission policy (quotas, bounds).
    pub governor: GovernorConfig,
    /// Connection guards of the listening endpoint — the same three,
    /// enforced by the same code, as [`super::ServerConfig`]'s.
    /// `idle_timeout_ms` also bounds (plus slack) per-event backend
    /// reads for jobs with no deadline; `None` disables both.
    /// `max_line_bytes` also bounds every line a backend sends back.
    pub idle_timeout_ms: Option<u64>,
    pub max_line_bytes: usize,
    pub max_connections: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            tcp_addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            health_interval_ms: 500,
            probe_timeout_ms: 1_000,
            breaker_threshold: 3,
            breaker_reopen_ms: 5_000,
            jitter_seed: 0x5eed_f10d,
            governor: GovernorConfig::default(),
            idle_timeout_ms: Some(300_000),
            max_line_bytes: 8 * 1024 * 1024,
            max_connections: 256,
        }
    }
}

/// Rendezvous order: backends ranked by `digest_hex(&[key, addr])`
/// descending. Deterministic, uniform, and stable under fleet changes —
/// removing one backend only moves the jobs that hashed to it.
pub fn affinity_order(key: &str, addrs: &[String]) -> Vec<usize> {
    // A job's key holds its whole source: absorb it once and fork the
    // state per backend. The raw digests order exactly as their hex does.
    let mut keyed = Sha256::new();
    keyed.update_part(key.as_bytes());
    let mut scored: Vec<([u8; 32], usize)> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let mut h = keyed.clone();
            h.update_part(addr.as_bytes());
            (h.finish(), i)
        })
        .collect();
    scored.sort_by_key(|&(digest, _)| std::cmp::Reverse(digest));
    scored.into_iter().map(|(_, i)| i).collect()
}

/// The affinity key for a job: exactly the request material that
/// determines the stage-cache key on a backend, so identical
/// resubmissions rendezvous on the same node. `kind` is the wire verb
/// ([`JobKind::verb`]). Public so tests can predict routing.
pub fn affinity_key(kind: &str, req: &CompileRequest) -> String {
    format!(
        "{}\u{1f}{}\u{1f}{}\u{1f}{}",
        kind,
        req.format.name(),
        req.source,
        req.options
    )
}

/// Live per-backend state.
struct Backend {
    addr: String,
    breaker: Mutex<CircuitBreaker>,
    /// Separate breaker for `artifact_put` replication: a flaky
    /// replication path must never stop job routing, and vice versa.
    put_breaker: Mutex<CircuitBreaker>,
    /// Last health probe succeeded.
    probe_ok: AtomicBool,
    in_flight: AtomicU64,
    counters: BackendCounters,
}

impl Backend {
    fn snapshot(&self) -> BackendSnapshot {
        let breaker = lock(&self.breaker);
        BackendSnapshot {
            addr: self.addr.clone(),
            healthy: self.probe_ok.load(Ordering::Relaxed) && breaker.state() != BreakerState::Open,
            breaker: breaker.state(),
            breaker_transitions: breaker.counters(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            counters: self.counters.clone(),
            put_breaker: lock(&self.put_breaker).state(),
        }
    }
}

struct Shared {
    config: GatewayConfig,
    backends: Vec<Arc<Backend>>,
    governor: Arc<TenantGovernor>,
    artifacts: GatewayArtifactCounters,
    /// Job outcomes, one counter per [`GATEWAY_JOB_STATES`] entry.
    jobs: JobCounters<{ GATEWAY_JOB_STATES.len() }>,
    /// Admission → a backend's terminal event forwarded, per job verb.
    job_durations: JobDurations,
    next_job_id: AtomicU64,
    /// Connection-level state, driven by [`net::serve`].
    conns: Conns,
    clock: MsClock,
}

impl Shared {
    fn snapshot(&self, cache: Option<StageStats>) -> GatewaySnapshot {
        let (inflight, queued) = self.governor.depths();
        let gov = self.governor.config();
        GatewaySnapshot {
            jobs: self.jobs.snapshot(),
            job_durations: self.job_durations.snapshot(),
            backends: self.backends.iter().map(|b| b.snapshot()).collect(),
            tenants: self.governor.tenant_snapshots(),
            admission_inflight: inflight as u64,
            admission_queued: queued as u64,
            max_inflight: gov.max_inflight as u64,
            queue_bound: gov.queue_bound as u64,
            artifacts: self.artifacts.clone(),
            cache,
        }
    }

    /// Aggregate the `cache` object across reachable backends so
    /// cache-aware clients see one farm-wide view.
    fn scrape_backend_caches(&self) -> Option<StageStats> {
        let timeout = Duration::from_millis(self.config.probe_timeout_ms.max(1));
        let total = StageStats::default();
        let mut any = false;
        for backend in &self.backends {
            let scrape = Request::Metrics { text: false };
            let limit = self.config.max_line_bytes;
            let Ok(reply) = net::exchange(&backend.addr, &scrape, timeout, limit) else {
                continue;
            };
            // Any answer is a reachable backend; only a metrics body
            // has counts to add.
            any = true;
            let Event::Metrics(body) = reply else {
                continue;
            };
            let cache = &body["cache"];
            let get = |k: &str| cache[k].as_u64().unwrap_or(0);
            let disk_hits = get("disk_hits");
            total.hits.add(get("memory_hits") + disk_hits);
            total.disk_hits.add(disk_hits);
            total.misses.add(get("misses"));
        }
        any.then_some(total)
    }
}

/// What each verb does on a gateway; the connection around it is
/// [`net::serve`]'s.
impl Node for Shared {
    fn conns(&self) -> &Conns {
        &self.conns
    }

    /// The `status` verb body: the per-backend health/breaker table.
    fn status(&self) -> Value {
        let mut body = proto::framed_body("status", self.snapshot(None).to_json());
        body.insert("role".into(), "gateway".into());
        body.insert("proto_version".into(), PROTO_VERSION.into());
        body.insert("shutting_down".into(), self.conns.shutting_down().into());
        Value::Object(body)
    }

    fn metrics_json(&self) -> Value {
        self.snapshot(self.scrape_backend_caches()).to_json()
    }

    fn metrics_text(&self) -> String {
        self.snapshot(self.scrape_backend_caches())
            .to_prometheus_text()
    }

    fn submit(&self, kind: JobKind, req: CompileRequest, writer: &mut net::Stream) -> bool {
        handle_job(kind, req, self, writer)
    }

    fn artifact_put(&self, stage: &str, key: &str, kind: &str, data_hex: &str) -> Event {
        handle_artifact_put(self, stage, key, kind, data_hex)
    }
}

/// A running gateway (mirrors [`super::Server`]'s lifecycle).
pub struct Gateway {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    tcp_addr: SocketAddr,
    /// The health prober.
    threads: Vec<thread::JoinHandle<()>>,
}

impl Gateway {
    pub fn start(config: GatewayConfig) -> Result<Gateway, String> {
        if config.backends.is_empty() {
            return Err("gateway needs at least one --backend".to_string());
        }
        let conns = Conns::new(
            "gw",
            Limits {
                max_connections: config.max_connections,
                idle_timeout_ms: config.idle_timeout_ms,
                max_line_bytes: config.max_line_bytes,
                retry_after_ms: config.governor.retry_after_ms,
            },
        );
        let backends: Vec<Arc<Backend>> = config
            .backends
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                Arc::new(Backend {
                    addr: addr.clone(),
                    breaker: Mutex::new(CircuitBreaker::new(
                        config.breaker_threshold,
                        config.breaker_reopen_ms,
                        // Distinct seed per backend: no lockstep reprobes.
                        config.jitter_seed.wrapping_add(i as u64 + 1),
                    )),
                    put_breaker: Mutex::new(CircuitBreaker::new(
                        config.breaker_threshold,
                        config.breaker_reopen_ms,
                        config.jitter_seed.wrapping_add(0x100 + i as u64),
                    )),
                    probe_ok: AtomicBool::new(true),
                    in_flight: AtomicU64::new(0),
                    counters: BackendCounters::default(),
                })
            })
            .collect();
        let governor = TenantGovernor::new(config.governor.clone());
        let shared = Arc::new(Shared {
            config,
            backends,
            governor,
            artifacts: GatewayArtifactCounters::default(),
            jobs: JobCounters::new(),
            job_durations: JobDurations::default(),
            next_job_id: AtomicU64::new(1),
            conns,
            clock: MsClock::start(),
        });

        let node = Arc::clone(&shared) as Arc<dyn Node>;
        let endpoint = net::serve(Some(&shared.config.tcp_addr), None, node)
            .map_err(|e| format!("bind {}: {e}", shared.config.tcp_addr))?;
        let tcp_addr = endpoint.tcp_addr().ok_or("no TCP listener bound")?;
        let health_shared = Arc::clone(&shared);
        let health = thread::Builder::new()
            .name("gw-health".to_string())
            .spawn(move || health_loop(&health_shared))
            .map_err(|e| format!("spawn health loop: {e}"))?;
        Ok(Gateway {
            shared,
            endpoint,
            tcp_addr,
            threads: vec![health],
        })
    }

    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The `status` verb's body.
    pub fn status_json(&self) -> Value {
        self.shared.status()
    }

    /// The `metrics` verb's JSON body (without backend cache scrape).
    pub fn metrics_json(&self) -> Value {
        self.shared.snapshot(None).to_json()
    }

    /// Prometheus text exposition of the gateway family.
    pub fn metrics_text(&self) -> String {
        self.shared.snapshot(None).to_prometheus_text()
    }

    /// Stop accepting, poke the listener awake, join the daemon threads.
    pub fn shutdown(mut self) {
        self.endpoint.shutdown();
        self.wait();
    }

    /// Block until a client's `shutdown` verb stops the gateway.
    pub fn wait(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.endpoint.wait();
    }
}

/// Probe every backend on the configured interval, feeding breakers.
fn health_loop(shared: &Shared) {
    let interval = Duration::from_millis(shared.config.health_interval_ms.max(10));
    let timeout = Duration::from_millis(shared.config.probe_timeout_ms.max(1));
    while !shared.conns.shutting_down() {
        for backend in &shared.backends {
            if shared.conns.shutting_down() {
                return;
            }
            // Respect the breaker: while open, no probes until the
            // jittered reopen deadline grants the half-open slot.
            if !lock(&backend.breaker).allow(shared.clock.now_ms()) {
                continue;
            }
            let ok = matches!(
                net::exchange(
                    &backend.addr,
                    &Request::Ping,
                    timeout,
                    shared.config.max_line_bytes
                ),
                Ok(Event::Pong { .. })
            );
            backend.probe_ok.store(ok, Ordering::Relaxed);
            let mut breaker = lock(&backend.breaker);
            if ok {
                breaker.on_success();
            } else {
                breaker.on_failure(shared.clock.now_ms());
            }
        }
        // Sleep in small steps so shutdown is prompt.
        let mut slept = Duration::ZERO;
        while slept < interval && !shared.conns.shutting_down() {
            let step = Duration::from_millis(20).min(interval - slept);
            thread::sleep(step);
            slept += step;
        }
    }
}

/// Replicas an `artifact_put` fans out to: two affinity peers, so the
/// entry survives one node's SIGKILL and a peer that later runs the
/// same stage finds it on its own disk.
const PUT_REPLICAS: usize = 2;

/// Serve an `artifact_put` by replicating to the first
/// [`PUT_REPLICAS`] put-breaker-admitted peers in affinity order of
/// the entry's key. Any well-formed answer counts as a live backend.
/// Best-effort: the ack reports whether *any* replica stored it, and
/// the publishing daemon ignores even that — publish failures only
/// show in counters.
fn handle_artifact_put(
    shared: &Shared,
    stage: &str,
    key: &str,
    kind: &str,
    data_hex: &str,
) -> Event {
    let counters = &shared.artifacts;
    counters.puts.inc();
    counters.bytes_stored.add((data_hex.len() / 2) as u64);
    let req = Request::ArtifactPut {
        stage: stage.to_string(),
        key: key.to_string(),
        kind: kind.to_string(),
        data_hex: data_hex.to_string(),
    };
    let timeout = Duration::from_millis(shared.config.probe_timeout_ms.max(1));
    let mut stored = 0usize;
    let mut attempted = 0usize;
    for &i in &affinity_order(key, &shared.config.backends) {
        if attempted == PUT_REPLICAS {
            break;
        }
        let backend = &shared.backends[i];
        if !lock(&backend.put_breaker).allow(shared.clock.now_ms()) {
            continue;
        }
        attempted += 1;
        match net::exchange(&backend.addr, &req, timeout, shared.config.max_line_bytes) {
            Ok(reply) => {
                lock(&backend.put_breaker).on_success();
                match reply {
                    Event::ArtifactAck { stored: true, .. } => stored += 1,
                    _ => counters.put_failures.inc(),
                }
            }
            Err(_) => {
                lock(&backend.put_breaker).on_failure(shared.clock.now_ms());
                counters.put_failures.inc();
            }
        }
    }
    Event::ArtifactAck {
        stored: stored > 0,
        message: (stored == 0).then(|| "no backend stored the artifact".to_string()),
    }
}

/// How one attempt against one backend ended.
enum Attempt {
    /// A terminal event was forwarded to the client; the job ended in
    /// this state.
    Terminal(GatewayJobState),
    /// The client connection broke; the job is abandoned.
    ClientGone,
    /// The backend failed mid-job (connect, drop, a malformed line) — a
    /// breaker failure; retry on a peer.
    Transient(String),
    /// The backend refused the job (queue full / shutting down) — not a
    /// breaker failure; try a peer.
    Saturated { retry_after_ms: Option<u64> },
}

/// Run one job through admission, affinity routing, and failover.
/// Returns `false` when the client connection broke.
fn handle_job(
    kind: JobKind,
    req: CompileRequest,
    shared: &Shared,
    writer: &mut net::Stream,
) -> bool {
    let started = Instant::now();
    let job_id = shared.next_job_id.fetch_add(1, Ordering::SeqCst);
    shared.jobs.inc(GatewayJobState::Submitted);
    let total_deadline_ms = req.deadline_ms;
    let deadline = total_deadline_ms.map(|ms| started + Duration::from_millis(ms));
    let tenant = req.tenant.clone().unwrap_or_else(|| "anon".to_string());

    // Admission first: quota + fair queue + bounded wait.
    let permit = match shared.governor.admit(&tenant, deadline) {
        AdmitOutcome::Admitted(permit) => permit,
        AdmitOutcome::Shed { retry_after_ms } => {
            shared.jobs.inc(GatewayJobState::Shed);
            return proto::write_line(
                writer,
                &Event::Rejected {
                    job: job_id,
                    reason: format!(
                        "gateway saturated: tenant '{tenant}' over quota or queue full"
                    ),
                    retry_after_ms: Some(retry_after_ms),
                }
                .to_value(),
            )
            .is_ok();
        }
        AdmitOutcome::Expired => {
            shared.jobs.inc(GatewayJobState::TimedOut);
            return proto::write_line(
                writer,
                &Event::Timeout {
                    job: job_id,
                    deadline_ms: total_deadline_ms,
                    completed_stages: Vec::new(),
                    message: "deadline elapsed while queued at the gateway".to_string(),
                }
                .to_value(),
            )
            .is_ok();
        }
    };
    // The permit lives for the rest of the job; dropping it (any return
    // path) releases the slot and pumps the next waiter.
    let _permit = permit;
    let admitted = Instant::now();

    // The client hears `queued` from the gateway exactly once, before
    // the first attempt; backend `queued` events are swallowed.
    if proto::write_line(writer, &Event::Queued { job: job_id }.to_value()).is_err() {
        return false;
    }

    let order = affinity_order(&affinity_key(kind.verb(), &req), &shared.config.backends);
    let mut tried = vec![false; shared.backends.len()];
    let mut completed_stages: Vec<String> = Vec::new();
    let mut last_saturated: Option<Option<u64>> = None;
    let mut last_transient: Option<String> = None;
    let mut prior_failure = false;

    loop {
        // Remaining deadline budget, or a timeout terminal if spent.
        let remaining_ms = match total_deadline_ms {
            None => None,
            Some(total) => {
                let elapsed = started.elapsed().as_millis() as u64;
                let left = total.saturating_sub(elapsed);
                if left == 0 {
                    shared.jobs.inc(GatewayJobState::TimedOut);
                    return proto::write_line(
                        writer,
                        &Event::Timeout {
                            job: job_id,
                            deadline_ms: total_deadline_ms,
                            completed_stages: completed_stages.clone(),
                            message: format!(
                                "deadline of {total}ms exhausted across {} attempt(s)",
                                tried.iter().filter(|t| **t).count()
                            ),
                        }
                        .to_value(),
                    )
                    .is_ok();
                }
                Some(left)
            }
        };

        // Next-best untried backend whose breaker admits a request.
        let now = shared.clock.now_ms();
        let pick = order
            .iter()
            .copied()
            .find(|&i| !tried[i] && lock(&shared.backends[i].breaker).allow(now));
        // Work stealing: when the affinity pick is busy and a peer sits
        // idle, route there rather than queue behind the busy node; the
        // peer serves what replication put on its disk and computes the
        // rest. Only fully closed breakers take part, so a half-open
        // probe slot granted by `allow` above is never abandoned
        // unanswered.
        let pick = pick.map(|best| {
            if shared.backends[best].in_flight.load(Ordering::Relaxed) > 0
                && lock(&shared.backends[best].breaker).state() == BreakerState::Closed
            {
                let idle = order.iter().copied().find(|&i| {
                    i != best
                        && !tried[i]
                        && shared.backends[i].in_flight.load(Ordering::Relaxed) == 0
                        && shared.backends[i].probe_ok.load(Ordering::Relaxed)
                        && lock(&shared.backends[i].breaker).state() == BreakerState::Closed
                });
                if let Some(idle) = idle {
                    shared.backends[idle].counters.steals.inc();
                    return idle;
                }
            }
            best
        });
        let Some(index) = pick else {
            // Nobody left: shed with the best hint we have. Retryable
            // from the client's point of view (it is a `rejected`).
            shared.jobs.inc(GatewayJobState::Shed);
            let (reason, retry_after_ms) = match (&last_saturated, &last_transient) {
                (Some(hint), _) => (
                    "all backends saturated".to_string(),
                    hint.or(Some(shared.config.governor.retry_after_ms)),
                ),
                (None, Some(err)) => (
                    format!("no healthy backend: {err}"),
                    Some(shared.config.breaker_reopen_ms),
                ),
                (None, None) => (
                    "no healthy backend available".to_string(),
                    Some(shared.config.breaker_reopen_ms),
                ),
            };
            return proto::write_line(
                writer,
                &Event::Rejected {
                    job: job_id,
                    reason,
                    retry_after_ms,
                }
                .to_value(),
            )
            .is_ok();
        };

        tried[index] = true;
        let backend = &shared.backends[index];
        backend.counters.requests.inc();
        if prior_failure {
            // This attempt exists because a peer died mid-job.
            backend.counters.failovers.inc();
        }
        let mut attempt_req = req.clone();
        attempt_req.deadline_ms = remaining_ms;
        match run_attempt(
            kind,
            &attempt_req,
            backend,
            shared,
            writer,
            job_id,
            &mut completed_stages,
        ) {
            Attempt::Terminal(state) => {
                shared.job_durations.observe_since(kind, admitted);
                lock(&backend.breaker).on_success();
                shared.jobs.inc(state);
                return true;
            }
            Attempt::ClientGone => {
                // Not the backend's fault; dropping our backend
                // connection cancels the job at its next stage boundary.
                lock(&backend.breaker).on_success();
                return false;
            }
            Attempt::Transient(message) => {
                backend.counters.failures.inc();
                lock(&backend.breaker).on_failure(shared.clock.now_ms());
                last_transient = Some(message);
                prior_failure = true;
                // Loop: the next-best peer picks the job up with the
                // remaining budget.
            }
            Attempt::Saturated { retry_after_ms } => {
                // Backpressure, not death: no breaker penalty — but the
                // backend did answer, so if this attempt held the
                // half-open probe slot it must be released, or the
                // breaker camps in HalfOpen and the backend is never
                // routed to (or probed) again.
                lock(&backend.breaker).on_saturated();
                last_saturated = Some(retry_after_ms);
                prior_failure = false;
            }
        }
    }
}

/// Forward one attempt's event stream. Swallows `queued`, rewrites the
/// `job` field to the gateway's id on everything it forwards, and keeps
/// terminal events exactly-once by construction (only the attempt that
/// produced one forwards it, and a forwarded terminal ends the job).
fn run_attempt(
    kind: JobKind,
    req: &CompileRequest,
    backend: &Backend,
    shared: &Shared,
    writer: &mut net::Stream,
    job_id: u64,
    completed_stages: &mut Vec<String>,
) -> Attempt {
    // Reads block until the backend's next event; bound them by the
    // job's remaining deadline (plus slack for the backend to notice and
    // emit its own timeout event) so a silently dead backend cannot hang
    // the client forever. Deadline-free jobs fall back to the operator's
    // `--idle-timeout` (plus larger slack, since a long pipeline stage
    // legitimately emits nothing while it runs); with idle timeouts
    // disabled, deadline-free reads are unbounded by choice.
    let read_timeout = match req.deadline_ms {
        Some(ms) => Some(ms.saturating_add(10_000)),
        None => shared
            .config
            .idle_timeout_ms
            .map(|ms| ms.saturating_add(30_000)),
    };
    // Connect and the request write share the probe timeout: a backend
    // that accepted and then stopped reading fails the attempt instead
    // of holding this thread in a multi-MiB `source` write.
    let dialled = net::dial(
        &backend.addr,
        Some(Duration::from_millis(shared.config.probe_timeout_ms.max(1))),
        read_timeout.map(|ms| Duration::from_millis(ms.max(1))),
    );
    let (mut backend_reader, mut backend_writer) = match dialled {
        Ok(halves) => halves,
        Err(e) => return Attempt::Transient(format!("connect {}: {e}", backend.addr)),
    };
    let request = kind.request(req.clone());
    if let Err(e) = proto::write_line(&mut backend_writer, &request.to_value()) {
        return Attempt::Transient(format!("send to {}: {e}", backend.addr));
    }

    backend.in_flight.fetch_add(1, Ordering::Relaxed);
    let result = forward_events(
        backend,
        writer,
        &mut backend_reader,
        job_id,
        completed_stages,
        shared.config.max_line_bytes,
    );
    backend.in_flight.fetch_sub(1, Ordering::Relaxed);
    result
}

fn forward_events(
    backend: &Backend,
    writer: &mut net::Stream,
    backend_reader: &mut BufReader<net::Stream>,
    job_id: u64,
    completed_stages: &mut Vec<String>,
    max_line_bytes: usize,
) -> Attempt {
    loop {
        // Length-bounded like every other farm read: one runaway event
        // line fails the attempt (and feeds the breaker) instead of
        // growing gateway memory without bound.
        let raw = match proto::read_line_limited(backend_reader, max_line_bytes) {
            Ok(Some(v)) => v,
            Ok(None) => {
                return Attempt::Transient(format!("{} closed mid-job", backend.addr));
            }
            Err(ReadLineError::TooLong { limit }) => {
                return Attempt::Transient(format!(
                    "{} sent an event over {limit} bytes",
                    backend.addr
                ));
            }
            Err(ReadLineError::BadJson(message)) => {
                return Attempt::Transient(format!("{} sent bad JSON: {message}", backend.addr));
            }
            Err(ReadLineError::Io(e)) => {
                return Attempt::Transient(format!("read from {}: {e}", backend.addr));
            }
        };
        let event = match proto::parse_event(&raw) {
            Ok(event) => event,
            Err(proto::EventParseError::Unknown(_)) => {
                // Forward-compat passthrough: a newer backend's event the
                // gateway doesn't know rides through untouched (job id
                // rewritten) for the client to judge.
                if proto::write_line(writer, &rewrite_job(raw, job_id)).is_err() {
                    return Attempt::ClientGone;
                }
                continue;
            }
            Err(e @ proto::EventParseError::Malformed(_)) => {
                return Attempt::Transient(format!("{}: {e}", backend.addr));
            }
        };
        // The backend answered and took no job (a rejection, the
        // connection cap, a draining node's notice): try a peer.
        if let Some(retry_after_ms) = event.refusal() {
            return Attempt::Saturated { retry_after_ms };
        }
        // What forwarding this event ends the job as, if it does.
        let terminal = match &event {
            // The gateway already announced the job under its own id.
            Event::Queued { .. } => continue,
            Event::Stage { ok, stage, .. } => {
                if *ok && !completed_stages.contains(stage) {
                    completed_stages.push(stage.clone());
                }
                None
            }
            // Every `error` is a real flow failure (panics and lint
            // denials included) and deterministic: failing over would
            // just fail again.
            Event::Error { .. } => Some(GatewayJobState::Failed),
            Event::Timeout { .. } => Some(GatewayJobState::TimedOut),
            done if done.is_terminal() => Some(GatewayJobState::Completed),
            _ => {
                return Attempt::Transient(format!(
                    "{} sent an out-of-place event mid-job",
                    backend.addr
                ));
            }
        };
        if proto::write_line(writer, &rewrite_job(raw, job_id)).is_err() {
            return Attempt::ClientGone;
        }
        if let Some(terminal) = terminal {
            return Attempt::Terminal(terminal);
        }
    }
}

/// Rewrite the `job` field to the gateway's id before forwarding.
fn rewrite_job(raw: Value, job_id: u64) -> Value {
    match raw {
        Value::Object(mut map) => {
            map.insert("job".to_string(), job_id.into());
            Value::Object(map)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_order_is_deterministic_and_complete() {
        let addrs: Vec<String> = (0..4).map(|i| format!("127.0.0.1:910{i}")).collect();
        let a = affinity_order("key-1", &addrs);
        assert_eq!(a, affinity_order("key-1", &addrs));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "a permutation of all backends");
    }

    /// The order is defined by `digest_hex(&[key, addr])`; forking one
    /// keyed state per backend must reproduce it at every alignment of
    /// the key's end against SHA-256's 64-byte blocks (the length prefix
    /// is 8 bytes, so a 56-byte key ends one).
    #[test]
    fn affinity_order_matches_its_digest_hex_definition() {
        use fpga_flow::hash::digest_hex;
        let by_definition = |key: &str, addrs: &[String]| -> Vec<usize> {
            let mut scored: Vec<(String, usize)> = addrs
                .iter()
                .enumerate()
                .map(|(i, addr)| (digest_hex(&[key.as_bytes(), addr.as_bytes()]), i))
                .collect();
            scored.sort_by(|a, b| b.0.cmp(&a.0));
            scored.into_iter().map(|(_, i)| i).collect()
        };
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 121, 5_000, 90_000] {
            let key: String = (0..len).map(|i| (b'a' + (i % 23) as u8) as char).collect();
            for n in 1..=7 {
                let addrs: Vec<String> = (0..n).map(|i| format!("10.0.{len}.{i}:71{i}")).collect();
                assert_eq!(
                    affinity_order(&key, &addrs),
                    by_definition(&key, &addrs),
                    "key of {len} bytes over {n} backends"
                );
            }
        }
    }

    #[test]
    fn affinity_spreads_distinct_keys() {
        let addrs: Vec<String> = (0..3).map(|i| format!("127.0.0.1:910{i}")).collect();
        let firsts: std::collections::HashSet<usize> = (0..32)
            .map(|i| affinity_order(&format!("design-{i}"), &addrs)[0])
            .collect();
        assert!(
            firsts.len() > 1,
            "32 keys all hashed to one backend: {firsts:?}"
        );
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_keys() {
        let full: Vec<String> = (0..3).map(|i| format!("127.0.0.1:910{i}")).collect();
        let reduced: Vec<String> = full[..2].to_vec();
        for i in 0..16 {
            let key = format!("design-{i}");
            let first_full = affinity_order(&key, &full)[0];
            let first_reduced = affinity_order(&key, &reduced)[0];
            if first_full < 2 {
                // Keys not on the removed backend keep their placement —
                // the rendezvous-hash stability property.
                assert_eq!(first_full, first_reduced, "key {key} moved needlessly");
            }
        }
    }

    #[test]
    fn rewrite_job_overwrites_the_backend_id() {
        let raw = serde_json::json!({"event": "stage", "job": 42u64, "stage": "route"});
        let out = rewrite_job(raw, 7);
        assert_eq!(out["job"].as_u64(), Some(7));
        assert_eq!(out["stage"].as_str(), Some("route"));
    }
}
