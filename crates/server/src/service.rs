//! The daemon: worker pool, job lifecycle, and what each protocol verb
//! does on a `flowd` (the listeners and connections around them are
//! `crate::net`'s, shared with the gateway).
//!
//! Fault-tolerance model (every path here is exercised by the chaos
//! suite in `tests/`):
//!
//! * **One panic boundary** — [`worker_loop`] runs each whole job under
//!   `catch_unwind`, so a panic anywhere in a job becomes a structured
//!   `{"event":"error","kind":"panic"}` terminal event and the worker
//!   takes the next job. What can still end a worker thread — an abort,
//!   a stack overflow — ends the whole process with it.
//! * **Deadlines & cancellation** — every job carries a
//!   [`CancelToken`]; the flow checks it between stages. Deadline
//!   overruns answer with a `timeout` event naming the stages that did
//!   complete; a client hang-up cancels its job at the next stage
//!   boundary instead of burning the worker.
//! * **Connection guards** (`crate::net`) — an idle read timeout on
//!   every stream, a cap on concurrent connections, and a byte limit on
//!   request lines; rejections carry a `retry_after_ms` hint that
//!   `flowc` honors with jittered exponential backoff.

use std::io::Write;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use std::{fmt, io};

use fpga_flow::check::{self, CheckKind};
use fpga_flow::fault::{CancelToken, FaultPlan};
use fpga_flow::sync::lock;
use fpga_flow::{DiskStore, FlowCtx, Source, StageCache, TraceLog};
use fpga_lint::Diagnostic;
use serde_json::Value;

use crate::artifact::RemoteTierClient;
use crate::metrics::{
    JobCounters, JobDurations, JobState, Metrics, MetricsSnapshot, ServiceCounters, JOB_STATES,
};
use crate::net::{self, Conns, Endpoint, Limits, Node};
use crate::proto::{self, CompileRequest, Event, JobKind, SourceFormat, PROTO_VERSION};
use crate::queue::JobQueue;

/// Where and how the daemon runs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP bind address, e.g. `"127.0.0.1:7171"` (`:0` picks a free
    /// port). `None` disables TCP.
    pub tcp_addr: Option<String>,
    /// Unix-domain socket path. `None` disables it. Unix only.
    pub unix_path: Option<PathBuf>,
    /// Worker threads compiling jobs.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Default *and* cap for per-job deadlines, in milliseconds: a job
    /// that doesn't ask for a deadline gets this one, and a job that
    /// asks for more is clamped to it. `None` disables deadlines for
    /// jobs that don't request one.
    pub max_deadline_ms: Option<u64>,
    /// Read timeout while waiting for a client's next request; a
    /// connection idle longer is told so and closed. `None` waits
    /// forever (the pre-hardening behavior).
    pub idle_timeout_ms: Option<u64>,
    /// Maximum bytes in one request line; longer lines are rejected
    /// with a structured error instead of buffered without bound.
    pub max_line_bytes: usize,
    /// Maximum concurrently-served connections; excess connections get
    /// an `overloaded` error (with `retry_after_ms`) and are closed.
    pub max_connections: usize,
    /// Backoff hint attached to `overloaded` and queue-full rejections.
    pub retry_after_ms: u64,
    /// Durable stage-artifact store root. When set, completed stages
    /// survive daemon restarts (and crashes): a fresh daemon pointed at
    /// the same directory serves them as disk hits instead of
    /// recomputing. `None` keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the durable store, in mebibytes; beyond it the
    /// least-recently-used entries are evicted. `None` means unbounded.
    /// Ignored without `cache_dir`.
    pub cache_budget_mb: Option<u64>,
    /// Entry cap for the *in-memory* cache; beyond it the
    /// least-recently-used entries are evicted from memory (they remain
    /// reachable from the durable store when one is configured). `None`
    /// means unbounded.
    pub cache_entries: Option<usize>,
    /// `flow-gateway` address for the farm's replication. When set
    /// (together with `cache_dir`), every computed stage's store entry
    /// is published through the gateway, which copies it into two
    /// backends' stores. The daemon never fetches from the farm: it
    /// serves its own memory and disk, or computes. Strictly
    /// best-effort: a publish failure is a counter, never a job error.
    /// No effect without `cache_dir` (replication ships raw
    /// durable-store entries).
    pub artifact_gateway: Option<String>,
    /// Connect/read/write timeout for each publish exchange.
    pub artifact_timeout_ms: u64,
    /// Deterministic fault injection for tests: makes named stages
    /// panic/fail/stall on their K-th execution. Never set in
    /// production configs.
    pub fault: Option<Arc<FaultPlan>>,
    /// No effect: P&R runs on one thread; goes with ROADMAP 5's unfreeze.
    pub threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            unix_path: None,
            workers: 2,
            queue_capacity: 32,
            max_deadline_ms: Some(300_000),
            idle_timeout_ms: Some(300_000),
            max_line_bytes: 8 * 1024 * 1024,
            max_connections: 256,
            retry_after_ms: 200,
            cache_dir: None,
            cache_budget_mb: None,
            cache_entries: None,
            artifact_gateway: None,
            artifact_timeout_ms: 1_000,
            fault: None,
            threads: None,
        }
    }
}

/// One queued job: the request plus the channel its events flow
/// back through (the submitting connection forwards them to the client)
/// and the cancellation handle both sides share.
struct Job {
    id: u64,
    kind: JobKind,
    req: CompileRequest,
    events: mpsc::Sender<Event>,
    cancel: CancelToken,
    deadline_ms: Option<u64>,
}

struct Shared {
    cache: StageCache,
    /// Replication client, kept for its counters; the cache holds its
    /// own `Arc` and drives the publish calls.
    remote: Option<Arc<RemoteTierClient>>,
    queue: JobQueue<Job>,
    config: ServerConfig,
    /// Per-stage latency histograms (and the unknown-stage-id tripwire).
    metrics: Metrics,
    /// Connection-level state, driven by [`net::serve`].
    conns: Conns,
    /// Job outcomes, one counter per [`JOB_STATES`] entry.
    jobs: JobCounters<{ JOB_STATES.len() }>,
    /// Request parsed → terminal event written, per job verb.
    job_durations: JobDurations,
    next_job_id: AtomicU64,
}

/// What each verb does on a daemon; the connection around it is
/// [`net::serve`]'s.
impl Node for Shared {
    fn conns(&self) -> &Conns {
        &self.conns
    }

    /// The `status` verb body: a lightweight health probe — queue and
    /// worker state and the configured limits, without the counters
    /// `metrics` carries. Shaped for `flow-gateway`, which folds it into
    /// its per-backend table.
    fn status(&self) -> Value {
        serde_json::json!({
            "event": "status",
            "role": "flowd",
            "version": fpga_flow::FLOW_VERSION,
            "proto_version": PROTO_VERSION,
            "shutting_down": self.conns.shutting_down(),
            "queue": serde_json::json!({
                "depth": self.queue.len() as u64,
                "capacity": self.config.queue_capacity as u64,
                "peak": self.queue.peak() as u64,
            }),
            "workers": serde_json::json!({"configured": self.config.workers.max(1) as u64}),
            "connections": self.conns.status_json(),
            "limits": serde_json::json!({
                "max_deadline_ms": self.config.max_deadline_ms,
                "idle_timeout_ms": self.config.idle_timeout_ms,
                "max_line_bytes": self.config.max_line_bytes as u64,
                "retry_after_ms": self.config.retry_after_ms,
            }),
        })
    }

    /// The `metrics` verb's JSON body, framed and versioned.
    fn metrics_json(&self) -> Value {
        let mut body = proto::framed_body("metrics", self.metrics_snapshot().to_json());
        body.insert("proto_version".to_string(), PROTO_VERSION.into());
        Value::Object(body)
    }

    fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus_text()
    }

    fn submit(&self, kind: JobKind, req: CompileRequest, writer: &mut net::Stream) -> bool {
        handle_submit(kind, req, self, writer)
    }

    fn artifact_put(&self, stage: &str, key: &str, kind: &str, data_hex: &str) -> Event {
        artifact_put_event(self, stage, key, kind, data_hex)
    }

    /// Reject new jobs and let the queued ones drain.
    fn begin_shutdown(&self) {
        self.queue.drain();
    }
}

impl Shared {
    /// Gather every live counter into one [`MetricsSnapshot`] — the
    /// single source both the JSON and Prometheus-text renderings of the
    /// `metrics` verb draw from.
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let service = ServiceCounters {
            jobs: self.jobs.snapshot(),
            queue_depth: self.queue.len() as u64,
            queue_peak: self.queue.peak() as u64,
            workers_configured: self.config.workers.max(1) as u64,
            connections: self.conns.counts(),
        };
        let stages = self
            .metrics
            .stage_snapshots()
            .into_iter()
            .zip(self.cache.all_stats())
            .map(|((name, hist), (_, cache))| (name, hist, cache))
            .collect();
        MetricsSnapshot {
            service,
            stages,
            job_durations: self.job_durations.snapshot(),
            cache_entries: self.cache.len() as u64,
            cache_memory_evicted: self.cache.memory_evicted(),
            store: self.cache.store().map(|s| s.snapshot()),
            remote: self.remote.as_ref().map(|r| r.counters()),
            unknown_stage_events: self.metrics.unknown_stage_events(),
            rules: self.metrics.rule_counts(),
        }
    }
}

/// A running daemon. Dropping it without calling [`Server::shutdown`] or
/// [`Server::wait`] aborts listeners non-gracefully at process exit;
/// tests and `flowd` always go through the graceful path.
pub struct Server {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    /// The worker pool.
    threads: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("tcp_addr", &self.tcp_addr())
            .field("unix_path", &self.unix_path())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Bind the configured listeners and start the worker pool.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        if config.tcp_addr.is_none() && config.unix_path.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "flowd needs at least one of --tcp / --unix",
            ));
        }
        let workers = config.workers.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let mut cache = StageCache::new();
        if let Some(dir) = &config.cache_dir {
            let budget = config.cache_budget_mb.map(|mb| mb * 1024 * 1024);
            let store = DiskStore::open(dir, budget)?;
            cache = cache.with_store(Arc::new(store));
        }
        if let Some(cap) = config.cache_entries {
            cache = cache.with_capacity(cap);
        }
        let mut remote = None;
        if let Some(gw) = &config.artifact_gateway {
            let client = Arc::new(RemoteTierClient::new(
                gw.clone(),
                config.artifact_timeout_ms,
                config.max_line_bytes,
            ));
            cache = cache.with_remote(Arc::clone(&client) as Arc<dyn fpga_flow::RemoteTier>);
            remote = Some(client);
        }
        let conns = Conns::new(
            "flowd",
            Limits {
                max_connections: config.max_connections,
                idle_timeout_ms: config.idle_timeout_ms,
                max_line_bytes: config.max_line_bytes,
                retry_after_ms: config.retry_after_ms,
            },
        );
        let shared = Arc::new(Shared {
            cache,
            remote,
            queue: JobQueue::new(queue_capacity),
            config,
            metrics: Metrics::new(),
            conns,
            jobs: JobCounters::new(),
            job_durations: JobDurations::default(),
            next_job_id: AtomicU64::new(1),
        });

        let endpoint = net::serve(
            shared.config.tcp_addr.as_deref(),
            shared.config.unix_path.as_deref(),
            Arc::clone(&shared) as Arc<dyn Node>,
        )?;
        let threads = (0..workers)
            .map(|n| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("flowd-worker-{n}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<_>>()?;
        Ok(Server {
            shared,
            endpoint,
            threads,
        })
    }

    /// The bound TCP address (with the real port when `:0` was asked).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.endpoint.tcp_addr()
    }

    /// The bound Unix socket path.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.endpoint.unix_path()
    }

    /// The shared stage cache (tests assert on its counters).
    pub fn cache(&self) -> &StageCache {
        &self.shared.cache
    }

    /// The `status` verb's body: the daemon's lightweight health probe.
    pub fn status_json(&self) -> Value {
        self.shared.status()
    }

    /// The `metrics` verb's JSON body (histograms, cache tiers, queue
    /// high-water mark); what a client sees for `{"cmd":"metrics"}`.
    pub fn metrics_json(&self) -> Value {
        self.shared.metrics_json()
    }

    /// Prometheus-style text exposition of the same snapshot
    /// (`flowd --metrics-dump` prints this at exit).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Graceful shutdown: reject new jobs, drain the queue, stop the
    /// listeners, join every daemon thread.
    pub fn shutdown(mut self) {
        self.endpoint.shutdown();
        self.wait();
    }

    /// Block until a client's `shutdown` command stops the daemon (what
    /// `flowd` does after printing its banner). Takes `&mut self` so the
    /// caller can still read final metrics afterwards
    /// (`--metrics-dump`); calling it twice is a no-op.
    pub fn wait(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.endpoint.wait();
    }
}

/// Map a wire stage name to its [`fpga_flow::StageId`]. An unknown name
/// is a refused put, not a job error — a newer peer may know stages
/// this daemon doesn't.
fn stage_by_name(name: &str) -> Option<fpga_flow::StageId> {
    fpga_flow::cache::STAGES
        .iter()
        .copied()
        .find(|s| s.name() == name)
}

/// Accept a replicated `artifact_put` into the durable store.
/// `admit_raw` re-verifies the digest against the addressed key before
/// installing; a corrupt or mismatched payload is quarantined and
/// refused with the reason in the ack.
fn artifact_put_event(
    shared: &Shared,
    stage: &str,
    key: &str,
    kind: &str,
    data_hex: &str,
) -> Event {
    let refuse = |message: String| Event::ArtifactAck {
        stored: false,
        message: Some(message),
    };
    let Some(sid) = stage_by_name(stage) else {
        return refuse(format!("unknown stage '{stage}'"));
    };
    let Some(store) = shared.cache.store() else {
        return refuse("no durable store configured (--cache-dir)".to_string());
    };
    let raw = match proto::from_hex(data_hex) {
        Ok(raw) => raw,
        Err(e) => return refuse(format!("bad data_hex: {e}")),
    };
    match store.admit_raw(sid, key, kind, &raw) {
        Ok(_) => Event::ArtifactAck {
            stored: true,
            message: None,
        },
        Err(reason) => refuse(reason),
    }
}

/// The job's effective deadline: the client's wish clamped to the
/// server's cap, or the cap itself when the client didn't ask.
fn effective_deadline_ms(requested: Option<u64>, cap: Option<u64>) -> Option<u64> {
    match (requested, cap) {
        (Some(r), Some(c)) => Some(r.min(c)),
        (Some(r), None) => Some(r),
        (None, cap) => cap,
    }
}

/// Submit one job (a compile or a check) and forward its event stream to the
/// client. Returns `false` when the client connection broke (which also
/// cancels the job, so it stops at its next stage boundary).
fn handle_submit(
    kind: JobKind,
    mut req: CompileRequest,
    shared: &Shared,
    writer: &mut impl Write,
) -> bool {
    let started = Instant::now();
    let id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
    let deadline_ms = effective_deadline_ms(req.deadline_ms.take(), shared.config.max_deadline_ms);
    let cancel = match deadline_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    let (tx, rx) = mpsc::channel::<Event>();
    match shared.queue.submit(Job {
        id,
        kind,
        req,
        events: tx,
        cancel: cancel.clone(),
        deadline_ms,
    }) {
        Err(reason) => {
            shared.jobs.inc(JobState::Rejected);
            let rejected = Event::Rejected {
                job: id,
                reason: reason.to_string(),
                retry_after_ms: Some(shared.config.retry_after_ms),
            };
            proto::write_line(writer, &rejected.to_value()).is_ok()
        }
        Ok(()) => {
            shared.jobs.inc(JobState::Submitted);
            if proto::write_line(writer, &Event::Queued { job: id }.to_value()).is_err() {
                // Client left before the ack: stop the job at its next
                // stage boundary instead of computing for nobody.
                cancel.cancel();
                return false;
            }
            // Forward until the worker's terminal event.
            for event in rx {
                let terminal = event.is_terminal();
                if proto::write_line(writer, &event.to_value()).is_err() {
                    cancel.cancel();
                    return false;
                }
                if terminal {
                    break;
                }
            }
            shared.job_durations.observe_since(kind, started);
            true
        }
    }
}

/// The one panic boundary: a panic anywhere in a job becomes that job's
/// `panic` terminal, and the worker takes the next job. The job is
/// counted and answered here, once, after [`run_job`] has built its
/// ending — so a panic cannot leave a job with two counts or two
/// terminals, nor with none.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.next() {
        let (id, events) = (job.id, job.events.clone());
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| run_job(shared, job)));
        let (state, terminal) = run.unwrap_or_else(|payload| {
            let panic = Event::Error {
                job: Some(id),
                kind: Some("panic".into()),
                stage: None,
                message: panic_message(payload.as_ref()),
                retry_after_ms: None,
                diagnostics: Vec::new(),
            };
            (JobState::Panicked, panic)
        });
        shared.jobs.inc(state);
        let _ = events.send(terminal);
    }
}

/// Best-effort panic payload rendering for the structured `panic` event.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stage panicked (non-string payload)".to_string()
    }
}

/// What a job's flow produced when it ran to completion.
enum Finished {
    Compiled(Box<fpga_flow::Compiled>),
    Checked(CheckKind, fpga_flow::CheckReport),
}

/// Run one job, streaming its stage events, and classify its ending:
/// `done` or a check report, flow `error`, `timeout` (with the
/// completed-stage list), or cancellation after a client hang-up.
/// Returns the state to count and the terminal event to send, which
/// [`worker_loop`] does.
fn run_job(shared: &Shared, job: Job) -> (JobState, Event) {
    let Job {
        id,
        kind,
        req,
        events,
        cancel,
        deadline_ms,
    } = job;
    let options = match req.flow_options() {
        Ok(opts) => opts,
        // Unreachable in practice: options were validated at parse
        // time. Kept as a structured error, not a panic.
        Err(message) => {
            let error = Event::Error {
                job: Some(id),
                kind: None,
                stage: Some("options".into()),
                message,
                retry_after_ms: None,
                diagnostics: Vec::new(),
            };
            return (JobState::Failed, error);
        }
    };
    // Stream per-stage progress as it happens (feeding the latency
    // histograms on the way out), and remember which stages finished so
    // a timeout can report how far the job got. The sender side never
    // blocks; if the client left, sends fail and are ignored.
    let completed = Mutex::new(Vec::<String>::new());
    let tx = Mutex::new(events);
    let observer = |s: &fpga_flow::StageReport| {
        if s.ok {
            lock(&completed).push(s.stage.clone());
        }
        if let Some(stage_id) = &s.id {
            shared.metrics.observe_stage(stage_id, s.elapsed_ms);
        }
        let _ = lock(&tx).send(Event::Stage {
            job: id,
            id: s.id.clone(),
            stage: s.stage.clone(),
            ok: s.ok,
            elapsed_ms: s.elapsed_ms,
            metrics: s.metrics.clone(),
        });
    };
    let trace = req.trace.then(TraceLog::new);
    let mut builder = FlowCtx::builder()
        .cache(&shared.cache)
        .observer(&observer)
        .cancel(&cancel);
    if let Some(fault) = shared.config.fault.as_deref() {
        builder = builder.fault(fault);
    }
    if let Some(trace) = &trace {
        builder = builder.trace(trace);
    }
    let ctx = builder.build();
    let source = match req.format {
        SourceFormat::Vhdl => Source::Vhdl(&req.source),
        SourceFormat::Blif => Source::Blif(&req.source),
    };
    let result =
        match kind {
            JobKind::Compile => fpga_flow::compile(source, &options, ctx)
                .map(|done| Finished::Compiled(Box::new(done))),
            JobKind::Check(check) => check::deep(check, source, &options, ctx)
                .map(|report| Finished::Checked(check, report)),
        };
    // Every finding counts once, under its rule code, whichever job kind
    // surfaced it.
    let count_rules = |diags: &[Diagnostic]| {
        for d in diags {
            shared.metrics.observe_rule(d);
        }
    };
    match result {
        Ok(Finished::Compiled(done)) => {
            count_rules(&done.lint);
            let event = Event::Done {
                job: id,
                design: done.report.design.clone(),
                report: serde_json::to_value(&done.report),
                bitstream_hex: proto::to_hex(done.bitstream_bytes()),
                trace: trace.as_ref().map(TraceLog::to_value),
                lint: done.lint,
            };
            (JobState::Completed, event)
        }
        Ok(Finished::Checked(kind, report)) => {
            // A check job "completes" whatever it found; severity is the
            // client's verdict to act on, carried in the diagnostics.
            count_rules(&report.diagnostics);
            let event = Event::Report {
                kind,
                job: id,
                design: report.design.clone(),
                reached: report.reached.to_string(),
                diagnostics: report.diagnostics,
            };
            (JobState::Completed, event)
        }
        // The client hung up; nobody is listening, but the event
        // documents the ending for any late reader.
        Err(_) if cancel.cancelled() => {
            let event = Event::Error {
                job: Some(id),
                kind: Some("cancelled".into()),
                stage: None,
                message: "job cancelled (client disconnected)".into(),
                retry_after_ms: None,
                diagnostics: Vec::new(),
            };
            (JobState::Cancelled, event)
        }
        Err(_) if cancel.timed_out() => {
            let completed = lock(&completed).clone();
            let event = Event::Timeout {
                job: id,
                deadline_ms,
                message: format!(
                    "deadline of {}ms exceeded after {} completed stage(s)",
                    deadline_ms.unwrap_or(0),
                    completed.len()
                ),
                completed_stages: completed,
            };
            (JobState::TimedOut, event)
        }
        Err(e) => {
            // A denied gate carries the run's findings; any other
            // failure carries none.
            count_rules(&e.diagnostics);
            let event = Event::Error {
                job: Some(id),
                kind: None,
                stage: Some(e.stage.to_string()),
                message: e.message,
                retry_after_ms: None,
                diagnostics: e.diagnostics,
            };
            (JobState::Failed, event)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `status` and framed `metrics` bodies of a fresh daemon, byte
    /// for byte as commit 17b1350 rendered them; `status` has carried
    /// the configured `limits` since the `stats` verb went.
    #[test]
    fn fresh_bodies_render_as_recorded() {
        let server = Server::start(ServerConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            workers: 3,
            queue_capacity: 5,
            max_deadline_ms: Some(60_000),
            idle_timeout_ms: None,
            max_line_bytes: 4096,
            max_connections: 7,
            retry_after_ms: 150,
            ..ServerConfig::default()
        })
        .expect("bind in-process flowd");
        // Recorded at ifdf-0.2.0 / proto 6; neither version is what this pins.
        let at_this_version = |recorded: &str| {
            recorded
                .replace("ifdf-0.2.0", fpga_flow::FLOW_VERSION)
                .replace(
                    "\"proto_version\":6",
                    &format!("\"proto_version\":{PROTO_VERSION}"),
                )
        };
        assert_eq!(
            server.status_json().to_string(),
            at_this_version(RECORDED_STATUS)
        );
        assert_eq!(
            server.metrics_json().to_string(),
            at_this_version(RECORDED_METRICS)
        );
        server.shutdown();
    }

    const RECORDED_METRICS: &str = r#"{"jobs":{"submitted":0,"completed":0,"failed":0,"rejected":0,"panicked":0,"timed_out":0,"cancelled":0},"queue":{"depth":0,"peak":0},"workers":{"configured":3},"connections":{"open":0,"rejected":0},"cache":{"memory_hits":0,"disk_hits":0,"misses":0,"entries":0,"memory_evicted":0},"stages":{"synthesis":{"latency":{"count":0,"sum_ms":0.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":2000,"count":0},{"le":5000,"count":0},{"le":"+Inf","count":0}]},"memory_hits":0,"disk_hits":0,"misses":0,"wall_ms":0},"lut_map":{"latency":{"count":0,"sum_ms":0.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":2000,"count":0},{"le":5000,"count":0},{"le":"+Inf","count":0}]},"memory_hits":0,"disk_hits":0,"misses":0,"wall_ms":0},"pack":{"latency":{"count":0,"sum_ms":0.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":2000,"count":0},{"le":5000,"count":0},{"le":"+Inf","count":0}]},"memory_hits":0,"disk_hits":0,"misses":0,"wall_ms":0},"place":{"latency":{"count":0,"sum_ms":0.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":2000,"count":0},{"le":5000,"count":0},{"le":"+Inf","count":0}]},"memory_hits":0,"disk_hits":0,"misses":0,"wall_ms":0},"route":{"latency":{"count":0,"sum_ms":0.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":2000,"count":0},{"le":5000,"count":0},{"le":"+Inf","count":0}]},"memory_hits":0,"disk_hits":0,"misses":0,"wall_ms":0},"power":{"latency":{"count":0,"sum_ms":0.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":2000,"count":0},{"le":5000,"count":0},{"le":"+Inf","count":0}]},"memory_hits":0,"disk_hits":0,"misses":0,"wall_ms":0},"bitstream":{"latency":{"count":0,"sum_ms":0.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":2000,"count":0},{"le":5000,"count":0},{"le":"+Inf","count":0}]},"memory_hits":0,"disk_hits":0,"misses":0,"wall_ms":0},"verify":{"latency":{"count":0,"sum_ms":0.0,"buckets":[{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":0},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":2000,"count":0},{"le":5000,"count":0},{"le":"+Inf","count":0}]},"memory_hits":0,"disk_hits":0,"misses":0,"wall_ms":0}},"job_duration_ms":{},"unknown_stage_events":0,"lint_rules":{"NL001":0,"NL002":0,"NL003":0,"PK001":0,"PL001":0,"RT001":0,"RT002":0,"BS001":0,"EQ001":0,"EQ002":0,"EQ003":0,"unknown":0},"event":"metrics","version":"ifdf-0.2.0","proto_version":6}"#;

    const RECORDED_STATUS: &str = r#"{"event":"status","role":"flowd","version":"ifdf-0.2.0","proto_version":6,"shutting_down":false,"queue":{"depth":0,"capacity":5,"peak":0},"workers":{"configured":3},"connections":{"open":0,"rejected":0,"limit":7},"limits":{"max_deadline_ms":60000,"idle_timeout_ms":null,"max_line_bytes":4096,"retry_after_ms":150}}"#;

    #[test]
    fn deadline_clamping() {
        assert_eq!(effective_deadline_ms(None, None), None);
        assert_eq!(effective_deadline_ms(None, Some(100)), Some(100));
        assert_eq!(effective_deadline_ms(Some(50), Some(100)), Some(50));
        assert_eq!(effective_deadline_ms(Some(500), Some(100)), Some(100));
        assert_eq!(effective_deadline_ms(Some(500), None), Some(500));
    }
}
