//! # fpga-server
//!
//! `flowd`, a concurrent compile-service daemon, and `flowc`, its command
//! line client — the stand-in for the paper's web server front end
//! (Fig. 12): users hand a design to a long-running service and get back
//! per-stage progress, a report, and the configuration bitstream.
//!
//! The daemon accepts newline-delimited JSON requests over TCP and/or a
//! Unix-domain socket (std-only networking), queues compile jobs into a
//! bounded, backpressured queue, and runs them on a fixed worker pool.
//! All workers share one content-addressed [`fpga_flow::StageCache`], so
//! identical submissions — even concurrent ones, thanks to the cache's
//! single-flight lookups — cost one computation per stage and later
//! clients are served byte-identical bitstreams from cache.
//!
//! Protocol (one JSON object per line, client speaks first):
//!
//! ```text
//! -> {"cmd":"compile","format":"vhdl","source":"...","options":{"place_seed":7}}
//! <- {"event":"queued","job":1}
//! <- {"event":"stage","job":1,"stage":"synthesis (VHDL Parser + DIVINER)",...}
//! <- ... one per stage ...
//! <- {"event":"done","job":1,"report":{...},"bitstream_hex":"..."}
//! ```
//!
//! plus `{"cmd":"ping"}` (the hello — both sides exchange
//! [`proto::PROTO_VERSION`] here), `{"cmd":"metrics"}` (job and
//! connection counters, per-stage latency histograms and cache
//! hit/miss/wall-time, the durable store's ledger, the queue high-water
//! mark, and per-rule lint counters — ask with `"format":"text"` for a
//! Prometheus-style exposition), `{"cmd":"status"}` (the health probe:
//! queue, workers, connections and the configured limits),
//! `{"cmd":"lint"}` / `{"cmd":"verify"}` (same shape as `compile`; run
//! one kind of deep check — design rules or cross-stage equivalence —
//! and answer with a terminal `{"event":"lint_report"}` /
//! `{"event":"verify_report"}` carrying typed diagnostics) and
//! `{"cmd":"shutdown"}` (graceful: new jobs are rejected, queued jobs
//! drain, then the daemon exits).
//!
//! Both sides speak through the *typed* layer in [`proto`]:
//! [`proto::Request`] and [`proto::Event`] round-trip through the JSON
//! shapes above, so matching is exhaustive — a new verb or event is a
//! compile error until every consumer handles it. Compile requests may
//! set `"trace": true` to receive the per-stage span tree
//! ([`fpga_flow::TraceLog`]) in the `done` event; `flowc --trace`
//! renders it as a waterfall.
//!
//! ## Fault tolerance
//!
//! The daemon is hardened against misbehaving jobs and clients:
//!
//! * a panic anywhere in a job answers with
//!   `{"event":"error","kind":"panic"}` and the worker keeps serving;
//! * every job runs under a deadline (`deadline_ms` on the request,
//!   clamped to the server's `--max-deadline` cap); overruns answer with
//!   `{"event":"timeout","completed_stages":[...]}` and a client that
//!   hangs up cancels its job at the next stage boundary;
//! * connections are guarded: an idle read timeout, a cap on concurrent
//!   connections, and a byte limit on request lines. Queue-full and
//!   overload rejections carry a `retry_after_ms` hint that
//!   [`client::compile_with_retry`] honors with jittered exponential
//!   backoff.
//!
//! ## Modules
//!
//! [`proto`] is the typed wire layer and the private `net` module the
//! one transport under it: `flowd` ([`service`]) and `flow-gateway`
//! ([`gateway`], with [`tenancy`], [`queue`], [`breaker`]) are two
//! nodes served by the same endpoint loop — same connection guards,
//! same replies — and [`client`], the gateway's backend hops and the
//! remote artifact tier ([`artifact`]) all dial through it. [`metrics`]
//! declares every exported family once, as a named `const`. A statistic
//! is a [`fpga_flow::sync::Counter`] field of the struct that counts it,
//! and that struct's `clone` is the snapshot the renderers read — no
//! role keeps a second, plain-number copy of its counters.

pub mod artifact;
pub mod breaker;
pub mod client;
pub mod gateway;
pub mod metrics;
mod net;
pub mod proto;
pub mod queue;
pub mod service;
pub mod tenancy;

pub use artifact::RemoteTierClient;
pub use breaker::{BreakerCounters, BreakerState, CircuitBreaker};
pub use client::{
    compile_with_retry, CheckOutcome, CompileError, CompileOutcome, FlowClient, RetryPolicy,
    MAX_UNKNOWN_EVENTS,
};
pub use gateway::{Gateway, GatewayConfig};
pub use metrics::{Histogram, Metrics, MetricsSnapshot};
pub use proto::{
    CompileRequest, Event, EventParseError, JobKind, ReadLineError, Request, SourceFormat,
    PROTO_VERSION,
};
pub use queue::{FairQueue, JobQueue, SubmitError};
pub use service::{Server, ServerConfig};
pub use tenancy::{AdmitOutcome, GovernorConfig, TenantGovernor};
