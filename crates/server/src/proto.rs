//! Wire protocol: newline-delimited JSON, one object per line.
//!
//! Both directions are *typed*: clients build a [`Request`], servers
//! answer with [`Event`]s, and each side round-trips through
//! [`Request::to_value`] / [`parse_request`] and [`Event::to_value`] /
//! [`parse_event`]. The JSON shapes themselves are the contract — they
//! are parsed and emitted explicitly, field by field, never by derived
//! enum encodings — so the wire stays compatible with version-1 peers
//! that matched on raw `"cmd"` / `"event"` strings.
//!
//! [`PROTO_VERSION`] is carried in the `ping`/`pong` hello: clients send
//! theirs, servers echo their own in the ack, and either side may treat
//! a missing field as version 1.

use std::io::{self, BufRead, Write};

use fpga_arch::Architecture;
use fpga_flow::{CheckKind, FlowOptions};
use fpga_lint::{diagnostics_from_value, diagnostics_to_value, Diagnostic, GateMode};
use serde_json::Value;

use crate::tenancy::MAX_TENANT_BYTES;

/// The wire's hex encoding of bitstream and artifact bytes.
pub use fpga_flow::hash::{from_hex, to_hex};

/// Version of the request/event schema this build speaks. Bumped when a
/// verb or event changes shape; absent on the wire means 1.
///
/// * 1 — `ping`/`stats`/`shutdown`/`compile`, stringly matched.
///   `stats` is gone: it gets "unknown cmd", `metrics`/`status` carry its fields.
/// * 2 — typed enums; adds the `metrics` verb, `trace` on compile
///   requests (spans in the `done` event), and `proto_version` itself.
/// * 3 — design-rule lint: the `lint` verb and its terminal
///   `lint_report` event, the `lint` flow option (`off`/`warn`/`deny`),
///   and typed `diagnostics` riding `done` and `error` events. All
///   additions are optional fields or new verbs, so version-2 peers
///   interoperate unchanged.
/// * 4 — compile farm: optional `tenant` on `compile`/`lint` (fair-share
///   accounting at the gateway; version-3 daemons ignore the unknown
///   field), and the `status` verb + event (node health — on `flowd` its
///   queue/worker state, on `flow-gateway` the per-backend breaker
///   table). Wire-compatible with version 3 in both directions.
/// * 5 — shared artifact tier: the `artifact_get`/`artifact_put` verbs
///   and their `artifact`/`artifact_ack` replies, moving raw
///   [`DiskStore`](fpga_flow::DiskStore) entries (self-verifying,
///   digest-checked on receipt) between farm nodes via the gateway.
///   New verbs only — version-4 peers interoperate unchanged, and a
///   version-4 daemon answering "unknown cmd" is treated as an artifact
///   miss, never an error. `artifact_get` is gone again: today's nodes
///   answer it with that same "unknown cmd" error, which every
///   version-5 peer already reads as a miss, so the number stays.
/// * 6 — equivalence checking: the `verify` verb and its terminal
///   `verify_report` event (deep cross-stage CEC, EQ rule codes), and
///   the `verify` flow option (`off`/`warn`/`deny`) gating compiles.
///   All additions are a new verb, a new event, and a new optional
///   option field, so version-5 peers interoperate unchanged.
pub const PROTO_VERSION: u64 = 6;

/// Source language of a submitted design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceFormat {
    Vhdl,
    Blif,
}

impl SourceFormat {
    pub fn name(self) -> &'static str {
        match self {
            SourceFormat::Vhdl => "vhdl",
            SourceFormat::Blif => "blif",
        }
    }
}

/// A compile submission.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    pub format: SourceFormat,
    pub source: String,
    /// Flow options exactly as they appear on the wire (`Value::Null`
    /// for "all defaults"). Validated eagerly at parse/build time, so a
    /// stored request is always convertible via
    /// [`CompileRequest::flow_options`].
    pub options: Value,
    /// Client-requested job deadline in milliseconds, measured from
    /// submission. The server clamps it to its own cap.
    pub deadline_ms: Option<u64>,
    /// Ask the server to record a per-stage trace and attach the span
    /// tree to the `done` event.
    pub trace: bool,
    /// Who is asking, for fair-share accounting at the gateway. Optional
    /// and advisory: `flowd` itself ignores it, and version-3 peers drop
    /// it as an unknown field (proto 4).
    pub tenant: Option<String>,
    /// No effect: P&R runs on one thread; goes with ROADMAP 5's unfreeze.
    /// Still parsed, validated and forwarded so the wire form is
    /// unchanged; older peers drop it as an unknown field.
    pub threads: Option<u64>,
}

impl CompileRequest {
    /// A request for `source` with default options, no deadline, no
    /// trace.
    pub fn new(format: SourceFormat, source: impl Into<String>) -> Self {
        CompileRequest {
            format,
            source: source.into(),
            options: Value::Null,
            deadline_ms: None,
            trace: false,
            tenant: None,
            threads: None,
        }
    }

    /// Set the wire options, validating them now rather than at run
    /// time.
    pub fn with_options(mut self, options: Value) -> Result<Self, String> {
        parse_options(Some(&options))?;
        self.options = match options {
            Value::Object(o) if o.is_empty() => Value::Null,
            other => other,
        };
        Ok(self)
    }

    /// Materialize [`FlowOptions`] from the stored wire options.
    pub fn flow_options(&self) -> Result<FlowOptions, String> {
        parse_options(Some(&self.options))
    }
}

/// What a submitted job does with its request: run the full compile
/// flow, or only one kind of deep check. The three job verbs share one
/// submission shape ([`CompileRequest`]) and differ only in this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    Compile,
    Check(CheckKind),
}

impl JobKind {
    /// The wire verb: `compile`, `lint` or `verify`.
    pub fn verb(self) -> &'static str {
        match self {
            JobKind::Compile => "compile",
            JobKind::Check(kind) => kind.verb(),
        }
    }

    /// The request that submits `req` as this kind of job.
    pub fn request(self, req: CompileRequest) -> Request {
        match self {
            JobKind::Compile => Request::Compile(Box::new(req)),
            JobKind::Check(kind) => Request::Check(kind, Box::new(req)),
        }
    }
}

/// The terminal event name of a check job: `lint_report` /
/// `verify_report`.
fn report_event(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::Lint => "lint_report",
        CheckKind::Verify => "verify_report",
    }
}

/// Everything a client can ask.
#[derive(Clone, Debug)]
pub enum Request {
    Ping,
    /// Latency histograms + counters; `text` asks for the
    /// Prometheus-style exposition instead of JSON.
    Metrics {
        text: bool,
    },
    Shutdown,
    /// Node health: on `flowd`, queue depth and worker state; on
    /// `flow-gateway`, the per-backend health/breaker/queue table.
    Status,
    Compile(Box<CompileRequest>),
    /// Deep check, the `lint` (design rules) and `verify` (proto 6:
    /// cross-stage equivalence) verbs: same submission shape as
    /// `compile` (source, options, deadline), but the job drives the
    /// stages purely to check them — no power, no re-simulation, no
    /// bitstream in the reply, every finding collected instead of
    /// stopping at the first — and terminates with a `lint_report` /
    /// `verify_report` event.
    Check(CheckKind, Box<CompileRequest>),
    /// Offer a raw store entry (hex-encoded self-verifying bytes) for
    /// local installation (proto 5, the farm's replication): `flowd`
    /// stores it, `flow-gateway` copies it to two backends. The receiver
    /// verifies the digest before storing; corrupt bytes are quarantined
    /// and refused. Answered with one `artifact_ack` event.
    ArtifactPut {
        stage: String,
        key: String,
        kind: String,
        data_hex: String,
    },
}

impl Request {
    /// The wire form. Inverse of [`parse_request_value`].
    pub fn to_value(&self) -> Value {
        let mut obj = serde_json::Map::new();
        match self {
            Request::Ping => {
                obj.insert("cmd".into(), "ping".into());
                obj.insert("proto_version".into(), PROTO_VERSION.into());
            }
            Request::Metrics { text } => {
                obj.insert("cmd".into(), "metrics".into());
                if *text {
                    obj.insert("format".into(), "text".into());
                }
            }
            Request::Shutdown => {
                obj.insert("cmd".into(), "shutdown".into());
            }
            Request::Status => {
                obj.insert("cmd".into(), "status".into());
            }
            Request::Compile(c) | Request::Check(_, c) => {
                let kind = match self {
                    Request::Check(kind, _) => JobKind::Check(*kind),
                    _ => JobKind::Compile,
                };
                obj.insert("cmd".into(), kind.verb().into());
                obj.insert("format".into(), c.format.name().into());
                obj.insert("source".into(), c.source.clone().into());
                if !c.options.is_null() {
                    obj.insert("options".into(), c.options.clone());
                }
                if let Some(ms) = c.deadline_ms {
                    obj.insert("deadline_ms".into(), ms.into());
                }
                if c.trace {
                    obj.insert("trace".into(), true.into());
                }
                if let Some(tenant) = &c.tenant {
                    obj.insert("tenant".into(), tenant.clone().into());
                }
                if let Some(threads) = c.threads {
                    obj.insert("threads".into(), threads.into());
                }
            }
            Request::ArtifactPut {
                stage,
                key,
                kind,
                data_hex,
            } => {
                obj.insert("cmd".into(), "artifact_put".into());
                obj.insert("stage".into(), stage.clone().into());
                obj.insert("key".into(), key.clone().into());
                obj.insert("kind".into(), kind.clone().into());
                obj.insert("data_hex".into(), data_hex.clone().into());
            }
        }
        Value::Object(obj)
    }
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    parse_request_value(&v)
}

/// Parse a request from an already-decoded [`Value`] — the daemon's
/// connection loop decodes each line exactly once and parses from that,
/// with no re-serialization round trip.
pub fn parse_request_value(v: &Value) -> Result<Request, String> {
    let cmd = v
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing 'cmd'".to_string())?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "metrics" => {
            let text = match v.get("format").and_then(Value::as_str) {
                None | Some("json") => false,
                Some("text") => true,
                Some(other) => return Err(format!("unknown metrics format '{other}'")),
            };
            Ok(Request::Metrics { text })
        }
        "shutdown" => Ok(Request::Shutdown),
        "status" => Ok(Request::Status),
        "compile" | "lint" | "verify" => {
            let format = match v.get("format").and_then(Value::as_str) {
                Some("vhdl") | None => SourceFormat::Vhdl,
                Some("blif") => SourceFormat::Blif,
                Some(other) => return Err(format!("unknown format '{other}'")),
            };
            let source = v
                .get("source")
                .and_then(Value::as_str)
                .ok_or_else(|| "missing 'source'".to_string())?
                .to_string();
            // Validate now: a stored request is always convertible.
            parse_options(v.get("options"))?;
            let options = v.get("options").cloned().unwrap_or(Value::Null);
            let deadline_ms = match v.get("deadline_ms") {
                None | Some(Value::Null) => None,
                Some(d) => Some(
                    d.as_u64()
                        .ok_or_else(|| "deadline_ms must be an integer".to_string())?,
                ),
            };
            let trace = match v.get("trace") {
                None | Some(Value::Null) => false,
                Some(t) => t
                    .as_bool()
                    .ok_or_else(|| "trace must be a boolean".to_string())?,
            };
            let tenant = match v.get("tenant") {
                None | Some(Value::Null) => None,
                Some(t) => {
                    let t = t
                        .as_str()
                        .ok_or_else(|| "tenant must be a string".to_string())?;
                    if t.len() > MAX_TENANT_BYTES {
                        return Err(format!("tenant must be at most {MAX_TENANT_BYTES} bytes"));
                    }
                    Some(t.to_string())
                }
            };
            let threads = match v.get("threads") {
                None | Some(Value::Null) => None,
                Some(t) => match t.as_u64() {
                    Some(n) if n >= 1 => Some(n),
                    _ => return Err("threads must be a positive integer".to_string()),
                },
            };
            let req = Box::new(CompileRequest {
                format,
                source,
                options,
                deadline_ms,
                trace,
                tenant,
                threads,
            });
            Ok(match cmd {
                "lint" => Request::Check(CheckKind::Lint, req),
                "verify" => Request::Check(CheckKind::Verify, req),
                _ => Request::Compile(req),
            })
        }
        "artifact_put" => {
            let field = |name: &str| -> Result<String, String> {
                v.get(name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("'{cmd}' missing '{name}'"))
            };
            Ok(Request::ArtifactPut {
                stage: field("stage")?,
                key: field("key")?,
                kind: field("kind")?,
                data_hex: field("data_hex")?,
            })
        }
        other => Err(format!("unknown cmd '{other}'")),
    }
}

/// Overlay the request's option fields onto [`FlowOptions::default`].
/// Absent fields keep their defaults; `channel_width: null` means
/// "search the minimum" explicitly.
fn parse_options(v: Option<&Value>) -> Result<FlowOptions, String> {
    let mut opts = FlowOptions::default();
    let Some(v) = v else { return Ok(opts) };
    if v.is_null() {
        return Ok(opts);
    }
    let obj = v
        .as_object()
        .ok_or_else(|| "'options' must be an object".to_string())?;
    for (key, val) in obj.iter() {
        match key.as_str() {
            "place_seed" => {
                opts.place_seed = val
                    .as_u64()
                    .ok_or_else(|| "place_seed must be an integer".to_string())?;
            }
            "place_effort" => {
                opts.place_effort = val
                    .as_f64()
                    .ok_or_else(|| "place_effort must be a number".to_string())?;
            }
            "channel_width" => {
                opts.channel_width = if val.is_null() {
                    None
                } else {
                    Some(
                        val.as_u64()
                            .ok_or_else(|| "channel_width must be an integer".to_string())?
                            as usize,
                    )
                };
            }
            "verify_cycles" => {
                opts.verify_cycles = val
                    .as_u64()
                    .ok_or_else(|| "verify_cycles must be an integer".to_string())?
                    as usize;
            }
            "arch" => {
                let text = serde_json::to_string(val).map_err(|e| e.to_string())?;
                opts.arch =
                    Architecture::from_json(&text).map_err(|e| format!("bad 'arch': {e}"))?;
            }
            "lint" | "verify" => {
                let name = val
                    .as_str()
                    .ok_or_else(|| format!("{key} must be a string"))?;
                let mode = GateMode::parse(name)
                    .ok_or_else(|| format!("unknown {key} mode '{name}' (off/warn/deny)"))?;
                if key == "lint" {
                    opts.lint = mode;
                } else {
                    opts.verify = mode;
                }
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

/// Everything a server can answer. One JSON object per line on the
/// wire; [`Event::to_value`] and [`parse_event`] are inverses.
///
/// The `Metrics` and `Status` payloads stay opaque [`Value`]s: their
/// bodies are assembled by the service from live counters and rendered
/// verbatim — the protocol layer only frames them.
#[derive(Clone, Debug)]
pub enum Event {
    /// Ack of `ping`; carries the server's flow version and
    /// [`PROTO_VERSION`] (absent from version-1 servers — parsed as 1).
    Pong { version: String, proto_version: u64 },
    /// Full metrics body (JSON or `{"format":"text","text":...}`),
    /// including its `"event":"metrics"` marker.
    Metrics(Value),
    /// Full status body (node health), including its `"event":"status"`
    /// marker. Opaque like `Metrics`: the serving node assembles
    /// it from live state, the protocol layer only frames it.
    Status(Value),
    /// Ack of `shutdown`: the queue is already draining.
    ShuttingDown,
    /// Compile accepted; stage events for `job` follow.
    Queued { job: u64 },
    /// Compile refused (queue full / shutting down).
    Rejected {
        job: u64,
        reason: String,
        retry_after_ms: Option<u64>,
    },
    /// One pipeline stage finished. `id` is the short stable stage id
    /// (`"synthesis"`); `stage` the human-readable title.
    Stage {
        job: u64,
        id: Option<String>,
        stage: String,
        ok: bool,
        elapsed_ms: f64,
        metrics: Value,
    },
    /// Terminal success. `trace` carries the span tree when the request
    /// asked for one; `lint` any warn/info findings when the compile ran
    /// with design-rule checks enabled (absent on the wire when empty).
    Done {
        job: u64,
        design: String,
        report: Value,
        bitstream_hex: String,
        trace: Option<Value>,
        lint: Vec<Diagnostic>,
    },
    /// Terminal reply to a check job (`lint_report` / `verify_report` on
    /// the wire, by `kind`): every finding the deep check produced —
    /// equivalence counterexamples ride in the diagnostics' notes — plus
    /// how far the flow got (`reached` is the last boundary checked,
    /// e.g. `"netlist"` or `"bitstream"`).
    Report {
        kind: CheckKind,
        job: u64,
        design: String,
        reached: String,
        diagnostics: Vec<Diagnostic>,
    },
    /// Terminal deadline overrun.
    Timeout {
        job: u64,
        deadline_ms: Option<u64>,
        completed_stages: Vec<String>,
        message: String,
    },
    /// Terminal failure, or a connection-level complaint (no `job`).
    /// `kind` distinguishes panics, rejections under load, etc.
    /// `diagnostics` carries the structured findings when the failure
    /// came from a design-rule gate (stage `"lint"`); empty otherwise
    /// and absent on the wire.
    Error {
        job: Option<u64>,
        kind: Option<String>,
        stage: Option<String>,
        message: String,
        retry_after_ms: Option<u64>,
        diagnostics: Vec<Diagnostic>,
    },
    /// Reply to `artifact_put` (proto 5). `stored: false` means the
    /// bytes failed verification (and were quarantined) or could not be
    /// persisted; `message` says why.
    ArtifactAck {
        stored: bool,
        message: Option<String>,
    },
}

impl Event {
    /// This event ends a job's stream: `done`, a report, `error` or
    /// `timeout` — nothing follows it for that job.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Event::Done { .. } | Event::Report { .. } | Event::Error { .. } | Event::Timeout { .. }
        )
    }

    /// `Some(retry_after_ms)` when the peer answered and took no job: a
    /// `rejected` (queue full, quota, draining), or a connection-level
    /// `error` of kind `overloaded` (the connection cap) or
    /// `shutting-down` (the notice a connection gets when it races a
    /// draining daemon's shutdown flag). Every other `error` is about a
    /// job that ran, or a connection that is being closed.
    pub fn refusal(&self) -> Option<Option<u64>> {
        match self {
            Event::Rejected { retry_after_ms, .. } => Some(*retry_after_ms),
            Event::Error {
                kind: Some(kind),
                retry_after_ms,
                ..
            } if matches!(kind.as_str(), "overloaded" | "shutting-down") => Some(*retry_after_ms),
            _ => None,
        }
    }

    /// The wire form. Inverse of [`parse_event`]; field names and
    /// shapes match what version-1 clients already string-matched on.
    pub fn to_value(&self) -> Value {
        let mut obj = serde_json::Map::new();
        match self {
            Event::Pong {
                version,
                proto_version,
            } => {
                obj.insert("event".into(), "pong".into());
                obj.insert("version".into(), version.clone().into());
                obj.insert("proto_version".into(), (*proto_version).into());
            }
            Event::Metrics(body) | Event::Status(body) => {
                let marker = match self {
                    Event::Metrics(_) => "metrics",
                    _ => "status",
                };
                match body {
                    Value::Object(map) => {
                        for (k, v) in map.iter() {
                            obj.insert(k.clone(), v.clone());
                        }
                    }
                    other => {
                        obj.insert("body".into(), other.clone());
                    }
                }
                obj.insert("event".into(), marker.into());
            }
            Event::ShuttingDown => {
                obj.insert("event".into(), "shutting_down".into());
            }
            Event::Queued { job } => {
                obj.insert("event".into(), "queued".into());
                obj.insert("job".into(), (*job).into());
            }
            Event::Rejected {
                job,
                reason,
                retry_after_ms,
            } => {
                obj.insert("event".into(), "rejected".into());
                obj.insert("job".into(), (*job).into());
                obj.insert("reason".into(), reason.clone().into());
                if let Some(ms) = retry_after_ms {
                    obj.insert("retry_after_ms".into(), (*ms).into());
                }
            }
            Event::Stage {
                job,
                id,
                stage,
                ok,
                elapsed_ms,
                metrics,
            } => {
                obj.insert("event".into(), "stage".into());
                obj.insert("job".into(), (*job).into());
                if let Some(id) = id {
                    obj.insert("id".into(), id.clone().into());
                }
                obj.insert("stage".into(), stage.clone().into());
                obj.insert("ok".into(), (*ok).into());
                obj.insert("elapsed_ms".into(), (*elapsed_ms).into());
                obj.insert("metrics".into(), metrics.clone());
            }
            Event::Done {
                job,
                design,
                report,
                bitstream_hex,
                trace,
                lint,
            } => {
                obj.insert("event".into(), "done".into());
                obj.insert("job".into(), (*job).into());
                obj.insert("design".into(), design.clone().into());
                obj.insert("report".into(), report.clone());
                obj.insert("bitstream_hex".into(), bitstream_hex.clone().into());
                if let Some(trace) = trace {
                    obj.insert("trace".into(), trace.clone());
                }
                if !lint.is_empty() {
                    obj.insert("lint".into(), diagnostics_to_value(lint));
                }
            }
            Event::Report {
                kind,
                job,
                design,
                reached,
                diagnostics,
            } => {
                obj.insert("event".into(), report_event(*kind).into());
                obj.insert("job".into(), (*job).into());
                obj.insert("design".into(), design.clone().into());
                obj.insert("reached".into(), reached.clone().into());
                obj.insert("diagnostics".into(), diagnostics_to_value(diagnostics));
            }
            Event::Timeout {
                job,
                deadline_ms,
                completed_stages,
                message,
            } => {
                obj.insert("event".into(), "timeout".into());
                obj.insert("job".into(), (*job).into());
                obj.insert(
                    "deadline_ms".into(),
                    deadline_ms.map(Value::from).unwrap_or(Value::Null),
                );
                obj.insert(
                    "completed_stages".into(),
                    Value::Array(completed_stages.iter().map(|s| s.clone().into()).collect()),
                );
                obj.insert("message".into(), message.clone().into());
            }
            Event::Error {
                job,
                kind,
                stage,
                message,
                retry_after_ms,
                diagnostics,
            } => {
                obj.insert("event".into(), "error".into());
                if let Some(kind) = kind {
                    obj.insert("kind".into(), kind.clone().into());
                }
                if let Some(job) = job {
                    obj.insert("job".into(), (*job).into());
                }
                if let Some(stage) = stage {
                    obj.insert("stage".into(), stage.clone().into());
                }
                obj.insert("message".into(), message.clone().into());
                if let Some(ms) = retry_after_ms {
                    obj.insert("retry_after_ms".into(), (*ms).into());
                }
                if !diagnostics.is_empty() {
                    obj.insert("diagnostics".into(), diagnostics_to_value(diagnostics));
                }
            }
            Event::ArtifactAck { stored, message } => {
                obj.insert("event".into(), "artifact_ack".into());
                obj.insert("stored".into(), (*stored).into());
                if let Some(message) = message {
                    obj.insert("message".into(), message.clone().into());
                }
            }
        }
        Value::Object(obj)
    }
}

/// Wire form of a connection-level complaint (no job attached).
pub(crate) fn conn_error(
    kind: Option<&str>,
    message: impl Into<String>,
    retry_after_ms: Option<u64>,
) -> Value {
    Event::Error {
        job: None,
        kind: kind.map(str::to_string),
        stage: None,
        message: message.into(),
        retry_after_ms,
        diagnostics: Vec::new(),
    }
    .to_value()
}

/// The `metrics` reply body that carries a text exposition.
pub(crate) fn metrics_text_body(text: String) -> Value {
    serde_json::json!({"event": "metrics", "format": "text", "text": text})
}

/// Frame a snapshot's JSON body as `event`: append the `event` marker
/// and the flow `version`, leaving the map open for the serving node's
/// own keys. A non-object body is kept under `"body"`.
pub(crate) fn framed_body(event: &str, body: Value) -> serde_json::Map<String, Value> {
    let mut map = match body {
        Value::Object(map) => map,
        other => {
            let mut map = serde_json::Map::new();
            map.insert("body".to_string(), other);
            map
        }
    };
    map.insert("event".to_string(), event.into());
    map.insert("version".to_string(), fpga_flow::FLOW_VERSION.into());
    map
}

/// Why [`parse_event`] could not produce an [`Event`].
#[derive(Clone, Debug)]
pub enum EventParseError {
    /// The event name is not one this build knows — a newer (or older)
    /// peer. Clients should warn and skip, not die: unknown events are
    /// the protocol's forward-compatibility escape hatch.
    Unknown(String),
    /// A known event arrived with missing/mistyped fields.
    Malformed(String),
}

impl std::fmt::Display for EventParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventParseError::Unknown(name) => write!(f, "unknown event '{name}'"),
            EventParseError::Malformed(msg) => write!(f, "malformed event: {msg}"),
        }
    }
}

/// Parse a server event from its decoded wire form.
pub fn parse_event(v: &Value) -> Result<Event, EventParseError> {
    use EventParseError::Malformed;
    let name = v
        .get("event")
        .and_then(Value::as_str)
        .ok_or_else(|| Malformed("missing 'event'".into()))?;
    let job = |v: &Value| -> Result<u64, EventParseError> {
        v.get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| Malformed(format!("'{name}' missing numeric 'job'")))
    };
    let message = |v: &Value| {
        v.get("message")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    match name {
        "pong" => Ok(Event::Pong {
            version: v
                .get("version")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            // Absent = a version-1 server.
            proto_version: v.get("proto_version").and_then(Value::as_u64).unwrap_or(1),
        }),
        "metrics" => Ok(Event::Metrics(v.clone())),
        "status" => Ok(Event::Status(v.clone())),
        "shutting_down" => Ok(Event::ShuttingDown),
        "queued" => Ok(Event::Queued { job: job(v)? }),
        "rejected" => Ok(Event::Rejected {
            job: job(v)?,
            reason: v
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("rejected")
                .to_string(),
            retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64),
        }),
        "stage" => Ok(Event::Stage {
            job: job(v)?,
            id: v.get("id").and_then(Value::as_str).map(str::to_string),
            stage: v
                .get("stage")
                .and_then(Value::as_str)
                .ok_or_else(|| Malformed("'stage' missing 'stage'".into()))?
                .to_string(),
            ok: v.get("ok").and_then(Value::as_bool).unwrap_or(true),
            elapsed_ms: v.get("elapsed_ms").and_then(Value::as_f64).unwrap_or(0.0),
            metrics: v.get("metrics").cloned().unwrap_or(Value::Null),
        }),
        "done" => Ok(Event::Done {
            job: job(v)?,
            design: v
                .get("design")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            report: v.get("report").cloned().unwrap_or(Value::Null),
            bitstream_hex: v
                .get("bitstream_hex")
                .and_then(Value::as_str)
                .ok_or_else(|| Malformed("'done' missing 'bitstream_hex'".into()))?
                .to_string(),
            trace: v.get("trace").filter(|t| !t.is_null()).cloned(),
            lint: diagnostics_from_value(v.get("lint").unwrap_or(&Value::Null))
                .map_err(|e| Malformed(format!("'done' lint findings: {e}")))?,
        }),
        "lint_report" | "verify_report" => {
            let design = v
                .get("design")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let reached = v
                .get("reached")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let diagnostics = diagnostics_from_value(v.get("diagnostics").unwrap_or(&Value::Null))
                .map_err(|e| Malformed(format!("'{name}' diagnostics: {e}")))?;
            Ok(Event::Report {
                kind: if name == "lint_report" {
                    CheckKind::Lint
                } else {
                    CheckKind::Verify
                },
                job: job(v)?,
                design,
                reached,
                diagnostics,
            })
        }
        "timeout" => Ok(Event::Timeout {
            job: job(v)?,
            deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
            completed_stages: v
                .get("completed_stages")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            message: message(v),
        }),
        "error" => Ok(Event::Error {
            job: v.get("job").and_then(Value::as_u64),
            kind: v.get("kind").and_then(Value::as_str).map(str::to_string),
            stage: v.get("stage").and_then(Value::as_str).map(str::to_string),
            message: message(v),
            retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64),
            diagnostics: diagnostics_from_value(v.get("diagnostics").unwrap_or(&Value::Null))
                .map_err(|e| Malformed(format!("'error' diagnostics: {e}")))?,
        }),
        "artifact_ack" => Ok(Event::ArtifactAck {
            stored: v.get("stored").and_then(Value::as_bool).unwrap_or(false),
            message: v.get("message").and_then(Value::as_str).map(str::to_string),
        }),
        other => Err(EventParseError::Unknown(other.to_string())),
    }
}

/// Write one event line and flush (clients block on complete lines).
/// The line leaves in a single `write`, newline included: a separate
/// 1-byte `"\n"` write is what Nagle's algorithm holds back until the
/// peer's delayed ACK, while the peer cannot parse without it.
pub fn write_line(w: &mut impl Write, v: &Value) -> io::Result<()> {
    w.write_all(format!("{v}\n").as_bytes())?;
    w.flush()
}

/// Why [`read_line_limited`] could not produce a request.
#[derive(Debug)]
pub enum ReadLineError {
    /// The line exceeded the byte limit. At most `limit + 1` bytes were
    /// ever buffered, so a hostile or broken client cannot balloon the
    /// daemon's memory; the remainder of the line was *drained* (read
    /// and discarded up to its newline), so the stream is still framed
    /// and the connection can keep serving subsequent requests.
    TooLong { limit: usize },
    /// The line was not valid JSON.
    BadJson(String),
    /// Transport error; `WouldBlock`/`TimedOut` kinds mean the
    /// connection's read timeout elapsed.
    Io(io::Error),
}

impl ReadLineError {
    /// What a serving connection tells its client about a request line
    /// it could not read, and whether it can keep serving afterwards:
    /// only an oversized line can — it was drained, never buffered
    /// beyond the limit, so framing is intact.
    pub(crate) fn client_reply(&self) -> (Value, bool) {
        use io::ErrorKind::{TimedOut, WouldBlock};
        match self {
            ReadLineError::TooLong { limit } => {
                let message = format!("request line exceeds {limit} bytes");
                (conn_error(Some("oversized"), message, None), true)
            }
            ReadLineError::BadJson(message) => (
                conn_error(None, format!("bad JSON: {message}"), None),
                false,
            ),
            // The connection's read timeout elapsed.
            ReadLineError::Io(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                let reply = conn_error(Some("idle-timeout"), "connection idle too long", None);
                (reply, false)
            }
            ReadLineError::Io(e) => (conn_error(None, e.to_string(), None), false),
        }
    }
}

/// A peer's unreadable line as the transport error it is to a caller
/// that only wanted the reply.
impl From<ReadLineError> for io::Error {
    fn from(e: ReadLineError) -> io::Error {
        let invalid = |message| io::Error::new(io::ErrorKind::InvalidData, message);
        match e {
            ReadLineError::TooLong { limit } => invalid(format!("line exceeds {limit} bytes")),
            ReadLineError::BadJson(message) => invalid(message),
            ReadLineError::Io(e) => e,
        }
    }
}

/// Discard the rest of the current line (through its newline, or EOF)
/// without accumulating it: only the reader's internal buffer is used.
fn drain_line(r: &mut impl BufRead) -> io::Result<()> {
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            return Ok(()); // EOF mid-line
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(i) => {
                r.consume(i + 1);
                return Ok(());
            }
            None => {
                let len = buf.len();
                r.consume(len);
            }
        }
    }
}

/// Read the next line as JSON, never buffering more than `limit + 1`
/// bytes. `Ok(None)` on clean EOF; blank lines are skipped; a final line
/// without a trailing newline still parses. An oversized line is drained
/// to its newline before returning [`ReadLineError::TooLong`], so the
/// next call reads the next request, not the tail of the rejected one.
pub fn read_line_limited(
    r: &mut impl BufRead,
    limit: usize,
) -> Result<Option<Value>, ReadLineError> {
    let mut line = String::new();
    loop {
        line.clear();
        let mut bounded = io::Read::take(&mut *r, limit as u64 + 1);
        let n = bounded.read_line(&mut line).map_err(ReadLineError::Io)?;
        if n == 0 {
            return Ok(None);
        }
        if n > limit {
            if !line.ends_with('\n') {
                drain_line(r).map_err(ReadLineError::Io)?;
            }
            return Err(ReadLineError::TooLong { limit });
        }
        if line.trim().is_empty() {
            continue;
        }
        return serde_json::from_str(line.trim())
            .map(Some)
            .map_err(|e| ReadLineError::BadJson(e.to_string()));
    }
}

/// Read the next line as JSON with no practical size limit (the client
/// side trusts its server: `done` events carry whole bitstreams).
/// `Ok(None)` on clean EOF.
pub fn read_line(r: &mut impl BufRead) -> io::Result<Option<Value>> {
    Ok(read_line_limited(r, usize::MAX - 1)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_compile_with_options() {
        let req = parse_request(
            r#"{"cmd":"compile","format":"blif","source":".model m",
                "options":{"place_seed":9,"channel_width":12,"verify_cycles":0}}"#,
        )
        .unwrap();
        let Request::Compile(c) = req else {
            panic!("not compile")
        };
        assert_eq!(c.format, SourceFormat::Blif);
        assert!(!c.trace);
        let opts = c.flow_options().unwrap();
        assert_eq!(opts.place_seed, 9);
        assert_eq!(opts.channel_width, Some(12));
        assert_eq!(opts.verify_cycles, 0);
        // Untouched fields keep defaults.
        assert_eq!(opts.place_effort, FlowOptions::default().place_effort);
    }

    #[test]
    fn rejects_unknown_cmd_and_option() {
        assert!(parse_request(r#"{"cmd":"fly"}"#).is_err());
        // Bad options are rejected at parse time, not first use.
        assert!(parse_request(r#"{"cmd":"compile","source":"x","options":{"speed":9}}"#).is_err());
        assert!(parse_request(r#"{"cmd":"metrics","format":"xml"}"#).is_err());
    }

    #[test]
    fn an_architecture_field_the_tools_ignore_is_refused_at_parse() {
        let mut arch = Architecture::paper_default();
        arch.routing.fs = 6;
        let line = format!(
            r#"{{"cmd":"compile","source":"x","options":{{"arch":{}}}}}"#,
            arch.canonical_text()
        );
        let err = parse_request(&line).expect_err("fs = 6 accepted");
        assert!(err.starts_with("bad 'arch': fs 6"), "{err}");
    }

    #[test]
    fn requests_round_trip_through_to_value() {
        let reqs = [
            Request::Ping,
            Request::Metrics { text: true },
            Request::Metrics { text: false },
            Request::Shutdown,
            Request::Status,
            Request::Compile(Box::new({
                let mut c = CompileRequest::new(SourceFormat::Blif, ".model m")
                    .with_options(serde_json::json!({"place_seed": 3}))
                    .unwrap();
                c.deadline_ms = Some(900);
                c.trace = true;
                c.tenant = Some("acme".into());
                c
            })),
            Request::Check(
                CheckKind::Lint,
                Box::new(
                    CompileRequest::new(SourceFormat::Vhdl, "entity e is end;")
                        .with_options(serde_json::json!({"lint": "deny"}))
                        .unwrap(),
                ),
            ),
            Request::Check(
                CheckKind::Verify,
                Box::new(
                    CompileRequest::new(SourceFormat::Vhdl, "entity e is end;")
                        .with_options(serde_json::json!({"verify": "deny"}))
                        .unwrap(),
                ),
            ),
            Request::ArtifactPut {
                stage: "pack".into(),
                key: "cd".repeat(32),
                kind: "clustering".into(),
                data_hex: "deadbeef".into(),
            },
        ];
        for req in reqs {
            let v = req.to_value();
            let back = parse_request_value(&v).unwrap();
            assert_eq!(back.to_value(), v, "round trip changed {v}");
        }
        // The hello carries our protocol version.
        assert_eq!(
            Request::Ping.to_value()["proto_version"].as_u64(),
            Some(PROTO_VERSION)
        );
    }

    #[test]
    fn events_round_trip_through_to_value() {
        let events = [
            Event::Pong {
                version: "1.0".into(),
                proto_version: PROTO_VERSION,
            },
            Event::ShuttingDown,
            Event::Queued { job: 7 },
            Event::Rejected {
                job: 7,
                reason: "queue full".into(),
                retry_after_ms: Some(250),
            },
            Event::Stage {
                job: 7,
                id: Some("pack".into()),
                stage: "packing (T-VPack)".into(),
                ok: true,
                elapsed_ms: 1.25,
                metrics: serde_json::json!({"clbs": 4, "cache": "hit"}),
            },
            Event::Done {
                job: 7,
                design: "counter".into(),
                report: serde_json::json!({"stages": Vec::<Value>::new()}),
                bitstream_hex: "a0b1".into(),
                trace: Some(serde_json::json!({"spans": Vec::<Value>::new()})),
                lint: Vec::new(),
            },
            Event::Done {
                job: 8,
                design: "counter".into(),
                report: Value::Null,
                bitstream_hex: "".into(),
                trace: None,
                lint: vec![Diagnostic::new(
                    "NL003",
                    fpga_lint::Severity::Warn,
                    "netlist",
                    "net 'spare'",
                    "net 'spare' is driven but never read",
                )],
            },
            Event::Report {
                kind: CheckKind::Lint,
                job: 9,
                design: "loopy".into(),
                reached: "netlist".into(),
                diagnostics: vec![Diagnostic::new(
                    "NL001",
                    fpga_lint::Severity::Deny,
                    "netlist",
                    "cell 'g1'",
                    "combinational loop",
                )
                .with_note("a -> b -> a")],
            },
            Event::Report {
                kind: CheckKind::Verify,
                job: 11,
                design: "rent24".into(),
                reached: "bitstream".into(),
                diagnostics: vec![Diagnostic::new(
                    "EQ001",
                    fpga_lint::Severity::Deny,
                    "verify",
                    "po:y",
                    "'mapped' diverges from the netlist on po:y",
                )
                .with_note("counterexample: observable po:y reference=1 candidate=0 :: a=1 b=0")],
            },
            Event::Timeout {
                job: 7,
                deadline_ms: Some(100),
                completed_stages: vec!["synthesis".into()],
                message: "deadline of 100ms exceeded".into(),
            },
            Event::Error {
                job: Some(7),
                kind: Some("panic".into()),
                stage: None,
                message: "boom".into(),
                retry_after_ms: None,
                diagnostics: Vec::new(),
            },
            Event::Error {
                job: Some(7),
                kind: None,
                stage: Some("lint".into()),
                message: "design-rule check failed".into(),
                retry_after_ms: None,
                diagnostics: vec![Diagnostic::new(
                    "PK001",
                    fpga_lint::Severity::Deny,
                    "pack",
                    "cluster 0",
                    "cluster 0 holds 6 BLEs but the architecture allows 5",
                )],
            },
            Event::ArtifactAck {
                stored: true,
                message: None,
            },
            Event::ArtifactAck {
                stored: false,
                message: Some("payload digest mismatch".into()),
            },
        ];
        for ev in events {
            let v = ev.to_value();
            let back = parse_event(&v).unwrap();
            assert_eq!(back.to_value(), v, "round trip changed {v}");
        }
    }

    /// The two stream rules, over every event variant and every error
    /// kind the daemons write. A refusal `error` is also a terminal: it
    /// is the last line its connection gets.
    #[test]
    fn refusal_and_terminal_rules_cover_every_event_and_error_kind() {
        let error = |kind: Option<&str>, retry_after_ms| Event::Error {
            job: None,
            kind: kind.map(str::to_string),
            stage: None,
            message: "m".into(),
            retry_after_ms,
            diagnostics: Vec::new(),
        };
        // (event, refusal(), is_terminal())
        let table = [
            (
                Event::Pong {
                    version: "v".into(),
                    proto_version: PROTO_VERSION,
                },
                None,
                false,
            ),
            (Event::Metrics(Value::Null), None, false),
            (Event::Status(Value::Null), None, false),
            (Event::ShuttingDown, None, false),
            (Event::Queued { job: 1 }, None, false),
            (
                Event::Rejected {
                    job: 1,
                    reason: "queue full".into(),
                    retry_after_ms: Some(200),
                },
                Some(Some(200)),
                false,
            ),
            (
                Event::Rejected {
                    job: 1,
                    reason: "shutting down".into(),
                    retry_after_ms: None,
                },
                Some(None),
                false,
            ),
            (
                Event::Stage {
                    job: 1,
                    id: None,
                    stage: "s".into(),
                    ok: true,
                    elapsed_ms: 0.0,
                    metrics: Value::Null,
                },
                None,
                false,
            ),
            (
                Event::Done {
                    job: 1,
                    design: "d".into(),
                    report: Value::Null,
                    bitstream_hex: String::new(),
                    trace: None,
                    lint: Vec::new(),
                },
                None,
                true,
            ),
            (
                Event::Report {
                    kind: CheckKind::Verify,
                    job: 1,
                    design: "d".into(),
                    reached: "route".into(),
                    diagnostics: Vec::new(),
                },
                None,
                true,
            ),
            (
                Event::Timeout {
                    job: 1,
                    deadline_ms: None,
                    completed_stages: Vec::new(),
                    message: "m".into(),
                },
                None,
                true,
            ),
            (
                Event::ArtifactAck {
                    stored: true,
                    message: None,
                },
                None,
                false,
            ),
            (error(Some("overloaded"), Some(150)), Some(Some(150)), true),
            (error(Some("shutting-down"), None), Some(None), true),
            (error(Some("oversized"), None), None, true),
            (error(Some("idle-timeout"), None), None, true),
            // An old backend's dead-worker notice: to a new gateway, a
            // terminal failure, not a refusal.
            (error(Some("worker-lost"), None), None, true),
            (error(Some("panic"), None), None, true),
            (error(Some("cancelled"), None), None, true),
            // A kindless flow failure, even one carrying a hint.
            (error(None, Some(150)), None, true),
        ];
        for (event, refusal, terminal) in table {
            let line = event.to_value();
            assert_eq!(event.refusal(), refusal, "refusal of {line}");
            assert_eq!(event.is_terminal(), terminal, "is_terminal of {line}");
        }
    }

    /// Wire goldens: the exact lines the commit before the check-job
    /// merge emitted for the lint/verify verbs and the events that carry
    /// diagnostics. Each must parse and re-serialise byte for byte.
    #[test]
    fn check_verbs_and_reports_keep_their_wire_lines() {
        let requests = [
            r#"{"cmd":"lint","format":"blif","source":".model m\n.end\n","options":{"place_seed":3,"lint":"deny"},"deadline_ms":900,"trace":true,"tenant":"acme","threads":2}"#,
            r#"{"cmd":"verify","format":"vhdl","source":"entity e is end;"}"#,
        ];
        for (line, kind) in requests
            .into_iter()
            .zip([CheckKind::Lint, CheckKind::Verify])
        {
            let req = parse_request(line).unwrap();
            assert!(matches!(req, Request::Check(k, _) if k == kind), "{line}");
            assert_eq!(req.to_value().to_string(), line);
        }
        let events = [
            r#"{"event":"lint_report","job":9,"design":"loopy","reached":"netlist","diagnostics":[{"code":"NL001","severity":"deny","stage":"netlist","subject":"cell 'g1'","message":"combinational loop","notes":["a -> b -> a"]}]}"#,
            r#"{"event":"verify_report","job":11,"design":"rent24","reached":"bitstream","diagnostics":[{"code":"EQ001","severity":"deny","stage":"verify","subject":"po:y","message":"'mapped' diverges from the netlist on po:y","notes":["check point: mapped","counterexample: observable po:y reference=1 candidate=0 :: a=1 b=0"]}]}"#,
            r#"{"event":"error","job":7,"stage":"lint","message":"design-rule check failed at 'netlist': 1 finding (1 deny) (1 deny finding; first: [NL001] combinational loop)","diagnostics":[{"code":"NL001","severity":"deny","stage":"netlist","subject":"cell 'g1'","message":"combinational loop","notes":["a -> b -> a"]}]}"#,
            r#"{"event":"done","job":8,"design":"counter","report":{"design":"counter"},"bitstream_hex":"a0b1","lint":[{"code":"NL003","severity":"warn","stage":"netlist","subject":"net 'spare'","message":"net 'spare' is driven but never read","notes":[]}]}"#,
        ];
        for line in events {
            let v: Value = serde_json::from_str(line).unwrap();
            assert_eq!(parse_event(&v).unwrap().to_value().to_string(), line);
        }
        let reports = [&events[0], &events[1]];
        for (line, want) in reports
            .into_iter()
            .zip([CheckKind::Lint, CheckKind::Verify])
        {
            let v: Value = serde_json::from_str(line).unwrap();
            assert!(
                matches!(parse_event(&v), Ok(Event::Report { kind, .. }) if kind == want),
                "{line}"
            );
        }
    }

    #[test]
    fn diagnostics_survive_the_wire_intact() {
        // Satellite check for the lint protocol: a finding serialized
        // into a lint_report, written as a line, read back, and parsed
        // keeps its code, severity, subject, and notes.
        let ev = Event::Report {
            kind: CheckKind::Lint,
            job: 3,
            design: "mux".into(),
            reached: "route".into(),
            diagnostics: vec![
                Diagnostic::new(
                    "RT001",
                    fpga_lint::Severity::Deny,
                    "route",
                    "rr node 42",
                    "routing resource used by 2 nets",
                )
                .with_note("nets: a, b"),
                Diagnostic::new(
                    "NL003",
                    fpga_lint::Severity::Info,
                    "netlist",
                    "net 'nc'",
                    "net 'nc' is never driven and never read",
                ),
            ],
        };
        let mut wire = Vec::new();
        write_line(&mut wire, &ev.to_value()).unwrap();
        let mut r = std::io::BufReader::new(wire.as_slice());
        let line = read_line(&mut r).unwrap().unwrap();
        let Event::Report {
            kind: CheckKind::Lint,
            diagnostics,
            reached,
            ..
        } = parse_event(&line).unwrap()
        else {
            panic!("not a lint_report");
        };
        assert_eq!(reached, "route");
        assert_eq!(diagnostics.len(), 2);
        assert_eq!(diagnostics[0].code, "RT001");
        assert_eq!(diagnostics[0].severity, fpga_lint::Severity::Deny);
        assert_eq!(diagnostics[0].subject, "rr node 42");
        assert_eq!(diagnostics[0].notes, vec!["nets: a, b".to_string()]);
        assert_eq!(diagnostics[1].code, "NL003");
        assert_eq!(diagnostics[1].severity, fpga_lint::Severity::Info);

        // Mangled severities are a malformed event, not a silent default.
        let bad: Value = serde_json::from_str(
            r#"{"event":"lint_report","job":3,"design":"mux","reached":"route",
                "diagnostics":[{"code":"RT001","severity":"fatal","stage":"route",
                "subject":"rr node 42","message":"m","notes":[]}]}"#,
        )
        .unwrap();
        assert!(matches!(
            parse_event(&bad),
            Err(EventParseError::Malformed(_))
        ));
    }

    #[test]
    fn parses_lint_option_and_rejects_bad_modes() {
        let req = parse_request(
            r#"{"cmd":"compile","source":".model m","format":"blif",
                "options":{"lint":"warn"}}"#,
        )
        .unwrap();
        let Request::Compile(c) = req else {
            panic!("not compile")
        };
        assert_eq!(c.flow_options().unwrap().lint, GateMode::Warn);
        // Default stays Off: absent option means no behavior change.
        let opts = parse_options(None).unwrap();
        assert_eq!(opts.lint, GateMode::Off);
        assert!(
            parse_request(r#"{"cmd":"lint","source":"x","options":{"lint":"strict"}}"#).is_err()
        );
        assert!(parse_request(r#"{"cmd":"lint","source":"x","options":{"lint":7}}"#).is_err());
    }

    #[test]
    fn unknown_events_are_flagged_not_fatal() {
        let v = serde_json::json!({"event": "hologram", "job": 1});
        match parse_event(&v) {
            Err(EventParseError::Unknown(name)) => assert_eq!(name, "hologram"),
            other => panic!("expected Unknown, got {other:?}"),
        }
        // The `artifact_get` reply, as a version-5 peer still sends it:
        // an unknown event like any other.
        let v = serde_json::json!({"event": "artifact", "stage": "route", "key": "ab", "hit": true, "data_hex": "00ff"});
        assert!(
            matches!(parse_event(&v), Err(EventParseError::Unknown(name)) if name == "artifact")
        );
        // A version-1 pong (no proto_version) parses as protocol 1.
        let v = serde_json::json!({"event": "pong", "version": "0.9"});
        match parse_event(&v) {
            Ok(Event::Pong { proto_version, .. }) => assert_eq!(proto_version, 1),
            other => panic!("expected Pong, got {other:?}"),
        }
        assert!(matches!(
            parse_event(&serde_json::json!({"event": "queued"})),
            Err(EventParseError::Malformed(_))
        ));
    }

    #[test]
    fn tenant_field_is_optional_and_v3_compatible() {
        // A version-3 line (no tenant) parses with tenant = None …
        let req = parse_request(r#"{"cmd":"compile","source":".model m"}"#).unwrap();
        let Request::Compile(c) = req else {
            panic!("not compile")
        };
        assert_eq!(c.tenant, None);
        // … and its wire form carries no tenant key at all.
        assert!(Request::Compile(c).to_value().get("tenant").is_none());
        // Explicit null is the same as absent; a non-string is rejected.
        let req = parse_request(r#"{"cmd":"lint","source":".model m","tenant":null}"#).unwrap();
        let Request::Check(CheckKind::Lint, c) = req else {
            panic!("not lint")
        };
        assert_eq!(c.tenant, None);
        assert!(parse_request(r#"{"cmd":"compile","source":"x","tenant":7}"#).is_err());
        // A tenant is a map key and a metric label downstream: bounded
        // in bytes, at the boundary included.
        let named = |n: usize| {
            let line =
                serde_json::json!({"cmd": "compile", "source": "x", "tenant": "t".repeat(n)});
            parse_request(&line.to_string())
        };
        assert!(named(64).is_ok());
        assert_eq!(
            named(65).err().as_deref(),
            Some("tenant must be at most 64 bytes")
        );
        // Present tenant survives the round trip.
        let req = parse_request(r#"{"cmd":"compile","source":"x","tenant":"acme"}"#).unwrap();
        let Request::Compile(c) = req else {
            panic!("not compile")
        };
        assert_eq!(c.tenant.as_deref(), Some("acme"));
    }

    #[test]
    fn threads_field_is_optional_and_v5_compatible() {
        // A version-5 line (no threads) parses with threads = None …
        let req = parse_request(r#"{"cmd":"compile","source":".model m"}"#).unwrap();
        let Request::Compile(c) = req else {
            panic!("not compile")
        };
        assert_eq!(c.threads, None);
        // … and its wire form carries no threads key at all.
        assert!(Request::Compile(c).to_value().get("threads").is_none());
        // Explicit null is the same as absent.
        let req = parse_request(r#"{"cmd":"lint","source":".model m","threads":null}"#).unwrap();
        let Request::Check(CheckKind::Lint, c) = req else {
            panic!("not lint")
        };
        assert_eq!(c.threads, None);
        // Zero, negative, and non-integer counts are rejected.
        for bad in ["0", "-1", "\"four\"", "2.5"] {
            let line = format!(r#"{{"cmd":"compile","source":"x","threads":{bad}}}"#);
            assert!(parse_request(&line).is_err(), "accepted threads={bad}");
        }
        // A present count survives the round trip.
        let req = parse_request(r#"{"cmd":"compile","source":"x","threads":8}"#).unwrap();
        let Request::Compile(c) = req else {
            panic!("not compile")
        };
        assert_eq!(c.threads, Some(8));
        let wire = Request::Compile(c).to_value();
        assert_eq!(wire.get("threads").and_then(Value::as_u64), Some(8));
    }

    #[test]
    fn status_events_frame_their_body_like_metrics() {
        let body = serde_json::json!({
            "event": "status", "role": "gateway",
            "backends": serde_json::json!([
                serde_json::json!({"addr": "127.0.0.1:9", "breaker": "open"})
            ]),
        });
        let ev = Event::Status(body.clone());
        let v = ev.to_value();
        assert_eq!(v["event"], serde_json::json!("status"));
        assert_eq!(v["role"], serde_json::json!("gateway"));
        let Event::Status(back) = parse_event(&v).unwrap() else {
            panic!("not status")
        };
        assert_eq!(back, v);
    }

    #[test]
    fn parses_deadline_ms() {
        let req =
            parse_request(r#"{"cmd":"compile","source":".model m","deadline_ms":1500}"#).unwrap();
        let Request::Compile(c) = req else {
            panic!("not compile")
        };
        assert_eq!(c.deadline_ms, Some(1500));
        assert!(parse_request(r#"{"cmd":"compile","source":"x","deadline_ms":"soon"}"#).is_err());
        let req = parse_request(r#"{"cmd":"compile","source":"x","deadline_ms":null}"#).unwrap();
        let Request::Compile(c) = req else {
            panic!("not compile")
        };
        assert_eq!(c.deadline_ms, None);
    }

    #[test]
    fn read_line_limited_rejects_oversized_without_buffering_them() {
        let line = format!("{{\"cmd\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(256));
        let mut r = std::io::BufReader::new(line.as_bytes());
        match read_line_limited(&mut r, 64) {
            Err(ReadLineError::TooLong { limit }) => assert_eq!(limit, 64),
            other => panic!("expected TooLong, got {other:?}"),
        }
        // Under the limit the same line parses fine.
        let mut r = std::io::BufReader::new(line.as_bytes());
        let v = read_line_limited(&mut r, 8 * 1024).unwrap().unwrap();
        assert_eq!(v["cmd"], serde_json::json!("ping"));
    }

    #[test]
    fn read_line_limited_accepts_lines_at_the_limit() {
        let line = "{\"cmd\":\"ping\"}\n";
        let mut r = std::io::BufReader::new(line.as_bytes());
        let v = read_line_limited(&mut r, line.len()).unwrap().unwrap();
        assert_eq!(v["cmd"], serde_json::json!("ping"));
        assert!(read_line_limited(&mut r, line.len()).unwrap().is_none());
        // One byte under the limit fails; the boundary is exact.
        let mut r = std::io::BufReader::new(line.as_bytes());
        assert!(matches!(
            read_line_limited(&mut r, line.len() - 1),
            Err(ReadLineError::TooLong { .. })
        ));
    }

    #[test]
    fn read_line_limited_handles_crlf() {
        let input = "{\"cmd\":\"ping\"}\r\n{\"cmd\":\"status\"}\r\n";
        let mut r = std::io::BufReader::new(input.as_bytes());
        let v = read_line_limited(&mut r, 64).unwrap().unwrap();
        assert_eq!(v["cmd"], serde_json::json!("ping"));
        let v = read_line_limited(&mut r, 64).unwrap().unwrap();
        assert_eq!(v["cmd"], serde_json::json!("status"));
        assert!(read_line_limited(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn read_line_limited_parses_final_line_without_newline() {
        let input = "{\"cmd\":\"ping\"}"; // EOF mid-line
        let mut r = std::io::BufReader::new(input.as_bytes());
        let v = read_line_limited(&mut r, 64).unwrap().unwrap();
        assert_eq!(v["cmd"], serde_json::json!("ping"));
        assert!(read_line_limited(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn oversized_line_is_drained_and_the_next_request_still_parses() {
        let input = format!(
            "{{\"cmd\":\"compile\",\"source\":\"{}\"}}\n{{\"cmd\":\"ping\"}}\n",
            "x".repeat(100_000)
        );
        // A tiny internal buffer forces drain_line through many refills.
        let mut r = std::io::BufReader::with_capacity(16, input.as_bytes());
        assert!(matches!(
            read_line_limited(&mut r, 64),
            Err(ReadLineError::TooLong { limit: 64 })
        ));
        let v = read_line_limited(&mut r, 64).unwrap().unwrap();
        assert_eq!(v["cmd"], serde_json::json!("ping"));
        assert!(read_line_limited(&mut r, 64).unwrap().is_none());
    }

    #[test]
    fn oversized_line_ending_within_the_probe_does_not_eat_the_next() {
        // The line is limit+1 bytes *including* its newline: too long,
        // but fully consumed by the probe read — the drain must not then
        // swallow the following request.
        let limit = 16;
        let first = format!("{}\n", "y".repeat(limit)); // limit+1 bytes with \n
        let input = format!("{first}{{\"cmd\":\"ping\"}}\n");
        let mut r = std::io::BufReader::with_capacity(8, input.as_bytes());
        assert!(matches!(
            read_line_limited(&mut r, limit),
            Err(ReadLineError::TooLong { .. })
        ));
        let v = read_line_limited(&mut r, limit).unwrap().unwrap();
        assert_eq!(v["cmd"], serde_json::json!("ping"));
    }

    #[test]
    fn hex_round_trips() {
        let data = vec![0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    /// Peer-supplied hex that the `from_str_radix`-on-slices decoder
    /// panicked on (a slice through a multi-byte character) or took for
    /// a number (a sign).
    #[test]
    fn from_hex_refuses_hostile_input_without_panicking() {
        assert_eq!(from_hex("a\u{e9}1"), Err("bad hex at 0".to_string()));
        assert_eq!(from_hex("00\u{e9}\u{e9}"), Err("bad hex at 2".to_string()));
        assert_eq!(from_hex("+f"), Err("bad hex at 0".to_string()));
        assert_eq!(from_hex("0f-1"), Err("bad hex at 2".to_string()));
        assert_eq!(from_hex("\u{e9}"), Err("bad hex at 0".to_string()));
        assert_eq!(from_hex("0"), Err("odd-length hex".to_string()));
        assert_eq!(from_hex("aBcD"), Ok(vec![0xab, 0xcd]));
    }

    /// The decoder this one replaced, for all-hex-digit input only (it
    /// panics or mis-accepts outside that).
    fn from_hex_reference(s: &str) -> Result<Vec<u8>, String> {
        if !s.len().is_multiple_of(2) {
            return Err("odd-length hex".to_string());
        }
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| format!("bad hex at {i}")))
            .collect()
    }

    /// A write sink that records each `write` call it receives.
    #[derive(Default)]
    struct RecordedWrites(Vec<Vec<u8>>);

    impl Write for RecordedWrites {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One line, one write: on an unbuffered socket a separate newline
    /// write is a separate segment for Nagle's algorithm to hold.
    #[test]
    fn write_line_issues_exactly_one_write_ending_in_newline() {
        let small = Event::Queued { job: 7 }.to_value();
        let large = Event::Done {
            job: 7,
            design: "d".into(),
            report: Value::Null,
            bitstream_hex: to_hex(&vec![0x5a; 512 * 1024]),
            trace: None,
            lint: Vec::new(),
        }
        .to_value();
        for value in [small, large] {
            let mut sink = RecordedWrites::default();
            write_line(&mut sink, &value).unwrap();
            assert_eq!(
                sink.0.len(),
                1,
                "write calls for a {} byte line",
                sink.0[0].len()
            );
            assert_eq!(sink.0[0], format!("{value}\n").into_bytes());
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Characters a hostile or merely broken peer might put in a hex
        /// field: digits of both cases, near-misses, signs, whitespace,
        /// multi-byte characters.
        const HEXISH: &str = "09afAFgG+- x/:@`\u{e9}\u{20ac}\u{1d11e}\n";

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn from_hex_never_panics(picks in collection::vec(0usize..HEXISH.chars().count(), 0..24)) {
                let hexish: Vec<char> = HEXISH.chars().collect();
                let s: String = picks.iter().map(|&i| hexish[i]).collect();
                let all_hex = s.chars().all(|c| c.is_ascii_hexdigit());
                match from_hex(&s) {
                    Ok(bytes) => {
                        prop_assert!(all_hex && s.len() == 2 * bytes.len(), "accepted {s:?}");
                        prop_assert_eq!(to_hex(&bytes), s.to_ascii_lowercase());
                    }
                    Err(_) => prop_assert!(!all_hex || s.len() % 2 == 1, "refused {s:?}"),
                }
            }

            #[test]
            fn hex_round_trips_any_bytes(bytes in collection::vec(0u8..=255, 0..512)) {
                let hex = to_hex(&bytes);
                prop_assert_eq!(hex.len(), 2 * bytes.len());
                prop_assert!(hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)));
                prop_assert_eq!(from_hex(&hex), Ok(bytes.clone()));
                prop_assert_eq!(from_hex(&hex.to_ascii_uppercase()), Ok(bytes));
            }

            #[test]
            fn from_hex_agrees_with_the_old_decoder_on_hex_digits(
                digits in "[0-9a-fA-F]{0,64}",
            ) {
                prop_assert_eq!(from_hex(&digits), from_hex_reference(&digits));
            }
        }
    }
}
