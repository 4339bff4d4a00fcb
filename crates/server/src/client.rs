//! `flowc`'s library half: a blocking client for the flowd protocol.
//!
//! A job is a typed [`CompileRequest`]: [`FlowClient::compile_request`]
//! and [`FlowClient::check_request`] send one and fold its event stream,
//! and failures come back as a typed [`CompileError`].
//! [`compile_with_retry`] turns the daemon's `retry_after_ms` hints into
//! jittered exponential backoff across fresh connections.

use std::io::{self, BufReader};
use std::net::ToSocketAddrs;
use std::path::Path;
use std::time::Duration;

use fpga_flow::CheckKind;
use fpga_lint::Diagnostic;
use serde_json::Value;

use crate::breaker::backoff_step;
use crate::net;
use crate::proto::{
    self, from_hex, parse_event, CompileRequest, Event, EventParseError, JobKind, Request,
};

/// What every job's event stream folds into, whatever its kind.
#[derive(Debug, Default)]
struct Stream {
    job: u64,
    stage_events: Vec<Value>,
    unknown_events: Vec<String>,
    unknown_events_dropped: u64,
}

/// The final state of one compile submission.
#[derive(Debug)]
pub struct CompileOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// The streamed `stage` events, in arrival order (wire form).
    pub stage_events: Vec<Value>,
    /// The flow report from the `done` event.
    pub report: Value,
    /// Decoded bitstream bytes.
    pub bitstream: Vec<u8>,
    /// The span tree from the `done` event, when the request set
    /// `trace` (decode with [`fpga_flow::trace::spans_from_value`]).
    pub trace: Option<Value>,
    /// Warn/info design-rule findings from the `done` event (present
    /// when the compile ran with the `lint` option on).
    pub lint: Vec<Diagnostic>,
    /// Names of events this client did not recognize and skipped — a
    /// newer server. `flowc` surfaces these as warnings. Capped at
    /// [`MAX_UNKNOWN_EVENTS`]; the overflow is counted, not stored, so
    /// a chatty future-version peer cannot grow client memory.
    pub unknown_events: Vec<String>,
    /// Unknown events past the cap (skipped but not recorded by name).
    pub unknown_events_dropped: u64,
}

/// The final state of one check (`lint` / `verify`) submission.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Server-assigned job id.
    pub job: u64,
    /// Design name from the report.
    pub design: String,
    /// The last boundary the deep check reached (`"netlist"` ...
    /// `"bitstream"`).
    pub reached: String,
    /// Every finding, in flow order (for `verify`, empty means
    /// equivalent at every checked point).
    pub diagnostics: Vec<Diagnostic>,
    /// The streamed `stage` events, in arrival order (wire form).
    pub stage_events: Vec<Value>,
    /// Unknown event names skipped along the way (capped at
    /// [`MAX_UNKNOWN_EVENTS`], overflow counted in
    /// `unknown_events_dropped`).
    pub unknown_events: Vec<String>,
    /// Unknown events past the cap (skipped but not recorded by name).
    pub unknown_events_dropped: u64,
}

/// How many distinct unknown-event names an outcome records before it
/// starts counting instead of storing — a misbehaving or far-future peer
/// streaming novel events must not grow client memory without bound.
pub const MAX_UNKNOWN_EVENTS: usize = 32;

impl Stream {
    /// Record an unknown event name under the cap; past it, only count.
    fn note_unknown(&mut self, name: String) {
        if self.unknown_events.len() < MAX_UNKNOWN_EVENTS {
            self.unknown_events.push(name);
        } else {
            self.unknown_events_dropped += 1;
        }
    }
}

/// Why a compile submission did not produce a bitstream.
#[derive(Debug)]
pub enum CompileError {
    /// The daemon refused to take the job (queue full, too many
    /// connections, shutting down). `retry_after_ms` is the server's
    /// backoff hint when it gave one.
    Rejected {
        reason: String,
        retry_after_ms: Option<u64>,
    },
    /// The flow itself failed: an ordinary stage error, or a stage
    /// panic / lost worker (`kind` distinguishes them). When the failure
    /// was a design-rule denial (stage `"lint"`), `diagnostics` carries
    /// the structured findings.
    Failed {
        stage: String,
        message: String,
        kind: Option<String>,
        diagnostics: Vec<Diagnostic>,
    },
    /// The job's deadline elapsed; `completed_stages` is how far it got.
    TimedOut {
        deadline_ms: Option<u64>,
        completed_stages: Vec<String>,
    },
    /// Transport-level trouble (connect, read, protocol violation).
    Io(io::Error),
}

impl CompileError {
    /// Whether trying again on a fresh connection can plausibly succeed:
    /// saturation rejections and transport errors are transient; flow
    /// failures, timeouts, and shutdown refusals are not.
    pub fn is_retryable(&self) -> bool {
        match self {
            CompileError::Rejected { reason, .. } => reason != "shutting down",
            CompileError::Io(_) => true,
            CompileError::Failed { .. } | CompileError::TimedOut { .. } => false,
        }
    }

    /// The server's minimum-backoff hint, if it sent one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            CompileError::Rejected { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Rejected { reason, .. } => write!(f, "job rejected: {reason}"),
            CompileError::Failed { stage, message, .. } => write!(f, "[{stage}] {message}"),
            CompileError::TimedOut {
                deadline_ms,
                completed_stages,
            } => write!(
                f,
                "timeout after {}ms ({} stage(s) completed)",
                deadline_ms.unwrap_or(0),
                completed_stages.len()
            ),
            CompileError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<io::Error> for CompileError {
    fn from(e: io::Error) -> Self {
        CompileError::Io(e)
    }
}

/// A connected client. One request/response exchange at a time.
pub struct FlowClient {
    reader: BufReader<net::Stream>,
    writer: net::Stream,
}

impl FlowClient {
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> io::Result<FlowClient> {
        let (reader, writer) = net::dial(addr, None, None)?;
        Ok(FlowClient { reader, writer })
    }

    /// Unix only; elsewhere an `Unsupported` error.
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<FlowClient> {
        let (reader, writer) = net::dial_unix(path.as_ref())?;
        Ok(FlowClient { reader, writer })
    }

    fn send(&mut self, v: &Value) -> io::Result<()> {
        proto::write_line(&mut self.writer, v)
    }

    fn recv(&mut self) -> io::Result<Value> {
        proto::read_line(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// `ping` — returns the `pong` event (carries the server's flow and
    /// protocol versions).
    pub fn ping(&mut self) -> io::Result<Value> {
        self.send(&Request::Ping.to_value())?;
        self.recv()
    }

    /// `metrics` — per-stage latency histograms, cache tiers, queue
    /// high-water mark. With `text`, the body carries a Prometheus-style
    /// exposition under `"text"` instead of structured fields.
    pub fn metrics(&mut self, text: bool) -> io::Result<Value> {
        self.send(&Request::Metrics { text }.to_value())?;
        self.recv()
    }

    /// `shutdown` — ask the daemon to drain and exit.
    pub fn shutdown_server(&mut self) -> io::Result<Value> {
        self.send(&Request::Shutdown.to_value())?;
        self.recv()
    }

    /// `status` — node health: queue depth and worker state on `flowd`,
    /// the per-backend health/breaker/queue table on `flow-gateway`.
    pub fn status(&mut self) -> io::Result<Value> {
        self.send(&Request::Status.to_value())?;
        self.recv()
    }

    /// The fully-typed compile path: send a [`CompileRequest`] (including
    /// its `trace` flag) and fold the event stream into a
    /// [`CompileOutcome`].
    pub fn compile_request(
        &mut self,
        req: &CompileRequest,
    ) -> Result<CompileOutcome, CompileError> {
        let (stream, (bitstream_hex, report, trace, lint)) =
            self.submit(JobKind::Compile, req, |event| match event {
                Event::Done {
                    bitstream_hex,
                    report,
                    trace,
                    lint,
                    ..
                } => Some((bitstream_hex, report, trace, lint)),
                _ => None,
            })?;
        let bitstream = from_hex(&bitstream_hex).map_err(invalid_data)?;
        Ok(CompileOutcome {
            job: stream.job,
            stage_events: stream.stage_events,
            report,
            bitstream,
            trace,
            lint,
            unknown_events: stream.unknown_events,
            unknown_events_dropped: stream.unknown_events_dropped,
        })
    }

    /// Submit a design for a deep check (`lint` or `verify` verb) and
    /// block until its report arrives. The same rejection / failure /
    /// timeout errors as a compile apply; deny-severity findings are NOT
    /// an error — they ride back in the outcome for the caller to judge.
    pub fn check_request(
        &mut self,
        kind: CheckKind,
        req: &CompileRequest,
    ) -> Result<CheckOutcome, CompileError> {
        let (stream, (design, reached, diagnostics)) =
            self.submit(JobKind::Check(kind), req, |event| match event {
                Event::Report {
                    kind: reported,
                    design,
                    reached,
                    diagnostics,
                    ..
                } if reported == kind => Some((design, reached, diagnostics)),
                _ => None,
            })?;
        Ok(CheckOutcome {
            job: stream.job,
            design,
            reached,
            diagnostics,
            stage_events: stream.stage_events,
            unknown_events: stream.unknown_events,
            unknown_events_dropped: stream.unknown_events_dropped,
        })
    }

    /// The one event fold behind every job verb: send the request, then
    /// read until a terminal event. `own_terminal` picks out the success
    /// terminal that belongs to this `kind` of job (`done` for a compile,
    /// the matching report for a check); a success terminal of any other
    /// kind is a protocol violation. Every known event is matched
    /// exhaustively; unknown event names are collected, not fatal.
    fn submit<T>(
        &mut self,
        kind: JobKind,
        req: &CompileRequest,
        own_terminal: impl Fn(Event) -> Option<T>,
    ) -> Result<(Stream, T), CompileError> {
        self.send(&kind.request(req.clone()).to_value())?;

        let mut stream = Stream::default();
        loop {
            let raw = self.recv()?;
            let event = match parse_event(&raw) {
                Ok(event) => event,
                Err(EventParseError::Unknown(name)) => {
                    // A newer server sent something we don't know yet;
                    // skipping keeps the session alive, recording it
                    // lets flowc warn.
                    stream.note_unknown(name);
                    continue;
                }
                Err(e @ EventParseError::Malformed(_)) => return Err(invalid_data(e.to_string())),
            };
            let refused = event.refusal().is_some();
            match event {
                Event::Queued { job } => stream.job = job,
                Event::Stage { .. } => stream.stage_events.push(raw),
                // A `rejected`, or a connection-level refusal (the
                // connection cap, a draining daemon's notice): same
                // retry treatment either way.
                Event::Rejected {
                    reason,
                    retry_after_ms,
                    ..
                }
                | Event::Error {
                    message: reason,
                    retry_after_ms,
                    ..
                } if refused => {
                    return Err(CompileError::Rejected {
                        reason,
                        retry_after_ms,
                    });
                }
                Event::Timeout {
                    deadline_ms,
                    completed_stages,
                    ..
                } => {
                    return Err(CompileError::TimedOut {
                        deadline_ms,
                        completed_stages,
                    });
                }
                Event::Error {
                    kind,
                    stage,
                    message,
                    diagnostics,
                    ..
                } => {
                    return Err(CompileError::Failed {
                        stage: stage.unwrap_or_else(|| "?".to_string()),
                        message,
                        kind,
                        diagnostics,
                    });
                }
                // This job's own success terminal, or an event with no
                // business here: another kind's terminal, a reply to a
                // verb this client did not send.
                other => {
                    return match own_terminal(other) {
                        Some(outcome) => Ok((stream, outcome)),
                        None => Err(out_of_place(kind, &raw)),
                    };
                }
            }
        }
    }
}

/// A protocol violation by the server, as the transport error it is.
fn invalid_data(message: String) -> CompileError {
    CompileError::Io(io::Error::new(io::ErrorKind::InvalidData, message))
}

/// A known event that has no business in this kind of job's stream.
fn out_of_place(kind: JobKind, raw: &Value) -> CompileError {
    invalid_data(format!(
        "event out of place in a {} stream: {raw}",
        kind.verb()
    ))
}

/// Backoff shape for [`compile_with_retry`]. Deterministic: the jitter
/// comes from `jitter_seed`, so a fixed seed gives a fixed schedule.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt after that.
    pub base_ms: u64,
    /// Upper bound on any single backoff.
    pub max_backoff_ms: u64,
    /// Seed for the jitter PRNG.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_ms: 50,
            max_backoff_ms: 2_000,
            jitter_seed: 0x5eed_f10d,
        }
    }
}

/// Submit with retries: each attempt opens a fresh connection via
/// `connect` (the previous one may have been closed by an overload
/// rejection), and retryable failures back off exponentially with
/// jitter, never less than the server's `retry_after_ms` hint.
/// `on_retry(attempt, error, backoff_ms)` fires before each backoff —
/// `flowc` logs from it; tests use it as a deterministic hook.
///
/// The request's `deadline_ms` is a *total* budget measured from the
/// first attempt: each reattempt carries only the remaining budget, and
/// a backoff that would sleep past the deadline gives up with the last
/// error instead — cumulative backoff plus reattempts never exceed the
/// caller's deadline.
pub fn compile_with_retry(
    mut connect: impl FnMut() -> io::Result<FlowClient>,
    req: &CompileRequest,
    policy: &RetryPolicy,
    mut on_retry: impl FnMut(u32, &CompileError, u64),
) -> Result<CompileOutcome, CompileError> {
    let attempts = policy.max_attempts.max(1);
    let mut rng = policy.jitter_seed;
    let mut window_ms = policy.base_ms.max(1);
    let started = std::time::Instant::now();
    let mut attempt_req = req.clone();
    for attempt in 1..=attempts {
        if let Some(total) = req.deadline_ms {
            // Hand the server only what is left of the budget (floored
            // at 1 ms so the attempt still reaches the deadline path
            // server-side rather than turning into "no deadline").
            let elapsed = started.elapsed().as_millis() as u64;
            attempt_req.deadline_ms = Some(total.saturating_sub(elapsed).max(1));
        }
        let err = match connect() {
            Ok(mut client) => match client.compile_request(&attempt_req) {
                Ok(outcome) => return Ok(outcome),
                Err(e) => e,
            },
            Err(e) => CompileError::Io(e),
        };
        if attempt == attempts || !err.is_retryable() {
            return Err(err);
        }
        // Jittered backoff, floored by the server's hint.
        let jittered = backoff_step(&mut window_ms, policy.max_backoff_ms.max(1), &mut rng);
        let sleep_ms = jittered.max(err.retry_after_ms().unwrap_or(0));
        if let Some(total) = req.deadline_ms {
            let elapsed = started.elapsed().as_millis() as u64;
            if elapsed.saturating_add(sleep_ms) >= total {
                // Backing off would sleep past the caller's deadline —
                // retrying is pointless, surface the last error now.
                return Err(err);
            }
        }
        on_retry(attempt, &err, sleep_ms);
        std::thread::sleep(Duration::from_millis(sleep_ms));
    }
    unreachable!("loop always returns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::xorshift64;
    use crate::proto::SourceFormat;
    use std::io::Write;

    #[test]
    fn retryability_is_by_kind() {
        let full = CompileError::Rejected {
            reason: "queue full".to_string(),
            retry_after_ms: Some(100),
        };
        assert!(full.is_retryable());
        assert_eq!(full.retry_after_ms(), Some(100));
        let down = CompileError::Rejected {
            reason: "shutting down".to_string(),
            retry_after_ms: None,
        };
        assert!(!down.is_retryable());
        let failed = CompileError::Failed {
            stage: "route".to_string(),
            message: "unroutable".to_string(),
            kind: None,
            diagnostics: Vec::new(),
        };
        assert!(!failed.is_retryable());
        let timed_out = CompileError::TimedOut {
            deadline_ms: Some(5),
            completed_stages: vec![],
        };
        assert!(!timed_out.is_retryable());
        assert!(CompileError::Io(io::Error::other("refused")).is_retryable());
    }

    #[test]
    fn jitter_is_deterministic_under_a_fixed_seed() {
        let mut a = 42u64;
        let mut b = 42u64;
        let seq_a: Vec<u64> = (0..8).map(|_| xorshift64(&mut a) % 1000).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| xorshift64(&mut b) % 1000).collect();
        assert_eq!(seq_a, seq_b);
    }

    /// The first six sleeps under the default seed, as recorded before
    /// the step moved to `breaker::backoff_step`: the window doubles from
    /// 4 ms and holds at the 20 ms cap.
    #[test]
    fn retry_sleeps_keep_their_recorded_schedule() {
        let mut sleeps = Vec::new();
        let result = compile_with_retry(
            || Err(io::Error::new(io::ErrorKind::ConnectionRefused, "down")),
            &CompileRequest::new(SourceFormat::Vhdl, "entity e is end e;"),
            &RetryPolicy {
                max_attempts: 7,
                base_ms: 4,
                max_backoff_ms: 20,
                ..RetryPolicy::default()
            },
            |_, _, sleep_ms| sleeps.push(sleep_ms),
        );
        assert!(matches!(result, Err(CompileError::Io(_))));
        assert_eq!(sleeps, [3, 7, 16, 17, 14, 20]);
    }

    /// A one-connection scripted server: reads the request line, answers
    /// with `lines`, closes. Returns the client and the request it saw.
    fn scripted(lines: Vec<String>) -> (FlowClient, std::thread::JoinHandle<Value>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let request = proto::read_line(&mut BufReader::new(stream))
                .unwrap()
                .unwrap();
            for line in lines {
                writeln!(writer, "{line}").unwrap();
            }
            request
        });
        (FlowClient::connect_tcp(addr).unwrap(), server)
    }

    const KINDS: [JobKind; 3] = [
        JobKind::Compile,
        JobKind::Check(CheckKind::Lint),
        JobKind::Check(CheckKind::Verify),
    ];

    /// Each kind's own success terminal, as it appears on the wire.
    fn terminal_line(kind: JobKind) -> String {
        match kind {
            JobKind::Compile => {
                r#"{"event":"done","job":4,"design":"d","report":{},"bitstream_hex":"a0b1"}"#.into()
            }
            JobKind::Check(check) => format!(
                r#"{{"event":"{}_report","job":4,"design":"d","reached":"route","diagnostics":[{{"code":"EQ001","severity":"deny","stage":"verify","subject":"po:y","message":"m","notes":[]}}]}}"#,
                check.verb()
            ),
        }
    }

    /// Run one submission of `kind` against a scripted stream and reduce
    /// the outcome to what the fold collected.
    fn run(kind: JobKind, lines: Vec<String>) -> Result<(u64, usize, usize, u64), CompileError> {
        let (mut client, server) = scripted(lines);
        let req = CompileRequest::new(SourceFormat::Vhdl, "entity e is end e;");
        let folded = match kind {
            JobKind::Compile => client.compile_request(&req).map(|o| {
                assert_eq!(o.bitstream, [0xa0, 0xb1]);
                (
                    o.job,
                    o.stage_events.len(),
                    o.unknown_events.len(),
                    o.unknown_events_dropped,
                )
            }),
            JobKind::Check(check) => client.check_request(check, &req).map(|o| {
                // Deny findings ride in the outcome; they are not an error.
                assert_eq!((o.reached.as_str(), o.diagnostics.len()), ("route", 1));
                (
                    o.job,
                    o.stage_events.len(),
                    o.unknown_events.len(),
                    o.unknown_events_dropped,
                )
            }),
        };
        let request = server.join().unwrap();
        assert_eq!(request["cmd"].as_str(), Some(kind.verb()));
        folded
    }

    #[test]
    fn submit_folds_every_kind_and_caps_unknown_events() {
        for kind in KINDS {
            let mut lines = vec![r#"{"event":"queued","job":4}"#.to_string()];
            for i in 0..MAX_UNKNOWN_EVENTS + 3 {
                lines.push(format!(r#"{{"event":"hologram{i}","job":4}}"#));
            }
            lines.push(
                r#"{"event":"stage","job":4,"id":"pack","stage":"packing (T-VPack)","ok":true,"elapsed_ms":1.0,"metrics":{}}"#
                    .to_string(),
            );
            lines.push(terminal_line(kind));
            let folded = run(kind, lines).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(folded, (4, 1, MAX_UNKNOWN_EVENTS, 3), "{kind:?}");
        }
    }

    #[test]
    fn another_kinds_terminal_is_out_of_place_and_names_the_stream() {
        for kind in KINDS {
            for other in KINDS.into_iter().filter(|k| *k != kind) {
                let sent = terminal_line(other);
                let lines = vec![r#"{"event":"queued","job":4}"#.to_string(), sent.clone()];
                match run(kind, lines) {
                    Err(CompileError::Io(e)) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                        let parsed: Value = serde_json::from_str(&sent).unwrap();
                        assert_eq!(
                            e.to_string(),
                            format!("event out of place in a {} stream: {parsed}", kind.verb())
                        );
                    }
                    got => panic!("{kind:?} accepted {other:?}'s terminal: {got:?}"),
                }
            }
        }
    }

    /// The notice a connection gets when it races a draining daemon's
    /// shutdown flag is the refusal the queue words as a `rejected`:
    /// same message, same exit path, not retryable. The connection
    /// cap's `overloaded` is a refusal too, and is.
    #[test]
    fn connection_level_refusals_are_rejections_not_stage_failures() {
        let draining = r#"{"event":"error","kind":"shutting-down","message":"shutting down"}"#;
        let capped = r#"{"event":"error","kind":"overloaded","message":"too many connections (limit 1)","retry_after_ms":150}"#;
        for kind in KINDS {
            for (line, display, retryable, hint) in [
                (draining, "job rejected: shutting down", false, None),
                (
                    capped,
                    "job rejected: too many connections (limit 1)",
                    true,
                    Some(150),
                ),
            ] {
                match run(kind, vec![line.to_string()]) {
                    Err(e @ CompileError::Rejected { .. }) => {
                        assert_eq!(e.to_string(), display, "{kind:?}");
                        assert_eq!(e.is_retryable(), retryable, "{kind:?}: {e}");
                        assert_eq!(e.retry_after_ms(), hint, "{kind:?}: {e}");
                    }
                    got => panic!("{kind:?}: {line} folded to {got:?}"),
                }
            }
        }
    }

    #[test]
    fn retry_gives_up_on_non_retryable_errors_immediately() {
        let mut calls = 0u32;
        let result = compile_with_retry(
            || {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::Unsupported, "no server"))
            },
            &CompileRequest::new(SourceFormat::Vhdl, "entity e is end e;"),
            &RetryPolicy {
                max_attempts: 3,
                base_ms: 1,
                max_backoff_ms: 2,
                jitter_seed: 7,
            },
            |_, _, _| {},
        );
        // Io errors ARE retryable: all three attempts run.
        assert!(matches!(result, Err(CompileError::Io(_))));
        assert_eq!(calls, 3);
    }

    #[test]
    fn retry_budget_is_capped_by_the_request_deadline() {
        // A 50 ms total budget with a >=500 ms first backoff: the helper
        // must give up after the first attempt instead of sleeping past
        // the deadline, and must never invoke the retry hook.
        let mut req = CompileRequest::new(SourceFormat::Vhdl, "entity e is end e;");
        req.deadline_ms = Some(50);
        let mut calls = 0u32;
        let mut retries = 0u32;
        let started = std::time::Instant::now();
        let result = compile_with_retry(
            || {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::ConnectionRefused, "down"))
            },
            &req,
            &RetryPolicy {
                max_attempts: 5,
                base_ms: 1_000,
                max_backoff_ms: 2_000,
                jitter_seed: 7,
            },
            |_, _, _| retries += 1,
        );
        assert!(matches!(result, Err(CompileError::Io(_))));
        assert_eq!(calls, 1, "no budget for a second attempt");
        assert_eq!(retries, 0, "gave up before any backoff");
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "must not have slept a full backoff"
        );
    }
}
