//! The chaos acceptance test: one daemon lifetime, four injected
//! failure scenarios, zero sleeps-as-synchronization.
//!
//! In a single in-process flowd (1 worker, queue depth 1) this
//! demonstrates, in order:
//!
//! 1. a stage panic answered with a structured `kind:"panic"` error
//!    while the *same* worker completes the very next job;
//! 2. a deadline-exceeded job answered with a `timeout` event whose
//!    `completed_stages` names exactly the stages that streamed `ok`;
//! 3. an oversized request line rejected with `kind:"oversized"`
//!    without the daemon buffering it;
//! 4. a queue-full rejection (with `retry_after_ms`) that
//!    `compile_with_retry` turns into an eventual success once the
//!    worker un-jams.
//!
//! Determinism: the worker pool has one thread, so stage execution
//! counts advance in submission order and every `FaultPlan` rule fires
//! at a known point; rendezvous uses protocol events (`queued`, `stage`)
//! and a [`Gate`], never timing.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fpga_flow::fault::{FaultAction, FaultPlan, Gate};
use fpga_server::client::CompileError;
use fpga_server::{
    compile_with_retry, CompileRequest, FlowClient, Gateway, GatewayConfig, GovernorConfig,
    RetryPolicy, Server, ServerConfig, SourceFormat,
};
use serde_json::Value;

/// A protocol-level connection for the scenarios that need to observe
/// individual events (the typed client hides the stream) or the exact
/// bytes of a reply line.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn connect(server: &Server) -> RawConn {
        RawConn::at(server.tcp_addr().expect("tcp enabled")).expect("connect")
    }

    fn at(addr: SocketAddr) -> std::io::Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        // A node that stops answering fails the test instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(RawConn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// A connection the node admitted. A slot freed by the previous
    /// hang-up may still be counted for a moment, so an `overloaded`
    /// answer is retried.
    fn admitted(addr: SocketAddr) -> RawConn {
        for _ in 0..1_000 {
            let mut conn = RawConn::at(addr).expect("connect");
            conn.send_bytes(b"{\"cmd\":\"ping\"}");
            if conn.line().contains("\"pong\"") {
                return conn;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("never admitted");
    }

    fn send(&mut self, v: &Value) {
        self.send_bytes(v.to_string().as_bytes());
    }

    fn send_bytes(&mut self, line: &[u8]) {
        self.writer.write_all(line).expect("send");
        self.writer.write_all(b"\n").expect("send");
    }

    fn recv(&mut self) -> Value {
        fpga_server::proto::read_line(&mut self.reader)
            .expect("read event")
            .expect("server closed the connection")
    }

    /// The next reply line as sent, `<eof>` once the node hung up.
    fn line(&mut self) -> String {
        let mut bytes = Vec::new();
        match self.reader.read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => "<eof>".to_string(),
            Ok(_) => String::from_utf8_lossy(&bytes).trim_end().to_string(),
        }
    }
}

fn compile_req(source: &str, deadline_ms: Option<u64>) -> Value {
    let mut req = serde_json::Map::new();
    req.insert("cmd".to_string(), serde_json::json!("compile"));
    req.insert("format".to_string(), serde_json::json!("vhdl"));
    req.insert("source".to_string(), serde_json::json!(source));
    if let Some(ms) = deadline_ms {
        req.insert("deadline_ms".to_string(), serde_json::json!(ms));
    }
    Value::Object(req)
}

#[test]
fn one_daemon_survives_panic_timeout_oversize_and_overload() {
    let gate = Gate::new();
    // Stage executions are counted across the daemon's whole life;
    // with one worker they advance in submission order:
    //   synthesis: A=1(panic) B=2 C=3 D=4 E=5 G=6
    //   place:           B=1 C=2(sleep past deadline) ...
    //   lut_map:         B=1 C=2 D=3(hold for scenario 4) ...
    let plan = FaultPlan::new()
        .on("synthesis", 1, FaultAction::Panic)
        .on("place", 2, FaultAction::SleepMs(60_000))
        .on("lut_map", 3, FaultAction::Hold(gate.clone()));
    let server = Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        unix_path: None,
        workers: 1,
        queue_capacity: 1,
        max_line_bytes: 64 * 1024,
        retry_after_ms: 5,
        fault: Some(Arc::new(plan)),
        ..ServerConfig::default()
    })
    .expect("bind in-process flowd");
    let addr = server.tcp_addr().expect("tcp enabled");

    // --- 1: injected panic becomes a structured error; the worker
    // (there is only one) then completes the identical job B.
    let src_ab = design_src(4);
    let mut client = FlowClient::connect_tcp(addr).expect("connect");
    let err = client
        .compile_request(&CompileRequest::new(SourceFormat::Vhdl, &src_ab))
        .expect_err("job A must panic");
    match err {
        CompileError::Failed { kind, message, .. } => {
            assert_eq!(kind.as_deref(), Some("panic"));
            assert!(
                message.contains("injected panic at stage 'synthesis'"),
                "panic payload surfaced: {message}"
            );
        }
        other => panic!("expected a panic error, got {other}"),
    }
    let outcome = client
        .compile_request(&CompileRequest::new(SourceFormat::Vhdl, &src_ab))
        .expect("job B completes on the surviving worker");
    assert_eq!(outcome.stage_events.len(), 8, "one event per stage");

    // --- 2: deadline exceeded mid-flow; the timeout names exactly the
    // stages that streamed ok before the clock ran out. The injected
    // sleep is cancel-aware, so the job ends at the deadline, not 60s.
    let mut raw = RawConn::connect(&server);
    raw.send(&compile_req(&design_src(5), Some(250)));
    assert_eq!(raw.recv()["event"], serde_json::json!("queued"));
    let mut streamed_ok = Vec::new();
    let timeout = loop {
        let ev = raw.recv();
        match ev["event"].as_str() {
            Some("stage") => {
                assert_eq!(ev["ok"], serde_json::json!(true));
                streamed_ok.push(ev["stage"].as_str().expect("stage name").to_string());
            }
            Some("timeout") => break ev,
            other => panic!("unexpected event {other:?} while waiting for timeout"),
        }
    };
    assert_eq!(timeout["deadline_ms"], serde_json::json!(250u64));
    let completed: Vec<String> = timeout["completed_stages"]
        .as_array()
        .expect("completed_stages")
        .iter()
        .map(|v| v.as_str().expect("stage name").to_string())
        .collect();
    assert_eq!(
        completed, streamed_ok,
        "timeout names exactly the streamed ok stages"
    );
    // The sleep fires at place's gate; place itself still completes
    // (the gate had already passed), and route's gate stops the job.
    assert!(
        completed.iter().any(|s| s.contains("place")),
        "the slept-through stage still completed: {completed:?}"
    );
    assert!(
        !completed.iter().any(|s| s.contains("route")),
        "nothing past the deadline ran: {completed:?}"
    );

    // --- 3: an oversized request line is refused with a structured
    // error; the daemon read at most max_line_bytes + 1 of it.
    let huge = format!(
        "{{\"cmd\":\"compile\",\"source\":\"{}\"}}",
        "x".repeat(128 * 1024)
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{huge}").expect("send oversized line");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let ev = fpga_server::proto::read_line(&mut reader)
        .expect("read")
        .expect("an answer, not a silent drop");
    assert_eq!(ev["event"], serde_json::json!("error"));
    assert_eq!(ev["kind"], serde_json::json!("oversized"));

    // --- 4: jam the only worker behind the gate, fill the queue, get
    // rejected, and let compile_with_retry win once the gate opens.
    let mut conn_d = RawConn::connect(&server);
    conn_d.send(&compile_req(&design_src(6), None));
    assert_eq!(conn_d.recv()["event"], serde_json::json!("queued"));
    // D's synthesis event proves it was dequeued (the queue is empty);
    // D then parks at lut_map's gate.
    assert_eq!(conn_d.recv()["event"], serde_json::json!("stage"));

    let mut conn_e = RawConn::connect(&server);
    conn_e.send(&compile_req(&design_src(7), None));
    assert_eq!(
        conn_e.recv()["event"],
        serde_json::json!("queued"),
        "E fills the queue"
    );

    let mut client_f = FlowClient::connect_tcp(addr).expect("connect");
    let err = client_f
        .compile_request(&CompileRequest::new(SourceFormat::Vhdl, design_src(8)))
        .expect_err("F must be rejected: the queue is full");
    assert!(err.is_retryable(), "queue-full is retryable: {err}");
    assert_eq!(err.retry_after_ms(), Some(5), "server's backoff hint");

    let gate_for_retry = gate.clone();
    let retry_req = CompileRequest::new(SourceFormat::Vhdl, design_src(8));
    let outcome = compile_with_retry(
        || FlowClient::connect_tcp(addr),
        &retry_req,
        &RetryPolicy {
            max_attempts: 40,
            base_ms: 2,
            max_backoff_ms: 50,
            // scripts/chaos.sh pins this for reproducible runs; any seed
            // must pass — the jitter schedule may differ, the outcome
            // must not.
            jitter_seed: std::env::var("CHAOS_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0xC0FFEE),
        },
        // Opening the gate (idempotent) un-jams the worker: D finishes,
        // E drains, and a later attempt finds room.
        move |_attempt, err, _backoff| {
            assert!(err.is_retryable());
            gate_for_retry.open();
        },
    )
    .expect("G eventually compiles after backoff");
    assert_eq!(outcome.stage_events.len(), 8);

    // D and E finish normally behind the gate.
    loop {
        let ev = conn_d.recv();
        if ev["event"] == serde_json::json!("done") {
            break;
        }
        assert_eq!(ev["event"], serde_json::json!("stage"));
    }
    loop {
        let ev = conn_e.recv();
        if ev["event"] == serde_json::json!("done") {
            break;
        }
        assert_eq!(ev["event"], serde_json::json!("stage"));
    }

    // --- The ledger: every scenario left its mark on one worker.
    let metrics = server.metrics_json();
    assert_eq!(
        metrics["jobs"]["completed"],
        serde_json::json!(4u64),
        "B, D, E, G"
    );
    assert_eq!(metrics["jobs"]["panicked"], serde_json::json!(1u64), "A");
    assert_eq!(metrics["jobs"]["timed_out"], serde_json::json!(1u64), "C");
    assert_eq!(metrics["jobs"]["failed"], serde_json::json!(0u64));
    assert!(
        metrics["jobs"]["rejected"].as_u64().expect("rejected") >= 2,
        "F plus at least one of G's early attempts"
    );
    assert_eq!(metrics["workers"]["configured"], serde_json::json!(1u64));
    server.shutdown();
}

/// Distinct sources per job keep the content-addressed cache from
/// coupling the scenarios to each other.
fn design_src(bits: usize) -> String {
    fpga_circuits::vhdl_counter(bits)
}

// --- Connection guards, one table over both roles ----------------------
//
// `flowd` and `flow-gateway` serve through the same endpoint loop
// (`net::serve`), so every guard is checked on both, against the reply
// lines a build of d7a98e5 sent (`goldens/guards_<role>.txt`, recorded
// before the loops were merged). The gateway rows that differ from that
// recording are the drifted behaviours DESIGN.md "Transport" lists.
// Since the `stats` verb went, its row is the `unknown cmd` refusal,
// `status` carries flowd's limits, the rejection is counted through
// `metrics` (on both roles), and the gateway's replication breaker is
// `put_breaker`. Both roles' `status` renders `connections` as
// `{open, rejected, limit}`.

const ROLES: [&str; 2] = ["flowd", "gateway"];
const RECORDED: [&str; 2] = [
    include_str!("goldens/guards_flowd.txt"),
    include_str!("goldens/guards_gateway.txt"),
];
const MAX_LINE: usize = 4096;

/// A fresh node of one role behind tight guards.
struct Guarded {
    addr: SocketAddr,
    /// What the gateway fronts; masked as `BACKEND` in transcripts.
    backend: Option<Server>,
    node: Node,
}

enum Node {
    Flowd(Server),
    Gateway(Gateway),
}

impl Guarded {
    fn start(role: &str, max_connections: usize) -> Guarded {
        let flowd = |config: ServerConfig| {
            Server::start(ServerConfig {
                tcp_addr: Some("127.0.0.1:0".to_string()),
                workers: 1,
                queue_capacity: 4,
                ..config
            })
            .expect("bind in-process flowd")
        };
        if role == "flowd" {
            let server = flowd(ServerConfig {
                max_connections,
                idle_timeout_ms: Some(1_000),
                max_line_bytes: MAX_LINE,
                retry_after_ms: 7,
                ..ServerConfig::default()
            });
            return Guarded {
                addr: server.tcp_addr().expect("tcp enabled"),
                backend: None,
                node: Node::Flowd(server),
            };
        }
        let backend = flowd(ServerConfig::default());
        let gateway = Gateway::start(GatewayConfig {
            backends: vec![backend.tcp_addr().expect("tcp enabled").to_string()],
            max_connections,
            idle_timeout_ms: Some(1_000),
            max_line_bytes: MAX_LINE,
            governor: GovernorConfig {
                retry_after_ms: 9,
                ..GovernorConfig::default()
            },
            ..GatewayConfig::default()
        })
        .expect("start gateway");
        Guarded {
            addr: gateway.tcp_addr(),
            backend: Some(backend),
            node: Node::Gateway(gateway),
        }
    }

    fn stop(self) {
        match self.node {
            Node::Flowd(server) => server.shutdown(),
            Node::Gateway(gateway) => gateway.shutdown(),
        }
        if let Some(backend) = self.backend {
            backend.shutdown();
        }
    }
}

#[test]
fn connection_guards_answer_as_recorded_on_both_roles() {
    for (role, recorded) in ROLES.into_iter().zip(RECORDED) {
        let node = Guarded::start(role, 2);
        let addr = node.addr;
        let mut transcript = String::new();
        let mut row = |name: &str, lines: &[String]| {
            transcript.push_str(&format!("== {name}\n"));
            for line in lines {
                transcript.push_str(line);
                transcript.push('\n');
            }
        };

        // The first connection asks every read-only verb, and the
        // deleted `stats`, then stays open as one of the two admission
        // slots.
        let mut first = RawConn::at(addr).expect("connect");
        for verb in ["ping", "stats", "status", "metrics"] {
            first.send_bytes(format!("{{\"cmd\":\"{verb}\"}}").as_bytes());
            row(verb, &[first.line()]);
        }
        first.send_bytes(b"{\"cmd\":\"metrics\",\"format\":\"text\"}");
        row("metrics text", &[first.line()]);

        // A second admitted connection fills the cap; the third is told
        // it is one too many, with the node's backoff hint, and dropped.
        let mut second = RawConn::at(addr).expect("connect");
        second.send_bytes(b"{\"cmd\":\"ping\"}");
        let mut third = RawConn::at(addr).expect("connect");
        row(
            "one connection over the cap",
            &[second.line(), third.line(), third.line()],
        );
        first.send_bytes(b"{\"cmd\":\"metrics\"}");
        let after = first.line();
        let metrics: Value = serde_json::from_str(&after).expect("a metrics body");
        assert_eq!(
            metrics["connections"]["rejected"].as_u64(),
            Some(1),
            "{role}: {after}"
        );
        row("metrics after the rejection", &[after]);
        drop((second, third));

        // An admitted connection that goes quiet is told so and closed.
        row("idle past the timeout", &[first.line(), first.line()]);

        // An oversized line is refused without being buffered, and was
        // drained: the same connection serves the next request.
        let mut wire = RawConn::admitted(addr);
        wire.send_bytes(
            format!(
                "{{\"cmd\":\"ping\",\"pad\":\"{}\"}}",
                "x".repeat(2 * MAX_LINE)
            )
            .as_bytes(),
        );
        wire.send_bytes(b"{\"cmd\":\"ping\"}");
        row("oversized line, then a ping", &[wire.line(), wire.line()]);
        drop(wire);

        let mut wire = RawConn::admitted(addr);
        wire.send_bytes(b"{\"cmd\":\"ping\"");
        row("bad JSON", &[wire.line(), wire.line()]);

        let mut wire = RawConn::admitted(addr);
        wire.send_bytes(b"{\"cmd\":\"pi\xffng\"}");
        row("invalid UTF-8", &[wire.line(), wire.line()]);

        let mut wire = RawConn::admitted(addr);
        wire.send_bytes(b"{\"cmd\":\"shutdown\"}");
        row("shutdown", &[wire.line(), wire.line()]);

        if let Some(backend) = &node.backend {
            let backend = backend.tcp_addr().expect("tcp enabled").to_string();
            transcript = transcript.replace(&backend, "BACKEND");
        }
        // Recorded at ifdf-0.2.0 / proto 6; neither version is what this pins.
        let recorded = recorded
            .replace("ifdf-0.2.0", fpga_flow::FLOW_VERSION)
            .replace(
                "\"proto_version\":6",
                &format!("\"proto_version\":{}", fpga_server::PROTO_VERSION),
            );
        let departures: Vec<String> = transcript
            .lines()
            .zip(recorded.lines())
            .filter(|(sent, recorded)| sent != recorded)
            .map(|(sent, recorded)| format!("sent     {sent}\nrecorded {recorded}"))
            .collect();
        assert!(
            departures.is_empty() && transcript.lines().count() == recorded.lines().count(),
            "{role} departs from its recording:\n{}",
            departures.join("\n")
        );
        node.stop();
    }
}

/// A client racing shutdown deserves a reason: the connection accepted
/// after the shutdown flag is set is told `shutting-down`, whichever
/// role it dialled. Which connection that is cannot be forced from
/// outside — the node's own wake-up poke competes for it — so racers
/// keep the accept queue busy while the verb lands, and the round
/// repeats until one of them drew the notice. Whatever a racer reads
/// must be one of the two rejections either way.
#[test]
fn a_connection_racing_shutdown_is_told_so_on_both_roles() {
    const NOTICE: &str = r#"{"event":"error","kind":"shutting-down","message":"shutting down"}"#;
    for role in ROLES {
        let mut noticed = false;
        for _round in 0..20 {
            let node = Guarded::start(role, 1);
            let addr = node.addr;
            // Holds the only slot: every racer is over the cap.
            let mut holder = RawConn::admitted(addr);
            let answered = Arc::new(AtomicUsize::new(0));
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    let answered = Arc::clone(&answered);
                    std::thread::spawn(move || {
                        let mut lines = Vec::new();
                        // Ends when the listener is gone: connect refuses.
                        while let Ok(mut wire) = RawConn::at(addr) {
                            lines.push(wire.line());
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        lines
                    })
                })
                .collect();
            while answered.load(Ordering::SeqCst) < 16 {
                std::thread::sleep(Duration::from_millis(1));
            }
            holder.send_bytes(b"{\"cmd\":\"shutdown\"}");
            assert_eq!(holder.line(), r#"{"event":"shutting_down"}"#);
            for racer in racers {
                for line in racer.join().expect("racer thread") {
                    noticed |= line == NOTICE;
                    assert!(
                        line == NOTICE
                            || line == "<eof>"
                            || line.contains(r#""kind":"overloaded""#),
                        "{role}: a racing connection read {line}"
                    );
                }
            }
            node.stop();
            if noticed {
                break;
            }
        }
        assert!(
            noticed,
            "{role}: no racing connection was ever told 'shutting-down'"
        );
    }
}

/// A `shutdown` verb wakes every listener, not only the one it arrived
/// on: a daemon listening on TCP and a Unix socket stops after a
/// shutdown over either (over TCP here; the Unix accept loop used to
/// sleep on until something happened to connect to it).
#[cfg(unix)]
#[test]
fn shutdown_over_one_transport_stops_a_daemon_listening_on_two() {
    let path = std::env::temp_dir().join(format!("ifdf-chaos-{}.sock", std::process::id()));
    let mut server = Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        unix_path: Some(path.clone()),
        ..ServerConfig::default()
    })
    .expect("bind both listeners");
    FlowClient::connect_unix(&path)
        .expect("unix connect")
        .ping()
        .expect("served over the unix socket");
    FlowClient::connect_tcp(server.tcp_addr().expect("tcp enabled"))
        .expect("tcp connect")
        .shutdown_server()
        .expect("shutdown acknowledged");
    let (stopped, wait) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = stopped.send(());
    });
    wait.recv_timeout(Duration::from_secs(10))
        .expect("both accept loops saw the shutdown");
    assert!(!path.exists(), "the socket file is removed on the way out");
}
