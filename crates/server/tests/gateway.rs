//! Gateway integration tests: mid-job failover with an exactly-once
//! terminal event, circuit-breaker isolation of a dead backend,
//! per-tenant quota shedding and work stealing — all in-process, no
//! subprocesses, no sleeps-as-synchronization (polling loops rendezvous
//! on observable state with generous ceilings).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fpga_flow::fault::{FaultAction, FaultPlan};
use fpga_server::client::CompileError;
use fpga_server::gateway::{affinity_key, affinity_order};
use fpga_server::{
    CompileRequest, FlowClient, Gateway, GatewayConfig, GovernorConfig, Server, ServerConfig,
    SourceFormat,
};
use serde_json::Value;

/// Raw protocol connection, for counting individual events.
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).expect("connect");
        RawConn {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, v: &Value) {
        writeln!(self.writer, "{v}").expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Value {
        fpga_server::proto::read_line(&mut self.reader)
            .expect("read event")
            .expect("peer closed the connection")
    }
}

fn start_flowd() -> Server {
    Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        unix_path: None,
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    })
    .expect("bind in-process flowd")
}

/// A backend that answers health pings and answers any job with the
/// lines `on_job` lists, then drops the connection.
fn start_fake_backend(on_job: fn() -> Vec<Value>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let Ok(mut writer) = stream.try_clone() else {
                continue;
            };
            let mut reader = BufReader::new(stream);
            let Ok(Some(req)) = fpga_server::proto::read_line(&mut reader) else {
                continue;
            };
            match req.get("cmd").and_then(Value::as_str) {
                Some("ping") => {
                    let _ = writeln!(
                        writer,
                        "{}",
                        serde_json::json!({
                            "event": "pong",
                            "version": "fake",
                            "proto_version": fpga_server::PROTO_VERSION,
                        })
                    );
                }
                Some("compile") | Some("lint") => {
                    for line in on_job() {
                        let _ = writeln!(writer, "{line}");
                    }
                }
                _ => {}
            }
        }
    });
    addr
}

/// Dies right after streaming `queued` + one stage event of any job —
/// the in-process stand-in for SIGKILL mid-pipeline.
fn start_dying_backend() -> SocketAddr {
    start_fake_backend(|| {
        vec![
            serde_json::json!({"event": "queued", "job": 999u64}),
            serde_json::json!({
                "event": "stage",
                "job": 999u64,
                "id": "synthesis",
                "stage": "synthesis (fake)",
                "ok": true,
                "elapsed_ms": 0.1,
                "metrics": serde_json::json!({}),
            }),
        ]
    })
}

/// Answers every job with the notice `net::serve` writes to a connection
/// that races the shutdown flag — a node draining for a rolling restart.
fn start_draining_backend() -> SocketAddr {
    start_fake_backend(|| {
        vec![serde_json::json!({
            "event": "error",
            "kind": "shutting-down",
            "message": "shutting down",
        })]
    })
}

/// Find a design the rendezvous hash routes to `want_first` among
/// `backends`, so failover tests start on the doomed node by
/// construction instead of by luck.
fn design_routed_to(backends: &[String], want_first: usize) -> String {
    for bits in 2..32usize {
        let source = fpga_circuits::vhdl_counter(bits);
        let req = CompileRequest::new(SourceFormat::Vhdl, source.clone());
        if affinity_order(&affinity_key("compile", &req), backends)[0] == want_first {
            return source;
        }
    }
    panic!("no counter design hashed to backend {want_first}");
}

/// Compile `source` through the gateway at `addr` and hold the stream to
/// the exactly-once contract: one `queued`, stage events under the
/// gateway's job id, one terminal `done`, then silence. Returns the
/// number of stage events.
fn compile_to_exactly_one_done(addr: SocketAddr, source: String) -> usize {
    let mut conn = RawConn::connect(addr);
    let req = CompileRequest::new(SourceFormat::Vhdl, source);
    conn.send(&fpga_server::Request::Compile(Box::new(req)).to_value());

    let first = conn.recv();
    assert_eq!(first.get("event").and_then(Value::as_str), Some("queued"));
    let gateway_job = first.get("job").and_then(Value::as_u64).expect("job id");
    let mut stages = 0;
    loop {
        let ev = conn.recv();
        assert_eq!(
            ev.get("job").and_then(Value::as_u64),
            Some(gateway_job),
            "every forwarded event carries the gateway's job id: {ev}"
        );
        match ev.get("event").and_then(Value::as_str) {
            Some("stage") => stages += 1,
            Some("done") => break,
            other => panic!("unexpected event {other:?}: {ev}"),
        }
    }
    // The stream is silent after the terminal: a ping answers next, so
    // no second `done` (or any stray event) is queued behind it.
    conn.send(&serde_json::json!({"cmd": "ping"}));
    let after = conn.recv();
    assert_eq!(
        after.get("event").and_then(Value::as_str),
        Some("pong"),
        "stray event after the terminal: {after}"
    );
    stages
}

/// One backend's row of the gateway's `metrics` body.
fn backend_row<'a>(metrics: &'a Value, addr: &str) -> &'a Value {
    metrics["backends"]
        .as_array()
        .expect("backends array")
        .iter()
        .find(|b| b["addr"].as_str() == Some(addr))
        .expect("backend row")
}

#[test]
fn mid_job_backend_death_fails_over_with_exactly_one_done() {
    let dying = start_dying_backend();
    let healthy = start_flowd();
    let healthy_addr = healthy.tcp_addr().expect("tcp enabled");
    let backends = vec![dying.to_string(), healthy_addr.to_string()];
    let source = design_routed_to(&backends, 0);

    let gateway = Gateway::start(GatewayConfig {
        backends: backends.clone(),
        health_interval_ms: 50,
        ..GatewayConfig::default()
    })
    .expect("start gateway");

    // Stage events may repeat across the failover (first attempt's
    // partial progress, then the peer's full run).
    let stages = compile_to_exactly_one_done(gateway.tcp_addr(), source);
    assert!(
        stages >= 9,
        "one fake stage + the peer's full 8-stage run, got {stages}"
    );

    let metrics = gateway.metrics_json();
    assert_eq!(metrics["jobs"]["completed"].as_u64(), Some(1));
    assert!(
        metrics["jobs"]["failovers"].as_u64() >= Some(1),
        "failover counted: {metrics}"
    );
    assert!(backend_row(&metrics, &backends[0])["failures"].as_u64() >= Some(1));
    assert!(backend_row(&metrics, &backends[1])["failovers"].as_u64() >= Some(1));

    gateway.shutdown();
    healthy.shutdown();
}

/// A backend draining for a restart refuses the connection with a
/// `shutting-down` notice. That is the node's state, not the job's
/// outcome: the next peer gets the job, and the node — which did answer —
/// takes no breaker penalty.
#[test]
fn a_draining_backend_fails_over_with_exactly_one_done() {
    let draining = start_draining_backend();
    let healthy = start_flowd();
    let healthy_addr = healthy.tcp_addr().expect("tcp enabled");
    let backends = vec![draining.to_string(), healthy_addr.to_string()];
    let source = design_routed_to(&backends, 0);

    let gateway = Gateway::start(GatewayConfig {
        backends: backends.clone(),
        health_interval_ms: 50,
        ..GatewayConfig::default()
    })
    .expect("start gateway");

    let stages = compile_to_exactly_one_done(gateway.tcp_addr(), source);
    assert_eq!(stages, 8, "the peer's full run and nothing else");

    let metrics = gateway.metrics_json();
    assert_eq!(metrics["jobs"]["completed"].as_u64(), Some(1));
    assert_eq!(metrics["jobs"]["failed"].as_u64(), Some(0));
    let draining_row = backend_row(&metrics, &backends[0]);
    assert_eq!(draining_row["requests"].as_u64(), Some(1));
    assert_eq!(draining_row["failures"].as_u64(), Some(0));

    gateway.shutdown();
    healthy.shutdown();
}

/// A `timeout` the gateway writes itself (here: the only backend drops
/// the connection with the deadline already spent) reports progress in
/// the vocabulary of the `stage` events it forwarded — the `stage`
/// field, as a backend's own `timeout` does — not in stage ids.
#[test]
fn a_gateway_written_timeout_names_stages_as_they_were_streamed() {
    const DEADLINE_MS: u64 = 300;
    let slow = start_fake_backend(|| {
        thread::sleep(Duration::from_millis(DEADLINE_MS + 100));
        let stage = |id: &str, title: &str| {
            serde_json::json!({
                "event": "stage",
                "job": 999u64,
                "id": id,
                "stage": title,
                "ok": true,
                "elapsed_ms": 0.1,
                "metrics": serde_json::json!({}),
            })
        };
        vec![
            serde_json::json!({"event": "queued", "job": 999u64}),
            stage("synthesis", "synthesis (fake parser)"),
            stage("lut_map", "lut mapping (fake)"),
        ]
    });
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![slow.to_string()],
        health_interval_ms: 60_000,
        ..GatewayConfig::default()
    })
    .expect("start gateway");

    let mut req = CompileRequest::new(SourceFormat::Vhdl, fpga_circuits::vhdl_counter(2));
    req.deadline_ms = Some(DEADLINE_MS);
    let mut conn = RawConn::connect(gateway.tcp_addr());
    conn.send(&fpga_server::Request::Compile(Box::new(req)).to_value());
    assert_eq!(conn.recv()["event"].as_str(), Some("queued"));
    let mut streamed = Vec::new();
    let timeout = loop {
        let ev = conn.recv();
        match ev["event"].as_str() {
            Some("stage") => streamed.push(ev["stage"].clone()),
            Some("timeout") => break ev,
            other => panic!("unexpected event {other:?}: {ev}"),
        }
    };
    assert_eq!(streamed.len(), 2, "both stage events were forwarded");
    assert_eq!(
        timeout["completed_stages"].as_array(),
        Some(&streamed),
        "{timeout}"
    );
    assert!(
        timeout["message"]
            .as_str()
            .is_some_and(|m| m.contains("exhausted across 1 attempt(s)")),
        "written by the gateway, not forwarded: {timeout}"
    );
    gateway.shutdown();
}

/// A backend that accepted the connection and then stopped reading
/// (SIGSTOP, a full receive buffer) must not hold the gateway thread in
/// the request write past the job's deadline: the forwarding hop's
/// write is bounded like its connect, so the attempt is given up and
/// the client gets its one terminal in time.
#[test]
fn a_backend_that_stops_reading_cannot_hold_a_job_past_its_deadline() {
    const DEADLINE_MS: u64 = 1_000;
    // Never accepts: the kernel completes handshakes into the backlog
    // and buffers what it can (well under 4 MiB on loopback), then the
    // writer blocks.
    let stuck = TcpListener::bind("127.0.0.1:0").expect("bind stuck backend");
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![stuck.local_addr().expect("addr").to_string()],
        probe_timeout_ms: 200,
        health_interval_ms: 60_000,
        max_line_bytes: 64 << 20,
        ..GatewayConfig::default()
    })
    .expect("start gateway");

    let source = format!(
        "{}\n-- {}\n",
        fpga_circuits::vhdl_counter(2),
        "x".repeat(5 << 20)
    );
    let mut req = CompileRequest::new(SourceFormat::Vhdl, source);
    req.deadline_ms = Some(DEADLINE_MS);
    let mut conn = RawConn::connect(gateway.tcp_addr());
    // A gateway stuck in the write fails the test instead of hanging it.
    let patience = Duration::from_millis(DEADLINE_MS + 15_000);
    conn.writer
        .set_read_timeout(Some(patience))
        .expect("set read timeout");
    let started = Instant::now();
    conn.send(&fpga_server::Request::Compile(Box::new(req)).to_value());
    assert_eq!(conn.recv()["event"].as_str(), Some("queued"));
    let terminal = conn.recv();
    let took = started.elapsed();
    assert!(
        matches!(terminal["event"].as_str(), Some("rejected" | "timeout")),
        "one terminal, no progress: {terminal}"
    );
    assert!(
        took < Duration::from_millis(DEADLINE_MS + 10_000),
        "{terminal} only after {took:?}"
    );
    // Hashing a 5 MiB source for routing eats into the deadline in a
    // debug build; on a host so loaded that it ran out before the
    // attempt, there was no write to bound and nothing more to check.
    let unattempted = format!("deadline of {DEADLINE_MS}ms exhausted across 0 attempt(s)");
    if terminal["message"].as_str() != Some(unattempted.as_str()) {
        let metrics = gateway.metrics_json();
        assert_eq!(
            metrics["backends"][0]["failures"].as_u64(),
            Some(1),
            "the stuck attempt was given up: {metrics}"
        );
    }
    gateway.shutdown();
}

#[test]
fn dead_backend_opens_its_breaker_and_jobs_shed_fast() {
    // A bound-then-dropped listener: connecting to it refuses.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![dead_addr.clone()],
        health_interval_ms: 25,
        probe_timeout_ms: 200,
        breaker_threshold: 1,
        breaker_reopen_ms: 120_000, // stays open for the whole test
        ..GatewayConfig::default()
    })
    .expect("start gateway");

    // Health probes trip the breaker without any job traffic.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = gateway.status_json();
        if status["backends"][0]["breaker"].as_str() == Some("open") {
            assert_eq!(status["backends"][0]["healthy"].as_bool(), Some(false));
            break;
        }
        assert!(Instant::now() < deadline, "breaker never opened: {status}");
        thread::sleep(Duration::from_millis(10));
    }

    // With the only backend isolated, a job sheds instead of hanging.
    let mut conn = RawConn::connect(gateway.tcp_addr());
    let req = CompileRequest::new(SourceFormat::Vhdl, fpga_circuits::vhdl_counter(2));
    conn.send(&fpga_server::Request::Compile(Box::new(req)).to_value());
    assert_eq!(
        conn.recv().get("event").and_then(Value::as_str),
        Some("queued")
    );
    let verdict = conn.recv();
    assert_eq!(
        verdict.get("event").and_then(Value::as_str),
        Some("rejected"),
        "shed, not hung: {verdict}"
    );
    assert!(
        verdict
            .get("retry_after_ms")
            .and_then(Value::as_u64)
            .is_some(),
        "shed responses carry a retry hint: {verdict}"
    );

    let metrics = gateway.metrics_json();
    assert!(metrics["jobs"]["shed"].as_u64() >= Some(1));
    assert!(
        metrics["backends"][0]["breaker_transitions"]["opened"].as_u64() >= Some(1),
        "breaker transition counted: {metrics}"
    );
    gateway.shutdown();
}

#[test]
fn tenant_quotas_shed_the_hog_but_not_the_neighbor() {
    let backend = start_flowd();
    let backend_addr = backend.tcp_addr().expect("tcp enabled");
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![backend_addr.to_string()],
        governor: GovernorConfig {
            max_inflight: 4,
            queue_bound: 0,               // no waiting room: over-quota sheds now
            tenant_burst: 1,              // one token per tenant...
            tenant_refill_milli_per_s: 0, // ...and no refill
            retry_after_ms: 123,
        },
        ..GatewayConfig::default()
    })
    .expect("start gateway");

    let compile = |tenant: &str| -> Result<u64, CompileError> {
        let mut client = FlowClient::connect_tcp(gateway.tcp_addr()).expect("connect");
        let mut req = CompileRequest::new(SourceFormat::Vhdl, fpga_circuits::vhdl_counter(2));
        req.tenant = Some(tenant.to_string());
        client.compile_request(&req).map(|outcome| outcome.job)
    };

    compile("heavy").expect("first job spends heavy's only token");
    match compile("heavy") {
        Err(CompileError::Rejected { .. }) => {}
        other => panic!("hog's second job must shed, got {other:?}"),
    }
    compile("light").expect("a different tenant has its own bucket");

    let metrics = gateway.metrics_json();
    assert_eq!(metrics["tenants"]["heavy"]["admitted"].as_u64(), Some(1));
    assert_eq!(metrics["tenants"]["heavy"]["shed"].as_u64(), Some(1));
    assert_eq!(metrics["tenants"]["light"]["admitted"].as_u64(), Some(1));
    assert_eq!(metrics["tenants"]["light"]["shed"].as_u64(), Some(0));

    // The gateway's status verb reports the same through the wire.
    let mut client = FlowClient::connect_tcp(gateway.tcp_addr()).expect("connect");
    let status = client.status().expect("status verb");
    assert_eq!(status["role"].as_str(), Some("gateway"));
    assert_eq!(
        status["backends"][0]["addr"].as_str(),
        Some(backend_addr.to_string().as_str())
    );

    gateway.shutdown();
    backend.shutdown();
}

/// `tenant` is an arbitrary client string and becomes a label value in
/// the gateway's exposition: whatever it contains, it cannot forge a
/// sample line, and the JSON body still keys on the raw name.
#[test]
fn hostile_tenant_cannot_forge_exposition_lines() {
    let backend = start_flowd();
    let backend_addr = backend.tcp_addr().expect("tcp enabled");
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![backend_addr.to_string()],
        ..GatewayConfig::default()
    })
    .expect("start gateway");

    let tenant = "evil\"} 1\nflowgw_jobs_total{state=\"shed";
    let mut client = FlowClient::connect_tcp(gateway.tcp_addr()).expect("connect");
    let mut req = CompileRequest::new(SourceFormat::Vhdl, fpga_circuits::vhdl_counter(2));
    req.tenant = Some(tenant.to_string());
    client
        .compile_request(&req)
        .expect("the job itself is fine");

    let body = client.metrics(true).expect("metrics --text");
    let text = body["text"].as_str().expect("text exposition");
    let shed: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("flowgw_jobs_total{state=\"shed\"}"))
        .collect();
    assert_eq!(shed, ["flowgw_jobs_total{state=\"shed\"} 0"], "{text}");

    // The tenant's three samples: one line each, the label value is the
    // escaped name, and un-escaping it gives the name back.
    let unescape = |escaped: &str| {
        let mut raw = String::new();
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            raw.push(match c {
                '\\' => match chars.next() {
                    Some('n') => '\n',
                    Some(c @ ('\\' | '"')) => c,
                    other => panic!("bad escape {other:?} in {escaped}"),
                },
                '"' => panic!("unescaped quote in {escaped}"),
                c => c,
            });
        }
        raw
    };
    let states: Vec<(String, &str)> = text
        .lines()
        .filter_map(|l| l.strip_prefix("flowgw_tenant_jobs_total{tenant=\""))
        .map(|l| {
            let (value, tail) = l.rsplit_once("\",state=\"").expect("state label");
            (unescape(value), tail)
        })
        .collect();
    let name = tenant.to_string();
    assert_eq!(
        states,
        [
            (name.clone(), "admitted\"} 1"),
            (name.clone(), "queued\"} 0"),
            (name, "shed\"} 0"),
        ],
        "{text}"
    );

    let metrics = gateway.metrics_json();
    assert_eq!(metrics["tenants"][tenant]["admitted"].as_u64(), Some(1));

    gateway.shutdown();
    backend.shutdown();
}

/// The gateway's `status` and `metrics` replies over the wire, byte for
/// byte as commit 17b1350 sent them for a fresh one-backend farm
/// (backend address masked; recorded at ifdf-0.2.0 / proto 6), with the
/// replication breaker's key renamed `put_breaker`.
#[test]
fn fresh_gateway_replies_render_as_recorded() {
    const SNAPSHOT: &str = r#"{"role":"gateway","jobs":{"submitted":0,"completed":0,"failed":0,"shed":0,"timed_out":0,"failovers":0,"steals":0},"job_duration_ms":{},"backends":[{"addr":"BACKEND","healthy":true,"breaker":"closed","breaker_transitions":{"opened":0,"half_opened":0,"closed":0},"in_flight":0,"requests":0,"failures":0,"failovers":0,"put_breaker":"closed","steals":0}],"tenants":{},"admission":{"inflight":0,"queued":0,"max_inflight":64,"queue_bound":128},"artifacts":{"puts":0,"put_failures":0,"bytes_stored":0}"#;
    let backend = start_flowd();
    let backend_addr = backend.tcp_addr().expect("tcp enabled").to_string();
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![backend_addr.clone()],
        ..GatewayConfig::default()
    })
    .expect("start gateway");
    let mut client = FlowClient::connect_tcp(gateway.tcp_addr()).expect("connect");
    let version = fpga_flow::FLOW_VERSION;
    let proto = fpga_server::PROTO_VERSION;
    let masked = |reply: Value| reply.to_string().replace(&backend_addr, "BACKEND");

    assert_eq!(
        masked(client.status().expect("status")),
        format!(
            r#"{SNAPSHOT},"event":"status","version":"{version}","proto_version":{proto},"shutting_down":false}}"#
        )
    );
    assert_eq!(
        masked(client.metrics(false).expect("metrics")),
        format!(
            r#"{SNAPSHOT},"cache":{{"memory_hits":0,"disk_hits":0,"misses":0}},"event":"metrics"}}"#
        )
    );

    gateway.shutdown();
    backend.shutdown();
}

/// Wait until every gateway backend reports healthy (probed + breaker
/// closed), so steal decisions see a settled farm.
fn wait_all_healthy(gateway: &Gateway, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = gateway.status_json();
        let healthy = (0..n).all(|i| status["backends"][i]["healthy"].as_bool() == Some(true));
        if healthy {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "backends never healthy: {status}"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

/// Find `want` distinct counter designs the rendezvous hash routes to
/// backend 0, so stealing starts from a busy affinity pick by
/// construction.
fn designs_routed_to_first(backends: &[String], want: usize) -> Vec<String> {
    let mut out = Vec::new();
    for bits in 2..64usize {
        let source = fpga_circuits::vhdl_counter(bits);
        let req = CompileRequest::new(SourceFormat::Vhdl, source.clone());
        if affinity_order(&affinity_key("compile", &req), backends)[0] == 0 {
            out.push(source);
            if out.len() == want {
                return out;
            }
        }
    }
    panic!("not enough counter designs hashed to backend 0");
}

#[test]
fn idle_backend_steals_a_job_from_a_busy_affinity_pick() {
    // Backend A sleeps 3s inside its first route stage, so its first
    // job parks in flight; backend B stays idle.
    let node_a = Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        unix_path: None,
        workers: 1,
        queue_capacity: 4,
        fault: Some(Arc::new(FaultPlan::new().on(
            "route",
            1,
            FaultAction::SleepMs(3_000),
        ))),
        ..ServerConfig::default()
    })
    .expect("bind in-process flowd");
    let node_b = start_flowd();
    let backends = vec![
        node_a.tcp_addr().expect("tcp").to_string(),
        node_b.tcp_addr().expect("tcp").to_string(),
    ];
    let designs = designs_routed_to_first(&backends, 2);

    let gateway = Gateway::start(GatewayConfig {
        backends,
        health_interval_ms: 50,
        ..GatewayConfig::default()
    })
    .expect("start gateway");
    wait_all_healthy(&gateway, 2);

    // Job 1 occupies A (asleep in route). Wait until the gateway sees
    // it in flight there.
    let gw_addr = gateway.tcp_addr();
    let slow_source = designs[0].clone();
    let slow = thread::spawn(move || {
        FlowClient::connect_tcp(gw_addr)
            .expect("connect")
            .compile_request(&CompileRequest {
                deadline_ms: Some(60_000),
                ..CompileRequest::new(SourceFormat::Vhdl, &slow_source)
            })
            .expect("slow job completes")
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = gateway.status_json();
        if status["backends"][0]["in_flight"].as_u64() == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "job 1 never in flight: {status}");
        thread::sleep(Duration::from_millis(10));
    }

    // Job 2's affinity pick is the busy A; the idle B must steal it and
    // finish while A is still asleep.
    let stolen = FlowClient::connect_tcp(gateway.tcp_addr())
        .expect("connect")
        .compile_request(&CompileRequest {
            deadline_ms: Some(60_000),
            ..CompileRequest::new(SourceFormat::Vhdl, &designs[1])
        })
        .expect("stolen job completes");
    assert!(!stolen.bitstream.is_empty());
    let metrics = gateway.metrics_json();
    assert!(
        metrics["jobs"]["steals"].as_u64() >= Some(1),
        "steal counted: {metrics}"
    );
    assert!(
        metrics["backends"][1]["steals"].as_u64() >= Some(1),
        "B credited with the steal: {metrics}"
    );

    slow.join().expect("slow job thread");
    gateway.shutdown();
    node_a.shutdown();
    node_b.shutdown();
}

/// `artifact_get`, the deleted fetch verb, as a version-5 peer sends
/// it, gets the ordinary `unknown cmd` error from both roles, and the
/// same connection serves on. A version-5 daemon reads that error as a
/// fetch miss and a version-5 gateway reads it as a peer without the
/// entry, so neither needs a protocol floor. `stats`, the deleted
/// counter verb, gets the same refusal: `metrics` and `status` carry
/// what it had.
#[test]
fn artifact_get_gets_a_plain_refusal_from_both_roles() {
    let backend = start_flowd();
    let backend_addr = backend.tcp_addr().expect("tcp enabled");
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![backend_addr.to_string()],
        ..GatewayConfig::default()
    })
    .expect("start gateway");
    let get = serde_json::json!({
        "cmd": "artifact_get", "stage": "route", "key": "ab".repeat(32), "kind": "routed-design"
    });
    let stats = serde_json::json!({"cmd": "stats"});
    for addr in [backend_addr, gateway.tcp_addr()] {
        for (request, verb) in [(&get, "artifact_get"), (&stats, "stats")] {
            let mut conn = RawConn::connect(addr);
            conn.send(request);
            assert_eq!(
                conn.recv().to_string(),
                format!(r#"{{"event":"error","message":"unknown cmd '{verb}'"}}"#),
                "at {addr}"
            );
            conn.send(&serde_json::json!({"cmd": "ping"}));
            let pong = conn.recv();
            assert_eq!(pong["event"].as_str(), Some("pong"), "{pong}");
        }
    }
    gateway.shutdown();
    backend.shutdown();
}
