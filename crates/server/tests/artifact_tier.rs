//! Shared-artifact-tier acceptance tests (proto v5): a fresh node is
//! served digest-verified stage artifacts from a warm peer through the
//! gateway; a corrupted transfer is quarantined and recomputed with an
//! identical result; a dead gateway — or one answering garbage hex —
//! degrades to plain local compute; and an idle backend steals a job
//! from a busy affinity pick.
//!
//! All in-process — real TCP, no subprocesses; polling loops rendezvous
//! on observable state with generous ceilings.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fpga_flow::fault::{FaultAction, FaultPlan};
use fpga_server::gateway::{affinity_key, affinity_order};
use fpga_server::{
    CompileRequest, FlowClient, Gateway, GatewayConfig, Server, ServerConfig, SourceFormat,
};

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ifdf-artifact-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A flowd with a durable store; `artifact_gateway` attaches the remote
/// tier.
fn server_on(dir: &Path, artifact_gateway: Option<String>) -> Server {
    Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        unix_path: None,
        workers: 1,
        queue_capacity: 4,
        cache_dir: Some(dir.to_path_buf()),
        artifact_gateway,
        ..ServerConfig::default()
    })
    .expect("bind in-process flowd")
}

fn compile(server: &Server, source: &str) -> fpga_server::client::CompileOutcome {
    FlowClient::connect_tcp(server.tcp_addr().expect("tcp enabled"))
        .expect("connect")
        .compile_request(&CompileRequest {
            deadline_ms: Some(60_000),
            ..CompileRequest::new(SourceFormat::Vhdl, source)
        })
        .expect("compile succeeds")
}

/// Wait until every gateway backend reports healthy (probed + breaker
/// closed), so fetch/steal decisions see a settled farm.
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

#[test]
fn fresh_node_is_served_remote_hits_with_an_identical_bitstream() {
    let dir_a = temp_cache_dir("warm-a");
    let dir_b = temp_cache_dir("warm-b");
    let source = fpga_circuits::vhdl_counter(4);

    // Node A computes the design into its durable store; no remote tier.
    let node_a = server_on(&dir_a, None);
    let baseline = compile(&node_a, &source);

    // The gateway fronts A's store for peer fetches.
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![node_a.tcp_addr().expect("tcp").to_string()],
        health_interval_ms: 50,
        ..GatewayConfig::default()
    })
    .expect("start gateway");
    wait_all_healthy(&gateway, 1);

    // Node B is cold (fresh memory, fresh disk) but farm-attached.
    let node_b = server_on(&dir_b, Some(gateway.tcp_addr().to_string()));
    let fetched = compile(&node_b, &source);
    assert_eq!(
        fetched.bitstream, baseline.bitstream,
        "remote artifacts must reproduce the exact bitstream"
    );

    let metrics = node_b.metrics_json();
    let remote_hits = metrics["cache"]["remote_hits"].as_u64().unwrap_or(0);
    assert!(
        remote_hits >= 1,
        "at least one stage served from the peer: {metrics}"
    );
    assert_eq!(
        metrics["cache"]["remote"]["breaker"].as_str(),
        Some("closed")
    );
    assert!(metrics["cache"]["remote"]["fetch_hits"].as_u64() >= Some(1));
    assert!(metrics["cache"]["remote"]["bytes_fetched"].as_u64() >= Some(1));

    // The gateway saw the gets and served bytes from A.
    let gw = gateway.metrics_json();
    assert!(gw["artifacts"]["gets"].as_u64() >= Some(1), "{gw}");
    assert!(gw["artifacts"]["hits"].as_u64() >= Some(1), "{gw}");
    assert!(gw["artifacts"]["bytes_served"].as_u64() >= Some(1), "{gw}");
    assert_eq!(gw["artifacts"]["corrupted"].as_u64(), Some(0));

    gateway.shutdown();
    node_a.shutdown();
    node_b.shutdown();
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn corrupt_transfers_are_quarantined_and_recomputed_identically() {
    let dir_a = temp_cache_dir("rot-a");
    let dir_b = temp_cache_dir("rot-b");
    let source = fpga_circuits::vhdl_counter(5);

    let node_a = server_on(&dir_a, None);
    let baseline = compile(&node_a, &source);

    // This gateway flips one hex digit in every artifact payload it
    // serves — transfers arrive well-formed but digest-invalid.
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![node_a.tcp_addr().expect("tcp").to_string()],
        health_interval_ms: 50,
        corrupt_artifacts: true,
        ..GatewayConfig::default()
    })
    .expect("start gateway");
    wait_all_healthy(&gateway, 1);

    let node_b = server_on(&dir_b, Some(gateway.tcp_addr().to_string()));
    let recomputed = compile(&node_b, &source);
    assert_eq!(
        recomputed.bitstream, baseline.bitstream,
        "corruption must degrade to recompute, never change the QoR"
    );

    let metrics = node_b.metrics_json();
    // Payloads arrived (the client counts transport hits) but none
    // survived verification: zero remote cache hits, every transfer
    // quarantined for autopsy, and the job still completed.
    assert!(
        metrics["cache"]["remote"]["fetch_hits"].as_u64() >= Some(1),
        "{metrics}"
    );
    assert_eq!(
        metrics["cache"]["remote_hits"].as_u64(),
        Some(0),
        "{metrics}"
    );
    assert!(
        metrics["cache"]["store"]["quarantined"].as_u64() >= Some(1),
        "corrupt transfer quarantined: {metrics}"
    );
    let gw = gateway.metrics_json();
    assert!(gw["artifacts"]["corrupted"].as_u64() >= Some(1), "{gw}");

    gateway.shutdown();
    node_a.shutdown();
    node_b.shutdown();
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn dead_gateway_degrades_to_local_compute_within_the_deadline() {
    // A bound-then-dropped listener: connecting to it refuses.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let dir = temp_cache_dir("deadgw");
    let node = server_on(&dir, Some(dead_addr));
    let outcome = compile(&node, &fpga_circuits::vhdl_counter(3));
    assert!(!outcome.bitstream.is_empty());

    let metrics = node.metrics_json();
    assert_eq!(metrics["cache"]["remote_hits"].as_u64(), Some(0));
    let failures = metrics["cache"]["remote"]["fetch_failures"]
        .as_u64()
        .unwrap_or(0);
    let skips = metrics["cache"]["remote"]["breaker_skips"]
        .as_u64()
        .unwrap_or(0);
    assert!(
        failures >= 1,
        "dead gateway shows as fetch failures: {metrics}"
    );
    assert!(
        failures + skips >= 2,
        "after the breaker opens, later stages skip instead of dialing: {metrics}"
    );

    node.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A gateway that answers every `artifact_get` with a hit whose payload
/// is not hex at all — an odd byte count of it inside a multi-byte
/// character, which the pre-table decoder sliced through and panicked
/// on, inside the fetching worker's stage.
#[test]
fn garbage_hex_from_the_gateway_is_a_miss_and_the_job_completes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake gateway");
    let fake_gateway = listener.local_addr().expect("addr").to_string();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut request = String::new();
            let Ok(reader) = stream.try_clone() else {
                continue;
            };
            if BufReader::new(reader).read_line(&mut request).is_err() {
                continue;
            }
            let reply = if request.contains("\"artifact_get\"") {
                "{\"event\":\"artifact\",\"stage\":\"s\",\"key\":\"k\",\"hit\":true,\"data_hex\":\"a\u{e9}1\"}\n"
            } else {
                "{\"event\":\"artifact_ack\",\"stored\":true}\n"
            };
            let _ = stream.write_all(reply.as_bytes());
        }
    });

    let dir = temp_cache_dir("badhex");
    let node = server_on(&dir, Some(fake_gateway));
    let outcome = compile(&node, &fpga_circuits::vhdl_counter(3));
    assert!(!outcome.bitstream.is_empty());

    let metrics = node.metrics_json();
    assert_eq!(metrics["jobs"]["panicked"].as_u64(), Some(0), "{metrics}");
    assert_eq!(metrics["cache"]["remote_hits"].as_u64(), Some(0));
    let remote = &metrics["cache"]["remote"];
    assert_eq!(remote["fetch_hits"].as_u64(), Some(0), "{metrics}");
    assert!(
        remote["fetch_misses"].as_u64() >= Some(1),
        "an undecodable payload counts as a miss: {metrics}"
    );

    node.shutdown();
    let _ = fs::remove_dir_all(&dir);
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
    let node_b = server_on(&temp_cache_dir("steal-b"), None);
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
