//! Replication acceptance tests (proto v5 `artifact_put`): a node's
//! computed stages reach a peer's durable store through the gateway and
//! serve the peer as disk hits with an identical bitstream, and a dead
//! gateway never holds a job up.
//!
//! All in-process — real TCP, no subprocesses; polling loops rendezvous
//! on observable state with generous ceilings.

use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

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

/// A flowd with a durable store; `artifact_gateway` attaches
/// replication.
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
/// closed), so replication sees a settled farm.
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
fn published_stages_reach_a_peer_store_and_serve_it_as_disk_hits() {
    let dir_a = temp_cache_dir("pub-a");
    let dir_b = temp_cache_dir("pub-b");
    let source = fpga_circuits::vhdl_counter(4);

    // B is the gateway's one backend; A publishes through the gateway.
    let node_b = server_on(&dir_b, None);
    let gateway = Gateway::start(GatewayConfig {
        backends: vec![node_b.tcp_addr().expect("tcp").to_string()],
        health_interval_ms: 50,
        ..GatewayConfig::default()
    })
    .expect("start gateway");
    wait_all_healthy(&gateway, 1);
    let node_a = server_on(&dir_a, Some(gateway.tcp_addr().to_string()));
    let computed = compile(&node_a, &source);

    // Each stage was published before the job moved on: all eight are
    // in B's store.
    let b = node_b.metrics_json();
    assert_eq!(b["cache"]["store"]["writes"].as_u64(), Some(8), "{b}");
    let a = node_a.metrics_json();
    assert_eq!(a["cache"]["remote"]["published"].as_u64(), Some(8), "{a}");

    let served = compile(&node_b, &source);
    assert_eq!(
        served.bitstream, computed.bitstream,
        "replicated entries must reproduce the exact bitstream"
    );
    let b = node_b.metrics_json();
    assert_eq!(
        (
            b["cache"]["disk_hits"].as_u64(),
            b["cache"]["misses"].as_u64()
        ),
        (Some(8), Some(0)),
        "every stage a disk hit on the peer: {b}"
    );
    let gw = gateway.metrics_json();
    assert_eq!(gw["artifacts"]["puts"].as_u64(), Some(8), "{gw}");

    gateway.shutdown();
    node_a.shutdown();
    node_b.shutdown();
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn dead_gateway_never_holds_a_job_up() {
    // A bound-then-dropped listener: connecting to it refuses.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let dir = temp_cache_dir("deadgw");
    let node = server_on(&dir, Some(dead_addr));
    let outcome = compile(&node, &fpga_circuits::vhdl_counter(3));
    assert!(!outcome.bitstream.is_empty());

    // Every offer ended as a failure or, once the breaker opened, a
    // skip that did not dial at all.
    let metrics = node.metrics_json();
    let remote = &metrics["cache"]["remote"];
    let failures = remote["publish_failures"].as_u64().unwrap_or(0);
    let skips = remote["breaker_skips"].as_u64().unwrap_or(0);
    assert_eq!((failures, skips), (3, 5), "{metrics}");
    assert_eq!(remote["published"].as_u64(), Some(0), "{metrics}");

    node.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
