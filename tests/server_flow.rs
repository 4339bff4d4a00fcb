//! End-to-end test of the flowd compile service: an in-process daemon,
//! concurrent clients over real TCP sockets, and the content-addressed
//! stage cache underneath them.
//!
//! The acceptance criteria this pins down:
//! * four concurrent clients submitting the *same* design are served by
//!   exactly one computation per stage (single-flight cache): counters
//!   show one miss and three hits per stage, and all four bitstreams are
//!   byte-identical;
//! * a later resubmission recomputes nothing (0 additional misses);
//! * backpressure and graceful shutdown behave as documented;
//! * a cache hit through gateway + flowd over TCP answers in
//!   milliseconds: no hop waits out a Nagle / delayed-ACK stall.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fpga_framework::flow::cache::STAGES;
use fpga_framework::server::{
    CompileRequest, FlowClient, Gateway, GatewayConfig, GovernorConfig, Server, ServerConfig,
    SourceFormat,
};

fn start_server(workers: usize) -> Server {
    Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        unix_path: None,
        workers,
        queue_capacity: 16,
        ..ServerConfig::default()
    })
    .expect("bind in-process flowd")
}

fn connect(server: &Server) -> FlowClient {
    FlowClient::connect_tcp(server.tcp_addr().expect("tcp enabled"))
        .expect("connect to in-process flowd")
}

#[test]
fn four_concurrent_clients_share_one_computation() {
    let server = start_server(4);
    let src = fpga_framework::circuits::vhdl_counter(4);
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let stage_event_count = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for _ in 0..4 {
        let mut client = connect(&server);
        let src = src.clone();
        let barrier = Arc::clone(&barrier);
        let stage_event_count = Arc::clone(&stage_event_count);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let outcome = client
                .compile_request(&CompileRequest::new(SourceFormat::Vhdl, &src))
                .expect("compile succeeds");
            assert!(outcome.job > 0);
            assert_eq!(outcome.stage_events.len(), 8, "one event per stage");
            stage_event_count.fetch_add(outcome.stage_events.len(), Ordering::Relaxed);
            outcome.bitstream
        }));
    }
    let bitstreams: Vec<Vec<u8>> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    assert!(bitstreams[0].len() > 64);
    for other in &bitstreams[1..] {
        assert_eq!(
            &bitstreams[0], other,
            "all clients get byte-identical bitstreams"
        );
    }
    assert_eq!(
        stage_event_count.load(Ordering::Relaxed),
        32,
        "4 clients x 8 stages"
    );

    // Exactly one computation per stage; the other three were hits
    // (single-flight makes this deterministic even though all four ran
    // concurrently).
    for stage in STAGES {
        let s = server.cache().stats(stage);
        assert_eq!(
            (s.misses.get(), s.hits.get()),
            (1, 3),
            "stage {}: one miss, three hits",
            stage.name()
        );
    }

    // A fifth submission after the fact: served entirely from cache —
    // zero recompute stages, verified via the metrics counters.
    let mut client = connect(&server);
    let warm = client
        .compile_request(&CompileRequest::new(SourceFormat::Vhdl, &src))
        .expect("warm compile");
    assert_eq!(warm.bitstream, bitstreams[0]);
    for stage in STAGES {
        let s = server.cache().stats(stage);
        assert_eq!(
            (s.misses.get(), s.hits.get()),
            (1, 4),
            "stage {} fully cached",
            stage.name()
        );
    }
    // Every stage event of the warm run is tagged as a cache hit.
    assert!(warm
        .stage_events
        .iter()
        .all(|e| e["metrics"]["cache"] == serde_json::json!("hit")));

    // Different placement seed: front end reused, back end recomputed.
    let opts = serde_json::json!({"place_seed": 5u64});
    client
        .compile_request(
            &CompileRequest::new(SourceFormat::Vhdl, &src)
                .with_options(opts)
                .expect("valid options"),
        )
        .expect("different-seed compile");
    let place = server.cache().stats(fpga_framework::flow::StageId::Place);
    assert_eq!(place.misses, 2, "new seed re-places");
    let map = server.cache().stats(fpga_framework::flow::StageId::LutMap);
    assert_eq!(
        (map.misses.get(), map.hits.get()),
        (1, 5),
        "front end still shared"
    );

    let metrics = server.metrics_json();
    assert_eq!(metrics["jobs"]["submitted"], serde_json::json!(6u64));
    assert_eq!(metrics["jobs"]["completed"], serde_json::json!(6u64));
    assert_eq!(metrics["jobs"]["failed"], serde_json::json!(0u64));

    server.shutdown();
}

#[test]
fn metrics_ping_and_flow_errors_over_the_wire() {
    let server = start_server(2);
    let mut client = connect(&server);

    let pong = client.ping().expect("ping");
    assert_eq!(pong["event"], serde_json::json!("pong"));
    assert_eq!(
        pong["version"],
        serde_json::json!(fpga_framework::flow::FLOW_VERSION)
    );

    // A flow error comes back as a tagged error event, and the
    // connection stays usable for the next request.
    let err = client
        .compile_request(&CompileRequest::new(SourceFormat::Vhdl, "entity oops"))
        .unwrap_err();
    assert!(err.to_string().contains("synthesis"), "{err}");

    let blif = "
.model majority
.inputs a b c
.outputs y
.names a b c y
11- 1
1-1 1
-11 1
.end";
    let ok = client
        .compile_request(&CompileRequest::new(SourceFormat::Blif, blif))
        .expect("blif still works");
    assert!(!ok.bitstream.is_empty());

    let metrics = client.metrics(false).expect("metrics");
    assert_eq!(metrics["jobs"]["failed"], serde_json::json!(1u64));
    assert_eq!(metrics["jobs"]["completed"], serde_json::json!(1u64));
    assert_eq!(
        metrics["stages"]["bitstream"]["misses"],
        serde_json::json!(1u64)
    );

    server.shutdown();
}

#[test]
fn graceful_shutdown_rejects_new_work() {
    let server = start_server(2);
    let mut client = connect(&server);
    let ack = client.shutdown_server().expect("shutdown ack");
    assert_eq!(ack["event"], serde_json::json!("shutting_down"));

    // The daemon drains and stops; new connections are refused once the
    // listener is gone. Reconnect attempts may briefly succeed while the
    // accept thread unwinds, but a submitted job must be rejected.
    match FlowClient::connect_tcp(server.tcp_addr().expect("tcp")) {
        Err(_) => {} // listener already down
        Ok(mut late) => {
            let blif = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end";
            match late.compile_request(&CompileRequest::new(SourceFormat::Blif, blif)) {
                Err(e) => {
                    let msg = e.to_string();
                    assert!(
                        msg.contains("shutting down")
                            || msg.contains("closed")
                            || msg.contains("reset")
                            || msg.contains("pipe"),
                        "unexpected error: {msg}"
                    );
                }
                Ok(_) => panic!("daemon accepted work after shutdown"),
            }
        }
    }
    server.shutdown();
}

/// The served path's transport, end to end: client -> gateway -> flowd
/// and back over real TCP sockets. With Nagle's algorithm on and a line
/// leaving in two writes, every hop direction waits for the peer's
/// delayed ACK (~44 ms), and a warm compile that computes for a
/// millisecond took a flat 88 ms; `TCP_NODELAY` on every socket plus one
/// write per line leaves 1-2 ms. The bound sits between the two, well
/// under one stall quantum.
#[test]
fn warm_compiles_through_the_gateway_do_not_wait_on_the_wire() {
    let backends = [start_server(1), start_server(1)];
    let gateway = Gateway::start(GatewayConfig {
        backends: backends
            .iter()
            .map(|b| b.tcp_addr().expect("tcp enabled").to_string())
            .collect(),
        // One tenant sends everything: no quota wait in the round trip.
        governor: GovernorConfig {
            tenant_burst: 1_000,
            ..GovernorConfig::default()
        },
        ..GatewayConfig::default()
    })
    .expect("start in-process gateway");
    let mut client = FlowClient::connect_tcp(gateway.tcp_addr()).expect("connect to gateway");

    let src = fpga_framework::circuits::vhdl_counter(4);
    let options = || serde_json::json!({"channel_width": 12u64, "verify_cycles": 0u64});
    let cold = client
        .compile_request(
            &CompileRequest::new(SourceFormat::Vhdl, &src)
                .with_options(options())
                .expect("valid options"),
        )
        .expect("cold fill compiles");

    let mut round_trips_ms: Vec<f64> = (0..30)
        .map(|_| {
            let sent = std::time::Instant::now();
            let warm = client
                .compile_request(
                    &CompileRequest::new(SourceFormat::Vhdl, &src)
                        .with_options(options())
                        .expect("valid options"),
                )
                .expect("warm compile");
            let elapsed = sent.elapsed().as_secs_f64() * 1e3;
            assert_eq!(warm.bitstream, cold.bitstream);
            assert!(warm
                .stage_events
                .iter()
                .all(|e| e["metrics"]["cache_tier"] == serde_json::json!("memory-hit")));
            elapsed
        })
        .collect();
    round_trips_ms.sort_by(f64::total_cmp);
    let median = round_trips_ms[round_trips_ms.len() / 2];
    assert!(
        median < 20.0,
        "median warm round trip {median:.1} ms (all: {round_trips_ms:.1?})"
    );

    gateway.shutdown();
    for backend in backends {
        backend.shutdown();
    }
}
