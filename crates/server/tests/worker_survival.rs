//! Worker-level fault tolerance: a panic at any stage, or a storm of
//! panicking jobs, is answered job by job and cannot shrink the pool or
//! wedge the daemon.

use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use fpga_flow::cache::STAGES;
use fpga_flow::fault::{FaultAction, FaultPlan};
use fpga_server::client::CompileError;
use fpga_server::{CompileRequest, FlowClient, Server, ServerConfig, SourceFormat};

fn start(workers: usize, queue: usize, plan: FaultPlan) -> Server {
    Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        unix_path: None,
        workers,
        queue_capacity: queue,
        fault: Some(Arc::new(plan)),
        ..ServerConfig::default()
    })
    .expect("bind in-process flowd")
}

fn connect(server: &Server) -> FlowClient {
    FlowClient::connect_tcp(server.tcp_addr().expect("tcp enabled")).expect("connect")
}

#[test]
fn a_panic_at_every_stage_leaves_every_worker_serving() {
    // A `Panic` fault fires once at each of the eight stages. Jobs run
    // one at a time on distinct designs, so job k passes the stages
    // before k and panics at stage k. Then `workers + 1` clean jobs run
    // at once, each under a deadline: a worker lost to any of the
    // panics would leave one of them unanswered.
    const DEADLINE_MS: u64 = 60_000;
    for workers in [1, 3] {
        let mut plan = FaultPlan::new();
        for stage in STAGES {
            plan = plan.on(stage.name(), 1, FaultAction::Panic);
        }
        let server = start(workers, 8, plan);
        for (k, stage) in STAGES.iter().enumerate() {
            let src = fpga_circuits::vhdl_counter(2 + k);
            let err = connect(&server)
                .compile_request(&CompileRequest {
                    deadline_ms: Some(DEADLINE_MS),
                    ..CompileRequest::new(SourceFormat::Vhdl, &src)
                })
                .expect_err("the job panics");
            match err {
                CompileError::Failed { kind, message, .. } => {
                    assert_eq!(kind.as_deref(), Some("panic"), "{message}");
                    let at = format!("injected panic at stage '{}'", stage.name());
                    assert!(message.contains(&at), "{message}");
                }
                other => panic!("expected a panic at {}, got {other}", stage.name()),
            }
        }

        let (tx, rx) = mpsc::channel();
        for i in 0..=workers {
            let mut client = connect(&server);
            let src = fpga_circuits::vhdl_counter(10 + i);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(client.compile_request(&CompileRequest {
                    deadline_ms: Some(DEADLINE_MS),
                    ..CompileRequest::new(SourceFormat::Vhdl, &src)
                }));
            });
        }
        for _ in 0..=workers {
            let outcome = rx
                .recv_timeout(Duration::from_millis(2 * DEADLINE_MS))
                .expect("every clean job is answered")
                .expect("and completes");
            assert_eq!(outcome.stage_events.len(), 8);
        }

        let stats = server.stats_json();
        assert_eq!(stats["jobs"]["panicked"], serde_json::json!(8u64));
        assert_eq!(
            stats["jobs"]["completed"],
            serde_json::json!(workers as u64 + 1)
        );
        assert_eq!(stats["jobs"]["failed"], serde_json::json!(0u64));
        server.shutdown();
    }
}

#[test]
fn a_storm_of_panics_interleaved_with_good_jobs_leaves_the_pool_intact() {
    // 17 clients race 17 distinct designs into a 3-worker pool while
    // the fault plan panics the 2nd, 5th, 9th, 13th, and 16th synthesis
    // execution. Each job enters synthesis exactly once, so exactly 5
    // jobs draw a panic — which 5 depends on scheduling, but the counts
    // cannot: 12 complete, 5 answer with structured panic errors, and
    // the pool never loses a thread.
    const JOBS: usize = 17;
    const PANICS: [u64; 5] = [2, 5, 9, 13, 16];
    let mut plan = FaultPlan::new();
    for k in PANICS {
        plan = plan.on("synthesis", k, FaultAction::Panic);
    }
    let server = start(3, JOBS, plan);

    let barrier = Arc::new(Barrier::new(JOBS));
    let mut handles = Vec::new();
    for i in 0..JOBS {
        let mut client = connect(&server);
        let src = fpga_circuits::vhdl_counter(2 + i);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            client.compile_request(&CompileRequest::new(SourceFormat::Vhdl, &src))
        }));
    }

    let mut done = 0usize;
    let mut panicked = 0usize;
    for h in handles {
        match h.join().expect("client thread") {
            Ok(outcome) => {
                assert_eq!(outcome.stage_events.len(), 8);
                done += 1;
            }
            Err(CompileError::Failed { kind, message, .. }) => {
                assert_eq!(
                    kind.as_deref(),
                    Some("panic"),
                    "unexpected failure: {message}"
                );
                assert!(message.contains("injected panic at stage 'synthesis'"));
                panicked += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(done, JOBS - PANICS.len());
    assert_eq!(panicked, PANICS.len());

    let stats = server.stats_json();
    assert_eq!(stats["jobs"]["submitted"], serde_json::json!(JOBS as u64));
    assert_eq!(
        stats["jobs"]["completed"],
        serde_json::json!((JOBS - PANICS.len()) as u64)
    );
    assert_eq!(
        stats["jobs"]["panicked"],
        serde_json::json!(PANICS.len() as u64)
    );
    assert_eq!(stats["jobs"]["rejected"], serde_json::json!(0u64));
    assert_eq!(stats["workers"]["configured"], serde_json::json!(3u64));
    server.shutdown();
}
