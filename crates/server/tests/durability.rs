//! Durable-cache acceptance tests: stage artifacts survive daemon
//! restarts, corruption is quarantined instead of failing jobs, and a
//! job that panics mid-pipeline loses only the stages that had not
//! finished.
//!
//! Each scenario runs two daemon *lifetimes* over one `--cache-dir`:
//! the first populates the store, the second proves what persisted.
//! Workers=1 keeps `FaultPlan` execution counts deterministic, exactly
//! as in the chaos test.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fpga_flow::fault::{FaultAction, FaultPlan};
use fpga_server::client::CompileError;
use fpga_server::{CompileRequest, FlowClient, Server, ServerConfig, SourceFormat};
use serde_json::Value;

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ifdf-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn server_on(dir: &Path, fault: Option<FaultPlan>) -> Server {
    Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        unix_path: None,
        workers: 1,
        queue_capacity: 2,
        cache_dir: Some(dir.to_path_buf()),
        fault: fault.map(Arc::new),
        ..ServerConfig::default()
    })
    .expect("bind in-process flowd")
}

fn compile(server: &Server, source: &str) -> fpga_server::client::CompileOutcome {
    FlowClient::connect_tcp(server.tcp_addr().expect("tcp enabled"))
        .expect("connect")
        .compile_request(&CompileRequest::new(SourceFormat::Vhdl, source))
        .expect("compile succeeds")
}

/// The `"cache"` tag a stage event carries when the cache (memory or
/// disk) served it; absent on a computed stage.
fn cache_tag(ev: &Value) -> Option<&str> {
    ev.get("metrics")?.get("cache")?.as_str()
}

/// Walk the store layout (two-hex shard dirs holding 64-hex entry
/// files) and return every entry path, sorted for determinism.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for shard in fs::read_dir(dir).expect("cache dir exists").flatten() {
        let name = shard.file_name();
        let name = name.to_string_lossy().into_owned();
        if name.len() != 2 || !name.chars().all(|c| c.is_ascii_hexdigit()) {
            continue;
        }
        for entry in fs::read_dir(shard.path()).expect("shard dir").flatten() {
            if entry.file_name().to_string_lossy().len() == 64 {
                out.push(entry.path());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn warm_restart_serves_every_stage_from_disk() {
    let dir = temp_cache_dir("warm");
    let src = fpga_circuits::vhdl_counter(4);

    // Lifetime 1: a cold compile computes everything and persists each
    // stage as it completes.
    let first = server_on(&dir, None);
    let cold = compile(&first, &src);
    assert_eq!(cold.stage_events.len(), 8, "one event per stage");
    assert!(
        cold.stage_events.iter().all(|ev| cache_tag(ev).is_none()),
        "a cold run computes every stage"
    );
    let store = first.cache().store().expect("store attached").clone();
    assert_eq!(
        store.counters().writes,
        8,
        "every completed stage was persisted"
    );
    first.shutdown();

    // Lifetime 2: a fresh daemon (empty memory cache) on the same dir
    // answers the identical job entirely from disk.
    let second = server_on(&dir, None);
    let warm = compile(&second, &src);
    assert_eq!(warm.stage_events.len(), 8);
    for ev in &warm.stage_events {
        assert_eq!(
            cache_tag(ev),
            Some("hit"),
            "warm restart serves from disk: {ev}"
        );
    }
    assert_eq!(warm.bitstream, cold.bitstream, "identical artifact");
    let counters = second.cache().store().expect("store attached").counters();
    assert_eq!(counters.disk_hits, 8, "all eight stages were disk hits");
    assert_eq!(counters.quarantined, 0);

    // `metrics` reports the same numbers (this is what `flowc metrics`
    // and scripts/crash.sh read).
    let store = &second.metrics_json()["cache"]["store"];
    assert_eq!(store["disk_hits"], serde_json::json!(8));
    assert_eq!(store["entries"], serde_json::json!(8));
    second.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A store that cannot persist is visible to a scraper, and costs no
/// job. Every shard path is made a regular file once the daemon is up
/// (the startup scrub would remove them, and the suite may run as root,
/// where a read-only mode bit stops nothing), so no entry can be written.
#[test]
fn unwritable_store_shows_write_errors_in_both_metrics_renderings() {
    let dir = temp_cache_dir("unwritable");
    let server = server_on(&dir, None);
    for shard in 0..=255u8 {
        fs::write(dir.join(format!("{shard:02x}")), b"not a directory").expect("plant shard file");
    }
    let done = compile(&server, &fpga_circuits::vhdl_counter(3));
    assert_eq!(done.stage_events.len(), 8, "the job still completes");
    assert!(!done.bitstream.is_empty());

    let text = server.metrics_text();
    let write_errors = text
        .lines()
        .find_map(|line| line.strip_prefix("flowd_store_write_errors_total "))
        .expect("family exported")
        .parse::<u64>()
        .expect("a count");
    assert_eq!(write_errors, 8, "one failed write per stage:\n{text}");
    assert!(text.contains("\nflowd_store_writes_total 0\n"), "{text}");
    assert!(text.contains("\nflowd_store_scrubbed_total 0\n"), "{text}");
    let store = &server.metrics_json()["cache"]["store"];
    assert_eq!(store["write_errors"], serde_json::json!(8));
    assert_eq!(store["scrubbed"], serde_json::json!(0));
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entry_is_quarantined_and_recomputed_without_failing_the_job() {
    let dir = temp_cache_dir("corrupt");
    let src = fpga_circuits::vhdl_counter(3);

    let first = server_on(&dir, None);
    let cold = compile(&first, &src);
    first.shutdown();

    // Flip one byte in the middle of one stored entry. Stage keys chain
    // through upstream *keys*, not payloads, so the other seven entries
    // stay valid for the resubmit.
    let entries = entry_files(&dir);
    assert_eq!(entries.len(), 8, "one entry per stage on disk");
    let victim = &entries[entries.len() / 2];
    let mut raw = fs::read(victim).expect("read entry");
    let mid = raw.len() / 2;
    raw[mid] ^= 0x40;
    fs::write(victim, &raw).expect("corrupt entry");

    // A fresh daemon must complete the job anyway: the bad entry is
    // quarantined and its stage recomputed (then re-persisted).
    let second = server_on(&dir, None);
    let warm = compile(&second, &src);
    assert_eq!(warm.bitstream, cold.bitstream, "recompute converges");
    let counters = second.cache().store().expect("store attached").counters();
    assert_eq!(counters.quarantined, 1, "exactly the flipped entry");
    assert_eq!(counters.disk_hits, 7, "the other seven still served");
    assert_eq!(counters.writes, 1, "the recomputed stage was re-persisted");
    assert!(
        second.cache().store().expect("store").len() >= 8,
        "store is whole again"
    );
    second.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_mid_pipeline_loses_only_unfinished_stages() {
    let dir = temp_cache_dir("panic");
    let src = fpga_circuits::vhdl_counter(5);

    // Lifetime 1: the job panics at place's fault hook (which fires
    // *before* the cache lookup), so synthesis/lut_map/pack persisted
    // and nothing later did.
    let plan = FaultPlan::new().on("place", 1, FaultAction::Panic);
    let first = server_on(&dir, Some(plan));
    let err = FlowClient::connect_tcp(first.tcp_addr().expect("tcp enabled"))
        .expect("connect")
        .compile_request(&CompileRequest::new(SourceFormat::Vhdl, &src))
        .expect_err("the job panicked mid-pipeline");
    match err {
        CompileError::Failed { kind, .. } => assert_eq!(kind.as_deref(), Some("panic")),
        other => panic!("expected panic, got {other}"),
    }
    first.shutdown();
    assert_eq!(
        entry_files(&dir).len(),
        3,
        "only the stages that finished before the panic persisted"
    );

    // Lifetime 2: a clean daemon resumes from the durable prefix.
    let second = server_on(&dir, None);
    let outcome = compile(&second, &src);
    assert_eq!(outcome.stage_events.len(), 8);
    let tags: Vec<Option<&str>> = outcome.stage_events.iter().map(cache_tag).collect();
    assert_eq!(
        &tags[..3],
        &[Some("hit"); 3],
        "synthesis, lut_map, pack came from disk"
    );
    assert!(
        tags[3..].iter().all(Option::is_none),
        "place onward recomputed: {tags:?}"
    );
    let counters = second.cache().store().expect("store attached").counters();
    assert_eq!(counters.disk_hits, 3);
    assert_eq!(counters.writes, 5, "the recomputed suffix was persisted");
    second.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
