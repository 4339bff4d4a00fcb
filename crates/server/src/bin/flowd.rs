//! `flowd` — the compile-service daemon (the paper's web-server front
//! end, Fig. 12). Serves newline-delimited JSON over TCP and/or a Unix
//! socket; see `fpga-server`'s crate docs for the protocol.
//!
//! Robustness knobs (all optional; see README "Operating flowd"):
//! `--max-deadline DUR` caps/defaults per-job deadlines, `--idle-timeout
//! DUR` drops silent connections, `--max-line SIZE` bounds request
//! lines, `--max-conns N` caps concurrent connections, and
//! `--retry-after DUR` tunes the backoff hint sent with rejections.
//! Durations and sizes use the same spellings `flowc` accepts (`30s`,
//! `5m`, `64k`, `8m`; see `fpga_flow::cli`).
//!
//! Durable cache knobs: `--cache-dir DIR` persists completed stage
//! artifacts on disk so they survive restarts (and crashes),
//! `--cache-budget-mb N` bounds that store with LRU eviction, and
//! `--cache-entries N` caps the in-memory cache (evictees stay
//! reachable on disk).
//!
//! Observability: the `metrics` protocol verb (see `flowc metrics`)
//! reports per-stage latency histograms and cache tiers while running;
//! `--metrics-dump` prints the final Prometheus-style exposition to
//! stdout after a graceful shutdown.
//!
//! Test-only: `--fault STAGE:K:ACTION[:ARG][,...]` injects a
//! deterministic fault on a stage's K-th execution — `panic`,
//! `fail:MSG`, or `sleep:MS`. Used by the crash-recovery
//! harness (`scripts/crash.sh`) to stall a pipeline long enough to
//! `kill -9` it; never set in production.

use std::sync::Arc;

use fpga_flow::cli;
use fpga_flow::fault::{FaultAction, FaultPlan};
use fpga_server::{Server, ServerConfig};

const HELP: &str = "\
flowd — the flow compile-service daemon

usage:
  flowd [--tcp HOST:PORT] [--unix PATH] [--workers N] [--queue N]
        [--max-deadline DUR] [--idle-timeout DUR] [--max-line SIZE]
        [--max-conns N] [--retry-after DUR]
        [--cache-dir DIR] [--cache-budget-mb N] [--cache-entries N]
        [--artifact-gateway HOST:PORT] [--artifact-timeout DUR]
        [--metrics-dump] [--fault SPEC]
  flowd --help | --version

durations (DUR) take 250 / 250ms / 30s / 5m / 1h; sizes (SIZE) take
512 / 64k / 8m / 2g — the same spellings flowc accepts. A DUR of 0
disables that guard.

  --artifact-gateway HOST:PORT
                   publish every computed stage through this gateway,
                   which copies it into two backends' stores (needs
                   --cache-dir); the daemon never fetches, and a
                   publish failure never fails a job
  --artifact-timeout DUR
                   per-publish timeout (default 1s)
  --metrics-dump   after a graceful shutdown, print the final metrics
                   snapshot (Prometheus text exposition) to stdout
  --fault SPEC     test-only deterministic fault injection,
                   STAGE:K:ACTION[:ARG][,...] with panic | fail:MSG |
                   sleep:MS

observe a running daemon with: flowc metrics [--text] | flowc stats";

/// Parse a comma-separated fault spec, e.g.
/// `route:1:sleep:5000,pack:2:panic`.
fn parse_fault_plan(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for rule in spec.split(',').filter(|s| !s.is_empty()) {
        let mut parts = rule.splitn(3, ':');
        let stage = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("missing stage in '{rule}'"))?;
        let k: u64 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad execution count in '{rule}'"))?;
        let action = match parts.next() {
            Some("panic") => FaultAction::Panic,
            Some(rest) => match rest.split_once(':') {
                Some(("fail", msg)) => FaultAction::Fail(msg.to_string()),
                Some(("sleep", ms)) => FaultAction::SleepMs(
                    ms.parse()
                        .map_err(|_| format!("bad sleep duration in '{rule}'"))?,
                ),
                _ => return Err(format!("unknown action in '{rule}'")),
            },
            None => return Err(format!("missing action in '{rule}'")),
        };
        plan = plan.on(stage, k, action);
    }
    Ok(plan)
}

fn main() {
    let args = cli::parse_args(&[
        "tcp",
        "unix",
        "workers",
        "queue",
        "max-deadline",
        "idle-timeout",
        "max-line",
        "max-conns",
        "retry-after",
        "cache-dir",
        "cache-budget-mb",
        "cache-entries",
        "artifact-gateway",
        "artifact-timeout",
        "fault",
    ]);
    cli::handle_version("flowd", &args);
    if args.flags.iter().any(|f| f == "help" || f == "h") {
        println!("{HELP}");
        return;
    }

    let mut config = ServerConfig::default();
    if let Some(addr) = args.options.get("tcp") {
        config.tcp_addr = Some(addr.clone());
    }
    if let Some(path) = args.options.get("unix") {
        config.unix_path = Some(path.into());
        // An explicit --unix with no --tcp means unix-only.
        if !args.options.contains_key("tcp") {
            config.tcp_addr = None;
        }
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "flowd", "workers") {
        config.workers = n as usize;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "flowd", "queue") {
        config.queue_capacity = n as usize;
    }
    // 0 disables the corresponding guard.
    if let Some(ms) = cli::opt_duration_ms(&args, "flowd", "max-deadline") {
        config.max_deadline_ms = (ms > 0).then_some(ms);
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "flowd", "idle-timeout") {
        config.idle_timeout_ms = (ms > 0).then_some(ms);
    }
    if let Some(bytes) = cli::nonzero(cli::opt_size_bytes, &args, "flowd", "max-line") {
        config.max_line_bytes = bytes as usize;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "flowd", "max-conns") {
        config.max_connections = n as usize;
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "flowd", "retry-after") {
        config.retry_after_ms = ms;
    }
    if let Some(dir) = args.options.get("cache-dir") {
        config.cache_dir = Some(dir.into());
    }
    if let Some(mb) = cli::opt_u64(&args, "flowd", "cache-budget-mb") {
        if config.cache_dir.is_none() {
            cli::die("flowd", "--cache-budget-mb needs --cache-dir");
        }
        config.cache_budget_mb = Some(mb);
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "flowd", "cache-entries") {
        config.cache_entries = Some(n as usize);
    }
    if let Some(gw) = args.options.get("artifact-gateway") {
        if config.cache_dir.is_none() {
            cli::die("flowd", "--artifact-gateway needs --cache-dir");
        }
        config.artifact_gateway = Some(gw.clone());
    }
    if let Some(ms) = cli::nonzero(cli::opt_duration_ms, &args, "flowd", "artifact-timeout") {
        if config.artifact_gateway.is_none() {
            cli::die("flowd", "--artifact-timeout needs --artifact-gateway");
        }
        config.artifact_timeout_ms = ms;
    }
    if let Some(spec) = args.options.get("fault") {
        match parse_fault_plan(spec) {
            Ok(plan) => config.fault = Some(Arc::new(plan)),
            Err(e) => cli::die("flowd", format!("bad --fault: {e}")),
        }
    }

    let mut server = match Server::start(config.clone()) {
        Ok(s) => s,
        Err(e) => cli::die("flowd", e),
    };
    eprintln!("flowd {} starting", fpga_flow::FLOW_VERSION);
    if let Some(addr) = server.tcp_addr() {
        eprintln!("flowd listening on tcp://{addr}");
    }
    if let Some(path) = server.unix_path() {
        eprintln!("flowd listening on unix:{}", path.display());
    }
    eprintln!(
        "flowd {} workers, queue depth {} (stop with: flowc shutdown)",
        config.workers, config.queue_capacity
    );
    eprintln!(
        "flowd guards: deadline cap {}, idle timeout {}, max line {} B, max conns {}",
        config
            .max_deadline_ms
            .map_or("off".to_string(), |ms| format!("{ms} ms")),
        config
            .idle_timeout_ms
            .map_or("off".to_string(), |ms| format!("{ms} ms")),
        config.max_line_bytes,
        config.max_connections
    );
    match &config.cache_dir {
        Some(dir) => eprintln!(
            "flowd durable cache: {} (budget {}, memory cap {})",
            dir.display(),
            config
                .cache_budget_mb
                .map_or("unbounded".to_string(), |mb| format!("{mb} MiB")),
            config
                .cache_entries
                .map_or("unbounded".to_string(), |n| format!("{n} entries")),
        ),
        None => eprintln!("flowd durable cache: off (memory only)"),
    }
    match &config.artifact_gateway {
        Some(gw) => eprintln!(
            "flowd replication: publish via {} (timeout {} ms, best-effort)",
            gw, config.artifact_timeout_ms
        ),
        None => eprintln!("flowd replication: off (local cache only)"),
    }
    if config.fault.is_some() {
        eprintln!("flowd FAULT INJECTION ACTIVE (test mode)");
    }
    server.wait();
    eprintln!("flowd drained and stopped");
    if args.flags.iter().any(|f| f == "metrics-dump") {
        // Final observability snapshot for scrapers and CI smoke tests.
        print!("{}", server.metrics_text());
    }
}
