//! `flowd` — the compile-service daemon (the paper's web-server front
//! end, Fig. 12). Serves newline-delimited JSON over TCP and/or a Unix
//! socket; see `fpga-server`'s crate docs for the protocol, `flowd
//! --help` for the options and README "Operating flowd" for their use.
//! `--fault` is test-only: the crash-recovery harness
//! (`scripts/crash.sh`) stalls a pipeline with it long enough to
//! `kill -9` the daemon.

use std::sync::Arc;

use fpga_flow::cli;
use fpga_flow::fault::{FaultAction, FaultPlan};
use fpga_server::{Server, ServerConfig};

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("tcp", Some("HOST:PORT"), "listen on TCP (default: 127.0.0.1, any free port)"),
    ("unix", Some("PATH"), "listen on a Unix socket (alone: Unix only)"),
    ("workers", Some("N"), "jobs run at once (default: 2)"),
    ("queue", Some("N"), "jobs queued beyond those (default: 32)"),
    ("max-deadline", Some("DUR"), "cap and default of a job's deadline (default: 5m)"),
    ("idle-timeout", Some("DUR"), "drop a connection silent this long (default: 5m)"),
    ("max-line", Some("SIZE"), "longest request line (default: 8m)"),
    ("max-conns", Some("N"), "concurrent connections (default: 256)"),
    ("retry-after", Some("DUR"), "backoff hint sent with a rejection (default: 200ms)"),
    ("cache-dir", Some("DIR"), "keep stage artifacts on disk across restarts"),
    ("cache-budget-mb", Some("N"), "bound the disk cache, evicting LRU (needs --cache-dir)"),
    ("cache-entries", Some("N"), "cap the memory cache (evictees stay on disk)"),
    ("artifact-gateway", Some("HOST:PORT"), "publish computed stages via this gateway"),
    ("artifact-timeout", Some("DUR"), "per-publish timeout (default: 1s)"),
    ("metrics-dump", None, "print the final metrics exposition after shutdown"),
    ("fault", Some("SPEC"), "test-only fault injection, STAGE:K:ACTION[:ARG][,...]"),
];

const FOOTER: &str = "\
durations (DUR) take 250 / 250ms / 30s / 5m / 1h; sizes (SIZE) take
512 / 64k / 8m / 2g — the same spellings flowc accepts. A DUR of 0
disables --max-deadline and --idle-timeout.

--artifact-gateway needs --cache-dir: the gateway copies every computed
stage into two backends' stores. The daemon never fetches, and a publish
failure never fails a job. --fault actions: panic | fail:MSG | sleep:MS.

observe a running daemon with: flowc metrics [--text] | flowc status";

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
    let args = cli::parse_args("flowd [options]", OPTS, 0, FOOTER);

    let mut config = ServerConfig::default();
    if let Some(addr) = args.get("tcp") {
        config.tcp_addr = Some(addr.to_string());
    }
    if let Some(path) = args.get("unix") {
        config.unix_path = Some(path.into());
        // An explicit --unix with no --tcp means unix-only.
        if args.get("tcp").is_none() {
            config.tcp_addr = None;
        }
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "workers") {
        config.workers = n as usize;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "queue") {
        config.queue_capacity = n as usize;
    }
    // 0 disables the corresponding guard.
    if let Some(ms) = cli::opt_duration_ms(&args, "max-deadline") {
        config.max_deadline_ms = (ms > 0).then_some(ms);
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "idle-timeout") {
        config.idle_timeout_ms = (ms > 0).then_some(ms);
    }
    if let Some(bytes) = cli::nonzero(cli::opt_size_bytes, &args, "max-line") {
        config.max_line_bytes = bytes as usize;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "max-conns") {
        config.max_connections = n as usize;
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "retry-after") {
        config.retry_after_ms = ms;
    }
    if let Some(dir) = args.get("cache-dir") {
        config.cache_dir = Some(dir.into());
    }
    if let Some(mb) = cli::opt_u64(&args, "cache-budget-mb") {
        if config.cache_dir.is_none() {
            args.refuse("--cache-budget-mb needs --cache-dir");
        }
        config.cache_budget_mb = Some(mb);
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "cache-entries") {
        config.cache_entries = Some(n as usize);
    }
    if let Some(gw) = args.get("artifact-gateway") {
        if config.cache_dir.is_none() {
            args.refuse("--artifact-gateway needs --cache-dir");
        }
        config.artifact_gateway = Some(gw.to_string());
    }
    if let Some(ms) = cli::nonzero(cli::opt_duration_ms, &args, "artifact-timeout") {
        if config.artifact_gateway.is_none() {
            args.refuse("--artifact-timeout needs --artifact-gateway");
        }
        config.artifact_timeout_ms = ms;
    }
    if let Some(spec) = args.get("fault") {
        match parse_fault_plan(spec) {
            Ok(plan) => config.fault = Some(Arc::new(plan)),
            Err(e) => args.refuse(format!("bad --fault: {e}")),
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
    if args.flag("metrics-dump") {
        // Final observability snapshot for scrapers and CI smoke tests.
        print!("{}", server.metrics_text());
    }
}
