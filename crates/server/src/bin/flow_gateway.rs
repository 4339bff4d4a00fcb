//! `flow-gateway` — the compile-farm front door. Shards jobs across a
//! fleet of `flowd` backends by stage-cache affinity, health-checks and
//! circuit-breaks each backend, fails jobs over when a node dies
//! mid-pipeline, and fair-shares admission across tenants with
//! token-bucket quotas. Speaks the same protocol as `flowd`, so `flowc`
//! points at it unchanged. See README "Scaling out flowd".

use fpga_flow::cli;
use fpga_server::{Gateway, GatewayConfig};

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("backend", Some("HOST:PORT[,...]"), "flowd addresses (required)"),
    ("tcp", Some("HOST:PORT"), "listen address (default: 127.0.0.1, any free port)"),
    ("health-interval", Some("DUR"), "ping each backend this often (default: 500ms)"),
    ("probe-timeout", Some("DUR"), "connect/probe timeout (default: 1s)"),
    ("breaker-failures", Some("N"), "failures in a row that trip a breaker (default: 3)"),
    ("breaker-reopen", Some("DUR"), "base quiet period of a tripped breaker (default: 5s)"),
    ("jitter-seed", Some("N"), "pin breaker jitter for deterministic chaos runs"),
    ("max-inflight", Some("N"), "jobs running across the farm (default: 64)"),
    ("admission-queue", Some("N"), "waiters beyond that before shedding (default: 128)"),
    ("tenant-burst", Some("N"), "token-bucket burst per tenant (default: 8)"),
    ("tenant-rate", Some("N"), "tokens/s refilled per tenant; 0 = none (default: 4)"),
    ("retry-after", Some("DUR"), "floor of the retry_after_ms shed hint (default: 200ms)"),
    ("idle-timeout", Some("DUR"), "drop a connection silent this long (default: 5m)"),
    ("max-line", Some("SIZE"), "longest request line (default: 8m)"),
    ("max-conns", Some("N"), "concurrent connections (default: 256)"),
];

const FOOTER: &str = "\
Jobs shard by stage-cache affinity (rendezvous hashing), so a design's
resubmissions reuse the backend that holds its cached stages; while that
backend is busy an idle peer takes the job, serving what replication put
on its disk and computing the rest. A tripped breaker half-opens after
its quiet period plus up to 50% jitter. A tenant is the request's
`tenant` field, \"anon\" when absent.

durations (DUR) take 250 / 250ms / 30s / 5m; sizes take 512 / 64k / 8m
observe with: flowc status | flowc metrics [--text]";

fn main() {
    let args = cli::parse_args(
        "flow-gateway --backend HOST:PORT[,...] [options]",
        OPTS,
        0,
        FOOTER,
    );

    let mut config = GatewayConfig::default();
    if let Some(addr) = args.get("tcp") {
        config.tcp_addr = addr.to_string();
    }
    match args.get("backend") {
        Some(list) => {
            config.backends = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
        }
        None => args.refuse("--backend HOST:PORT[,...] is required"),
    }
    if let Some(ms) = cli::nonzero(cli::opt_duration_ms, &args, "health-interval") {
        config.health_interval_ms = ms;
    }
    if let Some(ms) = cli::nonzero(cli::opt_duration_ms, &args, "probe-timeout") {
        config.probe_timeout_ms = ms;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "breaker-failures") {
        config.breaker_threshold = n as u32;
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "breaker-reopen") {
        config.breaker_reopen_ms = ms;
    }
    if let Some(seed) = cli::opt_u64(&args, "jitter-seed") {
        config.jitter_seed = seed;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "max-inflight") {
        config.governor.max_inflight = n as usize;
    }
    if let Some(n) = cli::opt_u64(&args, "admission-queue") {
        config.governor.queue_bound = n as usize;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "tenant-burst") {
        config.governor.tenant_burst = n;
    }
    if let Some(n) = cli::opt_u64(&args, "tenant-rate") {
        let milli = n.checked_mul(1_000);
        let milli = milli.unwrap_or_else(|| args.refuse(format!("bad --tenant-rate '{n}'")));
        config.governor.tenant_refill_milli_per_s = milli;
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "retry-after") {
        config.governor.retry_after_ms = ms;
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

    let backends = config.backends.clone();
    let gov = config.governor.clone();
    let (threshold, reopen) = (config.breaker_threshold, config.breaker_reopen_ms);
    let mut gateway = match Gateway::start(config) {
        Ok(g) => g,
        Err(e) => cli::die("flow-gateway", e),
    };
    eprintln!("flow-gateway {} starting", fpga_flow::FLOW_VERSION);
    eprintln!("flow-gateway listening on tcp://{}", gateway.tcp_addr());
    eprintln!(
        "flow-gateway backends: {} (breaker: {} failures, reopen {} ms)",
        backends.join(", "),
        threshold,
        reopen
    );
    eprintln!(
        "flow-gateway admission: {} in flight, queue {}, tenant burst {} @ {}/s (stop with: flowc shutdown)",
        gov.max_inflight,
        gov.queue_bound,
        gov.tenant_burst,
        gov.tenant_refill_milli_per_s / 1_000
    );
    eprintln!("flow-gateway replication: copying published stages to two backends");
    gateway.wait();
    eprintln!("flow-gateway stopped");
}
