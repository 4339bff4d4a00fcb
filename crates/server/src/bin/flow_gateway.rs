//! `flow-gateway` — the compile-farm front door. Shards jobs across a
//! fleet of `flowd` backends by stage-cache affinity, health-checks and
//! circuit-breaks each backend, fails jobs over when a node dies
//! mid-pipeline, and fair-shares admission across tenants with
//! token-bucket quotas. Speaks the same protocol as `flowd`, so `flowc`
//! points at it unchanged. See README "Scaling out flowd".

use fpga_flow::cli;
use fpga_server::{Gateway, GatewayConfig};

const HELP: &str = "\
flow-gateway — fault-tolerant front door for a flowd compile farm

usage:
  flow-gateway --backend HOST:PORT[,HOST:PORT...] [--tcp HOST:PORT]
               [--health-interval DUR] [--probe-timeout DUR]
               [--breaker-failures N] [--breaker-reopen DUR]
               [--jitter-seed N]
               [--max-inflight N] [--admission-queue N]
               [--tenant-burst N] [--tenant-rate N]
               [--retry-after DUR] [--idle-timeout DUR]
               [--max-line SIZE] [--max-conns N]
  flow-gateway --help | --version

routing:
  --backend LIST        flowd addresses (comma separated, required);
                        jobs shard by stage-cache affinity (rendezvous
                        hashing), so resubmissions of a design reuse the
                        backend that already holds its cached stages;
                        while that backend is busy an idle peer takes
                        the job, serving what replication put on its
                        disk and computing the rest
  --health-interval DUR ping each backend this often (default 500ms)
  --probe-timeout DUR   connect/probe timeout (default 1s)
  --breaker-failures N  consecutive failures that trip a backend's
                        circuit breaker (default 3)
  --breaker-reopen DUR  base quiet period before a tripped breaker
                        half-opens; actual adds up to 50% jitter
                        (default 5s)
  --jitter-seed N       pin breaker jitter for deterministic chaos runs

admission (per-tenant fair share; tenant = request's `tenant` field,
defaulting to \"anon\"):
  --max-inflight N      jobs running across the farm (default 64)
  --admission-queue N   waiters beyond that before shedding (default 128)
  --tenant-burst N      token-bucket burst per tenant (default 8)
  --tenant-rate N       tokens/sec refill per tenant; 0 = no refill
                        (default 4)
  --retry-after DUR     floor for the retry_after_ms shed hint
                        (default 200ms)

guards (same spellings as flowd):
  --idle-timeout DUR, --max-line SIZE, --max-conns N

observe with: flowc status | flowc metrics [--text]
durations (DUR) take 250 / 250ms / 30s / 5m; sizes take 512 / 64k / 8m";

fn main() {
    let args = cli::parse_args(&[
        "tcp",
        "backend",
        "health-interval",
        "probe-timeout",
        "breaker-failures",
        "breaker-reopen",
        "jitter-seed",
        "max-inflight",
        "admission-queue",
        "tenant-burst",
        "tenant-rate",
        "retry-after",
        "idle-timeout",
        "max-line",
        "max-conns",
    ]);
    cli::handle_version("flow-gateway", &args);
    if args.flags.iter().any(|f| f == "help" || f == "h") {
        println!("{HELP}");
        return;
    }

    let mut config = GatewayConfig::default();
    if let Some(addr) = args.options.get("tcp") {
        config.tcp_addr = addr.clone();
    }
    match args.options.get("backend") {
        Some(list) => {
            config.backends = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
        }
        None => cli::die("flow-gateway", "--backend HOST:PORT[,...] is required"),
    }
    if let Some(ms) = cli::nonzero(
        cli::opt_duration_ms,
        &args,
        "flow-gateway",
        "health-interval",
    ) {
        config.health_interval_ms = ms;
    }
    if let Some(ms) = cli::nonzero(cli::opt_duration_ms, &args, "flow-gateway", "probe-timeout") {
        config.probe_timeout_ms = ms;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "flow-gateway", "breaker-failures") {
        config.breaker_threshold = n as u32;
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "flow-gateway", "breaker-reopen") {
        config.breaker_reopen_ms = ms;
    }
    if let Some(seed) = cli::opt_u64(&args, "flow-gateway", "jitter-seed") {
        config.jitter_seed = seed;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "flow-gateway", "max-inflight") {
        config.governor.max_inflight = n as usize;
    }
    if let Some(n) = cli::opt_u64(&args, "flow-gateway", "admission-queue") {
        config.governor.queue_bound = n as usize;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "flow-gateway", "tenant-burst") {
        config.governor.tenant_burst = n;
    }
    if let Some(n) = cli::opt_u64(&args, "flow-gateway", "tenant-rate") {
        config.governor.tenant_refill_milli_per_s = n * 1_000;
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "flow-gateway", "retry-after") {
        config.governor.retry_after_ms = ms;
    }
    if let Some(ms) = cli::opt_duration_ms(&args, "flow-gateway", "idle-timeout") {
        config.idle_timeout_ms = (ms > 0).then_some(ms);
    }
    if let Some(bytes) = cli::nonzero(cli::opt_size_bytes, &args, "flow-gateway", "max-line") {
        config.max_line_bytes = bytes as usize;
    }
    if let Some(n) = cli::nonzero(cli::opt_u64, &args, "flow-gateway", "max-conns") {
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
