//! The served workloads: `serve_hot` and `serve_churn`. A request is one
//! compile round trip through an in-process farm (`flow-gateway` in front
//! of two `flowd`, all started through their public `start` functions).
//!
//! Closed loop on purpose: `flowc` callers wait for their reply, and an
//! open-loop generator plus three daemons on two cores would measure the
//! scheduler.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fpga_flow::{run_blif, run_vhdl, FlowArtifacts, FlowOptions};
use fpga_netlist::Netlist;
use fpga_server::gateway::{affinity_key, affinity_order};
use fpga_server::proto::{self, Event, EventParseError, Request};
use fpga_server::{
    CompileRequest, FlowClient, Gateway, GatewayConfig, GovernorConfig, Server, ServerConfig,
    SourceFormat,
};
use serde_json::{Map, Value};

use crate::cold::{qor_values, Qor, PLACE_EFFORT};
use crate::report::{peak_rss_mb, Checks, Outcome};
use crate::spans::Recorder;
use crate::stats::{mean, median, percentile};

/// Farm set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const CLIENTS: u64 = 2;
/// `serve_churn`: in-memory cache entries per backend (one design's
/// stages), so repeats fall through to the disk tier.
const CHURN_CACHE_ENTRIES: usize = 8;
/// `serve_churn`: every Nth request of a client carries a fresh seed.
const FRESH_EVERY: u64 = 5;
/// Fresh-seed responses recomputed in-process after the timed phase, per
/// client (the first ones; bounds the check's cost).
const FRESH_CHECKED: usize = 16;
/// Requests of the gateway-vs-direct comparison in the traced run.
const HOP_REQUESTS: usize = 24;
/// Exchanges kept per client for the protocol micro-benches.
const CAPTURED_LINES: usize = 24;
/// Responses at or above this many bytes count as large.
const LARGE_RESPONSE: usize = 64 * 1024;

/// One source of the request pool.
pub struct Entry {
    pub name: String,
    pub format: SourceFormat,
    pub source: String,
    pub width: usize,
    /// The generated netlist behind a BLIF entry.
    pub netlist: Option<Netlist>,
    /// Small enough to recompute on a fresh seed inside the timed phase.
    fresh_ok: bool,
}

/// The fixed 10-source pool: 3 VHDL counters and 7 BLIF designs, every
/// channel width pinned so the cold fill stays short. Returns the pool
/// and the milliseconds spent generating it.
pub fn pool() -> (Vec<Entry>, f64) {
    let t = Instant::now();
    let mut entries: Vec<Entry> = [8usize, 12, 16]
        .into_iter()
        .map(|bits| Entry {
            name: format!("vhdl_counter{bits}"),
            format: SourceFormat::Vhdl,
            source: fpga_circuits::vhdl_counter(bits),
            width: 10,
            netlist: None,
            fresh_ok: true,
        })
        .collect();
    let blif = [
        ("alu8", fpga_circuits::alu(8), 11, false),
        ("mult8", fpga_circuits::multiplier(8), 15, false),
        ("crc16", fpga_circuits::crc(16, 0x1021), 8, true),
        ("fsm_chain_4x8", fpga_circuits::fsm_chain(4, 8), 9, true),
        ("add32", fpga_circuits::ripple_adder(32), 8, false),
        ("mult12", fpga_circuits::multiplier(12), 22, false),
        ("mult16", fpga_circuits::multiplier(16), 28, false),
    ];
    for (name, netlist, width, fresh_ok) in blif {
        entries.push(Entry {
            name: name.to_string(),
            format: SourceFormat::Blif,
            source: fpga_netlist::blif::write(&netlist).expect("suite designs have a BLIF form"),
            width,
            netlist: Some(netlist),
            fresh_ok,
        });
    }
    (entries, t.elapsed().as_secs_f64() * 1e3)
}

/// The request a client sends for a pool entry; `place_seed` is set only
/// on fresh-seed requests (the default seed is the warm one).
fn request(e: &Entry, place_seed: Option<u64>, trace: bool) -> CompileRequest {
    let mut o = Map::new();
    o.insert("place_effort".into(), PLACE_EFFORT.into());
    o.insert("channel_width".into(), e.width.into());
    if let Some(seed) = place_seed {
        o.insert("place_seed".into(), seed.into());
    }
    let mut req = CompileRequest::new(e.format, e.source.clone())
        .with_options(Value::Object(o))
        .expect("the benchmark's options are valid");
    req.threads = Some(1);
    req.trace = trace;
    req
}

/// The options the daemon materializes for [`request`], at one thread.
pub fn reference_options(e: &Entry, place_seed: Option<u64>) -> FlowOptions {
    let mut opts = request(e, place_seed, false)
        .flow_options()
        .expect("the benchmark's options are valid");
    opts.threads = Some(1);
    opts
}

/// The same (source, options) compiled in-process, without any cache:
/// the reference every served bitstream must byte-equal.
pub fn reference(e: &Entry, place_seed: Option<u64>) -> Result<FlowArtifacts, String> {
    let opts = reference_options(e, place_seed);
    match e.format {
        SourceFormat::Vhdl => run_vhdl(&e.source, &opts),
        SourceFormat::Blif => run_blif(&e.source, &opts),
    }
    .map_err(|e| e.to_string())
}

/// xorshift64*: the request draws. Seeds the plan only; the program under
/// test sees just the requests. The benchmark keeps its own generator so
/// that no change to the repository can alter the inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(
            (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
                | 1,
        )
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() >> 33) as usize % n
    }
}

/// One client's seeded request sequence.
struct Plan {
    rng: Rng,
    seed: u64,
    client: u64,
    /// Mix in fresh-seed requests (`serve_churn`).
    fresh: bool,
    sent: u64,
}

impl Plan {
    fn new(seed: u64, client: u64, fresh: bool) -> Self {
        Plan {
            rng: Rng::new(seed, client),
            seed,
            client,
            fresh,
            sent: 0,
        }
    }

    /// Uniform over the pool; every `FRESH_EVERY`th request instead takes
    /// the next small design in turn (from a seeded start, so every run
    /// recomputes the same mix) with a place seed no request has carried.
    fn next(&mut self, pool: &[Entry]) -> (usize, Option<u64>) {
        let k = self.sent;
        self.sent += 1;
        if self.fresh && k % FRESH_EVERY == FRESH_EVERY - 1 {
            let small: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].fresh_ok).collect();
            let turn = (self.seed + self.client + k / FRESH_EVERY) as usize;
            let entry = small[turn % small.len()];
            let seed = 0x5EED_0000_0000 + ((self.seed & 0xFFFF) << 28) + (self.client << 24) + k;
            return (entry, Some(seed));
        }
        (self.rng.below(pool.len()), None)
    }
}

/// gateway + 2 backends, each backend with a disk store and the shared
/// artifact tier pointed back at the gateway.
struct Farm {
    backends: Vec<Server>,
    gateway: Gateway,
    root: PathBuf,
}

impl Farm {
    fn start(root: &Path, cache_entries: Option<usize>) -> Result<Farm, String> {
        let _ = std::fs::remove_dir_all(root);
        // The backends need the gateway's address before it exists:
        // reserve a port, release it, and start the gateway on it last.
        let gw_addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("cannot reserve a gateway port: {e}"))?;
        let stop = |backends: Vec<Server>, why: String| {
            backends.into_iter().for_each(Server::shutdown);
            Err(why)
        };
        let mut backends = Vec::new();
        for i in 0..2 {
            match Server::start(ServerConfig {
                workers: 1,
                cache_dir: Some(root.join(format!("backend{i}"))),
                cache_entries,
                artifact_gateway: Some(gw_addr.to_string()),
                threads: Some(1),
                ..ServerConfig::default()
            }) {
                Ok(server) => backends.push(server),
                Err(e) => return stop(backends, format!("cannot start flowd {i}: {e}")),
            }
        }
        let gateway = match Gateway::start(GatewayConfig {
            tcp_addr: gw_addr.to_string(),
            backends: backends
                .iter()
                .map(|b| backend_addr(b).to_string())
                .collect(),
            health_interval_ms: 50,
            // The default 4 jobs/s tenant quota would shed a closed loop
            // that runs tens of requests per second.
            governor: GovernorConfig {
                tenant_burst: 1_000_000,
                tenant_refill_milli_per_s: 1_000_000_000,
                ..GovernorConfig::default()
            },
            ..GatewayConfig::default()
        }) {
            Ok(gateway) => gateway,
            Err(e) => {
                return stop(
                    backends,
                    format!("cannot start the gateway on {gw_addr}: {e}"),
                )
            }
        };
        let farm = Farm {
            backends,
            gateway,
            root: root.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = farm.gateway.status_json();
            if (0..2).all(|i| status["backends"][i]["healthy"].as_bool() == Some(true)) {
                return Ok(farm);
            }
            if Instant::now() > deadline {
                farm.shutdown();
                return Err(format!("backends never became healthy: {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn shutdown(self) {
        self.gateway.shutdown();
        for b in self.backends {
            b.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }

    /// Cache-tier, queue and gateway counters, summed over the farm.
    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for b in &self.backends {
            let m = b.metrics_json();
            let n = |v: &Value| v.as_u64().unwrap_or(0) as f64;
            c.memory += n(&m["cache"]["memory_hits"]);
            c.disk += n(&m["cache"]["disk_hits"]);
            c.remote += n(&m["cache"]["remote_hits"]);
            c.miss += n(&m["cache"]["misses"]);
            let r = &m["cache"]["remote"];
            c.fetches += n(&r["fetch_hits"]) + n(&r["fetch_misses"]) + n(&r["fetch_failures"]);
            c.queue_peak = c.queue_peak.max(n(&m["queue"]["peak"]));
        }
        let jobs = &self.gateway.metrics_json()["jobs"];
        c.failovers = jobs["failovers"].as_u64().unwrap_or(0) as f64;
        c.steals = jobs["steals"].as_u64().unwrap_or(0) as f64;
        c.shed = jobs["shed"].as_u64().unwrap_or(0) as f64;
        c
    }
}

fn backend_addr(b: &Server) -> SocketAddr {
    b.tcp_addr().expect("backends listen on TCP")
}

#[derive(Default, Clone, Copy)]
struct Counters {
    memory: f64,
    disk: f64,
    remote: f64,
    miss: f64,
    fetches: f64,
    queue_peak: f64,
    failovers: f64,
    steals: f64,
    shed: f64,
}

impl Counters {
    /// What happened between `before` and `self` (the peak stays a peak).
    fn since(self, before: Counters) -> Counters {
        Counters {
            memory: self.memory - before.memory,
            disk: self.disk - before.disk,
            remote: self.remote - before.remote,
            miss: self.miss - before.miss,
            fetches: self.fetches - before.fetches,
            queue_peak: self.queue_peak,
            failovers: self.failovers - before.failovers,
            steals: self.steals - before.steals,
            shed: self.shed - before.shed,
        }
    }

    fn lookups(&self) -> f64 {
        (self.memory + self.disk + self.remote + self.miss).max(1.0)
    }
}

/// What a client learns from one `done`.
struct Reply {
    bitstream: Vec<u8>,
    report: Value,
    stage_events: Vec<Value>,
    trace: Option<Value>,
    req_line: String,
    done_line: String,
    resp_bytes: usize,
}

/// A connection that speaks the wire protocol through the crate's public
/// `proto` functions and keeps the raw lines, for the traced run.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(RawClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn compile(&mut self, req: &CompileRequest) -> Result<Reply, String> {
        // Sent exactly as `FlowClient` sends it (same public function, no
        // socket options), so both clients see the same wire behaviour.
        let value = Request::Compile(Box::new(req.clone())).to_value();
        proto::write_line(&mut self.writer, &value).map_err(|e| format!("send: {e}"))?;
        let req_line = format!("{value}\n");
        let mut stage_events = Vec::new();
        let mut resp_bytes = 0;
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".to_string());
            }
            resp_bytes += n;
            let raw: Value =
                serde_json::from_str(line.trim_end()).map_err(|e| format!("bad event: {e}"))?;
            match proto::parse_event(&raw) {
                Ok(Event::Queued { .. }) | Err(EventParseError::Unknown(_)) => {}
                Ok(Event::Stage { .. }) => stage_events.push(raw),
                Ok(Event::Done {
                    bitstream_hex,
                    report,
                    trace,
                    ..
                }) => {
                    return Ok(Reply {
                        bitstream: proto::from_hex(&bitstream_hex)?,
                        report,
                        stage_events,
                        trace,
                        req_line,
                        done_line: line,
                        resp_bytes,
                    })
                }
                Ok(other) => {
                    return Err(format!("terminal event was not done: {}", other.to_value()))
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// `FlowClient` is what `flowc` users have, so the timed phase goes
/// through it; the traced phase needs the raw lines.
enum Conn {
    Typed(FlowClient),
    Raw(RawClient),
}

impl Conn {
    fn connect(addr: SocketAddr, raw: bool) -> Result<Conn, String> {
        if raw {
            RawClient::connect(addr).map(Conn::Raw)
        } else {
            FlowClient::connect_tcp(addr).map(Conn::Typed)
        }
        .map_err(|e| format!("cannot connect to {addr}: {e}"))
    }

    fn compile(&mut self, req: &CompileRequest) -> Result<Reply, String> {
        match self {
            Conn::Raw(c) => c.compile(req),
            Conn::Typed(c) => c
                .compile_request(req)
                .map(|o| Reply {
                    bitstream: o.bitstream,
                    report: o.report,
                    stage_events: o.stage_events,
                    trace: o.trace,
                    req_line: String::new(),
                    done_line: String::new(),
                    resp_bytes: 0,
                })
                .map_err(|e| e.to_string()),
        }
    }
}

struct Sample {
    entry: usize,
    fresh: bool,
    latency_ms: f64,
    /// At least one stage of this request was computed, not served.
    recomputed: bool,
    req_bytes: usize,
    resp_bytes: usize,
    /// Sum of the daemon's stage spans (traced requests only).
    stage_ms: f64,
}

/// One traced exchange kept for the protocol micro-benchmarks.
pub struct Capture {
    pub req_line: String,
    pub done_line: String,
    pub bitstream: Vec<u8>,
}

#[derive(Default)]
struct ClientResult {
    samples: Vec<Sample>,
    /// (entry, place seed, served bitstream) of fresh-seed responses kept
    /// for the in-process recompute check.
    fresh: Vec<(usize, u64, Vec<u8>)>,
    checks: Checks,
    captured: Vec<Capture>,
    sent: u64,
}

enum Stop {
    After(Duration),
    Count(usize),
}

/// One closed-loop client: send, wait for `done`, check, repeat. With
/// several addresses (the backends) each request goes to the one the
/// gateway's rendezvous hash would pick.
fn client_loop(
    addrs: &[SocketAddr],
    pool: &[Entry],
    refs: &[FlowArtifacts],
    mut plan: Plan,
    stop: Stop,
    mut rec: Option<&mut Recorder>,
) -> ClientResult {
    let traced = rec.is_some();
    let names: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    let mut conns: Vec<Option<Conn>> = addrs.iter().map(|_| None).collect();
    let mut out = ClientResult::default();
    let start = Instant::now();
    loop {
        match stop {
            Stop::After(d) if start.elapsed() >= d => break,
            Stop::Count(n) if plan.sent as usize >= n => break,
            _ => {}
        }
        let (entry, fresh_seed) = plan.next(pool);
        let e = &pool[entry];
        let req = request(e, fresh_seed, traced);
        let to = match addrs {
            [_] => 0,
            _ => affinity_order(&affinity_key("compile", &req), &names)[0],
        };
        if conns[to].is_none() {
            match Conn::connect(addrs[to], traced) {
                Ok(c) => conns[to] = Some(c),
                Err(why) => {
                    out.checks.check(false, || why);
                    continue;
                }
            }
        }
        let conn = conns[to].as_mut().expect("connected above");

        let t = Instant::now();
        let (reply, stage_ms) = match rec.as_deref_mut() {
            None => (conn.compile(&req), 0.0),
            Some(rec) => {
                rec.set_request(plan.client << 32 | (plan.sent - 1));
                rec.span("request", |rec| {
                    let reply = conn.compile(&req);
                    // The daemon's own stage spans, aligned at the request
                    // start: durations exact, position approximate.
                    let trace = reply.as_ref().ok().and_then(|r| r.trace.as_ref());
                    let spans = trace
                        .and_then(|t| fpga_flow::spans_from_value(t).ok())
                        .unwrap_or_default();
                    for s in &spans {
                        let name = format!("flowd:{}", s.stage);
                        rec.child_at_offset(&name, s.start_us, s.duration_us());
                    }
                    let stage_us: u64 = spans.iter().map(|s| s.duration_us()).sum();
                    (reply, stage_us as f64 / 1e3)
                })
            }
        };
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;

        let reply = match reply {
            Ok(r) => r,
            Err(why) => {
                out.checks.check(false, || format!("{}: {why}", e.name));
                conns[to] = None; // the stream may be mid-response
                continue;
            }
        };
        match fresh_seed {
            None => {
                out.checks
                    .check(reply.bitstream == refs[entry].bitstream_bytes, || {
                        format!(
                            "{}: served bitstream differs from the in-process reference",
                            e.name
                        )
                    });
            }
            Some(seed) => {
                out.checks.check(!reply.bitstream.is_empty(), || {
                    format!("{}: empty bitstream", e.name)
                });
                if out.fresh.len() < FRESH_CHECKED {
                    out.fresh.push((entry, seed, reply.bitstream.clone()));
                }
            }
        }
        out.samples.push(Sample {
            entry,
            fresh: fresh_seed.is_some(),
            latency_ms,
            recomputed: reply
                .stage_events
                .iter()
                .any(|ev| ev["metrics"]["cache"].as_str() != Some("hit")),
            req_bytes: reply.req_line.len(),
            resp_bytes: reply.resp_bytes,
            stage_ms,
        });
        if traced && out.captured.len() < CAPTURED_LINES {
            out.captured.push(Capture {
                req_line: reply.req_line,
                done_line: reply.done_line,
                bitstream: reply.bitstream,
            });
        }
    }
    out.sent = plan.sent;
    out
}

/// `CLIENTS` concurrent closed-loop clients against the gateway. With
/// `epoch` set the phase is traced and the merged recorder is returned.
fn phase(
    farm: &Farm,
    pool: &[Entry],
    refs: &[FlowArtifacts],
    seed: u64,
    fresh: bool,
    seconds: f64,
    epoch: Option<Instant>,
) -> (Vec<ClientResult>, f64, Option<Recorder>) {
    let gateway = [farm.gateway.tcp_addr()];
    let t = Instant::now();
    let results: Vec<(ClientResult, Option<Recorder>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut rec = epoch.map(Recorder::new);
                    let plan = Plan::new(seed, client, fresh);
                    let stop = Stop::After(Duration::from_secs_f64(seconds));
                    let r = client_loop(&gateway, pool, refs, plan, stop, rec.as_mut());
                    (r, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut merged = epoch.map(Recorder::new);
    let mut clients = Vec::new();
    for (r, rec) in results {
        if let (Some(m), Some(rec)) = (merged.as_mut(), rec) {
            m.absorb(rec);
        }
        clients.push(r);
    }
    (clients, wall_s, merged)
}

/// Start a farm and fill it cold: every pool entry once through the
/// gateway, each reply checked against the reference. Returns the farm
/// and the QoR the farm served.
fn setup_farm(
    root: &Path,
    workload: &str,
    pool: &[Entry],
    refs: &[FlowArtifacts],
    checks: &mut Checks,
) -> Result<(Farm, Vec<Qor>), String> {
    let cache_entries = (workload == "serve_churn").then_some(CHURN_CACHE_ENTRIES);
    let farm = Farm::start(root, cache_entries)?;
    let mut conn = Conn::connect(farm.gateway.tcp_addr(), false)?;
    let mut qors = Vec::new();
    for (e, reference) in pool.iter().zip(refs) {
        match conn.compile(&request(e, None, false)) {
            Ok(reply) => {
                checks.check(reply.bitstream == reference.bitstream_bytes, || {
                    format!(
                        "{}: cold-fill bitstream differs from the in-process reference",
                        e.name
                    )
                });
                let q = &reply.report["qor"];
                qors.push(Qor {
                    fmax_mhz: q["fmax_mhz"].as_f64().unwrap_or(0.0),
                    wirelength: q["wirelength"].as_f64().unwrap_or(0.0),
                    channel_width: q["channel_width"].as_f64().unwrap_or(0.0),
                    power_mw: q["power_mw"].as_f64().unwrap_or(0.0),
                });
            }
            Err(why) => {
                farm.shutdown();
                return Err(format!("cold fill of {} failed: {why}", e.name));
            }
        }
    }
    // Warm the peer too: a stolen job must find the same memory tier as
    // one that lands on its owner, or the run's memory use and hit shares
    // would depend on which jobs the gateway happened to steal.
    let names: Vec<String> = farm
        .backends
        .iter()
        .map(|b| backend_addr(b).to_string())
        .collect();
    let mut peers: Vec<Conn> = Vec::new();
    for b in &farm.backends {
        peers.push(Conn::connect(backend_addr(b), false)?);
    }
    for (e, reference) in pool.iter().zip(refs) {
        let req = request(e, None, false);
        let owner = affinity_order(&affinity_key("compile", &req), &names)[0];
        for (i, peer) in peers.iter_mut().enumerate().filter(|(i, _)| *i != owner) {
            let warmed = peer
                .compile(&req)
                .is_ok_and(|r| r.bitstream == reference.bitstream_bytes);
            checks.check(warmed, || format!("{}: warming backend {i} failed", e.name));
        }
    }
    Ok((farm, qors))
}

fn references(pool: &[Entry]) -> Vec<FlowArtifacts> {
    pool.iter()
        .map(|e| {
            reference(e, None)
                .unwrap_or_else(|why| panic!("reference compile of {}: {why}", e.name))
        })
        .collect()
}

/// Guards that fail the run rather than report a misleading number.
fn validity_guards(
    workload: &str,
    clients: &[ClientResult],
    delta: &Counters,
    checks: &mut Checks,
) {
    let lookups = delta.lookups();
    if workload == "serve_hot" {
        checks.check(delta.memory / lookups >= 0.95, || {
            format!(
                "serve_hot memory-hit share {:.3} < 0.95",
                delta.memory / lookups
            )
        });
    } else {
        checks.check(delta.disk / lookups >= 0.5, || {
            format!(
                "serve_churn disk-hit share {:.3} < 0.5",
                delta.disk / lookups
            )
        });
        let samples: Vec<&Sample> = clients.iter().flat_map(|c| &c.samples).collect();
        let share =
            samples.iter().filter(|s| s.recomputed).count() as f64 / samples.len().max(1) as f64;
        checks.check((0.15..=0.25).contains(&share), || {
            format!("serve_churn recomputing-request share {share:.3} outside 0.15-0.25")
        });
    }
    checks.check(delta.shed == 0.0 && delta.failovers == 0.0, || {
        format!(
            "gateway shed {} / failed over {} requests",
            delta.shed, delta.failovers
        )
    });
    for (i, c) in clients.iter().enumerate() {
        let answered = c.samples.len() as u64;
        checks.check(answered == c.sent, || {
            format!(
                "client {i}: {} planned requests sent, {answered} answered with done",
                c.sent
            )
        });
    }
}

/// Recompute the kept fresh-seed responses in-process and compare bytes.
fn check_fresh(pool: &[Entry], clients: &[ClientResult], checks: &mut Checks) {
    for (entry, seed, served) in clients.iter().flat_map(|c| &c.fresh) {
        let e = &pool[*entry];
        match reference(e, Some(*seed)) {
            Ok(art) => checks.check(art.bitstream_bytes == *served, || {
                format!(
                    "{} seed {seed}: served bitstream differs from the in-process recompute",
                    e.name
                )
            }),
            Err(why) => checks.check(false, || format!("{} seed {seed}: {why}", e.name)),
        };
    }
}

/// The untraced run: every end-to-end metric.
pub fn timed(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    let root = crate::scratch_dir();
    // The references are the benchmark's own checking work, not set-up a
    // user would pay: computed once, outside the timed set-ups.
    let (pool, _) = pool();
    let refs = references(&pool);
    let mut setups = Vec::new();
    let mut set_up = |checks: &mut Checks| {
        let t = Instant::now();
        let (pool, _) = self::pool();
        match setup_farm(&root, workload, &pool, &refs, checks) {
            Ok(ok) => {
                setups.push(t.elapsed().as_secs_f64());
                Some(ok)
            }
            Err(why) => {
                checks.check(false, || why);
                None
            }
        }
    };
    let Some((farm, qors)) = set_up(&mut checks) else {
        return Outcome::failed(checks);
    };

    let before = farm.counters();
    let fresh = workload == "serve_churn";
    let (clients, wall_s, _) = phase(&farm, &pool, &refs, seed, fresh, seconds, None);
    let delta = farm.counters().since(before);
    // One farm's lifetime, not three: the remaining set-ups run after the
    // peak is read, so memory left over from a previous farm cannot leak
    // into the number.
    let peak_rss = peak_rss_mb();
    farm.shutdown();
    for _ in 1..SETUP_REPEATS {
        if let Some((farm, _)) = set_up(&mut checks) {
            farm.shutdown();
        }
    }

    clients.iter().for_each(|c| checks.absorb(&c.checks));
    validity_guards(workload, &clients, &delta, &mut checks);
    check_fresh(&pool, &clients, &mut checks);

    let samples: Vec<&Sample> = clients.iter().flat_map(|c| &c.samples).collect();
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let per_design: f64 = (0..pool.len())
        .map(|i| {
            let of: Vec<f64> = samples
                .iter()
                .filter(|s| s.entry == i && !s.fresh)
                .map(|s| s.latency_ms)
                .collect();
            median(&of) / 1e3
        })
        .sum();
    let beyond = lat.len() - (0.95 * lat.len() as f64).ceil() as usize;
    eprintln!(
        "flowbench: {workload}: {} requests from {CLIENTS} clients in {wall_s:.1} s; {beyond} samples beyond req_p95_ms; hits memory {:.3} disk {:.3} remote {:.3} miss {:.3}; {} steals",
        lat.len(),
        delta.memory / delta.lookups(),
        delta.disk / delta.lookups(),
        delta.remote / delta.lookups(),
        delta.miss / delta.lookups(),
        delta.steals,
    );
    eprintln!(
        "flowbench: {workload}: latency ms p50 {:.2} p75 {:.2} p90 {:.2} p95 {:.2} p99 {:.2} max {:.2}",
        median(&lat),
        percentile(&lat, 0.75),
        percentile(&lat, 0.90),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
        percentile(&lat, 1.0),
    );
    let mut values = vec![
        ("setup_s", median(&setups)),
        ("compile_s", per_design),
        ("req_p50_ms", median(&lat)),
        ("req_p95_ms", percentile(&lat, 0.95)),
        ("req_per_s", lat.len() as f64 / wall_s),
        ("peak_rss_mb", peak_rss),
    ];
    values.extend(qor_values(&qors));
    values.push(("ok_share", checks.ok_share()));
    Outcome {
        checks,
        values,
        spans: Vec::new(),
    }
}

/// The traced run: every per-layer metric this workload exercises.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    let root = crate::scratch_dir();
    let (pool, build_ms) = pool();
    let refs = references(&pool);
    let (farm, _) = match setup_farm(&root.join("farm"), workload, &pool, &refs, &mut checks) {
        Ok(ok) => ok,
        Err(why) => {
            checks.check(false, || why);
            return Outcome::failed(checks);
        }
    };
    let fresh = workload == "serve_churn";

    // Untraced reference for the tracing overhead, then the traced phase.
    let (plain, _, _) = phase(&farm, &pool, &refs, seed, fresh, seconds / 4.0, None);
    let before = farm.counters();
    let epoch = Instant::now();
    let (mut clients, _, rec) = phase(
        &farm,
        &pool,
        &refs,
        seed + 1,
        fresh,
        seconds / 2.0,
        Some(epoch),
    );
    let delta = farm.counters().since(before);
    let rec = rec.expect("traced phase returns its recorder");

    // The same requests through the gateway and straight to their owner.
    let owners: Vec<SocketAddr> = farm.backends.iter().map(backend_addr).collect();
    let hop = |addrs: &[SocketAddr]| {
        let plan = Plan::new(seed + 2, 0, false);
        client_loop(addrs, &pool, &refs, plan, Stop::Count(HOP_REQUESTS), None)
    };
    let hops = [hop(&[farm.gateway.tcp_addr()]), hop(&owners)];
    farm.shutdown();

    for c in plain.iter().chain(&clients).chain(&hops) {
        checks.absorb(&c.checks);
    }
    validity_guards(workload, &clients, &delta, &mut checks);
    check_fresh(&pool, &clients, &mut checks);

    let captured: Vec<Capture> = clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.captured))
        .collect();

    let p50 = |rs: &[ClientResult], keep: fn(&Sample) -> bool| {
        let v: Vec<f64> = rs
            .iter()
            .flat_map(|c| &c.samples)
            .filter(|s| keep(s))
            .map(|s| s.latency_ms)
            .collect();
        median(&v)
    };
    let samples: Vec<&Sample> = clients.iter().flat_map(|c| &c.samples).collect();
    let col = |f: fn(&Sample) -> f64| samples.iter().map(|s| f(s)).collect::<Vec<f64>>();
    let latency = mean(&col(|s| s.latency_ms));
    let stage_ms = mean(&col(|s| s.stage_ms));
    let (gw_p50, direct_p50) = (p50(&hops[..1], |_| true), p50(&hops[1..], |_| true));
    let untraced_p50 = p50(&plain, |_| true);
    let lookups = delta.lookups();

    let mut values = vec![
        ("circuits.build_ms", build_ms),
        ("flow.cache_memory_hit_share", delta.memory / lookups),
        ("flow.cache_disk_hit_share", delta.disk / lookups),
        ("flow.cache_remote_hit_share", delta.remote / lookups),
        ("flow.cache_miss_share", delta.miss / lookups),
        ("flow.remote_fetch_attempts", delta.fetches),
        ("server.wire_req_bytes", mean(&col(|s| s.req_bytes as f64))),
        (
            "server.wire_resp_bytes",
            mean(&col(|s| s.resp_bytes as f64)),
        ),
        ("server.direct_p50_ms", direct_p50),
        ("server.gateway_hop_ms", gw_p50 - direct_p50),
        ("server.stage_ms", stage_ms),
        ("server.overhead_ms", latency - stage_ms),
        (
            "server.small_resp_p50_ms",
            p50(&clients, |s| s.resp_bytes < LARGE_RESPONSE),
        ),
        (
            "server.large_resp_p50_ms",
            p50(&clients, |s| s.resp_bytes >= LARGE_RESPONSE),
        ),
        ("server.queue_peak", delta.queue_peak),
        ("server.gw_failovers", delta.failovers),
        ("server.gw_steals", delta.steals),
        ("server.gw_shed", delta.shed),
        ("trace.stage_cover_share", stage_ms / latency.max(1e-9)),
        (
            "trace.overhead_share",
            (p50(&clients, |_| true) - untraced_p50) / untraced_p50.max(1e-9),
        ),
        ("trace.spans", rec.spans().len() as f64),
    ];
    values.extend(crate::layers::micro(
        &pool,
        &refs,
        &captured,
        &root.join("store"),
        &mut checks,
    ));
    let _ = std::fs::remove_dir_all(&root);
    Outcome {
        checks,
        values,
        spans: rec.spans().to_vec(),
    }
}
