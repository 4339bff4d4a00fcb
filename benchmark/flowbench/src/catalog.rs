//! Names, units and meanings of every workload and metric. This table is
//! the single source the run, `list`, `compare` and the self-check read;
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and bounds and `benchmark/selfcheck.sh` holds the two equal.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How long one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 15.0;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "cold_rent",
        why: "uncached compile of rent_1k at pinned W=32: negotiated-congestion routing on a large RR graph leads (route ~3/4, place ~1/5), so router search and data-structure work shows here",
    },
    Workload {
        name: "cold_mult",
        why: "uncached compile of mult16 (W=28) + mult24 (W=34): the one shape where placement leads (place ~1/2, route ~2/5), so annealer work shows here and a router-only change moves it about half as much",
    },
    Workload {
        name: "minw_small",
        why: "uncached min-W binary search on add32 alu8 mult8 crc16 fsm_chain_4x8: many small probes, infeasible ones included, a fresh RR graph per probe (route ~9/10); probe warm-starting shows here only",
    },
    Workload {
        name: "serve_hot",
        why: "closed loop, 2 clients, uniform draws from a 10-design pool through gateway + 2 flowd: every request is a memory-tier hit, so latency is NDJSON, BLIF parse, cache keys, gateway hop and hex bitstream",
    },
    Workload {
        name: "serve_churn",
        why: "same farm, 8-entry memory cache, every 5th request on a never-seen place seed: repeats become disk hits (load, digest verify, decode); fresh seeds recompute, fsync and publish beside the reads",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed relative worsening (end-to-end metrics only).
    pub bound: f64,
    /// Deterministic: every run of one commit must report the same value.
    pub exact: bool,
    /// How it is measured, or which end-to-end metric it should move.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
        what,
    }
}

use Better::{Higher, Lower};

/// A "request" is one compile a caller waits for: an in-process
/// `run_netlist` call on `cold_*`/`minw_small`, a wire round trip through
/// the gateway on `serve_*`. Served requests are timed on the wall clock;
/// in-process ones, which are one thread of pure computation, on the
/// process's CPU clock, which a busy neighbour on a shared host does not
/// stretch (see `cold.rs`).
pub const END_TO_END: [Metric; 11] = [
    e2e("setup_s", "s", Lower, 0.25, false,
        "input generation + validation + canonical digest, the fastest of the set-ups spread over the run (CPU s); on serve_* also farm start, wait-healthy and the cold pool fill, the median of 3 farms (wall s)"),
    e2e("compile_s", "s", Lower, 0.25, false,
        "sum over the workload's designs of the median time a caller waited for that design (CPU s in-process, wall s served)"),
    e2e("fmax_mhz", "MHz", Higher, 0.05, true,
        "geomean over designs of 1 / critical path (reported as a frequency: the contract rejects a constant time)"),
    e2e("wirelength", "segments", Lower, 0.05, true,
        "sum over designs of routed wirelength"),
    e2e("channel_width", "tracks", Lower, 0.01, true,
        "sum over designs of routed channel width (moves only on minw_small)"),
    e2e("power_mw", "mW", Lower, 0.05, true,
        "geomean over designs of total power"),
    e2e("req_p50_ms", "ms", Lower, 0.25, false,
        "median request latency over the timed phase"),
    e2e("req_p95_ms", "ms", Lower, 0.25, false,
        "nearest-rank 95th percentile request latency (ten samples beyond it from 200 requests; the maximum below 20)"),
    e2e("req_per_s", "1/s", Higher, 0.25, false,
        "completed requests / time they took: CPU s of the 1 caller on cold_*/minw_small, timed-phase wall of the 2 clients on serve_*"),
    e2e("peak_rss_mb", "MiB", Lower, 0.15, false,
        "VmHWM of the benchmark process (farm daemons run in-process)"),
    e2e("ok_share", "ratio", Higher, 0.0005, true,
        "1 - failed / attempted operations and checks (any Err, non-done terminal, shed, or mismatch)"),
];

pub const PER_LAYER: [Metric; 59] = [
    layer("circuits.build_ms", "ms", Lower, "input generation; moves setup_s on all workloads"),
    layer("synth.lut_map_ms", "ms", Lower, "stages::lut_map; compile_s on cold_mult (~2 %)"),
    layer("synth.luts", "count", Lower, "LUTs after mapping; less work for every later stage"),
    layer("synth.depth", "count", Lower, "LUT depth; fmax_mhz"),
    layer("pack.pack_ms", "ms", Lower, "stages::pack; compile_s on cold_mult (~2 %)"),
    layer("pack.clbs", "count", Lower, "clusters; place/route problem size"),
    layer("pack.utilization", "ratio", Higher, "mean BLE slot utilization"),
    layer("place.place_ms", "ms", Lower, "stages::place, threads(1); compile_s on cold_mult (~half), cold_rent (~fifth)"),
    layer("place.hpwl", "count", Lower, "placement half-perimeter wirelength; wirelength, fmax_mhz"),
    layer("place.grid_tiles", "count", Lower, "device grid area"),
    layer("place.place_ms_t2", "ms", Lower, "stages::place at threads(2): the thread-scaling datum; per-layer only"),
    layer("route.route_ms", "ms", Lower, "stages::route whole stage; compile_s on cold_rent, minw_small (dominant), cold_mult (~2/5)"),
    layer("route.rrgraph_build_ms", "ms", Lower, "RrGraph::build at the final W"),
    layer("route.rr_nodes", "count", Lower, "RrGraph::node_count at the final W"),
    layer("route.search_ms", "ms", Lower, "PathFinderRouter::route / find_min_channel_width called directly"),
    layer("route.sta_ms", "ms", Lower, "analyze_paths"),
    layer("route.iterations", "count", Lower, "PathFinder iterations of the accepted routing; fmax_mhz, wirelength"),
    layer("route.route_ms_t2", "ms", Lower, "stages::route at threads(2); per-layer only"),
    layer("power.estimate_ms", "ms", Lower, "stages::power"),
    layer("bitstream.generate_ms", "ms", Lower, "stages::bitstream"),
    layer("bitstream.bytes", "bytes", Lower, "bitstream size; server.wire_resp_bytes"),
    layer("bitstream.fabric_verify_ms", "ms", Lower, "stages::verify, 32 cycles (off in timed passes)"),
    layer("verify.cec_ms", "ms", Lower, "EquivGate reference + five check points (off in timed passes)"),
    layer("verify.eq_denies", "count", Lower, "deny-severity EQ findings; feeds ok_share"),
    layer("netlist.blif_write_ms", "ms", Lower, "blif::write over the pool"),
    layer("netlist.blif_parse_ms", "ms", Lower, "blif::parse over the pool; req_p50_ms on serve_hot"),
    layer("netlist.blif_bytes", "bytes", Lower, "BLIF text of the pool"),
    layer("netlist.canonical_text_ms", "ms", Lower, "canonical_text over the pool; req_p50_ms on serve_hot"),
    layer("flow.digest_mb_per_s", "MB/s", Higher, "hash::digest_hex throughput; req_p50_ms on serve_*"),
    layer("flow.codec_encode_ms", "ms", Lower, "Artifact::to_bytes over the pool's staged types; serve_churn"),
    layer("flow.codec_decode_ms", "ms", Lower, "Artifact::from_bytes over the same; req_p50_ms on serve_churn"),
    layer("flow.artifact_bytes", "bytes", Lower, "encoded artifacts of the pool"),
    layer("flow.store_put_ms", "ms", Lower, "DiskStore::put (fsync) of those artifacts; serve_churn"),
    layer("flow.store_load_ms", "ms", Lower, "DiskStore::load + digest verify; req_p50_ms on serve_churn"),
    layer("flow.warm_memory_ms", "ms", Lower, "pool through run_*_ctx against a warm StageCache; req_p50_ms on serve_hot"),
    layer("flow.warm_disk_ms", "ms", Lower, "pool against a fresh StageCache over the warm store; req_p50_ms on serve_churn"),
    layer("flow.cache_memory_hit_share", "ratio", Higher, "memory hits / stage lookups over the traced phase (flowd metrics delta)"),
    layer("flow.cache_disk_hit_share", "ratio", Higher, "disk hits / stage lookups"),
    layer("flow.cache_remote_hit_share", "ratio", Higher, "remote-tier hits / stage lookups"),
    layer("flow.cache_miss_share", "ratio", Lower, "recomputed stages / stage lookups"),
    layer("flow.remote_fetch_attempts", "count", Lower, "remote-tier fetches (hit + miss + failure)"),
    layer("server.wire_req_bytes", "bytes", Lower, "mean request line"),
    layer("server.wire_resp_bytes", "bytes", Lower, "mean of all event lines of one response"),
    layer("server.direct_p50_ms", "ms", Lower, "same requests sent straight to the owning flowd"),
    layer("server.gateway_hop_ms", "ms", Lower, "gateway p50 - direct p50 over the same requests"),
    layer("server.stage_ms", "ms", Lower, "mean per request of the daemon's stage spans (req.trace)"),
    layer("server.overhead_ms", "ms", Lower, "mean client latency - server.stage_ms: wire + proto + queue + glue self time"),
    layer("server.small_resp_p50_ms", "ms", Lower, "p50 of requests whose response is under 64 KiB"),
    layer("server.large_resp_p50_ms", "ms", Lower, "p50 of requests whose response is 64 KiB or more"),
    layer("server.proto_parse_req_ms", "ms", Lower, "proto::parse_request per captured request line"),
    layer("server.proto_parse_event_ms", "ms", Lower, "JSON parse + proto::parse_event per captured done line"),
    layer("server.hex_ms", "ms", Lower, "to_hex + from_hex per served bitstream"),
    layer("server.queue_peak", "count", Lower, "highest flowd queue depth seen"),
    layer("server.gw_failovers", "count", Lower, "gateway failovers (guard: 0)"),
    layer("server.gw_steals", "count", Lower, "jobs routed to an idle peer instead of the affinity pick"),
    layer("server.gw_shed", "count", Lower, "jobs shed by admission (guard: 0)"),
    layer("trace.stage_cover_share", "ratio", Higher, "sum of stage spans / pass wall (cold) or stage_ms / latency (serve)"),
    layer("trace.overhead_share", "ratio", Lower, "(traced - untraced) / untraced median of the same work"),
    layer("trace.spans", "count", Lower, "spans recorded in the traced pass"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
