//! Micro-benchmarks of the glue layers that sit on every served request:
//! BLIF text, canonical form, SHA-256, artifact codecs, the disk store,
//! warm cache tiers, protocol parsing and hex transfer. Each times the
//! layer's public functions over the served pool's own data.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fpga_flow::hash::digest_hex;
use fpga_flow::stages::{GeneratedBitstream, RoutedDesign};
use fpga_flow::{
    run_blif_ctx, run_vhdl_ctx, Artifact, DiskStore, FlowArtifacts, FlowCtx, StageCache, StageId,
};
use fpga_server::proto;
use fpga_server::SourceFormat;

use crate::report::Checks;
use crate::serve::{Capture, Entry};
use crate::stats::median;

/// Repeats of each micro-benchmark; the reported value is their median.
const REPEATS: usize = 5;

/// Median milliseconds of `f` over `REPEATS` runs.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// One encoded artifact: its stage, its payload and how to decode it.
struct Encoded {
    stage: StageId,
    kind: &'static str,
    bytes: Vec<u8>,
    decode: fn(&[u8]) -> bool,
}

fn encoded<T: Artifact>(stage: StageId, value: &T) -> Encoded {
    Encoded {
        stage,
        kind: T::KIND,
        bytes: value.to_bytes(),
        decode: |b| T::from_bytes(b).is_ok(),
    }
}

/// The two staged types `FlowArtifacts` hands back in pieces.
fn bundles(art: &FlowArtifacts) -> (RoutedDesign, GeneratedBitstream) {
    let routed = RoutedDesign {
        device: art.placement.device.clone(),
        graph: art.graph.clone(),
        routing: art.routing.clone(),
        critical_nets: art.critical_nets.clone(),
    };
    let bits = GeneratedBitstream {
        bitstream: art.bitstream.clone(),
        bytes: art.bitstream_bytes.clone(),
    };
    (routed, bits)
}

/// The staged artifacts of one compiled design, as the cache stores them.
fn encode_all(
    art: &FlowArtifacts,
    (routed, bits): &(RoutedDesign, GeneratedBitstream),
) -> Vec<Encoded> {
    vec![
        encoded(StageId::Synthesis, &art.rtl),
        encoded(StageId::LutMap, &art.mapped),
        encoded(StageId::Pack, &art.clustering),
        encoded(StageId::Place, &art.placement),
        encoded(StageId::Route, routed),
        encoded(StageId::Power, &art.power),
        encoded(StageId::Bitstream, bits),
    ]
}

/// The whole pool through the cached pipeline; true when every design
/// reproduced its reference bitstream.
fn run_pool(pool: &[Entry], refs: &[FlowArtifacts], cache: &StageCache) -> bool {
    pool.iter().zip(refs).all(|(e, reference)| {
        let opts = crate::serve::reference_options(e, None);
        let ctx = FlowCtx::with_cache(cache);
        let art = match e.format {
            SourceFormat::Vhdl => run_vhdl_ctx(&e.source, &opts, ctx),
            SourceFormat::Blif => run_blif_ctx(&e.source, &opts, ctx),
        };
        art.is_ok_and(|a| a.bitstream_bytes == reference.bitstream_bytes)
    })
}

pub fn micro(
    pool: &[Entry],
    refs: &[FlowArtifacts],
    captured: &[Capture],
    store_dir: &Path,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let netlists: Vec<_> = pool.iter().filter_map(|e| e.netlist.as_ref()).collect();
    let blifs: Vec<&str> = pool
        .iter()
        .filter(|e| e.format == SourceFormat::Blif)
        .map(|e| e.source.as_str())
        .collect();
    let blif_bytes: usize = blifs.iter().map(|b| b.len()).sum();

    let blif_write_ms = time_ms(|| {
        netlists
            .iter()
            .map(|n| fpga_netlist::blif::write(n).map_or(0, |s| s.len()))
            .sum::<usize>()
    });
    let blif_parse_ms = time_ms(|| {
        blifs
            .iter()
            .filter(|b| fpga_netlist::blif::parse(b).is_ok())
            .count()
    });
    let canonical_ms = time_ms(|| {
        netlists
            .iter()
            .map(|n| fpga_netlist::canonical_text(n).len())
            .sum::<usize>()
    });
    // Enough passes over the pool's text to hash ~16 MB per repeat.
    let passes = (16_000_000 / blif_bytes.max(1)).max(1);
    let digest_ms = time_ms(|| {
        (0..passes)
            .map(|_| {
                blifs
                    .iter()
                    .map(|b| digest_hex(&[b.as_bytes()]).len())
                    .sum::<usize>()
            })
            .sum::<usize>()
    });

    let bundled: Vec<_> = refs.iter().map(bundles).collect();
    let encode = || {
        refs.iter()
            .zip(&bundled)
            .flat_map(|(a, b)| encode_all(a, b))
    };
    let artifacts: Vec<Encoded> = encode().collect();
    let encode_ms = time_ms(|| encode().count());
    let decode_ms = time_ms(|| artifacts.iter().filter(|a| (a.decode)(&a.bytes)).count());
    checks.check(artifacts.iter().all(|a| (a.decode)(&a.bytes)), || {
        "an encoded artifact does not decode".to_string()
    });

    // The disk store and the two warm cache tiers, in a scratch directory.
    let (mut put_ms, mut load_ms, mut warm_memory_ms, mut warm_disk_ms) = (0.0, 0.0, 0.0, 0.0);
    let _ = std::fs::remove_dir_all(store_dir);
    match DiskStore::open(store_dir.join("raw"), None) {
        Ok(store) => {
            let keys: Vec<String> = artifacts.iter().map(|a| digest_hex(&[&a.bytes])).collect();
            let t = Instant::now();
            let stored = artifacts
                .iter()
                .zip(&keys)
                .filter(|(a, key)| store.put(a.stage, key, a.kind, "{}", &a.bytes).is_ok())
                .count();
            put_ms = t.elapsed().as_secs_f64() * 1e3;
            load_ms = time_ms(|| {
                artifacts
                    .iter()
                    .zip(&keys)
                    .filter(|(a, key)| store.load(a.stage, key, a.kind).is_ok())
                    .count()
            });
            checks.check(stored == artifacts.len(), || {
                format!(
                    "DiskStore::put stored {stored} of {} artifacts",
                    artifacts.len()
                )
            });
        }
        Err(e) => {
            checks.check(false, || format!("cannot open a scratch DiskStore: {e}"));
        }
    }
    match DiskStore::open(store_dir.join("cache"), None) {
        Ok(store) => {
            let store = Arc::new(store);
            let warm = StageCache::new().with_store(Arc::clone(&store));
            let filled = run_pool(pool, refs, &warm);
            warm_memory_ms = time_ms(|| run_pool(pool, refs, &warm));
            warm_disk_ms = time_ms(|| {
                let fresh = StageCache::new().with_store(Arc::clone(&store));
                run_pool(pool, refs, &fresh)
            });
            let (hits, misses) = warm.totals();
            checks.check(filled && hits > 0 && misses > 0, || {
                "the cached pipeline did not reproduce the reference bitstreams".to_string()
            });
        }
        Err(e) => {
            checks.check(false, || format!("cannot open a scratch DiskStore: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(store_dir);

    // Protocol parsing and hex transfer over the captured wire traffic,
    // per exchange.
    let per_exchange = |total_ms: f64| total_ms / captured.len().max(1) as f64;
    let parse_req_ms = time_ms(|| {
        captured
            .iter()
            .filter(|c| proto::parse_request(c.req_line.trim_end()).is_ok())
            .count()
    });
    let parse_event_ms = time_ms(|| {
        captured
            .iter()
            .filter(|c| {
                serde_json::from_str::<serde_json::Value>(c.done_line.trim_end())
                    .is_ok_and(|v| proto::parse_event(&v).is_ok())
            })
            .count()
    });
    let hex_ms = time_ms(|| {
        captured
            .iter()
            .filter(|c| {
                proto::from_hex(&proto::to_hex(&c.bitstream)).is_ok_and(|b| b == c.bitstream)
            })
            .count()
    });

    vec![
        ("netlist.blif_write_ms", blif_write_ms),
        ("netlist.blif_parse_ms", blif_parse_ms),
        ("netlist.blif_bytes", blif_bytes as f64),
        ("netlist.canonical_text_ms", canonical_ms),
        (
            "flow.digest_mb_per_s",
            (passes * blif_bytes) as f64 / 1e6 / (digest_ms / 1e3).max(1e-9),
        ),
        ("flow.codec_encode_ms", encode_ms),
        ("flow.codec_decode_ms", decode_ms),
        (
            "flow.artifact_bytes",
            artifacts.iter().map(|a| a.bytes.len()).sum::<usize>() as f64,
        ),
        ("flow.store_put_ms", put_ms),
        ("flow.store_load_ms", load_ms),
        ("flow.warm_memory_ms", warm_memory_ms),
        ("flow.warm_disk_ms", warm_disk_ms),
        ("server.proto_parse_req_ms", per_exchange(parse_req_ms)),
        ("server.proto_parse_event_ms", per_exchange(parse_event_ms)),
        ("server.hex_ms", per_exchange(hex_ms)),
    ]
}
