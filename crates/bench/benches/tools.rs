//! Criterion benches of the mapping toolset: one benchmark per Fig. 11
//! stage, run on a mid-size generated circuit, plus the per-byte work a
//! served cache hit does on its `done` line.

use criterion::{criterion_group, criterion_main, Criterion};

use fpga_arch::device::Device;
use fpga_arch::Architecture;
use fpga_netlist::Netlist;
use fpga_pack::Clustering;
use fpga_place::{AnnealingPlacer, Parallelism, PlaceConfig, PlaceEngine};
use fpga_route::rrgraph::RrGraph;
use fpga_route::{PathFinderRouter, RouteConfig, RouteEngine};

/// Map and pack a design, and size a device for it as the flow does.
fn packed(rtl: &Netlist, arch: &Architecture) -> (Clustering, Device) {
    let (mut mapped, _) = fpga_synth::map_to_luts(rtl, fpga_synth::MapOptions::default()).unwrap();
    fpga_pack::prepare(&mut mapped).unwrap();
    let clustering = fpga_pack::pack(&mapped, &arch.clb).unwrap();
    let device = Device::sized_for(
        arch.clone(),
        clustering.clusters.len(),
        mapped.inputs.len() + mapped.outputs.len() + 1,
    );
    (clustering, device)
}

fn bench_tools(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_stages");
    group.sample_size(10);

    // Shared inputs.
    let vhdl = fpga_circuits::vhdl_counter(8);
    let rtl = fpga_circuits::random_logic(&fpga_circuits::RandomLogicParams {
        n_gates: 250,
        seed: 11,
        ..Default::default()
    });
    let (mut mapped, _) = fpga_synth::map_to_luts(&rtl, fpga_synth::MapOptions::default()).unwrap();
    fpga_pack::prepare(&mut mapped).unwrap();
    let arch = Architecture::paper_default();
    let clustering = fpga_pack::pack(&mapped, &arch.clb).unwrap();
    let device = Device::sized_for(
        arch.clone(),
        clustering.clusters.len(),
        mapped.inputs.len() + mapped.outputs.len() + 1,
    );
    let placement = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(2.0))
        .place(&clustering, device.clone())
        .unwrap();
    let graph = RrGraph::build(&placement.device, 14);
    let routed = PathFinderRouter::new(RouteConfig::new())
        .route(&clustering, &placement, &graph)
        .unwrap();

    group.bench_function("synthesis_vhdl_counter8", |b| {
        b.iter(|| fpga_synth::diviner::synthesize(&vhdl).unwrap())
    });
    group.bench_function("lut_mapping_250gates", |b| {
        b.iter(|| fpga_synth::map_to_luts(&rtl, fpga_synth::MapOptions::default()).unwrap())
    });
    group.bench_function("tvpack_250gates", |b| {
        b.iter(|| fpga_pack::pack(&mapped, &arch.clb).unwrap())
    });
    group.bench_function("vpr_place", |b| {
        b.iter(|| {
            AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.0))
                .place(&clustering, device.clone())
                .unwrap()
        })
    });
    group.bench_function("vpr_route", |b| {
        b.iter(|| {
            PathFinderRouter::new(RouteConfig::new())
                .route(&clustering, &placement, &graph)
                .unwrap()
        })
    });
    // The router's hot loop on its own: `alu8` from the QoR suite at its
    // minimum channel width, where negotiation runs longest — the shape of
    // the final probes of a min-W search.
    let (alu_clustering, alu_placement, alu_graph) = {
        let (clustering, device) = packed(&fpga_circuits::alu(8), &arch);
        let placement = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.0))
            .place(&clustering, device)
            .unwrap();
        let (min_w, _) = PathFinderRouter::new(RouteConfig::new())
            .find_min_channel_width(&clustering, &placement, 128)
            .unwrap();
        let graph = RrGraph::build(&placement.device, min_w);
        (clustering, placement, graph)
    };
    group.bench_function("rrgraph_build", |b| {
        b.iter(|| RrGraph::build(&alu_placement.device, alu_graph.channel_width()))
    });
    group.bench_function("route_search", |b| {
        b.iter(|| {
            PathFinderRouter::new(RouteConfig::new())
                .route(&alu_clustering, &alu_placement, &alu_graph)
                .unwrap()
        })
    });
    // The whole min-W search on `add32`, one probe per routed width:
    // what `route_search` times once, times the probes it cannot skip.
    let (add_clustering, add_placement) = {
        let (clustering, device) = packed(&fpga_circuits::ripple_adder(32), &arch);
        let placement = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.0))
            .place(&clustering, device)
            .unwrap();
        (clustering, placement)
    };
    group.bench_function("min_width_search", |b| {
        b.iter(|| {
            PathFinderRouter::new(RouteConfig::new())
                .find_min_channel_width(&add_clustering, &add_placement, 128)
                .unwrap()
        })
    });
    // The annealer's move loop on its own: `mult16` from the QoR suite,
    // packed outside the timer, at the benchmark's effort on one thread —
    // the larger half of what `cold_mult` spends in `place`.
    let (mult_clustering, mult_device) = packed(&fpga_circuits::multiplier(16), &arch);
    group.bench_function("place_anneal", |b| {
        let cfg = PlaceConfig::new()
            .seed(1)
            .inner_num(1.0)
            .parallelism(Parallelism::serial());
        b.iter(|| {
            AnnealingPlacer::new(cfg.clone())
                .place(&mult_clustering, mult_device.clone())
                .unwrap()
        })
    });
    group.bench_function("dagger_bitstream", |b| {
        b.iter(|| {
            let bs = fpga_bitstream::generate(&clustering, &placement, &routed, &graph).unwrap();
            fpga_bitstream::frames::write(&bs)
        })
    });
    group.finish();
}

/// What one hop does to a cache hit's terminal event, on the largest
/// design of the served pool (`mult16` at W=28: a ~121 KB bitstream, a
/// ~243 KB line): hex-encode, build and serialize the `done` event on
/// the sending side; parse, type and hex-decode it on the receiving
/// side. After the transport stall these passes over the bytes *are* a
/// hit's latency, and each is paid once per hop. Beside it, the digest
/// and the warm compile a hit costs on the backend.
fn bench_wire(c: &mut Criterion) {
    use fpga_server::proto::{self, Event};

    let opts = fpga_flow::FlowOptions::builder()
        .channel_width(28)
        .place_effort(1.0)
        .verify_cycles(0)
        .build();
    let art = fpga_flow::run_netlist(fpga_circuits::multiplier(16), &opts).unwrap();
    let report = serde_json::to_value(&art.report);

    let mut group = c.benchmark_group("wire");
    // The key work of a memory-tier hit: a digest over the request's
    // BLIF, and a whole warm compile of it, every stage served from
    // memory.
    let blif = fpga_netlist::blif::write(&fpga_circuits::multiplier(16)).unwrap();
    group.bench_function("digest_mult16_blif", |b| {
        b.iter(|| fpga_flow::hash::digest_hex(&[blif.as_bytes()]))
    });
    let cache = fpga_flow::StageCache::new();
    let warm = || {
        let ctx = fpga_flow::FlowCtx::with_cache(&cache);
        fpga_flow::compile(fpga_flow::Source::Blif(&blif), &opts, ctx).unwrap()
    };
    warm();
    group.bench_function("warm_hit_mult16", |b| b.iter(warm));
    group.bench_function("wire_done_line", |b| {
        b.iter(|| {
            let done = Event::Done {
                job: 1,
                design: art.report.design.clone(),
                report: report.clone(),
                bitstream_hex: proto::to_hex(&art.bitstream_bytes),
                trace: None,
                lint: Vec::new(),
            };
            let line = serde_json::to_string(&done.to_value()).unwrap();
            let value: serde_json::Value = serde_json::from_str(&line).unwrap();
            match proto::parse_event(&value) {
                Ok(Event::Done { bitstream_hex, .. }) => proto::from_hex(&bitstream_hex).unwrap(),
                other => panic!("not a done event: {other:?}"),
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tools, bench_wire);
criterion_main!(benches);
