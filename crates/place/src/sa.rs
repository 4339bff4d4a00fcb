//! Region-partitioned parallel simulated annealing (the VPR schedule).
//!
//! The chip is partitioned into square regions whose side tracks the
//! annealer's range limit `rlim`. Each sweep runs two checkerboard
//! phases: all "even" regions (`(rx + ry) % 2 == 0`) propose and accept
//! moves concurrently, then all "odd" regions. Same-colour regions are
//! never adjacent, and a move never leaves its region, so concurrent
//! regions touch disjoint blocks and sites. The partition origin
//! alternates by half a region side every sweep so blocks migrate across
//! region boundaries over time; while `rlim` still spans the chip the
//! sweep degenerates to a single serial whole-chip region, preserving the
//! early global moves the VPR schedule relies on.
//!
//! Determinism across thread counts is by construction:
//! * every region draws from its own xorshift stream seeded from
//!   `(seed, deterministic_seed, sweep, phase, region index)` — never
//!   from a shared RNG or a thread id;
//! * workers read cross-region state from the phase-start snapshot and
//!   write only to their own region's blocks;
//! * per-region move batches are committed in region-index order at the
//!   phase barrier, and net costs are recomputed exactly afterwards;
//! * region geometry is a function of the deterministic schedule state
//!   (`rlim`, sweep number) only — never of the thread count.

use std::collections::HashMap;

use fpga_arch::device::{Device, GridLoc};
use fpga_pack::{ClusterId, Clustering};

use crate::cost::{crossing_factor, net_terminals, PlacedNet};
use crate::engine::PlaceConfig;
use crate::{BlockRef, PlaceError, Result, Slot};

/// The placement result.
#[derive(Clone, Debug)]
pub struct Placement {
    pub device: Device,
    /// Block -> placed slot.
    pub slots: HashMap<BlockRef, Slot>,
    /// Final bounding-box cost.
    pub cost: f64,
    /// Nets used for the cost (kept for routing and reports).
    pub nets: Vec<PlacedNet>,
}

impl Placement {
    /// Location of a block.
    pub fn loc_of(&self, b: BlockRef) -> GridLoc {
        self.slots[&b].loc
    }

    /// Location of a cluster.
    pub fn cluster_loc(&self, c: ClusterId) -> GridLoc {
        self.loc_of(BlockRef::Cluster(c))
    }

    /// Total half-perimeter wirelength (without crossing factors).
    pub fn hpwl(&self) -> u64 {
        self.nets
            .iter()
            .map(|n| {
                let (w, h) = bbox(&n.terminals, &self.slots);
                (w + h) as u64
            })
            .sum()
    }

    /// Render the `.place`-style text file.
    pub fn write_place(&self, clustering: &Clustering) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# placement: {} blocks, grid {} x {}\n",
            self.slots.len(),
            self.device.width,
            self.device.height
        ));
        let mut rows: Vec<(String, Slot)> = self
            .slots
            .iter()
            .map(|(b, s)| {
                let name = match b {
                    BlockRef::Cluster(c) => format!("clb_{}", c.0),
                    BlockRef::InputPad(n) => {
                        format!("in_{}", clustering.netlist.net_name(*n))
                    }
                    BlockRef::OutputPad(n) => {
                        format!("out_{}", clustering.netlist.net_name(*n))
                    }
                };
                (name, *s)
            })
            .collect();
        rows.sort();
        for (name, slot) in rows {
            out.push_str(&format!(
                "{name} {} {} {}\n",
                slot.loc.x, slot.loc.y, slot.sub
            ));
        }
        out
    }
}

fn bbox(terminals: &[BlockRef], slots: &HashMap<BlockRef, Slot>) -> (u32, u32) {
    let mut min_x = u32::MAX;
    let mut max_x = 0;
    let mut min_y = u32::MAX;
    let mut max_y = 0;
    for t in terminals {
        let loc = slots[t].loc;
        min_x = min_x.min(loc.x);
        max_x = max_x.max(loc.x);
        min_y = min_y.min(loc.y);
        max_y = max_y.max(loc.y);
    }
    (max_x - min_x, max_y - min_y)
}

fn net_cost(net: &PlacedNet, slots: &HashMap<BlockRef, Slot>) -> f64 {
    let (w, h) = bbox(&net.terminals, slots);
    crossing_factor(net.terminals.len()) * (w + h) as f64
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64* stream, seeded by folding schedule coordinates through
/// splitmix64. Each region of each phase gets its own stream.
struct XorShift(u64);

impl XorShift {
    fn seeded(parts: &[u64]) -> XorShift {
        let mut s = 0x243F_6A88_85A3_08D3u64;
        for &p in parts {
            s = splitmix64(s ^ p);
        }
        XorShift(if s == 0 { 0x9E37_79B9 } else { s })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One region's slice of a checkerboard phase.
struct RegionTask {
    /// Blocks (indices into the annealer's block table) positioned inside
    /// this region at sweep start.
    blocks: Vec<u32>,
    /// CLB site indices inside this region.
    clb_sites: Vec<u32>,
    /// IO site indices inside this region.
    io_sites: Vec<u32>,
    attempts: usize,
    seed: u64,
}

/// Deterministic result of one region's moves.
struct RegionOutcome {
    /// Final positions of blocks this region moved, sorted by block index
    /// so the barrier commit order never depends on map iteration order.
    moved: Vec<(u32, Slot)>,
    /// Accepted move deltas (drives the adaptive schedule).
    deltas: Vec<f64>,
    attempted: usize,
}

/// Immutable phase-start snapshot shared by all concurrent regions.
struct PhaseCtx<'a> {
    pos: &'a [Slot],
    net_costs: &'a [f64],
    term_idx: &'a [Vec<u32>],
    net_q: &'a [f64],
    nets_of: &'a [Vec<u32>],
    clb_sites: &'a [Slot],
    io_sites: &'a [Slot],
    n_clb: usize,
    temp: f64,
    rlim: f64,
}

fn bbox_idx(terms: &[u32], pos_of: impl Fn(u32) -> Slot) -> (u32, u32) {
    let mut min_x = u32::MAX;
    let mut max_x = 0;
    let mut min_y = u32::MAX;
    let mut max_y = 0;
    for &t in terms {
        let loc = pos_of(t).loc;
        min_x = min_x.min(loc.x);
        max_x = max_x.max(loc.x);
        min_y = min_y.min(loc.y);
        max_y = max_y.max(loc.y);
    }
    (max_x - min_x, max_y - min_y)
}

/// Run one region's annealing moves against the phase-start snapshot.
/// Writes go to region-local overlays only; the caller commits them at
/// the phase barrier.
fn run_region(task: &RegionTask, ctx: &PhaseCtx<'_>) -> RegionOutcome {
    let mut rng = XorShift::seeded(&[task.seed]);
    // Region-local overlays over the phase-start snapshot. Only blocks of
    // this region ever appear here, and only this region's sites can be
    // occupied by them.
    let mut local_pos: HashMap<u32, Slot> = HashMap::new();
    let mut local_net: HashMap<u32, f64> = HashMap::new();
    let mut occ: HashMap<Slot, u32> = task
        .blocks
        .iter()
        .map(|&b| (ctx.pos[b as usize], b))
        .collect();
    let mut deltas = Vec::new();
    let mut attempted = 0usize;

    for _ in 0..task.attempts {
        attempted += 1;
        let b = task.blocks[rng.range(task.blocks.len())];
        let from = local_pos.get(&b).copied().unwrap_or(ctx.pos[b as usize]);
        let (site_idx, all_sites) = if (b as usize) < ctx.n_clb {
            (&task.clb_sites, ctx.clb_sites)
        } else {
            (&task.io_sites, ctx.io_sites)
        };
        if site_idx.len() <= 1 {
            continue;
        }
        // Target site of the same class within the range limit.
        let mut to = all_sites[site_idx[rng.range(site_idx.len())] as usize];
        for _ in 0..8 {
            let d = (from.loc.x.abs_diff(to.loc.x) + from.loc.y.abs_diff(to.loc.y)) as f64;
            if d <= ctx.rlim.max(2.0) && to != from {
                break;
            }
            to = all_sites[site_idx[rng.range(site_idx.len())] as usize];
        }
        if to == from {
            continue;
        }
        let other = occ.get(&to).copied();

        // Affected nets.
        let mut affected: Vec<u32> = ctx.nets_of[b as usize].clone();
        if let Some(o) = other {
            affected.extend_from_slice(&ctx.nets_of[o as usize]);
        }
        affected.sort_unstable();
        affected.dedup();

        // Evaluate with the move overlaid; commit only on accept.
        let pos_of = |t: u32| -> Slot {
            if t == b {
                to
            } else if Some(t) == other {
                from
            } else {
                local_pos.get(&t).copied().unwrap_or(ctx.pos[t as usize])
            }
        };
        let mut delta = 0.0;
        let mut new_costs: Vec<(u32, f64)> = Vec::with_capacity(affected.len());
        for &ni in &affected {
            let (w, h) = bbox_idx(&ctx.term_idx[ni as usize], pos_of);
            let c = ctx.net_q[ni as usize] * (w + h) as f64;
            let old = local_net
                .get(&ni)
                .copied()
                .unwrap_or(ctx.net_costs[ni as usize]);
            delta += c - old;
            new_costs.push((ni, c));
        }

        let accept = delta <= 0.0
            || if ctx.temp.is_finite() {
                rng.f64() < (-delta / ctx.temp).exp()
            } else {
                true
            };
        if accept {
            local_pos.insert(b, to);
            occ.insert(to, b);
            if let Some(o) = other {
                local_pos.insert(o, from);
                occ.insert(from, o);
            } else {
                occ.remove(&from);
            }
            for (ni, c) in new_costs {
                local_net.insert(ni, c);
            }
            deltas.push(delta);
        }
    }

    let mut moved: Vec<(u32, Slot)> = local_pos.into_iter().collect();
    moved.sort_unstable_by_key(|&(b, _)| b);
    RegionOutcome {
        moved,
        deltas,
        attempted,
    }
}

/// Run a phase's regions, on `threads` workers when it pays. Outcomes are
/// returned in task order regardless of which worker ran which region.
fn run_phase(tasks: &[RegionTask], ctx: &PhaseCtx<'_>, threads: usize) -> Vec<RegionOutcome> {
    if threads <= 1 || tasks.len() <= 1 {
        return tasks.iter().map(|t| run_region(t, ctx)).collect();
    }
    let workers = threads.min(tasks.len());
    let chunk = tasks.len().div_ceil(workers);
    let mut out: Vec<Option<RegionOutcome>> = tasks.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        for (tch, och) in tasks.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (t, o) in tch.iter().zip(och.iter_mut()) {
                    *o = Some(run_region(t, ctx));
                }
            });
        }
    });
    out.into_iter().flatten().collect()
}

/// Smallest power-of-two region side (min 8) that covers `rlim`.
fn region_side(rlim: f64, maxdim: u32) -> u32 {
    let r = rlim.max(1.0).ceil() as u32;
    let mut s = 8u32;
    while s < r && s < maxdim {
        s *= 2;
    }
    s
}

struct Annealer {
    device: Device,
    blocks: Vec<BlockRef>,
    n_clb: usize,
    clb_sites: Vec<Slot>,
    io_sites: Vec<Slot>,
    /// Per-net terminal block indices.
    term_idx: Vec<Vec<u32>>,
    /// Per-net crossing factor.
    net_q: Vec<f64>,
    /// Per-block touching-net indices.
    nets_of: Vec<Vec<u32>>,
    pos: Vec<Slot>,
    net_costs: Vec<f64>,
}

impl Annealer {
    fn recompute_net_costs(&mut self) {
        for (ni, terms) in self.term_idx.iter().enumerate() {
            let (w, h) = bbox_idx(terms, |t| self.pos[t as usize]);
            self.net_costs[ni] = self.net_q[ni] * (w + h) as f64;
        }
    }

    /// One full sweep: bucket blocks/sites into regions, run the two
    /// checkerboard phases, commit batches in region order, and refresh
    /// net costs exactly. Returns (attempted, accepted deltas).
    fn sweep(
        &mut self,
        sweep_no: u64,
        temp: f64,
        rlim: f64,
        moves_per_temp: usize,
        threads: usize,
        cfg: &PlaceConfig,
    ) -> (usize, Vec<f64>) {
        // Region geometry covers the *full* grid including the IO ring
        // (coordinates run 0..=width+1), not just the logic columns.
        let (w, h) = self.device.extent();
        let maxdim = w.max(h);
        let side = region_side(rlim, maxdim);
        let single = side >= maxdim;
        let off = if single || sweep_no.is_multiple_of(2) {
            0
        } else {
            side / 2
        };
        let nrx = if single { 1 } else { (w + off).div_ceil(side) };
        let nry = if single { 1 } else { (h + off).div_ceil(side) };
        let n_regions = (nrx * nry) as usize;
        let rid_of = |loc: GridLoc| -> usize {
            if single {
                0
            } else {
                (((loc.y + off) / side) * nrx + (loc.x + off) / side) as usize
            }
        };

        let mut rblocks: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
        for (bi, s) in self.pos.iter().enumerate() {
            rblocks[rid_of(s.loc)].push(bi as u32);
        }
        let mut rclb: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
        for (si, s) in self.clb_sites.iter().enumerate() {
            rclb[rid_of(s.loc)].push(si as u32);
        }
        let mut rio: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
        for (si, s) in self.io_sites.iter().enumerate() {
            rio[rid_of(s.loc)].push(si as u32);
        }

        let total = self.blocks.len();
        let mut attempted = 0usize;
        let mut deltas = Vec::new();
        for color in 0..2u32 {
            if single && color == 1 {
                break;
            }
            let mut tasks = Vec::new();
            for rid in 0..n_regions {
                let (rx, ry) = (rid as u32 % nrx, rid as u32 / nrx);
                if !single && (rx + ry) % 2 != color {
                    continue;
                }
                if rblocks[rid].is_empty() {
                    continue;
                }
                let attempts = ((moves_per_temp * rblocks[rid].len()) / total).max(1);
                tasks.push(RegionTask {
                    blocks: std::mem::take(&mut rblocks[rid]),
                    clb_sites: std::mem::take(&mut rclb[rid]),
                    io_sites: std::mem::take(&mut rio[rid]),
                    attempts,
                    seed: splitmix64(
                        splitmix64(cfg.seed ^ cfg.parallelism.deterministic_seed.rotate_left(17))
                            ^ (sweep_no << 8)
                            ^ ((color as u64) << 40)
                            ^ rid as u64,
                    ),
                });
            }
            if tasks.is_empty() {
                continue;
            }
            let outcomes = {
                let ctx = PhaseCtx {
                    pos: &self.pos,
                    net_costs: &self.net_costs,
                    term_idx: &self.term_idx,
                    net_q: &self.net_q,
                    nets_of: &self.nets_of,
                    clb_sites: &self.clb_sites,
                    io_sites: &self.io_sites,
                    n_clb: self.n_clb,
                    temp,
                    rlim,
                };
                run_phase(&tasks, &ctx, threads)
            };
            // Barrier: commit in region-index (task) order, then refresh
            // net costs so the next phase sees exact baselines.
            for out in outcomes {
                attempted += out.attempted;
                deltas.extend_from_slice(&out.deltas);
                for (b, s) in out.moved {
                    self.pos[b as usize] = s;
                }
            }
            self.recompute_net_costs();
        }
        (attempted, deltas)
    }
}

/// Place a clustering onto a device (engine entry point).
pub(crate) fn anneal(
    clustering: &Clustering,
    device: Device,
    cfg: &PlaceConfig,
) -> Result<Placement> {
    let nets = net_terminals(clustering);

    // Enumerate blocks: clusters first, then IO pads.
    let mut blocks: Vec<BlockRef> = (0..clustering.clusters.len())
        .map(|i| BlockRef::Cluster(ClusterId(i as u32)))
        .collect();
    let mut io_blocks: Vec<BlockRef> = Vec::new();
    for &pi in &clustering.netlist.inputs {
        if !clustering.netlist.clocks.contains(&pi) {
            io_blocks.push(BlockRef::InputPad(pi));
        }
    }
    for &po in &clustering.netlist.outputs {
        io_blocks.push(BlockRef::OutputPad(po));
    }
    // Clock pads still occupy an IO site (driven from off chip) but carry
    // no placement cost; place them too so the bitstream can configure
    // their pad. They are modelled as input pads.
    for &clk in &clustering.netlist.clocks {
        io_blocks.push(BlockRef::InputPad(clk));
    }

    let n_clb = blocks.len();
    let n_io = io_blocks.len();
    if n_clb > device.clb_capacity() || n_io > device.io_capacity() {
        return Err(PlaceError::DoesNotFit {
            clbs: n_clb,
            clb_cap: device.clb_capacity(),
            ios: n_io,
            io_cap: device.io_capacity(),
        });
    }
    blocks.extend(io_blocks.iter().copied());

    // Initial placement: round-robin over sites.
    let clb_sites: Vec<Slot> = device
        .clb_locs()
        .into_iter()
        .map(|loc| Slot { loc, sub: 0 })
        .collect();
    let io_sites: Vec<Slot> = device
        .io_locs()
        .into_iter()
        .flat_map(|loc| (0..device.arch.io_per_tile as u32).map(move |sub| Slot { loc, sub }))
        .collect();

    let mut pos: Vec<Slot> = Vec::with_capacity(blocks.len());
    pos.extend_from_slice(&clb_sites[..n_clb]);
    pos.extend_from_slice(&io_sites[..n_io]);

    let build_placement = |pos: &[Slot], cost: f64, nets: Vec<PlacedNet>| -> Placement {
        let slots: HashMap<BlockRef, Slot> =
            blocks.iter().copied().zip(pos.iter().copied()).collect();
        Placement {
            device: device.clone(),
            slots,
            cost,
            nets,
        }
    };

    if blocks.is_empty() || nets.is_empty() {
        let p = build_placement(&pos, 0.0, nets);
        let cost = p.nets.iter().map(|n| net_cost(n, &p.slots)).sum();
        return Ok(Placement { cost, ..p });
    }

    // Index nets by block position index.
    let mut block_idx: HashMap<BlockRef, u32> = HashMap::with_capacity(blocks.len());
    for (i, &b) in blocks.iter().enumerate() {
        block_idx.insert(b, i as u32);
    }
    let term_idx: Vec<Vec<u32>> = nets
        .iter()
        .map(|n| n.terminals.iter().map(|t| block_idx[t]).collect())
        .collect();
    let net_q: Vec<f64> = nets
        .iter()
        .map(|n| crossing_factor(n.terminals.len()))
        .collect();
    let mut nets_of: Vec<Vec<u32>> = vec![Vec::new(); blocks.len()];
    for (ni, terms) in term_idx.iter().enumerate() {
        for &t in terms {
            nets_of[t as usize].push(ni as u32);
        }
    }

    let mut ann = Annealer {
        device: device.clone(),
        blocks: blocks.clone(),
        n_clb,
        clb_sites,
        io_sites,
        term_idx,
        net_q,
        nets_of,
        pos,
        net_costs: vec![0.0; nets.len()],
    };
    ann.recompute_net_costs();
    let mut cost: f64 = ann.net_costs.iter().sum();

    let threads = cfg.parallelism.threads.max(1);
    let moves_per_temp = ((cfg.inner_num * (blocks.len() as f64).powf(4.0 / 3.0)) as usize).max(16);
    let maxdim = device.width.max(device.height);
    let mut rlim = maxdim as f64;

    // Initial temperature: the std-dev of a sample of move deltas (VPR
    // uses 20x; accept-everything warm start). Sampled on a throwaway
    // whole-chip region so the committed state is untouched.
    let deltas = {
        let sample = RegionTask {
            blocks: (0..blocks.len() as u32).collect(),
            clb_sites: (0..ann.clb_sites.len() as u32).collect(),
            io_sites: (0..ann.io_sites.len() as u32).collect(),
            attempts: blocks.len().min(200),
            seed: splitmix64(
                splitmix64(cfg.seed ^ cfg.parallelism.deterministic_seed.rotate_left(17))
                    ^ u64::MAX,
            ),
        };
        let ctx = PhaseCtx {
            pos: &ann.pos,
            net_costs: &ann.net_costs,
            term_idx: &ann.term_idx,
            net_q: &ann.net_q,
            nets_of: &ann.nets_of,
            clb_sites: &ann.clb_sites,
            io_sites: &ann.io_sites,
            n_clb,
            temp: f64::INFINITY,
            rlim,
        };
        run_region(&sample, &ctx).deltas
    };
    let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
    let var =
        deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len().max(1) as f64;
    let mut temp = 20.0 * var.sqrt().max(1.0);

    let exit_temp = |cost: f64, nets: usize| 0.005 * cost / nets.max(1) as f64;
    let mut sweep_no = 0u64;
    while temp > exit_temp(cost, nets.len()) {
        let (attempted, accepted) = ann.sweep(sweep_no, temp, rlim, moves_per_temp, threads, cfg);
        cost = ann.net_costs.iter().sum();
        // VPR's schedule: keep the acceptance rate near 0.44.
        let rate = accepted.len() as f64 / attempted.max(1) as f64;
        let alpha = if rate > 0.96 {
            0.5
        } else if rate > 0.8 {
            0.9
        } else if rate > 0.15 {
            0.95
        } else {
            0.8
        };
        temp *= alpha;
        rlim = (rlim * (1.0 - 0.44 + rate)).clamp(1.0, maxdim as f64);
        sweep_no += 1;
    }
    Ok(build_placement(&ann.pos, cost, nets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnnealingPlacer, Parallelism, PlaceEngine};
    use fpga_arch::{Architecture, ClbArch};
    use fpga_netlist::ir::{CellKind, Netlist};

    fn chain_clustering(n: usize) -> Clustering {
        let mut nl = Netlist::new("chain");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let mut prev = nl.net("x");
        nl.add_input(prev);
        for i in 0..n {
            let d = nl.net(&format!("d{i}"));
            let q = nl.net(&format!("q{i}"));
            nl.add_cell(
                &format!("l{i}"),
                CellKind::Lut { k: 1, truth: 0b01 },
                vec![prev],
                d,
            );
            nl.add_cell(
                &format!("f{i}"),
                CellKind::Dff {
                    clock: clk,
                    init: false,
                },
                vec![d],
                q,
            );
            prev = q;
        }
        nl.add_output(prev);
        fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap()
    }

    fn engine(seed: u64, inner_num: f64, threads: usize) -> AnnealingPlacer {
        AnnealingPlacer::new(
            PlaceConfig::new()
                .seed(seed)
                .inner_num(inner_num)
                .parallelism(Parallelism::serial().threads(threads)),
        )
    }

    #[test]
    fn placement_is_legal() {
        let c = chain_clustering(40);
        let device = Device::sized_for(
            Architecture::paper_default(),
            c.clusters.len(),
            c.netlist.inputs.len() + c.netlist.outputs.len(),
        );
        let p = engine(1, 5.0, 1).place(&c, device).unwrap();
        // Every block has a distinct slot of the right class.
        let mut seen = std::collections::HashSet::new();
        for (b, s) in &p.slots {
            assert!(seen.insert(*s), "slot reused: {s:?}");
            match p.device.block_at(s.loc) {
                fpga_arch::BlockKind::Clb => assert!(!b.is_io(), "{b:?} on CLB tile"),
                fpga_arch::BlockKind::Io => assert!(b.is_io(), "{b:?} on IO tile"),
                fpga_arch::BlockKind::Empty => panic!("block on empty tile"),
            }
            if b.is_io() {
                assert!((s.sub as usize) < p.device.arch.io_per_tile);
            } else {
                assert_eq!(s.sub, 0);
            }
        }
        assert!(p.cost > 0.0);
    }

    #[test]
    fn annealing_beats_initial_placement() {
        let c = chain_clustering(60);
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        // Compare against a clearly bad measure: the worst-case bbox if
        // every net spanned the whole chip.
        let p = engine(3, 4.0, 1).place(&c, device.clone()).unwrap();
        let span = (device.width + device.height) as f64;
        let worst: f64 = p
            .nets
            .iter()
            .map(|n| crate::cost::crossing_factor(n.terminals.len()) * span)
            .sum();
        assert!(
            p.cost < 0.8 * worst,
            "annealed cost {} should beat whole-chip spans {}",
            p.cost,
            worst
        );
        // A chain should place compactly: average net bbox small.
        let avg = p.hpwl() as f64 / p.nets.len() as f64;
        assert!(avg < span / 2.0, "avg net span {avg} vs chip span {span}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let c = chain_clustering(20);
        let mk = || {
            let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
            engine(7, 2.0, 1).place(&c, device).unwrap()
        };
        let p1 = mk();
        let p2 = mk();
        assert_eq!(p1.cost, p2.cost);
        assert_eq!(p1.slots, p2.slots);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let c = chain_clustering(48);
        let mk = |threads: usize| {
            let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
            engine(5, 2.0, threads).place(&c, device).unwrap()
        };
        let p1 = mk(1);
        for threads in [2, 3, 8] {
            let pn = mk(threads);
            assert_eq!(p1.slots, pn.slots, "threads={threads} diverged");
            assert_eq!(p1.cost.to_bits(), pn.cost.to_bits());
        }
    }

    #[test]
    fn deterministic_seed_changes_results() {
        let c = chain_clustering(30);
        let mk = |det: u64| {
            let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
            AnnealingPlacer::new(
                PlaceConfig::new()
                    .seed(5)
                    .inner_num(2.0)
                    .parallelism(Parallelism::serial().deterministic_seed(det)),
            )
            .place(&c, device)
            .unwrap()
        };
        assert_ne!(mk(0).slots, mk(99).slots);
    }

    #[test]
    fn too_small_device_rejected() {
        let c = chain_clustering(40);
        let device = Device::new(Architecture::paper_default(), 1, 1);
        assert!(matches!(
            engine(1, 5.0, 1).place(&c, device),
            Err(PlaceError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn place_file_lists_all_blocks() {
        let c = chain_clustering(10);
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        let p = engine(2, 1.0, 1).place(&c, device).unwrap();
        let text = p.write_place(&c);
        let body_lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(body_lines, p.slots.len());
        assert!(text.contains("clb_0"));
        assert!(text.contains("in_x"));
    }
}
