//! Region-partitioned simulated annealing (the VPR schedule).
//!
//! The chip is partitioned into square regions whose side tracks the
//! annealer's range limit `rlim`. Each sweep runs two checkerboard
//! phases: all "even" regions (`(rx + ry) % 2 == 0`), then all "odd"
//! regions. Same-colour regions are never adjacent, and a move never
//! leaves its region, so the regions of one phase touch disjoint blocks
//! and sites. The partition origin alternates by half a region side
//! every sweep so blocks migrate across region boundaries over time;
//! while `rlim` still spans the chip the sweep degenerates to a single
//! whole-chip region, preserving the early global moves the VPR schedule
//! relies on.
//!
//! The regions of a phase run one after another on one thread. The
//! partition is not there for speed: it is the schedule, and the
//! schedule decides every placed byte (see "Exactness").
//!
//! # What a move touches
//!
//! The annealer's runtime is the cost of one move, so a move reads and
//! writes flat, index-addressed memory only and allocates nothing.
//! Blocks, sites (CLB sites first, then IO pads) and nets are dense
//! indices. The committed state is a `Board` — block → location,
//! block → site, site → block — plus one cost per net. The `Worker`
//! holds a *working copy* of both, refreshed from the committed state at
//! the start of a phase. A move writes the block's (and the displaced
//! block's) location into the copy, evaluates each affected net by plain
//! indexing, and on reject writes the two locations back; on accept it
//! also updates the copy's site and occupancy entries and net costs and
//! flags the blocks as touched. When a region's attempts are spent its
//! touched blocks are reported with their new sites and the copy is put
//! back — sites, occupancy, locations and the nets of the touched blocks
//! — from the phase-start state, so the next region starts from exactly
//! the state the phase started from.
//!
//! # The schedule a placement depends on
//!
//! * every region draws from its own xorshift stream seeded from
//!   `(seed, sweep, phase, region index)`;
//! * a region reads other regions' blocks as they stood at phase start
//!   (the undo above is what keeps the working copy equal to that
//!   snapshot outside the region being run) and moves only its own;
//! * per-region move batches are committed in region-index order at the
//!   phase barrier, and net costs are recomputed exactly afterwards;
//! * region geometry is a function of the schedule state (`rlim`, sweep
//!   number) only.
//!
//! # Exactness
//!
//! A placement is a cache value and the input of every routed byte;
//! `tests/place_golden.rs` pins its digests to the map-based loop this
//! one replaced. Kept from that loop, and not to be "tidied":
//! * the RNG draw sequence — one `range` for the block, one for the
//!   site, up to 8 redraws while the pick is farther than
//!   `rlim.max(2.0)` or is the block's own site, the 9th pick used even
//!   if out of range; an attempt whose class has at most one site in the
//!   region, or that ends on its own site, is spent without evaluating;
//!   `f64()` is drawn only when `delta > 0` and the temperature is
//!   finite;
//! * `delta` is summed over the affected nets in ascending unique net
//!   index, `new - old` per net, `old` being the region's own running
//!   cost for a net it already changed and the phase-start cost
//!   otherwise;
//! * a net's crossing factor comes from its terminal list as
//!   [`net_terminals`] built it, duplicates included (a cluster that
//!   drives a net it also reads is listed twice);
//! * a region gets `max(1, moves_per_temp * |region| / total)` attempts,
//!   and the initial temperature is sampled on a whole-chip region at
//!   `temp = ∞` whose moves are thrown away.

use fpga_arch::device::{Device, GridLoc};
use fpga_netlist::mix::{splitmix64, xorshift64, XORSHIFT_STAR};
use fpga_pack::{ClusterId, Clustering};

use crate::cost::{crossing_factor, net_terminals, PlacedNet};
use crate::engine::PlaceConfig;
use crate::{BlockRef, PlaceError, Result, Slot};

/// One sweep (one temperature) as the schedule saw it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SweepStats {
    /// Temperature and range limit the sweep ran at.
    pub temp: f64,
    pub rlim: f64,
    /// Regions that ran, both checkerboard phases together (1 while the
    /// range limit still spans the chip).
    pub regions: usize,
    pub attempted: usize,
    pub accepted: usize,
    /// Bounding-box cost after the sweep's last barrier.
    pub cost: f64,
}

/// The placement result.
#[derive(Clone, Debug)]
pub struct Placement {
    pub device: Device,
    /// Block -> placed slot, one entry per block, strictly ascending by
    /// block: [`Placement::slot`] binary-searches it, and every consumer
    /// reads it in this one order.
    pub slots: Vec<(BlockRef, Slot)>,
    /// Final bounding-box cost.
    pub cost: f64,
    /// Nets used for the cost (kept for routing and reports).
    pub nets: Vec<PlacedNet>,
    /// One row per annealing sweep. A record of how the result was
    /// reached, not part of it: the codec leaves it out, so a decoded
    /// placement carries none.
    pub stats: Vec<SweepStats>,
}

impl Placement {
    /// Slot of a block, or `None` if it is not placed.
    pub fn slot(&self, b: BlockRef) -> Option<Slot> {
        let i = self.slots.partition_point(|&(block, _)| block < b);
        self.slots.get(i).filter(|e| e.0 == b).map(|e| e.1)
    }

    /// Location of a block. Panics if the block is not placed.
    pub fn loc_of(&self, b: BlockRef) -> GridLoc {
        self.slot(b).expect("block is placed").loc
    }

    /// Location of a cluster.
    pub fn cluster_loc(&self, c: ClusterId) -> GridLoc {
        self.loc_of(BlockRef::Cluster(c))
    }

    /// Total half-perimeter wirelength (without crossing factors).
    pub fn hpwl(&self) -> u64 {
        self.nets
            .iter()
            .map(|n| half_perimeter(n.terminals.iter().map(|&t| self.loc_of(t))) as u64)
            .sum()
    }

    /// The per-sweep statistics as an aligned text table, one line per
    /// sweep plus a totals line.
    pub fn stats_table(&self) -> String {
        let mut out = format!(
            "{:>5} {:>12} {:>7} {:>7} {:>10} {:>10} {:>6} {:>12}\n",
            "sweep", "temp", "rlim", "regions", "attempted", "accepted", "rate", "cost"
        );
        let mut line = |label: &str, schedule: (&str, &str), row: &SweepStats| {
            let (temp, rlim) = schedule;
            let rate = row.accepted as f64 / row.attempted.max(1) as f64;
            out.push_str(&format!(
                "{label:>5} {temp:>12} {rlim:>7} {:>7} {:>10} {:>10} {rate:>6.3} {:>12.2}\n",
                row.regions, row.attempted, row.accepted, row.cost
            ));
        };
        let mut total = SweepStats {
            cost: self.cost,
            ..SweepStats::default()
        };
        for (i, row) in self.stats.iter().enumerate() {
            let schedule = (format!("{:.5}", row.temp), format!("{:.2}", row.rlim));
            line(&i.to_string(), (&schedule.0, &schedule.1), row);
            total.regions += row.regions;
            total.attempted += row.attempted;
            total.accepted += row.accepted;
        }
        line("total", ("", ""), &total);
        out
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
        for (block, slot) in &self.slots {
            let name = match block {
                BlockRef::Cluster(c) => format!("clb_{}", c.0),
                BlockRef::InputPad(n) => format!("in_{}", clustering.netlist.net_name(*n)),
                BlockRef::OutputPad(n) => format!("out_{}", clustering.netlist.net_name(*n)),
            };
            out.push_str(&format!(
                "{name} {} {} {}\n",
                slot.loc.x, slot.loc.y, slot.sub
            ));
        }
        out
    }
}

/// Half-perimeter of the bounding box of a net's terminal locations.
fn half_perimeter(terminals: impl Iterator<Item = GridLoc>) -> u32 {
    let mut min_x = u32::MAX;
    let mut max_x = 0;
    let mut min_y = u32::MAX;
    let mut max_y = 0;
    for loc in terminals {
        min_x = min_x.min(loc.x);
        max_x = max_x.max(loc.x);
        min_y = min_y.min(loc.y);
        max_y = max_y.max(loc.y);
    }
    (max_x - min_x) + (max_y - min_y)
}

/// [`half_perimeter`] of a net given as block indices into `loc`.
fn half_perimeter_at(terms: &[u32], loc: &[GridLoc]) -> u32 {
    half_perimeter(terms.iter().map(|&t| loc[t as usize]))
}

fn net_cost(net: &PlacedNet, p: &Placement) -> f64 {
    let hp = half_perimeter(net.terminals.iter().map(|&t| p.loc_of(t)));
    crossing_factor(net.terminals.len()) * hp as f64
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
        xorshift64(&mut self.0).wrapping_mul(XORSHIFT_STAR)
    }

    fn range(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// "No block" in [`Board::occ`].
const NONE: u32 = u32::MAX;

/// Where every block sits, three ways, kept in step: the location the
/// bounding boxes read, the site index a move compares and the
/// occupancy a move displaces through.
#[derive(Clone)]
struct Board {
    /// Block -> grid location.
    loc: Vec<GridLoc>,
    /// Block -> site index.
    site_of: Vec<u32>,
    /// Site index -> block, or [`NONE`].
    occ: Vec<u32>,
}

impl Board {
    fn copy_from(&mut self, other: &Board) {
        self.loc.copy_from_slice(&other.loc);
        self.site_of.copy_from_slice(&other.site_of);
        self.occ.copy_from_slice(&other.occ);
    }

    /// Put each `(block, site)` of a batch in place. The batch may chain
    /// (a block lands where another of the batch stood), so every old
    /// site is vacated before any new one is filled.
    fn place_all(&mut self, sites: &[Slot], batch: impl Iterator<Item = (u32, u32)> + Clone) {
        for (b, _) in batch.clone() {
            self.occ[self.site_of[b as usize] as usize] = NONE;
        }
        for (b, s) in batch {
            self.site_of[b as usize] = s;
            self.occ[s as usize] = b;
            self.loc[b as usize] = sites[s as usize].loc;
        }
    }

    /// Each block's site holds that block at that location; every other
    /// site is empty.
    fn is_consistent(&self, sites: &[Slot]) -> bool {
        let held = self.occ.iter().filter(|&&b| b != NONE).count();
        held == self.loc.len()
            && (0..self.loc.len()).all(|b| {
                let s = self.site_of[b] as usize;
                self.occ[s] == b as u32 && self.loc[b] == sites[s].loc
            })
    }
}

/// One region's slice of a checkerboard phase.
struct RegionTask {
    /// Blocks positioned inside this region at sweep start, ascending.
    blocks: Vec<u32>,
    /// CLB site indices inside this region, ascending.
    clb_sites: Vec<u32>,
    /// IO site indices inside this region, ascending.
    io_sites: Vec<u32>,
    attempts: usize,
    seed: u64,
}

/// Deterministic result of one region's moves.
struct RegionOutcome {
    /// `(block, new site)` for every block an accepted move displaced,
    /// ascending by block so the barrier commit has one order.
    moved: Vec<(u32, u32)>,
    accepted: usize,
}

/// The working copy moves are made on, equal to the phase-start state
/// outside the region being run, and the scratch a move would otherwise
/// allocate.
struct Worker {
    board: Board,
    net_costs: Vec<f64>,
    /// Block -> displaced by an accepted move of the current region.
    touched: Vec<bool>,
    affected: Vec<u32>,
    new_costs: Vec<f64>,
}

/// Run one region's annealing moves on the working copy of the
/// phase-start state `ann`, then put the copy back. The caller commits
/// the returned batch at the phase barrier. `on_accept` sees the delta
/// of every accepted move, in order.
fn run_region(
    task: &RegionTask,
    ann: &Annealer,
    temp: f64,
    rlim: f64,
    worker: &mut Worker,
    mut on_accept: impl FnMut(f64),
) -> RegionOutcome {
    let Worker {
        board,
        net_costs,
        touched,
        affected,
        new_costs,
    } = worker;
    let mut rng = XorShift::seeded(&[task.seed]);
    let reach = rlim.max(2.0);
    let mut accepted = 0usize;

    for _ in 0..task.attempts {
        let b = task.blocks[rng.range(task.blocks.len())] as usize;
        let region_sites = if b < ann.n_clb {
            &task.clb_sites
        } else {
            &task.io_sites
        };
        if region_sites.len() <= 1 {
            continue;
        }
        // Target site of the same class within the range limit.
        let from = board.loc[b];
        let from_site = board.site_of[b];
        let mut to_site = region_sites[rng.range(region_sites.len())];
        for _ in 0..8 {
            let to = ann.sites[to_site as usize].loc;
            if from.dist(&to) as f64 <= reach && to_site != from_site {
                break;
            }
            to_site = region_sites[rng.range(region_sites.len())];
        }
        if to_site == from_site {
            continue;
        }
        let to = ann.sites[to_site as usize].loc;
        let other = board.occ[to_site as usize];

        // Apply the swap to the working copy and collect the nets it
        // stretches or shrinks.
        affected.clear();
        affected.extend_from_slice(&ann.nets_of[b]);
        board.loc[b] = to;
        if other != NONE {
            affected.extend_from_slice(&ann.nets_of[other as usize]);
            board.loc[other as usize] = from;
        }
        affected.sort_unstable();
        affected.dedup();

        new_costs.clear();
        let mut delta = 0.0;
        for &ni in affected.iter() {
            let ni = ni as usize;
            let c = ann.net_q[ni] * half_perimeter_at(&ann.term_idx[ni], &board.loc) as f64;
            delta += c - net_costs[ni];
            new_costs.push(c);
        }

        let accept = delta <= 0.0
            || if temp.is_finite() {
                rng.f64() < (-delta / temp).exp()
            } else {
                true
            };
        if accept {
            board.site_of[b] = to_site;
            board.occ[to_site as usize] = b as u32;
            board.occ[from_site as usize] = other;
            touched[b] = true;
            if other != NONE {
                board.site_of[other as usize] = from_site;
                touched[other as usize] = true;
            }
            for (&ni, &c) in affected.iter().zip(new_costs.iter()) {
                net_costs[ni as usize] = c;
            }
            accepted += 1;
            on_accept(delta);
        } else {
            board.loc[b] = from;
            if other != NONE {
                board.loc[other as usize] = to;
            }
        }
    }

    let mut moved = Vec::new();
    for &b in &task.blocks {
        if std::mem::take(&mut touched[b as usize]) {
            moved.push((b, board.site_of[b as usize]));
        }
    }
    // Undo: back to the phase-start state for the next region. Only
    // nets of touched blocks were re-costed.
    board.place_all(
        &ann.sites,
        moved
            .iter()
            .map(|&(b, _)| (b, ann.board.site_of[b as usize])),
    );
    for &(b, _) in &moved {
        for &ni in &ann.nets_of[b as usize] {
            net_costs[ni as usize] = ann.net_costs[ni as usize];
        }
    }
    RegionOutcome { moved, accepted }
}

/// Run a phase's regions in task order, each from the phase-start state.
fn run_phase(
    tasks: &[RegionTask],
    ann: &Annealer,
    temp: f64,
    rlim: f64,
    worker: &mut Worker,
) -> Vec<RegionOutcome> {
    worker.board.copy_from(&ann.board);
    worker.net_costs.copy_from_slice(&ann.net_costs);
    tasks
        .iter()
        .map(|t| run_region(t, ann, temp, rlim, worker, |_| {}))
        .collect()
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

/// The committed state between phase barriers, and the tables a move
/// reads. A phase sees it through `&Annealer` while it runs.
struct Annealer {
    /// Grid extent, IO ring included.
    extent: (u32, u32),
    /// Blocks `0..n_clb` are clusters, the rest IO pads.
    n_clb: usize,
    /// Every site: `n_clb_sites` CLB sites, then the IO pads.
    sites: Vec<Slot>,
    n_clb_sites: usize,
    /// Per-net terminal block indices.
    term_idx: Vec<Vec<u32>>,
    /// Per-net crossing factor.
    net_q: Vec<f64>,
    /// Per-block touching-net indices.
    nets_of: Vec<Vec<u32>>,
    board: Board,
    net_costs: Vec<f64>,
}

impl Annealer {
    fn recompute_net_costs(&mut self) {
        for (ni, terms) in self.term_idx.iter().enumerate() {
            self.net_costs[ni] = self.net_q[ni] * half_perimeter_at(terms, &self.board.loc) as f64;
        }
    }

    fn worker(&self) -> Worker {
        Worker {
            board: self.board.clone(),
            net_costs: self.net_costs.clone(),
            touched: vec![false; self.board.loc.len()],
            affected: Vec::new(),
            new_costs: Vec::new(),
        }
    }

    /// One full sweep: bucket blocks/sites into regions, run the two
    /// checkerboard phases, commit batches in region order, and refresh
    /// net costs exactly.
    fn sweep(
        &mut self,
        sweep_no: u64,
        temp: f64,
        rlim: f64,
        moves_per_temp: usize,
        worker: &mut Worker,
        cfg: &PlaceConfig,
    ) -> SweepStats {
        // Region geometry covers the *full* grid including the IO ring
        // (coordinates run 0..=width+1), not just the logic columns.
        let (w, h) = self.extent;
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
        for (bi, &loc) in self.board.loc.iter().enumerate() {
            rblocks[rid_of(loc)].push(bi as u32);
        }
        let mut rclb: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
        let mut rio: Vec<Vec<u32>> = vec![Vec::new(); n_regions];
        for (si, s) in self.sites.iter().enumerate() {
            let class = if si < self.n_clb_sites {
                &mut rclb
            } else {
                &mut rio
            };
            class[rid_of(s.loc)].push(si as u32);
        }

        let total = self.board.loc.len();
        let mut row = SweepStats {
            temp,
            rlim,
            ..SweepStats::default()
        };
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
                        splitmix64(cfg.seed)
                            ^ (sweep_no << 8)
                            ^ ((color as u64) << 40)
                            ^ rid as u64,
                    ),
                });
            }
            if tasks.is_empty() {
                continue;
            }
            let outcomes = run_phase(&tasks, self, temp, rlim, worker);
            // Barrier: commit in region-index (task) order, then refresh
            // net costs so the next phase sees exact baselines.
            for (task, out) in tasks.iter().zip(outcomes) {
                row.regions += 1;
                row.attempted += task.attempts;
                row.accepted += out.accepted;
                self.board.place_all(&self.sites, out.moved.iter().copied());
            }
            self.recompute_net_costs();
            debug_assert!(self.board.is_consistent(&self.sites));
        }
        row.cost = self.net_costs.iter().sum();
        row
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
    // The one block index, `(block, annealer index)` ascending by block:
    // it resolves net terminals and, each index read as its block's
    // final site, is the output table.
    let mut index: Vec<(BlockRef, u32)> = blocks.iter().copied().zip(0..).collect();
    index.sort_unstable();
    let table = |board: &Board, sites: &[Slot]| -> Vec<(BlockRef, Slot)> {
        let site = |i: u32| sites[board.site_of[i as usize] as usize];
        index.iter().map(|&(b, i)| (b, site(i))).collect()
    };

    let mut sites: Vec<Slot> = device
        .clb_locs()
        .into_iter()
        .map(|loc| Slot { loc, sub: 0 })
        .collect();
    let n_clb_sites = sites.len();
    sites.extend(
        device
            .io_locs()
            .into_iter()
            .flat_map(|loc| (0..device.arch.io_per_tile as u32).map(move |sub| Slot { loc, sub })),
    );

    // Initial placement: each class fills its sites in order.
    let site_of: Vec<u32> = (0..n_clb)
        .chain(n_clb_sites..n_clb_sites + n_io)
        .map(|s| s as u32)
        .collect();
    let mut occ = vec![NONE; sites.len()];
    for (b, &s) in site_of.iter().enumerate() {
        occ[s as usize] = b as u32;
    }
    let board = Board {
        loc: site_of.iter().map(|&s| sites[s as usize].loc).collect(),
        site_of,
        occ,
    };

    if blocks.is_empty() || nets.is_empty() {
        let mut p = Placement {
            device,
            slots: table(&board, &sites),
            cost: 0.0,
            nets,
            stats: Vec::new(),
        };
        p.cost = p.nets.iter().map(|n| net_cost(n, &p)).sum();
        return Ok(p);
    }

    let annealer_index = |t: &BlockRef| match index.binary_search_by_key(t, |&(b, _)| b) {
        Ok(k) => index[k].1,
        Err(_) => panic!("net terminal {t:?} is not a block"),
    };
    let term_idx: Vec<Vec<u32>> = nets
        .iter()
        .map(|n| n.terminals.iter().map(annealer_index).collect())
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
        extent: device.extent(),
        n_clb,
        sites,
        n_clb_sites,
        term_idx,
        net_q,
        nets_of,
        board,
        net_costs: vec![0.0; nets.len()],
    };
    ann.recompute_net_costs();
    let mut cost: f64 = ann.net_costs.iter().sum();
    let mut worker = ann.worker();

    let moves_per_temp = ((cfg.inner_num * (blocks.len() as f64).powf(4.0 / 3.0)) as usize).max(16);
    let maxdim = device.width.max(device.height);
    let mut rlim = maxdim as f64;

    // Initial temperature: the std-dev of a sample of move deltas (VPR
    // uses 20x; accept-everything warm start). Sampled on a throwaway
    // whole-chip region whose batch is never committed.
    let mut deltas = Vec::new();
    let sample = RegionTask {
        blocks: (0..blocks.len() as u32).collect(),
        clb_sites: (0..n_clb_sites as u32).collect(),
        io_sites: (n_clb_sites as u32..ann.sites.len() as u32).collect(),
        attempts: blocks.len().min(200),
        seed: splitmix64(splitmix64(cfg.seed) ^ u64::MAX),
    };
    run_region(&sample, &ann, f64::INFINITY, rlim, &mut worker, |d| {
        deltas.push(d)
    });
    let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
    let var =
        deltas.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / deltas.len().max(1) as f64;
    let mut temp = 20.0 * var.sqrt().max(1.0);

    let exit_temp = |cost: f64, nets: usize| 0.005 * cost / nets.max(1) as f64;
    let mut stats = Vec::new();
    while temp > exit_temp(cost, nets.len()) {
        let row = ann.sweep(
            stats.len() as u64,
            temp,
            rlim,
            moves_per_temp,
            &mut worker,
            cfg,
        );
        cost = row.cost;
        // VPR's schedule: keep the acceptance rate near 0.44.
        let rate = row.accepted as f64 / row.attempted.max(1) as f64;
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
        stats.push(row);
    }
    Ok(Placement {
        device,
        slots: table(&ann.board, &ann.sites),
        cost,
        nets,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnnealingPlacer, PlaceEngine};
    use fpga_arch::{Architecture, ClbArch};
    use fpga_netlist::ir::{CellKind, Netlist};

    /// Recorded at eb39634, before the step and `splitmix64` moved to
    /// `fpga_netlist::mix`: the annealer's draws and its stream seeding.
    #[test]
    fn xorshift_keeps_its_recorded_streams() {
        let recorded: [(u64, [u64; 4]); 2] = [
            (
                1,
                [
                    0xbafacf624f01c45d,
                    0x02da6891e507685d,
                    0xfe17a361146fb7a5,
                    0xe1f55904ddd37531,
                ],
            ),
            (
                0x5eed_f10d,
                [
                    0xdfe501691d6debd3,
                    0xc203601f7280998c,
                    0x01d9f465dea7383b,
                    0xdcd4efc07376ff8d,
                ],
            ),
        ];
        for (seed, want) in recorded {
            let mut rng = XorShift(seed);
            let got: Vec<u64> = (0..4).map(|_| rng.next()).collect();
            assert_eq!(got, want, "state {seed:#x}");
        }
        assert_eq!(XorShift::seeded(&[7, 3, 1]).0, 0x83ade3851af195b2);
    }

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

    fn engine(seed: u64, inner_num: f64) -> AnnealingPlacer {
        AnnealingPlacer::new(PlaceConfig::new().seed(seed).inner_num(inner_num))
    }

    /// Every block has a distinct slot of the right class, and the table
    /// lists each block once, ascending.
    fn assert_legal(p: &Placement) {
        assert!(p.slots.windows(2).all(|w| w[0].0 < w[1].0));
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
    }

    #[test]
    fn placement_is_legal() {
        let c = chain_clustering(40);
        let device = Device::sized_for(
            Architecture::paper_default(),
            c.clusters.len(),
            c.netlist.inputs.len() + c.netlist.outputs.len(),
        );
        let p = engine(1, 5.0).place(&c, device).unwrap();
        assert_legal(&p);
        assert!(p.cost > 0.0);
    }

    /// The running costs a region keeps must never drift from the
    /// geometry: the reported cost is the sum over nets recomputed from
    /// the final slots, bit for bit — on a design with a net past the
    /// crossing-factor table (61 terminals) and a net whose driver
    /// cluster also reads it, so is listed twice.
    #[test]
    fn final_cost_is_the_sum_over_nets_at_the_final_slots() {
        let mut nl = Netlist::new("fan");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let x = nl.net("x");
        nl.add_input(x);
        let mut prev = nl.net("y");
        nl.add_input(prev);
        for i in 0..300 {
            let d = nl.net(&format!("d{i}"));
            let q = nl.net(&format!("q{i}"));
            let xor = CellKind::Lut {
                k: 2,
                truth: 0b0110,
            };
            nl.add_cell(&format!("l{i}"), xor, vec![x, prev], d);
            let dff = CellKind::Dff {
                clock: clk,
                init: false,
            };
            nl.add_cell(&format!("f{i}"), dff, vec![d], q);
            prev = q;
        }
        nl.add_output(prev);
        let mut c = fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap();
        // The packer never lists a cluster's own output among its
        // inputs; a hand-written .net file may.
        let own = c.bles[c.clusters[0].bles[0].0 as usize].output;
        for cluster in &mut c.clusters[..4] {
            if !cluster.inputs.contains(&own) {
                cluster.inputs.push(own);
            }
        }

        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        let p = engine(3, 1.0).place(&c, device).unwrap();
        assert_legal(&p);
        let fan = p.nets.iter().find(|n| n.net == x).unwrap();
        assert!(
            fan.terminals.len() > 50,
            "{} terminals",
            fan.terminals.len()
        );
        let looped = p.nets.iter().find(|n| n.net == own).unwrap();
        let driver = looped.terminals[0];
        assert_eq!(looped.terminals.iter().filter(|&&t| t == driver).count(), 2);
        assert!(looped.terminals.len() > 3, "past the flat part of q(t)");
        assert!(p.stats.iter().any(|s| s.accepted > 0));
        let recomputed: f64 = p.nets.iter().map(|n| net_cost(n, &p)).sum();
        assert_eq!(p.cost.to_bits(), recomputed.to_bits());
    }

    /// One cluster on a 1 x 1 device: the CLB class has a single site,
    /// so a pick of the cluster spends its attempt without a move.
    #[test]
    fn single_clb_site_spends_the_attempt_and_terminates() {
        let c = chain_clustering(3);
        assert_eq!(c.clusters.len(), 1);
        let device = Device::new(Architecture::paper_default(), 1, 1);
        let p = engine(1, 1.0).place(&c, device).unwrap();
        assert_legal(&p);
        // 4 blocks: moves per temperature sit at the floor of 16, all in
        // the one whole-chip region.
        assert!(!p.stats.is_empty());
        for row in &p.stats {
            assert_eq!((row.regions, row.attempted), (1, 16));
        }
    }

    #[test]
    fn annealing_beats_initial_placement() {
        let c = chain_clustering(60);
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        // Compare against a clearly bad measure: the worst-case bbox if
        // every net spanned the whole chip.
        let p = engine(3, 4.0).place(&c, device.clone()).unwrap();
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
            engine(7, 2.0).place(&c, device).unwrap()
        };
        let p1 = mk();
        let p2 = mk();
        assert_eq!(p1.cost, p2.cost);
        assert_eq!(p1.slots, p2.slots);
    }

    #[test]
    fn too_small_device_rejected() {
        let c = chain_clustering(40);
        let device = Device::new(Architecture::paper_default(), 1, 1);
        assert!(matches!(
            engine(1, 5.0).place(&c, device),
            Err(PlaceError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn place_file_lists_all_blocks() {
        let c = chain_clustering(10);
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        let p = engine(2, 1.0).place(&c, device).unwrap();
        let text = p.write_place(&c);
        let body_lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(body_lines, p.slots.len());
        assert!(text.contains("clb_0"));
        assert!(text.contains("in_x"));
    }
}
