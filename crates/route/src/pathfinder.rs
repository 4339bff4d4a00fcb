//! PathFinder: negotiated-congestion routing.
//!
//! Each iteration rips up and reroutes nets by A* search over the RR
//! graph with the cost `base * (1 + hist) * (1 + pres * overuse)` and an
//! admissible manhattan distance-to-go bound toward the remaining sinks.
//! Present-congestion pressure (`pres`) grows each iteration, history
//! cost accumulates on persistently overused nodes, and the loop ends
//! when no node is shared.
//!
//! The iteration structure is serial Gauss-Seidel, as in VPR: the
//! worklist runs in canonical net order, every net routes against the
//! live congestion (its own previous tree's occupancy subtracted from
//! its cost view), and its new tree is committed before the next net
//! starts, so each net sees every rip-up and every tree routed before
//! it. After iteration 0, only nets whose trees touch an overused node
//! are rerouted (incremental rip-up); once the routing is legal, a
//! couple of full clean-up sweeps at frozen pressure reclaim the detour
//! cost the congested stragglers absorbed (see `POLISH_SWEEPS` —
//! incremental rip-up alone was measured notably worse on critical
//! path). Small *designs* run fully classic — full sweeps, no jitter,
//! no polish (see `SERIAL_WORKLIST`).
//!
//! The worklist and the commit order are functions of canonical net
//! order alone, and the search heap breaks cost ties by node id, so
//! results never depend on heap insertion order.
//!
//! Searches reuse one set of stamped labels and mark buffers instead of
//! allocating per sink, which is where most of the serial router's time
//! went on large graphs. See `route_net` for what keeps each relaxation
//! cheap and why none of it moves a tree.

use std::collections::BinaryHeap;

use fpga_netlist::ir::NetId;
use fpga_netlist::mix::splitmix64;
use fpga_pack::{ClusterId, Clustering};
use fpga_place::{BlockRef, Placement};

use crate::rrgraph::{clb_ipin, clb_opin, RrGraph, RrKind, RrNodeId};
use crate::{Result, RouteError};

/// One routed net: the tree as (node, parent-node) pairs, roots first.
#[derive(Clone, Debug)]
pub struct RoutedNet {
    pub net: NetId,
    pub source: RrNodeId,
    pub sinks: Vec<RrNodeId>,
    /// Every RR node used by the net, with its parent in the tree
    /// (`None` for the source).
    pub tree: Vec<(RrNodeId, Option<RrNodeId>)>,
}

impl RoutedNet {
    /// Wire segments used.
    pub fn wirelength(&self, g: &RrGraph) -> usize {
        self.tree.iter().filter(|(n, _)| g.is_wire(*n)).count()
    }
}

/// Search effort, counted where the work happens: one heap pop per
/// node taken off the frontier, one relaxation per successor edge
/// costed, one skipped pin per input-pin successor left uncosted
/// because it is not a sink the net is looking for. Those three are
/// route-stage metrics. The rest say where they went, and only
/// [`RouteResult::stats_table`] prints them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    pub heap_pops: u64,
    pub relaxations: u64,
    pub pins_skipped: u64,
    /// Tree nodes pushed at distance 0 to start a search, one per node
    /// of the net's tree so far for every sink.
    pub seeds: u64,
    /// Heap pushes, seeds included.
    pub pushes: u64,
    /// Pops of an entry whose node was pushed again, cheaper, since.
    pub stale_pops: u64,
    /// Relaxations that stopped before reading congestion: the
    /// successor was already labelled at or below the cheapest cost the
    /// edge could add.
    pub early_outs: u64,
    /// Searches run with more than `ASTAR_MAX_GOALS` (16) pending sinks,
    /// and so with no distance-to-go bound.
    pub unbounded_searches: u64,
}

impl SearchStats {
    fn add(&mut self, other: SearchStats) {
        self.heap_pops += other.heap_pops;
        self.relaxations += other.relaxations;
        self.pins_skipped += other.pins_skipped;
        self.seeds += other.seeds;
        self.pushes += other.pushes;
        self.stale_pops += other.stale_pops;
        self.early_outs += other.early_outs;
        self.unbounded_searches += other.unbounded_searches;
    }
}

/// One PathFinder iteration as the router saw it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterationStats {
    /// Nets ripped up and rerouted.
    pub worklist: usize,
    /// Nodes shared by more than one net after the iteration.
    pub overused: usize,
    pub search: SearchStats,
}

/// The routing result.
#[derive(Clone, Debug)]
pub struct RouteResult {
    pub nets: Vec<RoutedNet>,
    pub channel_width: usize,
    pub iterations: usize,
    /// Total wire segments used.
    pub wirelength: usize,
    /// One row per iteration run (polish sweeps included). A record of
    /// how the result was reached, not part of it: the codec leaves it
    /// out, so a decoded result carries none.
    pub stats: Vec<IterationStats>,
    /// The widths the min-W search visited, in order, with what it did
    /// at each; empty from a plain route. A record of the run like
    /// `stats`, and left out by the codec like it.
    pub probes: Vec<(usize, Probe)>,
    /// Whether the routing shipped finished every polish sweep: false
    /// when the iteration budget ran out mid-polish and the last legal
    /// routing shipped instead. A record of the run like `stats`; a
    /// decoded result reads false.
    pub polished: bool,
}

/// What the min-W search did at one width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// Routed, and the routing is legal.
    Routed,
    /// Routed, and failed.
    Failed,
    /// Not routed: below the channel demand, where no legal routing
    /// exists.
    BelowDemand,
    /// Not routed: this width already failed.
    Repeat,
}

impl Probe {
    /// Whether the router ran at this width.
    pub fn routed(self) -> bool {
        matches!(self, Probe::Routed | Probe::Failed)
    }
}

impl RouteResult {
    /// The first iteration (1-based) whose routing was legal, read off
    /// `stats`; `None` when no row was legal, or none was recorded.
    pub fn first_legal_iteration(&self) -> Option<usize> {
        self.stats
            .iter()
            .position(|r| r.overused == 0)
            .map(|i| i + 1)
    }

    /// Search effort summed over all iterations.
    pub fn search_totals(&self) -> SearchStats {
        let mut total = SearchStats::default();
        for row in &self.stats {
            total.add(row.search);
        }
        total
    }

    /// The per-iteration statistics as an aligned text table, one line
    /// per iteration plus a totals line.
    pub fn stats_table(&self) -> String {
        let mut out = format!(
            "{:>5} {:>9} {:>9} {:>12} {:>12} {:>13} {:>10} {:>11} {:>11} {:>11} {:>9}\n",
            "iter",
            "worklist",
            "overused",
            "heap_pops",
            "relaxations",
            "pins_skipped",
            "seeds",
            "pushes",
            "stale_pops",
            "early_outs",
            "unbounded"
        );
        let mut line = |label: &str, worklist: usize, overused: &str, s: SearchStats| {
            out.push_str(&format!(
                "{label:>5} {worklist:>9} {overused:>9} {:>12} {:>12} {:>13} {:>10} {:>11} {:>11} {:>11} {:>9}\n",
                s.heap_pops,
                s.relaxations,
                s.pins_skipped,
                s.seeds,
                s.pushes,
                s.stale_pops,
                s.early_outs,
                s.unbounded_searches
            ));
        };
        for (i, row) in self.stats.iter().enumerate() {
            let overused = row.overused.to_string();
            line(&i.to_string(), row.worklist, &overused, row.search);
        }
        let rerouted = self.stats.iter().map(|r| r.worklist).sum();
        line("total", rerouted, "", self.search_totals());
        out
    }
}

/// Endpoints of every routable net in RR-graph terms.
pub fn net_endpoints(
    clustering: &Clustering,
    placement: &Placement,
    g: &RrGraph,
) -> Result<Vec<(NetId, RrNodeId, Vec<RrNodeId>)>> {
    let device = &placement.device;
    let slot_of = |b: BlockRef| {
        let unplaced = || RouteError::BadEndpoint(format!("{b:?} is not placed"));
        placement.slot(b).ok_or_else(unplaced)
    };
    let cluster = |c: ClusterId| {
        let unknown = || RouteError::BadEndpoint(format!("cluster {} is not packed", c.0));
        clustering.clusters.get(c.0 as usize).ok_or_else(unknown)
    };
    let mut out = Vec::new();
    for pn in &placement.nets {
        let Some((&driver, sink_terms)) = pn.terminals.split_first() else {
            return Err(RouteError::BadEndpoint(format!(
                "net {} has no terminals",
                pn.net.0
            )));
        };
        let source = match driver {
            BlockRef::Cluster(c) => {
                let loc = slot_of(driver)?.loc;
                cluster(c)?;
                let slot = clustering.output_slot(c, pn.net).ok_or_else(|| {
                    RouteError::BadEndpoint(format!(
                        "cluster {} does not drive net {}",
                        c.0,
                        clustering.netlist.net_name(pn.net)
                    ))
                })?;
                clb_opin(g, device, loc, slot)
                    .ok_or_else(|| RouteError::BadEndpoint("missing CLB opin".to_string()))?
            }
            BlockRef::InputPad(_) => {
                let slot = slot_of(driver)?;
                g.find(RrKind::Opin {
                    x: slot.loc.x,
                    y: slot.loc.y,
                    pin: slot.sub,
                })
                .ok_or_else(|| RouteError::BadEndpoint("missing pad opin".into()))?
            }
            BlockRef::OutputPad(_) => {
                return Err(RouteError::BadEndpoint(
                    "net driven by an output pad".into(),
                ))
            }
        };
        let mut sinks = Vec::new();
        for &term in sink_terms {
            match term {
                BlockRef::Cluster(c) => {
                    let loc = slot_of(term)?.loc;
                    let idx = cluster(c)?.input_pin(pn.net).ok_or_else(|| {
                        RouteError::BadEndpoint(format!(
                            "cluster {} does not consume net {}",
                            c.0,
                            clustering.netlist.net_name(pn.net)
                        ))
                    })?;
                    sinks.push(
                        clb_ipin(g, loc, idx)
                            .ok_or_else(|| RouteError::BadEndpoint("missing CLB ipin".into()))?,
                    );
                }
                BlockRef::OutputPad(_) => {
                    let slot = slot_of(term)?;
                    sinks.push(
                        g.find(RrKind::Ipin {
                            x: slot.loc.x,
                            y: slot.loc.y,
                            pin: slot.sub,
                        })
                        .ok_or_else(|| RouteError::BadEndpoint("missing pad ipin".into()))?,
                    );
                }
                BlockRef::InputPad(_) => {
                    return Err(RouteError::BadEndpoint("input pad listed as a sink".into()))
                }
            }
        }
        out.push((pn.net, source, sinks));
    }
    Ok(out)
}

/// The most distinct nets with a pin on any one channel segment,
/// counting only nets with at least one sink: no legal routing exists
/// at a narrower channel, for any engine and any Fc. An output pin's
/// only successors and an input pin's only predecessors are wires of
/// the pin's own segment, and no edge joins two pins, so such a net
/// holds a wire of every segment it has a pin on — and a legal routing
/// gives each wire one net. On the one-track graph every segment is a
/// single wire, so wire ids name segments.
pub(crate) fn channel_demand(clustering: &Clustering, placement: &Placement) -> Result<usize> {
    let g = RrGraph::build(&placement.device, 1);
    let mut nets_on = vec![0usize; g.node_count()];
    let mut segments = Vec::new();
    for (_, source, sinks) in net_endpoints(clustering, placement, &g)? {
        if sinks.is_empty() {
            continue;
        }
        segments.clear();
        segments.extend_from_slice(g.successors(source));
        for &sink in &sinks {
            g.for_each_feeder(sink, |wire| segments.push(wire));
        }
        segments.sort_unstable();
        segments.dedup();
        for wire in &segments {
            nets_on[wire.0 as usize] += 1;
        }
    }
    Ok(nets_on.into_iter().max().unwrap_or(0))
}

/// One frontier entry, 16 bytes. `cost` is the bit pattern of the
/// priority (path cost plus distance-to-go), a non-negative finite f64:
/// for those, the bits order exactly like the number. `seq` is the push
/// id; the entry is live while it is still its node's latest push.
#[derive(Clone, Copy)]
struct HeapEntry {
    cost: u64,
    node: u32,
    seq: u32,
}

impl HeapEntry {
    fn new(cost: f64, node: RrNodeId, seq: u32) -> Self {
        debug_assert!(
            cost.is_finite() && cost.is_sign_positive(),
            "heap priority {cost} is not a non-negative finite number"
        );
        HeapEntry {
            cost: cost.to_bits(),
            node: node.0,
            seq,
        }
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on cost; ties broken by node id so pop order never
        // depends on heap insertion history. `seq` is not part of the key.
        (other.cost, other.node).cmp(&(self.cost, self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for HeapEntry {}

/// Beyond this fanout, remaining sinks blanket the chip and a
/// min-over-sinks bound prunes little while costing O(sinks) per edge.
const ASTAR_MAX_GOALS: usize = 16;

/// Base cost of a channel wire and of a pin; the congestion, history
/// and jitter multipliers on top of them are all >= 1.
const WIRE_COST: f64 = 1.0;
const PIN_COST: f64 = 0.9;

/// Distance-to-go lower bound for A*, `h_fac * (manhattan - 1)` to the
/// nearest goal. Every node carries the (x, y) of its tile or channel
/// segment and every RR edge moves at most one step in that label space
/// (unit-length segments, disjoint switch boxes, pin-to-adjacent-channel
/// connections), so a node at distance `d` is at least `d` edges from
/// the goal pin. Every edge the search relaxes enters a wire (cost >=
/// `WIRE_COST`) except the last one into the sink pin (>= `PIN_COST`),
/// which the -1 slack leaves out of the count: the remaining cost is at
/// least `WIRE_COST * (d - 1)`, so any `h_fac <= WIRE_COST` is
/// admissible, and consistent because one edge changes `d` by at most
/// one and costs at least `h_fac`. An empty goal list means "no bound"
/// (plain Dijkstra).
fn lower_bound(h_fac: f64, goals: &[(i32, i32)], at: (i32, i32)) -> f64 {
    let mut best = i32::MAX;
    for &(gx, gy) in goals {
        let d = (gx - at.0).abs() + (gy - at.1).abs();
        best = best.min(d);
    }
    if best == i32::MAX {
        0.0
    } else {
        h_fac * (best - 1).max(0) as f64
    }
}

/// `h_fac` of a search whose costs carry per-(net, node) jitter: the
/// tightest admissible value. Jitter makes the cheapest path to the
/// cheapest sink unique, and a consistent bound always finds that path,
/// so tightening it shrinks the explored region without touching the
/// tree.
const H_FAC_JITTER: f64 = WIRE_COST;
/// `h_fac` of a classic-mode search (no jitter). Equal-cost paths are
/// common there and the winner is whichever the pop order reaches first
/// — which depends on the bound. The minimum-channel-width results of
/// small designs hang on those tie-breaks, so classic mode keeps the
/// looser bound it has always had.
const H_FAC_CLASSIC: f64 = 0.9;

type Tree = Vec<(RrNodeId, Option<RrNodeId>)>;

/// Deterministic per-(net, node) cost jitter in `[0, JITTER_FAC)`.
///
/// Keyed on `(net, node)`, never on iteration, so two symmetric nets
/// see slightly different cost landscapes. It was the tie-breaker of
/// the blind batches the router once ran; it stays, with
/// `H_FAC_JITTER`, until measured on its own (ROADMAP 19).
const JITTER_FAC: f64 = 0.01;

fn jitter(net_salt: u64, node: usize) -> f64 {
    1.0 + JITTER_FAC
        * ((splitmix64(net_salt ^ node as u64) >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
}

/// Iteration ceiling: the serial router's old 30 plus the third of
/// headroom the blind batches once needed. It stays until measured on
/// its own (ROADMAP 19).
const MAX_ITERATIONS: usize = 40;

/// The negotiation schedule: the present-congestion factor starts at
/// `PRES_FAC_FIRST` and grows by `PRES_FAC_MULT` per iteration; every
/// iteration adds `HIST_FAC` per unit of overuse to a node's history
/// cost. Constants because a routed result is a cache value whose key
/// names only the channel width.
const PRES_FAC_FIRST: f64 = 0.5;
const PRES_FAC_MULT: f64 = 1.8;
const HIST_FAC: f64 = 0.4;

/// A *design* with at most this many nets routes in classic mode
/// throughout: full sweeps, no jitter, no polish — plain PathFinder.
/// Convergence at *marginal* channel widths — exactly what
/// `find_min_channel_width` probes on small designs — measurably
/// degrades under incremental rip-up (minimum widths came out 1–2
/// tracks worse). The test is a function of the design alone.
const SERIAL_WORKLIST: usize = 512;

/// After this many consecutive iterations without the overused-node
/// count improving, incremental rerouting has stalled: the congested
/// stragglers keep trading the same nodes while every net that could
/// yield a resource sits outside the worklist. Escalate to full sweeps
/// — classic PathFinder's global renegotiation — until overuse drops
/// again. A pure function of the iteration history. Measured on
/// `rent_4k` at its pinned width of 44: incremental-only negotiation
/// parks at 2 overused nodes until the ceiling, while sweep escalation
/// converges.
const STAGNATION_SWEEP: usize = 3;

/// Full clean-up sweeps run after negotiation converges, at frozen
/// pressure. Incremental rip-up leaves the last-resolved nets with
/// whatever detours broke the congestion; once the landscape has
/// settled, rerouting every net lets those detours shorten through
/// space that is now free (occupied nodes stay prohibitively expensive
/// at converged pressure, so legality is re-checked, not assumed). If a
/// polish sweep reintroduces overuse, normal negotiation resumes; the
/// last legal routing is kept as a fallback.
const POLISH_SWEEPS: usize = 2;

/// A node's search label, `(dist, prev, stamp)`: path cost, parent node
/// and the id of the node's latest push. One 16-byte entry per node, so
/// a relaxation touches one cache line for all three.
type Label = (f64, u32, u32);

/// The push counter restarts, after clearing every stamp, before a
/// search that would start at or above this id. That leaves 2^30 ids to
/// one search, which pushes its seeds plus one entry per relaxation that
/// lowers a label: under a consistent bound, about one per RR edge, and
/// RR graphs that fit in memory have far fewer than 2^30 edges.
const PUSH_ID_LIMIT: u32 = 3 << 30;

/// A node's congestion, `(history, occupancy)`: the history cost and the
/// number of nets using it. Read together by every full relaxation.
type Congestion = (f64, u32);

/// Reusable search state. A label belongs to the current
/// search iff its stamp is at least the search's first push id, since
/// ids only grow; an entry popped from the heap is live iff its `seq` is
/// still its node's stamp. `mark` (in-tree), `own` (the net's previous
/// tree) and `sinkm` (pending sinks) are valid under the current net
/// epoch, as is `near_sink`, which flags the wires with an edge into one
/// of the net's sinks. Starting a search or a net invalidates the old
/// state in O(1) instead of re-zeroing node-count-sized buffers for
/// every sink of every net.
struct SearchBuffers {
    labels: Vec<Label>,
    /// The last push id handed out.
    pushes: u32,
    mark: Vec<u32>,
    own: Vec<u32>,
    sinkm: Vec<u32>,
    near_sink: Vec<u32>,
    net_epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    /// Effort of every search run on these buffers since the router
    /// last collected it.
    stats: SearchStats,
}

impl SearchBuffers {
    fn new(n: usize) -> Self {
        SearchBuffers {
            // All-zero tuples, so the pages are zeroed lazily by the OS
            // instead of written here.
            labels: vec![(0.0, 0, 0); n],
            pushes: first_push_id(),
            mark: vec![0; n],
            own: vec![0; n],
            sinkm: vec![0; n],
            near_sink: vec![0; n],
            net_epoch: 0,
            heap: BinaryHeap::new(),
            stats: SearchStats::default(),
        }
    }
}

/// The push id new buffers start from.
#[cfg(not(test))]
fn first_push_id() -> u32 {
    0
}

/// Tests may start new buffers just below [`PUSH_ID_LIMIT`], so that a
/// route runs through the stamp reset.
#[cfg(test)]
fn first_push_id() -> u32 {
    tests::FIRST_PUSH_ID.with(std::cell::Cell::get)
}

/// A*-grown route tree for one net against the current congestion, with
/// the net's own previous tree subtracted from its view.
///
/// An input pin that is not a pending sink of this net is never relaxed.
/// Such a pin could only ever be popped and dropped — a path cannot run
/// *through* a pin, and nothing reads its label — and the live entries
/// pop in `(cost, node id)` order, so leaving its entries out changes no
/// other pop, no label and no tree. The pin part of a wire's successor
/// range is read only when `near_sink` says the wire feeds one of the
/// net's sinks.
///
/// A successor already labelled in this search at `dist <= d + base` is
/// left before its congestion is read: every multiplier on `base` is at
/// least 1 and rounding is monotone, so its cost could not come out
/// below `d + base`, and the label would not move.
#[allow(clippy::too_many_arguments)]
fn route_net(
    g: &RrGraph,
    net_salt: Option<u64>,
    source: RrNodeId,
    sinks: &[RrNodeId],
    congestion: &[Congestion],
    own_old: Option<&[(RrNodeId, Option<RrNodeId>)]>,
    pres_fac: f64,
    bufs: &mut SearchBuffers,
) -> Option<Tree> {
    bufs.net_epoch += 1;
    let ne = bufs.net_epoch;
    let SearchBuffers {
        labels,
        pushes,
        mark,
        own,
        sinkm,
        near_sink,
        heap,
        ..
    } = bufs;
    if let Some(old) = own_old {
        for (node, _) in old {
            own[node.0 as usize] = ne;
        }
    }
    let mut tree: Tree = vec![(source, None)];
    mark[source.0 as usize] = ne;
    let mut remaining = 0usize;
    for s in sinks {
        if sinkm[s.0 as usize] != ne {
            sinkm[s.0 as usize] = ne;
            remaining += 1;
            g.for_each_feeder(*s, |wire| near_sink[wire.0 as usize] = ne);
        }
    }

    let h_fac = if net_salt.is_some() {
        H_FAC_JITTER
    } else {
        H_FAC_CLASSIC
    };
    let mut stats = SearchStats::default();
    let mut goals: Vec<(i32, i32)> = Vec::new();
    let routed = 'net: {
        while remaining > 0 {
            // A* from the whole current tree to the nearest sink: plain
            // Dijkstra ordering plus the `lower_bound` estimate, which
            // steers the wavefront toward the remaining sinks instead of
            // flooding cost-annuli across the whole chip. The bound is
            // consistent, so the first sink popped still carries its
            // true minimum path cost. Among paths of exactly equal cost
            // the bound does pick the winner (see `H_FAC_CLASSIC`).
            goals.clear();
            if remaining <= ASTAR_MAX_GOALS {
                goals.extend(
                    sinks
                        .iter()
                        .filter(|s| sinkm[s.0 as usize] == ne)
                        .map(|&s| g.tile(s)),
                );
            } else {
                stats.unbounded_searches += 1;
            }
            if *pushes >= PUSH_ID_LIMIT {
                labels.iter_mut().for_each(|l| l.2 = 0);
                *pushes = 0;
            }
            let first = *pushes + 1;
            heap.clear();
            for &(tn, _) in &tree {
                *pushes += 1;
                labels[tn.0 as usize] = (0.0, u32::MAX, *pushes);
                let cost = lower_bound(h_fac, &goals, g.tile(tn));
                heap.push(HeapEntry::new(cost, tn, *pushes));
            }
            stats.seeds += tree.len() as u64;
            let mut reached: Option<RrNodeId> = None;
            while let Some(entry) = heap.pop() {
                stats.heap_pops += 1;
                let i = entry.node as usize;
                let (d, _, stamp) = labels[i];
                if entry.seq != stamp {
                    // Every push lowers its node's dist, so this entry
                    // carries an older, higher one.
                    stats.stale_pops += 1;
                    continue;
                }
                let node = RrNodeId(entry.node);
                if sinkm[i] == ne {
                    reached = Some(node);
                    break;
                }
                // An input pin popped here is already part of the tree
                // and has no successors: paths end at pins.
                let mut relax = |succ: RrNodeId, base: f64| {
                    let si = succ.0 as usize;
                    let label = &mut labels[si];
                    let labelled = label.2 >= first;
                    if labelled && label.0 <= d + base {
                        stats.early_outs += 1;
                        return;
                    }
                    let (hist, occ) = congestion[si];
                    // Capacity 1: occ >= 1 means congestion next. The
                    // net's own previous use is not congestion.
                    let occ = if occ == 0 {
                        0
                    } else {
                        occ - (own[si] == ne) as u32
                    };
                    let c = d + base
                        * (1.0 + hist)
                        * (1.0 + pres_fac * occ as f64)
                        * net_salt.map_or(1.0, |salt| jitter(salt, si));
                    if !labelled || c < label.0 {
                        *pushes += 1;
                        *label = (c, node.0, *pushes);
                        let cost = c + lower_bound(h_fac, &goals, g.tile(succ));
                        heap.push(HeapEntry::new(cost, succ, *pushes));
                    }
                };
                let (wires, pins) = g.split_successors(node);
                stats.relaxations += wires.len() as u64;
                for &succ in wires {
                    relax(succ, WIRE_COST);
                }
                if near_sink[i] == ne {
                    for &succ in pins {
                        if sinkm[succ.0 as usize] == ne {
                            stats.relaxations += 1;
                            relax(succ, PIN_COST);
                        } else {
                            stats.pins_skipped += 1;
                        }
                    }
                } else {
                    stats.pins_skipped += pins.len() as u64;
                }
            }
            stats.pushes += u64::from(*pushes - first + 1);
            let Some(sink) = reached else {
                break 'net None;
            };
            // Trace back to the tree.
            let mut cur = sink;
            let mut path = Vec::new();
            while mark[cur.0 as usize] != ne {
                let p = labels[cur.0 as usize].1;
                if p == u32::MAX {
                    break 'net None;
                }
                path.push((cur, Some(RrNodeId(p))));
                cur = RrNodeId(p);
            }
            for &(node, parent) in path.iter().rev() {
                tree.push((node, parent));
                mark[node.0 as usize] = ne;
            }
            sinkm[sink.0 as usize] = 0;
            remaining -= 1;
        }
        Some(tree)
    };
    bufs.stats.add(stats);
    routed
}

/// Route all nets of a placement on an RR graph (engine entry point).
pub(crate) fn route_with(
    clustering: &Clustering,
    placement: &Placement,
    g: &RrGraph,
) -> Result<RouteResult> {
    let endpoints = net_endpoints(clustering, placement, g)?;
    let mut congestion: Vec<Congestion> = vec![(0.0, 0); g.node_count()];
    let mut trees: Vec<Option<Tree>> = vec![None; endpoints.len()];
    let mut bufs = SearchBuffers::new(g.node_count());

    let finish = |trees: &[Option<Tree>], iterations: usize, stats, polished| -> RouteResult {
        let nets: Vec<RoutedNet> = endpoints
            .iter()
            .enumerate()
            .map(|(i, (net, source, sinks))| RoutedNet {
                net: *net,
                source: *source,
                sinks: sinks.clone(),
                tree: trees[i].clone().unwrap_or_default(),
            })
            .collect();
        let wirelength = nets.iter().map(|n| n.wirelength(g)).sum();
        RouteResult {
            nets,
            channel_width: g.channel_width(),
            iterations,
            wirelength,
            stats,
            probes: Vec::new(),
            polished,
        }
    };

    // Small designs route in classic mode: full sweeps, no jitter.
    // Their minimum channel width is itself a QoR metric (the
    // binary-search experiment), and marginal-width convergence
    // measurably degrades under incremental rip-up — while full sweeps
    // cost little at this size. The mode is a function of the design
    // alone.
    let classic = endpoints.len() <= SERIAL_WORKLIST;

    let mut pres_fac = PRES_FAC_FIRST;
    let mut polish_left = if classic { 0 } else { POLISH_SWEEPS };
    let mut last_legal: Option<(Vec<Option<Tree>>, usize)> = None;
    let mut prev_overused = usize::MAX;
    let mut stagnant = 0usize;
    let mut stats: Vec<IterationStats> = Vec::new();
    for iteration in 0..MAX_ITERATIONS {
        // Worklist in canonical net order. Iteration 0, classic mode,
        // polish sweeps (no overuse left), and stagnation escalation
        // (see STAGNATION_SWEEP) route every net; incremental
        // negotiation iterations reroute only nets whose tree touches
        // an overused node.
        let congested: Vec<u32> = (0..endpoints.len() as u32)
            .filter(|&i| {
                trees[i as usize]
                    .as_ref()
                    .is_some_and(|t| t.iter().any(|(n, _)| congestion[n.0 as usize].1 > 1))
            })
            .collect();
        let polishing = iteration > 0 && congested.is_empty();
        let worklist: Vec<u32> =
            if classic || iteration == 0 || polishing || stagnant >= STAGNATION_SWEEP {
                (0..endpoints.len() as u32).collect()
            } else {
                congested
            };
        // Serial Gauss-Seidel: each net routes against the live
        // occupancy, its own old tree subtracted, and commits before the
        // next net starts.
        for &wi in &worklist {
            let wi = wi as usize;
            let (net, source, sinks) = &endpoints[wi];
            let tree = route_net(
                g,
                (!classic).then(|| splitmix64(0x7ac0_5e1f ^ net.0 as u64)),
                *source,
                sinks,
                &congestion,
                trees[wi].as_deref(),
                pres_fac,
                &mut bufs,
            )
            .ok_or_else(|| RouteError::NoPath {
                channel_width: g.channel_width(),
                net: clustering.netlist.net_name(*net).to_string(),
            })?;
            if let Some(old) = trees[wi].take() {
                for (n, _) in &old {
                    congestion[n.0 as usize].1 -= 1;
                }
            }
            for (n, _) in &tree {
                congestion[n.0 as usize].1 += 1;
            }
            trees[wi] = Some(tree);
        }
        // Congestion check: every node capacity is 1.
        let mut overused = 0usize;
        for (history, occ) in &mut congestion {
            if *occ > 1 {
                overused += 1;
                *history += HIST_FAC * (*occ - 1) as f64;
            }
        }
        stats.push(IterationStats {
            worklist: worklist.len(),
            overused,
            search: std::mem::take(&mut bufs.stats),
        });
        if overused == 0 {
            if polish_left == 0 {
                return Ok(finish(&trees, iteration + 1, stats, true));
            }
            // Legal but not yet polished: keep this routing as the
            // fallback, hold pressure steady, and run a clean-up sweep
            // (next iteration's worklist is every net).
            last_legal = Some((trees.clone(), iteration + 1));
            polish_left -= 1;
            continue;
        }
        if overused >= prev_overused {
            stagnant += 1;
        } else {
            stagnant = 0;
        }
        prev_overused = overused;
        pres_fac *= PRES_FAC_MULT;
    }
    if let Some((trees, iterations)) = last_legal {
        // The iteration budget ran out mid-polish; the pre-polish
        // routing was legal, so ship that.
        return Ok(finish(&trees, iterations, stats, false));
    }
    let overused = congestion.iter().filter(|&&(_, occ)| occ > 1).count();
    Err(RouteError::Unroutable {
        channel_width: g.channel_width(),
        overused,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PathFinderRouter, RouteEngine};
    use fpga_arch::device::Device;
    use fpga_arch::{Architecture, ClbArch};
    use fpga_netlist::ir::{CellKind, Netlist};
    use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};

    fn flow(n_luts: usize, seed: u64) -> (Clustering, Placement) {
        // A few LUT+FF chains with cross-links for routing pressure.
        let mut nl = Netlist::new("t");
        let clk = nl.net("clk");
        nl.add_clock(clk);
        let a = nl.net("a");
        let b = nl.net("b");
        nl.add_input(a);
        nl.add_input(b);
        let mut prev = a;
        for i in 0..n_luts {
            let d = nl.net(&format!("d{i}"));
            let q = nl.net(&format!("q{i}"));
            nl.add_cell(
                &format!("l{i}"),
                CellKind::Lut {
                    k: 2,
                    truth: 0b0110,
                },
                vec![prev, b],
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
        let c = fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap();
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 8);
        let p = AnnealingPlacer::new(PlaceConfig::new().seed(seed).inner_num(2.0))
            .place(&c, device)
            .unwrap();
        (c, p)
    }

    #[test]
    fn routes_small_design() {
        let (c, p) = flow(12, 1);
        let g = RrGraph::build(&p.device, p.device.arch.routing.channel_width);
        let r = PathFinderRouter.route(&c, &p, &g).unwrap();
        assert_eq!(r.nets.len(), p.nets.len());
        assert!(r.wirelength > 0);
        // Classic mode: every iteration reroutes every net, the last
        // row is the legal one, and the pruning left pins uncosted.
        assert_eq!(r.stats.len(), r.iterations);
        assert!(r.stats.iter().all(|row| row.worklist == r.nets.len()));
        assert_eq!(r.stats.last().map(|row| row.overused), Some(0));
        let totals = r.search_totals();
        assert!(totals.heap_pops > 0 && totals.relaxations > 0 && totals.pins_skipped > 0);
        // Legality: no node used twice.
        let mut used = std::collections::HashSet::new();
        for net in &r.nets {
            for (node, _) in &net.tree {
                assert!(used.insert(*node), "node {:?} shared", g.kind(*node));
            }
        }
        // Connectivity: every sink is in its net's tree, every tree node's
        // parent precedes it.
        for net in &r.nets {
            let nodes: std::collections::HashSet<_> = net.tree.iter().map(|(n, _)| *n).collect();
            for s in &net.sinks {
                assert!(nodes.contains(s), "sink not reached");
            }
            for (i, (node, parent)) in net.tree.iter().enumerate() {
                if let Some(p) = parent {
                    let pos = net.tree.iter().position(|(n, _)| n == p).unwrap();
                    assert!(pos < i, "parent after child for {node:?}");
                } else {
                    assert_eq!(*node, net.source);
                }
            }
        }
    }

    #[test]
    fn trees_follow_graph_edges() {
        let (c, p) = flow(8, 2);
        let g = RrGraph::build(&p.device, 10);
        let r = PathFinderRouter.route(&c, &p, &g).unwrap();
        for net in &r.nets {
            for (node, parent) in &net.tree {
                if let Some(par) = parent {
                    assert!(
                        g.successors(*par).contains(node),
                        "tree edge {:?} -> {:?} not in graph",
                        g.kind(*par),
                        g.kind(*node)
                    );
                }
            }
        }
    }

    #[test]
    fn min_channel_width_is_found() {
        let (c, p) = flow(10, 3);
        let (w, r) = PathFinderRouter.find_min_channel_width(&c, &p, 64).unwrap();
        assert!((1..=64).contains(&w));
        assert_eq!(r.channel_width, w);
        // One less track must fail (minimality), unless already 1.
        if w > 1 {
            let g = RrGraph::build(&p.device, w - 1);
            assert!(PathFinderRouter.route(&c, &p, &g).is_err());
        }
    }

    thread_local! {
        pub(super) static FIRST_PUSH_ID: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// Buffers whose push counter runs past the reset threshold mid-route
    /// give the same trees and the same counts as fresh ones.
    #[test]
    fn push_ids_reset_without_changing_the_route() {
        let (c, p) = flow(20, 5);
        let g = RrGraph::build(&p.device, p.device.arch.routing.channel_width);
        let fresh = PathFinderRouter.route(&c, &p, &g).unwrap();
        FIRST_PUSH_ID.with(|id| id.set(PUSH_ID_LIMIT - 3));
        let wrapped = PathFinderRouter.route(&c, &p, &g);
        FIRST_PUSH_ID.with(|id| id.set(0));
        let wrapped = wrapped.unwrap();
        assert_eq!(fresh.stats, wrapped.stats);
        for (a, b) in fresh.nets.iter().zip(&wrapped.nets) {
            assert_eq!(a.tree, b.tree);
        }
    }

    /// A non-negative finite f64 drawn by `kind`: 0.0, a subnormal, any
    /// finite value, or the neighbour just above `bits`' value.
    fn priority(kind: u8, bits: u64) -> f64 {
        let any = f64::from_bits(bits % (f64::MAX.to_bits() + 1));
        match kind {
            0 => 0.0,
            1 => f64::from_bits(bits % (1 << 52)),
            2 => any,
            _ => f64::from_bits(any.to_bits().min(f64::MAX.to_bits() - 1) + 1),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The heap's integer key orders like the priority it encodes,
        /// ties broken by node id, and pops the least first.
        #[test]
        fn heap_keys_order_like_their_costs(
            ka in 0u8..4,
            kb in 0u8..4,
            bits in 0u64..u64::MAX,
            na in 0u32..3,
            nb in 0u32..3,
        ) {
            let a = priority(ka, bits);
            let b = priority(kb, if kb == 3 { bits } else { bits.rotate_left(29) });
            proptest::prop_assert!(a.is_finite() && a.is_sign_positive());
            proptest::prop_assert!(b.is_finite() && b.is_sign_positive());
            proptest::prop_assert_eq!(
                a.to_bits().cmp(&b.to_bits()),
                a.partial_cmp(&b).unwrap()
            );
            let (ea, eb) = (HeapEntry::new(a, RrNodeId(na), 1), HeapEntry::new(b, RrNodeId(nb), 2));
            let numeric = a.partial_cmp(&b).unwrap().then(na.cmp(&nb));
            proptest::prop_assert_eq!(eb.cmp(&ea), numeric);
        }
    }

    /// A malformed placement — a net with no terminals, or a terminal on
    /// a cluster the clustering does not have — is a bad endpoint to the
    /// router and to the min-W search (whose channel-demand floor meets
    /// it first), not a panic.
    #[test]
    fn a_malformed_placement_is_a_bad_endpoint() {
        let (c, p) = flow(10, 3);
        let check = |p: &Placement, msg: String| {
            let g = RrGraph::build(&p.device, 12);
            let bad = Err(RouteError::BadEndpoint(msg));
            assert_eq!(PathFinderRouter.route(&c, p, &g).map(|_| ()), bad);
            assert_eq!(
                PathFinderRouter
                    .find_min_channel_width(&c, p, 64)
                    .map(|_| ()),
                bad
            );
        };

        let mut empty = p.clone();
        empty.nets.push(fpga_place::PlacedNet {
            net: NetId(0),
            terminals: Vec::new(),
        });
        check(&empty, "net 0 has no terminals".into());

        // Move a cluster terminal, driver or sink, to a cluster one past
        // the last, placed where the real one is.
        let unknown = BlockRef::Cluster(ClusterId(c.clusters.len() as u32));
        for driver in [true, false] {
            let mut p = p.clone();
            let (ni, ti) = p
                .nets
                .iter()
                .enumerate()
                .find_map(|(ni, n)| {
                    let ti = n.terminals.iter().enumerate().position(|(ti, t)| {
                        (ti == 0) == driver && matches!(t, BlockRef::Cluster(_))
                    })?;
                    Some((ni, ti))
                })
                .unwrap();
            let slot = p.slot(p.nets[ni].terminals[ti]).unwrap();
            p.nets[ni].terminals[ti] = unknown;
            p.slots.push((unknown, slot));
            p.slots.sort_unstable_by_key(|&(b, _)| b);
            check(&p, format!("cluster {} is not packed", c.clusters.len()));
        }
    }

    /// A placement that lost a driving input pad is a bad endpoint to
    /// the router and to the min-W search, not a panic.
    #[test]
    fn a_missing_pad_is_a_bad_endpoint() {
        let (c, mut p) = flow(10, 3);
        let pad = p
            .nets
            .iter()
            .map(|n| n.terminals[0])
            .find(|t| matches!(t, BlockRef::InputPad(_)))
            .unwrap();
        p.slots.retain(|&(b, _)| b != pad);
        let g = RrGraph::build(&p.device, 12);
        let unplaced = Err(RouteError::BadEndpoint(format!("{pad:?} is not placed")));
        assert_eq!(PathFinderRouter.route(&c, &p, &g).map(|_| ()), unplaced);
        assert_eq!(
            PathFinderRouter
                .find_min_channel_width(&c, &p, 64)
                .map(|_| ()),
            unplaced
        );
    }

    /// `k` nets from input pads on IO tile (1, 0) to output pads on
    /// (2, 3), plus, if asked, a net with no sink driven from (1, 0) too.
    fn pad_nets(k: u32, sinkless: bool) -> (Clustering, Placement) {
        use fpga_arch::device::GridLoc;
        use fpga_place::{PlacedNet, Slot};

        let (c, _) = flow(1, 1);
        let mut arch = Architecture::paper_default();
        arch.io_per_tile = k as usize + 1;
        let slot = |x, y, sub| Slot {
            loc: GridLoc::new(x, y),
            sub,
        };
        let mut slots = Vec::new();
        let mut nets = Vec::new();
        for i in 0..k + sinkless as u32 {
            let net = NetId(i);
            let mut terminals = vec![BlockRef::InputPad(net)];
            slots.push((BlockRef::InputPad(net), slot(1, 0, i)));
            if i < k {
                terminals.push(BlockRef::OutputPad(net));
                slots.push((BlockRef::OutputPad(net), slot(2, 3, i)));
            }
            nets.push(PlacedNet { net, terminals });
        }
        slots.sort_unstable_by_key(|&(b, _)| b);
        let p = Placement {
            device: Device::new(arch, 2, 2),
            slots,
            cost: 0.0,
            nets,
            stats: Vec::new(),
        };
        (c, p)
    }

    #[test]
    fn channel_demand_counts_the_nets_on_the_busiest_segment() {
        for k in [1, 3, 5] {
            let (c, p) = pad_nets(k, false);
            assert_eq!(channel_demand(&c, &p), Ok(k as usize));
            let (c, p) = pad_nets(k, true);
            assert_eq!(
                channel_demand(&c, &p),
                Ok(k as usize),
                "a sinkless net needs no wire"
            );
        }
        let (c, p) = pad_nets(5, false);
        let g = RrGraph::build(&p.device, 4);
        assert!(
            PathFinderRouter.route(&c, &p, &g).is_err(),
            "5 nets through a 4-track segment"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        #[test]
        fn channel_demand_is_a_floor_no_router_goes_below(n in 2usize..24, seed in 1u64..64) {
            let (c, p) = flow(n, seed);
            let demand = channel_demand(&c, &p).unwrap();
            let (w, _) = PathFinderRouter.find_min_channel_width(&c, &p, 64).unwrap();
            proptest::prop_assert!(demand <= w, "demand {} above the width found {}", demand, w);
            if demand > 1 {
                let g = RrGraph::build(&p.device, demand - 1);
                proptest::prop_assert!(
                    PathFinderRouter.route(&c, &p, &g).is_err(),
                    "routed at W = {} below the demand {}", demand - 1, demand
                );
            }
        }
    }

    #[test]
    fn tiny_channel_is_unroutable() {
        let (c, p) = flow(25, 4);
        let g = RrGraph::build(&p.device, 1);
        let r = PathFinderRouter;
        match r.route(&c, &p, &g) {
            Err(RouteError::Unroutable { .. }) | Err(RouteError::NoPath { .. }) => {}
            Ok(r) => {
                // Highly unlikely but legal for trivially small placements.
                assert!(r.wirelength > 0);
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
