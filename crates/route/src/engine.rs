//! Engine-level routing API.
//!
//! Mirrors `fpga_place::engine`: the flow pipeline, lint drivers, and
//! bench harness consume routers through the [`RouteEngine`] trait so
//! alternative engines (a greedy pattern router, a timing-driven
//! PathFinder, ...) can be slotted in later. [`PathFinderRouter`] is the
//! production engine: serial PathFinder, each net routed against live
//! congestion and committed before the next, on one thread (see the
//! `pathfinder` module docs for the schedule).

use fpga_pack::Clustering;
use fpga_place::Placement;

use crate::pathfinder::{channel_demand, route_with, Probe, RouteResult};
use crate::rrgraph::RrGraph;
use crate::{Result, RouteError};

/// No effect: P&R runs on one thread; goes with ROADMAP 5's unfreeze.
#[derive(Clone, Copy, Debug)]
pub struct Parallelism;

/// Configuration for [`PathFinderRouter`]. The negotiation schedule is
/// fixed (a routed result is a cache value whose key names only the
/// channel width), so there is nothing to set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouteConfig;

impl RouteConfig {
    pub fn new() -> Self {
        Self
    }

    /// No effect: P&R runs on one thread; goes with ROADMAP 5's unfreeze.
    pub fn parallelism(self, _: Parallelism) -> Self {
        self
    }
}

/// A routing engine: connects every placed net on an RR graph.
pub trait RouteEngine {
    /// Route all nets of a placement on an RR graph.
    fn route(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        g: &RrGraph,
    ) -> Result<RouteResult>;

    /// Binary search for the minimum channel width that routes the design
    /// (the width VPR reports for an architecture). Starts from the
    /// architecture's default width (at most `max_width`), doubles until
    /// routable, then bisects. Only a failure that a different width
    /// could cure steers the search ([`RouteError::Unroutable`],
    /// [`RouteError::NoPath`]); any other error is returned from the probe
    /// that met it.
    ///
    /// A width whose verdict is already known is passed as failed without
    /// being routed: one below the `channel_demand` floor, where no
    /// legal routing exists, or one that already failed (routing is
    /// deterministic). The widths visited are those a search routing every
    /// probe would visit, so the result is the same one; `probes` on it
    /// says what happened at each. A probe at `max_width` is always
    /// routed, so giving up returns the router's own error.
    fn find_min_channel_width(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        max_width: usize,
    ) -> Result<(usize, RouteResult)> {
        let device = &placement.device;
        let floor = channel_demand(clustering, placement)?;
        let mut probes = Vec::new();
        let route_at = |w, probes: &mut Vec<(usize, Probe)>| {
            let routed = self.route(clustering, placement, &RrGraph::build(device, w));
            probes.push((w, routed.as_ref().map_or(Probe::Failed, |_| Probe::Routed)));
            routed
        };
        // Find an upper bound that routes.
        let mut hi = device.arch.routing.channel_width.max(2).min(max_width);
        let mut best = loop {
            if hi < floor && hi < max_width {
                probes.push((hi, Probe::BelowDemand));
            } else {
                match route_at(hi, &mut probes) {
                    Ok(r) => break (hi, r),
                    Err(e) if width_dependent(&e) && hi < max_width => {}
                    Err(e) => return Err(e),
                }
            }
            hi = (hi * 2).min(max_width);
        };
        let mut lo = 1usize;
        while lo < best.0 {
            let mid = (lo + best.0) / 2;
            if mid < floor {
                probes.push((mid, Probe::BelowDemand));
                lo = mid + 1;
            } else if probes.contains(&(mid, Probe::Failed)) {
                probes.push((mid, Probe::Repeat));
                lo = mid + 1;
            } else {
                match route_at(mid, &mut probes) {
                    Ok(r) => best = (mid, r),
                    Err(e) if width_dependent(&e) => lo = mid + 1,
                    Err(e) => return Err(e),
                }
            }
        }
        best.1.probes = probes;
        Ok(best)
    }
}

fn width_dependent(e: &RouteError) -> bool {
    matches!(e, RouteError::Unroutable { .. } | RouteError::NoPath { .. })
}

/// The serial PathFinder negotiated-congestion router: nets route one
/// at a time in canonical order, each committed before the next.
#[derive(Clone, Debug, Default)]
pub struct PathFinderRouter;

impl PathFinderRouter {
    pub fn new(_: RouteConfig) -> Self {
        PathFinderRouter
    }
}

impl RouteEngine for PathFinderRouter {
    fn route(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        g: &RrGraph,
    ) -> Result<RouteResult> {
        route_with(clustering, placement, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the width of every probe the trait's default min-W search
    /// routes.
    struct Counting<E> {
        inner: E,
        widths: std::cell::RefCell<Vec<usize>>,
    }

    impl<E> Counting<E> {
        fn new(inner: E) -> Self {
            Counting {
                inner,
                widths: Default::default(),
            }
        }
    }

    impl<E: RouteEngine> RouteEngine for Counting<E> {
        fn route(&self, c: &Clustering, p: &Placement, g: &RrGraph) -> Result<RouteResult> {
            self.widths.borrow_mut().push(g.channel_width());
            self.inner.route(c, p, g)
        }
    }

    /// Fails every probe with a fixed error.
    struct Failing(RouteError);

    impl RouteEngine for Failing {
        fn route(&self, _: &Clustering, _: &Placement, _: &RrGraph) -> Result<RouteResult> {
            Err(self.0.clone())
        }
    }

    /// One LUT between two input pads and an output pad, packed and placed.
    fn placed_lut() -> (Clustering, Placement) {
        use fpga_arch::{device::Device, Architecture, ClbArch};
        use fpga_netlist::ir::{CellKind, Netlist};
        use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine};

        let mut nl = Netlist::new("t");
        let (a, b, y) = (nl.net("a"), nl.net("b"), nl.net("y"));
        nl.add_input(a);
        nl.add_input(b);
        nl.add_cell(
            "l",
            CellKind::Lut {
                k: 2,
                truth: 0b0110,
            },
            vec![a, b],
            y,
        );
        nl.add_output(y);
        let c = fpga_pack::pack(&nl, &ClbArch::paper_default()).unwrap();
        let device = Device::sized_for(Architecture::paper_default(), c.clusters.len(), 4);
        let p = AnnealingPlacer::new(PlaceConfig::new().seed(1).inner_num(1.0))
            .place(&c, device)
            .unwrap();
        (c, p)
    }

    fn search<E: RouteEngine>(inner: E, c: &Clustering, p: &Placement) -> (usize, RouteError) {
        let engine = Counting::new(inner);
        let err = engine.find_min_channel_width(c, p, 64).unwrap_err();
        (engine.widths.into_inner().len(), err)
    }

    #[test]
    fn min_width_search_returns_a_width_independent_error_at_once() {
        let (mut c, p) = placed_lut();
        // The placement still says cluster 0 drives `y`; the clustering
        // no longer does. No channel width cures that.
        c.clusters[0].bles.clear();
        let (calls, err) = search(PathFinderRouter, &c, &p);
        assert!(matches!(err, RouteError::BadEndpoint(_)), "{err}");
        assert_eq!(
            calls, 0,
            "a BadEndpoint surfaces from the channel-demand floor, before any probe"
        );
        let probed = PathFinderRouter.route(&c, &p, &RrGraph::build(&p.device, 12));
        assert_eq!(
            Err(err),
            probed.map(|_| ()),
            "the error a probe would have met"
        );
    }

    #[test]
    fn min_width_search_widens_on_width_dependent_errors() {
        let (c, p) = placed_lut();
        // 12 (the architecture default) -> 24 -> 48 -> 64, then gives up.
        for error in [
            RouteError::Unroutable {
                channel_width: 0,
                overused: 1,
            },
            RouteError::NoPath {
                channel_width: 0,
                net: "y".into(),
            },
        ] {
            assert_eq!(search(Failing(error.clone()), &c, &p), (4, error));
        }
    }

    #[test]
    fn min_width_search_never_probes_above_max_width() {
        let (c, mut p) = placed_lut();
        // `vpr-pr --arch` with `channel_width 200`.
        p.device.arch.routing.channel_width = 200;
        let engine = Counting::new(PathFinderRouter);
        let (w, r) = engine.find_min_channel_width(&c, &p, 64).unwrap();
        let widths = engine.widths.into_inner();
        assert_eq!(widths.first(), Some(&64), "the first probe is clamped");
        assert!(widths.iter().all(|&probed| probed <= 64), "{widths:?}");
        assert_eq!(r.channel_width, w);
        let routed: Vec<usize> = r
            .probes
            .iter()
            .filter(|(_, p)| p.routed())
            .map(|&(w, _)| w)
            .collect();
        assert_eq!(routed, widths, "`probes` lists exactly the routed widths");
    }
}
