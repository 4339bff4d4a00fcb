//! Engine-level routing API.
//!
//! Mirrors `fpga_place::engine`: the flow pipeline, lint drivers, and
//! bench harness consume routers through the [`RouteEngine`] trait so
//! alternative engines (a greedy pattern router, a timing-driven
//! PathFinder, ...) can be slotted in later. [`PathFinderRouter`] is the
//! production engine: negotiation-based iterations with concurrent
//! per-net workers whose results are bit-identical across thread counts
//! (see the `pathfinder` module docs for the determinism argument).

use fpga_pack::Clustering;
use fpga_place::Placement;

use crate::pathfinder::{route_with, RouteResult};
use crate::rrgraph::RrGraph;
use crate::{Result, RouteError};

/// The shared parallelism knob, re-exported from `fpga-place` so both
/// P&R engines configure threading with one type.
pub use fpga_place::engine::Parallelism;

/// Typed builder-style configuration for [`PathFinderRouter`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouteConfig {
    pub parallelism: Parallelism,
}

impl RouteConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    pub fn threads(mut self, n: usize) -> Self {
        self.parallelism.threads = n.max(1);
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
    /// architecture's default width, doubles until routable, then bisects.
    /// Only a failure that a different width could cure steers the search
    /// ([`RouteError::Unroutable`], [`RouteError::NoPath`]); any other
    /// error is returned from the probe that met it.
    fn find_min_channel_width(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        max_width: usize,
    ) -> Result<(usize, RouteResult)> {
        let device = &placement.device;
        // Find an upper bound that routes.
        let mut hi = device.arch.routing.channel_width.max(2);
        let mut best: Option<(usize, RouteResult)>;
        loop {
            let g = RrGraph::build(device, hi);
            match self.route(clustering, placement, &g) {
                Ok(r) => {
                    best = Some((hi, r));
                    break;
                }
                Err(e) if width_dependent(&e) && hi < max_width => hi = (hi * 2).min(max_width),
                Err(e) => return Err(e),
            }
        }
        let mut hi_w = hi;
        let mut lo = 1usize;
        while lo < hi_w {
            let mid = (lo + hi_w) / 2;
            let g = RrGraph::build(device, mid);
            match self.route(clustering, placement, &g) {
                Ok(r) => {
                    best = Some((mid, r));
                    hi_w = mid;
                }
                Err(e) if width_dependent(&e) => lo = mid + 1,
                Err(e) => return Err(e),
            }
        }
        best.ok_or_else(|| RouteError::Internal("no routable channel width".into()))
    }
}

fn width_dependent(e: &RouteError) -> bool {
    matches!(e, RouteError::Unroutable { .. } | RouteError::NoPath { .. })
}

/// The PathFinder negotiated-congestion router with concurrent per-net
/// search workers and deterministic barrier commits.
#[derive(Clone, Debug, Default)]
pub struct PathFinderRouter {
    cfg: RouteConfig,
}

impl PathFinderRouter {
    pub fn new(cfg: RouteConfig) -> Self {
        PathFinderRouter { cfg }
    }
}

impl RouteEngine for PathFinderRouter {
    fn route(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        g: &RrGraph,
    ) -> Result<RouteResult> {
        route_with(&self.cfg, clustering, placement, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_sets_fields() {
        let cfg = RouteConfig::new().threads(4);
        assert_eq!(cfg.parallelism.threads, 4);
    }

    /// Counts the probes the trait's default min-W search makes.
    struct Counting<E> {
        inner: E,
        calls: std::cell::Cell<usize>,
    }

    impl<E: RouteEngine> RouteEngine for Counting<E> {
        fn route(&self, c: &Clustering, p: &Placement, g: &RrGraph) -> Result<RouteResult> {
            self.calls.set(self.calls.get() + 1);
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
        let engine = Counting {
            inner,
            calls: std::cell::Cell::new(0),
        };
        let err = engine.find_min_channel_width(c, p, 64).unwrap_err();
        (engine.calls.get(), err)
    }

    #[test]
    fn min_width_search_returns_a_width_independent_error_at_once() {
        let (mut c, p) = placed_lut();
        // The placement still says cluster 0 drives `y`; the clustering
        // no longer does. No channel width cures that.
        c.clusters[0].bles.clear();
        let (calls, err) = search(PathFinderRouter::default(), &c, &p);
        assert!(matches!(err, RouteError::BadEndpoint(_)), "{err}");
        assert_eq!(
            calls, 1,
            "a BadEndpoint must not be retried at other widths"
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
}
