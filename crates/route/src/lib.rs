//! # fpga-route
//!
//! The routing half of the flow's "VPR" tool.
//!
//! * [`rrgraph`] — the routing-resource graph of the island-style fabric:
//!   output/input pins, segmented channel wires, disjoint switch boxes
//!   (Fs = 3) and connection boxes with configurable Fc, exactly the
//!   §3.3 architecture.
//! * [`pathfinder`] — the PathFinder negotiated-congestion router:
//!   repeated shortest-path search with present-congestion and historic
//!   cost terms until no routing resource is overused.
//! * [`timing`] — Elmore-style delay estimates over routed trees using the
//!   platform's switch and wire electricals.
//!
//! `find_min_channel_width` runs the binary search VPR uses to report the
//! minimum channel width a netlist needs on the architecture.

pub mod codec;
pub mod engine;
pub mod pathfinder;
pub mod rrgraph;
pub mod sta;
pub mod timing;

pub use codec::{route_result_from_bytes, route_result_to_bytes};
pub use engine::{Parallelism, PathFinderRouter, RouteConfig, RouteEngine};
pub use pathfinder::{IterationStats, Probe, RouteResult, RoutedNet, SearchStats};
pub use rrgraph::{RrGraph, RrKind, RrNodeId};
pub use sta::{analyze_paths, LogicDelays, StaResult};

/// Errors from routing.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// PathFinder did not converge at this channel width.
    Unroutable {
        channel_width: usize,
        overused: usize,
    },
    /// A net's source cannot reach one of its sinks on this graph at
    /// all, whatever the congestion (with fractional Fc, the pins' track
    /// sets can miss each other at one width and meet at another).
    NoPath { channel_width: usize, net: String },
    /// A net endpoint could not be attached to the graph.
    BadEndpoint(String),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Unroutable {
                channel_width,
                overused,
            } => write!(
                f,
                "unroutable at channel width {channel_width}: {overused} overused nodes"
            ),
            RouteError::NoPath { channel_width, net } => {
                write!(
                    f,
                    "no path for net '{net}' at channel width {channel_width}"
                )
            }
            RouteError::BadEndpoint(msg) => write!(f, "bad net endpoint: {msg}"),
        }
    }
}

impl std::error::Error for RouteError {}

pub type Result<T> = std::result::Result<T, RouteError>;
