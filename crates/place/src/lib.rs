//! # fpga-place
//!
//! The placement half of the flow's "VPR" tool: adaptive simulated
//! annealing over the island-style grid.
//!
//! * Blocks: packed clusters (one per CLB tile) and IO pads (primary
//!   inputs/outputs, several per perimeter tile).
//! * Cost: the classic VPR bounding-box wirelength — for every routable
//!   net, `q(t) * (bb_width + bb_height)` where `q(t)` compensates for the
//!   underestimate of the half-perimeter metric on high-fanout nets.
//!   Clock nets ride a dedicated global network and are excluded.
//! * Schedule: temperature from the initial cost variance, update factor
//!   chosen from the acceptance rate, and a shrinking move-range limit —
//!   VPR's adaptive schedule.

pub mod codec;
pub mod cost;
pub mod engine;
pub mod sa;

pub use codec::{placement_from_bytes, placement_to_bytes};
pub use cost::{net_terminals, PlacedNet};
pub use engine::{AnnealingPlacer, PlaceConfig, PlaceEngine};
pub use sa::{Placement, SweepStats};

use fpga_arch::device::GridLoc;
use fpga_netlist::ir::NetId;
use fpga_pack::ClusterId;

/// A placeable block, ordered by kind as declared here, then by index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockRef {
    /// A packed cluster.
    Cluster(ClusterId),
    /// An input pad driving a net.
    InputPad(NetId),
    /// An output pad observing a net.
    OutputPad(NetId),
}

impl BlockRef {
    pub fn is_io(&self) -> bool {
        !matches!(self, BlockRef::Cluster(_))
    }
}

/// A block's placed location: a grid tile plus a sub-slot for IO tiles
/// that hold several pads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    pub loc: GridLoc,
    pub sub: u32,
}

/// Errors from placement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// Device too small for the netlist.
    DoesNotFit {
        clbs: usize,
        clb_cap: usize,
        ios: usize,
        io_cap: usize,
    },
    Internal(String),
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::DoesNotFit {
                clbs,
                clb_cap,
                ios,
                io_cap,
            } => write!(
                f,
                "design does not fit: {clbs} CLBs on {clb_cap} tiles, {ios} IOs on {io_cap} pads"
            ),
            PlaceError::Internal(msg) => write!(f, "internal placement error: {msg}"),
        }
    }
}

impl std::error::Error for PlaceError {}

pub type Result<T> = std::result::Result<T, PlaceError>;
