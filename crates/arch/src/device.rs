//! Device model: an [`Architecture`] instantiated onto a concrete grid.
//!
//! Coordinates follow the VPR convention: logic tiles occupy
//! `(1..=w, 1..=h)`, an IO ring occupies the perimeter (`x = 0`,
//! `x = w+1`, `y = 0`, `y = h+1`), and the four corners are empty.
//! Horizontal routing channels run between rows (`chanx` at `y = 0..=h`),
//! vertical channels between columns (`chany` at `x = 0..=w`).

use serde::{Deserialize, Serialize};

use crate::Architecture;

/// A grid coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GridLoc {
    pub x: u32,
    pub y: u32,
}

impl GridLoc {
    pub fn new(x: u32, y: u32) -> Self {
        GridLoc { x, y }
    }

    /// Manhattan distance.
    pub fn dist(&self, other: &GridLoc) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

/// What occupies a grid location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockKind {
    Clb,
    /// IO tile with the architecture's per-tile pad capacity.
    Io,
    /// Corners.
    Empty,
}

/// Functional class of a CLB pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinClass {
    /// Cluster input pin `i` (0-based).
    Input(u32),
    /// Cluster output pin `i` (one per BLE).
    Output(u32),
    /// The cluster clock pin.
    Clock,
}

/// Side of a tile (for pin-to-channel assignment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    North,
    East,
    South,
    West,
}

/// An instantiated device.
#[derive(Clone, Debug)]
pub struct Device {
    pub arch: Architecture,
    /// Logic-grid width (CLB columns).
    pub width: usize,
    /// Logic-grid height (CLB rows).
    pub height: usize,
}

impl Device {
    /// Instantiate with an explicit grid.
    pub fn new(arch: Architecture, width: usize, height: usize) -> Self {
        Device {
            arch,
            width,
            height,
        }
    }

    /// Instantiate sized for a netlist of `clbs` clusters and `ios` pads.
    pub fn sized_for(arch: Architecture, clbs: usize, ios: usize) -> Self {
        let (w, h) = arch.size_for(clbs, ios);
        Device {
            arch,
            width: w,
            height: h,
        }
    }

    /// Grid extent including the IO ring: x and y run `0..=w+1` / `0..=h+1`.
    pub fn extent(&self) -> (u32, u32) {
        (self.width as u32 + 2, self.height as u32 + 2)
    }

    /// What sits at a location.
    pub fn block_at(&self, loc: GridLoc) -> BlockKind {
        let (ex, ey) = self.extent();
        let edge_x = loc.x == 0 || loc.x == ex - 1;
        let edge_y = loc.y == 0 || loc.y == ey - 1;
        if loc.x >= ex || loc.y >= ey || (edge_x && edge_y) {
            BlockKind::Empty
        } else if edge_x || edge_y {
            BlockKind::Io
        } else {
            BlockKind::Clb
        }
    }

    /// All CLB locations, row-major.
    pub fn clb_locs(&self) -> Vec<GridLoc> {
        let mut v = Vec::with_capacity(self.width * self.height);
        for y in 1..=self.height as u32 {
            for x in 1..=self.width as u32 {
                v.push(GridLoc::new(x, y));
            }
        }
        v
    }

    /// All IO locations (each holds `io_per_tile` pads).
    pub fn io_locs(&self) -> Vec<GridLoc> {
        let (ex, ey) = self.extent();
        let mut v = Vec::new();
        for x in 1..ex - 1 {
            v.push(GridLoc::new(x, 0));
            v.push(GridLoc::new(x, ey - 1));
        }
        for y in 1..ey - 1 {
            v.push(GridLoc::new(0, y));
            v.push(GridLoc::new(ex - 1, y));
        }
        v
    }

    /// Total IO pad capacity.
    pub fn io_capacity(&self) -> usize {
        self.io_locs().len() * self.arch.io_per_tile
    }

    /// Total CLB capacity.
    pub fn clb_capacity(&self) -> usize {
        self.width * self.height
    }

    /// Side a CLB pin sits on: pins are distributed round-robin so every
    /// side carries roughly a quarter of the pins (the clock gets its own
    /// dedicated global network and is assigned to the north side).
    pub fn pin_side(&self, pin: PinClass) -> Side {
        let idx = match pin {
            PinClass::Input(i) => i,
            PinClass::Output(i) => self.arch.clb.inputs as u32 + i,
            PinClass::Clock => return Side::North,
        };
        match idx % 4 {
            0 => Side::South,
            1 => Side::East,
            2 => Side::North,
            _ => Side::West,
        }
    }

    /// The channel a pin of a CLB at `loc` connects into:
    /// `(is_horizontal, channel_x, channel_y)`. Horizontal channels are
    /// indexed by the row below/above; vertical by the column left/right.
    pub fn pin_channel(&self, loc: GridLoc, pin: PinClass) -> (bool, u32, u32) {
        match self.pin_side(pin) {
            Side::South => (true, loc.x, loc.y - 1),
            Side::North => (true, loc.x, loc.y),
            Side::West => (false, loc.x - 1, loc.y),
            Side::East => (false, loc.x, loc.y),
        }
    }

    /// The channel an IO pad at `loc` connects into.
    pub fn io_channel(&self, loc: GridLoc) -> (bool, u32, u32) {
        let (ex, ey) = self.extent();
        if loc.y == 0 {
            (true, loc.x, 0) // bottom ring -> chanx row 0
        } else if loc.y == ey - 1 {
            (true, loc.x, self.height as u32)
        } else if loc.x == 0 {
            (false, 0, loc.y)
        } else {
            debug_assert_eq!(loc.x, ex - 1);
            (false, self.width as u32, loc.y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(Architecture::paper_default(), 4, 3)
    }

    #[test]
    fn grid_classification() {
        let d = device();
        assert_eq!(d.block_at(GridLoc::new(0, 0)), BlockKind::Empty);
        assert_eq!(d.block_at(GridLoc::new(1, 0)), BlockKind::Io);
        assert_eq!(d.block_at(GridLoc::new(0, 2)), BlockKind::Io);
        assert_eq!(d.block_at(GridLoc::new(2, 2)), BlockKind::Clb);
        assert_eq!(d.block_at(GridLoc::new(5, 4)), BlockKind::Empty);
        assert_eq!(d.block_at(GridLoc::new(9, 9)), BlockKind::Empty);
    }

    #[test]
    fn capacities() {
        let d = device();
        assert_eq!(d.clb_capacity(), 12);
        assert_eq!(d.clb_locs().len(), 12);
        // Perimeter: 2*(4 + 3) = 14 tiles, 2 pads each.
        assert_eq!(d.io_locs().len(), 14);
        assert_eq!(d.io_capacity(), 28);
    }

    #[test]
    fn pins_spread_over_sides() {
        let d = device();
        let mut counts = std::collections::HashMap::new();
        for i in 0..d.arch.clb.inputs as u32 {
            *counts.entry(d.pin_side(PinClass::Input(i))).or_insert(0) += 1;
        }
        for i in 0..d.arch.clb.outputs as u32 {
            *counts.entry(d.pin_side(PinClass::Output(i))).or_insert(0) += 1;
        }
        assert!(counts.len() == 4, "all four sides used: {counts:?}");
        assert_eq!(d.pin_side(PinClass::Clock), Side::North);
    }

    #[test]
    fn pin_channels_are_adjacent() {
        let d = device();
        let loc = GridLoc::new(2, 2);
        for pin in [
            PinClass::Input(0),
            PinClass::Input(1),
            PinClass::Output(0),
            PinClass::Clock,
        ] {
            let (horiz, cx, cy) = d.pin_channel(loc, pin);
            if horiz {
                assert!(cy == 1 || cy == 2, "chanx row adjacent");
                assert_eq!(cx, 2);
            } else {
                assert!(cx == 1 || cx == 2, "chany col adjacent");
                assert_eq!(cy, 2);
            }
        }
    }

    #[test]
    fn io_channels_hug_the_ring() {
        let d = device();
        assert_eq!(d.io_channel(GridLoc::new(2, 0)), (true, 2, 0));
        assert_eq!(d.io_channel(GridLoc::new(2, 4)), (true, 2, 3));
        assert_eq!(d.io_channel(GridLoc::new(0, 2)), (false, 0, 2));
        assert_eq!(d.io_channel(GridLoc::new(5, 2)), (false, 4, 2));
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(GridLoc::new(1, 1).dist(&GridLoc::new(4, 3)), 5);
        assert_eq!(GridLoc::new(4, 3).dist(&GridLoc::new(4, 3)), 0);
    }
}
