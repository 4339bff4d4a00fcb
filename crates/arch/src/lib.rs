//! # fpga-arch
//!
//! DUTYS — the architecture-file generator of the Fig. 11 flow — and the
//! island-style FPGA architecture model every downstream tool (T-VPack,
//! VPR, PowerModel, DAGGER) consumes.
//!
//! The platform of the paper (§3):
//!
//! * cluster-based CLB with N = 5 BLEs of K = 4 LUTs,
//!   I = (K/2)·(N+1) = 12 cluster inputs (Eq. 1), 5 outputs, one clock,
//!   one asynchronous clear, fully connected local crossbar (17:1 muxes);
//! * SRAM-based island-style routing: segmented channels (length-1 wires
//!   selected in §3.3.2), disjoint switch boxes with Fs = 3, connection
//!   boxes with configurable Fc;
//! * perimeter IO pads.
//!
//! [`Architecture`] is the parameter record; [`Device`] instantiates it
//! onto a W x H grid with concrete block and pin coordinates.

pub mod device;
pub mod format;

pub use device::{BlockKind, Device, GridLoc, PinClass};
pub use format::{parse_arch_text, write_arch_text};

use serde::{Deserialize, Serialize};

/// Eq. (1) of the paper: cluster inputs needed for ~98 % BLE utilization.
pub fn clb_inputs_eq1(k: usize, n: usize) -> usize {
    // I = (K/2) * (N+1)
    (k * (n + 1)) / 2
}

/// CLB (cluster) parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClbArch {
    /// LUT input count K.
    pub lut_k: usize,
    /// BLEs per cluster N.
    pub cluster_size: usize,
    /// Cluster input pins I.
    pub inputs: usize,
    /// Cluster output pins (one per BLE).
    pub outputs: usize,
    /// Clock pins (the platform has one).
    pub clocks: usize,
    /// Fully connected local crossbar (17:1 muxes on every LUT input).
    pub full_crossbar: bool,
}

impl ClbArch {
    /// The paper's selected CLB: N = 5, K = 4, I = 12.
    pub fn paper_default() -> Self {
        ClbArch {
            lut_k: 4,
            cluster_size: 5,
            inputs: clb_inputs_eq1(4, 5),
            outputs: 5,
            clocks: 1,
            full_crossbar: true,
        }
    }

    /// Width of each LUT-input mux in the fully connected crossbar:
    /// cluster inputs + feedback from every BLE output (17:1 for the
    /// selected CLB, as §3.2 states).
    pub fn crossbar_mux_width(&self) -> usize {
        self.inputs + self.cluster_size
    }

    /// Total pins on the cluster boundary (inputs + outputs + clock).
    pub fn total_pins(&self) -> usize {
        self.inputs + self.outputs + self.clocks
    }
}

/// Routing-switch implementation (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchType {
    /// 10x-minimum pass transistors (the selected design point).
    PassTransistor,
    /// Back-to-back tri-state buffers.
    TristateBuffer,
}

/// Routing architecture parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoutingArch {
    /// Tracks per channel.
    pub channel_width: usize,
    /// Logical segment length (1 per §3.3.2's conclusion).
    pub segment_length: usize,
    /// Connection-box flexibility for input pins: fraction of tracks each
    /// input pin can connect to (0..=1).
    pub fc_in: f64,
    /// Connection-box flexibility for output pins.
    pub fc_out: f64,
    /// Switch-box flexibility (disjoint topology: 3).
    pub fs: usize,
    pub switch: SwitchType,
    /// Routing switch width in minimum-transistor multiples (10x selected).
    pub switch_width_mult: f64,
}

impl RoutingArch {
    pub fn paper_default() -> Self {
        RoutingArch {
            channel_width: 12,
            segment_length: 1,
            fc_in: 1.0,
            fc_out: 1.0,
            fs: 3,
            switch: SwitchType::PassTransistor,
            switch_width_mult: 10.0,
        }
    }
}

/// The full architecture record DUTYS emits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    pub name: String,
    pub clb: ClbArch,
    pub routing: RoutingArch,
    /// IO pads per perimeter grid location.
    pub io_per_tile: usize,
    /// Optional fixed grid (logic tiles, excluding the IO ring); `None`
    /// auto-sizes to the netlist.
    pub grid: Option<(usize, usize)>,
}

impl Architecture {
    /// The architecture of the paper's platform.
    pub fn paper_default() -> Self {
        Architecture {
            name: "amdrel_island".to_string(),
            clb: ClbArch::paper_default(),
            routing: RoutingArch::paper_default(),
            io_per_tile: 2,
            grid: None,
        }
    }

    /// Smallest square logic grid that fits `clbs` clusters and whose
    /// perimeter carries `ios` pads.
    pub fn size_for(&self, clbs: usize, ios: usize) -> (usize, usize) {
        if let Some(g) = self.grid {
            return g;
        }
        let mut side = 1usize;
        loop {
            let fits_logic = side * side >= clbs;
            let fits_io = 4 * side * self.io_per_tile >= ios;
            if fits_logic && fits_io {
                return (side, side);
            }
            side += 1;
        }
    }

    /// JSON rendering (the machine-readable architecture file).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("architecture serializes")
    }

    /// Canonical, whitespace-stable rendering used for stage-cache keys.
    ///
    /// Compact JSON with fields emitted in struct declaration order — no
    /// maps with unstable iteration order are involved, so two equal
    /// architectures always render byte-identically, and any parameter
    /// change (CLB geometry, routing, IO, grid) changes the text.
    pub fn canonical_text(&self) -> String {
        serde_json::to_string(self).expect("architecture serializes")
    }

    /// Parse the JSON architecture file.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let arch: Self = serde_json::from_str(text).map_err(|e| e.to_string())?;
        arch.validate()?;
        Ok(arch)
    }

    /// The one check both front doors (`from_json`, `parse_arch_text`)
    /// apply: a field the tools cannot honour is refused by name, never
    /// silently ignored.
    pub fn validate(&self) -> Result<(), String> {
        let (clb, routing) = (&self.clb, &self.routing);
        if !(2..=6).contains(&clb.lut_k) {
            return Err(format!(
                "lut_k {} out of the supported 2..=6 range",
                clb.lut_k
            ));
        }
        if clb.cluster_size == 0 || clb.outputs != clb.cluster_size {
            return Err("clb_outputs must equal cluster_size (one per BLE)".to_string());
        }
        if routing.segment_length != 1 {
            return Err(format!(
                "segment_length {} unsupported: the routing graph has length-1 wires only",
                routing.segment_length
            ));
        }
        if routing.fs != 3 {
            return Err(format!(
                "fs {} unsupported: the routing graph has the disjoint Fs = 3 switch box only",
                routing.fs
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_text_is_stable_and_parameter_sensitive() {
        let a = Architecture::paper_default();
        assert_eq!(a.canonical_text(), a.canonical_text());
        let mut b = Architecture::paper_default();
        b.clb.lut_k += 1;
        assert_ne!(a.canonical_text(), b.canonical_text());
    }

    #[test]
    fn eq1_matches_paper() {
        // K = 4, N = 5 -> I = 12 (the paper's CLB).
        assert_eq!(clb_inputs_eq1(4, 5), 12);
        assert_eq!(clb_inputs_eq1(4, 1), 4);
        assert_eq!(clb_inputs_eq1(6, 4), 15);
    }

    #[test]
    fn paper_clb_matches_section_3() {
        let clb = ClbArch::paper_default();
        assert_eq!(clb.lut_k, 4);
        assert_eq!(clb.cluster_size, 5);
        assert_eq!(clb.inputs, 12);
        assert_eq!(clb.outputs, 5);
        assert_eq!(clb.clocks, 1);
        // "fully connected CLB resulting in 17-to-1 multiplexing in every
        // input of a LUT".
        assert_eq!(clb.crossbar_mux_width(), 17);
        assert_eq!(clb.total_pins(), 18);
    }

    #[test]
    fn sizing_fits_logic_and_io() {
        let arch = Architecture::paper_default();
        let (w, h) = arch.size_for(10, 8);
        assert!(w * h >= 10);
        assert!(4 * w * arch.io_per_tile >= 8);
        // IO-dominated sizing.
        let (w2, _) = arch.size_for(1, 100);
        assert!(4 * w2 * arch.io_per_tile >= 100);
        // Fixed grid overrides.
        let mut fixed = arch.clone();
        fixed.grid = Some((7, 3));
        assert_eq!(fixed.size_for(1000, 1000), (7, 3));
    }

    #[test]
    fn json_roundtrip() {
        let arch = Architecture::paper_default();
        let js = arch.to_json();
        let back = Architecture::from_json(&js).unwrap();
        assert_eq!(back, arch);
        assert!(Architecture::from_json("{bad").is_err());
    }

    #[test]
    fn both_front_doors_refuse_the_same_fields_by_name() {
        type Edit = fn(&mut Architecture);
        let cases: [(&str, Edit); 5] = [
            ("clb_outputs", |a| a.clb.outputs = 3),
            ("lut_k", |a| a.clb.lut_k = 9),
            ("cluster_size", |a| a.clb.cluster_size = 0),
            ("segment_length", |a| a.routing.segment_length = 4),
            ("fs", |a| a.routing.fs = 6),
        ];
        for (field, edit) in cases {
            let mut arch = Architecture::paper_default();
            edit(&mut arch);
            let json = Architecture::from_json(&arch.to_json());
            let text = parse_arch_text(&write_arch_text(&arch));
            for (door, parsed) in [("from_json", json), ("parse_arch_text", text)] {
                let err = parsed.expect_err(&format!("{door} accepted a bad {field}"));
                assert!(err.contains(field), "{door} on {field}: {err}");
            }
        }
        assert_eq!(Architecture::paper_default().validate(), Ok(()));
    }
}
