//! Engine-level placement API.
//!
//! The flow pipeline, lint drivers, and bench harness all consume placers
//! through the [`PlaceEngine`] trait so alternative engines (an analytic
//! placer, a quadratic seed + detailed annealer, ...) can be slotted in
//! without touching call sites. [`AnnealingPlacer`] is the production
//! engine: region-partitioned simulated annealing on one thread, whose
//! result is a function of the clustering, the device and the
//! [`PlaceConfig`] alone (see the `sa` module docs for the schedule).

use fpga_arch::device::Device;
use fpga_pack::Clustering;

use crate::sa::{anneal, Placement};
use crate::Result;

/// Typed builder-style configuration for [`AnnealingPlacer`].
#[derive(Clone, Debug, PartialEq)]
pub struct PlaceConfig {
    pub seed: u64,
    /// Moves per temperature = `inner_num * blocks^(4/3)` (VPR default 10;
    /// smaller values trade quality for speed).
    pub inner_num: f64,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        PlaceConfig {
            seed: 1,
            inner_num: 5.0,
        }
    }
}

impl PlaceConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn inner_num(mut self, inner_num: f64) -> Self {
        self.inner_num = inner_num;
        self
    }
}

/// A placement engine: maps a packed clustering onto a device.
pub trait PlaceEngine {
    /// Place a clustering onto a device.
    fn place(&self, clustering: &Clustering, device: Device) -> Result<Placement>;
}

/// Region-partitioned simulated annealing (the VPR schedule).
#[derive(Clone, Debug, Default)]
pub struct AnnealingPlacer {
    cfg: PlaceConfig,
}

impl AnnealingPlacer {
    pub fn new(cfg: PlaceConfig) -> Self {
        AnnealingPlacer { cfg }
    }
}

impl PlaceEngine for AnnealingPlacer {
    fn place(&self, clustering: &Clustering, device: Device) -> Result<Placement> {
        anneal(clustering, device, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_sets_fields() {
        let cfg = PlaceConfig::new().seed(9).inner_num(2.5);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.inner_num, 2.5);
    }
}
