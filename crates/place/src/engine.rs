//! Engine-level placement API.
//!
//! The flow pipeline, lint drivers, and bench harness all consume placers
//! through the [`PlaceEngine`] trait so alternative engines (an analytic
//! placer, a quadratic seed + detailed annealer, ...) can be slotted in
//! without touching call sites. [`AnnealingPlacer`] is the production
//! engine: region-partitioned parallel simulated annealing whose results
//! are bit-identical across thread counts (see `sa` module docs for the
//! determinism argument), so `Parallelism` never participates in stage
//! cache keys.

use std::sync::OnceLock;

use fpga_arch::device::Device;
use fpga_pack::Clustering;

use crate::sa::{anneal, Placement};
use crate::Result;

/// The parallelism knob shared by the place & route engines.
///
/// `threads` only controls how much hardware is used: engines are required
/// to produce bit-identical results for any value, which is why this
/// struct is excluded from every stage-cache fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads (1 = serial).
    pub threads: usize,
}

fn env_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("FLOW_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

impl Default for Parallelism {
    /// Defaults to `FLOW_THREADS` from the environment (cached on first
    /// read), or 1. Because engines are thread-count-invariant this only
    /// changes speed, never results.
    fn default() -> Self {
        Parallelism {
            threads: env_threads(),
        }
    }
}

impl Parallelism {
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }
}

/// Typed builder-style configuration for [`AnnealingPlacer`].
#[derive(Clone, Debug, PartialEq)]
pub struct PlaceConfig {
    pub seed: u64,
    /// Moves per temperature = `inner_num * blocks^(4/3)` (VPR default 10;
    /// smaller values trade quality for speed).
    pub inner_num: f64,
    pub parallelism: Parallelism,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        PlaceConfig {
            seed: 1,
            inner_num: 5.0,
            parallelism: Parallelism::default(),
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

    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    pub fn threads(mut self, n: usize) -> Self {
        self.parallelism.threads = n.max(1);
        self
    }
}

/// A placement engine: maps a packed clustering onto a device.
pub trait PlaceEngine {
    /// Place a clustering onto a device.
    fn place(&self, clustering: &Clustering, device: Device) -> Result<Placement>;
}

/// Region-partitioned parallel simulated annealing (the VPR schedule).
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
    fn parallelism_builder_clamps_threads() {
        let p = Parallelism::serial().threads(0);
        assert_eq!(p.threads, 1);
        let cfg = PlaceConfig::new().threads(0);
        assert_eq!(cfg.parallelism.threads, 1);
    }

    #[test]
    fn config_builder_sets_fields() {
        let cfg = PlaceConfig::new()
            .seed(9)
            .inner_num(2.5)
            .parallelism(Parallelism::serial().threads(4));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.inner_num, 2.5);
        assert_eq!(cfg.parallelism.threads, 4);
    }
}
