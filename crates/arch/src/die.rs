//! Compute-die configuration (the middle level of the Fig. 3 hierarchy).
//!
//! A die is a 2D array of compute cores connected by a mesh NoC, with
//! peripheral D2D interfaces and HBM PHYs on the die edge. The die edge is
//! the scarce resource: every mm of perimeter provides a fixed IO bandwidth
//! that is split between D2D links and DRAM PHYs (§III-B trade-off (2)).

use crate::core::CoreConfig;
use crate::error::ArchError;
use crate::units::{Area, Bandwidth, FlopRate, Mm};
use serde::{Deserialize, Serialize};

/// IO bandwidth one millimetre of die edge can carry (TB/s per mm).
///
/// Calibrated so the Table II presets are self-consistent: the big
/// 25.5 × 25.2 mm die has a ~6 TB/s IO budget (D2D + DRAM-PHY), matching
/// `D2D + 1.0 × DRAM_BW = 6 TB/s` across Configs 2–4.
pub const EDGE_IO_TBPS_PER_MM: f64 = 6.0 / (2.0 * (25.5 + 25.2));

/// How much edge-IO bandwidth one TB/s of DRAM bandwidth consumes.
///
/// Table II Configs 2–4 share a die and satisfy `D2D = 6 − 1.0 × DRAM_BW`,
/// so the PHY cost factor is 1.0.
pub const DRAM_PHY_COST: f64 = 1.0;

/// Configuration of one compute die.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeDieConfig {
    /// Human-readable die name.
    pub name: String,
    /// Per-core configuration.
    pub core: CoreConfig,
    /// Core-array rows.
    pub core_rows: usize,
    /// Core-array columns.
    pub core_cols: usize,
    /// Die width (`X_C` in Fig. 3).
    pub width: Mm,
    /// Die height (`Y_C` in Fig. 3).
    pub height: Mm,
    /// Per-link intra-die NoC bandwidth between adjacent cores.
    pub noc_link_bw: Bandwidth,
    /// Per-hop intra-die NoC latency (seconds).
    pub noc_hop_latency_s: f64,
    /// Optional override of the derived per-die peak FLOPS.
    ///
    /// Table II quotes whole-die compute power (512 / 708 TFLOPS); presets
    /// pin those values exactly while the enumerator derives from cores.
    pub peak_flops_override: Option<FlopRate>,
}

impl ComputeDieConfig {
    /// Number of compute cores on the die.
    pub fn core_count(&self) -> usize {
        self.core_rows * self.core_cols
    }

    /// Peak FP16 die throughput.
    pub fn peak_flops(&self) -> FlopRate {
        match self.peak_flops_override {
            Some(f) => f,
            None => self.core.peak_flops() * self.core_count() as f64,
        }
    }

    /// Peak vector-unit throughput across all cores.
    pub fn vector_flops(&self) -> FlopRate {
        self.core.vector_flops() * self.core_count() as f64
    }

    /// Die footprint area.
    pub fn area(&self) -> Area {
        self.width * self.height
    }

    /// Die perimeter.
    pub fn perimeter(&self) -> Mm {
        (self.width + self.height) * 2.0
    }

    /// Total edge-IO bandwidth budget (D2D + DRAM PHYs).
    pub fn io_budget(&self) -> Bandwidth {
        Bandwidth::tb_per_s(self.perimeter().as_f64() * EDGE_IO_TBPS_PER_MM)
    }

    /// D2D bandwidth remaining after provisioning `dram_bw` of DRAM PHYs.
    ///
    /// This is the §III-B trade-off: every TB/s of DRAM bandwidth costs
    /// [`DRAM_PHY_COST`] TB/s of edge IO that D2D links could have used.
    pub fn d2d_budget(&self, dram_bw: Bandwidth) -> Bandwidth {
        self.io_budget() - dram_bw.scale(DRAM_PHY_COST)
    }

    /// Validate structural sanity.
    pub fn validate(&self) -> Result<(), ArchError> {
        self.core.validate()?;
        if self.core_rows == 0 || self.core_cols == 0 {
            return Err(ArchError::InvalidConfig(
                "core array must be non-empty".into(),
            ));
        }
        if self.width.as_f64() <= 0.0 || self.height.as_f64() <= 0.0 {
            return Err(ArchError::InvalidConfig(
                "die dimensions must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Aspect ratio (long edge over short edge, always ≥ 1).
    pub fn aspect_ratio(&self) -> f64 {
        let w = self.width.as_f64();
        let h = self.height.as_f64();
        if w >= h {
            w / h
        } else {
            h / w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Bytes;

    fn big_die() -> ComputeDieConfig {
        ComputeDieConfig {
            name: "big".into(),
            core: CoreConfig::dojo_style(),
            core_rows: 18,
            core_cols: 18,
            width: Mm::new(25.5),
            height: Mm::new(25.2),
            noc_link_bw: Bandwidth::tb_per_s(1.0),
            noc_hop_latency_s: 5e-9,
            peak_flops_override: Some(FlopRate::tflops(708.0)),
        }
    }

    #[test]
    fn override_pins_peak_flops() {
        let d = big_die();
        assert!((d.peak_flops().as_tflops() - 708.0).abs() < 1e-9);
        let mut d2 = d.clone();
        d2.peak_flops_override = None;
        // 324 cores x 2.048 TFLOPS
        assert!((d2.peak_flops().as_tflops() - 324.0 * 2.048).abs() < 1e-6);
    }

    #[test]
    fn io_budget_matches_table_ii_calibration() {
        let d = big_die();
        assert!((d.io_budget().as_tb_per_s() - 6.0).abs() < 1e-9);
        // Config 3: 2 TB/s DRAM -> 4 TB/s D2D.
        let d2d = d.d2d_budget(Bandwidth::tb_per_s(2.0));
        assert!((d2d.as_tb_per_s() - 4.0).abs() < 1e-9);
        // Config 4: 2.5 TB/s DRAM -> 3.5 TB/s D2D.
        let d2d = d.d2d_budget(Bandwidth::tb_per_s(2.5));
        assert!((d2d.as_tb_per_s() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn sram_totals() {
        let d = big_die();
        assert_eq!(
            d.core.sram * d.core_count() as u64,
            Bytes::new(1_310_720) * 324
        );
    }

    #[test]
    fn aspect_ratio_is_symmetric() {
        let mut d = big_die();
        d.width = Mm::new(30.0);
        d.height = Mm::new(15.0);
        assert!((d.aspect_ratio() - 2.0).abs() < 1e-12);
        std::mem::swap(&mut d.width, &mut d.height);
        assert!((d.aspect_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_empty_array() {
        let mut d = big_die();
        d.core_rows = 0;
        assert!(d.validate().is_err());
    }
}
