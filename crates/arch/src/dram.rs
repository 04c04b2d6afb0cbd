//! DRAM (HBM) chiplet configuration.
//!
//! A compute die is surrounded by a configurable number of HBM chiplets
//! (Fig. 3: `X_M = 4.92 mm`, `Y_M = 8.13 mm`). The per-die DRAM *capacity*
//! and *bandwidth* are the architecture knobs traded against compute area
//! and D2D bandwidth (Fig. 4).

use crate::units::{Area, Bandwidth, Bytes, Mm};
use serde::{Deserialize, Serialize};

/// One HBM chiplet as bonded next to a compute die.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramChiplet {
    /// Storage capacity of one chiplet.
    pub capacity: Bytes,
    /// Peak bandwidth of one chiplet.
    pub bandwidth: Bandwidth,
    /// Footprint width (`X_M` in Fig. 3).
    pub width: Mm,
    /// Footprint height (`Y_M` in Fig. 3).
    pub height: Mm,
}

impl DramChiplet {
    /// The reference 16 GiB HBM chiplet used by the Table II presets.
    pub fn hbm16() -> Self {
        DramChiplet {
            capacity: Bytes::gib(16),
            bandwidth: Bandwidth::tb_per_s(0.5),
            width: Mm::new(4.92),
            height: Mm::new(8.13),
        }
    }

    /// Footprint area of one chiplet.
    pub fn area(&self) -> Area {
        self.width * self.height
    }
}

impl Default for DramChiplet {
    fn default() -> Self {
        DramChiplet::hbm16()
    }
}

/// Aggregate per-die DRAM provisioning.
///
/// Capacity/bandwidth are stored explicitly (Table II quotes per-die
/// totals like 70 GB that are not an integer number of 16 GiB chiplets);
/// the equivalent chiplet count is derived for floorplanning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramStack {
    /// Total DRAM capacity attached to one compute die.
    pub capacity: Bytes,
    /// Total DRAM bandwidth of one compute die.
    pub bandwidth: Bandwidth,
    /// Reference chiplet used for area accounting.
    pub chiplet: DramChiplet,
}

impl DramStack {
    /// Build a stack totalling `capacity`/`bandwidth` out of reference chiplets.
    pub fn new(capacity: Bytes, bandwidth: Bandwidth) -> Self {
        DramStack {
            capacity,
            bandwidth,
            chiplet: DramChiplet::hbm16(),
        }
    }

    /// Fractional chiplet-equivalents (used for area accounting).
    pub fn chiplet_equivalents(&self) -> f64 {
        self.capacity.as_f64() / self.chiplet.capacity.as_f64()
    }

    /// Wafer-substrate footprint of the whole stack.
    ///
    /// Chiplets partially overlap interposer routing area (CoWoS), so only
    /// `overlap_factor` of their raw area consumes wafer budget. The factor
    /// is calibrated in [`crate::area::AreaModel`].
    pub fn footprint(&self, overlap_factor: f64) -> Area {
        Area::from_mm2(self.chiplet_equivalents() * self.chiplet.area().as_mm2() * overlap_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm16_area_is_forty_mm2() {
        let c = DramChiplet::hbm16();
        assert!((c.area().as_mm2() - 40.0).abs() < 0.1);
    }

    #[test]
    fn chiplet_equivalents_fractional() {
        let s = DramStack::new(Bytes::gib(70), Bandwidth::tb_per_s(2.0));
        assert!((s.chiplet_equivalents() - 4.375).abs() < 1e-9);
    }

    #[test]
    fn whole_chiplet_counts() {
        let s = DramStack::new(Bytes::gib(48), Bandwidth::tb_per_s(1.0));
        assert!((s.chiplet_equivalents() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn footprint_scales_with_overlap_factor() {
        let s = DramStack::new(Bytes::gib(32), Bandwidth::tb_per_s(1.0));
        let full = s.footprint(1.0);
        let partial = s.footprint(0.4);
        assert!((partial.as_mm2() - full.as_mm2() * 0.4).abs() < 1e-9);
    }
}
