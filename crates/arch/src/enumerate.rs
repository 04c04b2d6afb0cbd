//! Architecture enumerator (the "Enumerator" box of Fig. 9).
//!
//! Exhaustively generates feasible [`WaferConfig`] candidates from
//! combinations of configurable parameters under the wafer-area constraint,
//! plus the die-granularity sweep of Fig. 25.

use crate::area::AreaModel;
use crate::core::CoreConfig;
use crate::die::ComputeDieConfig;
use crate::dram::DramStack;
use crate::presets;
use crate::units::{Bandwidth, Bytes, Mm, Time};
use crate::wafer::WaferConfig;
use serde::{Deserialize, Serialize};

/// Enumerates wafer architecture candidates under area constraints.
#[derive(Debug, Clone)]
pub struct Enumerator {
    /// Area model used for feasibility checks.
    pub area: AreaModel,
    /// Compute-die variants to consider.
    pub dies: Vec<ComputeDieConfig>,
    /// Per-die DRAM capacity options.
    pub dram_capacities: Vec<Bytes>,
    /// Per-die DRAM bandwidth options.
    pub dram_bandwidths: Vec<Bandwidth>,
}

impl Enumerator {
    /// The default candidate space used throughout the paper's evaluation:
    /// both §V-A dies, DRAM capacities 32–128 GiB, bandwidths 1–2.5 TB/s.
    pub fn paper_space() -> Self {
        Enumerator {
            area: AreaModel::default(),
            dies: vec![presets::small_die(), presets::big_die()],
            dram_capacities: vec![
                Bytes::gib(32),
                Bytes::gib(48),
                Bytes::gib(64),
                Bytes::gib(70),
                Bytes::gib(96),
                Bytes::gib(128),
            ],
            dram_bandwidths: vec![
                Bandwidth::tb_per_s(1.0),
                Bandwidth::tb_per_s(1.5),
                Bandwidth::tb_per_s(2.0),
                Bandwidth::tb_per_s(2.5),
            ],
        }
    }

    /// Generate all feasible wafer configurations.
    ///
    /// A candidate is kept when (1) the grid holds at least 4 dies,
    /// (2) the D2D budget left after DRAM PHYs is positive, and (3) the
    /// floorplan passes the area check.
    pub fn enumerate(&self) -> Vec<WaferConfig> {
        let mut out = Vec::new();
        for die in &self.dies {
            for &cap in &self.dram_capacities {
                for &bw in &self.dram_bandwidths {
                    let dram = DramStack::new(cap, bw);
                    let d2d = die.d2d_budget(bw);
                    if d2d.is_zero() {
                        continue;
                    }
                    let (nx, ny) = self.area.max_grid(die, &dram);
                    if nx * ny < 4 {
                        continue;
                    }
                    if self.area.check(die, &dram, nx * ny).is_err() {
                        continue;
                    }
                    out.push(WaferConfig {
                        name: format!(
                            "{}-{}x{}-{}GB-{:.1}TBps",
                            die.name,
                            nx,
                            ny,
                            cap.as_gib() as u64,
                            bw.as_tb_per_s()
                        ),
                        nx,
                        ny,
                        die: die.clone(),
                        dram,
                        d2d_per_die: d2d,
                        d2d_link_latency: Time::from_nanos(presets::WSC_HOP_LATENCY_NS),
                        host_link_bw: Bandwidth::gb_per_s(presets::HOST_PCIE_GBPS),
                    });
                }
            }
        }
        out
    }
}

impl Default for Enumerator {
    fn default() -> Self {
        Enumerator::paper_space()
    }
}

/// Die size / shape classification used by the Fig. 25 hardware DSE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DieShapeClass {
    /// < 400 mm², aspect ratio < 1.2.
    SmallSquare,
    /// < 400 mm², aspect ratio ≥ 1.2.
    SmallRectangle,
    /// ≥ 400 mm², aspect ratio < 1.2.
    LargeSquare,
    /// ≥ 400 mm², aspect ratio ≥ 1.2.
    LargeRectangle,
}

impl DieShapeClass {
    /// Classify a die by area and aspect ratio (§VI-F thresholds).
    pub fn of(die: &ComputeDieConfig) -> Self {
        let small = die.area().as_mm2() < 400.0;
        let square = die.aspect_ratio() < 1.2;
        match (small, square) {
            (true, true) => DieShapeClass::SmallSquare,
            (true, false) => DieShapeClass::SmallRectangle,
            (false, true) => DieShapeClass::LargeSquare,
            (false, false) => DieShapeClass::LargeRectangle,
        }
    }
}

impl std::fmt::Display for DieShapeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DieShapeClass::SmallSquare => "Small Square",
            DieShapeClass::SmallRectangle => "Small Rectangle",
            DieShapeClass::LargeSquare => "Large Square",
            DieShapeClass::LargeRectangle => "Large Rectangle",
        };
        f.write_str(s)
    }
}

/// Core density of the reference big die (cores per mm²), used to scale
/// synthesized dies in the granularity sweep.
fn reference_core_density() -> f64 {
    let d = presets::big_die();
    d.core_count() as f64 / d.area().as_mm2()
}

/// Synthesize a compute die of the given area (mm²) and aspect ratio.
///
/// Core count scales with area at the reference density; peak FLOPS derive
/// from the cores (no override). The die perimeter — and therefore the D2D
/// budget — falls out of the shape, which is what makes Small-Square win
/// in Fig. 25.
pub fn synth_die(area_mm2: f64, aspect: f64) -> ComputeDieConfig {
    let w = (area_mm2 * aspect).sqrt();
    let h = area_mm2 / w;
    let cores = (area_mm2 * reference_core_density()).round().max(1.0) as usize;
    let rows = (cores as f64).sqrt().round().max(1.0) as usize;
    let cols = cores.div_ceil(rows);
    ComputeDieConfig {
        name: format!("synth-{:.0}mm2-a{:.1}", area_mm2, aspect),
        core: CoreConfig::dojo_style(),
        core_rows: rows,
        core_cols: cols,
        width: Mm::new(w),
        height: Mm::new(h),
        noc_link_bw: Bandwidth::tb_per_s(1.0),
        noc_hop_latency_s: 5e-9,
        peak_flops_override: None,
    }
}

/// One point of the Fig. 25 die-granularity sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GranularityPoint {
    /// Shape classification of the synthesized die.
    pub class: DieShapeClass,
    /// Die area in mm².
    pub die_area_mm2: f64,
    /// Die aspect ratio.
    pub aspect: f64,
    /// The resulting wafer configuration.
    pub wafer: WaferConfig,
}

/// Generate the Fig. 25 sweep: dies from 200–600 mm², square and
/// rectangular, crossed with DRAM capacity options.
pub fn die_granularity_sweep() -> Vec<GranularityPoint> {
    let area_model = AreaModel::default();
    let mut out = Vec::new();
    let areas = [
        200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0,
    ];
    let aspects = [1.0, 1.1, 1.5, 2.0, 2.5];
    let caps = [
        Bytes::gib(32),
        Bytes::gib(48),
        Bytes::gib(64),
        Bytes::gib(96),
    ];
    for &a in &areas {
        for &r in &aspects {
            let die = synth_die(a, r);
            for &cap in &caps {
                // DRAM bandwidth scales with capacity at HBM ratios.
                let bw = Bandwidth::tb_per_s(cap.as_gib() / 32.0 * 0.8);
                let dram = DramStack::new(cap, bw);
                let d2d = die.d2d_budget(bw);
                if d2d.is_zero() {
                    continue;
                }
                let (nx, ny) = area_model.max_grid(&die, &dram);
                if nx * ny < 4 || area_model.check(&die, &dram, nx * ny).is_err() {
                    continue;
                }
                out.push(GranularityPoint {
                    class: DieShapeClass::of(&die),
                    die_area_mm2: a,
                    aspect: r,
                    wafer: WaferConfig {
                        name: format!("{}-{}GB", die.name, cap.as_gib() as u64),
                        nx,
                        ny,
                        die: die.clone(),
                        dram,
                        d2d_per_die: d2d,
                        d2d_link_latency: Time::from_nanos(presets::WSC_HOP_LATENCY_NS),
                        host_link_bw: Bandwidth::gb_per_s(presets::HOST_PCIE_GBPS),
                    },
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_yields_candidates() {
        let cands = Enumerator::paper_space().enumerate();
        assert!(cands.len() >= 20, "only {} candidates", cands.len());
        for c in &cands {
            assert!(
                c.validate(&AreaModel::default()).is_ok(),
                "{} invalid",
                c.name
            );
            assert!(!c.d2d_per_die.is_zero());
        }
    }

    #[test]
    fn enumeration_contains_table_ii_like_points() {
        // Some candidate must be close to Config 3 (70 GB not in the grid,
        // but 64 GB / 2 TB/s on the big die is).
        let cands = Enumerator::paper_space().enumerate();
        assert!(cands.iter().any(|c| {
            c.die.name == "die-18x18"
                && c.dram.capacity == Bytes::gib(64)
                && (c.dram.bandwidth.as_tb_per_s() - 2.0).abs() < 1e-9
        }));
    }

    #[test]
    fn shape_classification_thresholds() {
        let d = synth_die(300.0, 1.0);
        assert_eq!(DieShapeClass::of(&d), DieShapeClass::SmallSquare);
        let d = synth_die(300.0, 2.0);
        assert_eq!(DieShapeClass::of(&d), DieShapeClass::SmallRectangle);
        let d = synth_die(500.0, 1.0);
        assert_eq!(DieShapeClass::of(&d), DieShapeClass::LargeSquare);
        let d = synth_die(500.0, 2.0);
        assert_eq!(DieShapeClass::of(&d), DieShapeClass::LargeRectangle);
    }

    #[test]
    fn synth_die_preserves_area_and_aspect() {
        let d = synth_die(450.0, 1.5);
        assert!((d.area().as_mm2() - 450.0).abs() < 1.0);
        assert!((d.aspect_ratio() - 1.5).abs() < 0.01);
    }

    #[test]
    fn granularity_sweep_covers_all_classes() {
        let pts = die_granularity_sweep();
        assert!(!pts.is_empty());
        use std::collections::HashSet;
        let classes: HashSet<_> = pts.iter().map(|p| p.class).collect();
        assert_eq!(classes.len(), 4, "classes seen: {classes:?}");
    }

    #[test]
    fn smaller_dies_give_more_total_perimeter() {
        // Per unit wafer area, small dies expose more edge for D2D.
        let small = synth_die(250.0, 1.0);
        let large = synth_die(550.0, 1.0);
        let small_ratio = small.perimeter().as_f64() / small.area().as_mm2();
        let large_ratio = large.perimeter().as_f64() / large.area().as_mm2();
        assert!(small_ratio > large_ratio);
    }
}
