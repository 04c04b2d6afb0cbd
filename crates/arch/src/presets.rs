//! Preset hardware configurations.
//!
//! * The four representative WSC configurations of **Table II**.
//! * The two compute-die variants of §V-A.
//! * GPU systems used by the baselines (Blackwell-Ultra DGX node, NVL72
//!   rack) — parameterized per §V-C / Fig. 1.

use crate::core::CoreConfig;
use crate::die::ComputeDieConfig;
use crate::dram::DramStack;
use crate::units::{Bandwidth, Bytes, FlopRate, Mm, Time};
use crate::wafer::{MultiWaferConfig, WaferConfig};
use serde::{Deserialize, Serialize};

/// Per-hop D2D latency on the wafer (≈5× lower than rack-scale NVLink).
pub const WSC_HOP_LATENCY_NS: f64 = 50.0;

/// Host ↔ wafer PCIe bandwidth (Fig. 6 caption: 160 GB/s, Dojo-class).
pub const HOST_PCIE_GBPS: f64 = 160.0;

/// §V-A compute die (1): 21.92 mm × 22.81 mm, 16 × 16 Dojo-style cores.
pub fn small_die() -> ComputeDieConfig {
    ComputeDieConfig {
        name: "die-16x16".into(),
        core: CoreConfig::dojo_style(),
        core_rows: 16,
        core_cols: 16,
        width: Mm::new(21.92),
        height: Mm::new(22.81),
        noc_link_bw: Bandwidth::tb_per_s(1.0),
        noc_hop_latency_s: 5e-9,
        peak_flops_override: Some(FlopRate::tflops(512.0)),
    }
}

/// §V-A compute die (2): 25.5 mm × 25.2 mm, 18 × 18 Dojo-style cores.
pub fn big_die() -> ComputeDieConfig {
    ComputeDieConfig {
        name: "die-18x18".into(),
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

/// One of the four Table II configurations (`idx` ∈ 1..=4).
///
/// # Panics
///
/// Panics if `idx` is not in `1..=4`.
pub fn config(idx: usize) -> WaferConfig {
    let (name, nx, ny, die, dram_gb, dram_tbps, d2d_tbps) = match idx {
        1 => ("Config 1", 8, 8, small_die(), 48, 1.0, 4.5),
        2 => ("Config 2", 7, 8, big_die(), 64, 1.5, 4.5),
        3 => ("Config 3", 7, 8, big_die(), 70, 2.0, 4.0),
        4 => ("Config 4", 6, 8, big_die(), 96, 2.5, 3.5),
        // wsc-lint: allow(S001, "documented API contract: Table II defines exactly configs 1..=4 and callers pass literal indices")
        _ => panic!("Table II defines configs 1..=4, got {idx}"),
    };
    WaferConfig {
        name: name.into(),
        nx,
        ny,
        die,
        dram: DramStack::new(Bytes::gib(dram_gb), Bandwidth::tb_per_s(dram_tbps)),
        d2d_per_die: Bandwidth::tb_per_s(d2d_tbps),
        d2d_link_latency: Time::from_nanos(WSC_HOP_LATENCY_NS),
        host_link_bw: Bandwidth::gb_per_s(HOST_PCIE_GBPS),
    }
}

/// All four Table II configurations in order.
pub fn table_ii_configs() -> Vec<WaferConfig> {
    (1..=4).map(config).collect()
}

/// A four-wafer Config-3 node with SOTA 1.8 TB/s W2W links ("WATOS-18").
pub fn multi_wafer_18() -> MultiWaferConfig {
    MultiWaferConfig {
        wafers: 4,
        wafer: config(3),
        w2w_bw: Bandwidth::tb_per_s(1.8),
        w2w_latency: Time::from_nanos(400.0),
    }
}

/// A four-wafer Config-3 node with 400 GB/s W2W links ("WATOS-4").
pub fn multi_wafer_4() -> MultiWaferConfig {
    MultiWaferConfig {
        wafers: 4,
        wafer: config(3),
        w2w_bw: Bandwidth::gb_per_s(400.0),
        w2w_latency: Time::from_nanos(400.0),
    }
}

/// GPU-system model used by the Megatron-GPU baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSystemConfig {
    /// Human-readable name.
    pub name: String,
    /// Total GPU count.
    pub gpus: usize,
    /// GPUs per NVLink domain (node).
    pub gpus_per_node: usize,
    /// Peak throughput of one GPU.
    pub flops_per_gpu: FlopRate,
    /// HBM capacity of one GPU.
    pub hbm_per_gpu: Bytes,
    /// HBM bandwidth of one GPU.
    pub hbm_bw_per_gpu: Bandwidth,
    /// NVLink injection bandwidth per GPU (flat intra-node fabric).
    pub nvlink_bw_per_gpu: Bandwidth,
    /// NVLink end-to-end latency.
    pub nvlink_latency: Time,
    /// Inter-node bandwidth per node (InfiniBand-class).
    pub inter_node_bw: Bandwidth,
    /// Inter-node latency.
    pub inter_node_latency: Time,
}

impl GpuSystemConfig {
    /// Aggregate compute throughput.
    pub fn total_flops(&self) -> FlopRate {
        self.flops_per_gpu * self.gpus as f64
    }

    /// Number of NVLink domains.
    pub fn nodes(&self) -> usize {
        self.gpus.div_ceil(self.gpus_per_node)
    }
}

/// §V-C Megatron-GPU comparison system: 8× Blackwell Ultra, 40,000 TFLOPS,
/// DRAM scaled to 3920 GB / 2 TB/s per device for fairness with Config 3.
pub fn mg_gpu_node() -> GpuSystemConfig {
    GpuSystemConfig {
        name: "MG-GPU (8x Blackwell Ultra)".into(),
        gpus: 8,
        gpus_per_node: 8,
        flops_per_gpu: FlopRate::tflops(5_000.0),
        hbm_per_gpu: Bytes::gib(490), // 3920 GB total, scaled per §V-C
        hbm_bw_per_gpu: Bandwidth::tb_per_s(2.0),
        nvlink_bw_per_gpu: Bandwidth::tb_per_s(1.8),
        nvlink_latency: Time::from_nanos(5.0 * WSC_HOP_LATENCY_NS),
        inter_node_bw: Bandwidth::gb_per_s(400.0),
        inter_node_latency: Time::from_micros(2.0),
    }
}

/// Fig. 1 comparison rack: 56 GB300-class GPUs in an NVL72 domain with
/// compute matched to the 56-die WSC.
pub fn nvl72_gb300(gpus: usize) -> GpuSystemConfig {
    GpuSystemConfig {
        name: format!("NVL72 GB300 x{gpus}"),
        gpus,
        gpus_per_node: 72,
        flops_per_gpu: FlopRate::tflops(708.0), // compute parity with a die
        hbm_per_gpu: Bytes::gib(288),
        hbm_bw_per_gpu: Bandwidth::tb_per_s(8.0),
        nvlink_bw_per_gpu: Bandwidth::gb_per_s(900.0),
        nvlink_latency: Time::from_nanos(5.0 * WSC_HOP_LATENCY_NS),
        inter_node_bw: Bandwidth::gb_per_s(400.0),
        inter_node_latency: Time::from_micros(2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values_round_trip() {
        let c = config(1);
        assert_eq!(c.die_count(), 64);
        assert_eq!(c.dram.capacity, Bytes::gib(48));
        assert!((c.dram.bandwidth.as_tb_per_s() - 1.0).abs() < 1e-12);
        assert!((c.d2d_per_die.as_tb_per_s() - 4.5).abs() < 1e-12);
        let c = config(4);
        assert_eq!(c.die_count(), 48);
        assert_eq!(c.dram.capacity, Bytes::gib(96));
        assert!((c.d2d_per_die.as_tb_per_s() - 3.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "configs 1..=4")]
    fn config_index_out_of_range_panics() {
        let _ = config(5);
    }

    #[test]
    fn d2d_budget_model_consistent_with_presets() {
        // Configs 2-4 share the big die; D2D = 6 - DRAM_BW must hold.
        for idx in 2..=4 {
            let c = config(idx);
            let derived = c.die.d2d_budget(c.dram.bandwidth);
            assert!(
                (derived.as_tb_per_s() - c.d2d_per_die.as_tb_per_s()).abs() < 1e-9,
                "config {idx}: derived {derived} vs preset {}",
                c.d2d_per_die
            );
        }
    }

    #[test]
    fn mg_gpu_node_matches_paper_totals() {
        let g = mg_gpu_node();
        assert!((g.total_flops().as_tflops() - 40_000.0).abs() < 1e-6);
        assert_eq!(g.hbm_per_gpu * g.gpus as u64, Bytes::gib(3_920));
        assert_eq!(g.nodes(), 1);
    }

    #[test]
    fn wafer_latency_advantage_is_5x() {
        let g = mg_gpu_node();
        let w = config(3);
        let ratio = g.nvlink_latency.as_secs() / w.d2d_link_latency.as_secs();
        assert!((ratio - 5.0).abs() < 1e-9);
    }
}
