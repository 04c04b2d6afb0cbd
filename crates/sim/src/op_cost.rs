//! Die-level operator cost model: the "detailed simulator" that stands in
//! for the paper's measured operator latencies (§IV-F substitution — see
//! the paper → code map in `docs/ARCHITECTURE.md`).
//!
//! GEMM-class operators run on the MAC arrays under the best hybrid
//! dataflow; vector-class operators run on the vector units. Cost is a
//! roofline over compute and DRAM traffic, with the non-idealities the
//! paper's analytical comparator misses: tile-quantization (alignment)
//! losses, SRAM-spill traffic inflation, pipeline-fill bubbles, and kernel
//! launch overhead. `measured_cost` adds a deterministic ±3% measurement
//! jitter so the DNN predictor has a realistic target (Fig. 10b).

use crate::dataflow::{best_gemm_dataflow, ema_elements, Dataflow};
use serde::{Deserialize, Serialize};
use wsc_arch::die::ComputeDieConfig;
use wsc_arch::units::{Bandwidth, Bytes, Flops, Time};
use wsc_workload::ops::{OpInstance, OpKind};

/// Fixed kernel-launch / synchronization overhead per operator.
fn launch_overhead() -> Time {
    Time::from_micros(2.0)
}

/// Cost of executing one operator on one die.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCost {
    /// Wall time of the forward pass.
    pub time: Time,
    /// DRAM traffic of the forward pass.
    pub ema: Bytes,
    /// Achieved fraction of peak compute.
    pub utilization: f64,
    /// Dataflow chosen (GEMM-class ops only).
    pub dataflow: Option<Dataflow>,
}

/// A die plus the DRAM bandwidth behind it: everything operator timing
/// depends on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DieModel {
    /// The compute die.
    pub die: ComputeDieConfig,
    /// Per-die DRAM bandwidth.
    pub dram_bw: Bandwidth,
}

impl DieModel {
    /// Construct a die model.
    pub fn new(die: ComputeDieConfig, dram_bw: Bandwidth) -> Self {
        DieModel { die, dram_bw }
    }

    /// Total MAC-lane extents across the die (M lanes, N lanes) — the
    /// quantization granularity for alignment losses.
    fn lane_extents(&self) -> (f64, f64) {
        let lm = (self.die.core_rows * self.die.core.pe_rows) as f64;
        let ln = (self.die.core_cols * self.die.core.pe_cols) as f64;
        (lm, ln)
    }

    /// Effective EMA reuse-tile extents: each core keeps an SRAM-resident
    /// stationary block (three double-buffered FP16 operands), and the
    /// die-level tile is that block times the core grid. This — not the
    /// raw MAC-array size — sets the Fig. 14 EMA denominators.
    fn ema_tile_extents(&self) -> (f64, f64) {
        let block = (self.die.core.sram.as_f64() / 6.0).sqrt().max(8.0);
        (
            self.die.core_rows as f64 * block,
            self.die.core_cols as f64 * block,
        )
    }

    /// Tile-quantization utilization for an `M × N × K` GEMM: padding to
    /// lane multiples plus the K pipeline-fill bubble.
    fn alignment_utilization(&self, m: f64, n: f64, k: f64) -> f64 {
        let (lm, ln) = self.lane_extents();
        let um = m / ((m / lm).ceil() * lm);
        let un = n / ((n / ln).ceil() * ln);
        let fill = (self.die.core.pe_rows + self.die.core.pe_cols) as f64;
        let uk = k / (k + fill);
        um * un * uk
    }

    /// SRAM-spill inflation: when the stationary tile exceeds core SRAM
    /// the dataflow's reuse assumption degrades.
    fn spill_factor(&self, k: f64) -> f64 {
        let (_, _) = self.lane_extents();
        let tile_bytes = k * (self.die.core.pe_rows + self.die.core.pe_cols) as f64 * 2.0;
        let sram = self.die.core.sram.as_f64();
        if tile_bytes > sram {
            1.0 + 0.5 * (tile_bytes / sram).log2().clamp(0.0, 2.0)
        } else {
            1.0
        }
    }

    fn gemm_cost(&self, m: f64, k: f64, n: f64, flops: Flops, matrix_util: f64) -> OpCost {
        let (tm, tn) = self.ema_tile_extents();
        let (df, ema_elems) = best_gemm_dataflow(m, n, k, tm.min(m.max(1.0)), tn.min(n.max(1.0)));
        let ema = Bytes::new((ema_elems * 2.0 * self.spill_factor(k)).round() as u64);
        let util = self.alignment_utilization(m, n, k) * matrix_util;
        let compute = flops / self.die.peak_flops().scale(util.max(1e-6));
        let memory = ema / self.dram_bw;
        OpCost {
            time: compute.max(memory) + launch_overhead(),
            ema,
            utilization: util,
            dataflow: Some(df),
        }
    }

    fn vector_cost(&self, flops: Flops, touched: Bytes) -> OpCost {
        let compute = flops / self.die.vector_flops().scale(0.85);
        let memory = touched / self.dram_bw;
        OpCost {
            time: compute.max(memory) + launch_overhead(),
            ema: touched,
            utilization: 0.85,
            dataflow: None,
        }
    }

    /// Forward-pass cost of `op` on this die (detailed model).
    pub fn op_cost(&self, op: &OpInstance) -> OpCost {
        match op.kind {
            OpKind::Gemm | OpKind::MoeRouter => {
                // wsc-lint: allow(S001, "the graph builder sets gemm on every Gemm/MoeRouter op it emits")
                let g = op.gemm.expect("GEMM ops carry shapes");
                self.gemm_cost(g.m as f64, g.k as f64, g.n as f64, op.fwd_flops, 1.0)
            }
            OpKind::FlashAttention => {
                // wsc-lint: allow(S001, "the graph builder sets gemm on every FlashAttention op it emits")
                let g = op.gemm.expect("attention carries a shape");
                // Fused kernel: EMA is only QKV in + out (no S^2 traffic);
                // inner softmax costs ~15% of MAC throughput.
                let mut c = self.gemm_cost(g.m as f64, g.k as f64, g.n as f64, op.fwd_flops, 0.85);
                c.ema = op.output_bytes.scale(4.0);
                let memory = c.ema / self.dram_bw;
                c.time = c.time.max(memory + launch_overhead());
                c
            }
            OpKind::Norm | OpKind::Activation | OpKind::SsmScan | OpKind::Conv => {
                self.vector_cost(op.fwd_flops, op.output_bytes.scale(3.0))
            }
            OpKind::MoeShuffle => {
                // Die-local staging only; fabric time is charged by the
                // TP engine against the collective volume.
                let touched = op.output_bytes.scale(2.0);
                OpCost {
                    time: touched / self.dram_bw + launch_overhead(),
                    ema: touched,
                    utilization: 0.0,
                    dataflow: None,
                }
            }
        }
    }

    /// Backward-pass cost (scaled forward cost; GEMM backward runs two
    /// GEMMs of the same shape).
    pub fn op_cost_bwd(&self, op: &OpInstance) -> OpCost {
        let fwd = self.op_cost(op);
        let ratio = if op.fwd_flops.as_f64() > 0.0 {
            op.bwd_flops.as_f64() / op.fwd_flops.as_f64()
        } else {
            1.0
        };
        OpCost {
            time: fwd.time.scale(ratio.max(1.0)),
            ema: fwd.ema.scale(ratio.max(1.0)),
            utilization: fwd.utilization,
            dataflow: fwd.dataflow,
        }
    }

    /// "Measured" cost: the detailed model plus deterministic pseudo-random
    /// measurement jitter (±3%), seeded by the operator identity.
    pub fn measured_cost(&self, op: &OpInstance, seed: u64) -> OpCost {
        let base = self.op_cost(op);
        let h = hash_mix(seed, op.name.as_bytes(), op.fwd_flops.as_f64().to_bits());
        let jitter_t = 1.0 + 0.03 * unit_signal(h);
        let jitter_m = 1.0 + 0.02 * unit_signal(h.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        OpCost {
            time: base.time.scale(jitter_t),
            ema: base.ema.scale(jitter_m),
            utilization: base.utilization,
            dataflow: base.dataflow,
        }
    }

    /// Peak memory an operator's forward pass touches (activation in/out
    /// plus weights) — the Fig. 10b "memory footprint" target.
    pub fn op_memory(&self, op: &OpInstance) -> Bytes {
        let input = op
            .gemm
            .map(|g| g.input_bytes(2))
            .unwrap_or_else(|| op.output_bytes);
        input + op.output_bytes + op.weight_bytes
    }
}

fn hash_mix(seed: u64, name: &[u8], extra: u64) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325 ^ extra;
    for &b in name {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Map a hash to a deterministic value in [-1, 1].
fn unit_signal(h: u64) -> f64 {
    (h % 20001) as f64 / 10000.0 - 1.0
}

/// First-order analytic comparator (the "Analytical" line of Fig. 10b and
/// the Fig. 15 `Analytic*` model): no alignment, no roofline max — just
/// `flops/peak + bytes/bw`.
pub fn analytic_cost(die: &ComputeDieConfig, dram_bw: Bandwidth, op: &OpInstance) -> OpCost {
    let peak = if op.kind.is_matrix() {
        die.peak_flops()
    } else {
        die.vector_flops()
    };
    let ema = match op.gemm {
        Some(g) => {
            let e = ema_elements(
                Dataflow::Os,
                g.m as f64,
                g.n as f64,
                g.k as f64,
                (die.core_rows * die.core.pe_rows) as f64,
                (die.core_cols * die.core.pe_cols) as f64,
            );
            Bytes::new((e * 2.0) as u64)
        }
        None => op.output_bytes.scale(3.0),
    };
    OpCost {
        time: op.fwd_flops / peak + ema / dram_bw,
        ema,
        utilization: 1.0,
        dataflow: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_arch::presets;
    use wsc_workload::graph::{layer_ops_at, ShardingCtx};
    use wsc_workload::parallel::TpSplitStrategy;
    use wsc_workload::zoo;

    fn die_model() -> DieModel {
        DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0))
    }

    fn llama_ops(tp: usize) -> Vec<OpInstance> {
        let ctx = ShardingCtx::new(16, 4096, tp, TpSplitStrategy::Megatron);
        layer_ops_at(&zoo::llama_65b(), 0, &ctx)
    }

    #[test]
    fn big_gemms_reach_high_utilization() {
        let dm = die_model();
        let ops = llama_ops(8);
        let qkv = ops.iter().find(|o| o.name == "qkv_proj").unwrap();
        let c = dm.op_cost(qkv);
        assert!(c.utilization > 0.7, "util {}", c.utilization);
        assert!(c.time.as_millis() > 0.1);
    }

    #[test]
    fn fig10c_recompute_magnitudes() {
        // Fig. 10c: per-op recompute times on one Config-2 die are
        // O(0.1 ms) – O(30 ms) for Llama-65B (b=16, s=4096, TP=8).
        let dm = die_model();
        for op in llama_ops(8) {
            let t = dm.op_cost(&op).time.as_millis();
            assert!(
                (0.001..200.0).contains(&t),
                "{}: {t} ms out of expected envelope",
                op.name
            );
        }
    }

    #[test]
    fn misaligned_gemm_pays_quantization() {
        let dm = die_model();
        // One lane extent past a multiple forces a nearly-empty extra pass.
        let (lm, _) = dm.lane_extents();
        let good = dm.alignment_utilization(lm * 4.0, 1024.0, 1024.0);
        let bad = dm.alignment_utilization(lm * 4.0 + 1.0, 1024.0, 1024.0);
        assert!(bad < good * 0.85, "good {good} bad {bad}");
    }

    #[test]
    fn backward_costs_more_than_forward() {
        let dm = die_model();
        for op in llama_ops(8) {
            if op.fwd_flops.as_f64() == 0.0 {
                continue;
            }
            let f = dm.op_cost(&op).time;
            let b = dm.op_cost_bwd(&op).time;
            assert!(b.as_secs() >= f.as_secs(), "{}", op.name);
        }
    }

    #[test]
    fn measured_jitter_is_small_and_deterministic() {
        let dm = die_model();
        let ops = llama_ops(8);
        for op in &ops {
            let a = dm.measured_cost(op, 7);
            let b = dm.measured_cost(op, 7);
            assert_eq!(a.time, b.time, "deterministic for {}", op.name);
            let base = dm.op_cost(op);
            let rel = (a.time.as_secs() - base.time.as_secs()).abs() / base.time.as_secs();
            assert!(rel <= 0.031, "{}: jitter {rel}", op.name);
        }
    }

    #[test]
    fn analytic_model_diverges_from_detailed() {
        // The Fig. 10b premise: the first-order model misses alignment and
        // roofline effects, so it disagrees with the detailed model.
        let dm = die_model();
        let mut rel_sum = 0.0;
        let mut n = 0;
        for op in llama_ops(8) {
            if op.fwd_flops.as_f64() == 0.0 {
                continue;
            }
            let d = dm.op_cost(&op).time.as_secs();
            let a = analytic_cost(&dm.die, dm.dram_bw, &op).time.as_secs();
            rel_sum += (d - a).abs() / d;
            n += 1;
        }
        let mape = rel_sum / n as f64;
        assert!(
            mape > 0.05,
            "analytic should be noticeably off, mape {mape}"
        );
    }

    #[test]
    fn faster_dram_reduces_memory_bound_op_time() {
        let slow = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(1.0));
        let fast = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.5));
        let ops = llama_ops(8);
        let norm = ops.iter().find(|o| o.name == "norm1").unwrap();
        assert!(fast.op_cost(norm).time.as_secs() <= slow.op_cost(norm).time.as_secs());
    }

    #[test]
    fn op_memory_includes_weights() {
        let dm = die_model();
        let ops = llama_ops(8);
        let qkv = ops.iter().find(|o| o.name == "qkv_proj").unwrap();
        assert!(dm.op_memory(qkv) > qkv.output_bytes + qkv.weight_bytes);
    }
}
