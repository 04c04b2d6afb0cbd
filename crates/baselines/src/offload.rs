//! Host offloading vs recomputation (Fig. 6b).
//!
//! Offloading pushes overflow checkpoints to host memory over the
//! host↔wafer PCIe link (160 GB/s, §II-C). Against the wafer's compute
//! and on-wafer bandwidth, that link is minuscule: the paper measures an
//! average 2.2× wall-time inflation versus recomputation.

use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bytes, Time};
use wsc_arch::wafer::WaferConfig;
use wsc_sim::op_cost::DieModel;
use wsc_sim::profile::{profile_layer, RecomputeMenu};
use wsc_workload::graph::{self, ShardingCtx};
use wsc_workload::memory;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;

/// Recomputation-vs-offloading comparison for one model (Fig. 6b).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffloadComparison {
    /// Model name.
    pub model: String,
    /// Base compute time per iteration.
    pub comp_time: Time,
    /// Added recomputation time per iteration.
    pub recompute_time: Time,
    /// Added (exposed) offload transfer time per iteration.
    pub offload_time: Time,
    /// Bytes that exceed on-wafer memory per iteration.
    pub overflow: Bytes,
}

impl OffloadComparison {
    /// Wall-time ratio offloading / recomputation.
    pub fn slowdown(&self) -> f64 {
        (self.comp_time + self.offload_time).as_secs()
            / (self.comp_time + self.recompute_time).as_secs().max(1e-12)
    }
}

/// Compare handling checkpoint overflow via recomputation vs host offload
/// for a (tp, pp) deployment.
pub fn compare(wafer: &WaferConfig, job: &TrainingJob, tp: usize, pp: usize) -> OffloadComparison {
    let dm = DieModel::new(wafer.die.clone(), wafer.dram.bandwidth);
    let ctx = ShardingCtx::new(job.micro_batch, job.seq, tp, TpSplitStrategy::Megatron);
    let n_mb = job.microbatches(1);
    let cap = wafer.dram.capacity;
    let prof = profile_layer(&dm, &graph::layer_ops_at(&job.model, 0, &ctx));

    let mut comp = Time::ZERO;
    let mut recompute = Time::ZERO;
    let mut overflow_total = Bytes::ZERO;
    for s in 0..pp {
        let layers = memory::stage_layers(job.model.layers, pp, s);
        comp = comp.max((prof.fwd_time() + prof.bwd_time()).scale((layers * n_mb) as f64));
        let in_flight = (pp - s).min(n_mb);
        let full = memory::model_p_per_die(&job.model, tp, pp, s)
            + prof.full_ckpt_bytes() * (layers * in_flight) as u64;
        let overflow = full.saturating_sub(cap);
        if overflow == Bytes::ZERO {
            continue;
        }
        overflow_total += overflow * tp as u64;
        let menu = RecomputeMenu::for_stage(&[(&prof, layers)]);
        let need_per_mb = Bytes::new((overflow.as_f64() / in_flight as f64).ceil() as u64);
        if let Some(t) = menu.time_for_savings(need_per_mb) {
            recompute = recompute.max(t.scale(n_mb as f64));
        }
    }
    // Offload: the same overflow bytes cross PCIe twice per iteration
    // (store + fetch), serialized behind the 160 GB/s host link shared by
    // every offloading die; only half overlaps with compute.
    let pcie = wafer.host_link_bw;
    let transfer = Time::from_secs(2.0 * overflow_total.as_f64() / pcie.as_bytes_per_s());
    let offload = transfer.scale(0.5).max(transfer - comp.scale(0.3));
    OffloadComparison {
        model: job.model.name.clone(),
        comp_time: comp,
        recompute_time: recompute,
        offload_time: offload,
        overflow: overflow_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_arch::presets;
    use wsc_workload::zoo;

    fn pressured_job(model: wsc_workload::model::LlmModel) -> TrainingJob {
        // Larger micro-batch to force checkpoint overflow.
        let seq = model.default_seq;
        TrainingJob::with_batch(model, 512, 8, seq)
    }

    #[test]
    fn offloading_is_slower_than_recompute() {
        // Fig. 6b: ≈2.2x average wall-time inflation.
        let wafer = presets::config(3);
        let job = pressured_job(zoo::llama3_70b());
        let c = compare(&wafer, &job, 4, 14);
        assert!(c.overflow > Bytes::ZERO, "test must create memory pressure");
        assert!(
            c.slowdown() > 1.3,
            "offload should clearly lose, slowdown {}",
            c.slowdown()
        );
    }

    #[test]
    fn no_pressure_no_difference() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let c = compare(&wafer, &job, 8, 7);
        assert_eq!(c.overflow, Bytes::ZERO);
        assert_eq!(c.recompute_time, Time::ZERO);
    }

    #[test]
    fn bigger_models_overflow_more() {
        let wafer = presets::config(3);
        let small = compare(&wafer, &pressured_job(zoo::llama2_30b()), 4, 14);
        let big = compare(&wafer, &pressured_job(zoo::gpt_175b()), 4, 14);
        assert!(big.overflow >= small.overflow);
    }
}
