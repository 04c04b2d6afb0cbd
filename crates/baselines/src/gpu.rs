//! GPU-cluster training model (MG-GPU of §V-C, the NVL72 rack of Fig. 1,
//! and the multi-node scaling baseline of Fig. 24a).
//!
//! A GPU is modelled as one "die" (reusing the die-level operator cost
//! model) behind a flat NVLink fabric: TP collectives run at injection
//! bandwidth with no topology effects, inter-node traffic drops to the
//! InfiniBand-class `inter_node_bw`.

use serde::{Deserialize, Serialize};
use wsc_arch::core::CoreConfig;
use wsc_arch::die::ComputeDieConfig;
use wsc_arch::presets::GpuSystemConfig;
use wsc_arch::units::{Bandwidth, Bytes, FlopRate, Mm, Time};
use wsc_mesh::collective::flat_all_reduce_time;
use wsc_pipeline::onefb::{simulate, StageTiming};
use wsc_sim::op_cost::DieModel;
use wsc_sim::profile::KindProfiles;
use wsc_workload::graph::{self, ShardingCtx};
use wsc_workload::memory;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;

/// Synthesize a pseudo-die matching one GPU's peak and memory system.
pub fn gpu_die(gpu: &GpuSystemConfig) -> ComputeDieConfig {
    ComputeDieConfig {
        name: format!("{}-gpu-die", gpu.name),
        core: CoreConfig {
            pe_rows: 16,
            pe_cols: 32,
            freq_ghz: 1.8,
            // Per-SM share of shared memory + L2 (GPUs tile GEMMs against
            // the combined on-chip hierarchy).
            sram: Bytes::mib(1),
            vector_lanes: 128,
        },
        core_rows: 12,
        core_cols: 11,
        width: Mm::new(26.0),
        height: Mm::new(31.0),
        noc_link_bw: Bandwidth::tb_per_s(4.0),
        noc_hop_latency_s: 3e-9,
        peak_flops_override: Some(gpu.flops_per_gpu),
    }
}

/// Result of evaluating a GPU training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuPerf {
    /// End-to-end iteration latency.
    pub iteration: Time,
    /// Critical-stage compute busy time.
    pub comp_time: Time,
    /// Critical-stage exposed communication.
    pub comm_time: Time,
    /// Recompute latency share per iteration.
    pub recompute_time: Time,
    /// Useful throughput.
    pub useful_throughput: FlopRate,
    /// Total throughput including recomputation.
    pub throughput: FlopRate,
    /// Whether memory fits.
    pub feasible: bool,
    /// Chosen (dp, tp, pp).
    pub parallel: (usize, usize, usize),
}

impl GpuPerf {
    fn infeasible() -> Self {
        GpuPerf {
            iteration: Time::INFINITY,
            comp_time: Time::ZERO,
            comm_time: Time::ZERO,
            recompute_time: Time::ZERO,
            useful_throughput: FlopRate::ZERO,
            throughput: FlopRate::ZERO,
            feasible: false,
            parallel: (0, 0, 0),
        }
    }
}

/// Evaluate a fixed (dp, tp, pp) on a GPU system with Megatron-style
/// scheduling (1F1B + selective recomputation when memory overflows).
pub fn evaluate_gpu(
    gpu: &GpuSystemConfig,
    job: &TrainingJob,
    dp: usize,
    tp: usize,
    pp: usize,
) -> GpuPerf {
    if dp * tp * pp > gpu.gpus || pp > job.model.layers || tp > gpu.gpus_per_node {
        return GpuPerf::infeasible();
    }
    let dm = DieModel::new(gpu_die(gpu), gpu.hbm_bw_per_gpu);
    let ctx = ShardingCtx::new(
        job.micro_batch,
        job.seq,
        tp,
        TpSplitStrategy::SequenceParallel,
    );
    let n_mb = job.microbatches(dp);
    let cap = gpu.hbm_per_gpu;

    let kinds = KindProfiles::new(&dm, &job.model, &ctx);

    let mut timings = Vec::with_capacity(pp);
    let mut worst_comp = Time::ZERO;
    let mut worst_comm = Time::ZERO;
    let mut total_recompute = Time::ZERO;
    let mut feasible = true;
    let boundary = graph::layer_input_bytes(&job.model, &ctx);
    for s in 0..pp {
        let (lo, hi) = memory::stage_layer_range(job.model.layers, pp, s);
        let mut fwd = Time::ZERO;
        let mut bwd = Time::ZERO;
        let mut comm = Time::ZERO;
        let mut ckpt = Bytes::ZERO;
        for l in lo..hi {
            let (p, _) = kinds.of(&job.model, l);
            fwd += p.fwd_time();
            bwd += p.bwd_time();
            ckpt += p.full_ckpt_bytes();
            let f_comm =
                flat_all_reduce_time(tp, p.fwd_comm(), gpu.nvlink_bw_per_gpu, gpu.nvlink_latency);
            let b_comm =
                flat_all_reduce_time(tp, p.bwd_comm(), gpu.nvlink_bw_per_gpu, gpu.nvlink_latency);
            fwd += f_comm;
            bwd += b_comm;
            comm += f_comm + b_comm;
        }
        let moe = (lo..hi)
            .filter(|&l| graph::is_moe_layer(&job.model, l))
            .count();
        let menu = kinds.menu((hi - lo - moe, moe));
        // Memory: modelP + in-flight checkpoints, per-GPU recomputation.
        let model_p = memory::model_p_per_die(&job.model, tp, pp, s);
        let in_flight = (pp - s).min(n_mb);
        let full = model_p + ckpt * in_flight as u64;
        let mut recomp = Time::ZERO;
        if full > cap {
            let need_per_mb =
                Bytes::new((full.saturating_sub(cap).as_f64() / in_flight as f64).ceil() as u64);
            match menu.time_for_savings(need_per_mb) {
                Some(t) => recomp = t,
                None => feasible = false,
            }
        }
        total_recompute += recomp;
        bwd += recomp;
        // Pipeline p2p: NVLink within a node, InfiniBand across nodes.
        let crosses_node = (tp * (s + 1)).is_multiple_of(gpu.gpus_per_node) && gpu.nodes() > 1;
        let (bw, lat) = if crosses_node {
            (gpu.inter_node_bw, gpu.inter_node_latency)
        } else {
            (gpu.nvlink_bw_per_gpu, gpu.nvlink_latency)
        };
        timings.push(StageTiming {
            fwd,
            bwd,
            p2p: lat + boundary / bw,
        });
        let comp = (fwd + bwd - comm).scale(n_mb as f64);
        if comp > worst_comp {
            worst_comp = comp;
            worst_comm = comm.scale(n_mb as f64);
        }
    }
    if !feasible {
        return GpuPerf::infeasible();
    }
    let mut iteration = simulate(&timings, n_mb);
    // DP gradient all-reduce: NVLink within a node, IB across nodes.
    if dp > 1 {
        let grads = Bytes::new((job.model.total_params() * 2.0 / (tp * pp) as f64) as u64);
        let bw = if dp * tp * pp > gpu.gpus_per_node {
            gpu.inter_node_bw
        } else {
            gpu.nvlink_bw_per_gpu
        };
        iteration += flat_all_reduce_time(dp, grads, bw, gpu.inter_node_latency);
    }
    let useful = job.flops_per_iter();
    let fwd_share: f64 = timings.iter().map(|t| t.fwd.as_secs()).sum();
    let recompute_flops =
        useful.scale((total_recompute.as_secs() / fwd_share.max(1e-12) * 0.5).min(1.0));
    GpuPerf {
        iteration,
        comp_time: worst_comp,
        comm_time: worst_comm,
        recompute_time: total_recompute.scale(n_mb as f64),
        useful_throughput: useful / iteration,
        throughput: (useful + recompute_flops) / iteration,
        feasible: true,
        parallel: (dp, tp, pp),
    }
}

/// Megatron's recommended parallelism for a GPU system: the largest TP
/// that divides the head count up to 8 (one NVLink domain), then the
/// smallest PP that fits memory, DP with the remainder.
pub fn megatron_parallelism(gpu: &GpuSystemConfig, job: &TrainingJob) -> (usize, usize, usize) {
    let mut tp = 1;
    for cand in [2usize, 4, 8] {
        if cand <= gpu.gpus_per_node.min(gpu.gpus) && job.model.heads.is_multiple_of(cand) {
            tp = cand;
        }
    }
    let mut pp = 1;
    while pp < job.model.layers {
        let per_gpu = memory::model_p_total(&job.model).as_f64() / (tp * pp) as f64;
        if per_gpu < gpu.hbm_per_gpu.as_f64() * 0.7 && tp * pp <= gpu.gpus {
            break;
        }
        pp += 1;
    }
    let dp = (gpu.gpus / (tp * pp)).max(1);
    (dp, tp, pp)
}

/// Evaluate the full Megatron-GPU baseline: heuristic parallelism, then a
/// local search over nearby PP values, keeping the best feasible result.
pub fn megatron_gpu(gpu: &GpuSystemConfig, job: &TrainingJob) -> GpuPerf {
    let (dp0, tp, pp0) = megatron_parallelism(gpu, job);
    let mut best = GpuPerf::infeasible();
    for pp in [pp0, pp0 + 1, pp0 * 2, (pp0 + 3).min(job.model.layers)] {
        if pp == 0 || tp * pp > gpu.gpus {
            continue;
        }
        let dp = (gpu.gpus / (tp * pp)).max(1).min(dp0.max(1));
        let r = evaluate_gpu(gpu, job, dp, tp, pp);
        if r.feasible && r.iteration.as_secs() < best.iteration.as_secs() {
            best = r;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_arch::presets;
    use wsc_workload::zoo;

    #[test]
    fn mg_gpu_trains_llama30b() {
        let gpu = presets::mg_gpu_node();
        let job = TrainingJob::standard(zoo::llama2_30b());
        let r = megatron_gpu(&gpu, &job);
        assert!(r.feasible);
        assert!(r.iteration.is_finite());
        assert!(r.useful_throughput.as_tflops() > 100.0);
    }

    #[test]
    fn heuristic_prefers_tp8_when_heads_divide() {
        let gpu = presets::mg_gpu_node();
        let job = TrainingJob::standard(zoo::llama3_70b());
        let (_, tp, _) = megatron_parallelism(&gpu, &job);
        assert_eq!(tp, 8, "64 heads divide by 8");
    }

    #[test]
    fn odd_heads_cap_tp() {
        let gpu = presets::mg_gpu_node();
        let job = TrainingJob::standard(zoo::llama2_30b()); // 52 heads
        let (_, tp, _) = megatron_parallelism(&gpu, &job);
        assert_eq!(tp, 4, "52 = 4x13: TP=8 does not divide");
    }

    #[test]
    fn infeasible_when_devices_exceeded() {
        let gpu = presets::mg_gpu_node();
        let job = TrainingJob::standard(zoo::llama2_30b());
        let r = evaluate_gpu(&gpu, &job, 2, 8, 4); // 64 > 8 GPUs
        assert!(!r.feasible);
    }

    #[test]
    fn nvl72_has_more_exposed_comm_than_wsc_scale_bw() {
        // Fig. 1 direction: per-GPU NVLink injection (0.9 TB/s) is well
        // below per-die wafer D2D (4 TB/s): the same TP volume takes
        // longer on the rack.
        let gpu = presets::nvl72_gb300(56);
        let job = TrainingJob::standard(zoo::llama3_70b());
        let r = evaluate_gpu(&gpu, &job, 1, 4, 14);
        assert!(r.feasible);
        assert!(r.comm_time.as_secs() > 0.0);
    }
}
