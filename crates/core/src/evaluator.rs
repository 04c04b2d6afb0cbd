//! The WATOS evaluator (§IV-F): turns a complete configuration — wafer,
//! job, parallelism, strategy, recomputation plan, placement, DRAM grants,
//! faults — into a [`PerfReport`].
//!
//! Composition: per-stage compute from the die model, TP collectives from
//! the mesh cost models, inter-stage p2p from the contention-aware traffic
//! assigner, end-to-end timing from the exact 1F1B simulator, plus DP
//! gradient synchronization and the optimizer step.

use crate::cache::ProfileCache;
use crate::dram_alloc::DramGrant;
use crate::placement::Placement;
use crate::stage::{boundary_bytes, StageProfile};
use serde::{Deserialize, Serialize};
use wsc_arch::fault::FaultMap;
use wsc_arch::units::{Bandwidth, Bytes, FlopRate, Flops, Time};
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{all_reduce_time, CollectiveAlgo, GroupShape};
use wsc_mesh::contention::{CommTask, TaskKind, TrafficAssigner};
use wsc_mesh::topology::Mesh2D;
use wsc_pipeline::onefb::{simulate, StageTiming};
use wsc_pipeline::recompute::RecomputePlan;
use wsc_workload::graph::ShardingCtx;
use wsc_workload::parallel::ParallelSpec;
use wsc_workload::training::TrainingJob;

/// Evaluation result for one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// End-to-end iteration latency.
    pub iteration: Time,
    /// Critical-stage compute busy time per iteration.
    pub comp_time: Time,
    /// Critical-stage exposed communication per iteration.
    pub comm_time: Time,
    /// Critical-stage pipeline bubble per iteration.
    pub bubble_time: Time,
    /// Useful (fwd+bwd) FLOPs per iteration across the system.
    pub useful_flops: Flops,
    /// Extra FLOPs spent on recomputation per iteration.
    pub recompute_flops: Flops,
    /// Total achieved throughput including recomputation.
    pub throughput: FlopRate,
    /// Useful-work throughput (excludes recomputation).
    pub useful_throughput: FlopRate,
    /// Per-stage local memory after recomputation and balancing.
    pub stage_memory: Vec<Bytes>,
    /// Mean per-die DRAM occupancy relative to capacity.
    pub dram_utilization: f64,
    /// Mean D2D link activity of the TP collectives (Fig. 5b metric).
    pub d2d_utilization: f64,
    /// Useful FLOPs over peak FLOPs of the dies in use.
    pub compute_utilization: f64,
    /// False when memory or embedding constraints are violated.
    pub feasible: bool,
}

impl PerfReport {
    /// An infeasible sentinel report.
    pub fn infeasible() -> Self {
        PerfReport {
            iteration: Time::INFINITY,
            comp_time: Time::ZERO,
            comm_time: Time::ZERO,
            bubble_time: Time::ZERO,
            useful_flops: Flops::ZERO,
            recompute_flops: Flops::ZERO,
            throughput: FlopRate::ZERO,
            useful_throughput: FlopRate::ZERO,
            stage_memory: Vec::new(),
            dram_utilization: 0.0,
            d2d_utilization: 0.0,
            compute_utilization: 0.0,
            feasible: false,
        }
    }
}

/// Evaluator knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalOptions {
    /// Collective algorithm for TP groups.
    pub collective: CollectiveAlgo,
    /// Punishment factor for occupied links in PP routing (§IV-E-2).
    pub punish: f64,
    /// Enable the robustness layer (link-quality/core-aware scheduling and
    /// adaptive rerouting, §VI-D).
    pub robust: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            collective: CollectiveAlgo::RingBi,
            punish: 4.0,
            robust: true,
        }
    }
}

/// Everything the evaluator consumes.
#[derive(Debug, Clone)]
pub struct EvalInput<'a> {
    /// Wafer architecture.
    pub wafer: &'a WaferConfig,
    /// Training job.
    pub job: &'a TrainingJob,
    /// Parallelism configuration.
    pub parallel: ParallelSpec,
    /// Sharding context (micro-batch, seq, tp, strategy).
    pub ctx: ShardingCtx,
    /// Per-stage profiles.
    pub stages: &'a [StageProfile],
    /// Recomputation plan.
    pub recompute: &'a RecomputePlan,
    /// Stage placement on the mesh.
    pub placement: &'a Placement,
    /// Fine-grained Sender→Helper DRAM grants.
    pub grants: &'a [DramGrant],
    /// Injected faults (None = healthy wafer).
    pub faults: Option<&'a FaultMap>,
    /// Evaluator knobs.
    pub options: EvalOptions,
    /// Unread: collectives are priced in closed form, not looked up.
    /// The field stays because the co-explorer benchmark's traced pass
    /// sets it by name; delete it with that pass's next change.
    pub cache: Option<&'a ProfileCache>,
}

/// Forward/backward TP-collective times of one stage profile at the
/// given effective link bandwidth. This is *the* formula — shared by
/// both legs' evaluators and lower-bound pruners, so no bound can drift
/// from what its evaluator actually charges. Each collective is priced
/// with the closed α–β form of [`all_reduce_time`] (§IV-E-1, Eq. 1),
/// which is cheaper than any memo lookup. `shape` is the TP tile on
/// one wafer; a TP group spanning `seam = Some((span, w2w_bw,
/// w2w_latency))` wafers adds a ring all-reduce over its `span` wafer
/// segments to every collective.
pub(crate) fn stage_comm_times(
    collective: CollectiveAlgo,
    shape: GroupShape,
    sp: &StageProfile,
    eff_link: Bandwidth,
    alpha: Time,
    seam: Option<(usize, Bandwidth, Time)>,
) -> (Time, Time) {
    let price = |bytes: Bytes, collectives: usize| {
        let collectives = collectives.max(1);
        let volume = bytes / collectives as u64;
        let mut t = all_reduce_time(collective, shape, volume, eff_link, alpha);
        if let Some((span, w2w_bw, w2w_latency)) = seam {
            t += all_reduce_time(
                CollectiveAlgo::RingBi,
                GroupShape::new(span, 1),
                volume,
                w2w_bw,
                w2w_latency,
            );
        }
        t.scale(collectives as f64)
    };
    (
        price(sp.fwd_comm_bytes, sp.fwd_collectives),
        price(sp.bwd_comm_bytes, sp.bwd_collectives),
    )
}

/// DP gradient all-reduce time per iteration (zero when `dp == 1`) —
/// shared by both legs' evaluators and lower bounds. The replicas form
/// a `min(dp, nx) × ⌈dp / nx⌉` grid of one wafer's D2D links.
pub(crate) fn dp_allreduce_time(
    collective: CollectiveAlgo,
    wafer: &WaferConfig,
    job: &TrainingJob,
    tp: usize,
    pp: usize,
    dp: usize,
) -> Time {
    if dp <= 1 {
        return Time::ZERO;
    }
    let grad_bytes = Bytes::new((job.model.total_params() * 2.0 / (tp * pp) as f64) as u64);
    let dp_shape = GroupShape::new(dp.min(wafer.nx), dp.div_ceil(wafer.nx).max(1));
    all_reduce_time(
        collective,
        dp_shape,
        grad_bytes,
        wafer.d2d_link_bw(),
        wafer.d2d_link_latency,
    )
}

/// Optimizer step: stream `modelP` through DRAM once; the slowest stage
/// gates the step. Shared by the evaluator and the lower-bound pruner.
pub(crate) fn optimizer_stream_time(stages: &[StageProfile], wafer: &WaferConfig) -> Time {
    stages
        .iter()
        .map(|s| (s.model_p.scale(2.0)) / wafer.dram.bandwidth)
        .fold(Time::ZERO, Time::max)
}

/// Per-stage fault factors: (compute health, link quality) under the
/// robust or non-robust policy.
fn stage_fault_factors(
    mesh: &Mesh2D,
    placement: &Placement,
    faults: Option<&FaultMap>,
    robust: bool,
    stage: usize,
) -> (f64, f64) {
    let Some(fm) = faults else { return (1.0, 1.0) };
    let rect = placement.stages[stage];
    let nodes = rect.nodes(mesh);
    // Die health across the stage's dies.
    let healths: Vec<f64> = nodes.iter().map(|n| fm.die_health(mesh.pos(*n))).collect();
    // Straggler-bound baseline: the slowest die gates the TP group (dead
    // dies fall back to a degraded retry mode rather than a full stall).
    let straggler = healths.iter().cloned().fold(1.0, f64::min).max(0.2);
    let compute = if robust {
        // Core-aware workload scheduling: redistribute around degraded
        // dies; dead dies are excluded (lose their share of capacity).
        // Falling back to the unmitigated policy is always available, so
        // robust scheduling can never do worse than the baseline.
        let sum: f64 = healths.iter().sum();
        (sum / healths.len() as f64).max(straggler)
    } else {
        straggler
    };
    // Link quality over the stage's internal links.
    let mut qs = Vec::new();
    for yy in rect.y..rect.y + rect.h {
        for xx in rect.x..rect.x + rect.w {
            if xx + 1 < rect.x + rect.w {
                qs.push(fm.link_quality((xx, yy), (xx + 1, yy)));
            }
            if yy + 1 < rect.y + rect.h {
                qs.push(fm.link_quality((xx, yy), (xx, yy + 1)));
            }
        }
    }
    let link = if qs.is_empty() {
        1.0
    } else {
        let mean = qs.iter().sum::<f64>() / qs.len() as f64;
        // No traffic shifting: degraded links are hit at full ring load,
        // compounding the mean-quality loss.
        let unmitigated = (mean * mean).max(0.05);
        if robust {
            // Link-quality-aware scheduling shifts ring traffic away from
            // bad links; cost approaches the mean quality, and falling
            // back to no shifting bounds it below by the baseline.
            mean.max(unmitigated)
        } else {
            unmitigated
        }
    };
    (compute, link)
}

/// Evaluate a full configuration.
pub fn evaluate(input: &EvalInput<'_>) -> PerfReport {
    let wafer = input.wafer;
    let job = input.job;
    let pp = input.parallel.pp;
    assert_eq!(input.stages.len(), pp, "stage profiles must match PP");
    assert_eq!(input.placement.stages.len(), pp, "placement must match PP");
    let mesh = Mesh2D::new(wafer.nx, wafer.ny);
    let dp = input.parallel.dp;
    let n_mb = job.microbatches(dp);
    let link_bw = wafer.d2d_link_bw();
    let alpha = wafer.d2d_link_latency;

    if !input.recompute.feasible {
        return PerfReport::infeasible();
    }

    // ---- Inter-stage traffic routing (PP engine, §IV-E-2). ----
    let boundary = boundary_bytes(job, &input.ctx);
    let mut tasks: Vec<CommTask> = Vec::new();
    for s in 0..pp.saturating_sub(1) {
        tasks.push(CommTask {
            src: input.placement.stages[s].center_node(&mesh),
            dst: input.placement.stages[s + 1].center_node(&mesh),
            bytes: boundary,
            kind: TaskKind::Pipeline,
            tag: s,
        });
    }
    // Activation-balance traffic: each grant's bytes are written out and
    // read back once per iteration; per-micro-batch share rides with the
    // pipeline traffic.
    for g in input.grants {
        let per_mb = Bytes::new((2.0 * g.bytes.as_f64() / n_mb.max(1) as f64).round() as u64);
        if per_mb == Bytes::ZERO {
            continue;
        }
        tasks.push(CommTask {
            src: input.placement.stages[g.sender].center_node(&mesh),
            dst: input.placement.stages[g.helper].center_node(&mesh),
            bytes: per_mb,
            kind: TaskKind::ActivationBalance,
            tag: g.sender,
        });
    }
    let mut assigner = TrafficAssigner::new(mesh, input.options.punish);
    if let Some(fm) = input.faults {
        if input.options.robust {
            assigner = assigner.with_faults(fm.clone());
        } else {
            // Non-robust: no adaptive rerouting. Faults still degrade the
            // links (handled below via per-stage quality factors), but the
            // router keeps using shortest paths blindly.
            assigner = assigner.with_faults(FaultMap::none());
        }
    }
    assigner.assign_all(tasks);
    // Per-stage p2p time: each pipeline task carries its stage-boundary
    // index in `tag`, so attribution is O(pp) instead of the old O(pp²)
    // center-node rematching.
    let mut p2p = vec![Time::ZERO; pp];
    for rt in assigner.routed() {
        if rt.task.kind == TaskKind::Pipeline {
            let t = assigner.task_time(rt, link_bw, alpha);
            p2p[rt.task.tag] = p2p[rt.task.tag].max(t);
        }
    }

    // ---- Per-stage timing (TP engine, §IV-E-1). ----
    let tile = input.placement.stages[0];
    let shape = GroupShape::new(tile.w, tile.h);
    let mut timings = Vec::with_capacity(pp);
    let mut comp_busy = Vec::with_capacity(pp);
    let mut comm_busy = Vec::with_capacity(pp);
    let mut feasible = true;
    for (s, sp) in input.stages.iter().enumerate() {
        let (health, linkq) = stage_fault_factors(
            &mesh,
            input.placement,
            input.faults,
            input.options.robust,
            s,
        );
        let eff_link = link_bw.scale(linkq);
        // Collectives: volume split over the per-op collectives (α each).
        let (fwd_comm, bwd_comm) =
            stage_comm_times(input.options.collective, shape, sp, eff_link, alpha, None);
        let fwd = sp.fwd_compute.scale(1.0 / health) + fwd_comm;
        let bwd = sp.bwd_compute.scale(1.0 / health)
            + bwd_comm
            + input.recompute.recompute_time[s].scale(1.0 / health);
        timings.push(StageTiming {
            fwd,
            bwd,
            p2p: p2p[s],
        });
        comp_busy.push(
            (sp.fwd_compute + sp.bwd_compute + input.recompute.recompute_time[s])
                .scale(n_mb as f64 / health),
        );
        comm_busy.push((fwd_comm + bwd_comm).scale(n_mb as f64));
    }

    // ---- 1F1B timing. ----
    let timing = simulate(&timings, n_mb);
    let mut iteration = timing.iteration;

    // ---- DP gradient all-reduce (when DP replicas exist). ----
    iteration += dp_allreduce_time(input.options.collective, wafer, job, input.ctx.tp, pp, dp);

    // ---- Optimizer step: stream modelP through DRAM once. ----
    iteration += optimizer_stream_time(input.stages, wafer);

    // ---- Memory accounting. ----
    let cap = wafer.dram.capacity;
    let mut sent = vec![Bytes::ZERO; pp];
    let mut recv = vec![Bytes::ZERO; pp];
    for g in input.grants {
        sent[g.sender] += g.bytes;
        recv[g.helper] += g.bytes;
    }
    let mut stage_memory = Vec::with_capacity(pp);
    for (s, sp) in input.stages.iter().enumerate() {
        let kept = sp
            .ckpt_per_mb
            .saturating_sub(input.recompute.saved_per_mb[s]);
        let local = sp.model_p + kept * sp.in_flight as u64 - sent[s] + recv[s];
        if local.as_f64() > cap.as_f64() * 1.02 {
            feasible = false;
        }
        stage_memory.push(local.min(cap));
    }

    // ---- Aggregates. ----
    let useful_flops = job.flops_per_iter();
    let fwd_total: f64 = input.stages.iter().map(|s| s.fwd_compute.as_secs()).sum();
    let recomp_total: f64 = input
        .recompute
        .recompute_time
        .iter()
        .map(|t| t.as_secs())
        .sum();
    let fwd_flops_total: f64 = input.stages.iter().map(|s| s.fwd_flops.as_f64()).sum();
    let recompute_flops = Flops::new(if fwd_total > 0.0 {
        fwd_flops_total * (recomp_total / fwd_total) * (input.ctx.tp * dp) as f64 * n_mb as f64
    } else {
        0.0
    });

    let crit = comp_busy
        .iter()
        .zip(&comm_busy)
        .enumerate()
        .max_by(|a, b| {
            let ta = a.1 .0.as_secs() + a.1 .1.as_secs();
            let tb = b.1 .0.as_secs() + b.1 .1.as_secs();
            ta.total_cmp(&tb)
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let comp_time = comp_busy[crit];
    let comm_time = comm_busy[crit];
    let bubble_time = iteration.saturating_sub(comp_time + comm_time);

    let dies_used = (input.ctx.tp * pp * dp) as f64;
    let peak = wafer.die.peak_flops().as_f64() * dies_used;
    let compute_utilization = if iteration.is_finite() && iteration.as_secs() > 0.0 {
        (useful_flops.as_f64() / (peak * iteration.as_secs())).min(1.0)
    } else {
        0.0
    };
    let dram_utilization =
        stage_memory.iter().map(|m| m.as_f64()).sum::<f64>() / (cap.as_f64() * pp as f64);
    let d2d_utilization = wsc_mesh::collective::ring_link_utilization(
        shape,
        matches!(
            input.options.collective,
            CollectiveAlgo::RingBi | CollectiveAlgo::RingBiOdd
        ),
    ) * (comm_time.as_secs() / iteration.as_secs().max(1e-12))
        .clamp(0.05, 1.0);

    let throughput = if iteration.is_finite() && iteration.as_secs() > 0.0 {
        (useful_flops + recompute_flops) / iteration
    } else {
        FlopRate::ZERO
    };
    let useful_throughput = if iteration.is_finite() && iteration.as_secs() > 0.0 {
        useful_flops / iteration
    } else {
        FlopRate::ZERO
    };

    PerfReport {
        iteration,
        comp_time,
        comm_time,
        bubble_time,
        useful_flops,
        recompute_flops,
        throughput,
        useful_throughput,
        stage_memory,
        dram_utilization,
        d2d_utilization: d2d_utilization.min(1.0),
        compute_utilization,
        feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::serpentine;
    use crate::testutil::megatron_plan;
    use wsc_arch::presets;

    use wsc_workload::zoo;

    fn eval_config3(tp: usize, pp: usize, robust: bool, faults: Option<&FaultMap>) -> PerfReport {
        eval_model(zoo::llama2_30b(), tp, pp, robust, faults)
    }

    fn eval_model(
        model: wsc_workload::model::LlmModel,
        tp: usize,
        pp: usize,
        robust: bool,
        faults: Option<&FaultMap>,
    ) -> PerfReport {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(model);
        let ctx = crate::testutil::megatron_ctx(&job, tp);
        let parallel = ParallelSpec::model_parallel(tp, pp);
        let n_mb = job.microbatches(1);
        let stages = ProfileCache::new().stage_profiles(&wafer, &job, &megatron_plan(tp, pp), n_mb);
        let (tw, th) = crate::placement::choose_tile(wafer.nx, wafer.ny, tp, pp)
            .expect("tp embeds with this pp");
        let placement = serpentine(wafer.nx, wafer.ny, pp, tw, th).expect("fits");
        let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
        let plan = wsc_pipeline::gcmr::gcmr(&inputs, wafer.dram.capacity, 8);
        let rp = plan.as_recompute_plan();
        // Grants from the plan's mem pairs.
        let grants: Vec<DramGrant> = plan
            .mem_pairs
            .iter()
            .map(|p| DramGrant {
                sender: p.sender,
                helper: p.helper,
                bytes: p.bytes,
                hops: placement.stages[p.sender].dist(&placement.stages[p.helper]),
            })
            .collect();
        let input = EvalInput {
            wafer: &wafer,
            job: &job,
            parallel,
            ctx,
            stages: &stages,
            recompute: &rp,
            placement: &placement,
            grants: &grants,
            faults,
            options: EvalOptions {
                robust,
                ..EvalOptions::default()
            },
            cache: None,
        };
        evaluate(&input)
    }

    #[test]
    fn healthy_config_is_feasible_and_fast() {
        let r = eval_config3(4, 14, true, None);
        assert!(r.feasible, "config should fit");
        assert!(r.iteration.is_finite());
        assert!(
            r.useful_throughput.as_tflops() > 100.0,
            "{}",
            r.useful_throughput
        );
        assert!(r.compute_utilization > 0.05 && r.compute_utilization <= 1.0);
    }

    #[test]
    fn memory_fits_capacity() {
        let r = eval_config3(4, 14, true, None);
        let cap = presets::config(3).dram.capacity;
        for m in &r.stage_memory {
            assert!(m.as_f64() <= cap.as_f64() * 1.02);
        }
        assert!(r.dram_utilization > 0.05 && r.dram_utilization <= 1.0);
    }

    #[test]
    fn small_tp_beats_large_tp_on_mesh() {
        // The paper's key insight (Figs. 1/17): D(1)T(4)P(14) outperforms
        // TP=8 at equal die count on the 2D mesh (Llama3-70B, GPT-175B).
        for model in [zoo::llama3_70b(), zoo::gpt_175b()] {
            let name = model.name.clone();
            let r4 = eval_model(model.clone(), 4, 14, true, None);
            let r8 = eval_model(model, 8, 7, true, None);
            assert!(r4.feasible && r8.feasible, "{name}");
            assert!(
                r4.iteration.as_secs() < r8.iteration.as_secs(),
                "{name}: TP4/PP14 {} should beat TP8/PP7 {}",
                r4.iteration,
                r8.iteration
            );
        }
    }

    #[test]
    fn faults_hurt_and_robustness_helps() {
        let fm = {
            let mut f = FaultMap::inject_link_faults(7, 8, 0.2, 42);
            f.merge(&FaultMap::inject_die_faults(7, 8, 0.2, 43));
            f
        };
        let clean = eval_config3(4, 14, true, None);
        let robust = eval_config3(4, 14, true, Some(&fm));
        let fragile = eval_config3(4, 14, false, Some(&fm));
        assert!(robust.iteration.as_secs() > clean.iteration.as_secs());
        assert!(
            fragile.iteration.as_secs() > robust.iteration.as_secs(),
            "robust {} should beat non-robust {}",
            robust.iteration,
            fragile.iteration
        );
    }

    #[test]
    fn infeasible_recompute_propagates() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let ctx = crate::testutil::megatron_ctx(&job, 4);
        let parallel = ParallelSpec::model_parallel(4, 2);
        let stages = ProfileCache::new().stage_profiles(&wafer, &job, &megatron_plan(4, 2), 8);
        let placement = serpentine(wafer.nx, wafer.ny, 2, 2, 2).unwrap();
        let rp = RecomputePlan {
            saved_per_mb: vec![Bytes::ZERO; 2],
            recompute_time: vec![Time::ZERO; 2],
            feasible: false,
        };
        let input = EvalInput {
            wafer: &wafer,
            job: &job,
            parallel,
            ctx,
            stages: &stages,
            recompute: &rp,
            placement: &placement,
            grants: &[],
            faults: None,
            options: EvalOptions::default(),
            cache: None,
        };
        assert!(!evaluate(&input).feasible);
    }

    #[test]
    fn report_decomposition_sums_to_iteration() {
        let r = eval_config3(4, 14, true, None);
        let total = r.comp_time.as_secs() + r.comm_time.as_secs() + r.bubble_time.as_secs();
        // Decomposition is for the critical stage: within a few percent of
        // the iteration (optimizer step rides in the bubble term).
        assert!(
            total <= r.iteration.as_secs() * 1.001,
            "decomposition {total} vs iteration {}",
            r.iteration.as_secs()
        );
    }
}
