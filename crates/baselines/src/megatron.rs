//! MG-wafer: Megatron's scheduling strategy applied directly to the WSC
//! (§V-C).
//!
//! Megatron picks its GPU-centric (TP, PP) — TP up to 8, no awareness of
//! the 2D mesh — then every feasible physical TP shape is enumerated, the
//! stages are placed in the naive serpentine arrangement of Fig. 11a, and
//! recomputation is the naive per-die strategy. The best shape is reported
//! (exactly the paper's MG-wafer protocol).

use serde::{Deserialize, Serialize};
use watos::evaluator::{evaluate, EvalInput, EvalOptions, PerfReport};
use watos::placement::{row_major, Placement};
use watos::ProfileCache;
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::CollectiveAlgo;
use wsc_pipeline::recompute::naive_recompute;
use wsc_workload::memory::model_p_total;
use wsc_workload::parallel::{ParallelPlan, ParallelSpec, TpSplitStrategy};
use wsc_workload::training::TrainingJob;

/// MG-wafer evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MgWaferResult {
    /// Chosen parallelism.
    pub parallel: ParallelSpec,
    /// Chosen physical TP shape (w × h).
    pub shape: (usize, usize),
    /// Evaluation report.
    pub report: PerfReport,
}

/// Megatron's (TP, PP) recommendation for `devices` accelerators: largest
/// head-dividing TP ≤ 8, then the smallest PP whose per-device `modelP`
/// stays under ~70% of capacity (activations get the rest). Megatron's
/// heuristic is memory-driven and mesh-blind — exactly why it misplaces
/// on the wafer.
pub fn mg_parallelism(job: &TrainingJob, devices: usize, capacity: f64) -> (usize, usize) {
    let mut tp = 1;
    for cand in [2usize, 4, 8] {
        if cand <= devices && job.model.heads.is_multiple_of(cand) {
            tp = cand;
        }
    }
    let mut pp = 1;
    while pp < job.model.layers && tp * pp < devices {
        let per_die = model_p_total(&job.model).as_f64() / (tp * pp) as f64;
        if per_die < capacity * 0.7 {
            break;
        }
        pp += 1;
    }
    (tp, pp)
}

/// Evaluate MG-wafer on a wafer: Megatron's own (TP, PP), every feasible
/// physical TP shape, row-major placement, naive recomputation.
pub fn mg_wafer(wafer: &WaferConfig, job: &TrainingJob) -> Option<MgWaferResult> {
    let dies = wafer.die_count();
    let (tp, pp0) = mg_parallelism(job, dies, wafer.dram.capacity.as_f64());
    // One cache for every depth and shape tried: the `(tp, Megatron)`
    // layers are profiled once.
    let cache = ProfileCache::new();
    let mut best: Option<MgWaferResult> = None;
    // Megatron sticks to its heuristic PP, doubling only when the naive
    // recompute plan cannot fit (an OOM retry, as a user would).
    let mut pp_candidates = Vec::new();
    let mut pp = pp0.max(1);
    while pp <= (dies / tp).min(job.model.layers) {
        pp_candidates.push(pp);
        pp *= 2;
    }
    for pp in pp_candidates {
        if best.is_some() {
            break; // first feasible heuristic PP wins (no wafer-aware search)
        }
        // Enumerate all physical shapes of the TP group (e.g. 1x4, 2x2,
        // 4x1 for TP=4).
        for w in 1..=tp.min(wafer.nx) {
            if tp % w != 0 {
                continue;
            }
            let h = tp / w;
            if h > wafer.ny {
                continue;
            }
            let slots = (wafer.nx / w) * (wafer.ny / h);
            if slots < pp {
                continue;
            }
            let dp = (slots / pp).max(1).min(job.global_batch / job.micro_batch);
            let parallel = ParallelSpec::new(dp, tp, pp);
            let megatron = ParallelPlan::intra(tp, pp, TpSplitStrategy::Megatron);
            let n_mb = job.microbatches(dp);
            let stages = cache.stage_profiles(wafer, job, &megatron, n_mb);
            let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
            let plan = naive_recompute(&inputs, wafer.dram.capacity);
            if !plan.feasible {
                continue;
            }
            let Some(placement): Option<Placement> = row_major(wafer.nx, wafer.ny, pp, w, h) else {
                continue;
            };
            let report = evaluate(&EvalInput {
                wafer,
                job,
                parallel,
                ctx: megatron.sharding_ctx(job),
                stages: &stages,
                recompute: &plan,
                placement: &placement,
                grants: &[],
                faults: None,
                options: EvalOptions {
                    // NCCL-style unidirectional rings, blindly folded onto
                    // the mesh — Megatron does not co-design collectives.
                    collective: CollectiveAlgo::RingUni,
                    punish: 0.0, // and no contention avoidance
                    robust: false,
                },
                cache: Some(&cache),
            });
            if !report.feasible {
                continue;
            }
            let better = best
                .as_ref()
                .is_none_or(|b| report.iteration.as_secs() < b.report.iteration.as_secs());
            if better {
                best = Some(MgWaferResult {
                    parallel,
                    shape: (w, h),
                    report,
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use watos::scheduler::SchedulerOptions;
    use watos::Explorer;
    use wsc_arch::presets;
    use wsc_workload::zoo;

    #[test]
    fn mg_wafer_runs_and_uses_big_tp() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama3_70b());
        let r = mg_wafer(&wafer, &job).expect("feasible");
        assert!(r.report.feasible);
        assert_eq!(r.parallel.tp, 8, "Megatron's GPU heuristic picks TP=8");
    }

    #[test]
    fn watos_beats_mg_wafer() {
        // The headline Fig. 16 comparison (throughput gap vs MG-wafer).
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama3_70b());
        let mg = mg_wafer(&wafer, &job).expect("mg feasible");
        let opts = SchedulerOptions {
            ga: None,
            ..SchedulerOptions::default()
        };
        let (_, wa) = Explorer::builder()
            .job(job.clone())
            .wafer(wafer.clone())
            .options(opts)
            .build()
            .expect("valid")
            .run_for_best()
            .expect("watos feasible");
        assert!(
            wa.report.iteration.as_secs() < mg.report.iteration.as_secs(),
            "WATOS {} should beat MG-wafer {}",
            wa.report.iteration,
            mg.report.iteration
        );
    }

    #[test]
    fn mg_parallelism_respects_heads() {
        let job = TrainingJob::standard(zoo::gpt_175b());
        let (tp, _) = mg_parallelism(&job, 56, wsc_arch::units::Bytes::gib(70).as_f64());
        assert_eq!(tp, 8, "96 heads divide by 8");
    }
}
