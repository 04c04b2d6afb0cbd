//! Recomputation configurations and the naive baseline (Fig. 8a).
//!
//! A recomputation config says, per stage, how many checkpoint bytes are
//! freed (per in-flight micro-batch) and what recompute latency each
//! backward micro-batch pays for it.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wsc_arch::units::{Bytes, Time};
use wsc_sim::profile::RecomputeMenu;

/// Per-stage memory/time inputs to recomputation scheduling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageRecomputeInput {
    /// Menu of droppable checkpoints for this stage (per micro-batch),
    /// shared with every stage that hosts the same layers.
    pub menu: Arc<RecomputeMenu>,
    /// Mandatory training state (weights + grads + optimizer) per die.
    pub model_p: Bytes,
    /// Full checkpoint bytes per micro-batch (all layers of the stage).
    pub ckpt_per_mb: Bytes,
    /// In-flight micro-batches retained by 1F1B (`p − s`).
    pub in_flight: usize,
    /// Forward + backward time per micro-batch (without recompute).
    pub base_mb_time: Time,
}

impl StageRecomputeInput {
    /// Peak memory without any recomputation.
    pub fn full_memory(&self) -> Bytes {
        self.model_p + self.ckpt_per_mb * self.in_flight as u64
    }

    /// Memory overflow beyond `capacity` without recomputation.
    pub fn overflow(&self, capacity: Bytes) -> Bytes {
        self.full_memory().saturating_sub(capacity)
    }
}

/// A concrete recomputation plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecomputePlan {
    /// Per-stage checkpoint bytes freed per micro-batch.
    pub saved_per_mb: Vec<Bytes>,
    /// Per-stage recompute latency added to each backward micro-batch.
    pub recompute_time: Vec<Time>,
    /// Whether every stage fits its memory target.
    pub feasible: bool,
}

impl RecomputePlan {
    /// A plan with no recomputation anywhere.
    pub fn none(stages: usize) -> Self {
        RecomputePlan {
            saved_per_mb: vec![Bytes::ZERO; stages],
            recompute_time: vec![Time::ZERO; stages],
            feasible: true,
        }
    }

    /// Total recompute latency across stages (per micro-batch).
    pub fn total_recompute(&self) -> Time {
        self.recompute_time.iter().copied().sum()
    }
}

/// The naive per-stage recomputation strategy (Fig. 8a): every stage
/// independently recomputes just enough to fit its own die capacity. No
/// coordination → early stages recompute heavily (bubbles), late stages
/// not at all (idle DRAM).
pub fn naive_recompute(stages: &[StageRecomputeInput], capacity: Bytes) -> RecomputePlan {
    let mut plan = RecomputePlan::none(stages.len());
    for (s, input) in stages.iter().enumerate() {
        let overflow = input.overflow(capacity);
        if overflow == Bytes::ZERO {
            continue;
        }
        // Savings accrue once per in-flight micro-batch.
        let needed_per_mb =
            Bytes::new((overflow.as_f64() / input.in_flight.max(1) as f64).ceil() as u64);
        match input.menu.time_for_savings(needed_per_mb) {
            Some(t) => {
                plan.saved_per_mb[s] = needed_per_mb;
                plan.recompute_time[s] = t;
            }
            None => {
                // Even full recomputation cannot fit: OOM.
                plan.saved_per_mb[s] = input.menu.max_savings();
                plan.recompute_time[s] = input
                    .menu
                    .time_for_savings(input.menu.max_savings())
                    .unwrap_or(Time::ZERO);
                plan.feasible = false;
            }
        }
    }
    plan
}

/// Peak memory per stage under a plan (before any Sender→Helper balancing).
pub fn planned_memory(stages: &[StageRecomputeInput], plan: &RecomputePlan) -> Vec<Bytes> {
    stages
        .iter()
        .zip(&plan.saved_per_mb)
        .map(|(input, saved)| {
            let kept = input.ckpt_per_mb.saturating_sub(*saved);
            input.model_p + kept * input.in_flight as u64
        })
        .collect()
}

/// Per-stage DRAM overflow beyond `capacity` and donatable spare under a
/// plan — the Alg. 3 / GA-refinement inputs. One derivation shared by
/// the scheduler, the GA harnesses and the benchmarks, so they can never
/// disagree on what a stage demands or donates.
pub fn overflow_and_spare(
    stages: &[StageRecomputeInput],
    plan: &RecomputePlan,
    capacity: Bytes,
) -> (Vec<Bytes>, Vec<Bytes>) {
    planned_memory(stages, plan)
        .into_iter()
        .map(|local| {
            (
                local.saturating_sub(capacity),
                capacity.saturating_sub(local),
            )
        })
        .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_arch::presets;
    use wsc_arch::units::Bandwidth;
    use wsc_sim::op_cost::DieModel;
    use wsc_sim::profile::{profile_layer, RecomputeMenu};
    use wsc_workload::graph::{layer_ops_at, ShardingCtx};
    use wsc_workload::parallel::TpSplitStrategy;
    use wsc_workload::zoo;

    fn inputs(pp: usize) -> Vec<StageRecomputeInput> {
        let dm = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0));
        let model = zoo::llama2_30b();
        let ctx = ShardingCtx::new(4, 4096, 4, TpSplitStrategy::Megatron);
        let layers = model.layers / pp;
        let prof = profile_layer(&dm, &layer_ops_at(&model, 0, &ctx));
        (0..pp)
            .map(|s| StageRecomputeInput {
                menu: Arc::new(RecomputeMenu::for_stage(&[(&prof, layers)])),
                model_p: wsc_workload::memory::model_p_per_die(&model, 4, pp, s),
                ckpt_per_mb: prof.full_ckpt_bytes() * layers as u64,
                in_flight: pp - s,
                base_mb_time: (prof.fwd_time() + prof.bwd_time()).scale(layers as f64),
            })
            .collect()
    }

    #[test]
    fn early_stages_overflow_first() {
        let ins = inputs(8);
        let cap = Bytes::gib(70);
        assert!(ins[0].overflow(cap) > ins[7].overflow(cap));
    }

    #[test]
    fn naive_recomputes_only_overflowing_stages() {
        let ins = inputs(8);
        let cap = Bytes::gib(70);
        let plan = naive_recompute(&ins, cap);
        assert!(plan.feasible);
        // Stage 0 recomputes; the tail stage does not.
        assert!(plan.recompute_time[0].as_secs() > 0.0);
        assert_eq!(plan.recompute_time[7], Time::ZERO);
    }

    #[test]
    fn planned_memory_fits_capacity_when_feasible() {
        let ins = inputs(8);
        let cap = Bytes::gib(70);
        let plan = naive_recompute(&ins, cap);
        for (s, m) in planned_memory(&ins, &plan).iter().enumerate() {
            assert!(m.as_f64() <= cap.as_f64() * 1.001, "stage {s}: {m} > {cap}");
        }
    }

    #[test]
    fn tiny_capacity_is_infeasible() {
        let ins = inputs(4);
        let plan = naive_recompute(&ins, Bytes::gib(2));
        assert!(!plan.feasible);
    }

    #[test]
    fn no_recompute_plan_is_free() {
        let p = RecomputePlan::none(5);
        assert_eq!(p.total_recompute(), Time::ZERO);
        assert!(p.feasible);
    }
}
