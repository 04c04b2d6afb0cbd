//! Per-pipeline-stage profiles: the bridge between the workload graph,
//! the die-level simulator, and the schedulers.
//!
//! A [`StageProfile`] aggregates, for the layers one stage hosts: compute
//! times, TP-collective volumes, checkpoint footprints, `modelP`, and the
//! recomputation menu — everything Alg. 1/2/3 and the evaluator need.
//! Each layer's numbers come from its kind's entry in a
//! [`KindProfiles`], so assembling any split is arithmetic. A menu
//! depends only on how many dense and MoE layers a stage hosts, so the
//! stages of a split that host the same mix share one.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use wsc_arch::units::{Bytes, Flops, Time};
use wsc_pipeline::recompute::StageRecomputeInput;
use wsc_sim::profile::{KindProfiles, RecomputeMenu};
use wsc_workload::graph::{self, ShardingCtx};
use wsc_workload::memory;
use wsc_workload::parallel::{ParallelPlan, ParallelSpec};
use wsc_workload::training::TrainingJob;

/// Aggregated profile of one pipeline stage (per die, per micro-batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Layers hosted.
    pub layers: usize,
    /// Forward compute time per micro-batch (no collectives).
    pub fwd_compute: Time,
    /// Backward compute time per micro-batch (no collectives/recompute).
    pub bwd_compute: Time,
    /// Forward TP-collective volume per micro-batch.
    pub fwd_comm_bytes: Bytes,
    /// Backward TP-collective volume per micro-batch.
    pub bwd_comm_bytes: Bytes,
    /// Number of forward collectives per micro-batch (α terms).
    pub fwd_collectives: usize,
    /// Number of backward collectives per micro-batch.
    pub bwd_collectives: usize,
    /// Full checkpoint bytes per micro-batch.
    pub ckpt_per_mb: Bytes,
    /// Mandatory training state per die.
    pub model_p: Bytes,
    /// In-flight micro-batches under 1F1B.
    pub in_flight: usize,
    /// Forward FLOPs per micro-batch per die (useful work accounting).
    pub fwd_flops: Flops,
    /// Recomputation menu of this stage, shared with every stage of the
    /// split that hosts the same number of dense and MoE layers.
    pub menu: Arc<RecomputeMenu>,
}

impl StageProfile {
    /// View as the recomputation scheduler's input.
    pub fn as_recompute_input(&self) -> StageRecomputeInput {
        StageRecomputeInput {
            menu: Arc::clone(&self.menu),
            model_p: self.model_p,
            ckpt_per_mb: self.ckpt_per_mb,
            in_flight: self.in_flight,
            base_mb_time: self.fwd_compute + self.bwd_compute,
        }
    }

    /// Peak memory without recomputation or balancing.
    pub fn full_memory(&self) -> Bytes {
        self.model_p + self.ckpt_per_mb * self.in_flight as u64
    }
}

/// Assemble the stage profiles of `plan` from `kinds`, the profiles of
/// the model's layer kinds under `plan`'s sharding: O(layers)
/// arithmetic, no simulator calls. Only `plan.tp` and `plan.pp` enter;
/// the strategy is already baked into `kinds`. Every sum runs over the
/// stage's layers in order. One recomputation menu is built per distinct
/// `(dense, MoE)` layer count of the split, a few per plan.
pub(crate) fn build_stage_profiles_with(
    kinds: &KindProfiles,
    job: &TrainingJob,
    plan: &ParallelPlan,
    microbatches: usize,
) -> Vec<StageProfile> {
    let model = &job.model;
    let ParallelSpec { tp, pp, .. } = plan.spec();
    let mut menus: Vec<((usize, usize), Arc<RecomputeMenu>)> = Vec::new();
    (0..pp)
        .map(|s| {
            let (lo, hi) = memory::stage_layer_range(model.layers, pp, s);
            let mut fwd_compute = Time::ZERO;
            let mut bwd_compute = Time::ZERO;
            let mut fwd_comm = Bytes::ZERO;
            let mut bwd_comm = Bytes::ZERO;
            let mut fwd_coll = 0usize;
            let mut bwd_coll = 0usize;
            let mut ckpt = Bytes::ZERO;
            let mut fwd_flops = Flops::ZERO;
            for l in lo..hi {
                let (p, summary) = kinds.of(model, l);
                fwd_compute += p.fwd_time();
                bwd_compute += p.bwd_time();
                fwd_comm += p.fwd_comm();
                bwd_comm += p.bwd_comm();
                fwd_coll += p.ops.iter().filter(|o| o.fwd_comm > Bytes::ZERO).count();
                bwd_coll += p.ops.iter().filter(|o| o.bwd_comm > Bytes::ZERO).count();
                ckpt += p.full_ckpt_bytes();
                fwd_flops += summary.fwd_flops;
            }
            let moe = (lo..hi).filter(|&l| graph::is_moe_layer(model, l)).count();
            let mix = (hi - lo - moe, moe);
            let menu = match menus.iter().find(|(m, _)| *m == mix) {
                Some((_, menu)) => Arc::clone(menu),
                None => {
                    let menu = Arc::new(kinds.menu(mix));
                    menus.push((mix, Arc::clone(&menu)));
                    menu
                }
            };
            StageProfile {
                layers: hi - lo,
                fwd_compute,
                bwd_compute,
                fwd_comm_bytes: fwd_comm,
                bwd_comm_bytes: bwd_comm,
                fwd_collectives: fwd_coll,
                bwd_collectives: bwd_coll,
                ckpt_per_mb: ckpt,
                model_p: memory::model_p_per_die(model, tp, pp, s),
                in_flight: (pp - s).min(microbatches.max(1)),
                fwd_flops,
                menu,
            }
        })
        .collect()
}

/// The inter-stage boundary tensor per micro-batch (what PP transfers).
pub fn boundary_bytes(job: &TrainingJob, ctx: &ShardingCtx) -> Bytes {
    graph::layer_input_bytes(&job.model, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ProfileCache;
    use crate::testutil::megatron_plan;
    use wsc_arch::presets;
    use wsc_sim::op_cost::DieModel;
    use wsc_sim::profile::profile_layer;
    use wsc_workload::parallel::TpSplitStrategy;
    use wsc_workload::zoo;

    fn setup(pp: usize) -> Arc<Vec<StageProfile>> {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        ProfileCache::new().stage_profiles(&wafer, &job, &megatron_plan(4, pp), 16)
    }

    #[test]
    fn stage_layers_cover_model() {
        let stages = setup(8);
        let total: usize = stages.iter().map(|s| s.layers).sum();
        assert_eq!(total, zoo::llama2_30b().layers);
    }

    #[test]
    fn in_flight_decreases_along_pipeline() {
        let stages = setup(8);
        assert_eq!(stages[0].in_flight, 8);
        assert_eq!(stages[7].in_flight, 1);
    }

    #[test]
    fn early_stage_memory_skew() {
        let stages = setup(8);
        assert!(stages[0].full_memory() > stages[7].full_memory());
    }

    #[test]
    fn compute_times_are_positive_and_layer_proportional() {
        let stages = setup(4);
        for s in stages.iter() {
            assert!(s.fwd_compute.as_secs() > 0.0);
            assert!(s.bwd_compute > s.fwd_compute);
        }
        // 60 layers over 4 stages = 15 each; times should be equal.
        assert!((stages[0].fwd_compute.as_secs() - stages[3].fwd_compute.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn moe_stages_have_shuffle_volume() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::gshard_137b());
        let stages = ProfileCache::new().stage_profiles(&wafer, &job, &megatron_plan(4, 4), 8);
        for s in stages.iter() {
            assert!(s.fwd_comm_bytes > Bytes::ZERO);
            assert!(s.menu.max_savings() > Bytes::ZERO);
        }
    }

    #[test]
    fn stages_with_one_layer_mix_share_one_menu() {
        // Llama3-70B has dense layers only; GShard-137B alternates dense
        // and MoE layers (layer 0 dense, layer 1 MoE), so its stages hold
        // different mixes.
        let wafer = presets::config(3);
        let dm = DieModel::new(wafer.die.clone(), wafer.dram.bandwidth);
        for model in [zoo::llama3_70b(), zoo::gshard_137b()] {
            let job = TrainingJob::standard(model);
            let model = &job.model;
            let cache = ProfileCache::new();
            for pp in [1, 2, 3, 4, 5, 7, 8, 12] {
                let plan = megatron_plan(4, pp);
                let ctx = plan.sharding_ctx(&job);
                let profile = |l| profile_layer(&dm, &graph::layer_ops_at(model, l, &ctx));
                let (dense_profile, moe_profile) = (profile(0), profile(1));
                let stages = cache.stage_profiles(&wafer, &job, &plan, 16);
                let mixes: Vec<(usize, usize)> = (0..pp)
                    .map(|s| {
                        let (lo, hi) = memory::stage_layer_range(model.layers, pp, s);
                        let moe = (lo..hi).filter(|&l| graph::is_moe_layer(model, l)).count();
                        (hi - lo - moe, moe)
                    })
                    .collect();
                for (a, stage) in stages.iter().enumerate() {
                    // The menu built for this stage alone.
                    let (dense, moe) = mixes[a];
                    let mut kinds = Vec::new();
                    if dense > 0 {
                        kinds.push((&dense_profile, dense));
                    }
                    if moe > 0 {
                        kinds.push((&moe_profile, moe));
                    }
                    assert_eq!(*stage.menu, RecomputeMenu::for_stage(&kinds));
                    for (b, other) in stages.iter().enumerate() {
                        assert_eq!(
                            Arc::ptr_eq(&stage.menu, &other.menu),
                            mixes[a] == mixes[b],
                            "{} pp = {pp}: stages {a} {:?} and {b} {:?}",
                            model.name,
                            mixes[a],
                            mixes[b]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_is_token_times_hidden() {
        let job = TrainingJob::standard(zoo::llama2_30b());
        let ctx = ShardingCtx::new(4, 4096, 4, TpSplitStrategy::Megatron);
        let b = boundary_bytes(&job, &ctx);
        assert_eq!(b.as_u64(), (4 * 4096 * 6656 * 2) as u64);
    }
}
