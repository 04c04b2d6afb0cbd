//! # watos — LLM training strategy & wafer-scale architecture co-exploration
//!
//! A reproduction of the WATOS framework (HPCA 2026): given a
//! configurable wafer-scale-chip hardware template and an LLM training
//! job, WATOS jointly searches parallelism (TP/PP), tensor-partition
//! strategies, recomputation schedules (GCMR, Alg. 2), checkpoint
//! placement (Eq. 2), DRAM allocation (Alg. 3), and a GA-refined global
//! configuration (§IV-D) — and evaluates everything on an operator-level
//! simulator (§IV-F).
//!
//! ## The `Explorer` facade
//!
//! One builder drives the whole Fig. 9 loop: architecture candidates fan
//! out in parallel, each runs the central scheduler (Alg. 1), and every
//! configured sub-experiment — multi-wafer nodes, fault sweeps, baseline
//! comparisons — lands in one serializable [`ExplorationReport`]:
//!
//! ```
//! use watos::{Explorer, RecomputeMode};
//! use wsc_arch::presets;
//! use wsc_workload::{training::TrainingJob, zoo};
//!
//! let report = Explorer::builder()
//!     .job(TrainingJob::standard(zoo::llama2_30b()))
//!     .wafer(presets::config(3))
//!     .wafer(presets::config(4))
//!     .recompute(RecomputeMode::Gcmr)
//!     .no_ga() // quick run; .ga(GaParams::default()) for final quality
//!     .seed(7)
//!     .build()
//!     .expect("a job and at least one candidate were provided")
//!     .run();
//!
//! let best = report.best().expect("Llama2-30B fits both configs");
//! assert!(best.best.as_ref().unwrap().report.feasible);
//! // The report round-trips through JSON byte-identically.
//! let json = report.to_json();
//! assert_eq!(watos::ExplorationReport::from_json(&json).unwrap(), report);
//! ```
//!
//! ## The `ParallelPlan` contract
//!
//! A parallel configuration is a *value*, not a tuple: [`ParallelPlan`]
//! (from `wsc-workload`) carries `dp`/`tp`/`pp`, the TP partition
//! strategy, the stage→wafer [`StageMap`] and the TP span, and is the
//! one type threaded through the scheduler, the wave engine, the
//! profile cache, the multi-wafer search and every report record.
//!
//! Each evaluator has one entry point, and it takes the
//! [`ProfileCache`] it memoizes stage profiles in: [`schedule_plan`],
//! [`evaluate_scheduled`] and [`evaluate_multi_wafer_plan`]. A one-off
//! call passes `&ProfileCache::new()`; a sweep over one `(wafer, job)`
//! pair shares one cache. The layers beneath have one entry point each
//! too: stage profiles come from [`ProfileCache::stage_profiles`], the
//! Eq. 2 hill climb from [`placement::optimize_with`] and GA refinement
//! from [`ga::refine_with_model`], both on a [`PlacementCostModel`].

pub mod cache;
pub mod costmodel;
pub mod dram_alloc;
pub mod evaluator;
pub mod explorer;
pub mod ga;
pub mod goodput;
pub mod multiwafer;
pub mod placement;
pub mod robust;
pub mod scheduler;
pub mod serving;
pub mod stage;
pub mod stats;
mod wave;

pub use crate::cache::{CacheStats, ProfileCache};
pub use crate::costmodel::{CostState, PlacementCostModel};
pub use crate::dram_alloc::{allocate, DramAllocation, DramGrant};
pub use crate::evaluator::{evaluate, EvalInput, EvalOptions, PerfReport};
pub use crate::explorer::{
    ArchRecord, BaselineModel, BaselineOutcome, BaselineRecord, CheckpointSink, ExplorationError,
    ExplorationReport, Explorer, ExplorerBuilder, FaultSweepRecord, FaultSweepSpec, MemorySink,
    MultiWaferRecord, SearchCheckpoint, SearchFrontier,
};
pub use crate::ga::{GaParams, GaResult};
pub use crate::goodput::{
    ensemble_effective_secs, ensemble_goodput, CheckpointSpec, FaultEnsemble, GoodputError,
    RobustObjective,
};
pub use crate::multiwafer::{
    evaluate_multi_wafer_plan, evaluate_multi_wafer_plan_placed, MultiWaferReport,
    NodePlacementStats,
};
pub use crate::placement::{global_cost, serpentine, PairDemand, Placement, Rect};
pub use crate::robust::{FaultKind, FaultPoint};
pub use crate::scheduler::{
    evaluate_scheduled, schedule_plan, PlanFilter, RecomputeMode, ScheduledConfig,
    SchedulerOptions, SearchStats,
};
pub use crate::serving::ServingModel;
pub use crate::stage::{LayerData, StageProfile};
pub use crate::stats::{percentile, splitmix64, unit_open, SummaryStats};
pub use crate::wave::{
    CandidateFailure, Outcome, PlanKey, SearchBudget, TruncationReason, WaveCheckpoint,
};
pub use wsc_workload::parallel::{
    ParallelPlan, ParallelSpec, PlanError, StageMap, TpSplitStrategy,
};

/// Shared test support: the one place test modules get their canonical
/// plans and sharding contexts from, instead of each hand-rolling
/// `ShardingCtx::new(job.micro_batch, job.seq, tp, strategy)`.
#[cfg(test)]
pub(crate) mod testutil {
    use wsc_workload::graph::ShardingCtx;
    use wsc_workload::parallel::{ParallelPlan, TpSplitStrategy};
    use wsc_workload::training::TrainingJob;

    /// The canonical intra-wafer Megatron test plan.
    pub(crate) fn megatron_plan(tp: usize, pp: usize) -> ParallelPlan {
        ParallelPlan::intra(tp, pp, TpSplitStrategy::Megatron)
    }

    /// The sharding context of [`megatron_plan`] for `job`.
    pub(crate) fn megatron_ctx(job: &TrainingJob, tp: usize) -> ShardingCtx {
        megatron_plan(tp, 1).sharding_ctx(job)
    }
}
