//! The serving-objective hook: how an inference workload ranks the
//! training search space.
//!
//! The serving subsystem itself — phase-split prefill/decode cost
//! model, KV-cache accounting, the continuous-batching simulator and
//! the trace driver — lives in `wsc-serve`, which *depends on* this
//! crate; the explorer therefore cannot name its types. Instead the
//! single-wafer search accepts the serving objective as a trait
//! object: a [`ServingModel`] supplies both the ranking score of an
//! evaluated candidate and an analytic lower bound on that score for
//! the pruner, mirroring how [`crate::BaselineModel`] lets the
//! baseline crate plug into the report. `wsc-serve` implements the
//! trait (`SloServingModel`) and layers the ergonomic
//! `Explorer::builder().serving(workload, slo)` entry point on top via
//! an extension trait.
//!
//! ## The pruning contract
//!
//! The wave engine discards a work item when its bound exceeds the
//! incumbent's score, so the pruned sweep equals the exhaustive sweep
//! **iff** for every plan and every feasible schedule of that plan:
//!
//! ```text
//! bound(wafer, job, plan) <= score(wafer, job, scheduled_config)
//! ```
//!
//! Implementations must derive `bound` from quantities the simulator
//! can never beat. The `wsc-serve` model scores by negated
//! goodput-under-SLO and bounds it by negated *request throughput
//! ignoring SLOs and queueing*: the simulated makespan is at least the
//! last arrival (no request completes before it arrives) and at least
//! the compute-conserved work `sum_r (prompt_r + output_r - 1) *
//! c_bottleneck / dp_ub` (every simulator step charges at least
//! `tokens_in_step * c_s` on every stage `s`, and `dp_ub =
//! die_count / (tp * pp)` is an upper bound on the data-parallel
//! replica count the scheduler can realize), while the number of
//! SLO-met completions is at most the request count. SLO filtering,
//! queueing delay, batching caps, KV pressure, weight streaming and
//! collectives only ever *reduce* goodput below that ceiling — the
//! bound is sound, and `tests/serving.rs` pins pruned ≡ exhaustive
//! over the serving leg just as `tests/search_equivalence.rs` does for
//! the fault-aware one.
//!
//! Like the fault-aware ensemble, the model is one of the search's
//! ranking objectives ([`crate::ExplorerBuilder::serving_model`]) and
//! deliberately *not* a [`crate::SchedulerOptions`] field: serialized
//! option sets stay oblivious to whether a run was serving-aware.

use crate::cache::ProfileCache;
use crate::scheduler::ScheduledConfig;
use wsc_arch::wafer::WaferConfig;
use wsc_workload::parallel::ParallelPlan;
use wsc_workload::training::TrainingJob;

/// A serving objective pluggable into the single-wafer search. Both
/// methods receive the *profile job* (the training-shaped job the
/// serving workload derives for stage profiling) and the shared
/// [`ProfileCache`], so serving scores reuse the same memoized stage
/// profiles as the training evaluation.
pub trait ServingModel: Send + Sync {
    /// Display name for reports and debugging.
    fn name(&self) -> String;

    /// Analytic lower bound on [`ServingModel::score`] for any
    /// feasible schedule of `plan` (see the module docs for the
    /// soundness obligation). `None` marks the plan statically
    /// infeasible for serving — the item is skipped outright.
    fn bound(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
        cache: &ProfileCache,
    ) -> Option<f64>;

    /// The serving score of an evaluated candidate — lower is better;
    /// the search minimizes it. A non-finite score marks the candidate
    /// unscoreable (e.g. its KV budget cannot hold a single request)
    /// and drops it from the ranking.
    fn score(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        cfg: &ScheduledConfig,
        cache: &ProfileCache,
    ) -> f64;
}
