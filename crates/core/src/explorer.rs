//! The unified WATOS entry point: one configurable [`Explorer`] drives the
//! whole Fig. 9 loop — architecture candidates × training-strategy search
//! × operator-level evaluation — plus the multi-wafer node searches and
//! the fault sweeps and baseline comparisons run on the winners.
//!
//! Construction goes through [`Explorer::builder`], which validates every
//! input into a typed [`ExplorationError`] instead of the seed API's
//! silent `Option` returns. [`Explorer::run`] fans candidate
//! architectures out in parallel with rayon and returns a single
//! serde-round-trippable [`ExplorationReport`]; for a fixed
//! [`ExplorerBuilder::seed`], the report is byte-identical JSON no matter
//! the thread count (candidate order is preserved and every stochastic
//! component is seeded per candidate).
//!
//! Every search leg owns its [`ProfileCache`] and drops it when the leg
//! ends, reporting only its [`CacheStats`]. Candidates are ranked by the
//! score their winners won their legs with, so no cache waits for the
//! ranking; a fault sweep builds a cache of its own.

use crate::cache::{CacheStats, ProfileCache};
use crate::goodput::{FaultEnsemble, RobustObjective};
use crate::multiwafer::{
    explore_multi_wafer_impl, node_work_list, wafer_loss_sweep_impl, MultiWaferReport,
};
use crate::placement::Rect;
use crate::robust::{fault_sweep_impl, FaultKind, FaultPoint};
use crate::scheduler::{
    explore_impl, plan_geometry, work_list, Objective, PlanFilter, RecomputeMode, ScheduledConfig,
    SchedulerOptions, SearchStats,
};
use crate::serving::ServingModel;
use crate::wave::{
    CandidateFailure, Cutoff, EmitCheckpoint, Outcome, SearchBudget, SessionCtx, WaveCheckpoint,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use thiserror::Error;
use wsc_arch::units::{FlopRate, Time};
use wsc_arch::wafer::{MultiWaferConfig, WaferConfig};
use wsc_arch::AreaModel;
use wsc_workload::model::ModelFamily;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;

/// Typed failure modes of [`ExplorerBuilder::build`] and the report
/// accessors.
#[derive(Debug, Clone, PartialEq, Error)]
pub enum ExplorationError {
    /// No training job was supplied.
    #[error("no training job was provided; call `.job(..)` on the builder")]
    MissingJob,
    /// Neither `.wafer(..)`, `.wafers(..)` nor `.multi_wafer(..)` was
    /// called.
    #[error("no wafer or multi-wafer candidates were provided")]
    NoCandidates,
    /// A candidate failed the area/structure check.
    #[error("architecture `{name}` failed validation: {reason}")]
    InvalidArchitecture {
        /// Candidate name.
        name: String,
        /// Human-readable validation failure.
        reason: String,
    },
    /// A scheduler option list (strategies, collectives, TP candidates)
    /// was emptied out.
    #[error("option list `{list}` must not be empty")]
    EmptyOptionList {
        /// Which list was empty.
        list: String,
    },
    /// The training job's batch geometry is unusable.
    #[error(
        "invalid batch geometry: micro-batch {micro} must be in 1..=global batch {global} \
         and sequence length {seq} at least 1"
    )]
    InvalidBatchGeometry {
        /// Sequences per micro-batch.
        micro: usize,
        /// Global batch in sequences.
        global: usize,
        /// Tokens per sequence.
        seq: usize,
    },
    /// The training job's model has a shape the search would divide by
    /// zero: no attention heads, or a MoE family with `moe_every: 0`.
    #[error("model `{model}` is unusable: `{field}` must be at least 1")]
    InvalidModel {
        /// Model name.
        model: String,
        /// The zero field.
        field: String,
    },
    /// A fault sweep was requested without any rates.
    #[error("fault sweep requested with no rates; pass at least one rate")]
    EmptyFaultRates,
    /// A fault rate escaped `[0, 1]`.
    #[error("fault rate {rate} is outside [0, 1]")]
    InvalidFaultRate {
        /// The offending rate.
        rate: f64,
    },
    /// The punishment factor must be a finite non-negative number.
    #[error("link punishment factor {punish} must be finite and >= 0")]
    InvalidPunish {
        /// The offending factor.
        punish: f64,
    },
    /// No candidate produced a feasible schedule.
    #[error("no feasible configuration found for `{model}` on any candidate")]
    Infeasible {
        /// Model name the job trains.
        model: String,
    },
    /// A [`SearchBudget`] field is unusable.
    #[error("invalid search budget: {reason}")]
    InvalidBudget {
        /// Human-readable description of the offending field.
        reason: String,
    },
    /// A TP candidate in [`SchedulerOptions::tp_candidates`] is not a
    /// degree: every candidate must be at least 1.
    #[error("TP candidate {tp} at index {index} of `tp_candidates` must be at least 1")]
    InvalidTpCandidate {
        /// Position of the candidate in the list.
        index: usize,
        /// The offending degree.
        tp: usize,
    },
    /// [`Explorer::resume`] was handed a checkpoint another session
    /// wrote: its seed differs, a completed leg's wafer or node is not
    /// the explorer's candidate at that index, a completed leg's winner
    /// is not a schedule of that candidate, or the in-flight leg's
    /// frontier does not fit that leg's work list.
    #[error("checkpoint was not written by this session: {reason}")]
    ForeignCheckpoint {
        /// Which field disagrees with the session.
        reason: String,
    },
}

/// A pluggable comparison system for [`ExplorerBuilder::with_baselines`].
///
/// Implementations live in `wsc-baselines` (which depends on this crate,
/// so the facade only sees the trait). Each baseline is evaluated against
/// the best single-wafer candidate of the run.
pub trait BaselineModel: Send + Sync {
    /// Display name for the report.
    fn name(&self) -> String;

    /// Evaluate on `wafer`/`job`; `None` when infeasible for the system.
    fn evaluate(&self, wafer: &WaferConfig, job: &TrainingJob) -> Option<BaselineOutcome>;
}

/// What a [`BaselineModel`] reports back.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// End-to-end iteration latency.
    pub iteration: Time,
    /// Useful-work throughput.
    pub useful_throughput: FlopRate,
}

/// One single-wafer candidate's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchRecord {
    /// Candidate name.
    pub arch: String,
    /// The candidate architecture itself.
    pub wafer: WaferConfig,
    /// Best schedule found (`None` = no feasible schedule). On a
    /// truncated leg this is the deterministic best-so-far incumbent.
    pub best: Option<ScheduledConfig>,
    /// Search instrumentation: visited/pruned/evaluated/skipped counts
    /// of this candidate's Alg. 1 sweep.
    pub stats: SearchStats,
    /// Whether the leg ran to completion or its budget truncated it.
    pub outcome: Outcome,
    /// Candidates whose evaluation panicked — isolated per item, never
    /// winners (empty on any panic-free run).
    pub failures: Vec<CandidateFailure>,
    /// Degradation counters of the leg's profile cache (all-zero on a
    /// panic-free run).
    pub cache_stats: CacheStats,
}

/// One multi-wafer candidate's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiWaferRecord {
    /// Node description (`<wafers>x <wafer name>`).
    pub name: String,
    /// The node configuration.
    pub node: MultiWaferConfig,
    /// Best multi-wafer schedule found. When the search ran with
    /// [`ExplorerBuilder::node_placement`], the winner carries its
    /// per-node Alg. 3 placement stats in
    /// [`MultiWaferReport::placement`](crate::MultiWaferReport) —
    /// placement cost before/after the climb, hosted and cross-seam
    /// borrowed bytes, mean grant distance, and whether the refined
    /// schedule was kept.
    pub best: Option<MultiWaferReport>,
    /// Search instrumentation: visited/pruned/evaluated/skipped counts
    /// of this node's §VI-F sweep.
    pub stats: SearchStats,
    /// Whether the leg ran to completion or its budget truncated it.
    pub outcome: Outcome,
    /// Candidates whose evaluation panicked — isolated per item, never
    /// winners (empty on any panic-free run).
    pub failures: Vec<CandidateFailure>,
    /// Degradation counters of the leg's profile cache (all-zero on a
    /// panic-free run).
    pub cache_stats: CacheStats,
}

/// One fault-kind sweep over the run's best configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepRecord {
    /// Injected fault class.
    pub kind: FaultKind,
    /// Architecture the sweep ran on.
    pub arch: String,
    /// One point per requested rate, in request order.
    pub points: Vec<FaultPoint>,
}

/// One baseline system's outcome on the run's best architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineRecord {
    /// Baseline display name.
    pub name: String,
    /// Outcome (`None` = infeasible for that system).
    pub outcome: Option<BaselineOutcome>,
}

/// The uniform result of [`Explorer::run`]: every sub-experiment the
/// explorer was configured for, in one serializable report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplorationReport {
    /// The training job explored.
    pub job: TrainingJob,
    /// The session seed the run used ([`SchedulerOptions::seed`]).
    pub seed: u64,
    /// Single-wafer outcomes, in candidate order.
    pub single_wafer: Vec<ArchRecord>,
    /// Index into `single_wafer` of the fastest feasible candidate.
    pub best_index: Option<usize>,
    /// Multi-wafer outcomes, in candidate order.
    pub multi_wafer: Vec<MultiWaferRecord>,
    /// Fault sweeps over the best single-wafer configuration.
    pub fault_sweeps: Vec<FaultSweepRecord>,
    /// Baseline comparisons on the best single-wafer architecture.
    pub baselines: Vec<BaselineRecord>,
}

/// The node whose winner has the lowest iteration time (the first such
/// node on a tie), with that winner.
fn fastest_node(records: &[MultiWaferRecord]) -> Option<(&MultiWaferRecord, &MultiWaferReport)> {
    records
        .iter()
        .filter_map(|r| r.best.as_ref().map(|b| (r, b)))
        .min_by(|a, b| a.1.iteration.as_secs().total_cmp(&b.1.iteration.as_secs()))
}

impl ExplorationReport {
    /// The best single-wafer record, as a typed error instead of `None`.
    pub fn best(&self) -> Result<&ArchRecord, ExplorationError> {
        self.best_index
            .and_then(|i| self.single_wafer.get(i))
            .ok_or_else(|| ExplorationError::Infeasible {
                model: self.job.model.name.clone(),
            })
    }

    /// The best multi-wafer record across nodes, if any succeeded.
    pub fn best_multi_wafer(&self) -> Option<&MultiWaferRecord> {
        fastest_node(&self.multi_wafer).map(|(r, _)| r)
    }

    /// Aggregate search instrumentation across all single-wafer
    /// candidates (the multi-wafer legs are aggregated separately by
    /// [`Self::multi_wafer_search_stats`]).
    pub fn search_stats(&self) -> SearchStats {
        self.single_wafer
            .iter()
            .fold(SearchStats::default(), |acc, r| acc.merge(r.stats))
    }

    /// Aggregate search instrumentation across all multi-wafer nodes.
    pub fn multi_wafer_search_stats(&self) -> SearchStats {
        self.multi_wafer
            .iter()
            .fold(SearchStats::default(), |acc, r| acc.merge(r.stats))
    }

    /// Every isolated candidate failure of the run, in record order
    /// (single-wafer legs first, then multi-wafer legs, failures in
    /// wave-completion order within a leg). Empty on any panic-free run.
    pub fn incidents(&self) -> Vec<&CandidateFailure> {
        self.single_wafer
            .iter()
            .flat_map(|r| r.failures.iter())
            .chain(self.multi_wafer.iter().flat_map(|r| r.failures.iter()))
            .collect()
    }

    /// Whether any search leg was truncated by its budget.
    pub fn truncated(&self) -> bool {
        self.single_wafer
            .iter()
            .map(|r| &r.outcome)
            .chain(self.multi_wafer.iter().map(|r| &r.outcome))
            .any(Outcome::is_truncated)
    }

    /// Compact JSON encoding (deterministic: field order is declaration
    /// order, map keys are sorted).
    pub fn to_json(&self) -> String {
        serde::json::to_text(&self.to_value())
    }

    /// Decode a report from [`Self::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, serde::Error> {
        Self::from_value(&serde::json::from_text(s)?)
    }
}

/// A resumable snapshot of a whole explorer session: the legs already
/// finished verbatim, plus (optionally) the wave-level frontier of the
/// leg that was in flight. Serde-round-trippable, so a sink can persist
/// it across process death; [`Explorer::resume`] picks the session back
/// up and provably converges to the same winner as an uninterrupted
/// [`Explorer::run`] (pinned by the `tests/resilience.rs` proptests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// The session seed; [`Explorer::resume`] refuses a checkpoint
    /// whose seed is not the resuming explorer's.
    pub seed: u64,
    /// Single-wafer legs already completed, in candidate order.
    pub completed_single: Vec<ArchRecord>,
    /// Multi-wafer legs already completed, in node order.
    pub completed_multi: Vec<MultiWaferRecord>,
    /// The in-flight leg's wave frontier (`None` = the checkpoint sits
    /// exactly on a leg boundary).
    pub frontier: Option<SearchFrontier>,
}

/// Which leg a [`SearchCheckpoint`]'s wave frontier belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchFrontier {
    /// `false`: the frontier is in single-wafer leg
    /// `completed_single.len()`; `true`: in multi-wafer leg
    /// `completed_multi.len()`.
    pub multi: bool,
    /// The wave-engine snapshot (cursor, counters, incumbent key,
    /// failures, cache recovery count).
    pub wave: WaveCheckpoint,
}

/// Receiver for session checkpoints, pluggable via
/// [`ExplorerBuilder::checkpoint_every`]: a file writer, a channel into
/// a supervisor, or [`MemorySink`] in tests. Called from inside the
/// search (checkpointing runs the legs sequentially, so writes arrive
/// in order) — keep `write` cheap or hand off to a worker.
pub trait CheckpointSink: Send + Sync {
    /// Persist one snapshot. Infallible by design: a sink that can fail
    /// must handle (or stash) its own errors — checkpointing is a
    /// best-effort safety net and must never abort a healthy search.
    fn write(&self, checkpoint: &SearchCheckpoint);
}

/// A [`CheckpointSink`] that keeps every snapshot in memory — the
/// simplest way to wire kill/resume tests, and a reasonable in-process
/// safety net for long sweeps.
#[derive(Debug, Default)]
pub struct MemorySink {
    checkpoints: Mutex<Vec<SearchCheckpoint>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// The most recent snapshot, if any was written.
    pub fn last(&self) -> Option<SearchCheckpoint> {
        self.checkpoints
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .last()
            .cloned()
    }

    /// Every snapshot written so far, in write order.
    pub fn all(&self) -> Vec<SearchCheckpoint> {
        self.checkpoints
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl CheckpointSink for MemorySink {
    fn write(&self, checkpoint: &SearchCheckpoint) {
        self.checkpoints
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(checkpoint.clone());
    }
}

/// Whether `cfg` has the shape of a schedule of `wafer`, so re-scoring
/// it indexes nothing out of bounds: the shared geometry accepts its
/// plan and reproduces its parallelism, every per-stage table has `pp`
/// entries, every grant names two stages, and every stage rectangle
/// lies on the wafer.
fn is_schedule_of(wafer: &WaferConfig, job: &TrainingJob, cfg: &ScheduledConfig) -> bool {
    let pp = cfg.plan.pp;
    // `len ≥ 1` cells from `start` on, inside `0..end`.
    let inside =
        |start: usize, len: usize, end: usize| start < end && (1..=end - start).contains(&len);
    let on_wafer = |r: &Rect| inside(r.x, r.w, wafer.nx) && inside(r.y, r.h, wafer.ny);
    plan_geometry(wafer, 1, job, &cfg.plan).is_some_and(|g| g.parallel == cfg.parallel)
        && cfg.placement.stages.len() == pp
        && cfg.recompute.saved_per_mb.len() == pp
        && cfg.recompute.recompute_time.len() == pp
        && cfg.grants.iter().all(|g| g.sender < pp && g.helper < pp)
        && cfg.placement.stages.iter().all(on_wafer)
}

/// Fault-sweep request attached via [`ExplorerBuilder::with_faults`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepSpec {
    /// Fault classes to sweep.
    pub kinds: Vec<FaultKind>,
    /// Injection rates per kind.
    pub rates: Vec<f64>,
}

/// Builder for [`Explorer`]; see the crate-level docs for a walkthrough.
#[derive(Default)]
pub struct ExplorerBuilder {
    job: Option<TrainingJob>,
    wafers: Vec<WaferConfig>,
    nodes: Vec<MultiWaferConfig>,
    options: Option<SchedulerOptions>,
    faults: Option<FaultSweepSpec>,
    objective: Objective,
    baselines: Vec<Box<dyn BaselineModel>>,
    budget: Option<SearchBudget>,
    checkpoints: Option<(usize, Arc<dyn CheckpointSink>)>,
    skip_validation: bool,
}

impl ExplorerBuilder {
    /// Set the training job (required).
    pub fn job(mut self, job: TrainingJob) -> Self {
        self.job = Some(job);
        self
    }

    /// Add one single-wafer candidate.
    pub fn wafer(mut self, wafer: WaferConfig) -> Self {
        self.wafers.push(wafer);
        self
    }

    /// Add many single-wafer candidates — a `Vec`, or any iterator such
    /// as a design space's
    /// [`Enumerator::enumerate`](wsc_arch::enumerate::Enumerator::enumerate).
    pub fn wafers(mut self, wafers: impl IntoIterator<Item = WaferConfig>) -> Self {
        self.wafers.extend(wafers);
        self
    }

    /// Add a multi-wafer node candidate (§VI-F). Each node gets its own
    /// pruned `TP × PP × strategy` wave search, honoring the same
    /// scheduler options (strategies, `prune`, …) as the single-wafer
    /// sweep; its instrumentation lands in
    /// [`MultiWaferRecord::stats`].
    pub fn multi_wafer(mut self, node: MultiWaferConfig) -> Self {
        self.nodes.push(node);
        self
    }

    /// Replace the scheduler options wholesale.
    pub fn options(mut self, options: SchedulerOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// TP partition strategies to explore.
    pub fn strategies(mut self, strategies: Vec<TpSplitStrategy>) -> Self {
        self.opts_mut().strategies = strategies;
        self
    }

    /// Which [`ParallelPlan`](wsc_workload::parallel::ParallelPlan)
    /// regions the searches may emit beyond the baseline intra-wafer-TP,
    /// balanced-stage-map space (see [`PlanFilter`]). Each axis only
    /// adds candidates, so enabling one can never lose a winner.
    pub fn plans(mut self, filter: PlanFilter) -> Self {
        self.opts_mut().plans = filter;
        self
    }

    /// Enable cross-wafer-TP plans on multi-wafer nodes (TP collectives
    /// crossing the W2W seam; see [`PlanFilter::cross_wafer_tp`]).
    pub fn cross_wafer_tp(mut self) -> Self {
        self.opts_mut().plans.cross_wafer_tp = true;
        self
    }

    /// Enable uneven stage→wafer maps on multi-wafer nodes (every PP
    /// plus the remainder-shift family of explicit maps; see
    /// [`PlanFilter::uneven_stage_maps`]).
    pub fn uneven_stage_maps(mut self) -> Self {
        self.opts_mut().plans.uneven_stage_maps = true;
        self
    }

    /// Run the node-level Alg. 3 memory scheduler on every evaluated
    /// multi-wafer plan (§VI-F): seam-extended placement optimization
    /// within each wafer group plus Sender→Helper DRAM borrowing across
    /// the W2W boundary, each refinement kept only when strictly faster
    /// than the baseline evaluation — the winner can only improve or
    /// tie. The pass is seeded by [`Self::seed`], so reports stay a
    /// pure function of the options at any thread count. The winning
    /// report surfaces the pass in
    /// [`MultiWaferReport::placement`](crate::MultiWaferReport).
    pub fn node_placement(mut self) -> Self {
        self.opts_mut().node_placement = true;
        self
    }

    /// Recomputation scheduler selection.
    pub fn recompute(mut self, mode: RecomputeMode) -> Self {
        self.opts_mut().recompute = mode;
        self
    }

    /// Enable GA refinement with the given parameters.
    pub fn ga(mut self, params: crate::ga::GaParams) -> Self {
        self.opts_mut().ga = Some(params);
        self
    }

    /// Disable GA refinement (fast exploration).
    pub fn no_ga(mut self) -> Self {
        self.opts_mut().ga = None;
        self
    }

    /// The session seed ([`SchedulerOptions::seed`] says what it
    /// drives; the GA and a fault-aware ensemble carry their own).
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts_mut().seed = seed;
        self
    }

    /// Make the single-wafer search fault-aware: candidates are ranked
    /// by their checkpoint-aware effective iteration time over the
    /// ensemble's Monte-Carlo wafer population (folded by `objective`)
    /// instead of the clean iteration time, so the winner is the plan
    /// that trains fastest on the wafers the fab actually yields. The
    /// clean analytic bound stays a true lower bound of the ensemble
    /// score, so pruning semantics (and the pruned ≡ exhaustive
    /// equivalence) are unchanged. A session ranks by one objective:
    /// this call replaces an earlier [`Self::serving_model`] (and a later
    /// one replaces it).
    pub fn fault_aware(mut self, ensemble: FaultEnsemble, objective: RobustObjective) -> Self {
        self.objective = Objective::FaultAware {
            ensemble,
            objective,
        };
        self
    }

    /// Make the single-wafer search serving-aware: candidates are
    /// ranked by the [`ServingModel`]'s score (e.g. negated
    /// goodput-under-SLO from a trace-driven continuous-batching
    /// simulation) instead of the clean training iteration time, and
    /// the pruner uses the model's own analytic bound (see the
    /// soundness obligation in [`crate::serving`]). This is the
    /// low-level hook; the ergonomic
    /// `Explorer::builder().serving(workload, slo)` entry point is the
    /// `ServingExplorerExt` extension trait in `wsc-serve`, which also
    /// derives the profile job for you. A session ranks by one
    /// objective: this call replaces an earlier [`Self::fault_aware`]
    /// (and a later one replaces it).
    pub fn serving_model(mut self, model: Arc<dyn ServingModel>) -> Self {
        self.objective = Objective::Serving(model);
        self
    }

    /// Sweep fault injection over the run's best configuration.
    pub fn with_faults(
        mut self,
        kinds: impl IntoIterator<Item = FaultKind>,
        rates: impl IntoIterator<Item = f64>,
    ) -> Self {
        self.faults = Some(FaultSweepSpec {
            kinds: kinds.into_iter().collect(),
            rates: rates.into_iter().collect(),
        });
        self
    }

    /// Compare against pluggable baseline systems on the run's best
    /// architecture (implementations live in `wsc-baselines`).
    pub fn with_baselines(
        mut self,
        baselines: impl IntoIterator<Item = Box<dyn BaselineModel>>,
    ) -> Self {
        self.baselines.extend(baselines);
        self
    }

    /// Bound the session with an anytime [`SearchBudget`]: a wall-clock
    /// deadline and/or an evaluation cap. Budgets are checked at wave
    /// boundaries, and the deadline also before each bound of the bound
    /// phase; when one trips, the run keeps its deterministic
    /// best-so-far incumbent and reports [`Outcome::Truncated`] on the
    /// affected legs instead of failing. Evaluation caps truncate
    /// reproducibly; the wall-clock deadline is inherently
    /// machine-dependent, but counters stay honest
    /// (`visited == pruned + evaluated + skipped`) and the incumbent is
    /// always a fully evaluated candidate.
    pub fn budget(mut self, budget: SearchBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Write a [`SearchCheckpoint`] to `sink` every `every` waves (and
    /// at every leg boundary), making the session resumable via
    /// [`Explorer::resume`]. Checkpointing runs the search legs
    /// sequentially so snapshots have a well-defined prefix order; the
    /// resulting report is still byte-identical to the parallel run.
    ///
    /// Running the legs one at a time costs wall time and CPU but holds
    /// less memory at once: on `coexplore-bench`'s train-dse workload
    /// (52 wafers, a pool of 2 on 2 vCPUs, medians of 6 alternating
    /// 10 s pairs), forcing every session through the sequential leg
    /// loop took `search_s` from 0.42 to 1.00 s (slower in 6 of 6
    /// pairs), CPU time from 0.81 to 1.37 s and peak heap from 2.69 to
    /// 1.57 MiB.
    pub fn checkpoint_every(mut self, every: usize, sink: Arc<dyn CheckpointSink>) -> Self {
        self.checkpoints = Some((every, sink));
        self
    }

    /// Disable the analytic lower-bound pruner, forcing the exhaustive
    /// sweep. The report is identical (up to [`SearchStats`] counters);
    /// this knob exists for benchmarking and the equivalence tests.
    pub fn no_prune(mut self) -> Self {
        self.opts_mut().prune = false;
        self
    }

    /// Skip per-candidate area validation — for synthetic architectures
    /// that intentionally break the floorplan model.
    pub fn allow_invalid_architectures(mut self) -> Self {
        self.skip_validation = true;
        self
    }

    fn opts_mut(&mut self) -> &mut SchedulerOptions {
        self.options.get_or_insert_with(SchedulerOptions::default)
    }

    /// Validate and freeze the configuration.
    pub fn build(self) -> Result<Explorer, ExplorationError> {
        let job = self.job.ok_or(ExplorationError::MissingJob)?;
        if self.wafers.is_empty() && self.nodes.is_empty() {
            return Err(ExplorationError::NoCandidates);
        }
        if job.micro_batch == 0
            || job.global_batch == 0
            || job.micro_batch > job.global_batch
            || job.seq == 0
        {
            return Err(ExplorationError::InvalidBatchGeometry {
                micro: job.micro_batch,
                global: job.global_batch,
                seq: job.seq,
            });
        }
        let zero_field = match job.model.family {
            _ if job.model.heads == 0 => Some("heads"),
            ModelFamily::MoeTransformer { moe_every: 0, .. } => Some("moe_every"),
            _ => None,
        };
        if let Some(field) = zero_field {
            return Err(ExplorationError::InvalidModel {
                model: job.model.name.clone(),
                field: field.into(),
            });
        }
        let options = self.options.unwrap_or_default();
        if options.strategies.is_empty() {
            return Err(ExplorationError::EmptyOptionList {
                list: "strategies".into(),
            });
        }
        if options.collectives.is_empty() {
            return Err(ExplorationError::EmptyOptionList {
                list: "collectives".into(),
            });
        }
        if let Some(candidates) = &options.tp_candidates {
            if candidates.is_empty() {
                return Err(ExplorationError::EmptyOptionList {
                    list: "tp_candidates".into(),
                });
            }
            if let Some(index) = candidates.iter().position(|&tp| tp == 0) {
                return Err(ExplorationError::InvalidTpCandidate { index, tp: 0 });
            }
        }
        if !options.punish.is_finite() || options.punish < 0.0 {
            return Err(ExplorationError::InvalidPunish {
                punish: options.punish,
            });
        }
        if let Objective::FaultAware { ensemble, .. } = &self.objective {
            if !(0.0..=1.0).contains(&ensemble.rate) {
                return Err(ExplorationError::InvalidFaultRate {
                    rate: ensemble.rate,
                });
            }
            if ensemble.samples == 0 {
                return Err(ExplorationError::EmptyOptionList {
                    list: "fault ensemble samples".into(),
                });
            }
        }
        if let Some(spec) = &self.faults {
            if spec.kinds.is_empty() {
                return Err(ExplorationError::EmptyOptionList {
                    list: "fault kinds".into(),
                });
            }
            if spec.rates.is_empty() {
                return Err(ExplorationError::EmptyFaultRates);
            }
            if let Some(&rate) = spec.rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
                return Err(ExplorationError::InvalidFaultRate { rate });
            }
        }
        if let Some(budget) = &self.budget {
            if let Some(secs) = budget.deadline {
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(ExplorationError::InvalidBudget {
                        reason: format!("deadline must be finite and positive, got {secs}"),
                    });
                }
            }
        }
        if matches!(self.checkpoints, Some((0, _))) {
            return Err(ExplorationError::InvalidBudget {
                reason: "checkpoint_every must be at least 1 wave".into(),
            });
        }
        if !self.skip_validation {
            let model = AreaModel::default();
            for wafer in &self.wafers {
                wafer
                    .validate(&model)
                    .map_err(|e| ExplorationError::InvalidArchitecture {
                        name: wafer.name.clone(),
                        reason: e.to_string(),
                    })?;
            }
            for node in &self.nodes {
                node.wafer
                    .validate(&model)
                    .map_err(|e| ExplorationError::InvalidArchitecture {
                        name: node.wafer.name.clone(),
                        reason: e.to_string(),
                    })?;
            }
        }
        Ok(Explorer {
            job,
            wafers: self.wafers,
            nodes: self.nodes,
            options,
            faults: self.faults,
            objective: self.objective,
            baselines: self.baselines,
            budget: self.budget,
            checkpoints: self.checkpoints,
        })
    }
}

/// The unified co-exploration session (see module docs).
///
/// `Debug` is implemented by hand because baseline models are boxed
/// closures/trait objects.
pub struct Explorer {
    job: TrainingJob,
    wafers: Vec<WaferConfig>,
    nodes: Vec<MultiWaferConfig>,
    options: SchedulerOptions,
    faults: Option<FaultSweepSpec>,
    objective: Objective,
    baselines: Vec<Box<dyn BaselineModel>>,
    budget: Option<SearchBudget>,
    /// Checkpoint cadence in waves, with the sink the snapshots go to.
    checkpoints: Option<(usize, Arc<dyn CheckpointSink>)>,
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("job", &self.job.model.name)
            .field("wafers", &self.wafers.len())
            .field("nodes", &self.nodes.len())
            .field("options", &self.options)
            .field("faults", &self.faults)
            .field("objective", &self.objective)
            .field("baselines", &self.baselines.len())
            .field("budget", &self.budget)
            .field(
                "checkpoint_every",
                &self.checkpoints.as_ref().map(|(every, _)| every),
            )
            .finish()
    }
}

impl Explorer {
    /// Start configuring a session.
    pub fn builder() -> ExplorerBuilder {
        ExplorerBuilder::default()
    }

    /// The scheduler options the session will run with.
    pub fn options(&self) -> &SchedulerOptions {
        &self.options
    }

    /// Run every configured sub-experiment and collect the report.
    ///
    /// Single-wafer candidates fan out across threads, each running the
    /// pruned Alg. 1 wave search; multi-wafer nodes then run the §VI-F
    /// sweep on the same engine, one node leg after another, each with
    /// parallel waves over its work-list; fault sweeps and baselines run
    /// on the single-wafer winner and are cheap by comparison. Results
    /// are deterministic in the seed and independent of thread count.
    pub fn run(&self) -> ExplorationReport {
        self.run_with(None)
    }

    /// Resume a session from a [`SearchCheckpoint`] written by a
    /// [`CheckpointSink`]. Legs the checkpoint recorded as completed are
    /// reused verbatim (every leg is a pure function of job + options,
    /// so reuse is exact memoization); the in-flight leg restarts from
    /// its wave frontier and re-examines everything past its cursor. The
    /// resulting report — winner included — is byte-identical to the
    /// uninterrupted run's, pinned by the `tests/resilience.rs`
    /// proptests.
    ///
    /// A checkpoint is untrusted input. One whose seed is not this
    /// session's, whose completed legs ran on other candidates than this
    /// explorer's at the same index, whose completed winners are not
    /// schedules of their candidates, or whose frontier does not fit the
    /// in-flight leg's work list fails with
    /// [`ExplorationError::ForeignCheckpoint`] instead of splicing
    /// another session's records into the report, so resuming never
    /// panics on a checkpoint it did not write.
    pub fn resume(
        &self,
        checkpoint: &SearchCheckpoint,
    ) -> Result<ExplorationReport, ExplorationError> {
        match self.foreign_reason(checkpoint) {
            Some(reason) => Err(ExplorationError::ForeignCheckpoint { reason }),
            None => Ok(self.run_with(Some(checkpoint))),
        }
    }

    /// Why this session cannot resume `cp`, or `None` when it can. Every
    /// snapshot the session writes passes: its counters, cursor and wave
    /// number come from a wave loop over the same work list, and its
    /// records from the same geometry.
    fn foreign_reason(&self, cp: &SearchCheckpoint) -> Option<String> {
        let (job, opts) = (&self.job, &self.options);
        if cp.seed != opts.seed {
            return Some(format!(
                "its seed is {}, the session's is {}",
                cp.seed, opts.seed
            ));
        }
        for (i, rec) in cp.completed_single.iter().enumerate() {
            if self.wafers.get(i) != Some(&rec.wafer) {
                return Some(format!(
                    "its wafer leg {i} ran on `{}`, not on the session's candidate {i}",
                    rec.arch
                ));
            }
            if !rec.best.iter().all(|c| is_schedule_of(&rec.wafer, job, c)) {
                return Some(format!(
                    "its wafer leg {i} holds no schedule of `{}`",
                    rec.arch
                ));
            }
        }
        for (i, rec) in cp.completed_multi.iter().enumerate() {
            if self.nodes.get(i) != Some(&rec.node) {
                return Some(format!(
                    "its node leg {i} ran on `{}`, not on the session's node {i}",
                    rec.name
                ));
            }
            let (wafer, wafers) = (&rec.node.wafer, rec.node.wafers.max(1));
            let fits = |r: &MultiWaferReport| {
                plan_geometry(wafer, wafers, job, &r.plan).is_some_and(|g| g.parallel == r.parallel)
            };
            if !rec.best.iter().all(fits) {
                return Some(format!("its node leg {i} holds no plan of `{}`", rec.name));
            }
        }
        let f = cp.frontier.as_ref()?;
        let work = if f.multi {
            let node = self.nodes.get(cp.completed_multi.len());
            node.map(|n| node_work_list(n, job, opts).len())
        } else {
            let wafer = self.wafers.get(cp.completed_single.len());
            wafer.map(|w| work_list(w, job, opts).len())
        };
        let (wave, s) = (&f.wave, f.wave.stats);
        let counts = [s.pruned, s.evaluated, s.skipped];
        let accounted = counts.into_iter().try_fold(0, usize::checked_add);
        let fits = work == Some(s.visited)
            && accounted.is_some_and(|n| n <= s.visited)
            && wave.cursor <= s.visited
            && wave.wave_no as usize <= wave.cursor;
        (!fits).then(|| "its frontier does not fit the in-flight leg's work list".into())
    }

    /// The session-wide wave-engine context: the budget limits. The
    /// wall-clock deadline is anchored once here, so every leg races the
    /// same instant. A deadline too far off for a `Duration` or an
    /// `Instant` to hold is no deadline.
    fn base_ctx(&self) -> SessionCtx<'_> {
        let budget = self.budget.unwrap_or_default();
        let deadline = budget.deadline.and_then(|secs| {
            let budget = Duration::try_from_secs_f64(secs).ok()?;
            // wsc-lint: allow(D004, "anchoring the anytime deadline reads the wall clock once per session")
            Instant::now().checked_add(budget)
        });
        SessionCtx {
            deadline,
            max_evaluations: budget.max_evaluations,
            ..SessionCtx::none()
        }
    }

    fn run_with(&self, resume: Option<&SearchCheckpoint>) -> ExplorationReport {
        let ctx = self.base_ctx();
        // Checkpointing (or resuming) runs the legs sequentially so
        // every snapshot has a well-defined completed-prefix; reports
        // are identical either way, as everywhere else in the engine.
        let (single_wafer, keys, multi_wafer) = if self.checkpoints.is_some() || resume.is_some() {
            self.run_checkpointed(&ctx, resume)
        } else {
            let legs: Vec<(ArchRecord, Option<f64>)> = self
                .wafers
                .par_iter()
                .map(|w| self.explore_one(w, &ctx))
                .collect();
            let (single, keys) = legs.into_iter().unzip();
            let multi: Vec<MultiWaferRecord> = self
                .nodes
                .iter()
                .map(|node| self.explore_node(node, &ctx))
                .collect();
            (single, keys, multi)
        };

        // Each feasible candidate's ranking key is the session
        // objective's score of its winner (`explore_one`). Lowest key
        // wins; ties keep the earliest index so the winner does not
        // depend on evaluation order.
        let mut best_index: Option<usize> = None;
        for (i, key) in keys.iter().enumerate() {
            let Some(key) = key else { continue };
            let better = match best_index.and_then(|b| keys[b]) {
                None => true,
                Some(best_key) => *key < best_key,
            };
            if better {
                best_index = Some(i);
            }
        }

        let mut fault_sweeps = Vec::new();
        if let Some(spec) = &self.faults {
            if let Some(bi) = best_index {
                let rec = &single_wafer[bi];
                // wsc-lint: allow(S001, "best_index is only ever set to the index of a record whose best is Some")
                let cfg = rec.best.as_ref().expect("best_index is feasible");
                for &kind in &spec.kinds {
                    fault_sweeps.push(FaultSweepRecord {
                        kind,
                        arch: rec.arch.clone(),
                        points: fault_sweep_impl(
                            &rec.wafer,
                            &self.job,
                            cfg,
                            kind,
                            &spec.rates,
                            &self.options,
                        ),
                    });
                }
            }
            // Whole-wafer loss on the best multi-wafer node: the robust
            // leg re-balances the winning pipeline onto the survivors
            // via explicit stage maps (exact binomial expectation over
            // survivor counts — no Monte Carlo).
            if spec.kinds.contains(&FaultKind::Wafer) {
                if let Some((rec, best)) = fastest_node(&multi_wafer) {
                    fault_sweeps.push(FaultSweepRecord {
                        kind: FaultKind::Wafer,
                        arch: rec.name.clone(),
                        points: wafer_loss_sweep_impl(&rec.node, &self.job, best, &spec.rates),
                    });
                }
            }
        }

        // Baselines run on the best architecture (or the first candidate
        // when nothing was feasible, so the comparison is still recorded).
        let reference = best_index
            .map(|i| &single_wafer[i].wafer)
            .or_else(|| self.wafers.first());
        let baselines: Vec<BaselineRecord> = match reference {
            Some(wafer) => self
                .baselines
                .iter()
                .map(|b| BaselineRecord {
                    name: b.name(),
                    outcome: b.evaluate(wafer, &self.job),
                })
                .collect(),
            None => Vec::new(),
        };

        ExplorationReport {
            job: self.job.clone(),
            seed: self.options.seed,
            single_wafer,
            best_index,
            multi_wafer,
            fault_sweeps,
            baselines,
        }
    }

    /// Run and return only the best single-wafer record, with a typed
    /// error when nothing was feasible.
    pub fn run_for_best(&self) -> Result<(WaferConfig, ScheduledConfig), ExplorationError> {
        let report = self.run();
        let rec = report.best()?;
        Ok((
            rec.wafer.clone(),
            rec.best
                .clone()
                // wsc-lint: allow(S001, "best() filters on best.is_some() before returning a record")
                .expect("best() only returns feasible records"),
        ))
    }

    /// One single-wafer leg, with its ranking key: the score its winner
    /// won the leg with (`None` = no feasible schedule). The leg only
    /// keeps finite scores, and [`Objective::score`] is a pure function
    /// of the schedule (a deadline-cut score is `INFINITY` and never
    /// wins), so scoring the winner again would reproduce the key bit
    /// for bit.
    fn explore_one(&self, wafer: &WaferConfig, ctx: &SessionCtx<'_>) -> (ArchRecord, Option<f64>) {
        let (leg, cache_stats) =
            explore_impl(wafer, &self.job, &self.options, &self.objective, ctx);
        let (best, key) = leg.best.unzip();
        let record = ArchRecord {
            arch: wafer.name.clone(),
            wafer: wafer.clone(),
            best,
            stats: leg.stats,
            outcome: leg.outcome,
            failures: leg.failures,
            cache_stats,
        };
        (record, key)
    }

    /// The ranking key of a wafer leg reused from a checkpoint, which is
    /// untrusted input: its winner scored afresh, `None` when it holds
    /// no feasible schedule or scores non-finite.
    fn rescore(&self, rec: &ArchRecord) -> Option<f64> {
        let cfg = rec.best.as_ref().filter(|c| c.report.feasible)?;
        let key = self.objective.score(
            &rec.wafer,
            &self.job,
            cfg,
            &ProfileCache::new(),
            Cutoff::NONE,
        );
        key.is_finite().then_some(key)
    }

    /// One node leg.
    fn explore_node(&self, node: &MultiWaferConfig, ctx: &SessionCtx<'_>) -> MultiWaferRecord {
        let (leg, cache_stats) = explore_multi_wafer_impl(node, &self.job, &self.options, ctx);
        MultiWaferRecord {
            name: format!("{}x {}", node.wafers, node.wafer.name),
            node: node.clone(),
            best: leg.best.map(|(report, _)| report),
            stats: leg.stats,
            outcome: leg.outcome,
            failures: leg.failures,
            cache_stats,
        }
    }

    /// The sequential leg loop used whenever a sink or a resume
    /// checkpoint is present: every single-wafer leg, then every node
    /// leg, with each wafer leg's ranking key. Legs `resume` records as
    /// completed are reused verbatim and ranked by [`Self::rescore`];
    /// the first other leg on the frontier's side restarts from the wave
    /// frontier. The completed legs accumulate in `done`, which every
    /// wave snapshot carries as its completed prefix (the leg's receiver
    /// wraps each [`WaveCheckpoint`] into a [`SearchCheckpoint`]) and
    /// every finished leg writes as a leg-boundary snapshot (frontier
    /// `None`: start the next leg from scratch on resume).
    fn run_checkpointed(
        &self,
        ctx: &SessionCtx<'_>,
        resume: Option<&SearchCheckpoint>,
    ) -> (Vec<ArchRecord>, Vec<Option<f64>>, Vec<MultiWaferRecord>) {
        let mut done = SearchCheckpoint {
            seed: self.options.seed,
            completed_single: Vec::with_capacity(self.wafers.len()),
            completed_multi: Vec::with_capacity(self.nodes.len()),
            frontier: None,
        };
        let mut keys = Vec::with_capacity(self.wafers.len());
        let legs = (0..self.wafers.len())
            .map(|i| (false, i))
            .chain((0..self.nodes.len()).map(|i| (true, i)));
        for (multi, i) in legs {
            let completed = |cp: &SearchCheckpoint| {
                if multi {
                    cp.completed_multi.len()
                } else {
                    cp.completed_single.len()
                }
            };
            if let Some(cp) = resume.filter(|cp| i < completed(cp)) {
                if multi {
                    done.completed_multi.push(cp.completed_multi[i].clone());
                } else {
                    let record = cp.completed_single[i].clone();
                    keys.push(self.rescore(&record));
                    done.completed_single.push(record);
                }
                continue;
            }
            let frontier = resume
                .filter(|cp| i == completed(cp))
                .and_then(|cp| cp.frontier.as_ref())
                .filter(|f| f.multi == multi)
                .map(|f| &f.wave);
            let emit = |wave: &WaveCheckpoint| {
                if let Some((_, sink)) = &self.checkpoints {
                    sink.write(&SearchCheckpoint {
                        frontier: Some(SearchFrontier {
                            multi,
                            wave: wave.clone(),
                        }),
                        ..done.clone()
                    });
                }
            };
            let leg_ctx = SessionCtx {
                checkpoints: self
                    .checkpoints
                    .as_ref()
                    .map(|&(every, _)| (every, &emit as EmitCheckpoint<'_>)),
                resume: frontier,
                ..*ctx
            };
            if multi {
                let record = self.explore_node(&self.nodes[i], &leg_ctx);
                done.completed_multi.push(record);
            } else {
                let (record, key) = self.explore_one(&self.wafers[i], &leg_ctx);
                done.completed_single.push(record);
                keys.push(key);
            }
            if let Some((_, sink)) = &self.checkpoints {
                sink.write(&done);
            }
        }
        (done.completed_single, keys, done.completed_multi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_arch::presets;
    use wsc_workload::zoo;

    fn quick() -> ExplorerBuilder {
        Explorer::builder()
            .job(TrainingJob::standard(zoo::llama2_30b()))
            .no_ga()
            .strategies(vec![TpSplitStrategy::Megatron])
    }

    #[test]
    fn builder_requires_a_job() {
        let err = Explorer::builder()
            .wafer(presets::config(3))
            .build()
            .unwrap_err();
        assert_eq!(err, ExplorationError::MissingJob);
    }

    #[test]
    fn builder_requires_candidates() {
        let err = quick().build().unwrap_err();
        assert_eq!(err, ExplorationError::NoCandidates);
    }

    #[test]
    fn single_wafer_run_finds_schedule() {
        let report = quick()
            .wafer(presets::config(3))
            .build()
            .expect("valid")
            .run();
        assert_eq!(report.single_wafer.len(), 1);
        let best = report.best().expect("feasible");
        assert!(best.best.as_ref().expect("schedule").report.feasible);
    }

    #[test]
    fn multi_wafer_and_faults_ride_along() {
        let report = quick()
            .wafer(presets::config(3))
            .multi_wafer(presets::multi_wafer_18())
            .with_faults([FaultKind::Link], [0.0, 0.2])
            .build()
            .expect("valid")
            .run();
        assert_eq!(report.multi_wafer.len(), 1);
        assert!(report.multi_wafer[0].best.is_some());
        assert_eq!(report.fault_sweeps.len(), 1);
        assert_eq!(report.fault_sweeps[0].points.len(), 2);
    }

    #[test]
    fn invalid_fault_rate_is_typed() {
        let err = quick()
            .wafer(presets::config(3))
            .with_faults([FaultKind::Die], [1.5])
            .build()
            .unwrap_err();
        assert_eq!(err, ExplorationError::InvalidFaultRate { rate: 1.5 });
    }
}
