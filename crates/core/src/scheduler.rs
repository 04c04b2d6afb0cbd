//! The early-pruning central scheduler (Alg. 1) and the downstream
//! scheduler orchestration of Fig. 9.
//!
//! For each feasible (TP, PP) pair and TP partition strategy, the central
//! scheduler: prunes candidates whose `modelP` cannot fit the aggregate
//! wafer memory (line 1–2); delegates checkpoint overflow to the GCMR
//! recomputation scheduler (line 5–6); invokes the memory scheduler
//! (location-aware placement + Alg. 3 DRAM allocation); optionally refines
//! with the GA global optimizer; and evaluates the result, keeping the
//! best configuration (line 7–8).
//!
//! The sweep itself runs on the shared bounded wave engine
//! (`crate::wave`, also behind the multi-wafer search): the line 1–2
//! memory precheck decides points before any profile is built, the
//! survivors are sorted by an analytic lower bound (compute plus ideal
//! collective time, from cached stage profiles) and
//! evaluated in deterministic ramped waves, and the incumbent best
//! prunes the bound-ordered tail. Winner and [`SearchStats`] are
//! byte-identical across thread counts and vs the exhaustive sweep.

use crate::cache::{CacheStats, ProfileCache};
use crate::costmodel::PlacementCostModel;
use crate::dram_alloc::{allocate, DramGrant};
use crate::evaluator::{self, evaluate, EvalInput, EvalOptions, PerfReport};
use crate::ga::{self, GaParams};
use crate::goodput::{ensemble_effective_secs_within, FaultEnsemble, RobustObjective};
use crate::placement::{self, PairDemand, Placement};
use crate::serving::ServingModel;
use crate::stage::{boundary_bytes, StageProfile};
use crate::wave::{bounded_search, LegOutcome, Outcome, SessionCtx, WorkItem};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use wsc_arch::fault::FaultMap;
use wsc_arch::units::{Bandwidth, Bytes, Time};
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{all_reduce_time, CollectiveAlgo, GroupShape};
use wsc_mesh::topology::Mesh2D;
use wsc_pipeline::gcmr::gcmr;
use wsc_pipeline::recompute::{naive_recompute, overflow_and_spare, RecomputePlan};
use wsc_workload::graph::ShardingCtx;
use wsc_workload::memory::model_p_total;
use wsc_workload::parallel::{ParallelPlan, ParallelSpec, TpSplitStrategy};
use wsc_workload::training::TrainingJob;

/// Which recomputation scheduler to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecomputeMode {
    /// No recomputation at all (OOM configs are simply infeasible).
    None,
    /// Per-stage naive recomputation (Fig. 8a baseline).
    Naive,
    /// Globally coordinated memory-efficient recomputation (Alg. 2).
    Gcmr,
}

/// Which regions of the [`ParallelPlan`] space a search may emit, beyond
/// the baseline intra-wafer-TP, balanced-stage-map plans. Both axes are
/// off by default: the default search space is exactly the seed space,
/// and each axis only ever *adds* candidate plans, so enabling one can
/// never lose a winner (the equivalence proptests run with both on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanFilter {
    /// Emit cross-wafer-TP plans on multi-wafer nodes: TP groups with
    /// `tp_span > 1` place `tp / tp_span` dies on each spanned wafer and
    /// pay the W2W seam in every TP collective, in exchange for TP
    /// degrees (and per-die memory relief) no single wafer can host.
    /// Ignored by the single-wafer search (a wafer has no seam to span).
    pub cross_wafer_tp: bool,
    /// Emit uneven stage→wafer maps on multi-wafer nodes: every `pp`
    /// (not just wafer multiples) with the balanced map, plus the
    /// deterministic
    /// [`StageMap::remainder_shifted`](wsc_workload::parallel::StageMap::remainder_shifted)
    /// family of explicit maps when `pp` does not divide evenly. Ignored
    /// by the single-wafer search (one wafer has exactly one map).
    pub uneven_stage_maps: bool,
}

impl PlanFilter {
    /// Both axes enabled — the largest plan space the searches know.
    pub fn all() -> Self {
        PlanFilter {
            cross_wafer_tp: true,
            uneven_stage_maps: true,
        }
    }
}

/// Scheduler knobs (the ablation switches of Fig. 18 map directly here).
///
/// The same option set is handed to both search engines behind
/// [`crate::Explorer`]. The Alg. 1 single-wafer sweep honors every
/// knob; the §VI-F multi-wafer sweep ([`crate::multiwafer`]) honors the
/// search-shaping knobs (`strategies`, `tp_candidates`, `allow_odd_tp`,
/// `plans`, `prune`, `sequential`) plus `node_placement` (and, with it
/// on, `seed`, which drives the node-level Alg. 3 hill climb) but fixes
/// its evaluator to ring collectives + GCMR, so `collectives`,
/// `recompute`, `memory_scheduler`, `ga` and `punish` do not affect it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedulerOptions {
    /// TP partition strategies to explore (the set `S` of Alg. 1).
    ///
    /// Keep both [`TpSplitStrategy::Megatron`] and
    /// [`TpSplitStrategy::SequenceParallel`] (the default) for final
    /// quality; trim to one to halve the work-list for smoke tests and
    /// quick sweeps.
    pub strategies: Vec<TpSplitStrategy>,
    /// Collective algorithms to consider per TP shape. The scheduler
    /// picks the cheapest supported algorithm at each shape's typical
    /// per-op volume; list more than one only when comparing collective
    /// implementations (Fig. 13).
    pub collectives: Vec<CollectiveAlgo>,
    /// Allow odd TP degrees (expanded search space of Fig. 21). Off by
    /// default: odd degrees rarely win and inflate the work-list.
    pub allow_odd_tp: bool,
    /// Recomputation scheduler selection. [`RecomputeMode::Gcmr`]
    /// (Alg. 2, the default) for production searches;
    /// [`RecomputeMode::Naive`] / [`RecomputeMode::None`] exist for the
    /// Fig. 8/18 ablations.
    pub recompute: RecomputeMode,
    /// Enable the location-aware memory scheduler (§IV-C: optimized
    /// placement + Alg. 3 DRAM allocation). Disable only to reproduce
    /// the serpentine-placement baseline of the ablations.
    pub memory_scheduler: bool,
    /// GA global-optimizer parameters (§IV-D; `None` disables the GA).
    /// The GA refines the search winner once and never makes it worse,
    /// at the cost of a few hundred extra evaluations — disable for
    /// interactive exploration, enable for final numbers.
    pub ga: Option<GaParams>,
    /// Link-punishment factor for PP routing: how strongly the traffic
    /// assigner penalizes pipeline hops over contended links.
    pub punish: f64,
    /// Explicit TP candidates (`None` = automatic: 1 and every even
    /// degree up to 16 that embeds as a rectangle). Set to pin the sweep
    /// to specific degrees, e.g. `Some(vec![4])` when reproducing a
    /// fixed configuration. In the multi-wafer search these are the
    /// *per-wafer* degrees; cross-wafer plans multiply them by the span.
    /// Every candidate must be at least 1 ([`crate::ExplorerBuilder::build`]
    /// rejects 0).
    pub tp_candidates: Option<Vec<usize>>,
    /// Which plan-space axes beyond the baseline the searches may emit
    /// (cross-wafer TP, uneven stage maps). See [`PlanFilter`]; builder:
    /// [`crate::ExplorerBuilder::plans`].
    pub plans: PlanFilter,
    /// Run the node-level Alg. 3 memory scheduler on every evaluated
    /// multi-wafer plan (§VI-F): seam-extended placement optimization
    /// within each wafer group plus Sender→Helper DRAM borrowing across
    /// the W2W boundary, kept per plan only when strictly faster than
    /// the baseline evaluation — so turning this on can only improve
    /// (or tie) the winner. Off by default: the knob-off sweep
    /// reproduces today's results bit-for-bit. Builder:
    /// [`crate::ExplorerBuilder::node_placement`]. Ignored by the
    /// single-wafer search (which has its own §IV-C memory scheduler).
    pub node_placement: bool,
    /// RNG seed for placement optimization and the GA. Reports are a
    /// pure function of this seed — rerunning with the same seed
    /// reproduces them byte-for-byte at any thread count.
    pub seed: u64,
    /// Enable the analytic lower-bound pruner: skip full scheduling of a
    /// `(tp, pp, strategy)` point whenever its compute-plus-ideal-
    /// collective bound already exceeds the incumbent best. The search
    /// result is identical with or without pruning (the bound is a true
    /// lower bound and ties are never pruned) and the pruned search is
    /// 20–100× faster on the committed presets, so leave it on; disable
    /// (builder: [`crate::ExplorerBuilder::no_prune`]) only to measure
    /// the exhaustive sweep or stress the equivalence tests.
    pub prune: bool,
    /// Run three fan-outs sequentially: the [`crate::Explorer`]'s
    /// candidate fan-out, the search work-list (its bound phase and its
    /// bound-ordered ramped waves) and the fault-sweep rate grid
    /// (default: rayon fan-outs). The GA's population decode (the `ga`
    /// field, on by default) still uses the rayon pool, so a session
    /// with the GA on is not single-threaded. With this off, a GA nested
    /// in a fan-out that holds every worker decodes inline on its leg's
    /// thread. Results and [`SearchStats`] are identical either way;
    /// enable (builder: [`crate::ExplorerBuilder::sequential`]) for
    /// benchmarking baselines and determinism tests.
    pub sequential: bool,
}

/// Default RNG seed for the scheduler's stochastic components.
pub const DEFAULT_SEED: u64 = 0x0005_eed0_a705;

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            strategies: vec![TpSplitStrategy::Megatron, TpSplitStrategy::SequenceParallel],
            collectives: vec![CollectiveAlgo::RingBi],
            allow_odd_tp: false,
            recompute: RecomputeMode::Gcmr,
            memory_scheduler: true,
            ga: Some(GaParams::default()),
            punish: 4.0,
            tp_candidates: None,
            plans: PlanFilter::default(),
            node_placement: false,
            seed: DEFAULT_SEED,
            prune: true,
            sequential: false,
        }
    }
}

pub use crate::wave::SearchStats;

/// One fully scheduled configuration plus its evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledConfig {
    /// Parallelism (resolved DP).
    pub parallel: ParallelSpec,
    /// The full parallel plan this schedule realizes (strategy, stage
    /// map, TP span; `dp` resolved to the scheduled value).
    pub plan: ParallelPlan,
    /// Chosen collective algorithm.
    pub collective: CollectiveAlgo,
    /// Stage placement.
    pub placement: Placement,
    /// Recomputation plan.
    pub recompute: RecomputePlan,
    /// Sender→Helper DRAM grants.
    pub grants: Vec<DramGrant>,
    /// Evaluation report.
    pub report: PerfReport,
}

/// Per-wafer TP degrees worth trying on `wafer`: explicit
/// `opts.tp_candidates` if set, else 1 plus every (even, unless
/// `allow_odd_tp`) degree up to 16 that embeds as a rectangle. Shared
/// with the multi-wafer search, where these are the degrees one wafer
/// hosts (cross-wafer plans multiply them by the TP span).
pub(crate) fn tp_candidates(wafer: &WaferConfig, opts: &SchedulerOptions) -> Vec<usize> {
    if let Some(c) = &opts.tp_candidates {
        return c.clone();
    }
    let dies = wafer.die_count();
    let mut out = vec![1usize];
    for tp in 2..=16usize {
        if tp > dies {
            break;
        }
        let even_ok = tp % 2 == 0 || opts.allow_odd_tp;
        if !even_ok {
            continue;
        }
        if GroupShape::best_rectangle(tp, wafer.nx, wafer.ny).is_some() {
            out.push(tp);
        }
    }
    out
}

/// The Alg. 1 line 1–2 aggregate-memory precheck: true when `modelP`
/// split over a `tp × pp` group cannot fit that group's aggregate DRAM
/// (per-die share vs per-die capacity). The single authority for every
/// precheck site — both legs' evaluators AND work-list `decided` masks
/// (no bound ever sees a decided point) — so the "skip without
/// profiling" short-circuit can never disagree with what the evaluators
/// reject. Evaluators call it after [`plan_geometry`] has bounded `tp`.
pub(crate) fn memory_precheck_fails(
    wafer: &WaferConfig,
    job: &TrainingJob,
    tp: usize,
    pp: usize,
) -> bool {
    model_p_total(&job.model).as_f64() / (tp * pp) as f64 > wafer.dram.capacity.as_f64()
}

/// What one [`ParallelPlan`] means on `wafers` copies of `wafer`
/// chained along the pipeline; the wafer leg passes `wafers = 1`. Both
/// legs' evaluators, lower bounds and work lists read it, so none can
/// disagree on what a plan means. A TP group places `tp / span` dies on
/// each of `span` wafers, the stage map fills the `wafers / span` wafer
/// groups, each wafer hosts one tile slot per stage of its group, and
/// DP replicas fill the slots left over. `None` = not a layout of this
/// node. Layout only: the caller runs [`memory_precheck_fails`].
pub(crate) struct PlanGeometry {
    /// Wafers one TP group spans (`plan.tp_span`).
    pub(crate) span: usize,
    /// Per-wafer TP tile (`tp / span` dies).
    pub(crate) shape: GroupShape,
    pub(crate) parallel: ParallelSpec,
    pub(crate) n_mb: usize,
    pub(crate) ctx: ShardingCtx,
}

pub(crate) fn plan_geometry(
    wafer: &WaferConfig,
    wafers: usize,
    job: &TrainingJob,
    plan: &ParallelPlan,
) -> Option<PlanGeometry> {
    let (tp, pp, span) = (plan.tp, plan.pp, plan.tp_span);
    if plan.validate().is_err() || pp > job.model.layers || !wafers.is_multiple_of(span) {
        return None;
    }
    if plan.stage_map.validate(pp, wafers / span).is_err() {
        return None;
    }
    let per_wafer = plan.stage_map.max_stages_per_wafer(pp);
    // `choose_tile` only returns tiles with a slot for every stage of
    // the busiest wafer, so `dp ≥ 1` needs no further check.
    let (tile_w, tile_h) = placement::choose_tile(wafer.nx, wafer.ny, tp / span, per_wafer)?;
    let slots = (wafer.nx / tile_w) * (wafer.ny / tile_h);
    let mut dp = (slots / per_wafer).clamp(1, (job.global_batch / job.micro_batch).max(1));
    if plan.dp > 0 {
        // A pinned DP can only narrow what the node supports.
        dp = dp.min(plan.dp);
    }
    Some(PlanGeometry {
        span,
        shape: GroupShape::new(tile_w, tile_h),
        parallel: ParallelSpec::new(dp, tp, pp),
        n_mb: job.microbatches(dp),
        ctx: plan.sharding_ctx(job),
    })
}

/// The collective algorithm the scheduler uses for a point: the
/// cheapest supported algorithm at the first stage's typical per-op
/// volume (the first listed wins a tie). Shared by [`schedule_plan`] and
/// the lower-bound pruner.
fn choose_collective(
    opts: &SchedulerOptions,
    wafer: &WaferConfig,
    shape: GroupShape,
    stages: &[StageProfile],
) -> Option<CollectiveAlgo> {
    let volume = stages
        .first()
        .map(|s| s.fwd_comm_bytes / s.fwd_collectives.max(1) as u64)
        .unwrap_or(Bytes::ZERO);
    let (link_bw, alpha) = (wafer.d2d_link_bw(), wafer.d2d_link_latency);
    let mut best: Option<(CollectiveAlgo, f64)> = None;
    for &algo in opts.collectives.iter().filter(|a| a.supports(shape)) {
        let t = all_reduce_time(algo, shape, volume, link_bw, alpha);
        if best.is_none_or(|(_, bt)| t.as_secs() < bt) {
            best = Some((algo, t.as_secs()));
        }
    }
    best.map(|(a, _)| a)
}

/// Schedule a fixed [`ParallelPlan`]: run the downstream schedulers and
/// evaluate. This is the Alg. 1 loop body, also used directly by the
/// ablation and baseline experiments.
///
/// Stage profiles, placement cost models and clean hill climbs go
/// through `cache`, so they are reused across every plan the cache has
/// seen for this `(wafer, job)` pair; a one-off call passes
/// `&ProfileCache::new()`.
pub fn schedule_plan(
    wafer: &WaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    opts: &SchedulerOptions,
    faults: Option<&FaultMap>,
    cache: &ProfileCache,
) -> Option<ScheduledConfig> {
    let g = plan_geometry(wafer, 1, job, plan)?;
    let (shape, parallel, n_mb, ctx) = (g.shape, g.parallel, g.n_mb, g.ctx);
    let pp = plan.pp;
    // Alg. 1 line 1–2: early pruning on aggregate modelP. After the
    // geometry, whose tile bounds `tp` by the wafer.
    if memory_precheck_fails(wafer, job, plan.tp, pp) {
        return None;
    }
    let stages = cache.stage_profiles(wafer, job, plan, n_mb);
    let cap = wafer.dram.capacity;
    let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();

    // Recomputation scheduler.
    let quanta = gcmr_quanta(pp);
    let (rplan, mem_pairs) = match opts.recompute {
        RecomputeMode::None => {
            let fits = inputs.iter().all(|i| i.full_memory() <= cap);
            let mut p = RecomputePlan::none(pp);
            p.feasible = fits;
            (p, Vec::new())
        }
        RecomputeMode::Naive => (naive_recompute(&inputs, cap), Vec::new()),
        RecomputeMode::Gcmr => {
            let g = gcmr(&inputs, cap, quanta);
            let pairs = g.mem_pairs.clone();
            (g.as_recompute_plan(), pairs)
        }
    };
    if !rplan.feasible {
        return None;
    }

    // Memory scheduler: placement (+ fine-grained DRAM allocation).
    let pp_volume = boundary_bytes(job, &ctx).as_f64();
    let pair_demands: Vec<PairDemand> = mem_pairs
        .iter()
        .map(|p| PairDemand {
            sender: p.sender,
            helper: p.helper,
            volume: p.bytes.as_f64(),
        })
        .collect();
    // One cost model per (tile shape, pp_volume) is shared through the
    // cache: the hill climb, the GA refinement, and every other search
    // point with this tile shape reuse its distance tables and memoized
    // path-link fragments. Built only when a consumer actually reads it:
    // the GA decodes against it, and the hill climb prices pairs on it —
    // with no pair demands the hill climb returns the serpentine seed
    // without touching Eq. 2, so the common fits-in-DRAM point skips the
    // O(slots²) table build entirely.
    let mesh = Mesh2D::new(wafer.nx, wafer.ny);
    let faulted = faults.is_some_and(|f| !f.is_empty());
    let cost_model = ((opts.memory_scheduler && (!pair_demands.is_empty() || faulted))
        || opts.ga.is_some())
    .then(|| match faults {
        // A degraded wafer gets a fresh fault-aware model (quality-
        // weighted distances, dead-die slots masked) and NEVER goes
        // through the cache: the cache key carries no fault state, so a
        // cached faulted model would poison every clean lookup of the
        // same tile shape (and vice versa).
        Some(f) if !f.is_empty() => Arc::new(PlacementCostModel::with_faults(
            mesh, shape.w, shape.h, pp_volume, f,
        )),
        _ => cache.cost_model(&mesh, shape.w, shape.h, pp_volume),
    });
    let placement = if opts.memory_scheduler {
        match &cost_model {
            Some(model) => cache.placement(model, pp, &pair_demands, opts.seed)?,
            // No pair demands: `optimize_with` would return serpentine
            // unchanged (the boustrophedon layout already minimizes the
            // pipeline term).
            None => placement::serpentine(wafer.nx, wafer.ny, pp, shape.w, shape.h)?,
        }
    } else {
        placement::serpentine(wafer.nx, wafer.ny, pp, shape.w, shape.h)?
    };

    // Fine-grained DRAM allocation (Alg. 3): overflow/spare per stage.
    let (overflow, spare) = overflow_and_spare(&inputs, &rplan, cap);
    let grants: Vec<DramGrant> = if opts.memory_scheduler {
        let alloc = allocate(&placement, &overflow, &spare);
        if !alloc.complete() {
            return None;
        }
        alloc.grants
    } else {
        // Naive pairing from GCMR (distance-unaware).
        mem_pairs
            .iter()
            .map(|p| DramGrant {
                sender: p.sender,
                helper: p.helper,
                bytes: p.bytes,
                hops: placement.stages[p.sender].dist(&placement.stages[p.helper]),
            })
            .collect()
    };

    // Collective selection for this shape.
    let collective = choose_collective(opts, wafer, shape, &stages[..])?;

    let report = evaluate(&EvalInput {
        wafer,
        job,
        parallel,
        ctx,
        stages: &stages[..],
        recompute: &rplan,
        placement: &placement,
        grants: &grants,
        faults,
        options: EvalOptions {
            collective,
            punish: opts.punish,
            robust: true,
        },
        cache: None,
    });
    let cfg = ScheduledConfig {
        parallel,
        plan: plan.clone().with_dp(parallel.dp),
        collective,
        placement,
        recompute: rplan,
        grants,
        report,
    };
    let cfg = match &cost_model {
        Some(model) => ga_refine(wafer, job, cfg, opts, model, faults, cache),
        None => cfg,
    };
    cfg.report.feasible.then_some(cfg)
}

/// The optional §IV-D GA refinement of a scheduled configuration: evolve
/// its placement, recomputation and pairing on `model` (built for its
/// tile shape and pipeline volume) and keep the result only when the
/// full evaluation confirms it strictly faster. `cfg` comes back as it
/// is when `opts.ga` is `None`. [`schedule_plan`] runs it on the
/// schedule it just built; a search leg runs it on its winner, which it
/// does not schedule again.
fn ga_refine(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: ScheduledConfig,
    opts: &SchedulerOptions,
    model: &PlacementCostModel,
    faults: Option<&FaultMap>,
    cache: &ProfileCache,
) -> ScheduledConfig {
    let Some(params) = &opts.ga else {
        return cfg;
    };
    let stages = cache.stage_profiles(wafer, job, &cfg.plan, job.microbatches(cfg.parallel.dp));
    let cap = wafer.dram.capacity;
    let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
    let (overflow, spare) = overflow_and_spare(&inputs, &cfg.recompute, cap);
    let refined = ga::refine_with_model(
        model.mesh(),
        &stages[..],
        &cfg.recompute,
        &cfg.placement,
        &overflow,
        &spare,
        model.pp_volume(),
        cap,
        model,
        params,
    );
    let report = evaluate(&EvalInput {
        wafer,
        job,
        parallel: cfg.parallel,
        ctx: cfg.plan.sharding_ctx(job),
        stages: &stages[..],
        recompute: &refined.recompute,
        placement: &refined.placement,
        grants: &refined.grants,
        faults,
        options: EvalOptions {
            collective: cfg.collective,
            punish: opts.punish,
            robust: true,
        },
        cache: None,
    });
    if report.feasible && report.iteration.as_secs() < cfg.report.iteration.as_secs() {
        ScheduledConfig {
            placement: refined.placement,
            recompute: refined.recompute,
            grants: refined.grants,
            report,
            ..cfg
        }
    } else {
        cfg
    }
}

/// The GCMR (Alg. 2) memory-quantum count for a `pp`-stage pipeline —
/// the one value both search legs schedule recomputation with.
pub(crate) fn gcmr_quanta(pp: usize) -> usize {
    (160 / pp).clamp(3, 16)
}

/// The pipeline floor (seconds) both legs' lower bounds share: the 1F1B
/// floor of the per-micro-batch stage times `t_s` plus the DP gradient
/// all-reduce, which both evaluators add verbatim. `t_s` is stage `s`'s
/// compute plus its collectives, priced by the evaluators' own
/// [`evaluator::stage_comm_times`] at healthy link bandwidth with
/// `seam`, the seam step of a cross-wafer TP group (`None` on one
/// wafer). The 1F1B floor is the larger of
///
/// * the steady state — the bottleneck stage serializes all `n_mb`
///   micro-batches: `n_mb · max_s t_s`;
/// * the critical path — micro-batch 0 traverses every stage down and
///   back: `Σ_s t_s`.
///
/// Recomputation, p2p transfers and routing contention only ever add
/// time, so neither leg's evaluation falls below it.
pub(crate) fn pipeline_floor(
    wafer: &WaferConfig,
    job: &TrainingJob,
    g: &PlanGeometry,
    stages: &[StageProfile],
    collective: CollectiveAlgo,
    seam: Option<(usize, Bandwidth, Time)>,
) -> f64 {
    let link_bw = wafer.d2d_link_bw();
    let alpha = wafer.d2d_link_latency;
    let mut max_mb = 0.0f64;
    let mut sum_mb = 0.0f64;
    for sp in stages {
        let (fwd_comm, bwd_comm) =
            evaluator::stage_comm_times(collective, g.shape, sp, link_bw, alpha, seam);
        let mb = (sp.fwd_compute + fwd_comm + sp.bwd_compute + bwd_comm).as_secs();
        max_mb = max_mb.max(mb);
        sum_mb += mb;
    }
    let ParallelSpec { dp, tp, pp } = g.parallel;
    (g.n_mb as f64 * max_mb).max(sum_mb)
        + evaluator::dp_allreduce_time(collective, wafer, job, tp, pp, dp).as_secs()
}

/// Analytic lower bound (seconds) on the iteration time any feasible
/// schedule of `plan` can achieve: the [`pipeline_floor`] of the cached
/// stage profiles under the collective the scheduler picks, plus the
/// optimizer DRAM stream, which the wafer evaluator adds verbatim.
/// `None` = statically infeasible (no layout or no collective).
fn config_lower_bound(
    wafer: &WaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    opts: &SchedulerOptions,
    cache: &ProfileCache,
) -> Option<f64> {
    let g = plan_geometry(wafer, 1, job, plan)?;
    let stages = cache.stage_profiles(wafer, job, plan, g.n_mb);
    // Same collective the full scheduler will pick for this shape.
    let collective = choose_collective(opts, wafer, g.shape, &stages[..])?;
    let bound = pipeline_floor(wafer, job, &g, &stages[..], collective, None)
        + evaluator::optimizer_stream_time(&stages[..], wafer).as_secs();
    Some(bound)
}

/// What a single-wafer search ranks its candidates by, with the sound
/// lower bound it prunes with — the only place the clean, fault-aware
/// and serving objectives differ. Set by
/// [`crate::ExplorerBuilder::fault_aware`] /
/// [`crate::ExplorerBuilder::serving_model`] and deliberately *not* a
/// [`SchedulerOptions`] field, so serialized option sets stay oblivious
/// to it. Node legs always rank by clean iteration time.
#[derive(Default)]
pub(crate) enum Objective {
    /// Clean iteration seconds.
    #[default]
    Clean,
    /// [`crate::goodput::ensemble_effective_secs`]: the checkpoint-aware
    /// effective iteration time over the ensemble's Monte-Carlo wafer
    /// population, folded by `objective`.
    FaultAware {
        /// The wafer population every candidate is scored against.
        ensemble: FaultEnsemble,
        /// How per-sample effective times become one score.
        objective: RobustObjective,
    },
    /// The serving model's score (e.g. negated goodput-under-SLO from the
    /// `wsc-serve` continuous-batching simulator).
    Serving(Arc<dyn ServingModel>),
}

impl std::fmt::Debug for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Objective::Clean => f.write_str("Clean"),
            Objective::FaultAware {
                ensemble,
                objective,
            } => f
                .debug_struct("FaultAware")
                .field("ensemble", ensemble)
                .field("objective", objective)
                .finish(),
            Objective::Serving(model) => f.debug_tuple("Serving").field(&model.name()).finish(),
        }
    }
}

impl Objective {
    /// Analytic lower bound on [`Objective::score`] for any feasible
    /// schedule of `plan`; `None` = statically infeasible.
    fn bound(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
        opts: &SchedulerOptions,
        cache: &ProfileCache,
    ) -> Option<f64> {
        match self {
            // Serving ranks on another axis than iteration seconds, so
            // the model brings its own sound bound (`crate::serving`).
            // The training geometry gate still applies — a plan that
            // cannot be laid out cannot be scheduled, let alone served.
            Objective::Serving(model) => {
                plan_geometry(wafer, 1, job, plan)?;
                model.bound(wafer, job, plan, cache)
            }
            // Every fault/checkpoint transformation only adds time
            // (`crate::goodput`), so the clean bound also bounds the
            // ensemble score.
            Objective::Clean | Objective::FaultAware { .. } => {
                config_lower_bound(wafer, job, plan, opts, cache)
            }
        }
    }

    /// The score `cfg` competes on; lower is better. Past `cutoff` the
    /// fault-aware ensemble loop stops and scores `INFINITY`, which the
    /// search drops as unscoreable.
    pub(crate) fn score(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        cfg: &ScheduledConfig,
        cache: &ProfileCache,
        cutoff: Option<Instant>,
    ) -> f64 {
        match self {
            Objective::Clean => cfg.report.iteration.as_secs(),
            Objective::FaultAware {
                ensemble,
                objective,
            } => {
                ensemble_effective_secs_within(wafer, job, cfg, ensemble, *objective, cache, cutoff)
            }
            Objective::Serving(model) => model.score(wafer, job, cfg, cache),
        }
    }
}

/// The Alg. 1 work-list of `wafer`: the intra-wafer `TP × PP × strategy`
/// points, each [`WorkItem::decided`] when the Alg. 1 line 1–2
/// aggregate-memory precheck alone decides it (modelP per die cannot
/// fit the die's DRAM), so the bound phase, the pruned waves AND the
/// exhaustive sweep all short-circuit it without building stage
/// profiles. Empty when modelP cannot fit the whole wafer.
pub(crate) fn work_list(
    wafer: &WaferConfig,
    job: &TrainingJob,
    opts: &SchedulerOptions,
) -> Vec<WorkItem> {
    let dies = wafer.die_count();
    let mut items: Vec<WorkItem> = Vec::new();
    // Alg. 1 line 1–2 at the wafer level.
    if model_p_total(&job.model).as_f64() / dies as f64 > wafer.dram.capacity.as_f64() {
        return items;
    }
    for tp in tp_candidates(wafer, opts) {
        let max_pp = (dies / tp).min(job.model.layers);
        for pp in 1..=max_pp {
            // Skip configurations that strand more than half the wafer,
            // counting the DP replicas that fill it. The strategy enters
            // neither the tile nor the DP, so any one probes the point.
            let probe = ParallelPlan::intra(tp, pp, TpSplitStrategy::Megatron);
            match plan_geometry(wafer, 1, job, &probe) {
                Some(g) if tp * pp * g.parallel.dp >= dies / 2 => {}
                _ => continue,
            }
            let decided = memory_precheck_fails(wafer, job, tp, pp);
            for (sidx, &strategy) in opts.strategies.iter().enumerate() {
                items.push(WorkItem {
                    plan: ParallelPlan::intra(tp, pp, strategy),
                    sidx,
                    pidx: 0,
                    decided,
                });
            }
        }
    }
    items
}

/// Implementation of the Alg. 1 single-wafer search (driven by
/// [`crate::Explorer`]).
///
/// The intra-wafer [`ParallelPlan`] space ([`work_list`]) runs through
/// the one search-leg loop (`crate::wave::bounded_search`), ranked and
/// bounded by `objective`; the winner — and [`SearchStats`] — is
/// identical to the exhaustive sequential sweep (`prune: false`,
/// `sequential: true`) up to the instrumentation counters, and
/// byte-identical across thread counts. The loop body runs without the
/// GA; with `opts.ga` set, the GA then refines the winner once.
///
/// The fault-aware objective keeps the *clean* bound, which stays sound
/// because every fault/checkpoint transformation only ever adds time
/// (`crate::goodput` module docs); a serving model brings its own bound
/// with its own soundness obligation (`crate::serving` module docs).
/// `tests/search_equivalence.rs` and `tests/serving.rs` pin pruned ≡
/// exhaustive for both. Returns the leg outcome — the winner with the
/// score it won by, which is the session's ranking key — and the
/// counters of the leg's profile cache, which the leg drops.
pub(crate) fn explore_impl(
    wafer: &WaferConfig,
    job: &TrainingJob,
    opts: &SchedulerOptions,
    objective: &Objective,
    ctx: &SessionCtx<'_>,
) -> (LegOutcome<(ScheduledConfig, f64)>, CacheStats) {
    let items = work_list(wafer, job, opts);
    let inner = SchedulerOptions {
        ga: None,
        ..opts.clone()
    };
    // The engine hands the ensemble loop its cutoff: the session
    // deadline in the waves, none when it re-derives a resumed
    // incumbent.
    let score = |cfg: &ScheduledConfig, cache: &ProfileCache, cutoff: Option<Instant>| {
        objective.score(wafer, job, cfg, cache, cutoff)
    };
    let (mut leg, cache) = bounded_search(
        &items,
        opts,
        ctx,
        |it, cache| objective.bound(wafer, job, &it.plan, opts, cache),
        |it, cache| schedule_plan(wafer, job, &it.plan, &inner, None, cache),
        score,
    );

    // GA refinement of the winner, kept only when it wins on the same
    // score the search ranked by. A truncated leg skips it: refinement
    // is unbudgeted work, and anytime semantics promise best-so-far.
    if opts.ga.is_some() && leg.outcome == Outcome::Complete {
        if let Some((b, bscore)) = leg.best.take() {
            // The winner's tile and pipeline volume key the cost model
            // its schedule placed on.
            leg.best = Some(match b.placement.stages.first() {
                Some(tile) => {
                    let mesh = Mesh2D::new(wafer.nx, wafer.ny);
                    let pp_volume = boundary_bytes(job, &b.plan.sharding_ctx(job)).as_f64();
                    let model = cache.cost_model(&mesh, tile.w, tile.h, pp_volume);
                    let refined = ga_refine(wafer, job, b.clone(), opts, &model, None, &cache);
                    let rscore = score(&refined, &cache, ctx.deadline);
                    if rscore <= bscore {
                        (refined, rscore)
                    } else {
                        (b, bscore)
                    }
                }
                None => (b, bscore),
            });
        }
    }
    (leg, cache.stats())
}

/// Re-evaluate a scheduled configuration under faults (Fig. 22) or with a
/// different robustness policy. Stage profiles come from `cache`, so
/// sweeps that re-evaluate the same configuration many times (fault
/// rates, robust vs baseline policies) build them exactly once.
pub fn evaluate_scheduled(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
    faults: Option<&FaultMap>,
    robust: bool,
    cache: &ProfileCache,
) -> PerfReport {
    let ctx = cfg.plan.sharding_ctx(job);
    let n_mb = job.microbatches(cfg.parallel.dp);
    let stages = cache.stage_profiles(wafer, job, &cfg.plan, n_mb);
    evaluate(&EvalInput {
        wafer,
        job,
        parallel: cfg.parallel,
        ctx,
        stages: &stages[..],
        recompute: &cfg.recompute,
        placement: &cfg.placement,
        grants: &cfg.grants,
        faults,
        options: EvalOptions {
            collective: cfg.collective,
            punish: 4.0,
            robust,
        },
        cache: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_bound_sound;
    use wsc_arch::presets;
    use wsc_workload::zoo;

    fn quick_opts() -> SchedulerOptions {
        SchedulerOptions {
            ga: None,
            strategies: vec![TpSplitStrategy::Megatron],
            ..SchedulerOptions::default()
        }
    }

    /// One clean-objective search leg, its cache stats dropped.
    fn search(
        wafer: &WaferConfig,
        job: &TrainingJob,
        opts: &SchedulerOptions,
    ) -> LegOutcome<(ScheduledConfig, f64)> {
        explore_impl(wafer, job, opts, &Objective::Clean, &SessionCtx::none()).0
    }

    #[test]
    fn schedule_fixed_produces_feasible_config() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let cfg = schedule_plan(
            &wafer,
            &job,
            &ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron),
            &quick_opts(),
            None,
            &ProfileCache::new(),
        )
        .expect("schedulable");
        assert!(cfg.report.feasible);
        assert_eq!(cfg.parallel.tp, 4);
        assert_eq!(cfg.parallel.pp, 14);
        assert_eq!(cfg.placement.stages.len(), 14);
    }

    #[test]
    fn early_pruning_rejects_oversized_models() {
        // DeepSeek-671B modelP = 671e9 x 16 B ≈ 10.7 TB > Config 3's
        // 3.92 TB wafer: every candidate must be pruned.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::deepseek_v3());
        assert!(search(&wafer, &job, &quick_opts()).best.is_none());
    }

    #[test]
    fn explore_finds_small_tp() {
        // Fig. 5a / §V-C: the optimum uses a small TP (not 8/16).
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let (best, _) = search(&wafer, &job, &quick_opts()).best.expect("feasible");
        assert!(
            best.parallel.tp <= 4,
            "expected small TP, got {}",
            best.parallel
        );
        assert!(best.report.feasible);
    }

    #[test]
    fn pruned_search_matches_exhaustive_sweep() {
        // The tentpole invariant: prune+parallel, prune+sequential and
        // no-prune+sequential all return the same winner; pruning only
        // changes the instrumentation counters.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let pruned = search(&wafer, &job, &quick_opts());
        let pruned_seq = search(
            &wafer,
            &job,
            &SchedulerOptions {
                sequential: true,
                ..quick_opts()
            },
        );
        let exhaustive = search(
            &wafer,
            &job,
            &SchedulerOptions {
                prune: false,
                sequential: true,
                ..quick_opts()
            },
        );
        assert_eq!(pruned.best, pruned_seq.best);
        assert_eq!(pruned.stats, pruned_seq.stats);
        assert_eq!(pruned.best, exhaustive.best);
        assert_eq!(pruned.stats.visited, exhaustive.stats.visited);
        assert!(pruned.stats.pruned > 0, "{:?}", pruned.stats);
        assert_eq!(exhaustive.stats.pruned, 0);
        assert_eq!(exhaustive.stats.evaluated, exhaustive.stats.visited);
    }

    #[test]
    fn fault_aware_search_matches_exhaustive_sweep() {
        // Clean-bound pruning stays sound when candidates are ranked by
        // ensemble effective seconds: the pruned fault-aware search and
        // the exhaustive one return the identical winner.
        use crate::goodput::ensemble_effective_secs;
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let ensemble = FaultEnsemble::clustered(0.2, 3, 11);
        let fa = Objective::FaultAware {
            ensemble: ensemble.clone(),
            objective: RobustObjective::Mean,
        };
        let (pruned, _) = explore_impl(&wafer, &job, &quick_opts(), &fa, &SessionCtx::none());
        let (exhaustive, _) = explore_impl(
            &wafer,
            &job,
            &SchedulerOptions {
                prune: false,
                sequential: true,
                ..quick_opts()
            },
            &fa,
            &SessionCtx::none(),
        );
        assert_eq!(pruned.best, exhaustive.best);
        assert_eq!(pruned.stats.visited, exhaustive.stats.visited);
        assert!(pruned.stats.pruned > 0, "{:?}", pruned.stats);
        let (best, score) = pruned.best.expect("feasible");
        // The ensemble score the winner was ranked by dominates its
        // clean iteration time (the pruning-soundness inequality).
        let cache = ProfileCache::new();
        let s = ensemble_effective_secs(
            &wafer,
            &job,
            &best,
            &ensemble,
            RobustObjective::Mean,
            &cache,
        );
        assert_eq!(s, score);
        assert!(s >= best.report.iteration.as_secs());
    }

    /// A serving model whose score reads the cache: the clean iteration
    /// plus every stage's forward compute, from the cached profiles. Both
    /// terms are non-negative, so the clean bound stays sound.
    struct CacheReadingModel(SchedulerOptions);

    impl ServingModel for CacheReadingModel {
        fn name(&self) -> String {
            "cache-reading".into()
        }

        fn bound(
            &self,
            wafer: &WaferConfig,
            job: &TrainingJob,
            plan: &ParallelPlan,
            cache: &ProfileCache,
        ) -> Option<f64> {
            config_lower_bound(wafer, job, plan, &self.0, cache)
        }

        fn score(
            &self,
            wafer: &WaferConfig,
            job: &TrainingJob,
            cfg: &ScheduledConfig,
            cache: &ProfileCache,
        ) -> f64 {
            let n_mb = job.microbatches(cfg.parallel.dp);
            let stages = cache.stage_profiles(wafer, job, &cfg.plan, n_mb);
            stages.iter().fold(cfg.report.iteration.as_secs(), |t, sp| {
                t + sp.fwd_compute.as_secs()
            })
        }
    }

    #[test]
    fn a_legs_score_is_its_winners_score_on_a_fresh_cache() {
        // The Explorer ranks wafer legs by the score each winner won its
        // leg with, instead of scoring the winner again: that key must
        // equal the objective's score of the winner on a fresh cache with
        // no cutoff, bit for bit, whether or not the GA refined it.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let objectives = [
            Objective::Clean,
            Objective::FaultAware {
                ensemble: FaultEnsemble::clustered(0.2, 3, 11),
                objective: RobustObjective::Worst,
            },
            Objective::Serving(Arc::new(CacheReadingModel(quick_opts()))),
        ];
        for objective in &objectives {
            for ga in [None, Some(GaParams::default())] {
                let opts = SchedulerOptions { ga, ..quick_opts() };
                let (leg, _) = explore_impl(&wafer, &job, &opts, objective, &SessionCtx::none());
                let (best, score) = leg.best.expect("feasible");
                let fresh = objective.score(&wafer, &job, &best, &ProfileCache::new(), None);
                assert_eq!(
                    score.to_bits(),
                    fresh.to_bits(),
                    "{objective:?}, GA {}: leg score {score} vs fresh {fresh}",
                    opts.ga.is_some()
                );
            }
        }
    }

    #[test]
    fn bound_is_sound_over_whole_work_lists() {
        // Every undecided item of Configs 1–4's work lists, not only
        // those the waves evaluate: a scheduled plan's score never falls
        // below its bound, and a plan without a bound never schedules.
        let job = TrainingJob::standard(zoo::llama3_70b());
        let opts = SchedulerOptions {
            ga: None,
            ..SchedulerOptions::default()
        };
        let mut scheduled = 0;
        for cfg in 1..=4 {
            let wafer = presets::config(cfg);
            let cache = ProfileCache::new();
            for it in work_list(&wafer, &job, &opts)
                .iter()
                .filter(|it| !it.decided)
            {
                let bound = config_lower_bound(&wafer, &job, &it.plan, &opts, &cache);
                let score = schedule_plan(&wafer, &job, &it.plan, &opts, None, &cache)
                    .map(|c| c.report.iteration.as_secs());
                scheduled += usize::from(assert_bound_sound(&it.plan, bound, score));
            }
        }
        assert!(scheduled > 0, "no plan scheduled: the check is vacuous");
    }

    #[test]
    fn search_stats_are_consistent() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let out = search(&wafer, &job, &quick_opts());
        let s = out.stats;
        assert!(s.visited > 0);
        assert_eq!(s.visited, s.pruned + s.evaluated);
        assert!(s.evaluated > 0, "the winner must have been evaluated");
    }

    #[test]
    fn tie_break_is_deterministic_under_parallelism() {
        // Duplicate the strategy list: every (tp, pp) point now appears
        // twice with identical iteration times, so the winner is decided
        // purely by the (tp, pp, strategy index) tie-break. The duplicated
        // search must agree with the plain one, sequentially and in
        // parallel.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let plain = search(&wafer, &job, &quick_opts());
        let dup_opts = SchedulerOptions {
            strategies: vec![TpSplitStrategy::Megatron, TpSplitStrategy::Megatron],
            ..quick_opts()
        };
        let dup_par = search(&wafer, &job, &dup_opts);
        let dup_seq = search(
            &wafer,
            &job,
            &SchedulerOptions {
                sequential: true,
                ..dup_opts
            },
        );
        assert_eq!(dup_par.best, dup_seq.best);
        assert_eq!(dup_par.stats, dup_seq.stats);
        // Strategy index 0 wins the tie: identical outcome to the plain
        // single-strategy search.
        assert_eq!(plain.best, dup_par.best);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        // A plan that fails its own validation (wrong-length explicit
        // map, zero degree, indivisible span) must never schedule — the
        // "every record carries a valid plan" property depends on it.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        use wsc_workload::parallel::StageMap;
        let bad_map = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron)
            .with_stage_map(StageMap::Explicit(vec![0]));
        assert!(bad_map.validate().is_err());
        assert!(schedule_plan(
            &wafer,
            &job,
            &bad_map,
            &quick_opts(),
            None,
            &ProfileCache::new()
        )
        .is_none());
        let bad_span = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron).with_tp_span(3);
        assert!(schedule_plan(
            &wafer,
            &job,
            &bad_span,
            &quick_opts(),
            None,
            &ProfileCache::new()
        )
        .is_none());
    }

    proptest::proptest! {
        /// What the shared geometry promises both legs, over nodes of
        /// 1–4 wafers: a plan never occupies more dies than the node
        /// has, the tile holds one wafer's share of the TP group, and
        /// the DP is a positive, pin-respecting replica count.
        #[test]
        fn plan_geometry_fits_the_node(
            cfg in 1usize..5,
            wafers in 1usize..5,
            tp in 1usize..65,
            pp_draw in 0usize..1024,
            shift in 0usize..4,
            dp in 0usize..9,
        ) {
            use wsc_workload::parallel::StageMap;
            let wafer = presets::config(cfg);
            let job = TrainingJob::standard(zoo::llama2_30b());
            let pp = 1 + pp_draw % job.model.layers;
            let divisors = (1..=wafers).filter(|k| wafers.is_multiple_of(*k));
            // `wafers + 1` never divides `wafers`.
            for span in divisors.chain([wafers + 1]) {
                let groups = (wafers / span).max(1);
                // The node's own maps, then two over one group too many.
                let maps = [
                    StageMap::SingleWafer,
                    StageMap::Balanced { wafers: groups },
                    StageMap::remainder_shifted(pp, groups, shift),
                    StageMap::Balanced { wafers: groups + 1 },
                    StageMap::remainder_shifted(pp, groups + 1, shift),
                ];
                for stage_map in maps {
                    let plan = ParallelPlan {
                        dp,
                        tp,
                        pp,
                        strategy: TpSplitStrategy::Megatron,
                        stage_map,
                        tp_span: span,
                    };
                    let Some(g) = plan_geometry(&wafer, wafers, &job, &plan) else {
                        continue;
                    };
                    proptest::prop_assert!(plan.wafers() <= wafers, "{plan} on {wafers} wafers");
                    if wafers == 1 {
                        proptest::prop_assert!(span == 1 && plan.stage_map.wafer_count() == 1);
                    }
                    proptest::prop_assert!(
                        tp * pp * g.parallel.dp <= wafers * wafer.die_count(),
                        "{plan} resolves DP {} on {wafers} wafers",
                        g.parallel.dp
                    );
                    proptest::prop_assert_eq!(g.shape.w * g.shape.h, tp / span);
                    proptest::prop_assert!(g.parallel.dp >= 1);
                    if dp > 0 {
                        proptest::prop_assert!(g.parallel.dp <= dp);
                    }
                    proptest::prop_assert_eq!(g.n_mb, job.microbatches(g.parallel.dp));
                }
            }
        }
    }

    #[test]
    fn infeasible_pp_returns_none() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        // 61 stages on 56 dies with TP=4: no.
        assert!(schedule_plan(
            &wafer,
            &job,
            &ParallelPlan::intra(4, 61, TpSplitStrategy::Megatron),
            &quick_opts(),
            None,
            &ProfileCache::new(),
        )
        .is_none());
    }

    #[test]
    fn memory_scheduler_never_hurts() {
        let wafer = presets::config(2); // tighter memory than config 3
        let job = TrainingJob::standard(zoo::llama3_70b());
        let mut with = quick_opts();
        with.memory_scheduler = true;
        let mut without = quick_opts();
        without.memory_scheduler = false;
        let plan = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron);
        let a = schedule_plan(&wafer, &job, &plan, &with, None, &ProfileCache::new());
        let b = schedule_plan(&wafer, &job, &plan, &without, None, &ProfileCache::new());
        if let (Some(a), Some(b)) = (a, b) {
            assert!(a.report.iteration.as_secs() <= b.report.iteration.as_secs() * 1.05);
        }
    }

    #[test]
    fn gcmr_mode_beats_naive_mode() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama3_70b());
        let mut gcmr_opts = quick_opts();
        gcmr_opts.recompute = RecomputeMode::Gcmr;
        let mut naive_opts = quick_opts();
        naive_opts.recompute = RecomputeMode::Naive;
        let plan = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron);
        let g = schedule_plan(&wafer, &job, &plan, &gcmr_opts, None, &ProfileCache::new())
            .expect("gcmr feasible");
        let n = schedule_plan(&wafer, &job, &plan, &naive_opts, None, &ProfileCache::new())
            .expect("naive feasible");
        assert!(
            g.report.iteration.as_secs() <= n.report.iteration.as_secs() * 1.001,
            "gcmr {} vs naive {}",
            g.report.iteration,
            n.report.iteration
        );
    }
}
