//! Multi-wafer scheduling and evaluation (§VI-F, Fig. 24a), over
//! first-class [`ParallelPlan`]s.
//!
//! A multi-wafer node chains wafers along the pipeline dimension.
//! Where pipeline stages land is the plan's [`StageMap`] — `Balanced`
//! (the seed-era `ceil(pp / wafers)` layout) or an `Explicit` uneven
//! assignment — and only the stage boundaries that land on a wafer seam
//! cross the W2W interconnect. TP is the plan's `tp_span`: intra-wafer
//! (`1`, collectives stay on the D2D mesh) or cross-wafer (`k > 1`,
//! each TP group places `tp / k` dies on each of `k` adjacent wafers and
//! every TP collective pays the seam — in exchange for TP degrees and
//! per-die memory relief no single wafer can host). Models too large
//! for one wafer (Llama3-405B, DeepSeek-V3) thereby become schedulable —
//! [`MultiWaferReport::w2w_boundary_fraction`] measures how many stage
//! boundaries actually pay the W2W latency/bandwidth of
//! [`MultiWaferConfig`].
//!
//! # The timing model
//!
//! A wafer is a one-wafer node. The node leg shares with the wafer leg
//! the plan geometry (`scheduler::plan_geometry` with the node's wafer
//! count: TP span, per-wafer tile of `tp / span` dies, resolved DP,
//! micro-batches), the Alg. 1 line 1–2 memory precheck, the cached
//! stage profiles, GCMR (Alg. 2) recomputation against per-die DRAM,
//! the exact 1F1B simulation (Fig. 8a), the DP gradient all-reduce and
//! the TP-collective formula. A cross-wafer TP group adds one seam step
//! per collective — a ring all-reduce over its `tp_span` wafer segments
//! at W2W bandwidth/latency — in the evaluator and the lower bound
//! alike, so the bound stays sound by construction. Four differences
//! remain:
//!
//! * intra-group p2p is a fixed two-hop α–β transfer, not routed and
//!   contended traffic (a seam boundary pays one W2W crossing), and
//!   stages are pinned to wafer groups in stage-map order;
//! * no optimizer stream is charged;
//! * every collective is a ring, whatever `SchedulerOptions::collectives`
//!   lists;
//! * the work list's stranding filter counts one replica (`tp · pp`),
//!   not the DP replicas that fill the rest of the node.
//!
//! Both legs bound a plan with one formula, `scheduler::pipeline_floor`;
//! the node leg prices it with rings and the seam step and, unlike the
//! wafer leg, adds no optimizer stream.
//!
//! The pinned stage placement holds for the baseline evaluator only:
//! behind the `node_placement` knob
//! ([`crate::ExplorerBuilder::node_placement`]) every evaluated plan
//! additionally runs the **node-level Alg. 3 pass** — stages are
//! hill-climb placed within their wafer groups on a seam-extended
//! distance table, Sender→Helper DRAM borrowing may cross the W2W
//! boundary at a priced seam transfer, and the refined schedule
//! replaces the baseline only when strictly faster
//! ([`evaluate_multi_wafer_plan_placed`]).
//!
//! # The search
//!
//! The search (`explore_multi_wafer_impl`, driven by
//! [`crate::Explorer`]) sweeps the plan space on the shared bounded
//! wave engine (`crate::wave`), exactly like the single-wafer search.
//! The baseline space is the seed-era one — intra-wafer TP, balanced
//! maps, `pp` in wafer multiples; [`PlanFilter`] axes enlarge it with
//! cross-wafer-TP plans (`tp_span` over the divisors of the wafer
//! count) and uneven stage maps (every `pp`, plus the deterministic
//! [`StageMap::remainder_shifted`] family where `pp` does not divide
//! evenly), each pruned by the same per-die memory precheck. The
//! aggregate-memory precheck (Alg. 1 line 1–2 at node scale) decides
//! infeasible points without building stage profiles, surviving points
//! are sorted by an analytic lower bound (1F1B steady state + pipeline
//! critical path + DP all-reduce — recomputation and p2p only ever add
//! time) and evaluated in deterministic ramped waves. Winner and
//! [`SearchStats`](crate::SearchStats) are byte-identical across thread
//! counts and match the exhaustive sequential sweep.

use crate::cache::{CacheStats, ProfileCache};
use crate::costmodel::NodeCostModel;
use crate::dram_alloc::allocate_by;
use crate::evaluator::{dp_allreduce_time, stage_comm_times};
use crate::placement::{optimize_node, PairDemand};
use crate::scheduler::{
    gcmr_quanta, memory_precheck_fails, pipeline_floor, plan_geometry, tp_candidates, PlanFilter,
    SchedulerOptions,
};
use crate::stage::boundary_bytes;
use crate::wave::{bounded_search, LegOutcome, SessionCtx, WorkItem};
use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bandwidth, Bytes, FlopRate, Time};
use wsc_arch::wafer::MultiWaferConfig;
use wsc_mesh::alpha_beta::multi_hop_time;
use wsc_mesh::collective::{CollectiveAlgo, GroupShape};
use wsc_pipeline::gcmr::{gcmr, GcmrPlan};
use wsc_pipeline::onefb::{simulate, StageTiming};
use wsc_pipeline::recompute::overflow_and_spare;
use wsc_workload::memory::model_p_total;
use wsc_workload::parallel::{ParallelPlan, ParallelSpec, StageMap};
use wsc_workload::training::TrainingJob;

/// Multi-wafer evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiWaferReport {
    /// Chosen parallelism (resolved DP).
    pub parallel: ParallelSpec,
    /// The full winning plan (strategy, stage map, TP span; `dp`
    /// resolved to the scheduled value).
    pub plan: ParallelPlan,
    /// End-to-end iteration latency.
    pub iteration: Time,
    /// Useful throughput.
    pub useful_throughput: FlopRate,
    /// Throughput including recomputation.
    pub throughput: FlopRate,
    /// Fraction of p2p traffic that crosses wafer seams (always in
    /// `[0, 1]`: at most `pp − 1` of the boundaries can be seams).
    pub w2w_boundary_fraction: f64,
    /// Node-level Alg. 3 instrumentation — `None` unless the plan was
    /// evaluated with the `node_placement` knob
    /// ([`evaluate_multi_wafer_plan_placed`]).
    pub placement: Option<NodePlacementStats>,
}

/// Instrumentation of one node-level Alg. 3 pass (§VI-F): the
/// seam-extended placement climb plus cross-boundary DRAM borrowing run
/// for a single multi-wafer plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePlacementStats {
    /// Node Eq. 2 cost of the per-group serpentine seed placement.
    pub seed_cost: f64,
    /// Node Eq. 2 cost after the intra-group hill climb
    /// (≤ `seed_cost`).
    pub optimized_cost: f64,
    /// Bytes hosted remotely by Alg. 3 Sender→Helper DRAM grants.
    pub hosted_bytes: Bytes,
    /// Granted bytes whose Sender→Helper route crosses a W2W seam.
    pub seam_bytes: Bytes,
    /// Byte-weighted mean grant distance, in seam-extended hops.
    pub mean_hops: f64,
    /// Whether the placement-refined schedule beat the baseline timing
    /// and was kept — [`MultiWaferReport::iteration`] is then the
    /// refined figure; otherwise the baseline stands.
    pub kept: bool,
}

/// Price of moving `bytes` of Sender→Helper checkpoint traffic across
/// `crossings` W2W seams — the Alg. 3 cross-boundary borrow penalty.
/// Zero for intra-wafer grants; otherwise the seam's α–β transfer
/// ([`multi_hop_time`], one W2W latency per crossing): strictly monotone
/// in both the byte count and the crossing count.
pub(crate) fn seam_borrow_penalty(node: &MultiWaferConfig, bytes: Bytes, crossings: usize) -> Time {
    multi_hop_time(node.w2w_latency, crossings, bytes, node.w2w_bw)
}

/// Evaluate a fixed [`ParallelPlan`] on a multi-wafer node.
///
/// Layer profiles per `(tp, strategy)` and stage profiles per
/// `(tp, pp, strategy, microbatches)` go through `cache`, so they are
/// reused across every plan the cache has seen for this `(wafer, job)`
/// pair — including plans that differ only in stage map or TP span; a
/// one-off call passes `&ProfileCache::new()`.
pub fn evaluate_multi_wafer_plan(
    node: &MultiWaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    cache: &ProfileCache,
) -> Option<MultiWaferReport> {
    evaluate_multi_wafer_plan_impl(node, job, plan, cache, None)
}

/// [`evaluate_multi_wafer_plan`] plus the node-level Alg. 3 pass
/// (§VI-F): after the baseline evaluation, the plan's stages are
/// hill-climb placed within their wafer groups on a seam-extended
/// distance table (seeded by `seed`), Sender→Helper DRAM borrowing is
/// re-granted across the W2W boundary, and a refined schedule —
/// actual-placement p2p distances, priced activation-balance traffic
/// including the seam transfer of cross-wafer grants — is simulated. The refinement is **kept only when strictly better** than
/// the baseline (the single-wafer GA-refinement idiom), so enabling
/// placement can only shrink realized iteration time, never grow it —
/// and never drops below the analytic `node_lower_bound`, which both
/// schedules already dominate. [`MultiWaferReport::placement`] records
/// the pass.
pub fn evaluate_multi_wafer_plan_placed(
    node: &MultiWaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    cache: &ProfileCache,
    seed: u64,
) -> Option<MultiWaferReport> {
    evaluate_multi_wafer_plan_impl(node, job, plan, cache, Some(seed))
}

fn evaluate_multi_wafer_plan_impl(
    node: &MultiWaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    cache: &ProfileCache,
    placement_seed: Option<u64>,
) -> Option<MultiWaferReport> {
    let wafer = &node.wafer;
    let pp = plan.pp;
    let g = plan_geometry(wafer, node.wafers.max(1), job, plan)?;
    let (span, shape, parallel, n_mb) = (g.span, g.shape, g.parallel, g.n_mb);
    // Alg. 1 line 1–2 at node scale: exact for this evaluator, because
    // GCMR needs each stage's training state to fit its own dies.
    if memory_precheck_fails(wafer, job, plan.tp, pp) {
        return None;
    }
    let assignment = plan.stage_map.assignments(pp);
    let dp = parallel.dp;
    let stages = cache.stage_profiles(wafer, job, plan, n_mb);
    let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
    let gplan = gcmr(&inputs, wafer.dram.capacity, gcmr_quanta(pp));
    if !gplan.feasible {
        return None;
    }
    let rp = gplan.as_recompute_plan();

    let link_bw = wafer.d2d_link_bw();
    let alpha = wafer.d2d_link_latency;
    let boundary = boundary_bytes(job, &g.ctx);

    let seam = seam_step(node, span);
    let mut timings = Vec::with_capacity(pp);
    let mut w2w_boundaries = 0usize;
    for (s, sp) in stages.iter().enumerate() {
        let (fwd_comm, bwd_comm) = stage_comm_times(RING, shape, sp, link_bw, alpha, seam);
        // Stage boundary: W2W when the next stage lives on another wafer
        // group.
        let p2p = if s + 1 < pp && assignment[s + 1] != assignment[s] {
            w2w_boundaries += 1;
            multi_hop_time(node.w2w_latency, 1, boundary, node.w2w_bw)
        } else if s + 1 < pp {
            multi_hop_time(alpha, 2, boundary, link_bw)
        } else {
            Time::ZERO
        };
        timings.push(StageTiming {
            fwd: sp.fwd_compute + fwd_comm,
            bwd: sp.bwd_compute + bwd_comm + rp.recompute_time[s],
            p2p,
        });
    }
    let dp_time = dp_allreduce_time(RING, wafer, job, plan.tp, pp, dp);
    let mut iteration = simulate(&timings, n_mb) + dp_time;

    // Node-level Alg. 3 (behind the `node_placement` knob): re-place the
    // stages on the seam-extended cost model, re-grant DRAM borrowing
    // across the boundary, and keep the refined schedule only when it
    // strictly beats the baseline just computed.
    let mut placement = None;
    if let Some(seed) = placement_seed {
        let ctx_pass = NodePlacementCtx {
            node,
            assignment: &assignment,
            span,
            shape,
            boundary,
            n_mb,
            seed,
        };
        if let Some((refined, stats)) = node_placement_pass(&ctx_pass, &timings, &inputs, &gplan) {
            let refined_iteration = simulate(&refined, n_mb) + dp_time;
            let kept = refined_iteration < iteration;
            if kept {
                iteration = refined_iteration;
            }
            placement = Some(NodePlacementStats { kept, ..stats });
        }
    }

    let useful = job.flops_per_iter();
    let fwd_total: f64 = stages.iter().map(|s| s.fwd_compute.as_secs()).sum();
    let recomp_total: f64 = rp.recompute_time.iter().map(|t| t.as_secs()).sum();
    let recompute_flops = useful.scale((recomp_total / fwd_total.max(1e-12) * 0.3).min(1.0));
    Some(MultiWaferReport {
        parallel,
        plan: plan.clone().with_dp(dp),
        iteration,
        useful_throughput: useful / iteration,
        throughput: (useful + recompute_flops) / iteration,
        w2w_boundary_fraction: w2w_boundaries as f64 / (pp.max(2) - 1) as f64,
        placement,
    })
}

/// Immutable inputs of one [`node_placement_pass`].
struct NodePlacementCtx<'a> {
    node: &'a MultiWaferConfig,
    assignment: &'a [usize],
    span: usize,
    shape: GroupShape,
    boundary: Bytes,
    n_mb: usize,
    seed: u64,
}

/// The node-level Alg. 3 pass for one plan: seam-extended placement
/// climb + cross-boundary DRAM grants → refined [`StageTiming`]s and
/// the pass instrumentation (`kept` left `false`; the caller decides).
///
/// The refined schedule differs from the baseline in two ways:
///
/// * **p2p** — intra-group boundaries are priced by the optimized
///   placement's actual center distance (`α·Dist + bytes/BW`) instead
///   of the baseline's pessimistic distance-2 constant; seam boundaries
///   keep the baseline W2W price (placement cannot move the seam);
/// * **balance traffic** — every Sender→Helper grant adds its
///   per-micro-batch round trip (`2·bytes/n_mb`) to the sender's
///   backward pass: the wafer-local α–β leg plus
///   [`seam_borrow_penalty`] per seam crossing. The baseline leaves
///   this traffic unpriced, so refinement only wins where placement
///   gains genuinely outweigh honest borrow costs.
///
/// `None` when the geometry yields no slot grid or the cross-boundary
/// allocation cannot serve every sender — the baseline then stands.
fn node_placement_pass(
    ctx: &NodePlacementCtx<'_>,
    timings: &[StageTiming],
    inputs: &[wsc_pipeline::recompute::StageRecomputeInput],
    gplan: &GcmrPlan,
) -> Option<(Vec<StageTiming>, NodePlacementStats)> {
    let wafer = &ctx.node.wafer;
    let link_bw = wafer.d2d_link_bw();
    let alpha = wafer.d2d_link_latency;
    let groups = ctx.node.wafers.max(1) / ctx.span;
    // The W2W seam enters the distance table as hop equivalents sized
    // for this plan's boundary traffic: one crossing's α–β transfer over
    // one D2D hop's, floored at one hop (a seam is never cheaper than
    // staying on-wafer).
    let seam = multi_hop_time(ctx.node.w2w_latency, 1, ctx.boundary, ctx.node.w2w_bw).as_secs();
    let hop = multi_hop_time(alpha, 1, ctx.boundary, link_bw).as_secs();
    let seam_penalty = if hop <= 0.0 {
        1.0
    } else {
        (seam / hop).max(1.0)
    };
    let model = NodeCostModel::new(
        wafer.nx,
        wafer.ny,
        ctx.shape.w,
        ctx.shape.h,
        groups,
        seam_penalty,
        ctx.boundary.as_f64(),
    )?;
    // GCMR Mem_pairs (Alg. 2) become the Eq. 2 pair demands (Alg. 3).
    let pairs: Vec<PairDemand> = gplan.mem_pairs.iter().map(PairDemand::from).collect();
    let outcome = optimize_node(&model, ctx.assignment, &pairs, ctx.seed)?;
    let (overflow, spare) =
        overflow_and_spare(inputs, &gplan.as_recompute_plan(), wafer.dram.capacity);
    // Alg. 3 on the seam-extended distance: a cross-seam helper is
    // chosen only once every nearer on-wafer helper's spare is spent.
    let slots = &outcome.slots;
    let alloc = allocate_by(
        |s, h| model.dist(slots[s], slots[h]),
        |_| 0,
        &overflow,
        &spare,
    );
    if !alloc.complete() {
        return None;
    }

    let mut refined = timings.to_vec();
    // Re-price intra-group boundaries by placed distance.
    for (s, pair) in ctx.assignment.windows(2).enumerate() {
        if pair[1] == pair[0] {
            let d = model.local_dist(outcome.slots[s], outcome.slots[s + 1]);
            refined[s].p2p = alpha.scale(d) + ctx.boundary / link_bw;
        }
    }
    // Price the activation-balance round trips on the senders.
    let mut seam_bytes = Bytes::ZERO;
    for g in &alloc.grants {
        let per_mb = Bytes::new((2.0 * g.bytes.as_f64() / ctx.n_mb as f64).round() as u64);
        let (a, b) = (outcome.slots[g.sender], outcome.slots[g.helper]);
        let crossings = model.seam_hops(a, b);
        refined[g.sender].bwd += alpha.scale(model.local_dist(a, b))
            + per_mb / link_bw
            + seam_borrow_penalty(ctx.node, per_mb, crossings);
        if crossings > 0 {
            seam_bytes += g.bytes;
        }
    }
    let stats = NodePlacementStats {
        seed_cost: outcome.seed_cost,
        optimized_cost: outcome.cost,
        hosted_bytes: alloc.hosted_bytes(),
        seam_bytes,
        mean_hops: alloc.mean_hops(),
        kept: false,
    };
    Some((refined, stats))
}

/// The node leg prices every collective as a bidirectional ring
/// (`SchedulerOptions::collectives` does not apply to it).
const RING: CollectiveAlgo = CollectiveAlgo::RingBi;

/// The seam step of a TP group spanning `span` wafers of `node`, as
/// [`stage_comm_times`] takes it: `None` for intra-wafer TP.
fn seam_step(node: &MultiWaferConfig, span: usize) -> Option<(usize, Bandwidth, Time)> {
    (span > 1).then_some((span, node.w2w_bw, node.w2w_latency))
}

/// Analytic lower bound (seconds) on the iteration time of one
/// multi-wafer point: the [`pipeline_floor`] of the cached stage
/// profiles under ring collectives with the seam step for
/// `tp_span > 1`, the node evaluator's own pricing. The node evaluator
/// charges no optimizer stream, so unlike the wafer leg's bound this
/// one adds none. `None` = statically infeasible (`plan_geometry`
/// rejects the plan on this node).
///
/// The node-placement pass does not touch this bound, and needs not to:
/// both the baseline and the placement-refined schedule consist of the
/// same per-stage `fwd/bwd` (collectives priced by the same
/// [`stage_comm_times`]) plus only *non-negative* additions — recompute,
/// p2p, balance traffic, seam penalties — and the refinement is kept
/// only when strictly better than the baseline. Placement can only
/// shrink realized cost toward the bound, never through it.
fn node_lower_bound(
    node: &MultiWaferConfig,
    job: &TrainingJob,
    plan: &ParallelPlan,
    cache: &ProfileCache,
) -> Option<f64> {
    let geo = plan_geometry(&node.wafer, node.wafers.max(1), job, plan)?;
    let stages = cache.stage_profiles(&node.wafer, job, plan, geo.n_mb);
    let seam = seam_step(node, geo.span);
    Some(pipeline_floor(&node.wafer, job, &geo, &stages, RING, seam))
}

/// The stage-map family one `(span, tp, pp)` point emits, as
/// `(map, variant)` pairs; `variant` joins the span in the work-item's
/// `pidx` so every plan in the work-list has a unique deterministic
/// tie-break key. Variant 0 is always the balanced map; with uneven
/// maps enabled and a remainder to place, variants `1..=groups` are the
/// [`StageMap::remainder_shifted`] family. A shifted member whose
/// resolved assignment coincides with the balanced layout (shift 0
/// does, exactly when `pp % groups == groups - 1`) is skipped — it
/// would be the same configuration evaluated twice.
fn stage_map_family(pp: usize, groups: usize, filter: &PlanFilter) -> Vec<(StageMap, usize)> {
    let balanced = StageMap::Balanced { wafers: groups };
    let balanced_assignment = balanced.assignments(pp);
    let mut family = vec![(balanced, 0usize)];
    if filter.uneven_stage_maps && groups > 1 && pp > groups && !pp.is_multiple_of(groups) {
        for shift in 0..groups {
            let shifted = StageMap::remainder_shifted(pp, groups, shift);
            if shifted.assignments(pp) != balanced_assignment {
                family.push((shifted, shift + 1));
            }
        }
    }
    family
}

/// The §VI-F work-list of `node`. The baseline plan space — intra-wafer
/// TP degrees that embed in one wafer, PP in multiples of the wafer
/// count with balanced stage maps, every strategy in `opts.strategies`
/// — is exactly the seed-era `TP × PP × strategy` sweep. `opts.plans`
/// enlarges it: cross-wafer TP adds a `tp_span` axis over the divisors
/// of the wafer count (per-wafer degrees scaled by the span), and uneven
/// stage maps add every PP plus the remainder-shift family of explicit
/// maps. [`WorkItem::decided`] marks points the per-die
/// aggregate-memory precheck alone decides; they are never profiled in
/// either sweep mode. Empty when modelP cannot fit the node's total
/// DRAM.
pub(crate) fn node_work_list(
    node: &MultiWaferConfig,
    job: &TrainingJob,
    opts: &SchedulerOptions,
) -> Vec<WorkItem> {
    let mut items: Vec<WorkItem> = Vec::new();
    // Aggregate-memory precheck at the node level: if modelP cannot fit
    // the node's total DRAM, no plan can help.
    if model_p_total(&job.model).as_f64() > node.total_dram().as_f64() {
        return items;
    }
    let dies = node.total_dies();
    let wafers = node.wafers.max(1);

    // TP spans to explore: intra-wafer always; with cross-wafer TP
    // enabled, every divisor of the wafer count (TP groups span whole
    // wafers and wafer groups partition the node).
    let spans: Vec<usize> = (1..=wafers)
        .filter(|&k| k == 1 || (opts.plans.cross_wafer_tp && wafers.is_multiple_of(k)))
        .collect();

    // The precheck quantity (`modelP / (tp·pp)` vs per-die DRAM) is
    // independent of stage map and TP span, so one verdict decides the
    // whole plan family of a `(tp, pp)` pair.
    for span in spans {
        let groups = wafers / span;
        // Balanced-only sweeps keep PP in multiples of the group count
        // (the seed-era shape); uneven maps open up every PP.
        let step = if opts.plans.uneven_stage_maps {
            1
        } else {
            groups
        };
        for tp_local in tp_candidates(&node.wafer, opts) {
            // An explicit candidate can be large enough that its span
            // overflows; no node holds such a group.
            let Some(tp) = tp_local.checked_mul(span) else {
                continue;
            };
            let max_pp = (dies / tp.max(1)).min(job.model.layers);
            for pp in (step..=max_pp).step_by(step) {
                // Skip configurations that strand more than half the node.
                if tp * pp < dies / 2 {
                    continue;
                }
                let decided = memory_precheck_fails(&node.wafer, job, tp, pp);
                for (map, variant) in stage_map_family(pp, groups, &opts.plans) {
                    // Unique per (tp, pp, sidx): spans collide on `tp`
                    // (intra TP=4 vs 2×2 cross TP=4), so the span joins
                    // the variant in the key. Lower spans and the
                    // balanced map win ties.
                    let pidx = span * (wafers + 1) + variant;
                    for (sidx, &strategy) in opts.strategies.iter().enumerate() {
                        items.push(WorkItem {
                            plan: ParallelPlan {
                                dp: 0,
                                tp,
                                pp,
                                strategy,
                                stage_map: map.clone(),
                                tp_span: span,
                            },
                            sidx,
                            pidx,
                            decided,
                        });
                    }
                }
            }
        }
    }
    items
}

/// Implementation of the multi-wafer search (driven by
/// [`crate::Explorer`]).
///
/// The [`node_work_list`] runs through the one search-leg loop
/// (`crate::wave::bounded_search`), honoring `opts.prune` exactly like
/// the single-wafer search and ranking by clean iteration time. The
/// result — winner *and* `SearchStats` — is identical to the exhaustive
/// sweep (`prune: false`) on one worker up to the instrumentation
/// counters, and byte-identical across pool sizes. With the
/// `node_placement` knob on, every evaluated plan gets the node-level
/// Alg. 3 pass (seeded by `opts.seed`, so the sweep stays a pure
/// deterministic function of its inputs); the bound is unchanged — the
/// refined schedule still dominates it, see [`node_lower_bound`].
/// Returns the leg outcome and the counters of the leg's profile cache,
/// which the leg drops.
pub(crate) fn explore_multi_wafer_impl(
    node: &MultiWaferConfig,
    job: &TrainingJob,
    opts: &SchedulerOptions,
    ctx: &SessionCtx<'_>,
) -> (LegOutcome<(MultiWaferReport, f64)>, CacheStats) {
    let items = node_work_list(node, job, opts);
    let (leg, cache) = bounded_search(
        &items,
        opts.prune,
        ctx,
        |it, cache| node_lower_bound(node, job, &it.plan, cache),
        |it, cache| {
            let seed = opts.node_placement.then_some(opts.seed);
            evaluate_multi_wafer_plan_impl(node, job, &it.plan, cache, seed)
        },
        |r, _, _| r.iteration.as_secs(),
    );
    (leg, cache.stats())
}

/// Binomial coefficient `C(n, k)` as an f64 (exact for the wafer counts
/// a node can have — well inside the 2^53 integer range).
fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k.min(n));
    let mut c = 1.0f64;
    for i in 0..k {
        c = c * (n - i) as f64 / (i + 1) as f64;
    }
    c
}

/// The [`FaultKind::Wafer`](crate::robust::FaultKind) sweep over a
/// multi-wafer winner: whole-wafer loss with graceful degradation.
///
/// Each wafer independently survives with probability `1 − rate`. The
/// baseline policy needs every wafer of the winning plan alive — its
/// expected normalized throughput is `(1 − rate)^wafers`. The robust
/// policy re-balances the winner's pipeline onto each possible survivor
/// count `k`: the winner's `pp` plus proportionally shrunken depths
/// (`pp·k/wafers`, both roundings — a winner that saturates its
/// per-wafer stage slots cannot keep its full depth on fewer wafers),
/// each over the balanced map plus the
/// [`StageMap::remainder_shifted`] family of explicit maps, best kept.
/// The expectation is taken *exactly* over the binomial survivor
/// distribution — no Monte Carlo, so the sweep is trivially
/// deterministic. Wafer identity never matters: every candidate map is
/// identity-agnostic, only the survivor count enters the evaluation.
pub(crate) fn wafer_loss_sweep_impl(
    node: &MultiWaferConfig,
    job: &TrainingJob,
    best: &MultiWaferReport,
    rates: &[f64],
) -> Vec<crate::robust::FaultPoint> {
    let cache = ProfileCache::new();
    let wafers = node.wafers.max(1);
    let clean_tp = best.useful_throughput.as_f64().max(1e-9);
    let clean_secs = best.iteration.as_secs();
    let all = PlanFilter::all();
    // Best rebalanced normalized throughput on k surviving wafers,
    // computed once per k and shared by every rate. `survivors[k - 1]`
    // is 0.0 when no re-balanced plan fits k wafers.
    let survivors: Vec<f64> = (1..=wafers)
        .map(|k| {
            if k == wafers {
                return 1.0;
            }
            let mut sub = node.clone();
            sub.wafers = k;
            let pp = best.plan.pp;
            // Keep the winner's depth when it still fits, and offer the
            // proportionally shrunken depths: a winner that saturates
            // its per-wafer stage slots (e.g. TP=14/PP=16 on 4 Config-3
            // wafers — exactly 4 tile slots per wafer) cannot host
            // `pp` stages on fewer wafers under *any* stage map.
            let mut pps = vec![pp, (pp * k).div_ceil(wafers), (pp * k) / wafers];
            pps.sort_unstable();
            pps.dedup();
            // Keep the winner's TP span when it still divides the
            // survivor count; an intra-wafer fallback is always tried.
            let mut spans = vec![1usize];
            if best.plan.tp_span > 1 && k.is_multiple_of(best.plan.tp_span) {
                spans.push(best.plan.tp_span);
            }
            let mut best_tp = 0.0f64;
            for &pp_k in &pps {
                if pp_k == 0 {
                    continue;
                }
                for &span in &spans {
                    let groups = k / span;
                    for (map, _) in stage_map_family(pp_k, groups, &all) {
                        let plan = ParallelPlan {
                            pp: pp_k,
                            stage_map: map,
                            tp_span: span,
                            ..best.plan.clone()
                        };
                        if let Some(r) = evaluate_multi_wafer_plan(&sub, job, &plan, &cache) {
                            best_tp = best_tp.max(r.useful_throughput.as_f64() / clean_tp);
                        }
                    }
                }
            }
            best_tp
        })
        .collect();
    rates
        .iter()
        .map(|&rate| {
            let q = (1.0 - rate).clamp(0.0, 1.0);
            let mut robust = 0.0f64;
            for (k, &tp_k) in survivors.iter().enumerate() {
                let k = k + 1;
                let p =
                    binomial(wafers, k) * q.powi(k as i32) * (1.0 - q).powi((wafers - k) as i32);
                robust += p * tp_k;
            }
            let baseline = q.powi(wafers as i32);
            crate::robust::FaultPoint {
                rate,
                robust,
                baseline,
                robust_iteration_secs: if robust > 0.0 {
                    clean_secs / robust
                } else {
                    0.0
                },
                baseline_iteration_secs: if baseline > 0.0 {
                    clean_secs / baseline
                } else {
                    0.0
                },
                link_faults: 0,
                die_faults: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SearchStats;
    use crate::testutil::{assert_bound_sound, on_one_worker};
    use wsc_arch::presets;
    use wsc_workload::parallel::TpSplitStrategy;
    use wsc_workload::zoo;

    /// The pre-engine search options: SequenceParallel only, matching the
    /// hardcoded strategy of the original sequential sweep.
    fn seq_par_opts() -> SchedulerOptions {
        SchedulerOptions {
            strategies: vec![TpSplitStrategy::SequenceParallel],
            ..SchedulerOptions::default()
        }
    }

    /// One node search leg, its winner's score and cache stats dropped.
    fn search(
        node: &MultiWaferConfig,
        job: &TrainingJob,
        opts: &SchedulerOptions,
    ) -> LegOutcome<MultiWaferReport> {
        let (leg, _) = explore_multi_wafer_impl(node, job, opts, &SessionCtx::none());
        LegOutcome {
            best: leg.best.map(|(r, _)| r),
            stats: leg.stats,
            outcome: leg.outcome,
            failures: leg.failures,
        }
    }

    fn best_of(node: &MultiWaferConfig, job: &TrainingJob) -> Option<MultiWaferReport> {
        search(node, job, &seq_par_opts()).best
    }

    #[test]
    fn deepseek_fits_four_wafers_not_one() {
        let node = presets::multi_wafer_18();
        let job = TrainingJob::standard(zoo::deepseek_v3());
        // Single wafer: pruned (see scheduler tests); 4 wafers: feasible.
        let r = best_of(&node, &job).expect("fits 4 wafers");
        assert!(r.iteration.is_finite());
    }

    #[test]
    fn llama405b_spans_two_wafers_worth_of_memory() {
        let node = presets::multi_wafer_18();
        let job = TrainingJob::standard(zoo::llama3_405b());
        let r = best_of(&node, &job).expect("schedulable");
        assert!(r.w2w_boundary_fraction > 0.0, "must cross wafer seams");
        assert!(
            r.w2w_boundary_fraction < 0.5,
            "most boundaries stay on-wafer"
        );
    }

    #[test]
    fn low_w2w_bandwidth_still_works_but_slower_or_equal() {
        let fast = presets::multi_wafer_18();
        let slow = presets::multi_wafer_4();
        let job = TrainingJob::standard(zoo::gpt_175b());
        let rf = best_of(&fast, &job).expect("fast");
        let rs = best_of(&slow, &job).expect("slow");
        assert!(rs.iteration.as_secs() >= rf.iteration.as_secs() * 0.999);
    }

    #[test]
    fn infeasible_pp_combo_rejected() {
        let node = presets::multi_wafer_18();
        let job = TrainingJob::standard(zoo::gpt_175b());
        assert!(evaluate_multi_wafer_plan(
            &node,
            &job,
            &ParallelPlan::balanced(4, 1000, TpSplitStrategy::SequenceParallel, node.wafers),
            &ProfileCache::new(),
        )
        .is_none());
    }

    #[test]
    fn stage_map_family_never_duplicates_balanced() {
        // remainder_shifted(pp, g, 0) coincides with the Balanced layout
        // exactly when pp % g == g - 1 (e.g. pp=15, g=4: both [4,4,4,3]);
        // the family must not evaluate that configuration twice.
        let all = PlanFilter::all();
        for groups in 2..=4usize {
            for pp in groups + 1..=32 {
                let family = stage_map_family(pp, groups, &all);
                let mut layouts: Vec<Vec<usize>> =
                    family.iter().map(|(m, _)| m.assignments(pp)).collect();
                let n = layouts.len();
                layouts.sort();
                layouts.dedup();
                assert_eq!(
                    layouts.len(),
                    n,
                    "duplicate layout at pp={pp} groups={groups}"
                );
            }
        }
        // pp=15 over 4 groups: balanced + 3 distinct shifts (shift 0
        // collides with balanced and is skipped).
        assert_eq!(stage_map_family(15, 4, &all).len(), 4);
    }

    #[test]
    fn invalid_plans_are_rejected_by_geometry() {
        let node = presets::multi_wafer_18(); // 4 wafers
        let job = TrainingJob::standard(zoo::gpt_175b());
        // tp_span must divide tp.
        let p = ParallelPlan::balanced(6, 8, TpSplitStrategy::SequenceParallel, 2).with_tp_span(4);
        assert!(evaluate_multi_wafer_plan(&node, &job, &p, &ProfileCache::new()).is_none());
        // tp_span must divide the wafer count.
        let p = ParallelPlan::balanced(9, 8, TpSplitStrategy::SequenceParallel, 1).with_tp_span(3);
        assert!(evaluate_multi_wafer_plan(&node, &job, &p, &ProfileCache::new()).is_none());
        // Explicit map of the wrong length.
        let p = ParallelPlan::intra(4, 8, TpSplitStrategy::SequenceParallel)
            .with_stage_map(StageMap::Explicit(vec![0, 0, 1, 1]));
        assert!(evaluate_multi_wafer_plan(&node, &job, &p, &ProfileCache::new()).is_none());
        // Explicit map using more groups than the node has.
        let p = ParallelPlan::intra(4, 8, TpSplitStrategy::SequenceParallel)
            .with_stage_map(StageMap::Explicit(vec![0, 0, 1, 1, 2, 2, 3, 4]));
        assert!(evaluate_multi_wafer_plan(&node, &job, &p, &ProfileCache::new()).is_none());
    }

    #[test]
    fn cross_wafer_tp_prices_the_seam() {
        // The same (tp, pp) with a 2-wafer TP span must pay the W2W link
        // in its collectives: with a crippled seam the cross plan slows
        // down while the intra plan is untouched.
        let fast = presets::multi_wafer_18();
        let mut slow = fast.clone();
        slow.w2w_bw = wsc_arch::units::Bandwidth::gb_per_s(10.0);
        slow.w2w_latency = Time::from_millis(1.0);
        let job = TrainingJob::standard(zoo::llama3_405b());
        let cross =
            ParallelPlan::balanced(8, 28, TpSplitStrategy::SequenceParallel, 2).with_tp_span(2);
        let intra = ParallelPlan::balanced(8, 28, TpSplitStrategy::SequenceParallel, 4);
        let (cf, cs) = (
            evaluate_multi_wafer_plan(&fast, &job, &cross, &ProfileCache::new())
                .expect("cross feasible"),
            evaluate_multi_wafer_plan(&slow, &job, &cross, &ProfileCache::new())
                .expect("cross feasible"),
        );
        assert!(
            cs.iteration.as_secs() > cf.iteration.as_secs() * 1.01,
            "cross-wafer TP must feel the seam: {} vs {}",
            cs.iteration,
            cf.iteration
        );
        let (ifa, isl) = (
            evaluate_multi_wafer_plan(&fast, &job, &intra, &ProfileCache::new()),
            evaluate_multi_wafer_plan(&slow, &job, &intra, &ProfileCache::new()),
        );
        // Intra-wafer TP collectives never touch the seam; only the
        // (few) boundary p2p transfers do.
        if let (Some(a), Some(b)) = (ifa, isl) {
            let tp_penalty = cs.iteration.as_secs() / cf.iteration.as_secs();
            let p2p_penalty = b.iteration.as_secs() / a.iteration.as_secs();
            assert!(
                tp_penalty > p2p_penalty,
                "TP collectives must dominate the seam cost: {tp_penalty} vs {p2p_penalty}"
            );
        }
    }

    #[test]
    fn enlarged_plan_space_never_loses_to_baseline() {
        // The PlanFilter axes only ever add candidates, so the enlarged
        // search can never return a slower winner.
        let node = presets::multi_wafer_4();
        let job = TrainingJob::standard(zoo::llama3_405b());
        let base = search(&node, &job, &SchedulerOptions::default())
            .best
            .expect("baseline feasible");
        let enlarged = search(
            &node,
            &job,
            &SchedulerOptions {
                plans: PlanFilter::all(),
                ..SchedulerOptions::default()
            },
        )
        .best
        .expect("enlarged feasible");
        assert!(
            enlarged.iteration.as_secs() <= base.iteration.as_secs(),
            "superset search lost: {} vs {}",
            enlarged.iteration,
            base.iteration
        );
    }

    #[test]
    fn pruned_search_matches_exhaustive_sweep() {
        // The engine invariant, at the multi-wafer level: prune+parallel,
        // prune on one worker and no-prune on one worker return the same
        // winner; pruning only changes the instrumentation counters.
        let node = presets::multi_wafer_18();
        let job = TrainingJob::standard(zoo::llama3_405b());
        let pruned = search(&node, &job, &seq_par_opts());
        let pruned_seq = on_one_worker(|| search(&node, &job, &seq_par_opts()));
        let exhaustive = on_one_worker(|| {
            search(
                &node,
                &job,
                &SchedulerOptions {
                    prune: false,
                    ..seq_par_opts()
                },
            )
        });
        assert_eq!(pruned.best, pruned_seq.best);
        assert_eq!(pruned.stats, pruned_seq.stats);
        assert_eq!(pruned.best, exhaustive.best);
        assert_eq!(pruned.stats.visited, exhaustive.stats.visited);
        assert!(pruned.stats.pruned > 0, "{:?}", pruned.stats);
        assert_eq!(exhaustive.stats.pruned, 0);
        assert_eq!(exhaustive.stats.evaluated, exhaustive.stats.visited);
    }

    #[test]
    fn strategies_are_enumerated() {
        // With both strategies in play the winner must never be worse
        // than either single-strategy sweep (it searches a superset).
        let node = presets::multi_wafer_18();
        let job = TrainingJob::standard(zoo::llama3_405b());
        let both = search(&node, &job, &SchedulerOptions::default())
            .best
            .expect("feasible");
        for strategy in [TpSplitStrategy::Megatron, TpSplitStrategy::SequenceParallel] {
            let single = search(
                &node,
                &job,
                &SchedulerOptions {
                    strategies: vec![strategy],
                    ..SchedulerOptions::default()
                },
            )
            .best;
            if let Some(single) = single {
                assert!(
                    both.iteration.as_secs() <= single.iteration.as_secs(),
                    "superset search lost to {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn bound_is_sound_over_whole_work_lists() {
        // Every undecided item of the full plan space, with the Alg. 3
        // pass on: the placed iteration is the lesser of the baseline
        // and the refined schedule, so both must respect the bound, and
        // a plan without a bound must not evaluate.
        let node = presets::multi_wafer_4();
        let job = TrainingJob::standard(zoo::gpt_175b());
        let opts = SchedulerOptions {
            plans: PlanFilter::all(),
            node_placement: true,
            ..SchedulerOptions::default()
        };
        let cache = ProfileCache::new();
        let mut scheduled = 0;
        for it in node_work_list(&node, &job, &opts)
            .iter()
            .filter(|it| !it.decided)
        {
            let bound = node_lower_bound(&node, &job, &it.plan, &cache);
            let score = evaluate_multi_wafer_plan_placed(&node, &job, &it.plan, &cache, opts.seed)
                .map(|r| r.iteration.as_secs());
            scheduled += usize::from(assert_bound_sound(&it.plan, bound, score));
        }
        assert!(scheduled > 0, "no plan evaluated: the check is vacuous");
    }

    #[test]
    fn search_stats_are_consistent() {
        let node = presets::multi_wafer_18();
        let job = TrainingJob::standard(zoo::llama3_405b());
        let out = search(&node, &job, &SchedulerOptions::default());
        let s = out.stats;
        assert!(s.visited > 0);
        assert_eq!(s.visited, s.pruned + s.evaluated);
        assert!(s.evaluated > 0, "the winner must have been evaluated");
    }

    #[test]
    fn oversized_model_yields_empty_stats() {
        // A model larger than the whole node's DRAM is decided at the
        // aggregate precheck before the work-list is even built.
        let mut node = presets::multi_wafer_18();
        node.wafers = 1;
        let mut model = zoo::deepseek_v3();
        model.layers *= 8;
        let job = TrainingJob::standard(model);
        let out = search(&node, &job, &SchedulerOptions::default());
        assert!(out.best.is_none());
        assert_eq!(out.stats, SearchStats::default());
    }

    #[test]
    fn pp_not_divisible_by_wafers_is_evaluable() {
        // per_wafer = ceil(pp / wafers): the remainder lands on the early
        // wafers and the seam accounting must stay within [0, 1].
        let node = presets::multi_wafer_18(); // 4 wafers
        let job = TrainingJob::standard(zoo::gpt_175b());
        let mut evaluated = 0;
        for pp in [14, 27, 54] {
            // pp % 4 != 0 for any of these.
            if let Some(r) = evaluate_multi_wafer_plan(
                &node,
                &job,
                &ParallelPlan::balanced(4, pp, TpSplitStrategy::SequenceParallel, node.wafers),
                &ProfileCache::new(),
            ) {
                evaluated += 1;
                assert!((0.0..=1.0).contains(&r.w2w_boundary_fraction), "pp={pp}");
                assert_eq!(r.parallel.pp, pp);
            }
        }
        // The remainder-stage path must actually be reachable, or this
        // test is vacuous.
        assert!(evaluated > 0, "no non-divisible pp evaluated at all");
    }

    #[test]
    fn wafer_loss_sweep_degrades_gracefully() {
        let node = presets::multi_wafer_18(); // 4 wafers
        let job = TrainingJob::standard(zoo::llama3_405b());
        let best = best_of(&node, &job).expect("feasible");
        let pts = wafer_loss_sweep_impl(&node, &job, &best, &[0.0, 0.1, 0.3]);
        // Zero loss: both policies at the clean throughput.
        assert!((pts[0].robust - 1.0).abs() < 1e-12);
        assert_eq!(pts[0].robust, pts[0].baseline);
        for p in &pts {
            assert!(p.robust >= p.baseline - 1e-12, "rate {}", p.rate);
            assert!((0.0..=1.0 + 1e-9).contains(&p.robust), "rate {}", p.rate);
            assert!(p.baseline >= 0.0);
            assert_eq!(p.link_faults, 0);
            assert_eq!(p.die_faults, 0);
        }
        // The model spans two wafers' worth of memory, so 3 (and maybe 2)
        // survivors still host a re-balanced pipeline: at a 30% loss rate
        // the graceful-degradation curve clearly beats all-or-nothing.
        assert!(
            pts[2].robust > pts[2].baseline * 1.05,
            "robust {} vs baseline {}",
            pts[2].robust,
            pts[2].baseline
        );
        // Expected effective seconds grow as the loss rate climbs.
        assert!(pts[2].robust_iteration_secs > pts[0].robust_iteration_secs);
    }

    #[test]
    fn seam_borrow_penalty_is_monotone_and_free_on_wafer() {
        let node = presets::multi_wafer_18();
        // Intra-wafer grants never pay the seam.
        assert_eq!(seam_borrow_penalty(&node, Bytes::gib(4), 0), Time::ZERO);
        // Strictly monotone in borrowed bytes…
        let mut prev = Time::ZERO;
        for gib in [1u64, 2, 4, 8, 16] {
            let t = seam_borrow_penalty(&node, Bytes::gib(gib), 1);
            assert!(
                t.as_secs() > prev.as_secs(),
                "penalty must grow with borrowed bytes"
            );
            prev = t;
        }
        // …and in seam crossings.
        let b = Bytes::gib(2);
        assert!(
            seam_borrow_penalty(&node, b, 2).as_secs() > seam_borrow_penalty(&node, b, 1).as_secs()
        );
    }

    #[test]
    fn node_placement_pass_never_regresses_a_plan() {
        let node = presets::multi_wafer_18();
        let job = TrainingJob::standard(zoo::llama3_405b());
        let cache = ProfileCache::new();
        for plan in [
            ParallelPlan::balanced(8, 28, TpSplitStrategy::SequenceParallel, 4),
            ParallelPlan::balanced(8, 28, TpSplitStrategy::SequenceParallel, 2).with_tp_span(2),
        ] {
            let base = evaluate_multi_wafer_plan(&node, &job, &plan, &cache).expect("feasible");
            let placed =
                evaluate_multi_wafer_plan_placed(&node, &job, &plan, &cache, 7).expect("feasible");
            // Keep-if-strictly-better: placement can only shrink the
            // realized iteration, never grow it.
            assert!(
                placed.iteration.as_secs() <= base.iteration.as_secs(),
                "placement regressed: {} vs {}",
                placed.iteration,
                base.iteration
            );
            assert!(base.placement.is_none(), "knob off → no stats");
            if let Some(stats) = &placed.placement {
                assert!(stats.optimized_cost <= stats.seed_cost, "climb regressed");
                if stats.kept {
                    assert!(placed.iteration.as_secs() < base.iteration.as_secs());
                } else {
                    assert_eq!(placed.iteration, base.iteration);
                }
            } else {
                assert_eq!(placed.iteration, base.iteration);
            }
            // Deterministic in the seed.
            let again =
                evaluate_multi_wafer_plan_placed(&node, &job, &plan, &cache, 7).expect("feasible");
            assert_eq!(placed, again, "placed evaluation must be reproducible");
            // Plan identity and seam accounting are untouched.
            assert_eq!(placed.plan, base.plan);
            assert_eq!(placed.parallel, base.parallel);
            assert_eq!(placed.w2w_boundary_fraction, base.w2w_boundary_fraction);
        }
    }

    #[test]
    fn node_placement_search_never_loses_to_baseline() {
        let node = presets::multi_wafer_18();
        let job = TrainingJob::standard(zoo::llama3_405b());
        let base = search(&node, &job, &seq_par_opts()).best.expect("feasible");
        let placed = search(
            &node,
            &job,
            &SchedulerOptions {
                node_placement: true,
                ..seq_par_opts()
            },
        )
        .best
        .expect("feasible");
        assert!(
            placed.iteration.as_secs() <= base.iteration.as_secs(),
            "node placement lost to the baseline: {} vs {}",
            placed.iteration,
            base.iteration
        );
        assert!(
            placed.placement.is_some(),
            "winner must surface its Alg. 3 stats"
        );
        assert!(base.placement.is_none());
    }

    #[test]
    fn placed_pruned_search_matches_exhaustive_sweep() {
        // The engine invariant holds over the node-placement axis too.
        let node = presets::multi_wafer_4();
        let job = TrainingJob::standard(zoo::llama3_405b());
        let opts = SchedulerOptions {
            node_placement: true,
            ..seq_par_opts()
        };
        let pruned = search(&node, &job, &opts);
        let exhaustive = on_one_worker(|| {
            search(
                &node,
                &job,
                &SchedulerOptions {
                    prune: false,
                    ..opts.clone()
                },
            )
        });
        assert_eq!(pruned.best, exhaustive.best);
        assert_eq!(pruned.stats.visited, exhaustive.stats.visited);
        assert_eq!(exhaustive.stats.pruned, 0);
    }

    #[test]
    fn single_wafer_node_never_crosses_seams() {
        // wafers = 1 degenerates to a single-wafer pipeline: no stage
        // boundary can be a seam, and the W2W link parameters must not
        // influence the result at all.
        let base = presets::multi_wafer_18();
        let mut one = base.clone();
        one.wafers = 1;
        let mut one_slow = one.clone();
        one_slow.w2w_bw = wsc_arch::units::Bandwidth::gb_per_s(1.0);
        one_slow.w2w_latency = Time::from_millis(10.0);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let opts = SchedulerOptions::default();
        let r = search(&one, &job, &opts).best.expect("fits one wafer");
        let r_slow = search(&one_slow, &job, &opts).best.expect("fits one wafer");
        assert_eq!(r.w2w_boundary_fraction, 0.0);
        assert_eq!(r, r_slow, "W2W parameters must be irrelevant at wafers=1");
        // The node-placement pass keeps that property: one group means
        // zero seam hops in every distance and zero borrow crossings.
        let placed_opts = SchedulerOptions {
            node_placement: true,
            ..opts
        };
        let p = search(&one, &job, &placed_opts)
            .best
            .expect("fits one wafer");
        let p_slow = search(&one_slow, &job, &placed_opts)
            .best
            .expect("fits one wafer");
        assert_eq!(
            p, p_slow,
            "W2W parameters must stay irrelevant at wafers=1 with placement on"
        );
    }
}
