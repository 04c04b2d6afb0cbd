//! The one bounded search-leg loop behind both design-space sweeps:
//! the single-wafer Alg. 1 search (`crate::scheduler::explore_impl`) and
//! the §VI-F multi-wafer node search (`crate::multiwafer`).
//!
//! Both searches have the same shape — flatten a `TP × PP × strategy`
//! space into a work-list, compute an analytic lower bound per point,
//! sort by bound, and evaluate in deterministic parallel waves, letting
//! the incumbent best prune every remaining point whose bound it beats.
//! [`bounded_search`] owns that shape once — the leg's [`ProfileCache`],
//! the bound phase, the waves and the outcome — so a leg supplies only
//! its work-list, its bound and its evaluator, and the two searches can
//! never drift apart on determinism or pruning semantics:
//!
//! * **Determinism.** Pruning decisions consult only the incumbent from
//!   *completed* waves, wave boundaries are fixed (independent of the
//!   thread count and the machine), and ties are resolved by the
//!   smallest `(tp, pp, strategy index)` key — so the winner *and* the
//!   [`SearchStats`] counters are byte-identical across thread counts
//!   and identical to the exhaustive sequential sweep (modulo the
//!   counters, which legitimately differ when pruning is disabled).
//! * **Soundness.** A point is pruned only when its bound *strictly*
//!   exceeds the incumbent score; a point whose bound equals the
//!   incumbent could still tie and win on the key, so it is never
//!   pruned. Every bound is first lowered by [`BOUND_MARGIN`] so float
//!   rounding cannot lift a bound above the score it bounds, and debug
//!   builds check `bound <= score` on every evaluated candidate.
//! * **Ramped waves.** Wave widths ramp `1, 2, 4, 8, 16, 16, …`
//!   ([`SEARCH_WAVE`] caps the width). The first wave used to evaluate
//!   16 points with no incumbent at all; since the work-list is sorted
//!   by lower bound, the very first point is usually the winner, and the
//!   measured cost of the search is dominated by those no-incumbent
//!   evaluations (the GPT-175B preset spent ~1.0 s of its 1.1 s there).
//!   Ramping evaluates 1 point, then prunes with it — the schedule is
//!   still fixed, so determinism is unaffected.
//!
//! ## The resilience layer
//!
//! The engine is *anytime*: a [`SearchBudget`] is checked at every wave
//! boundary, and when a limit trips the search returns its deterministic
//! best-so-far incumbent with [`Outcome::Truncated`] and honest
//! [`SearchStats`] (the unexamined tail is counted as `skipped`, never
//! silently folded into `pruned`). Each candidate evaluation runs under
//! `catch_unwind`, so a panicking candidate becomes a per-item
//! [`CandidateFailure`] record instead of tearing down the search — and
//! since a failed candidate produces no score, it can never be the
//! winner. Every `N` completed waves the engine can emit a
//! [`WaveCheckpoint`] through a pluggable sink; resuming from one
//! restores the cursor, the counters and the failure log, re-derives the
//! incumbent by re-evaluating its key (evaluation is a pure function),
//! and provably converges to the same winner as the uninterrupted run.
//! A run with no budget, no injection and no checkpointing takes none of
//! these paths and is byte-identical to the pre-resilience engine.

use crate::cache::ProfileCache;
use crate::inject::Injection;
use crate::scheduler::SchedulerOptions;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wsc_workload::parallel::ParallelPlan;

/// Instrumentation of one bounded search: how much of the
/// `TP × PP × strategy` space was actually scheduled.
///
/// `visited = pruned + evaluated + skipped` always holds (`skipped` is
/// nonzero only when a [`SearchBudget`] truncated the run). Counts are
/// deterministic — independent of thread count and of sequential vs
/// parallel execution — because pruning decisions are taken against the
/// incumbent from *completed* waves only. The one exception is a
/// wall-clock deadline: *where* a deadline lands is inherently machine-
/// dependent, so a deadline-truncated run promises honest counters and a
/// valid best-so-far, not cross-machine byte-identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Work-list points enumerated (feasible tile shapes × strategies).
    pub visited: usize,
    /// Points skipped without full scheduling (aggregate-memory precheck
    /// or lower bound above the incumbent).
    pub pruned: usize,
    /// Points sent through the evaluation path. In the pruned mode these
    /// are fully scheduled; in the exhaustive mode (`prune: false`,
    /// where by definition nothing may be skipped) the count also
    /// includes memory-precheck-decided points, which return infeasible
    /// from the evaluation path without ever being profiled.
    pub evaluated: usize,
    /// Points never examined because a [`SearchBudget`] truncated the
    /// search first. Always zero on a [`Outcome::Complete`] run.
    pub skipped: usize,
}

impl SearchStats {
    /// Component-wise sum (for aggregating per-candidate stats).
    pub fn merge(self, other: SearchStats) -> SearchStats {
        SearchStats {
            visited: self.visited + other.visited,
            pruned: self.pruned + other.pruned,
            evaluated: self.evaluated + other.evaluated,
            skipped: self.skipped + other.skipped,
        }
    }
}

/// Resource limits for an anytime search, checked at every wave
/// boundary. A wave already in flight completes before a limit is
/// honored, so overshoot is bounded by one wave width
/// (`SEARCH_WAVE`). The default has no limits: the search runs to
/// completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchBudget {
    /// Wall-clock budget in seconds for the whole `Explorer` run (all
    /// legs share one deadline). `None` = unlimited. Deadline placement
    /// is inherently machine-dependent; see [`SearchStats`].
    pub deadline: Option<f64>,
    /// Maximum candidate evaluations per search leg. Deterministic: the
    /// same limit truncates at the same wave on every machine and thread
    /// count.
    pub max_evaluations: Option<usize>,
    /// Early-stop once this fraction of the leg's visited space has been
    /// pruned: with the work-list sorted by lower bound, a dominant
    /// incumbent rules out most of the space quickly, and past this
    /// threshold further waves rarely change the winner. Deterministic.
    pub max_pruned_ratio: Option<f64>,
}

impl SearchBudget {
    /// No limits (the default).
    pub fn none() -> Self {
        SearchBudget::default()
    }

    /// Set the wall-clock budget in seconds.
    pub fn deadline(mut self, secs: f64) -> Self {
        self.deadline = Some(secs);
        self
    }

    /// Set the per-leg evaluation cap.
    pub fn max_evaluations(mut self, n: usize) -> Self {
        self.max_evaluations = Some(n);
        self
    }

    /// Set the per-leg pruned-ratio early-stop threshold.
    pub fn max_pruned_ratio(mut self, ratio: f64) -> Self {
        self.max_pruned_ratio = Some(ratio);
        self
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_evaluations.is_some() || self.max_pruned_ratio.is_some()
    }
}

/// Which [`SearchBudget`] limit truncated a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TruncationReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The evaluation cap was reached.
    MaxEvaluations,
    /// The pruned-ratio early-stop threshold was crossed.
    PrunedRatio,
}

/// Whether a search leg ran to completion or was truncated by its
/// [`SearchBudget`]. A truncated leg still returns its deterministic
/// best-so-far incumbent and honest [`SearchStats`]; `Complete` is the
/// seed-era behavior and the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Every work-list point was either evaluated or soundly pruned.
    #[default]
    Complete,
    /// A budget limit tripped; the unexamined tail is counted in
    /// [`SearchStats::skipped`].
    Truncated {
        /// Which limit tripped.
        reason: TruncationReason,
    },
}

impl Outcome {
    /// Whether this leg was truncated.
    pub fn is_truncated(&self) -> bool {
        matches!(self, Outcome::Truncated { .. })
    }
}

/// The serde-able form of a work item's deterministic tie-break key
/// (see `WorkItem::key`), stored in checkpoints so a resumed search
/// can re-derive its incumbent by re-evaluating exactly this point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlanKey {
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Pipeline depth.
    pub pp: usize,
    /// Strategy-list index.
    pub sidx: usize,
    /// Plan-family index (span/stage-map variant).
    pub pidx: usize,
}

impl From<(usize, usize, usize, usize)> for PlanKey {
    fn from((tp, pp, sidx, pidx): (usize, usize, usize, usize)) -> Self {
        PlanKey { tp, pp, sidx, pidx }
    }
}

/// One candidate whose evaluation panicked, converted into data by the
/// engine's `catch_unwind` isolation. A failed candidate produces no
/// score, so it can never be crowned the winner; the search records the
/// failure and keeps going. Failures are appended in wave-completion
/// order, so the list is deterministic for a deterministic injection
/// schedule (and empty on any panic-free run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateFailure {
    /// The plan whose evaluation panicked.
    pub plan: ParallelPlan,
    /// The panic payload (message), stringified.
    pub payload: String,
    /// Index of the wave the candidate was evaluated in.
    pub wave: u32,
}

/// A resumable snapshot of one search leg, emitted every N completed
/// waves (and at truncation) through a checkpoint sink.
///
/// The snapshot deliberately stores the incumbent's *key* rather than
/// the incumbent itself: evaluation is a pure function of the work item
/// and the (rebuildable) caches, so `resume` re-derives the exact
/// incumbent by re-evaluating one point — which keeps the checkpoint
/// small, serde-round-trippable without generics, and self-validating.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaveCheckpoint {
    /// Position in the bound-sorted order up to which every point is
    /// accounted for (evaluated or pruned).
    pub cursor: usize,
    /// Number of waves completed (fixes the ramp schedule on resume).
    pub wave_no: u32,
    /// Counters as of the cursor. The truncation tail is *not* included
    /// — a resumed run continues over it, so pre-counting it would
    /// double-book.
    pub stats: SearchStats,
    /// Tie-break key of the incumbent, if any.
    pub best_key: Option<PlanKey>,
    /// The incumbent's score, for observability and cross-checking.
    pub best_score: Option<f64>,
    /// Candidate failures recorded so far.
    pub failures: Vec<CandidateFailure>,
    /// The `ProfileCache` generation tag at emit time: 0 means the
    /// incumbent was found against a pristine cache; a nonzero tag means
    /// poison recoveries or corruption repairs invalidated cache state
    /// along the way. Resume always rebuilds caches from scratch, so the
    /// tag is diagnostic — it tells you whether the checkpointed run had
    /// already survived cache degradation.
    pub generation: u64,
}

/// Per-search session context threaded from the `Explorer` facade down
/// into the wave loop: the (already-resolved) deadline, deterministic
/// budget limits, the optional fault-injection schedule, checkpoint
/// cadence/sink, and the checkpoint to resume from. `SessionCtx::none()`
/// is the seed-era behavior.
#[derive(Clone, Copy, Default)]
pub(crate) struct SessionCtx<'a> {
    /// Absolute wall-clock deadline (resolved once per `Explorer` run,
    /// so every leg shares it).
    pub deadline: Option<Instant>,
    /// Per-leg evaluation cap.
    pub max_evaluations: Option<usize>,
    /// Per-leg pruned-ratio early-stop.
    pub max_pruned_ratio: Option<f64>,
    /// Fault-injection schedule (test/bench-only).
    pub inject: Option<&'a Injection>,
    /// Emit a [`WaveCheckpoint`] every this many completed waves.
    pub checkpoint_every: Option<usize>,
    /// Where checkpoints go.
    pub sink: Option<&'a dyn WaveSink>,
    /// The cache generation counter of the leg's `ProfileCache`, read at
    /// checkpoint-emit time.
    pub generation: Option<&'a AtomicU64>,
    /// Resume from this snapshot instead of starting fresh.
    pub resume: Option<&'a WaveCheckpoint>,
}

impl SessionCtx<'_> {
    /// No budget, no injection, no checkpointing — the seed-era engine.
    pub fn none() -> Self {
        SessionCtx::default()
    }
}

/// Receiver of per-wave checkpoints (implemented by the `Explorer`
/// facade, which wraps each [`WaveCheckpoint`] into a session-level
/// `SearchCheckpoint` before handing it to the user's sink).
pub(crate) trait WaveSink: Sync {
    /// Called after a completed wave (and at truncation).
    fn emit(&self, checkpoint: &WaveCheckpoint);
}

/// What one search leg hands back: the winner, the counters, the
/// completion outcome and the isolated candidate failures. The one
/// outcome type of both legs and of the wave loop under them.
#[derive(Debug)]
pub(crate) struct LegOutcome<C> {
    /// Best feasible candidate (never a failed one), if any.
    pub best: Option<C>,
    /// Honest counters (`visited = pruned + evaluated + skipped`).
    pub stats: SearchStats,
    /// Complete, or which budget limit truncated the leg.
    pub outcome: Outcome,
    /// Panicked candidates, in wave-completion order.
    pub failures: Vec<CandidateFailure>,
}

/// One point of a flattened plan work-list: a [`ParallelPlan`] plus the
/// tie-break indices that order it deterministically within the list.
#[derive(Debug, Clone)]
pub(crate) struct WorkItem {
    /// The parallel configuration this point evaluates.
    pub plan: ParallelPlan,
    /// Index into the options' strategy list (tie-break component).
    pub sidx: usize,
    /// Index within the plan family sharing this `(tp, pp, strategy)` —
    /// 0 for the single-wafer search; the multi-wafer search encodes
    /// `tp_span` and the stage-map variant here so plans that collide on
    /// `(tp, pp)` (e.g. intra TP=4 vs 2×2 cross-wafer TP=4) still carry
    /// distinct keys.
    pub pidx: usize,
}

impl WorkItem {
    /// Deterministic tie-break key: smallest `(tp, pp, strategy index,
    /// plan-family index)` wins among equal iteration times, no matter
    /// in which order the points were evaluated. Keys must be unique per
    /// work-list — equal keys would let the winner depend on bound
    /// order.
    pub fn key(&self) -> (usize, usize, usize, usize) {
        (self.plan.tp, self.plan.pp, self.sidx, self.pidx)
    }
}

/// Maximum evaluation-wave width of the pruned search. Pruning decisions
/// only consult the incumbent from *completed* waves, so results and
/// [`SearchStats`] are independent of thread count; a fixed cap (not the
/// thread count) keeps them independent of the machine too.
pub(crate) const SEARCH_WAVE: usize = 16;

/// Map `items` through `f`, sequentially or with the rayon fan-out.
/// Output order matches input order either way. Shared with the fault
/// sweeps in `crate::robust`, which evaluate their rate grids on this
/// exact primitive so sweep determinism is the engine's determinism.
pub(crate) fn run_items<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    items: &[T],
    sequential: bool,
    f: F,
) -> Vec<R> {
    if sequential {
        items.iter().map(&f).collect()
    } else {
        items.par_iter().map(f).collect()
    }
}

/// Stringify a caught panic payload (the common `&str` / `String` cases;
/// anything else gets a placeholder so the failure is still recorded).
fn panic_payload(e: Box<dyn Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Relative margin every analytic bound is lowered by before the waves
/// compare it with a score. The bounds charge the 1F1B steady state as
/// `n_mb ×` the per-micro-batch time, while the simulator adds that time
/// once per micro-batch; the two round differently, so an exact bound
/// can exceed the score it bounds by about one ulp (2.9e-16 relative at
/// most, measured over the equivalence and resilience suites). A margin
/// four orders of magnitude above that keeps pruning sound and is far
/// below any real gap between two plans.
const BOUND_MARGIN: f64 = 1e-12;

/// `bound` lowered by [`BOUND_MARGIN`] of its magnitude (one monotone
/// multiplication, so the bound order is preserved).
fn lower_by_margin(bound: f64) -> f64 {
    if bound > 0.0 {
        bound * (1.0 - BOUND_MARGIN)
    } else {
        bound * (1.0 + BOUND_MARGIN)
    }
}

/// Run one search leg over a flattened work-list: the leg's
/// [`ProfileCache`], the bound phase and the wave loop, with the
/// prune/short-circuit semantics held in one place for both legs.
///
/// `decided[i]` marks points the caller's static precheck alone decides
/// (e.g. Alg. 1 line 1–2 aggregate memory): they are never handed to
/// `bound` or `eval`, so they cost nothing in either sweep mode — in the
/// pruned mode they count as pruned, in the exhaustive mode they flow
/// through the (skipped) evaluation path and count as evaluated, since
/// an exhaustive sweep by definition skips nothing. With `opts.prune`
/// set, `bound` computes an analytic lower bound on `score` per
/// surviving point (`None` = statically infeasible, counted as pruned);
/// with it unset, every point gets a `-inf` bound and the wave loop
/// degenerates to the exhaustive sweep. `eval` schedules one point;
/// `score` is what the incumbent competes on (lower is better), and a
/// candidate whose score is not finite — a deadline-interrupted
/// ensemble, an unserveable plan — is dropped as unscoreable rather
/// than allowed to win a leg with no finite competitor.
/// `opts.sequential` picks sequential or fan-out evaluation. `ctx`
/// carries the resilience layer (budget, injection, checkpointing,
/// resume); pass [`SessionCtx::none`] for the seed-era behavior.
///
/// Returns the winner with its score (smallest score, ties to the
/// smallest [`WorkItem::key`]), stats, outcome and isolated failures,
/// plus the leg's cache: an armed injection schedule corrupts or
/// poisons it, and checkpoints carry its generation tag.
pub(crate) fn bounded_search<C: Send>(
    items: &[WorkItem],
    decided: &[bool],
    opts: &SchedulerOptions,
    ctx: &SessionCtx<'_>,
    bound: impl Fn(&WorkItem, &ProfileCache) -> Option<f64> + Sync,
    eval: impl Fn(&WorkItem, &ProfileCache) -> Option<C> + Sync,
    score: impl Fn(&C, &ProfileCache) -> f64 + Sync,
) -> (LegOutcome<(C, f64)>, ProfileCache) {
    debug_assert_eq!(items.len(), decided.len());
    let cache = match ctx.inject {
        Some(inj) if inj.is_armed() => inj.build_cache(),
        _ => ProfileCache::new(),
    };
    let ctx = SessionCtx {
        generation: Some(cache.generation_handle()),
        ..*ctx
    };
    let idxs: Vec<usize> = (0..items.len()).collect();
    let bounds: Vec<Option<f64>> = if opts.prune {
        run_items(&idxs, opts.sequential, |&i| {
            if decided[i] {
                None
            } else {
                bound(&items[i], &cache).map(lower_by_margin)
            }
        })
    } else {
        vec![Some(f64::NEG_INFINITY); items.len()]
    };
    let leg = wave_search(
        items,
        &bounds,
        opts.sequential,
        &ctx,
        |i, it| {
            if decided[i] {
                return None;
            }
            let c = eval(it, &cache)?;
            let s = score(&c, &cache);
            s.is_finite().then_some((c, s))
        },
        |&(_, s)| s,
    );
    (leg, cache)
}

/// The bound-ordered wave loop behind [`bounded_search`].
///
/// `bounds[i]` is the analytic lower bound of `items[i]`; `None` marks a
/// statically infeasible point (it is counted as pruned and never
/// evaluated). `eval` receives the work-list index alongside the item so
/// the wrapper can consult per-point side tables; it runs inside a
/// `catch_unwind` guard, so a panicking candidate is recorded as a
/// [`CandidateFailure`] instead of unwinding out of the search. Debug
/// builds check every scored candidate's bound against its score
/// outside that guard, so an unsound bound fails loudly instead of
/// becoming an incident. Returns the winner (smallest score, ties to the
/// smallest [`WorkItem::key`]) plus the [`SearchStats`], the
/// [`Outcome`] and the failure log.
fn wave_search<C: Send>(
    items: &[WorkItem],
    bounds: &[Option<f64>],
    sequential: bool,
    ctx: &SessionCtx<'_>,
    eval: impl Fn(usize, &WorkItem) -> Option<C> + Sync,
    score: impl Fn(&C) -> f64,
) -> LegOutcome<C> {
    debug_assert_eq!(items.len(), bounds.len());
    // Pair each surviving index with its bound up front: past this point
    // the bounds are plain `f64`s — no later lookup can miss, and
    // `total_cmp` makes the sort total without a panicking unwrap.
    let mut order: Vec<(usize, f64)> = bounds
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.map(|b| (i, b)))
        .collect();
    order.sort_by(|&(a, ba), &(b, bb)| {
        ba.total_cmp(&bb)
            .then_with(|| items[a].key().cmp(&items[b].key()))
    });

    // Every evaluation goes through the injection hook (a no-op without
    // a schedule) and the catch_unwind guard. AssertUnwindSafe is sound
    // here: the only state shared across the boundary is the memo
    // caches, whose poison recovery clears any shard a panicking holder
    // left behind (`crate::cache`).
    let guarded = |i: usize| -> Result<Option<C>, String> {
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(inj) = ctx.inject {
                inj.apply(items[i].key());
            }
            eval(i, &items[i])
        }))
        .map_err(panic_payload)
    };

    let mut stats;
    let mut failures: Vec<CandidateFailure>;
    let mut best: Option<C> = None;
    let mut best_key = (usize::MAX, usize::MAX, usize::MAX, usize::MAX);
    let mut idx;
    let mut wave_no;
    if let Some(cp) = ctx.resume {
        // Restore the snapshot wholesale: counters, cursor, ramp
        // position and failure log. The incumbent is re-derived by
        // re-evaluating its key — evaluation is a pure function of the
        // item and the (freshly rebuilt) caches, so this reproduces the
        // exact checkpointed configuration; the re-evaluation is
        // bookkeeping-free so the resumed counters match an
        // uninterrupted run's.
        stats = cp.stats;
        failures = cp.failures.clone();
        idx = cp.cursor.min(order.len());
        wave_no = cp.wave_no;
        if let Some(k) = cp.best_key {
            if let Some(i) = (0..items.len()).find(|&i| PlanKey::from(items[i].key()) == k) {
                if let Ok(Some(c)) = guarded(i) {
                    best_key = items[i].key();
                    best = Some(c);
                }
            }
        }
    } else {
        stats = SearchStats {
            visited: items.len(),
            pruned: items.len() - order.len(),
            ..SearchStats::default()
        };
        failures = Vec::new();
        idx = 0;
        wave_no = 0u32;
    }

    let mut outcome = Outcome::Complete;
    while idx < order.len() {
        // Deterministic pruning against the incumbent from completed
        // waves only. Strict `>`: a point whose bound *equals* the
        // incumbent could still tie and win on the (tp, pp, strategy)
        // key, so it is never pruned. Checked before the budget: a
        // search that would finish at this boundary anyway reports
        // `Complete` even with an expired budget.
        if let Some(b) = &best {
            let incumbent = score(b);
            let survivors = order[idx..].partition_point(|&(_, b)| b <= incumbent);
            if survivors == 0 {
                stats.pruned += order.len() - idx;
                break;
            }
        }
        // Budget checks, at wave boundaries only (a wave in flight
        // always completes, bounding overshoot by one wave width).
        let tripped = if ctx
            .deadline
            // wsc-lint: allow(D004, "the anytime deadline is the one place library code must read the wall clock; results stay best-so-far-valid and the counters stay honest, as documented on SearchStats")
            .is_some_and(|dl| Instant::now() >= dl)
        {
            Some(TruncationReason::Deadline)
        } else if ctx
            .max_evaluations
            .is_some_and(|max| stats.evaluated >= max)
        {
            Some(TruncationReason::MaxEvaluations)
        } else if ctx.max_pruned_ratio.is_some_and(|ratio| {
            stats.visited > 0 && stats.pruned as f64 / stats.visited as f64 > ratio
        }) {
            Some(TruncationReason::PrunedRatio)
        } else {
            None
        };
        if let Some(reason) = tripped {
            // Emit a resumable snapshot *before* charging the skipped
            // tail: a resumed run continues over that tail, so the
            // checkpoint must not pre-count it.
            if let Some(sink) = ctx.sink {
                sink.emit(&checkpoint_at(
                    idx, wave_no, stats, best_key, &best, &failures, ctx, &score,
                ));
            }
            stats.skipped += order.len() - idx;
            outcome = Outcome::Truncated { reason };
            break;
        }
        let width = SEARCH_WAVE.min(1usize << wave_no.min(31));
        wave_no += 1;
        let wave_end = order.len().min(idx + width);
        let wave: Vec<(usize, f64)> = order[idx..wave_end]
            .iter()
            .filter(|&&(_, b)| match &best {
                Some(best) => b <= score(best),
                None => true,
            })
            .copied()
            .collect();
        stats.pruned += (wave_end - idx) - wave.len();
        stats.evaluated += wave.len();
        let results: Vec<Result<Option<C>, String>> =
            run_items(&wave, sequential, |&(i, _)| guarded(i));
        for (&(i, bound), res) in wave.iter().zip(results) {
            let cfg = match res {
                Err(payload) => {
                    // Isolated panic: record it (deterministic order —
                    // the result vector is in wave order) and move on. A
                    // failed candidate has no score and cannot win.
                    failures.push(CandidateFailure {
                        plan: items[i].plan.clone(),
                        payload,
                        wave: wave_no - 1,
                    });
                    continue;
                }
                Ok(None) => continue,
                Ok(Some(cfg)) => cfg,
            };
            let key = items[i].key();
            let s = score(&cfg);
            debug_assert!(
                bound <= s,
                "bound {bound} exceeds score {s} of {}",
                items[i].plan
            );
            let better = match &best {
                None => true,
                Some(b) => {
                    let bs = score(b);
                    s < bs || (s == bs && key < best_key)
                }
            };
            if better {
                best = Some(cfg);
                best_key = key;
            }
        }
        idx = wave_end;
        if let (Some(every), Some(sink)) = (ctx.checkpoint_every, ctx.sink) {
            if every > 0 && (wave_no as usize).is_multiple_of(every) {
                sink.emit(&checkpoint_at(
                    idx, wave_no, stats, best_key, &best, &failures, ctx, &score,
                ));
            }
        }
    }
    LegOutcome {
        best,
        stats,
        outcome,
        failures,
    }
}

/// Assemble the snapshot of the loop state for the sink.
#[allow(clippy::too_many_arguments)]
fn checkpoint_at<C>(
    cursor: usize,
    wave_no: u32,
    stats: SearchStats,
    best_key: (usize, usize, usize, usize),
    best: &Option<C>,
    failures: &[CandidateFailure],
    ctx: &SessionCtx<'_>,
    score: &impl Fn(&C) -> f64,
) -> WaveCheckpoint {
    WaveCheckpoint {
        cursor,
        wave_no,
        stats,
        best_key: best.as_ref().map(|_| PlanKey::from(best_key)),
        best_score: best.as_ref().map(score),
        failures: failures.to_vec(),
        generation: ctx
            .generation
            .map(|g| g.load(Ordering::Relaxed))
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use wsc_workload::parallel::TpSplitStrategy;

    fn items(n: usize) -> Vec<WorkItem> {
        (0..n)
            .map(|i| WorkItem {
                plan: ParallelPlan::intra(i, 1, TpSplitStrategy::Megatron),
                sidx: 0,
                pidx: 0,
            })
            .collect()
    }

    #[test]
    fn exhaustive_mode_evaluates_everything() {
        let its = items(40);
        let bounds = vec![Some(f64::NEG_INFINITY); 40];
        let r = wave_search(
            &its,
            &bounds,
            true,
            &SessionCtx::none(),
            |_, it| Some(it.plan.tp as f64),
            |&c: &f64| c,
        );
        assert_eq!(r.best, Some(0.0));
        assert_eq!(r.stats.visited, 40);
        assert_eq!(r.stats.pruned, 0);
        assert_eq!(r.stats.evaluated, 40);
        assert_eq!(r.outcome, Outcome::Complete);
        assert!(r.failures.is_empty());
    }

    #[test]
    fn tight_bounds_prune_after_first_point() {
        // Bounds equal the true scores: after evaluating the first
        // (lowest-bound) point, every other point's bound strictly
        // exceeds the incumbent and the whole tail is pruned.
        let its = items(40);
        let bounds: Vec<Option<f64>> = (0..40).map(|i| Some(i as f64)).collect();
        let r = wave_search(
            &its,
            &bounds,
            true,
            &SessionCtx::none(),
            |_, it| Some(it.plan.tp as f64),
            |&c: &f64| c,
        );
        assert_eq!(r.best, Some(0.0));
        assert_eq!(r.stats.evaluated, 1, "ramp starts with a single point");
        assert_eq!(r.stats.pruned, 39);
        assert_eq!(r.stats.visited, r.stats.pruned + r.stats.evaluated);
        assert_eq!(r.outcome, Outcome::Complete, "full prune-out is complete");
    }

    #[test]
    fn static_infeasible_points_count_as_pruned() {
        let its = items(4);
        let bounds = vec![Some(0.0), None, Some(1.0), None];
        let r = wave_search(
            &its,
            &bounds,
            true,
            &SessionCtx::none(),
            |_, it| Some(it.plan.tp as f64),
            |&c: &f64| c,
        );
        assert_eq!(r.best, Some(0.0));
        assert_eq!(r.stats.visited, 4);
        assert!(r.stats.pruned >= 2);
    }

    #[test]
    fn equal_scores_tie_break_on_key() {
        // Every point evaluates to the same score; the smallest (tp, pp,
        // sidx) key must win regardless of bound order.
        let mut its = items(8);
        its.reverse(); // work-list order is not key order
        let bounds = vec![Some(0.0); 8];
        let r = wave_search(
            &its,
            &bounds,
            true,
            &SessionCtx::none(),
            |_, it| Some((it.plan.tp, 7.0f64)),
            |c: &(usize, f64)| c.1,
        );
        assert_eq!(r.best.map(|b| b.0), Some(0), "smallest key wins the tie");
    }

    #[test]
    fn decided_points_skip_both_phases_in_both_modes() {
        // A precheck-decided point must reach neither the bound nor the
        // eval closure, in the pruned and the exhaustive mode alike; it
        // counts as pruned in the former and evaluated in the latter.
        let its = items(6);
        let decided = vec![false, true, false, true, false, true];
        let bound = |it: &WorkItem| {
            assert!(
                it.plan.tp.is_multiple_of(2),
                "decided point reached bound phase"
            );
            Some(it.plan.tp as f64)
        };
        let eval = |it: &WorkItem| {
            assert!(
                it.plan.tp.is_multiple_of(2),
                "decided point reached eval phase"
            );
            Some(it.plan.tp as f64)
        };
        for prune in [true, false] {
            let opts = SchedulerOptions {
                prune,
                sequential: true,
                ..SchedulerOptions::default()
            };
            let (r, _) = bounded_search(
                &its,
                &decided,
                &opts,
                &SessionCtx::none(),
                |it, _| bound(it),
                |it, _| eval(it),
                |&c: &f64, _| c,
            );
            assert_eq!(r.best, Some((0.0, 0.0)));
            assert_eq!(r.stats.visited, 6);
            if prune {
                assert!(r.stats.pruned >= 3, "decided points count as pruned");
            } else {
                assert_eq!(
                    r.stats.evaluated, 6,
                    "exhaustive mode skips nothing (by count)"
                );
                assert_eq!(r.stats.pruned, 0);
            }
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let its = items(50);
        // Sound bounds: each sits `i % 7` below its point's score.
        let bounds: Vec<Option<f64>> = (0..50)
            .map(|i| Some(((i * 13) % 11) as f64 - (i % 7) as f64))
            .collect();
        let eval = |_: usize, it: &WorkItem| Some(((it.plan.tp * 13) % 11) as f64);
        let seq = wave_search(&its, &bounds, true, &SessionCtx::none(), eval, |&c: &f64| c);
        let par = wave_search(
            &its,
            &bounds,
            false,
            &SessionCtx::none(),
            eval,
            |&c: &f64| c,
        );
        assert_eq!(seq.best, par.best);
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.outcome, par.outcome);
        assert_eq!(seq.failures, par.failures);
    }

    #[test]
    fn evaluation_cap_truncates_with_best_so_far() {
        // Exhaustive bounds (no pruning) over 40 points with a cap of 5:
        // the ramp evaluates 1+2+4 = 7 points (the wave crossing the cap
        // completes), then truncates; the tail is `skipped`, never
        // silently pruned, and the best of the examined prefix is
        // returned.
        let its = items(40);
        let bounds = vec![Some(f64::NEG_INFINITY); 40];
        let ctx = SessionCtx {
            max_evaluations: Some(5),
            ..SessionCtx::none()
        };
        let r = wave_search(
            &its,
            &bounds,
            true,
            &ctx,
            |_, it| Some(it.plan.tp as f64),
            |&c: &f64| c,
        );
        assert_eq!(
            r.outcome,
            Outcome::Truncated {
                reason: TruncationReason::MaxEvaluations
            }
        );
        assert_eq!(r.stats.evaluated, 7, "overshoot bounded by one wave");
        assert_eq!(r.stats.skipped, 40 - 7);
        assert_eq!(
            r.stats.visited,
            r.stats.pruned + r.stats.evaluated + r.stats.skipped
        );
        assert_eq!(r.best, Some(0.0), "best-so-far survives truncation");
    }

    #[test]
    fn expired_deadline_truncates_before_the_first_wave() {
        // A deadline that has already passed trips at the first wave
        // boundary: nothing is evaluated, every bound survivor lands in
        // `skipped`, and the snapshot is emitted before that tail is
        // charged.
        let its = items(20);
        let bounds: Vec<Option<f64>> = (0..20).map(|i| (i % 4 != 0).then_some(i as f64)).collect();
        let survivors = bounds.iter().flatten().count();
        let sink = Capture(Mutex::new(Vec::new()));
        let ctx = SessionCtx {
            deadline: Some(Instant::now()),
            sink: Some(&sink),
            ..SessionCtx::none()
        };
        let r = wave_search(
            &its,
            &bounds,
            true,
            &ctx,
            |_, it| Some(it.plan.tp as f64),
            |&c: &f64| c,
        );
        assert_eq!(
            r.outcome,
            Outcome::Truncated {
                reason: TruncationReason::Deadline
            }
        );
        assert_eq!(r.stats.evaluated, 0);
        assert_eq!(r.stats.skipped, survivors);
        assert_eq!(
            r.stats.visited,
            r.stats.pruned + r.stats.evaluated + r.stats.skipped
        );
        assert_eq!(r.best, None);
        let cps = sink
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        assert_eq!(cps.len(), 1, "truncation emits one snapshot");
        assert_eq!(cps[0].stats.skipped, 0, "snapshot precedes the tail");
        assert_eq!(cps[0].cursor, 0);
    }

    #[test]
    fn pruned_ratio_early_stops() {
        // 100 points, 98 statically infeasible: the pre-loop prune
        // already exceeds the 0.5 threshold, so the first boundary
        // truncates without evaluating anything.
        let its = items(100);
        let bounds: Vec<Option<f64>> = (0..100).map(|i| (i < 2).then_some(i as f64)).collect();
        let ctx = SessionCtx {
            max_pruned_ratio: Some(0.5),
            ..SessionCtx::none()
        };
        let r = wave_search(
            &its,
            &bounds,
            true,
            &ctx,
            |_, it| Some(it.plan.tp as f64),
            |&c: &f64| c,
        );
        assert_eq!(
            r.outcome,
            Outcome::Truncated {
                reason: TruncationReason::PrunedRatio
            }
        );
        assert_eq!(r.stats.evaluated, 0);
        assert_eq!(r.stats.skipped, 2);
        assert_eq!(r.best, None);
    }

    #[test]
    fn panicking_candidates_are_isolated_and_never_win() {
        // The best-scoring point panics; the engine must record it and
        // crown the runner-up, in sequential and parallel mode alike.
        let its = items(10);
        let bounds = vec![Some(f64::NEG_INFINITY); 10];
        let eval = |_: usize, it: &WorkItem| {
            if it.plan.tp == 0 {
                panic!("wsc-inject: best candidate blows up");
            }
            Some(it.plan.tp as f64)
        };
        for sequential in [true, false] {
            let r = wave_search(&its, &bounds, sequential, &SessionCtx::none(), eval, |&c| c);
            assert_eq!(r.best, Some(1.0), "runner-up wins when the best panics");
            assert_eq!(r.failures.len(), 1);
            assert_eq!(r.failures[0].plan.tp, 0);
            assert!(r.failures[0].payload.contains("wsc-inject"));
            assert_eq!(r.stats.evaluated, 10, "a panicked eval still counts");
            assert_eq!(r.outcome, Outcome::Complete);
        }
    }

    /// Collects checkpoints for the resume tests.
    struct Capture(Mutex<Vec<WaveCheckpoint>>);
    impl WaveSink for Capture {
        fn emit(&self, cp: &WaveCheckpoint) {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(cp.clone());
        }
    }

    #[test]
    fn resume_from_any_checkpoint_matches_uninterrupted_run() {
        // One full run emitting a checkpoint after every wave; resuming
        // from each snapshot must reproduce the uninterrupted winner,
        // stats and failure log exactly.
        let its = items(60);
        // Sound bounds: each sits `(i * 7) % 5` below its point's score.
        let bounds: Vec<Option<f64>> = (0..60)
            .map(|i| Some(((i * 13) % 29) as f64 - ((i * 7) % 5) as f64))
            .collect();
        let eval = |_: usize, it: &WorkItem| {
            if it.plan.tp.is_multiple_of(17) && it.plan.tp > 0 {
                panic!("wsc-inject: seeded failure");
            }
            Some(((it.plan.tp * 13) % 29) as f64)
        };
        let sink = Capture(Mutex::new(Vec::new()));
        let ctx = SessionCtx {
            checkpoint_every: Some(1),
            sink: Some(&sink),
            ..SessionCtx::none()
        };
        let full = wave_search(&its, &bounds, true, &ctx, eval, |&c| c);
        let cps = sink
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        assert!(
            !cps.is_empty(),
            "at least one checkpoint per completed wave"
        );
        for cp in &cps {
            let resumed = wave_search(
                &its,
                &bounds,
                true,
                &SessionCtx {
                    resume: Some(cp),
                    ..SessionCtx::none()
                },
                eval,
                |&c| c,
            );
            assert_eq!(
                resumed.best, full.best,
                "same winner from cursor {}",
                cp.cursor
            );
            assert_eq!(
                resumed.stats, full.stats,
                "same stats from cursor {}",
                cp.cursor
            );
            assert_eq!(resumed.failures, full.failures);
            assert_eq!(resumed.outcome, Outcome::Complete);
        }
    }

    #[test]
    fn truncation_checkpoint_resumes_to_completion() {
        // Truncate at an evaluation cap, grab the final snapshot, resume
        // without a budget: the result must equal the never-truncated
        // run (the skipped tail is re-examined, not double-counted).
        let its = items(50);
        let bounds: Vec<Option<f64>> = (0..50).map(|i| Some((i % 11) as f64)).collect();
        // Scores sit strictly above every bound so the incumbent never
        // prunes the tail — the evaluation cap, not the pruner, must be
        // what ends the truncated run.
        let eval = |_: usize, it: &WorkItem| Some((100 + (it.plan.tp * 5) % 17) as f64);
        let uninterrupted = wave_search(&its, &bounds, true, &SessionCtx::none(), eval, |&c| c);

        let sink = Capture(Mutex::new(Vec::new()));
        let truncated = wave_search(
            &its,
            &bounds,
            true,
            &SessionCtx {
                max_evaluations: Some(4),
                checkpoint_every: Some(1),
                sink: Some(&sink),
                ..SessionCtx::none()
            },
            eval,
            |&c| c,
        );
        assert!(truncated.outcome.is_truncated());
        let last = sink
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .last()
            .cloned()
            .expect("truncation emits a final checkpoint");
        assert_eq!(
            last.stats.skipped, 0,
            "checkpoint must not pre-count the tail"
        );
        let resumed = wave_search(
            &its,
            &bounds,
            true,
            &SessionCtx {
                resume: Some(&last),
                ..SessionCtx::none()
            },
            eval,
            |&c| c,
        );
        assert_eq!(resumed.best, uninterrupted.best);
        assert_eq!(resumed.stats, uninterrupted.stats);
        assert_eq!(resumed.outcome, Outcome::Complete);
    }

    #[test]
    fn budget_and_checkpoint_types_round_trip_serde() {
        let cp = WaveCheckpoint {
            cursor: 12,
            wave_no: 4,
            stats: SearchStats {
                visited: 40,
                pruned: 20,
                evaluated: 12,
                skipped: 0,
            },
            best_key: Some(PlanKey {
                tp: 4,
                pp: 7,
                sidx: 0,
                pidx: 3,
            }),
            best_score: Some(1.25),
            failures: vec![CandidateFailure {
                plan: ParallelPlan::intra(2, 2, TpSplitStrategy::Megatron),
                payload: "wsc-inject: boom".to_string(),
                wave: 2,
            }],
            generation: 1,
        };
        let text = serde::json::to_text(&cp.to_value());
        let back = WaveCheckpoint::from_value(&serde::json::from_text(&text).expect("parses"))
            .expect("decodes");
        assert_eq!(back, cp);

        let budget = SearchBudget::none().deadline(1.5).max_evaluations(100);
        let text = serde::json::to_text(&budget.to_value());
        let back = SearchBudget::from_value(&serde::json::from_text(&text).expect("parses"))
            .expect("decodes");
        assert_eq!(back, budget);
        for outcome in [
            Outcome::Complete,
            Outcome::Truncated {
                reason: TruncationReason::Deadline,
            },
        ] {
            let text = serde::json::to_text(&outcome.to_value());
            let back = Outcome::from_value(&serde::json::from_text(&text).expect("parses"))
                .expect("decodes");
            assert_eq!(back, outcome);
        }
    }
}
