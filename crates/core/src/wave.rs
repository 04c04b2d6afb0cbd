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
//!   smallest [`PlanKey`] — so the winner *and* the
//!   [`SearchStats`] counters are byte-identical across thread counts
//!   and identical to the exhaustive sequential sweep (modulo the
//!   counters, which legitimately differ when pruning is disabled).
//! * **Soundness.** A point is pruned only when its bound *strictly*
//!   exceeds the incumbent score; a point whose bound equals the
//!   incumbent could still tie and win on the key, so it is never
//!   pruned. Every bound is first lowered by [`BOUND_MARGIN`] so float
//!   rounding cannot lift a bound above the score it bounds, and debug
//!   builds check `bound <= score` on every evaluated candidate.
//! * **Cut above the incumbent.** A score call may stop once it
//!   provably lands strictly above the incumbent of the completed waves
//!   (see [`Cutoff`]); the candidate has lost, so no winner or counter
//!   moves.
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
//! boundary (the deadline also as each bound is claimed), and when a
//! limit trips the search returns its deterministic
//! best-so-far incumbent with [`Outcome::Truncated`] and honest
//! [`SearchStats`] (the unexamined tail is counted as `skipped`, never
//! silently folded into `pruned`). Each candidate evaluation runs under
//! `catch_unwind`, so a panicking candidate becomes a per-item
//! [`CandidateFailure`] record instead of tearing down the search — and
//! since a failed candidate produces no score, it can never be the
//! winner. Every `N` completed waves the engine can hand a
//! [`WaveCheckpoint`] to a receiver closure; resuming from one
//! restores the cursor, the counters and the failure log, re-derives the
//! incumbent by re-evaluating its key (evaluation is a pure function,
//! and the re-derivation scores without a [`Cutoff`], so an expired
//! deadline cannot drop it), and provably converges to the same
//! winner as the uninterrupted run.
//! A run with no budget and no checkpointing takes none of these paths
//! and is byte-identical to the pre-resilience engine.

use crate::cache::ProfileCache;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use wsc_workload::parallel::ParallelPlan;

/// Instrumentation of one bounded search: how much of the
/// `TP × PP × strategy` space was actually scheduled.
///
/// `visited = pruned + evaluated + skipped` always holds (`skipped` is
/// nonzero only when a [`SearchBudget`] truncated the run). Counts are
/// deterministic — independent of the pool size, one worker included —
/// because pruning decisions are taken against the incumbent from
/// *completed* waves only. The one exception is a wall-clock deadline:
/// *where* a deadline lands is inherently machine-dependent, so a
/// deadline-truncated run promises honest counters and a valid
/// best-so-far, not cross-machine byte-identity.
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
/// (`SEARCH_WAVE`). The deadline is also checked as each bound of the
/// bound phase is claimed, and no bound starts once it has passed. The
/// default has no limits: the search runs to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchBudget {
    /// Wall-clock budget in seconds for the whole `Explorer` run (all
    /// legs share one deadline). `None` = unlimited, and so is a budget
    /// too far off for the clock to represent. Deadline placement is
    /// inherently machine-dependent; see [`SearchStats`].
    pub deadline: Option<f64>,
    /// Maximum candidate evaluations per search leg. Deterministic: the
    /// same limit truncates at the same wave on every machine and thread
    /// count.
    pub max_evaluations: Option<usize>,
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
}

/// Which [`SearchBudget`] limit truncated a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TruncationReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The evaluation cap was reached.
    MaxEvaluations,
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

/// A work item's deterministic tie-break key (see `WorkItem::key`):
/// the smallest `(tp, pp, sidx, pidx)` wins among equal scores. Stored
/// in checkpoints so a resumed search can re-derive its incumbent by
/// re-evaluating exactly this point.
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

/// One candidate whose evaluation panicked, converted into data by the
/// engine's `catch_unwind` isolation. A failed candidate produces no
/// score, so it can never be crowned the winner; the search records the
/// failure and keeps going. Failures are appended in wave-completion
/// order, so the list is deterministic whenever the panics are (and
/// empty on any panic-free run).
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
/// waves (and at truncation) to the session's checkpoint receiver.
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
    /// The leg's `ProfileCache` poison recoveries at emit time
    /// ([`CacheStats::recoveries`](crate::CacheStats)): 0 means the
    /// incumbent was found against a pristine cache. Resume always
    /// rebuilds caches from scratch, so the count is diagnostic — it
    /// tells you whether the checkpointed run had already survived cache
    /// degradation.
    pub generation: u64,
}

/// The receiver a leg hands its [`WaveCheckpoint`]s to.
pub(crate) type EmitCheckpoint<'a> = &'a (dyn Fn(&WaveCheckpoint) + Sync);

/// Per-search session context threaded from the `Explorer` facade down
/// into the wave loop: the (already-resolved) deadline, deterministic
/// budget limits, the checkpoint cadence with its receiver, and the
/// checkpoint to resume from. `SessionCtx::none()` is the seed-era
/// behavior.
#[derive(Clone, Copy, Default)]
pub(crate) struct SessionCtx<'a> {
    /// Absolute wall-clock deadline (resolved once per `Explorer` run,
    /// so every leg shares it).
    pub deadline: Option<Instant>,
    /// Per-leg evaluation cap.
    pub max_evaluations: Option<usize>,
    /// Hand a [`WaveCheckpoint`] to the receiver every this many
    /// completed waves, and at truncation. The `Explorer` facade's
    /// receiver wraps each into a session-level `SearchCheckpoint` for
    /// the user's sink.
    pub checkpoints: Option<(usize, EmitCheckpoint<'a>)>,
    /// Resume from this snapshot instead of starting fresh.
    pub resume: Option<&'a WaveCheckpoint>,
}

impl SessionCtx<'_> {
    /// No budget, no checkpointing — the seed-era engine.
    pub fn none() -> Self {
        SessionCtx::default()
    }

    /// Whether the wall-clock deadline has passed (never, without one).
    fn past_deadline(&self) -> bool {
        passed(self.deadline)
    }
}

/// Whether `deadline` has passed (never, without one).
fn passed(deadline: Option<Instant>) -> bool {
    // wsc-lint: allow(D004, "the anytime deadline is the one place library code must read the wall clock; results stay best-so-far-valid and the counters stay honest, as documented on SearchStats")
    deadline.is_some_and(|dl| Instant::now() >= dl)
}

/// The point past which a candidate's `score` may give up and return
/// `INFINITY`, which the waves drop as unscoreable: the deadline and
/// the incumbent, in one value. The waves pass the session deadline and
/// the best score of the completed waves, fixed before each wave
/// starts, so which candidates are cut does not depend on the thread
/// count. Exhaustive mode passes no incumbent, and the re-derivation of
/// a resumed incumbent passes [`Cutoff::NONE`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cutoff {
    /// Wall-clock deadline; once it passes no further work starts.
    pub deadline: Option<Instant>,
    /// The score to beat (`INFINITY` = none). A candidate whose score
    /// is provably *strictly* above it cannot win: the leg already
    /// holds a better score, and the wave filter already put the
    /// candidate's bound at or below it. A score equal to it is never
    /// cut, so ties still reach the key tie-break.
    pub incumbent: f64,
}

impl Cutoff {
    /// Score in full: no deadline and no incumbent.
    pub const NONE: Cutoff = Cutoff {
        deadline: None,
        incumbent: f64::INFINITY,
    };

    /// Whether the deadline has passed (never, without one).
    pub fn past_deadline(&self) -> bool {
        passed(self.deadline)
    }
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

/// One point of a flattened plan work-list: a [`ParallelPlan`], the
/// tie-break indices that order it deterministically within the list,
/// and the verdict of the leg's static precheck.
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
    /// Set when the leg's static precheck alone decides the point (e.g.
    /// Alg. 1 line 1–2 aggregate memory): it is never handed to the
    /// bound or the evaluator, so it costs nothing in either sweep mode
    /// — in the pruned mode it counts as pruned, in the exhaustive mode
    /// it flows through the (skipped) evaluation path and counts as
    /// evaluated, since an exhaustive sweep by definition skips nothing.
    pub decided: bool,
}

impl WorkItem {
    /// Deterministic tie-break key: smallest `(tp, pp, strategy index,
    /// plan-family index)` wins among equal iteration times, no matter
    /// in which order the points were evaluated. Keys must be unique per
    /// work-list — equal keys would let the winner depend on bound
    /// order.
    pub fn key(&self) -> PlanKey {
        PlanKey {
            tp: self.plan.tp,
            pp: self.plan.pp,
            sidx: self.sidx,
            pidx: self.pidx,
        }
    }
}

/// Maximum evaluation-wave width of the pruned search. Pruning decisions
/// only consult the incumbent from *completed* waves, so results and
/// [`SearchStats`] are independent of thread count; a fixed cap (not the
/// thread count) keeps them independent of the machine too.
pub(crate) const SEARCH_WAVE: usize = 16;

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
pub(crate) const BOUND_MARGIN: f64 = 1e-12;

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
/// Points the caller's static precheck decided ([`WorkItem::decided`])
/// are never handed to `bound` or `eval`. With `prune` set, `bound`
/// computes an analytic lower bound on `score` per surviving point
/// (`None` = statically infeasible, counted as pruned); with it unset,
/// every point gets a `-inf` bound and the wave loop degenerates to the
/// exhaustive sweep. `eval` schedules one point; `score` is what
/// the incumbent competes on (lower is better), given the [`Cutoff`]
/// past which it may give up and return `INFINITY`. The waves pass the
/// session deadline and, in the pruned mode, the best score of the
/// completed waves: a score that provably lands strictly above that
/// incumbent can stop early, since the candidate cannot win. The
/// exhaustive mode passes no incumbent and the re-derivation of a
/// resumed incumbent passes [`Cutoff::NONE`], so neither ever cuts,
/// and pruned ≡ exhaustive also pins the cut. No answer moves: the
/// best score after each wave is the same with or without the cut, so
/// the pruning decisions, the counters and the winner are too. A
/// candidate whose score is not finite is dropped (see
/// [`wave_search`]). The bound phase and each wave fan out over the
/// rayon pool in input order. `ctx` carries the resilience layer
/// (budget, checkpointing, resume); pass [`SessionCtx::none`] for the
/// seed-era behavior. Each snapshot carries the leg cache's
/// poison-recovery count in [`WaveCheckpoint::generation`].
///
/// The deadline is also checked as each bound is claimed: once it has
/// passed no bound starts, and the leg ends before its first wave
/// ([`bound_phase_cut`]).
///
/// Returns the winner with its score (smallest score, ties to the
/// smallest [`WorkItem::key`]), stats, outcome and isolated failures,
/// plus the leg's cache.
pub(crate) fn bounded_search<C: Send>(
    items: &[WorkItem],
    prune: bool,
    ctx: &SessionCtx<'_>,
    bound: impl Fn(&WorkItem, &ProfileCache) -> Option<f64> + Sync,
    eval: impl Fn(&WorkItem, &ProfileCache) -> Option<C> + Sync,
    score: impl Fn(&C, &ProfileCache, Cutoff) -> f64 + Sync,
) -> (LegOutcome<(C, f64)>, ProfileCache) {
    let cache = ProfileCache::new();
    // Snapshots carry the poison recoveries of the cache the leg owns.
    let stamped = |cp: &WaveCheckpoint| {
        if let Some((_, emit)) = ctx.checkpoints {
            let mut cp = cp.clone();
            cp.generation = cache.stats().recoveries as u64;
            emit(&cp);
        }
    };
    let ctx = SessionCtx {
        checkpoints: ctx
            .checkpoints
            .map(|(every, _)| (every, &stamped as EmitCheckpoint<'_>)),
        ..*ctx
    };
    // Points claimed after the deadline, whose bound never started.
    let unbounded = AtomicUsize::new(0);
    let bounds: Vec<Option<f64>> = if prune {
        items
            .par_iter()
            .map(|it| {
                if it.decided {
                    None
                } else if ctx.past_deadline() {
                    unbounded.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    bound(it, &cache).map(lower_by_margin)
                }
            })
            .collect()
    } else {
        vec![Some(f64::NEG_INFINITY); items.len()]
    };
    let eval = |it: &WorkItem, cutoff: Cutoff| {
        if it.decided {
            return None;
        }
        let c = eval(it, &cache)?;
        let cutoff = if prune {
            cutoff
        } else {
            Cutoff {
                incumbent: f64::INFINITY,
                ..cutoff
            }
        };
        let s = score(&c, &cache, cutoff);
        Some((c, s))
    };
    let leg = match unbounded.into_inner() {
        0 => wave_search(items, &bounds, &ctx, eval, |&(_, s)| s),
        n => {
            let pruned = bounds.iter().filter(|b| b.is_none()).count() - n;
            bound_phase_cut(items, pruned, &ctx, eval, |&(_, s)| s)
        }
    };
    (leg, cache)
}

/// The leg a deadline cut in its bound phase returns: no wave starts,
/// so every point neither the precheck nor its bound pruned (`pruned`
/// of them were) is skipped. A resumed leg keeps its snapshot's
/// counters and failure log, re-derives its incumbent as the wave loop
/// does (without a cutoff), and skips what those counters leave
/// unaccounted. The cut emits no snapshot: a cursor indexes the full
/// bound order, which the cut leg never built.
fn bound_phase_cut<C>(
    items: &[WorkItem],
    pruned: usize,
    ctx: &SessionCtx<'_>,
    eval: impl Fn(&WorkItem, Cutoff) -> Option<C>,
    score: impl Fn(&C) -> f64,
) -> LegOutcome<C> {
    let (mut stats, best, failures) = match ctx.resume {
        Some(cp) => {
            let best = resumed_incumbent(items, cp, &eval, &score);
            (cp.stats, best.map(|(c, _)| c), cp.failures.clone())
        }
        None => {
            let stats = SearchStats {
                visited: items.len(),
                pruned,
                ..SearchStats::default()
            };
            (stats, None, Vec::new())
        }
    };
    stats.skipped += stats
        .visited
        .saturating_sub(stats.pruned + stats.evaluated + stats.skipped);
    LegOutcome {
        best,
        stats,
        outcome: Outcome::Truncated {
            reason: TruncationReason::Deadline,
        },
        failures,
    }
}

/// `eval` of `item` under `catch_unwind`, a panic as its payload.
/// AssertUnwindSafe is sound here: the only state shared across the
/// boundary is the memo caches, whose poison recovery clears any shard
/// a panicking holder left behind (`crate::cache`).
fn guarded_eval<C>(
    eval: &impl Fn(&WorkItem, Cutoff) -> Option<C>,
    item: &WorkItem,
    cutoff: Cutoff,
) -> Result<Option<C>, String> {
    catch_unwind(AssertUnwindSafe(|| eval(item, cutoff))).map_err(panic_payload)
}

/// The incumbent a snapshot names, with its key, re-derived by
/// re-evaluating that key: evaluation is a pure function of the item
/// and the (freshly rebuilt) caches, so this reproduces the exact
/// checkpointed configuration. It runs without a cutoff: the incumbent
/// was scored in full once, and a deadline that has passed since must
/// not drop it. A snapshot is untrusted input, so a key whose score is
/// not finite names no incumbent. The re-evaluation is
/// bookkeeping-free, so the resumed counters match an uninterrupted
/// run's.
fn resumed_incumbent<C>(
    items: &[WorkItem],
    cp: &WaveCheckpoint,
    eval: &impl Fn(&WorkItem, Cutoff) -> Option<C>,
    score: &impl Fn(&C) -> f64,
) -> Option<(C, PlanKey)> {
    let key = cp.best_key?;
    let item = items.iter().find(|it| it.key() == key)?;
    let best = guarded_eval(eval, item, Cutoff::NONE).ok()??;
    score(&best).is_finite().then_some((best, key))
}

/// The bound-ordered wave loop behind [`bounded_search`].
///
/// `bounds[i]` is the analytic lower bound of `items[i]`; `None` marks a
/// statically infeasible point (it is counted as pruned and never
/// evaluated). `eval` receives its [`Cutoff`]: the session deadline and
/// the incumbent's score from the completed waves. It runs inside a
/// `catch_unwind` guard, so a panicking candidate is recorded as a
/// [`CandidateFailure`] instead of unwinding out of the search. Debug
/// builds check every scored candidate's bound against its score
/// outside that guard, so an unsound bound fails loudly instead of
/// becoming an incident. A candidate whose score is not finite — cut
/// above the incumbent, a deadline-interrupted ensemble, an
/// unserveable plan — is then dropped as unscoreable rather than
/// allowed to win a leg with no finite competitor. Returns the winner
/// (smallest score, ties to the smallest [`WorkItem::key`]) plus the
/// [`SearchStats`], the [`Outcome`] and the failure log.
fn wave_search<C: Send>(
    items: &[WorkItem],
    bounds: &[Option<f64>],
    ctx: &SessionCtx<'_>,
    eval: impl Fn(&WorkItem, Cutoff) -> Option<C> + Sync,
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

    let mut stats;
    let mut failures: Vec<CandidateFailure>;
    let mut best: Option<(C, PlanKey)> = None;
    let mut idx;
    let mut wave_no;
    if let Some(cp) = ctx.resume {
        // Restore the snapshot wholesale: counters, cursor, ramp
        // position, failure log and incumbent.
        stats = cp.stats;
        failures = cp.failures.clone();
        idx = cp.cursor.min(order.len());
        wave_no = cp.wave_no;
        best = resumed_incumbent(items, cp, &eval, &score);
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
        if let Some((b, _)) = &best {
            let incumbent = score(b);
            let survivors = order[idx..].partition_point(|&(_, b)| b <= incumbent);
            if survivors == 0 {
                stats.pruned += order.len() - idx;
                break;
            }
        }
        // Budget checks, at wave boundaries (a wave in flight always
        // completes, bounding overshoot by one wave width).
        let tripped = if ctx.past_deadline() {
            Some(TruncationReason::Deadline)
        } else if ctx
            .max_evaluations
            .is_some_and(|max| stats.evaluated >= max)
        {
            Some(TruncationReason::MaxEvaluations)
        } else {
            None
        };
        if let Some(reason) = tripped {
            // Emit a resumable snapshot *before* charging the skipped
            // tail: a resumed run continues over that tail, so the
            // checkpoint must not pre-count it.
            if let Some((_, emit)) = ctx.checkpoints {
                emit(&checkpoint_at(
                    idx, wave_no, stats, &best, &failures, &score,
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
                Some((best, _)) => b <= score(best),
                None => true,
            })
            .copied()
            .collect();
        stats.pruned += (wave_end - idx) - wave.len();
        stats.evaluated += wave.len();
        let cutoff = Cutoff {
            deadline: ctx.deadline,
            incumbent: best.as_ref().map_or(f64::INFINITY, |(b, _)| score(b)),
        };
        let results: Vec<Result<Option<C>, String>> = wave
            .par_iter()
            .map(|&(i, _)| guarded_eval(&eval, &items[i], cutoff))
            .collect();
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
            let s = score(&cfg);
            // A cut score is `INFINITY`, which no bound exceeds: the
            // candidate's true score lies above the incumbent, and the
            // wave filter put its bound at or below the incumbent.
            debug_assert!(
                s.is_nan() || bound <= s,
                "bound {bound} exceeds score {s} of {}",
                items[i].plan
            );
            if !s.is_finite() {
                continue;
            }
            let key = items[i].key();
            let better = match &best {
                None => true,
                Some((b, best_key)) => {
                    let bs = score(b);
                    s < bs || (s == bs && key < *best_key)
                }
            };
            if better {
                best = Some((cfg, key));
            }
        }
        idx = wave_end;
        if let Some((every, emit)) = ctx.checkpoints {
            if every > 0 && (wave_no as usize).is_multiple_of(every) {
                emit(&checkpoint_at(
                    idx, wave_no, stats, &best, &failures, &score,
                ));
            }
        }
    }
    LegOutcome {
        best: best.map(|(c, _)| c),
        stats,
        outcome,
        failures,
    }
}

/// Assemble the snapshot of the loop state for the receiver; its
/// `generation` is stamped by [`bounded_search`], which owns the cache.
fn checkpoint_at<C>(
    cursor: usize,
    wave_no: u32,
    stats: SearchStats,
    best: &Option<(C, PlanKey)>,
    failures: &[CandidateFailure],
    score: &impl Fn(&C) -> f64,
) -> WaveCheckpoint {
    WaveCheckpoint {
        cursor,
        wave_no,
        stats,
        best_key: best.as_ref().map(|&(_, key)| key),
        best_score: best.as_ref().map(|(c, _)| score(c)),
        failures: failures.to_vec(),
        generation: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::on_one_worker;
    use std::sync::Mutex;
    use wsc_workload::parallel::TpSplitStrategy;

    fn items(n: usize) -> Vec<WorkItem> {
        (0..n)
            .map(|i| WorkItem {
                plan: ParallelPlan::intra(i, 1, TpSplitStrategy::Megatron),
                sidx: 0,
                pidx: 0,
                decided: false,
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
            &SessionCtx::none(),
            |it, _| Some(it.plan.tp as f64),
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
            &SessionCtx::none(),
            |it, _| Some(it.plan.tp as f64),
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
            &SessionCtx::none(),
            |it, _| Some(it.plan.tp as f64),
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
            &SessionCtx::none(),
            |it, _| Some((it.plan.tp, 7.0f64)),
            |c: &(usize, f64)| c.1,
        );
        assert_eq!(r.best.map(|b| b.0), Some(0), "smallest key wins the tie");
    }

    #[test]
    fn decided_points_skip_both_phases_in_both_modes() {
        // A precheck-decided point must reach neither the bound nor the
        // eval closure, in the pruned and the exhaustive mode alike; it
        // counts as pruned in the former and evaluated in the latter.
        let mut its = items(6);
        for it in &mut its {
            it.decided = it.plan.tp % 2 == 1;
        }
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
            let (r, _) = bounded_search(
                &its,
                prune,
                &SessionCtx::none(),
                |it, _| bound(it),
                |it, _| eval(it),
                |&c: &f64, _, _| c,
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
        let eval = |it: &WorkItem, _: Cutoff| Some(((it.plan.tp * 13) % 11) as f64);
        let run = || wave_search(&its, &bounds, &SessionCtx::none(), eval, |&c: &f64| c);
        let (seq, par) = (on_one_worker(run), run());
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
            &ctx,
            |it, _| Some(it.plan.tp as f64),
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
        let sink = Capture::default();
        let emit = |cp: &WaveCheckpoint| sink.push(cp);
        let ctx = SessionCtx {
            deadline: Some(Instant::now()),
            checkpoints: Some((1, &emit)),
            ..SessionCtx::none()
        };
        let r = wave_search(
            &its,
            &bounds,
            &ctx,
            |it, _| Some(it.plan.tp as f64),
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
    fn only_the_pruned_waves_hand_score_an_incumbent() {
        // Every point survives its bound of 0 and scores `100 − tp`, so
        // each wave improves on the last. The pruned waves pass the best
        // score of the completed waves; the exhaustive sweep and the
        // re-derivation of a resumed incumbent pass none.
        let its = items(12);
        let seen = Mutex::new(Vec::new());
        let score = |&c: &f64, _: &ProfileCache, cutoff: Cutoff| {
            seen.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push((100.0 - c, cutoff.incumbent));
            c
        };
        let run = |prune: bool, ctx: &SessionCtx<'_>| {
            bounded_search(
                &its,
                prune,
                ctx,
                |_, _| Some(0.0),
                |it, _| Some(100.0 - it.plan.tp as f64),
                score,
            );
            let mut seen = std::mem::take(
                &mut *seen
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
            seen.sort_by(|a, b| a.0.total_cmp(&b.0));
            seen
        };
        let inf = f64::INFINITY;
        // Waves {0}, {1, 2}, {3..=6}, {7..=11}.
        let incumbent = |tp: usize| [inf, 100.0, 98.0, 94.0][(tp + 1).ilog2() as usize];
        let pruned: Vec<(f64, f64)> = (0..12).map(|tp| (tp as f64, incumbent(tp))).collect();
        assert_eq!(run(true, &SessionCtx::none()), pruned);
        let exhaustive: Vec<(f64, f64)> = (0..12).map(|tp| (tp as f64, inf)).collect();
        assert_eq!(run(false, &SessionCtx::none()), exhaustive);

        let sink = Capture::default();
        let emit = |cp: &WaveCheckpoint| sink.push(cp);
        let ctx = SessionCtx {
            checkpoints: Some((1, &emit)),
            ..SessionCtx::none()
        };
        run(true, &ctx);
        let cp = sink
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[1]
            .clone();
        assert_eq!((cp.cursor, cp.best_score), (3, Some(98.0)));
        let resume = SessionCtx {
            resume: Some(&cp),
            ..SessionCtx::none()
        };
        let mut resumed = vec![(2.0, inf)];
        resumed.extend(&pruned[3..]);
        assert_eq!(run(true, &resume), resumed);
    }

    #[test]
    fn a_cut_above_the_incumbent_moves_no_answer() {
        // A score that gives up whenever it lands strictly above its
        // incumbent returns the winner and counters of one that never
        // does, on one worker and on the default pool.
        let its = items(60);
        let bounds = |it: &WorkItem, _: &ProfileCache| {
            let i = it.plan.tp;
            Some(((i * 13) % 29) as f64 - ((i * 7) % 5) as f64)
        };
        let eval = |it: &WorkItem, _: &ProfileCache| Some(((it.plan.tp * 13) % 29) as f64);
        let full = |&c: &f64, _: &ProfileCache, _: Cutoff| c;
        let cuts = AtomicUsize::new(0);
        let cut = |&c: &f64, _: &ProfileCache, cutoff: Cutoff| {
            if c > cutoff.incumbent {
                cuts.fetch_add(1, Ordering::Relaxed);
                f64::INFINITY
            } else {
                c
            }
        };
        let run = |score: &(dyn Fn(&f64, &ProfileCache, Cutoff) -> f64 + Sync)| {
            bounded_search(&its, true, &SessionCtx::none(), bounds, eval, score).0
        };
        let reference = on_one_worker(|| run(&full));
        for leg in [run(&cut), on_one_worker(|| run(&cut))] {
            assert_eq!(leg.best, reference.best);
            assert_eq!(leg.stats, reference.stats);
            assert_eq!(leg.outcome, Outcome::Complete);
        }
        assert!(cuts.into_inner() > 0, "no candidate was cut");
    }

    #[test]
    fn an_expired_deadline_starts_no_bound() {
        // A deadline that passed before the bound phase: `bound` is never
        // called and no wave starts. A fresh leg skips every point the
        // precheck did not decide and emits no snapshot; a resumed leg
        // keeps its snapshot's incumbent, counters and failure log and
        // skips the rest.
        let mut its = items(30);
        for it in &mut its {
            it.decided = it.plan.tp % 5 == 0;
        }
        let calls = AtomicUsize::new(0);
        let bound = |it: &WorkItem, _: &ProfileCache| {
            calls.fetch_add(1, Ordering::Relaxed);
            Some(((it.plan.tp * 13) % 29) as f64)
        };
        // Scores sit above every bound, so nothing is pruned.
        let eval = |it: &WorkItem, _: &ProfileCache| {
            if it.plan.tp % 7 == 3 {
                panic!("seeded failure");
            }
            Some((100 + (it.plan.tp * 5) % 17) as f64)
        };
        let score = |&c: &f64, _: &ProfileCache, _: Cutoff| c;
        let deadline = Outcome::Truncated {
            reason: TruncationReason::Deadline,
        };
        let sink = Capture::default();
        let emit = |cp: &WaveCheckpoint| sink.push(cp);
        let ctx = SessionCtx {
            checkpoints: Some((1, &emit)),
            ..SessionCtx::none()
        };
        let (full, _) = bounded_search(&its, true, &ctx, bound, eval, score);
        assert_eq!(full.outcome, Outcome::Complete);
        assert_eq!(calls.swap(0, Ordering::Relaxed), 24, "undecided points");
        let cps = std::mem::take(
            &mut *sink
                .0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );

        let expired = SessionCtx {
            deadline: Some(Instant::now()),
            ..ctx
        };
        let (fresh, _) = bounded_search(&its, true, &expired, bound, eval, score);
        assert_eq!(calls.load(Ordering::Relaxed), 0, "a bound started");
        assert_eq!(fresh.outcome, deadline);
        assert_eq!(fresh.best, None);
        let (visited, pruned) = (30, 6);
        let skipped = visited - pruned;
        assert_eq!(
            fresh.stats,
            SearchStats {
                visited,
                pruned,
                evaluated: 0,
                skipped
            }
        );
        assert!(
            sink.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .is_empty(),
            "a leg cut in its bound phase emits no snapshot"
        );

        let cp = cps
            .iter()
            .find(|cp| !cp.failures.is_empty())
            .expect("a snapshot after the seeded failure");
        let resuming = SessionCtx {
            deadline: Some(Instant::now()),
            resume: Some(cp),
            ..SessionCtx::none()
        };
        let (resumed, _) = bounded_search(&its, true, &resuming, bound, eval, score);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            0,
            "a resumed leg started a bound"
        );
        assert_eq!(resumed.outcome, deadline);
        assert_eq!(resumed.best.map(|(_, s)| s), cp.best_score);
        assert_eq!(resumed.failures, cp.failures);
        let s = cp.stats;
        assert!(
            s.visited > s.pruned + s.evaluated,
            "the snapshot leaves a tail"
        );
        assert_eq!(
            resumed.stats,
            SearchStats {
                skipped: s.visited - s.pruned - s.evaluated,
                ..s
            }
        );
    }

    #[test]
    fn panicking_candidates_are_isolated_and_never_win() {
        // The best-scoring point panics; the engine must record it and
        // crown the runner-up, on one worker and on the default pool
        // alike.
        let its = items(10);
        let bounds = vec![Some(f64::NEG_INFINITY); 10];
        let eval = |it: &WorkItem, _: Cutoff| {
            if it.plan.tp == 0 {
                panic!("seeded failure: best candidate blows up");
            }
            Some(it.plan.tp as f64)
        };
        let run = || wave_search(&its, &bounds, &SessionCtx::none(), eval, |&c| c);
        for r in [on_one_worker(run), run()] {
            assert_eq!(r.best, Some(1.0), "runner-up wins when the best panics");
            assert_eq!(r.failures.len(), 1);
            assert_eq!(r.failures[0].plan.tp, 0);
            assert!(r.failures[0].payload.contains("seeded failure"));
            assert_eq!(r.stats.evaluated, 10, "a panicked eval still counts");
            assert_eq!(r.outcome, Outcome::Complete);
        }
    }

    /// Collects checkpoints for the resume tests.
    #[derive(Default)]
    struct Capture(Mutex<Vec<WaveCheckpoint>>);
    impl Capture {
        fn push(&self, cp: &WaveCheckpoint) {
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
        let eval = |it: &WorkItem, _: Cutoff| {
            if it.plan.tp.is_multiple_of(17) && it.plan.tp > 0 {
                panic!("seeded failure");
            }
            Some(((it.plan.tp * 13) % 29) as f64)
        };
        let sink = Capture::default();
        let emit = |cp: &WaveCheckpoint| sink.push(cp);
        let ctx = SessionCtx {
            checkpoints: Some((1, &emit)),
            ..SessionCtx::none()
        };
        let full = wave_search(&its, &bounds, &ctx, eval, |&c| c);
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
        let eval = |it: &WorkItem, _: Cutoff| Some((100 + (it.plan.tp * 5) % 17) as f64);
        let uninterrupted = wave_search(&its, &bounds, &SessionCtx::none(), eval, |&c| c);

        let sink = Capture::default();
        let emit = |cp: &WaveCheckpoint| sink.push(cp);
        let truncated = wave_search(
            &its,
            &bounds,
            &SessionCtx {
                max_evaluations: Some(4),
                checkpoints: Some((1, &emit)),
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

    /// The tie-break precondition [`WorkItem::key`] documents, over both
    /// legs' work lists: Configs 1–4, nodes of 1–4 wafers, both
    /// strategies and the largest plan space. Equal keys would let a
    /// winner depend on bound order.
    #[test]
    fn every_work_list_has_distinct_keys() {
        use crate::multiwafer::node_work_list;
        use crate::scheduler::{work_list, PlanFilter, SchedulerOptions};
        use wsc_arch::presets;
        use wsc_arch::wafer::MultiWaferConfig;
        use wsc_workload::training::TrainingJob;
        use wsc_workload::zoo;
        for cfg in 1..=4 {
            let wafer = presets::config(cfg);
            for model in zoo::main_eval_models() {
                let job = TrainingJob::standard(model);
                for allow_odd_tp in [false, true] {
                    let opts = SchedulerOptions {
                        plans: PlanFilter::all(),
                        allow_odd_tp,
                        ..SchedulerOptions::default()
                    };
                    for wafers in 1..=4 {
                        let node = MultiWaferConfig {
                            wafers,
                            wafer: wafer.clone(),
                            ..presets::multi_wafer_18()
                        };
                        for list in [
                            work_list(&wafer, &job, &opts),
                            node_work_list(&node, &job, &opts),
                        ] {
                            let mut keys: Vec<PlanKey> = list.iter().map(WorkItem::key).collect();
                            keys.sort_unstable();
                            let before = keys.len();
                            keys.dedup();
                            assert_eq!(
                                keys.len(),
                                before,
                                "config {cfg} on {wafers} wafers, {}, odd TP {allow_odd_tp}",
                                job.model.name
                            );
                        }
                    }
                }
            }
        }
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
                payload: "seeded failure".to_string(),
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
