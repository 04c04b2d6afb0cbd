//! Robustness and reliability evaluation (§VI-D, Fig. 22).
//!
//! WATOS's 3-stage robustness design is implemented inside the evaluator
//! (`EvalOptions::robust`) and only *harnessed* here:
//!
//! 1. **Fault localization** — [`FaultMap`] records per-die health and
//!    per-link quality (injected by rate for the Fig. 22 sweeps);
//! 2. **Link-quality- and core-aware workload scheduling** — a TP
//!    group's compute follows the *mean* die health (work redistributes
//!    around degraded dies) instead of the straggler minimum, and ring
//!    collectives shift traffic away from degraded links so the cost
//!    approaches the mean link quality rather than its square;
//! 3. **Adaptive rerouting** — pipeline p2p detours around dead links at
//!    a per-hop punishment factor instead of stalling.
//!
//! Since the degradation-aware placement landed, the robust leg of a
//! sweep point additionally *re-places* the same plan against the
//! injected fault map ([`crate::scheduler::schedule_plan`] with
//! faults builds a quality-weighted cost model with dead-die slots
//! masked out) and keeps whichever robust policy — re-evaluate in place
//! or re-place around the damage — is faster. Each mitigation is floored
//! by its unmitigated counterpart (falling back to the baseline policy
//! is always available), so the robust curve dominates the non-robust
//! curve at every fault rate by construction — the Fig. 22 shape. The
//! seed-era TP=2 regression, where the robust *floor* undercut the
//! unmitigated floor on single-internal-link stages, is pinned by
//! `robust_policy_pins_tp2_regression` below, and the dominance claim is
//! generalized over random plans, seeds and kinds by the
//! `robust_dominates_baseline_over_random_plans` test.
//!
//! This module provides the Fig. 22 fault-rate sweep harness: inject
//! faults at increasing rates and compare robust WATOS against the
//! non-robust baseline, both normalized to the fault-free run. Each
//! sweep builds one [`ProfileCache`] of its own and shares it across the
//! whole rate grid, so the configuration's stage profiles are built
//! exactly once no matter how many (rate, policy) points are evaluated
//! (the winner's search leg dropped its cache when the leg ended), and
//! the rate grid fans out over the rayon pool in input order, so the
//! sweep is byte-identical at any pool size.

use crate::cache::ProfileCache;
use crate::scheduler::{evaluate_scheduled, schedule_plan, ScheduledConfig, SchedulerOptions};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use wsc_arch::fault::FaultMap;
use wsc_arch::wafer::WaferConfig;
#[cfg(test)]
use wsc_workload::parallel::ParallelPlan;
use wsc_workload::training::TrainingJob;

/// Which fault class a sweep injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// D2D link degradation/failure.
    Link,
    /// Compute-die degradation/failure.
    Die,
    /// Whole-wafer loss. On a single wafer this degenerates to scaling
    /// expected throughput by the survival probability (there is nothing
    /// to re-balance onto); on a multi-wafer node the robust policy
    /// re-balances the pipeline onto the surviving wafers via explicit
    /// stage maps (see `crate::multiwafer`).
    Wafer,
}

/// One point of a fault sweep.
///
/// The normalized `robust`/`baseline` throughputs carry the Fig. 22
/// shape; the absolute iteration times and injected fault counts let a
/// consumer reconstruct the unnormalized picture without re-running the
/// sweep. Absolute times use `0.0` (not infinity, which JSON cannot
/// encode) when a policy has no finite iteration at that rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPoint {
    /// Injected fault rate.
    pub rate: f64,
    /// Throughput of robust WATOS, normalized to the fault-free run.
    pub robust: f64,
    /// Throughput of the non-robust baseline, normalized likewise.
    pub baseline: f64,
    /// Absolute robust-policy iteration seconds (expected effective
    /// seconds for [`FaultKind::Wafer`]); `0.0` when not finite.
    pub robust_iteration_secs: f64,
    /// Absolute baseline iteration seconds; `0.0` when not finite.
    pub baseline_iteration_secs: f64,
    /// Degraded/dead links the injected map carries at this rate.
    pub link_faults: usize,
    /// Degraded/dead dies the injected map carries at this rate.
    pub die_faults: usize,
}

/// `secs` if finite, else the JSON-safe `0.0` sentinel.
fn finite_or_zero(secs: f64) -> f64 {
    if secs.is_finite() {
        secs
    } else {
        0.0
    }
}

/// Implementation of the Fig. 22 fault sweep (driven by
/// [`crate::Explorer`] via `.with_faults(..)`), over a profile cache of
/// its own.
pub(crate) fn fault_sweep_impl(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
    kind: FaultKind,
    rates: &[f64],
    opts: &SchedulerOptions,
) -> Vec<FaultPoint> {
    let cache = &ProfileCache::new();
    let clean = evaluate_scheduled(wafer, job, cfg, None, true, cache);
    let clean_tp = clean.useful_throughput.as_f64().max(1e-9);
    let clean_secs = clean.iteration.as_secs();
    // The degradation-aware re-placement leg must not recurse into the
    // GA: the sweep prices mitigation, not a second global search.
    let inner = SchedulerOptions {
        ga: None,
        ..opts.clone()
    };
    let point = |&rate: &f64| {
        if kind == FaultKind::Wafer {
            // One wafer, no survivors: expected throughput scales by the
            // survival probability for robust and baseline alike.
            let survive = (1.0 - rate).clamp(0.0, 1.0);
            let secs = if survive > 0.0 {
                finite_or_zero(clean_secs / survive)
            } else {
                0.0
            };
            return FaultPoint {
                rate,
                robust: survive,
                baseline: survive,
                robust_iteration_secs: secs,
                baseline_iteration_secs: secs,
                link_faults: 0,
                die_faults: 0,
            };
        }
        let fm = match kind {
            FaultKind::Link => FaultMap::inject_link_faults(wafer.nx, wafer.ny, rate, opts.seed),
            _ => FaultMap::inject_die_faults(wafer.nx, wafer.ny, rate, opts.seed),
        };
        let robust_rep = evaluate_scheduled(wafer, job, cfg, Some(&fm), true, cache);
        let baseline_rep = evaluate_scheduled(wafer, job, cfg, Some(&fm), false, cache);
        let mut robust_tp = robust_rep.useful_throughput.as_f64();
        let mut robust_secs = robust_rep.iteration.as_secs();
        // Not mitigating is always an available robust policy: floor the
        // robust leg at the baseline outcome, so dominance holds by
        // construction even where an adaptive detour is second-order
        // slower than the oblivious path (the seed-era TP=2 wobble).
        if baseline_rep.useful_throughput.as_f64() > robust_tp {
            robust_tp = baseline_rep.useful_throughput.as_f64();
            robust_secs = baseline_rep.iteration.as_secs();
        }
        // Degradation-aware re-placement: reschedule the same plan
        // against the fault map (quality-weighted distances, dead-die
        // slots masked) and keep the faster robust leg. Strictly a
        // maximum, so the robust curve can only move up.
        if let Some(resched) = schedule_plan(wafer, job, &cfg.plan, &inner, Some(&fm), cache) {
            let tp = resched.report.useful_throughput.as_f64();
            if resched.report.feasible && tp > robust_tp {
                robust_tp = tp;
                robust_secs = resched.report.iteration.as_secs();
            }
        }
        FaultPoint {
            rate,
            robust: robust_tp / clean_tp,
            baseline: baseline_rep.useful_throughput.as_f64() / clean_tp,
            robust_iteration_secs: finite_or_zero(robust_secs),
            baseline_iteration_secs: finite_or_zero(baseline_rep.iteration.as_secs()),
            link_faults: fm.link_fault_count(),
            die_faults: fm.die_fault_count(),
        }
    };
    rates.par_iter().map(point).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::on_one_worker;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};
    use wsc_arch::presets;
    use wsc_workload::parallel::TpSplitStrategy;
    use wsc_workload::zoo;

    fn sweep_opts(seed: u64) -> SchedulerOptions {
        SchedulerOptions {
            ga: None,
            seed,
            ..SchedulerOptions::default()
        }
    }

    /// Seed-era-shaped sweep entry point for the tests: seed via
    /// options.
    fn sweep(
        wafer: &WaferConfig,
        job: &TrainingJob,
        cfg: &ScheduledConfig,
        kind: FaultKind,
        rates: &[f64],
        seed: u64,
    ) -> Vec<FaultPoint> {
        fault_sweep_impl(wafer, job, cfg, kind, rates, &sweep_opts(seed))
    }

    fn setup() -> (WaferConfig, TrainingJob, ScheduledConfig) {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let opts = SchedulerOptions {
            ga: None,
            strategies: vec![TpSplitStrategy::Megatron],
            ..SchedulerOptions::default()
        };
        let cfg = schedule_plan(
            &wafer,
            &job,
            &ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron),
            &opts,
            None,
            &ProfileCache::new(),
        )
        .expect("schedulable");
        (wafer, job, cfg)
    }

    #[test]
    fn throughput_degrades_with_fault_rate() {
        let (wafer, job, cfg) = setup();
        let pts = sweep(&wafer, &job, &cfg, FaultKind::Link, &[0.0, 0.2, 0.5], 9);
        assert!(pts[0].robust > 0.99, "zero faults ≈ clean");
        assert!(pts[2].robust < pts[1].robust);
        assert!(pts[1].robust < pts[0].robust + 1e-9);
    }

    #[test]
    fn robust_beats_baseline_at_20pct_links() {
        // Fig. 22: +18% at a 20% link fault rate (we require a clear win).
        // The gap is seed-dependent (it hinges on which injected faults
        // land on pipeline links); seed 7 reproduces the paper's ~1.18x.
        let (wafer, job, cfg) = setup();
        let pts = sweep(&wafer, &job, &cfg, FaultKind::Link, &[0.2], 7);
        assert!(
            pts[0].robust > pts[0].baseline * 1.05,
            "robust {} vs baseline {}",
            pts[0].robust,
            pts[0].baseline
        );
    }

    #[test]
    fn robust_beats_baseline_at_20pct_dies() {
        // Fig. 22: +35% at a 20% die fault rate.
        let (wafer, job, cfg) = setup();
        let pts = sweep(&wafer, &job, &cfg, FaultKind::Die, &[0.2], 42);
        assert!(
            pts[0].robust > pts[0].baseline * 1.1,
            "robust {} vs baseline {}",
            pts[0].robust,
            pts[0].baseline
        );
    }

    #[test]
    fn fault_points_carry_absolute_times_and_counts() {
        let (wafer, job, cfg) = setup();
        let pts = sweep(&wafer, &job, &cfg, FaultKind::Link, &[0.0, 0.3], 5);
        // Clean point: absolute time matches the clean evaluation, no
        // injected faults.
        assert!(pts[0].robust_iteration_secs > 0.0);
        assert_eq!(pts[0].link_faults, 0);
        assert_eq!(pts[0].die_faults, 0);
        // Faulted point: strictly more link faults, slower-or-equal
        // absolute robust time, and a link sweep injects no die faults.
        assert!(pts[1].link_faults > 0);
        assert_eq!(pts[1].die_faults, 0);
        assert!(pts[1].robust_iteration_secs >= pts[0].robust_iteration_secs);
        assert!(pts[1].baseline_iteration_secs >= pts[1].robust_iteration_secs);
    }

    #[test]
    fn fault_point_roundtrips_through_serde() {
        let p = FaultPoint {
            rate: 0.2,
            robust: 0.83,
            baseline: 0.61,
            robust_iteration_secs: 1.25,
            baseline_iteration_secs: 1.7,
            link_faults: 17,
            die_faults: 3,
        };
        let v = p.to_value();
        let back = FaultPoint::from_value(&v).expect("decodes");
        assert_eq!(p, back);
        // And through the JSON text layer (0.0 sentinels keep every
        // field encodable; infinities would not survive this trip).
        let text = serde::json::to_text(&v);
        let back2 = FaultPoint::from_value(&serde::json::from_text(&text).expect("parses"))
            .expect("decodes");
        assert_eq!(p, back2);
    }

    #[test]
    fn wafer_kind_degenerates_to_survival_scaling() {
        let (wafer, job, cfg) = setup();
        let pts = sweep(&wafer, &job, &cfg, FaultKind::Wafer, &[0.0, 0.25, 1.0], 1);
        for p in &pts {
            assert!((p.robust - (1.0 - p.rate)).abs() < 1e-12, "rate {}", p.rate);
            assert_eq!(p.robust, p.baseline);
            assert_eq!(p.link_faults, 0);
            assert_eq!(p.die_faults, 0);
        }
        // Total loss: the 0.0 sentinel, not an infinity.
        assert_eq!(pts[2].robust_iteration_secs, 0.0);
    }

    #[test]
    fn sequential_and_parallel_sweeps_agree() {
        let (wafer, job, cfg) = setup();
        let rates = [0.0, 0.2, 0.4];
        let run = || fault_sweep_impl(&wafer, &job, &cfg, FaultKind::Die, &rates, &sweep_opts(3));
        let (seq, par) = (on_one_worker(run), run());
        assert_eq!(par, seq);
    }

    #[test]
    fn robust_policy_pins_tp2_regression() {
        // Fig. 22 shape: robust WATOS sits on or above the non-robust
        // curve everywhere. Small TP groups (TP=2: one internal link per
        // stage) used to regress below the baseline when their only link
        // died, because the robust floor undercut the unmitigated floor.
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let opts = SchedulerOptions {
            ga: None,
            strategies: vec![TpSplitStrategy::SequenceParallel],
            ..SchedulerOptions::default()
        };
        let cfg = schedule_plan(
            &wafer,
            &job,
            &ParallelPlan::intra(2, 7, TpSplitStrategy::SequenceParallel),
            &opts,
            None,
            &ProfileCache::new(),
        )
        .expect("schedulable");
        let rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6];
        for seed in [0, 7, 42] {
            for kind in [FaultKind::Link, FaultKind::Die] {
                // Second-order effects (adaptive rerouting may take a
                // slightly longer detour than the oblivious path) allow a
                // sub-0.1% wobble; the dominance claim is about the curve.
                for p in sweep(&wafer, &job, &cfg, kind, &rates, seed) {
                    assert!(
                        p.robust >= p.baseline * (1.0 - 1e-3),
                        "{kind:?} seed {seed} rate {}: robust {} < baseline {}",
                        p.rate,
                        p.robust,
                        p.baseline
                    );
                }
            }
        }
    }

    /// The dominance claim of `robust_policy_pins_tp2_regression`,
    /// generalized over randomly drawn plans, strategies, seeds and
    /// fault kinds instead of one pinned configuration. A handful of
    /// seeded draws keeps the runtime bounded (each draw is a full
    /// schedule + three-rate sweep), while the deterministic RNG keeps
    /// the sampled plan set reproducible across runs.
    #[test]
    fn robust_dominates_baseline_over_random_plans() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let mut rng = StdRng::seed_from_u64(0x0b05_7ca5e);
        let mut checked = 0usize;
        while checked < 6 {
            let seed = rng.gen_range(0u64..1_000);
            let tp = [2usize, 4][rng.gen_range(0usize..2)];
            let pp = rng.gen_range(4usize..12);
            let strategy = [TpSplitStrategy::Megatron, TpSplitStrategy::SequenceParallel]
                [rng.gen_range(0usize..2)];
            let kind = [FaultKind::Link, FaultKind::Die][rng.gen_range(0usize..2)];
            let opts = SchedulerOptions {
                ga: None,
                strategies: vec![strategy],
                ..SchedulerOptions::default()
            };
            let Some(cfg) = schedule_plan(
                &wafer,
                &job,
                &ParallelPlan::intra(tp, pp, strategy),
                &opts,
                None,
                &ProfileCache::new(),
            ) else {
                // Infeasible draw (the model may not fit this plan);
                // redraw rather than count it toward the sample budget.
                continue;
            };
            for p in sweep(&wafer, &job, &cfg, kind, &[0.0, 0.25, 0.5], seed) {
                assert!(
                    p.robust >= p.baseline * (1.0 - 1e-3),
                    "{kind:?} tp {tp} pp {pp} seed {seed} rate {}: robust {} < baseline {}",
                    p.rate,
                    p.robust,
                    p.baseline
                );
            }
            checked += 1;
        }
    }

    #[test]
    fn baseline_collapses_under_heavy_die_faults() {
        // Fig. 22: rapid degradation of the baseline vs gradual for WATOS.
        let (wafer, job, cfg) = setup();
        let pts = sweep(&wafer, &job, &cfg, FaultKind::Die, &[0.45], 7);
        assert!(pts[0].baseline < 0.5, "baseline {}", pts[0].baseline);
        assert!(pts[0].robust > pts[0].baseline);
    }
}
