//! Checkpoint-aware training goodput under yield ensembles.
//!
//! The clean-wafer search optimizes *iteration time*; a production run
//! cares about *goodput* — useful training work per wall-clock second on
//! the (imperfect) wafer you actually got, after paying for
//! checkpointing, failures and restarts. This module supplies the two
//! missing pieces:
//!
//! 1. **Yield ensembles** — a [`FaultEnsemble`] is a seeded Monte-Carlo
//!    population of [`FaultMap`]s drawn from the *clustered* defect model
//!    ([`FaultMap::inject_clustered_faults`]): real wafer defects are
//!    spatially correlated blobs, not i.i.d. coin flips. Sample maps are
//!    a pure function of `(seed, sample index, grid)`, so every search
//!    candidate is scored against the *same* wafer population regardless
//!    of evaluation order or thread count.
//! 2. **Checkpoint-aware goodput** — an MTBF-driven failure process with
//!    Daly's first-order optimal checkpoint interval
//!    `τ_opt = √(2δ(M+R)) − δ` converts an iteration time into an
//!    *effective* iteration time (and thence goodput): checkpoint cost δ
//!    every τ seconds, plus expected rework and restart R per failure at
//!    system MTBF M. The system MTBF derates with the die count (more
//!    silicon, more failures) and with the sampled fault fraction
//!    (degraded silicon fails faster).
//!
//! ## The pruning contract
//!
//! The fault-aware search ranks candidates by
//! [`ensemble_effective_secs`] while the wave engine keeps pruning
//! against the *clean* analytic lower bound. That stays sound because
//! every transformation here only ever adds time: a faulted evaluation
//! is never faster than the clean one (fault factors scale compute down
//! and links down, never up), and the goodput fraction divides the
//! iteration time by a factor ≤ 1. So for every candidate,
//! `clean bound ≤ clean iteration ≤ ensemble effective seconds`, and a
//! bound that exceeds the incumbent's ensemble score proves the
//! candidate cannot win. The `search_equivalence` proptests pin
//! pruned ≡ exhaustive byte-identity with the fault axes enabled.
//!
//! The same incumbent also ends a candidate's ensemble early: once the
//! samples scored so far prove its aggregate *strictly* above the
//! incumbent of the search's completed waves, it has lost, and the
//! remaining samples are skipped.

use crate::cache::ProfileCache;
use crate::scheduler::{evaluate_scheduled, ScheduledConfig};
use crate::wave::Cutoff;
use serde::{Deserialize, Serialize};
use thiserror::Error;
use wsc_arch::fault::FaultMap;
use wsc_arch::units::Time;
use wsc_arch::wafer::WaferConfig;
use wsc_workload::training::TrainingJob;

/// Why an ensemble goodput could not be computed. `INFINITY` is a fine
/// *sample-level* sentinel ("this sampled wafer cannot run the plan"),
/// but letting it reach a goodput denominator silently yields 0 — and a
/// NaN or 0 quietly ranked against real numbers is garbage. The
/// degenerate ensembles are typed instead.
#[derive(Debug, Clone, Copy, PartialEq, Error)]
pub enum GoodputError {
    /// The ensemble has no samples (only constructible via a struct
    /// literal — [`FaultEnsemble::clustered`] clamps to ≥ 1).
    #[error("fault ensemble has no samples: nothing to aggregate")]
    EmptySamples,
    /// Every sampled wafer made the configuration infeasible (e.g.
    /// `rate == 1.0` leaves no healthy dies).
    #[error(
        "all {samples} ensemble samples at fault rate {rate} are infeasible for this configuration"
    )]
    AllSamplesInfeasible {
        /// The ensemble's fault rate.
        rate: f64,
        /// The ensemble's sample count.
        samples: usize,
    },
    /// Feasible samples exist, but the objective's aggregate is still
    /// not a positive finite number (e.g. `Worst`/`P95` land on an
    /// infeasible tail sample).
    #[error("{objective:?} aggregate over the ensemble is not finite ({infeasible} of {samples} samples infeasible)")]
    InfeasibleAggregate {
        /// The objective whose aggregate degenerated.
        objective: RobustObjective,
        /// Number of infeasible samples.
        infeasible: usize,
        /// Total sample count.
        samples: usize,
    },
}

/// Checkpoint/restart cost model for the MTBF failure process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointSpec {
    /// Mean time between failures of one healthy die. The *system* MTBF
    /// is this divided by the dies a configuration occupies (and further
    /// derated by the sampled fault fraction).
    pub die_mtbf: Time,
    /// Cost δ of writing one checkpoint.
    pub checkpoint_cost: Time,
    /// Cost R of restarting from the last checkpoint after a failure
    /// (excluding the lost work, which the model accounts separately).
    pub restart_cost: Time,
}

impl Default for CheckpointSpec {
    /// One-year per-die MTBF, 60 s checkpoints, 5 min restarts —
    /// deliberately round numbers in the regime where checkpoint
    /// overhead is a few percent on a healthy wafer and grows visibly
    /// with die count and degradation.
    fn default() -> Self {
        CheckpointSpec {
            die_mtbf: Time::from_secs(3.156e7),
            checkpoint_cost: Time::from_secs(60.0),
            restart_cost: Time::from_secs(300.0),
        }
    }
}

impl CheckpointSpec {
    /// System MTBF of a job occupying `dies` dies on a wafer with the
    /// given degraded-site fraction: failures arrive independently per
    /// die, and degraded silicon fails proportionally faster.
    pub fn system_mtbf(&self, dies: usize, fault_fraction: f64) -> Time {
        let derate = dies.max(1) as f64 * (1.0 + fault_fraction.clamp(0.0, 1.0));
        Time::from_secs(self.die_mtbf.as_secs() / derate)
    }

    /// Daly's first-order optimal checkpoint interval
    /// `τ_opt = √(2δ(M+R)) − δ`, floored at δ (checkpointing more often
    /// than a checkpoint takes is never optimal).
    pub fn optimal_interval(&self, mtbf: Time) -> Time {
        let d = self.checkpoint_cost.as_secs();
        let m = mtbf.as_secs() + self.restart_cost.as_secs();
        Time::from_secs(((2.0 * d * m).sqrt() - d).max(d))
    }

    /// Fraction of wall-clock time spent on useful work for a job on
    /// `dies` dies with the given fault fraction, at the optimal
    /// checkpoint interval: `(1 − δ/(τ+δ)) · (1 − ((τ+δ)/2 + R)/M)`,
    /// clamped to `[0.01, 1]`. The first factor is checkpoint overhead,
    /// the second the expected rework + restart per failure.
    pub fn goodput_fraction(&self, dies: usize, fault_fraction: f64) -> f64 {
        let mtbf = self.system_mtbf(dies, fault_fraction).as_secs();
        let tau = self
            .optimal_interval(self.system_mtbf(dies, fault_fraction))
            .as_secs();
        let d = self.checkpoint_cost.as_secs();
        let r = self.restart_cost.as_secs();
        let segment = tau + d;
        let waste_ckpt = d / segment.max(d.max(1e-9));
        let waste_fail = ((segment / 2.0 + r) / mtbf.max(1e-9)).min(0.99);
        ((1.0 - waste_ckpt) * (1.0 - waste_fail)).clamp(0.01, 1.0)
    }
}

/// How the ensemble of per-sample effective times is folded into one
/// score (lower = better; the search minimizes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RobustObjective {
    /// Expected effective iteration time over the ensemble.
    Mean,
    /// Worst sampled wafer (max effective time) — the conservative bet.
    Worst,
    /// 95th percentile of the sampled effective times: robust to the
    /// worst few percent of wafers without letting a single outlier
    /// dictate the plan.
    P95,
}

impl RobustObjective {
    /// Aggregate per-sample effective seconds into the scalar score.
    /// Deterministic: ties in the percentile sort are broken by the
    /// total order on f64 bits, and the mean sums in slice order.
    pub fn aggregate_secs(&self, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            return f64::INFINITY;
        }
        match self {
            RobustObjective::Mean => samples.iter().sum::<f64>() / samples.len() as f64,
            RobustObjective::Worst => samples.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
            RobustObjective::P95 => crate::stats::percentile(samples, 0.95),
        }
    }

    /// Whether `prefix`, the first samples of an ensemble of `samples`
    /// in sample order, proves the aggregate of the whole ensemble
    /// strictly above `incumbent`, whatever the remaining samples are
    /// (NaN included). Samples are effective seconds: non-negative, or
    /// `INFINITY` for an infeasible wafer.
    ///
    /// * `Worst`: one sample is above the incumbent, so the max is.
    /// * `P95`: more samples are above than the nearest rank skips (the
    ///   `samples − rank` largest), so the ranked sample is above too.
    /// * `Mean`: the slice-order prefix sum over `samples` is already
    ///   above. Non-negative terms never lower a float sum, so the full
    ///   sum, and its mean, can only be larger.
    pub(crate) fn exceeds(&self, prefix: &[f64], samples: usize, incumbent: f64) -> bool {
        let above = || prefix.iter().filter(|&&s| s > incumbent).count();
        match self {
            RobustObjective::Worst => above() > 0,
            RobustObjective::P95 => above() + crate::stats::rank(samples, 0.95) > samples,
            RobustObjective::Mean => prefix.iter().sum::<f64>() / samples as f64 > incumbent,
        }
    }
}

/// A seeded Monte-Carlo population of clustered-defect wafers plus the
/// checkpoint model — everything the fault-aware search needs to score
/// a candidate by ensemble goodput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEnsemble {
    /// Target fraction of degraded dies per sampled wafer.
    pub rate: f64,
    /// Number of Monte-Carlo wafer samples.
    pub samples: usize,
    /// Base seed; sample `i` draws from `splitmix64(seed, i)`.
    pub seed: u64,
    /// Checkpoint/restart model for the goodput conversion.
    pub checkpoint: CheckpointSpec,
}

impl FaultEnsemble {
    /// A clustered-defect ensemble at `rate` with `samples` wafers and
    /// the default checkpoint model.
    pub fn clustered(rate: f64, samples: usize, seed: u64) -> Self {
        FaultEnsemble {
            rate: rate.clamp(0.0, 1.0),
            samples: samples.max(1),
            seed,
            checkpoint: CheckpointSpec::default(),
        }
    }

    /// The ensemble's fault maps for an `nx × ny` wafer — a pure
    /// function of the ensemble parameters and the grid.
    pub fn sample_maps(&self, nx: usize, ny: usize) -> Vec<FaultMap> {
        (0..self.samples)
            .map(|i| self.sample_map(i, nx, ny))
            .collect()
    }

    /// Sample `i` of [`FaultEnsemble::sample_maps`].
    fn sample_map(&self, i: usize, nx: usize, ny: usize) -> FaultMap {
        FaultMap::inject_clustered_faults(
            nx,
            ny,
            self.rate,
            crate::stats::splitmix64(self.seed, i as u64),
        )
    }
}

/// Effective seconds per iteration of `cfg` on one sampled wafer:
/// the (robust-policy) faulted iteration time divided by the goodput
/// fraction of the checkpoint model. `INFINITY` when the sample makes
/// the configuration infeasible.
pub fn effective_iteration_secs(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
    map: &FaultMap,
    checkpoint: &CheckpointSpec,
    cache: &ProfileCache,
) -> f64 {
    let rep = evaluate_scheduled(wafer, job, cfg, Some(map), true, cache);
    if !rep.feasible {
        return f64::INFINITY;
    }
    let dies = cfg.parallel.devices();
    let fraction = map.fault_fraction(wafer.nx, wafer.ny);
    rep.iteration.as_secs() / checkpoint.goodput_fraction(dies, fraction)
}

/// The fault-aware search score of `cfg`: per-sample effective seconds
/// aggregated by `objective`. Always ≥ the clean iteration time (see the
/// module docs for why that keeps clean-bound pruning sound).
pub fn ensemble_effective_secs(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
    ensemble: &FaultEnsemble,
    objective: RobustObjective,
    cache: &ProfileCache,
) -> f64 {
    ensemble_effective_secs_within(wafer, job, cfg, ensemble, objective, cache, Cutoff::NONE)
}

/// [`ensemble_effective_secs`] under a [`Cutoff`]: the fault-aware
/// score loops over every ensemble sample, the most expensive step of a
/// candidate evaluation, and stops early on either of the cutoff's two
/// grounds. Past the deadline an anytime search bails out
/// mid-candidate; once the samples so far prove the aggregate strictly
/// above the incumbent ([`RobustObjective::exceeds`]) the candidate has
/// lost. Either way the remaining samples are not evaluated and the
/// score is `INFINITY`, which the search treats as "candidate not
/// scored": it keeps its incumbent, and the next wave boundary honors
/// the deadline. An uncut score is bit for bit the full aggregate.
pub(crate) fn ensemble_effective_secs_within(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
    ensemble: &FaultEnsemble,
    objective: RobustObjective,
    cache: &ProfileCache,
    cutoff: Cutoff,
) -> f64 {
    per_sample_secs(wafer, job, cfg, ensemble, objective, cache, cutoff)
        .map_or(f64::INFINITY, |per_sample| {
            objective.aggregate_secs(&per_sample)
        })
}

/// The effective seconds of `cfg` on every ensemble sample, in sample
/// order, each sample's map drawn only when it is scored; `None` when
/// the cutoff stops the loop ([`until_cut`]).
fn per_sample_secs(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
    ensemble: &FaultEnsemble,
    objective: RobustObjective,
    cache: &ProfileCache,
    cutoff: Cutoff,
) -> Option<Vec<f64>> {
    until_cut(objective, ensemble.samples, cutoff, |i| {
        let map = ensemble.sample_map(i, wafer.nx, wafer.ny);
        effective_iteration_secs(wafer, job, cfg, &map, &ensemble.checkpoint, cache)
    })
}

/// The ensemble loop: `sample(i)` for every sample `i < samples`, in
/// order, or `None` as soon as the cutoff's deadline has passed or the
/// values so far prove `objective`'s aggregate strictly above its
/// incumbent ([`RobustObjective::exceeds`]), before the next sample
/// is drawn.
fn until_cut(
    objective: RobustObjective,
    samples: usize,
    cutoff: Cutoff,
    mut sample: impl FnMut(usize) -> f64,
) -> Option<Vec<f64>> {
    let mut values = Vec::with_capacity(samples);
    for i in 0..samples {
        if cutoff.past_deadline() || objective.exceeds(&values, samples, cutoff.incumbent) {
            return None;
        }
        values.push(sample(i));
    }
    Some(values)
}

/// Ensemble goodput of `cfg` in useful FLOP/s: the clean iteration's
/// useful work divided by the ensemble-aggregated effective seconds.
/// This is the number `bench_fault` reports and the acceptance gap is
/// measured on. Degenerate ensembles — no samples, every sample
/// infeasible, or a non-finite aggregate — return a typed
/// [`GoodputError`] instead of a 0/NaN that would rank as garbage.
pub fn ensemble_goodput(
    wafer: &WaferConfig,
    job: &TrainingJob,
    cfg: &ScheduledConfig,
    ensemble: &FaultEnsemble,
    objective: RobustObjective,
    cache: &ProfileCache,
) -> Result<f64, GoodputError> {
    if ensemble.samples == 0 {
        return Err(GoodputError::EmptySamples);
    }
    // No cutoff, so every sample is scored.
    let per_sample = per_sample_secs(wafer, job, cfg, ensemble, objective, cache, Cutoff::NONE)
        .unwrap_or_default();
    let infeasible = per_sample.iter().filter(|s| !s.is_finite()).count();
    if infeasible == per_sample.len() {
        return Err(GoodputError::AllSamplesInfeasible {
            rate: ensemble.rate,
            samples: ensemble.samples,
        });
    }
    let eff = objective.aggregate_secs(&per_sample);
    if !eff.is_finite() || eff <= 0.0 {
        return Err(GoodputError::InfeasibleAggregate {
            objective,
            infeasible,
            samples: per_sample.len(),
        });
    }
    let clean = evaluate_scheduled(wafer, job, cfg, None, true, cache);
    Ok(clean.useful_flops.as_f64() / eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{schedule_plan, SchedulerOptions};
    use std::time::Instant;
    use wsc_arch::presets;
    use wsc_workload::parallel::{ParallelPlan, TpSplitStrategy};
    use wsc_workload::zoo;

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
    fn goodput_fraction_degrades_with_dies_and_faults() {
        let c = CheckpointSpec::default();
        let healthy_small = c.goodput_fraction(16, 0.0);
        let healthy_big = c.goodput_fraction(512, 0.0);
        let degraded_big = c.goodput_fraction(512, 0.5);
        assert!(
            healthy_small > healthy_big,
            "{healthy_small} vs {healthy_big}"
        );
        assert!(
            healthy_big > degraded_big,
            "{healthy_big} vs {degraded_big}"
        );
        assert!((0.01..=1.0).contains(&degraded_big));
    }

    #[test]
    fn optimal_interval_matches_daly_formula() {
        let c = CheckpointSpec::default();
        let m = c.system_mtbf(56, 0.0);
        let tau = c.optimal_interval(m).as_secs();
        let d = c.checkpoint_cost.as_secs();
        let expected = (2.0 * d * (m.as_secs() + c.restart_cost.as_secs())).sqrt() - d;
        assert!((tau - expected).abs() < 1e-9);
        // A vanishing MTBF floors the interval at δ instead of going
        // negative.
        assert!(c.optimal_interval(Time::from_secs(0.0)).as_secs() >= d);
    }

    #[test]
    fn objectives_order_as_expected() {
        let samples = [1.0, 2.0, 3.0, 4.0, 100.0];
        let mean = RobustObjective::Mean.aggregate_secs(&samples);
        let worst = RobustObjective::Worst.aggregate_secs(&samples);
        let p95 = RobustObjective::P95.aggregate_secs(&samples);
        assert!((mean - 22.0).abs() < 1e-12);
        assert_eq!(worst, 100.0);
        assert!(p95 <= worst && p95 >= mean.min(100.0) - 22.0);
        assert_eq!(
            RobustObjective::Mean.aggregate_secs(&[]),
            f64::INFINITY,
            "an empty ensemble can never rank a candidate"
        );
    }

    #[test]
    fn ensemble_sampling_is_deterministic_and_decorrelated() {
        let e = FaultEnsemble::clustered(0.2, 4, 7);
        let a = e.sample_maps(8, 7);
        let b = e.sample_maps(8, 7);
        assert_eq!(a, b);
        assert!(a[0] != a[1], "samples must differ across the ensemble");
        let other = FaultEnsemble::clustered(0.2, 4, 8).sample_maps(8, 7);
        assert!(a[0] != other[0], "seed must matter");
    }

    #[test]
    fn effective_time_dominates_clean_iteration() {
        // The pruning-soundness inequality, checked directly: every
        // sample's effective time, and every objective's aggregate, sits
        // at or above the clean iteration time.
        let (wafer, job, cfg) = setup();
        let cache = ProfileCache::new();
        let clean = evaluate_scheduled(&wafer, &job, &cfg, None, true, &cache)
            .iteration
            .as_secs();
        let ensemble = FaultEnsemble::clustered(0.2, 5, 11);
        for m in ensemble.sample_maps(wafer.nx, wafer.ny) {
            let eff =
                effective_iteration_secs(&wafer, &job, &cfg, &m, &ensemble.checkpoint, &cache);
            assert!(eff >= clean, "sample effective {eff} < clean {clean}");
        }
        for obj in [
            RobustObjective::Mean,
            RobustObjective::Worst,
            RobustObjective::P95,
        ] {
            let s = ensemble_effective_secs(&wafer, &job, &cfg, &ensemble, obj, &cache);
            assert!(s >= clean, "{obj:?} aggregate {s} < clean {clean}");
        }
    }

    #[test]
    fn goodput_is_positive_and_below_clean_throughput() {
        let (wafer, job, cfg) = setup();
        let cache = ProfileCache::new();
        let clean = evaluate_scheduled(&wafer, &job, &cfg, None, true, &cache);
        let ensemble = FaultEnsemble::clustered(0.2, 5, 11);
        let g = ensemble_goodput(&wafer, &job, &cfg, &ensemble, RobustObjective::Mean, &cache)
            .expect("a mildly degraded ensemble is feasible");
        assert!(g > 0.0);
        assert!(
            g < clean.useful_throughput.as_f64(),
            "goodput {g} must pay for faults + checkpoints"
        );
    }

    #[test]
    fn degenerate_ensembles_yield_typed_errors_not_garbage() {
        let (wafer, job, cfg) = setup();
        let cache = ProfileCache::new();
        // samples == 0 is only reachable via a struct literal (the
        // constructor clamps) — it must still be a typed error, never a
        // divide-by-aggregate-of-nothing.
        let empty = FaultEnsemble {
            samples: 0,
            ..FaultEnsemble::clustered(0.2, 1, 3)
        };
        assert_eq!(
            ensemble_goodput(&wafer, &job, &cfg, &empty, RobustObjective::Mean, &cache),
            Err(GoodputError::EmptySamples)
        );
        // Faults degrade timing, never feasibility — per-sample INFINITY
        // comes from a configuration that cannot run at all (e.g. its
        // recompute plan overflows memory). Every sample then scores
        // INFINITY and the aggregate must be the typed error, not a
        // garbage ranking value.
        let ensemble = FaultEnsemble::clustered(0.2, 3, 3);
        let mut broken = cfg.clone();
        broken.recompute.feasible = false;
        let err = ensemble_goodput(
            &wafer,
            &job,
            &broken,
            &ensemble,
            RobustObjective::Mean,
            &cache,
        )
        .expect_err("an infeasible configuration cannot run anything");
        assert!(
            matches!(err, GoodputError::AllSamplesInfeasible { samples: 3, .. }),
            "got {err:?}"
        );
        // The error renders a human-readable message (thiserror).
        assert!(err.to_string().contains("infeasible"), "{err}");
    }

    /// One objective's score of `values` through the ensemble loop under
    /// `incumbent`; `None` when the loop cut it.
    fn cut_score(objective: RobustObjective, values: &[f64], incumbent: f64) -> Option<f64> {
        let cutoff = Cutoff {
            incumbent,
            ..Cutoff::NONE
        };
        until_cut(objective, values.len(), cutoff, |i| values[i])
            .map(|all| objective.aggregate_secs(&all))
    }

    /// Whether a candidate scoring `aggregate` could still tie or beat
    /// `incumbent` (never, when either is NaN).
    fn could_win(aggregate: f64, incumbent: f64) -> bool {
        aggregate <= incumbent
    }

    proptest::proptest! {
        #[test]
        fn the_cut_never_drops_a_score_at_or_below_the_incumbent(
            seed in 0u64..u64::MAX,
            n in 1usize..48,
        ) {
            let mut index = 0u64;
            let mut word = || {
                index += 1;
                crate::stats::splitmix64(seed, index)
            };
            // Effective seconds drawn from a few values, so ties and
            // samples exactly at the cutoff are common, with 0, +inf
            // and NaN (of either sign) among them.
            let special = [0.0, f64::INFINITY, f64::NAN, -f64::NAN];
            let pool: Vec<f64> = (0..6)
                .map(|_| match word() % 3 {
                    0 => special[(word() % 4) as usize],
                    _ => crate::stats::unit_open(word()) * 8.0,
                })
                .collect();
            let values: Vec<f64> = (0..n).map(|_| pool[(word() % 6) as usize]).collect();
            for objective in [
                RobustObjective::Mean,
                RobustObjective::Worst,
                RobustObjective::P95,
            ] {
                let exact = objective.aggregate_secs(&values);
                // A cutoff equal to the exact score never cuts, so a tie
                // still reaches the key tie-break; no cutoff never cuts.
                for incumbent in [exact, f64::INFINITY] {
                    let uncut = cut_score(objective, &values, incumbent);
                    proptest::prop_assert_eq!(
                        uncut.map(f64::to_bits),
                        Some(exact.to_bits()),
                        "{:?} of {:?} cut at {}", objective, values, incumbent
                    );
                }
                let drawn = values[(word() % n as u64) as usize];
                let above = exact + crate::stats::unit_open(word());
                for incumbent in [drawn, pool[(word() % 6) as usize], above, 0.0, f64::NAN] {
                    // An uncut score is the aggregate over all samples,
                    // bit for bit; a cut one could not have won.
                    match cut_score(objective, &values, incumbent) {
                        Some(score) => proptest::prop_assert_eq!(
                            score.to_bits(),
                            exact.to_bits(),
                            "{:?} of {:?} at {}", objective, values, incumbent
                        ),
                        None => proptest::prop_assert!(
                            !could_win(exact, incumbent),
                            "{:?} cut {:?} (aggregate {}) at {}",
                            objective, values, exact, incumbent
                        ),
                    }
                    // A prefix that cuts completes to an aggregate above
                    // the cutoff, with its own tail or with all zeros.
                    for k in 0..=n {
                        if objective.exceeds(&values[..k], n, incumbent) {
                            let mut zeros = values[..k].to_vec();
                            zeros.resize(n, 0.0);
                            for tail in [&values, &zeros] {
                                let aggregate = objective.aggregate_secs(tail);
                                proptest::prop_assert!(
                                    !could_win(aggregate, incumbent),
                                    "{:?}: prefix {:?} cut at {} but {:?} aggregates to {}",
                                    objective, &values[..k], incumbent, tail, aggregate
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn expired_cutoff_degrades_the_ensemble_score_to_infinity() {
        let (wafer, job, cfg) = setup();
        let cache = ProfileCache::new();
        let ensemble = FaultEnsemble::clustered(0.2, 3, 11);
        let finite = ensemble_effective_secs_within(
            &wafer,
            &job,
            &cfg,
            &ensemble,
            RobustObjective::Mean,
            &cache,
            Cutoff::NONE,
        );
        assert!(finite.is_finite());
        let expired = Instant::now() - std::time::Duration::from_secs(1);
        let cut = ensemble_effective_secs_within(
            &wafer,
            &job,
            &cfg,
            &ensemble,
            RobustObjective::Mean,
            &cache,
            Cutoff {
                deadline: Some(expired),
                ..Cutoff::NONE
            },
        );
        assert_eq!(cut, f64::INFINITY, "past the deadline no score is produced");
    }
}
