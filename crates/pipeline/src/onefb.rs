//! The 1F1B pipeline schedule (Fig. 8a) and its timing model.
//!
//! For `p` stages and `n` micro-batches, stage `s` (0-based) runs
//! `w = min(p − 1 − s, n)` warm-up forwards, then alternates
//! forward/backward in the steady phase, then drains `w` backwards.
//! [`simulate`] sweeps the schedule once in step order and times each of
//! the `2·p·n` tasks exactly once (O(p·n) work), keeping per stage only
//! its clock and its latest completion of each kind (O(p) state), and
//! returns the iteration time. Heterogeneous per-stage times
//! (recomputation! imbalanced layers!) are handled exactly — this is
//! what exposes the "imbalance bubble" of Fig. 8, which
//! [`bubble_fraction`] reads off that time.

use serde::{Deserialize, Serialize};
use wsc_arch::units::Time;

/// Per-micro-batch execution times of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageTiming {
    /// Forward pass (compute + TP collectives).
    pub fwd: Time,
    /// Backward pass (compute + TP collectives + recomputation).
    pub bwd: Time,
    /// Inter-stage activation/gradient transfer to the next stage.
    pub p2p: Time,
}

/// Whether task `k` of stage `s`'s 1F1B order, out of `p` stages with
/// `n` micro-batches, is a forward: the `w = min(p − 1 − s, n)` warm-up
/// forwards, then every other task until the forwards run out.
fn is_forward(s: usize, p: usize, n: usize, k: usize) -> bool {
    let w = (p - 1 - s).min(n);
    k < w || (k < 2 * n - w && (k - w).is_multiple_of(2))
}

/// One stage's state in [`simulate`]'s sweep. The clock starts at 0; the
/// sweep writes each completion before it reads it, so their defaults
/// are never read.
#[derive(Clone, Copy, Default)]
struct Lane {
    /// End of the stage's last timed task; a NaN end stays NaN here.
    clock: f64,
    /// Completion of the stage's latest forward and latest backward: +∞
    /// for a NaN end or a non-finite dependency.
    fwd: f64,
    bwd: f64,
}

impl Lane {
    /// Time the stage's next task, `dur` long, once `dep` has passed, and
    /// return its completion. A non-finite `dep` times nothing: the task
    /// completes at +∞ and the clock stays.
    fn run(&mut self, dep: f64, dur: Time) -> f64 {
        if dep.is_finite() {
            self.clock = self.clock.max(dep) + dur.as_secs();
            if !self.clock.is_nan() {
                return self.clock;
            }
        }
        f64::INFINITY
    }
}

/// The iteration time of one 1F1B iteration with per-stage timings: the
/// completion of the last backward.
///
/// One sweep in step order: round `k < 2n` times task `k` of every
/// stage, the forwards from stage 0 up, then the backwards from stage
/// `p − 1` down. A task starts once its stage's clock and the task it
/// waits on have passed: `Fwd(s − 1, i)` plus stage `s − 1`'s `p2p` for
/// `Fwd(s, i)`, `Bwd(s + 1, i)` plus stage `s`'s `p2p` for `Bwd(s, i)`,
/// and its own `Fwd(i)` for the last stage's `Bwd(i)`. That task sits at
/// index `k` (timed earlier in the same sweep) or `k − 1` of its
/// neighbour's order, with no later task of its kind up to index `k`, so
/// it is the neighbour's latest completion of its kind.
///
/// A task whose dependency is not finite completes at +∞ and leaves its
/// stage's clock as it is, and a NaN end counts as +∞. The iteration is
/// +∞ as soon as any task's completion is: a NaN or +∞ `fwd`, `bwd` or
/// `p2p` meets every micro-batch (the last stage's `p2p` is never read),
/// and with finite times a stage's completions of one kind never
/// decrease, so an overflowing sum reaches the last micro-batch too,
/// whose chain sets every stage's last backward.
///
/// # Panics
///
/// Panics if `stages` is empty or `microbatches` is zero.
pub fn simulate(stages: &[StageTiming], microbatches: usize) -> Time {
    let p = stages.len();
    let n = microbatches;
    assert!(p > 0, "pipeline needs at least one stage");
    assert!(n > 0, "need at least one micro-batch");

    let mut lanes = vec![Lane::default(); p];
    for k in 0..2 * n {
        for s in 0..p {
            if is_forward(s, p, n, k) {
                let dep = if s == 0 {
                    0.0
                } else {
                    lanes[s - 1].fwd + stages[s - 1].p2p.as_secs()
                };
                lanes[s].fwd = lanes[s].run(dep, stages[s].fwd);
            }
        }
        for s in (0..p).rev() {
            if !is_forward(s, p, n, k) {
                let dep = if s == p - 1 {
                    lanes[s].fwd
                } else {
                    lanes[s + 1].bwd + stages[s].p2p.as_secs()
                };
                lanes[s].bwd = lanes[s].run(dep, stages[s].bwd);
            }
        }
    }

    // Each stage's last task is its last backward.
    Time::from_secs(lanes.iter().map(|l| l.bwd).fold(0.0f64, f64::max))
}

/// Mean pipeline-bubble fraction across `stages` over an `iteration` of
/// `microbatches`: each stage idles for the iteration minus its busy
/// `(fwd + bwd) · n`, p2p excluded.
pub fn bubble_fraction(stages: &[StageTiming], microbatches: usize, iteration: Time) -> f64 {
    let iteration = iteration.as_secs();
    if iteration <= 0.0 {
        return 0.0;
    }
    let busy = |st: &StageTiming| (st.fwd + st.bwd).scale(microbatches as f64).as_secs();
    let idle: f64 = stages
        .iter()
        .map(|st| (iteration - busy(st)).max(0.0))
        .sum();
    idle / (iteration * stages.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Task {
        Fwd(usize),
        Bwd(usize),
    }

    /// The 1F1B task order of stage `s` out of `p` with `n` micro-batches,
    /// as a list: the schedule [`is_forward`] and the fix-point reference
    /// are checked against.
    fn stage_order(s: usize, p: usize, n: usize) -> Vec<Task> {
        let w = (p - 1 - s).min(n);
        let mut order = Vec::with_capacity(2 * n);
        for i in 0..w {
            order.push(Task::Fwd(i));
        }
        let mut next_f = w;
        let mut next_b = 0;
        while next_f < n || next_b < n {
            if next_f < n {
                order.push(Task::Fwd(next_f));
                next_f += 1;
            }
            if next_b < n && next_b < next_f {
                order.push(Task::Bwd(next_b));
                next_b += 1;
            }
        }
        order
    }

    /// The fix-point relaxation `simulate` replaced: re-sweep every
    /// stage until no completion time changes, and stall a stage for good
    /// at a non-finite dependency. The reference the one-pass timing must
    /// match bit for bit.
    fn fixpoint_reference(stages: &[StageTiming], microbatches: usize) -> Time {
        let p = stages.len();
        let n = microbatches;
        assert!(p > 0, "pipeline needs at least one stage");
        assert!(n > 0, "need at least one micro-batch");

        let orders: Vec<Vec<Task>> = (0..p).map(|s| stage_order(s, p, n)).collect();
        // Completion times of each task.
        let mut f_done = vec![vec![f64::INFINITY; n]; p];
        let mut b_done = vec![vec![f64::INFINITY; n]; p];

        // Fix-point relaxation: repeat sweeps until stable. The DAG depth is
        // bounded by 2(p+n), so convergence is fast in practice.
        for _ in 0..(2 * (p + n) + 4) {
            let mut changed = false;
            for s in 0..p {
                let mut clock: f64 = 0.0;
                for &task in &orders[s] {
                    match task {
                        Task::Fwd(i) => {
                            let dep = if s == 0 {
                                0.0
                            } else {
                                f_done[s - 1][i] + stages[s - 1].p2p.as_secs()
                            };
                            if !dep.is_finite() {
                                break;
                            }
                            let start = clock.max(dep);
                            let end = start + stages[s].fwd.as_secs();
                            if (f_done[s][i] - end).abs() > 1e-15 {
                                f_done[s][i] = end;
                                changed = true;
                            }
                            clock = end;
                        }
                        Task::Bwd(i) => {
                            let dep = if s == p - 1 {
                                f_done[s][i]
                            } else {
                                b_done[s + 1][i] + stages[s].p2p.as_secs()
                            };
                            if !dep.is_finite() {
                                break;
                            }
                            let start = clock.max(dep);
                            let end = start + stages[s].bwd.as_secs();
                            if (b_done[s][i] - end).abs() > 1e-15 {
                                b_done[s][i] = end;
                                changed = true;
                            }
                            clock = end;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let iteration = (0..p).map(|s| b_done[s][n - 1]).fold(0.0f64, f64::max);
        Time::from_secs(iteration)
    }

    fn uniform(p: usize, f_ms: f64, b_ms: f64) -> Vec<StageTiming> {
        vec![
            StageTiming {
                fwd: Time::from_millis(f_ms),
                bwd: Time::from_millis(b_ms),
                p2p: Time::ZERO,
            };
            p
        ]
    }

    /// The bubble fraction of `p` uniform stages (1 ms forward, 2 ms
    /// backward) over `n` micro-batches.
    fn uniform_bubble(p: usize, n: usize) -> f64 {
        let stages = uniform(p, 1.0, 2.0);
        bubble_fraction(&stages, n, simulate(&stages, n))
    }

    #[test]
    fn single_stage_has_no_bubble() {
        let t = simulate(&uniform(1, 1.0, 2.0), 8);
        assert!((t.as_millis() - 8.0 * 3.0).abs() < 1e-9);
        assert!(uniform_bubble(1, 8) < 1e-9);
    }

    #[test]
    fn homogeneous_matches_closed_form() {
        // With b = 2f and zero p2p, 1F1B hits (n + p - 1)(f + b) exactly.
        let p = 4;
        let n = 8;
        let t = simulate(&uniform(p, 1.0, 2.0), n);
        let bound = Time::from_millis(1.0 + 2.0).scale((n + p - 1) as f64);
        assert!(
            (t.as_secs() - bound.as_secs()).abs() / bound.as_secs() < 1e-9,
            "sim {t} vs bound {bound}"
        );
    }

    #[test]
    fn more_stages_more_bubble() {
        let b2 = uniform_bubble(2, 8);
        let b8 = uniform_bubble(8, 8);
        assert!(b8 > b2, "p=8 bubble {b8} should exceed p=2 bubble {b2}");
    }

    #[test]
    fn more_microbatches_amortize_bubble() {
        assert!(uniform_bubble(4, 32) < uniform_bubble(4, 4));
    }

    #[test]
    fn slow_stage_dominates() {
        let mut stages = uniform(4, 1.0, 2.0);
        stages[1].bwd = Time::from_millis(6.0); // heavy recompute at stage 1
        let t = simulate(&stages, 16);
        // Iteration is at least the slow stage's serial work.
        assert!(t.as_millis() >= 16.0 * 7.0);
    }

    #[test]
    fn imbalanced_recompute_creates_bubble() {
        // Fig. 8a: recomputation on early stages stalls the whole pipe.
        let balanced = {
            let mut s = uniform(3, 1.0, 2.0);
            for st in &mut s {
                st.bwd = Time::from_millis(2.0 + 1.0); // spread recompute
            }
            simulate(&s, 5)
        };
        let imbalanced = {
            let mut s = uniform(3, 1.0, 2.0);
            s[0].bwd = Time::from_millis(2.0 + 3.0); // all recompute at stage 0
            simulate(&s, 5)
        };
        assert!(imbalanced > balanced);
    }

    #[test]
    fn p2p_latency_stretches_warmup() {
        let no_p2p = simulate(&uniform(4, 1.0, 2.0), 8);
        let mut stages = uniform(4, 1.0, 2.0);
        for st in &mut stages {
            st.p2p = Time::from_millis(0.5);
        }
        let with_p2p = simulate(&stages, 8);
        assert!(with_p2p > no_p2p);
    }

    #[test]
    fn is_forward_matches_the_order_list() {
        for p in 1..=12 {
            for n in 1..=20 {
                for s in 0..p {
                    let order = stage_order(s, p, n);
                    assert_eq!(order.len(), 2 * n);
                    for (k, task) in order.iter().enumerate() {
                        assert_eq!(
                            is_forward(s, p, n, k),
                            matches!(task, Task::Fwd(_)),
                            "{s} {p} {n} {k}"
                        );
                    }
                }
            }
        }
    }

    /// The premise of `simulate`'s sweep: in round `k`, the task a stage
    /// waits on is already timed and is its neighbour's latest completion
    /// of that kind.
    #[test]
    fn each_task_waits_on_its_neighbours_latest_completion() {
        for p in 1..=12 {
            for n in 1..=20 {
                let orders: Vec<Vec<Task>> = (0..p).map(|s| stage_order(s, p, n)).collect();
                for s in 0..p {
                    for (k, &task) in orders[s].iter().enumerate() {
                        let case =
                            || format!("{task:?} at index {k} of stage {s}, p = {p}, n = {n}");
                        // The neighbour it waits on and that neighbour's
                        // task. The forwards sweep from stage 0 up and the
                        // backwards from stage p − 1 down, so the
                        // neighbour's task `k` of that kind is timed first.
                        let (t, dep) = match task {
                            Task::Fwd(_) if s == 0 => continue,
                            Task::Fwd(i) => (s - 1, Task::Fwd(i)),
                            Task::Bwd(i) if s == p - 1 => {
                                let latest = orders[s][..k]
                                    .iter()
                                    .rev()
                                    .find(|t| matches!(t, Task::Fwd(_)));
                                assert_eq!(latest, Some(&Task::Fwd(i)), "{}", case());
                                continue;
                            }
                            Task::Bwd(i) => (s + 1, Task::Bwd(i)),
                        };
                        let j = orders[t].iter().position(|&d| d == dep).unwrap();
                        assert!(j == k || j + 1 == k, "{}: {dep:?} at {j}", case());
                        let kind = std::mem::discriminant(&dep);
                        assert!(
                            !orders[t][j + 1..=k]
                                .iter()
                                .any(|d| std::mem::discriminant(d) == kind),
                            "{}: stage {t} times another of its kind by index {k}",
                            case()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stage_order_counts() {
        for (p, n) in [(3, 5), (4, 8), (8, 4), (1, 3)] {
            for s in 0..p {
                let order = stage_order(s, p, n);
                let f = order.iter().filter(|t| matches!(t, Task::Fwd(_))).count();
                let b = order.iter().filter(|t| matches!(t, Task::Bwd(_))).count();
                assert_eq!(f, n);
                assert_eq!(b, n);
            }
        }
    }

    #[test]
    fn backward_never_precedes_forward_in_order() {
        let order = stage_order(0, 3, 5);
        let mut seen_f = std::collections::HashSet::new();
        for t in order {
            match t {
                Task::Fwd(i) => {
                    seen_f.insert(i);
                }
                Task::Bwd(i) => assert!(seen_f.contains(&i)),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_pipeline_panics() {
        let _ = simulate(&[], 4);
    }

    /// `simulate` equals the fix-point reference, down to the bits.
    fn assert_matches_reference(stages: &[StageTiming], n: usize) -> Time {
        let got = simulate(stages, n);
        let want = fixpoint_reference(stages, n);
        assert_eq!(
            got.as_secs().to_bits(),
            want.as_secs().to_bits(),
            "p = {}, n = {n}, stages {stages:?}: {got:?} vs {want:?}",
            stages.len()
        );
        got
    }

    proptest::proptest! {
        #[test]
        fn one_pass_matches_fixpoint_reference(
            p in 1usize..65,
            n in 1usize..600,
            fwd in proptest::collection::vec(0.0f64..10e-3, 64..65),
            bwd in proptest::collection::vec(0.0f64..10e-3, 64..65),
            p2p in proptest::collection::vec(0.0f64..1e-3, 64..65),
            zero_p2p in proptest::collection::vec(0u8..4, 64..65),
            // About `specials` of a case's `3p` times are special.
            specials in 0usize..4,
            picks in proptest::collection::vec(0usize..1 << 20, 192..193),
        ) {
            // `secs`, or one of 0, NaN of either sign, +∞ and a finite
            // time whose sums overflow to +∞.
            let time = |secs: f64, slot: usize| {
                let (pick, t) = (picks[slot], Time::from_secs(secs));
                if pick % (3 * p) >= specials {
                    return t;
                }
                match pick / (3 * p) % 5 {
                    0 => Time::ZERO,
                    1 => t * f64::NAN,
                    2 => t * -f64::NAN,
                    3 => Time::INFINITY,
                    _ => Time::from_secs(f64::MAX / 4.0),
                }
            };
            let stages: Vec<StageTiming> = (0..p)
                .map(|s| StageTiming {
                    fwd: time(fwd[s], 3 * s),
                    bwd: time(bwd[s], 3 * s + 1),
                    p2p: time(if zero_p2p[s] == 0 { 0.0 } else { p2p[s] }, 3 * s + 2),
                })
                .collect();
            assert_matches_reference(&stages, n);
        }
    }

    #[test]
    fn non_finite_stage_times_match_reference() {
        // `Time::from_secs(f64::NAN)` clamps to zero; a product keeps NaN.
        let nan = Time::from_secs(1e-3) * f64::NAN;
        let inf = Time::INFINITY;
        for p in [1, 2, 5] {
            for n in [1, 3, 9] {
                let clean = uniform(p, 1.0, 2.0)
                    .into_iter()
                    .map(|st| StageTiming {
                        p2p: Time::from_millis(0.25),
                        ..st
                    })
                    .collect::<Vec<_>>();
                let clean_iteration = simulate(&clean, n);
                for s in 0..p {
                    for field in ["fwd", "bwd", "p2p"] {
                        for bad in [nan, inf] {
                            let mut stages = clean.clone();
                            match field {
                                "fwd" => stages[s].fwd = bad,
                                "bwd" => stages[s].bwd = bad,
                                _ => stages[s].p2p = bad,
                            }
                            let t = assert_matches_reference(&stages, n);
                            // The last stage's p2p is never read.
                            let want = if field == "p2p" && s == p - 1 {
                                clean_iteration
                            } else {
                                Time::INFINITY
                            };
                            assert_eq!(t, want, "{field} = {bad:?} on stage {s} of {p}, n = {n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_stage_that_overflows_midway_matches_reference() {
        // A huge but finite stage time overflows a completion to +∞ only
        // after a few micro-batches, so stages meet a non-finite
        // dependency midway, after timing finite completions: the
        // reference stalls there, and its iteration is still +∞.
        let huge = Time::from_secs(f64::MAX / 4.0);
        for p in 1..=5 {
            for n in [1, 3, 9, 40] {
                for s in 0..p {
                    for field in 0..3 {
                        let mut stages = uniform(p, 1.0, 2.0);
                        match field {
                            0 => stages[s].fwd = huge,
                            1 => stages[s].bwd = huge,
                            _ => stages[s].p2p = huge,
                        }
                        assert_matches_reference(&stages, n);
                    }
                }
            }
        }
    }

    #[test]
    fn large_pipeline_matches_reference() {
        // Heterogeneous stages: recomputation spread unevenly, every third
        // link free.
        let stages: Vec<StageTiming> = (0..128)
            .map(|s| StageTiming {
                fwd: Time::from_micros(100.0 + (s * 37 % 11) as f64 * 13.0),
                bwd: Time::from_micros(200.0 + (s * 53 % 17) as f64 * 29.0),
                p2p: Time::from_micros(if s % 3 == 0 {
                    0.0
                } else {
                    (s % 7) as f64 * 3.5
                }),
            })
            .collect();
        assert_matches_reference(&stages, 1024);
    }
}
