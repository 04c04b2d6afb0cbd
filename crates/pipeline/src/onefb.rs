//! The 1F1B pipeline schedule (Fig. 8a) and its timing model.
//!
//! For `p` stages and `n` micro-batches, stage `s` (0-based) runs
//! `w = p − 1 − s` warm-up forwards, then alternates forward/backward in
//! the steady phase, then drains `w` backwards. Timing takes one pass
//! over the task dependency DAG, in an order the DAG allows, and times
//! each of the `2·p·n` tasks exactly once (O(p·n) work), so
//! heterogeneous per-stage times (recomputation! imbalanced layers!) are
//! handled exactly — this is what exposes the "imbalance bubble" of
//! Fig. 8.

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

/// Result of simulating one 1F1B iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineTiming {
    /// End-to-end iteration latency (last backward completes).
    pub iteration: Time,
    /// Per-stage busy time: `(fwd + bwd) · n`, so TP collectives and
    /// recomputation included (see [`StageTiming`]); p2p excluded.
    pub stage_busy: Vec<Time>,
    /// Per-stage bubble (idle) time.
    pub stage_bubble: Vec<Time>,
}

impl PipelineTiming {
    /// Mean pipeline-bubble fraction across stages.
    pub fn bubble_fraction(&self) -> f64 {
        if self.iteration.as_secs() <= 0.0 {
            return 0.0;
        }
        let total: f64 = self.stage_bubble.iter().map(|t| t.as_secs()).sum();
        total / (self.iteration.as_secs() * self.stage_bubble.len() as f64)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Fwd(usize),
    Bwd(usize),
}

/// Task `k` of stage `s`'s 1F1B order, out of `p` stages with `n`
/// micro-batches, or `None` past the last of its `2n` tasks: `w =
/// min(p − 1 − s, n)` warm-up forwards, then a forward and a backward
/// in turn until the forwards run out, then the remaining backwards.
/// Closed form, so `simulate` keeps no per-stage order list.
fn task_at(s: usize, p: usize, n: usize, k: usize) -> Option<Task> {
    let w = (p - 1 - s).min(n);
    let steady_end = w + 2 * (n - w);
    if k < w {
        Some(Task::Fwd(k))
    } else if k < steady_end {
        let j = k - w;
        Some(if j.is_multiple_of(2) {
            Task::Fwd(w + j / 2)
        } else {
            Task::Bwd(j / 2)
        })
    } else if k < 2 * n {
        Some(Task::Bwd(k - n))
    } else {
        None
    }
}

/// The 1F1B task order of stage `s` out of `p` with `n` micro-batches,
/// as a list: the reference [`task_at`] is checked against.
#[cfg(test)]
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

/// Simulate one 1F1B iteration with per-stage timings.
///
/// One pass in dependency order: each stage walks its 1F1B task order
/// with its own clock, and times its next task as soon as the task it
/// waits on has been timed — `Fwd(s − 1, i)` for `Fwd(s, i)`,
/// `Bwd(s + 1, i)` for `Bwd(s, i)`. The pass goes round the stages until
/// none advances, so each of the `2·p·n` tasks is timed exactly once:
/// O(p·n) work, plus one scan of the `p` stages per round.
///
/// A stage stalls for good at a non-finite dependency. So a NaN or +∞
/// `fwd` or `bwd` on any stage, or `p2p` on any stage but the last
/// (whose `p2p` is never read), makes the iteration +∞.
///
/// # Panics
///
/// Panics if `stages` is empty or `microbatches` is zero.
pub fn simulate(stages: &[StageTiming], microbatches: usize) -> PipelineTiming {
    let p = stages.len();
    let n = microbatches;
    assert!(p > 0, "pipeline needs at least one stage");
    assert!(n > 0, "need at least one micro-batch");

    // Completion times of each task: +∞ until timed, and for good when
    // the end is NaN.
    let mut f_done = vec![vec![f64::INFINITY; n]; p];
    let mut b_done = vec![vec![f64::INFINITY; n]; p];
    // Forwards and backwards timed per stage. A stage times each kind in
    // micro-batch order, so `Fwd(s, i)` is timed iff `fwd_timed[s] > i`
    // (+∞ is a legal completion time, so it cannot be the flag), and the
    // stage's next task is its task `fwd_timed[s] + bwd_timed[s]`.
    let mut fwd_timed = vec![0usize; p];
    let mut bwd_timed = vec![0usize; p];
    let mut clock = vec![0.0f64; p];

    loop {
        let mut advanced = false;
        for s in 0..p {
            while let Some(task) = task_at(s, p, n, fwd_timed[s] + bwd_timed[s]) {
                let dep = match task {
                    Task::Fwd(_) if s == 0 => 0.0,
                    Task::Fwd(i) if fwd_timed[s - 1] > i => {
                        f_done[s - 1][i] + stages[s - 1].p2p.as_secs()
                    }
                    Task::Bwd(i) if s == p - 1 => f_done[s][i],
                    Task::Bwd(i) if bwd_timed[s + 1] > i => {
                        b_done[s + 1][i] + stages[s].p2p.as_secs()
                    }
                    // The task it waits on is not timed yet.
                    _ => break,
                };
                // A timed completion never changes, so a non-finite
                // dependency stalls the stage for good.
                if !dep.is_finite() {
                    break;
                }
                let start = clock[s].max(dep);
                let (end, done) = match task {
                    Task::Fwd(i) => {
                        fwd_timed[s] += 1;
                        (start + stages[s].fwd.as_secs(), &mut f_done[s][i])
                    }
                    Task::Bwd(i) => {
                        bwd_timed[s] += 1;
                        (start + stages[s].bwd.as_secs(), &mut b_done[s][i])
                    }
                };
                if !end.is_nan() {
                    *done = end;
                }
                clock[s] = end;
                advanced = true;
            }
        }
        if !advanced {
            break;
        }
    }

    let iteration = (0..p).map(|s| b_done[s][n - 1]).fold(0.0f64, f64::max);
    let stage_busy: Vec<Time> = stages
        .iter()
        .map(|st| (st.fwd + st.bwd).scale(n as f64))
        .collect();
    let stage_bubble: Vec<Time> = stage_busy
        .iter()
        .map(|busy| Time::from_secs((iteration - busy.as_secs()).max(0.0)))
        .collect();
    PipelineTiming {
        iteration: Time::from_secs(iteration),
        stage_busy,
        stage_bubble,
    }
}

/// Closed-form 1F1B iteration time for *homogeneous* stages — the classic
/// `(n + p − 1) · (f + b)` bound, used as a cross-check.
pub fn homogeneous_bound(fwd: Time, bwd: Time, p: usize, n: usize) -> Time {
    (fwd + bwd).scale((n + p - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fix-point relaxation `simulate` replaced: re-sweep every
    /// stage until no completion time changes. The reference the one-pass
    /// timing must match bit for bit.
    fn fixpoint_reference(stages: &[StageTiming], microbatches: usize) -> PipelineTiming {
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
        let stage_busy: Vec<Time> = stages
            .iter()
            .map(|st| (st.fwd + st.bwd).scale(n as f64))
            .collect();
        let stage_bubble: Vec<Time> = stage_busy
            .iter()
            .map(|busy| Time::from_secs((iteration - busy.as_secs()).max(0.0)))
            .collect();
        PipelineTiming {
            iteration: Time::from_secs(iteration),
            stage_busy,
            stage_bubble,
        }
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

    #[test]
    fn single_stage_has_no_bubble() {
        let t = simulate(&uniform(1, 1.0, 2.0), 8);
        assert!((t.iteration.as_millis() - 8.0 * 3.0).abs() < 1e-9);
        assert!(t.bubble_fraction() < 1e-9);
    }

    #[test]
    fn homogeneous_matches_closed_form() {
        // With b = 2f and zero p2p, 1F1B hits (n + p - 1)(f + b) exactly.
        let p = 4;
        let n = 8;
        let t = simulate(&uniform(p, 1.0, 2.0), n);
        let bound = homogeneous_bound(Time::from_millis(1.0), Time::from_millis(2.0), p, n);
        assert!(
            (t.iteration.as_secs() - bound.as_secs()).abs() / bound.as_secs() < 1e-9,
            "sim {} vs bound {}",
            t.iteration,
            bound
        );
    }

    #[test]
    fn more_stages_more_bubble() {
        let n = 8;
        let b2 = simulate(&uniform(2, 1.0, 2.0), n).bubble_fraction();
        let b8 = simulate(&uniform(8, 1.0, 2.0), n).bubble_fraction();
        assert!(b8 > b2, "p=8 bubble {b8} should exceed p=2 bubble {b2}");
    }

    #[test]
    fn more_microbatches_amortize_bubble() {
        let p = 4;
        let b4 = simulate(&uniform(p, 1.0, 2.0), 4).bubble_fraction();
        let b32 = simulate(&uniform(p, 1.0, 2.0), 32).bubble_fraction();
        assert!(b32 < b4);
    }

    #[test]
    fn slow_stage_dominates() {
        let mut stages = uniform(4, 1.0, 2.0);
        stages[1].bwd = Time::from_millis(6.0); // heavy recompute at stage 1
        let t = simulate(&stages, 16);
        // Iteration is at least the slow stage's serial work.
        assert!(t.iteration.as_millis() >= 16.0 * 7.0);
        // The slow stage has the least bubble.
        let min_idx = t
            .stage_bubble
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(min_idx, 1);
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
        assert!(imbalanced.iteration.as_secs() > balanced.iteration.as_secs());
    }

    #[test]
    fn p2p_latency_stretches_warmup() {
        let no_p2p = simulate(&uniform(4, 1.0, 2.0), 8);
        let mut stages = uniform(4, 1.0, 2.0);
        for st in &mut stages {
            st.p2p = Time::from_millis(0.5);
        }
        let with_p2p = simulate(&stages, 8);
        assert!(with_p2p.iteration.as_secs() > no_p2p.iteration.as_secs());
    }

    #[test]
    fn task_at_matches_the_order_list() {
        for p in 1..=12 {
            for n in 1..=20 {
                for s in 0..p {
                    let order = stage_order(s, p, n);
                    for k in 0..=2 * n {
                        assert_eq!(
                            task_at(s, p, n, k),
                            order.get(k).copied(),
                            "{s} {p} {n} {k}"
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

    /// `simulate` equals the fix-point reference, down to the bits of the
    /// iteration time.
    fn assert_matches_reference(stages: &[StageTiming], n: usize) -> PipelineTiming {
        let got = simulate(stages, n);
        let want = fixpoint_reference(stages, n);
        assert_eq!(
            got,
            want,
            "p = {}, n = {n}, stages {stages:?}",
            stages.len()
        );
        assert_eq!(
            got.iteration.as_secs().to_bits(),
            want.iteration.as_secs().to_bits()
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
        ) {
            let stages: Vec<StageTiming> = (0..p)
                .map(|s| StageTiming {
                    fwd: Time::from_secs(fwd[s]),
                    bwd: Time::from_secs(bwd[s]),
                    p2p: Time::from_secs(if zero_p2p[s] == 0 { 0.0 } else { p2p[s] }),
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
                let clean_iteration = simulate(&clean, n).iteration;
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
                            assert_eq!(
                                t.iteration, want,
                                "{field} = {bad:?} on stage {s} of {p}, n = {n}"
                            );
                        }
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
