//! The untraced measurement: set-up, timed search passes, output checks
//! and the end-to-end metrics.

use crate::check::{invariant_problem, leg_views, reference_problem, round_trips, Reference};
use crate::span::{metric, summarize, Metric};
use crate::workload::{leg_answers, session_answer, sessions, LegAnswer, Session, Size, Workload};
use crate::{heap, procfs};
use std::time::{Duration, Instant};
use watos::{ExplorationReport, Explorer};

/// Set-ups timed before the first pass and again after every pass;
/// `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 101;

/// What a run checked and measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Search legs checked.
    pub attempted: usize,
    /// Legs that failed a check.
    pub failed: usize,
    /// One line per failure.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Every leg's answer from the first pass.
    pub answers: Vec<LegAnswer>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// What a run compares its answers with: the workload's reference legs
/// (`None`: no comparison), and whether the comparison is exact (the
/// default seed).
#[derive(Clone, Copy)]
pub struct Expect<'a> {
    pub legs: Option<&'a [LegAnswer]>,
    pub exact: bool,
}

impl<'a> Expect<'a> {
    /// A workload missing from the reference compares with an empty
    /// list, so every leg fails for want of a reference answer.
    pub fn new(reference: &'a Reference, workload: Workload, seed: u64) -> Self {
        Expect {
            legs: Some(reference.legs(workload).unwrap_or_default()),
            exact: workload.input_seed(seed) == reference.seed,
        }
    }

    /// No reference at all: only the invariants apply (smoke runs, and
    /// `--record-reference`).
    pub fn none() -> Self {
        Expect {
            legs: None,
            exact: false,
        }
    }
}

/// Build every session's explorer.
pub fn build(sessions: &[Session]) -> Result<Vec<Explorer>, String> {
    sessions
        .iter()
        .map(|s| {
            s.builder(None)
                .build()
                .map_err(|e| format!("{}: {e}", s.id))
        })
        .collect()
}

/// One timed pass over the sessions: reports, wall seconds, CPU seconds.
pub fn timed_pass(explorers: &[Explorer]) -> (Vec<ExplorationReport>, f64, f64) {
    let cpu0 = procfs::cpu_seconds().unwrap_or(f64::NAN);
    let t0 = Instant::now();
    let reports: Vec<ExplorationReport> = explorers.iter().map(Explorer::run).collect();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_seconds().unwrap_or(f64::NAN) - cpu0;
    (reports, wall, cpu)
}

/// Check a pass's reports; returns every leg's answer and the sessions'
/// summed answer (`None` when a session has no winner).
pub fn check_pass(
    sessions: &[Session],
    reports: &[ExplorationReport],
    expect: Expect<'_>,
    out: &mut RunOutput,
) -> (Vec<LegAnswer>, Option<f64>) {
    let mut answers = Vec::new();
    let mut total = Some(0.0);
    for (session, report) in sessions.iter().zip(reports) {
        let legs = leg_answers(session, report);
        let whole = round_trips(report);
        if !whole {
            out.problems.push(format!(
                "{}: report does not survive a JSON round trip",
                session.id
            ));
        }
        for (view, answer) in leg_views(report).iter().zip(&legs) {
            let problem = invariant_problem(view, answer).or_else(|| {
                let r = expect.legs?;
                reference_problem(answer, r.get(answers.len()), expect.exact)
            });
            out.attempted += 1;
            if let Some(p) = problem {
                out.failed += 1;
                out.problems.push(p);
            } else if !whole {
                out.failed += 1;
            }
            answers.push(answer.clone());
        }
        match session_answer(session, report) {
            Some(a) => total = total.map(|t| t + a),
            None => {
                out.problems.push(format!("{}: no winner", session.id));
                total = None;
            }
        }
    }
    if expect.legs.is_some_and(|r| r.len() != answers.len()) {
        out.problems.push(format!(
            "{} legs searched, the reference has {}",
            answers.len(),
            expect.legs.map_or(0, <[_]>::len)
        ));
    }
    (answers, total)
}

/// Time `reps` set-ups of `workload` (inputs, candidates, validated
/// explorers), appending their seconds to `secs`; returns the last
/// set-up.
pub fn timed_setup(
    workload: Workload,
    seed: u64,
    size: Size,
    reps: usize,
    secs: &mut Vec<f64>,
) -> Result<(Vec<Session>, Vec<Explorer>), String> {
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let s = sessions(workload, seed, size);
        let e = build(&s)?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some((s, e));
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// The untraced run: set-up, then as many search passes as fit in
/// `seconds` (at least one), each checked; every end-to-end metric.
/// Set-up is timed [`SETUP_REPS`] times before the first pass and again
/// after every pass: a set-up takes microseconds, and the timings of one
/// moment move with the state of the machine at that moment.
pub fn untraced(
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: f64,
    expect: Expect<'_>,
) -> Result<RunOutput, String> {
    let mut setups = Vec::new();
    let (sessions, explorers) = timed_setup(workload, seed, size, SETUP_REPS, &mut setups)?;
    let mut out = RunOutput::default();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let (mut walls, mut cpus, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(Vec<String>, Option<f64>)> = None;
    loop {
        heap::reset_peak();
        let (reports, wall, cpu) = timed_pass(&explorers);
        let peak = heap::peak_bytes() as f64 / (1u64 << 20) as f64;
        timed_setup(workload, seed, size, SETUP_REPS, &mut setups)?;
        eprintln!(
            "pass {}: {wall:.4} s wall, {cpu:.2} s CPU, {peak:.2} MiB peak heap",
            walls.len() + 1
        );
        walls.push(wall);
        cpus.push(cpu);
        peaks.push(peak);
        let (answers, answer) = check_pass(&sessions, &reports, expect, &mut out);
        let json: Vec<String> = reports.iter().map(ExplorationReport::to_json).collect();
        match &first {
            None => {
                out.answers = answers;
                first = Some((json, answer));
            }
            // Every pass must return byte-identical reports.
            Some((j, _)) if *j != json => {
                out.problems
                    .push(format!("pass {} differs from the first pass", walls.len()));
            }
            Some(_) => {}
        }
        // Another pass only if it should end within the budget.
        let per_pass = started.elapsed() / walls.len() as u32;
        if started.elapsed() + per_pass > budget {
            break;
        }
    }
    let answer = first.and_then(|(_, a)| a).unwrap_or(f64::NAN);
    let ok_frac = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics = vec![
        metric("search_s", summarize(&walls).p50, "s"),
        metric("cpu_s", summarize(&cpus).p50, "s"),
        metric("setup_s", summarize(&setups).p50, "s"),
        metric("peak_heap_mb", summarize(&peaks).p50, "MiB"),
        metric("answer_cost", answer, "sim_sec"),
        metric("ok_frac", ok_frac, "ratio"),
    ];
    Ok(out)
}
