//! Property tests for the resilience contract (see
//! `docs/ARCHITECTURE.md`): across randomized fault storms the engine
//! must return a valid report with every panic isolated, a failed
//! candidate must never be crowned, a storm must replay byte-identically
//! on a one-worker pool and on the default pool, killing a session at any
//! checkpoint then resuming must reproduce the uninterrupted run
//! bit-for-bit, a checkpoint from another session must be refused, an
//! expired deadline must truncate with honest counters, a leg resumed
//! past its deadline must keep its incumbent, a deadline beyond the
//! clock must be no deadline, and every
//! decoder of untrusted input — reports, checkpoints, serving traces —
//! must be total.
//!
//! The storms need no hook inside the library. They ride in through the
//! public seam that substitutes the ranking objective,
//! `ExplorerBuilder::serving_model`: a [`Storm`] ranks plans by clean
//! iteration time and, on a seeded share of plans, sleeps or panics
//! inside `score`, which the wave engine runs under `catch_unwind`.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Once, OnceLock};
use std::time::Duration;
use watos::{
    ensemble_effective_secs, splitmix64, unit_open, ExplorationError, ExplorationReport, Explorer,
    ExplorerBuilder, FaultEnsemble, MemorySink, Outcome, ParallelPlan, ProfileCache,
    RobustObjective, ScheduledConfig, SearchBudget, SearchCheckpoint, ServingModel,
    TpSplitStrategy, TruncationReason,
};
use wsc_arch::presets;
use wsc_arch::wafer::{MultiWaferConfig, WaferConfig};
use wsc_bench::driver::on_pool;
use wsc_serve::{Trace, TraceError};
use wsc_workload::serving::ServingWorkload;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// The marker every seeded storm panic carries.
const STORM_PANIC: &str = "seeded storm panic";

/// Seeded storm panics are expected noise in these tests; keep the
/// default hook for anything else (a real bug must still print).
fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains(STORM_PANIC) {
                default(info);
            }
        }));
    });
}

/// The search point of a plan. A failure records its work-list plan,
/// whose DP is still derived, and a winner its resolved plan, so the two
/// are compared on this.
fn point(plan: &ParallelPlan) -> (usize, usize, TpSplitStrategy) {
    (plan.tp, plan.pp, plan.strategy)
}

/// A ranking objective that storms the search: it scores a candidate by
/// its clean iteration time, but `score` first sleeps on a seeded
/// `delay_rate` share of plans and panics on a seeded `panic_rate`
/// share. Each decision is a pure function of `(seed, plan)`, so a storm
/// replays identically at any thread count, and a plan whose score
/// returned once returns again when `Explorer::run` re-scores a leg's
/// winner outside `catch_unwind`.
#[derive(Debug, Clone, Copy)]
struct Storm {
    seed: u64,
    panic_rate: f64,
    delay_rate: f64,
}

impl Storm {
    /// Whether the draw of stream `domain` for `plan` falls under `rate`.
    fn fires(&self, domain: u64, plan: &ParallelPlan, rate: f64) -> bool {
        let (tp, pp, strategy) = point(plan);
        let key = splitmix64(tp as u64, ((pp as u64) << 8) | strategy as u64);
        unit_open(splitmix64(self.seed ^ domain, key)) <= rate
    }
}

impl ServingModel for Storm {
    fn name(&self) -> String {
        format!("storm(seed {})", self.seed)
    }

    /// The slowest stage's compute times the fewest micro-batches any DP
    /// degree leaves. Every micro-batch passes through that stage, and
    /// communication, recomputation and the DP all-reduce only add time,
    /// so the floor is sound; it still prunes, as the clean bound does.
    fn bound(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
        cache: &ProfileCache,
    ) -> Option<f64> {
        let dp_ub = (wafer.die_count() / (plan.tp * plan.pp).max(1)).max(1);
        let n_mb = job.microbatches(dp_ub);
        let slowest = cache
            .stage_profiles(wafer, job, plan, n_mb)
            .iter()
            .map(|sp| (sp.fwd_compute + sp.bwd_compute).as_secs())
            .fold(0.0, f64::max);
        Some(n_mb as f64 * slowest)
    }

    fn score(
        &self,
        _wafer: &WaferConfig,
        _job: &TrainingJob,
        cfg: &ScheduledConfig,
        _cache: &ProfileCache,
    ) -> f64 {
        const DELAY: u64 = 0x44454c41; // "DELA"
        const PANIC: u64 = 0x50414e49; // "PANI"
        if self.fires(DELAY, &cfg.plan, self.delay_rate) {
            std::thread::sleep(Duration::from_micros(20));
        }
        if self.fires(PANIC, &cfg.plan, self.panic_rate) {
            panic!("{STORM_PANIC} for {}", cfg.plan);
        }
        cfg.report.iteration.as_secs()
    }
}

fn small_wafer(cfg_idx: usize) -> WaferConfig {
    let mut wafer = presets::config(cfg_idx);
    wafer.nx = 3;
    wafer.ny = 3;
    wafer
}

/// A two-wafer node of the shrunken fixture wafer.
fn small_node(wafer: &WaferConfig) -> MultiWaferConfig {
    MultiWaferConfig {
        wafers: 2,
        wafer: wafer.clone(),
        ..presets::multi_wafer_18()
    }
}

fn small_job(layers: usize) -> TrainingJob {
    let mut model = zoo::llama_7b();
    model.layers = layers;
    TrainingJob::with_batch(model, 8, 2, 1024)
}

/// The fixture session: one shrunken wafer, no GA.
fn fixture(wafer: &WaferConfig, job: &TrainingJob, seed: u64) -> ExplorerBuilder {
    Explorer::builder()
        .job(job.clone())
        .wafer(wafer.clone())
        .no_ga()
        .seed(seed)
        // Shrunken wafers need not satisfy the full floorplan model.
        .allow_invalid_architectures()
}

proptest! {
    #[test]
    fn injection_storms_stay_isolated_and_never_crown_a_failed_candidate(
        cfg_idx in 1usize..5,
        layers in 4usize..10,
        panic_rate in 0.0f64..1.0,
        delay_rate in 0.0f64..0.3,
        seed in 0u64..1_000_000,
    ) {
        quiet_panics();
        let wafer = small_wafer(cfg_idx);
        let job = small_job(layers);
        let storm = Arc::new(Storm { seed, panic_rate, delay_rate });
        let run = |session: ExplorerBuilder| {
            session.serving_model(storm.clone()).build().expect("valid session").run()
        };
        let stormy = on_pool(1, || run(fixture(&wafer, &job, seed)));

        // 1. The engine returned (every panic was isolated) and the
        //    report is still a valid, serializable document.
        let round = watos::ExplorationReport::from_json(&stormy.to_json())
            .expect("stormy report round-trips");
        prop_assert_eq!(&round, &stormy);

        // 2. A failed candidate is never the winner.
        let incidents = stormy.incidents();
        if let Some(best) = stormy.best().ok().and_then(|r| r.best.as_ref()) {
            prop_assert!(
                incidents.iter().all(|f| point(&f.plan) != point(&best.plan)),
                "winner {} is among the {} failed candidates",
                best.plan,
                incidents.len()
            );
        }

        // 3. Honest counters under fire: panicked candidates count as
        //    evaluated, nothing silently disappears.
        let s = stormy.search_stats();
        prop_assert_eq!(s.visited, s.pruned + s.evaluated + s.skipped);

        // 4. The same storm replays byte-identically on the default
        //    pool: failures, counters and winner.
        prop_assert_eq!(stormy.to_json(), run(fixture(&wafer, &job, seed)).to_json());
    }
}

proptest! {
    #[test]
    fn killing_at_any_checkpoint_then_resuming_matches_the_uninterrupted_run(
        cfg_idx in 1usize..5,
        layers in 4usize..10,
        cap in 1usize..40,
        pick in 0usize..64,
        seed in 0u64..1_000_000,
    ) {
        let wafer = small_wafer(cfg_idx);
        let job = small_job(layers);
        // A wafer leg, then a node leg: frontiers land on both sides.
        let session = || fixture(&wafer, &job, seed).multi_wafer(small_node(&wafer));

        // The uninterrupted reference run.
        let full = session().build().expect("valid session").run();

        // The "killed" run: an evaluation cap plays the part of the
        // kill, with a checkpoint written at every wave so the kill
        // point lands at an arbitrary depth of the search.
        let sink = Arc::new(MemorySink::new());
        let killed = session()
            .budget(SearchBudget::none().max_evaluations(cap))
            .checkpoint_every(1, sink.clone())
            .build()
            .expect("valid session")
            .run();
        let k = killed.search_stats().merge(killed.multi_wafer_search_stats());
        prop_assert_eq!(k.visited, k.pruned + k.evaluated + k.skipped);
        if killed.truncated() {
            prop_assert!(k.evaluated >= cap, "truncation fired before the cap");
        } else {
            prop_assert_eq!(k.skipped, 0, "a complete run skips nothing");
            prop_assert_eq!(killed.to_json(), full.to_json());
        }

        // Resume a budget-free twin from an arbitrary mid-leg snapshot:
        // the session must converge to the uninterrupted winner
        // bit-for-bit. (A snapshot's completed legs are reused verbatim
        // by design, so one that carries a truncated leg resumes the
        // *decision* to truncate; those are not equivalence candidates.)
        let frontiers: Vec<SearchCheckpoint> = sink
            .all()
            .into_iter()
            .filter(|cp| {
                let truncated = cp.completed_single.iter().any(|r| r.outcome.is_truncated())
                    || cp.completed_multi.iter().any(|r| r.outcome.is_truncated());
                cp.frontier.is_some() && !truncated
            })
            .collect();
        if !frontiers.is_empty() {
            let cp = &frontiers[pick % frontiers.len()];
            // The snapshot itself must round-trip through JSON — it is
            // the unit of session persistence.
            let text = serde::json::to_text(&cp.to_value());
            let back = SearchCheckpoint::from_value(
                &serde::json::from_text(&text).expect("checkpoint json parses"),
            )
            .expect("checkpoint deserializes");
            prop_assert_eq!(&back, cp);

            let resumed = session()
                .build()
                .expect("valid session")
                .resume(&back)
                .expect("the checkpoint belongs to this session");
            prop_assert_eq!(resumed.to_json(), full.to_json());
        }
    }
}

/// Guard against a vacuous fixture: the shrunken-wafer sessions the
/// properties above run must actually visit and evaluate candidates, on
/// the wafer and on the node, otherwise every property holds trivially.
#[test]
fn shrunken_fixture_searches_a_real_space() {
    let wafer = small_wafer(2);
    let job = small_job(6);
    let report = fixture(&wafer, &job, 42)
        .multi_wafer(small_node(&wafer))
        .build()
        .expect("valid session")
        .run();
    for s in [report.search_stats(), report.multi_wafer_search_stats()] {
        assert!(s.visited > 0, "no candidates visited");
        assert!(s.evaluated > 0, "no candidates evaluated");
    }
}

/// Guard against a silently disconnected storm: a high-rate seeded
/// storm over the fixture must actually produce isolated incidents —
/// otherwise "no failed candidate is ever crowned" holds vacuously.
#[test]
fn high_rate_storms_actually_produce_incidents() {
    quiet_panics();
    let wafer = small_wafer(2);
    let job = small_job(6);
    let storm = Storm {
        seed: 7,
        panic_rate: 0.95,
        delay_rate: 0.0,
    };
    let report = fixture(&wafer, &job, 7)
        .serving_model(Arc::new(storm))
        .build()
        .expect("valid session")
        .run();
    assert!(
        !report.incidents().is_empty(),
        "a 95% panic storm produced no incidents: the storm is not wired in"
    );
}

/// The last snapshot of a complete checkpointed run of the fixture: a
/// leg boundary whose one completed leg ran on `wafer`.
fn final_checkpoint(wafer: &WaferConfig, seed: u64) -> SearchCheckpoint {
    let sink = Arc::new(MemorySink::new());
    fixture(wafer, &small_job(6), seed)
        .checkpoint_every(1, sink.clone())
        .build()
        .expect("valid session")
        .run();
    sink.last().expect("the session writes snapshots")
}

/// A checkpoint written under another seed is refused, not resumed.
#[test]
fn resume_refuses_a_checkpoint_from_another_seed() {
    let wafer = small_wafer(2);
    let checkpoint = final_checkpoint(&wafer, 7);
    let resumed = fixture(&wafer, &small_job(6), 8)
        .build()
        .expect("valid session")
        .resume(&checkpoint);
    assert!(
        matches!(resumed, Err(ExplorationError::ForeignCheckpoint { .. })),
        "{:?}",
        resumed.map(|report| report.seed)
    );
}

/// A checkpoint whose completed leg ran on another candidate is
/// refused: reusing that leg would report another session's record.
#[test]
fn resume_refuses_a_checkpoint_from_another_candidate() {
    let checkpoint = final_checkpoint(&small_wafer(2), 7);
    let resumed = fixture(&small_wafer(3), &small_job(6), 7)
        .build()
        .expect("valid session")
        .resume(&checkpoint);
    assert!(
        matches!(resumed, Err(ExplorationError::ForeignCheckpoint { .. })),
        "{:?}",
        resumed.map(|report| report.seed)
    );
}

/// A mid-leg frontier whose counters overflow the leg's work list is
/// refused: resuming it would overflow them further in the wave loop.
#[test]
fn resume_refuses_a_frontier_with_hostile_counters() {
    let mut checkpoint = decode_checkpoint(&real_documents()[1]).expect("checkpoint decodes");
    let stats = &mut checkpoint.frontier.as_mut().expect("mid-leg").wave.stats;
    stats.evaluated = usize::MAX;
    stats.pruned = usize::MAX;
    let wafer = small_wafer(2);
    let resumed = fixture(&wafer, &small_job(6), 7)
        .multi_wafer(small_node(&wafer))
        .build()
        .expect("valid session")
        .resume(&checkpoint);
    assert!(
        matches!(resumed, Err(ExplorationError::ForeignCheckpoint { .. })),
        "{:?}",
        resumed.map(|report| report.seed)
    );
}

/// A completed wafer record whose winner lost a stage rectangle is
/// refused: ranking re-scores it, and its placement no longer matches
/// its pipeline.
#[test]
fn resume_refuses_a_malformed_completed_record() {
    let wafer = small_wafer(2);
    let mut checkpoint = final_checkpoint(&wafer, 7);
    let winner = checkpoint.completed_single[0]
        .best
        .as_mut()
        .expect("the fixture leg finds a winner");
    winner.placement.stages.pop();
    let resumed = fixture(&wafer, &small_job(6), 7)
        .fault_aware(FaultEnsemble::clustered(0.2, 2, 11), RobustObjective::Mean)
        .build()
        .expect("valid session")
        .resume(&checkpoint);
    assert!(
        matches!(resumed, Err(ExplorationError::ForeignCheckpoint { .. })),
        "{:?}",
        resumed.map(|report| report.seed)
    );
}

/// A wall-clock deadline that has passed before the first wave
/// truncates the run: the best-so-far report keeps honest counters and
/// still round-trips through JSON.
#[test]
fn an_expired_deadline_truncates_with_honest_counters() {
    let report = Explorer::builder()
        .job(TrainingJob::standard(zoo::llama2_30b()))
        .wafer(presets::config(3))
        .no_ga()
        .budget(SearchBudget::none().deadline(1e-9))
        .build()
        .expect("valid session")
        .run();
    assert!(report.truncated());
    let s = report.search_stats();
    assert!(s.skipped > 0, "the unexamined tail is skipped: {s:?}");
    assert_eq!(s.visited, s.pruned + s.evaluated + s.skipped);
    assert_eq!(ExplorationReport::from_json(&report.to_json()), Ok(report));
}

/// A deadline too far off for the clock to represent is no deadline:
/// the session returns the unbudgeted report byte for byte instead of
/// panicking while it anchors the deadline.
#[test]
fn a_deadline_beyond_the_clock_is_no_deadline() {
    let (wafer, job) = (small_wafer(2), small_job(6));
    let session = || fixture(&wafer, &job, 42).multi_wafer(small_node(&wafer));
    let unbudgeted = session().build().expect("valid session").run().to_json();
    for secs in [1e19, 1e20, 1e300, f64::MAX] {
        let report = session()
            .budget(SearchBudget::none().deadline(secs))
            .build()
            .expect("a finite positive deadline is valid")
            .run();
        assert_eq!(report.to_json(), unbudgeted, "deadline {secs:e} s");
    }
}

/// A fault-aware leg resumed after its deadline keeps the incumbent its
/// frontier names: the engine re-derives that incumbent without the
/// deadline cutoff, so the expired deadline cannot score it `INFINITY`
/// and drop it.
#[test]
fn a_resumed_fault_aware_leg_keeps_its_incumbent_past_the_deadline() {
    let (wafer, job) = (presets::config(3), TrainingJob::standard(zoo::llama2_30b()));
    let ensemble = FaultEnsemble::clustered(0.2, 3, 7);
    let session = || {
        Explorer::builder()
            .job(job.clone())
            .wafer(wafer.clone())
            .no_ga()
            .seed(7)
            .fault_aware(ensemble.clone(), RobustObjective::Worst)
    };
    let sink = Arc::new(MemorySink::new());
    session()
        .checkpoint_every(1, sink.clone())
        .build()
        .expect("valid session")
        .run();
    let frontier = sink
        .all()
        .into_iter()
        .find(|cp| {
            cp.frontier
                .as_ref()
                .is_some_and(|f| f.wave.best_key.is_some())
        })
        .expect("a wave snapshot holds an incumbent");
    let best_score = frontier
        .frontier
        .as_ref()
        .and_then(|f| f.wave.best_score)
        .expect("an incumbent has a score");
    let report = session()
        .budget(SearchBudget::none().deadline(1e-9))
        .build()
        .expect("valid session")
        .resume(&frontier)
        .expect("the session's own checkpoint resumes");
    let leg = &report.single_wafer[0];
    assert_eq!(
        leg.outcome,
        Outcome::Truncated {
            reason: TruncationReason::Deadline
        }
    );
    let winner = leg
        .best
        .as_ref()
        .expect("the resumed leg keeps its incumbent");
    let score = ensemble_effective_secs(
        &wafer,
        &job,
        winner,
        &ensemble,
        RobustObjective::Worst,
        &ProfileCache::new(),
    );
    assert_eq!(
        score.to_bits(),
        best_score.to_bits(),
        "{score} vs {best_score}"
    );
}

/// Checkpoint decoding as a resume reads it.
fn decode_checkpoint(text: &str) -> Result<SearchCheckpoint, serde::Error> {
    SearchCheckpoint::from_value(&serde::json::from_text(text)?)
}

/// Feed `text` to every decoder; a panic fails the calling test.
fn decode_everything(text: &str) {
    let _ = ExplorationReport::from_json(text);
    let _ = decode_checkpoint(text);
    let _ = Trace::from_json(text);
}

/// A real report (wafer and node legs), a mid-leg checkpoint and a
/// serving trace, as the JSON texts the decoders read.
fn real_documents() -> &'static [String; 3] {
    static DOCS: OnceLock<[String; 3]> = OnceLock::new();
    DOCS.get_or_init(|| {
        let wafer = small_wafer(2);
        let sink = Arc::new(MemorySink::new());
        let report = fixture(&wafer, &small_job(6), 7)
            .multi_wafer(small_node(&wafer))
            .checkpoint_every(1, sink.clone())
            .build()
            .expect("valid session")
            .run();
        let checkpoint = sink
            .all()
            .into_iter()
            .find(|cp| cp.frontier.is_some())
            .expect("the session writes mid-leg snapshots");
        let trace = Trace::synthesize(&ServingWorkload::poisson(zoo::llama_7b(), 4.0, 8, 7));
        [
            report.to_json(),
            serde::json::to_text(&checkpoint.to_value()),
            trace.to_json(),
        ]
    })
}

#[test]
fn deep_nesting_is_an_error_in_every_decoder() {
    for opener in ["[", "{\"a\":"] {
        let text = opener.repeat(1 << 20);
        assert!(ExplorationReport::from_json(&text).is_err());
        assert!(decode_checkpoint(&text).is_err());
        assert!(matches!(
            Trace::from_json(&text),
            Err(TraceError::Malformed { .. })
        ));
    }
}

/// Guard against a vacuous corpus: the documents the proptest below
/// truncates and mutates must decode, and re-encode byte-identically.
#[test]
fn real_documents_round_trip_through_their_decoders() {
    let [report, checkpoint, trace] = real_documents();
    let decoded = ExplorationReport::from_json(report).expect("report decodes");
    assert_eq!(&decoded.to_json(), report);
    let decoded = decode_checkpoint(checkpoint).expect("checkpoint decodes");
    assert_eq!(&serde::json::to_text(&decoded.to_value()), checkpoint);
    let decoded = Trace::from_json(trace).expect("trace decodes");
    assert_eq!(&decoded.to_json(), trace);
}

proptest! {
    #[test]
    fn truncated_or_mutated_documents_never_panic_a_decoder(
        doc in 0usize..3,
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0u8..128,
    ) {
        let text = &real_documents()[doc];
        let mut end = (cut * text.len() as f64) as usize;
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        decode_everything(&text[..end]);

        let mut bytes = text.clone().into_bytes();
        let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[i] = byte;
        if let Ok(mutated) = String::from_utf8(bytes) {
            decode_everything(&mutated);
        }
    }
}
