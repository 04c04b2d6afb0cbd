//! Property tests for the resilience contract (see
//! `docs/ARCHITECTURE.md`): across randomized injection schedules the
//! engine must return a valid report with every panic isolated, a failed
//! candidate must never be crowned, a disarmed harness must leave the
//! report byte-identical to a run without one, killing a session at
//! any checkpoint then resuming must reproduce the uninterrupted run
//! bit-for-bit, an expired deadline must truncate with honest counters,
//! and every decoder of untrusted input — reports, checkpoints, serving
//! traces — must be total.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Once, OnceLock};
use watos::{
    ExplorationReport, Explorer, ExplorerBuilder, Injection, MemorySink, SearchBudget,
    SearchCheckpoint,
};
use wsc_arch::presets;
use wsc_arch::wafer::{MultiWaferConfig, WaferConfig};
use wsc_serve::{Trace, TraceError};
use wsc_workload::serving::ServingWorkload;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// Seeded `wsc-inject` panics are expected noise in these tests; keep
/// the default hook for anything else (a real bug must still print).
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
            if !msg.contains("wsc-inject") {
                default(info);
            }
        }));
    });
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

/// The common base session: one shrunken wafer, sequential evaluation
/// (so injection side-counters cannot race), no GA.
fn base(wafer: &WaferConfig, job: &TrainingJob, seed: u64) -> ExplorerBuilder {
    Explorer::builder()
        .job(job.clone())
        .wafer(wafer.clone())
        .no_ga()
        .seed(seed)
        .sequential()
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
        corrupt_rate in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        quiet_panics();
        let wafer = small_wafer(cfg_idx);
        let job = small_job(layers);

        let mut storm = Injection::seeded(seed)
            .panics(panic_rate)
            .delays(delay_rate, 20)
            .corruption(corrupt_rate);
        if seed % 4 == 0 {
            storm = storm.poisoning();
        }
        let stormy = base(&wafer, &job, seed)
            .inject(storm)
            .build()
            .expect("valid session")
            .run();

        // 1. The engine returned (every panic was isolated) and the
        //    report is still a valid, serializable document.
        let round = watos::ExplorationReport::from_json(&stormy.to_json())
            .expect("stormy report round-trips");
        prop_assert_eq!(&round, &stormy);

        // 2. A failed candidate is never the winner.
        let incidents = stormy.incidents();
        if let Some(best) = stormy.best().ok().and_then(|r| r.best.as_ref()) {
            prop_assert!(
                incidents.iter().all(|f| f.plan != best.plan),
                "winner {} is among the {} failed candidates",
                best.plan,
                incidents.len()
            );
        }

        // 3. Honest counters under fire: panicked candidates count as
        //    evaluated, nothing silently disappears.
        let s = stormy.search_stats();
        prop_assert_eq!(s.visited, s.pruned + s.evaluated + s.skipped);

        // 4. A disarmed harness is a no-op: byte-identical to a run
        //    with no harness at all.
        let plain = base(&wafer, &job, seed).build().expect("valid session").run();
        let disarmed = base(&wafer, &job, seed)
            .inject(Injection::seeded(seed))
            .build()
            .expect("valid session")
            .run();
        prop_assert_eq!(plain.to_json(), disarmed.to_json());
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
        let session = || base(&wafer, &job, seed).multi_wafer(small_node(&wafer));

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

            let resumed = session().build().expect("valid session").resume(&back);
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
    let report = base(&wafer, &job, 42)
        .multi_wafer(small_node(&wafer))
        .build()
        .expect("valid session")
        .run();
    for s in [report.search_stats(), report.multi_wafer_search_stats()] {
        assert!(s.visited > 0, "no candidates visited");
        assert!(s.evaluated > 0, "no candidates evaluated");
    }
}

/// Guard against a silently disconnected harness: a high-rate seeded
/// storm over the fixture must actually produce isolated incidents —
/// otherwise "no failed candidate is ever crowned" holds vacuously.
#[test]
fn high_rate_storms_actually_produce_incidents() {
    quiet_panics();
    let wafer = small_wafer(2);
    let job = small_job(6);
    let report = base(&wafer, &job, 7)
        .inject(Injection::seeded(7).panics(0.95))
        .build()
        .expect("valid session")
        .run();
    assert!(
        !report.incidents().is_empty(),
        "a 95% panic storm produced no incidents: the harness is not wired in"
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
        let report = base(&wafer, &small_job(6), 7)
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
