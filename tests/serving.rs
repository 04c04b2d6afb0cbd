//! Serving co-exploration contracts: the pruned serving search equals
//! the exhaustive one, the SLO-optimal plan genuinely diverges from the
//! training-optimal plan, and trace synthesis is a pure function of the
//! workload value with bit-exact JSON replay.

use proptest::prelude::*;
use watos::scheduler::SchedulerOptions;
use watos::{ExplorationError, Explorer, FaultEnsemble, ProfileCache, RobustObjective};
use wsc_arch::presets;
use wsc_serve::{
    simulate, PhaseCost, ServingExplorerExt, ServingSlo, SimConfig, SloServingModel, Trace,
};
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::serving::ServingWorkload;
use wsc_workload::zoo;

fn small_workload(rate_rps: f64, requests: usize) -> ServingWorkload {
    ServingWorkload::poisson(zoo::llama2_30b(), rate_rps, requests, 7)
}

/// The serving bound's pruning contract, end to end: with the analytic
/// bound active, the wave search must crown exactly the winner the
/// exhaustive sequential sweep finds.
#[test]
fn pruned_serving_search_equals_exhaustive() {
    let opts = SchedulerOptions {
        strategies: vec![TpSplitStrategy::SequenceParallel],
        ..SchedulerOptions::default()
    };
    let build = |exhaustive: bool| {
        let mut b = Explorer::builder()
            .serving(small_workload(8.0, 24), ServingSlo::ttft(1.0))
            .wafer(presets::config(3))
            .options(opts.clone())
            .no_ga()
            .seed(7);
        if exhaustive {
            b = b.no_prune().sequential();
        }
        b.build().expect("valid serving search").run()
    };
    let pruned = build(false);
    let exhaustive = build(true);
    let best =
        |r: &watos::ExplorationReport| r.best().ok().and_then(|rec| rec.best.as_ref()).cloned();
    let (p, e) = (best(&pruned), best(&exhaustive));
    assert!(p.is_some(), "serving search found no winner");
    assert_eq!(p, e, "pruning changed the serving winner");
    // The bound must actually bite (otherwise this test proves nothing)
    // while the exhaustive sweep must evaluate every visited candidate.
    assert!(
        pruned.search_stats().pruned > 0,
        "serving bound never pruned a candidate"
    );
    assert_eq!(exhaustive.search_stats().pruned, 0);
}

/// A session ranks by one objective: `.serving(..)` and
/// `.fault_aware(..)` each set it, and a later call replaces an earlier
/// one. `build()` validates the fault ensemble only while it is the
/// objective.
#[test]
fn a_later_objective_replaces_an_earlier_one() {
    let bad = FaultEnsemble {
        rate: 1.5,
        ..FaultEnsemble::clustered(0.2, 2, 1)
    };
    let serving = || Explorer::builder().serving(small_workload(8.0, 24), ServingSlo::ttft(1.0));
    let err = serving()
        .wafer(presets::config(3))
        .fault_aware(bad.clone(), RobustObjective::Mean)
        .build()
        .unwrap_err();
    assert_eq!(err, ExplorationError::InvalidFaultRate { rate: 1.5 });
    let replaced = Explorer::builder()
        .fault_aware(bad, RobustObjective::Mean)
        .serving(small_workload(8.0, 24), ServingSlo::ttft(1.0))
        .wafer(presets::config(3))
        .build();
    assert!(replaced.is_ok(), "{replaced:?}");
}

/// The co-exploration payoff the subsystem exists for: under a
/// saturating offered rate, the goodput-under-SLO winner is a
/// different parallel plan than the training-iteration-time winner on
/// the same profile job, and it strictly beats that plan's goodput on
/// the same trace.
#[test]
fn slo_optimal_plan_differs_from_training_optimal() {
    let workload = small_workload(32.0, 32);
    let slo = ServingSlo::ttft(1.0);
    let sim = SimConfig::default();
    let model = SloServingModel::with_sim(workload.clone(), slo, sim);
    let opts = SchedulerOptions {
        strategies: vec![TpSplitStrategy::SequenceParallel],
        ..SchedulerOptions::default()
    };
    let wafer = presets::config(3);

    let serving_report = Explorer::builder()
        .serving_with(workload, slo, sim)
        .wafer(wafer.clone())
        .options(opts.clone())
        .no_ga()
        .seed(7)
        .build()
        .expect("valid serving search")
        .run();
    let training_report = Explorer::builder()
        .job(model.profile_job())
        .wafer(wafer.clone())
        .options(opts)
        .no_ga()
        .seed(7)
        .build()
        .expect("valid training search")
        .run();

    let slo_cfg = serving_report
        .best()
        .expect("serving search succeeds")
        .best
        .as_ref()
        .expect("serving search found a schedulable plan");
    let train_cfg = training_report
        .best()
        .expect("training search succeeds")
        .best
        .as_ref()
        .expect("training search found a schedulable plan");
    assert_ne!(
        slo_cfg.plan, train_cfg.plan,
        "expected the SLO objective to crown a different plan than iteration time"
    );

    // Both winners serve the SAME trace; the SLO winner must win it.
    let job = model.profile_job();
    let cache = ProfileCache::new();
    let goodput = |cfg| {
        let cost = PhaseCost::derive(&wafer, &job, cfg, &cache).expect("winner is servable");
        simulate(&cost, model.trace(), &sim, &slo)
            .expect("winner serves the trace")
            .goodput_rps
    };
    let (slo_goodput, train_goodput) = (goodput(slo_cfg), goodput(train_cfg));
    assert!(
        slo_goodput > train_goodput,
        "SLO winner goodput {slo_goodput} must beat training winner {train_goodput}"
    );
}

proptest! {
    /// Trace synthesis is a pure function of the workload value: same
    /// seed → identical trace, different seed → (almost surely) a
    /// different one, and every trace validates.
    #[test]
    fn poisson_synthesis_is_seed_stable(
        seed in 0u64..1_000_000,
        rate in 0.5f64..64.0,
        requests in 1usize..40,
    ) {
        let mk = |s| ServingWorkload::poisson(zoo::llama2_30b(), rate, requests, s);
        let a = Trace::synthesize(&mk(seed));
        let b = Trace::synthesize(&mk(seed));
        prop_assert_eq!(&a, &b);
        prop_assert!(a.validate().is_ok());
        let other = Trace::synthesize(&mk(seed.wrapping_add(1)));
        if requests >= 4 {
            prop_assert_ne!(&a, &other);
        }
    }

    /// JSON replay files round-trip bit-exactly: synthesize → to_json →
    /// from_json → to_json is a fixed point.
    #[test]
    fn trace_replay_round_trips(
        seed in 0u64..1_000_000,
        rate in 0.5f64..64.0,
        requests in 1usize..40,
    ) {
        let trace = Trace::synthesize(
            &ServingWorkload::poisson(zoo::llama2_30b(), rate, requests, seed),
        );
        let json = trace.to_json();
        let back = Trace::from_json(&json).expect("synthesized traces replay");
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_json(), json);
    }
}
