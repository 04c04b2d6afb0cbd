//! Facade-level tests: builder validation, report serialization, and
//! determinism of the parallel candidate fan-out.

use watos::scheduler::DEFAULT_SEED;
use watos::{
    ExplorationError, ExplorationReport, Explorer, FaultKind, PlanFilter, SchedulerOptions,
};
use wsc_arch::presets;
use wsc_arch::units::{Bandwidth, Bytes, Time};
use wsc_arch::wafer::WaferConfig;
use wsc_bench::driver::on_pool;
use wsc_workload::model::ModelFamily;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

fn quick() -> watos::ExplorerBuilder {
    Explorer::builder()
        .job(TrainingJob::standard(zoo::llama2_30b()))
        .no_ga()
        .strategies(vec![TpSplitStrategy::Megatron])
}

// ---------------------------------------------------------------- builder

#[test]
fn missing_job_is_a_typed_error() {
    let err = Explorer::builder()
        .wafer(presets::config(3))
        .build()
        .unwrap_err();
    assert_eq!(err, ExplorationError::MissingJob);
    assert!(err.to_string().contains(".job("), "message guides the fix");
}

#[test]
fn missing_candidates_is_a_typed_error() {
    assert_eq!(quick().build().unwrap_err(), ExplorationError::NoCandidates);
}

#[test]
fn empty_strategy_list_is_rejected() {
    let err = quick()
        .wafer(presets::config(3))
        .strategies(Vec::new())
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ExplorationError::EmptyOptionList {
            list: "strategies".into()
        }
    );
}

#[test]
fn invalid_batch_geometry_is_rejected() {
    let build = |global, micro, seq| {
        let job = TrainingJob::with_batch(zoo::llama2_30b(), global, micro, seq);
        Explorer::builder()
            .job(job)
            .wafer(presets::config(3))
            .build()
            .unwrap_err()
    };
    assert_eq!(
        build(16, 64, 4096),
        ExplorationError::InvalidBatchGeometry {
            micro: 64,
            global: 16,
            seq: 4096
        }
    );
    // The sharding context would clamp a zero-token sequence to one
    // token and score that job instead.
    let err = build(16, 4, 0);
    assert_eq!(
        err,
        ExplorationError::InvalidBatchGeometry {
            micro: 4,
            global: 16,
            seq: 0
        }
    );
    assert!(err.to_string().contains("sequence length 0"), "{err}");
}

#[test]
fn a_model_without_heads_is_rejected() {
    // `head_dim` divides the hidden size by the head count.
    let mut model = zoo::llama2_30b();
    model.heads = 0;
    let name = model.name.clone();
    let err = Explorer::builder()
        .job(TrainingJob::standard(model))
        .wafer(presets::config(3))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ExplorationError::InvalidModel {
            model: name,
            field: "heads".into()
        }
    );
}

#[test]
fn a_moe_model_with_no_moe_layer_interval_is_rejected() {
    // Which layers are MoE is `idx % moe_every`.
    let mut model = zoo::gshard_137b();
    let ModelFamily::MoeTransformer { moe_every, .. } = &mut model.family else {
        panic!("GShard-137B is a MoE model");
    };
    *moe_every = 0;
    let name = model.name.clone();
    let err = Explorer::builder()
        .job(TrainingJob::standard(model))
        .wafer(presets::config(3))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ExplorationError::InvalidModel {
            model: name,
            field: "moe_every".into()
        }
    );
}

#[test]
fn zero_tp_candidate_is_rejected() {
    // A zero degree would divide by zero in the wafer work list.
    let err = quick()
        .wafer(presets::config(3))
        .options(SchedulerOptions {
            tp_candidates: Some(vec![4, 0]),
            ..SchedulerOptions::default()
        })
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        ExplorationError::InvalidTpCandidate { index: 1, tp: 0 }
    );
}

#[test]
fn oversized_tp_candidate_is_skipped_on_a_node() {
    // Spread over two or four wafers, a degree above `usize::MAX / 2`
    // overflows `usize`. The node search skips those spans, so the
    // session runs to completion and finds what it finds without the
    // candidate.
    let run = |tp_candidates: Vec<usize>| {
        Explorer::builder()
            .job(TrainingJob::standard(zoo::llama2_30b()))
            .options(SchedulerOptions {
                tp_candidates: Some(tp_candidates),
                ..SchedulerOptions::default()
            })
            .no_ga()
            .strategies(vec![TpSplitStrategy::Megatron])
            .multi_wafer(presets::multi_wafer_4())
            .plans(PlanFilter::all())
            .build()
            .expect("valid inputs")
            .run()
    };
    let report = run(vec![4, usize::MAX / 2 + 1]);
    assert!(report.multi_wafer[0].best.is_some());
    assert_eq!(report.to_json(), run(vec![4]).to_json());
}

#[test]
fn fault_rates_are_validated() {
    let err = quick()
        .wafer(presets::config(3))
        .with_faults([FaultKind::Link], [0.1, -0.2])
        .build()
        .unwrap_err();
    assert_eq!(err, ExplorationError::InvalidFaultRate { rate: -0.2 });

    let err = quick()
        .wafer(presets::config(3))
        .with_faults([FaultKind::Link], [])
        .build()
        .unwrap_err();
    assert_eq!(err, ExplorationError::EmptyFaultRates);
}

#[test]
fn broken_architecture_is_rejected_by_name() {
    let mut wafer = presets::config(3);
    wafer.name = "Broken".into();
    wafer.nx = 0;
    match quick().wafer(wafer).build().unwrap_err() {
        ExplorationError::InvalidArchitecture { name, reason } => {
            assert_eq!(name, "Broken");
            assert!(!reason.is_empty());
        }
        other => panic!("expected InvalidArchitecture, got {other:?}"),
    }
}

#[test]
fn infeasible_model_surfaces_as_typed_error() {
    // DeepSeek-671B cannot fit one Config-3 wafer (Alg. 1 prune).
    let job = TrainingJob::standard(zoo::deepseek_v3());
    let model_name = job.model.name.clone();
    let report = Explorer::builder()
        .job(job)
        .wafer(presets::config(3))
        .no_ga()
        .build()
        .expect("valid inputs")
        .run();
    assert_eq!(
        report.best().unwrap_err(),
        ExplorationError::Infeasible { model: model_name }
    );
}

// ---------------------------------------------------------------- serde

fn full_report() -> ExplorationReport {
    quick()
        .wafer(presets::config(3))
        .wafer(presets::config(4))
        .multi_wafer(presets::multi_wafer_18())
        .with_faults([FaultKind::Link, FaultKind::Die], [0.0, 0.2])
        .seed(7)
        .build()
        .expect("valid")
        .run()
}

#[test]
fn report_round_trips_through_json() {
    let report = full_report();
    let json = report.to_json();
    let back = ExplorationReport::from_json(&json).expect("parses");
    assert_eq!(back, report);
}

#[test]
fn report_json_captures_every_section() {
    let report = full_report();
    let json = report.to_json();
    for key in [
        "\"single_wafer\"",
        "\"multi_wafer\"",
        "\"fault_sweeps\"",
        "\"baselines\"",
        "\"best_index\"",
        "\"seed\"",
    ] {
        assert!(json.contains(key), "missing {key}");
    }
    assert_eq!(report.seed, 7);
    assert_eq!(report.fault_sweeps.len(), 2);
}

// ----------------------------------------------------------- determinism

#[test]
fn parallel_and_sequential_reports_are_byte_identical() {
    let parallel = full_report();
    let sequential = on_pool(1, full_report);
    assert_eq!(parallel, sequential);
    assert_eq!(parallel.to_json(), sequential.to_json());
}

#[test]
fn seed_changes_the_run_reproducibly() {
    let a1 = quick()
        .wafer(presets::config(3))
        .seed(1)
        .build()
        .expect("valid")
        .run();
    let a2 = quick()
        .wafer(presets::config(3))
        .seed(1)
        .build()
        .expect("valid")
        .run();
    assert_eq!(a1, a2, "same seed, same report");
    assert_eq!(a1.seed, 1);
    // Default seed is the documented constant.
    let d = quick()
        .wafer(presets::config(3))
        .build()
        .expect("valid")
        .run();
    assert_eq!(d.seed, DEFAULT_SEED);
}

// -------------------------------------------------------------- coverage

#[test]
fn enumerator_feeds_the_builder_directly() {
    use wsc_arch::enumerate::Enumerator;
    let mut narrowed = Enumerator::paper_space();
    narrowed.dram_capacities = vec![Bytes::gib(70)];
    narrowed.dram_bandwidths = vec![Bandwidth::tb_per_s(2.0)];
    let report = quick()
        .wafers(narrowed.enumerate())
        .build()
        .expect("valid")
        .run();
    assert!(!report.single_wafer.is_empty());
    assert!(report.best().is_ok(), "some enumerated candidate fits");
}

#[test]
fn custom_baselines_plug_into_the_report() {
    struct Stub;
    impl watos::BaselineModel for Stub {
        fn name(&self) -> String {
            "stub".into()
        }
        fn evaluate(
            &self,
            _wafer: &WaferConfig,
            _job: &TrainingJob,
        ) -> Option<watos::BaselineOutcome> {
            Some(watos::BaselineOutcome {
                iteration: Time::from_secs(1.0),
                useful_throughput: wsc_arch::units::FlopRate::tflops(1.0),
            })
        }
    }
    let report = quick()
        .wafer(presets::config(3))
        .with_baselines([Box::new(Stub) as Box<dyn watos::BaselineModel>])
        .build()
        .expect("valid")
        .run();
    assert_eq!(report.baselines.len(), 1);
    assert_eq!(report.baselines[0].name, "stub");
    assert!(report.baselines[0].outcome.is_some());
}
