//! Cross-crate integration tests: the full co-exploration pipeline from
//! hardware template to evaluated schedule, driven through the `Explorer`
//! facade.

use watos::scheduler::{schedule_plan, RecomputeMode, SchedulerOptions};
use watos::{Explorer, ProfileCache};
use wsc_arch::enumerate::Enumerator;
use wsc_arch::presets;
use wsc_arch::AreaModel;
use wsc_workload::parallel::ParallelPlan;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

fn quick_opts() -> SchedulerOptions {
    SchedulerOptions {
        ga: None,
        strategies: vec![TpSplitStrategy::SequenceParallel],
        ..SchedulerOptions::default()
    }
}

fn quick_run(
    job: TrainingJob,
    wafers: Vec<wsc_arch::wafer::WaferConfig>,
) -> watos::ExplorationReport {
    Explorer::builder()
        .job(job)
        .wafers(wafers)
        .options(quick_opts())
        .build()
        .expect("valid facade configuration")
        .run()
}

#[test]
fn full_pipeline_on_every_table_ii_config() {
    let job = TrainingJob::standard(zoo::llama2_30b());
    let report = quick_run(job, presets::table_ii_configs());
    for rec in &report.single_wafer {
        let best = rec
            .best
            .as_ref()
            .unwrap_or_else(|| panic!("{} should host Llama2-30B", rec.arch));
        assert!(best.report.feasible, "{}", rec.arch);
        assert!(best.report.iteration.is_finite());
        assert!(best.report.compute_utilization > 0.05);
        // Every stage's memory must fit the die.
        for (s, m) in best.report.stage_memory.iter().enumerate() {
            assert!(
                m.as_f64() <= rec.wafer.dram.capacity.as_f64() * 1.02,
                "{} stage {s} overflows",
                rec.arch
            );
        }
    }
}

#[test]
fn config3_is_best_or_near_best_for_main_models() {
    // The paper's headline DSE insight: Config 3 is the universal optimum.
    let job = TrainingJob::with_batch(zoo::llama3_70b(), 512, 4, 4096);
    let report = quick_run(job, presets::table_ii_configs());
    let results: Vec<(String, f64)> = report
        .single_wafer
        .iter()
        .map(|rec| {
            let iter = rec
                .best
                .as_ref()
                .map(|c| c.report.iteration.as_secs())
                .unwrap_or(f64::INFINITY);
            (rec.arch.clone(), iter)
        })
        .collect();
    let best = results
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite-ish"))
        .expect("nonempty")
        .clone();
    let c3 = results.iter().find(|r| r.0 == "Config 3").expect("present");
    assert!(
        c3.1 <= best.1 * 1.05,
        "Config 3 ({}) should be within 5% of the best ({} at {})",
        c3.1,
        best.0,
        best.1
    );
    // The report's own best index agrees with the manual scan.
    assert_eq!(
        report.best().expect("some config fits").arch,
        best.0,
        "best_index should point at the fastest feasible record"
    );
}

#[test]
fn enumerator_candidates_are_schedulable() {
    let job = TrainingJob::standard(zoo::llama2_30b());
    let mut cands = Enumerator::paper_space().enumerate();
    cands.truncate(8);
    let model = AreaModel::default();
    for cfg in &cands {
        assert!(cfg.validate(&model).is_ok());
    }
    let report = quick_run(job, cands);
    let feasible = report
        .single_wafer
        .iter()
        .filter(|r| r.best.is_some())
        .count();
    assert!(feasible >= 4, "only {feasible}/8 candidates schedulable");
}

#[test]
fn recompute_ladder_is_consistent() {
    // More capable recompute scheduling never hurts iteration time.
    let wafer = presets::config(2); // tight memory
    let job = TrainingJob::with_batch(zoo::llama3_70b(), 512, 4, 4096);
    let run = |mode: RecomputeMode| {
        let opts = SchedulerOptions {
            recompute: mode,
            ..quick_opts()
        };
        schedule_plan(
            &wafer,
            &job,
            &ParallelPlan::intra(4, 14, TpSplitStrategy::SequenceParallel),
            &opts,
            None,
            &ProfileCache::new(),
        )
        .map(|c| c.report.iteration.as_secs())
    };
    let none = run(RecomputeMode::None);
    let naive = run(RecomputeMode::Naive);
    let gcmr = run(RecomputeMode::Gcmr);
    // Under pressure, "no recompute" may be infeasible entirely.
    let gcmr = gcmr.expect("GCMR must schedule");
    if let Some(naive) = naive {
        assert!(gcmr <= naive * 1.001, "gcmr {gcmr} vs naive {naive}");
    }
    if let Some(none) = none {
        // When everything fits, recomputation must not be invoked.
        assert!(gcmr <= none * 1.001);
    }
}

#[test]
fn deterministic_exploration() {
    let job = TrainingJob::standard(zoo::llama2_30b());
    let a = quick_run(job.clone(), vec![presets::config(3)]);
    let b = quick_run(job, vec![presets::config(3)]);
    // Not just the same winner — the whole report, byte for byte.
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
}
