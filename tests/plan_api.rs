//! The `ParallelPlan`/`StageMap` public-surface tests: serde round-trips
//! through `ExplorationReport`, explicit stage-map validation, the
//! wafers=1 cross-wafer degeneracy, and the §VI-F acceptance
//! demonstration — a node configuration where the enlarged plan space
//! (cross-wafer TP / uneven explicit stage maps) strictly beats the best
//! balanced intra-wafer-TP plan.

use watos::{
    evaluate_multi_wafer_plan, ExplorationReport, Explorer, ParallelPlan, PlanError, PlanFilter,
    ProfileCache, StageMap, TpSplitStrategy,
};
use wsc_arch::presets;
use wsc_arch::units::Bandwidth;
use wsc_arch::wafer::MultiWaferConfig;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

fn quick() -> watos::ExplorerBuilder {
    Explorer::builder()
        .no_ga()
        .strategies(vec![TpSplitStrategy::SequenceParallel])
}

#[test]
fn plan_round_trips_inside_exploration_report() {
    // A report carrying single-wafer AND multi-wafer records — every
    // record embeds its winning plan — must survive JSON byte-for-byte.
    let report = quick()
        .job(TrainingJob::standard(zoo::llama2_30b()))
        .wafer(presets::config(3))
        .multi_wafer(presets::multi_wafer_18())
        .plans(PlanFilter::all())
        .build()
        .expect("valid")
        .run();
    let best = report.best().expect("feasible");
    let plan = &best.best.as_ref().expect("schedule").plan;
    assert!(plan.dp >= 1, "records carry the resolved dp");
    assert_eq!(plan.stage_map, StageMap::SingleWafer);

    let mw = report.multi_wafer[0].best.as_ref().expect("feasible node");
    assert!(mw.plan.validate().is_ok());

    let json = report.to_json();
    let back = ExplorationReport::from_json(&json).expect("decodes");
    assert_eq!(back, report);
    assert_eq!(back.to_json(), json);
}

#[test]
fn explicit_stage_maps_round_trip_and_validate() {
    // Serde round-trip of the enum variants directly (unit, struct,
    // tuple) through the report-level machinery's value tree.
    use serde::{Deserialize, Serialize};
    for map in [
        StageMap::SingleWafer,
        StageMap::Balanced { wafers: 4 },
        StageMap::Explicit(vec![0, 0, 1, 1, 2]),
    ] {
        let plan = ParallelPlan::intra(4, 5, TpSplitStrategy::Megatron).with_stage_map(map);
        let v = plan.to_value();
        assert_eq!(ParallelPlan::from_value(&v).expect("decodes"), plan);
    }

    // The three validation failure classes of the issue contract.
    assert_eq!(
        StageMap::Explicit(vec![0, 1]).validate(3, 2),
        Err(PlanError::StageMapLength {
            expected: 3,
            got: 2
        })
    );
    assert_eq!(
        StageMap::Explicit(vec![0, 1, 5]).validate(3, 2),
        Err(PlanError::WaferOutOfRange {
            stage: 2,
            wafer: 5,
            wafers: 2
        })
    );
    assert_eq!(
        StageMap::Explicit(vec![0, 1, 0]).validate(3, 2),
        Err(PlanError::NonContiguous { stage: 2 })
    );
}

#[test]
fn single_wafer_node_never_emits_cross_wafer_plans() {
    // wafers = 1 degeneracy: enabling the whole plan space changes
    // nothing — no cross-wafer-TP plan exists to emit (tp_span must
    // divide 1), no uneven map exists (one group), and the report is
    // byte-identical to the baseline search.
    let mut node = presets::multi_wafer_18();
    node.wafers = 1;
    let job = TrainingJob::standard(zoo::llama2_30b());
    let run = |filter: PlanFilter| {
        quick()
            .job(job.clone())
            .multi_wafer(node.clone())
            .plans(filter)
            .build()
            .expect("valid")
            .run()
    };
    let base = run(PlanFilter::default());
    let all = run(PlanFilter::all());
    let winner = all.multi_wafer[0].best.as_ref().expect("feasible");
    assert_eq!(winner.plan.tp_span, 1, "no seam to span at wafers=1");
    assert_eq!(base.to_json(), all.to_json());
}

/// The acceptance demonstration: on the SOTA-interconnect 4-wafer node
/// (1.8 TB/s W2W, `multi_wafer_18`) training GPT-175B, a cross-wafer-TP
/// plan strictly beats the best balanced intra-wafer-TP plan the
/// baseline search can find — the probe below measured 9.512 s for
/// `D(2)T(8)P(14) tp-span=4` against the balanced winner's 9.960 s
/// `D(2)T(14)P(8)` (and 82.2 s vs 84.7 s for Llama3-405B on the same
/// node): a fast seam makes spreading each TP group over all four
/// wafers cheaper than a deeper intra-wafer TP.
#[test]
fn enlarged_plan_space_strictly_beats_balanced_intra() {
    let node = demo_node();
    let job = TrainingJob::standard(zoo::gpt_175b());
    let base = quick()
        .job(job.clone())
        .multi_wafer(node.clone())
        .build()
        .expect("valid")
        .run();
    let enlarged = quick()
        .job(job)
        .multi_wafer(node)
        .plans(PlanFilter::all())
        .build()
        .expect("valid")
        .run();
    let b = base.multi_wafer[0]
        .best
        .as_ref()
        .expect("baseline feasible");
    let e = enlarged.multi_wafer[0]
        .best
        .as_ref()
        .expect("enlarged feasible");
    assert!(
        e.iteration.as_secs() < b.iteration.as_secs(),
        "enlarged space must strictly win: {} (plan {}) vs {} (plan {})",
        e.iteration,
        e.plan,
        b.iteration,
        b.plan
    );
    assert!(
        e.plan.is_cross_wafer_tp() || matches!(e.plan.stage_map, StageMap::Explicit(_)),
        "the strict win must come from the new plan space, got {}",
        e.plan
    );
}

/// The node of [`enlarged_plan_space_strictly_beats_balanced_intra`]:
/// the §VI-F SOTA-interconnect preset (4× Config 3, 1.8 TB/s W2W).
fn demo_node() -> MultiWaferConfig {
    presets::multi_wafer_18()
}

/// Probe used to pin the demonstration config (ignored in CI): sweeps a
/// few jobs over the demo node and prints where explicit maps or
/// cross-wafer TP strictly beat the balanced intra baseline.
#[test]
#[ignore]
fn probe_strict_win_candidates() {
    for (name, model) in [
        ("gpt175b", zoo::gpt_175b()),
        ("llama405b", zoo::llama3_405b()),
        ("llama70b", zoo::llama3_70b()),
    ] {
        for w2w in [200.0, 400.0, 1800.0] {
            let mut node = demo_node();
            node.w2w_bw = Bandwidth::gb_per_s(w2w);
            let job = TrainingJob::standard(model.clone());
            let run = |filter: PlanFilter| {
                quick()
                    .job(job.clone())
                    .multi_wafer(node.clone())
                    .plans(filter)
                    .build()
                    .expect("valid")
                    .run()
            };
            let base = run(PlanFilter::default());
            let all = run(PlanFilter::all());
            let b = base.multi_wafer[0].best.as_ref();
            let e = all.multi_wafer[0].best.as_ref();
            if let (Some(b), Some(e)) = (b, e) {
                println!(
                    "{name} w2w={w2w}: base {} ({}) vs all {} ({}) strict={}",
                    b.iteration,
                    b.plan,
                    e.iteration,
                    e.plan,
                    e.iteration.as_secs() < b.iteration.as_secs()
                );
                // Also try explicit maps directly around the balanced
                // winner's pp.
                let bp = &b.plan;
                let cache = ProfileCache::new();
                for pp in [bp.pp.saturating_sub(2), bp.pp - 1, bp.pp + 1, bp.pp + 2] {
                    for shift in 0..4usize {
                        let p = ParallelPlan::intra(bp.tp, pp, bp.strategy)
                            .with_stage_map(StageMap::remainder_shifted(pp, 4, shift));
                        if let Some(r) = evaluate_multi_wafer_plan(&node, &job, &p, &cache) {
                            if r.iteration.as_secs() < b.iteration.as_secs() {
                                println!("  strict: {} -> {}", r.plan, r.iteration);
                            }
                        }
                    }
                }
            } else {
                println!(
                    "{name} w2w={w2w}: base {:?} all {:?}",
                    b.is_some(),
                    e.is_some()
                );
            }
        }
    }
}
