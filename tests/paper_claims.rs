//! Integration tests pinning the paper's qualitative claims — the shapes
//! the figure harness prints (`figures --quick all`, committed as
//! `FIGURES_quick.txt`). Each test names the figure it guards.

use watos::scheduler::SchedulerOptions;
use watos::{Explorer, PlanFilter};
use wsc_arch::presets;
use wsc_baselines::dse::{run as run_dse, DseMethod};
use wsc_baselines::standard_suite;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

fn opts() -> SchedulerOptions {
    SchedulerOptions {
        ga: None,
        ..SchedulerOptions::default()
    }
}

#[test]
fn fig16_watos_beats_all_baselines() {
    let wafer = presets::config(3);
    for model in [zoo::llama2_30b(), zoo::llama3_70b()] {
        let name = model.name.clone();
        let job = TrainingJob::with_batch(model, 512, 4, 4096);
        let report = Explorer::builder()
            .job(job)
            .wafer(wafer.clone())
            .options(opts())
            .with_baselines(standard_suite())
            .build()
            .expect("valid")
            .run();
        let wa = &report
            .best()
            .expect("watos")
            .best
            .as_ref()
            .expect("feasible")
            .report;
        assert_eq!(report.baselines.len(), 3, "{name}: all baselines recorded");
        for baseline in &report.baselines {
            let outcome = baseline
                .outcome
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: {} infeasible", baseline.name));
            assert!(
                wa.useful_throughput.as_f64() > outcome.useful_throughput.as_f64(),
                "{name}: WATOS vs {}",
                baseline.name
            );
        }
    }
}

#[test]
fn fig20_watos_tops_every_dse_method() {
    let wafer = presets::config(3);
    let job = TrainingJob::standard(zoo::llama2_30b());
    let watos = run_dse(DseMethod::Watos, &wafer, &job)
        .expect("watos")
        .report
        .useful_throughput
        .as_f64();
    for m in DseMethod::all() {
        if m == DseMethod::Watos {
            continue;
        }
        if let Some(cfg) = run_dse(m, &wafer, &job) {
            assert!(
                watos >= cfg.report.useful_throughput.as_f64() * 0.999,
                "{} beat WATOS",
                m.label()
            );
        }
    }
}

#[test]
fn fig1_wafer_has_lower_exposed_comm_than_gpu_rack() {
    // The Fig. 1 motivation: ≈2.6x effective-communication reduction.
    let rows = wsc_bench::figures::early::fig1_data(zoo::llama3_70b());
    assert!(!rows.is_empty());
    let mut ratios = Vec::new();
    for r in &rows {
        if r.gpu_comm.is_finite() && r.wafer_comm > 0.0 {
            ratios.push(r.gpu_comm / r.wafer_comm);
        }
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean > 1.8,
        "mean comm reduction {mean:.2} should be well above 1 (paper: 2.62)"
    );
}

#[test]
fn fig15_config3_wins_the_dse() {
    let data = wsc_bench::figures::evaluation::fig15_data(zoo::llama3_70b(), true, true);
    let best = data
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("nonempty");
    assert_eq!(best.0, "Config 3", "{data:?}");
}

/// §VI-F at node scale: porting the Alg. 3 memory scheduler across the
/// W2W seam must never cost the search a winner. On the SOTA 4-wafer
/// node the node-placement-enabled sweep has to match or beat both
/// pinned cross-wafer winners — GPT-175B's 9.512 s `D(2)T(8)P(14)
/// tp-span=4` and Llama3-405B's 82.2 s `D(1)T(16)P(14)` — and it has to
/// match or beat the knob-off sweep run side by side, not just the
/// historical literals.
#[test]
fn node_alg3_never_loses_the_pinned_cross_wafer_winners() {
    let node = presets::multi_wafer_18();
    for (model, pin_secs) in [(zoo::gpt_175b(), 9.52), (zoo::llama3_405b(), 82.20)] {
        let name = model.name.clone();
        let job = TrainingJob::standard(model);
        let quick = || {
            Explorer::builder()
                .no_ga()
                .strategies(vec![TpSplitStrategy::SequenceParallel])
                .job(job.clone())
                .multi_wafer(node.clone())
                .plans(PlanFilter::all())
        };
        let base = quick().build().expect("valid").run();
        let placed = quick().node_placement().build().expect("valid").run();
        let b = base.multi_wafer[0].best.as_ref().expect("feasible");
        let p = placed.multi_wafer[0].best.as_ref().expect("feasible");
        assert!(
            p.iteration.as_secs() <= b.iteration.as_secs(),
            "{name}: node placement regressed the winner: {} (plan {}) vs {} (plan {})",
            p.iteration,
            p.plan,
            b.iteration,
            b.plan
        );
        assert!(
            p.iteration.as_secs() <= pin_secs,
            "{name}: optimized winner {} must not exceed the pinned {pin_secs} s",
            p.iteration
        );
        let stats = p
            .placement
            .as_ref()
            .expect("knob-on winner is instrumented");
        assert!(
            stats.optimized_cost <= stats.seed_cost,
            "{name}: climb regressed"
        );
    }
}

#[test]
fn fig18_every_optimization_helps() {
    let data = wsc_bench::figures::evaluation::fig18_data(zoo::llama3_70b(), true);
    assert!(data[1].1 <= data[0].1 * 1.001, "+R regressed: {data:?}");
    assert!(data[3].1 <= data[0].1, "+GA must beat B: {data:?}");
}
