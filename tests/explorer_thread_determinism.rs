//! Thread-count determinism: every session below runs on pools of
//! several sizes, each scoped to its run, and must give byte-identical
//! results on all of them.

use watos::ga::{refine_with_model, GaParams};
use watos::{Explorer, FaultEnsemble, FaultKind, PlanFilter, RobustObjective};
use wsc_arch::presets;
use wsc_bench::driver::on_pool;
use wsc_bench::util::{ga_refine_presets, ga_setup};
use wsc_serve::{ServingExplorerExt, ServingSlo};
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::serving::ServingWorkload;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

#[test]
fn report_is_identical_across_thread_counts() {
    // The report must not depend on the pool size.
    let jsons = [1, 2, 4].map(|threads| {
        on_pool(threads, || {
            Explorer::builder()
                .job(TrainingJob::standard(zoo::llama2_30b()))
                .no_ga()
                .strategies(vec![TpSplitStrategy::Megatron])
                .wafer(presets::config(3))
                .wafer(presets::config(4))
                .multi_wafer(presets::multi_wafer_18())
                // The node leg runs the enlarged plan space (cross-wafer TP
                // + uneven stage maps) — determinism must survive it.
                .plans(PlanFilter::all())
                .with_faults([FaultKind::Link, FaultKind::Wafer], [0.0, 0.2])
                // Fault-aware ranking runs a seeded Monte-Carlo ensemble per
                // candidate — its sample maps and aggregation must also be a
                // pure function of the seed, never of the thread count.
                .fault_aware(FaultEnsemble::clustered(0.2, 3, 7), RobustObjective::Mean)
                .seed(7)
                .build()
                .expect("valid")
                .run()
                .to_json()
        })
    });

    // Node-placement leg: the node-level Alg. 3 pass (per-plan seeded
    // hill climb + cross-seam DRAM borrowing) runs inside the parallel
    // wave sweep — the optimized cross-wafer report, including the
    // per-node placement stats, must be a pure function of the seed,
    // byte-identical at every thread count.
    let placed_jsons = [1, 2, 8].map(|threads| {
        on_pool(threads, || {
            Explorer::builder()
                .job(TrainingJob::standard(zoo::llama3_405b()))
                .no_ga()
                .strategies(vec![TpSplitStrategy::SequenceParallel])
                .multi_wafer(presets::multi_wafer_18())
                .plans(PlanFilter::all())
                .node_placement()
                .seed(7)
                .build()
                .expect("valid")
                .run()
                .to_json()
        })
    });

    // Serving leg: candidates ranked by goodput-under-SLO on a
    // synthesized Poisson trace through the same parallel wave sweep —
    // the trace, every candidate's simulated goodput, and the crowned
    // plan must be a pure function of the workload value, byte-identical
    // at every pool size.
    let serve_jsons = [1, 2, 8].map(|threads| {
        on_pool(threads, || {
            let workload = ServingWorkload::poisson(zoo::llama2_30b(), 8.0, 24, 7);
            Explorer::builder()
                .serving(workload, ServingSlo::ttft(1.0))
                .wafer(presets::config(3))
                .no_ga()
                .strategies(vec![TpSplitStrategy::SequenceParallel])
                .seed(7)
                .build()
                .expect("valid")
                .run()
                .to_json()
        })
    });

    // GA leg: `refine_with_model` decodes genomes in parallel on one
    // shared placement cost model (its route-fragment table fills
    // lazily from every worker); fitness, history and placement must be
    // byte-identical at every pool size.
    let preset = ga_refine_presets()
        .into_iter()
        .find(|p| p.name == "refine-llama3-70b")
        .expect("preset table always carries the Llama3-70B entry");
    let job = TrainingJob::standard(preset.model.clone());
    let s = ga_setup(&preset.wafer, &job, preset.tp, preset.pp);
    let params = GaParams {
        population: 10,
        steps: 15,
        omega: 0.5,
        seed: 33,
    };
    let ga_runs = [1, 2, 4].map(|threads| {
        on_pool(threads, || {
            let r = refine_with_model(
                &s.mesh,
                &s.stages,
                &s.plan,
                &s.placement,
                &s.overflow,
                &s.spare,
                s.pp_volume,
                s.capacity,
                &s.cost_model(),
                &params,
            );
            let history_bits: Vec<u64> = r.history.iter().map(|f| f.to_bits()).collect();
            (r.fitness.to_bits(), history_bits, r.placement, r.grants)
        })
    });

    assert_eq!(jsons[0], jsons[1]);
    assert_eq!(jsons[1], jsons[2]);
    assert_eq!(placed_jsons[0], placed_jsons[1]);
    assert_eq!(placed_jsons[1], placed_jsons[2]);
    assert_eq!(ga_runs[0], ga_runs[1]);
    assert_eq!(ga_runs[1], ga_runs[2]);
    assert_eq!(serve_jsons[0], serve_jsons[1]);
    assert_eq!(serve_jsons[1], serve_jsons[2]);
}
