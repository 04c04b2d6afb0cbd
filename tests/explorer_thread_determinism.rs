//! Thread-count determinism, isolated in its own test binary: this test
//! mutates `RAYON_NUM_THREADS`, and `setenv` racing `getenv` from other
//! concurrently-running tests would be undefined behavior on glibc. As
//! the only test in the binary, nothing reads the environment while it
//! writes (worker threads are joined before each `set_var`).

use watos::ga::{refine, GaParams};
use watos::{Explorer, FaultEnsemble, FaultKind, PlanFilter, RobustObjective};
use wsc_arch::presets;
use wsc_bench::util::{ga_refine_presets, ga_setup};
use wsc_serve::{ServingExplorerExt, ServingSlo};
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::serving::ServingWorkload;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

#[test]
fn report_is_identical_across_thread_counts() {
    // The vendored rayon honors RAYON_NUM_THREADS at call time; the
    // report must not depend on it.
    let mut jsons = Vec::new();
    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let report = Explorer::builder()
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
            .run();
        jsons.push(report.to_json());
    }

    // Node-placement leg: the node-level Alg. 3 pass (per-plan seeded
    // hill climb + cross-seam DRAM borrowing) runs inside the parallel
    // wave sweep — the optimized cross-wafer report, including the
    // per-node placement stats, must be a pure function of the seed,
    // byte-identical at every thread count.
    let mut placed_jsons = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let report = Explorer::builder()
            .job(TrainingJob::standard(zoo::llama3_405b()))
            .no_ga()
            .strategies(vec![TpSplitStrategy::SequenceParallel])
            .multi_wafer(presets::multi_wafer_18())
            .plans(PlanFilter::all())
            .node_placement()
            .seed(7)
            .build()
            .expect("valid")
            .run();
        placed_jsons.push(report.to_json());
    }

    // Serving leg: candidates ranked by goodput-under-SLO on a
    // synthesized Poisson trace through the same parallel wave sweep —
    // the trace, every candidate's simulated goodput, and the crowned
    // plan must be a pure function of the workload value, byte-identical
    // at every pool size.
    let mut serve_jsons = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let workload = ServingWorkload::poisson(zoo::llama2_30b(), 8.0, 24, 7);
        let report = Explorer::builder()
            .serving(workload, ServingSlo::ttft(1.0))
            .wafer(presets::config(3))
            .no_ga()
            .strategies(vec![TpSplitStrategy::SequenceParallel])
            .seed(7)
            .build()
            .expect("valid")
            .run();
        serve_jsons.push(report.to_json());
    }

    // GA leg: `refine` decodes genomes in parallel through the
    // incremental cost engine (shared fragment table + plan memo);
    // fitness, history and placement must be byte-identical at every
    // pool size.
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
    let mut ga_runs = Vec::new();
    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let r = refine(
            &s.mesh,
            &s.stages,
            &s.plan,
            &s.placement,
            &s.overflow,
            &s.spare,
            s.pp_volume,
            s.capacity,
            &params,
        );
        let history_bits: Vec<u64> = r.history.iter().map(|f| f.to_bits()).collect();
        ga_runs.push((r.fitness.to_bits(), history_bits, r.placement, r.grants));
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(jsons[0], jsons[1]);
    assert_eq!(jsons[1], jsons[2]);
    assert_eq!(placed_jsons[0], placed_jsons[1]);
    assert_eq!(placed_jsons[1], placed_jsons[2]);
    assert_eq!(ga_runs[0], ga_runs[1]);
    assert_eq!(ga_runs[1], ga_runs[2]);
    assert_eq!(serve_jsons[0], serve_jsons[1]);
    assert_eq!(serve_jsons[1], serve_jsons[2]);
}
