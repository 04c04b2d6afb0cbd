//! Measured-benchmark harness for fault-aware co-exploration.
//!
//! Per preset, runs the single-wafer search twice in one process — once
//! fault-oblivious (candidates ranked by clean iteration time, the
//! seed-era behavior) and once fault-aware (ranked by ensemble
//! effective time under a clustered yield ensemble via
//! `Explorer::builder().fault_aware(..)`) — then scores *both* winners'
//! ensemble goodput against the same ensemble and records the
//! robust-search win in `BENCH_fault.json`. A fault-oblivious search
//! ships the plan that is fastest on a perfect wafer; the gap measured
//! here is what that plan gives up on the wafers the fab actually
//! yields.
//!
//! ```text
//! cargo run -p wsc-bench --release --bin bench_fault -- \
//!     [--preset small|medium|large|all] \
//!     [--output BENCH_fault.json] [--min-gap X]
//! ```
//!
//! The ensemble is fixed — a 20% clustered-defect rate, 4 sampled
//! wafers, seed 7, ranked by worst-case goodput — and recorded in every
//! entry. Only the wafer presets run: node legs have no fault-aware
//! ranking. `--min-gap X` exits non-zero unless at least one selected
//! preset's fault-aware winner beats the fault-oblivious winner's
//! ensemble goodput by the fraction `X` (the CI smoke contract, and the
//! acceptance criterion of the fault-aware co-exploration PR).

use std::process::ExitCode;

use serde::Serialize;
use watos::{ensemble_goodput, FaultEnsemble, ParallelPlan, ProfileCache, RobustObjective};
use wsc_arch::wafer::WaferConfig;
use wsc_bench::driver::{run_timed, winner, Bench, Opt, Pools, Spec};
use wsc_bench::util::{search_presets, SearchCandidate, SearchPreset};
use wsc_workload::training::TrainingJob;

const SPEC: Spec = Spec {
    bin: "bench_fault",
    output: "BENCH_fault.json",
    pools: Pools::Default,
    opts: &[Opt::Number("--min-gap")],
};

/// Clustered-defect rate of the scoring ensemble.
const RATE: f64 = 0.2;
/// Monte-Carlo wafer samples per candidate score.
const SAMPLES: usize = 4;
/// Ensemble base seed.
const SEED: u64 = 7;
/// Robust objective the fault-aware search optimizes, with its name.
const OBJECTIVE: (RobustObjective, &str) = (RobustObjective::Worst, "worst");

/// One preset's measurements.
#[derive(Debug, Serialize)]
struct BenchEntry {
    preset: String,
    model: String,
    wafer: String,
    /// Clustered-defect rate of the scoring ensemble.
    rate: f64,
    /// Monte-Carlo wafer samples per candidate score.
    samples: usize,
    /// Ensemble base seed.
    seed: u64,
    /// Robust objective the fault-aware search optimized.
    objective: String,
    /// Winning plan of the fault-oblivious search.
    oblivious_plan: Option<ParallelPlan>,
    /// Winning plan of the fault-aware search.
    aware_plan: Option<ParallelPlan>,
    /// Clean iteration seconds of each winner.
    oblivious_clean_secs: Option<f64>,
    aware_clean_secs: Option<f64>,
    /// Ensemble goodput (useful FLOP/s) of each winner under the *same*
    /// ensemble + objective.
    oblivious_goodput: f64,
    aware_goodput: f64,
    /// Fractional goodput win of the fault-aware winner
    /// (`aware/oblivious − 1`); `0.0` when the searches agree.
    goodput_gap: f64,
    /// Search wall times.
    oblivious_search_secs: f64,
    aware_search_secs: f64,
}

/// The whole `BENCH_fault.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    presets: Vec<BenchEntry>,
}

fn main() -> ExitCode {
    let wafer_presets = search_presets()
        .into_iter()
        .filter_map(|p| match &p.candidate {
            SearchCandidate::Wafer(w) => Some((w.clone(), p)),
            SearchCandidate::Node(_) => None,
        })
        .collect();
    let (bench, presets) = Bench::from_env(&SPEC, wafer_presets, |(_, p)| p.name);
    let ensemble = FaultEnsemble::clustered(RATE, SAMPLES, SEED);
    let entries: Vec<BenchEntry> = presets
        .iter()
        .map(|(wafer, p)| measure(wafer, p, &ensemble))
        .collect();
    if let Some(min) = bench.args.number("--min-gap") {
        let best_gap = entries
            .iter()
            .map(|e| e.goodput_gap)
            .fold(f64::NEG_INFINITY, f64::max);
        if best_gap < min {
            bench.fail(format!(
                "FAULT-AWARE GAP CONTRACT FAILED: best goodput gap {best_gap:.4} below required {min}"
            ));
        }
    }
    bench.finish(&BenchReport {
        benchmark: "fault-aware search vs fault-oblivious winner, ensemble goodput".to_string(),
        presets: entries,
    })
}

/// Search one preset fault-oblivious and fault-aware, then score both
/// winners against the same wafer population.
fn measure(wafer: &WaferConfig, preset: &SearchPreset, ensemble: &FaultEnsemble) -> BenchEntry {
    let (objective, objective_name) = OBJECTIVE;
    let (oblivious_report, oblivious_secs) = run_timed(preset.builder());
    let (aware_report, aware_secs) =
        run_timed(preset.builder().fault_aware(ensemble.clone(), objective));

    // A fresh cache per preset: goodput numbers must not depend on which
    // search ran first.
    let job = TrainingJob::standard(preset.model.clone());
    let cache = ProfileCache::new();
    let (ow, aw) = (winner(&oblivious_report), winner(&aware_report));
    let [og, ag] = [ow, aw].map(|cfg| {
        cfg.map_or(0.0, |c| {
            ensemble_goodput(wafer, &job, c, ensemble, objective, &cache).unwrap_or_else(|err| {
                eprintln!("[{:8}] degenerate ensemble: {err}", preset.name);
                0.0
            })
        })
    });
    let gap = if og > 0.0 { ag / og - 1.0 } else { 0.0 };
    println!(
        "[{:8}] {:12} oblivious {:>10.3e} FLOP/s  aware {:>10.3e} FLOP/s  gap {:+6.2}%  \
         ({} vs {})",
        preset.name,
        preset.model.name,
        og,
        ag,
        gap * 100.0,
        ow.map_or_else(|| "-".into(), |c| c.plan.to_string()),
        aw.map_or_else(|| "-".into(), |c| c.plan.to_string()),
    );
    BenchEntry {
        preset: preset.name.to_string(),
        model: preset.model.name.clone(),
        wafer: preset.candidate_name(),
        rate: RATE,
        samples: SAMPLES,
        seed: SEED,
        objective: objective_name.to_string(),
        oblivious_plan: ow.map(|c| c.plan.clone()),
        aware_plan: aw.map(|c| c.plan.clone()),
        oblivious_clean_secs: ow.map(|c| c.report.iteration.as_secs()),
        aware_clean_secs: aw.map(|c| c.report.iteration.as_secs()),
        oblivious_goodput: og,
        aware_goodput: ag,
        goodput_gap: gap,
        oblivious_search_secs: oblivious_secs,
        aware_search_secs: aware_secs,
    }
}
