//! Measured-benchmark harness for the §IV-C/§IV-D refinement hot path.
//!
//! Runs each preset on both engines in the same process — on the
//! [`PlacementCostModel`], which re-sums every candidate's Eq. 2 cost
//! from cached slot-distance and route tables
//! (`ga::refine_with_model` / `placement::optimize_with`, the model
//! built inside the timed run) and on the naive
//! re-derive-everything reference (`ga::refine_naive` /
//! `placement::optimize_naive` on a clean wafer) —
//! verifies the results are **bit-identical** (fitness, history,
//! placement, grants for the GA; placement and Eq. 2 cost for the hill
//! climb), and writes the wall times to `BENCH_ga.json` so the perf
//! trajectory is tracked from PR to PR.
//!
//! ```text
//! cargo run -p wsc-bench --release --bin bench_ga -- \
//!     [--preset refine-llama2-30b|refine-llama3-70b|hillclimb|hillclimb-llama3-70b|all] \
//!     [--output BENCH_ga.json] [--threads N] [--reps N] [--min-speedup X]
//! ```
//!
//! The equivalence contract always applies (any divergence exits
//! non-zero); `--min-speedup` additionally exits non-zero when a
//! measured speedup falls below `X` (the CI smoke contract). Each
//! engine runs once untimed, then `--reps` rounds (default 3) run both,
//! the naive engine first on even rounds and the cost model first on
//! odd ones; an entry records each engine's median and its
//! upper-minus-lower quartile, and the speedup is the ratio of the
//! medians.
//!
//! [`PlacementCostModel`]: watos::PlacementCostModel

use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;
use watos::ga::{refine_naive, refine_with_model, GaResult};
use watos::placement::{global_cost, optimize_naive, optimize_with};
use watos::{percentile, PlacementCostModel};
use wsc_arch::units::Bytes;
use wsc_bench::driver::{Bench, Opt, Pools, Spec};
use wsc_bench::util::{
    ga_refine_presets, ga_setup, hill_climb_presets, GaRefinePreset, HillClimbPreset,
};
use wsc_workload::training::TrainingJob;

const SPEC: Spec = Spec {
    bin: "bench_ga",
    output: "BENCH_ga.json",
    pools: Pools::One,
    opts: &[Opt::Count("--reps"), Opt::Number("--min-speedup")],
};

/// One preset's measurements.
#[derive(Debug, Serialize)]
struct BenchEntry {
    preset: String,
    workload: String,
    /// Median seconds of the naive engine's timed runs.
    naive_secs: f64,
    /// Upper-minus-lower quartile of the naive engine's timed runs.
    naive_iqr_secs: f64,
    /// Median seconds of the cost-model engine's timed runs.
    incremental_secs: f64,
    /// Upper-minus-lower quartile of the cost-model engine's timed runs.
    incremental_iqr_secs: f64,
    speedup: f64,
    reps: usize,
    threads: usize,
    /// Stages with DRAM overflow (GA presets) or Sender→Helper pair
    /// count (hill-climb preset) — how hard the Eq. 2 pair/conflict
    /// machinery is exercised.
    demand_sites: usize,
    /// Best fitness (GA presets) or Eq. 2 cost (hill-climb preset) —
    /// identical on both engines by contract.
    objective: f64,
    identical: bool,
}

/// The whole `BENCH_ga.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    threads: usize,
    presets: Vec<BenchEntry>,
}

/// One benchmark case: a GA refinement or the placement hill climb.
enum Case {
    Refine(Box<GaRefinePreset>),
    HillClimb(HillClimbPreset),
}

impl Case {
    fn name(&self) -> &str {
        match self {
            Case::Refine(p) => p.name,
            Case::HillClimb(h) => h.name,
        }
    }
}

/// One engine's timed runs: their median and upper-minus-lower
/// quartile, in seconds.
struct Timing {
    median: f64,
    iqr: f64,
}

impl Timing {
    fn of(secs: &[f64]) -> Timing {
        Timing {
            median: percentile(secs, 0.5),
            iqr: percentile(secs, 0.75) - percentile(secs, 0.25),
        }
    }
}

/// Time the naive engine against the cost model: one untimed warm-up of
/// each (fills caches, faults pages), then `reps` rounds that run both,
/// the naive engine first on even rounds and the cost model first on
/// odd ones, so neither engine always runs right after the other.
/// Returns each engine's last result and its timing.
fn time_pair<N, M>(
    reps: usize,
    mut naive: impl FnMut() -> N,
    mut model: impl FnMut() -> M,
) -> ((N, Timing), (M, Timing)) {
    fn timed<R>(f: &mut impl FnMut() -> R, secs: &mut Vec<f64>) -> R {
        let t0 = Instant::now();
        let out = f();
        secs.push(t0.elapsed().as_secs_f64());
        out
    }
    let (mut naive_out, mut model_out) = (naive(), model());
    let (mut naive_secs, mut model_secs) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for round in 0..reps {
        if round % 2 == 0 {
            naive_out = timed(&mut naive, &mut naive_secs);
            model_out = timed(&mut model, &mut model_secs);
        } else {
            model_out = timed(&mut model, &mut model_secs);
            naive_out = timed(&mut naive, &mut naive_secs);
        }
    }
    (
        (naive_out, Timing::of(&naive_secs)),
        (model_out, Timing::of(&model_secs)),
    )
}

fn ga_identical(a: &GaResult, b: &GaResult) -> bool {
    let bits = |h: &[f64]| h.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    a.fitness.to_bits() == b.fitness.to_bits()
        && bits(&a.history) == bits(&b.history)
        && a.placement == b.placement
        && a.grants == b.grants
        && a.recompute == b.recompute
}

fn main() -> ExitCode {
    let cases = ga_refine_presets()
        .into_iter()
        .map(|p| Case::Refine(Box::new(p)))
        .chain(hill_climb_presets().into_iter().map(Case::HillClimb))
        .collect();
    let (bench, cases) = Bench::from_env(&SPEC, cases, Case::name);
    let reps = bench.args.count("--reps").unwrap_or(3);
    let entries = bench.sweep_pools(
        |threads, entries| {
            for case in &cases {
                entries.push(record(&bench, measure(case, reps, threads)));
            }
        },
        |e| (e.preset.clone(), e.objective.to_bits()),
    );
    bench.finish(&BenchReport {
        benchmark: "ga refinement + placement hill climb: incremental cost engine vs naive decode"
            .to_string(),
        threads: bench.pools()[0],
        presets: entries,
    })
}

/// Time one case on both engines at the current pool size.
fn measure(case: &Case, reps: usize, threads: usize) -> BenchEntry {
    let (workload, naive_time, incremental_time, demand_sites, objective, identical) = match case {
        Case::Refine(preset) => {
            let job = TrainingJob::standard(preset.model.clone());
            let s = ga_setup(&preset.wafer, &job, preset.tp, preset.pp);
            let ((naive, naive_time), (inc, inc_time)) = time_pair(
                reps,
                || {
                    refine_naive(
                        &s.mesh,
                        &s.stages,
                        &s.plan,
                        &s.placement,
                        &s.overflow,
                        &s.spare,
                        s.pp_volume,
                        s.capacity,
                        &preset.params,
                    )
                },
                || {
                    refine_with_model(
                        &s.mesh,
                        &s.stages,
                        &s.plan,
                        &s.placement,
                        &s.overflow,
                        &s.spare,
                        s.pp_volume,
                        s.capacity,
                        &s.cost_model(),
                        &preset.params,
                    )
                },
            );
            (
                format!("{} D(1)T({})P({})", job.model.name, preset.tp, preset.pp),
                naive_time,
                inc_time,
                s.overflow.iter().filter(|o| **o > Bytes::ZERO).count(),
                inc.fitness,
                ga_identical(&inc, &naive),
            )
        }
        Case::HillClimb(h) => {
            let ((naive, naive_time), (inc, inc_time)) = time_pair(
                reps,
                || {
                    optimize_naive(
                        &h.mesh,
                        h.pp,
                        h.tile_w,
                        h.tile_h,
                        h.pp_volume,
                        &h.pairs,
                        None,
                        h.seed,
                    )
                    .expect("preset fits")
                },
                || {
                    let model = PlacementCostModel::new(h.mesh, h.tile_w, h.tile_h, h.pp_volume);
                    optimize_with(&model, h.pp, &h.pairs, h.seed).expect("preset fits")
                },
            );
            let naive_cost = global_cost(&h.mesh, &naive, h.pp_volume, &h.pairs, None);
            let inc_cost = global_cost(&h.mesh, &inc, h.pp_volume, &h.pairs, None);
            (
                format!(
                    "{}x{} mesh, {} stages, {} pairs",
                    h.mesh.nx,
                    h.mesh.ny,
                    h.pp,
                    h.pairs.len()
                ),
                naive_time,
                inc_time,
                h.pairs.len(),
                inc_cost,
                inc == naive && inc_cost.to_bits() == naive_cost.to_bits(),
            )
        }
    };
    BenchEntry {
        preset: case.name().to_string(),
        workload,
        naive_secs: naive_time.median,
        naive_iqr_secs: naive_time.iqr,
        incremental_secs: incremental_time.median,
        incremental_iqr_secs: incremental_time.iqr,
        speedup: naive_time.median / incremental_time.median.max(1e-12),
        reps,
        threads,
        demand_sites,
        objective,
        identical,
    }
}

/// Print one entry's row and check its equivalence and speedup
/// contracts.
fn record(bench: &Bench, entry: BenchEntry) -> BenchEntry {
    println!(
        "[{:16}] {:12} naive {:8.4}s  cost model {:8.4}s  speedup {:6.2}x  identical {}",
        entry.preset,
        entry.workload,
        entry.naive_secs,
        entry.incremental_secs,
        entry.speedup,
        entry.identical,
    );
    if !entry.identical {
        bench.fail(format!(
            "[{}] EQUIVALENCE BUG: cost-model result differs from the naive reference",
            entry.preset
        ));
    }
    if let Some(min) = bench.args.number("--min-speedup") {
        if entry.speedup < min {
            bench.fail(format!(
                "[{}] speedup {:.2}x below required {min}x",
                entry.preset, entry.speedup
            ));
        }
    }
    entry
}
