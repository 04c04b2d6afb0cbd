//! Measured-benchmark harness for the §IV-C/§IV-D refinement hot path.
//!
//! Runs each GA preset twice in the same process — once on the
//! incremental [`PlacementCostModel`] cost engine (`ga::refine` /
//! `placement::optimize`) and once on the naive re-derive-everything
//! reference (`ga::refine_naive` / `placement::optimize_naive`) —
//! verifies the results are **bit-identical** (fitness, history,
//! placement, grants for the GA; placement and Eq. 2 cost for the hill
//! climb), and writes the wall times to `BENCH_ga.json` so the perf
//! trajectory is tracked from PR to PR.
//!
//! ```text
//! cargo run -p wsc-bench --release --bin bench_ga -- \
//!     [--preset refine-llama2-30b|refine-llama3-70b|hillclimb|all] \
//!     [--output BENCH_ga.json] [--threads N] [--reps N] [--min-speedup X]
//! ```
//!
//! The equivalence contract always applies (any divergence exits
//! non-zero); `--min-speedup` additionally exits non-zero when a
//! measured speedup falls below `X` (the CI smoke contract). `--reps`
//! sets the timed repetitions after one untimed warm-up (default 3).
//!
//! [`PlacementCostModel`]: watos::PlacementCostModel

use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;
use watos::ga::{refine, refine_naive, GaResult};
use watos::placement::{global_cost, optimize, optimize_naive};
use wsc_arch::units::Bytes;
use wsc_bench::driver::{Bench, Opt, Pools, Spec};
use wsc_bench::util::{
    ga_refine_presets, ga_setup, hill_climb_preset, GaRefinePreset, HillClimbPreset,
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
    naive_secs: f64,
    incremental_secs: f64,
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

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut out = f(); // warm-up (fills caches, faults pages) — untimed
    let t0 = Instant::now();
    for _ in 0..reps {
        out = f();
    }
    (out, t0.elapsed().as_secs_f64() / reps as f64)
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
        .chain([Case::HillClimb(hill_climb_preset())])
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
        threads: rayon::current_num_threads(),
        presets: entries,
    })
}

/// Time one case on both engines at the current pool size.
fn measure(case: &Case, reps: usize, threads: usize) -> BenchEntry {
    let (workload, naive_secs, incremental_secs, demand_sites, objective, identical) = match case {
        Case::Refine(preset) => {
            let job = TrainingJob::standard(preset.model.clone());
            let s = ga_setup(&preset.wafer, &job, preset.tp, preset.pp);
            let (naive, naive_secs) = time(reps, || {
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
            });
            let (inc, inc_secs) = time(reps, || {
                refine(
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
            });
            (
                format!("{} D(1)T({})P({})", job.model.name, preset.tp, preset.pp),
                naive_secs,
                inc_secs,
                s.overflow.iter().filter(|o| **o > Bytes::ZERO).count(),
                inc.fitness,
                ga_identical(&inc, &naive),
            )
        }
        Case::HillClimb(h) => {
            let (naive, naive_secs) = time(reps, || {
                optimize_naive(
                    &h.mesh,
                    h.pp,
                    h.tile_w,
                    h.tile_h,
                    h.pp_volume,
                    &h.pairs,
                    h.seed,
                )
                .expect("preset fits")
            });
            let (inc, inc_secs) = time(reps, || {
                optimize(
                    &h.mesh,
                    h.pp,
                    h.tile_w,
                    h.tile_h,
                    h.pp_volume,
                    &h.pairs,
                    h.seed,
                )
                .expect("preset fits")
            });
            let naive_cost = global_cost(&h.mesh, &naive, h.pp_volume, &h.pairs);
            let inc_cost = global_cost(&h.mesh, &inc, h.pp_volume, &h.pairs);
            (
                format!(
                    "{}x{} mesh, {} stages, {} pairs",
                    h.mesh.nx,
                    h.mesh.ny,
                    h.pp,
                    h.pairs.len()
                ),
                naive_secs,
                inc_secs,
                h.pairs.len(),
                inc_cost,
                inc == naive && inc_cost.to_bits() == naive_cost.to_bits(),
            )
        }
    };
    BenchEntry {
        preset: case.name().to_string(),
        workload,
        naive_secs,
        incremental_secs,
        speedup: naive_secs / incremental_secs.max(1e-12),
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
        "[{:16}] {:12} naive {:8.4}s  incremental {:8.4}s  speedup {:6.2}x  identical {}",
        entry.preset,
        entry.workload,
        entry.naive_secs,
        entry.incremental_secs,
        entry.speedup,
        entry.identical,
    );
    if !entry.identical {
        bench.fail(format!(
            "[{}] EQUIVALENCE BUG: incremental result differs from the naive reference",
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
