//! Measured-benchmark harness for the co-exploration search engine.
//!
//! Runs each search sweep per preset both with the production
//! configuration (analytic pruning + parallel waves) and as the
//! exhaustive sequential baseline (`sequential` + no-prune) — in the
//! same process, checks the winners agree, and writes the wall times
//! plus `SearchStats` to `BENCH_search.json` so the perf trajectory is
//! tracked from PR to PR. Before any timed pool, each selected preset's
//! pruned search runs once untimed, so no pool pays the process's
//! warm-up; the pruned search is then timed as the median of `REPS`
//! runs (recorded as `reps`), the exhaustive sweep once. The
//! `small`/`medium`/`large` presets exercise the Alg. 1 single-wafer
//! engine; `multiwafer` exercises the §VI-F node sweep (Llama3-405B on
//! a 4-wafer node, node placement on).
//!
//! ```text
//! cargo run -p wsc-bench --release --bin bench_search -- \
//!     [--preset small|medium|large|multiwafer|all] \
//!     [--output BENCH_search.json] [--threads N[,M,...]] \
//!     [--require-pruning] [--min-speedup X] [--deadline-smoke]
//! ```
//!
//! `--require-pruning` exits non-zero unless every preset pruned at
//! least one configuration (the CI smoke contract); `--min-speedup`
//! exits non-zero when the measured speedup falls below `X`.
//! `--threads N[,M,...]` runs the whole sweep once per listed pool size
//! in one process, so a single document carries every thread count's
//! entries; the harness exits non-zero if any preset's winning plan
//! differs between thread counts, so the byte-identity contract is
//! measured on real multi-core hardware rather than assumed.
//!
//! `--deadline-smoke` runs the CI resilience smoke instead: a
//! 2ms-deadline `multiwafer` run that must still emit valid
//! best-so-far JSON. The contract there is anytime validity — the run
//! is truncated by its deadline and returns, the counters stay honest
//! (`visited == pruned + evaluated + skipped`), and the best-so-far
//! report round-trips through JSON.

use std::process::ExitCode;

use serde::Serialize;
use watos::{percentile, ExplorationReport, ParallelPlan, SearchBudget, SearchStats};
use wsc_bench::driver::{run_timed, Bench, Opt, Pools, Spec};
use wsc_bench::util::{search_presets, SearchPreset};

const SPEC: Spec = Spec {
    bin: "bench_search",
    output: "BENCH_search.json",
    pools: Pools::Many,
    opts: &[
        Opt::Switch("--require-pruning"),
        Opt::Number("--min-speedup"),
        Opt::Switch("--deadline-smoke"),
    ],
};

/// Timed runs of the pruned search per preset and pool; the entry
/// records their median.
const REPS: usize = 5;

/// One preset's measurements.
#[derive(Debug, Serialize)]
struct BenchEntry {
    preset: String,
    model: String,
    wafer: String,
    /// Rayon pool size the entry was measured with.
    threads: usize,
    /// Timed runs of the pruned search.
    reps: usize,
    /// Median wall seconds of the `reps` pruned runs.
    pruned_parallel_secs: f64,
    sequential_noprune_secs: f64,
    speedup: f64,
    stats: SearchStats,
    exhaustive_stats: SearchStats,
    best_parallel: Option<String>,
    /// The full winning plan (strategy, stage map, TP span), so the
    /// committed JSON records *which* plan-space region won.
    best_plan: Option<ParallelPlan>,
    best_iteration_secs: Option<f64>,
}

/// The whole `BENCH_search.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    /// Every rayon pool size the sweep was run with (one pass each).
    thread_counts: Vec<usize>,
    presets: Vec<BenchEntry>,
}

/// The budgeted leg of the `--deadline-smoke` run.
#[derive(Debug, Serialize)]
struct AnytimeEntry {
    preset: String,
    deadline_secs: f64,
    elapsed_secs: f64,
    truncated: bool,
    stats: SearchStats,
    best_parallel: Option<String>,
    best_plan: Option<ParallelPlan>,
}

/// The `--deadline-smoke` output document.
#[derive(Debug, Serialize)]
struct AnytimeReport {
    benchmark: String,
    presets: Vec<AnytimeEntry>,
}

fn main() -> ExitCode {
    let (bench, presets) = Bench::from_env(&SPEC, search_presets(), |p| p.name);
    if bench.args.switch("--deadline-smoke") {
        return bench.finish(&AnytimeReport {
            benchmark: "resilience smoke: 2ms deadline".to_string(),
            presets: vec![deadline_smoke(&bench)],
        });
    }
    // Warm-up: the first timed pool must not also pay the process's.
    for preset in &presets {
        run_timed(preset.builder());
    }
    // The determinism contract, measured: a preset's winning plan must
    // not depend on the pool size it was searched with.
    let entries = bench.sweep_pools(
        |threads, entries| entries.extend(presets.iter().map(|p| measure(&bench, p, threads))),
        |e| (e.preset.clone(), e.best_plan.clone()),
    );
    bench.finish(&BenchReport {
        benchmark: "explore_impl: pruned+parallel vs sequential exhaustive".to_string(),
        thread_counts: bench.pools(),
        presets: entries,
    })
}

/// Measure one preset at the current pool size: check the winners
/// agree and the CLI contracts hold, and print the row.
fn measure(bench: &Bench, preset: &SearchPreset, threads: usize) -> BenchEntry {
    let runs: Vec<(ExplorationReport, f64)> =
        (0..REPS).map(|_| run_timed(preset.builder())).collect();
    let secs: Vec<f64> = runs.iter().map(|&(_, t)| t).collect();
    let pruned_secs = percentile(&secs, 0.5);
    let pruned = &runs[0].0;
    let (exhaustive, exhaustive_secs) = run_timed(preset.builder().sequential().no_prune());
    let (stats, pw) = preset.leg(pruned);
    let (exhaustive_stats, ew) = preset.leg(&exhaustive);
    if pw != ew {
        bench.fail(format!(
            "[{}] PRUNING BUG: pruned winner {pw:?} != exhaustive winner {ew:?}",
            preset.name
        ));
    }
    let speedup = exhaustive_secs / pruned_secs.max(1e-12);
    println!(
        "[{:10}] {:12} pruned+parallel {:8.3}s (median of {REPS})  sequential+no-prune {:8.3}s  \
         speedup {:5.2}x  visited {} pruned {} evaluated {}",
        preset.name,
        preset.model.name,
        pruned_secs,
        exhaustive_secs,
        speedup,
        stats.visited,
        stats.pruned,
        stats.evaluated,
    );
    if bench.args.switch("--require-pruning") && stats.pruned == 0 {
        bench.fail(format!(
            "[{}] expected pruned > 0, got {stats:?}",
            preset.name
        ));
    }
    if let Some(min) = bench.args.number("--min-speedup") {
        if speedup < min {
            bench.fail(format!(
                "[{}] speedup {speedup:.2}x below required {min}x",
                preset.name
            ));
        }
    }
    BenchEntry {
        preset: preset.name.to_string(),
        model: preset.model.name.clone(),
        wafer: preset.candidate_name(),
        threads,
        reps: REPS,
        pruned_parallel_secs: pruned_secs,
        sequential_noprune_secs: exhaustive_secs,
        speedup,
        stats,
        exhaustive_stats,
        best_parallel: pw.as_ref().map(|(p, _)| p.to_string()),
        best_plan: pw.as_ref().map(|(p, _)| p.clone()),
        best_iteration_secs: pw.map(|(_, t)| t),
    }
}

/// `--deadline-smoke`: the CI resilience smoke. The `multiwafer`
/// preset runs under a 2ms deadline, which must truncate it (a run the
/// deadline does not cut short exercises no anytime path; its pruned
/// search takes about 20 ms on 2 vCPUs, so 2 ms still cuts the bound
/// phase on faster runners); the truncated run must still keep honest
/// counters and emit a best-so-far report that round-trips through
/// JSON.
fn deadline_smoke(bench: &Bench) -> AnytimeEntry {
    const DEADLINE_SECS: f64 = 0.002;
    let node = search_presets()
        .into_iter()
        .find(|p| p.name == "multiwafer")
        .expect("the preset table carries the smoke preset");
    let (report, elapsed_secs) = run_timed(
        node.builder()
            .budget(SearchBudget::none().deadline(DEADLINE_SECS)),
    );
    let (stats, best) = node.leg(&report);
    let best = best.map(|(plan, _)| plan);
    if !report.truncated() {
        bench.fail(format!(
            "[{}] the {DEADLINE_SECS}s deadline did not truncate the run: {stats:?}",
            node.name
        ));
    }
    if stats.visited != stats.pruned + stats.evaluated + stats.skipped {
        bench.fail(format!("[{}] DISHONEST COUNTERS: {stats:?}", node.name));
    }
    match ExplorationReport::from_json(&report.to_json()) {
        Ok(round) if round == report => {}
        other => bench.fail(format!(
            "[{}] best-so-far report does not round-trip through JSON: {:?}",
            node.name,
            other.err()
        )),
    }
    println!(
        "[{:10}] deadline {DEADLINE_SECS:6.3}s  elapsed {elapsed_secs:6.3}s  truncated {}  \
         visited {} evaluated {} skipped {}  best {}",
        node.name,
        report.truncated(),
        stats.visited,
        stats.evaluated,
        stats.skipped,
        best.as_ref().map_or_else(|| "-".into(), |p| p.to_string()),
    );
    AnytimeEntry {
        preset: node.name.to_string(),
        deadline_secs: DEADLINE_SECS,
        elapsed_secs,
        truncated: report.truncated(),
        stats,
        best_parallel: best.as_ref().map(|p| p.to_string()),
        best_plan: best,
    }
}
