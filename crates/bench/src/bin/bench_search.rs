//! Measured-benchmark harness for the co-exploration search engine.
//!
//! Runs each search sweep twice per preset — once with the production
//! configuration (analytic pruning + parallel waves) and once as the
//! exhaustive sequential baseline (`sequential` + no-prune) — in the
//! same process, checks the winners agree, and writes the wall times
//! plus `SearchStats` to `BENCH_search.json` so the perf trajectory is
//! tracked from PR to PR. The `small`/`medium`/`large` presets exercise
//! the Alg. 1 single-wafer engine; `multiwafer` exercises the §VI-F
//! node sweep (Llama3-405B on a 4-wafer node, node placement on).
//!
//! ```text
//! cargo run -p wsc-bench --release --bin bench_search -- \
//!     [--preset small|medium|large|multiwafer|all] \
//!     [--output BENCH_search.json] [--threads N[,M,...]] \
//!     [--require-pruning] [--min-speedup X] [--inject-smoke]
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
//! `--inject-smoke` runs the CI resilience smoke instead: a seeded
//! fault-injection storm (panics, delays, cache corruption) on the
//! `small` preset that must stay isolated, plus a 100ms-deadline
//! `multiwafer` run that must still emit valid best-so-far JSON. The
//! contract there is anytime validity — the run returns, the counters
//! stay honest (`visited == pruned + evaluated + skipped`), and the
//! best-so-far report round-trips through JSON.

use std::process::ExitCode;

use serde::Serialize;
use watos::{ExplorationReport, Injection, ParallelPlan, SearchBudget, SearchStats};
use wsc_bench::driver::{run_timed, Bench, Opt, Pools, Spec};
use wsc_bench::util::{search_presets, SearchPreset};

const SPEC: Spec = Spec {
    bin: "bench_search",
    output: "BENCH_search.json",
    pools: Pools::Many,
    opts: &[
        Opt::Switch("--require-pruning"),
        Opt::Number("--min-speedup"),
        Opt::Switch("--inject-smoke"),
    ],
};

/// One preset's measurements.
#[derive(Debug, Serialize)]
struct BenchEntry {
    preset: String,
    model: String,
    wafer: String,
    /// Rayon pool size the entry was measured with.
    threads: usize,
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

/// One budgeted leg of the `--inject-smoke` run.
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

/// The `--inject-smoke` output document.
#[derive(Debug, Serialize)]
struct AnytimeReport {
    benchmark: String,
    presets: Vec<AnytimeEntry>,
}

fn main() -> ExitCode {
    let (bench, presets) = Bench::from_env(&SPEC, search_presets(), |p| p.name);
    if bench.args.switch("--inject-smoke") {
        return bench.finish(&AnytimeReport {
            benchmark: "resilience smoke: injection storm + 100ms deadline".to_string(),
            presets: inject_smoke(&bench),
        });
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
    let (pruned, pruned_secs) = run_timed(preset.builder());
    let (exhaustive, exhaustive_secs) = run_timed(preset.builder().sequential().no_prune());
    let (stats, pw) = preset.leg(&pruned);
    let (exhaustive_stats, ew) = preset.leg(&exhaustive);
    if pw != ew {
        bench.fail(format!(
            "[{}] PRUNING BUG: pruned winner {pw:?} != exhaustive winner {ew:?}",
            preset.name
        ));
    }
    let speedup = exhaustive_secs / pruned_secs.max(1e-12);
    println!(
        "[{:10}] {:12} pruned+parallel {:8.3}s  sequential+no-prune {:8.3}s  speedup {:5.2}x  \
         visited {} pruned {} evaluated {}",
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

/// Check the anytime contract on one budgeted report — honest counters
/// and a best-so-far report that round-trips through JSON — and build
/// its row.
fn anytime(
    bench: &Bench,
    name: &str,
    preset: &SearchPreset,
    report: &ExplorationReport,
    deadline_secs: f64,
    elapsed_secs: f64,
) -> AnytimeEntry {
    let (stats, best) = preset.leg(report);
    let best = best.map(|(plan, _)| plan);
    if stats.visited != stats.pruned + stats.evaluated + stats.skipped {
        bench.fail(format!("[{name}] DISHONEST COUNTERS: {stats:?}"));
    }
    match ExplorationReport::from_json(&report.to_json()) {
        Ok(round) if &round == report => {}
        other => bench.fail(format!(
            "[{name}] best-so-far report does not round-trip through JSON: {:?}",
            other.err()
        )),
    }
    println!(
        "[{name:10}] deadline {deadline_secs:6.3}s  elapsed {elapsed_secs:6.3}s  truncated {}  \
         visited {} evaluated {} skipped {}  best {}",
        report.truncated(),
        stats.visited,
        stats.evaluated,
        stats.skipped,
        best.as_ref().map_or_else(|| "-".into(), |p| p.to_string()),
    );
    AnytimeEntry {
        preset: name.to_string(),
        deadline_secs,
        elapsed_secs,
        truncated: report.truncated(),
        stats,
        best_parallel: best.as_ref().map(|p| p.to_string()),
        best_plan: best,
    }
}

/// Seeded `wsc-inject` panics are expected noise in the smoke run; keep
/// the default hook for anything else.
fn install_quiet_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if !msg.contains("wsc-inject") {
            default(info);
        }
    }));
}

/// `--inject-smoke`: the CI resilience smoke.
///
/// Leg 1 runs the `small` preset under a seeded injection storm (panics,
/// delays, cache corruption): the run must return, the winner must not
/// be a failed candidate, and the report must round-trip through JSON.
/// Leg 2 runs the `multiwafer` preset under a 100ms deadline: a
/// truncated run must still emit valid best-so-far JSON with honest
/// counters.
fn inject_smoke(bench: &Bench) -> Vec<AnytimeEntry> {
    install_quiet_hook();
    let presets = search_presets();
    let preset = |name: &str| {
        presets
            .iter()
            .find(|p| p.name == name)
            .expect("the preset table carries the smoke presets")
    };

    let small = preset("small");
    let storm = Injection::seeded(0xC0FFEE)
        .panics(0.25)
        .delays(0.10, 200)
        .corruption(0.25);
    let (report, elapsed) = run_timed(small.builder().inject(storm));
    println!(
        "[inject    ] {} isolated incidents under the storm",
        report.incidents().len()
    );
    let storm_row = anytime(bench, "inject", small, &report, 0.0, elapsed);
    if let Some(best) = &storm_row.best_plan {
        if report.incidents().iter().any(|f| &f.plan == best) {
            bench.fail(format!("[inject] FAILED CANDIDATE CROWNED: {best}"));
        }
    }

    let node = preset("multiwafer");
    let (report, elapsed) = run_timed(node.builder().budget(SearchBudget::none().deadline(0.1)));
    let deadline_row = anytime(bench, node.name, node, &report, 0.1, elapsed);
    vec![storm_row, deadline_row]
}
