//! Measured serving benchmark: SLO-aware co-exploration vs the
//! training-optimal plan.
//!
//! Per preset × offered rate, runs the single-wafer search twice in one
//! process — once ranked by goodput-under-SLO on the workload's
//! synthesized trace (`Explorer::builder().serving(..)`) and once
//! ranked by training iteration time on the same profile job (the
//! seed-era objective) — then serves the *same* trace on both winners
//! and records TTFT/TBT/E2E digests, goodput and the plan divergence in
//! `BENCH_serve.json`. The training-optimal plan is tuned for one giant
//! synchronized batch; the gap measured here is what that plan gives up
//! under latency-bounded production traffic.
//!
//! ```text
//! cargo run -p wsc-bench --release --bin bench_serve -- \
//!     [--preset small|large|all] \
//!     [--output BENCH_serve.json] \
//!     [--threads N[,M,...]] [--require-divergence]
//! ```
//!
//! `--threads N[,M,...]` runs the whole sweep once per pool size; any
//! divergence in winners or serving digests across pool sizes exits
//! non-zero (the determinism contract, measured).
//! `--require-divergence` exits non-zero unless at least one selected
//! (preset, rate) cell's SLO-optimal plan differs from the
//! training-optimal plan *and* strictly beats its goodput — the
//! co-exploration payoff this subsystem exists to demonstrate.

use std::process::ExitCode;

use serde::Serialize;
use watos::{Explorer, ExplorerBuilder, ParallelPlan, ProfileCache, ScheduledConfig, SummaryStats};
use wsc_bench::driver::{run_timed, winner, Bench, Opt, Pools, Spec};
use wsc_bench::util::{serve_presets, ServePreset};
use wsc_serve::{simulate, PhaseCost, ServingExplorerExt, ServingSlo, SimConfig, SloServingModel};
use wsc_workload::serving::ServingWorkload;

const SPEC: Spec = Spec {
    bin: "bench_serve",
    output: "BENCH_serve.json",
    pools: Pools::Many,
    opts: &[Opt::Switch("--require-divergence")],
};

/// One winner's serving outcome on the shared trace (everything the
/// determinism cross-check compares, so no wall times here).
#[derive(Debug, Clone, Serialize, PartialEq)]
struct ServingDigest {
    plan: ParallelPlan,
    replicas: usize,
    goodput_rps: f64,
    throughput_tok_s: f64,
    makespan_s: f64,
    slo_met: usize,
    ttft: SummaryStats,
    tbt: SummaryStats,
    e2e: SummaryStats,
    kv_capacity_tokens: usize,
    kv_peak_fraction: f64,
}

/// One (preset, rate, pool-size) measurement.
#[derive(Debug, Serialize)]
struct BenchEntry {
    preset: String,
    model: String,
    wafer: String,
    rate_rps: f64,
    requests: usize,
    slo_ttft_secs: f64,
    max_batch_tokens: usize,
    seed: u64,
    threads: usize,
    /// SLO-search winner served on the trace.
    slo: Option<ServingDigest>,
    /// Training-iteration-time winner served on the same trace.
    train: Option<ServingDigest>,
    /// The co-exploration signal: the two searches crowned different
    /// plans.
    plans_differ: bool,
    /// Fractional goodput win of the SLO-aware winner
    /// (`slo/train − 1`); `0.0` when either side is degenerate.
    goodput_gain: f64,
    slo_search_secs: f64,
    train_search_secs: f64,
}

/// The whole `BENCH_serve.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    thread_counts: Vec<usize>,
    presets: Vec<BenchEntry>,
}

fn main() -> ExitCode {
    let (bench, presets) = Bench::from_env(&SPEC, serve_presets(), |p| p.name);
    // The determinism contract, measured: a cell's winners and every
    // digit of its serving digests must not depend on the pool size.
    let entries = bench.sweep_pools(
        |threads, entries| {
            for preset in &presets {
                measure(preset, threads, entries);
            }
        },
        |e| {
            (
                (e.preset.clone(), e.rate_rps),
                (e.slo.clone(), e.train.clone()),
            )
        },
    );
    if bench.args.switch("--require-divergence")
        && !entries
            .iter()
            .any(|e| e.plans_differ && e.goodput_gain > 0.0)
    {
        bench.fail(
            "SERVING DIVERGENCE CONTRACT FAILED: no (preset, rate) cell had the SLO-optimal \
             plan differ from and beat the training-optimal plan",
        );
    }
    bench.finish(&BenchReport {
        benchmark: "SLO-aware serving search vs training-optimal winner, goodput under SLO"
            .to_string(),
        thread_counts: bench.pools(),
        presets: entries,
    })
}

/// Serve the model's trace on one winner and digest the outcome.
fn serve_on(
    preset: &ServePreset,
    model: &SloServingModel,
    cfg: Option<&ScheduledConfig>,
) -> Option<ServingDigest> {
    let cfg = cfg?;
    let job = model.profile_job();
    let cache = ProfileCache::new();
    let cost = PhaseCost::derive(&preset.wafer, &job, cfg, &cache)?;
    let report = simulate(&cost, model.trace(), &model.sim_config(), &model.slo()).ok()?;
    Some(ServingDigest {
        plan: cfg.plan.clone(),
        replicas: report.replicas,
        goodput_rps: report.goodput_rps,
        throughput_tok_s: report.throughput_tok_s,
        makespan_s: report.makespan_s,
        slo_met: report.slo_met,
        ttft: report.ttft,
        tbt: report.tbt,
        e2e: report.e2e,
        kv_capacity_tokens: report.kv_capacity_tokens,
        kv_peak_fraction: report.kv_peak_fraction,
    })
}

/// Measure every rate of one preset at the current pool size.
fn measure(preset: &ServePreset, threads: usize, entries: &mut Vec<BenchEntry>) {
    for &rate in &preset.rates_rps {
        let workload =
            ServingWorkload::poisson(preset.model.clone(), rate, preset.requests, preset.seed);
        let slo = ServingSlo::ttft(preset.slo_ttft_secs);
        let sim = SimConfig {
            max_batch_tokens: preset.max_batch_tokens,
        };
        let model = SloServingModel::with_sim(workload.clone(), slo, sim);
        let search =
            |b: ExplorerBuilder| run_timed(b.wafer(preset.wafer.clone()).no_ga().seed(preset.seed));
        let (slo_report, slo_secs) = search(Explorer::builder().serving_with(workload, slo, sim));
        let (train_report, train_secs) = search(Explorer::builder().job(model.profile_job()));

        let slo_digest = serve_on(preset, &model, winner(&slo_report));
        let train_digest = serve_on(preset, &model, winner(&train_report));
        let plans_differ = match (&slo_digest, &train_digest) {
            (Some(s), Some(t)) => s.plan != t.plan,
            _ => false,
        };
        let goodput_gain = match (&slo_digest, &train_digest) {
            (Some(s), Some(t)) if t.goodput_rps > 0.0 => s.goodput_rps / t.goodput_rps - 1.0,
            _ => 0.0,
        };
        let fmt = |d: &Option<ServingDigest>| {
            d.as_ref().map_or_else(
                || "-".into(),
                |d| format!("{} ({:.3} rps)", d.plan, d.goodput_rps),
            )
        };
        println!(
            "[{:5}] {:12} rate {:>5.1} rps  slo {:<24} train {:<24} gain {:+6.2}%{}",
            preset.name,
            preset.model.name,
            rate,
            fmt(&slo_digest),
            fmt(&train_digest),
            goodput_gain * 100.0,
            if plans_differ { "  DIVERGED" } else { "" },
        );
        entries.push(BenchEntry {
            preset: preset.name.to_string(),
            model: preset.model.name.clone(),
            wafer: preset.wafer.name.clone(),
            rate_rps: rate,
            requests: preset.requests,
            slo_ttft_secs: preset.slo_ttft_secs,
            max_batch_tokens: preset.max_batch_tokens,
            seed: preset.seed,
            threads,
            slo: slo_digest,
            train: train_digest,
            plans_differ,
            goodput_gain,
            slo_search_secs: slo_secs,
            train_search_secs: train_secs,
        });
    }
}
