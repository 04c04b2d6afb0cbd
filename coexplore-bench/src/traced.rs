//! The traced pass: per-layer metrics measured from outside the library.
//!
//! It runs apart from the timed runs and does three things. It runs
//! each search again with a timing wrapper around the serving model and
//! a checkpoint sink that timestamps every wave. It runs each search
//! once more under `max_evaluations(0)`, which stops after the bound
//! phase. And it replays the Alg. 1 loop body through the library's
//! public entry points on every leg's winner (and, on serving sessions,
//! on a deterministic sample of the scored candidates), recording a span
//! around each call and checking that the replay reproduces the search's
//! answer bit for bit.

use crate::check::{leg_views, rebuilds, same_answer};
use crate::run::{check_pass, timed_pass, timed_setup, Expect, RunOutput};
use crate::span::{metric, self_times, summarize, Metric, Recorder, Span};
use crate::workload::{leg_answers, Ranking, Session, Size, Workload};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use watos::dram_alloc::allocate;
use watos::evaluator::{evaluate, EvalInput, EvalOptions, PerfReport};
use watos::ga::refine_with_model;
use watos::placement::{choose_tile, optimize_with, serpentine, PairDemand};
use watos::stage::boundary_bytes;
use watos::{
    ensemble_effective_secs, evaluate_multi_wafer_plan_placed, CheckpointSink, DramGrant,
    MultiWaferReport, ParallelPlan, ParallelSpec, Placement, ProfileCache, RecomputeMode,
    ScheduledConfig, SchedulerOptions, SearchBudget, SearchCheckpoint, SearchStats, ServingModel,
    StageProfile,
};
use wsc_arch::units::Bytes;
use wsc_arch::wafer::{MultiWaferConfig, WaferConfig};
use wsc_mesh::collective::{CollectiveAlgo, GroupShape};
use wsc_mesh::topology::Mesh2D;
use wsc_pipeline::gcmr::gcmr;
use wsc_pipeline::recompute::{overflow_and_spare, RecomputePlan};
use wsc_serve::{simulate, PhaseCost, SloServingModel};
use wsc_workload::training::TrainingJob;

/// Scored serving candidates replayed per serving session besides the
/// winner: an evenly spaced sample in plan order.
pub const SERVE_SAMPLE: usize = 8;

type Scored = Arc<Mutex<Vec<(ScheduledConfig, f64)>>>;

/// A serving model that delegates to the real one and times each call
/// inside the real search, keeping every scored candidate for replay.
struct TimedServing {
    inner: Arc<SloServingModel>,
    rec: Arc<Recorder>,
    search: usize,
    parent: usize,
    scored: Scored,
}

impl ServingModel for TimedServing {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn bound(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
        cache: &ProfileCache,
    ) -> Option<f64> {
        self.rec
            .time("serve.bound", self.search, Some(self.parent), |_| {
                self.inner.bound(wafer, job, plan, cache)
            })
    }

    fn score(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        cfg: &ScheduledConfig,
        cache: &ProfileCache,
    ) -> f64 {
        let s = self
            .rec
            .time("serve.score", self.search, Some(self.parent), |_| {
                self.inner.score(wafer, job, cfg, cache)
            });
        lock(&self.scored).push((cfg.clone(), s));
        s
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every update is a single push, so a panicking holder cannot leave
    // the data half-written.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Timestamps every checkpoint a session writes: wave boundaries
/// (frontier present) and leg boundaries (frontier absent).
struct WaveClock {
    origin: Instant,
    /// `(seconds since origin, is a wave, has an incumbent)`.
    events: Mutex<Vec<(f64, bool, bool)>>,
}

impl CheckpointSink for WaveClock {
    fn write(&self, cp: &SearchCheckpoint) {
        let wave = cp.frontier.as_ref();
        let event = (
            self.origin.elapsed().as_secs_f64(),
            wave.is_some(),
            wave.is_some_and(|f| f.wave.best_key.is_some()),
        );
        lock(&self.events).push(event);
    }
}

impl WaveClock {
    /// Waves completed, and seconds from each leg's start to its first
    /// incumbent, summed over legs.
    fn summary(&self) -> (usize, f64) {
        let (mut waves, mut to_first) = (0, 0.0);
        let (mut leg_start, mut found) = (0.0, false);
        for &(t, wave, incumbent) in lock(&self.events).iter() {
            if !wave {
                leg_start = t;
                found = false;
                continue;
            }
            waves += 1;
            if incumbent && !found {
                to_first += t - leg_start;
                found = true;
            }
        }
        (waves, to_first)
    }
}

/// Layer counters the spans do not carry.
#[derive(Default)]
struct Counts {
    grants: usize,
    ga_kept: usize,
    sim_steps: usize,
    placed: usize,
    placed_kept: usize,
}

/// One single-wafer candidate to replay.
struct Candidate<'a> {
    session: &'a Session,
    wafer: &'a WaferConfig,
    /// The configuration the search produced, and its score.
    expected: &'a ScheduledConfig,
    score: f64,
}

struct Replayer<'r> {
    rec: &'r Recorder,
    counts: Counts,
    problems: Vec<String>,
    replays: usize,
}

impl Replayer<'_> {
    /// Replay one single-wafer candidate: the scheduler's loop body,
    /// then the session's scoring, each public call under a span.
    fn single(&mut self, c: &Candidate<'_>, search: usize) {
        self.replays += 1;
        let rec = self.rec;
        let outcome = rec.time("replay", search, None, |root| {
            let cache = ProfileCache::new();
            let cfg = self.schedule(c, &cache, search, root)?;
            let job = &c.session.job;
            let score = match &c.session.ranking {
                Ranking::Clean => cfg.report.iteration.as_secs(),
                // As `SloServingModel::score`: a plan that cannot serve
                // the trace scores infinity.
                Ranking::Serving { model, .. } => {
                    let cost = rec.time("serve.derive", search, Some(root), |_| {
                        PhaseCost::derive(c.wafer, job, &cfg, &cache)
                    });
                    let report = cost.map(|cost| {
                        rec.time("serve.simulate", search, Some(root), |_| {
                            simulate(&cost, model.trace(), &model.sim_config(), &model.slo())
                        })
                    });
                    match report {
                        Some(Ok(report)) => {
                            self.counts.sim_steps += report.steps;
                            -report.goodput_rps
                        }
                        _ => f64::INFINITY,
                    }
                }
                Ranking::FaultAware {
                    ensemble,
                    objective,
                } => rec.time("goodput", search, Some(root), |_| {
                    ensemble_effective_secs(c.wafer, job, &cfg, ensemble, *objective, &cache)
                }),
            };
            Some((cfg, score))
        });
        let plan = &c.expected.plan;
        match outcome {
            Some((cfg, score)) if &cfg == c.expected && score.to_bits() == c.score.to_bits() => {}
            Some((_, score)) => self.problems.push(format!(
                "replay of {} {plan} differs: score {score} vs {}",
                c.session.id, c.score
            )),
            None => self.problems.push(format!(
                "replay of {} {plan} found no schedule",
                c.session.id
            )),
        }
    }

    /// The Alg. 1 loop body for one plan through public calls only:
    /// stage profiles, GCMR (Alg. 2), placement, DRAM allocation
    /// (Alg. 3), the 1F1B evaluator and, when enabled, the GA.
    fn schedule(
        &mut self,
        c: &Candidate<'_>,
        cache: &ProfileCache,
        search: usize,
        root: usize,
    ) -> Option<ScheduledConfig> {
        let rec = self.rec;
        let (wafer, job, opts) = (c.wafer, &c.session.job, &c.session.options);
        // The plan as the search's work list held it: DP still derived.
        let plan = &c.expected.plan.clone().with_dp(0);
        if opts.recompute != RecomputeMode::Gcmr || !opts.memory_scheduler {
            return None;
        }
        let (tp, pp) = (plan.tp, plan.pp);
        let (tile_w, tile_h) = choose_tile(wafer.nx, wafer.ny, tp, pp)?;
        let shape = GroupShape::new(tile_w, tile_h);
        let slots = (wafer.nx / tile_w) * (wafer.ny / tile_h);
        let dp = (slots / pp).clamp(1, (job.global_batch / job.micro_batch).max(1));
        let parallel = ParallelSpec::new(dp, tp, pp);
        let ctx = plan.sharding_ctx(job);
        let cap = wafer.dram.capacity;

        rec.time("stage.layer_data", search, Some(root), |_| {
            cache.layer_data(wafer, job, plan)
        });
        let stages = rec.time("stage.profiles", search, Some(root), |_| {
            cache.stage_profiles(wafer, job, plan, job.microbatches(dp))
        });
        let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
        let g = rec.time("gcmr", search, Some(root), |_| {
            gcmr(&inputs, cap, (160 / pp).clamp(3, 16))
        });
        let rplan = g.as_recompute_plan();
        if !rplan.feasible {
            return None;
        }
        let pp_volume = boundary_bytes(job, &ctx).as_f64();
        let pairs: Vec<PairDemand> = g
            .mem_pairs
            .iter()
            .map(|p| PairDemand {
                sender: p.sender,
                helper: p.helper,
                volume: p.bytes.as_f64(),
            })
            .collect();
        let mesh = Mesh2D::new(wafer.nx, wafer.ny);
        let (model, placement) = rec.time("placement", search, Some(root), |_| {
            let model = (!pairs.is_empty() || opts.ga.is_some())
                .then(|| cache.cost_model(&mesh, tile_w, tile_h, pp_volume));
            let placement = match &model {
                Some(m) => optimize_with(m, pp, &pairs, opts.seed),
                None => serpentine(wafer.nx, wafer.ny, pp, tile_w, tile_h),
            };
            (model, placement)
        });
        let placement = placement?;
        let (overflow, spare, alloc) = rec.time("dram_alloc", search, Some(root), |_| {
            let (overflow, spare) = overflow_and_spare(&inputs, &rplan, cap);
            let alloc = allocate(&placement, &overflow, &spare);
            (overflow, spare, alloc)
        });
        if !alloc.complete() {
            return None;
        }
        self.counts.grants += alloc.grants.len();
        let collective = pick_collective(opts, wafer, shape, &stages[..], cache)?;
        let options = EvalOptions {
            collective,
            punish: opts.punish,
            robust: true,
        };
        let eval = |placement: &Placement,
                    recompute: &RecomputePlan,
                    grants: &[DramGrant],
                    parent: usize|
         -> PerfReport {
            rec.time("evaluator", search, Some(parent), |_| {
                evaluate(&EvalInput {
                    wafer,
                    job,
                    parallel,
                    ctx,
                    stages: &stages[..],
                    recompute,
                    placement,
                    grants,
                    faults: None,
                    options: options.clone(),
                    cache: Some(cache),
                })
            })
        };
        let report = eval(&placement, &rplan, &alloc.grants, root);
        let mut cfg = ScheduledConfig {
            parallel,
            plan: plan.clone().with_dp(dp),
            collective,
            placement,
            recompute: rplan,
            grants: alloc.grants,
            report,
        };
        if let (Some(params), Some(model)) = (&opts.ga, &model) {
            let (refined, report) = rec.time("ga", search, Some(root), |ga| {
                let r = refine_with_model(
                    &mesh,
                    &stages[..],
                    &cfg.recompute,
                    &cfg.placement,
                    &overflow,
                    &spare,
                    pp_volume,
                    cap,
                    model,
                    params,
                );
                let report = eval(&r.placement, &r.recompute, &r.grants, ga);
                (r, report)
            });
            // Kept only when strictly faster, as the scheduler does.
            if report.feasible && report.iteration.as_secs() < cfg.report.iteration.as_secs() {
                self.counts.ga_kept += 1;
                cfg = ScheduledConfig {
                    placement: refined.placement,
                    recompute: refined.recompute,
                    grants: refined.grants,
                    report,
                    ..cfg
                };
            }
        }
        cfg.report.feasible.then_some(cfg)
    }

    /// Replay one multi-wafer winner: stage profiles on a fresh cache,
    /// then the node evaluator with node-level Alg. 3.
    fn node(
        &mut self,
        session: &Session,
        node: &MultiWaferConfig,
        best: &MultiWaferReport,
        search: usize,
    ) {
        self.replays += 1;
        let rec = self.rec;
        let job = &session.job;
        let plan = best.plan.clone().with_dp(0);
        let got = rec.time("replay", search, None, |root| {
            let cache = ProfileCache::new();
            rec.time("stage.layer_data", search, Some(root), |_| {
                cache.layer_data(&node.wafer, job, &plan)
            });
            let n_mb = job.microbatches(best.parallel.dp);
            rec.time("stage.profiles", search, Some(root), |_| {
                cache.stage_profiles(&node.wafer, job, &plan, n_mb)
            });
            rec.time("multiwafer", search, Some(root), |_| {
                evaluate_multi_wafer_plan_placed(node, job, &plan, &cache, session.options.seed)
            })
        });
        if let Some(stats) = got.as_ref().and_then(|r| r.placement.as_ref()) {
            self.counts.placed += 1;
            self.counts.placed_kept += usize::from(stats.kept);
        }
        if got.as_ref() != Some(best) {
            self.problems.push(format!(
                "replay of {} {} differs from the search winner",
                session.id, best.plan
            ));
        }
    }
}

/// The collective the scheduler picks for a tile shape: the cheapest
/// supported algorithm at the first stage's typical per-op volume.
fn pick_collective(
    opts: &SchedulerOptions,
    wafer: &WaferConfig,
    shape: GroupShape,
    stages: &[StageProfile],
    cache: &ProfileCache,
) -> Option<CollectiveAlgo> {
    let volume = stages
        .first()
        .map(|s| s.fwd_comm_bytes / s.fwd_collectives.max(1) as u64)
        .unwrap_or(Bytes::ZERO);
    let mut best: Option<(CollectiveAlgo, f64)> = None;
    for &algo in &opts.collectives {
        if !algo.supports(shape) {
            continue;
        }
        let t = cache
            .all_reduce(
                algo,
                shape,
                volume,
                wafer.d2d_link_bw(),
                wafer.d2d_link_latency,
            )
            .as_secs();
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((algo, t));
        }
    }
    best.map(|(a, _)| a)
}

/// The evenly spaced sample of scored serving candidates to replay,
/// deduplicated and in plan order so it does not depend on which
/// thread scored what first.
fn serve_sample(mut scored: Vec<(ScheduledConfig, f64)>) -> Vec<(ScheduledConfig, f64)> {
    scored.sort_by_key(|(c, _)| (c.plan.tp, c.plan.pp, c.plan.to_string()));
    scored.dedup_by(|a, b| a.0.plan == b.0.plan);
    let n = scored.len();
    let k = SERVE_SAMPLE.min(n);
    (0..k).map(|i| scored[i * n / k].clone()).collect()
}

/// Wall-clock totals and counters of the traced pass.
struct Totals {
    search_s: f64,
    cpu_s: f64,
    traced_s: f64,
    bound_s: f64,
    waves: usize,
    to_first_incumbent_s: f64,
    rebuilt: usize,
    stats: SearchStats,
}

/// The traced pass of `workload`: its per-layer metrics and its spans.
/// Span `search` ids are session indices.
pub fn traced(
    workload: Workload,
    seed: u64,
    size: Size,
    expect: Expect<'_>,
) -> Result<(RunOutput, Vec<Span>), String> {
    let (sessions, explorers) = timed_setup(workload, seed, size, 1, &mut Vec::new())?;
    let mut out = RunOutput::default();

    // An untraced pass: the wall and CPU time the trace is compared
    // with, and the answers the traced pass must reproduce.
    let (reports, search_s, cpu_s) = timed_pass(&explorers);
    check_pass(&sessions, &reports, expect, &mut out);

    let rec = Arc::new(Recorder::default());
    let mut t = Totals {
        search_s,
        cpu_s,
        traced_s: 0.0,
        bound_s: 0.0,
        waves: 0,
        to_first_incumbent_s: 0.0,
        rebuilt: 0,
        stats: SearchStats::default(),
    };
    let mut scored = Vec::new();
    for (i, (session, untraced)) in sessions.iter().zip(&reports).enumerate() {
        let clock = Arc::new(WaveClock {
            origin: Instant::now(),
            events: Mutex::new(Vec::new()),
        });
        let kept: Scored = Arc::default();
        let report = rec.time("search", i, None, |root| {
            let wrapper = match &session.ranking {
                Ranking::Serving { model, .. } => Some(Arc::new(TimedServing {
                    inner: Arc::clone(model),
                    rec: Arc::clone(&rec),
                    search: i,
                    parent: root,
                    scored: Arc::clone(&kept),
                }) as Arc<dyn ServingModel>),
                _ => None,
            };
            session
                .builder(wrapper)
                .checkpoint_every(1, Arc::clone(&clock) as Arc<dyn CheckpointSink>)
                .build()
                .map(|e| e.run())
        });
        t.traced_s += clock.origin.elapsed().as_secs_f64();
        let report = report.map_err(|e| format!("{}: {e}", session.id))?;
        let (waves, to_first) = clock.summary();
        t.waves += waves;
        t.to_first_incumbent_s += to_first;
        for r in [&report, untraced] {
            t.rebuilt += leg_views(r)
                .iter()
                .map(|v| rebuilds(&v.cache))
                .sum::<usize>();
        }
        t.stats = leg_views(untraced)
            .iter()
            .fold(t.stats, |acc, v| acc.merge(v.stats));
        let (a, b) = (
            leg_answers(session, &report),
            leg_answers(session, untraced),
        );
        if a.len() != b.len() || !a.iter().zip(&b).all(|(x, y)| same_answer(x, y)) {
            out.failed += 1;
            out.problems.push(format!(
                "{}: the traced search returned other winners",
                session.id
            ));
        }
        scored.push(std::mem::take(&mut *lock(&kept)));
    }

    // The bound phase alone: the same searches, stopped before the
    // first evaluation.
    for (i, session) in sessions.iter().enumerate() {
        let explorer = session
            .builder(None)
            .budget(SearchBudget::none().max_evaluations(0))
            .build()
            .map_err(|e| format!("{}: {e}", session.id))?;
        let t0 = Instant::now();
        rec.time("bound_only", i, None, |_| explorer.run());
        t.bound_s += t0.elapsed().as_secs_f64();
    }

    let mut replayer = Replayer {
        rec: &rec,
        counts: Counts::default(),
        problems: Vec::new(),
        replays: 0,
    };
    for (i, ((session, report), kept)) in sessions.iter().zip(&reports).zip(scored).enumerate() {
        for record in &report.single_wafer {
            if let Some(cfg) = &record.best {
                let c = Candidate {
                    session,
                    wafer: &record.wafer,
                    expected: cfg,
                    score: session.score(&record.wafer, cfg),
                };
                replayer.single(&c, i);
            }
        }
        for record in &report.multi_wafer {
            if let Some(best) = &record.best {
                replayer.node(session, &record.node, best, i);
            }
        }
        if let Some(record) = report.single_wafer.first() {
            for (cfg, score) in serve_sample(kept) {
                let c = Candidate {
                    session,
                    wafer: &record.wafer,
                    expected: &cfg,
                    score,
                };
                replayer.single(&c, i);
            }
        }
    }
    out.attempted += replayer.replays;
    out.failed += replayer.problems.len();
    out.problems.append(&mut replayer.problems);
    let counts = replayer.counts;

    let spans = rec.take_spans();
    out.metrics = layer_metrics(&spans, &counts, &t);
    Ok((out, spans))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, from the spans, the replay counters and the
/// traced pass's totals.
fn layer_metrics(spans: &[Span], counts: &Counts, t: &Totals) -> Vec<Metric> {
    // Layer name -> (span durations, summed self time).
    let mut layers: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let e = layers.entry(s.name).or_default();
        e.0.push(s.secs());
        e.1 += self_s;
    }
    let calls = |name: &str| layers.get(name).map_or(0, |l| l.0.len()) as f64;
    let p50_ms = |name: &str| layers.get(name).map_or(0.0, |l| summarize(&l.0).p50 * 1e3);
    let busy_s = |name: &str| layers.get(name).map_or(0.0, |l| l.1);
    let (visited, evaluated) = (t.stats.visited as f64, t.stats.evaluated as f64);
    vec![
        metric("wave.visited", visited, "count"),
        metric("wave.evaluated", evaluated, "count"),
        metric(
            "wave.prune_ratio",
            ratio(t.stats.pruned as f64, visited),
            "ratio",
        ),
        metric("wave.bound_s", t.bound_s, "s"),
        metric(
            "wave.eval_ms",
            ratio((t.search_s - t.bound_s) * 1e3, evaluated),
            "ms",
        ),
        metric("wave.parallelism", ratio(t.cpu_s, t.search_s), "ratio"),
        metric("wave.count", t.waves as f64, "count"),
        metric("wave.first_incumbent_s", t.to_first_incumbent_s, "s"),
        metric("stage.layer_data.calls", calls("stage.layer_data"), "count"),
        metric("stage.layer_data.p50_ms", p50_ms("stage.layer_data"), "ms"),
        metric("stage.profiles.calls", calls("stage.profiles"), "count"),
        metric("stage.profiles.p50_ms", p50_ms("stage.profiles"), "ms"),
        metric("gcmr.calls", calls("gcmr"), "count"),
        metric("gcmr.p50_ms", p50_ms("gcmr"), "ms"),
        metric("placement.calls", calls("placement"), "count"),
        metric("placement.p50_ms", p50_ms("placement"), "ms"),
        metric("dram_alloc.calls", calls("dram_alloc"), "count"),
        metric("dram_alloc.p50_ms", p50_ms("dram_alloc"), "ms"),
        metric("dram_alloc.grants", counts.grants as f64, "count"),
        metric("evaluator.calls", calls("evaluator"), "count"),
        metric("evaluator.p50_ms", p50_ms("evaluator"), "ms"),
        metric("evaluator.busy_s", busy_s("evaluator"), "s"),
        metric("ga.calls", calls("ga"), "count"),
        metric("ga.p50_ms", p50_ms("ga"), "ms"),
        metric(
            "ga.kept_ratio",
            ratio(counts.ga_kept as f64, calls("ga")),
            "ratio",
        ),
        metric("goodput.calls", calls("goodput"), "count"),
        metric("goodput.p50_ms", p50_ms("goodput"), "ms"),
        metric("serve.bound.calls", calls("serve.bound"), "count"),
        metric("serve.bound.busy_s", busy_s("serve.bound"), "s"),
        metric("serve.score.calls", calls("serve.score"), "count"),
        metric("serve.score.busy_s", busy_s("serve.score"), "s"),
        metric("serve.derive.p50_ms", p50_ms("serve.derive"), "ms"),
        metric("serve.simulate.p50_ms", p50_ms("serve.simulate"), "ms"),
        metric("serve.sim_steps", counts.sim_steps as f64, "count"),
        metric("multiwafer.calls", calls("multiwafer"), "count"),
        metric("multiwafer.p50_ms", p50_ms("multiwafer"), "ms"),
        metric(
            "multiwafer.placement_kept_ratio",
            ratio(counts.placed_kept as f64, counts.placed as f64),
            "ratio",
        ),
        metric("cache.rebuilds", t.rebuilt as f64, "count"),
        metric("trace.overhead", ratio(t.traced_s, t.search_s), "ratio"),
    ]
}
