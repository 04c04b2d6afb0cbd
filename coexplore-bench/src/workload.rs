//! The four workloads: which `Explorer` sessions each runs, how each
//! session ranks its candidates, and the answers its search legs return.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use watos::{
    ensemble_effective_secs, ExplorationReport, Explorer, ExplorerBuilder, FaultEnsemble, GaParams,
    ParallelPlan, PlanFilter, ProfileCache, RobustObjective, ScheduledConfig, SchedulerOptions,
    SearchStats, ServingModel, TpSplitStrategy,
};
use wsc_arch::enumerate::Enumerator;
use wsc_arch::presets;
use wsc_arch::wafer::{MultiWaferConfig, WaferConfig};
use wsc_bench::util::serve_presets;
use wsc_serve::{ServingExplorerExt, ServingSlo, SimConfig, SloServingModel};
use wsc_workload::serving::ServingWorkload;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// The seed the committed reference answers were recorded with.
pub const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Llama3-70B over the 4 Table II configs plus the 48 enumerated
    /// candidates, production-default options (GA on).
    TrainDse,
    /// §VI-F node searches: Llama3-405B and DeepSeek-V3 on two
    /// four-wafer nodes, full plan space and node-level Alg. 3.
    TrainNode,
    /// SLO-ranked serving searches for the six `serve_presets()` cells.
    ServeSlo,
    /// Fault-aware searches (clustered 20%, 4 wafers, worst case) for
    /// Llama2-30B and GPT-175B on Config 3.
    FaultAware,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TrainDse,
        Workload::TrainNode,
        Workload::ServeSlo,
        Workload::FaultAware,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainDse => "train-dse",
            Workload::TrainNode => "train-node",
            Workload::ServeSlo => "serve-slo",
            Workload::FaultAware => "fault-aware",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the workload's inputs are made from. Only `serve-slo`
    /// takes it from `--seed`: its six serving cells average the seed's
    /// effect out within a pass. On the other three the seed moves how
    /// much work the search does, so a run-to-run spread would measure
    /// the seed rather than the code, and they fix it:
    ///
    /// * the fault ensemble decides how much a fault-aware search
    ///   evaluates (a worse worst-case wafer makes a worse incumbent,
    ///   which prunes less): over seeds 1–5, `search_s` ranged from
    ///   8.2 s to 27.4 s;
    /// * the explorer seed only steers the placement hill climbs: over
    ///   seeds 1–5 it changed no winner of `train-dse`, yet moved its
    ///   CPU time between 23.1 s and 26.9 s; on `train-node` the
    ///   quartile spread of `search_s` was 0.23 of the median over
    ///   seeds 1–8 and 0.10 over eight runs of seed 7.
    ///
    /// Every run of these three is checked against the reference answers
    /// in full.
    pub fn input_seed(self, seed: u64) -> u64 {
        match self {
            Workload::TrainDse | Workload::TrainNode | Workload::FaultAware => DEFAULT_SEED,
            Workload::ServeSlo => seed,
        }
    }
}

/// The benchmark's inputs, or the reduced inputs of the smoke tests
/// (one candidate, one TP degree, one strategy, short traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What a session ranks candidates by.
pub enum Ranking {
    /// Clean simulated iteration time.
    Clean,
    /// Negated goodput under the SLO on the workload's synthesized trace.
    Serving {
        workload: ServingWorkload,
        slo: ServingSlo,
        sim: SimConfig,
        /// The same objective `serving_with` builds, kept to re-score
        /// winners and to wrap in the traced pass.
        model: Arc<SloServingModel>,
        /// The objective on the cell's default-seed trace, which every
        /// seed's winner is judged on for `answer_cost`: a winner's goodput
        /// on its own trace mostly measures that trace's arrival span.
        answer_model: Arc<SloServingModel>,
    },
    /// Ensemble effective iteration time under clustered faults.
    FaultAware {
        ensemble: FaultEnsemble,
        objective: RobustObjective,
    },
}

/// One `Explorer` session of a workload.
pub struct Session {
    pub id: String,
    pub job: TrainingJob,
    pub wafers: Vec<WaferConfig>,
    pub nodes: Vec<MultiWaferConfig>,
    pub options: SchedulerOptions,
    pub ranking: Ranking,
}

/// The sessions of `workload`; its input seed (see
/// [`Workload::input_seed`]) feeds the explorer seed, the serving traces
/// and the fault ensembles.
pub fn sessions(workload: Workload, seed: u64, size: Size) -> Vec<Session> {
    let seed = workload.input_seed(seed);
    let smoke = size == Size::Smoke;
    let options = |o: SchedulerOptions| {
        let o = SchedulerOptions { seed, ..o };
        if smoke {
            SchedulerOptions {
                tp_candidates: Some(vec![4]),
                strategies: vec![TpSplitStrategy::Megatron],
                ga: o.ga.map(|ga| GaParams {
                    population: 4,
                    steps: 4,
                    ..ga
                }),
                ..o
            }
        } else {
            o
        }
    };
    let clean = |id: String, job: TrainingJob, wafers, nodes, o| Session {
        id,
        job,
        wafers,
        nodes,
        options: options(o),
        ranking: Ranking::Clean,
    };
    let no_ga = SchedulerOptions {
        ga: None,
        ..SchedulerOptions::default()
    };
    match workload {
        Workload::TrainDse => {
            let wafers = if smoke {
                vec![presets::config(3)]
            } else {
                let mut w = presets::table_ii_configs();
                w.extend(Enumerator::paper_space().enumerate());
                w
            };
            let job = TrainingJob::standard(zoo::llama3_70b());
            vec![clean(
                job.model.name.clone(),
                job,
                wafers,
                Vec::new(),
                SchedulerOptions::default(),
            )]
        }
        Workload::TrainNode => {
            let models = [zoo::llama3_405b(), zoo::deepseek_v3()];
            let nodes = [presets::multi_wafer_18(), presets::multi_wafer_4()];
            let take = if smoke { 1 } else { models.len() };
            models
                .into_iter()
                .take(take)
                .map(|model| {
                    let nodes = nodes.iter().take(take).cloned().collect();
                    let o = SchedulerOptions {
                        plans: PlanFilter::all(),
                        node_placement: true,
                        ..SchedulerOptions::default()
                    };
                    clean(
                        model.name.clone(),
                        TrainingJob::standard(model),
                        Vec::new(),
                        nodes,
                        o,
                    )
                })
                .collect()
        }
        Workload::ServeSlo => {
            let mut out = Vec::new();
            for preset in serve_presets() {
                for &rate in &preset.rates_rps {
                    let requests = if smoke { 8 } else { preset.requests };
                    let slo = ServingSlo::ttft(preset.slo_ttft_secs);
                    let sim = SimConfig {
                        max_batch_tokens: preset.max_batch_tokens,
                    };
                    let cell =
                        |seed| ServingWorkload::poisson(preset.model.clone(), rate, requests, seed);
                    let workload = cell(seed);
                    let model = Arc::new(SloServingModel::with_sim(workload.clone(), slo, sim));
                    out.push(Session {
                        id: format!("{}@{}rps", preset.model.name, rate),
                        job: model.profile_job(),
                        wafers: vec![preset.wafer.clone()],
                        nodes: Vec::new(),
                        options: options(no_ga.clone()),
                        ranking: Ranking::Serving {
                            workload,
                            slo,
                            sim,
                            model,
                            answer_model: Arc::new(SloServingModel::with_sim(
                                cell(DEFAULT_SEED),
                                slo,
                                sim,
                            )),
                        },
                    });
                }
            }
            if smoke {
                out.truncate(1);
            }
            out
        }
        Workload::FaultAware => {
            let models = [zoo::llama2_30b(), zoo::gpt_175b()];
            let take = if smoke { 1 } else { models.len() };
            let samples = if smoke { 2 } else { 4 };
            models
                .into_iter()
                .take(take)
                .map(|model| Session {
                    id: model.name.clone(),
                    job: TrainingJob::standard(model),
                    wafers: vec![presets::config(3)],
                    nodes: Vec::new(),
                    options: options(no_ga.clone()),
                    ranking: Ranking::FaultAware {
                        ensemble: FaultEnsemble::clustered(0.2, samples, seed),
                        objective: RobustObjective::Worst,
                    },
                })
                .collect()
        }
    }
}

impl Session {
    /// The session's explorer, configured but not built. `serving`
    /// replaces a serving session's ranking model (the traced pass
    /// installs its timing wrapper there); other sessions ignore it.
    pub fn builder(&self, serving: Option<Arc<dyn ServingModel>>) -> ExplorerBuilder {
        let b = Explorer::builder()
            .options(self.options.clone())
            .wafers(self.wafers.clone());
        let b = self
            .nodes
            .iter()
            .cloned()
            .fold(b, ExplorerBuilder::multi_wafer);
        match &self.ranking {
            Ranking::Clean => b.job(self.job.clone()),
            Ranking::Serving {
                workload, slo, sim, ..
            } => match serving {
                Some(model) => b.job(self.job.clone()).serving_model(model),
                None => b.serving_with(workload.clone(), *slo, *sim),
            },
            Ranking::FaultAware {
                ensemble,
                objective,
            } => b
                .job(self.job.clone())
                .fault_aware(ensemble.clone(), *objective),
        }
    }

    /// The score this session ranks `cfg` by (lower is better), recomputed
    /// through the public entry points on a fresh cache.
    pub fn score(&self, wafer: &WaferConfig, cfg: &ScheduledConfig) -> f64 {
        let cache = ProfileCache::new();
        match &self.ranking {
            Ranking::Clean => cfg.report.iteration.as_secs(),
            Ranking::Serving { model, .. } => model.score(wafer, &self.job, cfg, &cache),
            Ranking::FaultAware {
                ensemble,
                objective,
            } => ensemble_effective_secs(wafer, &self.job, cfg, ensemble, *objective, &cache),
        }
    }
}

/// What one search leg returned: its winner's plan and score, and its
/// search counters. The committed reference holds these for the
/// default seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LegAnswer {
    /// `<session>/<candidate>`.
    pub leg: String,
    pub plan: Option<ParallelPlan>,
    /// The winner's ranking score (see [`Session::score`]); the
    /// multi-wafer legs rank by iteration time.
    pub score: Option<f64>,
    pub stats: SearchStats,
}

/// Every leg's answer, in report order (single-wafer legs, then nodes).
pub fn leg_answers(session: &Session, report: &ExplorationReport) -> Vec<LegAnswer> {
    let single = report.single_wafer.iter().map(|rec| LegAnswer {
        leg: format!("{}/{}", session.id, rec.arch),
        plan: rec.best.as_ref().map(|c| c.plan.clone()),
        score: rec.best.as_ref().map(|c| session.score(&rec.wafer, c)),
        stats: rec.stats,
    });
    let multi = report.multi_wafer.iter().map(|rec| LegAnswer {
        leg: format!("{}/{}", session.id, rec.name),
        plan: rec.best.as_ref().map(|r| r.plan.clone()),
        score: rec.best.as_ref().map(|r| r.iteration.as_secs()),
        stats: rec.stats,
    });
    single.chain(multi).collect()
}

/// The session winner's answer in simulated seconds, lower is better:
/// iteration time (training), worst-case ensemble effective iteration
/// time (fault-aware), or seconds per SLO-met request, the inverse of
/// goodput, on the cell's default-seed trace (serving). `None` when the
/// session has no winner.
pub fn session_answer(session: &Session, report: &ExplorationReport) -> Option<f64> {
    let answer = match report.best() {
        Ok(rec) => {
            let cfg = rec.best.as_ref()?;
            match &session.ranking {
                Ranking::Serving { answer_model, .. } => {
                    let cache = ProfileCache::new();
                    -1.0 / answer_model.score(&rec.wafer, &session.job, cfg, &cache)
                }
                _ => session.score(&rec.wafer, cfg),
            }
        }
        Err(_) => report
            .best_multi_wafer()?
            .best
            .as_ref()?
            .iteration
            .as_secs(),
    };
    (answer.is_finite() && answer > 0.0).then_some(answer)
}
