//! Shared helpers for the figure harness and the benchmark binaries:
//! the benchmark presets, text tables, normalization, common scheduler
//! option sets, and thin wrappers over the `Explorer` facade for
//! single-candidate figure runs.

use std::sync::Arc;
use watos::ga::GaParams;
use watos::placement::{choose_tile, serpentine, PairDemand};
use watos::scheduler::{
    PlanFilter, RecomputeMode, ScheduledConfig, SchedulerOptions, DEFAULT_SEED,
};
use watos::stage::{boundary_bytes, StageProfile};
use watos::{
    ExplorationReport, Explorer, ExplorerBuilder, MultiWaferReport, Placement, PlacementCostModel,
    ProfileCache, SearchStats,
};
use wsc_arch::enumerate::Enumerator;
use wsc_arch::presets;
use wsc_arch::units::Bytes;
use wsc_arch::wafer::{MultiWaferConfig, WaferConfig};
use wsc_mesh::collective::CollectiveAlgo;
use wsc_mesh::topology::Mesh2D;
use wsc_pipeline::gcmr::gcmr;
use wsc_pipeline::recompute::{overflow_and_spare, RecomputePlan};
use wsc_workload::model::LlmModel;
use wsc_workload::parallel::{ParallelPlan, TpSplitStrategy};
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// What a search-benchmark preset searches: one wafer (the Alg. 1
/// single-wafer leg) or one multi-wafer node (the §VI-F node leg).
pub enum SearchCandidate {
    /// A single-wafer candidate.
    Wafer(WaferConfig),
    /// A multi-wafer node candidate, searched over the full plan space
    /// (cross-wafer TP and uneven stage maps, [`PlanFilter::all`]) with
    /// the node-level Alg. 3 pass on every evaluated plan
    /// ([`watos::ExplorerBuilder::node_placement`]), so the committed
    /// numbers and the CI smoke cover the enlarged search, not just the
    /// seed-era balanced intra-wafer space.
    Node(MultiWaferConfig),
}

/// One search-engine benchmark preset — the single source of truth of
/// the `bench_search` and `bench_fault` JSON harnesses per preset name.
pub struct SearchPreset {
    /// Preset name (`small` / `medium` / `large` / `multiwafer`).
    pub name: &'static str,
    /// The one candidate the preset searches.
    pub candidate: SearchCandidate,
    /// Training model.
    pub model: LlmModel,
    /// TP partition strategies to sweep.
    pub strategies: Vec<TpSplitStrategy>,
}

/// One search leg read back from a report: its counters and its winning
/// plan with the winner's iteration seconds.
pub type SearchLeg = (SearchStats, Option<(ParallelPlan, f64)>);

impl SearchPreset {
    /// The candidate's display name (`Config 3`, `4x Config 3`).
    pub fn candidate_name(&self) -> String {
        match &self.candidate {
            SearchCandidate::Wafer(w) => w.name.clone(),
            SearchCandidate::Node(n) => format!("{}x {}", n.wafers, n.wafer.name),
        }
    }

    /// The preset's search, configured and ready to build: the standard
    /// training job of the model over the candidate, with the preset's
    /// strategies and GA refinement off.
    pub fn builder(&self) -> ExplorerBuilder {
        let b = Explorer::builder()
            .job(TrainingJob::standard(self.model.clone()))
            .strategies(self.strategies.clone())
            .no_ga();
        match &self.candidate {
            SearchCandidate::Wafer(w) => b.wafer(w.clone()),
            SearchCandidate::Node(n) => b
                .multi_wafer(n.clone())
                .plans(PlanFilter::all())
                .node_placement(),
        }
    }

    /// Read this preset's leg from a report of [`Self::builder`]'s
    /// search.
    pub fn leg(&self, report: &ExplorationReport) -> SearchLeg {
        match self.candidate {
            SearchCandidate::Wafer(_) => (
                report.search_stats(),
                crate::driver::winner(report)
                    .map(|b| (b.plan.clone(), b.report.iteration.as_secs())),
            ),
            SearchCandidate::Node(_) => (
                report.multi_wafer_search_stats(),
                report
                    .multi_wafer
                    .first()
                    .and_then(|r| r.best.as_ref())
                    .map(|b| (b.plan.clone(), b.iteration.as_secs())),
            ),
        }
    }
}

/// The search-benchmark presets: the small/medium/large wafer presets
/// in size order, then the multi-wafer node preset (a model that does
/// not fit one wafer).
pub fn search_presets() -> Vec<SearchPreset> {
    let both = || vec![TpSplitStrategy::Megatron, TpSplitStrategy::SequenceParallel];
    vec![
        SearchPreset {
            name: "small",
            candidate: SearchCandidate::Wafer(presets::config(3)),
            model: zoo::llama2_30b(),
            strategies: vec![TpSplitStrategy::SequenceParallel],
        },
        SearchPreset {
            name: "medium",
            candidate: SearchCandidate::Wafer(presets::config(3)),
            model: zoo::llama3_70b(),
            strategies: both(),
        },
        SearchPreset {
            name: "large",
            candidate: SearchCandidate::Wafer(presets::config(3)),
            model: zoo::gpt_175b(),
            strategies: both(),
        },
        SearchPreset {
            name: "multiwafer",
            candidate: SearchCandidate::Node(presets::multi_wafer_18()),
            model: zoo::llama3_405b(),
            strategies: both(),
        },
    ]
}

/// One serving benchmark preset — the single source of truth shared by
/// the `bench_serve` JSON harness, the serving leg of the
/// thread-determinism test and `examples/inference_serving.rs`, so all
/// three always measure the same workload per name.
pub struct ServePreset {
    /// Preset name (`small` / `large`).
    pub name: &'static str,
    /// Candidate wafer.
    pub wafer: WaferConfig,
    /// Served model.
    pub model: LlmModel,
    /// Offered request rates to sweep (requests per second).
    pub rates_rps: Vec<f64>,
    /// Requests per synthesized trace.
    pub requests: usize,
    /// TTFT SLO in seconds.
    pub slo_ttft_secs: f64,
    /// Continuous-batching admission cap in tokens.
    pub max_batch_tokens: usize,
    /// Trace seed.
    pub seed: u64,
}

/// The serving-benchmark presets, in model-size order. Each sweeps at
/// least three offered rates: one under capacity, one near the knee,
/// one saturating.
pub fn serve_presets() -> Vec<ServePreset> {
    vec![
        ServePreset {
            name: "small",
            wafer: presets::config(3),
            model: zoo::llama2_30b(),
            rates_rps: vec![2.0, 8.0, 32.0],
            requests: 64,
            slo_ttft_secs: 1.0,
            max_batch_tokens: 2048,
            seed: 7,
        },
        ServePreset {
            name: "large",
            wafer: presets::config(3),
            model: zoo::llama3_70b(),
            rates_rps: vec![1.0, 4.0, 16.0],
            requests: 64,
            slo_ttft_secs: 2.0,
            max_batch_tokens: 2048,
            seed: 7,
        },
    ]
}

/// One GA-refinement benchmark preset — the single source of truth
/// shared by the `bench_ga` JSON harness and the GA leg of the
/// thread-determinism test, so both always measure the same workload
/// per name.
pub struct GaRefinePreset {
    /// Preset name (`refine-llama2-30b` / `refine-llama3-70b`).
    pub name: &'static str,
    /// Candidate wafer.
    pub wafer: WaferConfig,
    /// Training model.
    pub model: LlmModel,
    /// Tensor parallelism of the refined configuration.
    pub tp: usize,
    /// Pipeline stages of the refined configuration.
    pub pp: usize,
    /// GA hyper-parameters (the defaults: ~1,600 decodes per refine).
    pub params: GaParams,
}

/// The §IV-D GA-refinement presets, in model-size order.
pub fn ga_refine_presets() -> Vec<GaRefinePreset> {
    vec![
        // Config 1's 48 GiB stacks with per-die stages: 12 of the 48
        // stages overflow (~450 GiB borrowed), so every genome decode
        // pays the full Sender→Helper pairing + Eq. 2 conflict path.
        GaRefinePreset {
            name: "refine-llama2-30b",
            wafer: presets::config(1),
            model: zoo::llama2_30b(),
            tp: 1,
            pp: 48,
            params: GaParams::default(),
        },
        GaRefinePreset {
            name: "refine-llama3-70b",
            wafer: presets::config(3),
            model: zoo::llama3_70b(),
            tp: 4,
            pp: 8,
            params: GaParams::default(),
        },
    ]
}

/// Everything `ga::refine_with_model` needs for one `(wafer, job, tp, pp)`
/// configuration, derived the same way the scheduler derives it (GCMR
/// plan, serpentine seed placement, per-stage overflow/spare against the
/// wafer DRAM capacity).
pub struct GaSetup {
    /// The wafer fabric.
    pub mesh: Mesh2D,
    /// Per-stage profiles.
    pub stages: Arc<Vec<StageProfile>>,
    /// GCMR base recomputation plan.
    pub plan: RecomputePlan,
    /// Serpentine seed placement.
    pub placement: Placement,
    /// Per-stage DRAM overflow beyond capacity.
    pub overflow: Vec<Bytes>,
    /// Per-stage donatable DRAM.
    pub spare: Vec<Bytes>,
    /// Eq. 2 inter-stage pipeline volume.
    pub pp_volume: f64,
    /// Per-die DRAM capacity.
    pub capacity: Bytes,
}

/// Build the GA inputs for a Megatron `D(1)T(tp)P(pp)` configuration of
/// `job` on `wafer`.
pub fn ga_setup(wafer: &WaferConfig, job: &TrainingJob, tp: usize, pp: usize) -> GaSetup {
    let megatron = ParallelPlan::intra(tp, pp, TpSplitStrategy::Megatron);
    let stages = ProfileCache::new().stage_profiles(wafer, job, &megatron, job.microbatches(1));
    let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
    let capacity = wafer.dram.capacity;
    let plan = gcmr(&inputs, capacity, 12).as_recompute_plan();
    let (tw, th) = choose_tile(wafer.nx, wafer.ny, tp, pp).expect("stage tile must embed");
    let placement = serpentine(wafer.nx, wafer.ny, pp, tw, th).expect("stages fit the wafer");
    let (overflow, spare) = overflow_and_spare(&inputs, &plan, capacity);
    GaSetup {
        mesh: Mesh2D::new(wafer.nx, wafer.ny),
        stages,
        plan,
        placement,
        overflow,
        spare,
        pp_volume: 1e8,
        capacity,
    }
}

impl GaSetup {
    /// A fresh clean Eq. 2 cost model for the seed placement's tile grid.
    pub fn cost_model(&self) -> PlacementCostModel {
        let tile = self.placement.stages[0];
        PlacementCostModel::new(self.mesh, tile.w, tile.h, self.pp_volume)
    }
}

/// A hill-climb benchmark preset: `placement::optimize_with` on one mesh
/// with per-die stages and a fixed set of Sender→Helper pair demands.
pub struct HillClimbPreset {
    /// Preset name (`hillclimb` / `hillclimb-llama3-70b`).
    pub name: &'static str,
    /// The wafer fabric.
    pub mesh: Mesh2D,
    /// Stage-tile width in dies.
    pub tile_w: usize,
    /// Stage-tile height in dies.
    pub tile_h: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// Eq. 2 inter-stage pipeline volume.
    pub pp_volume: f64,
    /// Sender→Helper balance demands.
    pub pairs: Vec<PairDemand>,
    /// Hill-climb RNG seed.
    pub seed: u64,
}

/// The hill-climb benchmark presets.
///
/// * `hillclimb` — a Config-1 geometry (8×8 dies) with a 48-stage
///   pipeline whose first eight stages borrow DRAM from the last eight
///   (the Fig. 11 Mem_pair pattern at scale), so every swap candidate
///   pays the full Eq. 2 pair/conflict machinery.
/// * `hillclimb-llama3-70b` — the costliest climb a `coexplore-bench`
///   train-dse pass runs: Llama3-70B `D(1)T(1)P(48)` on the 7×7-die,
///   48 GiB `paper_space()` candidate with 1×1 tiles, placing its own
///   25 GCMR pairs with the scheduler's pipeline volume and seed.
pub fn hill_climb_presets() -> Vec<HillClimbPreset> {
    let pp = 48;
    let pairs = (0..8)
        .map(|s| PairDemand {
            sender: s,
            helper: pp - 1 - s,
            volume: (1.0 + s as f64) * 1e8,
        })
        .collect();
    vec![
        HillClimbPreset {
            name: "hillclimb",
            mesh: Mesh2D::new(8, 8),
            tile_w: 1,
            tile_h: 1,
            pp,
            pp_volume: 1e8,
            pairs,
            seed: 42,
        },
        llama3_70b_climb(),
    ]
}

/// The `hillclimb-llama3-70b` preset, derived the way `schedule_plan`
/// derives its climb: stage profiles at the plan's DP, GCMR pairs at
/// the scheduler's quantum count `(160 / pp).clamp(3, 16)`, and the
/// Eq. 2 pipeline volume of the plan's stage boundary.
fn llama3_70b_climb() -> HillClimbPreset {
    let job = TrainingJob::standard(zoo::llama3_70b());
    let wafer = Enumerator::paper_space()
        .enumerate()
        .into_iter()
        .find(|w| w.nx == 7 && w.ny == 7 && w.dram.capacity == Bytes::gib(48))
        .expect("paper_space holds a 7x7-die, 48 GiB candidate");
    let (tp, pp) = (1, 48);
    let plan = ParallelPlan::intra(tp, pp, TpSplitStrategy::Megatron);
    let (tile_w, tile_h) = choose_tile(wafer.nx, wafer.ny, tp, pp).expect("stage tile must embed");
    let dp = ((wafer.nx / tile_w) * (wafer.ny / tile_h) / pp).max(1);
    let stages = ProfileCache::new().stage_profiles(&wafer, &job, &plan, job.microbatches(dp));
    let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
    let pairs = gcmr(&inputs, wafer.dram.capacity, (160 / pp).clamp(3, 16))
        .mem_pairs
        .iter()
        .map(PairDemand::from)
        .collect();
    HillClimbPreset {
        name: "hillclimb-llama3-70b",
        mesh: Mesh2D::new(wafer.nx, wafer.ny),
        tile_w,
        tile_h,
        pp,
        pp_volume: boundary_bytes(&job, &plan.sharding_ctx(&job)).as_f64(),
        pairs,
        seed: DEFAULT_SEED,
    }
}

/// Explore one wafer candidate through the `Explorer` facade.
///
/// Figure generators sweep one synthetic candidate at a time, so this
/// skips area validation (the Fig. 25 granularity sweep intentionally
/// stresses the floorplan model) and unwraps the single record.
pub fn explore_one(
    wafer: &WaferConfig,
    job: &TrainingJob,
    opts: &SchedulerOptions,
) -> Option<ScheduledConfig> {
    Explorer::builder()
        .job(job.clone())
        .wafer(wafer.clone())
        .options(opts.clone())
        .allow_invalid_architectures()
        .build()
        .expect("single-candidate run always validates")
        .run()
        .single_wafer
        .swap_remove(0)
        .best
}

/// Explore one multi-wafer node through the `Explorer` facade.
pub fn explore_node(node: &MultiWaferConfig, job: &TrainingJob) -> Option<MultiWaferReport> {
    Explorer::builder()
        .job(job.clone())
        .multi_wafer(node.clone())
        .build()
        .expect("single-node run always validates")
        .run()
        .multi_wafer
        .swap_remove(0)
        .best
}

/// A simple fixed-width text table builder.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:<w$}  ", w = w));
            }
            line.trim_end().to_string() + "\n"
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
        }
        out
    }
}

/// Normalize a series so its minimum is 1.0 (paper convention: "all
/// results normalized to the lowest-performing configuration").
pub fn normalize_min1(values: &[f64]) -> Vec<f64> {
    let min = values
        .iter()
        .cloned()
        .filter(|v| v.is_finite() && *v > 0.0)
        .fold(f64::INFINITY, f64::min);
    if !min.is_finite() {
        return values.to_vec();
    }
    values.iter().map(|v| v / min).collect()
}

/// Format a float with 3 significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Scheduler options for figure runs: `quick` disables the GA and trims
/// the strategy set so smoke tests stay fast.
pub fn watos_options(quick: bool) -> SchedulerOptions {
    SchedulerOptions {
        ga: if quick {
            None
        } else {
            Some(watos::ga::GaParams {
                population: 12,
                steps: 40,
                omega: 0.5,
                seed: 7,
            })
        },
        strategies: if quick {
            vec![TpSplitStrategy::SequenceParallel]
        } else {
            vec![TpSplitStrategy::Megatron, TpSplitStrategy::SequenceParallel]
        },
        collectives: vec![CollectiveAlgo::RingBi],
        recompute: RecomputeMode::Gcmr,
        memory_scheduler: true,
        ..SchedulerOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_with_padding() {
        let mut t = TextTable::new(vec!["a", "bbb"]);
        t.row(vec!["xx", "y"]);
        let s = t.render();
        assert!(s.contains("a "));
        assert!(s.contains("xx"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["x", "y"]);
    }

    #[test]
    fn normalization_min_is_one() {
        let n = normalize_min1(&[2.0, 4.0, 8.0]);
        assert_eq!(n, vec![1.0, 2.0, 4.0]);
    }
}
