//! Figures 10, 11, 15–18: predictor accuracy, placement, the architecture
//! DSE, overall performance, utilization and the ablation.

use crate::util::explore_one;
use crate::util::{f2, f3, normalize_min1, watos_options, TextTable};
use watos::ga::GaParams;
use watos::placement::{global_cost, optimize, row_major, PairDemand};
use watos::scheduler::{schedule_plan, RecomputeMode, SchedulerOptions};
use watos::{Explorer, ProfileCache};
use wsc_arch::presets;
use wsc_arch::units::Bandwidth;
use wsc_baselines::analytic::estimate as analytic_estimate;
use wsc_baselines::cerebras::weight_streaming;
use wsc_baselines::gpu::megatron_gpu;
use wsc_baselines::megatron::mg_wafer;
use wsc_mesh::topology::Mesh2D;
use wsc_sim::op_cost::DieModel;
use wsc_sim::predictor::{analytic_mape, generate_corpus, DnnPredictor};
use wsc_workload::graph::{self, ShardingCtx};
use wsc_workload::parallel::ParallelPlan;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// Fig. 10b: DNN predictor vs analytic model accuracy.
pub fn fig10b(quick: bool) -> String {
    let dm = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0));
    let (n_train, n_test, epochs) = if quick {
        (400, 100, 120)
    } else {
        (1600, 400, 400)
    };
    let train = generate_corpus(&dm, n_train, 7);
    let test = generate_corpus(&dm, n_test, 1234);
    let p = DnnPredictor::train(&train, epochs, 99);
    let (dnn_lat, dnn_mem) = p.mape(&test);
    let (an_lat, an_mem) = analytic_mape(&test);
    let mut t = TextTable::new(vec!["predictor", "latency err", "memory err"]);
    t.row(vec![
        "DNN".to_string(),
        format!("{:.1}%", dnn_lat * 100.0),
        format!("{:.1}%", dnn_mem * 100.0),
    ]);
    t.row(vec![
        "Analytical".to_string(),
        format!("{:.1}%", an_lat * 100.0),
        format!("{:.1}%", an_mem * 100.0),
    ]);
    format!(
        "Fig. 10b: operator latency/memory prediction error (paper: DNN 2.3%/1.6%, analytic 19.6%/14.5%)\n{}",
        t.render()
    )
}

/// Fig. 10c: operator tensor sizes and recompute times, Llama-65B on one
/// Config-2 die (b=16, s=4096, TP=8).
pub fn fig10c(_quick: bool) -> String {
    let wafer = presets::config(2);
    let dm = DieModel::new(wafer.die.clone(), wafer.dram.bandwidth);
    let model = zoo::llama_65b();
    let ctx = ShardingCtx::new(16, 4096, 8, TpSplitStrategy::Megatron);
    let ops = graph::layer_ops_at(&model, 0, &ctx);
    let mut t = TextTable::new(vec!["operator", "tensor (MB)", "recompute (ms)"]);
    for op in &ops {
        t.row(vec![
            op.name.clone(),
            f2(op.output_bytes.as_f64() / 1e6),
            f2(dm.op_cost(op).time.as_millis()),
        ]);
    }
    format!(
        "Fig. 10c: operator recomputation overheads, Llama-65B on a Config-2 die\n{}",
        t.render()
    )
}

/// Fig. 11: placement strategies on the 8-stage pipeline with Mem_pairs
/// (S1,S8), (S2,S7).
pub fn fig11(_quick: bool) -> String {
    let mesh = Mesh2D::new(8, 4);
    let pairs = vec![
        PairDemand {
            sender: 0,
            helper: 7,
            volume: 1.0,
        },
        PairDemand {
            sender: 1,
            helper: 6,
            volume: 1.0,
        },
    ];
    let naive = row_major(8, 4, 8, 2, 2).expect("fits");
    let opt = optimize(&mesh, 8, 2, 2, 1.0, &pairs, 42).expect("fits");
    let hops = |p: &watos::placement::Placement, s: usize, h: usize| p.stages[s].dist(&p.stages[h]);
    let mut t = TextTable::new(vec!["placement", "S1-S8 hops", "S2-S7 hops", "GlobalCost"]);
    t.row(vec![
        "left-to-right (Fig. 11a)".to_string(),
        f2(hops(&naive, 0, 7)),
        f2(hops(&naive, 1, 6)),
        f2(global_cost(&mesh, &naive, 1.0, &pairs)),
    ]);
    t.row(vec![
        "location-aware (Fig. 11b)".to_string(),
        f2(hops(&opt, 0, 7)),
        f2(hops(&opt, 1, 6)),
        f2(global_cost(&mesh, &opt, 1.0, &pairs)),
    ]);
    let red = 1.0 - global_cost(&mesh, &opt, 1.0, &pairs) / global_cost(&mesh, &naive, 1.0, &pairs);
    format!(
        "Fig. 11: spatial location-aware placement (paper: ~30% total-hop reduction)\n{}total-cost reduction: {:.0}%\n",
        t.render(),
        red * 100.0
    )
}

/// Fig. 15 data: normalized throughput of Configs 1–4 for one model.
pub fn fig15_data(
    model: wsc_workload::model::LlmModel,
    with_recompute: bool,
    quick: bool,
) -> Vec<(String, f64)> {
    // Memory pressure so recomputation matters; without recomputation the
    // same workload forces larger TP on small-DRAM configs.
    let mb = if with_recompute { 4 } else { 2 };
    let seq = model.default_seq.min(4096);
    let job = TrainingJob::with_batch(model, 512, mb, seq);
    let mut opts = watos_options(quick);
    opts.recompute = if with_recompute {
        RecomputeMode::Gcmr
    } else {
        RecomputeMode::None
    };
    // One facade session over all Table II candidates: the rayon fan-out
    // explores the four configs concurrently.
    let report = Explorer::builder()
        .job(job)
        .wafers(presets::table_ii_configs())
        .options(opts)
        .build()
        .expect("Table II presets validate")
        .run();
    report
        .single_wafer
        .into_iter()
        .map(|rec| {
            let tput = rec
                .best
                .map(|c| c.report.useful_throughput.as_f64())
                .unwrap_or(0.0);
            (rec.arch, tput)
        })
        .collect()
}

/// Fig. 15: architecture DSE across Configs 1–4 (± recomputation) plus the
/// first-order analytic comparator.
pub fn fig15(quick: bool) -> String {
    let models: Vec<_> = if quick {
        vec![zoo::llama2_30b(), zoo::llama3_70b()]
    } else {
        zoo::main_eval_models()
    };
    let mut out = String::from("Fig. 15: DSE over Table II configurations\n");
    for recompute in [false, true] {
        out.push_str(&format!(
            "\n--- {} recomputation ---\n",
            if recompute { "with" } else { "without" }
        ));
        for model in &models {
            let name = model.name.clone();
            let data = fig15_data(model.clone(), recompute, quick);
            let tputs: Vec<f64> = data.iter().map(|d| d.1).collect();
            let norm = normalize_min1(&tputs);
            let mut t = TextTable::new(vec!["config", "norm. throughput"]);
            for (i, (cfg, _)) in data.iter().enumerate() {
                t.row(vec![cfg.clone(), f3(norm[i])]);
            }
            out.push_str(&format!("[{name}]\n{}", t.render()));
        }
    }
    // Analytic comparator on GPT-175B.
    let job = TrainingJob::with_batch(zoo::gpt_175b(), 512, 8, 2048);
    let mut t = TextTable::new(vec!["config", "analytic time (s)"]);
    for cfg in presets::table_ii_configs() {
        t.row(vec![
            cfg.name.clone(),
            f3(analytic_estimate(&cfg, &job).time.as_secs()),
        ]);
    }
    out.push_str(&format!(
        "\nAnalytic* model (GPT-175B): favors max-DRAM configs, missing the trade-off\n{}",
        t.render()
    ));
    out
}

/// One Fig. 16 row: throughputs and times of the four systems.
pub struct Fig16Row {
    /// Model name.
    pub model: String,
    /// (MG-GPU, MG-wafer, Cerebras, WATOS) useful throughput (FLOP/s).
    pub throughput: [f64; 4],
    /// Same order, iteration seconds.
    pub time: [f64; 4],
    /// WATOS recompute-throughput share (0..1 of its total).
    pub watos_recomp_share: f64,
}

/// Fig. 16 data for a set of models.
///
/// Uses a memory-pressured batch geometry (micro-batch 4) — the regime
/// the paper evaluates, where recomputation scheduling matters.
pub fn fig16_data(models: Vec<wsc_workload::model::LlmModel>, quick: bool) -> Vec<Fig16Row> {
    let wafer = presets::config(3);
    let gpu = presets::mg_gpu_node();
    let opts = watos_options(quick);
    models
        .into_iter()
        .map(|model| {
            let seq = model.default_seq.min(4096);
            let job = TrainingJob::with_batch(model.clone(), 512, 4, seq);
            let g = megatron_gpu(&gpu, &job);
            let mw = mg_wafer(&wafer, &job);
            let cb = weight_streaming(&wafer, &job);
            let wa = explore_one(&wafer, &job, &opts);
            let (mw_tp, mw_t) = mw
                .as_ref()
                .map(|r| {
                    (
                        r.report.useful_throughput.as_f64(),
                        r.report.iteration.as_secs(),
                    )
                })
                .unwrap_or((0.0, f64::INFINITY));
            let (wa_tp, wa_t, share) = wa
                .as_ref()
                .map(|r| {
                    let total = r.report.throughput.as_f64();
                    let useful = r.report.useful_throughput.as_f64();
                    (
                        useful,
                        r.report.iteration.as_secs(),
                        ((total - useful) / total.max(1e-9)).max(0.0),
                    )
                })
                .unwrap_or((0.0, f64::INFINITY, 0.0));
            Fig16Row {
                model: job.model.name.clone(),
                throughput: [
                    g.useful_throughput.as_f64(),
                    mw_tp,
                    cb.useful_throughput.as_f64(),
                    wa_tp,
                ],
                time: [g.iteration.as_secs(), mw_t, cb.iteration.as_secs(), wa_t],
                watos_recomp_share: share,
            }
        })
        .collect()
}

fn render_fig16_like(title: &str, rows: &[Fig16Row]) -> String {
    let mut out = format!("{title}\n");
    let mut t = TextTable::new(vec![
        "model",
        "MG norm tput",
        "MW norm tput",
        "C norm tput",
        "W norm tput",
        "W recomp share",
        "MG time",
        "MW time",
        "C time",
        "W time",
    ]);
    let mut gains_mg = Vec::new();
    let mut gains_mw = Vec::new();
    let mut gains_c = Vec::new();
    for r in rows {
        let norm = normalize_min1(&r.throughput);
        gains_mg.push(r.throughput[3] / r.throughput[0].max(1e-9));
        gains_mw.push(r.throughput[3] / r.throughput[1].max(1e-9));
        gains_c.push(r.throughput[3] / r.throughput[2].max(1e-9));
        let tn = normalize_min1(&r.time);
        t.row(vec![
            r.model.clone(),
            f2(norm[0]),
            f2(norm[1]),
            f2(norm[2]),
            f2(norm[3]),
            f2(r.watos_recomp_share),
            f2(tn[0]),
            f2(tn[1]),
            f2(tn[2]),
            f2(tn[3]),
        ]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.push_str(&t.render());
    out.push_str(&format!(
        "WATOS vs MG-GPU {:.2}x | vs MG-wafer {:.2}x | vs Cerebras {:.2}x (paper: 1.92x / 2.74x / 1.53x)\n",
        avg(&gains_mg),
        avg(&gains_mw),
        avg(&gains_c)
    ));
    out
}

/// Fig. 16: overall performance of MG-GPU / MG-wafer / Cerebras / WATOS.
pub fn fig16(quick: bool) -> String {
    let models = if quick {
        vec![zoo::llama2_30b(), zoo::llama3_70b()]
    } else {
        zoo::main_eval_models()
    };
    render_fig16_like(
        "Fig. 16: overall performance comparison (Config 3)",
        &fig16_data(models, quick),
    )
}

/// Fig. 17: resource-utilization comparison, WATOS TP=4 vs MG-wafer TP=8
/// on GPT-175B.
pub fn fig17(quick: bool) -> String {
    let wafer = presets::config(3);
    let job = TrainingJob::standard(zoo::gpt_175b());
    let opts = watos_options(quick);
    let wa = schedule_plan(
        &wafer,
        &job,
        &ParallelPlan::intra(4, 14, TpSplitStrategy::SequenceParallel),
        &opts,
        None,
        &ProfileCache::new(),
    )
    .expect("watos tp4");
    let mw = mg_wafer(&wafer, &job).expect("mg wafer");
    let mut t = TextTable::new(vec![
        "system",
        "TP",
        "DRAM util",
        "D2D util",
        "compute util",
    ]);
    t.row(vec![
        "WATOS".to_string(),
        wa.parallel.tp.to_string(),
        f2(wa.report.dram_utilization),
        f2(wa.report.d2d_utilization),
        f2(wa.report.compute_utilization),
    ]);
    t.row(vec![
        "MG-wafer".to_string(),
        mw.parallel.tp.to_string(),
        f2(mw.report.dram_utilization),
        f2(mw.report.d2d_utilization),
        f2(mw.report.compute_utilization),
    ]);
    format!(
        "Fig. 17: utilization, WATOS (TP=4) vs MG-wafer (TP=8), GPT-175B\n{}compute-util ratio MG/WATOS: {:.2} (paper: ~0.4)\n",
        t.render(),
        mw.report.compute_utilization / wa.report.compute_utilization.max(1e-9)
    )
}

/// Fig. 18 data: iteration time under the ablation ladder B/+R/+M/+GA.
pub fn fig18_data(model: wsc_workload::model::LlmModel, quick: bool) -> Vec<(String, f64)> {
    let wafer = presets::config(3);
    let seq = model.default_seq.min(4096);
    let job = TrainingJob::with_batch(model, 512, 4, seq);
    let base = SchedulerOptions {
        ga: None,
        strategies: vec![TpSplitStrategy::Megatron],
        recompute: RecomputeMode::Naive,
        memory_scheduler: false,
        ..SchedulerOptions::default()
    };
    let ladder: Vec<(&str, SchedulerOptions)> = vec![
        ("B", base.clone()),
        (
            "+R",
            SchedulerOptions {
                recompute: RecomputeMode::Gcmr,
                ..base.clone()
            },
        ),
        (
            "+M",
            SchedulerOptions {
                recompute: RecomputeMode::Gcmr,
                memory_scheduler: true,
                ..base.clone()
            },
        ),
        (
            "+GA",
            SchedulerOptions {
                recompute: RecomputeMode::Gcmr,
                memory_scheduler: true,
                ga: Some(GaParams {
                    population: if quick { 8 } else { 16 },
                    steps: if quick { 20 } else { 100 },
                    omega: 0.5,
                    seed: 7,
                }),
                ..base
            },
        ),
    ];
    ladder
        .into_iter()
        .map(|(label, opts)| {
            let plan = ParallelPlan::intra(8, 7, TpSplitStrategy::Megatron);
            let t = schedule_plan(&wafer, &job, &plan, &opts, None, &ProfileCache::new())
                .map(|c| c.report.iteration.as_secs())
                .unwrap_or(f64::INFINITY);
            (label.to_string(), t)
        })
        .collect()
}

/// Fig. 18: ablation study of the WATOS optimizations.
pub fn fig18(quick: bool) -> String {
    let models = if quick {
        vec![zoo::llama3_70b()]
    } else {
        zoo::main_eval_models()
    };
    let mut out = String::from("Fig. 18: ablation (baseline TP=8, PP=7 on Config 3)\n");
    for model in models {
        let name = model.name.clone();
        let data = fig18_data(model, quick);
        let mut t = TextTable::new(vec!["variant", "norm. time", "norm. throughput"]);
        let t0 = data[0].1;
        for (label, time) in &data {
            t.row(vec![label.clone(), f3(time / t0), f3(t0 / time)]);
        }
        out.push_str(&format!("\n[{name}]\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10b_dnn_beats_analytic() {
        let s = fig10b(true);
        assert!(s.contains("DNN"));
        assert!(s.contains("Analytical"));
    }

    #[test]
    fn fig11_reduction_positive() {
        let s = fig11(true);
        assert!(s.contains("reduction"));
    }

    #[test]
    fn fig18_ladder_is_monotone_improving() {
        let data = fig18_data(zoo::llama3_70b(), true);
        assert_eq!(data.len(), 4);
        // +R must not be slower than B; +M not slower than +R (small
        // tolerance for stochastic placement).
        assert!(data[1].1 <= data[0].1 * 1.001, "{data:?}");
        assert!(data[2].1 <= data[1].1 * 1.02, "{data:?}");
        assert!(data[3].1 <= data[2].1 * 1.02, "{data:?}");
    }
}
