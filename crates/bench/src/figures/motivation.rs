//! Figures 5–8: the motivation studies (parallelism mismatch, memory
//! imbalance, FSDP, offloading, checkpoint types, GCMR vs naive).

use crate::util::{f2, f3, normalize_min1, TextTable};
use watos::scheduler::{schedule_plan, RecomputeMode, SchedulerOptions};
use watos::ProfileCache;
use wsc_arch::dram::DramStack;
use wsc_arch::presets;
use wsc_arch::units::{Bandwidth, Bytes, Time};
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{ring_busy_links, ring_link_utilization, GroupShape};
use wsc_pipeline::gcmr::gcmr;
use wsc_pipeline::onefb::{simulate, StageTiming};
use wsc_pipeline::recompute::{naive_recompute, planned_memory, StageRecomputeInput};
use wsc_sim::op_cost::DieModel;
use wsc_sim::profile::{profile_layer, RecomputeMenu};
use wsc_workload::graph::{self, ShardingCtx};
use wsc_workload::memory::pipeline_memory;
use wsc_workload::parallel::ParallelPlan;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// The Fig. 5 wafer: an 8×8 grid of big dies with 96 GB each (§V-B).
pub fn fig5_wafer() -> WaferConfig {
    WaferConfig {
        name: "fig5-8x8-96GB".into(),
        nx: 8,
        ny: 8,
        die: presets::big_die(),
        dram: DramStack::new(Bytes::gib(96), Bandwidth::tb_per_s(2.0)),
        d2d_per_die: Bandwidth::tb_per_s(4.0),
        d2d_link_latency: Time::from_nanos(presets::WSC_HOP_LATENCY_NS),
        host_link_bw: Bandwidth::gb_per_s(presets::HOST_PCIE_GBPS),
    }
}

/// Fig. 5a data: iteration time for (TP, PP) sweeps on 32 and 64 dies.
pub fn fig5a_data(model: wsc_workload::model::LlmModel, dies: usize) -> Vec<(String, f64)> {
    let wafer = fig5_wafer();
    let job = TrainingJob::with_batch(model, 512, 2, 4096);
    let opts = SchedulerOptions {
        ga: None,
        strategies: vec![TpSplitStrategy::Megatron],
        recompute: RecomputeMode::Gcmr,
        memory_scheduler: true,
        ..SchedulerOptions::default()
    };
    let combos: Vec<(usize, usize)> = match dies {
        32 => vec![(16, 2), (8, 4), (4, 8), (2, 16)],
        64 => vec![(16, 4), (8, 8), (4, 16), (2, 32)],
        _ => panic!("Fig. 5a uses 32 or 64 dies"),
    };
    combos
        .into_iter()
        .map(|(tp, pp)| {
            let label = format!("({tp},{pp})");
            let plan = ParallelPlan::intra(tp, pp, TpSplitStrategy::Megatron);
            let t = schedule_plan(&wafer, &job, &plan, &opts, None, &ProfileCache::new())
                .map(|cfg| cfg.report.iteration.as_secs())
                .unwrap_or(f64::INFINITY);
            (label, t)
        })
        .collect()
}

/// Fig. 5a: current frameworks' parallelism is suboptimal on WSCs.
pub fn fig5a(_quick: bool) -> String {
    let mut out = String::from(
        "Fig. 5a: iteration time vs (TP,PP); MG-optimal is TP=8 — the wafer prefers smaller TP\n",
    );
    for (model, dies) in [(zoo::llama2_30b(), 32usize), (zoo::llama3_70b(), 64usize)] {
        let name = model.name.clone();
        let data = fig5a_data(model, dies);
        let times: Vec<f64> = data.iter().map(|d| d.1).collect();
        let norm = normalize_min1(&times);
        let mut t = TextTable::new(vec!["(TP,PP)", "norm. time", "note"]);
        let best = data
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).expect("finite-ish"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        for (i, (label, _)) in data.iter().enumerate() {
            let mut note = String::new();
            if label.starts_with("(8,") {
                note.push_str("MG-optimal");
            }
            if i == best {
                if !note.is_empty() {
                    note.push(' ');
                }
                note.push_str("<- real optimal");
            }
            t.row(vec![label.clone(), f3(norm[i]), note]);
        }
        out.push_str(&format!("\n[{name}, {dies} dies]\n{}", t.render()));
    }
    out
}

/// Fig. 5b: NoC link utilization of ring all-reduce, TP=8 vs TP=4.
pub fn fig5b(_quick: bool) -> String {
    let mut t = TextTable::new(vec![
        "TP group",
        "shape",
        "busy links",
        "rect links",
        "utilization",
    ]);
    for (tp, shape) in [(8usize, GroupShape::new(2, 4)), (4, GroupShape::new(2, 2))] {
        t.row(vec![
            format!("TP={tp}"),
            format!("{}x{}", shape.w, shape.h),
            ring_busy_links(shape, true).to_string(),
            shape.directed_links().to_string(),
            f2(ring_link_utilization(shape, true)),
        ]);
    }
    format!(
        "Fig. 5b: TP=8 leaves mesh links idle during ring all-reduce; TP=4 saturates its tile\n{}",
        t.render()
    )
}

/// Fig. 5c: per-stage memory breakdown, Llama-30B, TP=4, PP=8, 96 GB/die.
pub fn fig5c(_quick: bool) -> String {
    let model = zoo::llama2_30b();
    let job = TrainingJob::with_batch(model.clone(), 512, 4, 4096);
    let ctx = ShardingCtx::new(job.micro_batch, job.seq, 4, TpSplitStrategy::Megatron);
    let mems = pipeline_memory(&model, &ctx, 8, job.microbatches(1));
    let cap = 96.0;
    let mut t = TextTable::new(vec![
        "stage",
        "activation",
        "weight",
        "gradient",
        "optimizer",
        "underutilized",
    ]);
    for m in &mems {
        let used = m.total().as_gib().min(cap);
        t.row(vec![
            format!("{}", m.stage + 1),
            format!("{:.1} GB", m.activations.as_gib().min(cap)),
            format!("{:.1} GB", m.weights.as_gib()),
            format!("{:.1} GB", m.gradients.as_gib()),
            format!("{:.1} GB", m.optimizer.as_gib()),
            format!("{:.1} GB", (cap - used).max(0.0)),
        ]);
    }
    let first = &mems[0];
    let frac = first.activations.as_f64() / first.total().as_f64();
    format!(
        "Fig. 5c: 1F1B memory skew (TP=4, PP=8, 96 GB/die)\n{}stage-1 activation share: {:.0}% (paper: >70%)\n",
        t.render(),
        frac * 100.0
    )
}

/// Fig. 6a: TP vs FSDP ablation.
pub fn fig6a(_quick: bool) -> String {
    let wafer = presets::config(3);
    let mut t = TextTable::new(vec![
        "model",
        "comp (s)",
        "TP comm (s)",
        "FSDP comm (s)",
        "TP BW util",
        "FSDP BW util",
    ]);
    for model in [zoo::llama2_30b(), zoo::llama3_70b(), zoo::gpt_175b()] {
        let job = TrainingJob::standard(model);
        let c = wsc_baselines::fsdp::compare(&wafer, &job, 8);
        t.row(vec![
            c.model.clone(),
            f3(c.comp_time.as_secs()),
            f3(c.tp_comm.as_secs()),
            f3(c.fsdp_comm.as_secs()),
            f2(c.tp_bw_util),
            f2(c.fsdp_bw_util),
        ]);
    }
    format!(
        "Fig. 6a: FSDP congests the 2D mesh (20-40% bandwidth-utilization drop vs TP)\n{}",
        t.render()
    )
}

/// Fig. 6b: recomputation vs offloading.
pub fn fig6b(_quick: bool) -> String {
    let wafer = presets::config(3);
    let mut t = TextTable::new(vec![
        "model",
        "comp (s)",
        "recomp (s)",
        "offload (s)",
        "offload/recomp wall-time",
    ]);
    let mut slowdowns = Vec::new();
    for model in [zoo::llama2_30b(), zoo::llama3_70b(), zoo::gpt_175b()] {
        let seq = model.default_seq;
        let job = TrainingJob::with_batch(model, 512, 8, seq);
        let c = wsc_baselines::offload::compare(&wafer, &job, 4, 14);
        slowdowns.push(c.slowdown());
        t.row(vec![
            c.model.clone(),
            f3(c.comp_time.as_secs()),
            f3(c.recompute_time.as_secs()),
            f3(c.offload_time.as_secs()),
            f2(c.slowdown()),
        ]);
    }
    let avg = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
    format!(
        "Fig. 6b: offloading over 160 GB/s PCIe vs recomputation\n{}average wall-time inflation: {:.2}x (paper: 2.2x)\n",
        t.render(),
        avg
    )
}

/// Fig. 7: the three checkpoint strategies' resource demands (Llama-7B,
/// TP=2).
pub fn fig7(_quick: bool) -> String {
    let model = zoo::llama_7b();
    let ctx = ShardingCtx::new(4, 4096, 2, TpSplitStrategy::Megatron);
    let ops = graph::layer_ops_at(&model, 0, &ctx);
    let dm = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0));
    // L1 = attention block, L2 = FFN up+act, L3 = FFN down (coarse graph).
    let storage_all: f64 = ops.iter().map(|o| o.output_bytes.as_f64()).sum();
    let attn_ops = ["norm1", "qkv_proj", "flash_attn", "attn_out"];
    let ffn_ops = ["norm2", "ffn_up", "act"];
    let group_cost = |names: &[&str]| -> (f64, f64, f64) {
        let mut bytes = 0.0;
        let mut flops = 0.0;
        let mut time = 0.0;
        for o in ops.iter().filter(|o| names.contains(&o.name.as_str())) {
            bytes += o.output_bytes.as_f64();
            flops += o.fwd_flops.as_f64();
            time += dm.op_cost(o).time.as_secs();
        }
        (bytes, flops, time)
    };
    let (b_attn, f_attn, _) = group_cost(&attn_ops);
    let (b_ffn, f_ffn, _) = group_cost(&ffn_ops);
    let mut t = TextTable::new(vec![
        "strategy",
        "storage (MB)",
        "recompute (GFLOP)",
        "comm delta",
    ]);
    t.row(vec![
        "Type 0 (store all)".to_string(),
        f2(storage_all / 1e6),
        "0".to_string(),
        "0".to_string(),
    ]);
    t.row(vec![
        "Type 1 (recompute L2/FFN)".to_string(),
        f2((storage_all - b_ffn) / 1e6),
        f2(f_ffn / 1e9),
        "0".to_string(),
    ]);
    t.row(vec![
        "Type 2 (recompute L1/attn)".to_string(),
        f2((storage_all - b_attn) / 1e6),
        f2(f_attn / 1e9),
        "+1 all-reduce".to_string(),
    ]);
    format!(
        "Fig. 7: checkpoint strategies trade storage, compute and communication (Llama-7B, TP=2)\n{}",
        t.render()
    )
}

fn fig8_inputs() -> Vec<StageRecomputeInput> {
    // A 3-stage pipeline with heavy memory pressure (the Fig. 8 cartoon).
    let dm = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0));
    let model = zoo::llama2_30b();
    let ctx = ShardingCtx::new(8, 4096, 4, TpSplitStrategy::Megatron);
    let prof = profile_layer(&dm, &graph::layer_ops_at(&model, 0, &ctx));
    let layers = 20;
    (0..3)
        .map(|s| StageRecomputeInput {
            menu: RecomputeMenu::from_layer_profile(&prof, layers),
            model_p: wsc_workload::memory::model_p_per_die(&model, 4, 3, s),
            ckpt_per_mb: prof.full_ckpt_bytes() * layers as u64,
            in_flight: 3 - s,
            base_mb_time: (prof.fwd_time() + prof.bwd_time()).scale(layers as f64),
        })
        .collect()
}

/// Fig. 8: naive recomputation vs GCMR — bubbles and memory utilization.
pub fn fig8(_quick: bool) -> String {
    let inputs = fig8_inputs();
    let cap = Bytes::gib(70);
    let n_mb = 5;
    let naive = naive_recompute(&inputs, cap);
    let plan = gcmr(&inputs, cap, 16);
    let run = |rt: &[Time]| {
        let stages: Vec<StageTiming> = inputs
            .iter()
            .zip(rt)
            .map(|(i, r)| StageTiming {
                fwd: i.base_mb_time.scale(1.0 / 3.0),
                bwd: i.base_mb_time.scale(2.0 / 3.0) + *r,
                p2p: Time::ZERO,
            })
            .collect();
        simulate(&stages, n_mb)
    };
    let t_naive = run(&naive.recompute_time);
    let t_gcmr = run(&plan.recompute_time);
    let mem_naive = planned_memory(&inputs, &naive);
    let mem_gcmr = planned_memory(&inputs, &plan.as_recompute_plan());
    let util = |mems: &[Bytes]| -> f64 {
        mems.iter()
            .map(|m| m.as_f64().min(cap.as_f64()))
            .sum::<f64>()
            / (cap.as_f64() * mems.len() as f64)
    };
    let mut t = TextTable::new(vec![
        "strategy",
        "iteration (s)",
        "bubble frac",
        "mem util",
        "recompute total (s/mb)",
    ]);
    t.row(vec![
        "naive".to_string(),
        f3(t_naive.iteration.as_secs()),
        f2(t_naive.bubble_fraction()),
        f2(util(&mem_naive)),
        f3(naive.total_recompute().as_secs()),
    ]);
    t.row(vec![
        "GCMR".to_string(),
        f3(t_gcmr.iteration.as_secs()),
        f2(t_gcmr.bubble_fraction()),
        f2(util(&mem_gcmr)),
        f3(plan.as_recompute_plan().total_recompute().as_secs()),
    ]);
    format!(
        "Fig. 8: GCMR balances recomputation globally (3 stages, 5 micro-batches)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_small_tp_wins_on_mesh() {
        let data = fig5a_data(zoo::llama2_30b(), 32);
        let best = data
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite-ish"))
            .expect("nonempty");
        // Real optimum is not TP=16; paper finds (4,8) beats MG's (8,4).
        assert!(!best.0.starts_with("(16"), "best {:?}", best);
        let t48 = data.iter().find(|d| d.0 == "(4,8)").expect("present").1;
        let t84 = data.iter().find(|d| d.0 == "(8,4)").expect("present").1;
        assert!(t48.is_finite() && t84.is_finite());
    }

    #[test]
    fn fig5b_tp4_utilization_is_full() {
        let s = fig5b(true);
        assert!(s.contains("1.00"));
    }

    #[test]
    fn fig5c_shows_skew() {
        let s = fig5c(true);
        assert!(s.contains("activation share"));
    }

    #[test]
    fn fig8_gcmr_no_worse_than_naive() {
        let inputs = fig8_inputs();
        let cap = Bytes::gib(70);
        let naive = naive_recompute(&inputs, cap);
        let plan = gcmr(&inputs, cap, 16);
        let max_naive = inputs
            .iter()
            .zip(&naive.recompute_time)
            .map(|(i, r)| i.base_mb_time.as_secs() + r.as_secs())
            .fold(0.0f64, f64::max);
        let max_gcmr = inputs
            .iter()
            .zip(&plan.recompute_time)
            .map(|(i, r)| i.base_mb_time.as_secs() + r.as_secs())
            .fold(0.0f64, f64::max);
        assert!(max_gcmr <= max_naive * 1.001);
    }

    #[test]
    fn fig7_type0_stores_most() {
        let s = fig7(true);
        assert!(s.contains("Type 0"));
        assert!(s.contains("Type 2"));
    }
}
