//! Figures 1, 2 and Table II: the motivating comparisons.

use crate::util::{f2, f3, TextTable};
use watos::evaluator::{evaluate, EvalInput, EvalOptions};
use watos::placement::{choose_tile, serpentine};
use watos::ProfileCache;
use wsc_arch::presets;
use wsc_baselines::gpu::evaluate_gpu;
use wsc_pipeline::recompute::RecomputePlan;
use wsc_workload::parallel::{ParallelPlan, ParallelSpec, TpSplitStrategy};
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// Table II: the four representative hardware configurations.
pub fn table2(_quick: bool) -> String {
    let mut t = TextTable::new(vec![
        "Config",
        "#Die",
        "Grid",
        "TFLOPS/die",
        "DRAM BW",
        "DRAM/die",
        "D2D BW",
    ]);
    for cfg in presets::table_ii_configs() {
        t.row(vec![
            cfg.name.clone(),
            cfg.die_count().to_string(),
            format!("({}, {})", cfg.nx, cfg.ny),
            format!("{:.0}", cfg.die.peak_flops().as_tflops()),
            format!("{}", cfg.dram.bandwidth),
            format!("{:.0} GB", cfg.dram.capacity.as_gib()),
            format!("{}", cfg.d2d_per_die),
        ]);
    }
    format!(
        "Table II: representative hardware configurations\n{}",
        t.render()
    )
}

/// One platform-comparison row of Fig. 1: (comp, exposed comm) per config.
pub struct Fig1Row {
    /// Parallelism label, paper notation.
    pub config: String,
    /// GPU compute seconds.
    pub gpu_comp: f64,
    /// GPU exposed communication seconds.
    pub gpu_comm: f64,
    /// Wafer compute seconds.
    pub wafer_comp: f64,
    /// Wafer exposed communication seconds.
    pub wafer_comm: f64,
}

/// Raw Fig. 1 data for one model.
pub fn fig1_data(model: wsc_workload::model::LlmModel) -> Vec<Fig1Row> {
    let job = TrainingJob::standard(model);
    let wafer = presets::config(3);
    let gpu = presets::nvl72_gb300(56);
    let cache = ProfileCache::new();
    let mut rows = Vec::new();
    for (dp, tp, pp) in [(1usize, 4usize, 14usize), (1, 8, 7), (2, 4, 7), (1, 2, 28)] {
        // GPU side.
        let g = evaluate_gpu(&gpu, &job, dp, tp, pp);
        // Wafer side: evaluate the same parallelism without memory gating
        // (Fig. 1 isolates compute vs communication latency).
        let Some((tw, th)) = choose_tile(wafer.nx, wafer.ny, tp, pp) else {
            continue;
        };
        let plan = ParallelPlan::intra(tp, pp, TpSplitStrategy::Megatron);
        let parallel = ParallelSpec::new(dp, tp, pp);
        let n_mb = job.microbatches(dp);
        let stages = cache.stage_profiles(&wafer, &job, &plan, n_mb);
        let placement = serpentine(wafer.nx, wafer.ny, pp, tw, th).expect("tile chosen to fit");
        let report = evaluate(&EvalInput {
            wafer: &wafer,
            job: &job,
            parallel,
            ctx: plan.sharding_ctx(&job),
            stages: &stages,
            recompute: &RecomputePlan::none(pp),
            placement: &placement,
            grants: &[],
            faults: None,
            options: EvalOptions::default(),
            cache: Some(&cache),
        });
        rows.push(Fig1Row {
            config: format!("D({dp})T({tp})P({pp})"),
            gpu_comp: g.comp_time.as_secs(),
            gpu_comm: g.comm_time.as_secs()
                + (g.iteration - g.comp_time - g.comm_time).as_secs() * 0.5,
            wafer_comp: report.comp_time.as_secs(),
            wafer_comm: report.comm_time.as_secs(),
        });
    }
    rows
}

/// Fig. 1: normalized training latency, NVL72 GB300 rack vs 56-die WSC.
pub fn fig1(_quick: bool) -> String {
    let mut out = String::from("Fig. 1: GPU (NVL72 GB300) vs WSC training latency decomposition\n");
    for model in [zoo::llama3_70b(), zoo::deepseek_v3()] {
        let name = model.name.clone();
        let rows = fig1_data(model);
        let mut t = TextTable::new(vec![
            "Parallelism",
            "GPU comp",
            "GPU exp.comm",
            "Wafer comp",
            "Wafer exp.comm",
            "comm ratio",
        ]);
        let mut ratios = Vec::new();
        for r in &rows {
            let ratio = r.gpu_comm / r.wafer_comm.max(1e-9);
            if ratio.is_finite() && r.gpu_comp > 0.0 {
                ratios.push(ratio);
            }
            t.row(vec![
                r.config.clone(),
                f3(r.gpu_comp),
                f3(r.gpu_comm),
                f3(r.wafer_comp),
                f3(r.wafer_comm),
                f2(ratio),
            ]);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        out.push_str(&format!(
            "\n[{name}]\n{}mean effective-comm-latency reduction: {:.2}x (paper: 2.62x)\n",
            t.render(),
            mean
        ));
    }
    out
}

/// Fig. 2: potential vs real performance at each co-design step.
pub fn fig2(quick: bool) -> String {
    let wafer = presets::config(3);
    let job = TrainingJob::standard(zoo::llama2_30b());
    let potential = job.flops_per_iter().as_f64() / (wafer.total_flops().as_f64() * 0.55); // achievable-utilization bound
                                                                                           // Step 2: Megatron's strategy dropped onto the wafer, untouched.
    let mg = wsc_baselines::megatron::mg_wafer(&wafer, &job).expect("mg-wafer feasible");
    // Step 3/4: strategy-level DSE on the fixed architecture.
    let opts = crate::util::watos_options(quick);
    let wa = crate::util::explore_one(&wafer, &job, &opts).expect("watos feasible");
    let mut t = TextTable::new(vec!["Step", "Iteration (s)", "Real/Potential"]);
    t.row(vec![
        "potential (compute bound)".to_string(),
        f3(potential),
        "1.00".to_string(),
    ]);
    t.row(vec![
        "step 2: Megatron-on-wafer".to_string(),
        f3(mg.report.iteration.as_secs()),
        f2(potential / mg.report.iteration.as_secs()),
    ]);
    t.row(vec![
        "step 5: WATOS co-design".to_string(),
        f3(wa.report.iteration.as_secs()),
        f2(potential / wa.report.iteration.as_secs()),
    ]);
    format!(
        "Fig. 2: co-design closes the potential/real gap (Llama2-30B, Config 3)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_four_configs() {
        let s = table2(true);
        for c in ["Config 1", "Config 2", "Config 3", "Config 4"] {
            assert!(s.contains(c), "{s}");
        }
    }

    #[test]
    fn fig1_wafer_comm_is_lower() {
        let rows = fig1_data(zoo::llama3_70b());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.wafer_comm < r.gpu_comm,
                "{}: wafer {} vs gpu {}",
                r.config,
                r.wafer_comm,
                r.gpu_comm
            );
        }
    }

    #[test]
    fn fig2_watos_closes_gap() {
        let s = fig2(true);
        assert!(s.contains("WATOS"));
    }
}
