//! Figures 19–25: DSE-method comparison, expanded parallelism space,
//! generality, robustness, mesh-switch topology, multi-wafer scaling, GA
//! trade-off and the die-granularity hardware DSE.

use crate::util::{explore_node, explore_one, ga_setup};
use crate::util::{f2, f3, normalize_min1, watos_options, TextTable};
use watos::ga::GaParams;
use watos::robust::FaultKind;
use watos::{Explorer, ProfileCache};
use wsc_arch::enumerate::die_granularity_sweep;
use wsc_arch::presets;
use wsc_baselines::dse::{run as run_dse, DseMethod};
use wsc_mesh::collective::CollectiveAlgo;
use wsc_mesh::switch::MeshSwitchTopology;
use wsc_workload::parallel::ParallelPlan;
use wsc_workload::parallel::TpSplitStrategy;
use wsc_workload::training::TrainingJob;
use wsc_workload::zoo;

/// Fig. 19: generality across emerging models.
pub fn fig19(quick: bool) -> String {
    let models = if quick {
        vec![zoo::mamba_2_8b(), zoo::gr_24()]
    } else {
        zoo::emerging_models()
    };
    let rows = super::evaluation::fig16_data(models, quick);
    let mut out = String::from("Fig. 19: WATOS on emerging models (Config 3)\n");
    let mut t = TextTable::new(vec!["model", "MG", "MW", "C", "WATOS (norm tput)"]);
    for r in &rows {
        let norm = normalize_min1(&r.throughput);
        t.row(vec![
            r.model.clone(),
            f2(norm[0]),
            f2(norm[1]),
            f2(norm[2]),
            f2(norm[3]),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Fig. 20 data: normalized throughput of every DSE method for one model.
pub fn fig20_data(model: wsc_workload::model::LlmModel, _quick: bool) -> Vec<(String, f64)> {
    let wafer = presets::config(3);
    let job = TrainingJob::standard(model);
    DseMethod::all()
        .into_iter()
        .map(|m| {
            let tput = run_dse(m, &wafer, &job)
                .map(|c| c.report.useful_throughput.as_f64())
                .unwrap_or(0.0);
            (m.label().to_string(), tput)
        })
        .collect()
}

/// Fig. 20: WATOS vs seven prior DSE frameworks.
pub fn fig20(quick: bool) -> String {
    let models = if quick {
        vec![zoo::llama2_30b()]
    } else {
        zoo::main_eval_models()
    };
    let mut out = String::from("Fig. 20: DSE-method comparison (Config 3)\n");
    for model in models {
        let name = model.name.clone();
        let data = fig20_data(model, quick);
        let tputs: Vec<f64> = data.iter().map(|d| d.1).collect();
        let norm = normalize_min1(&tputs);
        let mut t = TextTable::new(vec!["method", "norm. throughput"]);
        for (i, (label, _)) in data.iter().enumerate() {
            t.row(vec![label.clone(), f3(norm[i])]);
        }
        out.push_str(&format!("\n[{name}]\n{}", t.render()));
    }
    out
}

/// Fig. 21: expanded parallelism search space (1D TP / 2D TP / TACOS).
pub fn fig21(quick: bool) -> String {
    let wafer = presets::config(3);
    let models = if quick {
        vec![zoo::llama2_30b()]
    } else {
        vec![zoo::llama2_30b(), zoo::gpt_175b()]
    };
    let mut out = String::from("Fig. 21: TP-strategy space expansion (Config 3)\n");
    for model in models {
        let name = model.name.clone();
        let job = TrainingJob::standard(model);
        let mut t = TextTable::new(vec![
            "TP space",
            "best config",
            "norm. time",
            "all-reduce share",
        ]);
        let variants: Vec<(&str, Vec<CollectiveAlgo>, bool)> = vec![
            ("1D TP", vec![CollectiveAlgo::RingBi], false),
            (
                "2D TP",
                vec![CollectiveAlgo::TwoDimensional, CollectiveAlgo::RingBi],
                false,
            ),
            (
                "TACOS",
                vec![
                    CollectiveAlgo::RingBi,
                    CollectiveAlgo::RingBiOdd,
                    CollectiveAlgo::Tacos,
                ],
                true,
            ),
        ];
        let mut results = Vec::new();
        for (label, collectives, odd) in variants {
            let mut opts = watos_options(true);
            opts.collectives = collectives;
            opts.allow_odd_tp = odd;
            let best = explore_one(&wafer, &job, &opts);
            results.push((label, best));
        }
        let times: Vec<f64> = results
            .iter()
            .map(|(_, b)| {
                b.as_ref()
                    .map(|c| c.report.iteration.as_secs())
                    .unwrap_or(f64::INFINITY)
            })
            .collect();
        let norm = normalize_min1(&times);
        for (i, (label, best)) in results.iter().enumerate() {
            let (cfg, share) = best
                .as_ref()
                .map(|c| {
                    (
                        format!("{} {:?}", c.parallel, c.collective),
                        c.report.comm_time.as_secs() / c.report.iteration.as_secs(),
                    )
                })
                .unwrap_or(("-".into(), 0.0));
            t.row(vec![label.to_string(), cfg, f3(norm[i]), f2(share)]);
        }
        out.push_str(&format!("\n[{name}]\n{}", t.render()));
    }
    out.push_str("insight: the expanded space does not move the optimal design point\n");
    out
}

/// Fig. 22: robustness under link/die faults.
pub fn fig22(quick: bool) -> String {
    let wafer = presets::config(3);
    let job = TrainingJob::standard(zoo::llama2_30b());
    // Pin the paper's configuration point (TP=4, sequence parallel) and
    // let the facade schedule it, then sweep both fault kinds on it.
    let mut opts = watos_options(true);
    opts.tp_candidates = Some(vec![4]);
    opts.strategies = vec![TpSplitStrategy::SequenceParallel];
    opts.seed = 42;
    let rates: Vec<f64> = if quick {
        vec![0.0, 0.2, 0.4, 0.6]
    } else {
        vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    };
    let report = Explorer::builder()
        .job(job)
        .wafer(wafer)
        .options(opts)
        .with_faults([FaultKind::Link, FaultKind::Die], rates.iter().copied())
        .build()
        .expect("facade configuration is valid")
        .run();
    let mut out = String::from("Fig. 22: fault tolerance (Config 3, Llama2-30B)\n");
    for sweep in &report.fault_sweeps {
        let label = match sweep.kind {
            FaultKind::Link => "link",
            FaultKind::Die => "die",
            FaultKind::Wafer => "wafer",
        };
        let pts = &sweep.points;
        let mut t = TextTable::new(vec!["fault rate", "WATOS", "baseline"]);
        for p in pts {
            t.row(vec![f2(p.rate), f2(p.robust), f2(p.baseline)]);
        }
        let at20 = pts.iter().find(|p| (p.rate - 0.2).abs() < 1e-9);
        let gain = at20
            .map(|p| (p.robust / p.baseline.max(1e-9) - 1.0) * 100.0)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "\n[{label} faults] (normalized throughput)\n{}gain at 20% {label} fault rate: {:.0}%\n",
            t.render(),
            gain
        ));
    }
    out
}

/// Fig. 23: WATOS on the mesh-switch topology.
///
/// Stages live in 2×2 mesh groups; inter-stage (and any cross-group
/// collective) traffic rides the shared 1.6 TB/s switch. WATOS keeps TP
/// inside a group; Megatron's TP=8 spans two groups and pays switch-bound
/// all-reduces; Cerebras streams weights through the switch.
pub fn fig23(quick: bool) -> String {
    use watos::stage::boundary_bytes;
    use wsc_arch::units::Bytes;
    use wsc_mesh::collective::{all_reduce_time, GroupShape};
    use wsc_pipeline::onefb::{simulate, StageTiming};

    let topo = MeshSwitchTopology::fig23();
    // A group looks like a tiny 2×2 wafer of Config-3 dies.
    let group_wafer = {
        let mut w = presets::config(3);
        w.nx = 2;
        w.ny = 2;
        w.name = "Config3-mesh-switch-group".into();
        w
    };
    let models = if quick {
        vec![zoo::llama2_30b()]
    } else {
        zoo::main_eval_models()
    };
    let mut out = format!(
        "Fig. 23: mesh-switch topology ({} groups of {} dies, {} switch)\n",
        topo.groups,
        topo.group_mesh.len(),
        topo.switch_bw
    );
    for model in models {
        let name = model.name.clone();
        let job = TrainingJob::standard(model);
        let link_bw = group_wafer.d2d_link_bw();
        let alpha = group_wafer.d2d_link_latency;
        let cache = ProfileCache::new();

        // Evaluate one system: TP inside/spanning groups, PP via switch.
        let run = |tp: usize, pp: usize, tp_crosses_switch: bool, extra: f64| -> f64 {
            if pp > job.model.layers || pp == 0 {
                return f64::INFINITY;
            }
            let plan = ParallelPlan::intra(tp, pp, TpSplitStrategy::SequenceParallel);
            let n_mb = job.microbatches(1);
            let stages = cache.stage_profiles(&group_wafer, &job, &plan, n_mb);
            // Memory check: modelP must fit the group dies.
            let cap = group_wafer.dram.capacity;
            if stages.iter().any(|s| s.model_p > cap) {
                return f64::INFINITY;
            }
            let boundary = boundary_bytes(&job, &plan.sharding_ctx(&job));
            let timings: Vec<StageTiming> = stages
                .iter()
                .map(|sp| {
                    let coll = |bytes: Bytes, n_coll: usize| {
                        if tp_crosses_switch {
                            // Half of each ring step crosses the switch,
                            // shared by the concurrently-communicating
                            // stages.
                            topo.inter_group_time(bytes, pp.min(topo.groups))
                        } else {
                            all_reduce_time(
                                CollectiveAlgo::RingBi,
                                GroupShape::new(2, 2),
                                bytes / n_coll.max(1) as u64,
                                link_bw,
                                alpha,
                            )
                            .scale(n_coll as f64)
                        }
                    };
                    StageTiming {
                        fwd: sp.fwd_compute + coll(sp.fwd_comm_bytes, sp.fwd_collectives),
                        bwd: sp.bwd_compute + coll(sp.bwd_comm_bytes, sp.bwd_collectives),
                        p2p: topo.inter_group_time(boundary, 2),
                    }
                })
                .collect();
            simulate(&timings, n_mb).as_secs() + extra
        };

        // WATOS: TP=4 in-group, 12 pipeline stages across groups.
        let w_t = run(4, topo.groups.min(job.model.layers), false, 0.0);
        // Megatron: TP=8 across two groups, 6 stages.
        let m_t = run(8, (topo.groups / 2).min(job.model.layers), true, 0.0);
        // Cerebras: weight streaming through the switch.
        let stream = 3.0 * job.model.total_params() * 2.0 / topo.switch_bw.as_bytes_per_s();
        let c_t = run(4, topo.groups.min(job.model.layers), false, stream) * 1.1;

        let tput: Vec<f64> = [w_t, m_t, c_t]
            .iter()
            .map(|t| if t.is_finite() { 1.0 / t } else { 0.0 })
            .collect();
        let norm = normalize_min1(&tput);
        let mut t = TextTable::new(vec!["system", "norm. throughput"]);
        for (label, n) in ["WATOS", "Megatron", "Cerebras"].iter().zip(&norm) {
            t.row(vec![label.to_string(), f2(*n)]);
        }
        out.push_str(&format!("\n[{name}]\n{}", t.render()));
    }
    out
}

/// Fig. 24a: multi-wafer scaling vs the Megatron GPU cluster.
pub fn fig24a(quick: bool) -> String {
    let models = if quick {
        vec![zoo::gpt_175b()]
    } else {
        vec![zoo::gpt_175b(), zoo::llama3_405b(), zoo::deepseek_v3()]
    };
    let fast = presets::multi_wafer_18();
    let slow = presets::multi_wafer_4();
    let mut gpu = presets::mg_gpu_node();
    gpu.gpus = 32; // four 8-GPU servers
    let mut out = String::from("Fig. 24a: multi-wafer node (4x Config 3) vs 4x 8-GPU Megatron\n");
    let mut t = TextTable::new(vec![
        "model",
        "Megatron",
        "WATOS-4 (0.4TB/s W2W)",
        "WATOS-18 (1.8TB/s W2W)",
    ]);
    for model in models {
        let job = TrainingJob::standard(model.clone());
        let g = wsc_baselines::gpu::megatron_gpu(&gpu, &job);
        let w18 = explore_node(&fast, &job);
        let w4 = explore_node(&slow, &job);
        let tputs = [
            g.useful_throughput.as_f64(),
            w4.as_ref()
                .map(|r| r.useful_throughput.as_f64())
                .unwrap_or(0.0),
            w18.as_ref()
                .map(|r| r.useful_throughput.as_f64())
                .unwrap_or(0.0),
        ];
        let norm = normalize_min1(&tputs);
        t.row(vec![
            model.name.clone(),
            f2(norm[0]),
            f2(norm[1]),
            f2(norm[2]),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// Run the GA directly and return its normalized improvement history.
pub fn ga_history(
    wafer: &wsc_arch::wafer::WaferConfig,
    job: &TrainingJob,
    omega: f64,
    steps: usize,
) -> Vec<f64> {
    let s = ga_setup(wafer, job, 4, 14);
    let r = watos::ga::refine_with_model(
        &s.mesh,
        &s.stages,
        &s.plan,
        &s.placement,
        &s.overflow,
        &s.spare,
        s.pp_volume,
        s.capacity,
        &s.cost_model(),
        &GaParams {
            population: 12,
            steps,
            omega,
            seed: 11,
        },
    );
    let f0 = r.history.first().copied().unwrap_or(1.0);
    r.history.iter().map(|f| f0 / f.max(1e-12)).collect()
}

/// Fig. 24b: the ω elitism/diversity trade-off.
pub fn fig24b(quick: bool) -> String {
    let steps = if quick { 30 } else { 100 };
    let wafer = presets::config(3);
    let job = TrainingJob::with_batch(zoo::llama3_70b(), 512, 4, 4096);
    let mut out = String::from("Fig. 24b: GA convergence vs elitism proportion ω\n");
    let mut t = TextTable::new(vec!["omega", "step 10", "mid", "final"]);
    for omega in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let hist = ga_history(&wafer, &job, omega, steps);
        let pick = |i: usize| {
            hist.get(i.min(hist.len().saturating_sub(1)))
                .copied()
                .unwrap_or(1.0)
        };
        t.row(vec![
            f2(omega),
            f3(pick(10)),
            f3(pick(steps / 2)),
            f3(pick(steps)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("(values are normalized fitness improvements; ω=1 converges fastest, lower ω ends better)\n");
    out
}

/// Fig. 25: die-granularity hardware DSE.
pub fn fig25(quick: bool) -> String {
    let points = die_granularity_sweep();
    let models = if quick {
        vec![zoo::llama3_70b()]
    } else {
        vec![zoo::llama3_70b(), zoo::deepseek_v3()]
    };
    let mut out = String::from("Fig. 25: die-granularity DSE (objective: memory x throughput)\n");
    for model in models {
        let name = model.name.clone();
        let job = TrainingJob::standard(model);
        let mut t = TextTable::new(vec![
            "class",
            "points",
            "best norm tput",
            "best norm mem",
            "best objective",
        ]);
        use std::collections::BTreeMap;
        let mut by_class: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut max_tput: f64 = 1e-12;
        let mut max_mem: f64 = 1e-12;
        let mut evals = Vec::new();
        for p in &points {
            // Rectangular dies bottleneck the mesh on their short facing
            // edge: per-direction link bandwidth scales with the minimum
            // die edge, not the perimeter-derived average.
            let w = p.wafer.die.width.as_f64();
            let h = p.wafer.die.height.as_f64();
            let edge_factor = w.min(h) / ((w + h) / 2.0);
            let mut opts = watos_options(true);
            opts.tp_candidates = Some(vec![4]);
            let tput = if quick {
                // Roofline proxy.
                let peak = p.wafer.total_flops().as_f64();
                let d2d = p.wafer.d2d_per_die.as_bytes_per_s() * edge_factor;
                let comm_bonus = d2d / (d2d + 2.0e12);
                peak * 0.45 * comm_bonus
            } else {
                explore_one(&p.wafer, &job, &opts)
                    .map(|c| {
                        // Scale the exposed-comm share by the edge factor.
                        let r = &c.report;
                        let comm = r.comm_time.as_secs() / edge_factor;
                        let iter = r.comp_time.as_secs() + comm + r.bubble_time.as_secs();
                        r.useful_flops.as_f64() / iter.max(1e-9)
                    })
                    .unwrap_or_else(|| p.wafer.total_flops().as_f64() * 0.2)
            };
            let mem = p.wafer.total_dram().as_f64();
            max_tput = max_tput.max(tput);
            max_mem = max_mem.max(mem);
            evals.push((p.class.to_string(), tput, mem));
        }
        for (class, tput, mem) in evals {
            by_class
                .entry(class)
                .or_default()
                .push((tput / max_tput, mem / max_mem));
        }
        // BTreeMap drains in class order, so the figure rows are
        // deterministic without a separate sort.
        let classes: Vec<_> = by_class.into_iter().collect();
        let mut best_class = (String::new(), 0.0f64);
        for (class, pts) in &classes {
            let best = pts.iter().map(|(t, m)| (t * m, *t, *m)).fold(
                (0.0f64, 0.0f64, 0.0f64),
                |acc, v| if v.0 > acc.0 { v } else { acc },
            );
            if best.0 > best_class.1 {
                best_class = (class.clone(), best.0);
            }
            t.row(vec![
                class.clone(),
                pts.len().to_string(),
                f3(best.1),
                f3(best.2),
                f3(best.0),
            ]);
        }
        out.push_str(&format!(
            "\n[{name}]\n{}optimal class: {} (paper: Small Square)\n",
            t.render(),
            best_class.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig20_watos_is_at_top() {
        let data = fig20_data(zoo::llama2_30b(), true);
        let watos = data.iter().find(|d| d.0 == "WATOS").expect("present").1;
        let max = data.iter().map(|d| d.1).fold(0.0f64, f64::max);
        assert!(watos >= max * 0.999, "WATOS {watos} vs max {max}");
    }

    #[test]
    fn fig22_text_has_gains() {
        let s = fig22(true);
        assert!(s.contains("gain at 20%"));
    }

    #[test]
    fn fig24b_low_omega_ends_at_least_as_good() {
        let wafer = presets::config(3);
        let job = TrainingJob::with_batch(zoo::llama3_70b(), 512, 4, 4096);
        let greedy = ga_history(&wafer, &job, 1.0, 25);
        let diverse = ga_history(&wafer, &job, 0.25, 25);
        let g_final = greedy.last().copied().unwrap_or(1.0);
        let d_final = diverse.last().copied().unwrap_or(1.0);
        assert!(
            d_final >= g_final * 0.9,
            "diverse {d_final} vs greedy {g_final}"
        );
    }

    #[test]
    fn fig25_small_square_is_competitive() {
        let s = fig25(true);
        assert!(s.contains("Small Square"));
    }
}
