//! Globally Coordinated Memory-efficient Recomputation — GCMR (Alg. 2,
//! Fig. 8b/c).
//!
//! Unlike the naive strategy (each stage fits its own die), GCMR treats
//! the DRAM of the *entire pipeline* as one pool: a dynamic program walks
//! stages from last to first, allocating memory quanta to minimize the
//! maximum per-micro-batch stage time (compute + recomputation). Stages
//! whose allocation exceeds their local capacity become **Senders**; those
//! with spare capacity become **Helpers**; `Mem_pair` matches them so
//! overflowing checkpoints live in helper DRAM instead of being
//! recomputed.
//!
//! A stage's time at each point of the DP's memory grid comes from its
//! recomputation menu, the `P(m)` lookup table of §IV-F: one binary
//! search over prefix sums per point. Stages that host the same layers
//! share one menu.

use crate::recompute::{RecomputePlan, StageRecomputeInput};
use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bytes, Time};

/// One Sender→Helper checkpoint-hosting assignment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemPair {
    /// Overflowing stage.
    pub sender: usize,
    /// Hosting stage.
    pub helper: usize,
    /// Bytes hosted per iteration.
    pub bytes: Bytes,
}

/// The GCMR schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcmrPlan {
    /// Memory allocated to each stage by the DP (may exceed die capacity —
    /// that is what Senders ship to Helpers).
    pub mem_alloc: Vec<Bytes>,
    /// Checkpoint bytes freed per micro-batch per stage.
    pub saved_per_mb: Vec<Bytes>,
    /// Recompute latency added to each backward micro-batch per stage.
    pub recompute_time: Vec<Time>,
    /// The DP objective: max per-micro-batch stage time.
    pub max_stage_time: Time,
    /// Stages whose allocation exceeds local capacity.
    pub senders: Vec<usize>,
    /// Stages with spare local capacity.
    pub helpers: Vec<usize>,
    /// Sender→Helper hosting assignments.
    pub mem_pairs: Vec<MemPair>,
    /// False when even pooled memory + full recomputation cannot fit.
    pub feasible: bool,
}

impl GcmrPlan {
    /// View as a plain recomputation plan (for the pipeline simulator).
    pub fn as_recompute_plan(&self) -> RecomputePlan {
        RecomputePlan {
            saved_per_mb: self.saved_per_mb.clone(),
            recompute_time: self.recompute_time.clone(),
            feasible: self.feasible,
        }
    }
}

/// Per-stage time as a function of allocated memory, precomputed on the
/// DP's memory grid.
struct StageCurve {
    /// `time[u]` = per-micro-batch time with `u` quanta of memory.
    time: Vec<f64>,
    /// `saved[u]` = checkpoint bytes dropped per micro-batch.
    saved: Vec<Bytes>,
    /// Maximum useful quanta (allocating more changes nothing).
    max_units: usize,
}

fn build_curve(input: &StageRecomputeInput, unit: f64, total_units: usize) -> StageCurve {
    let full = input.full_memory().as_f64();
    let max_units = ((full / unit).ceil() as usize).min(total_units);
    let mut time = Vec::with_capacity(max_units + 1);
    let mut saved = Vec::with_capacity(max_units + 1);
    for u in 0..=max_units {
        let mem = u as f64 * unit;
        let overflow = (full - mem).max(0.0);
        let needed_per_mb = Bytes::new((overflow / input.in_flight.max(1) as f64).ceil() as u64);
        match input.menu.time_for_savings(needed_per_mb) {
            Some(t) => {
                time.push(input.base_mb_time.as_secs() + t.as_secs());
                saved.push(needed_per_mb);
            }
            None => {
                time.push(f64::INFINITY);
                saved.push(input.menu.max_savings());
            }
        }
    }
    StageCurve {
        time,
        saved,
        max_units,
    }
}

/// Run the GCMR dynamic program.
///
/// `capacity` is the per-die DRAM capacity; the pooled budget is
/// `capacity × stages`. `quanta_per_die` sets the DP memory resolution
/// (16 ⇒ grid steps of C/16).
pub fn gcmr(stages: &[StageRecomputeInput], capacity: Bytes, quanta_per_die: usize) -> GcmrPlan {
    let pp = stages.len();
    assert!(pp > 0, "pipeline needs at least one stage");
    let q = quanta_per_die.max(2);
    let unit = capacity.as_f64() / q as f64;
    let total_units = pp * q;

    // A stage's mandatory modelP must fit locally: checkpoints can move to
    // helpers, training state cannot.
    let model_p_fits = stages.iter().all(|s| s.model_p <= capacity);

    let curves: Vec<StageCurve> = stages
        .iter()
        .map(|s| build_curve(s, unit, total_units))
        .collect();

    // T[t][m]: best achievable max-stage-time for stages t.. with m quanta.
    // choice[t][m]: the quanta given to stage t in that optimum.
    let mut t_next = vec![0.0f64; total_units + 1];
    let mut choices: Vec<Vec<u16>> = vec![vec![0; total_units + 1]; pp];
    for t in (0..pp).rev() {
        let mut t_cur = vec![f64::INFINITY; total_units + 1];
        for m in 0..=total_units {
            let mut best = f64::INFINITY;
            let mut best_u = 0usize;
            let u_hi = curves[t].max_units.min(m);
            for u in 0..=u_hi {
                let stage_t = curves[t].time[u];
                let rest = if t + 1 < pp { t_next[m - u] } else { 0.0 };
                let v = stage_t.max(rest);
                if v < best {
                    best = v;
                    best_u = u;
                }
            }
            t_cur[m] = best;
            choices[t][m] = best_u as u16;
        }
        t_next = t_cur;
    }

    // Recover per-stage allocations from the DP choices.
    let mut mem_units = vec![0usize; pp];
    let mut m = total_units;
    for t in 0..pp {
        let u = choices[t][m] as usize;
        mem_units[t] = u;
        m -= u;
    }

    let feasible = model_p_fits && t_next[total_units].is_finite();
    let mem_alloc: Vec<Bytes> = mem_units
        .iter()
        .map(|&u| Bytes::new((u as f64 * unit).round() as u64))
        .collect();
    let saved_per_mb: Vec<Bytes> = (0..pp).map(|t| curves[t].saved[mem_units[t]]).collect();
    let recompute_time: Vec<Time> = (0..pp)
        .map(|t| {
            let total = curves[t].time[mem_units[t]];
            if total.is_finite() {
                Time::from_secs((total - stages[t].base_mb_time.as_secs()).max(0.0))
            } else {
                Time::from_secs(0.0)
            }
        })
        .collect();
    let max_stage_time = Time::from_secs(if t_next[total_units].is_finite() {
        t_next[total_units]
    } else {
        f64::INFINITY.min(1e30)
    });

    // Senders / Helpers (Alg. 2 lines 6–14).
    let mut senders: Vec<(usize, f64)> = Vec::new();
    let mut helpers: Vec<(usize, f64)> = Vec::new();
    for t in 0..pp {
        let local = mem_alloc[t].as_f64().min(stages[t].full_memory().as_f64());
        let cap = capacity.as_f64();
        if local > cap {
            senders.push((t, local - cap));
        } else if local < cap {
            helpers.push((t, cap - local));
        }
    }
    // DescendSort by memory pressure / spare capacity.
    senders.sort_by(|a, b| b.1.total_cmp(&a.1));
    helpers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let sender_ids: Vec<usize> = senders.iter().map(|s| s.0).collect();
    let helper_ids: Vec<usize> = helpers.iter().map(|h| h.0).collect();

    // Greedy Mem_pair with splitting.
    let mut mem_pairs = Vec::new();
    let mut hq: Vec<(usize, f64)> = helpers;
    for (s, mut need) in senders {
        while need > 1.0 {
            let Some((h, spare)) = hq.pop() else { break };
            let take = need.min(spare);
            mem_pairs.push(MemPair {
                sender: s,
                helper: h,
                bytes: Bytes::new(take.round() as u64),
            });
            need -= take;
            let left = spare - take;
            if left > 1.0 {
                hq.push((h, left));
                hq.sort_by(|a, b| a.1.total_cmp(&b.1));
            }
        }
    }

    GcmrPlan {
        mem_alloc,
        saved_per_mb,
        recompute_time,
        max_stage_time,
        senders: sender_ids,
        helpers: helper_ids,
        mem_pairs,
        feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recompute::naive_recompute;
    use std::sync::Arc;
    use wsc_arch::presets;
    use wsc_arch::units::Bandwidth;
    use wsc_sim::op_cost::DieModel;
    use wsc_sim::profile::{profile_layer, RecomputeMenu};
    use wsc_workload::graph::{layer_ops_at, ShardingCtx};
    use wsc_workload::parallel::TpSplitStrategy;
    use wsc_workload::zoo;

    fn inputs(pp: usize, tp: usize, mb: usize) -> Vec<StageRecomputeInput> {
        let dm = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0));
        let model = zoo::llama2_30b();
        let ctx = ShardingCtx::new(mb, 4096, tp, TpSplitStrategy::Megatron);
        let prof = profile_layer(&dm, &layer_ops_at(&model, 0, &ctx));
        (0..pp)
            .map(|s| {
                let layers = wsc_workload::memory::stage_layers(model.layers, pp, s);
                StageRecomputeInput {
                    menu: Arc::new(RecomputeMenu::for_stage(&[(&prof, layers)])),
                    model_p: wsc_workload::memory::model_p_per_die(&model, tp, pp, s),
                    ckpt_per_mb: prof.full_ckpt_bytes() * layers as u64,
                    in_flight: pp - s,
                    base_mb_time: (prof.fwd_time() + prof.bwd_time()).scale(layers as f64),
                }
            })
            .collect()
    }

    #[test]
    fn gcmr_never_loses_to_naive() {
        // The headline GCMR claim: minimal recompute via global pooling.
        let ins = inputs(8, 4, 4);
        let cap = Bytes::gib(70);
        let plan = gcmr(&ins, cap, 16);
        assert!(plan.feasible);
        let naive = naive_recompute(&ins, cap);
        let gcmr_max = (0..8)
            .map(|s| ins[s].base_mb_time.as_secs() + plan.recompute_time[s].as_secs())
            .fold(0.0f64, f64::max);
        let naive_max = (0..8)
            .map(|s| ins[s].base_mb_time.as_secs() + naive.recompute_time[s].as_secs())
            .fold(0.0f64, f64::max);
        assert!(
            gcmr_max <= naive_max * 1.001,
            "gcmr {gcmr_max} vs naive {naive_max}"
        );
    }

    #[test]
    fn pooling_reduces_total_recompute() {
        // Helpers absorb early-stage overflow, so GCMR recomputes less
        // overall than per-die-capped naive recomputation.
        let ins = inputs(8, 4, 4);
        let cap = Bytes::gib(70);
        let plan = gcmr(&ins, cap, 16);
        let naive = naive_recompute(&ins, cap);
        let gcmr_total: f64 = plan.recompute_time.iter().map(|t| t.as_secs()).sum();
        let naive_total: f64 = naive.recompute_time.iter().map(|t| t.as_secs()).sum();
        assert!(
            gcmr_total <= naive_total + 1e-12,
            "gcmr {gcmr_total} vs naive {naive_total}"
        );
    }

    #[test]
    fn ample_memory_means_no_recompute() {
        let ins = inputs(4, 4, 2);
        let plan = gcmr(&ins, Bytes::gib(512), 8);
        assert!(plan.feasible);
        for t in &plan.recompute_time {
            assert_eq!(*t, Time::ZERO);
        }
        assert!(plan.senders.is_empty());
    }

    #[test]
    fn senders_are_early_stages() {
        let ins = inputs(8, 4, 4);
        let plan = gcmr(&ins, Bytes::gib(70), 16);
        // 1F1B skew: if anyone over-allocates beyond a die, it is an early
        // stage; the last stage never is.
        if let Some(&first_sender) = plan.senders.first() {
            assert!(first_sender < 4, "sender {first_sender} should be early");
        }
        assert!(!plan.senders.contains(&7));
    }

    #[test]
    fn mem_pairs_cover_sender_overflow() {
        let ins = inputs(8, 4, 4);
        let cap = Bytes::gib(70);
        let plan = gcmr(&ins, cap, 16);
        for &s in &plan.senders {
            let local = plan.mem_alloc[s]
                .as_f64()
                .min(ins[s].full_memory().as_f64());
            let overflow = (local - cap.as_f64()).max(0.0);
            let hosted: f64 = plan
                .mem_pairs
                .iter()
                .filter(|p| p.sender == s)
                .map(|p| p.bytes.as_f64())
                .sum();
            assert!(
                (hosted - overflow).abs() <= overflow.max(1.0) * 0.05 + 2.0,
                "stage {s}: hosted {hosted} vs overflow {overflow}"
            );
        }
    }

    #[test]
    fn model_p_exceeding_capacity_is_infeasible() {
        let ins = inputs(2, 1, 2); // TP=1, PP=2 on a 30B model: huge modelP
        let plan = gcmr(&ins, Bytes::gib(48), 8);
        assert!(!plan.feasible);
    }

    #[test]
    fn allocation_never_exceeds_pool() {
        let ins = inputs(8, 4, 4);
        let cap = Bytes::gib(70);
        let plan = gcmr(&ins, cap, 16);
        let total: f64 = plan.mem_alloc.iter().map(|b| b.as_f64()).sum();
        assert!(total <= cap.as_f64() * 8.0 * 1.001);
    }

    #[test]
    fn as_recompute_plan_round_trip() {
        let ins = inputs(4, 4, 4);
        let plan = gcmr(&ins, Bytes::gib(70), 8);
        let rp = plan.as_recompute_plan();
        assert_eq!(rp.recompute_time, plan.recompute_time);
        assert_eq!(rp.feasible, plan.feasible);
    }
}
