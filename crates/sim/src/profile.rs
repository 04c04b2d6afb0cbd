//! Offline operator profiling → lookup tables (§IV-F).
//!
//! WATOS pre-profiles every operator of a layer on the target die and
//! stores latency, DRAM traffic and checkpoint footprint. The iterative
//! explorers (GCMR's dynamic program, the GA) then query these tables
//! instead of re-running the detailed simulator. A model's layers come
//! in at most two kinds ([`PerKind`]), so [`KindProfiles`] profiles and
//! summarizes each kind once and answers every layer from its kind. A
//! stage's [`RecomputeMenu`] turns the profiles into `P(m)`: prefix sums
//! over its checkpoints, cheapest per byte first, which a query
//! binary-searches.

use crate::op_cost::DieModel;
use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bytes, Time};
use wsc_workload::graph::{layer_ops_at, summarize, LayerSummary, PerKind, ShardingCtx};
use wsc_workload::model::LlmModel;
use wsc_workload::ops::{OpInstance, OpKind};

/// Profiled costs of one operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpProfile {
    /// Operator name.
    pub name: String,
    /// Computation class.
    pub kind: OpKind,
    /// Forward latency per micro-batch.
    pub fwd: Time,
    /// Backward latency per micro-batch.
    pub bwd: Time,
    /// Checkpoint (output) bytes per micro-batch.
    pub ckpt_bytes: Bytes,
    /// DRAM traffic per forward pass.
    pub ema: Bytes,
    /// Weight bytes.
    pub weight_bytes: Bytes,
    /// Forward TP-collective volume.
    pub fwd_comm: Bytes,
    /// Backward TP-collective volume.
    pub bwd_comm: Bytes,
    /// Whether the recomputation scheduler may drop this checkpoint.
    pub recomputable: bool,
}

/// Profile of one layer's operator list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Per-operator profiles in execution order.
    pub ops: Vec<OpProfile>,
}

impl LayerProfile {
    /// Total forward compute latency.
    pub fn fwd_time(&self) -> Time {
        self.ops.iter().map(|o| o.fwd).sum()
    }

    /// Total backward compute latency (without recomputation).
    pub fn bwd_time(&self) -> Time {
        self.ops.iter().map(|o| o.bwd).sum()
    }

    /// Full checkpoint footprint per micro-batch.
    pub fn full_ckpt_bytes(&self) -> Bytes {
        self.ops.iter().map(|o| o.ckpt_bytes).sum()
    }

    /// Total weight bytes.
    pub fn weight_bytes(&self) -> Bytes {
        self.ops.iter().map(|o| o.weight_bytes).sum()
    }

    /// Forward TP-collective volume per micro-batch.
    pub fn fwd_comm(&self) -> Bytes {
        self.ops.iter().map(|o| o.fwd_comm).sum()
    }

    /// Backward TP-collective volume per micro-batch.
    pub fn bwd_comm(&self) -> Bytes {
        self.ops.iter().map(|o| o.bwd_comm).sum()
    }
}

/// Profile one layer on a die.
pub fn profile_layer(dm: &DieModel, ops: &[OpInstance]) -> LayerProfile {
    LayerProfile {
        ops: ops
            .iter()
            .map(|op| OpProfile {
                name: op.name.clone(),
                kind: op.kind,
                fwd: dm.op_cost(op).time,
                bwd: dm.op_cost_bwd(op).time,
                ckpt_bytes: op.output_bytes,
                ema: dm.op_cost(op).ema,
                weight_bytes: op.weight_bytes,
                fwd_comm: op.fwd_comm_bytes,
                bwd_comm: op.bwd_comm_bytes,
                recomputable: op.recomputable,
            })
            .collect(),
    }
}

/// Each layer kind of a model profiled once on one die under one
/// sharding: the [`LayerProfile`] and the [`LayerSummary`] of the kind's
/// first layer, which are those of every layer of the kind.
#[derive(Debug, Clone, PartialEq)]
pub struct KindProfiles(PerKind<(LayerProfile, LayerSummary)>);

impl KindProfiles {
    /// Profile and summarize each layer kind of `model` on `dm` under
    /// `ctx`: one operator graph and one simulator pass per kind.
    pub fn new(dm: &DieModel, model: &LlmModel, ctx: &ShardingCtx) -> Self {
        KindProfiles(PerKind::new(model, |l| {
            let ops = layer_ops_at(model, l, ctx);
            (profile_layer(dm, &ops), summarize(&ops))
        }))
    }

    /// The profile and summary of layer `idx` of `model`, the model this
    /// was built for.
    pub fn of(&self, model: &LlmModel, idx: usize) -> &(LayerProfile, LayerSummary) {
        self.0.of(model, idx)
    }

    /// The recomputation menu of a stage hosting `dense` dense and `moe`
    /// MoE layers. A kind the model lacks contributes nothing, as does a
    /// kind the stage hosts no layer of.
    pub fn menu(&self, (dense, moe): (usize, usize)) -> RecomputeMenu {
        let kinds: Vec<(&LayerProfile, usize)> = [(self.0.dense(), dense), (self.0.moe(), moe)]
            .into_iter()
            .filter_map(|(kind, layers)| Some((&kind?.0, layers)))
            .collect();
        RecomputeMenu::for_stage(&kinds)
    }
}

/// The stage-level recomputation menu: `P(m)` as a lookup table.
///
/// The droppable checkpoints of a stage, sorted by recompute time per
/// byte (cheapest savings first), are stored as two prefix sums: the
/// bytes freed and the recompute latency paid by dropping the `i + 1`
/// cheapest. Alg. 2 and the GA query it with a binary search. A stage
/// profile shares one menu with every stage of its split that hosts the
/// same number of layers of each kind.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecomputeMenu {
    /// `saved[i]`: bytes freed per in-flight micro-batch by the `i + 1`
    /// cheapest drops (non-decreasing).
    saved: Vec<Bytes>,
    /// `time[i]`: recompute latency those drops add to each backward
    /// micro-batch.
    time: Vec<Time>,
}

impl RecomputeMenu {
    /// Build the menu for a stage holding, for each `(profile, layers)`
    /// kind (e.g. its dense and its MoE layers), `layers` copies of
    /// `profile`.
    ///
    /// One stable sort of the kinds' checkpoints, in kind then layer
    /// then operator order, orders ties exactly as sorting each kind and
    /// then merging the sorted kinds does.
    pub fn for_stage(kinds: &[(&LayerProfile, usize)]) -> Self {
        let mut items: Vec<(f64, Bytes, Time)> = Vec::new();
        for &(profile, layers) in kinds {
            let per_layer: Vec<(f64, Bytes, Time)> = profile
                .ops
                .iter()
                .filter(|o| o.recomputable && o.ckpt_bytes > Bytes::ZERO)
                .map(|o| (o.fwd.as_secs() / o.ckpt_bytes.as_f64(), o.ckpt_bytes, o.fwd))
                .collect();
            for _ in 0..layers {
                items.extend_from_slice(&per_layer);
            }
        }
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        // The running sums a linear scan of the sorted drops would make,
        // one entry per drop.
        let mut menu = RecomputeMenu {
            saved: Vec::with_capacity(items.len()),
            time: Vec::with_capacity(items.len()),
        };
        let (mut saved, mut time) = (Bytes::ZERO, Time::ZERO);
        for (_, bytes, t) in items {
            saved += bytes;
            time += t;
            menu.saved.push(saved);
            menu.time.push(time);
        }
        menu
    }

    /// Maximum bytes this stage could free by recomputing everything.
    pub fn max_savings(&self) -> Bytes {
        self.saved.last().copied().unwrap_or(Bytes::ZERO)
    }

    /// `P(m)`: the recompute latency (per micro-batch) needed to free at
    /// least `needed` bytes, choosing cheapest checkpoints first. Returns
    /// `None` when even full recomputation cannot free enough.
    pub fn time_for_savings(&self, needed: Bytes) -> Option<Time> {
        if needed == Bytes::ZERO {
            return Some(Time::ZERO);
        }
        // The first prefix that frees enough ends at the last drop needed.
        let last = self.saved.partition_point(|&s| s < needed);
        self.time.get(last).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;
    use wsc_arch::presets;
    use wsc_arch::units::Bandwidth;
    use wsc_workload::parallel::TpSplitStrategy;
    use wsc_workload::training::TrainingJob;
    use wsc_workload::zoo;

    fn profile() -> LayerProfile {
        let dm = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0));
        let ctx = ShardingCtx::new(8, 4096, 4, TpSplitStrategy::Megatron);
        profile_layer(&dm, &layer_ops_at(&zoo::llama2_30b(), 0, &ctx))
    }

    /// The menu as a list of `(bytes saved, recompute time)` drops, built
    /// per kind, sorted, merged and sorted again, and queried by linear
    /// scans: the reference the prefix sums must match bit for bit.
    struct ScanMenu(Vec<(Bytes, Time)>);

    fn time_per_byte(&(bytes, time): &(Bytes, Time)) -> f64 {
        time.as_secs() / bytes.as_f64()
    }

    impl ScanMenu {
        fn for_stage(kinds: &[(&LayerProfile, usize)]) -> Self {
            let sorted = |mut items: Vec<(Bytes, Time)>| {
                items.sort_by(|a, b| time_per_byte(a).total_cmp(&time_per_byte(b)));
                items
            };
            let per_kind = kinds.iter().map(|&(profile, layers)| {
                let mut items = Vec::new();
                for _ in 0..layers {
                    for op in profile.ops.iter().filter(|o| o.recomputable) {
                        if op.ckpt_bytes == Bytes::ZERO {
                            continue;
                        }
                        items.push((op.ckpt_bytes, op.fwd));
                    }
                }
                sorted(items)
            });
            ScanMenu(sorted(per_kind.flatten().collect()))
        }

        fn max_savings(&self) -> Bytes {
            self.0.iter().map(|&(bytes, _)| bytes).sum()
        }

        fn time_for_savings(&self, needed: Bytes) -> Option<Time> {
            if needed == Bytes::ZERO {
                return Some(Time::ZERO);
            }
            let mut saved = Bytes::ZERO;
            let mut t = Time::ZERO;
            for &(bytes, time) in &self.0 {
                saved += bytes;
                t += time;
                if saved >= needed {
                    return Some(t);
                }
            }
            None
        }
    }

    /// Each drop's `(bytes saved, recompute time)`, recovered as the
    /// difference of consecutive prefix sums (exact for bytes, to within
    /// rounding for time).
    fn drops(menu: &RecomputeMenu) -> Vec<(Bytes, Time)> {
        let mut prev = (Bytes::ZERO, Time::ZERO);
        menu.saved
            .iter()
            .zip(&menu.time)
            .map(|(&saved, &time)| {
                let drop = (saved - prev.0, time - prev.1);
                prev = (saved, time);
                drop
            })
            .collect()
    }

    #[test]
    fn layer_profile_aggregates() {
        let p = profile();
        assert!(p.fwd_time().as_secs() > 0.0);
        assert!(p.bwd_time().as_secs() > p.fwd_time().as_secs());
        assert!(p.full_ckpt_bytes() > Bytes::ZERO);
        assert!(p.fwd_comm() > Bytes::ZERO);
    }

    #[test]
    fn every_layer_is_its_kinds_entry() {
        // Every zoo family: dense, MoE alternating with dense layers
        // (GShard) and all-MoE (DeepSeek-V3, Qwen3-Next), SSM, diffusion
        // and recommender.
        let models = [
            zoo::llama3_70b(),
            zoo::gshard_137b(),
            zoo::deepseek_v3(),
            zoo::qwen3_next_80b(),
            zoo::mamba_2_8b(),
            zoo::sd35_large(),
            zoo::gr_24(),
        ];
        let ctxs = [
            ShardingCtx::new(1, 4096, 4, TpSplitStrategy::Megatron),
            ShardingCtx::new(2, 2048, 8, TpSplitStrategy::FullReduction),
            ShardingCtx::new(1, 8192, 2, TpSplitStrategy::SequenceParallel),
        ];
        let dm = DieModel::new(presets::big_die(), Bandwidth::tb_per_s(2.0));
        for model in &models {
            for ctx in &ctxs {
                let kinds = KindProfiles::new(&dm, model, ctx);
                for l in 0..model.layers {
                    let ops = layer_ops_at(model, l, ctx);
                    let (profile, summary) = kinds.of(model, l);
                    assert_eq!(
                        *profile,
                        profile_layer(&dm, &ops),
                        "{} layer {l}",
                        model.name
                    );
                    assert_eq!(*summary, summarize(&ops), "{} layer {l}", model.name);
                }
            }
            // `flops_per_iter` counts each kind once, and still sums the
            // layers in order.
            let job = TrainingJob::standard(model.clone());
            let ctx = ShardingCtx::new(job.micro_batch, job.seq, 1, TpSplitStrategy::Megatron);
            let per_mb: f64 = (0..model.layers)
                .map(|l| {
                    let s = summarize(&layer_ops_at(model, l, &ctx));
                    s.fwd_flops.as_f64() + s.bwd_flops.as_f64()
                })
                .sum();
            let mbs = job.global_batch as f64 / job.micro_batch as f64;
            assert_eq!(
                job.flops_per_iter().as_f64().to_bits(),
                (per_mb * mbs).to_bits(),
                "{}",
                model.name
            );
        }
    }

    #[test]
    fn menu_is_sorted_by_efficiency() {
        // Cheapest-per-byte first: the marginal recompute time per freed
        // byte never falls along the menu. The relative slack covers the
        // rounding of the recovered per-drop times.
        let menu = RecomputeMenu::for_stage(&[(&profile(), 4)]);
        let effs: Vec<f64> = drops(&menu).iter().map(time_per_byte).collect();
        assert!(!effs.is_empty());
        assert!(effs.windows(2).all(|w| w[0] <= w[1] * (1.0 + 1e-9)));
    }

    #[test]
    fn p_of_m_is_monotone() {
        let menu = RecomputeMenu::for_stage(&[(&profile(), 4)]);
        let max = menu.max_savings();
        let t25 = menu.time_for_savings(max.scale(0.25)).unwrap();
        let t50 = menu.time_for_savings(max.scale(0.5)).unwrap();
        let t100 = menu.time_for_savings(max).unwrap();
        assert!(t25 <= t50 && t50 <= t100);
        assert!(t100.as_secs() > 0.0);
    }

    #[test]
    fn infeasible_savings_is_none() {
        let menu = RecomputeMenu::for_stage(&[(&profile(), 2)]);
        assert!(menu
            .time_for_savings(menu.max_savings() + Bytes::gib(1))
            .is_none());
        assert_eq!(menu.time_for_savings(Bytes::ZERO), Some(Time::ZERO));
    }

    #[test]
    fn cheapest_items_are_vector_ops() {
        // Norm/activation outputs are cheap to regenerate per byte
        // compared with attention outputs.
        let menu = RecomputeMenu::for_stage(&[(&profile(), 1)]);
        let drops = drops(&menu);
        let first = drops.first().unwrap();
        let last = drops.last().unwrap();
        assert!(time_per_byte(first) < time_per_byte(last));
    }

    /// An op that varies only in what the menu reads. `mode` 0 frees no
    /// bytes, 1 is not recomputable, 2–4 take powers of two from a grid
    /// (so ops with different savings tie exactly on time per byte, and
    /// the order of ties shows in the prefix sums) and 5–7 take
    /// arbitrary values.
    fn menu_op(mode: u8, grid: u32, secs: f64, bytes: u64) -> OpProfile {
        let (ckpt, fwd) = match mode {
            0 => (Bytes::ZERO, Time::from_secs(secs)),
            2..=4 => (
                Bytes::mib(1 << (grid % 3)),
                Time::from_micros(50.0 * f64::from(1u32 << (grid / 3))),
            ),
            _ => (Bytes::new(bytes), Time::from_secs(secs)),
        };
        OpProfile {
            name: format!("op{mode}"),
            kind: OpKind::Gemm,
            fwd,
            bwd: fwd,
            ckpt_bytes: ckpt,
            ema: Bytes::ZERO,
            weight_bytes: Bytes::ZERO,
            fwd_comm: Bytes::ZERO,
            bwd_comm: Bytes::ZERO,
            recomputable: mode != 1,
        }
    }

    proptest! {
        #[test]
        fn prefix_sums_match_the_linear_scan(
            ops in 0usize..12,
            split in 0usize..12,
            two_kinds in 0u8..2,
            dense_layers in 0usize..41,
            moe_layers in 0usize..41,
            modes in collection::vec(0u8..8, 12..13),
            grid in collection::vec(0u32..9, 12..13),
            secs in collection::vec(0.0f64..1e-3, 12..13),
            bytes in collection::vec(1u64..1 << 32, 12..13),
        ) {
            let ops: Vec<OpProfile> = (0..ops)
                .map(|i| menu_op(modes[i], grid[i], secs[i], bytes[i]))
                .collect();
            // The first kind takes the first `split` ops, the second the
            // rest.
            let split = split.min(ops.len());
            let dense = LayerProfile { ops: ops[..split].to_vec() };
            let moe = LayerProfile { ops: ops[split..].to_vec() };
            let kinds: Vec<(&LayerProfile, usize)> = if two_kinds == 1 {
                vec![(&dense, dense_layers), (&moe, moe_layers)]
            } else {
                vec![(&dense, dense_layers)]
            };
            let menu = RecomputeMenu::for_stage(&kinds);
            let reference = ScanMenu::for_stage(&kinds);
            prop_assert_eq!(menu.max_savings(), reference.max_savings());
            prop_assert_eq!(menu.saved.len(), reference.0.len());
            let total = reference.max_savings().as_u64();
            let mut needed = vec![0, 1, total, total + 1, total + (1 << 30)];
            let mut boundary = Bytes::ZERO;
            for &(b, _) in &reference.0 {
                boundary += b;
                let at = boundary.as_u64();
                needed.extend([at - 1, at, at + 1]);
            }
            for n in needed {
                let n = Bytes::new(n);
                let got = menu.time_for_savings(n).map(|t| t.as_secs().to_bits());
                let want = reference.time_for_savings(n).map(|t| t.as_secs().to_bits());
                prop_assert_eq!(got, want, "needed {} of {} ({} drops)", n.as_u64(), total, reference.0.len());
            }
        }
    }
}
