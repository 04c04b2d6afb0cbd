//! Parallelism specifications: DP/TP/PP sizes, TP tensor-partition
//! strategies (the strategy set `S` of Alg. 1, line 7), and the
//! first-class [`ParallelPlan`] — one value describing a complete
//! parallel configuration, including where pipeline stages land on
//! wafers ([`StageMap`], §VI-F) and whether TP groups stay inside one
//! wafer or span the W2W seam (`tp_span`).

use crate::graph::ShardingCtx;
use crate::training::TrainingJob;
use serde::{Deserialize, Serialize};
use std::fmt;
use thiserror::Error;

/// A (DP, TP, PP) parallelism configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelSpec {
    /// Data-parallel replicas.
    pub dp: usize,
    /// Tensor-parallel group size.
    pub tp: usize,
    /// Pipeline stages.
    pub pp: usize,
}

impl ParallelSpec {
    /// Construct a spec; all degrees must be ≥ 1.
    pub fn new(dp: usize, tp: usize, pp: usize) -> Self {
        ParallelSpec {
            dp: dp.max(1),
            tp: tp.max(1),
            pp: pp.max(1),
        }
    }

    /// Model-parallel (non-DP) configuration.
    pub fn model_parallel(tp: usize, pp: usize) -> Self {
        Self::new(1, tp, pp)
    }

    /// Total devices required.
    pub fn devices(&self) -> usize {
        self.dp * self.tp * self.pp
    }
}

impl fmt::Display for ParallelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D({})T({})P({})", self.dp, self.tp, self.pp)
    }
}

/// TP tensor-partition strategies — how operator tensors split across the
/// TP group (partitioning along B, S, H or K of Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TpSplitStrategy {
    /// Megatron-style column+row pairing: 2 activation all-reduces per
    /// layer per direction; norm activations replicated.
    Megatron,
    /// Megatron with sequence parallelism: the same communication volume
    /// expressed as reduce-scatter + all-gather, but norm/dropout
    /// activations are sharded along S (smaller checkpoints).
    SequenceParallel,
    /// Reduction-dimension (K) partitioning for every GEMM: weights fully
    /// sharded but an all-reduce follows *every* GEMM (4 per layer).
    FullReduction,
}

impl TpSplitStrategy {
    /// Sharding factor applied to activations that Megatron replicates
    /// (norm outputs, residuals): 1.0 = replicated, 1/tp = sharded.
    pub fn replicated_act_factor(self, tp: usize) -> f64 {
        match self {
            TpSplitStrategy::Megatron => 1.0,
            TpSplitStrategy::SequenceParallel => 1.0 / tp as f64,
            TpSplitStrategy::FullReduction => 1.0,
        }
    }
}

impl fmt::Display for TpSplitStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TpSplitStrategy::Megatron => "megatron",
            TpSplitStrategy::SequenceParallel => "seq-parallel",
            TpSplitStrategy::FullReduction => "full-reduction",
        };
        f.write_str(s)
    }
}

/// Validation failures of a [`ParallelPlan`] or [`StageMap`].
#[derive(Debug, Clone, PartialEq, Eq, Error)]
pub enum PlanError {
    /// A parallel degree was zero.
    #[error("parallel degree `{axis}` must be >= 1")]
    ZeroDegree {
        /// Which degree was zero (`tp`, `pp`, or `tp_span`).
        axis: &'static str,
    },
    /// `tp_span` does not divide the TP degree.
    #[error("tp_span {span} must divide tp {tp}")]
    SpanIndivisible {
        /// TP degree.
        tp: usize,
        /// Wafers the TP group was asked to span.
        span: usize,
    },
    /// An explicit stage map's length disagrees with `pp`.
    #[error("explicit stage map has {got} entries but the plan has pp = {expected}")]
    StageMapLength {
        /// Expected entry count (`pp`).
        expected: usize,
        /// Actual entry count.
        got: usize,
    },
    /// A stage was mapped to a wafer index outside the node.
    #[error("stage {stage} is mapped to wafer {wafer}, but only {wafers} wafer group(s) exist")]
    WaferOutOfRange {
        /// Offending stage.
        stage: usize,
        /// Its wafer index.
        wafer: usize,
        /// Number of wafer groups available.
        wafers: usize,
    },
    /// The stage map breaks contiguous pipeline order (a stage is mapped
    /// to an earlier wafer than its predecessor, or skips a wafer).
    #[error("stage map breaks contiguous pipeline order at stage {stage}")]
    NonContiguous {
        /// First stage violating the order.
        stage: usize,
    },
}

/// Where the pipeline stages of a plan land on wafers (§VI-F).
///
/// Stages must occupy wafers in contiguous pipeline order (stage `s+1`
/// lives on the same wafer group as stage `s` or the next one), so a
/// map is fully described by how many stages each wafer group hosts.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StageMap {
    /// Every stage on one wafer (the single-wafer Alg. 1 search).
    SingleWafer,
    /// `ceil(pp / wafers)` stages per wafer in pipeline order; the last
    /// wafer takes the (possibly short) remainder. This is the seed-era
    /// multi-wafer layout — kept bit-exact so the deprecated tuple APIs
    /// map onto `Balanced` without changing any result.
    Balanced {
        /// Wafer groups the pipeline is spread over.
        wafers: usize,
    },
    /// Explicit per-stage wafer-group index (`len == pp`). Must be
    /// non-decreasing, start at group 0, and never skip a group.
    Explicit(Vec<usize>),
}

impl StageMap {
    /// The remainder-shift family member `shift` for `pp` stages over
    /// `wafers` groups: every group hosts `floor(pp / wafers)` stages and
    /// the `pp % wafers` leftover stages go one-each to the groups
    /// starting at index `shift` (wrapping). `shift = 0` is the most
    /// even layout; successive shifts move the heavy groups later. For
    /// `pp % wafers == 0` every shift degenerates to the same even map.
    pub fn remainder_shifted(pp: usize, wafers: usize, shift: usize) -> StageMap {
        let wafers = wafers.max(1);
        let base = pp / wafers;
        let r = pp % wafers;
        let mut assignment = Vec::with_capacity(pp);
        for g in 0..wafers {
            let extra = ((g + wafers - shift % wafers) % wafers < r) as usize;
            for _ in 0..base + extra {
                assignment.push(g);
            }
        }
        StageMap::Explicit(assignment)
    }

    /// Number of wafer groups the map spans (for `Explicit`, the highest
    /// index used plus one).
    pub fn wafer_count(&self) -> usize {
        match self {
            StageMap::SingleWafer => 1,
            StageMap::Balanced { wafers } => (*wafers).max(1),
            StageMap::Explicit(v) => v.iter().max().map_or(1, |m| m + 1),
        }
    }

    /// Validate the map for a `pp`-stage pipeline on `wafers` wafer
    /// groups: explicit maps must have exactly `pp` in-range entries in
    /// contiguous pipeline order (see [`StageMap::Explicit`]).
    pub fn validate(&self, pp: usize, wafers: usize) -> Result<(), PlanError> {
        match self {
            StageMap::SingleWafer => Ok(()),
            StageMap::Balanced { wafers: w } => {
                if *w == 0 || *w > wafers {
                    return Err(PlanError::WaferOutOfRange {
                        stage: 0,
                        wafer: w.saturating_sub(1),
                        wafers,
                    });
                }
                Ok(())
            }
            StageMap::Explicit(v) => {
                if v.len() != pp {
                    return Err(PlanError::StageMapLength {
                        expected: pp,
                        got: v.len(),
                    });
                }
                let mut prev = 0usize;
                for (stage, &w) in v.iter().enumerate() {
                    if w >= wafers {
                        return Err(PlanError::WaferOutOfRange {
                            stage,
                            wafer: w,
                            wafers,
                        });
                    }
                    let contiguous = if stage == 0 {
                        w == 0
                    } else {
                        w == prev || w == prev + 1
                    };
                    if !contiguous {
                        return Err(PlanError::NonContiguous { stage });
                    }
                    prev = w;
                }
                Ok(())
            }
        }
    }

    /// The resolved stage → wafer-group assignment (`pp` entries).
    pub fn assignments(&self, pp: usize) -> Vec<usize> {
        match self {
            StageMap::SingleWafer => vec![0; pp],
            StageMap::Balanced { wafers } => {
                let per = pp.div_ceil((*wafers).max(1));
                (0..pp).map(|s| s / per.max(1)).collect()
            }
            StageMap::Explicit(v) => v.clone(),
        }
    }

    /// Largest number of stages any single wafer group hosts.
    pub fn max_stages_per_wafer(&self, pp: usize) -> usize {
        match self {
            StageMap::SingleWafer => pp,
            StageMap::Balanced { wafers } => pp.div_ceil((*wafers).max(1)),
            StageMap::Explicit(v) => {
                let groups = self.wafer_count();
                let mut counts = vec![0usize; groups];
                for &w in v {
                    if let Some(c) = counts.get_mut(w) {
                        *c += 1;
                    }
                }
                counts.into_iter().max().unwrap_or(pp)
            }
        }
    }
}

impl fmt::Display for StageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageMap::SingleWafer => f.write_str("single-wafer"),
            StageMap::Balanced { wafers } => write!(f, "balanced/{wafers}"),
            StageMap::Explicit(v) => {
                let groups = self.wafer_count();
                let mut counts = vec![0usize; groups];
                for &w in v {
                    if let Some(c) = counts.get_mut(w) {
                        *c += 1;
                    }
                }
                write!(f, "explicit[")?;
                for (i, c) in counts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{c}")?;
                }
                f.write_str("]")
            }
        }
    }
}

/// One parallel configuration as a first-class value: the search object
/// threaded through the scheduler, the wave engine, the profile cache
/// and the multi-wafer search (instead of loose `(tp, pp, strategy)`
/// tuples with the stage→wafer layout recomputed ad hoc).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelPlan {
    /// Data-parallel replicas. `0` means *derive*: the scheduler fills
    /// in the largest DP the wafer slots and batch geometry allow, and
    /// records the resolved value in the winning configuration.
    pub dp: usize,
    /// Tensor-parallel group size (total, across all spanned wafers).
    pub tp: usize,
    /// Pipeline stages.
    pub pp: usize,
    /// TP tensor-partition strategy.
    pub strategy: TpSplitStrategy,
    /// Stage → wafer-group assignment.
    pub stage_map: StageMap,
    /// Wafers one TP group spans: `1` = intra-wafer TP (collectives stay
    /// on the D2D mesh), `k > 1` = cross-wafer TP (each TP group places
    /// `tp / k` dies on each of `k` wafers and its collectives pay the
    /// W2W seam). Must divide `tp`.
    pub tp_span: usize,
}

impl ParallelPlan {
    /// An intra-wafer plan (derived DP, all stages on one wafer) — the
    /// exact configuration the seed-era `(tp, pp, strategy)` tuples
    /// described in the single-wafer search.
    pub fn intra(tp: usize, pp: usize, strategy: TpSplitStrategy) -> Self {
        ParallelPlan {
            dp: 0,
            tp,
            pp,
            strategy,
            stage_map: StageMap::SingleWafer,
            tp_span: 1,
        }
    }

    /// An intra-wafer-TP plan with stages balanced over `wafers` wafers —
    /// the exact configuration the seed-era multi-wafer tuple APIs
    /// described.
    pub fn balanced(tp: usize, pp: usize, strategy: TpSplitStrategy, wafers: usize) -> Self {
        ParallelPlan {
            stage_map: StageMap::Balanced { wafers },
            ..Self::intra(tp, pp, strategy)
        }
    }

    /// Replace the stage map.
    pub fn with_stage_map(mut self, map: StageMap) -> Self {
        self.stage_map = map;
        self
    }

    /// Set the TP span (`k > 1` = cross-wafer TP).
    pub fn with_tp_span(mut self, span: usize) -> Self {
        self.tp_span = span;
        self
    }

    /// Pin (or record the resolved) data parallelism.
    pub fn with_dp(mut self, dp: usize) -> Self {
        self.dp = dp;
        self
    }

    /// Internal consistency: degrees ≥ 1, `tp_span` divides `tp`, and an
    /// explicit stage map is shaped for this `pp`. (Range-checking the
    /// map against a concrete node happens in
    /// [`StageMap::validate`] with that node's wafer-group count.)
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.tp == 0 {
            return Err(PlanError::ZeroDegree { axis: "tp" });
        }
        if self.pp == 0 {
            return Err(PlanError::ZeroDegree { axis: "pp" });
        }
        if self.tp_span == 0 {
            return Err(PlanError::ZeroDegree { axis: "tp_span" });
        }
        if !self.tp.is_multiple_of(self.tp_span) {
            return Err(PlanError::SpanIndivisible {
                tp: self.tp,
                span: self.tp_span,
            });
        }
        self.stage_map
            .validate(self.pp, self.stage_map.wafer_count())
    }

    /// Whether TP collectives cross the W2W seam.
    pub fn is_cross_wafer_tp(&self) -> bool {
        self.tp_span > 1
    }

    /// Wafers the whole plan occupies: stage groups × TP span.
    pub fn wafers(&self) -> usize {
        self.stage_map.wafer_count() * self.tp_span.max(1)
    }

    /// The sharding context of this plan for `job` — the single
    /// constructor for what used to be hand-rolled
    /// `ShardingCtx::new(job.micro_batch, job.seq, tp, strategy)` calls.
    pub fn sharding_ctx(&self, job: &TrainingJob) -> ShardingCtx {
        ShardingCtx::new(job.micro_batch, job.seq, self.tp, self.strategy)
    }

    /// View as a [`ParallelSpec`] (a derived `dp = 0` reads as 1).
    pub fn spec(&self) -> ParallelSpec {
        ParallelSpec::new(self.dp.max(1), self.tp, self.pp)
    }
}

impl fmt::Display for ParallelPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dp == 0 {
            write!(f, "D(?)T({})P({})", self.tp, self.pp)?;
        } else {
            write!(f, "{}", self.spec())?;
        }
        write!(f, " {}", self.strategy)?;
        if self.stage_map != StageMap::SingleWafer {
            write!(f, " stages={}", self.stage_map)?;
        }
        if self.tp_span > 1 {
            write!(f, " tp-span={}", self.tp_span)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn devices_product() {
        let p = ParallelSpec::new(2, 4, 7);
        assert_eq!(p.devices(), 56);
    }

    #[test]
    fn degenerate_degrees_clamped() {
        let p = ParallelSpec::new(0, 0, 0);
        assert_eq!(p.devices(), 1);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(ParallelSpec::new(1, 4, 14).to_string(), "D(1)T(4)P(14)");
    }

    #[test]
    fn sequence_parallel_shards_replicated_activations() {
        assert_eq!(TpSplitStrategy::Megatron.replicated_act_factor(4), 1.0);
        assert!((TpSplitStrategy::SequenceParallel.replicated_act_factor(4) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn balanced_map_matches_seed_ceil_layout() {
        // ceil(14 / 4) = 4 stages per wafer, short remainder on the last
        // wafer — the exact seed-era `s / per_wafer` layout.
        let map = StageMap::Balanced { wafers: 4 };
        assert_eq!(
            map.assignments(14),
            vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3]
        );
        assert_eq!(map.max_stages_per_wafer(14), 4);
        assert_eq!(map.wafer_count(), 4);
    }

    #[test]
    fn remainder_shift_family_is_even_and_contiguous() {
        // pp = 14 over 4 groups: base 3, remainder 2.
        let m0 = StageMap::remainder_shifted(14, 4, 0);
        assert_eq!(
            m0.assignments(14),
            vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        );
        let m2 = StageMap::remainder_shifted(14, 4, 2);
        assert_eq!(
            m2.assignments(14),
            vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]
        );
        for shift in 0..4 {
            let m = StageMap::remainder_shifted(14, 4, shift);
            assert_eq!(m.validate(14, 4), Ok(()));
            assert_eq!(m.max_stages_per_wafer(14), 4);
        }
        // Zero remainder: every shift is the same even map.
        assert_eq!(
            StageMap::remainder_shifted(12, 4, 1),
            StageMap::remainder_shifted(12, 4, 3)
        );
    }

    #[test]
    fn explicit_map_validation_errors() {
        // Wrong length.
        assert_eq!(
            StageMap::Explicit(vec![0, 0, 1]).validate(4, 2),
            Err(PlanError::StageMapLength {
                expected: 4,
                got: 3
            })
        );
        // Skipping a group is non-contiguous even when in range.
        assert_eq!(
            StageMap::Explicit(vec![0, 0, 2, 2]).validate(4, 3),
            Err(PlanError::NonContiguous { stage: 2 })
        );
        // Wafer index out of range.
        assert_eq!(
            StageMap::Explicit(vec![0, 1, 2, 3]).validate(4, 3),
            Err(PlanError::WaferOutOfRange {
                stage: 3,
                wafer: 3,
                wafers: 3
            })
        );
        // Non-contiguous pipeline order: backwards, skipping, not
        // starting at group 0.
        assert_eq!(
            StageMap::Explicit(vec![0, 1, 0, 1]).validate(4, 2),
            Err(PlanError::NonContiguous { stage: 2 })
        );
        assert_eq!(
            StageMap::Explicit(vec![1, 1, 1, 1]).validate(4, 2),
            Err(PlanError::NonContiguous { stage: 0 })
        );
        assert_eq!(StageMap::Explicit(vec![0, 0, 1, 1]).validate(4, 2), Ok(()));
    }

    #[test]
    fn plan_validation_and_accessors() {
        let plan = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron);
        assert_eq!(plan.validate(), Ok(()));
        assert!(!plan.is_cross_wafer_tp());
        assert_eq!(plan.wafers(), 1);
        assert_eq!(plan.spec(), ParallelSpec::new(1, 4, 14));

        let cross = ParallelPlan::balanced(8, 6, TpSplitStrategy::SequenceParallel, 2)
            .with_tp_span(2)
            .with_dp(3);
        assert_eq!(cross.validate(), Ok(()));
        assert!(cross.is_cross_wafer_tp());
        assert_eq!(cross.wafers(), 4, "2 stage groups x 2-wafer TP span");
        assert_eq!(cross.spec(), ParallelSpec::new(3, 8, 6));

        assert_eq!(
            ParallelPlan::intra(6, 4, TpSplitStrategy::Megatron)
                .with_tp_span(4)
                .validate(),
            Err(PlanError::SpanIndivisible { tp: 6, span: 4 })
        );
        assert_eq!(
            ParallelPlan::intra(0, 4, TpSplitStrategy::Megatron).validate(),
            Err(PlanError::ZeroDegree { axis: "tp" })
        );
    }

    #[test]
    fn plan_display_is_compact() {
        let p = ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron).with_dp(2);
        assert_eq!(p.to_string(), "D(2)T(4)P(14) megatron");
        let q = ParallelPlan::balanced(8, 6, TpSplitStrategy::SequenceParallel, 2).with_tp_span(2);
        assert_eq!(
            q.to_string(),
            "D(?)T(8)P(6) seq-parallel stages=balanced/2 tp-span=2"
        );
    }

    #[test]
    fn sharding_ctx_comes_from_the_plan() {
        let job = TrainingJob::standard(crate::zoo::llama2_30b());
        let ctx = ParallelPlan::intra(4, 8, TpSplitStrategy::Megatron).sharding_ctx(&job);
        assert_eq!(ctx.tp, 4);
        assert_eq!(ctx.strategy, TpSplitStrategy::Megatron);
        assert_eq!(ctx.micro_batch, job.micro_batch);
        assert_eq!(ctx.seq, job.seq);
    }
}
