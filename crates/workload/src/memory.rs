//! Memory accounting (§IV-A's `modelP` and activation checkpoints).
//!
//! Training state has four parts: model weights, gradients, optimizer
//! states (together `modelP` — mandatory, resident for the whole run) and
//! activation checkpoints (optional — regenerable by recomputation).
//!
//! Mixed-precision Adam (§V-A): FP16 weights (2 B) + FP16 gradients (2 B)
//! + FP32 master weights and two moments (12 B) = **16 bytes per
//!   parameter**, sharded across TP; layers sharded across PP stages.

use crate::graph::{self, PerKind, ShardingCtx};
use crate::model::LlmModel;
use serde::{Deserialize, Serialize};
use wsc_arch::units::Bytes;

/// Bytes of training state per parameter under mixed-precision Adam.
pub const BYTES_PER_PARAM: f64 = 16.0;

/// Bytes of FP16 weights only (for weight-streaming baselines).
pub const WEIGHT_BYTES_PER_PARAM: f64 = 2.0;

/// Number of transformer layers hosted by pipeline stage `stage` of `pp`.
///
/// Layers split as evenly as possible, remainder going to the *early*
/// stages (which also matches Megatron's default).
pub fn stage_layers(layers: usize, pp: usize, stage: usize) -> usize {
    assert!(stage < pp, "stage {stage} out of {pp}");
    let base = layers / pp;
    let rem = layers % pp;
    base + usize::from(stage < rem)
}

/// Index range `[lo, hi)` of the layers hosted by `stage`.
pub fn stage_layer_range(layers: usize, pp: usize, stage: usize) -> (usize, usize) {
    let mut lo = 0;
    for s in 0..stage {
        lo += stage_layers(layers, pp, s);
    }
    (lo, lo + stage_layers(layers, pp, stage))
}

/// Embedding + LM-head parameters hosted by `stage` (embedding on the
/// first stage, head on the last; both sharded across TP).
pub fn embedding_params(model: &LlmModel, pp: usize, stage: usize) -> f64 {
    let e = model.vocab as f64 * model.hidden as f64;
    let mut p = 0.0;
    if stage == 0 {
        p += e;
    }
    if stage == pp - 1 {
        p += e;
    }
    p
}

/// `modelP` bytes per die for pipeline stage `stage`: weights + grads +
/// optimizer for the stage's layers and embeddings, sharded across TP.
pub fn model_p_per_die(model: &LlmModel, tp: usize, pp: usize, stage: usize) -> Bytes {
    let layer_params: f64 = {
        let (lo, hi) = stage_layer_range(model.layers, pp, stage);
        (lo..hi).map(|_| model.layer_params()).sum()
    };
    let params = layer_params + embedding_params(model, pp, stage);
    Bytes::new((params * BYTES_PER_PARAM / tp as f64).round() as u64)
}

/// Total `modelP` bytes across a whole model replica (all stages, all TP
/// shards) — the Alg. 1 line-1 pruning quantity.
pub fn model_p_total(model: &LlmModel) -> Bytes {
    Bytes::new((model.total_params() * BYTES_PER_PARAM).round() as u64)
}

/// Per-stage memory breakdown under 1F1B (drives Fig. 5c).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageMemory {
    /// Pipeline stage index.
    pub stage: usize,
    /// FP16 weights.
    pub weights: Bytes,
    /// FP16 gradients.
    pub gradients: Bytes,
    /// FP32 optimizer states.
    pub optimizer: Bytes,
    /// Peak activation checkpoints (1F1B in-flight micro-batches).
    pub activations: Bytes,
}

impl StageMemory {
    /// Total peak memory of the stage per die.
    pub fn total(&self) -> Bytes {
        self.weights + self.gradients + self.optimizer + self.activations
    }
}

/// Compute the 1F1B per-stage peak memory per die.
///
/// Stage `s` of `p` stages retains `min(p − s, n_microbatches)` in-flight
/// micro-batches of checkpoints (§II-B).
pub fn stage_memory(
    model: &LlmModel,
    ctx: &ShardingCtx,
    pp: usize,
    stage: usize,
    microbatches: usize,
) -> StageMemory {
    let (lo, hi) = stage_layer_range(model.layers, pp, stage);
    let layer_params: f64 = (lo..hi).map(|_| model.layer_params()).sum();
    let params = (layer_params + embedding_params(model, pp, stage)) / ctx.tp as f64;
    let ckpt = PerKind::new(model, |l| {
        graph::summarize(&graph::layer_ops_at(model, l, ctx)).ckpt_bytes
    });
    let ckpt_per_mb: Bytes = (lo..hi).map(|l| *ckpt.of(model, l)).sum();
    let in_flight = (pp - stage).min(microbatches.max(1));
    StageMemory {
        stage,
        weights: Bytes::new((params * 2.0).round() as u64),
        gradients: Bytes::new((params * 2.0).round() as u64),
        optimizer: Bytes::new((params * 12.0).round() as u64),
        activations: ckpt_per_mb * in_flight as u64,
    }
}

/// Per-stage peak memory for all stages.
pub fn pipeline_memory(
    model: &LlmModel,
    ctx: &ShardingCtx,
    pp: usize,
    microbatches: usize,
) -> Vec<StageMemory> {
    (0..pp)
        .map(|s| stage_memory(model, ctx, pp, s, microbatches))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::TpSplitStrategy;
    use crate::zoo;

    fn ctx(tp: usize) -> ShardingCtx {
        ShardingCtx::new(4, 4096, tp, TpSplitStrategy::Megatron)
    }

    #[test]
    fn stage_layers_sum_to_total() {
        for (layers, pp) in [(60, 8), (80, 7), (96, 14), (61, 4)] {
            let sum: usize = (0..pp).map(|s| stage_layers(layers, pp, s)).sum();
            assert_eq!(sum, layers, "{layers} layers over {pp} stages");
        }
    }

    #[test]
    fn stage_ranges_are_contiguous() {
        let mut expected_lo = 0;
        for s in 0..7 {
            let (lo, hi) = stage_layer_range(80, 7, s);
            assert_eq!(lo, expected_lo);
            expected_lo = hi;
        }
        assert_eq!(expected_lo, 80);
    }

    #[test]
    fn model_p_is_16_bytes_per_param() {
        let m = zoo::llama2_30b();
        let total = model_p_total(&m);
        assert!((total.as_f64() / m.total_params() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn model_p_shards_across_tp_and_pp() {
        let m = zoo::llama3_70b();
        let whole = model_p_total(&m).as_f64();
        let sharded: f64 = (0..8)
            .map(|s| model_p_per_die(&m, 4, 8, s).as_f64() * 4.0)
            .sum();
        let rel = (sharded - whole).abs() / whole;
        assert!(rel < 0.01, "rel err {rel}");
    }

    #[test]
    fn early_stages_hold_more_activations() {
        // The 1F1B memory skew of Fig. 5c.
        let m = zoo::llama2_30b();
        let mems = pipeline_memory(&m, &ctx(4), 8, 16);
        assert!(mems[0].activations > mems[7].activations);
        let ratio = mems[0].activations.as_f64() / mems[7].activations.as_f64().max(1.0);
        assert!(ratio > 4.0, "skew ratio {ratio}");
    }

    #[test]
    fn activations_dominate_early_stage_memory() {
        // Paper: checkpointed activations exceed 70% of usage at stage 0.
        let m = zoo::llama2_30b();
        let mem = stage_memory(&m, &ctx(4), 8, 0, 16);
        let frac = mem.activations.as_f64() / mem.total().as_f64();
        assert!(frac > 0.5, "activation fraction {frac}");
    }

    #[test]
    fn microbatch_count_caps_in_flight() {
        let m = zoo::llama2_30b();
        let a = stage_memory(&m, &ctx(4), 8, 0, 2);
        let b = stage_memory(&m, &ctx(4), 8, 0, 16);
        assert!(a.activations < b.activations);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn stage_out_of_range_panics() {
        let _ = stage_layers(80, 4, 4);
    }
}
