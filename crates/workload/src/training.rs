//! Training-job description: batch geometry and iteration-level FLOP
//! accounting (the throughput metric of §V-A).

use crate::graph::{self, PerKind, ShardingCtx};
use crate::model::LlmModel;
use crate::parallel::TpSplitStrategy;
use serde::{Deserialize, Serialize};
use wsc_arch::units::Flops;

/// One LLM training job: a model plus batch geometry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingJob {
    /// The model being trained.
    pub model: LlmModel,
    /// Global batch size in sequences.
    pub global_batch: usize,
    /// Sequences per micro-batch.
    pub micro_batch: usize,
    /// Training sequence length.
    pub seq: usize,
}

impl TrainingJob {
    /// A job with the model's default sequence length and paper-typical
    /// batch geometry (global batch 512 sequences, micro-batch 1 — the
    /// Megatron default at 30B+ scales).
    pub fn standard(model: LlmModel) -> Self {
        let seq = model.default_seq;
        TrainingJob {
            model,
            global_batch: 512,
            micro_batch: 1,
            seq,
        }
    }

    /// A job with explicit batch geometry (used by the memory-pressure
    /// experiments that exercise recomputation).
    pub fn with_batch(
        model: LlmModel,
        global_batch: usize,
        micro_batch: usize,
        seq: usize,
    ) -> Self {
        TrainingJob {
            model,
            global_batch,
            micro_batch,
            seq,
        }
    }

    /// Micro-batches per pipeline per iteration under `dp` replicas.
    pub fn microbatches(&self, dp: usize) -> usize {
        (self.global_batch / (dp.max(1) * self.micro_batch.max(1))).max(1)
    }

    /// Tokens processed per iteration.
    pub fn tokens_per_iter(&self) -> usize {
        self.global_batch * self.seq
    }

    /// Useful (non-recompute) FLOPs per iteration: forward + backward over
    /// every token, summed over the exact operator graph.
    pub fn flops_per_iter(&self) -> Flops {
        // Evaluate the unsharded graph (tp = 1) for one micro-batch and
        // scale by micro-batch count.
        let ctx = ShardingCtx::new(self.micro_batch, self.seq, 1, TpSplitStrategy::Megatron);
        let model = &self.model;
        let kinds = PerKind::new(model, |l| {
            let s = graph::summarize(&graph::layer_ops_at(model, l, &ctx));
            s.fwd_flops.as_f64() + s.bwd_flops.as_f64()
        });
        let per_mb: f64 = (0..model.layers).map(|l| kinds.of(model, l)).sum();
        let mbs = self.global_batch as f64 / self.micro_batch as f64;
        Flops::new(per_mb * mbs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn microbatch_arithmetic() {
        let j = TrainingJob::standard(zoo::llama2_30b());
        assert_eq!(j.microbatches(1), 512);
        assert_eq!(j.microbatches(2), 256);
        assert_eq!(j.tokens_per_iter(), 512 * 4096);
        let j = TrainingJob::with_batch(zoo::llama2_30b(), 512, 4, 4096);
        assert_eq!(j.microbatches(1), 128);
    }

    #[test]
    fn graph_flops_close_to_6nt() {
        // The exact operator sum should land within ~40% of 6NT (6NT
        // ignores attention's quadratic term; GQA and gating move it too).
        for m in [zoo::llama2_30b(), zoo::gpt_175b()] {
            let j = TrainingJob::standard(m);
            let exact = j.flops_per_iter().as_f64();
            let est = 6.0 * j.model.active_params() * j.tokens_per_iter() as f64;
            let ratio = exact / est;
            assert!(
                (0.6..1.6).contains(&ratio),
                "{}: exact/6NT = {ratio:.2}",
                j.model.name
            );
        }
    }

    #[test]
    fn degenerate_batches_clamp() {
        let mut j = TrainingJob::standard(zoo::llama2_30b());
        j.global_batch = 2;
        j.micro_batch = 4;
        assert_eq!(j.microbatches(1), 1);
    }
}
