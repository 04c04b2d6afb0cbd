//! Inference-serving workload description: offered request rate, token
//! length distributions, and the derivation of the training-shaped
//! *profile job* the serving cost model profiles stages with.
//!
//! This module is pure workload description — the trace driver, the
//! phase-split cost model and the continuous-batching simulator that
//! consume it live in `wsc-serve`. Everything here is a plain value
//! with serde round-trip, and token sampling is a pure function of a
//! caller-supplied SplitMix64 word: no clocks, no entropy.

use crate::model::LlmModel;
use crate::training::TrainingJob;
use serde::{Deserialize, Serialize};

/// Distribution of per-request token counts (prompt or output),
/// sampled from one 64-bit SplitMix word per draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TokenDist {
    /// Every request uses exactly this many tokens.
    Fixed(usize),
    /// Uniform over `lo..=hi` (inclusive).
    Uniform {
        /// Smallest token count (inclusive).
        lo: usize,
        /// Largest token count (inclusive).
        hi: usize,
    },
}

impl TokenDist {
    /// Largest value the distribution can produce.
    pub fn max(&self) -> usize {
        match self {
            TokenDist::Fixed(n) => *n,
            TokenDist::Uniform { hi, .. } => *hi,
        }
    }

    /// Expected value.
    pub fn mean(&self) -> f64 {
        match self {
            TokenDist::Fixed(n) => *n as f64,
            TokenDist::Uniform { lo, hi } => (*lo + *hi) as f64 / 2.0,
        }
    }

    /// Draw one token count from a SplitMix64 word. A degenerate
    /// `Uniform` range (`hi < lo`) collapses to `lo` rather than
    /// wrapping.
    pub fn sample(&self, word: u64) -> usize {
        match self {
            TokenDist::Fixed(n) => *n,
            TokenDist::Uniform { lo, hi } => {
                let span = hi.saturating_sub(*lo) as u64 + 1;
                lo + (word % span) as usize
            }
        }
    }
}

/// A serving workload: `requests` arrivals at `rate_rps` requests per
/// second (Poisson process seeded by `seed`), each drawing prompt and
/// output lengths from the two [`TokenDist`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingWorkload {
    /// The model being served.
    pub model: LlmModel,
    /// Offered load in requests per second.
    pub rate_rps: f64,
    /// Number of requests in the synthesized trace.
    pub requests: usize,
    /// Prompt (prefill) token length distribution.
    pub prompt: TokenDist,
    /// Output (decode) token length distribution.
    pub output: TokenDist,
    /// Base seed for arrival and length streams.
    pub seed: u64,
}

impl ServingWorkload {
    /// A chat-shaped workload with the default length distributions
    /// (prompts 128–896 tokens, outputs 32–288 tokens).
    pub fn poisson(model: LlmModel, rate_rps: f64, requests: usize, seed: u64) -> Self {
        ServingWorkload {
            model,
            rate_rps,
            requests,
            prompt: TokenDist::Uniform { lo: 128, hi: 896 },
            output: TokenDist::Uniform { lo: 32, hi: 288 },
            seed,
        }
    }

    /// Worst-case context length a request can reach (prompt plus
    /// every generated token) — the KV reservation unit.
    pub fn max_context(&self) -> usize {
        self.prompt.max() + self.output.max()
    }

    /// The training-shaped job the serving search profiles stages
    /// with: one sequence of the worst-case context per micro-batch,
    /// and a global batch large enough that the scheduler may use every
    /// data-parallel slot the wafer offers as an independent serving
    /// replica (Table II tops out at 64 dies; 256 leaves ample slack
    /// without inflating the pipeline simulation's micro-batch count).
    /// The serving leg therefore ranks exactly the
    /// training-schedulable plan space — a plan that cannot even be
    /// scheduled cannot be served.
    pub fn profile_job(&self) -> TrainingJob {
        TrainingJob::with_batch(self.model.clone(), 256, 1, self.max_context().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn token_dist_sampling_is_bounded_and_exact() {
        let d = TokenDist::Uniform { lo: 10, hi: 13 };
        for w in 0..64u64 {
            let n = d.sample(w);
            assert!((10..=13).contains(&n));
        }
        assert_eq!(TokenDist::Fixed(7).sample(12345), 7);
        assert_eq!(d.max(), 13);
        assert_eq!(d.mean(), 11.5);
    }

    #[test]
    fn profile_job_covers_worst_case_context() {
        let w = ServingWorkload::poisson(zoo::llama2_30b(), 4.0, 100, 7);
        let job = w.profile_job();
        assert_eq!(job.seq, w.max_context());
        assert_eq!(job.micro_batch, 1);
        assert!(job.global_batch >= 256, "replicas must not be batch-capped");
    }
}
