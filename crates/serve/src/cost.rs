//! The phase-split serving cost model: prefill is compute-bound over
//! the full prompt, decode is bandwidth-bound at one token per request
//! per step.
//!
//! Everything is derived from the *same* memoized stage profiles the
//! training evaluator uses ([`ProfileCache::stage_profiles`]): a
//! stage's per-token compute is its forward micro-batch time divided by
//! the profile's token count, and its per-token TP-collective time is
//! the closed-form collective model priced at the stage's forward
//! volume.
//! On top of that, serving adds what training never pays per step:
//!
//! - **weight streaming** — a decode step must read the stage's full
//!   weight shard from DRAM (or, for borrowed bytes, across the mesh),
//!   so each step has a bandwidth floor of `weights / bw`;
//! - **KV reads** — each active request re-reads its accumulated
//!   KV-cache, `context_tokens × kv_bytes_per_token / dram_bw`;
//! - **KV capacity** — the per-die DRAM left after weights (and after
//!   any Alg. 3 grants donated to overflowing stages) bounds how many
//!   context tokens a replica can keep resident.
//!
//! Weight shards that exceed a die's DRAM are borrowed from other
//! stages' spare through the exact Alg. 3 allocator
//! ([`watos::dram_alloc`]); an incomplete allocation makes the plan
//! infeasible for serving, and granted bytes both stream slower (D2D
//! link instead of local DRAM) and shrink the helpers' KV budget.

use watos::cache::ProfileCache;
use watos::dram_alloc::allocate;
use watos::scheduler::ScheduledConfig;
use wsc_arch::units::Bytes;
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{all_reduce_time, GroupShape};
use wsc_workload::training::TrainingJob;

/// Per-stage serving costs, all in seconds (per token where named so).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePhaseCost {
    /// Stage index.
    pub stage: usize,
    /// Compute seconds per token (prefill and decode alike).
    pub compute_per_token: f64,
    /// TP-collective seconds per token.
    pub comm_per_token: f64,
    /// Bandwidth floor of one step: stream the stage's weight shard
    /// (local DRAM for resident bytes, D2D link + hop latency for
    /// borrowed bytes).
    pub weight_stream: f64,
    /// Seconds to re-read one resident context token's KV during decode.
    pub kv_read_per_token: f64,
    /// KV-cache bytes per context token per die.
    pub kv_per_token_bytes: f64,
    /// Weight-shard bytes per die.
    pub weight_bytes: Bytes,
    /// Per-die DRAM left for KV after weights and outbound grants.
    pub kv_budget: Bytes,
}

/// The derived phase-split cost of one scheduled candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Per-pipeline-stage costs.
    pub stages: Vec<StagePhaseCost>,
    /// Data-parallel replica count (independent serving engines).
    pub dp: usize,
    /// Pipeline depth.
    pub pp: usize,
    /// Resident context tokens one replica's KV budget can hold
    /// (minimum over stages).
    pub token_capacity: usize,
    /// Weight bytes hosted on other stages' DRAM via Alg. 3 grants.
    pub borrowed_weight_bytes: Bytes,
}

impl PhaseCost {
    /// Derive the serving cost of a scheduled candidate, or `None` when
    /// the plan cannot serve at all: no TP rectangle, weight shards
    /// that even Alg. 3 borrowing cannot place, or a KV budget that
    /// cannot hold a single context token.
    pub fn derive(
        wafer: &WaferConfig,
        job: &TrainingJob,
        cfg: &ScheduledConfig,
        cache: &ProfileCache,
    ) -> Option<PhaseCost> {
        let spec = cfg.parallel;
        let profiles = cache.stage_profiles(wafer, job, &cfg.plan, job.microbatches(spec.dp));
        if profiles.is_empty() {
            return None;
        }
        let profile_tokens = (job.micro_batch * job.seq) as f64;
        if profile_tokens <= 0.0 {
            return None;
        }
        let dram_bw = wafer.dram.bandwidth.as_bytes_per_s();
        let d2d_bw = wafer.d2d_link_bw().as_bytes_per_s();
        let capacity = wafer.dram.capacity;
        let shape = if spec.tp > 1 {
            GroupShape::best_rectangle(spec.tp, wafer.nx, wafer.ny)?
        } else {
            GroupShape::new(1, 1)
        };

        // fp16 inference: 2 bytes per weight, K and V at 2 bytes each.
        let weight_bytes_f =
            |layers: usize| job.model.layer_params() * layers as f64 * 2.0 / spec.tp as f64;
        let kv_per_token =
            |layers: usize| 2.0 * job.model.kv_dim() as f64 * 2.0 * layers as f64 / spec.tp as f64;

        let weights: Vec<Bytes> = profiles
            .iter()
            .map(|sp| Bytes::new(weight_bytes_f(sp.layers).round() as u64))
            .collect();
        let overflow: Vec<Bytes> = weights.iter().map(|w| w.saturating_sub(capacity)).collect();
        let spare: Vec<Bytes> = weights
            .iter()
            .map(|w| capacity.saturating_sub(*w))
            .collect();

        // Alg. 3 weight borrowing for overflowing shards. Grants shrink
        // the helper's KV budget and move the sender's borrowed bytes
        // onto the D2D link.
        let mut granted_out = vec![Bytes::ZERO; profiles.len()];
        let mut borrowed_in = vec![(Bytes::ZERO, 0.0f64); profiles.len()];
        let mut borrowed_total = Bytes::ZERO;
        if overflow.iter().any(|o| o.as_u64() > 0) {
            if cfg.placement.stages.len() != profiles.len() {
                return None;
            }
            let alloc = allocate(&cfg.placement, &overflow, &spare);
            if !alloc.complete() {
                return None;
            }
            for g in &alloc.grants {
                granted_out[g.helper] += g.bytes;
                let (b, hops) = &mut borrowed_in[g.sender];
                *b += g.bytes;
                *hops = hops.max(g.hops);
                borrowed_total += g.bytes;
            }
        }

        let alpha = wafer.d2d_link_latency.as_secs();
        let mut stages = Vec::with_capacity(profiles.len());
        let mut token_capacity = f64::INFINITY;
        for (s, sp) in profiles.iter().enumerate() {
            let comm_per_token = if spec.tp > 1 {
                all_reduce_time(
                    cfg.collective,
                    shape,
                    sp.fwd_comm_bytes,
                    wafer.d2d_link_bw(),
                    wafer.d2d_link_latency,
                )
                .as_secs()
                    / profile_tokens
            } else {
                0.0
            };
            let local = weights[s].min(capacity);
            let (remote, hops) = borrowed_in[s];
            let weight_stream = local.as_f64() / dram_bw
                + if remote.as_u64() > 0 {
                    remote.as_f64() / d2d_bw + hops * alpha
                } else {
                    0.0
                };
            let kv_budget = spare[s].saturating_sub(granted_out[s]);
            let kv_tok = kv_per_token(sp.layers);
            if kv_tok > 0.0 {
                token_capacity = token_capacity.min(kv_budget.as_f64() / kv_tok);
            }
            stages.push(StagePhaseCost {
                stage: s,
                compute_per_token: sp.fwd_compute.as_secs() / profile_tokens,
                comm_per_token,
                weight_stream,
                kv_read_per_token: kv_tok / dram_bw,
                kv_per_token_bytes: kv_tok,
                weight_bytes: weights[s],
                kv_budget,
            });
        }
        let token_capacity = if token_capacity.is_finite() {
            token_capacity.floor() as usize
        } else {
            usize::MAX
        };
        if token_capacity == 0 {
            return None;
        }
        Some(PhaseCost {
            stages,
            dp: spec.dp.max(1),
            pp: spec.pp.max(1),
            token_capacity,
            borrowed_weight_bytes: borrowed_total,
        })
    }

    /// One continuous-batching step over every stage: `batch_tokens`
    /// tokens flow through (prefill prompts plus one per decoding
    /// request), `ctx_read_tokens` resident context tokens are re-read.
    /// Returns `(cadence, traversal)`: the pipeline advances at the
    /// slowest stage's pace, a token emitted this step additionally
    /// waits out the remaining stages' fill (`traversal - cadence`).
    pub fn step_secs(&self, batch_tokens: usize, ctx_read_tokens: usize) -> (f64, f64) {
        let mut cadence = 0.0f64;
        let mut traversal = 0.0f64;
        for st in &self.stages {
            let compute = batch_tokens as f64 * st.compute_per_token;
            let t = compute.max(st.weight_stream)
                + batch_tokens as f64 * st.comm_per_token
                + ctx_read_tokens as f64 * st.kv_read_per_token;
            cadence = cadence.max(t);
            traversal += t;
        }
        (cadence, traversal)
    }
}
