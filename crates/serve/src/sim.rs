//! The continuous-batching serving simulator: a discrete-event loop
//! over request arrivals in the LLMEngineOnWafer mold.
//!
//! Requests are split over the plan's `dp` replicas at arrival by
//! join-shortest-queue (least outstanding assigned context tokens,
//! lowest replica index on ties), then each replica runs an ORCA-style
//! iteration loop: every step serves one decode token per active
//! request plus as many queued prompts as fit under the
//! [`SimConfig::max_batch_tokens`] admission cap and the replica's KV
//! budget, FCFS. A step's duration comes from the phase-split cost
//! model ([`PhaseCost::step_secs`]): the pipeline advances at the
//! bottleneck stage's cadence, and tokens emitted this step wait out
//! the remaining pipeline fill on top.
//!
//! Only a step that admits or completes a request emits a token that
//! TTFT, TBT or E2E reads, so only those steps sum the pipeline
//! traversal through [`PhaseCost::step_secs`]. Every other step decodes
//! an unchanged batch and advances the clock by its cadence alone: the
//! max over the plan's bitwise-distinct stage costs, equal bit for bit
//! to the max over every stage. Completions come off a min-heap keyed
//! by each request's last step, and the re-read context is a running
//! sum, so such a step costs O(distinct stage kinds). The makespan, the
//! latest emit of any step, stays exact: each run of decode steps keeps
//! an upper bound on its emits, and when the step that ends the run
//! leaves the makespan below that bound, the run is replayed through
//! `step_secs`.
//!
//! Everything is pure arithmetic over the trace: `Vec`s, FCFS
//! order and `f64::total_cmp` digests with NaN last — no clocks, no
//! entropy, no hash-order iteration — so one trace yields one report,
//! bit-exact across runs and thread counts.

use crate::cost::PhaseCost;
use crate::kv::KvTracker;
use crate::trace::{Trace, TraceError};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use thiserror::Error;
use watos::SummaryStats;

/// Continuous-batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Admission cap: tokens one step may carry per replica (decode
    /// tokens of active requests plus admitted prompt tokens).
    pub max_batch_tokens: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_batch_tokens: 2048,
        }
    }
}

/// The service-level objective a request must meet to count toward
/// goodput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingSlo {
    /// Time-to-first-token ceiling in seconds.
    pub ttft_secs: f64,
}

impl ServingSlo {
    /// An SLO on TTFT only.
    pub fn ttft(secs: f64) -> Self {
        ServingSlo { ttft_secs: secs }
    }
}

/// Typed failure modes of a serving simulation.
#[derive(Debug, Clone, PartialEq, Error)]
pub enum ServeError {
    /// The trace failed validation.
    #[error("invalid trace: {source}")]
    Trace {
        /// The underlying trace defect.
        source: TraceError,
    },
    /// A prompt alone exceeds the admission cap — it can never start.
    #[error("request {id}'s prompt of {tokens} tokens exceeds the {cap}-token batch cap")]
    PromptExceedsBatchCap {
        /// Offending request id.
        id: usize,
        /// Its prompt tokens.
        tokens: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A single request's context exceeds the replica's KV capacity.
    #[error(
        "request {id} needs {tokens} context tokens of KV but a replica holds only {capacity}"
    )]
    KvCapacityExceeded {
        /// Offending request id.
        id: usize,
        /// Its worst-case context tokens.
        tokens: usize,
        /// Replica KV capacity in tokens.
        capacity: usize,
    },
}

impl From<TraceError> for ServeError {
    fn from(source: TraceError) -> Self {
        ServeError::Trace { source }
    }
}

/// Per-request latency outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestMetrics {
    /// Trace request id.
    pub id: usize,
    /// Replica that served it.
    pub replica: usize,
    /// Time to first token (seconds from arrival).
    pub ttft_s: f64,
    /// Mean time between output tokens after the first (zero for
    /// single-token outputs).
    pub tbt_s: f64,
    /// End-to-end latency (seconds from arrival to last token).
    pub e2e_s: f64,
}

/// Aggregate outcome of one simulated trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests in the trace (all complete by construction).
    pub requests: usize,
    /// Data-parallel replicas that served them.
    pub replicas: usize,
    /// Simulated steps summed over replicas.
    pub steps: usize,
    /// Seconds from first arrival to last emitted token.
    pub makespan_s: f64,
    /// Generated (output) tokens per second over the makespan.
    pub throughput_tok_s: f64,
    /// Time-to-first-token digest.
    pub ttft: SummaryStats,
    /// Time-between-tokens digest over the requests with more than one
    /// output token.
    pub tbt: SummaryStats,
    /// End-to-end latency digest.
    pub e2e: SummaryStats,
    /// Requests whose TTFT met the SLO.
    pub slo_met: usize,
    /// SLO-met requests per second over the makespan — the serving
    /// search's objective (negated).
    pub goodput_rps: f64,
    /// Context tokens one replica's KV budget holds.
    pub kv_capacity_tokens: usize,
    /// Highest reserved-token watermark across replicas.
    pub kv_peak_tokens: usize,
    /// `kv_peak_tokens / kv_capacity_tokens`.
    pub kv_peak_fraction: f64,
    /// Per-request outcomes, trace order.
    pub per_request: Vec<RequestMetrics>,
}

/// The plan's stages grouped by bitwise-equal decode cost.
struct StageKinds {
    /// `(compute_per_token, weight_stream, comm_per_token,
    /// kv_read_per_token)` of each kind, first appearance first, and
    /// the number of stages that share it.
    kinds: Vec<([f64; 4], f64)>,
    /// Scales the per-kind traversal sum into an upper bound on the
    /// per-stage one; NaN when a negative cost voids that bound.
    margin: f64,
}

impl StageKinds {
    fn new(cost: &PhaseCost) -> Self {
        let mut kinds: Vec<([f64; 4], f64)> = Vec::new();
        for st in &cost.stages {
            let kind = [
                st.compute_per_token,
                st.weight_stream,
                st.comm_per_token,
                st.kv_read_per_token,
            ];
            match kinds
                .iter_mut()
                .find(|(k, _)| k.map(f64::to_bits) == kind.map(f64::to_bits))
            {
                Some((_, stages)) => *stages += 1.0,
                None => kinds.push((kind, 1.0)),
            }
        }
        // Summed in order, `n` non-negative stage times round up by at
        // most a factor `(1 + ε/2)^(n-1)`; the per-kind products, their
        // sum and the scaling round down by at most
        // `(1 - ε/2)^(kinds + 1)`. `1 + 4(n + 2)ε` (exact in f64) covers
        // both. A negative cost voids these relative bounds.
        let negative = kinds.iter().any(|(k, _)| k.iter().any(|&x| x < 0.0));
        let margin = if negative {
            f64::NAN
        } else {
            1.0 + 4.0 * (cost.stages.len() + 2) as f64 * f64::EPSILON
        };
        StageKinds { kinds, margin }
    }

    /// A step's cadence, bit for bit [`PhaseCost::step_secs`]'s (a max
    /// ignores order and multiplicity), and an upper bound on its
    /// traversal (NaN under a negative cost).
    fn decode_step(&self, batch_tokens: usize, ctx_read_tokens: usize) -> (f64, f64) {
        let (batch, ctx) = (batch_tokens as f64, ctx_read_tokens as f64);
        let mut cadence = 0.0f64;
        let mut traversal = 0.0f64;
        for &([compute, weight_stream, comm, kv_read], stages) in &self.kinds {
            // Term for term the stage time of `PhaseCost::step_secs`.
            let t = (batch * compute).max(weight_stream) + batch * comm + ctx * kv_read;
            cadence = cadence.max(t);
            traversal += stages * t;
        }
        (cadence, traversal * self.margin)
    }
}

/// A run of decode steps between two steps that admit or complete a
/// request: the O(1) state that replays its emits exactly.
#[derive(Default)]
struct DecodeRun {
    /// Clock before the run's first step.
    clock: f64,
    /// Resident context its first step re-reads.
    ctx_read: usize,
    /// Tokens of each step: one per decoding request.
    batch: usize,
    /// Steps so far.
    steps: usize,
    /// The largest upper bound on a step's emit; NaN once one is NaN.
    emit_bound: f64,
}

impl DecodeRun {
    fn push(&mut self, clock: f64, batch: usize, ctx_read: usize, emit_bound: f64) {
        if self.steps == 0 {
            *self = DecodeRun {
                clock,
                ctx_read,
                batch,
                steps: 0,
                emit_bound,
            };
        } else if emit_bound.is_nan() || emit_bound > self.emit_bound {
            self.emit_bound = emit_bound;
        }
        self.steps += 1;
    }

    /// End the run. Its emits are dropped when their bound shows none
    /// raises `makespan`, and folded in through
    /// [`PhaseCost::step_secs`] otherwise.
    fn close(&mut self, cost: &PhaseCost, makespan: &mut f64) {
        let steps = std::mem::take(&mut self.steps);
        // A NaN bound compares false and replays.
        if steps == 0 || self.emit_bound <= *makespan {
            return;
        }
        let mut clock = self.clock;
        for i in 0..steps {
            let (cadence, traversal) = cost.step_secs(self.batch, self.ctx_read + i * self.batch);
            clock += cadence;
            *makespan = makespan.max(clock + (traversal - cadence));
        }
    }
}

/// What the replica loops accumulate for the report.
struct Outcome {
    /// Per-request outcomes, trace order; written at admission.
    metrics: Vec<Option<RequestMetrics>>,
    /// The latest emit of any step.
    makespan: f64,
    /// Steps summed over replicas.
    steps: usize,
    /// Highest reserved-token watermark across replicas.
    kv_peak: usize,
}

/// Check the trace against the batch cap and the KV capacity, then
/// split it over the `dp` replicas: each request, in arrival order,
/// joins the replica with the least outstanding assigned context
/// tokens (lowest index on ties), so the split is a pure function of
/// the trace.
fn split_replicas(
    cost: &PhaseCost,
    trace: &Trace,
    cfg: &SimConfig,
) -> Result<Vec<Vec<usize>>, ServeError> {
    trace.validate()?;
    for r in &trace.requests {
        if r.prompt_tokens > cfg.max_batch_tokens {
            return Err(ServeError::PromptExceedsBatchCap {
                id: r.id,
                tokens: r.prompt_tokens,
                cap: cfg.max_batch_tokens,
            });
        }
        if r.context_tokens() > cost.token_capacity {
            return Err(ServeError::KvCapacityExceeded {
                id: r.id,
                tokens: r.context_tokens(),
                capacity: cost.token_capacity,
            });
        }
    }
    let dp = cost.dp.max(1);
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); dp];
    let mut loads = vec![0usize; dp];
    for (i, r) in trace.requests.iter().enumerate() {
        let mut target = 0usize;
        for j in 1..dp {
            if loads[j] < loads[target] {
                target = j;
            }
        }
        queues[target].push(i);
        loads[target] += r.context_tokens();
    }
    Ok(queues)
}

/// Simulate a validated trace on one scheduled candidate's phase-split
/// cost, under the batching config and SLO.
pub fn simulate(
    cost: &PhaseCost,
    trace: &Trace,
    cfg: &SimConfig,
    slo: &ServingSlo,
) -> Result<ServingReport, ServeError> {
    let out = serve(cost, trace, cfg)?;
    Ok(report(cost, trace, slo, out))
}

/// Split the trace over the replicas and run each one's iteration loop.
fn serve(cost: &PhaseCost, trace: &Trace, cfg: &SimConfig) -> Result<Outcome, ServeError> {
    let queues = split_replicas(cost, trace, cfg)?;
    let kinds = StageKinds::new(cost);
    let mut out = Outcome {
        metrics: vec![None; trace.requests.len()],
        makespan: 0.0,
        steps: 0,
        kv_peak: 0,
    };
    // Decoding requests keyed by the step that emits their last token.
    let mut finishing: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
    for (replica, queue) in queues.iter().enumerate() {
        let mut kv = KvTracker::new(cost.token_capacity);
        let mut run = DecodeRun::default();
        let mut next = 0usize;
        let mut clock = 0.0f64;
        let mut step = 0usize;
        // Resident context the decoding requests re-read: prompt plus
        // generated tokens.
        let mut ctx_read = 0usize;
        while next < queue.len() || !finishing.is_empty() {
            if finishing.is_empty() {
                clock = clock.max(trace.requests[queue[next]].arrival_s);
            }
            // ORCA-style admission under the token cap and KV budget.
            let decoding = finishing.len();
            let mut batch_tokens = decoding;
            let first = next;
            while next < queue.len() {
                let r = &trace.requests[queue[next]];
                if r.arrival_s > clock
                    || batch_tokens + r.prompt_tokens > cfg.max_batch_tokens
                    || !kv.fits(r.context_tokens())
                {
                    break;
                }
                kv.admit(r.context_tokens());
                batch_tokens += r.prompt_tokens;
                next += 1;
            }
            let completes = finishing
                .peek()
                .is_some_and(|&Reverse((last, _))| last == step);
            if next == first && !completes {
                // No metric reads this step's emit: advance by the
                // cadence and bound the emit for the makespan.
                let (cadence, traversal) = kinds.decode_step(batch_tokens, ctx_read);
                let start = clock;
                clock += cadence;
                run.push(start, batch_tokens, ctx_read, clock + (traversal - cadence));
                ctx_read += decoding;
                step += 1;
                continue;
            }
            let (cadence, traversal) = cost.step_secs(batch_tokens, ctx_read);
            clock += cadence;
            // Tokens produced this step surface after the remaining
            // pipeline fill on top of the cadence the loop advances by.
            let emit = clock + (traversal - cadence);
            out.makespan = out.makespan.max(emit);
            run.close(cost, &mut out.makespan);
            ctx_read += decoding;

            // Completions release their reservation.
            while let Some(&Reverse((last, i))) = finishing.peek() {
                if last != step {
                    break;
                }
                finishing.pop();
                let r = &trace.requests[i];
                let m = out.metrics[i]
                    .as_mut()
                    // wsc-lint: allow(S001, "admission wrote this slot before pushing the request onto `finishing`")
                    .expect("decoding requests recorded TTFT at admission");
                m.e2e_s = emit - r.arrival_s;
                m.tbt_s = (m.e2e_s - m.ttft_s) / (r.output_tokens - 1) as f64;
                kv.release(r.context_tokens());
                ctx_read -= r.context_tokens();
            }
            // Admitted prompts emit their first token this step.
            for &i in &queue[first..next] {
                let r = &trace.requests[i];
                let ttft = emit - r.arrival_s;
                out.metrics[i] = Some(RequestMetrics {
                    id: r.id,
                    replica,
                    ttft_s: ttft,
                    tbt_s: 0.0,
                    e2e_s: ttft,
                });
                if r.output_tokens > 1 {
                    finishing.push(Reverse((step + r.output_tokens - 1, i)));
                    ctx_read += r.prompt_tokens + 1;
                } else {
                    kv.release(r.context_tokens());
                }
            }
            step += 1;
        }
        out.steps += step;
        out.kv_peak = out.kv_peak.max(kv.peak_tokens);
    }
    Ok(out)
}

/// Digest the replica loops' outcome.
fn report(cost: &PhaseCost, trace: &Trace, slo: &ServingSlo, out: Outcome) -> ServingReport {
    let per_request: Vec<RequestMetrics> = out
        .metrics
        .into_iter()
        // wsc-lint: allow(S001, "the per-replica loops run to queue exhaustion and the upfront cap/KV checks rule out unadmittable requests, so every slot was written")
        .map(|m| m.expect("every request completes: admission is FCFS and reservations suffice"))
        .collect();
    let slo_met = per_request
        .iter()
        .filter(|m| m.ttft_s <= slo.ttft_secs)
        .count();
    let (_, out_tokens) = trace.total_tokens();
    let makespan = out.makespan.max(f64::MIN_POSITIVE);
    let zero = SummaryStats {
        count: 0,
        mean: 0.0,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        max: 0.0,
    };
    let digest = |samples: Vec<f64>| SummaryStats::from_samples(&samples).unwrap_or(zero);
    ServingReport {
        requests: trace.requests.len(),
        replicas: cost.dp.max(1),
        steps: out.steps,
        makespan_s: makespan,
        throughput_tok_s: out_tokens as f64 / makespan,
        ttft: digest(per_request.iter().map(|m| m.ttft_s).collect()),
        // Only a request with a second token has a time between tokens;
        // its TBT may be any value, zero and NaN included.
        tbt: digest(
            per_request
                .iter()
                .zip(&trace.requests)
                .filter(|(_, r)| r.output_tokens > 1)
                .map(|(m, _)| m.tbt_s)
                .collect(),
        ),
        e2e: digest(per_request.iter().map(|m| m.e2e_s).collect()),
        slo_met,
        goodput_rps: slo_met as f64 / makespan,
        kv_capacity_tokens: cost.token_capacity,
        kv_peak_tokens: out.kv_peak,
        kv_peak_fraction: if cost.token_capacity == 0 || cost.token_capacity == usize::MAX {
            0.0
        } else {
            out.kv_peak as f64 / cost.token_capacity as f64
        },
        per_request,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StagePhaseCost;
    use crate::trace::Request;
    use proptest::prelude::*;
    use watos::{splitmix64, unit_open};
    use wsc_arch::units::Bytes;
    use wsc_workload::serving::ServingWorkload;
    use wsc_workload::zoo;

    struct Active {
        qidx: usize,
        output_tokens: usize,
        context_tokens: usize,
        prompt_tokens: usize,
        generated: usize,
    }

    /// The per-step loop `serve` replaced, kept as its oracle: every
    /// step sums the traversal over every stage and scans every active
    /// request.
    fn serve_per_step(
        cost: &PhaseCost,
        trace: &Trace,
        cfg: &SimConfig,
    ) -> Result<Outcome, ServeError> {
        let queues = split_replicas(cost, trace, cfg)?;
        let mut metrics: Vec<Option<RequestMetrics>> = vec![None; trace.requests.len()];
        let mut makespan = 0.0f64;
        let mut steps = 0usize;
        let mut kv_peak = 0usize;

        for (replica, queue) in queues.iter().enumerate() {
            let mut kv = KvTracker::new(cost.token_capacity);
            let mut active: Vec<Active> = Vec::new();
            let mut next = 0usize;
            let mut clock = 0.0f64;
            while next < queue.len() || !active.is_empty() {
                if active.is_empty() {
                    clock = clock.max(trace.requests[queue[next]].arrival_s);
                }
                let mut batch_tokens = active.len();
                let mut admitted: Vec<usize> = Vec::new();
                while next < queue.len() {
                    let r = &trace.requests[queue[next]];
                    if r.arrival_s > clock
                        || batch_tokens + r.prompt_tokens > cfg.max_batch_tokens
                        || !kv.fits(r.context_tokens())
                    {
                        break;
                    }
                    kv.admit(r.context_tokens());
                    batch_tokens += r.prompt_tokens;
                    admitted.push(next);
                    next += 1;
                }
                let ctx_read: usize = active.iter().map(|a| a.prompt_tokens + a.generated).sum();
                let (cadence, traversal) = cost.step_secs(batch_tokens, ctx_read);
                clock += cadence;
                steps += 1;
                let emit = clock + (traversal - cadence);
                makespan = makespan.max(emit);

                active.retain_mut(|a| {
                    a.generated += 1;
                    if a.generated >= a.output_tokens {
                        let r = &trace.requests[queue[a.qidx]];
                        let m = metrics[queue[a.qidx]].as_mut().unwrap();
                        m.e2e_s = emit - r.arrival_s;
                        if a.output_tokens > 1 {
                            m.tbt_s = (m.e2e_s - m.ttft_s) / (a.output_tokens - 1) as f64;
                        }
                        kv.release(a.context_tokens);
                        false
                    } else {
                        true
                    }
                });
                for &qidx in &admitted {
                    let r = &trace.requests[queue[qidx]];
                    let ttft = emit - r.arrival_s;
                    metrics[queue[qidx]] = Some(RequestMetrics {
                        id: r.id,
                        replica,
                        ttft_s: ttft,
                        tbt_s: 0.0,
                        e2e_s: ttft,
                    });
                    if r.output_tokens > 1 {
                        active.push(Active {
                            qidx,
                            output_tokens: r.output_tokens,
                            context_tokens: r.context_tokens(),
                            prompt_tokens: r.prompt_tokens,
                            generated: 1,
                        });
                    } else {
                        kv.release(r.context_tokens());
                    }
                }
            }
            kv_peak = kv_peak.max(kv.peak_tokens);
        }
        Ok(Outcome {
            metrics,
            makespan,
            steps,
            kv_peak,
        })
    }

    /// Every field of a report as bits, so NaNs and signed zeros count.
    fn bits(report: &ServingReport) -> Vec<u64> {
        let ServingReport {
            requests,
            replicas,
            steps,
            makespan_s,
            throughput_tok_s,
            ttft,
            tbt,
            e2e,
            slo_met,
            goodput_rps,
            kv_capacity_tokens,
            kv_peak_tokens,
            kv_peak_fraction,
            per_request,
        } = report;
        let mut bits = vec![
            *requests as u64,
            *replicas as u64,
            *steps as u64,
            makespan_s.to_bits(),
            throughput_tok_s.to_bits(),
            *slo_met as u64,
            goodput_rps.to_bits(),
            *kv_capacity_tokens as u64,
            *kv_peak_tokens as u64,
            kv_peak_fraction.to_bits(),
        ];
        for digest in [ttft, tbt, e2e] {
            let SummaryStats {
                count,
                mean,
                p50,
                p95,
                p99,
                max,
            } = digest;
            bits.push(*count as u64);
            bits.extend([mean, p50, p95, p99, max].map(|x| x.to_bits()));
        }
        for m in per_request {
            let RequestMetrics {
                id,
                replica,
                ttft_s,
                tbt_s,
                e2e_s,
            } = m;
            bits.extend([*id as u64, *replica as u64]);
            bits.extend([ttft_s, tbt_s, e2e_s].map(|x| x.to_bits()));
        }
        bits
    }

    fn assert_matches_per_step(cost: &PhaseCost, trace: &Trace, cfg: &SimConfig) {
        let slo = ServingSlo::ttft(1.0);
        let fast = simulate(cost, trace, cfg, &slo);
        let oracle = serve_per_step(cost, trace, cfg).map(|out| report(cost, trace, &slo, out));
        match (&fast, &oracle) {
            (Ok(f), Ok(o)) => assert_eq!(
                bits(f),
                bits(o),
                "report differs from the per-step loop on {cost:?}, {trace:?}, {cfg:?}"
            ),
            _ => assert_eq!(fast, oracle),
        }
    }

    fn stage(stage: usize, [compute, weight_stream, comm, kv_read]: [f64; 4]) -> StagePhaseCost {
        StagePhaseCost {
            stage,
            compute_per_token: compute,
            comm_per_token: comm,
            weight_stream,
            kv_read_per_token: kv_read,
            kv_per_token_bytes: 0.0,
            weight_bytes: Bytes::ZERO,
            kv_budget: Bytes::ZERO,
        }
    }

    fn plan(kinds: &[[f64; 4]], dp: usize, token_capacity: usize) -> PhaseCost {
        PhaseCost {
            stages: kinds
                .iter()
                .enumerate()
                .map(|(s, &k)| stage(s, k))
                .collect(),
            dp,
            pp: kinds.len(),
            token_capacity,
            borrowed_weight_bytes: Bytes::ZERO,
        }
    }

    /// Uniform draws from one SplitMix64 stream.
    struct Draws {
        seed: u64,
        index: u64,
    }

    impl Draws {
        fn word(&mut self) -> u64 {
            self.index += 1;
            splitmix64(self.seed, self.index)
        }

        /// Uniform in `lo..=hi`.
        fn int(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.word() % (hi - lo + 1) as u64) as usize
        }

        /// Uniform in `(0, scale]`.
        fn real(&mut self, scale: f64) -> f64 {
            unit_open(self.word()) * scale
        }
    }

    proptest! {
        #[test]
        fn decode_runs_match_the_per_step_loop(
            seed in 0u64..u64::MAX,
            kinds in 1usize..4,
            stages in 1usize..65,
            dp in 1usize..9,
        ) {
            let mut d = Draws { seed, index: 0 };
            // Bursts of zero gaps between Poisson gaps at 0.5–512 req/s;
            // few requests often enough that `dp` exceeds them.
            let requests = if d.int(0, 3) == 0 { d.int(1, 8) } else { d.int(1, 200) };
            let rate = 0.5 * f64::from(1u32 << d.int(0, 10));
            let mut arrival = 0.0f64;
            let trace = Trace {
                requests: (0..requests)
                    .map(|id| {
                        if d.int(0, 2) > 0 {
                            arrival += -unit_open(d.word()).ln() / rate;
                        }
                        let output_tokens = match d.int(0, 3) {
                            0 => 1,
                            1 => d.int(2, 16),
                            2 => d.int(17, 64),
                            _ => d.int(100, 400),
                        };
                        Request {
                            id,
                            arrival_s: arrival,
                            prompt_tokens: d.int(1, 512),
                            output_tokens,
                        }
                    })
                    .collect(),
            };
            // Zero-cost and zero-KV-read kinds among random ones.
            let menu: Vec<[f64; 4]> = (0..kinds)
                .map(|_| match d.int(0, 4) {
                    0 => [0.0; 4],
                    1 => [d.real(1e-4), d.real(1e-2), d.real(1e-5), 0.0],
                    _ => [d.real(1e-4), d.real(1e-2), d.real(1e-5), d.real(1e-7)],
                })
                .collect();
            let stage_kinds: Vec<[f64; 4]> =
                (0..stages).map(|_| menu[d.int(0, kinds - 1)]).collect();
            // From a capacity that serializes the longest requests up to
            // none at all; batch caps from the largest prompt up.
            let longest = trace.requests.iter().map(Request::context_tokens).max().unwrap();
            let capacity = match d.int(0, 2) {
                0 => usize::MAX,
                1 => longest + d.int(0, longest),
                _ => longest * d.int(2, 16),
            };
            let largest = trace.requests.iter().map(|r| r.prompt_tokens).max().unwrap();
            let cfg = SimConfig { max_batch_tokens: largest + d.int(0, 8192) };
            assert_matches_per_step(&plan(&stage_kinds, dp, capacity), &trace, &cfg);
        }
    }

    fn workload_trace() -> Trace {
        Trace::synthesize(&ServingWorkload::poisson(zoo::llama2_30b(), 8.0, 64, 7))
    }

    #[test]
    fn a_one_stage_plan_matches_the_per_step_loop() {
        let cost = plan(&[[2e-5, 4e-3, 1e-6, 3e-8]], 2, 20_000);
        assert_matches_per_step(&cost, &workload_trace(), &SimConfig::default());
    }

    #[test]
    fn a_stage_that_never_streams_its_weights_takes_the_exact_replay() {
        let fast = [2e-5, 4e-3, 1e-6, 3e-8];
        let stuck = [2e-5, f64::INFINITY, 1e-6, 3e-8];
        let cost = plan(&[fast, stuck, fast, fast], 1, usize::MAX);
        let (cadence, traversal) = StageKinds::new(&cost).decode_step(4, 100);
        assert!((traversal - cadence).is_nan(), "the emit bound must be NaN");
        assert_matches_per_step(&cost, &workload_trace(), &SimConfig::default());
    }

    #[test]
    fn tbt_digests_every_multi_token_request() {
        // TBT samples every request with a second token, whatever its
        // value: a zero-cost plan makes each one exactly 0, and a stage
        // that never streams its weights makes every latency NaN. The
        // max then sorts NaN as the percentiles do (it read -inf).
        let trace = workload_trace();
        let multi = trace
            .requests
            .iter()
            .filter(|r| r.output_tokens > 1)
            .count();
        assert!(multi > 0);
        let serve = |kind: [f64; 4]| {
            simulate(
                &plan(&[kind], 1, usize::MAX),
                &trace,
                &SimConfig::default(),
                &ServingSlo::ttft(1.0),
            )
            .expect("the trace fits")
        };
        let free = serve([0.0; 4]);
        assert_eq!((free.tbt.count, free.tbt.max), (multi, 0.0));
        let stuck = serve([2e-5, f64::INFINITY, 1e-6, 3e-8]);
        assert_eq!(stuck.tbt.count, multi);
        for digest in [stuck.ttft, stuck.tbt, stuck.e2e] {
            assert!(digest.p50.is_nan() && digest.max.is_nan(), "{digest:?}");
        }
    }

    #[test]
    fn a_decode_step_that_sets_the_makespan_is_replayed() {
        // A negative per-token cost makes every emit earlier than the
        // one before it, so the first decode step emits last and the
        // makespan comes from no step that admits or completes.
        let cost = plan(&[[0.0, 0.0, -1.0, -1e-3]], 1, usize::MAX);
        let trace = Trace {
            requests: vec![Request {
                id: 0,
                arrival_s: 5.0,
                prompt_tokens: 100,
                output_tokens: 10,
            }],
        };
        let report = simulate(&cost, &trace, &SimConfig::default(), &ServingSlo::ttft(1.0))
            .expect("the request fits");
        let m = report.per_request[0];
        assert!(report.makespan_s > 5.0 + m.e2e_s.max(m.ttft_s));
        assert_matches_per_step(&cost, &trace, &SimConfig::default());
    }
}
