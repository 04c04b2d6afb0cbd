//! Request traces: seeded synthetic Poisson arrivals and a replayable
//! JSON trace-file format.
//!
//! Synthesis is a pure function of the [`ServingWorkload`]: request `i`
//! draws its inter-arrival gap, prompt length and output length from
//! three decorrelated SplitMix64 streams (`watos::splitmix64` over
//! `(seed, 3i)`, `(seed, 3i+1)`, `(seed, 3i+2)`), so the same workload
//! always yields the byte-identical trace — no clocks, no entropy
//! (wsc-lint D004 clean). Traces round-trip through JSON bit-exactly,
//! and every malformed input surfaces as a typed [`TraceError`]
//! instead of a panic (S001 clean).

use serde::{Deserialize, Serialize};
use thiserror::Error;
use watos::{splitmix64, unit_open};
use wsc_workload::serving::ServingWorkload;

/// One inference request in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Trace-wide request index.
    pub id: usize,
    /// Arrival time in seconds from the start of the trace.
    pub arrival_s: f64,
    /// Prompt (prefill) tokens; must be positive.
    pub prompt_tokens: usize,
    /// Output (decode) tokens to generate; must be positive.
    pub output_tokens: usize,
}

impl Request {
    /// Worst-case resident context: prompt plus every generated token.
    pub fn context_tokens(&self) -> usize {
        self.prompt_tokens + self.output_tokens
    }
}

/// A validated request trace, sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Requests in non-decreasing arrival order.
    pub requests: Vec<Request>,
}

/// Typed failure modes of trace parsing and validation.
#[derive(Debug, Clone, PartialEq, Error)]
pub enum TraceError {
    /// The input was not a well-formed JSON trace document.
    #[error("trace file is not a valid JSON trace: {detail}")]
    Malformed {
        /// Parser/decoder diagnostic.
        detail: String,
    },
    /// The trace holds no requests.
    #[error("trace holds no requests")]
    Empty,
    /// An arrival timestamp is non-finite or negative.
    #[error("request {index} has an invalid arrival time {arrival}")]
    InvalidArrival {
        /// Offending request index (position in the trace).
        index: usize,
        /// The rejected timestamp.
        arrival: f64,
    },
    /// Arrival timestamps went backwards.
    #[error(
        "arrival times must be non-decreasing: request {index} arrives at {arrival}s after a predecessor at {prev}s"
    )]
    NonMonotoneArrival {
        /// Offending request index (position in the trace).
        index: usize,
        /// Its arrival time.
        arrival: f64,
        /// The later predecessor arrival it undercuts.
        prev: f64,
    },
    /// A request has a zero token count.
    #[error("request {index} has zero {field} tokens")]
    ZeroTokens {
        /// Offending request index (position in the trace).
        index: usize,
        /// Which count was zero: `"prompt"` or `"output"`.
        field: &'static str,
    },
    /// The running total of prompt and output tokens overflows `usize`
    /// at this request.
    #[error("request {index} overflows the trace's token total")]
    TokenOverflow {
        /// Offending request index (position in the trace).
        index: usize,
    },
}

impl Trace {
    /// Synthesize the workload's Poisson trace: exponential
    /// inter-arrival gaps at `rate_rps` via inverse-CDF over SplitMix64
    /// streams, token lengths from the workload's distributions. Pure
    /// in the workload value; a zero or non-finite rate degenerates to
    /// all requests arriving at `t = 0` (an unstable open-loop burst,
    /// still a valid trace).
    pub fn synthesize(w: &ServingWorkload) -> Trace {
        let mut requests = Vec::with_capacity(w.requests);
        let mut t = 0.0f64;
        for i in 0..w.requests {
            let idx = i as u64;
            if w.rate_rps.is_finite() && w.rate_rps > 0.0 {
                let u = unit_open(splitmix64(w.seed, 3 * idx));
                t += -u.ln() / w.rate_rps;
            }
            requests.push(Request {
                id: i,
                arrival_s: t,
                prompt_tokens: w.prompt.sample(splitmix64(w.seed, 3 * idx + 1)).max(1),
                output_tokens: w.output.sample(splitmix64(w.seed, 3 * idx + 2)).max(1),
            });
        }
        Trace { requests }
    }

    /// Validate the trace invariants every consumer relies on:
    /// non-empty, finite non-negative monotone arrivals, positive token
    /// counts whose total over the trace fits `usize` (so every
    /// request's context and every running token sum does too).
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.requests.is_empty() {
            return Err(TraceError::Empty);
        }
        let mut prev = 0.0f64;
        let mut tokens = 0usize;
        for (index, r) in self.requests.iter().enumerate() {
            if !r.arrival_s.is_finite() || r.arrival_s < 0.0 {
                return Err(TraceError::InvalidArrival {
                    index,
                    arrival: r.arrival_s,
                });
            }
            if r.arrival_s < prev {
                return Err(TraceError::NonMonotoneArrival {
                    index,
                    arrival: r.arrival_s,
                    prev,
                });
            }
            prev = r.arrival_s;
            if r.prompt_tokens == 0 {
                return Err(TraceError::ZeroTokens {
                    index,
                    field: "prompt",
                });
            }
            if r.output_tokens == 0 {
                return Err(TraceError::ZeroTokens {
                    index,
                    field: "output",
                });
            }
            tokens = tokens
                .checked_add(r.prompt_tokens)
                .and_then(|t| t.checked_add(r.output_tokens))
                .ok_or(TraceError::TokenOverflow { index })?;
        }
        Ok(())
    }

    /// Serialize to the replay file format (JSON).
    pub fn to_json(&self) -> String {
        serde::json::to_text(&self.to_value())
    }

    /// Parse and validate a replay file.
    pub fn from_json(s: &str) -> Result<Trace, TraceError> {
        let value = serde::json::from_text(s).map_err(|e| TraceError::Malformed {
            detail: e.to_string(),
        })?;
        let trace = Trace::from_value(&value).map_err(|e| TraceError::Malformed {
            detail: e.to_string(),
        })?;
        trace.validate()?;
        Ok(trace)
    }

    /// Arrival time of the last request (zero for an empty trace).
    pub fn last_arrival_s(&self) -> f64 {
        self.requests.last().map(|r| r.arrival_s).unwrap_or(0.0)
    }

    /// Total tokens the trace demands: `(prompt, output)` sums.
    pub fn total_tokens(&self) -> (usize, usize) {
        self.requests.iter().fold((0, 0), |(p, o), r| {
            (p + r.prompt_tokens, o + r.output_tokens)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_workload::zoo;

    fn workload() -> ServingWorkload {
        ServingWorkload::poisson(zoo::llama2_30b(), 4.0, 64, 7)
    }

    #[test]
    fn synthesis_is_seed_stable_and_valid() {
        let a = Trace::synthesize(&workload());
        let b = Trace::synthesize(&workload());
        assert_eq!(a, b);
        a.validate().expect("synthetic traces are always valid");
        // A different seed moves the arrivals.
        let mut w2 = workload();
        w2.seed = 8;
        assert_ne!(Trace::synthesize(&w2), a);
    }

    #[test]
    fn replay_round_trip_is_bit_exact() {
        let a = Trace::synthesize(&workload());
        let json = a.to_json();
        let back = Trace::from_json(&json).expect("own output re-parses");
        assert_eq!(back, a);
        // And byte-identical on the second serialization.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn truncated_json_is_a_typed_error() {
        let json = Trace::synthesize(&workload()).to_json();
        let truncated = &json[..json.len() / 2];
        match Trace::from_json(truncated) {
            Err(TraceError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        // Well-formed JSON of the wrong shape is also Malformed.
        match Trace::from_json("{\"requests\": 3}") {
            Err(TraceError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn empty_trace_is_rejected() {
        match Trace::from_json("{\"requests\": []}") {
            Err(TraceError::Empty) => {}
            other => panic!("expected Empty, got {other:?}"),
        }
    }

    #[test]
    fn non_monotone_arrivals_are_rejected() {
        let mut trace = Trace::synthesize(&workload());
        trace.requests[3].arrival_s = trace.requests[2].arrival_s - 0.5;
        match Trace::from_json(&trace.to_json()) {
            Err(TraceError::NonMonotoneArrival { index: 3, .. }) => {}
            other => panic!("expected NonMonotoneArrival at 3, got {other:?}"),
        }
        trace.requests[3].arrival_s = f64::NAN;
        assert!(matches!(
            trace.validate(),
            Err(TraceError::InvalidArrival { index: 3, .. })
        ));
    }

    #[test]
    fn zero_token_requests_are_rejected() {
        let mut trace = Trace::synthesize(&workload());
        trace.requests[5].prompt_tokens = 0;
        match trace.validate() {
            Err(TraceError::ZeroTokens { index: 5, field }) => assert_eq!(field, "prompt"),
            other => panic!("expected ZeroTokens, got {other:?}"),
        }
        trace.requests[5].prompt_tokens = 10;
        trace.requests[5].output_tokens = 0;
        match trace.validate() {
            Err(TraceError::ZeroTokens { index: 5, field }) => assert_eq!(field, "output"),
            other => panic!("expected ZeroTokens, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_token_counts_are_rejected() {
        let doc = r#"{"requests":[{"id":0,"arrival_s":0.0,"prompt_tokens":16,"output_tokens":18446744073709551615}]}"#;
        match Trace::from_json(doc) {
            Err(TraceError::TokenOverflow { index: 0 }) => {}
            other => panic!("expected TokenOverflow at 0, got {other:?}"),
        }
        // Requests that each fit can still overflow the running total.
        let mut trace = Trace::synthesize(&workload());
        trace.requests[2].prompt_tokens = usize::MAX / 2;
        trace.requests[4].output_tokens = usize::MAX / 2;
        match trace.validate() {
            Err(TraceError::TokenOverflow { index: 4 }) => {}
            other => panic!("expected TokenOverflow at 4, got {other:?}"),
        }
    }
}
