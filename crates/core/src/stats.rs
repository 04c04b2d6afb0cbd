//! Shared deterministic sample statistics and seeded stream splitting.
//!
//! One percentile implementation for every consumer — the robust
//! fault objectives in [`crate::goodput`] and the serving latency
//! summaries in `wsc-serve` — so "p95" can never mean two different
//! index formulas in two corners of the repo. Sorting uses
//! [`f64::total_cmp`], so ties (and any non-finite stragglers) order
//! by the total order on f64 bits and every caller is deterministic
//! across thread counts by construction.

use serde::{Deserialize, Serialize};

/// The `q`-quantile of `samples` (`0 < q <= 1`) by the nearest-rank
/// method: the smallest sample whose rank is at least `ceil(len * q)`.
/// Matches the historical `RobustObjective::P95` index formula exactly.
/// An empty population returns `f64::INFINITY` — "no samples" must
/// never rank better than a real measurement under minimization.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::INFINITY;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// The p50/p95/p99 + mean/max digest of one latency (or any scalar)
/// population. Percentiles use [`percentile`]; the mean sums in slice
/// order, so the digest is a pure function of the sample sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of samples folded in.
    pub count: usize,
    /// Arithmetic mean (slice order).
    pub mean: f64,
    /// Median (nearest-rank p50).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl SummaryStats {
    /// Digest a sample population; `None` when it is empty.
    pub fn from_samples(samples: &[f64]) -> Option<SummaryStats> {
        if samples.is_empty() {
            return None;
        }
        Some(SummaryStats {
            count: samples.len(),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: percentile(samples, 0.50),
            p95: percentile(samples, 0.95),
            p99: percentile(samples, 0.99),
            max: samples.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
        })
    }
}

/// SplitMix64 over `(seed, index)` — decorrelated per-index streams
/// from one base seed. The same construction as the GA's per-genome
/// streams and the fault ensemble's per-sample wafers; the serving
/// trace driver uses it for Poisson inter-arrival and token-length
/// draws, and the fault-injection harness for its per-candidate draws.
/// Pure arithmetic on the inputs: no clocks, no entropy, so every
/// consumer stays wsc-lint D004 clean.
pub fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a SplitMix64 word onto the half-open unit interval `(0, 1]`.
/// The upper 53 bits become the mantissa, shifted by one so zero is
/// excluded — safe to feed straight into `ln()` for exponential
/// inverse-CDF sampling.
pub fn unit_open(word: u64) -> f64 {
    ((word >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_nearest_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 0.50), 3.0);
        assert_eq!(percentile(&samples, 0.95), 5.0);
        assert_eq!(percentile(&samples, 1.0), 5.0);
        // Single sample: every quantile is that sample.
        assert_eq!(percentile(&[7.0], 0.01), 7.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_of_empty_is_infinite() {
        assert_eq!(percentile(&[], 0.95), f64::INFINITY);
        assert!(SummaryStats::from_samples(&[]).is_none());
    }

    #[test]
    fn summary_digest_is_deterministic() {
        let samples = [0.3, 0.1, 0.9, 0.5, 0.2, 0.8];
        let a = SummaryStats::from_samples(&samples).unwrap();
        let b = SummaryStats::from_samples(&samples).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.count, 6);
        assert_eq!(a.max, 0.9);
        assert!(a.p50 <= a.p95 && a.p95 <= a.p99 && a.p99 <= a.max);
    }

    #[test]
    fn splitmix_streams_decorrelate() {
        // Distinct indices and distinct seeds both move the stream.
        assert_ne!(splitmix64(7, 0), splitmix64(7, 1));
        assert_ne!(splitmix64(7, 0), splitmix64(8, 0));
        // And the map into (0, 1] never returns exactly zero.
        for i in 0..1000 {
            let u = unit_open(splitmix64(42, i));
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
