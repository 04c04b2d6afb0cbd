//! Shared deterministic sample statistics and seeded stream splitting.
//!
//! One percentile implementation for every consumer — the robust
//! fault objectives in [`crate::goodput`] and the serving latency
//! summaries in `wsc-serve` — so "p95" can never mean two different
//! index formulas in two corners of the repo. Sorting puts NaN, of
//! either sign, after every number and otherwise follows
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
    nearest_rank(&sorted(samples), q)
}

/// `samples` in [`f64::total_cmp`] order, except that NaN of either sign
/// ranks after every number: `total_cmp` alone puts a NaN with its sign
/// bit set below −∞, where it would rank as the best sample.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(b)));
    sorted
}

/// [`percentile`] of a non-empty population already in [`sorted`] order.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile in a population of
/// `len >= 1` samples: `ceil(len * q)`, clamped to `1..=len`.
pub(crate) fn rank(len: usize, q: f64) -> usize {
    ((len as f64 * q).ceil() as usize).clamp(1, len)
}

/// The p50/p95/p99 + mean/max digest of one latency (or any scalar)
/// population. Percentiles and the max are read from one sorted copy,
/// NaN last, so they agree on NaN (the max is
/// [`percentile`]`(samples, 1.0)`); the mean sums in slice order, so the
/// digest is a pure function of the sample sequence.
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
    /// Largest sample in the percentiles' order: NaN if any sample is.
    pub max: f64,
}

impl SummaryStats {
    /// Digest a sample population; `None` when it is empty.
    pub fn from_samples(samples: &[f64]) -> Option<SummaryStats> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        Some(SummaryStats {
            count: samples.len(),
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            p50: nearest_rank(&sorted, 0.50),
            p95: nearest_rank(&sorted, 0.95),
            p99: nearest_rank(&sorted, 0.99),
            max: nearest_rank(&sorted, 1.0),
        })
    }
}

/// SplitMix64 over `(seed, index)` — decorrelated per-index streams
/// from one base seed. The same construction as the GA's per-genome
/// streams and the fault ensemble's per-sample wafers; the serving
/// trace driver uses it for Poisson inter-arrival and token-length
/// draws.
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
    fn digest_percentiles_equal_percentile() {
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for case in 0..500u64 {
            let word = |i: u64| splitmix64(case, i);
            let len = 1 + (word(0) % 64) as usize;
            // Draws from a few values, so duplicates are common.
            let pool: Vec<f64> = (1..=8)
                .map(|i| match word(i) % 3 {
                    0 => special[(word(i + 100) % special.len() as u64) as usize],
                    _ => unit_open(word(i + 200)) * 4.0 - 2.0,
                })
                .collect();
            let samples: Vec<f64> = (0..len as u64)
                .map(|i| pool[(word(1000 + i) % 8) as usize])
                .collect();
            let digest = SummaryStats::from_samples(&samples).unwrap();
            for (got, q) in [
                (digest.p50, 0.50),
                (digest.p95, 0.95),
                (digest.p99, 0.99),
                (digest.max, 1.0),
            ] {
                assert_eq!(
                    got.to_bits(),
                    percentile(&samples, q).to_bits(),
                    "{samples:?} at {q}"
                );
            }
        }
    }

    #[test]
    fn nan_of_either_sign_ranks_last() {
        for nan in [f64::NAN, -f64::NAN] {
            let digest = SummaryStats::from_samples(&[0.1, 0.2, nan]).unwrap();
            assert_eq!(digest.p50, 0.2);
            assert!(digest.p95.is_nan() && digest.max.is_nan());
            let samples = [nan, f64::NEG_INFINITY, 3.0, nan, f64::INFINITY, -1.0];
            let want = [f64::NEG_INFINITY, -1.0, 3.0, f64::INFINITY];
            for (rank, want) in want.into_iter().enumerate() {
                let q = (rank + 1) as f64 / samples.len() as f64;
                assert_eq!(percentile(&samples, q), want, "{nan:?} at {q}");
            }
            assert!(percentile(&samples, 5.0 / 6.0).is_nan());
        }
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
