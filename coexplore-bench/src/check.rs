//! Output checks: the invariants every search must keep on any seed,
//! and the committed reference answers for the default seed.

use crate::workload::{LegAnswer, Workload};
use serde::{Deserialize, Serialize};
use watos::{CacheStats, CandidateFailure, ExplorationReport, Outcome, SearchStats};

/// The committed reference: every leg's answer at the default seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reference {
    pub seed: u64,
    pub workloads: Vec<WorkloadReference>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReference {
    pub workload: String,
    pub legs: Vec<LegAnswer>,
}

/// The reference file compiled into the binary (`--record-reference`
/// rewrites it).
pub const REFERENCE_JSON: &str = include_str!("../reference.json");

/// Where `--record-reference` writes.
pub const REFERENCE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");

impl Reference {
    pub fn committed() -> Result<Reference, String> {
        Reference::parse(REFERENCE_JSON)
    }

    pub fn parse(text: &str) -> Result<Reference, String> {
        serde::json::from_text(text)
            .and_then(|v| Reference::from_value(&v))
            .map_err(|e| format!("reference.json does not parse: {e}"))
    }

    pub fn legs(&self, workload: Workload) -> Option<&[LegAnswer]> {
        self.workloads
            .iter()
            .find(|w| w.workload == workload.name())
            .map(|w| w.legs.as_slice())
    }

    /// `self` with `workload`'s legs replaced by `legs`.
    pub fn with(mut self, workload: Workload, legs: Vec<LegAnswer>) -> Reference {
        self.workloads.retain(|w| w.workload != workload.name());
        self.workloads.push(WorkloadReference {
            workload: workload.name().to_string(),
            legs,
        });
        self.workloads
            .sort_by_key(|w| Workload::parse(&w.workload).map_or(usize::MAX, |w| w as usize));
        self
    }

    pub fn to_json(&self) -> String {
        serde::json::to_text(&self.to_value())
    }
}

/// One search leg's record, as the checks see it.
pub struct LegView<'a> {
    pub stats: SearchStats,
    pub outcome: Outcome,
    pub failures: &'a [CandidateFailure],
    pub cache: CacheStats,
}

/// Every leg of a report, single-wafer legs first, matching the order
/// of [`crate::workload::leg_answers`].
pub fn leg_views(report: &ExplorationReport) -> Vec<LegView<'_>> {
    let single = report.single_wafer.iter().map(|r| LegView {
        stats: r.stats,
        outcome: r.outcome,
        failures: &r.failures,
        cache: r.cache_stats,
    });
    let multi = report.multi_wafer.iter().map(|r| LegView {
        stats: r.stats,
        outcome: r.outcome,
        failures: &r.failures,
        cache: r.cache_stats,
    });
    single.chain(multi).collect()
}

/// Cache entries rebuilt after a poisoned lock or a corrupted entry.
pub fn rebuilds(cache: &CacheStats) -> usize {
    cache.recoveries + cache.corruptions
}

/// Whether the report decodes back from its JSON encoding unchanged.
pub fn round_trips(report: &ExplorationReport) -> bool {
    ExplorationReport::from_json(&report.to_json()).is_ok_and(|r| &r == report)
}

/// The invariants every leg keeps on any seed; `None` when it does.
pub fn invariant_problem(view: &LegView<'_>, answer: &LegAnswer) -> Option<String> {
    let s = view.stats;
    let problem = if s.visited != s.pruned + s.evaluated + s.skipped {
        format!("counters do not add up: {s:?}")
    } else if !view.failures.is_empty() {
        format!(
            "{} incident(s): {}",
            view.failures.len(),
            view.failures[0].payload
        )
    } else if rebuilds(&view.cache) > 0 {
        format!("profile cache rebuilt entries: {:?}", view.cache)
    } else if view.outcome != Outcome::Complete {
        format!("search did not complete: {:?}", view.outcome)
    } else if answer.score.is_some_and(|s| !s.is_finite()) {
        "winner has a non-finite score".to_string()
    } else {
        return None;
    };
    Some(format!("{}: {problem}", answer.leg))
}

/// Compare a leg with its reference answer; `None` when it matches. On
/// any seed a leg whose reference has a winner must have one; the full
/// answer is compared only when `exact` (the default seed).
pub fn reference_problem(
    answer: &LegAnswer,
    expected: Option<&LegAnswer>,
    exact: bool,
) -> Option<String> {
    let problem = match expected {
        None => "no reference answer for this leg".to_string(),
        Some(e) if e.leg != answer.leg => format!("reference leg is `{}`", e.leg),
        Some(e) if e.plan.is_some() && answer.plan.is_none() => "missing winner".to_string(),
        Some(e) if exact && !same_answer(e, answer) => {
            format!("answer differs from the reference: got {answer:?}, expected {e:?}")
        }
        Some(_) => return None,
    };
    Some(format!("{}: {problem}", answer.leg))
}

/// Equal plans, counters and bit-identical scores.
pub fn same_answer(a: &LegAnswer, b: &LegAnswer) -> bool {
    a.leg == b.leg
        && a.plan == b.plan
        && a.stats == b.stats
        && a.score.map(f64::to_bits) == b.score.map(f64::to_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use watos::{ParallelPlan, TpSplitStrategy};

    fn answer() -> LegAnswer {
        LegAnswer {
            leg: "m/Config 3".into(),
            plan: Some(ParallelPlan::intra(4, 14, TpSplitStrategy::Megatron)),
            score: Some(1.5),
            stats: SearchStats {
                visited: 10,
                pruned: 7,
                evaluated: 3,
                skipped: 0,
            },
        }
    }

    fn view(stats: SearchStats) -> LegView<'static> {
        LegView {
            stats,
            outcome: Outcome::Complete,
            failures: &[],
            cache: CacheStats::default(),
        }
    }

    #[test]
    fn reference_equality_applies_only_on_the_default_seed() {
        let a = answer();
        let mut other = a.clone();
        other.score = Some(1.5000000000000002);
        assert_eq!(reference_problem(&a, Some(&a), true), None);
        assert!(reference_problem(&other, Some(&a), true).is_some());
        assert_eq!(reference_problem(&other, Some(&a), false), None);
        let mut lost = a.clone();
        lost.plan = None;
        lost.score = None;
        assert!(
            reference_problem(&lost, Some(&a), false).is_some_and(|p| p.contains("missing winner"))
        );
        assert!(reference_problem(&a, None, false).is_some());
    }

    #[test]
    fn invariants_apply_on_every_seed() {
        let a = answer();
        assert_eq!(invariant_problem(&view(a.stats), &a), None);
        let broken = SearchStats {
            pruned: 6,
            ..a.stats
        };
        assert!(invariant_problem(&view(broken), &a).is_some());
        let rebuilt = LegView {
            cache: CacheStats {
                recoveries: 1,
                ..CacheStats::default()
            },
            ..view(a.stats)
        };
        assert!(invariant_problem(&rebuilt, &a).is_some());
        let truncated = LegView {
            outcome: Outcome::Truncated {
                reason: watos::TruncationReason::MaxEvaluations,
            },
            ..view(a.stats)
        };
        assert!(invariant_problem(&truncated, &a).is_some());
    }

    #[test]
    fn reference_round_trips_and_replaces_one_workload() {
        let r = Reference {
            seed: 7,
            workloads: Vec::new(),
        }
        .with(Workload::ServeSlo, vec![answer()])
        .with(Workload::TrainDse, vec![answer()])
        .with(Workload::ServeSlo, Vec::new());
        assert_eq!(r.workloads[0].workload, "train-dse");
        assert_eq!(r.legs(Workload::ServeSlo), Some(&[][..]));
        let back = serde::json::from_text(&r.to_json()).and_then(|v| Reference::from_value(&v));
        assert_eq!(back, Ok(r));
    }

    #[test]
    fn committed_reference_parses() {
        let r = Reference::committed().expect("reference.json parses");
        assert_eq!(r.seed, crate::workload::DEFAULT_SEED);
    }
}
