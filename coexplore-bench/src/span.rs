//! In-memory spans for the traced pass, the statistics taken over
//! them, and the metric record every run prints.

use serde::Value;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One timed call: its layer name, the search leg it belongs to, the
/// span that caused it, and its interval in seconds since the recorder
/// was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub search: usize,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread; they stay in memory until the run
/// ends and [`Recorder::take_spans`] hands them out.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A span list is appended whole, so a panicking holder cannot
        // leave it half-updated.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `f` inside a span; `f` receives the span's id so calls it
    /// makes can record child spans.
    pub fn time<R>(
        &self,
        name: &'static str,
        search: usize,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let start = self.now();
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name,
                search,
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.spans()[id].end = end;
        out
    }

    /// Every span recorded so far, leaving the recorder empty.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (they can
/// run on different threads), so their covered intervals are merged
/// rather than summed.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start.max(spans[p].start), s.end.min(spans[p].end)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.secs() - covered).max(0.0)
        })
        .collect()
}

/// Sample count and median of a set of measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    /// The median (mean of the middle two for an even count); 0 when
    /// there are no samples.
    pub p50: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p50 = match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    Summary { count: n, p50 }
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let body = vec![
                ("value".to_string(), Value::F64(m.value)),
                ("unit".to_string(), Value::String(m.unit.to_string())),
            ];
            (m.name.to_string(), Value::Object(body))
        })
        .collect();
    serde::json::to_text(&Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted as u64)),
        ("failed".to_string(), Value::U64(failed as u64)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]))
}

/// The spans as a JSON document, for the trace file.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let spans = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".to_string(), Value::String(s.name.to_string())),
                ("search".to_string(), Value::U64(s.search as u64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
                ("start_s".to_string(), Value::F64(s.start)),
                ("end_s".to_string(), Value::F64(s.end)),
            ])
        })
        .collect();
    serde::json::to_text(&Value::Object(vec![
        ("workload".to_string(), Value::String(workload.to_string())),
        ("seed".to_string(), Value::U64(seed)),
        ("spans".to_string(), Value::Array(spans)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            search: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            // Two overlapping children (two threads): they cover 1..5.
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 2.0, 5.0),
            // A grandchild is charged to its own parent only.
            span("c", Some(1), 1.5, 2.5),
            // A disjoint child.
            span("d", Some(0), 7.0, 8.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![5.0, 2.0, 3.0, 1.0, 1.0]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("root", None, 0.0, 2.0),
            span("late", Some(0), 1.0, 3.0),
        ];
        assert_eq!(self_times(&spans), vec![1.0, 2.0]);
    }

    #[test]
    fn recorder_nests_spans_under_their_parent() {
        let rec = Recorder::default();
        let v = rec.time("outer", 3, None, |outer| {
            rec.time("inner", 3, Some(outer), |_| 7)
        });
        assert_eq!(v, 7);
        let spans = rec.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let t = self_times(&spans);
        assert!((t[0] + t[1] - spans[0].secs()).abs() < 1e-12);
    }

    #[test]
    fn summary_is_median_and_count() {
        assert_eq!(summarize(&[]), Summary { count: 0, p50: 0.0 });
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).p50, 2.0);
        assert_eq!(
            summarize(&[4.0, 1.0, 3.0, 2.0]),
            Summary { count: 4, p50: 2.5 }
        );
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "search_s",
            "wave.eval_ms",
            "serve.bound.busy_s",
            "a-b",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "ünï",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(true, 3, 0, &[metric("search_s", 1.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"search_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
