//! Reduced-size runs of every workload, untraced and traced: every
//! search keeps its invariants, the traced pass reproduces the untraced
//! answers, and each pass prints exactly the metrics `BENCHMARK.json`
//! declares for it.

use coexplore_bench::run::{untraced, Expect};
use coexplore_bench::span::{valid_metric_name, Metric};
use coexplore_bench::traced::traced;
use coexplore_bench::workload::{Size, Workload};
use serde::Value;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = serde::json::from_text(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    let field = |m: &Value, k: &str| match m.get(k) {
        Some(Value::String(s)) => s.clone(),
        other => panic!("`{list}` entry without a string `{k}`: {other:?}"),
    };
    items
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric `{name}`"))
        .value
}

#[test]
fn every_workload_runs_untraced_at_smoke_size() {
    let end_to_end = declared("end_to_end");
    for w in Workload::ALL {
        let out = untraced(w, 7, Size::Smoke, 0.001, Expect::none()).expect("smoke set-up builds");
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert_eq!(printed(&out.metrics), end_to_end, "{}", w.name());
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value >= 0.0, "{}: {m:?}", w.name());
        }
        for name in ["search_s", "setup_s", "peak_heap_mb", "answer_cost"] {
            assert!(value(&out.metrics, name) > 0.0, "{}: {name}", w.name());
        }
        assert_eq!(value(&out.metrics, "ok_frac"), 1.0);
    }
}

#[test]
fn every_workload_traces_at_smoke_size() {
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let (out, spans) = traced(w, 7, Size::Smoke, Expect::none()).expect("smoke set-up builds");
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert_eq!(printed(&out.metrics), per_layer, "{}", w.name());
        assert!(out.metrics.iter().all(|m| valid_metric_name(m.name)));
        assert!(spans.iter().any(|s| s.name == "replay"), "{}", w.name());
        let m = |name: &str| value(&out.metrics, name);
        assert_eq!(m("cache.rebuilds"), 0.0);
        assert!(m("wave.visited") >= m("wave.evaluated") && m("wave.evaluated") > 0.0);
        // Each layer runs exactly where the workload puts it.
        let runs = |layer: &str| m(&format!("{layer}.calls")) > 0.0;
        let expected = match w {
            Workload::TrainDse => ["evaluator", "ga"],
            Workload::TrainNode => ["multiwafer", "stage.profiles"],
            Workload::ServeSlo => ["serve.score", "serve.bound"],
            Workload::FaultAware => ["goodput", "gcmr"],
        };
        for layer in expected {
            assert!(runs(layer), "{}: {layer} never ran", w.name());
        }
        let idle: &[&str] = match w {
            Workload::TrainDse => &["multiwafer", "goodput", "serve.score"],
            Workload::TrainNode => &["evaluator", "gcmr", "ga", "goodput", "serve.score"],
            Workload::ServeSlo => &["multiwafer", "goodput", "ga"],
            Workload::FaultAware => &["multiwafer", "ga", "serve.score"],
        };
        for layer in idle {
            assert!(!runs(layer), "{}: {layer} ran", w.name());
        }
    }
}
