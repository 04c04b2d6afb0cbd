//! Run one workload of the co-explorer benchmark and print its metrics;
//! the last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path coexplore-bench/Cargo.toml -- \
//!     --workload train-dse|train-node|serve-slo|fault-aware \
//!     [--seed 7] [--seconds 30] [--trace 0|1] [--record-reference]
//! ```
//!
//! `--trace 0` (the default) prints the end-to-end metrics of untraced
//! runs; `--trace 1` runs the traced pass, prints the per-layer metrics
//! and writes its spans under `coexplore-bench/spans/`.
//! `--record-reference` (default seed, untraced) rewrites the
//! workload's entry in `reference.json` from this run's answers.

use coexplore_bench::check::{Reference, REFERENCE_PATH};
use coexplore_bench::run::{untraced, Expect, RunOutput};
use coexplore_bench::span::{result_json, spans_json, valid_metric_name};
use coexplore_bench::traced::traced;
use coexplore_bench::workload::{Size, Workload, DEFAULT_SEED};
use std::process::ExitCode;

/// Worker threads of every run: the vendored rayon reads
/// `RAYON_NUM_THREADS` on each call, so this pins the pool.
const POOL: usize = 2;

const USAGE: &str = "usage: coexplore-bench --workload train-dse|train-node|serve-slo|fault-aware \
                     [--seed N] [--seconds S] [--trace 0|1] [--record-reference]";

const SPANS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/spans");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, DEFAULT_SEED, 30.0, false, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--record-reference" => record = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if record && (trace || seed != DEFAULT_SEED) {
        return Err(format!(
            "--record-reference needs --trace 0 and the default seed {DEFAULT_SEED}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record,
    })
}

fn run(args: &Args) -> Result<RunOutput, String> {
    let reference = Reference::committed()?;
    let expect = if args.record {
        Expect::none()
    } else {
        Expect::new(&reference, args.workload, args.seed)
    };
    if !args.trace {
        let out = untraced(args.workload, args.seed, Size::Full, args.seconds, expect)?;
        if args.record {
            // Merge into the file on disk, which may be newer than the
            // copy compiled into this binary.
            let on_disk = std::fs::read_to_string(REFERENCE_PATH)
                .map_err(|e| format!("reading {REFERENCE_PATH}: {e}"))?;
            let updated = Reference::parse(&on_disk)?.with(args.workload, out.answers.clone());
            std::fs::write(REFERENCE_PATH, updated.to_json() + "\n")
                .map_err(|e| format!("writing {REFERENCE_PATH}: {e}"))?;
            eprintln!("recorded {} legs in {REFERENCE_PATH}", out.answers.len());
        }
        return Ok(out);
    }
    let (out, spans) = traced(args.workload, args.seed, Size::Full, expect)?;
    let path = format!(
        "{SPANS_DIR}/{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let written = std::fs::create_dir_all(SPANS_DIR)
        .and_then(|()| std::fs::write(&path, spans_json(args.workload.name(), args.seed, &spans)));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {path}", spans.len()),
        Err(e) => eprintln!("could not write the spans to {path}: {e}"),
    }
    Ok(out)
}

fn main() -> ExitCode {
    std::env::set_var("RAYON_NUM_THREADS", POOL.to_string());
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("coexplore-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &out.metrics {
        if !valid_metric_name(m.name) || !m.value.is_finite() {
            out.problems
                .push(format!("metric `{}` = {}", m.name, m.value));
        }
    }
    for p in &out.problems {
        eprintln!("FAILED {p}");
    }
    println!(
        "{} seed {} ({} pass, {} threads)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        POOL
    );
    for m in &out.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload serve-slo --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeSlo, 3, 10.0, true)
        );
        assert!(args("--seed 3").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload train-dse --trace 2").is_err());
        assert!(args("--workload train-dse --seconds -1").is_err());
        assert!(args("--workload train-dse --record-reference --seed 8").is_err());
        assert!(args("--workload train-dse --bogus").is_err());
    }
}
