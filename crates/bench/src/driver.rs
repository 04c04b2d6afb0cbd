//! The one driver behind the `bench_*` binaries: argument parsing,
//! preset selection, the `--threads` pool loop with its cross-pool
//! answer check, winner extraction, and report writing with the exit
//! status.
//!
//! Every binary takes `--preset NAME|all` and `--output PATH`, plus
//! `--threads` when its [`Spec`] runs on chosen pools, plus its own
//! [`Opt`]s. A usage error — an unknown flag, a missing or malformed
//! value, an unknown preset — prints the error and one usage line and
//! exits 2. A failed contract ([`Bench::fail`]) still writes the report,
//! then exits 1.

use std::cell::Cell;
use std::fmt::{Debug, Display};
use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;
use watos::{ExplorationReport, ExplorerBuilder, ScheduledConfig};

/// What a binary's `--threads` flag accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pools {
    /// No `--threads` flag: one pass on the default pool.
    Default,
    /// `--threads N`: one pass on an `N`-thread pool.
    One,
    /// `--threads N[,M,...]`: one pass per listed pool size.
    Many,
}

/// One flag a binary adds to the shared ones.
#[derive(Debug, Clone, Copy)]
pub enum Opt {
    /// A switch without a value.
    Switch(&'static str),
    /// A flag taking one finite number.
    Number(&'static str),
    /// A flag taking one positive integer.
    Count(&'static str),
}

impl Opt {
    fn name(self) -> &'static str {
        match self {
            Opt::Switch(n) | Opt::Number(n) | Opt::Count(n) => n,
        }
    }
}

/// A binary's command line.
pub struct Spec {
    /// Binary name, for messages and the usage line.
    pub bin: &'static str,
    /// Report path when `--output` is not given.
    pub output: &'static str,
    /// What `--threads` accepts.
    pub pools: Pools,
    /// The binary's own flags.
    pub opts: &'static [Opt],
}

/// A value given for one of a binary's own flags.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Given {
    Switch,
    Number(f64),
    Count(usize),
}

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    /// `--preset`: a preset name or `all` (the default).
    preset: String,
    /// `--output`: where the report goes.
    output: String,
    /// `--threads`: the pool sizes to run on; empty means the default
    /// pool.
    threads: Vec<usize>,
    given: Vec<(&'static str, Given)>,
}

impl Args {
    /// The last value given for `flag`.
    fn given(&self, flag: &str) -> Option<Given> {
        self.given
            .iter()
            .rev()
            .find(|(n, _)| *n == flag)
            .map(|&(_, g)| g)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.given(flag) == Some(Given::Switch)
    }

    /// The number given for `flag`, if any.
    pub fn number(&self, flag: &str) -> Option<f64> {
        match self.given(flag)? {
            Given::Number(x) => Some(x),
            _ => None,
        }
    }

    /// The count given for `flag`, if any.
    pub fn count(&self, flag: &str) -> Option<usize> {
        match self.given(flag)? {
            Given::Count(n) => Some(n),
            _ => None,
        }
    }
}

fn number(flag: &str, text: &str) -> Result<f64, String> {
    text.parse()
        .ok()
        .filter(|x: &f64| x.is_finite())
        .ok_or_else(|| format!("{flag} takes a number, got `{text}`"))
}

fn count(flag: &str, text: &str) -> Result<usize, String> {
    text.trim()
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} takes positive integers, got `{text}`"))
}

/// Parse `argv` (without the program name) against `spec`; `presets`
/// are the names `--preset` may pick besides `all`.
fn parse(
    spec: &Spec,
    presets: &[&str],
    argv: impl IntoIterator<Item = String>,
) -> Result<Args, String> {
    let mut args = Args {
        preset: "all".to_string(),
        output: spec.output.to_string(),
        threads: Vec::new(),
        given: Vec::new(),
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--preset" => args.preset = value()?,
            "--output" => args.output = value()?,
            "--threads" if spec.pools != Pools::Default => {
                let list = value()?;
                args.threads = list
                    .split(',')
                    .map(|t| count("--threads", t))
                    .collect::<Result<_, _>>()?;
                if spec.pools == Pools::One && args.threads.len() > 1 {
                    return Err(format!("--threads takes one pool size, got `{list}`"));
                }
            }
            _ => {
                let opt = spec
                    .opts
                    .iter()
                    .find(|o| o.name() == flag)
                    .ok_or_else(|| format!("unknown flag `{flag}`"))?;
                let given = match *opt {
                    Opt::Switch(_) => Given::Switch,
                    Opt::Number(_) => Given::Number(number(&flag, &value()?)?),
                    Opt::Count(_) => Given::Count(count(&flag, &value()?)?),
                };
                args.given.push((opt.name(), given));
            }
        }
    }
    if args.preset != "all" && !presets.contains(&args.preset.as_str()) {
        return Err(format!("unknown preset `{}`", args.preset));
    }
    Ok(args)
}

/// The one-line usage of a binary.
fn usage(spec: &Spec, presets: &[&str]) -> String {
    let mut line = format!(
        "usage: {} [--preset {}|all] [--output PATH]",
        spec.bin,
        presets.join("|")
    );
    match spec.pools {
        Pools::Default => {}
        Pools::One => line.push_str(" [--threads N]"),
        Pools::Many => line.push_str(" [--threads N[,M,...]]"),
    }
    for opt in spec.opts {
        line.push_str(&match *opt {
            Opt::Switch(n) => format!(" [{n}]"),
            Opt::Number(n) => format!(" [{n} X]"),
            Opt::Count(n) => format!(" [{n} N]"),
        });
    }
    line
}

/// One benchmark run: the parsed arguments plus the contract-failure
/// flag that decides the exit status.
pub struct Bench {
    /// The parsed command line.
    pub args: Args,
    failed: Cell<bool>,
}

impl Bench {
    /// Parse the process arguments against `spec` and keep the presets
    /// `--preset` selects (every one for `all`). A usage error prints the
    /// error and the usage line and exits 2.
    pub fn from_env<P>(spec: &Spec, presets: Vec<P>, name: impl Fn(&P) -> &str) -> (Bench, Vec<P>) {
        let parsed = {
            let names: Vec<&str> = presets.iter().map(&name).collect();
            parse(spec, &names, std::env::args().skip(1)).map_err(|e| (e, usage(spec, &names)))
        };
        let args = match parsed {
            Ok(args) => args,
            Err((error, usage)) => {
                eprintln!("{}: {error}\n{usage}", spec.bin);
                std::process::exit(2);
            }
        };
        let selected = presets
            .into_iter()
            .filter(|p| args.preset == "all" || name(p) == args.preset)
            .collect();
        let bench = Bench {
            args,
            failed: Cell::new(false),
        };
        (bench, selected)
    }

    /// Record a failed contract: print `msg`; the run exits 1 once its
    /// report is written.
    pub fn fail(&self, msg: impl Display) {
        eprintln!("{msg}");
        self.failed.set(true);
    }

    /// The pool sizes the run uses: the `--threads` list, or the default
    /// pool's size.
    pub fn pools(&self) -> Vec<usize> {
        if self.args.threads.is_empty() {
            vec![rayon::current_num_threads()]
        } else {
            self.args.threads.clone()
        }
    }

    /// Run `sweep` once per pool size with `RAYON_NUM_THREADS` pinned to
    /// it (the vendored rayon reads the variable at call time), handing it
    /// the pool size and the entries so far. Then measure the determinism
    /// contract: `answer` maps an entry to its cell and its answer, and
    /// every entry must give the same answer as the first entry of its
    /// cell, or the run fails.
    pub fn sweep_pools<E, K: PartialEq + Debug, A: PartialEq + Debug>(
        &self,
        mut sweep: impl FnMut(usize, &mut Vec<E>),
        answer: impl Fn(&E) -> (K, A),
    ) -> Vec<E> {
        let mut entries = Vec::new();
        let mut pool_of = Vec::new();
        for t in self.pools() {
            std::env::set_var("RAYON_NUM_THREADS", t.to_string());
            sweep(t, &mut entries);
            pool_of.resize(entries.len(), t);
        }
        let answers: Vec<(K, A)> = entries.iter().map(answer).collect();
        for (i, (cell, a)) in answers.iter().enumerate() {
            let first = answers.iter().position(|(c, _)| c == cell).unwrap_or(i);
            if answers[first].1 != *a {
                self.fail(format!(
                    "DIVERGENT ANSWER for {cell:?}: {:?} (threads={}) vs {a:?} (threads={})",
                    answers[first].1, pool_of[first], pool_of[i]
                ));
            }
        }
        entries
    }

    /// Write `report` as one line of JSON to the `--output` path, print
    /// `wrote PATH`, and return the exit status: 1 when a contract failed
    /// (or the write did), 0 otherwise.
    pub fn finish(&self, report: &impl Serialize) -> ExitCode {
        let path = &self.args.output;
        match std::fs::write(path, serde::json::to_text(&report.to_value()) + "\n") {
            Ok(()) => println!("wrote {path}"),
            Err(e) => self.fail(format!("cannot write {path}: {e}")),
        }
        if self.failed.get() {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Build and run one search, returning its report and wall seconds (the
/// build is not timed).
pub fn run_timed(builder: ExplorerBuilder) -> (ExplorationReport, f64) {
    let explorer = builder.build().expect("valid benchmark configuration");
    let t0 = Instant::now();
    let report = explorer.run();
    (report, t0.elapsed().as_secs_f64())
}

/// The single-wafer winner of a report, if it is feasible.
pub fn winner(report: &ExplorationReport) -> Option<&ScheduledConfig> {
    report
        .best()
        .ok()
        .and_then(|rec| rec.best.as_ref())
        .filter(|cfg| cfg.report.feasible)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        bin: "bench_test",
        output: "BENCH_test.json",
        pools: Pools::Many,
        opts: &[
            Opt::Switch("--strict"),
            Opt::Number("--min-speedup"),
            Opt::Count("--reps"),
        ],
    };
    const PRESETS: &[&str] = &["small", "large"];

    /// Parse a whitespace-separated command line against `spec`.
    fn run(spec: &Spec, argv: &str) -> Result<Args, String> {
        parse(spec, PRESETS, argv.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_and_every_flag_kind_parse() {
        let args = run(&SPEC, "").expect("no flags is valid");
        assert_eq!(
            (args.preset.as_str(), args.output.as_str()),
            ("all", "BENCH_test.json")
        );
        assert!(args.threads.is_empty() && !args.switch("--strict"));
        assert_eq!(args.number("--min-speedup"), None);

        let argv =
            "--preset large --output x.json --threads 1,2 --strict --min-speedup 2.5 --reps 5";
        let args = run(&SPEC, argv).expect("valid flags");
        assert_eq!(
            (args.preset.as_str(), args.output.as_str()),
            ("large", "x.json")
        );
        assert_eq!(args.threads, vec![1, 2]);
        assert!(args.switch("--strict"));
        assert_eq!(args.number("--min-speedup"), Some(2.5));
        assert_eq!(args.count("--reps"), Some(5));
    }

    #[test]
    fn every_usage_error_is_an_error_not_a_panic() {
        for (argv, kind) in [
            ("--bogus", "unknown flag"),
            ("--preset", "needs a value"),
            ("--threads", "needs a value"),
            ("--strict --min-speedup", "needs a value"),
            ("--min-speedup x", "takes a number"),
            ("--min-speedup inf", "takes a number"),
            ("--threads x", "takes positive integers"),
            ("--threads 1,x", "takes positive integers"),
            ("--threads 0", "takes positive integers"),
            ("--reps 2.5", "takes positive integers"),
            ("--preset medium", "unknown preset"),
        ] {
            let err = run(&SPEC, argv).expect_err(argv);
            assert!(err.contains(kind), "`{argv}`: `{err}` is not `{kind}`");
        }
    }

    #[test]
    fn threads_follow_the_spec() {
        let one = Spec {
            pools: Pools::One,
            ..SPEC
        };
        assert_eq!(run(&one, "--threads 4").map(|a| a.threads), Ok(vec![4]));
        assert!(run(&one, "--threads 1,2").is_err());
        let none = Spec {
            pools: Pools::Default,
            ..SPEC
        };
        let err = run(&none, "--threads 2").expect_err("no --threads flag");
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn usage_is_one_line_naming_every_flag() {
        let line = usage(&SPEC, PRESETS);
        assert_eq!(
            line,
            "usage: bench_test [--preset small|large|all] [--output PATH] \
             [--threads N[,M,...]] [--strict] [--min-speedup X] [--reps N]"
        );
    }
}
