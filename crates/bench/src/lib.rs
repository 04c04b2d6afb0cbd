//! # wsc-bench — the experiment harness
//!
//! Regenerates every table and figure of the WATOS paper as text
//! rows/series (the `figures` binary lists the registry), in `quick`
//! mode for smoke tests and full mode from the `figures` binary. The
//! `bench_*` binaries write the committed `BENCH_*.json` measurements
//! through the one shared [`driver`].

pub mod driver;
pub mod figures;
pub mod util;
