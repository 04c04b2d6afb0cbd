//! The co-explorer's benchmark: four workloads run through the public
//! `Explorer` API, end-to-end metrics from untraced runs
//! ([`run::untraced`]) and per-layer metrics from a separate traced
//! pass ([`traced::traced`]). See `README.md` for the metrics, the
//! workloads and how to run them.

pub mod check;
pub mod heap;
pub mod procfs;
pub mod run;
pub mod span;
pub mod traced;
pub mod workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;
