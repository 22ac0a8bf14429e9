//! One layered benchmark for ScanRaw: five named workloads, end-to-end and
//! per-layer metrics. See `BENCHMARK.md` beside this package's manifest and
//! `BENCHMARK.json` at the repository root.
//!
//! The benchmark measures the crates from outside — by timing calls into
//! their public functions and by reading the counters the public API already
//! exposes — and checks every timed answer against an oracle.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod harness;
pub mod input;
pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;

pub use harness::{Args, Workload};
pub use report::{run, Metric, Report};
