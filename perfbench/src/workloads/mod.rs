//! The five workloads. Each sets up from the seed, runs rounds until the
//! measuring time is used up, checks every answer, and returns its three
//! phases — what `phase_a_ms`, `phase_b_ms` and `phase_c_ms` mean on it.

pub mod cold_full;
pub mod proj2_lifecycle;
pub mod serve_4tenant;
pub mod throttled_seq;
pub mod warm_exec;

use crate::harness::{Harness, Workload};
use crate::input::Input;
use crate::layers::SimCase;
use crate::stats::median;

/// One of a workload's three end-to-end timings.
pub struct Phase {
    /// What the phase measures on this workload.
    pub label: &'static str,
    pub value_ms: f64,
    /// The samples behind the value, in seconds; empty when the value is not
    /// a statistic of samples of its own.
    pub samples_s: Vec<f64>,
}

impl Phase {
    pub fn median_of(label: &'static str, samples_s: Vec<f64>) -> Phase {
        Phase {
            label,
            value_ms: median(&samples_s) * 1e3,
            samples_s,
        }
    }
}

/// What a workload hands back: its phases, and the input of its last
/// set-up for the isolated layer kernels of a traced run.
pub struct Outcome {
    pub phases: [Phase; 3],
    pub input: Input,
    /// The simulator's model of phase A, where it has one.
    pub sim: Option<SimCase>,
}

pub fn run(h: &mut Harness) -> Outcome {
    match h.args.workload {
        Workload::ColdFull => cold_full::run(h),
        Workload::Proj2Lifecycle => proj2_lifecycle::run(h),
        Workload::WarmExec => warm_exec::run(h),
        Workload::ThrottledSeq => throttled_seq::run(h),
        Workload::Serve4Tenant => serve_4tenant::run(h),
    }
}
