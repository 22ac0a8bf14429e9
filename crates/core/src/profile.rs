//! Pipeline instrumentation: time per stage.
//!
//! "The code contains special function calls to harness detailed profiling
//! data" (paper §5, Implementation). Stage time has one store: the six
//! `pipeline.stage.<stage>.nanos` histograms of the operator's metrics
//! registry, one sample per unit of stage work. [`Profiler`] is the typed
//! view over them — what the pipeline records through and what the
//! scheduler's resource advice, EXPLAIN ANALYZE and the benchmark read
//! (Figure 5's per-stage time). Utilization over time (Figure 9) comes from
//! the trace spans and the device's own timeline.

use scanraw_obs::{Histogram, HistogramSnapshot, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// Pipeline stages that are timed, in [`Stage::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    Read,
    Tokenize,
    Parse,
    Write,
    /// Delivery of cache/database chunks (no conversion).
    Deliver,
    /// Consumer-side query execution (predicate + partial aggregation) run
    /// on the worker pool for chunk-parallel queries.
    Exec,
}

impl Stage {
    pub const ALL: [Stage; 6] = [
        Stage::Read,
        Stage::Tokenize,
        Stage::Parse,
        Stage::Write,
        Stage::Deliver,
        Stage::Exec,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Read => "READ",
            Stage::Tokenize => "TOKENIZE",
            Stage::Parse => "PARSE",
            Stage::Write => "WRITE",
            Stage::Deliver => "DELIVER",
            Stage::Exec => "EXEC",
        }
    }
}

/// The stage-time histograms of one operator. Cheap to clone.
#[derive(Clone)]
pub struct Profiler {
    stages: Arc<[Histogram; 6]>,
}

impl Profiler {
    /// Registers `pipeline.stage.<stage>.nanos` for every stage in `metrics`.
    pub fn new(metrics: &MetricsRegistry) -> Self {
        Profiler {
            stages: Arc::new(Stage::ALL.map(|s| {
                metrics.duration_histogram(&format!(
                    "pipeline.stage.{}.nanos",
                    s.name().to_lowercase()
                ))
            })),
        }
    }

    /// Records one completed unit of stage work.
    pub fn record(&self, stage: Stage, elapsed: Duration) {
        self.stages[stage as usize].observe_duration(elapsed);
    }

    /// The stage's histogram as of now; the difference of two snapshots
    /// ([`HistogramSnapshot::saturating_diff`]) is the window in between.
    pub fn snapshot(&self, stage: Stage) -> HistogramSnapshot {
        self.stages[stage as usize].snapshot()
    }

    /// Total time spent in a stage across all chunks and workers.
    pub fn total(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.snapshot(stage).sum)
    }

    /// Number of chunk-units processed by a stage.
    pub fn chunks(&self, stage: Stage) -> u64 {
        self.snapshot(stage).count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn totals_and_counts_are_the_registry_histograms() {
        let metrics = MetricsRegistry::new();
        let p = Profiler::new(&metrics);
        p.record(Stage::Parse, ms(10));
        p.record(Stage::Parse, ms(30));
        p.record(Stage::Read, ms(5));
        assert_eq!(p.total(Stage::Parse), ms(40));
        assert_eq!(p.chunks(Stage::Parse), 2);
        let snap = metrics
            .histogram_snapshot("pipeline.stage.parse.nanos")
            .expect("registered by Profiler::new");
        assert_eq!((snap.count, snap.sum), (2, ms(40).as_nanos() as u64));
        assert_eq!(p.snapshot(Stage::Parse), snap);
        // Stages that never ran are registered and stay at zero.
        let write = metrics
            .histogram_snapshot("pipeline.stage.write.nanos")
            .expect("registered by Profiler::new");
        assert_eq!(write.count, 0);
        assert_eq!(p.total(Stage::Write), Duration::ZERO);
    }

    #[test]
    fn stage_names() {
        assert_eq!(Stage::Tokenize.name(), "TOKENIZE");
        assert_eq!(Stage::Exec.name(), "EXEC");
        // A stage's histogram sits at its declaration index.
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i);
        }
    }
}
