//! Integration tests for the unified observability layer: metrics registry,
//! event journal, JSONL recorder, and the engine's `EXPLAIN ANALYZE` path,
//! all exercised over the real pipeline.

use scanraw_repro::core::SchedulerReport;
use scanraw_repro::obs::recorder::parse_jsonl;
use scanraw_repro::obs::{JsonlRecorder, ObsEvent};
use scanraw_repro::prelude::*;
use scanraw_repro::rawfile::generate::{stage_csv, CsvSpec};
use std::sync::{Arc, Mutex};

fn engine_with_table(policy: WritePolicy, cache_chunks: usize) -> (SimDisk, Engine) {
    let disk = SimDisk::instant();
    stage_csv(&disk, "t.csv", &CsvSpec::new(4_000, 4, 11));
    let engine = Engine::new(Database::new(disk.clone()));
    engine
        .register_table(
            "t",
            "t.csv",
            Schema::uniform_ints(4),
            TextDialect::CSV,
            ScanRawConfig::default()
                .with_chunk_rows(500)
                .with_workers(2)
                .with_cache_chunks(cache_chunks)
                .with_policy(policy),
        )
        .unwrap();
    (disk, engine)
}

#[test]
fn explain_analyze_reports_sources_across_cold_and_warm_runs() {
    let (_disk, engine) = engine_with_table(WritePolicy::speculative(), 32);
    let q = Query::sum_of_columns("t", 0..4);

    // Cold run: everything converts from the raw file (8 chunks of 500 rows).
    let cold = engine.explain_analyze(&q).unwrap();
    assert_eq!(cold.outcome.scan.from_raw, 8);
    assert_eq!(cold.outcome.scan.from_cache, 0);
    assert_eq!(cold.outcome.result.rows_scanned, 4_000);
    // The pipeline stages actually ran and were timed.
    let stage = |name: &str| {
        cold.stage_durations
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .unwrap()
    };
    assert!(!stage("TOKENIZE").is_zero(), "{:?}", cold.stage_durations);
    assert!(!stage("PARSE").is_zero(), "{:?}", cold.stage_durations);
    // Journal bracketed the query.
    assert!(cold
        .events
        .iter()
        .any(|e| matches!(e.event, ObsEvent::QueryStart { .. })));
    assert!(cold
        .events
        .iter()
        .any(|e| matches!(e.event, ObsEvent::QueryEnd { .. })));

    // Warm run: every chunk fits in the cache, so the re-run is served from
    // it — and the plan predicted that.
    let warm = engine.explain_analyze(&q).unwrap();
    assert_eq!(warm.explain.expect_from_cache, 8);
    assert_eq!(warm.outcome.scan.from_cache, 8);
    assert_eq!(warm.outcome.scan.from_raw, 0);
    assert_eq!(warm.cache_hit_rate, Some(1.0));
    // Chunk delivery is counted under DELIVER, not READ (its *duration* is
    // virtual-clock time, which does not advance for cache hits).
    let op = engine.operator("t").unwrap();
    let deliver = op
        .obs()
        .metrics
        .histogram_snapshot("pipeline.stage.deliver.nanos")
        .unwrap();
    assert_eq!(deliver.count, 8);

    // The JSON export is parseable and carries the source breakdown.
    let doc = warm.to_json();
    let parsed = scanraw_repro::obs::json::parse(&doc.to_json()).unwrap();
    assert_eq!(parsed["actual_sources"]["cache"].as_u64(), Some(8));
    assert_eq!(parsed["cache_hit_rate"].as_f64(), Some(1.0));
}

#[test]
fn stage_time_has_one_store() {
    use scanraw_repro::core::Stage;
    let (_disk, engine) = engine_with_table(WritePolicy::speculative(), 32);
    let q = Query::sum_of_columns("t", 0..4);
    let op = engine.operator("t").unwrap();
    let histogram = |s: Stage| {
        let name = format!("pipeline.stage.{}.nanos", s.name().to_lowercase());
        let snapshot = op.obs().metrics.histogram_snapshot(&name);
        snapshot.unwrap_or_else(|| panic!("{name} is registered with the operator"))
    };

    // Raw, then cache, then — written back and the cache dropped — database:
    // between them the three scans run every stage.
    engine.execute(&q).unwrap();
    engine.execute(&q).unwrap();
    op.drain_writes();
    op.cache().clear();
    let before = Stage::ALL.map(histogram);
    let report = engine.explain_analyze(&q).unwrap();
    assert_eq!(report.outcome.scan.from_db, 8);

    // The profiler is a view over the registry's stage histograms.
    for stage in Stage::ALL {
        let h = histogram(stage);
        assert!(h.count > 0, "{} never ran", stage.name());
        assert_eq!(op.profiler().chunks(stage), h.count, "{}", stage.name());
        let total = op.profiler().total(stage);
        assert_eq!(total.as_nanos(), u128::from(h.sum), "{}", stage.name());
    }
    // EXPLAIN ANALYZE reports the same histograms' window over its query.
    let doc = report.to_json();
    let parsed = scanraw_repro::obs::json::parse(&doc.to_json()).unwrap();
    for (i, (stage, before)) in Stage::ALL.into_iter().zip(&before).enumerate() {
        let window = histogram(stage).saturating_diff(before);
        let row = &parsed["stage_micros"][i];
        assert_eq!(row["stage"].as_str(), Some(stage.name()));
        assert_eq!(row["micros"].as_u64(), Some(window.sum / 1_000), "{row:?}");
        assert_eq!(
            report.stage_durations[i].1.as_nanos(),
            u128::from(window.sum)
        );
    }
}

#[test]
fn speculative_run_journals_its_loading_decisions() {
    let (_disk, engine) = engine_with_table(WritePolicy::speculative(), 32);
    let q = Query::sum_of_columns("t", 0..4);
    let report = engine.explain_analyze(&q).unwrap();
    let op = engine.operator("t").unwrap();
    let journal = &op.obs().journal;

    // Everything the scan loaded is in the journal: speculative stores fire
    // only while READ is blocked (timing-dependent), but the end-of-scan
    // safeguard always flushes the rest, so together they cover all 8 chunks.
    let speculative =
        journal.count_where(|e| matches!(e, ObsEvent::SpeculativeWriteTriggered { .. })) as u64;
    let flushed: u64 = journal
        .entries()
        .iter()
        .map(|e| match e.event {
            ObsEvent::SafeguardFlush { chunks } => chunks,
            _ => 0,
        })
        .sum();
    assert_eq!(speculative, report.speculative_chunks_written);
    assert_eq!(flushed, report.safeguard_chunks_written);
    assert_eq!(speculative + flushed, 8, "all chunks loaded by query end");
    assert!(flushed > 0 || speculative > 0);

    // The scheduler report is derivable from the journal alone.
    let derived = SchedulerReport::from_journal(journal, 0);
    assert_eq!(
        derived.speculative_writes,
        report.speculative_chunks_written
    );
    assert_eq!(derived.safeguard_writes, report.safeguard_chunks_written);

    // Speculation actually loaded the table: the warm re-run reads nothing
    // raw.
    let warm = engine.execute(&q).unwrap();
    assert_eq!(warm.scan.from_raw, 0);
}

#[test]
fn registry_counts_cache_and_disk_activity() {
    let (_disk, engine) = engine_with_table(WritePolicy::ExternalTables, 2);
    let q = Query::sum_of_columns("t", 0..4);
    engine.execute(&q).unwrap();
    let op = engine.operator("t").unwrap();
    let metrics = &op.obs().metrics;

    // 8 chunks through a 2-chunk cache → at least 6 evictions.
    assert!(metrics.counter_value("cache.chunk.evict").unwrap() >= 6);
    // The device mirrored its accounting into the same registry.
    assert!(metrics.counter_value("disk.read.bytes").unwrap() > 0);
    assert_eq!(metrics.gauge_value("disk.queue.depth"), Some(0));
    // Stage histograms were fed by the profiler.
    let parse = metrics
        .histogram_snapshot("pipeline.stage.parse.nanos")
        .unwrap();
    assert_eq!(parse.count, 8);

    // The full snapshot is one valid JSON document.
    let snap = op.obs().snapshot_json();
    let parsed = scanraw_repro::obs::json::parse(&snap.to_json()).unwrap();
    assert!(
        parsed["metrics"]["counters"]["disk.read.ops"]
            .as_u64()
            .unwrap()
            > 0
    );
}

/// `Write` sink shared with the test so the recorder's output can be read
/// back after the scan.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn jsonl_recorder_streams_pipeline_events() {
    let (_disk, engine) = engine_with_table(WritePolicy::speculative(), 32);
    let op = engine.operator("t").unwrap();
    let buf = SharedBuf::default();
    op.obs()
        .journal
        .set_recorder(Box::new(JsonlRecorder::new(buf.clone())));

    engine.execute(&Query::sum_of_columns("t", 0..4)).unwrap();
    op.drain_writes();
    op.obs().journal.flush_recorder();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let entries = parse_jsonl(&text).unwrap();
    assert!(!entries.is_empty());
    // The stream round-trips entry-for-entry with the journal ring.
    let ring = op.obs().journal.entries();
    assert_eq!(entries.len() as u64, op.obs().journal.total_recorded());
    assert_eq!(&entries[entries.len() - ring.len()..], &ring[..]);
}

#[test]
fn worker_scaling_is_journaled_and_applied() {
    let (_disk, engine) = engine_with_table(WritePolicy::ExternalTables, 32);
    let op = engine.operator("t").unwrap();
    assert_eq!(op.workers(), 2);
    op.set_workers(4);
    op.set_workers(4); // no-op: unchanged count is not journaled
    assert_eq!(op.workers(), 4);
    let scaled: Vec<_> = op
        .obs()
        .journal
        .entries()
        .into_iter()
        .filter(|e| matches!(e.event, ObsEvent::WorkerScaled { .. }))
        .collect();
    assert_eq!(scaled.len(), 1);
    assert!(matches!(
        scaled[0].event,
        ObsEvent::WorkerScaled { from: 2, to: 4 }
    ));
    // The next scan runs with the new pool and still answers correctly.
    let out = engine.execute(&Query::sum_of_columns("t", 0..4)).unwrap();
    assert_eq!(out.result.rows_scanned, 4_000);
}

#[test]
fn every_obs_event_kind_round_trips_through_from_parts() {
    use scanraw_repro::obs::WriteCause;
    // One exemplar per variant. Adding an ObsEvent variant without extending
    // this list fails the length assertion below (kept in sync with the L007
    // exhaustive matches in kind()/payload()/from_parts()).
    let exemplars = vec![
        ObsEvent::QueryStart {
            table: "t".into(),
            columns: 4,
        },
        ObsEvent::QueryEnd {
            table: "t".into(),
            chunks: 8,
            rows: 4_000,
            elapsed_micros: 1_234,
        },
        ObsEvent::ReadBlocked { chunk: 1 },
        ObsEvent::SpeculativeWriteTriggered { chunk: 2 },
        ObsEvent::SafeguardFlush { chunks: 3 },
        ObsEvent::WriteQueued {
            chunk: 4,
            cause: WriteCause::Eviction,
        },
        ObsEvent::CacheHit { chunk: 5 },
        ObsEvent::CacheMiss { chunk: 6 },
        ObsEvent::CacheEvict {
            chunk: 7,
            loaded: true,
        },
        ObsEvent::ChunkSkipped { chunk: 8 },
        ObsEvent::WorkerScaled { from: 2, to: 4 },
        ObsEvent::IoRetry {
            target: "db/t".into(),
            attempt: 1,
        },
        ObsEvent::LoadDegraded { chunk: 9 },
        ObsEvent::DbReadFallback { chunk: 10 },
        ObsEvent::RecoveryCompleted {
            committed: 11,
            dropped: 1,
        },
        ObsEvent::TraceStarted {
            trace: 12,
            table: "t".into(),
        },
        ObsEvent::TraceCompleted {
            trace: 12,
            spans: 42,
        },
    ];
    assert_eq!(exemplars.len(), 17, "one exemplar per ObsEvent variant");
    let mut kinds = std::collections::HashSet::new();
    for event in exemplars {
        assert!(
            kinds.insert(event.kind()),
            "duplicate kind {}",
            event.kind()
        );
        let rebuilt = ObsEvent::from_parts(event.kind(), &event.payload())
            .unwrap_or_else(|| panic!("{} must reconstruct from its parts", event.kind()));
        assert_eq!(rebuilt, event, "{} payload round-trip", event.kind());
    }
}

#[test]
fn trace_lifecycle_is_journaled() {
    let (_disk, engine) = engine_with_table(WritePolicy::speculative(), 32);
    engine.execute(&Query::sum_of_columns("t", 0..4)).unwrap();
    let op = engine.operator("t").unwrap();
    let entries = op.obs().journal.entries();
    let started: Vec<u64> = entries
        .iter()
        .filter_map(|e| match &e.event {
            ObsEvent::TraceStarted { trace, table } if table == "t" => Some(*trace),
            _ => None,
        })
        .collect();
    let completed: Vec<(u64, u64)> = entries
        .iter()
        .filter_map(|e| match &e.event {
            ObsEvent::TraceCompleted { trace, spans } => Some((*trace, *spans)),
            _ => None,
        })
        .collect();
    assert_eq!(started.len(), 1);
    assert_eq!(completed.len(), 1);
    assert_eq!(started[0], completed[0].0, "start/complete pair one trace");
    assert!(completed[0].1 > 0, "the traced query recorded spans");
}
