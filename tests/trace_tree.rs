//! Differential tests for the causal tracing subsystem (PR 6 tentpole).
//!
//! Every traced query must produce a *well-formed* span tree — exactly one
//! root, every span closed, parents opened before children, timestamps
//! monotone on the device clock — and the tree must attribute work
//! faithfully: each delivered chunk to exactly one `exec.chunk` span under
//! the query, retries and database fallbacks as child spans rather than
//! silent journal-only events. The invariants are checked across
//! [`ExecMode::Serial`] vs [`ExecMode::Parallel`] and, with
//! `--features fault-inject`, across 16 seeded fault schedules.

use scanraw_repro::prelude::*;
use scanraw_repro::rawfile::generate::{stage_csv, CsvSpec};

const ROWS: u64 = 4_000;
const COLS: usize = 4;
const CHUNK_ROWS: u32 = 500; // → 8 chunks

fn session_on(disk: SimDisk, mode: ExecMode, workers: usize) -> Session {
    let session = Session::open(disk).with_exec_mode(mode);
    session
        .register_table(
            "t",
            "t.csv",
            Schema::uniform_ints(COLS),
            TextDialect::CSV,
            ScanRawConfig::default()
                .with_chunk_rows(CHUNK_ROWS)
                .with_workers(workers)
                .with_cache_chunks(16)
                .with_policy(WritePolicy::speculative()),
        )
        .unwrap();
    session
}

fn staged_disk(seed: u64) -> SimDisk {
    let disk = SimDisk::instant();
    stage_csv(&disk, "t.csv", &CsvSpec::new(ROWS, COLS, seed));
    disk
}

/// Structural invariants beyond `QueryTrace::validate`: the root is the
/// `query` span, scan/merge hang off it, and per-chunk spans nest correctly.
fn assert_tree_shape(trace: &QueryTrace) {
    trace.validate().unwrap_or_else(|e| panic!("invalid: {e}"));
    let root = trace.root().expect("root span");
    assert_eq!(root.name, "query");
    // Scan spans are direct children of the query root.
    for scan in trace.spans_named("scan") {
        assert_eq!(scan.parent, Some(root.id), "scan under query root");
    }
    // Every per-chunk pipeline span has an ancestor chain ending at the root
    // (validate() checked parents exist and open before children; here we
    // check the *names* along the way are plausible containers).
    let by_id: std::collections::HashMap<u64, &SpanRecord> =
        trace.spans.iter().map(|s| (s.id.0, s)).collect();
    for span in &trace.spans {
        let mut cur = span;
        let mut hops = 0;
        while let Some(parent) = cur.parent {
            cur = by_id[&parent.0];
            hops += 1;
            assert!(hops <= 8, "span {} nests impossibly deep", span.name);
        }
        assert_eq!(cur.id, root.id, "{} reaches the root", span.name);
    }
    // Timestamps are monotone within each span (device clock never runs
    // backwards) — validate() already enforces end >= start; spot-check
    // children do not start before the trace root.
    for span in &trace.spans {
        assert!(span.start >= root.start, "{} starts after root", span.name);
    }
}

/// Chunk attribution: every delivered chunk shows up in exactly one
/// `exec.chunk` span (parallel mode), keyed by its `chunk` tag.
fn assert_exec_attribution(trace: &QueryTrace, delivered: usize) {
    let mut seen = std::collections::HashSet::new();
    for span in trace.spans_named("exec.chunk") {
        let chunk = span.tag("chunk").expect("exec.chunk tagged with chunk id");
        assert!(
            seen.insert(chunk.to_string()),
            "chunk {chunk} executed twice"
        );
        assert!(
            span.tag("worker").is_some(),
            "exec.chunk tagged with its worker"
        );
    }
    assert_eq!(
        seen.len(),
        delivered,
        "every delivered chunk has an EXEC span"
    );
}

#[test]
fn serial_and_parallel_traces_are_well_formed() {
    for mode in [ExecMode::Serial, ExecMode::Parallel] {
        for workers in [0, 2] {
            let session = session_on(staged_disk(7), mode, workers);
            let q = Query::sum_of_columns("t", 0..COLS);
            // Cold then warm: conversion-heavy and cache-served trees.
            let (cold, cold_trace) = session
                .run(ExecRequest::query(q.clone()).traced())
                .unwrap()
                .into_traced_single();
            assert_tree_shape(&cold_trace);
            let (warm, warm_trace) = session
                .run(ExecRequest::query(q.clone()).traced())
                .unwrap()
                .into_traced_single();
            assert_tree_shape(&warm_trace);
            assert_eq!(cold.result.rows, warm.result.rows);

            // The pipeline's per-chunk work is all attributed: 8 chunk-tagged
            // reads, plus at most one untagged span for the streaming loop's
            // EOF-probe read (a real device operation that returns no chunk).
            let tagged = cold_trace
                .spans_named("read.chunk")
                .filter(|s| s.tag("chunk").is_some())
                .count();
            assert_eq!(tagged, 8, "8 chunks read in mode {mode:?}/{workers}w");
            let reads = cold_trace.spans_named("read.chunk").count();
            assert!(
                (8..=9).contains(&reads),
                "at most one EOF probe in mode {mode:?}/{workers}w, got {reads}"
            );
            if mode == ExecMode::Parallel {
                assert_exec_attribution(&cold_trace, cold.scan.chunks_delivered);
                assert_exec_attribution(&warm_trace, warm.scan.chunks_delivered);
                assert_eq!(warm_trace.spans_named("merge").count(), 1);
            }
            // Speculative loading surfaced as write.chunk spans in the cold
            // tree (the safeguard flushes all 8 by scan end).
            assert_eq!(
                cold_trace.spans_named("write.chunk").count(),
                8,
                "all chunks written back under the cold trace"
            );
            // Disk activity is traced under the same tree.
            assert!(cold_trace.spans_named("disk.read").count() > 0);
            assert!(cold_trace.spans_named("disk.write").count() > 0);
        }
    }
}

/// READ attribution: every delivered chunk has exactly one `read.chunk` span,
/// never inside another one, tagged with its chunk and with the source that
/// served it. `probes` is how many chunk-less spans are allowed (the
/// streaming loop's EOF probe on a first scan).
fn assert_read_attribution(trace: &QueryTrace, delivered: usize, source: &str, probes: usize) {
    let by_id: std::collections::HashMap<u64, &SpanRecord> =
        trace.spans.iter().map(|s| (s.id.0, s)).collect();
    let mut chunks = Vec::new();
    let mut untagged = 0;
    for span in trace.spans_named("read.chunk") {
        let mut ancestor = span.parent;
        while let Some(id) = ancestor {
            assert_ne!(by_id[&id.0].name, "read.chunk", "nested read.chunk");
            ancestor = by_id[&id.0].parent;
        }
        let served = span.tag("source").expect("read.chunk tagged with source");
        assert_eq!(served, source, "planned={:?}", span.tag("planned"));
        match span.tag("chunk") {
            Some(chunk) => chunks.push(chunk),
            None => untagged += 1,
        }
    }
    assert!(
        untagged <= probes,
        "{untagged} read.chunk spans without chunk"
    );
    chunks.sort_unstable();
    let reads = chunks.len();
    chunks.dedup();
    assert_eq!(chunks.len(), reads, "a chunk was read twice");
    assert_eq!(reads, delivered, "every delivered chunk has a READ span");
}

#[test]
fn every_delivered_chunk_has_one_read_span_from_every_source() {
    for workers in [0, 2] {
        let session = Session::open(staged_disk(7));
        let config = ScanRawConfig::default()
            .with_chunk_rows(CHUNK_ROWS)
            .with_workers(workers)
            .with_cache_chunks(16)
            .with_policy(WritePolicy::speculative())
            .with_hybrid_reads(true);
        session
            .register_table(
                "t",
                "t.csv",
                Schema::uniform_ints(COLS),
                TextDialect::CSV,
                config,
            )
            .unwrap();
        // Column-granular loading, so a wider query finds a partial table.
        session
            .engine()
            .set_convert_scope(ConvertScope::ProjectionOnly);
        let op = session.engine().operator("t").unwrap();
        let traced = |cols: &[usize]| {
            let q = Query::sum_of_columns("t", cols.iter().copied());
            let (out, trace) = session
                .run(ExecRequest::query(q).traced())
                .unwrap()
                .into_traced_single();
            assert_tree_shape(&trace);
            (out.scan, trace)
        };

        let (scan, trace) = traced(&[0]);
        assert_eq!((scan.from_raw, scan.chunks_delivered), (8, 8), "{scan:?}");
        assert_read_attribution(&trace, 8, "raw", 1);
        let (scan, trace) = traced(&[0]);
        assert_eq!(scan.from_cache, 8, "{scan:?}");
        assert_read_attribution(&trace, 8, "cache", 0);
        // The safeguard stored column 0; without the cache it is the
        // database that serves it.
        op.drain_writes();
        op.cache().clear();
        let (scan, trace) = traced(&[0]);
        assert_eq!(scan.from_db, 8, "{scan:?}");
        assert_read_attribution(&trace, 8, "db", 0);
        op.cache().clear();
        let (scan, trace) = traced(&[0, 2]);
        assert_eq!(scan.from_hybrid, 8, "{scan:?}");
        assert_read_attribution(&trace, 8, "hybrid", 0);
    }
}

#[test]
fn traces_are_deterministic_on_the_virtual_clock() {
    // Same seed, same config → identical span trees (names, parents, tags,
    // and virtual timestamps), independent of host scheduling. Worker pool
    // size 0 keeps conversion on one thread so even span *ordering* is fixed.
    let shape = |trace: &QueryTrace| -> Vec<(String, Option<u64>, u128)> {
        trace
            .spans
            .iter()
            .map(|s| {
                (
                    format!("{}:{}", s.name, s.tag("chunk").unwrap_or("")),
                    s.parent.map(|p| p.0),
                    s.start.as_nanos(),
                )
            })
            .collect()
    };
    let run = || {
        let session = session_on(staged_disk(7), ExecMode::Serial, 0);
        let (_, trace) = session
            .run(ExecRequest::query(Query::sum_of_columns("t", 0..COLS)).traced())
            .unwrap()
            .into_traced_single();
        trace
    };
    let (a, b) = (run(), run());
    assert_eq!(
        shape(&a),
        shape(&b),
        "virtual-clock traces are reproducible"
    );
}

#[test]
fn disabled_recorder_records_nothing_and_execute_traced_errors() {
    let session = session_on(staged_disk(7), ExecMode::Parallel, 2);
    let op = session.engine().operator("t").unwrap();
    op.obs().trace.set_enabled(false);
    let q = Query::sum_of_columns("t", 0..COLS);
    let out = session
        .run(ExecRequest::query(q.clone()))
        .unwrap()
        .into_single();
    assert_eq!(out.result.rows_scanned, ROWS);
    assert!(
        session.run(ExecRequest::query(q.clone()).traced()).is_err(),
        "no trace when disabled"
    );
    assert!(
        !op.obs()
            .journal
            .entries()
            .iter()
            .any(|e| matches!(e.event, ObsEvent::TraceStarted { .. })),
        "no trace minted when disabled"
    );

    // Re-enabling picks tracing back up on the same operator.
    op.obs().trace.set_enabled(true);
    let (_, trace) = session
        .run(ExecRequest::query(q).traced())
        .unwrap()
        .into_traced_single();
    assert_tree_shape(&trace);
}

#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use scanraw_repro::obs::ObsEvent;
    use scanraw_repro::simio::{FaultConfig, FaultPlan};
    use std::time::Duration;

    /// 16 seeded schedules: transient faults on database reads/writes force
    /// retries and fallbacks mid-query; the trace must surface every one of
    /// them as a child span — they never disappear from the tree.
    #[test]
    fn retries_and_fallbacks_appear_as_child_spans_across_16_schedules() {
        for seed in 0..16u64 {
            let disk = staged_disk(7);
            let session = session_on(disk.clone(), ExecMode::Parallel, 2);
            let q = Query::sum_of_columns("t", 0..COLS);
            // Load the table clean, then fault the db region for the warm
            // run so loaded-chunk reads retry and fall back.
            let (cold, _) = session
                .run(ExecRequest::query(q.clone()).traced())
                .unwrap()
                .into_traced_single();
            session.engine().operator("t").unwrap().drain_writes();
            session.engine().operator("t").unwrap().cache().clear();
            disk.set_fault_plan(FaultPlan::new(FaultConfig {
                target: "db/".into(),
                p_transient: 0.6,
                max_consecutive: 3,
                latency_spike: Duration::from_micros(50),
                ..FaultConfig::seeded(seed)
            }));
            let (warm, trace) = session
                .run(ExecRequest::query(q.clone()).traced())
                .unwrap()
                .into_traced_single();
            disk.clear_fault_plan();
            assert_eq!(cold.result.rows, warm.result.rows, "seed {seed}");
            trace
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));

            // Journal ground truth for this query's window.
            let op = session.engine().operator("t").unwrap();
            let entries = op.obs().journal.entries();
            let since = entries
                .iter()
                .rev()
                .find(|e| matches!(e.event, ObsEvent::TraceStarted { .. }))
                .map(|e| e.seq)
                .expect("trace start journaled");
            let retries = entries
                .iter()
                .filter(|e| e.seq >= since && matches!(e.event, ObsEvent::IoRetry { .. }))
                .count();
            let fallbacks = entries
                .iter()
                .filter(|e| e.seq >= since && matches!(e.event, ObsEvent::DbReadFallback { .. }))
                .count();

            let retry_spans: Vec<_> = trace.spans_named("retry").collect();
            let fallback_spans = trace.spans_named("db.fallback").count();
            assert!(
                retry_spans.len() >= retries,
                "seed {seed}: {retries} journaled retries, {} retry spans",
                retry_spans.len()
            );
            assert_eq!(
                fallback_spans, fallbacks,
                "seed {seed}: every db fallback is a span"
            );
            // Retry spans are children (of read.chunk/write.chunk/...), never
            // roots, and carry their attempt tag.
            for r in &retry_spans {
                assert!(r.parent.is_some(), "seed {seed}: retry span has a parent");
                assert!(r.tag("attempt").is_some());
            }
        }
    }
}
