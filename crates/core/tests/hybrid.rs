//! Hybrid database+raw column reads (paper §3.2.1): for chunks with only
//! some of the required columns loaded, the loaded columns are read from the
//! database and only the missing ones are converted from the raw file.

use scanraw::{ConvertScope, ScanRaw, ScanRequest};
use scanraw_rawfile::generate::{expected_column_sums, stage_csv, CsvSpec};
use scanraw_rawfile::TextDialect;
use scanraw_simio::{AccessKind, DiskConfig, RealClock, SimDisk};
use scanraw_storage::Database;
use scanraw_types::{ScanRawConfig, Schema, WritePolicy};
use std::sync::Arc;
use std::time::Duration;

const COLS: usize = 4;

/// Builds an operator whose database holds only column 0 of every chunk
/// (projection-only eager load), with an empty cache.
fn partially_loaded(hybrid: bool) -> (Arc<ScanRaw>, CsvSpec) {
    let disk = SimDisk::instant();
    let spec = CsvSpec::new(2000, COLS, 12);
    stage_csv(&disk, "p.csv", &spec);
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(2)
        .with_cache_chunks(1)
        .with_policy(WritePolicy::Eager)
        .with_hybrid_reads(hybrid);
    let op = ScanRaw::create(
        Database::new(disk),
        "p",
        Schema::uniform_ints(COLS),
        TextDialect::CSV,
        "p.csv",
        cfg,
    )
    .unwrap();
    // Projection-only scan of column 0 under eager loading: every chunk gets
    // exactly column 0 stored.
    let req = ScanRequest {
        projection: vec![0],
        convert: ConvertScope::ProjectionOnly,
        skip_predicate: None,
        pushdown: None,
        trace: None,
    };
    op.scan(req).unwrap().finish().unwrap();
    op.drain_writes();
    op.cache().clear();
    (op, spec)
}

fn sums(op: &Arc<ScanRaw>, req: ScanRequest) -> (Vec<i64>, scanraw::ScanSummary) {
    let cols = req.projection.clone();
    let mut stream = op.scan(req).unwrap();
    let mut out = vec![0i64; cols.len()];
    while let Some(chunk) = stream.next_chunk() {
        for (i, &c) in cols.iter().enumerate() {
            if let scanraw_types::ColumnData::Int64(v) = chunk.column(c).unwrap() {
                out[i] += v.iter().sum::<i64>();
            }
        }
    }
    (out, stream.finish().unwrap())
}

#[test]
fn hybrid_merges_database_and_raw_columns() {
    let (op, spec) = partially_loaded(true);
    let expected = expected_column_sums(&spec);
    let req = ScanRequest::projected(vec![0, 2]);
    let (s, summary) = sums(&op, req);
    assert_eq!(s, vec![expected[0], expected[2]]);
    assert_eq!(summary.from_hybrid, 8, "{summary:?}");
    assert_eq!(summary.from_raw, 0, "no full raw conversions needed");
}

#[test]
fn without_hybrid_partial_chunks_go_back_to_raw() {
    let (op, spec) = partially_loaded(false);
    let expected = expected_column_sums(&spec);
    let req = ScanRequest::projected(vec![0, 2]);
    let (s, summary) = sums(&op, req);
    assert_eq!(s, vec![expected[0], expected[2]]);
    assert_eq!(summary.from_hybrid, 0);
    assert_eq!(summary.from_raw, 8);
}

#[test]
fn hybrid_results_are_loadable_and_complete_the_columns() {
    // After a hybrid scan under eager loading, the freshly converted column
    // is stored too — the table's loaded set grows column by column.
    let (op, _) = partially_loaded(true);
    let req = ScanRequest::projected(vec![0, 2]);
    sums(&op, req);
    op.drain_writes();
    let entry = op.database().catalog().table("p").unwrap();
    let entry = entry.read();
    for i in 0..entry.n_chunks() {
        let id = scanraw_types::ChunkId(i as u32);
        assert!(entry.is_loaded(id, &[0, 2]), "chunk {i} incomplete");
    }
    // A follow-up query over {0, 2} is served from the database alone.
    op.cache().clear();
    let (_, summary) = sums(&op, ScanRequest::projected(vec![0, 2]));
    assert_eq!(summary.from_db, 8, "{summary:?}");
}

#[test]
fn hybrid_sequential_mode_works_too() {
    let disk = SimDisk::instant();
    let spec = CsvSpec::new(500, COLS, 3);
    stage_csv(&disk, "s.csv", &spec);
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(100)
        .with_workers(0) // sequential regime
        .with_cache_chunks(1)
        .with_policy(WritePolicy::Eager)
        .with_hybrid_reads(true);
    let op = ScanRaw::create(
        Database::new(disk),
        "s",
        Schema::uniform_ints(COLS),
        TextDialect::CSV,
        "s.csv",
        cfg,
    )
    .unwrap();
    let req = ScanRequest {
        projection: vec![1],
        convert: ConvertScope::ProjectionOnly,
        skip_predicate: None,
        pushdown: None,
        trace: None,
    };
    op.scan(req).unwrap().finish().unwrap();
    op.drain_writes();
    op.cache().clear();
    let expected = expected_column_sums(&spec);
    let (s, summary) = sums(&op, ScanRequest::projected(vec![1, 3]));
    assert_eq!(s, vec![expected[1], expected[3]]);
    assert_eq!(summary.from_hybrid, 5, "{summary:?}");
}

/// §4: "only the reading of new chunks from disk has to be delayed until
/// flushing the cache" — also when every chunk of the new scan is hybrid.
#[test]
fn hybrid_only_scan_waits_for_the_previous_scans_flush() {
    // A real-clock device on which the store of one column cell (250 × 8
    // bytes, plus its commit record) takes several milliseconds.
    let disk = SimDisk::new(
        DiskConfig {
            read_bw: 64 * 1024 * 1024,
            write_bw: 256 * 1024,
            seek_latency: Duration::ZERO,
            ..DiskConfig::instant()
        },
        RealClock::shared(),
    );
    let spec = CsvSpec::new(2000, COLS, 12);
    stage_csv(&disk, "p.csv", &spec);
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(2)
        .with_cache_chunks(16)
        .with_policy(WritePolicy::speculative())
        .with_hybrid_reads(true);
    let op = ScanRaw::create(
        Database::new(disk.clone()),
        "p",
        Schema::uniform_ints(COLS),
        TextDialect::CSV,
        "p.csv",
        cfg,
    )
    .unwrap();
    let count = |kind| {
        let ops = disk.stats().ops();
        ops.iter().filter(|op| op.kind == kind).count()
    };

    // Column 0 of all eight chunks becomes durable.
    sums(&op, ScanRequest::projected(vec![0]));
    op.drain_writes();
    let writes_per_scan = count(AccessKind::Write);
    assert!(writes_per_scan >= 8, "one store per chunk");
    // Column 1: the safeguard queues its eight stores as the scan ends and
    // nothing waits for them.
    sums(&op, ScanRequest::projected(vec![1]));
    let reads_before = count(AccessKind::Read);
    // Needs {0, 2} with only column 0 loaded: every chunk is hybrid.
    let (s, summary) = sums(&op, ScanRequest::projected(vec![0, 2]));
    op.drain_writes();
    let expected = expected_column_sums(&spec);
    assert_eq!(s, vec![expected[0], expected[2]]);
    assert_eq!(summary.from_hybrid, 8, "{summary:?}");

    let (reads, writes): (Vec<_>, Vec<_>) =
        (disk.stats().ops().into_iter()).partition(|op| op.kind == AccessKind::Read);
    // WRITE is one thread serving stores in order, and each scan stored one
    // column of every chunk: the second scan's flush is the second third.
    assert_eq!(writes.len(), 3 * writes_per_scan);
    let flushed = writes[2 * writes_per_scan - 1].end;
    let first_read = reads[reads_before..].iter().map(|op| op.start).min();
    assert!(
        first_read.expect("the hybrid scan reads the device") >= flushed,
        "READ touched the device at {first_read:?}, the pending flush ended at {flushed:?}"
    );
}

#[test]
fn pushdown_rejected_when_hybrid_enabled() {
    let (op, _) = partially_loaded(true);
    let req = ScanRequest::projected(vec![0, 2]).with_pushdown(scanraw::PushdownFilter {
        columns: vec![0],
        predicate: Arc::new(|_| true),
    });
    assert!(op.scan(req).is_err());
}
