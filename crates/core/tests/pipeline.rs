//! End-to-end tests of the ScanRaw pipeline across write policies, worker
//! counts, and query sequences.

use scanraw::{ConvertScope, ScanRaw, ScanRequest, Stage};
use scanraw_rawfile::generate::{expected_column_sums, stage_csv, CsvSpec};
use scanraw_rawfile::TextDialect;
use scanraw_simio::{Clock, DiskConfig, SimDisk, VirtualClock};
use scanraw_storage::Database;
use scanraw_types::{
    BinaryChunk, ChunkId, RangePredicate, ScanRawConfig, Schema, Value, WritePolicy,
};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

const ROWS: u64 = 4000;
const COLS: usize = 4;
const CHUNK_ROWS: u32 = 500; // → 8 chunks

fn setup(config: ScanRawConfig) -> (Arc<ScanRaw>, CsvSpec) {
    setup_on(SimDisk::instant(), config)
}

fn setup_on(disk: SimDisk, config: ScanRawConfig) -> (Arc<ScanRaw>, CsvSpec) {
    let spec = CsvSpec::new(ROWS, COLS, 42);
    stage_csv(&disk, "data.csv", &spec);
    let db = Database::new(disk);
    let op = ScanRaw::create(
        db,
        "t",
        Schema::uniform_ints(COLS),
        TextDialect::CSV,
        "data.csv",
        config,
    )
    .unwrap();
    (op, spec)
}

fn base_config(policy: WritePolicy, workers: usize) -> ScanRawConfig {
    ScanRawConfig::default()
        .with_chunk_rows(CHUNK_ROWS)
        .with_workers(workers)
        .with_policy(policy)
}

/// Sums every projected column over a full scan and checks row counts.
fn scan_and_sum(op: &Arc<ScanRaw>, req: ScanRequest) -> (Vec<i64>, u64, scanraw::ScanSummary) {
    let mut cols = req.projection.clone();
    cols.sort_unstable();
    cols.dedup();
    drain_and_sum(op.scan(req).unwrap(), &cols)
}

/// Consumes a stream, summing columns `cols` of every chunk.
fn drain_and_sum(
    mut stream: scanraw::ChunkStream,
    cols: &[usize],
) -> (Vec<i64>, u64, scanraw::ScanSummary) {
    let mut sums = vec![0i64; cols.len()];
    let mut rows = 0u64;
    while let Some(chunk) = stream.next_chunk() {
        rows += chunk.rows as u64;
        for (i, &c) in cols.iter().enumerate() {
            let col = chunk
                .column(c)
                .unwrap_or_else(|| panic!("column {c} missing from {:?}", chunk.id));
            match col {
                scanraw_types::ColumnData::Int64(v) => sums[i] += v.iter().sum::<i64>(),
                other => panic!("unexpected column type {other:?}"),
            }
        }
    }
    let summary = stream.finish().unwrap();
    (sums, rows, summary)
}

#[test]
fn external_tables_correct_across_worker_counts() {
    for workers in [0, 1, 2, 4] {
        let (op, spec) = setup(base_config(WritePolicy::ExternalTables, workers));
        let (sums, rows, summary) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
        assert_eq!(rows, ROWS, "workers={workers}");
        assert_eq!(sums, expected_column_sums(&spec), "workers={workers}");
        assert_eq!(summary.from_raw, 8);
        assert_eq!(summary.writes_queued, 0);
        assert_eq!(op.chunks_written(), 0);
    }
}

#[test]
fn repeat_scans_stay_correct_and_use_cache() {
    let (op, spec) = setup(base_config(WritePolicy::ExternalTables, 2));
    let expected = expected_column_sums(&spec);
    let (s1, _, sum1) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert_eq!(s1, expected);
    assert_eq!(sum1.from_cache, 0);
    assert!(op.layout_known());
    let (s2, r2, sum2) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert_eq!(s2, expected);
    assert_eq!(r2, ROWS);
    // Default cache (32 chunks) holds the whole 8-chunk file.
    assert_eq!(sum2.from_cache, 8);
    assert_eq!(sum2.from_raw, 0);
}

#[test]
fn eager_loading_loads_everything_in_one_query() {
    let (op, spec) = setup(base_config(WritePolicy::Eager, 2));
    let (sums, _, summary) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert_eq!(sums, expected_column_sums(&spec));
    assert_eq!(summary.writes_queued, 8);
    assert_eq!(op.chunks_written(), 8);
    assert!(op.fully_loaded());
}

#[test]
fn second_scan_after_eager_reads_from_db_not_raw() {
    let mut cfg = base_config(WritePolicy::Eager, 2);
    cfg.binary_cache_chunks = 2; // tiny cache → most chunks must come from db
    let (op, spec) = setup(cfg);
    scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert!(op.fully_loaded());
    let (sums, rows, summary) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert_eq!(sums, expected_column_sums(&spec));
    assert_eq!(rows, ROWS);
    assert_eq!(summary.from_raw, 0, "{summary:?}");
    assert!(summary.from_db >= 6, "{summary:?}");
}

#[test]
fn speculative_safeguard_flushes_cache_each_query() {
    let mut cfg = base_config(WritePolicy::speculative(), 2);
    cfg.binary_cache_chunks = 2; // cache is 1/4 of the 8-chunk file
    let (op, spec) = setup(cfg);
    let expected = expected_column_sums(&spec);

    // Query 1: everything raw; safeguard flushes the (2-chunk) cache.
    let (s, _, sum1) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert_eq!(s, expected);
    assert_eq!(sum1.from_raw, 8);
    assert!(sum1.safeguard_writes >= 1, "{sum1:?}");
    op.drain_writes();
    let written_after_q1 = op.chunks_written();
    assert!(written_after_q1 >= 2, "safeguard stored the cached chunks");

    // Subsequent queries: loaded chunks come from cache/db, more get stored
    // each time until the file is fully loaded.
    let mut prev = written_after_q1;
    for q in 2..=6 {
        let (s, rows, sum) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
        assert_eq!(s, expected, "query {q}");
        assert_eq!(rows, ROWS);
        assert!(
            sum.from_cache + sum.from_db + sum.from_raw == 8,
            "query {q}: {sum:?}"
        );
        op.drain_writes();
        let now = op.chunks_written();
        if !op.fully_loaded() {
            assert!(now > prev, "query {q} must make loading progress");
        }
        prev = now;
    }
    assert!(op.fully_loaded(), "file fully loaded after enough queries");
}

#[test]
fn speculative_without_safeguard_may_not_converge_but_stays_correct() {
    let mut cfg = base_config(WritePolicy::Speculative { safeguard: false }, 2);
    cfg.binary_cache_chunks = 2;
    let (op, spec) = setup(cfg);
    let expected = expected_column_sums(&spec);
    for _ in 0..3 {
        let (s, rows, _) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
        assert_eq!(s, expected);
        assert_eq!(rows, ROWS);
    }
}

#[test]
fn buffered_loading_writes_evicted_chunks() {
    let mut cfg = base_config(WritePolicy::Buffered, 2);
    cfg.binary_cache_chunks = 3; // 8 chunks through a 3-chunk cache → evictions
    let (op, spec) = setup(cfg);
    let (s, _, summary) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert_eq!(s, expected_column_sums(&spec));
    assert!(summary.eviction_writes >= 5, "{summary:?}");
    assert!(op.chunks_written() >= 5);
    assert!(!op.fully_loaded(), "chunks still in cache are not stored");
}

#[test]
fn invisible_loading_fixed_quota_per_query() {
    let mut cfg = base_config(
        WritePolicy::Invisible {
            chunks_per_query: 3,
        },
        2,
    );
    cfg.binary_cache_chunks = 2; // keep cache small so raw conversions repeat
    let (op, spec) = setup(cfg);
    let expected = expected_column_sums(&spec);

    let (s, _, sum1) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert_eq!(s, expected);
    assert_eq!(sum1.writes_queued, 3);
    op.drain_writes();
    assert_eq!(op.chunks_written(), 3);

    let (_, _, sum2) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert!(sum2.writes_queued <= 3);
    op.drain_writes();
    assert!(op.chunks_written() <= 6);
}

#[test]
fn projection_only_converts_requested_columns() {
    let (op, spec) = setup(base_config(WritePolicy::ExternalTables, 2));
    let req = ScanRequest::projected(vec![1, 3]);
    let mut stream = op.scan(req).unwrap();
    let mut sums = [0i64; 2];
    while let Some(chunk) = stream.next_chunk() {
        assert!(chunk.column(0).is_none(), "unprojected column materialized");
        assert!(chunk.column(2).is_none());
        for (i, c) in [1usize, 3].iter().enumerate() {
            match chunk.column(*c).unwrap() {
                scanraw_types::ColumnData::Int64(v) => sums[i] += v.iter().sum::<i64>(),
                _ => panic!(),
            }
        }
    }
    stream.finish().unwrap();
    let expected = expected_column_sums(&spec);
    assert_eq!(sums[0], expected[1]);
    assert_eq!(sums[1], expected[3]);
}

#[test]
fn chunk_skipping_via_statistics() {
    let disk = SimDisk::instant();
    // Build a file whose column 0 is ordered by chunk: chunk i holds values
    // around i*1000, so min/max statistics separate chunks cleanly.
    let mut text = String::new();
    for chunk in 0..4 {
        for r in 0..100 {
            text.push_str(&format!("{},{}\n", chunk * 1000 + r, r));
        }
    }
    disk.storage().put("ordered.csv", text.into_bytes());
    let db = Database::new(disk);
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(100)
        .with_workers(2)
        .with_policy(WritePolicy::ExternalTables);
    let op = ScanRaw::create(
        db,
        "ordered",
        Schema::uniform_ints(2),
        TextDialect::CSV,
        "ordered.csv",
        cfg,
    )
    .unwrap();

    // First scan converts everything and gathers statistics.
    let (_, rows, _) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1]));
    assert_eq!(rows, 400);

    // Second scan restricted to chunk 2's value range must skip 3 chunks.
    let req = ScanRequest::all_columns(vec![0, 1]).with_skip_predicate(RangePredicate::between(
        0,
        Value::Int(2000),
        Value::Int(2099),
    ));
    let (_, rows, summary) = scan_and_sum(&op, req);
    assert_eq!(summary.skipped, 3, "{summary:?}");
    assert_eq!(rows, 100);
}

#[test]
fn scan_rejects_bad_requests() {
    let (op, _) = setup(base_config(WritePolicy::ExternalTables, 1));
    assert!(op
        .scan(ScanRequest::all_columns(Vec::<usize>::new()))
        .is_err());
    assert!(op.scan(ScanRequest::all_columns(vec![COLS])).is_err());
}

#[test]
fn malformed_file_surfaces_parse_error() {
    let disk = SimDisk::instant();
    disk.storage()
        .put("bad.csv", b"1,2\n3,notanumber\n5,6\n".to_vec());
    let db = Database::new(disk);
    let op = ScanRaw::create(
        db,
        "bad",
        Schema::uniform_ints(2),
        TextDialect::CSV,
        "bad.csv",
        ScanRawConfig::default().with_chunk_rows(10).with_workers(2),
    )
    .unwrap();
    let stream = op.scan(ScanRequest::all_columns(vec![0, 1])).unwrap();
    let err = stream.finish().unwrap_err();
    assert!(matches!(err, scanraw_types::Error::Parse { .. }), "{err}");
}

/// Runs `f` on its own thread and fails the test — instead of stalling the
/// whole run — when it hangs (or panics).
fn with_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("{what}: {e:?} — the pipeline hung or panicked"))
}

/// One-chunk text and position lanes and a two-chunk output buffer: every
/// pipeline thread spends the scan blocked on a neighbour.
fn tight_config(policy: WritePolicy, workers: usize) -> ScanRawConfig {
    let mut cfg = base_config(policy, workers);
    cfg.text_buffer_chunks = 1;
    cfg.position_buffer_chunks = 1;
    cfg.binary_cache_chunks = 2;
    cfg
}

#[test]
fn dropping_stream_mid_scan_does_not_hang() {
    for workers in [0, 1, 2, 4] {
        // Drop after every chunk offset, 0 (nothing consumed) to 8 (all).
        for consumed in 0..=8 {
            let what = format!("workers={workers}, dropped after {consumed} chunks");
            let (sums, rows, expected) = with_watchdog(&what, move || {
                let (op, spec) = setup(tight_config(WritePolicy::speculative(), workers));
                let mut stream = op.scan(ScanRequest::all_columns(vec![0, 1, 2, 3])).unwrap();
                for _ in 0..consumed {
                    stream.next_chunk().expect("8 chunks in the file");
                }
                drop(stream); // must join all pipeline threads without deadlock
                              // The operator remains usable afterwards.
                let (sums, rows, _) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
                (sums, rows, expected_column_sums(&spec))
            });
            assert_eq!(rows, ROWS, "{what}");
            assert_eq!(sums, expected, "{what}");
        }
    }
}

#[test]
fn abandoning_scan_after_first_error_does_not_hang() {
    // Ten-row chunks; the malformed row sits in the first one, so with at
    // most one worker the error is the first thing the stream sees.
    let mut text = String::from("1,2\n3,notanumber\n");
    for r in 0..78 {
        text.push_str(&format!("{r},{r}\n"));
    }
    for workers in [0, 1, 2] {
        let text = text.clone();
        let err = with_watchdog(&format!("workers={workers}"), move || {
            let disk = SimDisk::instant();
            disk.storage().put("bad.csv", text.into_bytes());
            let mut cfg = tight_config(WritePolicy::speculative(), workers);
            cfg.chunk_rows = 10;
            let op = ScanRaw::create(
                Database::new(disk),
                "bad",
                Schema::uniform_ints(2),
                TextDialect::CSV,
                "bad.csv",
                cfg,
            )
            .unwrap();
            let mut stream = op.scan(ScanRequest::all_columns(vec![0, 1])).unwrap();
            // Swallows the error, hands out the next good chunk …
            let chunk = stream.next_chunk().expect("good chunks follow the bad one");
            assert_ne!(chunk.id, ChunkId(0), "chunk 0 does not convert");
            // … and the scan is abandoned with seven chunks to go.
            drop(stream);
            // The operator still answers, with the error.
            let stream = op.scan(ScanRequest::all_columns(vec![0, 1])).unwrap();
            stream.finish().unwrap_err()
        });
        assert!(matches!(err, scanraw_types::Error::Parse { .. }), "{err}");
    }
}

#[test]
fn exec_tasks_submitted_after_the_last_chunk_all_run() {
    for workers in [1, 2, 4] {
        let ran = with_watchdog(&format!("workers={workers}"), move || {
            let (op, _) = setup(tight_config(WritePolicy::ExternalTables, workers));
            let mut stream = op.scan(ScanRequest::all_columns(vec![0, 1, 2, 3])).unwrap();
            let handle = stream.exec_handle().expect("a pool serves this scan");
            while stream.next_chunk().is_some() {}
            // Conversion is over; the pool must still be serving EXEC.
            let (tx, rx) = mpsc::channel();
            for i in 0..64u32 {
                let tx = tx.clone();
                let task: scanraw::ExecTask = Box::new(move || tx.send(i).unwrap());
                assert!(handle.submit(task).is_ok(), "task {i} refused");
            }
            drop(tx);
            // Finishing runs whatever is still queued before the pool leaves.
            stream.finish().unwrap();
            assert!(
                handle.submit(Box::new(|| {})).is_err(),
                "a finished scan hands late tasks back"
            );
            let mut ran: Vec<u32> = rx.iter().collect();
            ran.sort_unstable();
            ran
        });
        assert_eq!(ran, (0..64).collect::<Vec<_>>(), "workers={workers}");
    }
    // The sequential regime has no pool to submit to.
    let (op, _) = setup(base_config(WritePolicy::ExternalTables, 0));
    let stream = op.scan(ScanRequest::all_columns(vec![0])).unwrap();
    assert!(stream.exec_handle().is_none());
    stream.finish().unwrap();
}

/// Chunk `id` of the test file with only column 1 present — what a database
/// read of a single loaded column delivers.
fn narrow_copy(op: &ScanRaw, id: u32) -> Arc<BinaryChunk> {
    let wide = op.cache().peek(ChunkId(id)).expect("resident");
    let mut narrow = BinaryChunk::empty(wide.id, wide.first_row, wide.rows, COLS);
    narrow.columns[1] = wide.columns[1].clone();
    Arc::new(narrow)
}

#[test]
fn narrow_reinsert_does_not_shrink_a_cached_chunk() {
    let (op, spec) = setup(base_config(WritePolicy::ExternalTables, 2));
    scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    // A concurrent scan of column 1 re-delivers chunk 3 from the database.
    op.cache().insert(narrow_copy(&op, 3), &[1]);
    let (sums, rows, summary) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));
    assert_eq!(rows, ROWS);
    assert_eq!(sums, expected_column_sums(&spec));
    assert_eq!(
        summary.from_cache, 8,
        "chunk 3 kept its columns: {summary:?}"
    );
}

/// Virtual clock that can hold READ threads at their next reading — a
/// deterministic stand-in for "another scan ran between planning and READ".
struct ReadGate {
    clock: VirtualClock,
    held: Mutex<bool>,
    released: Condvar,
}

impl ReadGate {
    fn hold(&self, held: bool) {
        *self.held.lock().unwrap() = held;
        self.released.notify_all();
    }
}

impl Clock for ReadGate {
    fn now(&self) -> Duration {
        let on_read_thread = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("scanraw-read-"));
        if on_read_thread {
            let mut held = self.held.lock().unwrap();
            while *held {
                held = self.released.wait(held).unwrap();
            }
        }
        self.clock.now()
    }

    fn sleep(&self, d: Duration) {
        self.clock.sleep(d);
    }
}

#[test]
fn cached_chunk_narrowed_after_planning_is_served_from_raw() {
    let (sums, rows, summary, expected) = with_watchdog("narrowed cache", || {
        let gate = Arc::new(ReadGate {
            clock: VirtualClock::new(),
            held: Mutex::new(false),
            released: Condvar::new(),
        });
        let disk = SimDisk::new(DiskConfig::instant(), gate.clone());
        let (op, spec) = setup_on(disk, base_config(WritePolicy::ExternalTables, 2));
        scan_and_sum(&op, ScanRequest::all_columns(vec![0, 1, 2, 3]));

        // Planned with all eight chunks cached wide; READ is held before it
        // looks any of them up.
        gate.hold(true);
        let stream = op.scan(ScanRequest::all_columns(vec![0, 1, 2, 3])).unwrap();
        // Meanwhile chunk 2 is evicted and comes back from a one-column
        // scan, and chunk 5 is evicted for good.
        let narrow = narrow_copy(&op, 2);
        let keep: Vec<_> = [0, 1, 3, 4, 6, 7]
            .iter()
            .map(|&id| op.cache().peek(ChunkId(id)).unwrap())
            .collect();
        op.cache().clear();
        for chunk in keep {
            op.cache().insert(chunk, &[]);
        }
        op.cache().insert(narrow, &[]);
        gate.hold(false);

        let (sums, rows, summary) = drain_and_sum(stream, &[0, 1, 2, 3]);
        (sums, rows, summary, expected_column_sums(&spec))
    });
    assert_eq!(rows, ROWS);
    assert_eq!(sums, expected);
    assert_eq!(
        (summary.from_cache, summary.from_raw),
        (6, 2),
        "{summary:?}"
    );
}

#[test]
fn cached_chunk_narrowed_after_planning_is_served_from_the_database() {
    const ALL: [usize; 4] = [0, 1, 2, 3];
    let (sums, rows, summary, expected, reads, recached, sources) =
        with_watchdog("narrowed cache over a loaded table", || {
            let gate = Arc::new(ReadGate {
                clock: VirtualClock::new(),
                held: Mutex::new(false),
                released: Condvar::new(),
            });
            let disk = SimDisk::new(DiskConfig::instant(), gate.clone());
            // Eager: the first scan returns with every cell in the database.
            let (op, spec) = setup_on(disk, base_config(WritePolicy::Eager, 2));
            scan_and_sum(&op, ScanRequest::all_columns(ALL));
            let reads_before = op.profiler().chunks(Stage::Read);

            // Planned with all eight chunks cached wide; READ is held before
            // it looks any of them up.
            let recorder = &op.obs().trace;
            let trace = recorder.next_trace();
            let root = recorder.enter_root(trace, "query", Vec::new());
            gate.hold(true);
            let request = ScanRequest::all_columns(ALL).with_trace(root.ctx());
            let stream = op.scan(request).unwrap();
            // Meanwhile chunk 2 is evicted and comes back from a one-column
            // scan, and chunk 5 is evicted for good.
            let narrow = narrow_copy(&op, 2);
            let keep: Vec<_> = [0, 1, 3, 4, 6, 7]
                .iter()
                .map(|&id| op.cache().peek(ChunkId(id)).unwrap())
                .collect();
            op.cache().clear();
            for chunk in keep {
                op.cache().insert(chunk, &ALL);
            }
            op.cache().insert(narrow, &[1]);
            gate.hold(false);

            let (sums, rows, summary) = drain_and_sum(stream, &ALL);
            drop(root);
            let reads = op.profiler().chunks(Stage::Read) - reads_before;
            let recached = [2, 5].map(|id| op.cache().covers(ChunkId(id), &ALL));
            let mut sources: Vec<_> = recorder
                .trace(trace)
                .spans_named("read.chunk")
                .map(|s| {
                    let tag = |key| s.tag(key).map(str::to_string);
                    (
                        tag("chunk").unwrap(),
                        tag("source").unwrap(),
                        tag("planned"),
                    )
                })
                .collect();
            sources.sort();
            let expected = expected_column_sums(&spec);
            (sums, rows, summary, expected, reads, recached, sources)
        });
    assert_eq!(rows, ROWS);
    assert_eq!(sums, expected);
    assert_eq!(
        (summary.from_cache, summary.from_db, summary.from_raw),
        (6, 2, 0),
        "{summary:?}"
    );
    // Served like any other database chunk: READ time recorded, cached again.
    assert_eq!(reads, 2, "one READ record per database-served chunk");
    assert_eq!(recached, [true, true], "database chunks re-enter the cache");
    // One span per chunk, tagged with the source that served it and, when
    // that is not what the plan said, the plan.
    let span = |chunk: u32, source: &str, planned: Option<&str>| {
        let planned = planned.map(str::to_string);
        (chunk.to_string(), source.to_string(), planned)
    };
    let expected_spans: Vec<_> = (0..8)
        .map(|chunk| match chunk {
            2 | 5 => span(chunk, "db", Some("cache")),
            _ => span(chunk, "cache", None),
        })
        .collect();
    assert_eq!(sources, expected_spans);
}

#[test]
fn mixed_projections_across_queries() {
    let (op, spec) = setup(base_config(WritePolicy::speculative(), 2));
    let expected = expected_column_sums(&spec);
    let (s, _, _) = scan_and_sum(&op, ScanRequest::all_columns(vec![2]));
    assert_eq!(s[0], expected[2]);
    op.drain_writes();
    let (s, _, _) = scan_and_sum(&op, ScanRequest::all_columns(vec![0, 3]));
    assert_eq!(s, vec![expected[0], expected[3]]);
}

#[test]
fn convert_scope_all_columns_enables_wider_reuse() {
    // Query 1 projects col 0 but converts all columns; query 2 needs col 1
    // and can be served entirely from cache.
    let (op, _) = setup(base_config(WritePolicy::ExternalTables, 2));
    let req = ScanRequest {
        projection: vec![0],
        convert: ConvertScope::AllColumns,
        skip_predicate: None,
        pushdown: None,
        trace: None,
    };
    let (_, _, _) = scan_and_sum(&op, req);
    let (_, _, summary) = scan_and_sum(&op, ScanRequest::all_columns(vec![1]));
    assert_eq!(summary.from_cache, 8, "{summary:?}");
    assert_eq!(summary.from_raw, 0);
}

#[test]
fn registry_reuses_and_reaps_operators() {
    use scanraw::OperatorRegistry;
    let disk = SimDisk::instant();
    stage_csv(&disk, "r.csv", &CsvSpec::new(100, 2, 1));
    let db = Database::new(disk);
    let reg = OperatorRegistry::new();
    let make = {
        let db = db.clone();
        move || {
            ScanRaw::create(
                db.clone(),
                "r",
                Schema::uniform_ints(2),
                TextDialect::CSV,
                "r.csv",
                ScanRawConfig::default()
                    .with_chunk_rows(10)
                    .with_workers(1)
                    .with_policy(WritePolicy::Eager),
            )
        }
    };
    let op1 = reg.get_or_create("r.csv", make.clone()).unwrap();
    let op2 = reg.get_or_create("r.csv", make).unwrap();
    assert!(Arc::ptr_eq(&op1, &op2), "same operator across queries");
    assert_eq!(reg.len(), 1);
    assert_eq!(reg.reap_fully_loaded(), 0);

    let (_, rows, _) = scan_and_sum(&op1, ScanRequest::all_columns(vec![0, 1]));
    assert_eq!(rows, 100);
    assert!(op1.fully_loaded());
    assert_eq!(reg.reap_fully_loaded(), 1);
    assert!(reg.is_empty());
}

/// Pins the column-granular reap contract: an operator is fully loaded —
/// and reaped — once every cell of every *registered* (query-observed)
/// column is durable, even when columns nobody asked for were never stored.
/// A never-scanned operator registers no columns and is never reaped.
#[test]
fn reap_tracks_registered_columns_at_cell_granularity() {
    use scanraw::OperatorRegistry;
    let (op, _) = setup(base_config(WritePolicy::Eager, 2));
    let reg = OperatorRegistry::new();
    reg.get_or_create("data.csv", || Ok(op.clone())).unwrap();

    // No scan has run: no registered columns, nothing to reap.
    assert!(!op.fully_loaded());
    assert_eq!(reg.reap_fully_loaded(), 0);

    // One projected query over columns {1, 3}: Eager stores exactly the
    // converted cells, so only those columns become durable.
    let (_, rows, _) = scan_and_sum(&op, ScanRequest::projected(vec![1, 3]));
    assert_eq!(rows, ROWS);
    op.drain_writes();
    for id in 0..8u32 {
        assert_eq!(
            op.database()
                .loaded_columns("t", scanraw_types::ChunkId(id), &[0, 1, 2, 3])
                .unwrap(),
            vec![1, 3],
            "chunk {id}: exactly the projected cells are loaded"
        );
    }

    // All registered columns ({1, 3}) are fully durable: the operator has
    // morphed into a heap scan for its observed workload and is reaped,
    // although columns 0 and 2 were never stored.
    assert!(op.fully_loaded());
    assert!(!op.database().fully_loaded("t").unwrap());
    assert_eq!(reg.reap_fully_loaded(), 1);
    assert!(reg.is_empty());
}
