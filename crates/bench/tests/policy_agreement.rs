//! The operator and the simulator run one loading policy.
//!
//! Same shape on both sides — 8 chunks × 4 columns of 500 rows, a 4-chunk
//! cache, 2 workers — and three consecutive full scans: per query, the
//! stores each trigger queued and the chunks served from the cache, the
//! database and the raw file must agree. The speculative policy's counts
//! depend on thread timing in the operator (when READ finds the text lane
//! full, how far conversion got when READ finished), so they are printed,
//! not compared.

use scanraw::{ScanRaw, ScanRequest, SchedulerReport};
use scanraw_pipesim::{CostModel, FileSpec, QuerySpec, SimConfig, Simulator};
use scanraw_rawfile::generate::{stage_csv, CsvSpec};
use scanraw_rawfile::TextDialect;
use scanraw_simio::SimDisk;
use scanraw_storage::Database;
use scanraw_types::{ScanRawConfig, Schema, WritePolicy};

const ROWS: u64 = 4000;
const COLS: usize = 4;
const CHUNK_ROWS: u32 = 500;
const CACHE_CHUNKS: usize = 4;
const WORKERS: usize = 2;
const QUERIES: usize = 3;

/// One query's stores by trigger and its chunks from cache, db and raw.
type Outcome = (SchedulerReport, [usize; 3]);

fn operator_queries(policy: WritePolicy) -> Vec<Outcome> {
    let disk = SimDisk::instant();
    stage_csv(&disk, "data.csv", &CsvSpec::new(ROWS, COLS, 42));
    let config = ScanRawConfig::default()
        .with_chunk_rows(CHUNK_ROWS)
        .with_workers(WORKERS)
        .with_cache_chunks(CACHE_CHUNKS)
        .with_policy(policy);
    let schema = Schema::uniform_ints(COLS);
    let db = Database::new(disk);
    let op = ScanRaw::create(db, "t", schema, TextDialect::CSV, "data.csv", config).unwrap();
    (0..QUERIES)
        .map(|_| {
            let all = ScanRequest::all_columns((0..COLS).collect::<Vec<_>>());
            let s = op.scan(all).unwrap().finish().unwrap();
            // The next plan must not depend on how far WRITE got (the
            // ETL-style policies drained already; the safeguard's stores
            // outlive the scan).
            op.drain_writes();
            let stores = SchedulerReport {
                writes_queued: s.writes_queued,
                speculative_writes: s.speculative_writes,
                safeguard_writes: s.safeguard_writes,
                eviction_writes: s.eviction_writes,
            };
            (stores, [s.from_cache, s.from_db, s.from_raw])
        })
        .collect()
}

fn simulated_queries(policy: WritePolicy) -> Vec<Outcome> {
    let file = FileSpec::synthetic(ROWS, COLS, CHUNK_ROWS as u64);
    let mut cfg = SimConfig::new(WORKERS, policy, CostModel::nominal());
    cfg.cache_chunks = CACHE_CHUNKS;
    let mut sim = Simulator::new(cfg, file);
    (0..QUERIES)
        .map(|_| {
            let r = sim.run_query(&QuerySpec::full(&file));
            (r.stores, [r.from_cache, r.from_db, r.from_raw])
        })
        .collect()
}

fn assert_agree(policy: WritePolicy) {
    let operator = operator_queries(policy);
    let simulated = simulated_queries(policy);
    assert_eq!(operator, simulated, "{policy:?}: operator vs simulator");
}

#[test]
fn external_tables_agree() {
    assert_agree(WritePolicy::ExternalTables);
}

#[test]
fn eager_agrees() {
    assert_agree(WritePolicy::Eager);
}

#[test]
fn invisible_agrees() {
    assert_agree(WritePolicy::Invisible {
        chunks_per_query: 3,
    });
}

/// A database read that evicts an unloaded chunk must store it, on both
/// sides: the second scan's four database reads evict one such chunk.
#[test]
fn buffered_agrees_including_evictions_by_database_reads() {
    assert_agree(WritePolicy::Buffered);
    let evictions: Vec<u64> = operator_queries(WritePolicy::Buffered)
        .iter()
        .map(|(stores, _)| stores.eviction_writes)
        .collect();
    assert_eq!(evictions, [4, 1, 0]);
}

#[test]
fn speculative_counts_are_reported() {
    let policy = WritePolicy::speculative();
    let simulated = simulated_queries(policy);
    let operator = operator_queries(policy);
    for (q, (op, sim)) in operator.iter().zip(&simulated).enumerate() {
        println!(
            "speculative query {}: operator {op:?}, simulator {sim:?}",
            q + 1
        );
    }
    // Every query serves every chunk exactly once on both sides.
    for (_, [cache, db, raw]) in operator.iter().chain(&simulated) {
        assert_eq!(cache + db + raw, (ROWS / CHUNK_ROWS as u64) as usize);
    }
}
