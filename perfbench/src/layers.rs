//! Isolated layer kernels: the benchmark calls one public function of one
//! layer directly, single-threaded, over every chunk of the workload's
//! table, inside a span. Only a `--trace 1` run pays for them.

use crate::input::{Input, CHUNK_ROWS, COLS, HOT_COLS, RAW_FILE, TABLE, WORKERS};
use crate::spans::SpanLog;
use crate::stats::median;
use scanraw::ChunkCache;
use scanraw_pipesim::{measure_cost_model, CostModel, FileSpec, QuerySpec, SimConfig, Simulator};
use scanraw_rawfile::{
    parse_chunk, parse_chunk_projected, tokenize_chunk, tokenize_chunk_selective, ChunkReader,
    TextDialect,
};
use scanraw_simio::SimDisk;
use scanraw_storage::Database;
use scanraw_types::{BinaryChunk, ChunkId, Schema, WritePolicy};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Passes over the table; each metric is the median of its passes.
const PASSES: usize = 3;
/// Look-ups of every chunk per pass, so the cache's per-call cost is
/// resolved by the clock.
const CACHE_SWEEPS: usize = 50;

pub struct Isolated {
    pub chunker_mb_per_s: f64,
    pub tokenize_full_mb_per_s: f64,
    pub tokenize_selective_mb_per_s: f64,
    pub parse_full_mvalues_per_s: f64,
    pub parse_projected_mvalues_per_s: f64,
    pub store_cells_mb_per_s: f64,
    pub load_cells_mb_per_s: f64,
    pub recover_s: f64,
    pub cache_insert_ns: f64,
    pub cache_get_ns: f64,
    pub calibrate_s: f64,
    /// The calibrated CPU constants, for the simulator's prediction.
    pub cost: CostModel,
}

pub fn measure(input: &Input, log: &SpanLog) -> Isolated {
    let schema = Schema::uniform_ints(COLS);
    let all_cols: Vec<usize> = (0..COLS).collect();
    let raw_mb = input.bytes.len() as f64 / 1e6;
    let values = (input.rows() * COLS as u64) as f64;
    let hot_values = (input.rows() * HOT_COLS.len() as u64) as f64;
    // Selective tokenizing maps the prefix up to the last hot column.
    let cols_mapped = HOT_COLS[HOT_COLS.len() - 1] + 1;

    let raw_disk = SimDisk::instant();
    input.stage(&raw_disk);

    let (mut read_all_s, mut tokenize_s, mut tokenize_prefix_s) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut parse_s, mut parse_hot_s, mut store_s, mut load_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut recover_s, mut insert_ns, mut get_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut stored_mb = 0.0;
    for pass in 0..PASSES {
        let scope = log.open_round(pass as u64, 0);

        let (read, s) = scope.time("rawfile", "ChunkReader::read_all", || {
            ChunkReader::new(raw_disk.clone(), RAW_FILE, CHUNK_ROWS)
                .and_then(ChunkReader::read_all)
                .expect("the generated file chunks")
        });
        read_all_s.push(s);
        let (chunks, layout) = read;

        let (maps, s) = scope.time("rawfile", "tokenize_chunk", || {
            chunks
                .iter()
                .map(|c| tokenize_chunk(c, TextDialect::CSV, COLS).expect("tokenizes"))
                .collect::<Vec<_>>()
        });
        tokenize_s.push(s);
        let (prefix_maps, s) = scope.time("rawfile", "tokenize_chunk_selective", || {
            chunks
                .iter()
                .map(|c| {
                    tokenize_chunk_selective(c, TextDialect::CSV, COLS, cols_mapped)
                        .expect("tokenizes")
                })
                .collect::<Vec<_>>()
        });
        tokenize_prefix_s.push(s);

        let (bins, s) = scope.time("rawfile", "parse_chunk", || {
            chunks
                .iter()
                .zip(&maps)
                .map(|(c, m)| parse_chunk(c, m, TextDialect::CSV, &schema).expect("parses"))
                .collect::<Vec<BinaryChunk>>()
        });
        parse_s.push(s);
        let (hot, s) = scope.time("rawfile", "parse_chunk_projected", || {
            chunks
                .iter()
                .zip(&prefix_maps)
                .map(|(c, m)| {
                    parse_chunk_projected(c, m, TextDialect::CSV, &schema, &HOT_COLS)
                        .expect("parses")
                })
                .collect::<Vec<BinaryChunk>>()
        });
        parse_hot_s.push(s);
        black_box(hot);

        let db_disk = SimDisk::instant();
        let db = Database::new(db_disk.clone());
        db.create_table(TABLE, schema.clone(), RAW_FILE)
            .expect("fresh catalog");
        db.catalog()
            .set_layout(TABLE, layout)
            .expect("table exists");
        let ((), s) = scope.time("storage", "Database::store_chunk_cols", || {
            for bin in &bins {
                db.store_chunk_cols(TABLE, bin, &all_cols).expect("stores");
            }
        });
        store_s.push(s);
        stored_mb = db.store().stored_bytes(TABLE) as f64 / 1e6;
        let ((), s) = scope.time("storage", "Database::load_chunk", || {
            for id in 0..bins.len() as u32 {
                black_box(db.load_chunk(TABLE, ChunkId(id), &all_cols).expect("loads"));
            }
        });
        load_s.push(s);
        // A restart: a fresh database over the surviving bytes replays the
        // commit log.
        let restarted = Database::new(db_disk);
        let (report, s) = scope.time("storage", "Database::recover_table", || {
            restarted
                .recover_table(TABLE, schema.clone(), RAW_FILE)
                .expect("recovers")
        });
        assert_eq!(report.committed_cells, bins.len() * COLS);
        recover_s.push(s);

        let cache = ChunkCache::new(bins.len() + 1);
        let shared: Vec<Arc<BinaryChunk>> = bins.into_iter().map(Arc::new).collect();
        let ((), s) = scope.time("core", "ChunkCache::insert", || {
            for chunk in &shared {
                black_box(cache.insert(Arc::clone(chunk), &[]));
            }
        });
        insert_ns.push(s * 1e9 / shared.len() as f64);
        let ((), s) = scope.time("core", "ChunkCache::get", || {
            for _ in 0..CACHE_SWEEPS {
                for chunk in &shared {
                    black_box(cache.get(chunk.id));
                }
            }
        });
        get_ns.push(s * 1e9 / (CACHE_SWEEPS * shared.len()) as f64);

        log.close(scope);
    }

    let scope = log.open_round(PASSES as u64, 0);
    let (cost, calibrate_s) = scope.time("pipesim", "measure_cost_model", || {
        measure_cost_model(4 * CHUNK_ROWS as u64, COLS)
    });
    log.close(scope);

    Isolated {
        chunker_mb_per_s: raw_mb / median(&read_all_s),
        tokenize_full_mb_per_s: raw_mb / median(&tokenize_s),
        tokenize_selective_mb_per_s: raw_mb / median(&tokenize_prefix_s),
        parse_full_mvalues_per_s: values / 1e6 / median(&parse_s),
        parse_projected_mvalues_per_s: hot_values / 1e6 / median(&parse_hot_s),
        store_cells_mb_per_s: stored_mb / median(&store_s),
        load_cells_mb_per_s: stored_mb / median(&load_s),
        recover_s: median(&recover_s),
        cache_insert_ns: median(&insert_ns),
        cache_get_ns: median(&get_ns),
        calibrate_s,
        cost,
    }
}

/// How the discrete-event simulator should model a workload's phase A.
#[derive(Debug, Clone, Copy)]
pub struct SimCase {
    pub policy: WritePolicy,
    /// Device bandwidth in bytes per second and direction-switch penalty;
    /// `None` for the instant device.
    pub device: Option<(u64, Duration)>,
    pub cache_chunks: usize,
    pub convert_cols: usize,
    pub tokenize_cols: usize,
    /// Phase A is a repeat scan of a cache-resident table, not a first scan.
    pub warm: bool,
}

impl SimCase {
    /// The simulator's time for the phase, with the CPU constants of
    /// `measure_cost_model` and this workload's device.
    pub fn predict_s(&self, cost: &CostModel, rows: u64) -> f64 {
        let mut cost = cost.clone();
        match self.device {
            Some((bytes_per_s, seek)) => {
                cost.read_bw = bytes_per_s as f64;
                cost.write_bw = bytes_per_s as f64;
                cost.seek_ns = seek.as_nanos() as f64;
            }
            None => {
                cost.read_bw = 1e18;
                cost.write_bw = 1e18;
                cost.seek_ns = 0.0;
            }
        }
        let file = FileSpec::synthetic(rows, COLS, CHUNK_ROWS as u64);
        let mut cfg = SimConfig::new(WORKERS, self.policy, cost);
        cfg.cores = WORKERS;
        cfg.cache_chunks = self.cache_chunks;
        let mut sim = Simulator::new(cfg, file);
        let query = QuerySpec {
            convert_cols: self.convert_cols,
            tokenize_cols: self.tokenize_cols,
        };
        let first = sim.run_query(&query);
        if self.warm {
            sim.run_query(&query).elapsed_secs
        } else {
            first.elapsed_secs
        }
    }
}
