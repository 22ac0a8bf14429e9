//! `proj2_lifecycle` — a two-column workload over the twelve-column file,
//! from raw to loaded to cached.
//!
//! The same layers as `cold_full`, used differently: rawfile takes its
//! selective path (tokenize up to column 7, parse 2 of 12), storage writes
//! and reads back only the hot cells, the cache serves the tail. Phase A is
//! the cold scan, phase B a scan served wholly from the column store (cache
//! cleared first), phase C a cache-resident scan.
//!
//! The engine's default convert scope is `AllColumns`, under which the cold
//! scan would convert all twelve columns exactly as `cold_full` does. The
//! workload sets `ProjectionOnly`, so that the selective tokenizer and the
//! projected parser are on a measured path.

use super::{Outcome, Phase};
use crate::harness::{loaded_cells, Counters, Harness};
use crate::input::{hot_sum_query, open_session, Input, Oracle, HOT_COLS, TABLE};
use crate::layers::SimCase;
use crate::stats::median;
use scanraw::ConvertScope;
use scanraw_engine::ExecMode;
use scanraw_simio::SimDisk;
use scanraw_types::WritePolicy;

/// Database-served and cache-resident scans per cold scan.
const DB_SCANS: usize = 2;
const WARM_SCANS: usize = 8;

pub fn run(h: &mut Harness) -> Outcome {
    let args = h.args;
    let (input, oracle) = h.set_up(|| {
        let input = Input::generate(args.rows, args.seed);
        let oracle = Oracle::build(&input);
        (input, oracle)
    });
    let log = h.log.clone();
    let chunks = input.chunks();
    let (mut cold, mut db, mut warm, mut after_q1) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while h.measuring() {
        let round = h.begin_round(&log);
        let disk = SimDisk::instant();
        input.stage(&disk);
        let session = open_session(&disk, chunks + 1, WritePolicy::speculative());
        session
            .engine()
            .set_convert_scope(ConvertScope::ProjectionOnly);
        let op = session.engine().operator(TABLE).expect("registered");
        let before = Counters::of(&op, &disk);

        let (cold_s, out) = h.query(round, &session, &op, hot_sum_query(), ExecMode::Parallel);
        if let Some(out) = out {
            h.check(oracle.sum_matches(&out, oracle.hot_sum) && out.scan.from_raw == chunks);
        }
        h.sample(&mut cold, cold_s);
        h.sample(
            &mut after_q1,
            loaded_cells(&session) as f64 / HOT_COLS.len() as f64,
        );
        h.drain(round, &op);
        h.note_store(&session, input.bytes.len() as u64);

        for _ in 0..DB_SCANS {
            round.time("core", "ChunkCache::clear", || op.cache().clear());
            let (db_s, out) = h.query(round, &session, &op, hot_sum_query(), ExecMode::Parallel);
            if let Some(out) = out {
                h.check(oracle.sum_matches(&out, oracle.hot_sum) && out.scan.from_raw == 0);
            }
            h.sample(&mut db, db_s);
        }
        // A warm scan takes 2–3 ms and its times fall into two clusters, so
        // one sample is the mean of the round's consecutive scans: the
        // median of single scans would jump between the clusters.
        let mut warm_total_s = 0.0;
        for _ in 0..WARM_SCANS {
            let (warm_s, out) = h.query(round, &session, &op, hot_sum_query(), ExecMode::Parallel);
            if let Some(out) = out {
                h.check(oracle.sum_matches(&out, oracle.hot_sum) && out.scan.from_cache == chunks);
            }
            warm_total_s += warm_s;
            h.probe(warm_s);
        }
        h.sample(&mut warm, warm_total_s / WARM_SCANS as f64);
        h.absorb(&before, &Counters::of(&op, &disk));
        log.close(round);
    }
    h.insitu.loaded_chunks_after_q1 = median(&after_q1);
    Outcome {
        phases: [
            Phase::median_of("cold scan of 2 of 12 columns, speculative()", cold),
            Phase::median_of("scan served from the column store", db),
            Phase::median_of(
                "cache-resident scan of 2 columns (mean of 8 in a row)",
                warm,
            ),
        ],
        sim: Some(SimCase {
            policy: WritePolicy::speculative(),
            device: None,
            cache_chunks: chunks + 1,
            convert_cols: HOT_COLS.len(),
            tokenize_cols: HOT_COLS[HOT_COLS.len() - 1] + 1,
            warm: false,
        }),
        input,
    }
}
