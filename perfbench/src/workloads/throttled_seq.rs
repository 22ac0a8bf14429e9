//! `throttled_seq` — the paper's Figure 8 sequence on a slow device.
//!
//! A real-clock device at 100 MiB/s with a 500 µs direction-switch penalty
//! and no page cache; six identical all-column sums under `speculative()`
//! with a binary cache of a quarter of the file. READ wait dominates,
//! conversion hides behind the device, WRITE shares the single-accessor
//! device with READ, and chunk provenance converges from raw to database. A
//! faster parser must show *no change* here; a scheduler, column-store or
//! READ change shows here and nowhere else. Phase A is query 1 (all raw),
//! phase B query 6 (converged), phase C the sum of the six.
//!
//! The table is half of `--rows`, so that one ten-second run holds several
//! sequences.

use super::{Outcome, Phase};
use crate::harness::{loaded_cells, Counters, Harness};
use crate::input::{full_sum_query, open_session, Input, Oracle, COLS, TABLE};
use crate::layers::SimCase;
use crate::stats::median;
use scanraw_engine::ExecMode;
use scanraw_simio::{DiskConfig, RealClock, SimDisk};
use scanraw_types::WritePolicy;
use std::time::Duration;

const QUERIES: usize = 6;
const DEVICE_BYTES_PER_S: u64 = 100 * 1024 * 1024;
const SEEK: Duration = Duration::from_micros(500);

fn throttled_disk() -> SimDisk {
    SimDisk::new(
        DiskConfig {
            read_bw: DEVICE_BYTES_PER_S,
            write_bw: DEVICE_BYTES_PER_S,
            cached_read_bw: u64::MAX / 4,
            seek_latency: SEEK,
            page_cache_bytes: 0,
            page_bytes: 256 * 1024,
        },
        RealClock::shared(),
    )
}

fn rows(h: &Harness) -> u64 {
    h.args.rows / 2
}

fn cache_chunks(input: &Input) -> usize {
    (input.chunks() / 4).max(1)
}

pub fn run(h: &mut Harness) -> Outcome {
    let (rows, seed) = (rows(h), h.args.seed);
    let (input, oracle) = h.set_up(|| {
        let input = Input::generate(rows, seed);
        let oracle = Oracle::build(&input);
        (input, oracle)
    });
    let log = h.log.clone();
    let (mut first, mut last, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let (mut after_q1, mut to_loaded, mut external) = (Vec::new(), Vec::new(), Vec::new());
    while h.measuring() {
        let round = h.begin_round(&log);
        let disk = throttled_disk();
        input.stage(&disk);
        let session = open_session(&disk, cache_chunks(&input), WritePolicy::speculative());
        let op = session.engine().operator(TABLE).expect("registered");
        let before = Counters::of(&op, &disk);
        let mut times = [0.0; QUERIES];
        let mut fully_loaded_after = 0;
        for (q, time) in times.iter_mut().enumerate() {
            let (s, out) = h.query(round, &session, &op, full_sum_query(), ExecMode::Parallel);
            if let Some(out) = out {
                h.check(oracle.sum_matches(&out, oracle.full_sum));
            }
            *time = s;
            if q == 0 {
                h.sample(&mut after_q1, loaded_cells(&session) as f64 / COLS as f64);
            }
            // Between queries the loading left behind completes, untimed for
            // the phases (the user is idle) but counted into `core.drain_s`.
            h.drain(round, &op);
            if fully_loaded_after == 0 && op.fully_loaded() {
                fully_loaded_after = q + 1;
            }
        }
        h.probe(times[QUERIES - 1]);
        h.note_store(&session, input.bytes.len() as u64);
        h.absorb(&before, &Counters::of(&op, &disk));
        h.sample(&mut first, times[0]);
        h.sample(&mut last, times[QUERIES - 1]);
        h.sample(&mut total, times.iter().sum());
        h.sample(&mut to_loaded, fully_loaded_after as f64);
        drop(session);

        // Only a traced run pays for the ExternalTables baseline: it feeds a
        // per-layer ratio, no end-to-end metric.
        if h.args.trace {
            let disk = throttled_disk();
            input.stage(&disk);
            let session = open_session(&disk, cache_chunks(&input), WritePolicy::ExternalTables);
            let op = session.engine().operator(TABLE).expect("registered");
            let (s, out) = h.query(round, &session, &op, full_sum_query(), ExecMode::Parallel);
            if let Some(out) = out {
                h.check(oracle.sum_matches(&out, oracle.full_sum));
            }
            h.sample(&mut external, s);
        }
        log.close(round);
    }
    h.insitu.loaded_chunks_after_q1 = median(&after_q1);
    h.insitu.queries_to_fully_loaded = median(&to_loaded);
    if !external.is_empty() {
        h.insitu.spec_over_external_ratio = median(&first) / median(&external);
    }
    Outcome {
        phases: [
            Phase::median_of("query 1 of 6 (all raw), 100 MiB/s device", first),
            Phase::median_of("query 6 of 6 (converged)", last),
            Phase::median_of("sum of the six query times", total),
        ],
        sim: Some(SimCase {
            policy: WritePolicy::speculative(),
            device: Some((DEVICE_BYTES_PER_S, SEEK)),
            cache_chunks: cache_chunks(&input),
            convert_cols: COLS,
            tokenize_cols: COLS,
            warm: false,
        }),
        input,
    }
}
