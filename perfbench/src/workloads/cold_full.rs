//! `cold_full` — first scans of a file nobody has read yet.
//!
//! Every scan gets a fresh device and session, so TOKENIZE + PARSE of all
//! twelve columns is nearly all the work. Half the scans run under
//! `ExternalTables` (storage and scheduler idle: the workload where a parse
//! kernel or a pipeline-overhead fix must show), half under `speculative()`,
//! which prices the paper's "loading never slows the query" claim on a
//! CPU-bound host.

use super::{Outcome, Phase};
use crate::harness::{loaded_cells, Counters, Harness};
use crate::input::{cpu_bound_query, open_session, Input, TwinOracle, COLS, TABLE};
use crate::layers::SimCase;
use crate::spans::Scope;
use crate::stats::median;
use scanraw_engine::ExecMode;
use scanraw_simio::SimDisk;
use scanraw_types::WritePolicy;

pub fn run(h: &mut Harness) -> Outcome {
    let args = h.args;
    let (input, oracle) = h.set_up(|| {
        let input = Input::generate(args.rows, args.seed);
        let oracle = TwinOracle::build(&input);
        (input, oracle)
    });
    let log = h.log.clone();
    let (mut external, mut speculative, mut loaded) = (Vec::new(), Vec::new(), Vec::new());
    let mut after_q1 = Vec::new();
    while h.measuring() {
        let round = h.begin_round(&log);
        // Alternate which policy goes first, so neither always inherits the
        // other's warm allocator and caches.
        let spec_first = h.insitu.rounds.is_multiple_of(2);
        for spec in [spec_first, !spec_first] {
            if spec {
                let scan = first_scan(h, round, &input, &oracle, WritePolicy::speculative());
                h.sample(&mut speculative, scan.scan_s);
                h.sample(&mut loaded, scan.scan_s + scan.drain_s);
                h.sample(&mut after_q1, scan.loaded_chunks_after_scan);
            } else {
                let scan = first_scan(h, round, &input, &oracle, WritePolicy::ExternalTables);
                h.sample(&mut external, scan.scan_s);
                h.probe(scan.scan_s);
            }
        }
        log.close(round);
    }
    h.insitu.loaded_chunks_after_q1 = median(&after_q1);
    h.insitu.spec_over_external_ratio = median(&speculative) / median(&external);
    Outcome {
        phases: [
            Phase::median_of("first scan, ExternalTables", external),
            Phase::median_of("first scan, speculative()", speculative),
            Phase::median_of("first scan + drain_writes, speculative()", loaded),
        ],
        sim: Some(SimCase {
            policy: WritePolicy::ExternalTables,
            device: None,
            cache_chunks: input.chunks() + 1,
            convert_cols: COLS,
            tokenize_cols: COLS,
            warm: false,
        }),
        input,
    }
}

struct FirstScan {
    scan_s: f64,
    drain_s: f64,
    loaded_chunks_after_scan: f64,
}

fn first_scan(
    h: &mut Harness,
    round: Scope<'_>,
    input: &Input,
    oracle: &TwinOracle,
    policy: WritePolicy,
) -> FirstScan {
    let disk = SimDisk::instant();
    input.stage(&disk);
    let session = open_session(&disk, input.chunks() + 1, policy);
    let op = session.engine().operator(TABLE).expect("registered");
    let before = Counters::of(&op, &disk);
    let (scan_s, out) = h.query(round, &session, &op, cpu_bound_query(), ExecMode::Parallel);
    if let Some(out) = out {
        h.check(oracle.cpu_bound.matches(&out) && out.scan.from_raw == input.chunks());
    }
    let mut scan = FirstScan {
        scan_s,
        drain_s: 0.0,
        loaded_chunks_after_scan: 0.0,
    };
    if policy.may_load() {
        scan.loaded_chunks_after_scan = loaded_cells(&session) as f64 / COLS as f64;
        scan.drain_s = h.drain(round, &op);
        h.note_store(&session, input.bytes.len() as u64);
    }
    h.absorb(&before, &Counters::of(&op, &disk));
    scan
}
