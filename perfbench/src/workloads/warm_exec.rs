//! `warm_exec` — a cache-resident table, so rawfile, storage and simio do no
//! work: only the engine's exec kernels, the partial merge and cache delivery
//! run. The bypass workload for any conversion change (prediction: no
//! change) and the target for evaluator unification. Phase A is the
//! CPU-bound query in `Parallel` mode, phase B the same in `Serial`, phase C
//! a two-column sum, where per-chunk overhead outweighs the kernels.

use super::{Outcome, Phase};
use crate::harness::{Counters, Harness};
use crate::input::{
    cpu_bound_query, hot_sum_query, open_session, Input, Oracle, TwinOracle, COLS, TABLE,
};
use crate::layers::SimCase;
use scanraw_engine::{ExecMode, ExecRequest};
use scanraw_simio::SimDisk;
use scanraw_types::WritePolicy;

const PARALLEL_SCANS: usize = 4;
const NARROW_SCANS: usize = 4;

pub fn run(h: &mut Harness) -> Outcome {
    let args = h.args;
    let (input, oracle, twin, disk, session) = h.set_up(|| {
        let input = Input::generate(args.rows, args.seed);
        let oracle = Oracle::build(&input);
        let twin = TwinOracle::build(&input);
        let disk = SimDisk::instant();
        input.stage(&disk);
        let session = open_session(&disk, input.chunks() + 1, WritePolicy::ExternalTables);
        let warm_up = session
            .run(ExecRequest::query(cpu_bound_query()))
            .expect("warm-up scan")
            .into_single();
        assert!(twin.cpu_bound.matches(&warm_up));
        (input, oracle, twin, disk, session)
    });
    let log = h.log.clone();
    let chunks = input.chunks();
    let op = session.engine().operator(TABLE).expect("registered");
    let before = Counters::of(&op, &disk);
    let (mut parallel, mut serial, mut narrow) = (Vec::new(), Vec::new(), Vec::new());
    while h.measuring() {
        let round = h.begin_round(&log);
        for _ in 0..PARALLEL_SCANS {
            let (s, out) = h.query(round, &session, &op, cpu_bound_query(), ExecMode::Parallel);
            if let Some(out) = out {
                h.check(twin.cpu_bound.matches(&out) && out.scan.from_cache == chunks);
            }
            h.sample(&mut parallel, s);
            h.probe(s);
        }
        let (s, out) = h.query(round, &session, &op, cpu_bound_query(), ExecMode::Serial);
        if let Some(out) = out {
            h.check(twin.cpu_bound.matches(&out) && out.scan.from_cache == chunks);
        }
        h.sample(&mut serial, s);
        // As in `proj2_lifecycle`, one sample is the mean of the round's
        // consecutive 2–3 ms scans.
        let mut narrow_total_s = 0.0;
        for _ in 0..NARROW_SCANS {
            let (s, out) = h.query(round, &session, &op, hot_sum_query(), ExecMode::Parallel);
            if let Some(out) = out {
                h.check(oracle.sum_matches(&out, oracle.hot_sum) && out.scan.from_cache == chunks);
            }
            narrow_total_s += s;
        }
        h.sample(&mut narrow, narrow_total_s / NARROW_SCANS as f64);
        log.close(round);
    }
    h.absorb(&before, &Counters::of(&op, &disk));
    Outcome {
        phases: [
            Phase::median_of("cache-resident CPU-bound query, Parallel", parallel),
            Phase::median_of("cache-resident CPU-bound query, Serial", serial),
            Phase::median_of(
                "cache-resident 2-column sum, Parallel (mean of 4 in a row)",
                narrow,
            ),
        ],
        sim: Some(SimCase {
            policy: WritePolicy::ExternalTables,
            device: None,
            cache_chunks: chunks + 1,
            convert_cols: COLS,
            tokenize_cols: COLS,
            warm: true,
        }),
        input,
    }
}
