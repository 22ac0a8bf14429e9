//! `serve_4tenant` — admission, deficit-round-robin dispatch and shared-scan
//! batching over a cache-resident table, so queueing — not conversion — is
//! what is measured.
//!
//! A **closed loop**: callers wait for replies. Four tenants with one
//! outstanding query each, driven from two client threads (each owns two
//! tenants: submit both, wait both), cycling three query shapes. Latency
//! runs from just before `Server::submit` to `Ticket::wait` returning. Phase
//! A is the median latency, phase B the 95th percentile, phase C the wall
//! time per completed query (1000 / queries-per-second).

use super::{Outcome, Phase};
use crate::harness::{Counters, Harness, StageBusy};
use crate::input::{
    cpu_bound_query, full_sum_query, hot_sum_query, open_session, range_query, Input, Oracle,
    TwinOracle, TABLE, WORKERS,
};
use crate::spans::SpanLog;
use crate::stats::quantile;
use scanraw::Stage;
use scanraw_engine::{ExecRequest, Query, QueryOutcome, ServeConfig, Server};
use scanraw_simio::SimDisk;
use scanraw_types::WritePolicy;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENT_THREADS: u64 = 2;
const SHAPES: usize = 3;

/// What one client thread saw.
#[derive(Default)]
struct Client {
    latency_s: Vec<f64>,
    submit_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    from_cache: u64,
    from_db: u64,
    from_raw: u64,
}

struct Shapes<'a> {
    queries: [Query; SHAPES],
    oracle: &'a Oracle,
    twin: &'a TwinOracle,
}

impl Shapes<'_> {
    fn matches(&self, shape: usize, out: &QueryOutcome) -> bool {
        match shape {
            0 => self.oracle.sum_matches(out, self.oracle.full_sum),
            1 => self.twin.range.matches(out),
            _ => self.oracle.sum_matches(out, self.oracle.hot_sum),
        }
    }
}

pub fn run(h: &mut Harness) -> Outcome {
    let args = h.args;
    let config = ServeConfig::default();
    let (input, oracle, twin, disk, server) = h.set_up(|| {
        let input = Input::generate(args.rows, args.seed);
        let oracle = Oracle::build(&input);
        let twin = TwinOracle::build(&input);
        let disk = SimDisk::instant();
        input.stage(&disk);
        let session = Arc::new(open_session(
            &disk,
            input.chunks() + 1,
            WritePolicy::ExternalTables,
        ));
        let warm_up = session
            .run(ExecRequest::query(cpu_bound_query()))
            .expect("warm-up scan")
            .into_single();
        assert!(twin.cpu_bound.matches(&warm_up));
        let server = session.serve(config.clone()).expect("server starts");
        (input, oracle, twin, disk, server)
    });
    let log = h.log.clone();
    let shapes = Shapes {
        queries: [full_sum_query(), range_query(), hot_sum_query()],
        oracle: &oracle,
        twin: &twin,
    };
    let op = server
        .session()
        .engine()
        .operator(TABLE)
        .expect("registered");
    let counters_before = Counters::of(&op, &disk);
    let busy_before = StageBusy::of(op.profiler());

    // A traced run spends half its time with the span log off and half with
    // it on; the difference between the two halves is the tracing overhead.
    // The phases come from the untraced half alone.
    let mut latency_s = Vec::new();
    let (mut wall_s, mut both_halves_wall_s, mut queries) = (0.0, 0.0, 0);
    let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for &recording in halves {
        log.set_recording(recording);
        let t0 = Instant::now();
        let clients = closed_loop(&server, &shapes, &log, h.budget_s() / halves.len() as f64);
        let half_s = t0.elapsed().as_secs_f64();
        both_halves_wall_s += half_s;
        if !recording {
            wall_s = half_s;
        }
        for c in clients {
            queries += c.latency_s.len() as u64;
            h.attempted += c.attempted;
            h.failed += c.failed;
            h.insitu.from_cache += c.from_cache;
            h.insitu.from_db += c.from_db;
            h.insitu.from_raw += c.from_raw;
            h.insitu.serve.submit_s.extend(&c.submit_s);
            if recording {
                h.insitu.traced.probe_traced_s.extend(c.latency_s);
            } else {
                latency_s.extend(c.latency_s);
            }
        }
    }

    let busy = StageBusy::of(op.profiler()) - busy_before;
    h.absorb(&counters_before, &Counters::of(&op, &disk));
    let serve = server.counters();
    let i = &mut h.insitu;
    // A round of this workload is one query.
    i.rounds = queries;
    i.timed_wall_s = both_halves_wall_s;
    i.busy = busy;
    // Every dispatcher runs a scan of its own, each with its own workers.
    i.concurrent_scans = config.dispatchers;
    let worker_lanes = (WORKERS * config.dispatchers) as f64;
    i.pipeline_overhead_s =
        (both_halves_wall_s - busy.get(Stage::Read).max(busy.worker_s() / worker_lanes)).max(0.0);
    i.serve.batches = serve.batches;
    i.serve.batched_queries = serve.batched_queries;
    i.serve.rejected = serve.rejected;
    h.check(serve.completed == serve.admitted);
    server.shutdown();

    latency_s.sort_by(f64::total_cmp);
    h.insitu.traced.probe_untraced_s.clone_from(&latency_s);
    h.insitu.serve.p99_ms = quantile(&latency_s, 0.99) * 1e3;
    let completed = latency_s.len() as f64;
    Outcome {
        phases: [
            Phase {
                label: "submit-to-reply latency, median",
                value_ms: quantile(&latency_s, 0.50) * 1e3,
                samples_s: latency_s.clone(),
            },
            Phase {
                label: "submit-to-reply latency, 95th percentile of the same samples",
                value_ms: quantile(&latency_s, 0.95) * 1e3,
                samples_s: Vec::new(),
            },
            Phase {
                label: "wall time per completed query (1000 / qps)",
                value_ms: wall_s * 1e3 / completed,
                samples_s: Vec::new(),
            },
        ],
        sim: None,
        input,
    }
}

/// Runs the client threads for `seconds` and returns what each saw.
fn closed_loop(server: &Server, shapes: &Shapes<'_>, log: &SpanLog, seconds: f64) -> Vec<Client> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|thread| s.spawn(move || client(server, shapes, log, thread, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn client(
    server: &Server,
    shapes: &Shapes<'_>,
    log: &SpanLog,
    thread: u64,
    deadline: Instant,
) -> Client {
    let mut c = Client::default();
    let tenants = [2 * thread, 2 * thread + 1];
    let mut round = 0u64;
    while Instant::now() < deadline {
        let scope = log.open_round(round, thread + 1);
        let mut pending = Vec::with_capacity(tenants.len());
        for (k, &tenant) in tenants.iter().enumerate() {
            let shape = (round as usize * tenants.len() + k + thread as usize) % SHAPES;
            c.attempted += 1;
            let t0 = Instant::now();
            let (ticket, submit_s) = scope.time("engine", "Server::submit", || {
                server.submit(tenant, &shapes.queries[shape])
            });
            c.submit_s.push(submit_s);
            match ticket {
                Ok(ticket) => pending.push((t0, shape, ticket)),
                // Refused (`Overloaded`) or otherwise failed: it misses any
                // latency limit, so it counts as failed and has no sample.
                Err(_) => c.failed += 1,
            }
        }
        for (t0, shape, ticket) in pending {
            let (reply, _) = scope.time("engine", "Ticket::wait", || ticket.wait());
            c.latency_s.push(t0.elapsed().as_secs_f64());
            match reply {
                Ok(out) => {
                    c.from_cache += out.scan.from_cache as u64;
                    c.from_db += out.scan.from_db as u64;
                    c.from_raw += out.scan.from_raw as u64;
                    if !shapes.matches(shape, &out) {
                        c.failed += 1;
                    }
                }
                Err(_) => c.failed += 1,
            }
        }
        log.close(scope);
        round += 1;
    }
    c
}
