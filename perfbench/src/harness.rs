//! What every workload shares: the run's arguments and clock, the tally of
//! attempted and failed operations, and the accounting that reads the
//! program's public counters around each timed call.

use crate::input::{TABLE, WORKERS};
use crate::spans::{Scope, SpanLog};
use scanraw::{CacheCounters, Profiler, ScanRaw, Stage};
use scanraw_engine::{ExecMode, ExecRequest, Query, QueryOutcome, Session};
use scanraw_obs::QueryTrace;
use scanraw_simio::{AccessKind, SimDisk};
use std::ops::{AddAssign, Sub};
use std::sync::Arc;
use std::time::Instant;

/// Set-up runs this many times per process; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdFull,
    Proj2Lifecycle,
    WarmExec,
    ThrottledSeq,
    Serve4Tenant,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ColdFull,
        Workload::Proj2Lifecycle,
        Workload::WarmExec,
        Workload::ThrottledSeq,
        Workload::Serve4Tenant,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFull => "cold_full",
            Workload::Proj2Lifecycle => "proj2_lifecycle",
            Workload::WarmExec => "warm_exec",
            Workload::ThrottledSeq => "throttled_seq",
            Workload::Serve4Tenant => "serve_4tenant",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rows of `wide12`; the default is the size every committed number was
    /// measured at, the contract test passes a sixteenth of it.
    pub rows: u64,
}

/// Busy seconds per pipeline stage, in the order of [`Stage::ALL`], as the
/// operator's profiler reports them: TOKENIZE, PARSE and EXEC on the host wall
/// clock, READ, WRITE and DELIVER on the device clock (zero on a virtual-clock
/// device).
#[derive(Debug, Default, Clone, Copy)]
pub struct StageBusy([f64; Stage::ALL.len()]);

impl StageBusy {
    pub fn of(p: &Profiler) -> StageBusy {
        StageBusy(Stage::ALL.map(|stage| p.total(stage).as_secs_f64()))
    }

    pub fn get(&self, stage: Stage) -> f64 {
        let i = Stage::ALL.iter().position(|s| *s == stage);
        self.0[i.expect("Stage::ALL lists every stage")]
    }

    /// Busy time of the stages that run on the worker pool.
    pub fn worker_s(&self) -> f64 {
        self.get(Stage::Tokenize) + self.get(Stage::Parse) + self.get(Stage::Exec)
    }
}

impl Sub for StageBusy {
    type Output = StageBusy;
    fn sub(self, o: StageBusy) -> StageBusy {
        StageBusy(std::array::from_fn(|i| self.0[i] - o.0[i]))
    }
}

impl AddAssign for StageBusy {
    fn add_assign(&mut self, o: StageBusy) {
        for (mine, theirs) in self.0.iter_mut().zip(o.0) {
            *mine += theirs;
        }
    }
}

/// Cumulative counters of one operator and its device; workloads take one
/// before and one after the work they account for.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub parallel_chunks: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub read_ops: u64,
    pub write_ops: u64,
    pub read_busy_s: f64,
    pub write_busy_s: f64,
}

impl Counters {
    pub fn of(op: &ScanRaw, disk: &SimDisk) -> Counters {
        let CacheCounters {
            hits,
            misses,
            evictions,
        } = op.cache().counters();
        let mut c = Counters {
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            parallel_chunks: op
                .obs()
                .metrics
                .counter_value("scanraw.exec.parallel_chunks")
                .unwrap_or(0),
            ..Counters::default()
        };
        for o in disk.stats().ops() {
            let busy_s = o.end.saturating_sub(o.start).as_secs_f64();
            match o.kind {
                AccessKind::Read => {
                    c.read_bytes += o.bytes;
                    c.read_ops += 1;
                    c.read_busy_s += busy_s;
                }
                AccessKind::Write => {
                    c.write_bytes += o.bytes;
                    c.write_ops += 1;
                    c.write_busy_s += busy_s;
                }
            }
        }
        c
    }
}

/// Everything read from the program's public counters during the measured
/// rounds. Totals; the report divides by `rounds`.
#[derive(Debug, Default, Clone)]
pub struct InSitu {
    pub rounds: u64,
    /// Wall time inside timed calls into the program (`Session::run`,
    /// `drain_writes`, or the whole closed loop of the serving workload).
    pub timed_wall_s: f64,
    pub busy: StageBusy,
    /// Per query: wall − max(READ busy, worker busy / workers) — the time
    /// neither the device nor the workers explain.
    pub pipeline_overhead_s: f64,
    /// Per query: wall − `ScanSummary::elapsed` (device clock).
    pub consumer_tail_s: f64,
    pub drain_s: f64,
    pub from_cache: u64,
    pub from_db: u64,
    pub from_raw: u64,
    pub from_hybrid: u64,
    pub skipped: u64,
    pub speculative_writes: u64,
    pub safeguard_writes: u64,
    pub counters: Counters,
    /// Column-store footprint and catalog cells once a round's loading has
    /// converged, and the raw file they are measured against.
    pub stored_bytes: u64,
    pub loaded_cells: u64,
    pub raw_bytes: u64,
    pub loaded_chunks_after_q1: f64,
    pub queries_to_fully_loaded: f64,
    /// Median first-scan time under `speculative()` over the same under
    /// `ExternalTables` on the same device, where the workload measures both
    /// (else 0).
    pub spec_over_external_ratio: f64,
    /// Scans the workload keeps in flight at once (1 unless it serves): each
    /// runs its own pool of [`WORKERS`] workers.
    pub concurrent_scans: usize,
    pub serve: ServeStats,
    pub traced: TracedStats,
}

#[derive(Debug, Default, Clone)]
pub struct ServeStats {
    pub submit_s: Vec<f64>,
    pub p99_ms: f64,
    pub batches: u64,
    pub batched_queries: u64,
    pub rejected: u64,
}

/// What only the traced rounds of a `--trace 1` run produce.
#[derive(Debug, Default, Clone)]
pub struct TracedStats {
    pub queries: u64,
    pub program_spans: u64,
    pub spans_dropped: u64,
    pub merge_s: f64,
    /// Samples of the workload's overhead probe, traced and untraced rounds.
    pub probe_traced_s: Vec<f64>,
    pub probe_untraced_s: Vec<f64>,
    pub last_trace: Option<QueryTrace>,
}

pub struct Harness {
    pub args: Args,
    pub log: Arc<SpanLog>,
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub insitu: InSitu,
    /// True while the current round records spans and asks the program for
    /// its own trace (odd rounds of a `--trace 1` run).
    pub tracing_round: bool,
    measure_from: Option<Instant>,
}

impl Harness {
    pub fn new(args: Args) -> Harness {
        Harness {
            args,
            log: Arc::new(SpanLog::default()),
            attempted: 0,
            failed: 0,
            setup_s: Vec::new(),
            insitu: InSitu {
                concurrent_scans: 1,
                ..InSitu::default()
            },
            tracing_round: false,
            measure_from: None,
        }
    }

    /// Seconds the workload's rounds may take: all of `--seconds`, less the
    /// share a traced run keeps for the isolated layer kernels.
    pub fn budget_s(&self) -> f64 {
        if self.args.trace {
            self.args.seconds * 0.7
        } else {
            self.args.seconds
        }
    }

    /// Builds the workload's state [`SETUP_REPS`] times — generation,
    /// staging, registration, warm-up, each time from nothing — and keeps
    /// the last.
    pub fn set_up<S>(&mut self, build: impl Fn() -> S) -> S {
        let mut state = None;
        for _ in 0..SETUP_REPS {
            drop(state.take());
            let t0 = Instant::now();
            state = Some(build());
            self.setup_s.push(t0.elapsed().as_secs_f64());
        }
        state.expect("SETUP_REPS is positive")
    }

    /// True until the measuring time is used up; the clock starts at the
    /// first call. Always grants two rounds, so a traced run has one round
    /// of each kind.
    pub fn measuring(&mut self) -> bool {
        let from = *self.measure_from.get_or_insert_with(Instant::now);
        self.insitu.rounds < 2 || from.elapsed().as_secs_f64() < self.budget_s()
    }

    /// Starts the next round: decides whether it is traced and opens its
    /// root span.
    pub fn begin_round<'a>(&mut self, log: &'a SpanLog) -> Scope<'a> {
        let round = self.insitu.rounds;
        self.insitu.rounds += 1;
        self.tracing_round = self.args.trace && round % 2 == 1;
        log.set_recording(self.tracing_round);
        log.open_round(round, 0)
    }

    /// Adds a phase sample, unless the round is traced: a traced request
    /// drains the loading it started before it returns, so its times are not
    /// the ones a caller sees.
    pub fn sample(&self, into: &mut Vec<f64>, value: f64) {
        if !self.tracing_round {
            into.push(value);
        }
    }

    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed += 1;
        }
    }

    /// One timed `Session::run`. Counts the attempt, reads the profiler
    /// around the call, and on a traced round asks for the program's span
    /// tree. Returns the wall seconds and, unless the query failed, its
    /// outcome for the caller to check against the oracle.
    pub fn query(
        &mut self,
        scope: Scope<'_>,
        session: &Session,
        op: &ScanRaw,
        query: Query,
        mode: ExecMode,
    ) -> (f64, Option<QueryOutcome>) {
        let mut req = ExecRequest::query(query).mode(mode);
        if self.tracing_round {
            req = req.traced();
        }
        self.attempted += 1;
        let before = StageBusy::of(op.profiler());
        let (result, wall_s) = scope.time("engine", "Session::run", || session.run(req));
        let busy = StageBusy::of(op.profiler()) - before;
        self.account(wall_s, busy);
        let Ok(mut out) = result else {
            self.failed += 1;
            return (wall_s, None);
        };
        if let Some(trace) = out.query_traces.pop().flatten() {
            let t = &mut self.insitu.traced;
            t.queries += 1;
            t.program_spans += trace.spans.len() as u64;
            t.merge_s += trace
                .spans_named("merge")
                .map(|s| s.duration().as_secs_f64())
                .sum::<f64>();
            t.spans_dropped = op.obs().trace.dropped();
            t.last_trace = Some(trace);
        }
        let outcome = out.outcomes.pop().expect("one outcome per query");
        let s = &outcome.scan;
        let i = &mut self.insitu;
        i.pipeline_overhead_s +=
            (wall_s - busy.get(Stage::Read).max(busy.worker_s() / WORKERS as f64)).max(0.0);
        i.consumer_tail_s += (wall_s - s.elapsed.as_secs_f64()).max(0.0);
        i.from_cache += s.from_cache as u64;
        i.from_db += s.from_db as u64;
        i.from_raw += s.from_raw as u64;
        i.from_hybrid += s.from_hybrid as u64;
        i.skipped += s.skipped as u64;
        i.speculative_writes += s.speculative_writes;
        i.safeguard_writes += s.safeguard_writes;
        (wall_s, Some(outcome))
    }

    /// One timed `drain_writes`: the loading a query left behind.
    pub fn drain(&mut self, scope: Scope<'_>, op: &ScanRaw) -> f64 {
        let before = StageBusy::of(op.profiler());
        let ((), wall_s) = scope.time("core", "ScanRaw::drain_writes", || op.drain_writes());
        let busy = StageBusy::of(op.profiler()) - before;
        self.account(wall_s, busy);
        self.insitu.drain_s += wall_s;
        wall_s
    }

    fn account(&mut self, wall_s: f64, busy: StageBusy) {
        self.insitu.timed_wall_s += wall_s;
        self.insitu.busy += busy;
    }

    /// Adds what an operator and its device counted between two snapshots.
    pub fn absorb(&mut self, before: &Counters, after: &Counters) {
        let c = &mut self.insitu.counters;
        c.cache_hits += after.cache_hits - before.cache_hits;
        c.cache_misses += after.cache_misses - before.cache_misses;
        c.cache_evictions += after.cache_evictions - before.cache_evictions;
        c.parallel_chunks += after.parallel_chunks - before.parallel_chunks;
        c.read_bytes += after.read_bytes - before.read_bytes;
        c.write_bytes += after.write_bytes - before.write_bytes;
        c.read_ops += after.read_ops - before.read_ops;
        c.write_ops += after.write_ops - before.write_ops;
        c.read_busy_s += after.read_busy_s - before.read_busy_s;
        c.write_busy_s += after.write_busy_s - before.write_busy_s;
    }

    /// Records the column store's state once a round's loading has
    /// converged. Exact counts, the same every round.
    pub fn note_store(&mut self, session: &Session, raw_bytes: u64) {
        let db = session.database();
        self.insitu.stored_bytes = db.store().stored_bytes(TABLE);
        self.insitu.loaded_cells = loaded_cells(session);
        self.insitu.raw_bytes = raw_bytes;
    }

    /// Records one sample of the workload's tracing-overhead probe: a phase
    /// that leaves no loading behind, so a traced request's implicit drain
    /// costs nothing.
    pub fn probe(&mut self, wall_s: f64) {
        let t = &mut self.insitu.traced;
        if self.tracing_round {
            t.probe_traced_s.push(wall_s);
        } else {
            t.probe_untraced_s.push(wall_s);
        }
    }
}

/// (chunk, column) cells the catalog marks loaded.
pub fn loaded_cells(session: &Session) -> u64 {
    session
        .database()
        .catalog()
        .table(TABLE)
        .map(|t| t.read().loaded_cell_count() as u64)
        .unwrap_or(0)
}
