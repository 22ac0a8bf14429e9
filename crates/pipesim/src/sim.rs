//! The discrete-event simulation of the ScanRaw pipeline.
//!
//! One [`Simulator`] instance corresponds to one ScanRaw operator: it carries
//! the binary-chunk cache, the set of chunks loaded in the database, and any
//! writes still pending from a previous query (the speculative tail), across
//! a sequence of simulated queries. [`Simulator::run_query`] plays the
//! per-scan pipeline — cache deliveries, database reads, the raw-file
//! conversion pipeline, EXEC on the worker pool, and the device READ and
//! WRITE share — in virtual time.
//!
//! The scheduling itself is not simulated but run: the delivery plan comes
//! from the operator's classifier, [`ChunkSource::classify`]; dispatch is the
//! operator's work queue, [`Lanes`] — an idle simulated worker calls `pop`
//! and the job's completion is scheduled in virtual time, a full position
//! lane hands a tokenized chunk back to its worker, and READ is blocked while
//! a text push is `Full`; the scan's [`LoadPolicy`] decides what to store
//! and when; and the cache keeps the operator's eviction order,
//! [`LoadBiasedLru`]. What stays the simulator's own is virtual time, the
//! stage costs, the `cores` cap and the device.

use crate::cost::CostModel;
use scanraw::{
    ChunkSource, Lanes, LoadBiasedLru, LoadEvent, LoadHost, LoadPolicy, SchedulerReport,
    TextPushError, Trigger, Work,
};
use scanraw_types::{ChunkId, WritePolicy};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Shape of the simulated raw file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FileSpec {
    pub n_chunks: usize,
    pub rows_per_chunk: u64,
    pub cols: usize,
    /// Average text bytes per attribute value, delimiter included. The
    /// paper's uniform `u32 < 2^31` values average ≈ 9.48 digits, plus one
    /// separator byte.
    pub text_bytes_per_value: f64,
    /// Bytes per value in the database representation (8 for this
    /// repository's Int64 columns; the paper's system stored 4-byte
    /// integers, hence its 40 GB → 16 GB text-to-binary ratio).
    pub binary_bytes_per_value: f64,
}

impl FileSpec {
    /// The paper's synthetic suite: `rows × cols` of uniform `u32 < 2^31`.
    pub fn synthetic(rows: u64, cols: usize, chunk_rows: u64) -> Self {
        FileSpec {
            n_chunks: rows.div_ceil(chunk_rows) as usize,
            rows_per_chunk: chunk_rows,
            cols,
            text_bytes_per_value: 10.48,
            binary_bytes_per_value: 8.0,
        }
    }

    pub fn text_bytes_per_chunk(&self) -> f64 {
        self.rows_per_chunk as f64 * self.cols as f64 * self.text_bytes_per_value
    }

    pub fn binary_bytes_per_chunk(&self) -> f64 {
        self.rows_per_chunk as f64 * self.cols as f64 * self.binary_bytes_per_value
    }

    pub fn total_text_bytes(&self) -> f64 {
        self.text_bytes_per_chunk() * self.n_chunks as f64
    }
}

/// Per-query parameters (selective conversion, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// Columns converted by PARSE (engine consumes the same).
    pub convert_cols: usize,
    /// Leading attributes the tokenizer splits (selective tokenizing).
    pub tokenize_cols: usize,
}

impl QuerySpec {
    /// Convert everything — the paper's default regime.
    pub fn full(file: &FileSpec) -> Self {
        QuerySpec {
            convert_cols: file.cols,
            tokenize_cols: file.cols,
        }
    }
}

/// Simulator configuration (mirrors [`scanraw_types::ScanRawConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    pub workers: usize,
    /// Cores of the simulated machine (paper server: 16).
    pub cores: usize,
    pub text_buffer: usize,
    pub position_buffer: usize,
    pub cache_chunks: usize,
    pub policy: WritePolicy,
    pub cost: CostModel,
    /// Record disk/CPU busy spans for utilization timelines (Figure 9).
    pub record_timeline: bool,
    /// Bias cache eviction toward chunks already loaded in the database
    /// (paper §3.1). Disable for the ablation study.
    pub cache_bias: bool,
    /// Coordinate device access (READ priority; WRITE runs only when READ
    /// cannot) — the paper's §3.2.1 arbitration. When disabled, WRITE takes
    /// the device whenever its queue is non-empty, interleaving with reads
    /// and paying direction-switch penalties (the ablation baseline).
    pub arbitration: bool,
}

impl SimConfig {
    /// Paper-like defaults: 16 cores, 8-slot stage buffers.
    pub fn new(workers: usize, policy: WritePolicy, cost: CostModel) -> Self {
        SimConfig {
            workers,
            cores: 16,
            text_buffer: 8,
            position_buffer: 8,
            cache_chunks: 32,
            policy,
            cost,
            record_timeline: false,
            cache_bias: true,
            arbitration: true,
        }
    }
}

/// One busy interval of a simulated resource, in seconds since query start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub start: f64,
    pub end: f64,
}

/// A point of a utilization timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilSample {
    pub at: f64,
    pub value: f64,
}

/// Outcome of one simulated query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySim {
    pub elapsed_secs: f64,
    pub from_cache: usize,
    pub from_db: usize,
    pub from_raw: usize,
    /// Writes completed while this query ran (including the drain of the
    /// previous query's speculative tail).
    pub chunks_written: usize,
    /// Chunks loaded in the database after the query (and its carried
    /// writes were queued — pending ones not yet counted).
    pub loaded_after: usize,
    /// Stores the load policy queued during the query, by trigger — what
    /// the operator reports in its `ScanSummary`.
    pub stores: SchedulerReport,
    /// Disk busy spans split by direction (empty unless `record_timeline`).
    pub disk_read_spans: Vec<Span>,
    pub disk_write_spans: Vec<Span>,
    /// Worker-CPU busy spans (empty unless `record_timeline`).
    pub cpu_spans: Vec<Span>,
}

impl QuerySim {
    /// Utilization of a span set over `window`-second buckets, as a fraction
    /// (CPU spans can exceed 1.0 with multiple workers).
    pub fn utilization(spans: &[Span], window: f64, until: f64) -> Vec<UtilSample> {
        assert!(window > 0.0);
        let n = (until / window).ceil().max(1.0) as usize;
        let mut busy = vec![0.0f64; n];
        for s in spans {
            let mut cur = s.start;
            while cur < s.end {
                let idx = ((cur / window) as usize).min(n - 1);
                let win_end = (idx as f64 + 1.0) * window;
                let seg_end = s.end.min(win_end);
                busy[idx] += seg_end - cur;
                cur = seg_end.max(cur + 1e-12);
            }
        }
        (0..n)
            .map(|i| UtilSample {
                at: i as f64 * window,
                value: busy[i] / window,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The simulator
// ---------------------------------------------------------------------------

/// Persistent operator state across simulated queries.
pub struct Simulator {
    pub cfg: SimConfig,
    pub file: FileSpec,
    loaded: Vec<bool>,
    /// Cached chunk indices in the operator's eviction order; whether a
    /// cached chunk is loaded is `loaded`'s to say.
    cache: LoadBiasedLru<usize, ()>,
    /// The device's write queue, the chunk being written at its front.
    /// Like the operator's WRITE thread it outlives a query: what is left
    /// when one ends is drained before the next one's first device read.
    write_q: VecDeque<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DiskOp {
    ReadRaw(usize),
    ReadDb(usize),
    Write(usize),
}

/// What completes at a point of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Disk,
    Tokenized(usize),
    Parsed(usize),
    Executed,
}

impl Simulator {
    pub fn new(cfg: SimConfig, file: FileSpec) -> Self {
        let cache = LoadBiasedLru::new(cfg.cache_chunks.max(1));
        Simulator {
            cfg,
            file,
            loaded: vec![false; file.n_chunks],
            cache,
            write_q: VecDeque::new(),
        }
    }

    /// Empties the binary-chunk cache (models a stateless external-table
    /// operator that does not persist state across queries).
    pub fn clear_cache(&mut self) {
        self.cache = LoadBiasedLru::new(self.cfg.cache_chunks.max(1));
    }

    /// Writes queued but not yet completed (the speculative tail carried to
    /// the next query).
    pub fn pending_loads(&self) -> usize {
        self.write_q.len()
    }

    /// Chunks currently loaded in the database.
    pub fn loaded_count(&self) -> usize {
        self.loaded.iter().filter(|&&b| b).count()
    }

    /// True when the whole file is in the database.
    pub fn fully_loaded(&self) -> bool {
        self.loaded.iter().all(|&b| b)
    }

    /// Admits chunk `id` to the cache; returns the evicted chunk. Without
    /// `cache_bias` (the ablation) the order is plain LRU.
    fn cache_admit(&mut self, id: usize) -> Option<usize> {
        let (bias, loaded) = (self.cfg.cache_bias, &self.loaded);
        let victim = self.cache.admit(id, (), |&c, ()| bias && loaded[c]);
        victim.map(|(victim, ())| victim)
    }

    /// Runs one query over the whole file (the paper's workload touches
    /// every chunk; selection-driven skipping is orthogonal here).
    pub fn run_query(&mut self, q: &QuerySpec) -> QuerySim {
        assert!(q.convert_cols >= 1 && q.convert_cols <= self.file.cols);
        assert!(q.tokenize_cols >= 1 && q.tokenize_cols <= self.file.cols);

        // The §3.2.1 delivery plan from the operator's classifier, over
        // chunk-granular cells: a chunk is one cell, so it is never partly
        // loaded. Stable, so each source keeps file order.
        let mut plan: Vec<(usize, ChunkSource)> = (0..self.file.n_chunks)
            .map(|id| {
                let (cached, loaded) = (self.cache.get(&id).is_some(), self.loaded[id]);
                (id, ChunkSource::classify(cached, loaded, loaded, false))
            })
            .collect();
        plan.sort_by_key(|&(_, source)| source);

        // Per-chunk costs in nanoseconds.
        let cost = &self.cfg.cost;
        let text_bytes = self.file.text_bytes_per_chunk();
        let split_frac = q.tokenize_cols as f64 / self.file.cols as f64;
        let tokenize_ns = cost.dispatch_ns
            + cost.tokenize_split_ns_per_byte * text_bytes * split_frac
            + cost.tokenize_skip_ns_per_byte * text_bytes * (1.0 - split_frac);
        let values_converted = self.file.rows_per_chunk as f64 * q.convert_cols as f64;
        let parse_ns = cost.dispatch_ns + cost.parse_ns_per_value * values_converted;
        let exec_ns = cost.engine_ns_per_value * values_converted;
        let raw_read_ns = cost.read_secs(text_bytes) * 1e9;
        let db_read_ns = cost.read_secs(self.file.binary_bytes_per_chunk()) * 1e9;
        let write_ns = cost.write_secs(self.file.binary_bytes_per_chunk()) * 1e9;

        // The operator's work queue without the lock; every delivered chunk
        // becomes an EXEC task in it. Without a pool (`workers == 0`) READ's
        // thread converts each chunk itself, outside the lanes, and the one
        // idle "worker" is the engine's thread, which only finds EXEC tasks.
        let mut lanes = Lanes::new(self.cfg.text_buffer, self.cfg.position_buffer);
        let pool = self.cfg.workers > 0;
        let mut idle = self.cfg.workers.min(self.cfg.cores).max(1);
        let mut converting = false;
        // A raw chunk READ read while the text lane was full: READ is
        // blocked, and the device idle, until a TOKENIZE makes room.
        let mut held: Option<usize> = None;
        let mut policy = LoadPolicy::new(self.cfg.policy);
        let mut clock = Clock {
            record: self.cfg.record_timeline,
            ..Clock::default()
        };
        let mut res = QuerySim::default();
        let (mut next, mut consumed) = (0, 0);
        let mut raw_scan_complete = false;
        // The device's operation in flight with its start, and the direction
        // of its last one (true = read).
        let mut disk: Option<(DiskOp, u64)> = None;
        let mut disk_dir: Option<bool> = None;
        // Writes carried from the previous query go first (§4).
        let mut startup_drain = self.write_q.len();
        let waits_for_writes = self.cfg.policy.loads_within_query();

        loop {
            // READ serves cached chunks, the head of the plan, without the
            // device.
            while let Some(&(id, ChunkSource::Cache)) = plan.get(next) {
                self.cache.touch(&id);
                res.from_cache += 1;
                next += 1;
                lanes.push_exec(id).expect("lanes never close");
            }
            // Idle workers take what the lanes hand out.
            while idle > 0 {
                let Some(work) = lanes.pop() else { break };
                idle -= 1;
                match work {
                    Work::Exec(_) => clock.cpu(exec_ns, Ev::Executed),
                    Work::Parse(id) => clock.cpu(parse_ns, Ev::Parsed(id)),
                    Work::Tokenize(id) => {
                        clock.cpu(tokenize_ns, Ev::Tokenized(id));
                        if let Some(id) = held.take() {
                            lanes.push_text(id).expect("the pop made room");
                            policy.on(LoadEvent::ReadResumed, self);
                        }
                    }
                }
            }
            // READ returns once every planned chunk is in.
            let reading = matches!(disk, Some((DiskOp::ReadRaw(_) | DiskOp::ReadDb(_), _)));
            let read_free = held.is_none() && !converting;
            if !raw_scan_complete && read_free && !reading && next == plan.len() {
                raw_scan_complete = true;
                policy.on(LoadEvent::RawScanComplete, self);
            }
            // The device: READ first (after the startup drain), WRITE
            // whenever READ does not take it.
            if disk.is_none() {
                let write_preempts = !self.cfg.arbitration && !self.write_q.is_empty();
                let read_free = read_free && startup_drain == 0 && !write_preempts;
                let read = match plan.get(next) {
                    Some(&(id, ChunkSource::Db)) if read_free => Some(DiskOp::ReadDb(id)),
                    Some(&(id, ChunkSource::Raw)) if read_free => Some(DiskOp::ReadRaw(id)),
                    _ => None,
                };
                next += usize::from(read.is_some());
                if let Some(op) = read.or(self.write_q.front().copied().map(DiskOp::Write)) {
                    let (mut dur, is_read) = match op {
                        DiskOp::ReadRaw(_) => (raw_read_ns, true),
                        DiskOp::ReadDb(_) => (db_read_ns, true),
                        DiskOp::Write(_) => (write_ns, false),
                    };
                    if disk_dir == Some(!is_read) {
                        dur += self.cfg.cost.seek_ns;
                    }
                    disk = Some((op, clock.now));
                    disk_dir = Some(is_read);
                    clock.after(dur, Ev::Disk);
                }
            }

            let Some(ev) = clock.next() else { break };
            match ev {
                Ev::Disk => {
                    let (op, started) = disk.take().expect("disk op in flight");
                    if self.cfg.record_timeline {
                        let span = Span {
                            start: started as f64 * 1e-9,
                            end: clock.now as f64 * 1e-9,
                        };
                        match op {
                            DiskOp::Write(_) => res.disk_write_spans.push(span),
                            _ => res.disk_read_spans.push(span),
                        }
                    }
                    match op {
                        DiskOp::ReadRaw(id) => {
                            res.from_raw += 1;
                            if !pool {
                                // READ's thread converts the chunk itself.
                                converting = true;
                                clock.cpu(tokenize_ns + parse_ns, Ev::Parsed(id));
                            } else if let Err(TextPushError::Full(id)) = lanes.push_text(id) {
                                // A full text lane blocks READ: the
                                // speculative-loading window (§4).
                                held = Some(id);
                                policy.on(LoadEvent::ReadBlocked, self);
                            }
                        }
                        DiskOp::ReadDb(id) => {
                            res.from_db += 1;
                            lanes.push_exec(id).expect("lanes never close");
                            // Database chunks enter the cache loaded; their
                            // victims are evictions like any other.
                            if let Some(victim) = self.cache_admit(id) {
                                policy.on(LoadEvent::Evicted(victim), self);
                            }
                        }
                        DiskOp::Write(id) => {
                            self.write_q.pop_front();
                            self.loaded[id] = true;
                            res.chunks_written += 1;
                            startup_drain = startup_drain.saturating_sub(1);
                            policy.on(LoadEvent::WriteDone(ChunkId(id as u32)), self);
                        }
                    }
                }
                Ev::Tokenized(id) => match lanes.push_parse(id) {
                    Ok(()) => idle += 1,
                    // A full position lane hands the chunk back: the worker
                    // that tokenized it parses it.
                    Err(id) => clock.cpu(parse_ns, Ev::Parsed(id)),
                },
                Ev::Parsed(id) => {
                    if pool {
                        idle += 1;
                    } else {
                        converting = false;
                    }
                    lanes.push_exec(id).expect("lanes never close");
                    let victim = self.cache_admit(id);
                    policy.on(LoadEvent::Converted(id), self);
                    if let Some(victim) = victim {
                        policy.on(LoadEvent::Evicted(victim), self);
                    }
                }
                Ev::Executed => {
                    idle += 1;
                    consumed += 1;
                    if consumed == plan.len() {
                        // The engine consumed the whole scan.
                        policy.on(LoadEvent::QueryDone, self);
                    }
                }
            }
            if consumed == plan.len() && (!waits_for_writes || self.write_q.is_empty()) {
                break;
            }
        }
        debug_assert_eq!(consumed, plan.len(), "every planned chunk consumed");
        QuerySim {
            elapsed_secs: clock.now as f64 * 1e-9,
            loaded_after: self.loaded_count(),
            stores: policy.report(),
            cpu_spans: clock.cpu_spans,
            ..res
        }
    }

    /// Runs `n` identical full-conversion queries back to back (Figure 8).
    pub fn run_sequence(&mut self, n: usize) -> Vec<QuerySim> {
        let q = QuerySpec::full(&self.file);
        (0..n).map(|_| self.run_query(&q)).collect()
    }
}

/// Virtual time in nanoseconds: completions in time order, ties in the
/// order they were scheduled, and the worker busy spans when recorded.
#[derive(Default)]
struct Clock {
    now: u64,
    seq: u64,
    events: BinaryHeap<Reverse<(u64, u64, Ev)>>,
    record: bool,
    cpu_spans: Vec<Span>,
}

impl Clock {
    /// `ev` completes `ns` from now.
    fn after(&mut self, ns: f64, ev: Ev) {
        self.seq += 1;
        self.events
            .push(Reverse((self.now + ns as u64, self.seq, ev)));
    }

    /// A worker (or READ's thread) busy for `ns`, until `ev`.
    fn cpu(&mut self, ns: f64, ev: Ev) {
        if self.record {
            let start = self.now as f64;
            let end = start + ns;
            self.cpu_spans.push(Span {
                start: start * 1e-9,
                end: end * 1e-9,
            });
        }
        self.after(ns, ev);
    }

    /// Advances to the next completion.
    fn next(&mut self) -> Option<Ev> {
        let Reverse((at, _, ev)) = self.events.pop()?;
        self.now = at;
        Some(ev)
    }
}

/// The simulator's side of the operator's [`LoadPolicy`]. It loads whole
/// chunks, so a chunk is one cell (column 0).
impl LoadHost for Simulator {
    type Chunk = usize;
    type Victim = usize;

    fn chunk_id(&id: &usize) -> ChunkId {
        ChunkId(id as u32)
    }

    fn victim(&self, id: usize) -> (usize, Vec<usize>) {
        (id, self.unstored(&id))
    }

    fn unstored(&self, &id: &usize) -> Vec<usize> {
        if self.loaded[id] {
            Vec::new()
        } else {
            vec![0]
        }
    }

    fn unloaded_wanted(&self) -> Vec<(usize, Vec<usize>)> {
        let oldest_first = self.cache.oldest_first().into_iter();
        oldest_first
            .map(|(&id, ())| (id, self.unstored(&id)))
            .filter(|(_, cells)| !cells.is_empty())
            .collect()
    }

    /// WRITE always takes a store; a chunk already queued is not written
    /// twice, as the operator's store skips committed cells.
    fn store(&mut self, id: usize, _cells: &[usize], _trigger: Trigger) -> bool {
        if !self.write_q.contains(&id) {
            self.write_q.push_back(id);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file() -> FileSpec {
        // 64 chunks of 2^14 rows × 16 cols.
        FileSpec::synthetic(64 * (1 << 14), 16, 1 << 14)
    }

    fn cfg(workers: usize, policy: WritePolicy) -> SimConfig {
        SimConfig::new(workers, policy, CostModel::nominal())
    }

    #[test]
    fn all_chunks_delivered_exactly_once() {
        let mut sim = Simulator::new(cfg(4, WritePolicy::ExternalTables), file());
        let r = sim.run_query(&QuerySpec::full(&file()));
        assert_eq!(r.from_raw, 64);
        assert_eq!(r.from_cache + r.from_db, 0);
        assert_eq!(r.chunks_written, 0);
        assert_eq!(r.loaded_after, 0);
    }

    #[test]
    fn more_workers_never_slower() {
        let mut prev = f64::INFINITY;
        for w in [0, 1, 2, 4, 8, 16] {
            let mut sim = Simulator::new(cfg(w, WritePolicy::ExternalTables), file());
            let r = sim.run_query(&QuerySpec::full(&file()));
            assert!(
                r.elapsed_secs <= prev * 1.001,
                "w={w}: {} > prev {prev}",
                r.elapsed_secs
            );
            prev = r.elapsed_secs;
        }
    }

    #[test]
    fn plateau_is_io_bound() {
        let f = file();
        let mut sim = Simulator::new(cfg(16, WritePolicy::ExternalTables), f);
        let r = sim.run_query(&QuerySpec::full(&f));
        let io_floor = CostModel::nominal().read_secs(f.total_text_bytes());
        assert!(r.elapsed_secs >= io_floor * 0.999);
        assert!(
            r.elapsed_secs <= io_floor * 1.25,
            "16 workers should be close to the I/O floor: {} vs {io_floor}",
            r.elapsed_secs
        );
    }

    #[test]
    fn eager_loads_everything_and_is_not_faster() {
        let f = file();
        let mut ext = Simulator::new(cfg(8, WritePolicy::ExternalTables), f);
        let ext_t = ext.run_query(&QuerySpec::full(&f)).elapsed_secs;
        let mut eager = Simulator::new(cfg(8, WritePolicy::Eager), f);
        let r = eager.run_query(&QuerySpec::full(&f));
        assert!(eager.fully_loaded());
        assert_eq!(r.chunks_written, 64);
        assert!(r.elapsed_secs >= ext_t * 0.999);
    }

    #[test]
    fn speculative_first_query_matches_external_tables_when_io_bound() {
        let f = file();
        let mut ext = Simulator::new(cfg(16, WritePolicy::ExternalTables), f);
        let ext_t = ext.run_query(&QuerySpec::full(&f)).elapsed_secs;
        let mut spec = Simulator::new(cfg(16, WritePolicy::speculative()), f);
        let r = spec.run_query(&QuerySpec::full(&f));
        // The speculative run may finish writes after the query; elapsed must
        // match external tables almost exactly.
        assert!(
            (r.elapsed_secs - ext_t).abs() / ext_t < 0.02,
            "spec {} vs ext {ext_t}",
            r.elapsed_secs
        );
    }

    #[test]
    fn speculative_loads_heavily_when_cpu_bound() {
        let f = file();
        // One worker with expensive parsing → conversion is the bottleneck →
        // the disk idles → the scheduler loads almost everything for free.
        let mut cost = CostModel::nominal();
        cost.parse_ns_per_value *= 8.0;
        let mut sim = Simulator::new(
            SimConfig::new(1, WritePolicy::speculative(), cost.clone()),
            f,
        );
        let r = sim.run_query(&QuerySpec::full(&f));
        assert!(
            r.chunks_written + sim.pending_loads() >= f.n_chunks / 2,
            "cpu-bound speculative should load much of the file: {} written, {} carried",
            r.chunks_written,
            sim.pending_loads()
        );
        // And it must not be slower than external tables.
        let mut ext = Simulator::new(SimConfig::new(1, WritePolicy::ExternalTables, cost), f);
        let ext_t = ext.run_query(&QuerySpec::full(&f)).elapsed_secs;
        assert!(
            (r.elapsed_secs - ext_t).abs() / ext_t < 0.02,
            "spec {} vs ext {ext_t}",
            r.elapsed_secs
        );
    }

    #[test]
    fn sequence_converges_to_database_reads() {
        let f = file();
        let mut sim = Simulator::new(cfg(16, WritePolicy::speculative()), f);
        let results = sim.run_sequence(8);
        // Query times must be non-increasing (within tolerance).
        for w in results.windows(2) {
            assert!(
                w[1].elapsed_secs <= w[0].elapsed_secs * 1.02,
                "{} then {}",
                w[0].elapsed_secs,
                w[1].elapsed_secs
            );
        }
        let last = results.last().expect("non-empty");
        assert_eq!(last.from_raw, 0, "converged: no more raw conversion");
        assert!(sim.fully_loaded());
        // Converged time ≈ binary read time of the uncached part.
        let binary_secs =
            CostModel::nominal().read_secs(f.binary_bytes_per_chunk() * (f.n_chunks - 32) as f64);
        assert!(last.elapsed_secs <= binary_secs * 1.5);
    }

    #[test]
    fn buffered_writes_on_eviction_only() {
        let f = file();
        let mut sim = Simulator::new(cfg(8, WritePolicy::Buffered), f);
        let r = sim.run_query(&QuerySpec::full(&f));
        // 64 chunks through a 32-slot cache → 32 evictions written.
        assert_eq!(r.chunks_written, 32);
        assert_eq!(sim.loaded_count(), 32);
    }

    #[test]
    fn invisible_loads_its_quota_per_query() {
        let f = file();
        let mut sim = Simulator::new(
            cfg(
                8,
                WritePolicy::Invisible {
                    chunks_per_query: 4,
                },
            ),
            f,
        );
        let r = sim.run_query(&QuerySpec::full(&f));
        assert_eq!(r.chunks_written, 4);
        let r2 = sim.run_query(&QuerySpec::full(&f));
        assert!(r2.chunks_written <= 4);
    }

    #[test]
    fn selective_conversion_is_cheaper() {
        let f = file();
        let full = Simulator::new(cfg(1, WritePolicy::ExternalTables), f)
            .run_query(&QuerySpec::full(&f))
            .elapsed_secs;
        let selective = Simulator::new(cfg(1, WritePolicy::ExternalTables), f)
            .run_query(&QuerySpec {
                convert_cols: 2,
                tokenize_cols: 2,
            })
            .elapsed_secs;
        assert!(
            selective < full,
            "selective {selective} should beat full {full}"
        );
    }

    #[test]
    fn second_query_uses_cache_first() {
        let f = FileSpec::synthetic(16 * (1 << 14), 16, 1 << 14); // 16 chunks < cache
        let mut sim = Simulator::new(cfg(8, WritePolicy::ExternalTables), f);
        sim.run_query(&QuerySpec::full(&f));
        let r2 = sim.run_query(&QuerySpec::full(&f));
        assert_eq!(r2.from_cache, 16);
        assert_eq!(r2.from_raw, 0);
        assert!(r2.elapsed_secs < 0.05, "cache-only query is near-instant");
    }

    #[test]
    fn timeline_spans_recorded_when_enabled() {
        let f = file();
        let mut c = cfg(2, WritePolicy::speculative());
        c.record_timeline = true;
        let mut sim = Simulator::new(c, f);
        let r = sim.run_query(&QuerySpec::full(&f));
        assert!(!r.disk_read_spans.is_empty());
        assert!(!r.cpu_spans.is_empty());
        let util = QuerySim::utilization(&r.disk_read_spans, 0.1, r.elapsed_secs);
        assert!(util.iter().any(|u| u.value > 0.5));
        assert!(util.iter().all(|u| u.value <= 1.0 + 1e-9));
    }

    #[test]
    fn zero_workers_is_fully_serial() {
        let f = FileSpec::synthetic(8 * (1 << 14), 16, 1 << 14);
        let mut sim = Simulator::new(cfg(0, WritePolicy::ExternalTables), f);
        let r = sim.run_query(&QuerySpec::full(&f));
        let cost = CostModel::nominal();
        let per_chunk = cost.read_secs(f.text_bytes_per_chunk())
            + (cost.dispatch_ns
                + cost.tokenize_split_ns_per_byte * f.text_bytes_per_chunk()
                + cost.dispatch_ns
                + cost.parse_ns_per_value * (f.rows_per_chunk as f64 * f.cols as f64))
                * 1e-9;
        let serial_floor = per_chunk * f.n_chunks as f64;
        assert!(
            r.elapsed_secs >= serial_floor * 0.98,
            "{} vs floor {serial_floor}",
            r.elapsed_secs
        );
    }

    /// EXEC runs on the pool: with one worker, each chunk costs it TOKENIZE,
    /// PARSE and EXEC back to back (a stand-alone consumer would overlap
    /// EXEC with the next chunk's conversion).
    #[test]
    fn exec_costs_worker_time() {
        let f = file();
        let mut cost = CostModel::nominal();
        cost.engine_ns_per_value = cost.parse_ns_per_value;
        let c = SimConfig::new(1, WritePolicy::ExternalTables, cost.clone());
        let r = Simulator::new(c, f).run_query(&QuerySpec::full(&f));
        let values = f.rows_per_chunk as f64 * f.cols as f64;
        let per_chunk_ns = cost.dispatch_ns
            + cost.tokenize_split_ns_per_byte * f.text_bytes_per_chunk()
            + cost.dispatch_ns
            + cost.parse_ns_per_value * values
            + cost.engine_ns_per_value * values;
        let floor = 0.98 * f.n_chunks as f64 * per_chunk_ns * 1e-9;
        assert!(
            r.elapsed_secs >= floor,
            "{} vs floor {floor}",
            r.elapsed_secs
        );
    }

    /// A position lane without room hands tokenized chunks back to their
    /// workers: every chunk is still tokenized, parsed and executed exactly
    /// once, and no worker waits for lane room. (With one slot a worker that
    /// queues a chunk for PARSE takes it itself at once, so only the empty
    /// lane forces a hand-back on every chunk.)
    #[test]
    fn full_position_lane_hands_the_chunk_back() {
        let f = file();
        let mut c = cfg(2, WritePolicy::ExternalTables);
        c.record_timeline = true;
        let wide = Simulator::new(c.clone(), f).run_query(&QuerySpec::full(&f));
        for slots in [1, 0] {
            c.position_buffer = slots;
            let r = Simulator::new(c.clone(), f).run_query(&QuerySpec::full(&f));
            assert_eq!(r.from_raw, f.n_chunks);
            assert_eq!(r.cpu_spans.len(), 3 * f.n_chunks, "one span per stage");
            assert!(
                r.elapsed_secs <= wide.elapsed_secs * 1.01,
                "{slots} slots: {} vs {} with room",
                r.elapsed_secs,
                wide.elapsed_secs
            );
        }
    }
}
