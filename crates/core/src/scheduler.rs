//! The loading policy, the scheduler thread that runs it, and the persistent
//! WRITE thread.
//!
//! The scheduler receives control messages (paper Figure 3) from READ, the
//! conversion workers, and WRITE, and hands them to the scan's
//! [`LoadPolicy`], which decides *when to load* according to the configured
//! [`WritePolicy`]:
//!
//! * **ExternalTables** — never writes;
//! * **Eager** — every converted chunk is stored (parallel ETL);
//! * **Buffered** — chunks are stored when evicted from the full binary
//!   cache;
//! * **Invisible** — the first `chunks_per_query` converted chunks of every
//!   query are stored, regardless of resource availability;
//! * **Speculative** — a chunk is stored only while READ is blocked (the
//!   disk is idle because the pipeline is CPU-bound), one chunk at a time,
//!   picking the *oldest unloaded* cached chunk; plus the end-of-scan
//!   *safeguard* that flushes the cache once the last raw chunk has been
//!   read (paper §4).
//!
//! The WRITE thread is persistent — it belongs to the operator, not to a
//! query — so a safeguard flush can overlap the tail of one query and the
//! beginning of the next. READ delays its first device access of a new scan
//! behind a write barrier, which is exactly the "only the reading of new
//! chunks from disk has to be delayed until flushing the cache" rule of §4.

use crate::cache::{ChunkCache, Evicted};
use crate::profile::{Profiler, Stage};
use crate::retry::{with_retry, RetryPolicy, DEGRADED_COUNTER};
use crossbeam::channel::{unbounded, Receiver, Sender};
use scanraw_obs::{EventJournal, Obs, ObsEvent, SpanCtx, WriteCause};
use scanraw_storage::Database;
use scanraw_types::{BinaryChunk, ChunkId, WritePolicy};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The control messages of paper Figure 3, as a [`LoadPolicy`] takes them.
/// `C` is how its host names a chunk and `V` an eviction victim.
#[derive(Debug)]
pub enum LoadEvent<C, V> {
    /// A worker finished converting a chunk (it is cached and delivered).
    Converted(C),
    /// The cache evicted a chunk to make room.
    Evicted(V),
    /// READ started waiting for room in the text-chunks buffer — the disk
    /// is idle from now until [`LoadEvent::ReadResumed`].
    ReadBlocked,
    /// READ's waiting chunk got through (or the scan is shutting down).
    ReadResumed,
    /// READ delivered the last raw chunk of this scan.
    RawScanComplete,
    /// WRITE finished storing a chunk.
    WriteDone(ChunkId),
    /// The engine consumed the whole scan; the scheduler should wind down.
    QueryDone,
}

/// The control messages flowing into the operator's scheduler thread.
pub type Event = LoadEvent<Arc<BinaryChunk>, Evicted>;

/// Commands for the WRITE thread.
pub(crate) enum WriteCmd {
    /// Store the named (chunk, column) cells; notify `events` when done.
    /// Columns absent from the chunk or already stored are skipped.
    Store {
        chunk: Arc<BinaryChunk>,
        /// Column cells to persist — the unit of column-granular loading.
        cols: Vec<usize>,
        notify: Option<Sender<Event>>,
        /// Span context of the scan that queued the store; the WRITE thread
        /// records the store as a `write.chunk` child span under it.
        trace: Option<SpanCtx>,
    },
    /// Reply on the channel once all previously queued stores completed.
    Barrier(Sender<()>),
    Shutdown,
}

/// Per-operator tracker of which columns the observed query history touches.
///
/// Every scan records its effective projection here; the speculative
/// scheduler then prioritizes (chunk, column) cells of *hot* columns —
/// columns some query actually read — and never spends idle device time on
/// cells no workload has asked for (workload-driven vertical partitioning).
/// Deterministic: ordering is by observation count descending, column index
/// ascending.
#[derive(Debug, Default)]
pub struct ColumnHeat {
    counts: parking_lot::Mutex<Vec<u64>>,
}

impl ColumnHeat {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query touching `cols` (the scan's effective projection).
    pub fn observe(&self, cols: &[usize]) {
        let mut counts = self.counts.lock();
        for &c in cols {
            if counts.len() <= c {
                counts.resize(c + 1, 0);
            }
            counts[c] += 1;
        }
    }

    /// Observation count of one column (0 when never observed).
    pub fn heat(&self, col: usize) -> u64 {
        self.counts.lock().get(col).copied().unwrap_or(0)
    }

    /// Columns observed at least once, hottest first (count descending,
    /// index ascending on ties).
    pub fn hot_columns(&self) -> Vec<usize> {
        let counts = self.counts.lock();
        let mut hot: Vec<(usize, u64)> = counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(c, &n)| (c, n))
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.into_iter().map(|(c, _)| c).collect()
    }

    /// Columns observed at least once, index ascending — the *registered*
    /// column set that defines column-granular full-loadedness.
    pub fn observed_columns(&self) -> Vec<usize> {
        let counts = self.counts.lock();
        counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(c, _)| c)
            .collect()
    }
}

/// The cells of `missing` worth storing: with query history, the missing
/// columns that are hot (hottest first); without any history, everything
/// missing (the paper's chunk-granular behaviour).
fn wanted_cols(missing: &[usize], hot: &[usize]) -> Vec<usize> {
    if hot.is_empty() {
        return missing.to_vec();
    }
    hot.iter()
        .copied()
        .filter(|c| missing.contains(c))
        .collect()
}

/// Handle to the persistent WRITE thread.
pub(crate) struct Writer {
    tx: Sender<WriteCmd>,
    handle: Option<JoinHandle<()>>,
    /// Stores queued or in progress.
    pending: Arc<AtomicU64>,
    /// Chunks successfully stored over the writer's lifetime.
    written: Arc<AtomicU64>,
    /// Sticky: set when a permanent device fault made loading impossible.
    degraded: Arc<AtomicBool>,
}

impl Writer {
    /// Spawns the WRITE thread for `table` over `db`, marking cache entries
    /// loaded as stores complete.
    ///
    /// Transient device faults are retried under `retry`; a permanent fault
    /// flips the sticky degraded flag, after which the scheduler stops
    /// queueing stores entirely (external-table mode) — queries keep
    /// answering from the raw file.
    ///
    /// # Errors
    ///
    /// Fails only if the OS refuses to spawn the thread.
    pub(crate) fn spawn(
        db: Database,
        table: String,
        cache: ChunkCache,
        profiler: Profiler,
        obs: Obs,
        retry: RetryPolicy,
    ) -> scanraw_types::Result<Self> {
        let (tx, rx): (Sender<WriteCmd>, Receiver<WriteCmd>) = unbounded();
        let pending = Arc::new(AtomicU64::new(0));
        let written = Arc::new(AtomicU64::new(0));
        let degraded = Arc::new(AtomicBool::new(false));
        let handle = {
            let pending = pending.clone();
            let written = written.clone();
            let degraded = degraded.clone();
            let clock = db.disk().clock().clone();
            let db_target = format!("db/{table}");
            std::thread::Builder::new()
                .name(format!("scanraw-write-{table}"))
                .spawn(move || {
                    while let Ok(cmd) = rx.recv() {
                        match cmd {
                            WriteCmd::Store {
                                chunk,
                                cols,
                                notify,
                                trace,
                            } => {
                                // The span covers the store including retries,
                                // so IO retry spans nest under `write.chunk`.
                                let _span = trace.map(|ctx| {
                                    obs.trace.enter(
                                        ctx,
                                        "write.chunk",
                                        vec![("chunk", chunk.id.0.to_string())],
                                    )
                                });
                                let t0 = clock.now();
                                // A failed store is fatal for loading but must
                                // not kill the pipeline: the cells simply stay
                                // unloaded and will be converted again next scan.
                                // Retries are safe — already-committed cells
                                // are skipped by the store's idempotence guard.
                                let res = with_retry(&retry, &clock, &obs, &db_target, || {
                                    db.store_chunk_cols(&table, &chunk, &cols).map(|_| ())
                                });
                                profiler.record(Stage::Write, clock.now().saturating_sub(t0));
                                match res {
                                    Ok(()) => {
                                        // Every requested present cell is now
                                        // durable (stored just now or by an
                                        // earlier store): flip the cache bits
                                        // and journal the confirmed cells.
                                        let stored: Vec<usize> = cols
                                            .iter()
                                            .copied()
                                            .filter(|&c| {
                                                chunk.columns.get(c).is_some_and(Option::is_some)
                                            })
                                            .collect();
                                        cache.mark_loaded(chunk.id, &stored);
                                        for &c in &stored {
                                            obs.event(ObsEvent::ColumnCellLoaded {
                                                chunk: chunk.id.0 as u64,
                                                column: c as u64,
                                            });
                                        }
                                        obs.metrics
                                            .counter("scanraw.cols.loaded_cells")
                                            .add(stored.len() as u64);
                                        // relaxed-ok: monotonic lifetime statistic; readers don't order on it
                                        written.fetch_add(1, Ordering::Relaxed);
                                    }
                                    Err(e) if !e.is_retryable() => {
                                        // Permanent fault: loading can no
                                        // longer make progress. Degrade once
                                        // to external-table mode.
                                        if !degraded.swap(true, Ordering::AcqRel) {
                                            obs.event(ObsEvent::LoadDegraded {
                                                chunk: chunk.id.0 as u64,
                                            });
                                            obs.metrics.counter(DEGRADED_COUNTER).inc();
                                        }
                                    }
                                    Err(_) => {
                                        // Retry budget exhausted on a transient
                                        // fault: the chunk stays unloaded and
                                        // will be converted again next scan.
                                    }
                                }
                                pending.fetch_sub(1, Ordering::Release);
                                if let Some(n) = notify {
                                    let _ = n.send(Event::WriteDone(chunk.id));
                                }
                            }
                            WriteCmd::Barrier(ack) => {
                                let _ = ack.send(());
                            }
                            WriteCmd::Shutdown => break,
                        }
                    }
                })
                .map_err(|e| scanraw_types::Error::Pipeline(format!("spawn WRITE: {e}")))?
        };
        Ok(Writer {
            tx,
            handle: Some(handle),
            pending,
            written,
            degraded,
        })
    }

    /// Queues a store of the named (chunk, column) cells. Returns false when
    /// the WRITE thread is gone (operator teardown raced the scheduler); the
    /// cells then simply stay unloaded.
    pub(crate) fn store(
        &self,
        chunk: Arc<BinaryChunk>,
        cols: Vec<usize>,
        notify: Option<Sender<Event>>,
        trace: Option<SpanCtx>,
    ) -> bool {
        self.pending.fetch_add(1, Ordering::Acquire);
        if self
            .tx
            .send(WriteCmd::Store {
                chunk,
                cols,
                notify,
                trace,
            })
            .is_err()
        {
            self.pending.fetch_sub(1, Ordering::Release);
            return false;
        }
        true
    }

    /// Blocks until every store queued before this call has completed. A
    /// dead WRITE thread means nothing is pending; returns immediately.
    pub(crate) fn barrier(&self) {
        let (ack_tx, ack_rx) = unbounded();
        if self.tx.send(WriteCmd::Barrier(ack_tx)).is_err() {
            return;
        }
        let _ = ack_rx.recv();
    }

    /// Stores queued or running right now.
    pub(crate) fn pending(&self) -> u64 {
        self.pending.load(Ordering::Acquire)
    }

    /// Chunks stored over the writer's lifetime.
    pub(crate) fn written(&self) -> u64 {
        // relaxed-ok: monotonic lifetime statistic; readers don't order on it
        self.written.load(Ordering::Relaxed)
    }

    /// True once a permanent device fault degraded loading; sticky for the
    /// writer's (= operator's) lifetime.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        let _ = self.tx.send(WriteCmd::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Per-scan scheduler outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerReport {
    /// Stores this scan queued to WRITE.
    pub writes_queued: u64,
    /// Stores triggered by the speculative READ-blocked rule.
    pub speculative_writes: u64,
    /// Stores triggered by the end-of-scan safeguard.
    pub safeguard_writes: u64,
    /// Stores triggered by cache eviction (buffered policy).
    pub eviction_writes: u64,
}

impl SchedulerReport {
    /// Reconstructs a report from the journal entries with `seq >= since`.
    ///
    /// The scheduler emits one journal event per store decision
    /// ([`ObsEvent::SpeculativeWriteTriggered`], [`ObsEvent::SafeguardFlush`]
    /// batches, [`ObsEvent::WriteQueued`] for the eager/invisible/eviction
    /// causes), so the per-scan report is fully derivable from the journal —
    /// this is what makes the journal, not the return value, the source of
    /// truth for tools like `explain_analyze`.
    pub fn from_journal(journal: &EventJournal, since: u64) -> SchedulerReport {
        let mut report = SchedulerReport::default();
        for entry in journal.entries() {
            if entry.seq < since {
                continue;
            }
            match entry.event {
                ObsEvent::SpeculativeWriteTriggered { .. } => {
                    report.writes_queued += 1;
                    report.speculative_writes += 1;
                }
                ObsEvent::SafeguardFlush { chunks } => {
                    report.writes_queued += chunks;
                    report.safeguard_writes += chunks;
                }
                ObsEvent::WriteQueued { cause, .. } => {
                    report.writes_queued += 1;
                    if cause == WriteCause::Eviction {
                        report.eviction_writes += 1;
                    }
                }
                // The report is a write-decision summary; every other event
                // is listed so a new journal event forces a decision on
                // whether it belongs in the report (L007).
                // ColumnCellLoaded records store *completions*, not
                // decisions — the WriteQueued/Speculative/Safeguard events
                // already counted the corresponding command.
                ObsEvent::QueryStart { .. }
                | ObsEvent::QueryEnd { .. }
                | ObsEvent::ReadBlocked { .. }
                | ObsEvent::ColumnCellLoaded { .. }
                | ObsEvent::CacheHit { .. }
                | ObsEvent::CacheMiss { .. }
                | ObsEvent::CacheEvict { .. }
                | ObsEvent::ChunkSkipped { .. }
                | ObsEvent::WorkerScaled { .. }
                | ObsEvent::IoRetry { .. }
                | ObsEvent::LoadDegraded { .. }
                | ObsEvent::DbReadFallback { .. }
                | ObsEvent::RecoveryCompleted { .. }
                | ObsEvent::TraceStarted { .. }
                | ObsEvent::TraceCompleted { .. }
                | ObsEvent::QueryAdmitted { .. }
                | ObsEvent::QueryRejected { .. }
                | ObsEvent::BatchFormed { .. }
                | ObsEvent::QueryServed { .. } => {}
            }
        }
        report
    }
}

/// Why a store is queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// The policy's own rule for a converted or evicted chunk.
    Policy(WriteCause),
    /// READ is blocked, so the disk is idle (§4).
    Speculative,
    /// The end-of-scan flush of what is still unloaded (§4).
    Safeguard,
}

/// What a [`LoadPolicy`] reads and does through whoever runs it: the
/// operator's scheduler thread, or the pipeline simulator.
pub trait LoadHost {
    /// How the host names a chunk: the operator hands over the chunk
    /// itself, the simulator its index.
    type Chunk;
    /// How the host reports an eviction.
    type Victim;
    fn chunk_id(chunk: &Self::Chunk) -> ChunkId;
    /// The evicted chunk and its cells the database lacks (none when it is
    /// loaded).
    fn victim(&self, victim: Self::Victim) -> (Self::Chunk, Vec<usize>);
    /// The cells a store of a just-converted chunk persists; none when the
    /// database already holds every one of them.
    fn unstored(&self, chunk: &Self::Chunk) -> Vec<usize>;
    /// Every cached chunk with unloaded wanted cells, oldest first, with
    /// those cells.
    fn unloaded_wanted(&self) -> Vec<(Self::Chunk, Vec<usize>)>;
    /// Hands a store to WRITE; false when WRITE did not take it.
    fn store(&mut self, chunk: Self::Chunk, cells: &[usize], trigger: Trigger) -> bool;
}

/// The loading policy of one scan: which cells to store, when, and why, for
/// every [`WritePolicy`]. A state machine with no thread, clock or channel;
/// the operator's scheduler drives it from its event channel and the
/// pipeline simulator from its event heap, so both run this one rule.
#[derive(Debug)]
pub struct LoadPolicy {
    policy: WritePolicy,
    /// Converted chunks still to store as they arrive: eager loading is
    /// invisible loading without the quota.
    quota: u64,
    cause: WriteCause,
    /// READ is blocked (between `ReadBlocked` and `ReadResumed`).
    read_blocked: bool,
    /// A speculative store is on its way; speculation stores one at a time.
    write_in_flight: bool,
    raw_scan_done: bool,
    /// Cells handed to WRITE during this scan (idempotence guard).
    queued: HashSet<(ChunkId, usize)>,
    report: SchedulerReport,
}

impl LoadPolicy {
    /// The policy of a new scan.
    pub fn new(policy: WritePolicy) -> Self {
        let (quota, cause) = match policy {
            WritePolicy::Eager => (u64::MAX, WriteCause::Eager),
            WritePolicy::Invisible { chunks_per_query } => {
                (chunks_per_query as u64, WriteCause::Invisible)
            }
            _ => (0, WriteCause::Invisible),
        };
        LoadPolicy {
            policy,
            quota,
            cause,
            read_blocked: false,
            write_in_flight: false,
            raw_scan_done: false,
            queued: HashSet::new(),
            report: SchedulerReport::default(),
        }
    }

    /// The stores this scan queued so far, by trigger.
    pub fn report(&self) -> SchedulerReport {
        self.report
    }

    /// Takes one event and hands `host` every store it decides on. Returns
    /// how many stores a safeguard flush queued on this event (0 when none
    /// ran), which the operator journals as one flush.
    pub fn on<H: LoadHost>(&mut self, event: LoadEvent<H::Chunk, H::Victim>, host: &mut H) -> u64 {
        let was_blocked = self.read_blocked;
        let mut flushed = 0;
        match event {
            LoadEvent::Converted(chunk) if self.quota > 0 => {
                let cells = host.unstored(&chunk);
                let trigger = Trigger::Policy(self.cause);
                if !cells.is_empty() && self.store(host, chunk, cells, trigger) {
                    self.quota -= 1;
                }
            }
            LoadEvent::Converted(_) => {}
            LoadEvent::Evicted(victim) if self.policy == WritePolicy::Buffered => {
                let (chunk, missing) = host.victim(victim);
                if !missing.is_empty() {
                    let trigger = Trigger::Policy(WriteCause::Eviction);
                    self.store(host, chunk, missing, trigger);
                }
            }
            LoadEvent::Evicted(_) => {}
            LoadEvent::ReadBlocked => self.read_blocked = true,
            LoadEvent::ReadResumed => self.read_blocked = false,
            LoadEvent::WriteDone(_) => self.write_in_flight = false,
            // Flush the cache's unloaded wanted cells; this overlaps the
            // remainder of query processing (§4).
            LoadEvent::RawScanComplete => {
                self.raw_scan_done = true;
                flushed = self.safeguard(host);
            }
            // Chunks that were still mid-pipeline when the raw scan
            // completed missed the first safeguard pass; flush them now so
            // every query is guaranteed to make loading progress. The writes
            // overlap the next query (the barrier only delays its first
            // device read).
            LoadEvent::QueryDone => return self.safeguard(host),
        }
        // The speculative rule (§4), level-triggered: while READ is blocked
        // the disk is idle, so store one chunk at a time — the oldest cached
        // chunk with missing *wanted* cells not yet handed to WRITE during
        // this scan. The level must have held since before this event: a
        // window a worker closes a few microseconds after it opened is not
        // an idle disk, and a store is as much CPU as a conversion. So the
        // rule fires on whatever arrives while READ stays blocked — a
        // conversion, an eviction, and the completion of the previous store.
        if was_blocked
            && self.read_blocked
            && !self.write_in_flight
            && matches!(self.policy, WritePolicy::Speculative { .. })
        {
            let next = self.unloaded_wanted(host).into_iter().next();
            self.write_in_flight = next
                .is_some_and(|(chunk, cells)| self.store(host, chunk, cells, Trigger::Speculative));
        }
        flushed
    }

    /// Hands one store to `host` and, when WRITE took it, remembers its
    /// cells and counts it.
    fn store<H: LoadHost>(
        &mut self,
        host: &mut H,
        chunk: H::Chunk,
        cells: Vec<usize>,
        trigger: Trigger,
    ) -> bool {
        let id = H::chunk_id(&chunk);
        if !host.store(chunk, &cells, trigger) {
            return false;
        }
        self.queued.extend(cells.into_iter().map(|c| (id, c)));
        let report = &mut self.report;
        report.writes_queued += 1;
        match trigger {
            Trigger::Policy(cause) => {
                report.eviction_writes += u64::from(cause == WriteCause::Eviction);
            }
            Trigger::Speculative => report.speculative_writes += 1,
            Trigger::Safeguard => report.safeguard_writes += 1,
        }
        true
    }

    /// The host's cached chunks with unloaded wanted cells, oldest first,
    /// less the cells already handed to WRITE during this scan.
    fn unloaded_wanted<H: LoadHost>(&self, host: &H) -> Vec<(H::Chunk, Vec<usize>)> {
        let unloaded = host.unloaded_wanted().into_iter();
        unloaded
            .filter_map(|(chunk, mut want)| {
                let id = H::chunk_id(&chunk);
                want.retain(|&c| !self.queued.contains(&(id, c)));
                (!want.is_empty()).then_some((chunk, want))
            })
            .collect()
    }

    /// The end-of-scan safeguard (§4): once the raw scan is complete, a
    /// store for every cached chunk with wanted cells still missing, oldest
    /// first. Returns how many WRITE took.
    fn safeguard<H: LoadHost>(&mut self, host: &mut H) -> u64 {
        let enabled = matches!(self.policy, WritePolicy::Speculative { safeguard: true });
        if !enabled || !self.raw_scan_done {
            return 0;
        }
        // Each cached chunk comes up once, so the cells queued on the way
        // cannot change what the rest of the batch wants.
        let batch = self.unloaded_wanted(host);
        let stored = |(chunk, cells)| self.store(host, chunk, cells, Trigger::Safeguard);
        batch
            .into_iter()
            .map(stored)
            .filter(|&stored| stored)
            .count() as u64
    }
}

/// The scheduler of one scan: the operator's parts it works with, borrowed
/// for the scan's duration.
pub(crate) struct Scheduler<'a> {
    pub policy: WritePolicy,
    pub cache: &'a ChunkCache,
    pub writer: &'a Writer,
    pub db: &'a Database,
    pub table: &'a str,
    pub heat: &'a ColumnHeat,
    pub obs: &'a Obs,
    pub scan_span: Option<SpanCtx>,
    /// Sender of the scheduler's own event stream, handed to WRITE so store
    /// completions come back as [`Event::WriteDone`].
    pub events_tx: Sender<Event>,
}

impl Scheduler<'_> {
    /// Runs the scan's [`LoadPolicy`] over the event stream: every store it
    /// decides on goes to WRITE and into the journal.
    ///
    /// Returns when [`Event::QueryDone`] arrives (sent by the chunk stream
    /// once the engine consumed everything and the pipeline threads joined).
    pub(crate) fn run(&mut self, events_rx: Receiver<Event>) -> SchedulerReport {
        let mut policy = LoadPolicy::new(self.policy);
        while let Ok(ev) = events_rx.recv() {
            let done = matches!(ev, Event::QueryDone);
            let chunks = policy.on(ev, self);
            if chunks > 0 {
                self.obs.event(ObsEvent::SafeguardFlush { chunks });
            }
            if done {
                break;
            }
        }
        policy.report()
    }
}

impl LoadHost for Scheduler<'_> {
    type Chunk = Arc<BinaryChunk>;
    type Victim = Evicted;

    fn chunk_id(chunk: &Arc<BinaryChunk>) -> ChunkId {
        chunk.id
    }

    fn victim(&self, victim: Evicted) -> (Arc<BinaryChunk>, Vec<usize>) {
        (victim.chunk, victim.missing_cols)
    }

    fn unstored(&self, chunk: &Arc<BinaryChunk>) -> Vec<usize> {
        let present = chunk.present_columns();
        let loaded = self.db.loaded_columns(self.table, chunk.id, &present);
        if loaded.is_ok_and(|l| l == present) {
            Vec::new()
        } else {
            present
        }
    }

    /// Wanted = hot columns of the observed query history; without
    /// history, every missing cell.
    fn unloaded_wanted(&self) -> Vec<(Arc<BinaryChunk>, Vec<usize>)> {
        let hot = self.heat.hot_columns();
        let unloaded = self.cache.unloaded_cells().into_iter();
        unloaded
            .filter_map(|(chunk, missing)| {
                let want = wanted_cols(&missing, &hot);
                (!want.is_empty()).then_some((chunk, want))
            })
            .collect()
    }

    /// Queues the store with WRITE and journals it the way
    /// [`SchedulerReport::from_journal`] reads it back. In degraded
    /// (external-table) mode nothing is queued at all: a permanent device
    /// fault means every further attempt would fail the same way.
    fn store(&mut self, chunk: Arc<BinaryChunk>, cells: &[usize], trigger: Trigger) -> bool {
        let id = chunk.id.0 as u64;
        // A safeguard store outlives the scan; nobody waits for it.
        let notify = (trigger != Trigger::Safeguard).then(|| self.events_tx.clone());
        let accepted = !self.writer.degraded()
            && self
                .writer
                .store(chunk, cells.to_vec(), notify, self.scan_span);
        if accepted {
            match trigger {
                Trigger::Policy(cause) => {
                    self.obs.event(ObsEvent::WriteQueued { chunk: id, cause });
                }
                Trigger::Speculative => {
                    self.obs
                        .event(ObsEvent::SpeculativeWriteTriggered { chunk: id });
                }
                // Journaled once per flush, by `run`.
                Trigger::Safeguard => {}
            }
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanraw_simio::SimDisk;
    use scanraw_types::{ColumnData, Schema};

    fn setup() -> (Database, ChunkCache, Writer) {
        setup_full(Obs::new(), 2)
    }

    fn setup_full(obs: Obs, budget: u32) -> (Database, ChunkCache, Writer) {
        setup_cols(obs, budget, 1)
    }

    fn setup_cols(obs: Obs, budget: u32, n_cols: usize) -> (Database, ChunkCache, Writer) {
        let db = Database::new(SimDisk::instant());
        db.create_table("t", Schema::uniform_ints(n_cols), "t.csv")
            .unwrap();
        let cache = ChunkCache::new(8);
        let writer = Writer::spawn(
            db.clone(),
            "t".to_string(),
            cache.clone(),
            Profiler::new(&obs.metrics),
            obs,
            RetryPolicy {
                budget,
                backoff: std::time::Duration::from_micros(100),
            },
        )
        .expect("spawn writer");
        (db, cache, writer)
    }

    fn chunk(id: u32) -> Arc<BinaryChunk> {
        Arc::new(BinaryChunk {
            id: ChunkId(id),
            first_row: 0,
            rows: 2,
            columns: vec![Some(ColumnData::Int64(vec![id as i64, 2]))],
        })
    }

    #[test]
    fn writer_stores_and_marks_cache() {
        let (db, cache, writer) = setup();
        cache.insert(chunk(0), &[]);
        assert!(writer.store(chunk(0), vec![0], None, None));
        writer.barrier();
        assert_eq!(writer.written(), 1);
        assert_eq!(writer.pending(), 0);
        assert!(db.load_chunk("t", ChunkId(0), &[0]).is_ok());
        assert!(cache.unloaded_cells().is_empty(), "cache marked loaded");
    }

    #[test]
    fn writer_journals_loaded_cells() {
        let obs = Obs::new();
        let (db, cache, writer) = setup_full(obs.clone(), 2);
        cache.insert(chunk(0), &[]);
        assert!(writer.store(chunk(0), vec![0], None, None));
        writer.barrier();
        assert_eq!(
            obs.journal.count_where(|e| matches!(
                e,
                ObsEvent::ColumnCellLoaded {
                    chunk: 0,
                    column: 0
                }
            )),
            1
        );
        assert_eq!(
            obs.metrics.counter_value("scanraw.cols.loaded_cells"),
            Some(1)
        );
        let _ = db;
    }

    #[test]
    fn barrier_orders_after_stores() {
        let (_db, _cache, writer) = setup();
        for i in 0..16 {
            assert!(writer.store(chunk(i), vec![0], None, None));
        }
        writer.barrier();
        assert_eq!(writer.pending(), 0);
        assert_eq!(writer.written(), 16);
    }

    #[test]
    fn column_heat_orders_hottest_first() {
        let heat = ColumnHeat::new();
        assert!(heat.hot_columns().is_empty());
        heat.observe(&[0, 3]);
        heat.observe(&[3]);
        heat.observe(&[5]);
        assert_eq!(heat.heat(3), 2);
        assert_eq!(heat.heat(1), 0);
        assert_eq!(heat.hot_columns(), vec![3, 0, 5], "count desc, index asc");
        assert_eq!(heat.observed_columns(), vec![0, 3, 5]);
        // Without history everything missing is wanted; with history only
        // the hot subset, hottest first.
        assert_eq!(wanted_cols(&[1, 3, 5], &[]), vec![1, 3, 5]);
        assert_eq!(wanted_cols(&[1, 3, 5], &heat.hot_columns()), vec![3, 5]);
    }

    /// An untraced scheduler over table "t".
    fn scheduler<'a>(
        policy: WritePolicy,
        cache: &'a ChunkCache,
        writer: &'a Writer,
        db: &'a Database,
        heat: &'a ColumnHeat,
        obs: &'a Obs,
        events_tx: Sender<Event>,
    ) -> Scheduler<'a> {
        Scheduler {
            policy,
            cache,
            writer,
            db,
            table: "t",
            heat,
            obs,
            scan_span: None,
            events_tx,
        }
    }

    fn run_policy_heat(
        policy: WritePolicy,
        events: Vec<Event>,
        heat: &ColumnHeat,
    ) -> (Database, SchedulerReport, Obs) {
        let (db, cache, writer) = setup();
        let (tx, rx) = unbounded();
        for ev in events {
            // Pre-stage converted chunks into the cache like the pipeline does.
            if let Event::Converted(c) = &ev {
                cache.insert(c.clone(), &[]);
            }
            tx.send(ev).unwrap();
        }
        tx.send(Event::QueryDone).unwrap();
        let obs = Obs::new();
        let report = scheduler(policy, &cache, &writer, &db, heat, &obs, tx).run(rx);
        writer.barrier();
        (db, report, obs)
    }

    fn run_policy_obs(policy: WritePolicy, events: Vec<Event>) -> (Database, SchedulerReport, Obs) {
        run_policy_heat(policy, events, &ColumnHeat::new())
    }

    fn run_policy(policy: WritePolicy, events: Vec<Event>) -> (Database, SchedulerReport) {
        let (db, report, obs) = run_policy_obs(policy, events);
        // Every policy path must journal its decisions faithfully: the
        // report reconstructed from the journal always matches the one the
        // scheduler returned.
        assert_eq!(
            SchedulerReport::from_journal(&obs.journal, 0),
            report,
            "journal-derived report diverged"
        );
        (db, report)
    }

    #[test]
    fn external_tables_never_writes() {
        let (db, report) = run_policy(
            WritePolicy::ExternalTables,
            vec![
                Event::Converted(chunk(0)),
                Event::ReadBlocked,
                Event::RawScanComplete,
            ],
        );
        assert_eq!(report.writes_queued, 0);
        assert!(db.load_chunk("t", ChunkId(0), &[0]).is_err());
    }

    #[test]
    fn eager_writes_every_chunk() {
        let (db, report) = run_policy(
            WritePolicy::Eager,
            vec![Event::Converted(chunk(0)), Event::Converted(chunk(1))],
        );
        assert_eq!(report.writes_queued, 2);
        assert!(db.load_chunk("t", ChunkId(0), &[0]).is_ok());
        assert!(db.load_chunk("t", ChunkId(1), &[0]).is_ok());
    }

    #[test]
    fn invisible_respects_quota() {
        let (db, report) = run_policy(
            WritePolicy::Invisible {
                chunks_per_query: 2,
            },
            vec![
                Event::Converted(chunk(0)),
                Event::Converted(chunk(1)),
                Event::Converted(chunk(2)),
            ],
        );
        assert_eq!(report.writes_queued, 2);
        assert!(db.load_chunk("t", ChunkId(2), &[0]).is_err());
    }

    #[test]
    fn buffered_writes_only_evictions() {
        let ev = Evicted {
            id: ChunkId(3),
            chunk: chunk(3),
            loaded: false,
            missing_cols: vec![0],
        };
        let (db, report) = run_policy(
            WritePolicy::Buffered,
            vec![Event::Converted(chunk(0)), Event::Evicted(ev)],
        );
        assert_eq!(report.writes_queued, 1);
        assert_eq!(report.eviction_writes, 1);
        assert!(db.load_chunk("t", ChunkId(3), &[0]).is_ok());
        assert!(db.load_chunk("t", ChunkId(0), &[0]).is_err());
    }

    #[test]
    fn buffered_skips_already_loaded_evictions() {
        let ev = Evicted {
            id: ChunkId(3),
            chunk: chunk(3),
            loaded: true,
            missing_cols: Vec::new(),
        };
        let (_db, report) = run_policy(WritePolicy::Buffered, vec![Event::Evicted(ev)]);
        assert_eq!(report.writes_queued, 0);
    }

    // The WRITE thread's own completions land in the channel behind the
    // pre-staged `QueryDone`, so the only `WriteDone`s these schedules see
    // are the ones they inject: the counts below are exact.

    #[test]
    fn speculative_writes_oldest_while_read_stays_blocked() {
        let (db, report) = run_policy(
            WritePolicy::speculative(),
            vec![
                Event::Converted(chunk(4)),
                Event::ReadBlocked,
                Event::Converted(chunk(5)), // READ still blocked: stores chunk 4
            ],
        );
        assert_eq!(report.speculative_writes, 1);
        assert!(db.load_chunk("t", ChunkId(4), &[0]).is_ok(), "oldest first");
        assert!(db.load_chunk("t", ChunkId(5), &[0]).is_err());
    }

    #[test]
    fn window_that_closes_at_once_stores_nothing() {
        let (_db, report) = run_policy(
            WritePolicy::speculative(),
            vec![
                Event::Converted(chunk(0)),
                Event::ReadBlocked,
                Event::ReadResumed, // a worker took a chunk right away
                Event::Converted(chunk(1)),
            ],
        );
        assert_eq!(report.speculative_writes, 0);
    }

    #[test]
    fn speculative_one_at_a_time_until_write_done() {
        let (_db, report) = run_policy(
            WritePolicy::speculative(),
            vec![
                Event::Converted(chunk(0)),
                Event::Converted(chunk(1)),
                Event::ReadBlocked,
                Event::Converted(chunk(2)), // stores chunk 0
                Event::Converted(chunk(3)), // still blocked, but a store is in flight
            ],
        );
        assert_eq!(report.speculative_writes, 1);
    }

    #[test]
    fn write_done_while_blocked_triggers_next_store() {
        let (db, report) = run_policy(
            WritePolicy::speculative(),
            vec![
                Event::Converted(chunk(0)),
                Event::Converted(chunk(1)),
                Event::ReadBlocked,
                Event::Converted(chunk(2)),   // stores chunk 0
                Event::WriteDone(ChunkId(0)), // READ never resumed: chunk 1
                Event::WriteDone(ChunkId(1)), // chunk 2
                Event::WriteDone(ChunkId(2)), // nothing left
            ],
        );
        assert_eq!(report.speculative_writes, 3);
        for id in 0..3 {
            assert!(db.load_chunk("t", ChunkId(id), &[0]).is_ok(), "chunk {id}");
        }
    }

    #[test]
    fn read_resumed_stops_further_stores() {
        let (db, report) = run_policy(
            WritePolicy::speculative(),
            vec![
                Event::Converted(chunk(0)),
                Event::Converted(chunk(1)),
                Event::ReadBlocked,
                Event::Converted(chunk(2)), // stores chunk 0
                Event::ReadResumed,
                Event::WriteDone(ChunkId(0)), // the disk is READ's again: no store
                Event::ReadBlocked,
                Event::Converted(chunk(3)), // the next window stores chunk 1
            ],
        );
        assert_eq!(report.speculative_writes, 2);
        assert!(db.load_chunk("t", ChunkId(1), &[0]).is_ok());
        assert!(db.load_chunk("t", ChunkId(2), &[0]).is_err());
    }

    #[test]
    fn speculative_stores_only_hot_columns() {
        // A two-column table whose query history only ever touched column 1:
        // both the speculative pick and the safeguard must persist column 1's
        // cells and leave column 0 cold.
        let (db, cache, writer) = setup_cols(Obs::new(), 2, 2);
        let wide = |id: u32| {
            Arc::new(BinaryChunk {
                id: ChunkId(id),
                first_row: 0,
                rows: 2,
                columns: vec![
                    Some(ColumnData::Int64(vec![id as i64, 2])),
                    Some(ColumnData::Int64(vec![10, 11])),
                ],
            })
        };
        let heat = ColumnHeat::new();
        heat.observe(&[1]);
        let (tx, rx) = unbounded();
        for id in 0..2 {
            cache.insert(wide(id), &[]);
            tx.send(Event::Converted(wide(id))).unwrap();
        }
        tx.send(Event::ReadBlocked).unwrap();
        tx.send(Event::RawScanComplete).unwrap();
        tx.send(Event::QueryDone).unwrap();
        let obs = Obs::new();
        let report = scheduler(
            WritePolicy::speculative(),
            &cache,
            &writer,
            &db,
            &heat,
            &obs,
            tx,
        )
        .run(rx);
        writer.barrier();
        assert!(report.writes_queued >= 2);
        for id in 0..2u32 {
            assert_eq!(
                db.loaded_columns("t", ChunkId(id), &[0, 1]).unwrap(),
                vec![1],
                "only the hot column cell of chunk {id} may be stored"
            );
        }
    }

    #[test]
    fn safeguard_flushes_cache_at_scan_end() {
        let (db, report) = run_policy(
            WritePolicy::speculative(),
            vec![
                Event::Converted(chunk(0)),
                Event::Converted(chunk(1)),
                Event::RawScanComplete,
            ],
        );
        assert_eq!(report.safeguard_writes, 2);
        assert!(db.load_chunk("t", ChunkId(0), &[0]).is_ok());
        assert!(db.load_chunk("t", ChunkId(1), &[0]).is_ok());
    }

    #[test]
    fn journal_report_respects_since_seq() {
        let (_db, report, obs) = run_policy_obs(
            WritePolicy::speculative(),
            vec![
                Event::Converted(chunk(0)),
                Event::Converted(chunk(1)),
                Event::RawScanComplete,
            ],
        );
        assert_eq!(report.safeguard_writes, 2);
        let full = SchedulerReport::from_journal(&obs.journal, 0);
        assert_eq!(full, report);
        // A `since` past the last entry sees an empty scan.
        let next_seq = obs.journal.total_recorded();
        let empty = SchedulerReport::from_journal(&obs.journal, next_seq);
        assert_eq!(empty, SchedulerReport::default());
    }

    #[test]
    fn safeguard_disabled_leaves_cache_unflushed() {
        let (db, report) = run_policy(
            WritePolicy::Speculative { safeguard: false },
            vec![Event::Converted(chunk(0)), Event::RawScanComplete],
        );
        assert_eq!(report.safeguard_writes, 0);
        assert!(db.load_chunk("t", ChunkId(0), &[0]).is_err());
    }

    #[cfg(feature = "fault-inject")]
    mod faults {
        use super::*;
        use crate::retry::DEGRADED_COUNTER;
        use scanraw_simio::{FaultConfig, FaultPlan};

        #[test]
        fn transient_store_faults_are_retried_to_success() {
            // With max_consecutive = 1 and certain transient faults, the
            // worst case is fail / ok+fail / fail / ok+ok — 3 retries.
            let (db, cache, writer) = setup_full(Obs::new(), 4);
            db.disk().set_fault_plan(FaultPlan::new(FaultConfig {
                target: "db/".into(),
                p_transient: 1.0,
                max_consecutive: 1,
                ..FaultConfig::seeded(3)
            }));
            cache.insert(chunk(0), &[]);
            assert!(writer.store(chunk(0), vec![0], None, None));
            writer.barrier();
            assert!(!writer.degraded());
            assert_eq!(writer.written(), 1);
            db.disk().clear_fault_plan();
            assert!(db.load_chunk("t", ChunkId(0), &[0]).is_ok());
        }

        #[test]
        fn permanent_store_fault_degrades_and_stops_queueing() {
            let obs = Obs::new();
            let (db, cache, writer) = setup_full(obs.clone(), 2);
            db.disk().set_fault_plan(FaultPlan::new(FaultConfig {
                target: "db/".into(),
                permanent_after: Some(0),
                ..FaultConfig::seeded(7)
            }));
            cache.insert(chunk(0), &[]);
            assert!(writer.store(chunk(0), vec![0], None, None));
            writer.barrier();
            assert!(writer.degraded(), "permanent fault must degrade loading");
            assert_eq!(writer.written(), 0);
            assert!(
                !cache.unloaded_cells().is_empty(),
                "failed cell must not be marked loaded"
            );
            assert!(obs
                .journal
                .entries()
                .iter()
                .any(|e| matches!(e.event, ObsEvent::LoadDegraded { .. })));
            assert_eq!(obs.metrics.counter_value(DEGRADED_COUNTER), Some(1));

            // External-table mode: every policy path stops queueing stores.
            let (tx, rx) = unbounded();
            cache.insert(chunk(1), &[]);
            tx.send(Event::Converted(chunk(1))).unwrap();
            tx.send(Event::ReadBlocked).unwrap();
            tx.send(Event::RawScanComplete).unwrap();
            tx.send(Event::QueryDone).unwrap();
            let heat = ColumnHeat::new();
            let report = scheduler(
                WritePolicy::speculative(),
                &cache,
                &writer,
                &db,
                &heat,
                &obs,
                tx,
            )
            .run(rx);
            assert_eq!(report.writes_queued, 0, "degraded mode queues nothing");
        }
    }
}
