//! The chunk stream a query plan consumes from ScanRaw.
//!
//! ScanRaw is not a pull-based operator: it pre-fetches chunks continuously
//! and the execution engine synchronizes with it through the binary chunks
//! buffer (paper §3.1, "Pre-fetching"). [`ChunkStream`] is the engine-facing
//! end of that buffer: an iterator of converted chunks plus a [`finish`]
//! method that tears the per-scan pipeline down and reports what happened.
//!
//! [`finish`]: ChunkStream::finish

use crate::operator::{ChunkSource, ScanQueue, ScanRaw};
use crate::scheduler::{Event, SchedulerReport};
use crossbeam::channel::{Receiver, Sender};
use scanraw_obs::{ObsEvent, SpanCtx};
use scanraw_types::{BinaryChunk, Error, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of consumer-side work (predicate evaluation + partial aggregation
/// over one delivered chunk) handed to the worker pool.
pub type ExecTask = Box<dyn FnOnce() + Send + 'static>;

/// Engine-facing handle for submitting [`ExecTask`]s to the scan's worker
/// pool. Cloneable; the pool serves tasks until the stream is finished or
/// dropped, and runs every task accepted before that.
#[derive(Clone)]
pub struct ExecHandle {
    queue: Arc<ScanQueue>,
}

impl ExecHandle {
    /// Submits a task to the worker pool. On failure (the pool has already
    /// shut down) the task is handed back so the caller can run it inline.
    ///
    /// # Errors
    ///
    /// Returns `Err(task)` when the scan's queue is closed; the task has not
    /// run and ownership returns to the caller.
    pub fn submit(&self, task: ExecTask) -> std::result::Result<(), ExecTask> {
        self.queue.push_exec(task)
    }
}

/// Counters shared between the pipeline threads and the stream.
///
/// Pipeline threads increment with `Release` stores and [`ChunkStream::finish`]
/// reads with `Acquire` loads, so the totals observed at `finish()` are
/// ordered after every pipeline-side increment even though the thread joins
/// already provide a happens-before edge — the explicit pairing keeps the
/// counters correct if a future refactor reads them mid-scan.
#[derive(Debug, Default)]
pub(crate) struct ScanCounters {
    /// Chunks served by each source, indexed by `ChunkSource as usize`.
    pub served: [AtomicUsize; 4],
    pub skipped: AtomicUsize,
}

/// What one scan did, returned by [`ChunkStream::finish`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScanSummary {
    /// Chunks delivered to the engine.
    pub chunks_delivered: usize,
    /// Delivered straight from the binary chunks cache.
    pub from_cache: usize,
    /// Read from the database in binary format (no tokenize/parse).
    pub from_db: usize,
    /// Converted from the raw file.
    pub from_raw: usize,
    /// Served by a hybrid merge: loaded columns from the database, missing
    /// columns converted from the raw file (§3.2.1).
    pub from_hybrid: usize,
    /// Skipped entirely via min/max chunk statistics.
    pub skipped: usize,
    /// Stores queued by the scheduling policy during this scan.
    pub writes_queued: u64,
    /// … of which triggered by the speculative READ-blocked rule.
    pub speculative_writes: u64,
    /// … of which triggered by the end-of-scan safeguard.
    pub safeguard_writes: u64,
    /// … of which triggered by cache eviction (buffered policy).
    pub eviction_writes: u64,
    /// Wall (or virtual) time from scan start to `finish`.
    pub elapsed: Duration,
}

pub(crate) struct ScanState {
    /// The operator being scanned: its clock, write barrier and journal are
    /// what the teardown reports through.
    pub op: Arc<ScanRaw>,
    pub read_handle: JoinHandle<Result<()>>,
    pub worker_handles: Vec<JoinHandle<()>>,
    pub scheduler_handle: JoinHandle<SchedulerReport>,
    pub events_tx: Sender<Event>,
    pub counters: Arc<ScanCounters>,
    pub started_at: Duration,
    /// The scan's own span (child of the query root), ended when the stream
    /// finishes or is abandoned.
    pub scan_span: Option<SpanCtx>,
    /// The scan's work queue. Closing it is what shuts the pipeline down:
    /// READ stops feeding it and the workers leave their loop.
    pub queue: Arc<ScanQueue>,
}

/// Stream of converted chunks produced by one [`crate::ScanRaw::scan`].
pub struct ChunkStream {
    rx: Option<Receiver<Result<Arc<BinaryChunk>>>>,
    state: Option<ScanState>,
    delivered: usize,
    rows: u64,
    first_error: Option<Error>,
}

impl ChunkStream {
    pub(crate) fn new(rx: Receiver<Result<Arc<BinaryChunk>>>, state: ScanState) -> Self {
        ChunkStream {
            rx: Some(rx),
            state: Some(state),
            delivered: 0,
            rows: 0,
            first_error: None,
        }
    }

    /// Next converted chunk; `None` when the scan is exhausted. Errors from
    /// the pipeline surface here once and end the stream.
    pub fn next_chunk(&mut self) -> Option<Arc<BinaryChunk>> {
        let rx = self.rx.as_ref()?;
        loop {
            match rx.recv() {
                Ok(Ok(chunk)) => {
                    self.delivered += 1;
                    self.rows += chunk.rows as u64;
                    return Some(chunk);
                }
                Ok(Err(e)) => {
                    if self.first_error.is_none() {
                        self.first_error = Some(e);
                    }
                    // Keep draining; the pipeline unwinds after an error.
                }
                Err(_) => return None,
            }
        }
    }

    /// Handle for submitting consumer-execution tasks to the scan's worker
    /// pool, or `None` when the scan runs in the sequential regime (zero
    /// workers). Tasks are served concurrently with TOKENIZE/PARSE while the
    /// conversion side is active and exclusively afterwards.
    pub fn exec_handle(&self) -> Option<ExecHandle> {
        let state = self.state.as_ref()?;
        // The sequential regime has no pool: accepted work would be stranded.
        (!state.worker_handles.is_empty()).then(|| ExecHandle {
            queue: state.queue.clone(),
        })
    }

    /// Consumes the rest of the stream, joins every pipeline thread, and
    /// returns the scan summary (or the first pipeline error).
    ///
    /// # Errors
    ///
    /// Returns the first error any pipeline stage reported (parse errors,
    /// I/O failures, a panicked worker).
    pub fn finish(mut self) -> Result<ScanSummary> {
        // Drain whatever the engine did not consume.
        while self.next_chunk().is_some() {}
        let Some((counters, elapsed, joined)) = self.teardown(true) else {
            return Err(Error::Pipeline("scan state already torn down".into()));
        };
        let (read_result, report) = joined?;
        if let Some(e) = self.first_error.take() {
            return Err(e);
        }
        read_result?;

        // Acquire pairs with the pipeline threads' Release increments.
        let served = |s: ChunkSource| counters.served[s as usize].load(Ordering::Acquire);
        Ok(ScanSummary {
            chunks_delivered: self.delivered,
            from_cache: served(ChunkSource::Cache),
            from_db: served(ChunkSource::Db),
            from_raw: served(ChunkSource::Raw),
            from_hybrid: served(ChunkSource::Hybrid),
            skipped: counters.skipped.load(Ordering::Acquire),
            writes_queued: report.writes_queued,
            speculative_writes: report.speculative_writes,
            safeguard_writes: report.safeguard_writes,
            eviction_writes: report.eviction_writes,
            elapsed,
        })
    }

    /// The one pipeline teardown, behind [`ChunkStream::finish`] and `Drop`:
    /// drops the receiver and closes the queue so every producer unwinds —
    /// workers run the EXEC tasks still queued and leave — joins READ, the
    /// workers and, once told the query is done, the scheduler, and ends the
    /// scan span. Every thread is joined even when one of them panicked. An
    /// abandoned stream (`finished` false) waits for no write and journals
    /// no latency or `QueryEnd`. Returns the scan's counters, its duration,
    /// and READ's result with the scheduler's report (or which thread
    /// panicked); `None` when the pipeline is already torn down.
    fn teardown(&mut self, finished: bool) -> Option<(Arc<ScanCounters>, Duration, Joined)> {
        self.rx = None;
        let state = self.state.take()?;
        state.queue.close();
        let read = state.read_handle.join();
        let workers = state.worker_handles.into_iter().map(JoinHandle::join);
        let workers_ok = workers.fold(true, |ok, joined| ok & joined.is_ok());
        let _ = state.events_tx.send(Event::QueryDone);
        let report = state.scheduler_handle.join();
        let (op, obs) = (&state.op, state.op.obs());
        // Under the ETL-style policies loading is part of the query: block
        // on the write barrier before reporting completion.
        if finished && op.config().write_policy.loads_within_query() {
            op.drain_writes();
        }
        let elapsed = (op.database().disk().clock().now()).saturating_sub(state.started_at);
        if let Some(ctx) = state.scan_span {
            obs.trace.end(ctx.span);
        }
        if finished {
            obs.metrics
                .duration_histogram("query.latency.nanos")
                .observe_duration(elapsed);
            obs.event(ObsEvent::QueryEnd {
                table: op.table().to_string(),
                chunks: self.delivered as u64,
                rows: self.rows,
                elapsed_micros: elapsed.as_micros() as u64,
            });
        }
        let panicked = |who: &str| Error::Pipeline(format!("{who} thread panicked"));
        let joined = match (read, workers_ok, report) {
            (Ok(read), true, Ok(report)) => Ok((read, report)),
            (Err(_), ..) => Err(panicked("READ")),
            (_, false, _) => Err(panicked("worker")),
            _ => Err(panicked("scheduler")),
        };
        Some((state.counters, elapsed, joined))
    }
}

/// READ's own result and the scheduler's report, once every pipeline thread
/// is joined; the error is a thread that panicked.
type Joined = Result<(Result<()>, SchedulerReport)>;

impl Iterator for ChunkStream {
    type Item = Arc<BinaryChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk()
    }
}

impl Drop for ChunkStream {
    fn drop(&mut self) {
        // Abandoned unless `finish` already tore the pipeline down; joining
        // the producers avoids leaking threads mid-scan.
        self.teardown(false);
    }
}
