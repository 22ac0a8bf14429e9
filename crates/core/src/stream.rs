//! The chunk stream a query plan consumes from ScanRaw.
//!
//! ScanRaw is not a pull-based operator: it pre-fetches chunks continuously
//! and the execution engine synchronizes with it through the binary chunks
//! buffer (paper §3.1, "Pre-fetching"). [`ChunkStream`] is the engine-facing
//! end of that buffer: an iterator of converted chunks plus a [`finish`]
//! method that tears the per-scan pipeline down and reports what happened.
//!
//! [`finish`]: ChunkStream::finish

use crate::operator::ScanQueue;
use crate::scheduler::{Event, SchedulerReport};
use crossbeam::channel::{Receiver, Sender};
use scanraw_obs::{Obs, ObsEvent, SpanCtx};
use scanraw_simio::SharedClock;
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
    pub from_cache: AtomicUsize,
    pub from_db: AtomicUsize,
    pub from_raw: AtomicUsize,
    /// Chunks served by a hybrid database+raw merge (§3.2.1).
    pub hybrid: AtomicUsize,
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
    pub read_handle: JoinHandle<Result<()>>,
    pub worker_handles: Vec<JoinHandle<()>>,
    pub scheduler_handle: JoinHandle<SchedulerReport>,
    pub events_tx: Sender<Event>,
    /// Block on the write barrier before reporting completion (ETL-style
    /// policies where loading is part of the query).
    pub wait_for_writes: bool,
    pub barrier: Box<dyn Fn() + Send>,
    pub counters: Arc<ScanCounters>,
    pub clock: SharedClock,
    pub started_at: Duration,
    pub obs: Obs,
    pub table: String,
    /// The scan's own span (child of the query root), ended when the stream
    /// finishes or is abandoned.
    pub scan_span: Option<SpanCtx>,
    /// The scan's work queue. Closing it is what shuts the pipeline down:
    /// READ stops feeding it and the workers leave their loop.
    pub queue: Arc<ScanQueue>,
    /// Size of the worker pool (0 = sequential regime, no EXEC service).
    pub workers: usize,
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
        (state.workers > 0).then(|| ExecHandle {
            queue: state.queue.clone(),
        })
    }

    /// Number of pool workers serving this scan (0 = sequential regime).
    pub fn workers(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.workers)
    }

    /// Consumes the rest of the stream, joins every pipeline thread, and
    /// returns the scan summary (or the first pipeline error).
    ///
    /// # Errors
    ///
    /// Returns the first error any pipeline stage reported (parse errors,
    /// I/O failures, a panicked worker), or a `Pipeline` error if the scan
    /// state was already torn down.
    pub fn finish(mut self) -> Result<ScanSummary> {
        // Drain whatever the engine did not consume.
        while self.next_chunk().is_some() {}
        // All producers are gone once the channel disconnects; drop our end.
        self.rx = None;

        let Some(state) = self.state.take() else {
            // Unreachable by construction (`finish` consumes `self`), but a
            // missing state must not abort the caller's thread.
            return Err(Error::Pipeline("scan state already torn down".into()));
        };
        // Every chunk is delivered; workers run the EXEC tasks still queued
        // and leave.
        state.queue.close();
        let read_result = state
            .read_handle
            .join()
            .map_err(|_| Error::Pipeline("READ thread panicked".into()))?;
        for h in state.worker_handles {
            h.join()
                .map_err(|_| Error::Pipeline("worker thread panicked".into()))?;
        }
        let _ = state.events_tx.send(Event::QueryDone);
        let report = state
            .scheduler_handle
            .join()
            .map_err(|_| Error::Pipeline("scheduler thread panicked".into()))?;
        if state.wait_for_writes {
            (state.barrier)();
        }
        let elapsed = state.clock.now().saturating_sub(state.started_at);
        if let Some(ctx) = state.scan_span {
            state.obs.trace.end(ctx.span);
        }
        state
            .obs
            .metrics
            .duration_histogram("query.latency.nanos")
            .observe_duration(elapsed);
        state.obs.event(ObsEvent::QueryEnd {
            table: state.table.clone(),
            chunks: self.delivered as u64,
            rows: self.rows,
            elapsed_micros: elapsed.as_micros() as u64,
        });

        if let Some(e) = self.first_error.take() {
            return Err(e);
        }
        read_result?;

        Ok(ScanSummary {
            chunks_delivered: self.delivered,
            // Acquire pairs with the pipeline threads' Release increments.
            from_cache: state.counters.from_cache.load(Ordering::Acquire),
            from_db: state.counters.from_db.load(Ordering::Acquire),
            from_raw: state.counters.from_raw.load(Ordering::Acquire),
            from_hybrid: state.counters.hybrid.load(Ordering::Acquire),
            skipped: state.counters.skipped.load(Ordering::Acquire),
            writes_queued: report.writes_queued,
            speculative_writes: report.speculative_writes,
            safeguard_writes: report.safeguard_writes,
            eviction_writes: report.eviction_writes,
            elapsed,
        })
    }
}

impl Iterator for ChunkStream {
    type Item = Arc<BinaryChunk>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk()
    }
}

impl Drop for ChunkStream {
    fn drop(&mut self) {
        // Abandoned stream: drop the receiver and close the queue so the
        // producers unwind, then join them to avoid leaking threads mid-scan.
        self.rx = None;
        if let Some(state) = self.state.take() {
            state.queue.close();
            let _ = state.read_handle.join();
            for h in state.worker_handles {
                let _ = h.join();
            }
            let _ = state.events_tx.send(Event::QueryDone);
            let _ = state.scheduler_handle.join();
            if let Some(ctx) = state.scan_span {
                state.obs.trace.end(ctx.span);
            }
        }
    }
}
