//! The ScanRaw operator: per-file state plus the per-scan pipeline.
//!
//! One [`ScanRaw`] instance is attached to one raw file and lives across
//! queries (paper §3.3): it owns the binary chunks cache, the persistent
//! WRITE thread, and the learned chunk layout. Each [`ScanRaw::scan`] spawns
//! the per-scan pipeline — READ thread, conversion worker pool, scheduler —
//! and returns a [`ChunkStream`] the execution engine consumes.
//!
//! Chunk delivery order follows §3.2.1: cached chunks first, then chunks
//! loaded in the database (binary read, no conversion), then hybrid and
//! raw-file chunks through the TOKENIZE/PARSE pipeline. The plan is one list
//! in that order and READ is one loop over it: `ScanRaw::fetch` serves each
//! chunk from its planned source or, when that source no longer has it, from
//! the next one down the same cascade (cache → db → raw, db → raw, hybrid →
//! raw), under one `read.chunk` span tagged with the `source` that served
//! (and `planned`, when the plan said another). The §4 write barrier — READ
//! waits for the previous query's pending stores — sits in front of the
//! scan's first device access, whichever source makes it.

use crate::cache::ChunkCache;
use crate::profile::{Profiler, Stage};
use crate::queue::{TextPushError, Work, WorkQueue};
use crate::retry::{with_retry, RetryPolicy, DB_FALLBACK_COUNTER};
use crate::scheduler::{ColumnHeat, Event, Scheduler, Writer};
use crate::stream::{ChunkStream, ExecTask, ScanCounters, ScanState};
use crossbeam::channel::{bounded, unbounded, Sender};
use parking_lot::Mutex;
use scanraw_obs::trace::{self, worker_label, SpanCtx};
use scanraw_obs::{Obs, ObsEvent};
use scanraw_rawfile::chunker::{read_chunk_at, ChunkReader};
use scanraw_rawfile::{ConversionPlan, TextDialect};
use scanraw_storage::{Database, TableEntry};
use scanraw_types::{
    BinaryChunk, ChunkId, ChunkMeta, Error, PositionalMap, RangePredicate, Result, ScanRawConfig,
    Schema, TextChunk,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Push-down selection request: predicate columns are parsed first, the rest
/// only for qualifying rows (paper §2, PARSE). Chunks produced under push-down
/// contain only qualifying rows and are therefore neither cached nor loaded
/// — the paper's bookkeeping argument against mixing push-down with loading.
pub struct PushdownFilter {
    /// Columns the predicate needs.
    pub columns: Vec<usize>,
    /// Row predicate over the values of `columns`, in order.
    pub predicate: RowPredicateFn,
}

/// Shared row predicate: receives the pushed-down columns' values, in order.
pub type RowPredicateFn = scanraw_rawfile::RowPredicate;

impl std::fmt::Debug for PushdownFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PushdownFilter")
            .field("columns", &self.columns)
            .finish_non_exhaustive()
    }
}

/// Resource-manager feedback derived from the operator's own measurements
/// (paper §3.3, "Resource management"): the scheduler is in the best position
/// to monitor utilization, and relays requests for more CPU — or offers to
/// release it — to the database resource manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResourceAdvice {
    /// Conversion dominates: the pipeline would profit from more workers.
    CpuBound {
        /// Workers that would bring conversion in balance with the device.
        suggested_workers: usize,
    },
    /// The device dominates: extra workers sit idle and can be released.
    IoBound {
        /// Workers sufficient to keep up with the device.
        sufficient_workers: usize,
    },
    /// Conversion and device throughput are within 20% of each other.
    Balanced,
    /// Not enough measurements yet (no conversions or no device activity).
    Unknown,
}

/// Which columns the conversion stages materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvertScope {
    /// Convert every column of the schema regardless of the projection —
    /// optimal when execution is I/O-bound, and the paper's experimental
    /// default ("converting all the columns from the raw file is the optimal
    /// choice since it avoids additional reading", §3.2.1).
    AllColumns,
    /// Convert only the projected columns (selective parsing).
    ProjectionOnly,
}

/// One scan request from the execution engine.
#[derive(Debug, Clone)]
pub struct ScanRequest {
    /// Columns the query needs (order irrelevant; deduplicated).
    pub projection: Vec<usize>,
    pub convert: ConvertScope,
    /// Range predicate for chunk skipping via min/max statistics.
    pub skip_predicate: Option<RangePredicate>,
    /// Push-down selection evaluated during PARSE (disables caching and
    /// loading of the produced chunks).
    pub pushdown: Option<Arc<PushdownFilter>>,
    /// Causal-trace context of the issuing query. When set, the scan and
    /// every stage it runs record child spans under it.
    pub trace: Option<SpanCtx>,
}

impl ScanRequest {
    /// Scan that needs the given columns, converting all (paper default).
    pub fn all_columns(projection: impl Into<Vec<usize>>) -> Self {
        ScanRequest {
            projection: projection.into(),
            convert: ConvertScope::AllColumns,
            skip_predicate: None,
            pushdown: None,
            trace: None,
        }
    }

    /// Scan converting only the projected columns.
    pub fn projected(projection: impl Into<Vec<usize>>) -> Self {
        ScanRequest {
            convert: ConvertScope::ProjectionOnly,
            ..Self::all_columns(projection)
        }
    }

    /// Attaches a push-down selection filter.
    pub fn with_pushdown(mut self, filter: PushdownFilter) -> Self {
        self.pushdown = Some(Arc::new(filter));
        self
    }

    /// Attaches the issuing query's trace context.
    pub fn with_trace(mut self, ctx: SpanCtx) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Attaches a chunk-skipping predicate.
    pub fn with_skip_predicate(mut self, p: RangePredicate) -> Self {
        self.skip_predicate = Some(p);
        self
    }
}

pub use crate::stream::ScanSummary;

/// Raw chunk travelling through the text lane: the text and what to convert
/// from it.
pub(crate) struct RawJob {
    text: TextChunk,
    /// What to tokenize and convert: the scan's plan, or for a hybrid read
    /// the plan of the columns the database lacks.
    plan: Arc<ConversionPlan>,
    /// Columns already loaded and read from the database, to be merged with
    /// the freshly converted ones (hybrid reads, §3.2.1).
    base: Option<Arc<BinaryChunk>>,
    /// The scan this chunk belongs to. The job's reference keeps the scan's
    /// `out` sender alive until the chunk is delivered.
    ctx: Arc<ScanCtx>,
}

impl RawJob {
    /// Conversion of the scan's whole conversion set from `text`.
    fn plain(text: TextChunk, ctx: &Arc<ScanCtx>) -> Self {
        RawJob {
            text,
            plan: ctx.plan.clone(),
            base: None,
            ctx: ctx.clone(),
        }
    }
}

/// Tokenized chunk travelling through the position lane.
pub(crate) struct TokenizedChunk {
    job: RawJob,
    map: PositionalMap,
}

/// The work queue of one scan: EXEC tasks, tokenized chunks, raw chunks.
pub(crate) type ScanQueue = WorkQueue<ExecTask, TokenizedChunk, RawJob>;

/// Everything the pipeline threads of one scan share, as one value. READ
/// holds a reference and so does every raw job in flight, and nobody else:
/// the engine's chunk stream ends (the last `out` sender is gone) exactly
/// when READ has returned and the last job has been delivered or discarded.
pub(crate) struct ScanCtx {
    out: Sender<Result<Arc<BinaryChunk>>>,
    events: Sender<Event>,
    counters: Arc<ScanCounters>,
    queue: Arc<ScanQueue>,
    /// Columns the query reads; a delivered chunk must cover them.
    projection: Vec<usize>,
    /// How a raw chunk of this scan is converted, push-down selection
    /// included.
    plan: Arc<ConversionPlan>,
    /// The plans of hybrid reads, one per distinct set of missing columns.
    hybrid_plans: Mutex<Vec<Arc<ConversionPlan>>>,
    /// Worker-pool size of this scan (0 = sequential regime).
    workers: usize,
    /// The scan's span context; pipeline threads pin it as their ambient
    /// span so stage spans attach under the scan.
    trace: Option<SpanCtx>,
}

impl ScanCtx {
    /// Sends a chunk to the engine. False when the consumer is gone; the
    /// queue is closed on the way out so every pipeline thread unwinds.
    fn send(&self, chunk: Arc<BinaryChunk>) -> bool {
        let delivered = self.out.send(Ok(chunk)).is_ok();
        if !delivered {
            self.queue.close();
        }
        delivered
    }
}

/// The ScanRaw physical operator (paper §3).
pub struct ScanRaw {
    table: String,
    schema: Schema,
    dialect: TextDialect,
    raw_file: String,
    config: ScanRawConfig,
    db: Database,
    cache: ChunkCache,
    profiler: Profiler,
    obs: Obs,
    writer: Arc<Writer>,
    /// Per-column query-history heat: every scan registers its effective
    /// projection here, and the speculative scheduler prioritizes hot cells.
    heat: Arc<ColumnHeat>,
    /// Current worker-pool size; starts at `config.workers`, adjustable via
    /// [`ScanRaw::set_workers`] (resource-manager feedback, §3.3).
    workers: AtomicUsize,
    /// True once a full sequential scan recorded the complete chunk layout.
    layout_known: AtomicBool,
}

impl ScanRaw {
    /// Creates the operator and registers its table in the database catalog.
    ///
    /// # Errors
    ///
    /// Fails when `config` violates a pipeline invariant (zero buffer or
    /// chunk sizes), when the catalog rejects the table registration, or
    /// when the OS cannot spawn the persistent WRITE thread.
    pub fn create(
        db: Database,
        table: impl Into<String>,
        schema: Schema,
        dialect: TextDialect,
        raw_file: impl Into<String>,
        config: ScanRawConfig,
    ) -> Result<Arc<Self>> {
        config.validate()?;
        let table = table.into();
        let raw_file = raw_file.into();
        if !db.disk().exists(&raw_file) {
            return Err(Error::io(format!("raw file '{raw_file}' does not exist")));
        }
        // Attach to an existing catalog entry (an earlier operator for this
        // file may have been deleted after fully loading it, §3.3) or create
        // a fresh one.
        let mut layout_known = false;
        match db.catalog().table(&table) {
            Ok(entry) => {
                let t = entry.read();
                if t.schema != schema {
                    return Err(Error::Schema(format!(
                        "table '{table}' exists with a different schema"
                    )));
                }
                if t.raw_file != raw_file {
                    return Err(Error::storage(format!(
                        "table '{table}' is backed by '{}', not '{raw_file}'",
                        t.raw_file
                    )));
                }
                layout_known = t.layout_complete();
            }
            Err(_) => {
                db.create_table(&table, schema.clone(), &raw_file)?;
            }
        }
        let cache = ChunkCache::new(config.binary_cache_chunks);
        // Journal timestamps follow the device clock so events line up with
        // simulated I/O; metrics are clock-agnostic.
        let obs_clock = db.disk().clock().clone();
        let obs = Obs::with_time_source(
            scanraw_obs::DEFAULT_JOURNAL_CAPACITY,
            Arc::new(move || obs_clock.now()),
        );
        cache.attach_obs(&obs);
        let profiler = Profiler::new(&obs.metrics);
        // The device mirrors its accounting into the first registry attached;
        // with several operators over one database that is the oldest one.
        db.disk().attach_obs(&obs.metrics);
        // Device ops record disk.read/disk.write spans under whatever span
        // is ambient on the calling thread.
        db.disk().attach_trace(&obs.trace);
        let writer = Arc::new(Writer::spawn(
            db.clone(),
            table.clone(),
            cache.clone(),
            profiler.clone(),
            obs.clone(),
            RetryPolicy::DEVICE,
        )?);
        let workers = AtomicUsize::new(config.workers);
        Ok(Arc::new(ScanRaw {
            table,
            schema,
            dialect,
            raw_file,
            config,
            db,
            cache,
            profiler,
            obs,
            writer,
            heat: Arc::new(ColumnHeat::new()),
            workers,
            layout_known: AtomicBool::new(layout_known),
        }))
    }

    pub fn table(&self) -> &str {
        &self.table
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn config(&self) -> &ScanRawConfig {
        &self.config
    }

    pub fn cache(&self) -> &ChunkCache {
        &self.cache
    }

    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The operator's observability handle: metrics registry plus event
    /// journal, shared by the cache, profiler, scheduler, and every scan.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Current worker-pool size used by new scans.
    pub fn workers(&self) -> usize {
        // relaxed-ok: sizing hint read at scan start; no data is published through it
        self.workers.load(Ordering::Relaxed)
    }

    /// Resizes the worker pool for subsequent scans (in-flight scans keep
    /// their pool). This is the knob the resource manager turns after
    /// [`ScanRaw::resource_advice`]; the change lands in the journal.
    pub fn set_workers(&self, n: usize) {
        // relaxed-ok: sizing hint — in-flight scans intentionally keep their pool
        let from = self.workers.swap(n, Ordering::Relaxed);
        if from != n {
            self.obs.event(ObsEvent::WorkerScaled {
                from: from as u64,
                to: n as u64,
            });
        }
    }

    /// Advises the resource manager from accumulated stage measurements:
    /// compares per-worker conversion wall time against device time and
    /// suggests acquiring or releasing workers (paper §3.3).
    pub fn resource_advice(&self) -> ResourceAdvice {
        let cpu = self.profiler.total(Stage::Tokenize) + self.profiler.total(Stage::Parse);
        let io = self.profiler.total(Stage::Read) + self.profiler.total(Stage::Write);
        if cpu.is_zero() || io.is_zero() {
            return ResourceAdvice::Unknown;
        }
        let workers = self.workers().max(1);
        let cpu_wall = cpu.as_secs_f64() / workers as f64;
        let io_wall = io.as_secs_f64();
        // Workers needed so conversion wall time matches device time.
        let balanced = (cpu.as_secs_f64() / io_wall).ceil().max(1.0) as usize;
        if cpu_wall > io_wall * 1.2 {
            ResourceAdvice::CpuBound {
                suggested_workers: balanced,
            }
        } else if io_wall > cpu_wall * 1.2 && balanced < workers {
            ResourceAdvice::IoBound {
                sufficient_workers: balanced,
            }
        } else {
            ResourceAdvice::Balanced
        }
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Chunks written to the database over the operator's lifetime.
    pub fn chunks_written(&self) -> u64 {
        self.writer.written()
    }

    /// True once the WRITE path hit a permanent device fault and the operator
    /// degraded to external-table mode: queries keep answering from the raw
    /// file, but no further loading is attempted.
    pub fn load_degraded(&self) -> bool {
        self.writer.degraded()
    }

    /// Retries a device operation under the pipeline's retry budget and
    /// backoff.
    fn io_retry<T>(&self, target: &str, op: impl FnMut() -> Result<T>) -> Result<T> {
        let clock = self.db.disk().clock();
        with_retry(&RetryPolicy::DEVICE, clock, &self.obs, target, op)
    }

    /// True when the chunk layout of the raw file is known (first full scan
    /// completed).
    pub fn layout_known(&self) -> bool {
        self.layout_known.load(Ordering::Acquire)
    }

    /// The operator's per-column heat tracker: query-history projection
    /// counts that steer column-granular speculative loading.
    pub fn heat(&self) -> &ColumnHeat {
        &self.heat
    }

    /// True when every cell of every *registered* column is inside the
    /// database — the point where ScanRaw has morphed into a heap scan and
    /// "a ScanRaw instance is completely deleted … whenever it loaded the
    /// entire raw file" (§3.3).
    ///
    /// Registered columns are the ones the observed query history touched
    /// (the operator's [`ColumnHeat`]). Under column granularity, loading
    /// is complete once those cells are durable: cold columns nobody has
    /// asked for don't keep the operator alive. An operator that has never
    /// served a scan has no registered columns and reports `false`.
    pub fn fully_loaded(&self) -> bool {
        let observed = self.heat.observed_columns();
        if observed.is_empty() {
            return false;
        }
        self.db
            .fully_loaded_for(&self.table, &observed)
            .unwrap_or(false)
    }

    /// Blocks until all queued database writes have completed.
    pub fn drain_writes(&self) {
        self.writer.barrier();
    }

    /// Starts a scan and returns the stream of converted chunks.
    ///
    /// # Errors
    ///
    /// Fails when the projection names a column outside the schema, when
    /// the raw file cannot be opened, or when a pipeline thread cannot be
    /// spawned.
    pub fn scan(self: &Arc<Self>, request: ScanRequest) -> Result<ChunkStream> {
        let mut needed: Vec<usize> = request.projection.clone();
        needed.sort_unstable();
        needed.dedup();
        if needed.is_empty() {
            return Err(Error::query("scan needs at least one column"));
        }
        if let Some(&max) = needed.last() {
            if max >= self.schema.len() {
                return Err(Error::query(format!(
                    "column {max} out of range for schema of {}",
                    self.schema.len()
                )));
            }
        }
        let convert_cols: Vec<usize> = match request.convert {
            ConvertScope::AllColumns => (0..self.schema.len()).collect(),
            ConvertScope::ProjectionOnly => needed.clone(),
        };
        if let Some(pd) = &request.pushdown {
            for &c in &pd.columns {
                if c >= self.schema.len() {
                    return Err(Error::query(format!("pushdown column {c} out of range")));
                }
            }
            if self.config.hybrid_reads {
                return Err(Error::query(
                    "push-down selection is incompatible with hybrid reads",
                ));
            }
        }
        // Every conversion decision of the scan, taken here once.
        let pushdown = request.pushdown.as_deref();
        let pushdown = pushdown.map(|pd| (&pd.columns[..], pd.predicate.clone()));
        let conversion = ConversionPlan::new(&self.schema, self.dialect, &convert_cols, pushdown)?;
        // Register the effective projection in the query-history heat: the
        // speculative scheduler prioritizes the cells hot queries touch.
        self.heat.observe(&needed);
        let workers = self.workers();
        // The scan span brackets the whole pipeline (ends when the stream
        // finishes); every stage span below hangs off it.
        let scan_span = request.trace.map(|ctx| {
            let id = self.obs.trace.begin(
                ctx.trace,
                Some(ctx.span),
                "scan",
                vec![("table", self.table.clone())],
            );
            SpanCtx {
                trace: ctx.trace,
                span: id,
            }
        });
        self.obs.event(ObsEvent::QueryStart {
            table: self.table.clone(),
            columns: needed.len() as u64,
        });
        let started_at = self.db.disk().clock().now();
        let counters = Arc::new(ScanCounters::default());

        // Plan chunk sources (cache → database → raw, §3.2.1).
        let plan = self.plan_scan(&needed, request.skip_predicate.as_ref())?;
        counters.skipped.store(plan.skipped, Ordering::Release);

        let (out_tx, out_rx) =
            bounded::<Result<Arc<BinaryChunk>>>(self.config.binary_cache_chunks.max(2));
        let (events_tx, events_rx) = unbounded::<Event>();
        let queue = Arc::new(ScanQueue::new(
            self.config.text_buffer_chunks,
            self.config.position_buffer_chunks,
        ));
        let ctx = Arc::new(ScanCtx {
            out: out_tx,
            events: events_tx.clone(),
            counters: counters.clone(),
            queue: queue.clone(),
            projection: needed,
            plan: Arc::new(conversion),
            hybrid_plans: Mutex::new(Vec::new()),
            workers,
            trace: scan_span,
        });
        // A thread that cannot be spawned fails the scan; closing the queue
        // releases the threads already parked on it.
        let spawn_failed = |what: &str, e: std::io::Error| {
            queue.close();
            Error::Pipeline(format!("spawn {what}: {e}"))
        };

        // Worker pool (TOKENIZE / PARSE / EXEC, dynamically assigned).
        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let op = self.clone();
            let queue = queue.clone();
            let h = std::thread::Builder::new()
                .name(format!("scanraw-worker-{}-{w}", self.table))
                .spawn(move || op.worker_loop(&queue, scan_span))
                .map_err(|e| spawn_failed("worker", e))?;
            worker_handles.push(h);
        }

        // Scheduler thread (write policy).
        let scheduler_handle = {
            let op = self.clone();
            let events_tx = events_tx.clone();
            std::thread::Builder::new()
                .name(format!("scanraw-sched-{}", self.table))
                .spawn(move || {
                    Scheduler {
                        policy: op.config.write_policy,
                        cache: &op.cache,
                        writer: &op.writer,
                        db: &op.db,
                        table: &op.table,
                        heat: &op.heat,
                        obs: &op.obs,
                        scan_span,
                        events_tx,
                    }
                    .run(events_rx)
                })
                .map_err(|e| spawn_failed("scheduler", e))?
        };

        // READ thread. It takes the scan context with it: once it returns,
        // only in-flight jobs keep the chunk stream open.
        let read_handle = {
            let op = self.clone();
            std::thread::Builder::new()
                .name(format!("scanraw-read-{}", self.table))
                .spawn(move || {
                    let r = op.read_thread(plan, &ctx);
                    let _ = ctx.events.send(Event::RawScanComplete);
                    r
                })
                .map_err(|e| spawn_failed("READ", e))?
        };

        let state = ScanState {
            op: self.clone(),
            read_handle,
            worker_handles,
            scheduler_handle,
            events_tx,
            counters,
            started_at,
            queue,
            scan_span,
        };
        Ok(ChunkStream::new(out_rx, state))
    }

    // ----------------------------------------------------------------------
    // Planning
    // ----------------------------------------------------------------------

    /// Where a scan needing columns `needed` fetches chunk `id` from, given
    /// the current cache and catalog state: [`ChunkSource::classify`]'s
    /// cache → db → hybrid → raw cascade, for the scan plan and EXPLAIN.
    pub fn chunk_source(&self, entry: &TableEntry, id: ChunkId, needed: &[usize]) -> ChunkSource {
        ChunkSource::classify(
            self.cache.covers(id, needed),
            entry.is_loaded(id, needed),
            !entry.loaded_columns(id, needed).is_empty(),
            self.config.hybrid_reads,
        )
    }

    fn plan_scan(&self, needed: &[usize], skip: Option<&RangePredicate>) -> Result<ScanPlan> {
        let mut plan = ScanPlan {
            chunks: Vec::new(),
            streaming: !self.layout_known(),
            skipped: 0,
        };
        if plan.streaming {
            // First scan: stream the whole file sequentially.
            return Ok(plan);
        }
        let entry = self.db.catalog().table(&self.table)?;
        let entry = entry.read();
        let layout = entry
            .layout()
            .ok_or_else(|| Error::storage("layout flag set but catalog has no layout"))?;
        for meta in layout.iter() {
            if skip.is_some_and(|pred| entry.prunes(meta.id, pred)) {
                plan.skipped += 1;
                self.obs.event(ObsEvent::ChunkSkipped {
                    chunk: meta.id.0 as u64,
                });
                continue;
            }
            let source = self.chunk_source(&entry, meta.id, needed);
            plan.chunks.push((*meta, source));
        }
        // Stable, so each source keeps file order.
        plan.chunks.sort_by_key(|&(_, source)| source);
        Ok(plan)
    }

    // ----------------------------------------------------------------------
    // READ thread body
    // ----------------------------------------------------------------------

    fn read_thread(&self, plan: ScanPlan, ctx: &Arc<ScanCtx>) -> Result<()> {
        // Pin the scan span as this thread's ambient context: every
        // read.chunk / retry / db.fallback / disk span below lands under it.
        let _ambient = ctx.trace.map(trace::set_current);
        let mut barrier_due = true;
        for (meta, planned) in &plan.chunks {
            if !self.fetch(meta, *planned, ctx, &mut barrier_due)? {
                return Ok(());
            }
        }
        if !plan.streaming {
            return Ok(());
        }

        // First scan: chunk boundaries are unknown until read, so the file
        // is streamed and the layout learned on the way.
        self.await_pending_writes(&mut barrier_due);
        let clock = self.db.disk().clock();
        let mut reader = ChunkReader::new(
            self.db.disk().clone(),
            self.raw_file.clone(),
            self.config.chunk_rows,
        )?;
        loop {
            // Streaming discovers the chunk id only after the read, so
            // the span opens with the source tag alone and is attributed
            // to its chunk below. (The final iteration reads to discover
            // EOF, leaving one untagged probe span per cold scan.)
            let span = self
                .obs
                .trace
                .enter_current("read.chunk", vec![("source", "raw".to_string())]);
            let t0 = clock.now();
            // Retry-safe: a failed read does not advance the reader's
            // fetch position, so the re-issued read covers the same span.
            let chunk = self.io_retry(&self.raw_file, || reader.next_chunk())?;
            let t1 = clock.now();
            let Some(chunk) = chunk else { break };
            if let Some(span) = &span {
                self.obs
                    .trace
                    .add_tag(span.ctx().span, "chunk", chunk.id.0.to_string());
            }
            self.profiler.record(Stage::Read, t1 - t0);
            self.db.catalog().observe_chunk(
                &self.table,
                ChunkMeta {
                    id: chunk.id,
                    file_offset: chunk.file_offset,
                    byte_len: chunk.len_bytes() as u64,
                    first_row: chunk.first_row,
                    rows: chunk.rows,
                },
            )?;
            ctx.counters.served[ChunkSource::Raw as usize].fetch_add(1, Ordering::Release);
            if !self.dispatch_raw_job(RawJob::plain(chunk, ctx), ctx) {
                // Abandoned mid-file: the layout stays unknown.
                return Ok(());
            }
        }
        self.db.catalog().mark_layout_complete(&self.table)?;
        self.layout_known.store(true, Ordering::Release);
        Ok(())
    }

    /// Before this scan's first device access, lets pending writes (e.g. the
    /// previous query's safeguard flush) finish — §4: "only the reading of
    /// new chunks from disk has to be delayed until flushing the cache".
    /// Once per scan: the writes this scan queues itself share the device
    /// with its reads.
    fn await_pending_writes(&self, due: &mut bool) {
        if std::mem::take(due) && self.writer.pending() > 0 {
            self.writer.barrier();
        }
    }

    /// READ of one planned chunk: serves it from its planned source or, when
    /// that source no longer has it, from the next one down the cascade
    /// (cache → db → raw, db → raw, hybrid → raw) — a loading failure must
    /// never fail the query. One `read.chunk` span and one stage record per
    /// chunk, both attributed to the source that served; `planned` is tagged
    /// when it was a different one. Returns false when the scan is shutting
    /// down.
    fn fetch(
        &self,
        meta: &ChunkMeta,
        planned: ChunkSource,
        ctx: &Arc<ScanCtx>,
        barrier_due: &mut bool,
    ) -> Result<bool> {
        let clock = self.db.disk().clock();
        let span = self
            .obs
            .trace
            .enter_current("read.chunk", vec![("chunk", meta.id.0.to_string())]);
        let t0 = clock.now();
        let raw_text = || {
            self.io_retry(&self.raw_file, || {
                read_chunk_at(self.db.disk(), &self.raw_file, meta)
            })
        };
        let mut source = planned;
        let mut fetched = None;
        if source == ChunkSource::Cache {
            // Since planning the chunk may have been evicted, or evicted and
            // re-inserted by a concurrent scan of fewer columns: anything
            // short of the projection is a miss.
            let hit = self.cache.get(meta.id);
            fetched = hit
                .filter(|c| c.covers(&ctx.projection))
                .map(Fetched::Binary);
            if fetched.is_none() {
                source = ChunkSource::Db;
            }
        }
        if source != ChunkSource::Cache {
            self.await_pending_writes(barrier_due);
        }
        if source == ChunkSource::Db {
            // Every column the catalog has, which keeps the cache useful for
            // wider future queries, provided the projection is among them.
            let all: Vec<usize> = (0..self.schema.len()).collect();
            let loaded = self.load_loaded(meta, &all, &ctx.projection).ok();
            fetched = loaded.map(|(_, chunk)| Fetched::Binary(Arc::new(chunk)));
        }
        if source == ChunkSource::Hybrid {
            // Loaded columns from the database, the missing ones converted
            // from the raw file and merged (§3.2.1).
            let convert_cols: Vec<usize> = ctx.plan.columns().collect();
            if let Ok((loaded, base)) = self.load_loaded(meta, &convert_cols, &[]) {
                let missing = convert_cols.into_iter().filter(|c| !loaded.contains(c));
                fetched = Some(Fetched::Text(RawJob {
                    text: raw_text()?,
                    plan: self.hybrid_plan(ctx, missing.collect())?,
                    base: Some(Arc::new(base)),
                    ctx: ctx.clone(),
                }));
            }
        }
        let fetched = match fetched {
            Some(fetched) => fetched,
            // Planned raw, or nothing cheaper could serve it after all.
            None => {
                if matches!(planned, ChunkSource::Db | ChunkSource::Hybrid) {
                    // The plan counted on the database and its copy is
                    // unreadable even after retries (permanent fault or
                    // persistent corruption): READ answers from the raw file.
                    let chunk = meta.id.0 as u64;
                    self.obs.event(ObsEvent::DbReadFallback { chunk });
                    self.obs.metrics.counter(DB_FALLBACK_COUNTER).inc();
                    let tags = vec![("chunk", chunk.to_string())];
                    self.obs.trace.instant_current("db.fallback", tags);
                }
                source = ChunkSource::Raw;
                Fetched::Text(RawJob::plain(raw_text()?, ctx))
            }
        };
        let t1 = clock.now();
        // A cache hit moves no data: it is delivery, not reading.
        let cached = source == ChunkSource::Cache;
        let stage = if cached { Stage::Deliver } else { Stage::Read };
        self.profiler.record(stage, t1 - t0);
        ctx.counters.served[source as usize].fetch_add(1, Ordering::Release);
        if let Some(span) = &span {
            let id = span.ctx().span;
            self.obs.trace.add_tag(id, "source", source.name().into());
            if source != planned {
                self.obs.trace.add_tag(id, "planned", planned.name().into());
            }
        }
        match fetched {
            Fetched::Binary(chunk) => {
                if !ctx.send(chunk.clone()) {
                    return Ok(false);
                }
                if source == ChunkSource::Db {
                    // Database chunks enter the cache with every present
                    // column marked loaded (biased toward early eviction).
                    let present = chunk.present_columns();
                    if let Some(ev) = self.cache.insert(chunk, &present) {
                        let _ = ctx.events.send(Event::Evicted(ev));
                    }
                }
                Ok(true)
            }
            Fetched::Text(job) => {
                if source == ChunkSource::Hybrid {
                    self.obs.metrics.counter("scanraw.cols.hybrid_chunks").inc();
                }
                Ok(self.dispatch_raw_job(job, ctx))
            }
        }
    }

    /// Hands a raw-chunk job to the conversion pipeline (or converts it
    /// inline when the pool is empty). Returns false when the scan is
    /// shutting down.
    fn dispatch_raw_job(&self, job: RawJob, ctx: &ScanCtx) -> bool {
        if ctx.workers == 0 {
            // Sequential regime: the chunk passes through the conversion
            // stages one at a time in the READ thread (paper §5.1,
            // "zero worker threads correspond to sequential execution").
            return self.do_tokenize(job).is_none_or(|job| self.do_parse(job));
        }
        match ctx.queue.try_push_text(job) {
            Ok(()) => true,
            Err(TextPushError::Closed(_)) => false,
            Err(TextPushError::Full(job)) => {
                // The text lane is full: READ is blocked and the disk is
                // idle — the speculative-loading window (§4) — until the
                // push gets through. Journaled here (not in the scheduler)
                // because only the READ side knows which chunk is waiting.
                self.obs.event(ObsEvent::ReadBlocked {
                    chunk: job.text.id.0 as u64,
                });
                let _ = ctx.events.send(Event::ReadBlocked);
                let pushed = ctx.queue.push_text(job).is_ok();
                let _ = ctx.events.send(Event::ReadResumed);
                pushed
            }
        }
    }

    /// Reads from the database, under the device-retry budget, the columns
    /// among `wanted` that the catalog has for the chunk, provided `required`
    /// is among them. Returns which ones they are and the chunk holding them.
    fn load_loaded(
        &self,
        meta: &ChunkMeta,
        wanted: &[usize],
        required: &[usize],
    ) -> Result<(Vec<usize>, BinaryChunk)> {
        let loaded = self.db.loaded_columns(&self.table, meta.id, wanted)?;
        if !required.iter().all(|c| loaded.contains(c)) {
            return Err(Error::storage(format!(
                "{} of '{}' lacks requested columns in the database",
                meta.id, self.table
            )));
        }
        let chunk = self.io_retry(&format!("db/{}", self.table), || {
            self.db.load_chunk(&self.table, meta.id, &loaded)
        })?;
        Ok((loaded, chunk))
    }

    // ----------------------------------------------------------------------
    // Conversion (TOKENIZE + PARSE + MAP) and delivery
    // ----------------------------------------------------------------------

    /// The plan converting the `missing` columns of a hybrid read: made when
    /// the scan first meets that set, shared by every later chunk lacking
    /// the same columns.
    fn hybrid_plan(&self, ctx: &ScanCtx, missing: Vec<usize>) -> Result<Arc<ConversionPlan>> {
        let mut plans = ctx.hybrid_plans.lock();
        let known = plans
            .iter()
            .find(|p| p.columns().eq(missing.iter().copied()));
        if let Some(plan) = known {
            return Ok(plan.clone());
        }
        let plan = Arc::new(ConversionPlan::new(
            &self.schema,
            self.dialect,
            &missing,
            None,
        )?);
        plans.push(plan.clone());
        Ok(plan)
    }

    /// Runs TOKENIZE for one raw job: the plan maps the attributes up to
    /// the last one converted; PARSE never looks beyond it.
    fn tokenize(&self, job: &RawJob) -> Result<PositionalMap> {
        let chunk = &job.text;
        self.cpu_stage(Stage::Tokenize, Some(("tokenize.chunk", chunk.id)), || {
            job.plan.tokenize(chunk)
        })
    }

    /// Runs `work` as one unit of a CPU stage (TOKENIZE, PARSE, EXEC), under
    /// a span of the given name when the stage has one of its own. CPU work
    /// is timed on the host: the device clock may be virtual, under which it
    /// would be instantaneous.
    fn cpu_stage<T>(
        &self,
        stage: Stage,
        span: Option<(&'static str, ChunkId)>,
        work: impl FnOnce() -> T,
    ) -> T {
        let _span = span.and_then(|(name, chunk)| {
            let tags = vec![("chunk", chunk.0.to_string()), ("worker", worker_label())];
            self.obs.trace.enter_current(name, tags)
        });
        // effect-ok: CPU-time stat for the stage histograms, never in scan output
        let started = std::time::Instant::now();
        let out = work();
        self.profiler.record(stage, started.elapsed());
        out
    }

    /// Runs PARSE(+MAP) for one tokenized raw job, honoring push-down
    /// selection and hybrid column merging.
    fn parse_job(&self, job: &RawJob, map: &PositionalMap) -> Result<BinaryChunk> {
        let chunk = &job.text;
        let filtered = job.plan.filters_rows();
        let bin = self.cpu_stage(Stage::Parse, Some(("parse.chunk", chunk.id)), || {
            let mut bin = job.plan.parse(chunk, map)?;
            // Hybrid merge: graft the database-loaded columns onto the
            // freshly converted ones (row counts must agree — both sides are
            // the same chunk; push-down is rejected for hybrid jobs at plan
            // time).
            if let Some(base) = &job.base {
                if filtered {
                    return Err(Error::query(
                        "push-down selection cannot merge with database columns",
                    ));
                }
                if base.rows != bin.rows {
                    return Err(Error::storage(format!(
                        "hybrid merge row mismatch in {}: db {} vs raw {}",
                        bin.id, base.rows, bin.rows
                    )));
                }
                for (i, col) in base.columns.iter().enumerate() {
                    if bin.columns[i].is_none() {
                        bin.columns[i] = col.clone();
                    }
                }
            }
            Ok(bin)
        })?;
        if !filtered {
            // Statistics from a filtered subset would under-approximate the
            // chunk's true bounds and corrupt chunk skipping — skip them.
            self.record_statistics(&bin)?;
        }
        Ok(bin)
    }

    /// Records conversion-time statistics into the catalog (§3.3).
    fn record_statistics(&self, bin: &BinaryChunk) -> Result<()> {
        if self.config.advanced_statistics {
            self.db.catalog().record_stats_detailed(&self.table, bin)
        } else {
            self.db.catalog().record_stats(&self.table, bin)
        }
    }

    /// Sends a converted chunk to the engine; unless it was row-filtered by
    /// push-down selection, also caches it and raises the scheduler events
    /// (filtered chunks must never be cached or loaded — §2 WRITE).
    /// Returns false when the consumer is gone.
    fn deliver(&self, bin: Arc<BinaryChunk>, ctx: &ScanCtx) -> bool {
        if !ctx.send(bin.clone()) {
            return false;
        }
        if ctx.plan.filters_rows() {
            return true;
        }
        let present = bin.present_columns();
        let loaded = self
            .db
            .loaded_columns(&self.table, bin.id, &present)
            .unwrap_or_default();
        let evicted = self.cache.insert(bin.clone(), &loaded);
        let _ = ctx.events.send(Event::Converted(bin));
        if let Some(ev) = evicted {
            let _ = ctx.events.send(Event::Evicted(ev));
        }
        true
    }

    // ----------------------------------------------------------------------
    // Worker loop (dynamic TOKENIZE / PARSE / EXEC assignment)
    // ----------------------------------------------------------------------

    /// One pool worker: serves the scan's queue until it is closed. EXEC
    /// tasks come first, so chunk-parallel queries overlap aggregation with
    /// the conversion of later chunks, and keep being served after the last
    /// chunk is delivered.
    fn worker_loop(&self, queue: &ScanQueue, trace: Option<SpanCtx>) {
        // Pin the scan span: tokenize/parse spans (and the retry/disk spans
        // they trigger) attach under it. Engine EXEC tasks carry their own
        // explicit context and override this for their duration.
        let _ambient = trace.map(trace::set_current);
        while let Some(work) = queue.pop() {
            match work {
                // The engine's task closure opens its own `exec.chunk` span.
                Work::Exec(task) => self.cpu_stage(Stage::Exec, None, task),
                Work::Parse(job) => {
                    self.do_parse(job);
                }
                Work::Tokenize(job) => {
                    if let Some(job) = self.do_tokenize(job) {
                        // A full position lane hands the chunk back: parse
                        // it here rather than wait for room.
                        if let Err(job) = queue.push_parse(job) {
                            self.do_parse(job);
                        }
                    }
                }
            }
        }
    }

    /// TOKENIZE of one raw chunk; a failure goes to the engine instead.
    fn do_tokenize(&self, job: RawJob) -> Option<TokenizedChunk> {
        match self.tokenize(&job) {
            Ok(map) => Some(TokenizedChunk { job, map }),
            Err(e) => {
                let _ = job.ctx.out.send(Err(e));
                None
            }
        }
    }

    /// PARSE of one tokenized chunk and its delivery; a failure goes to the
    /// engine instead. Returns false when the consumer is gone.
    fn do_parse(&self, job: TokenizedChunk) -> bool {
        let ctx = &job.job.ctx;
        match self.parse_job(&job.job, &job.map) {
            Ok(bin) => self.deliver(Arc::new(bin), ctx),
            Err(e) => {
                let _ = ctx.out.send(Err(e));
                true
            }
        }
    }
}

/// Where a scan fetches one chunk from (see [`ScanRaw::chunk_source`]).
/// Ordered as §3.2.1 delivers: cheapest source first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChunkSource {
    /// Resident in the binary chunks cache with every needed column.
    Cache,
    /// Every needed column loaded in the database.
    Db,
    /// Some needed columns loaded: database read merged with a raw re-parse.
    Hybrid,
    /// Converted from the raw file.
    Raw,
}

impl ChunkSource {
    /// The §3.2.1 cascade for one chunk, given whether the cache holds every
    /// needed column, whether the database holds all of them or some, and
    /// whether hybrid reads are on. The operator's plan, EXPLAIN and the
    /// pipeline simulator's plan all classify through it.
    pub fn classify(cached: bool, loaded: bool, partly_loaded: bool, hybrid: bool) -> ChunkSource {
        if cached {
            ChunkSource::Cache
        } else if loaded {
            ChunkSource::Db
        } else if hybrid && partly_loaded {
            ChunkSource::Hybrid
        } else {
            ChunkSource::Raw
        }
    }

    /// The `source` (and `planned`) tag value of a `read.chunk` span.
    fn name(self) -> &'static str {
        match self {
            ChunkSource::Cache => "cache",
            ChunkSource::Db => "db",
            ChunkSource::Hybrid => "hybrid",
            ChunkSource::Raw => "raw",
        }
    }
}

/// What a source hands READ for one chunk.
enum Fetched {
    /// Binary columns, ready for the engine.
    Binary(Arc<BinaryChunk>),
    /// Raw text for the conversion pipeline.
    Text(RawJob),
}

/// Chunk-source plan for one scan.
struct ScanPlan {
    /// The chunks to deliver with the source each is expected from, in
    /// delivery order (§3.2.1). Empty when streaming.
    chunks: Vec<(ChunkMeta, ChunkSource)>,
    /// True on the first scan: stream sequentially, layout unknown.
    streaming: bool,
    skipped: usize,
}

#[cfg(test)]
mod tests {
    use super::ChunkSource::{self, Cache, Db, Hybrid, Raw};

    /// Every consistent input (all needed cells loaded implies some are),
    /// with the source the §3.2.1 cascade picks.
    #[test]
    fn chunk_source_cascade_table() {
        let table = [
            // (cached, loaded, partly_loaded, hybrid) → source
            ((true, true, true, false), Cache),
            ((true, true, true, true), Cache),
            ((true, false, true, false), Cache),
            ((true, false, true, true), Cache),
            ((true, false, false, false), Cache),
            ((true, false, false, true), Cache),
            ((false, true, true, false), Db),
            ((false, true, true, true), Db),
            ((false, false, true, true), Hybrid),
            ((false, false, true, false), Raw),
            ((false, false, false, true), Raw),
            ((false, false, false, false), Raw),
        ];
        for ((cached, loaded, partly, hybrid), want) in table {
            let got = ChunkSource::classify(cached, loaded, partly, hybrid);
            assert_eq!(got, want, "{:?}", (cached, loaded, partly, hybrid));
        }
    }
}
