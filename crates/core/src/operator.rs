//! The ScanRaw operator: per-file state plus the per-scan pipeline.
//!
//! One [`ScanRaw`] instance is attached to one raw file and lives across
//! queries (paper §3.3): it owns the binary chunks cache, the persistent
//! WRITE thread, and the learned chunk layout. Each [`ScanRaw::scan`] spawns
//! the per-scan pipeline — READ thread, conversion worker pool, scheduler —
//! and returns a [`ChunkStream`] the execution engine consumes.
//!
//! Chunk delivery order follows §3.2.1: cached chunks first, then chunks
//! loaded in the database (binary read, no conversion), then raw-file chunks
//! through the TOKENIZE/PARSE pipeline.

use crate::cache::ChunkCache;
use crate::profile::{Profiler, Stage};
use crate::retry::{with_retry, RetryPolicy, DB_FALLBACK_COUNTER};
use crate::scheduler::{run_scheduler, ColumnHeat, Event, Writer};
use crate::stream::{ChunkStream, ExecTask, ScanCounters, ScanState};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use scanraw_obs::trace::{self, worker_label, SpanCtx};
use scanraw_obs::{Histogram, Obs, ObsEvent};
use scanraw_rawfile::chunker::{read_chunk_at, ChunkReader};
use scanraw_rawfile::parse::{parse_chunk_filtered, RowFilter};
use scanraw_rawfile::{parse_chunk_projected, tokenize_chunk_selective, TextDialect};
use scanraw_storage::{Database, TableEntry};
use scanraw_types::{
    BinaryChunk, ChunkId, ChunkMeta, Error, PositionalMap, RangePredicate, Result, ScanRawConfig,
    Schema, TextChunk, Value, WritePolicy,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
pub type RowPredicateFn = Arc<dyn Fn(&[Value]) -> bool + Send + Sync>;

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
    /// Override for selective tokenizing: number of leading attributes to
    /// map. Defaults to `last needed column + 1`.
    pub cols_mapped: Option<usize>,
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
            cols_mapped: None,
            pushdown: None,
            trace: None,
        }
    }

    /// Scan converting only the projected columns.
    pub fn projected(projection: impl Into<Vec<usize>>) -> Self {
        ScanRequest {
            projection: projection.into(),
            convert: ConvertScope::ProjectionOnly,
            skip_predicate: None,
            cols_mapped: None,
            pushdown: None,
            trace: None,
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

/// Raw chunk travelling through the text-chunks buffer, with optional
/// per-chunk conversion overrides for hybrid database+raw reads.
struct RawJob {
    text: TextChunk,
    /// Columns already loaded and read from the database, to be merged with
    /// the freshly converted ones (hybrid reads, §3.2.1).
    base: Option<Arc<BinaryChunk>>,
    /// Per-chunk conversion column override (hybrid: missing columns only).
    convert_cols: Option<Arc<Vec<usize>>>,
    /// Per-chunk tokenize-prefix override.
    cols_mapped: Option<usize>,
}

impl RawJob {
    fn plain(text: TextChunk) -> Self {
        RawJob {
            text,
            base: None,
            convert_cols: None,
            cols_mapped: None,
        }
    }
}

/// Tokenized chunk travelling through the position buffer.
struct TokenizedChunk {
    job: RawJob,
    map: PositionalMap,
}

/// Per-worker stage histograms (`pipeline.worker.<w>.<stage>.nanos`).
struct WorkerHists {
    tokenize: Histogram,
    parse: Histogram,
    exec: Histogram,
}

/// Scan-wide conversion parameters shared by READ and the workers.
struct ScanParams {
    convert_cols: Vec<usize>,
    cols_mapped: usize,
    pushdown: Option<Arc<PushdownFilter>>,
    /// Worker-pool size of this scan (0 = sequential regime).
    workers: usize,
    /// The scan's span context; pipeline threads pin it as their ambient
    /// span so stage spans attach under the scan.
    trace: Option<SpanCtx>,
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
    /// Positional maps cached across scans (None unless configured).
    map_cache: Option<Mutex<HashMap<ChunkId, PositionalMap>>>,
    /// True once a full sequential scan recorded the complete chunk layout.
    layout_known: AtomicBool,
    scans_run: AtomicUsize,
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
        let map_cache_init = if config.cache_positional_maps {
            Some(Mutex::new(HashMap::new()))
        } else {
            None
        };
        let profiler = Profiler::new();
        // Journal timestamps follow the device clock so events line up with
        // simulated I/O; metrics are clock-agnostic.
        let obs_clock = db.disk().clock().clone();
        let obs = Obs::with_time_source(
            scanraw_obs::DEFAULT_JOURNAL_CAPACITY,
            Arc::new(move || obs_clock.now()),
        );
        cache.attach_obs(&obs);
        profiler.attach_obs(&obs);
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
            RetryPolicy {
                budget: config.io_retry_budget,
                backoff: config.io_retry_backoff,
            },
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
            map_cache: map_cache_init,
            layout_known: AtomicBool::new(layout_known),
            scans_run: AtomicUsize::new(0),
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
        use crate::profile::Stage;
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

    /// Retries a device operation under the configured budget and backoff
    /// (see [`ScanRawConfig::io_retry_budget`]).
    fn io_retry<T>(&self, target: &str, op: impl FnMut() -> Result<T>) -> Result<T> {
        let policy = RetryPolicy {
            budget: self.config.io_retry_budget,
            backoff: self.config.io_retry_backoff,
        };
        with_retry(&policy, self.db.disk().clock(), &self.obs, target, op)
    }

    /// Journals that a database read of `chunk` could not be served (even
    /// after retries) and the READ stage is answering from the raw file.
    fn note_db_fallback(&self, chunk: ChunkId) {
        self.obs.event(ObsEvent::DbReadFallback {
            chunk: chunk.0 as u64,
        });
        self.obs.metrics.counter(DB_FALLBACK_COUNTER).inc();
        self.obs
            .trace
            .instant_current("db.fallback", vec![("chunk", chunk.0.to_string())]);
    }

    /// Number of scans served so far.
    pub fn scans_run(&self) -> usize {
        // relaxed-ok: monotonic statistic; no ordering with other state required
        self.scans_run.load(Ordering::Relaxed)
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
        // relaxed-ok: monotonic statistic; no ordering with other state required
        self.scans_run.fetch_add(1, Ordering::Relaxed);
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
        let cols_mapped = request
            .cols_mapped
            .unwrap_or_else(|| convert_cols.last().map(|&c| c + 1).unwrap_or(1))
            .clamp(1, self.schema.len());
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
        let params = Arc::new(ScanParams {
            convert_cols: convert_cols.clone(),
            cols_mapped,
            pushdown: request.pushdown.clone(),
            workers,
            trace: scan_span,
        });

        self.obs.event(ObsEvent::QueryStart {
            table: self.table.clone(),
            columns: needed.len() as u64,
        });
        let clock = self.db.disk().clock().clone();
        let started_at = clock.now();
        let counters = Arc::new(ScanCounters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let in_pipeline = Arc::new(AtomicUsize::new(0));

        let (out_tx, out_rx) =
            bounded::<Result<Arc<BinaryChunk>>>(self.config.binary_cache_chunks.max(2));
        let (events_tx, events_rx) = unbounded::<Event>();
        let (text_tx, text_rx) = bounded::<RawJob>(self.config.text_buffer_chunks);
        let (pos_tx, pos_rx) = bounded::<TokenizedChunk>(self.config.position_buffer_chunks);
        // Consumer-execution channel: the engine partitions delivered chunks
        // back onto this pool for predicate + partial-aggregate work.
        let (exec_tx, exec_rx) = unbounded::<ExecTask>();

        // ------------------------------------------------------------------
        // Plan chunk sources (cache → database → raw, §3.2.1).
        // ------------------------------------------------------------------
        let plan = self.plan_scan(&needed, request.skip_predicate.as_ref())?;
        counters.skipped.store(plan.skipped, Ordering::Release);

        // ------------------------------------------------------------------
        // READ thread.
        // ------------------------------------------------------------------
        let read_handle = {
            let op = self.clone();
            let out = out_tx.clone();
            let text_tx = text_tx.clone();
            let events = events_tx.clone();
            let counters = counters.clone();
            let stop = stop.clone();
            let in_pipeline = in_pipeline.clone();
            let params = params.clone();
            let writer = self.writer.clone();
            std::thread::Builder::new()
                .name(format!("scanraw-read-{}", self.table))
                .spawn(move || {
                    let r = op.read_thread(
                        plan,
                        out,
                        text_tx,
                        events.clone(),
                        counters,
                        stop,
                        in_pipeline,
                        &params,
                        writer,
                    );
                    let _ = events.send(Event::RawScanComplete);
                    r
                })
                .map_err(|e| Error::Pipeline(format!("spawn READ: {e}")))?
        };
        drop(text_tx);

        // ------------------------------------------------------------------
        // Worker pool (TOKENIZE / PARSE, dynamically assigned).
        // ------------------------------------------------------------------
        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let op = self.clone();
            let text_rx = text_rx.clone();
            let pos_rx = pos_rx.clone();
            let pos_tx = pos_tx.clone();
            let out = out_tx.clone();
            let events = events_tx.clone();
            let exec_rx = exec_rx.clone();
            let counters = counters.clone();
            let stop = stop.clone();
            let in_pipeline = in_pipeline.clone();
            let params = params.clone();
            let h = std::thread::Builder::new()
                .name(format!("scanraw-worker-{}-{w}", self.table))
                .spawn(move || {
                    op.worker_loop(
                        w,
                        text_rx,
                        pos_rx,
                        pos_tx,
                        out,
                        events,
                        exec_rx,
                        counters,
                        stop,
                        in_pipeline,
                        &params,
                    );
                })
                .map_err(|e| Error::Pipeline(format!("spawn worker: {e}")))?;
            worker_handles.push(h);
        }
        drop(pos_tx);
        drop(pos_rx);
        drop(text_rx);
        drop(out_tx);
        drop(exec_rx);

        // ------------------------------------------------------------------
        // Scheduler thread (write policy).
        // ------------------------------------------------------------------
        let scheduler_handle = {
            let policy = self.config.write_policy;
            let cache = self.cache.clone();
            let writer = self.writer.clone();
            let db = self.db.clone();
            let table = self.table.clone();
            let events_tx2 = events_tx.clone();
            let obs = self.obs.clone();
            let heat = self.heat.clone();
            std::thread::Builder::new()
                .name(format!("scanraw-sched-{}", self.table))
                .spawn(move || {
                    run_scheduler(
                        policy, events_rx, events_tx2, cache, &writer, &db, &table, &heat, &obs,
                        scan_span,
                    )
                })
                .map_err(|e| Error::Pipeline(format!("spawn scheduler: {e}")))?
        };

        let wait_for_writes = matches!(
            self.config.write_policy,
            WritePolicy::Eager | WritePolicy::Buffered | WritePolicy::Invisible { .. }
        );
        let writer = self.writer.clone();
        let state = ScanState {
            read_handle,
            worker_handles,
            scheduler_handle,
            events_tx,
            wait_for_writes,
            barrier: Box::new(move || writer.barrier()),
            counters,
            clock,
            started_at,
            obs: self.obs.clone(),
            table: self.table.clone(),
            // Sequential regime has no pool to serve EXEC tasks: holding the
            // sender would strand engine-submitted work forever.
            exec_tx: (workers > 0).then_some(exec_tx),
            workers,
            scan_span,
        };
        Ok(ChunkStream::new(out_rx, state))
    }

    // ----------------------------------------------------------------------
    // Planning
    // ----------------------------------------------------------------------

    /// Where a scan needing columns `needed` fetches chunk `id` from, given
    /// the current cache and catalog state: the cache → db → hybrid → raw
    /// cascade. The one classifier behind both the scan plan and EXPLAIN.
    pub fn chunk_source(&self, entry: &TableEntry, id: ChunkId, needed: &[usize]) -> ChunkSource {
        if self.cache.covers(id, needed) {
            ChunkSource::Cache
        } else if entry.is_loaded(id, needed) {
            ChunkSource::Db
        } else if self.config.hybrid_reads && !entry.loaded_columns(id, needed).is_empty() {
            ChunkSource::Hybrid
        } else {
            ChunkSource::Raw
        }
    }

    fn plan_scan(&self, needed: &[usize], skip: Option<&RangePredicate>) -> Result<ScanPlan> {
        if !self.layout_known() {
            // First scan: stream the whole file sequentially.
            return Ok(ScanPlan {
                cached: Vec::new(),
                from_db: Vec::new(),
                hybrid: Vec::new(),
                raw: Vec::new(),
                streaming: true,
                skipped: 0,
            });
        }
        let entry = self.db.catalog().table(&self.table)?;
        let entry = entry.read();
        let layout = entry
            .layout()
            .ok_or_else(|| Error::storage("layout flag set but catalog has no layout"))?;
        let mut cached = Vec::new();
        let mut from_db = Vec::new();
        let mut hybrid = Vec::new();
        let mut raw = Vec::new();
        let mut skipped = 0usize;
        for meta in layout.iter() {
            if let Some(pred) = skip {
                if self.config.chunk_skipping {
                    if let Some(stats) = entry.stats(meta.id) {
                        if let Some((lo, hi)) =
                            stats.bounds.get(pred.column).and_then(|b| b.as_ref())
                        {
                            if !pred.may_overlap(lo, hi) {
                                skipped += 1;
                                self.obs.event(ObsEvent::ChunkSkipped {
                                    chunk: meta.id.0 as u64,
                                });
                                continue;
                            }
                        }
                    }
                }
            }
            match self.chunk_source(&entry, meta.id, needed) {
                ChunkSource::Cache => cached.push(*meta),
                ChunkSource::Db => from_db.push(*meta),
                ChunkSource::Hybrid => hybrid.push(*meta),
                ChunkSource::Raw => raw.push(*meta),
            }
        }
        Ok(ScanPlan {
            cached,
            from_db,
            hybrid,
            raw,
            streaming: false,
            skipped,
        })
    }

    // ----------------------------------------------------------------------
    // READ thread body
    // ----------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn read_thread(
        self: &Arc<Self>,
        plan: ScanPlan,
        out: Sender<Result<Arc<BinaryChunk>>>,
        text_tx: Sender<RawJob>,
        events: Sender<Event>,
        counters: Arc<ScanCounters>,
        stop: Arc<AtomicBool>,
        in_pipeline: Arc<AtomicUsize>,
        params: &Arc<ScanParams>,
        writer: Arc<Writer>,
    ) -> Result<()> {
        let clock = self.db.disk().clock().clone();
        // Pin the scan span as this thread's ambient context: every
        // read.chunk / retry / db.fallback / disk span below lands under it.
        let _ambient = params.trace.map(trace::set_current);

        // Phase 1: cached chunks — no I/O, no conversion.
        for meta in &plan.cached {
            // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            let _span = self.obs.trace.enter_current(
                "read.chunk",
                vec![
                    ("chunk", meta.id.0.to_string()),
                    ("source", "cache".to_string()),
                ],
            );
            let t0 = clock.now();
            match self.cache.get(meta.id) {
                Some(chunk) => {
                    counters.from_cache.fetch_add(1, Ordering::Release);
                    let t1 = clock.now();
                    self.profiler.record(Stage::Deliver, t1 - t0, t0, t1);
                    if out.send(Ok(chunk)).is_err() {
                        // relaxed-ok: advisory stop flag — readers need eventual visibility only
                        stop.store(true, Ordering::Relaxed);
                        return Ok(());
                    }
                }
                None => {
                    // Raced out of the cache since planning; fall back to the
                    // database or raw file.
                    if let Ok(chunk) = self.retry_load_from_db(meta, &params.convert_cols) {
                        counters.from_db.fetch_add(1, Ordering::Release);
                        if out.send(Ok(Arc::new(chunk))).is_err() {
                            // relaxed-ok: advisory stop flag — readers need eventual visibility only
                            stop.store(true, Ordering::Relaxed);
                            return Ok(());
                        }
                    } else {
                        self.feed_raw_chunk(
                            meta,
                            &text_tx,
                            &out,
                            &events,
                            &counters,
                            &stop,
                            &in_pipeline,
                            params,
                        )?;
                    }
                }
            }
        }

        // Before touching the device, let pending writes (e.g. the previous
        // query's safeguard flush) finish — §4: "only the reading of new
        // chunks from disk has to be delayed until flushing the cache".
        if (!plan.from_db.is_empty() || !plan.raw.is_empty() || plan.streaming)
            && writer.pending() > 0
        {
            writer.barrier();
        }

        // Phase 2: chunks already loaded in the database — binary reads.
        for meta in &plan.from_db {
            // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            let _span = self.obs.trace.enter_current(
                "read.chunk",
                vec![
                    ("chunk", meta.id.0.to_string()),
                    ("source", "db".to_string()),
                ],
            );
            let t0 = clock.now();
            let loaded = self.retry_load_from_db(meta, &params.convert_cols);
            let t1 = clock.now();
            self.profiler.record(Stage::Read, t1 - t0, t0, t1);
            let chunk = match loaded {
                Ok(c) => c,
                Err(_) => {
                    // The database copy is unreadable even after retries
                    // (permanent fault or persistent corruption): answer
                    // from the raw file instead — a loading failure must
                    // never fail the query.
                    self.note_db_fallback(meta.id);
                    self.feed_raw_chunk(
                        meta,
                        &text_tx,
                        &out,
                        &events,
                        &counters,
                        &stop,
                        &in_pipeline,
                        params,
                    )?;
                    continue;
                }
            };
            counters.from_db.fetch_add(1, Ordering::Release);
            let arc = Arc::new(chunk);
            if out.send(Ok(arc.clone())).is_err() {
                // relaxed-ok: advisory stop flag — readers need eventual visibility only
                stop.store(true, Ordering::Relaxed);
                return Ok(());
            }
            // Database chunks enter the cache with every present column
            // marked loaded (biased toward early eviction).
            let present = arc.present_columns();
            if let Some(ev) = self.cache.insert(arc, &present) {
                let _ = events.send(Event::Evicted(ev));
            }
        }

        // Phase 2.5: hybrid chunks — loaded columns from the database, the
        // missing ones converted from the raw file and merged (§3.2.1).
        let needed: Vec<usize> = params.convert_cols.clone();
        for meta in &plan.hybrid {
            // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            let _span = self.obs.trace.enter_current(
                "read.chunk",
                vec![
                    ("chunk", meta.id.0.to_string()),
                    ("source", "hybrid".to_string()),
                ],
            );
            let t0 = clock.now();
            let loaded = self.db.loaded_columns(&self.table, meta.id, &needed)?;
            let base = self.io_retry(&format!("db/{}", self.table), || {
                self.db.load_chunk(&self.table, meta.id, &loaded)
            });
            let text = self.io_retry(&self.raw_file, || {
                read_chunk_at(self.db.disk(), &self.raw_file, meta)
            })?;
            let t1 = clock.now();
            self.profiler.record(Stage::Read, t1 - t0, t0, t1);
            counters.hybrid.fetch_add(1, Ordering::Release);
            self.obs.metrics.counter("scanraw.cols.hybrid_chunks").inc();
            let job = match base {
                Ok(base) => {
                    let missing: Vec<usize> = needed
                        .iter()
                        .copied()
                        .filter(|c| !loaded.contains(c))
                        .collect();
                    let cols_mapped = missing.last().map(|&c| c + 1).unwrap_or(1);
                    RawJob {
                        text,
                        base: Some(Arc::new(base)),
                        convert_cols: Some(Arc::new(missing)),
                        cols_mapped: Some(cols_mapped),
                    }
                }
                Err(_) => {
                    // The loaded columns are unreadable: convert the whole
                    // chunk from the raw text just read.
                    self.note_db_fallback(meta.id);
                    RawJob::plain(text)
                }
            };
            if !self.dispatch_raw_job(
                job,
                &text_tx,
                &out,
                &events,
                &counters,
                &stop,
                &in_pipeline,
                params,
                false,
            )? {
                return Ok(());
            }
        }

        // Phase 3: raw-file chunks.
        if plan.streaming {
            let mut reader = ChunkReader::new(
                self.db.disk().clone(),
                self.raw_file.clone(),
                self.config.chunk_rows,
            )?;
            let mut complete = true;
            loop {
                // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
                if stop.load(Ordering::Relaxed) {
                    complete = false;
                    break;
                }
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
                self.profiler.record(Stage::Read, t1 - t0, t0, t1);
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
                if !self.dispatch_raw_job(
                    RawJob::plain(chunk),
                    &text_tx,
                    &out,
                    &events,
                    &counters,
                    &stop,
                    &in_pipeline,
                    params,
                    true,
                )? {
                    complete = false;
                    break;
                }
            }
            if complete {
                self.db.catalog().mark_layout_complete(&self.table)?;
                self.layout_known.store(true, Ordering::Release);
            }
        } else {
            for meta in &plan.raw {
                // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
                if stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                self.feed_raw_chunk(
                    meta,
                    &text_tx,
                    &out,
                    &events,
                    &counters,
                    &stop,
                    &in_pipeline,
                    params,
                )?;
            }
        }
        Ok(())
    }

    /// Reads one raw chunk (by metadata) and dispatches it for conversion.
    #[allow(clippy::too_many_arguments)]
    fn feed_raw_chunk(
        self: &Arc<Self>,
        meta: &ChunkMeta,
        text_tx: &Sender<RawJob>,
        out: &Sender<Result<Arc<BinaryChunk>>>,
        events: &Sender<Event>,
        counters: &Arc<ScanCounters>,
        stop: &Arc<AtomicBool>,
        in_pipeline: &Arc<AtomicUsize>,
        params: &Arc<ScanParams>,
    ) -> Result<()> {
        let clock = self.db.disk().clock().clone();
        let _span = self.obs.trace.enter_current(
            "read.chunk",
            vec![
                ("chunk", meta.id.0.to_string()),
                ("source", "raw".to_string()),
            ],
        );
        let chunk = {
            let t0 = clock.now();
            let c = self.io_retry(&self.raw_file, || {
                read_chunk_at(self.db.disk(), &self.raw_file, meta)
            })?;
            let t1 = clock.now();
            self.profiler.record(Stage::Read, t1 - t0, t0, t1);
            c
        };
        self.dispatch_raw_job(
            RawJob::plain(chunk),
            text_tx,
            out,
            events,
            counters,
            stop,
            in_pipeline,
            params,
            true,
        )?;
        Ok(())
    }

    /// Hands a raw-chunk job to the conversion pipeline (or converts it
    /// inline when the pool is empty). Returns false when the scan is
    /// shutting down.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_raw_job(
        self: &Arc<Self>,
        job: RawJob,
        text_tx: &Sender<RawJob>,
        out: &Sender<Result<Arc<BinaryChunk>>>,
        events: &Sender<Event>,
        counters: &Arc<ScanCounters>,
        stop: &Arc<AtomicBool>,
        in_pipeline: &Arc<AtomicUsize>,
        params: &Arc<ScanParams>,
        count_raw: bool,
    ) -> Result<bool> {
        if count_raw {
            counters.from_raw.fetch_add(1, Ordering::Release);
        }
        if params.workers == 0 {
            // Sequential regime: the chunk passes through the conversion
            // stages one at a time in the READ thread (paper §5.1,
            // "zero worker threads correspond to sequential execution").
            let converted = self.convert_job(&job, params);
            return match converted {
                Ok((bin, filtered)) => Ok(self.deliver(Arc::new(bin), filtered, out, events, stop)),
                Err(e) => {
                    let _ = out.send(Err(e));
                    Ok(true)
                }
            };
        }
        in_pipeline.fetch_add(1, Ordering::AcqRel);
        let mut pending = job;
        loop {
            // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
            if stop.load(Ordering::Relaxed) {
                in_pipeline.fetch_sub(1, Ordering::AcqRel);
                return Ok(false);
            }
            match text_tx.send_timeout(pending, Duration::from_millis(1)) {
                Ok(()) => return Ok(true),
                Err(crossbeam::channel::SendTimeoutError::Timeout(c)) => {
                    pending = c;
                    // The text chunks buffer is full: READ is blocked, the
                    // disk is idle — the speculative-loading window (§4).
                    // Journaled here (not in the scheduler) because only the
                    // READ side knows which chunk is waiting.
                    self.obs.event(ObsEvent::ReadBlocked {
                        chunk: pending.text.id.0 as u64,
                    });
                    let _ = events.send(Event::ReadBlocked);
                }
                Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => {
                    in_pipeline.fetch_sub(1, Ordering::AcqRel);
                    return Ok(false);
                }
            }
        }
    }

    /// [`ScanRaw::load_from_db`] under the configured device-retry budget.
    fn retry_load_from_db(&self, meta: &ChunkMeta, cols: &[usize]) -> Result<BinaryChunk> {
        self.io_retry(&format!("db/{}", self.table), || {
            self.load_from_db(meta, cols)
        })
    }

    fn load_from_db(&self, meta: &ChunkMeta, cols: &[usize]) -> Result<BinaryChunk> {
        // Load the catalog-backed columns; at minimum the needed ones are
        // there (planning checked), and loading everything available keeps
        // the cache useful for wider future queries.
        let available = self.db.loaded_columns(
            &self.table,
            meta.id,
            &(0..self.schema.len()).collect::<Vec<_>>(),
        )?;
        let cols: Vec<usize> = if available.is_empty() {
            cols.to_vec()
        } else {
            available
        };
        self.db.load_chunk(&self.table, meta.id, &cols)
    }

    // ----------------------------------------------------------------------
    // Conversion (TOKENIZE + PARSE + MAP) and delivery
    // ----------------------------------------------------------------------

    /// Runs TOKENIZE (with optional map caching) for one chunk.
    fn tokenize(&self, chunk: &TextChunk, cols_mapped: usize) -> Result<PositionalMap> {
        if let Some(cache) = &self.map_cache {
            if let Some(map) = cache.lock().get(&chunk.id) {
                // A cached map with at least the needed prefix is reusable;
                // PARSE scans forward beyond the prefix either way.
                if map.cols_mapped() as usize >= cols_mapped {
                    return Ok(map.clone());
                }
            }
        }
        // CPU stages are timed in wall-clock (the device clock may be
        // virtual, under which CPU work is instantaneous); span endpoints
        // stay on the device clock for utilization timelines.
        let _span = self.obs.trace.enter_current(
            "tokenize.chunk",
            vec![
                ("chunk", chunk.id.0.to_string()),
                ("worker", worker_label()),
            ],
        );
        let clock = self.db.disk().clock().clone();
        let t0 = clock.now();
        // effect-ok: CPU-time stat for the profiler side channel, never in scan output
        let w0 = std::time::Instant::now();
        let map = tokenize_chunk_selective(chunk, self.dialect, self.schema.len(), cols_mapped)?;
        let elapsed = w0.elapsed();
        let t1 = clock.now();
        self.profiler.record(Stage::Tokenize, elapsed, t0, t1);
        if let Some(cache) = &self.map_cache {
            cache.lock().insert(chunk.id, map.clone());
        }
        Ok(map)
    }

    /// Runs PARSE(+MAP) for one tokenized raw job, honoring push-down
    /// selection and hybrid column merging. Returns the chunk and whether it
    /// was row-filtered.
    fn parse_job(
        &self,
        job: &RawJob,
        map: &PositionalMap,
        params: &ScanParams,
    ) -> Result<(BinaryChunk, bool)> {
        let chunk = &job.text;
        let convert_cols: &[usize] = match &job.convert_cols {
            Some(c) => c,
            None => &params.convert_cols,
        };
        let _span = self.obs.trace.enter_current(
            "parse.chunk",
            vec![
                ("chunk", chunk.id.0.to_string()),
                ("worker", worker_label()),
            ],
        );
        let clock = self.db.disk().clock().clone();
        let t0 = clock.now();
        // effect-ok: CPU-time stat for the profiler side channel, never in scan output
        let w0 = std::time::Instant::now();
        let (mut bin, filtered) = match &params.pushdown {
            Some(pd) => {
                let filter = RowFilter {
                    columns: &pd.columns,
                    predicate: &*pd.predicate,
                };
                (
                    parse_chunk_filtered(
                        chunk,
                        map,
                        self.dialect,
                        &self.schema,
                        convert_cols,
                        &filter,
                    )?,
                    true,
                )
            }
            None => (
                parse_chunk_projected(chunk, map, self.dialect, &self.schema, convert_cols)?,
                false,
            ),
        };
        // Hybrid merge: graft the database-loaded columns onto the freshly
        // converted ones (row counts must agree — both sides are the same
        // chunk; push-down is rejected for hybrid jobs at plan time).
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
        let elapsed = w0.elapsed();
        let t1 = clock.now();
        self.profiler.record(Stage::Parse, elapsed, t0, t1);
        if !filtered {
            // Statistics from a filtered subset would under-approximate the
            // chunk's true bounds and corrupt chunk skipping — skip them.
            self.record_statistics(&bin)?;
        }
        Ok((bin, filtered))
    }

    /// Full conversion of one raw job (sequential regime).
    fn convert_job(&self, job: &RawJob, params: &ScanParams) -> Result<(BinaryChunk, bool)> {
        let cols_mapped = job.cols_mapped.unwrap_or(params.cols_mapped);
        let map = self.tokenize(&job.text, cols_mapped)?;
        self.parse_job(job, &map, params)
    }

    /// Records conversion-time statistics into the catalog (§3.3).
    fn record_statistics(&self, bin: &BinaryChunk) -> Result<()> {
        if !self.config.collect_statistics {
            return Ok(());
        }
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
    fn deliver(
        &self,
        bin: Arc<BinaryChunk>,
        filtered: bool,
        out: &Sender<Result<Arc<BinaryChunk>>>,
        events: &Sender<Event>,
        stop: &Arc<AtomicBool>,
    ) -> bool {
        if out.send(Ok(bin.clone())).is_err() {
            // relaxed-ok: advisory stop flag — readers need eventual visibility only
            stop.store(true, Ordering::Relaxed);
            return false;
        }
        if filtered {
            return true;
        }
        let present = bin.present_columns();
        let loaded = self
            .db
            .loaded_columns(&self.table, bin.id, &present)
            .unwrap_or_default();
        let evicted = self.cache.insert(bin.clone(), &loaded);
        let _ = events.send(Event::Converted(bin));
        if let Some(ev) = evicted {
            let _ = events.send(Event::Evicted(ev));
        }
        true
    }

    // ----------------------------------------------------------------------
    // Worker loop (dynamic TOKENIZE / PARSE / EXEC assignment)
    // ----------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn worker_loop(
        self: &Arc<Self>,
        w: usize,
        text_rx: Receiver<RawJob>,
        pos_rx: Receiver<TokenizedChunk>,
        pos_tx: Sender<TokenizedChunk>,
        out: Sender<Result<Arc<BinaryChunk>>>,
        events: Sender<Event>,
        exec_rx: Receiver<ExecTask>,
        _counters: Arc<ScanCounters>,
        stop: Arc<AtomicBool>,
        in_pipeline: Arc<AtomicUsize>,
        params: &Arc<ScanParams>,
    ) {
        // Pin the scan span: tokenize/parse spans (and the retry/disk spans
        // they trigger) attach under it. Engine EXEC tasks carry their own
        // explicit context and override this for their duration.
        let _ambient = params.trace.map(trace::set_current);
        // Per-worker stage histograms: wall time the worker spent in each
        // stage *including* hand-off back-pressure, so pool imbalance is
        // visible even when the pure per-chunk compute times are uniform.
        let hists = WorkerHists {
            tokenize: self
                .obs
                .metrics
                .duration_histogram(&format!("pipeline.worker.{w}.tokenize.nanos")),
            parse: self
                .obs
                .metrics
                .duration_histogram(&format!("pipeline.worker.{w}.parse.nanos")),
            exec: self
                .obs
                .metrics
                .duration_histogram(&format!("pipeline.worker.{w}.exec.nanos")),
        };
        // Phase 1 — conversion: dynamic TOKENIZE/PARSE assignment, with
        // consumer EXEC tasks served first so chunk-parallel queries overlap
        // aggregation with conversion of later chunks.
        loop {
            // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
            if stop.load(Ordering::Relaxed) {
                return;
            }
            // Prefer EXEC (downstream-most), then PARSE, then TOKENIZE —
            // the draining heuristic that guarantees progress (§3.2.1)
            // extended one stage downstream.
            match exec_rx.try_recv() {
                Ok(task) => {
                    self.run_exec(task, &hists.exec);
                    continue;
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {}
            }
            match pos_rx.try_recv() {
                Ok(job) => {
                    // effect-ok: CPU-time stat for the stage histograms, never in scan output
                    let t = std::time::Instant::now();
                    self.do_parse(job, &out, &events, &stop, &in_pipeline, params);
                    hists.parse.observe_duration(t.elapsed());
                    continue;
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => {}
            }
            match text_rx.try_recv() {
                Ok(job) => {
                    // effect-ok: CPU-time stat for the stage histograms, never in scan output
                    let t = std::time::Instant::now();
                    self.do_tokenize(job, &pos_tx, &out, &stop, &in_pipeline, params);
                    hists.tokenize.observe_duration(t.elapsed());
                    continue;
                }
                Err(TryRecvError::Empty) => {
                    // Nothing ready: block briefly on the position buffer
                    // (the only conversion channel guaranteed to stay
                    // connected).
                    match pos_rx.recv_timeout(Duration::from_micros(200)) {
                        Ok(job) => {
                            // effect-ok: CPU-time stat for the stage histograms, never in scan output
                            let t = std::time::Instant::now();
                            self.do_parse(job, &out, &events, &stop, &in_pipeline, params);
                            hists.parse.observe_duration(t.elapsed());
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    // READ is done; drain the position buffer until the
                    // pipeline is empty.
                    match pos_rx.recv_timeout(Duration::from_micros(200)) {
                        Ok(job) => {
                            // effect-ok: CPU-time stat for the stage histograms, never in scan output
                            let t = std::time::Instant::now();
                            self.do_parse(job, &out, &events, &stop, &in_pipeline, params);
                            hists.parse.observe_duration(t.elapsed());
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if in_pipeline.load(Ordering::Acquire) == 0 {
                                break;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        }
        // Phase 2 — conversion is complete. Drop the conversion-side senders
        // first: the engine's chunk loop ends exactly when every worker has
        // released its `out` clone, so parking here must not hold it. Then
        // keep serving EXEC tasks until every submitter (engine handles and
        // the stream's own sender) is gone.
        drop(pos_tx);
        drop(pos_rx);
        drop(text_rx);
        drop(out);
        drop(events);
        loop {
            // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
            if stop.load(Ordering::Relaxed) {
                return;
            }
            match exec_rx.recv_timeout(Duration::from_micros(200)) {
                Ok(task) => self.run_exec(task, &hists.exec),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Runs one consumer-execution task, recording EXEC stage time (the
    /// device clock may be virtual, so compute is timed in wall-clock).
    fn run_exec(&self, task: ExecTask, hist: &Histogram) {
        let clock = self.db.disk().clock().clone();
        let t0 = clock.now();
        // effect-ok: CPU-time stat for the profiler side channel, never in scan output
        let w0 = std::time::Instant::now();
        task();
        let elapsed = w0.elapsed();
        let t1 = clock.now();
        self.profiler.record(Stage::Exec, elapsed, t0, t1);
        hist.observe_duration(elapsed);
    }

    fn do_tokenize(
        &self,
        raw: RawJob,
        pos_tx: &Sender<TokenizedChunk>,
        out: &Sender<Result<Arc<BinaryChunk>>>,
        stop: &Arc<AtomicBool>,
        in_pipeline: &Arc<AtomicUsize>,
        params: &ScanParams,
    ) {
        let cols_mapped = raw.cols_mapped.unwrap_or(params.cols_mapped);
        let map = self.tokenize(&raw.text, cols_mapped);
        match map {
            Ok(map) => {
                let mut job = TokenizedChunk { job: raw, map };
                loop {
                    // relaxed-ok: advisory stop flag — a stale read only delays shutdown by one iteration
                    if stop.load(Ordering::Relaxed) {
                        in_pipeline.fetch_sub(1, Ordering::AcqRel);
                        return;
                    }
                    match pos_tx.send_timeout(job, Duration::from_millis(1)) {
                        Ok(()) => return,
                        Err(crossbeam::channel::SendTimeoutError::Timeout(j)) => job = j,
                        Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => {
                            in_pipeline.fetch_sub(1, Ordering::AcqRel);
                            return;
                        }
                    }
                }
            }
            Err(e) => {
                let _ = out.send(Err(e));
                in_pipeline.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    fn do_parse(
        &self,
        job: TokenizedChunk,
        out: &Sender<Result<Arc<BinaryChunk>>>,
        events: &Sender<Event>,
        stop: &Arc<AtomicBool>,
        in_pipeline: &Arc<AtomicUsize>,
        params: &ScanParams,
    ) {
        match self.parse_job(&job.job, &job.map, params) {
            Ok((bin, filtered)) => {
                self.deliver(Arc::new(bin), filtered, out, events, stop);
            }
            Err(e) => {
                let _ = out.send(Err(e));
            }
        }
        in_pipeline.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Where a scan fetches one chunk from (see [`ScanRaw::chunk_source`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Chunk-source plan for one scan.
struct ScanPlan {
    cached: Vec<ChunkMeta>,
    from_db: Vec<ChunkMeta>,
    /// Chunks with some (not all) needed columns loaded: db + raw merge.
    hybrid: Vec<ChunkMeta>,
    raw: Vec<ChunkMeta>,
    /// True on the first scan: stream sequentially, layout unknown.
    streaming: bool,
    skipped: usize,
}
