//! The engine: plans scans over ScanRaw operators and folds aggregates.

use crate::aggregate::{Accumulator, AggExpr};
use crate::expr::Col;
use crate::parallel::{AggSpec, AggState};
use crate::predicate::Predicate;
use crate::query::{Query, QueryResult, ResultRow};
use parking_lot::Mutex;
use scanraw::{
    ChunkSource, ChunkStream, ConvertScope, ExecTask, OperatorRegistry, PushdownFilter, ScanRaw,
    ScanRequest, ScanSummary, Stage,
};
use scanraw_obs::trace::{worker_label, SpanGuard};
use scanraw_obs::{json, JournalEntry, Obs, ObsEvent, QueryTrace, SpanId, TraceId};
use scanraw_rawfile::TextDialect;
use scanraw_storage::{Database, RecoveryReport};
use scanraw_types::{BinaryChunk, Error, RangePredicate, Result, ScanRawConfig, Schema, Value};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// How the engine folds delivered chunks into query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Row-at-a-time fold on the calling thread (the reference
    /// implementation; also the oracle for the differential tests).
    Serial,
    /// Chunk-parallel columnar execution: delivered chunks are partitioned
    /// back onto the operator's TOKENIZE/PARSE worker pool, each producing a
    /// partial [`AggState`] that the engine merges in ascending chunk order.
    #[default]
    Parallel,
}

/// Result of running a query through the engine: the rows plus what the scan
/// did underneath (chunk sources, writes triggered, elapsed time).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    pub result: QueryResult,
    pub scan: ScanSummary,
}

/// One execution request: a single query or a shared-scan batch, plus how to
/// run it — per-request exec-mode override, tracing, widened projection.
/// Build one and hand it to [`Engine::run`] (or [`crate::Session::run`]).
///
/// ```ignore
/// let out = session.run(
///     ExecRequest::query(q).traced().mode(ExecMode::Serial),
/// )?;
/// ```
#[derive(Debug, Clone)]
pub struct ExecRequest {
    queries: Vec<Query>,
    /// True when the scan gets its own `query.batch` carrier root and every
    /// query a root-only `query` trace; false when the lone query's `query`
    /// root carries the scan itself.
    shared: bool,
    traced: bool,
    mode: Option<ExecMode>,
    /// Serving-layer attribution tagged onto the `query` roots: the
    /// submitting tenant of each query (parallel to `queries`) and the
    /// serve batch id.
    served: Option<(Vec<u64>, u64)>,
}

impl ExecRequest {
    /// A request running one query on its own scan.
    pub fn query(q: Query) -> Self {
        ExecRequest {
            queries: vec![q],
            shared: false,
            traced: false,
            mode: None,
            served: None,
        }
    }

    /// A request answering a batch of queries over the *same* table with a
    /// single shared scan — the paper's §7 future work ("extending ScanRaw
    /// with support for multi-query processing over raw files"). The raw
    /// file is read and converted once; every query folds its own filter and
    /// aggregates over the shared chunk stream.
    ///
    /// Restrictions: all queries must target one table; push-down selection
    /// cannot be shared; chunk skipping is applied only when every query
    /// shares the same extractable range (the scan must deliver a superset
    /// of what each query needs).
    pub fn batch(queries: impl IntoIterator<Item = Query>) -> Self {
        ExecRequest {
            queries: queries.into_iter().collect(),
            shared: true,
            traced: false,
            mode: None,
            served: None,
        }
    }

    /// A dispatch unit of the serving layer: `(tenant, query)` pairs run as
    /// one scan under serve batch id `batch`. A lone query keeps the
    /// single-query trace shape.
    pub(crate) fn served(items: impl IntoIterator<Item = (u64, Query)>, batch: u64) -> Self {
        let (tenants, queries): (Vec<u64>, Vec<Query>) = items.into_iter().unzip();
        ExecRequest {
            shared: queries.len() > 1,
            queries,
            traced: false,
            mode: None,
            served: Some((tenants, batch)),
        }
    }

    /// Collect the causal span tree(s) the request mints. [`Engine::run`]
    /// then fails when tracing is disabled on the table's recorder.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Override the chunk-fold strategy for this request only; the engine
    /// default applies otherwise.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Set an explicit projection on every query in the request (see
    /// [`Query::select`]): the scan materializes these columns in addition
    /// to the referenced ones, pre-heating them for speculative loading.
    pub fn select(mut self, cols: impl IntoIterator<Item = impl Into<Col>>) -> Self {
        let cols: Vec<Col> = cols.into_iter().map(Into::into).collect();
        for q in &mut self.queries {
            q.projection = Some(cols.clone());
        }
        self
    }
}

/// What [`Engine::run`] produced: one [`QueryOutcome`] per query in the
/// request, with span trees alongside when the request was
/// [`ExecRequest::traced`].
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// One outcome per query, in request order.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-query span trees, parallel to `outcomes`; `None` entries unless
    /// the request was traced. A batched query's tree is its root-only
    /// `query` span, tagged `mode=shared` and `batch=<carrier trace id>`.
    pub query_traces: Vec<Option<QueryTrace>>,
    /// The carrier trace of a traced shared batch (root `query.batch`, with
    /// the scan/exec/merge spans); `None` for single queries and untraced
    /// batches.
    pub batch_trace: Option<QueryTrace>,
}

impl ExecOutcome {
    /// The only outcome of a single-query request.
    ///
    /// # Panics
    ///
    /// Panics when called on the outcome of a multi-query batch.
    pub fn into_single(mut self) -> QueryOutcome {
        assert_eq!(
            self.outcomes.len(),
            1,
            "into_single on a {}-query outcome",
            self.outcomes.len()
        );
        self.outcomes.pop().expect("one outcome")
    }

    /// The outcome and span tree of a traced single-query request.
    pub fn into_traced_single(mut self) -> (QueryOutcome, QueryTrace) {
        assert_eq!(self.outcomes.len(), 1, "into_traced_single on a batch");
        let outcome = self.outcomes.pop().expect("one outcome");
        let trace = self
            .query_traces
            .pop()
            .flatten()
            .expect("request was not traced");
        (outcome, trace)
    }
}

/// Plan report for a query: what the scan would do and what the optimizer
/// statistics predict (paper §3.3, cardinality estimation).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    pub table: String,
    /// Columns the scan must provide.
    pub projection: Vec<usize>,
    /// True when the filter is range-expressible and chunk skipping applies.
    pub uses_chunk_skipping: bool,
    /// Estimated fraction of rows matching the filter (1.0 without one, or
    /// without statistics).
    pub estimated_selectivity: f64,
    /// Estimated matching rows (None before the first scan established the
    /// layout/row counts).
    pub estimated_rows: Option<u64>,
    /// Chunks expected from each source given current cache/catalog state.
    /// `expect_from_hybrid` counts chunks with *some* (not all) projected
    /// columns loaded, delivered as a database-read + raw-reparse merge when
    /// hybrid reads are enabled.
    pub expect_from_cache: usize,
    pub expect_from_db: usize,
    pub expect_from_hybrid: usize,
    pub expect_from_raw: usize,
}

/// `EXPLAIN ANALYZE` output: the plan-time [`ExplainReport`] plus what the
/// scan actually did, measured from the operator's metrics registry and
/// event journal over this query alone.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The plan as predicted before execution.
    pub explain: ExplainReport,
    /// Rows produced and the scan summary (chunk sources, writes, elapsed).
    pub outcome: QueryOutcome,
    /// Actual total time per pipeline stage during this query, in
    /// [`Stage::ALL`] order (READ, TOKENIZE, PARSE, WRITE, DELIVER, EXEC —
    /// the last being consumer-side parallel query execution).
    pub stage_durations: Vec<(&'static str, Duration)>,
    /// Per-chunk latency percentiles `[p50, p95, p99]` in nanoseconds for
    /// each stage, over this query's window of the stage histograms (same
    /// order as `stage_durations`). Zeroes for stages that never ran.
    pub stage_percentiles: Vec<(&'static str, [u64; 3])>,
    /// End-to-end `[p50, p95, p99]` scan latency in nanoseconds over every
    /// query this operator has served so far, `None` before the first.
    pub query_latency_percentiles: Option<[u64; 3]>,
    /// Chunks the speculative policy wrote during this query.
    pub speculative_chunks_written: u64,
    /// Chunks the end-of-scan safeguard flushed during this query.
    pub safeguard_chunks_written: u64,
    /// hits / (hits + misses) over this query; `None` when the cache was
    /// never consulted.
    pub cache_hit_rate: Option<f64>,
    /// Device operations re-issued after transient faults during this query.
    pub io_retries: u64,
    /// Database reads that fell back to raw-file conversion.
    pub db_fallbacks: u64,
    /// True when a permanent device fault degraded the operator to
    /// external-table mode during this query.
    pub load_degraded: bool,
    /// Journal entries recorded while the query ran.
    pub events: Vec<JournalEntry>,
}

impl AnalyzeReport {
    /// The whole report as one JSON document (same schema family as
    /// `Obs::snapshot_json`).
    pub fn to_json(&self) -> scanraw_obs::Value {
        let scan = &self.outcome.scan;
        json!({
            "table": self.explain.table.clone(),
            "projection": self.explain.projection.clone(),
            "estimated_rows": self.explain.estimated_rows,
            "estimated_selectivity": self.explain.estimated_selectivity,
            "expected_sources": {
                "cache": self.explain.expect_from_cache as u64,
                "db": self.explain.expect_from_db as u64,
                "hybrid": self.explain.expect_from_hybrid as u64,
                "raw": self.explain.expect_from_raw as u64,
            },
            "actual_sources": {
                "cache": scan.from_cache as u64,
                "db": scan.from_db as u64,
                "raw": scan.from_raw as u64,
                "hybrid": scan.from_hybrid as u64,
                "skipped": scan.skipped as u64,
            },
            "rows_scanned": self.outcome.result.rows_scanned,
            "elapsed_micros": scan.elapsed.as_micros() as u64,
            "stage_micros": self
                .stage_durations
                .iter()
                .zip(&self.stage_percentiles)
                .map(|((name, d), (_, p))| json!({
                    "stage": *name,
                    "micros": d.as_micros() as u64,
                    "p50_nanos": p[0],
                    "p95_nanos": p[1],
                    "p99_nanos": p[2],
                }))
                .collect::<Vec<_>>(),
            "query_latency_percentiles": self.query_latency_percentiles.map(|p| json!({
                "p50_nanos": p[0],
                "p95_nanos": p[1],
                "p99_nanos": p[2],
            })),
            "speculative_chunks_written": self.speculative_chunks_written,
            "safeguard_chunks_written": self.safeguard_chunks_written,
            "cache_hit_rate": self.cache_hit_rate,
            "io_retries": self.io_retries,
            "db_fallbacks": self.db_fallbacks,
            "load_degraded": self.load_degraded,
            "events": self.events.iter().map(|e| e.to_json()).collect::<Vec<_>>(),
        })
    }
}

/// Table registration data.
struct TableDef {
    raw_file: String,
    schema: Schema,
    dialect: TextDialect,
    config: ScanRawConfig,
}

/// The execution engine façade.
///
/// Holds the database, the ScanRaw operator registry ("when a new query
/// arrives, the execution engine first checks the existence of a
/// corresponding ScanRaw operator", paper §3.3), and table definitions.
pub struct Engine {
    db: Database,
    registry: OperatorRegistry,
    tables: Mutex<HashMap<String, TableDef>>,
    /// Convert scope applied to scans (paper default: all columns).
    /// Interior-mutable so one engine can be tuned and shared behind `Arc`.
    convert_scope: Mutex<ConvertScope>,
    /// Chunk fold strategy; [`ExecMode::Parallel`] by default.
    exec_mode: Mutex<ExecMode>,
}

impl Engine {
    pub fn new(db: Database) -> Self {
        Engine {
            db,
            registry: OperatorRegistry::new(),
            // effect-ok: the table map is keyed-access only; nothing iterates it into output
            tables: Mutex::new(HashMap::new()),
            convert_scope: Mutex::new(ConvertScope::AllColumns),
            exec_mode: Mutex::new(ExecMode::default()),
        }
    }

    /// The current chunk-fold strategy. Each query samples it once at entry,
    /// so a concurrent [`Engine::set_exec_mode`] never splits one query
    /// across strategies.
    pub fn exec_mode(&self) -> ExecMode {
        *self.exec_mode.lock()
    }

    /// Switches the chunk-fold strategy for queries that start from now on.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        *self.exec_mode.lock() = mode;
    }

    /// The convert scope applied to scans.
    pub fn convert_scope(&self) -> ConvertScope {
        *self.convert_scope.lock()
    }

    /// Changes the convert scope for scans that start from now on.
    pub fn set_convert_scope(&self, scope: ConvertScope) {
        *self.convert_scope.lock() = scope;
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn registry(&self) -> &OperatorRegistry {
        &self.registry
    }

    /// Registers a raw file as a queryable table.
    pub fn register_table(
        &self,
        name: impl Into<String>,
        raw_file: impl Into<String>,
        schema: Schema,
        dialect: TextDialect,
        config: ScanRawConfig,
    ) -> Result<()> {
        config.validate()?;
        let name = name.into();
        let mut tables = self.tables.lock();
        if tables.contains_key(&name) {
            return Err(Error::query(format!("table '{name}' already registered")));
        }
        tables.insert(
            name,
            TableDef {
                raw_file: raw_file.into(),
                schema,
                dialect,
                config,
            },
        );
        Ok(())
    }

    /// Fetches (or creates) the ScanRaw operator backing a table.
    pub fn operator(&self, table: &str) -> Result<Arc<ScanRaw>> {
        let tables = self.tables.lock();
        let def = tables
            .get(table)
            .ok_or_else(|| Error::query(format!("unknown table '{table}'")))?;
        self.registry.get_or_create(&def.raw_file, || {
            ScanRaw::create(
                self.db.clone(),
                table,
                def.schema.clone(),
                def.dialect,
                def.raw_file.clone(),
                def.config.clone(),
            )
        })
    }

    /// Rebuilds a registered table's loaded state from its commit log after
    /// a simulated crash/restart: only chunk runs whose payload passes its
    /// checksum are re-marked loaded; uncommitted or corrupt runs are
    /// dropped. The outcome lands in the operator's journal as an
    /// [`ObsEvent::RecoveryCompleted`] event.
    ///
    /// # Errors
    ///
    /// Fails for unregistered tables, when the commit log cannot be read, or
    /// when catalog-level metadata is corrupt.
    pub fn recover_table(&self, table: &str) -> Result<RecoveryReport> {
        let (raw_file, schema) = {
            let tables = self.tables.lock();
            let def = tables
                .get(table)
                .ok_or_else(|| Error::query(format!("unknown table '{table}'")))?;
            (def.raw_file.clone(), def.schema.clone())
        };
        let report = self.db.recover_table(table, schema, &raw_file)?;
        let op = self.operator(table)?;
        op.obs().event(ObsEvent::RecoveryCompleted {
            committed: report.committed_cells as u64,
            dropped: (report.dropped_corrupt + report.dropped_malformed) as u64,
        });
        Ok(report)
    }

    /// Explains a query without running it: projection, chunk sources, and
    /// statistics-based cardinality estimates.
    pub fn explain(&self, query: &Query) -> Result<ExplainReport> {
        let op = self.operator(&query.table)?;
        let projection = query.effective_projection();
        let range = query.filter.as_ref().and_then(|f| f.extract_range());
        let entry = op.database().catalog().table(&query.table)?;
        let entry = entry.read();
        let (selectivity, total_rows) = match &range {
            Some(pred) => (
                entry.estimate_selectivity(pred),
                entry.layout().map(|l| l.total_rows()),
            ),
            None => (1.0, entry.layout().map(|l| l.total_rows())),
        };
        // Chunks per source, indexed by `ChunkSource as usize`.
        let mut expect = [0usize; 4];
        for meta in entry.layout().into_iter().flat_map(|l| l.iter()) {
            expect[op.chunk_source(&entry, meta.id, &projection) as usize] += 1;
        }
        Ok(ExplainReport {
            table: query.table.clone(),
            projection,
            uses_chunk_skipping: range.is_some(),
            estimated_selectivity: selectivity,
            estimated_rows: total_rows.map(|r| (r as f64 * selectivity).round() as u64),
            expect_from_cache: expect[ChunkSource::Cache as usize],
            expect_from_db: expect[ChunkSource::Db as usize],
            expect_from_hybrid: expect[ChunkSource::Hybrid as usize],
            expect_from_raw: expect[ChunkSource::Raw as usize],
        })
    }

    /// Runs an [`ExecRequest`] — the engine's one execution path. A batch is
    /// answered from a single shared scan; a single query is a batch of one
    /// that may push its selection down and whose `query` root span carries
    /// the scan itself.
    ///
    /// Under [`ExecMode::Parallel`] (the default) delivered chunks are
    /// evaluated on the operator's worker pool with a columnar inner loop
    /// and the partial aggregates merged in ascending chunk order, so
    /// results are identical to — and bit-for-bit as deterministic as — the
    /// serial fold.
    ///
    /// # Errors
    ///
    /// Fails when the request holds no query or spans several tables, when
    /// a batch asks for push-down, when any query fails validation or
    /// execution, or when the request is [`ExecRequest::traced`] but tracing
    /// is disabled on the table's span recorder
    /// (`op.obs().trace.set_enabled(false)`). Every trace root opened is
    /// closed and journaled on every exit.
    pub fn run(&self, req: ExecRequest) -> Result<ExecOutcome> {
        let ExecRequest {
            queries,
            shared,
            traced,
            mode,
            served,
        } = req;
        let first = queries
            .first()
            .ok_or_else(|| Error::query("ExecRequest holds no query"))?;
        if queries.iter().any(|q| q.table != first.table) {
            return Err(Error::query("shared execution requires a single table"));
        }
        if shared && queries.iter().any(|q| q.pushdown) {
            return Err(Error::query(
                "push-down selection cannot be shared across queries",
            ));
        }
        let op = self.operator(&first.table)?;
        for q in &queries {
            q.validate(op.schema().len())?;
        }
        let clock = self.db.disk().clock().clone();
        let mode = mode.unwrap_or_else(|| self.exec_mode());
        let started = clock.now();

        // Plan: the union of all projections, and a skip range only when
        // every query would skip the same chunks.
        let mut projection: Vec<usize> = queries
            .iter()
            .flat_map(|q| q.effective_projection())
            .collect();
        projection.sort_unstable();
        projection.dedup();
        let range_of = |q: &Query| q.filter.as_ref().and_then(|f| f.extract_range());
        let range =
            range_of(first).filter(|r| queries.iter().all(|q| range_of(q).as_ref() == Some(r)));
        let pushdown = first
            .filter
            .as_ref()
            .filter(|_| first.pushdown)
            .map(pushdown_filter);

        let mode_tag = match (shared, mode) {
            (true, _) => "shared",
            (false, ExecMode::Serial) => "serial",
            (false, ExecMode::Parallel) => "parallel",
        };
        let mut roots = TraceRoots::open(
            &op,
            &first.table,
            shared,
            mode_tag,
            queries.len(),
            served.as_ref(),
        );
        let trace_ids = traced
            .then(|| {
                roots
                    .trace_ids()
                    .ok_or_else(|| Error::query("tracing is disabled on this table's recorder"))
            })
            .transpose()?;

        let mut stream = op.scan(ScanRequest {
            projection,
            convert: self.convert_scope(),
            skip_predicate: range.clone(),
            pushdown,
            trace: roots.carrier.as_ref().map(|g| g.ctx()),
        })?;
        let folded: Vec<(u64, Result<Vec<ResultRow>>)> = match mode {
            ExecMode::Serial => {
                let mut aggs: Vec<GroupedAggregator<'_>> = queries
                    .iter()
                    .map(|q| GroupedAggregator::new(&q.group_by, &q.aggregates))
                    .collect();
                while let Some(chunk) = stream.next_chunk() {
                    for (agg, q) in aggs.iter_mut().zip(&queries) {
                        agg.consume(&chunk, q.filter.as_ref())?;
                    }
                }
                aggs.into_iter()
                    .map(|agg| (agg.rows_seen(), agg.finish()))
                    .collect()
            }
            ExecMode::Parallel => {
                let specs: Vec<Arc<AggSpec>> = queries.iter().map(spec_of).collect();
                self.run_parallel(&op, &mut stream, &specs, range.as_ref())?
                    .into_iter()
                    .map(|state| (state.rows_seen, state.finish()))
                    .collect()
            }
        };
        let mut results = Vec::with_capacity(folded.len());
        for (i, (rows_scanned, rows)) in folded.into_iter().enumerate() {
            results.push((rows?, rows_scanned));
            roots.finish_query(i);
        }
        let scan = stream.finish()?;
        drop(roots);
        let elapsed = clock.now().saturating_sub(started);

        let (query_traces, batch_trace) = match trace_ids {
            Some((query_ids, batch_id)) => {
                // Pending write-backs would leave open spans in the trees.
                op.drain_writes();
                let tree = |id: TraceId| op.obs().trace.trace(id);
                (
                    query_ids.into_iter().map(|id| Some(tree(id))).collect(),
                    batch_id.map(tree),
                )
            }
            None => (vec![None; results.len()], None),
        };
        Ok(ExecOutcome {
            outcomes: results
                .into_iter()
                .map(|(rows, rows_scanned)| QueryOutcome {
                    result: QueryResult {
                        rows,
                        rows_scanned,
                        elapsed,
                    },
                    scan: scan.clone(),
                })
                .collect(),
            query_traces,
            batch_trace,
        })
    }

    /// Runs one aggregate query: [`Engine::run`] over [`ExecRequest::query`].
    pub fn execute(&self, query: &Query) -> Result<QueryOutcome> {
        self.run(ExecRequest::query(query.clone()))
            .map(ExecOutcome::into_single)
    }

    /// Answers a batch of same-table queries with one shared scan:
    /// [`Engine::run`] over [`ExecRequest::batch`].
    pub fn execute_shared(&self, queries: &[Query]) -> Result<Vec<QueryOutcome>> {
        self.run(ExecRequest::batch(queries.to_vec()))
            .map(|out| out.outcomes)
    }

    /// `EXPLAIN ANALYZE`: runs the query and reports the plan alongside the
    /// observed behaviour — per-stage durations, actual chunk sources,
    /// speculative-loading progress, and the cache hit rate, all scoped to
    /// this query via before/after snapshots of the operator's stage
    /// histograms and cache counters and the journal sequence number.
    pub fn explain_analyze(&self, query: &Query) -> Result<AnalyzeReport> {
        let op = self.operator(&query.table)?;
        let explain = self.explain(query)?;

        let stages_before = Stage::ALL.map(|s| op.profiler().snapshot(s));
        let cache_before = op.cache().counters();
        let journal_since = op.obs().journal.total_recorded();

        let outcome = self.execute(query)?;
        // The safeguard flush overlaps the next query; drain it so the
        // journal and write counters cover everything this query caused.
        op.drain_writes();

        // This query's window of each stage histogram: its sum is the stage's
        // duration, its quantiles the per-chunk latency percentiles.
        let (stage_durations, stage_percentiles) = Stage::ALL
            .iter()
            .zip(&stages_before)
            .map(|(&s, before)| {
                let w = op.profiler().snapshot(s).saturating_diff(before);
                let percentiles = [w.quantile(0.50), w.quantile(0.95), w.quantile(0.99)];
                (
                    (s.name(), Duration::from_nanos(w.sum)),
                    (s.name(), percentiles),
                )
            })
            .unzip();
        let query_latency_percentiles = op
            .obs()
            .metrics
            .histogram_snapshot("query.latency.nanos")
            .filter(|s| s.count > 0)
            .map(|s| [s.quantile(0.50), s.quantile(0.95), s.quantile(0.99)]);
        let cache_after = op.cache().counters();
        let hits = cache_after.hits - cache_before.hits;
        let misses = cache_after.misses - cache_before.misses;
        let cache_hit_rate = if hits + misses > 0 {
            Some(hits as f64 / (hits + misses) as f64)
        } else {
            None
        };
        let events: Vec<JournalEntry> = op
            .obs()
            .journal
            .entries()
            .into_iter()
            .filter(|e| e.seq >= journal_since)
            .collect();
        // Fault-tolerance telemetry, derived from the same journal window.
        let mut io_retries = 0u64;
        let mut db_fallbacks = 0u64;
        let mut load_degraded = false;
        for e in &events {
            match &e.event {
                ObsEvent::IoRetry { .. } => io_retries += 1,
                ObsEvent::DbReadFallback { .. } => db_fallbacks += 1,
                ObsEvent::LoadDegraded { .. } => load_degraded = true,
                // Only fault telemetry is summarized here; every other event
                // is listed so a new journal event forces a decision on
                // whether the report should count it (L007).
                ObsEvent::QueryStart { .. }
                | ObsEvent::QueryEnd { .. }
                | ObsEvent::ReadBlocked { .. }
                | ObsEvent::SpeculativeWriteTriggered { .. }
                | ObsEvent::SafeguardFlush { .. }
                | ObsEvent::WriteQueued { .. }
                | ObsEvent::CacheHit { .. }
                | ObsEvent::CacheMiss { .. }
                | ObsEvent::CacheEvict { .. }
                | ObsEvent::ChunkSkipped { .. }
                | ObsEvent::WorkerScaled { .. }
                | ObsEvent::RecoveryCompleted { .. }
                | ObsEvent::ColumnCellLoaded { .. }
                | ObsEvent::TraceStarted { .. }
                | ObsEvent::TraceCompleted { .. }
                | ObsEvent::QueryAdmitted { .. }
                | ObsEvent::QueryRejected { .. }
                | ObsEvent::BatchFormed { .. }
                | ObsEvent::QueryServed { .. } => {}
            }
        }
        Ok(AnalyzeReport {
            explain,
            speculative_chunks_written: outcome.scan.speculative_writes,
            safeguard_chunks_written: outcome.scan.safeguard_writes,
            cache_hit_rate,
            stage_durations,
            stage_percentiles,
            query_latency_percentiles,
            io_retries,
            db_fallbacks,
            load_degraded,
            events,
            outcome,
        })
    }

    /// Fans the delivered chunks of `stream` out to the operator's worker
    /// pool — one [`ExecTask`] per chunk, each producing one partial
    /// [`AggState`] per spec — then collects and merges the partials in
    /// ascending chunk order (deterministic float accumulation). Falls back
    /// to inline execution when the scan runs without a pool (`workers = 0`)
    /// or a worker rejects the task during teardown.
    ///
    /// Also the second chance for min/max chunk skipping: chunks whose
    /// statistics only materialized *during* this scan (first conversion)
    /// are dropped here before any evaluation, counted in
    /// `scanraw.exec.skipped_chunks`.
    fn run_parallel(
        &self,
        op: &Arc<ScanRaw>,
        stream: &mut ChunkStream,
        specs: &[Arc<AggSpec>],
        range: Option<&RangePredicate>,
    ) -> Result<Vec<AggState>> {
        let handle = stream.exec_handle();
        // When the query is traced the root span is the engine thread's
        // current context; exec tasks run on pool workers, so the context is
        // captured here and passed into each closure explicitly.
        let query_ctx = scanraw_obs::trace::current();
        let recorder = op.obs().trace.clone();
        let parallel_ctr = op.obs().metrics.counter("scanraw.exec.parallel_chunks");
        let skipped_ctr = op.obs().metrics.counter("scanraw.exec.skipped_chunks");
        let entry = match range {
            Some(_) => Some(op.database().catalog().table(op.table())?),
            None => None,
        };

        let (res_tx, res_rx) = mpsc::channel::<(u32, Result<Vec<AggState>>)>();
        while let Some(chunk) = stream.next_chunk() {
            if let (Some(pred), Some(entry)) = (range, entry.as_ref()) {
                if entry.read().prunes(chunk.id, pred) {
                    skipped_ctr.inc();
                    op.obs().event(ObsEvent::ChunkSkipped {
                        chunk: chunk.id.0 as u64,
                    });
                    continue;
                }
            }
            let specs = specs.to_vec();
            let tx = res_tx.clone();
            let id = chunk.id.0;
            let task_recorder = recorder.clone();
            let task: ExecTask = Box::new(move || {
                let _span = query_ctx.map(|ctx| {
                    task_recorder.enter(
                        ctx,
                        "exec.chunk",
                        vec![("chunk", id.to_string()), ("worker", worker_label())],
                    )
                });
                let out = specs
                    .iter()
                    .map(|s| {
                        let mut st = AggState::new(s.clone());
                        st.consume_chunk(&chunk).map(|()| st)
                    })
                    .collect::<Result<Vec<_>>>();
                // Receiver gone only when the engine already bailed out.
                let _ = tx.send((id, out));
            });
            match &handle {
                Some(h) => {
                    parallel_ctr.inc();
                    if let Err(task) = h.submit(task) {
                        task();
                    }
                }
                None => task(),
            }
        }
        drop(res_tx);
        drop(handle);

        let mut partials: Vec<(u32, Result<Vec<AggState>>)> = Vec::new();
        while let Ok(r) = res_rx.recv() {
            partials.push(r);
        }
        // Ascending chunk order makes the merge — and therefore float
        // accumulation — independent of worker scheduling.
        let _merge_span = query_ctx.map(|ctx| {
            recorder.enter(ctx, "merge", vec![("partials", partials.len().to_string())])
        });
        partials.sort_by_key(|(id, _)| *id);
        let mut merged: Vec<AggState> = specs.iter().map(|s| AggState::new(s.clone())).collect();
        for (_, result) in partials {
            for (m, s) in merged.iter_mut().zip(result?) {
                m.merge(s)?;
            }
        }
        Ok(merged)
    }
}

/// Snapshot of a query's aggregation shape, shareable with worker tasks.
fn spec_of(q: &Query) -> Arc<AggSpec> {
    Arc::new(AggSpec {
        group_by: q.group_by.iter().map(|c| c.index()).collect(),
        aggregates: q.aggregates.clone(),
        filter: q.filter.clone(),
    })
}

/// The push-down selection of a single-query scan: predicate columns are
/// parsed first, the rest only for rows the filter keeps.
fn pushdown_filter(filter: &Predicate) -> Arc<PushdownFilter> {
    let columns = filter.columns();
    let (pred, cols) = (filter.clone(), columns.clone());
    Arc::new(PushdownFilter {
        columns,
        predicate: Arc::new(move |values: &[Value]| {
            // An eval error must not drop the row down here: keep it, so the
            // exact post-scan filter re-evaluates and surfaces the error
            // instead of silently diverging from the non-pushdown plan.
            // lint-ok: L017 Err keeps the row; the post-scan filter surfaces it
            pred.eval_values(&cols, values).unwrap_or(true)
        }),
    })
}

/// The trace roots one [`Engine::run`] opened. Dropping closes whatever is
/// still open and journals a `TraceCompleted` per `TraceStarted`, so the
/// recorder's open table and the journal stay balanced on error exits too.
struct TraceRoots<'a> {
    obs: &'a Obs,
    /// The root the scan, exec and merge spans hang off, pinned as the
    /// calling thread's current context: `query.batch` for a shared batch,
    /// the lone query's own `query` root otherwise. `None` when tracing is
    /// disabled on the recorder.
    carrier: Option<SpanGuard>,
    /// One root-only `query` span per query of a shared batch, each in its
    /// own trace so per-caller (and per-tenant) traces stay causal under
    /// batching; the `batch` tag links it to the carrier trace doing the
    /// work. Taken as each query's fold completes.
    queries: Vec<Option<(TraceId, SpanId)>>,
}

impl<'a> TraceRoots<'a> {
    fn open(
        op: &'a ScanRaw,
        table: &str,
        shared: bool,
        mode: &'static str,
        n_queries: usize,
        served: Option<&(Vec<u64>, u64)>,
    ) -> Self {
        let mut roots = TraceRoots {
            obs: op.obs(),
            carrier: None,
            queries: Vec::new(),
        };
        if !roots.obs.trace.enabled() {
            return roots;
        }
        let start = |extra: Vec<(&'static str, String)>| {
            let trace = roots.obs.trace.next_trace();
            roots.obs.event(ObsEvent::TraceStarted {
                trace: trace.0,
                table: table.to_string(),
            });
            let mut tags = vec![("table", table.to_string()), ("mode", mode.to_string())];
            tags.extend(extra);
            (trace, tags)
        };
        let serve_tags = |i: usize| {
            served.into_iter().flat_map(move |(tenants, batch)| {
                [
                    ("serve.batch", batch.to_string()),
                    ("tenant", tenants[i].to_string()),
                ]
            })
        };
        let carrier_tags = if shared {
            vec![("queries", n_queries.to_string())]
        } else {
            serve_tags(0).collect()
        };
        let (carrier, tags) = start(carrier_tags);
        let name = if shared { "query.batch" } else { "query" };
        let batched = if shared { 0..n_queries } else { 0..0 };
        let queries = batched
            .map(|i| {
                let mut extra = vec![("batch", carrier.0.to_string())];
                extra.extend(serve_tags(i));
                let (trace, tags) = start(extra);
                Some((trace, roots.obs.trace.begin(trace, None, "query", tags)))
            })
            .collect();
        roots.carrier = Some(roots.obs.trace.enter_root(carrier, name, tags));
        roots.queries = queries;
        roots
    }

    /// `(per-query trace ids, carrier trace id of a shared batch)` of the
    /// freshly opened roots — a lone query's trace is the carrier itself.
    /// `None` when tracing is disabled.
    fn trace_ids(&self) -> Option<(Vec<TraceId>, Option<TraceId>)> {
        let carrier = self.carrier.as_ref()?.ctx().trace;
        Some(if self.queries.is_empty() {
            (vec![carrier], None)
        } else {
            let ids = self.queries.iter().flatten().map(|(t, _)| *t).collect();
            (ids, Some(carrier))
        })
    }

    fn completed(&self, trace: TraceId) {
        self.obs.event(ObsEvent::TraceCompleted {
            trace: trace.0,
            spans: self.obs.trace.span_count(trace),
        });
    }

    /// Closes batched query `i`'s root span: its fold is complete.
    fn finish_query(&mut self, i: usize) {
        if let Some((trace, span)) = self.queries.get_mut(i).and_then(Option::take) {
            self.obs.trace.end(span);
            self.completed(trace);
        }
    }
}

impl Drop for TraceRoots<'_> {
    fn drop(&mut self) {
        for i in 0..self.queries.len() {
            self.finish_query(i);
        }
        if let Some(guard) = self.carrier.take() {
            let trace = guard.ctx().trace;
            drop(guard);
            self.completed(trace);
        }
    }
}

/// Shared grouped-aggregation fold, also used by the BAM path.
pub(crate) struct GroupedAggregator<'a> {
    group_by: &'a [Col],
    aggs: &'a [AggExpr],
    groups: HashMap<Vec<Value>, Vec<Accumulator>>,
    rows_seen: u64,
}

impl<'a> GroupedAggregator<'a> {
    pub(crate) fn new(group_by: &'a [Col], aggs: &'a [AggExpr]) -> Self {
        GroupedAggregator {
            group_by,
            aggs,
            groups: HashMap::new(),
            rows_seen: 0,
        }
    }

    pub(crate) fn consume(
        &mut self,
        chunk: &BinaryChunk,
        filter: Option<&Predicate>,
    ) -> Result<()> {
        for row in 0..chunk.rows as usize {
            if let Some(f) = filter {
                if !f.eval(chunk, row)? {
                    continue;
                }
            }
            self.rows_seen += 1;
            let key: Vec<Value> = self
                .group_by
                .iter()
                .map(|&c| {
                    let c = c.index();
                    chunk
                        .column(c)
                        .ok_or_else(|| Error::query(format!("group column {c} absent")))?
                        .value(row)
                        .ok_or_else(|| Error::query("row out of range"))
                })
                .collect::<Result<_>>()?;
            let accs = self
                .groups
                .entry(key)
                .or_insert_with(|| self.aggs.iter().map(|a| Accumulator::new(a.func)).collect());
            for (acc, a) in accs.iter_mut().zip(self.aggs) {
                acc.update(a.expr.eval(chunk, row)?)?;
            }
        }
        Ok(())
    }

    pub(crate) fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    pub(crate) fn finish(mut self) -> Result<Vec<ResultRow>> {
        // An aggregate without GROUP BY returns one row even on empty input.
        if self.group_by.is_empty() && self.groups.is_empty() {
            self.groups.insert(
                Vec::new(),
                self.aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
            );
        }
        let mut rows: Vec<ResultRow> = self
            .groups
            .into_iter()
            .map(|(keys, accs)| {
                let aggregates = accs
                    .into_iter()
                    .map(|a| a.finish())
                    .collect::<Result<Vec<_>>>()?;
                Ok(ResultRow { keys, aggregates })
            })
            .collect::<Result<_>>()?;
        rows.sort_by(|a, b| a.keys.cmp(&b.keys));
        Ok(rows)
    }
}
