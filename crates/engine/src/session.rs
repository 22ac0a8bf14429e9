//! [`Session`] — the high-level entry point for querying raw files.
//!
//! A session owns one engine over one simulated disk/database and exposes
//! the whole register → query → inspect → recover lifecycle through a
//! single type, so typical programs never touch [`Engine`], the operator
//! registry, or the database plumbing directly. [`Engine`] remains public
//! as the low-level API for callers that need to reach the operator layer
//! (custom convert scopes, direct registry access).
//!
//! ```no_run
//! use scanraw_engine::{ExecRequest, Query, Session};
//! use scanraw_rawfile::TextDialect;
//! use scanraw_simio::SimDisk;
//! use scanraw_types::{ScanRawConfig, Schema};
//!
//! let session = Session::open(SimDisk::instant());
//! session
//!     .register_table(
//!         "t",
//!         "data.csv",
//!         Schema::uniform_ints(4),
//!         TextDialect::CSV,
//!         ScanRawConfig::default(),
//!     )
//!     .unwrap();
//! let outcome = session
//!     .run(ExecRequest::query(Query::sum_of_columns("t", 0..4)))
//!     .unwrap()
//!     .into_single();
//! println!("{:?}", outcome.result.scalar());
//! ```

use crate::executor::{AnalyzeReport, Engine, ExecMode, ExecOutcome, ExecRequest, ExplainReport};
use crate::query::Query;
use crate::serve::{ServeConfig, Server};
use scanraw_rawfile::TextDialect;
use scanraw_simio::SimDisk;
use scanraw_storage::{Database, RecoveryReport};
use scanraw_types::{Result, ScanRawConfig, Schema};
use std::sync::Arc;

/// High-level query session: the single public entry point wrapping engine
/// construction, table registration, execution, plan inspection, and crash
/// recovery.
///
/// A session is `Send + Sync`: every piece of engine state (catalog, chunk
/// cache, loaded bitmaps, operator registry, exec mode) is interior-mutable
/// behind its own lock, so one session can be shared across threads in an
/// [`Arc`] and queried concurrently — or put behind a [`Server`] (see
/// [`Session::serve`]) for admission control, per-tenant fairness, and
/// automatic shared-scan batching.
pub struct Session {
    engine: Engine,
}

// The whole point of the serving layer: one session, many threads. A
// compile-time check so a non-Sync field can never sneak back in.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Session>();
};

impl Session {
    /// Opens a session over a fresh database on the given disk.
    pub fn open(disk: SimDisk) -> Self {
        Session::new(Database::new(disk))
    }

    /// Opens a session over an existing database (e.g. after a simulated
    /// restart, before calling [`Session::recover_table`]).
    pub fn new(db: Database) -> Self {
        Session {
            engine: Engine::new(db),
        }
    }

    /// Switches the chunk-fold strategy (parallel by default); chainable at
    /// construction time.
    pub fn with_exec_mode(self, mode: ExecMode) -> Self {
        self.engine.set_exec_mode(mode);
        self
    }

    /// Switches the chunk-fold strategy for queries that start from now on.
    /// Safe on a shared session: each in-flight query keeps the mode it
    /// sampled at entry.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        self.engine.set_exec_mode(mode);
    }

    /// The current chunk-fold strategy.
    pub fn exec_mode(&self) -> ExecMode {
        self.engine.exec_mode()
    }

    /// Starts a serving front over this session: bounded admission,
    /// round-robin tenant fairness, and shared-scan batching. See
    /// [`crate::serve`].
    pub fn serve(self: &Arc<Self>, config: ServeConfig) -> Result<Server> {
        Server::start(Arc::clone(self), config)
    }

    /// Registers a raw file as a queryable table.
    ///
    /// # Errors
    ///
    /// Fails on an invalid configuration or a duplicate table name.
    pub fn register_table(
        &self,
        name: impl Into<String>,
        raw_file: impl Into<String>,
        schema: Schema,
        dialect: TextDialect,
        config: ScanRawConfig,
    ) -> Result<()> {
        self.engine
            .register_table(name, raw_file, schema, dialect, config)
    }

    /// Runs an [`ExecRequest`]: one query or a shared-scan batch, with
    /// per-request exec-mode, tracing, and projection options. The session's
    /// single execution entry point. See [`Engine::run`].
    pub fn run(&self, req: ExecRequest) -> Result<ExecOutcome> {
        self.engine.run(req)
    }

    /// Explains a query without running it. See [`Engine::explain`].
    pub fn explain(&self, query: &Query) -> Result<ExplainReport> {
        self.engine.explain(query)
    }

    /// `EXPLAIN ANALYZE`: runs the query and reports plan vs. observed
    /// behaviour. See [`Engine::explain_analyze`].
    pub fn explain_analyze(&self, query: &Query) -> Result<AnalyzeReport> {
        self.engine.explain_analyze(query)
    }

    /// Rebuilds a table's loaded state from its commit log after a simulated
    /// crash. See [`Engine::recover_table`].
    pub fn recover_table(&self, table: &str) -> Result<RecoveryReport> {
        self.engine.recover_table(table)
    }

    /// The underlying low-level engine, for operator/registry access.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The database the session runs over.
    pub fn database(&self) -> &Database {
        self.engine.database()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggExpr, Expr, Predicate};
    use scanraw_obs::ObsEvent;
    use scanraw_rawfile::generate::{stage_csv, CsvSpec};
    use scanraw_types::{Value, WritePolicy};

    #[test]
    fn session_lifecycle() {
        let disk = SimDisk::instant();
        let spec = CsvSpec::new(1_000, 3, 7);
        stage_csv(&disk, "t.csv", &spec);
        let session = Session::open(disk);
        session
            .register_table(
                "t",
                "t.csv",
                Schema::uniform_ints(3),
                TextDialect::CSV,
                ScanRawConfig::default().with_chunk_rows(200),
            )
            .unwrap();
        let q = Query::sum_of_columns("t", 0..3);
        let explain = session.explain(&q).unwrap();
        assert_eq!(explain.projection, vec![0, 1, 2]);
        let outcome = session.run(ExecRequest::query(q)).unwrap().into_single();
        assert_eq!(outcome.result.rows_scanned, 1_000);
        assert!(matches!(outcome.result.scalar(), Some(Value::Int(_))));
    }

    /// Seeded query shapes: the paper's SUM micro-benchmark, a range filter
    /// with several aggregate kinds, a group-by, and a widened projection.
    fn seeded_shapes(cols: usize, seed: u64) -> Vec<Query> {
        let range = Predicate::between(0, 1i64 << 20, (1i64 << 30) + (seed as i64) * 1_000_003);
        let filtered = Query::builder("t")
            .filter(range)
            .aggregate(AggExpr::count())
            .aggregate(AggExpr::sum(Expr::col(1)))
            .aggregate(AggExpr::min(Expr::col(2)))
            .aggregate(AggExpr::avg(Expr::col(1)))
            .build()
            .unwrap();
        vec![
            Query::sum_of_columns("t", 0..cols),
            filtered,
            Query::sum_of_columns("t", 0..1).with_group_by([cols - 1]),
            Query::sum_of_columns("t", 0..1).select(0..cols),
        ]
    }

    /// A single query is a batch of one: both request forms run the same
    /// path, so they agree on rows, `rows_scanned` and chunk sources — cold
    /// and warm, under both exec modes — and differ only in trace shape.
    #[test]
    fn single_query_is_a_batch_of_one() {
        for seed in 1..=4u64 {
            let cols = 3 + (seed % 2) as usize;
            let spec = CsvSpec::new(500 + seed * 100, cols, seed);
            // Odd seeds load everything and keep a 2-chunk cache (warm scans
            // mix cache and db); even seeds never load and cache it all.
            let config = if seed % 2 == 1 {
                ScanRawConfig::default()
                    .with_policy(WritePolicy::Eager)
                    .with_cache_chunks(2)
            } else {
                ScanRawConfig::default().with_policy(WritePolicy::ExternalTables)
            }
            .with_chunk_rows(100)
            .with_workers(2);
            // A cold then a warm traced run of `req` on a fresh session.
            let cold_then_warm = |req: ExecRequest| {
                let disk = SimDisk::instant();
                stage_csv(&disk, "t.csv", &spec);
                let session = Session::open(disk);
                session
                    .register_table(
                        "t",
                        "t.csv",
                        spec.schema(),
                        TextDialect::CSV,
                        config.clone(),
                    )
                    .unwrap();
                [(); 2].map(|()| session.run(req.clone().traced()).unwrap())
            };
            for q in seeded_shapes(cols, seed) {
                for mode in [ExecMode::Serial, ExecMode::Parallel] {
                    let singles = cold_then_warm(ExecRequest::query(q.clone()).mode(mode));
                    let batches = cold_then_warm(ExecRequest::batch([q.clone()]).mode(mode));
                    for (single, batch) in singles.into_iter().zip(batches) {
                        let ctx = format!("seed {seed} {mode:?} {q:?}");
                        let (s, b) = (&single.outcomes[0], &batch.outcomes[0]);
                        assert_eq!(s.result.rows, b.result.rows, "{ctx}");
                        assert_eq!(s.result.rows_scanned, b.result.rows_scanned, "{ctx}");
                        let sources = |scan: &scanraw::ScanSummary| {
                            [
                                scan.from_cache,
                                scan.from_db,
                                scan.from_raw,
                                scan.from_hybrid,
                                scan.skipped,
                            ]
                        };
                        assert_eq!(sources(&s.scan), sources(&b.scan), "{ctx}");

                        // Single: one trace whose `query` root carries the scan.
                        assert!(single.batch_trace.is_none(), "{ctx}");
                        let tree = single.query_traces[0].as_ref().expect("traced");
                        tree.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_eq!(tree.root().unwrap().name, "query", "{ctx}");
                        assert_eq!(tree.spans_named("scan").count(), 1, "{ctx}");
                        // Batch of one: the `query.batch` carrier holds the
                        // scan, plus one root-only `query` trace.
                        let carrier = batch.batch_trace.as_ref().expect("traced");
                        carrier.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_eq!(carrier.root().unwrap().name, "query.batch", "{ctx}");
                        assert_eq!(carrier.spans_named("scan").count(), 1, "{ctx}");
                        assert_eq!(batch.query_traces.len(), 1, "{ctx}");
                        let root_only = batch.query_traces[0].as_ref().expect("traced");
                        root_only
                            .validate()
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_eq!(root_only.spans.len(), 1, "{ctx}");
                        assert_eq!(root_only.root().unwrap().name, "query", "{ctx}");
                    }
                }
            }
        }
    }

    /// An eval error fails the run — for a batch, the whole batch — yet every
    /// trace root the run opened is closed and journaled.
    #[test]
    fn failed_run_closes_every_trace_root() {
        let disk = SimDisk::instant();
        stage_csv(&disk, "t.csv", &CsvSpec::new(500, 3, 11));
        let session = Session::open(disk);
        session
            .register_table(
                "t",
                "t.csv",
                Schema::uniform_ints(3),
                TextDialect::CSV,
                ScanRawConfig::default().with_chunk_rows(100),
            )
            .unwrap();
        let overflowing = Query::builder("t")
            .aggregate(AggExpr::sum(Expr::Mul(
                Box::new(Expr::col(0)),
                Box::new(Expr::lit(i64::MAX)),
            )))
            .build()
            .unwrap();
        let op = session.engine().operator("t").unwrap();
        let batch = ExecRequest::batch([
            Query::sum_of_columns("t", 0..3),
            overflowing.clone(),
            Query::sum_of_columns("t", 1..2),
        ]);
        // (request, trace roots it opens): carrier + one per batched query.
        let requests = [(batch, 4), (ExecRequest::query(overflowing), 1)];
        for (mode, (req, roots)) in [ExecMode::Serial, ExecMode::Parallel]
            .into_iter()
            .flat_map(|m| requests.iter().map(move |r| (m, r.clone())))
        {
            let since = op.obs().journal.total_recorded();
            let err = session.run(req.traced().mode(mode)).unwrap_err();
            assert!(err.to_string().contains("integer overflow"), "{err}");
            op.drain_writes();

            let events: Vec<ObsEvent> = op
                .obs()
                .journal
                .entries()
                .into_iter()
                .filter(|e| e.seq >= since)
                .map(|e| e.event)
                .collect();
            let started: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    ObsEvent::TraceStarted { trace, .. } => Some(*trace),
                    _ => None,
                })
                .collect();
            assert_eq!(started.len(), roots, "{mode:?}: trace roots opened");
            for id in started {
                let completed = events
                    .iter()
                    .filter(|e| matches!(e, ObsEvent::TraceCompleted { trace, .. } if *trace == id))
                    .count();
                assert_eq!(completed, 1, "{mode:?}: trace {id} completions");
                op.obs()
                    .trace
                    .trace(scanraw_obs::TraceId(id))
                    .validate()
                    .unwrap_or_else(|e| panic!("{mode:?}: trace {id} left open: {e}"));
            }
        }
    }

    #[test]
    fn session_exec_mode_toggle() {
        let session = Session::open(SimDisk::instant()).with_exec_mode(ExecMode::Serial);
        assert_eq!(session.exec_mode(), ExecMode::Serial);
    }
}
