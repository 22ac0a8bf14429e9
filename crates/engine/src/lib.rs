//! A columnar query execution engine running over the ScanRaw operator.
//!
//! The paper integrates ScanRaw with the DataPath system and evaluates SQL
//! aggregate queries (`SELECT SUM(ΣCi) FROM file`, and a group-by aggregate
//! with a pattern-matching predicate for the genomic workload). This crate
//! provides exactly that slice of an execution engine:
//!
//! * [`expr`] — scalar expressions over chunk rows (column refs, literals,
//!   arithmetic);
//! * [`predicate`] — boolean predicates (comparisons, SQL-`LIKE` pattern
//!   matching, conjunction/disjunction) plus best-effort extraction of a
//!   range for chunk skipping;
//! * [`aggregate`] — SUM / COUNT / MIN / MAX / AVG accumulators;
//! * [`query`] — the query description and result types;
//! * [`executor`] — the low-level [`executor::Engine`] and its one
//!   execution path, `Engine::run(ExecRequest)`: plans the scan (union
//!   projection, convert scope, common skip predicate), scans ScanRaw once,
//!   filters, and folds aggregates — serially or chunk-parallel on the
//!   operator's worker pool ([`executor::ExecMode`]). A single query is a
//!   batch of one;
//! * [`ExecPlan`] — a query compiled once into typed kernels over column
//!   slices, run per chunk into a mergeable [`Partial`] (parallel
//!   execution's unit of work);
//! * [`session`] — the [`Session`] facade: the high-level entry point
//!   wrapping engine construction, registration, execution
//!   ([`Session::run`]), and recovery;
//! * [`serve`] — the multi-tenant serving layer over one `Arc<Session>`:
//!   bounded admission with [`Error::Overloaded`](scanraw_types::Error)
//!   rejection, round-robin tenant fairness, and automatic shared-scan
//!   batching ([`Server`]), every dispatch one `ExecRequest`;
//! * [`bamscan`] — the Table 1 binary path: the same query logic driven by
//!   the *sequential* BAM-sim reader, where ScanRaw only performs MAP.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod aggregate;
pub mod bamscan;
pub mod executor;
pub mod expr;
mod parallel;
pub mod predicate;
pub mod query;
pub mod serve;
pub mod session;

pub use aggregate::{AggExpr, AggFunc};
pub use executor::{
    AnalyzeReport, Engine, ExecMode, ExecOutcome, ExecRequest, ExplainReport, QueryOutcome,
};
pub use expr::{Col, Expr};
pub use parallel::{ExecPlan, Partial};
pub use predicate::Predicate;
pub use query::{Query, QueryBuilder, QueryResult};
pub use serve::{ServeConfig, ServeCounters, Server, TenantId, Ticket};
pub use session::Session;
