//! # ScanRaw — parallel in-situ processing over raw files
//!
//! This crate is the paper's primary contribution (Cheng & Rusu, SIGMOD
//! 2014): a database physical operator that queries raw files in place with a
//! super-scalar parallel pipeline, and *speculatively loads* converted data
//! into the database whenever the disk would otherwise sit idle.
//!
//! ## Architecture (paper Figures 2 and 3)
//!
//! ```text
//!              ┌─────────── worker pool (TOKENIZE / PARSE+MAP) ──────────┐
//! raw file ──READ──▶ [text chunks buffer] ──▶ [position buffer] ──▶ cache+output ──▶ engine
//!     ▲                                                              │
//!     └────────────── scheduler (control messages) ◀──── WRITE ◀─────┘
//!                                                          │
//!                                                       database
//! ```
//!
//! * [`operator::ScanRaw`] — the operator: owns the binary-chunk cache, the
//!   persistent WRITE thread, and the per-scan pipeline threads. An instance
//!   is attached to a raw file, not to a query, and survives across queries
//!   (paper §3.3). A scan is planned as one list of chunks in §3.2.1 delivery
//!   order and READ is one loop over it: each chunk is fetched from its
//!   planned source (cache, database, hybrid, raw) or, when that source no
//!   longer has it, from the next one down. [`ChunkSource::classify`] is the
//!   one classifier behind the plan, EXPLAIN and the simulator's plan.
//! * [`scheduler`] — [`LoadPolicy`], the one implementation of the WRITE
//!   policies of [`WritePolicy`] (external tables, eager ETL, buffered,
//!   invisible, and the paper's speculative loading with its end-of-scan
//!   safeguard, §4), and the scheduler thread that runs it over the scan's
//!   control messages. The pipeline simulator runs the same type.
//! * [`Lanes`] — the per-scan work queue as a thread-free state machine: the
//!   text-chunks buffer, the position buffer and the engine's EXEC lane, the
//!   dispatch order (EXEC, then PARSE, then TOKENIZE), both lane bounds, the
//!   hand-back of a tokenized chunk the position buffer refuses, and READ
//!   blocked as a `Full` text push. The operator runs it behind one lock
//!   (the crate-private `WorkQueue`: READ blocks on it, workers block on it,
//!   and closing it is how a scan shuts down; there is no timer and no stop
//!   flag in the pipeline); the pipeline simulator drives the same type.
//! * [`stream`] — the engine-facing end: the chunk iterator, the EXEC
//!   handle, and the one teardown behind `finish` and `Drop`, which closes
//!   the queue and joins the threads.
//! * [`cache`] — the binary chunks cache: LRU biased toward evicting chunks
//!   already loaded in the database (§3.1 "Caching"), an order
//!   ([`LoadBiasedLru`]) the pipeline simulator keeps as well.
//! * [`profile`] — time per stage (the data behind Figure 5): a typed view
//!   over the six `pipeline.stage.*.nanos` histograms of the operator's
//!   metrics registry, the only place stage time is kept.
//! * [`registry`] — one operator per raw file, shared by the execution engine
//!   across query plans (§3.3 "Integration with a database").
//!
//! ## Worker scheduling note
//!
//! The paper separates TOKENIZE/PARSE *consumer* threads that request workers
//! from a scheduler-managed pool. Here each pool worker takes work directly
//! from the scan's queue, downstream-most lane first (EXEC, then PARSE, then
//! TOKENIZE) — the same dynamic stage assignment and back-pressure behaviour
//! with fewer moving parts; the buffer capacities still gate READ exactly as
//! in §3.2.1, and a worker that finds the position buffer full parses its
//! chunk itself instead of waiting. The scheduler thread retains everything
//! observable: READ/WRITE disk arbitration and the write policies, driven by
//! READ-blocked as a level (`ReadBlocked` … `ReadResumed`).
//!
//! [`WritePolicy`]: scanraw_types::WritePolicy

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod cache;
pub mod operator;
pub mod profile;
mod queue;
pub mod registry;
mod retry;
pub mod scheduler;
pub mod stream;

pub use cache::{CacheCounters, ChunkCache, LoadBiasedLru};
pub use operator::{
    ChunkSource, ConvertScope, PushdownFilter, ResourceAdvice, ScanRaw, ScanRequest, ScanSummary,
};
pub use profile::{Profiler, Stage};
pub use queue::{Lanes, TextPushError, Work};
pub use registry::OperatorRegistry;
pub use scanraw_types::{ScanRawConfig, WritePolicy};
pub use scheduler::{ColumnHeat, LoadEvent, LoadHost, LoadPolicy, SchedulerReport, Trigger};
pub use stream::{ChunkStream, ExecHandle, ExecTask};
