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
//!   (paper §3.3).
//! * [`scheduler`] — the event-driven scheduler implementing the WRITE
//!   policies of [`WritePolicy`]: external tables, eager ETL, buffered,
//!   invisible, and the paper's speculative loading with its end-of-scan
//!   safeguard (§4).
//! * [`cache`] — the binary chunks cache: LRU biased toward evicting chunks
//!   already loaded in the database (§3.1 "Caching").
//! * [`profile`] — per-stage timing and worker-utilization tracking (the data
//!   behind Figures 5 and 9).
//! * [`registry`] — one operator per raw file, shared by the execution engine
//!   across query plans (§3.3 "Integration with a database").
//!
//! ## Worker scheduling note
//!
//! The paper separates TOKENIZE/PARSE *consumer* threads that request workers
//! from a scheduler-managed pool. Here each pool worker selects work directly
//! from the stage buffers, preferring the downstream (PARSE) buffer — the
//! same dynamic stage assignment and back-pressure behaviour with fewer
//! moving parts; buffer capacities still gate progress exactly as in §3.2.1.
//! The scheduler thread retains everything observable: READ/WRITE disk
//! arbitration and the write policies.
//!
//! [`WritePolicy`]: scanraw_types::WritePolicy

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod cache;
pub mod operator;
pub mod profile;
pub mod registry;
mod retry;
pub mod scheduler;
pub mod stream;

pub use cache::{CacheCounters, ChunkCache};
pub use operator::{
    ChunkSource, ConvertScope, PushdownFilter, ResourceAdvice, ScanRaw, ScanRequest, ScanSummary,
};
pub use profile::{Profiler, Stage};
pub use registry::OperatorRegistry;
pub use scanraw_types::{ScanRawConfig, WritePolicy};
pub use scheduler::{ColumnHeat, SchedulerReport};
pub use stream::{ChunkStream, ExecHandle, ExecTask};
