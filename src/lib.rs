//! # scanraw-repro — umbrella crate
//!
//! Reproduction of *"Parallel In-Situ Data Processing with Speculative
//! Loading"* (Cheng & Rusu, SIGMOD 2014). This crate re-exports the public
//! API of every workspace member so examples and downstream users can depend
//! on a single crate:
//!
//! * [`types`] — schemas, values, chunks, configuration;
//! * [`simio`] — the simulated storage device;
//! * [`rawfile`] — chunker, TOKENIZE/PARSE stages, CSV/SAM/BAM-sim formats,
//!   data generators;
//! * [`storage`] — the columnar database (catalog + column store);
//! * [`core`] — the ScanRaw operator itself (pipeline, scheduler, cache,
//!   speculative loading);
//! * [`engine`] — the query execution engine;
//! * [`pipesim`] — the discrete-event pipeline simulator used by the
//!   paper-scale experiments.
//!
//! ## Quick start
//!
//! ```
//! use scanraw_repro::prelude::*;
//!
//! // A device with instant I/O (tests); use DiskConfig::default() for the
//! // paper's throttled 436 MB/s device.
//! let disk = SimDisk::instant();
//! scanraw_repro::rawfile::generate::stage_csv(&disk, "t.csv", &CsvSpec::new(1000, 4, 1));
//!
//! // A Session wraps the engine, the database, and table registration.
//! let session = Session::open(disk);
//! session
//!     .register_table("t", "t.csv", Schema::uniform_ints(4), TextDialect::CSV,
//!                     ScanRawConfig::default().with_chunk_rows(100))
//!     .unwrap();
//!
//! // SELECT SUM(c0+c1+c2+c3) FROM t — instantly, no loading required;
//! // speculative loading stores chunks whenever the device would idle, and
//! // delivered chunks are evaluated in parallel on the conversion workers.
//! let out = session
//!     .run(ExecRequest::query(Query::sum_of_columns("t", 0..4)))
//!     .unwrap()
//!     .into_single();
//! assert_eq!(out.result.rows_scanned, 1000);
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub use scanraw as core;
pub use scanraw_engine as engine;
pub use scanraw_obs as obs;
pub use scanraw_pipesim as pipesim;
pub use scanraw_rawfile as rawfile;
pub use scanraw_simio as simio;
pub use scanraw_storage as storage;
pub use scanraw_types as types;

/// The most common imports in one place.
pub mod prelude {
    pub use scanraw::{
        ColumnHeat, ConvertScope, OperatorRegistry, ScanRaw, ScanRequest, ScanSummary,
    };
    pub use scanraw_engine::{
        AggExpr, AnalyzeReport, Col, Engine, ExecMode, ExecOutcome, ExecRequest, Expr, Predicate,
        Query, QueryBuilder, QueryOutcome, ServeConfig, ServeCounters, Server, Session, TenantId,
        Ticket,
    };
    pub use scanraw_obs::{Obs, ObsEvent, QueryTrace, SpanRecord, TraceId};
    pub use scanraw_rawfile::generate::CsvSpec;
    pub use scanraw_rawfile::TextDialect;
    pub use scanraw_simio::{DiskConfig, SimDisk};
    pub use scanraw_storage::Database;
    pub use scanraw_types::{
        DataType, Field, RangePredicate, ScanRawConfig, Schema, Value, WritePolicy,
    };
}
