//! Discrete-event simulator of the ScanRaw pipeline.
//!
//! ## Why this exists
//!
//! The paper's parallelism experiments (Figures 4, 7, 8, 9) were run on a
//! 16-core server with a RAID-0 array. This reproduction runs on whatever
//! machine CI provides — possibly a single core — where wall-clock thread
//! scaling is physically meaningless. The simulator plays the pipeline in
//! virtual time, charging per-stage costs from a [`cost::CostModel`] that
//! is *calibrated by measuring the real tokenizer and parser* of this
//! repository on generated data.
//!
//! What it shares with the real operator, rather than re-implementing:
//!
//! * [`ChunkSource::classify`] — the §3.2.1 delivery plan (cache → db →
//!   raw, file order within a source);
//! * [`Lanes`] — the work queue: the dispatch order (EXEC, then PARSE, then
//!   TOKENIZE), the text and position lane bounds, the hand-back of a
//!   tokenized chunk the position lane refuses, and READ blocked as a
//!   `Full` text push. Every delivered chunk is an EXEC task on the
//!   simulated pool, as the engine submits it to the operator's;
//! * [`LoadPolicy`] — what to store and when, for every [`WritePolicy`],
//!   with the speculative rule and the safeguard flush; the simulator feeds
//!   it the same events the operator's scheduler thread does;
//! * [`LoadBiasedLru`] — the cache's eviction order (load-biased LRU).
//!
//! What it models (and what the figures depend on):
//!
//! * the ratio of per-chunk conversion and execution cost to disk
//!   bandwidth — this sets the CPU-bound ↔ I/O-bound crossover of Figure 4;
//! * the worker pool size, capped by the machine's cores;
//! * the device: READ has priority over WRITE, a direction switch costs a
//!   seek, and the WRITE queue outlives a query — this sets the per-query
//!   convergence of Figure 8;
//! * per-task dispatch overhead and pipeline fill/drain — Figure 7.
//!
//! [`WritePolicy`]: scanraw_types::WritePolicy
//! [`LoadPolicy`]: scanraw::LoadPolicy
//! [`LoadBiasedLru`]: scanraw::LoadBiasedLru
//! [`ChunkSource::classify`]: scanraw::ChunkSource::classify
//! [`Lanes`]: scanraw::Lanes

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod cost;
pub mod sim;

pub use cost::{measure_cost_model, CostModel};
pub use sim::{FileSpec, QuerySim, QuerySpec, SimConfig, Simulator, UtilSample};
