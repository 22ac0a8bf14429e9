//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the `crossbeam::channel` slice the workspace uses: MPMC
//! bounded/unbounded channels with cloneable senders *and* receivers,
//! blocking `send`/`recv`, and crossbeam's disconnection semantics (a channel disconnects when all handles on the
//! other side drop; queued messages remain receivable after the senders are
//! gone). Built on `std::sync::{Mutex, Condvar}` — slower than the real
//! lock-free implementation but semantically equivalent for the pipeline.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
pub mod channel;
