//! Retry-with-backoff for simulated device operations.
//!
//! Transient device faults (and read-side corruption, which a re-read can
//! clear — the stored bytes are intact, only the transfer was damaged) are
//! retried under a per-scan budget with linear backoff charged to the device
//! clock. Permanent errors are never retried; the caller decides how to
//! degrade — READ falls back to raw-file conversion, WRITE switches the
//! operator into external-table mode.

use scanraw_obs::{Obs, ObsEvent};
use scanraw_simio::SharedClock;
use scanraw_types::Result;
use std::time::Duration;

/// Metrics counter bumped once per retried attempt.
pub(crate) const RETRY_COUNTER: &str = "scanraw.io.retries";

/// Counter bumped when a database read fell back to raw-file conversion.
pub(crate) const DB_FALLBACK_COUNTER: &str = "scanraw.db.fallbacks";

/// Counter bumped when WRITE degraded the operator to external-table mode.
pub(crate) const DEGRADED_COUNTER: &str = "scanraw.load.degraded";

/// How a pipeline stage retries device operations.
#[derive(Debug, Clone)]
pub(crate) struct RetryPolicy {
    /// Additional attempts after the first (0 = fail fast).
    pub budget: u32,
    /// Attempt `n` (1-based) sleeps `n * backoff` before re-issuing.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// What READ and WRITE retry under: four extra attempts, 200 µs base
    /// backoff (DESIGN.md §10).
    pub(crate) const DEVICE: RetryPolicy = RetryPolicy {
        budget: 4,
        backoff: Duration::from_micros(200),
    };
}

/// Runs `op`, retrying retryable errors (`Error::is_retryable`) up to
/// `policy.budget` extra attempts, sleeping linearly growing backoff on the
/// device clock between attempts. Every retry lands in the journal as an
/// [`ObsEvent::IoRetry`] and bumps the `scanraw.io.retries` counter.
///
/// # Errors
///
/// Returns the last error once the budget is exhausted, or immediately for
/// non-retryable (permanent) errors.
pub(crate) fn with_retry<T>(
    policy: &RetryPolicy,
    clock: &SharedClock,
    obs: &Obs,
    target: &str,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt < policy.budget => {
                attempt += 1;
                obs.metrics.counter(RETRY_COUNTER).inc();
                obs.event(ObsEvent::IoRetry {
                    target: target.to_string(),
                    attempt: u64::from(attempt),
                });
                // The retry span covers just the backoff wait; it nests under
                // whatever span is current on this thread (write.chunk,
                // read.chunk, ...).
                let _span = obs.trace.enter_current(
                    "retry",
                    vec![
                        ("target", target.to_string()),
                        ("attempt", attempt.to_string()),
                    ],
                );
                clock.sleep(policy.backoff * attempt);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanraw_simio::VirtualClock;
    use scanraw_types::Error;
    use std::sync::Arc;

    fn setup() -> (RetryPolicy, SharedClock, Obs) {
        let policy = RetryPolicy {
            budget: 3,
            backoff: Duration::from_micros(100),
        };
        let clock: SharedClock = Arc::new(VirtualClock::new());
        (policy, clock, Obs::new())
    }

    #[test]
    fn transient_errors_retry_until_budget() {
        let (policy, clock, obs) = setup();
        let mut calls = 0;
        let r = with_retry(&policy, &clock, &obs, "f", || {
            calls += 1;
            if calls < 3 {
                Err(Error::io_transient("f", "glitch"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(r.unwrap(), 3);
        assert_eq!(obs.metrics.counter_value(RETRY_COUNTER), Some(2));
        // Linear backoff: 1*100us + 2*100us of virtual time.
        assert_eq!(clock.now(), Duration::from_micros(300));
    }

    #[test]
    fn budget_exhaustion_surfaces_last_error() {
        let (policy, clock, obs) = setup();
        let mut calls = 0u32;
        let r: Result<()> = with_retry(&policy, &clock, &obs, "f", || {
            calls += 1;
            Err(Error::io_transient("f", "glitch"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 4, "initial try plus budget retries");
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let (policy, clock, obs) = setup();
        let mut calls = 0u32;
        let r: Result<()> = with_retry(&policy, &clock, &obs, "f", || {
            calls += 1;
            Err(Error::io_permanent("f", "dead"))
        });
        assert!(r.is_err());
        assert_eq!(calls, 1);
        assert_eq!(clock.now(), Duration::ZERO, "no backoff charged");
        assert_eq!(obs.metrics.counter_value(RETRY_COUNTER), None);
    }

    #[test]
    fn corrupt_reads_are_retryable() {
        let (policy, clock, obs) = setup();
        let mut calls = 0;
        let r = with_retry(&policy, &clock, &obs, "f", || {
            calls += 1;
            if calls == 1 {
                Err(Error::io_corrupt("f", "checksum mismatch"))
            } else {
                Ok(())
            }
        });
        assert!(r.is_ok());
        assert_eq!(calls, 2);
    }
}
