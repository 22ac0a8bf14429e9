//! The multi-tenant serving layer: bounded admission, per-tenant fairness,
//! and automatic shared-scan batching over one `Arc<Session>`.
//!
//! The paper's pipeline assumes a single query stream; this module is the
//! serving front that turns the (now thread-shareable) engine into something
//! many concurrent callers can hammer:
//!
//! * **Admission control** — a bounded queue. Past
//!   [`ServeConfig::max_queue_depth`] outstanding queries, submissions are
//!   rejected with [`Error::Overloaded`] instead of queuing unboundedly.
//! * **Per-tenant fairness** — queued queries are keyed by tenant id and
//!   dispatched round-robin across tenants (a deficit round-robin with a
//!   quantum of one query per turn), so a tenant flooding the queue cannot
//!   starve another's head-of-line query: every tenant with pending work is
//!   served once per cycle.
//! * **Shared-scan batching** — when the dispatcher picks a query, it
//!   co-opts up to [`ServeConfig::batch_window`] *currently queued* queries
//!   against the same table (round-robin across tenants again) into the
//!   one [`ExecRequest`] it runs, so concurrent arrivals share a scan
//!   instead of each paying one. The window is queue-state-based, not
//!   wall-clock-based: dispatch never waits for stragglers, which keeps
//!   batching deterministic under virtual clocks (`batch_window = 0`
//!   disables it).
//!
//! Everything is observable through the server's own [`Obs`] bundle, on the
//! device clock: `serve.*` counters, a `serve.queue.depth` gauge, per-tenant
//! latency histograms, and `QueryAdmitted` / `QueryRejected` /
//! `BatchFormed` / `QueryServed` journal events. The `query` trace roots the
//! engine mints for a dispatch carry `tenant` and `serve.batch` tags.
//!
//! Locking discipline: one mutex guards the queue state; it is never held
//! across a channel operation, a query execution, or a journal append — the
//! dispatcher snapshots a batch under the lock, drops it, then runs the
//! scan. Wake-ups ride an unbounded token channel (one token per admit), so
//! no condvar is needed and a spurious token is just an empty dispatch.

use crate::executor::{ExecRequest, QueryOutcome};
use crate::query::Query;
use crate::session::Session;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use scanraw_obs::{json, Obs, ObsEvent, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use scanraw_types::{Error, Result};

/// Identifies one tenant (caller) of the serving layer. Plain integers keep
/// the fairness state and the obs tags cheap; map your authn identities to
/// ids at the edge.
pub type TenantId = u64;

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission bound: submissions past this many queued queries are
    /// rejected with [`Error::Overloaded`]. Must be at least 1.
    pub max_queue_depth: usize,
    /// How many additional queued same-table queries one dispatch may co-opt
    /// into a shared scan (batch size ≤ `1 + batch_window`). `0` disables
    /// batching: every query pays its own scan.
    pub batch_window: usize,
    /// Dispatcher threads. `0` means no background dispatch: callers drive
    /// the queue explicitly with [`Server::pump`] (deterministic mode, used
    /// by the differential tests).
    pub dispatchers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_queue_depth: 64,
            batch_window: 7,
            dispatchers: 2,
        }
    }
}

impl ServeConfig {
    pub fn validate(&self) -> Result<()> {
        if self.max_queue_depth == 0 {
            return Err(Error::Config(
                "serve.max_queue_depth must be at least 1".into(),
            ));
        }
        Ok(())
    }

    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    pub fn with_batch_window(mut self, window: usize) -> Self {
        self.batch_window = window;
        self
    }

    pub fn with_dispatchers(mut self, n: usize) -> Self {
        self.dispatchers = n;
        self
    }
}

/// One admitted query waiting for dispatch.
struct Pending {
    tenant: TenantId,
    query: Query,
    admitted_at: Duration,
    reply: Sender<Result<QueryOutcome>>,
}

/// Queue state behind the one serving-layer mutex.
struct QueueState {
    /// Per-tenant FIFO queues. A `BTreeMap` gives the round-robin cursor a
    /// deterministic tenant order (and keeps iteration ordered for L014).
    queues: BTreeMap<TenantId, VecDeque<Pending>>,
    /// Tenant served most recently; the next turn goes to the first tenant
    /// after it (cyclically) with pending work.
    rr_cursor: Option<TenantId>,
    /// Total queued queries across tenants (the admission bound applies to
    /// this, not to any single tenant).
    depth: usize,
    /// Monotonic id for [`ObsEvent::BatchFormed`] / [`ObsEvent::QueryServed`].
    next_batch: u64,
    /// Every tenant that was ever admitted, for the latency report.
    seen: BTreeSet<TenantId>,
}

/// A dispatch unit snapshotted out of the queue: one seed query plus any
/// same-table queries co-opted into its scan.
struct Batch {
    id: u64,
    items: Vec<Pending>,
}

struct Shared {
    session: Arc<Session>,
    config: ServeConfig,
    obs: Obs,
    state: Mutex<QueueState>,
    closed: AtomicBool,
}

/// A submitted query's handle; redeem it with [`Ticket::wait`].
pub struct Ticket {
    rx: Receiver<Result<QueryOutcome>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the query is served (or the server shuts down without
    /// serving it, which yields [`Error::Pipeline`]).
    pub fn wait(self) -> Result<QueryOutcome> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(Error::Pipeline(
                "serving dispatcher dropped the reply".into(),
            )),
        }
    }
}

/// The serving front over one shared [`Session`]. See the module docs.
///
/// Dropping the server shuts it down: new submissions are rejected, the
/// dispatchers drain every already-admitted query, then exit.
pub struct Server {
    shared: Arc<Shared>,
    /// Dropping the sender disconnects the token channel, which is the
    /// dispatchers' signal to drain and exit.
    token_tx: Mutex<Option<Sender<()>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Starts a server over a shared session. With `config.dispatchers == 0`
    /// no threads are spawned and the caller drives dispatch via
    /// [`Server::pump`].
    pub fn start(session: Arc<Session>, config: ServeConfig) -> Result<Server> {
        config.validate()?;
        // The server's journal and histograms read the session's device
        // clock, so serve latencies line up with scan spans and are
        // deterministic under a virtual clock.
        let clock = session.database().disk().clock().clone();
        let obs = Obs::with_time_source(
            scanraw_obs::DEFAULT_JOURNAL_CAPACITY,
            Arc::new(move || clock.now()),
        );
        let shared = Arc::new(Shared {
            session,
            config: config.clone(),
            obs,
            state: Mutex::new(QueueState {
                queues: BTreeMap::new(),
                rr_cursor: None,
                depth: 0,
                next_batch: 0,
                seen: BTreeSet::new(),
            }),
            closed: AtomicBool::new(false),
        });
        let (token_tx, token_rx) = unbounded::<()>();
        let handles = (0..config.dispatchers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let tokens = token_rx.clone();
                std::thread::Builder::new()
                    .name(format!("serve-dispatch-{i}"))
                    .spawn(move || run_dispatcher(&shared, &tokens))
                    .map_err(|e| Error::Pipeline(format!("spawning dispatcher: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Server {
            shared,
            token_tx: Mutex::new(Some(token_tx)),
            handles: Mutex::new(handles),
        })
    }

    /// Submits a query for `tenant`, returning a [`Ticket`] immediately.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] when the admission queue is at its bound;
    /// [`Error::Pipeline`] after shutdown; validation errors
    /// ([`Error::Query`]/[`Error::InvalidQuery`]) for malformed queries —
    /// validation happens here, up front, so one bad query can never poison
    /// a shared-scan batch it would have joined.
    pub fn submit(&self, tenant: TenantId, query: &Query) -> Result<Ticket> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(Error::Pipeline("server is shut down".into()));
        }
        let op = self.shared.session.engine().operator(&query.table)?;
        query.validate(op.schema().len())?;

        let (tx, rx) = bounded::<Result<QueryOutcome>>(1);
        let admitted_at = now(&self.shared);
        // Admission decision under the queue lock; obs and the wake-up token
        // stay outside it.
        let depth_after = {
            let mut st = self.shared.state.lock();
            if st.depth >= self.shared.config.max_queue_depth {
                let depth = st.depth;
                drop(st);
                self.shared.obs.metrics.counter("serve.rejected").inc();
                self.shared.obs.event(ObsEvent::QueryRejected {
                    tenant,
                    depth: depth as u64,
                });
                return Err(Error::overloaded(depth));
            }
            st.depth += 1;
            st.seen.insert(tenant);
            st.queues.entry(tenant).or_default().push_back(Pending {
                tenant,
                query: query.clone(),
                admitted_at,
                reply: tx,
            });
            st.depth
        };
        self.shared.obs.metrics.counter("serve.admitted").inc();
        self.shared
            .obs
            .metrics
            .gauge("serve.queue.depth")
            .set(depth_after as i64);
        self.shared.obs.event(ObsEvent::QueryAdmitted {
            tenant,
            depth: depth_after as u64,
        });
        // One token per admitted query; a batch that drains several queries
        // leaves surplus tokens behind, which later wake a dispatcher to an
        // empty queue — harmless by design.
        let sender = self.token_tx.lock().clone();
        if let Some(tx) = sender {
            let _ = tx.send(());
        }
        Ok(Ticket { rx })
    }

    /// Submits and blocks until served: `submit(tenant, query)?.wait()`.
    pub fn execute(&self, tenant: TenantId, query: &Query) -> Result<QueryOutcome> {
        self.submit(tenant, query)?.wait()
    }

    /// Dispatches one batch on the calling thread, returning how many
    /// queries it served (0 when the queue is empty). This is the
    /// deterministic dispatch mode for `dispatchers == 0`; it is also safe
    /// alongside running dispatchers.
    pub fn pump(&self) -> usize {
        match take_batch(&self.shared) {
            Some(batch) => run_batch(&self.shared, batch),
            None => 0,
        }
    }

    /// Stops accepting queries, drains everything already admitted, joins
    /// the dispatchers. Idempotent; also called on drop.
    pub fn shutdown(&self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        // Disconnect the token channel: dispatchers finish the backlog and
        // exit (see run_dispatcher).
        drop(self.token_tx.lock().take());
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
        // In pump mode (or if a caller raced shutdown) there may still be
        // queued queries; serve them here so shutdown never drops work.
        while self.pump() > 0 {}
    }

    /// The server's metrics registry, journal, and span recorder.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The session this server dispatches into.
    pub fn session(&self) -> &Arc<Session> {
        &self.shared.session
    }

    /// Admission/batching counters, read from the metrics registry.
    pub fn counters(&self) -> ServeCounters {
        let m = &self.shared.obs.metrics;
        ServeCounters {
            admitted: m.counter_value("serve.admitted").unwrap_or(0),
            rejected: m.counter_value("serve.rejected").unwrap_or(0),
            completed: m.counter_value("serve.completed").unwrap_or(0),
            batches: m.counter_value("serve.batches").unwrap_or(0),
            batched_queries: m.counter_value("serve.batched_queries").unwrap_or(0),
        }
    }

    /// Per-tenant latency report (counts and p50/p95/p99 in nanoseconds on
    /// the device clock) plus the admission counters — the artifact the CI
    /// serve-stress job uploads.
    pub fn latency_report(&self) -> Value {
        let tenants: Vec<TenantId> = {
            let st = self.shared.state.lock();
            st.seen.iter().copied().collect()
        };
        let per_tenant: Vec<Value> = tenants
            .iter()
            .map(|t| {
                let name = format!("serve.tenant.{t}.latency.nanos");
                match self.shared.obs.metrics.histogram_snapshot(&name) {
                    Some(s) => json!({
                        "tenant": *t,
                        "served": s.count,
                        "p50_nanos": s.quantile(0.50),
                        "p95_nanos": s.quantile(0.95),
                        "p99_nanos": s.quantile(0.99),
                    }),
                    None => json!({"tenant": *t, "served": 0u64}),
                }
            })
            .collect();
        let c = self.counters();
        json!({
            "admitted": c.admitted,
            "rejected": c.rejected,
            "completed": c.completed,
            "batches": c.batches,
            "batched_queries": c.batched_queries,
            "tenants": per_tenant,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Snapshot of the serving counters; `admitted == completed` once the queue
/// is drained, and `submissions == admitted + rejected` always.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCounters {
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub batches: u64,
    pub batched_queries: u64,
}

fn now(shared: &Shared) -> Duration {
    shared.session.database().disk().clock().now()
}

/// Dispatcher thread body: block on the token channel, dispatch, repeat;
/// when the channel disconnects (shutdown), drain the backlog and exit.
fn run_dispatcher(shared: &Shared, tokens: &Receiver<()>) {
    while tokens.recv().is_ok() {
        // A token with nothing queued is the surplus left by a batched
        // dispatch draining several admissions at once — harmless.
        if let Some(batch) = take_batch(shared) {
            run_batch(shared, batch);
        }
    }
    while let Some(batch) = take_batch(shared) {
        run_batch(shared, batch);
    }
}

/// The round-robin pick: first tenant strictly after the cursor (cyclically)
/// with pending work.
fn next_tenant(
    queues: &BTreeMap<TenantId, VecDeque<Pending>>,
    cursor: Option<TenantId>,
) -> Option<TenantId> {
    let after = cursor.and_then(|c| {
        queues
            .range((Bound::Excluded(c), Bound::Unbounded))
            .find(|(_, q)| !q.is_empty())
            .map(|(t, _)| *t)
    });
    after.or_else(|| queues.iter().find(|(_, q)| !q.is_empty()).map(|(t, _)| *t))
}

/// Snapshots one dispatch unit out of the queue: advances the round-robin
/// cursor, pops the seed query, then co-opts up to `batch_window` queued
/// same-table queries, visiting tenants round-robin so no single tenant
/// monopolizes the shared scan. Returns `None` when the queue is empty.
fn take_batch(shared: &Shared) -> Option<Batch> {
    let (batch, depth_after) = {
        let mut st = shared.state.lock();
        let seed_tenant = next_tenant(&st.queues, st.rr_cursor)?;
        st.rr_cursor = Some(seed_tenant);
        let seed = st.queues.get_mut(&seed_tenant)?.pop_front()?;
        st.depth -= 1;
        let window = shared.config.batch_window;
        let mut items = vec![seed];
        if window > 0 && !items[0].query.pushdown {
            let table = items[0].query.table.clone();
            // Cyclic tenant order starting after the seed, seed last: other
            // tenants get first claim on the shared scan's free seats.
            let mut order: Vec<TenantId> = st
                .queues
                .range((Bound::Excluded(seed_tenant), Bound::Unbounded))
                .map(|(t, _)| *t)
                .collect();
            order.extend(
                st.queues
                    .range((Bound::Unbounded, Bound::Included(seed_tenant)))
                    .map(|(t, _)| *t),
            );
            let mut extras = window;
            // Each pass takes at most one query per tenant; repeat until the
            // window is full or nothing matched.
            while extras > 0 {
                let mut took = false;
                for t in &order {
                    if extras == 0 {
                        break;
                    }
                    let Some(q) = st.queues.get_mut(t) else {
                        continue;
                    };
                    let Some(pos) = q
                        .iter()
                        .position(|p| p.query.table == table && !p.query.pushdown)
                    else {
                        continue;
                    };
                    if let Some(p) = q.remove(pos) {
                        items.push(p);
                        extras -= 1;
                        took = true;
                    }
                }
                if !took {
                    break;
                }
            }
            st.depth -= items.len() - 1;
        }
        let id = st.next_batch;
        st.next_batch += 1;
        (Batch { id, items }, st.depth)
    };
    shared
        .obs
        .metrics
        .gauge("serve.queue.depth")
        .set(depth_after as i64);
    Some(batch)
}

/// Executes a snapshotted batch (no queue lock held), delivers each reply,
/// and records the per-tenant telemetry. Returns the number of queries
/// served.
fn run_batch(shared: &Shared, batch: Batch) -> usize {
    let Batch { id, items } = batch;
    let n = items.len();
    let table = items
        .first()
        .map(|p| p.query.table.clone())
        .unwrap_or_default();
    let distinct: BTreeSet<TenantId> = items.iter().map(|p| p.tenant).collect();
    shared.obs.metrics.counter("serve.batches").inc();
    shared
        .obs
        .metrics
        .counter("serve.batched_queries")
        .add(n as u64);
    shared.obs.event(ObsEvent::BatchFormed {
        batch: id,
        table: table.clone(),
        queries: n as u64,
        tenants: distinct.len() as u64,
    });

    let request = ExecRequest::served(items.iter().map(|p| (p.tenant, p.query.clone())), id);
    let results: Vec<Result<QueryOutcome>> = match shared.session.run(request) {
        Ok(out) => out.outcomes.into_iter().map(Ok).collect(),
        // A whole-scan failure answers every batched query with the same
        // error; nothing is silently dropped.
        Err(e) => items.iter().map(|_| Err(e.clone())).collect(),
    };
    // Degradation is operator-level (a permanent device fault flips the scan
    // to external-table mode); sampling it at completion attributes the
    // degraded state to every tenant whose query just ran under it.
    let degraded = shared
        .session
        .engine()
        .operator(&table)
        .map(|op| op.load_degraded())
        .unwrap_or(false);
    let finished = now(shared);
    for (p, result) in items.into_iter().zip(results) {
        let latency = finished.saturating_sub(p.admitted_at);
        shared
            .obs
            .metrics
            .duration_histogram(&format!("serve.tenant.{}.latency.nanos", p.tenant))
            .observe_duration(latency);
        shared.obs.metrics.counter("serve.completed").inc();
        shared.obs.event(ObsEvent::QueryServed {
            tenant: p.tenant,
            batch: id,
            latency_micros: latency.as_micros() as u64,
            degraded,
        });
        // A receiver gone just means the caller dropped its ticket.
        let _ = p.reply.send(result);
    }
    n
}
