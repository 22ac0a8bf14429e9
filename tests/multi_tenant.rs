//! Seeded stress/differential suite for the multi-tenant serving layer
//! (ISSUE 8 headline artifact).
//!
//! Every test drives the [`Server`] front over one shared `Arc<Session>` and
//! asserts the serving-layer contract:
//!
//! 1. **Oracle equality** — every served answer is identical to serial
//!    execution of the same query on a clean twin device (admission,
//!    fairness, and batching may change *performance*, never answers);
//! 2. **Fairness** — dispatch is round-robin across tenants with pending
//!    work, so a flooding tenant cannot starve another's head-of-line query;
//! 3. **Accounting** — the serve counters reconcile exactly:
//!    `submissions == admitted + rejected` always, and once the queue is
//!    drained `admitted == completed`, with per-tenant histogram counts and
//!    `QueryServed` journal events matching per-tenant submissions;
//! 4. **Batching transparency** — `batch_window = 0` and the default window
//!    produce bit-identical rows and row counts on the same seeded
//!    submission stream, while the batched run provably shares scans.
//!
//! The fault module (under `--features fault-inject`) replays the serving
//! path under seeded device fault schedules — `SCANRAW_FAULT_SCHEDULES`
//! caps the sweep exactly like `tests/fault_schedules.rs`.

use scanraw_repro::engine::query::ResultRow;
use scanraw_repro::prelude::*;
use scanraw_repro::rawfile::generate::{stage_csv, CsvSpec};
use scanraw_repro::simio::AccessKind;
use scanraw_repro::types::Error;
use std::sync::Arc;
use std::thread;

/// Stages `spec` on a fresh instant device and registers it as table `t`.
fn make_session(spec: &CsvSpec, cols: usize, config: ScanRawConfig) -> Arc<Session> {
    let disk = SimDisk::instant();
    stage_csv(&disk, "t.csv", spec);
    let session = Session::open(disk);
    session
        .register_table(
            "t",
            "t.csv",
            Schema::uniform_ints(cols),
            TextDialect::CSV,
            config,
        )
        .unwrap();
    Arc::new(session)
}

/// The three seeded query shapes shared with the parallel-exec suite: the
/// paper's SUM-of-columns micro-benchmark, a range filter with several
/// aggregate kinds, and a group-by. All non-pushdown, so all batchable.
fn seeded_queries(cols: usize, seed: u64) -> Vec<Query> {
    vec![
        Query::sum_of_columns("t", 0..cols),
        Query {
            table: "t".into(),
            filter: Some(Predicate::between(
                0,
                1i64 << 20,
                (1i64 << 30) + (seed as i64) * 1_000_003,
            )),
            group_by: vec![],
            aggregates: vec![
                AggExpr::count(),
                AggExpr::sum(Expr::col(1)),
                AggExpr::min(Expr::col(2)),
                AggExpr::max(Expr::col(2)),
                AggExpr::avg(Expr::col(1)),
            ],
            pushdown: false,
            projection: None,
        },
        Query {
            table: "t".into(),
            filter: Some(Predicate::between(1, 0i64, i64::MAX)),
            group_by: vec![Col(cols - 1)],
            aggregates: vec![AggExpr::count(), AggExpr::sum(Expr::col(0))],
            pushdown: false,
            projection: None,
        },
    ]
}

/// The serial oracle: each query executed one-by-one on a clean twin device
/// in [`ExecMode::Serial`] — no server, no batching, no concurrency.
fn serial_oracle(
    spec: &CsvSpec,
    cols: usize,
    config: &ScanRawConfig,
    workloads: &[(TenantId, Vec<Query>)],
) -> Vec<Vec<(Vec<ResultRow>, u64)>> {
    let session = make_session(spec, cols, config.clone());
    session.set_exec_mode(ExecMode::Serial);
    workloads
        .iter()
        .map(|(_, queries)| {
            queries
                .iter()
                .map(|q| {
                    let out = session
                        .run(ExecRequest::query(q.clone()))
                        .expect("oracle run is fault-free")
                        .into_single();
                    (out.result.rows, out.result.rows_scanned)
                })
                .collect()
        })
        .collect()
}

/// Runs every tenant's workload on its own thread through the server
/// (blocking per query), returning per-tenant results in workload order.
fn run_tenants(
    server: &Server,
    workloads: &[(TenantId, Vec<Query>)],
) -> Vec<Vec<(Vec<ResultRow>, u64)>> {
    thread::scope(|s| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|(tenant, queries)| {
                s.spawn(move || {
                    queries
                        .iter()
                        .map(|q| {
                            let out = server.execute(*tenant, q).expect("served query succeeds");
                            (out.result.rows, out.result.rows_scanned)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    })
}

/// Per-tenant `QueryServed` tallies from the server journal.
fn served_per_tenant(server: &Server) -> std::collections::BTreeMap<TenantId, u64> {
    let mut counts = std::collections::BTreeMap::new();
    for entry in server.obs().journal.entries() {
        if let ObsEvent::QueryServed { tenant, .. } = entry.event {
            *counts.entry(tenant).or_insert(0u64) += 1;
        }
    }
    counts
}

/// Satellite 1: N tenant threads × M seeded workloads against one
/// `Arc<Session>` — oracle-identical answers, reconciled counters, matching
/// per-tenant accounting, and a bounded per-tenant p99 (no starvation).
/// When `SCANRAW_SERVE_REPORT` is set, writes the per-tenant latency report
/// there (the CI serve-stress artifact).
#[test]
fn stress_tenants_share_one_session_and_match_the_serial_oracle() {
    let cols = 4;
    let spec = CsvSpec::new(2_400, cols, 97);
    let config = ScanRawConfig::default()
        .with_chunk_rows(300)
        .with_workers(2)
        .with_policy(WritePolicy::speculative());

    // 4 tenants × (2 seeds × 3 query shapes) = 24 queries total.
    let workloads: Vec<(TenantId, Vec<Query>)> = (0..4u64)
        .map(|t| {
            let queries = (0..2)
                .flat_map(|s| seeded_queries(cols, t * 31 + s))
                .collect();
            (t, queries)
        })
        .collect();
    let oracle = serial_oracle(&spec, cols, &config, &workloads);

    let session = make_session(&spec, cols, config);
    let server = session.serve(ServeConfig::default()).unwrap();
    let results = run_tenants(&server, &workloads);
    assert_eq!(
        results, oracle,
        "served answers diverged from the serial oracle"
    );

    server.shutdown();
    let c = server.counters();
    let submitted: u64 = workloads.iter().map(|(_, qs)| qs.len() as u64).sum();
    assert_eq!(c.admitted, submitted, "every submission was admitted");
    assert_eq!(c.rejected, 0, "blocking tenants never hit the depth bound");
    assert_eq!(
        c.admitted, c.completed,
        "drained queue: admitted == completed + rejected"
    );
    assert_eq!(
        c.batched_queries, c.completed,
        "every served query belongs to exactly one batch"
    );
    assert!(
        c.batches >= 1 && c.batches <= c.completed,
        "batch count bounded by served queries"
    );

    // Per-tenant accounting: histogram counts and journal events both match
    // each tenant's submissions exactly.
    let served = served_per_tenant(&server);
    let mut p99s: Vec<u64> = Vec::new();
    for (tenant, queries) in &workloads {
        let snap = server
            .obs()
            .metrics
            .histogram_snapshot(&format!("serve.tenant.{tenant}.latency.nanos"))
            .expect("every tenant has a latency histogram");
        assert_eq!(snap.count, queries.len() as u64, "tenant {tenant} count");
        assert_eq!(served.get(tenant), Some(&(queries.len() as u64)));
        p99s.push(snap.quantile(0.99));
    }
    // No starvation: round-robin dispatch keeps every tenant's p99 within a
    // small factor of the fastest tenant's (plus slack for scheduler noise).
    let fastest = p99s.iter().copied().min().unwrap();
    for (i, p99) in p99s.iter().enumerate() {
        assert!(
            *p99 <= fastest.saturating_mul(8) + 1_000_000,
            "tenant {i} p99 {p99}ns starved vs fastest {fastest}ns"
        );
    }

    if let Ok(path) = std::env::var("SCANRAW_SERVE_REPORT") {
        let report = scanraw_repro::obs::json::to_string_pretty(&server.latency_report());
        std::fs::write(&path, report).expect("write serve report artifact");
    }
}

/// Fairness, deterministically: in pump mode with batching off, a tenant
/// holding three queued queries is served exactly once per cycle — tenants
/// 1,1,1,2,2,3 queued must dispatch as 1,2,3,1,2,1.
#[test]
fn pump_mode_serves_tenants_round_robin() {
    let cols = 3;
    let spec = CsvSpec::new(600, cols, 11);
    let config = ScanRawConfig::default()
        .with_chunk_rows(150)
        .with_policy(WritePolicy::ExternalTables);
    let session = make_session(&spec, cols, config);
    let server = session
        .serve(
            ServeConfig::default()
                .with_dispatchers(0)
                .with_batch_window(0),
        )
        .unwrap();

    let q = Query::sum_of_columns("t", 0..cols);
    let plan: &[TenantId] = &[1, 1, 1, 2, 2, 3];
    let tickets: Vec<Ticket> = plan
        .iter()
        .map(|t| server.submit(*t, &q).unwrap())
        .collect();
    while server.pump() > 0 {}
    for t in tickets {
        t.wait().unwrap();
    }

    let order: Vec<TenantId> = server
        .obs()
        .journal
        .entries()
        .iter()
        .filter_map(|e| match e.event {
            ObsEvent::QueryServed { tenant, .. } => Some(tenant),
            _ => None,
        })
        .collect();
    assert_eq!(
        order,
        vec![1, 2, 3, 1, 2, 1],
        "round-robin: every waiting tenant is served once per cycle"
    );
}

/// Admission control: past the configured depth submissions fail with
/// `Error::Overloaded` (carrying the bound), the rejection is counted, and
/// the tenant gets in on retry once the queue drains.
#[test]
fn admission_bound_rejects_with_overloaded_then_recovers() {
    let cols = 3;
    let spec = CsvSpec::new(400, cols, 23);
    let config = ScanRawConfig::default()
        .with_chunk_rows(100)
        .with_policy(WritePolicy::ExternalTables);
    let session = make_session(&spec, cols, config);
    let server = session
        .serve(
            ServeConfig::default()
                .with_dispatchers(0)
                .with_max_queue_depth(3),
        )
        .unwrap();

    let q = Query::sum_of_columns("t", 0..cols);
    let tickets: Vec<Ticket> = (0..3u64).map(|t| server.submit(t, &q).unwrap()).collect();
    let err = server.submit(9, &q).unwrap_err();
    assert!(
        matches!(err, Error::Overloaded { depth: 3 }),
        "expected Overloaded at the configured bound, got {err:?}"
    );
    assert_eq!(server.counters().rejected, 1);

    while server.pump() > 0 {}
    let late = server.submit(9, &q).expect("queue drained, bound freed");
    while server.pump() > 0 {}
    for t in tickets {
        t.wait().unwrap();
    }
    late.wait().unwrap();

    let c = server.counters();
    assert_eq!(
        (c.admitted, c.completed, c.rejected),
        (4, 4, 1),
        "admitted == completed after drain; the rejection stays counted"
    );
}

/// Batching: three queued same-table queries from three tenants dispatch as
/// ONE shared scan — a single pump serves all three, reading exactly the
/// bytes a single-query scan reads, and every answer still matches direct
/// execution.
#[test]
fn queued_same_table_queries_share_one_scan() {
    let cols = 4;
    let spec = CsvSpec::new(2_000, cols, 31);
    // External-table policy: no write-backs, so the only device traffic
    // during a dispatch is the raw-file scan itself.
    let config = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(2)
        .with_policy(WritePolicy::ExternalTables);
    let queries = seeded_queries(cols, 5);

    // Reference: one query on a twin device costs this many read bytes.
    let single_session = make_session(&spec, cols, config.clone());
    let single_server = single_session
        .serve(ServeConfig::default().with_dispatchers(0))
        .unwrap();
    let ticket = single_server.submit(0, &queries[0]).unwrap();
    let before = single_session
        .database()
        .disk()
        .stats()
        .bytes(AccessKind::Read);
    assert_eq!(single_server.pump(), 1);
    let single_scan_bytes = single_session
        .database()
        .disk()
        .stats()
        .bytes(AccessKind::Read)
        - before;
    ticket.wait().unwrap();

    // Batched: three tenants queue three different queries; one dispatch
    // co-opts them all.
    let session = make_session(&spec, cols, config.clone());
    let server = session
        .serve(ServeConfig::default().with_dispatchers(0))
        .unwrap();
    let tickets: Vec<Ticket> = queries
        .iter()
        .zip(1u64..)
        .map(|(q, tenant)| server.submit(tenant, q).unwrap())
        .collect();
    let before = session.database().disk().stats().bytes(AccessKind::Read);
    assert_eq!(server.pump(), 3, "one pump dispatches the whole batch");
    let batch_bytes = session.database().disk().stats().bytes(AccessKind::Read) - before;
    assert_eq!(
        batch_bytes, single_scan_bytes,
        "three batched queries paid one scan's worth of reads"
    );

    let c = server.counters();
    assert_eq!((c.batches, c.batched_queries), (1, 3));
    let formed = server
        .obs()
        .journal
        .entries()
        .iter()
        .find_map(|e| match &e.event {
            ObsEvent::BatchFormed {
                queries, tenants, ..
            } => Some((*queries, *tenants)),
            _ => None,
        });
    assert_eq!(formed, Some((3, 3)), "3 queries from 3 distinct tenants");

    // Answers are still per-query correct: compare against direct execution
    // on a third twin.
    let oracle_session = make_session(&spec, cols, config);
    for (ticket, q) in tickets.into_iter().zip(&queries) {
        let served = ticket.wait().unwrap();
        let direct = oracle_session
            .run(ExecRequest::query(q.clone()))
            .unwrap()
            .into_single();
        assert_eq!(served.result.rows, direct.result.rows);
        assert_eq!(served.result.rows_scanned, direct.result.rows_scanned);
    }
}

/// Satellite 2, the differential test: the same seeded submission stream
/// served with `batch_window = 0` and with the default window yields
/// bit-identical rows and row counts per query — while the batched run
/// demonstrably formed multi-query batches.
#[test]
fn batching_window_is_answer_invariant() {
    let cols = 4;
    let spec = CsvSpec::new(1_800, cols, 53);
    let config = ScanRawConfig::default()
        .with_chunk_rows(200)
        .with_workers(2)
        .with_policy(WritePolicy::speculative());
    let shapes = seeded_queries(cols, 7);
    // 18 submissions round-robining 3 tenants over the 3 shapes.
    let stream: Vec<(TenantId, Query)> = (0..18)
        .map(|i| ((i % 3) as u64 + 1, shapes[i % shapes.len()].clone()))
        .collect();

    let run = |window: usize| -> (Vec<(Vec<ResultRow>, u64)>, ServeCounters) {
        let session = make_session(&spec, cols, config.clone());
        let server = session
            .serve(
                ServeConfig::default()
                    .with_dispatchers(0)
                    .with_batch_window(window)
                    .with_max_queue_depth(stream.len()),
            )
            .unwrap();
        let tickets: Vec<Ticket> = stream
            .iter()
            .map(|(t, q)| server.submit(*t, q).unwrap())
            .collect();
        while server.pump() > 0 {}
        let outcomes = tickets
            .into_iter()
            .map(|t| {
                let out = t.wait().unwrap();
                (out.result.rows, out.result.rows_scanned)
            })
            .collect();
        (outcomes, server.counters())
    };

    let (unbatched, cu) = run(0);
    let (batched, cb) = run(ServeConfig::default().batch_window);
    assert_eq!(
        unbatched, batched,
        "batching changed an answer on the same submission stream"
    );
    assert_eq!(cu.batches, 18, "window 0: every query pays its own scan");
    assert!(
        cb.batches < cu.batches,
        "default window formed no multi-query batch — differential is vacuous"
    );
    assert_eq!(cu.completed, 18);
    assert_eq!(cb.completed, 18);
}

/// Satellite 4: a shared-scan batch mints one root `query` span per batched
/// query — each in its own validating trace, linked to the carrier trace
/// (root `query.batch`, which holds the scan/exec spans) by a `batch` tag.
#[test]
fn batched_queries_mint_their_own_query_roots() {
    let cols = 4;
    let spec = CsvSpec::new(1_200, cols, 67);
    let config = ScanRawConfig::default()
        .with_chunk_rows(200)
        .with_workers(2)
        .with_policy(WritePolicy::speculative());
    let session = make_session(&spec, cols, config);
    let queries = seeded_queries(cols, 5);

    let shared = session
        .run(ExecRequest::batch(queries.clone()).traced())
        .unwrap();
    assert_eq!(shared.outcomes.len(), queries.len());

    let carrier = shared.batch_trace.expect("tracing is on by default");
    carrier
        .validate()
        .unwrap_or_else(|e| panic!("carrier trace invalid: {e}"));
    let carrier_root = carrier.root().expect("carrier root");
    assert_eq!(carrier_root.name, "query.batch");
    assert_eq!(carrier_root.tag("queries"), Some("3"));
    assert!(
        carrier.spans.len() > 1,
        "the scan/exec/merge spans hang off the carrier"
    );

    assert_eq!(shared.query_traces.len(), queries.len());
    let mut seen = std::collections::BTreeSet::new();
    for (i, qt) in shared.query_traces.iter().enumerate() {
        let qt = qt
            .as_ref()
            .unwrap_or_else(|| panic!("query {i}: no per-query trace"));
        assert!(seen.insert(qt.trace.0), "query traces must be distinct");
        assert_ne!(
            qt.trace, carrier.trace,
            "per-query roots live outside the carrier"
        );
        qt.validate()
            .unwrap_or_else(|e| panic!("query {i} trace invalid: {e}"));
        let root = qt.root().expect("per-query root span");
        assert_eq!(root.name, "query");
        assert_eq!(root.tag("mode"), Some("shared"));
        assert_eq!(
            root.tag("batch"),
            Some(carrier.trace.0.to_string().as_str()),
            "root links back to the carrier trace"
        );
        assert_eq!(
            qt.spans.len(),
            1,
            "root-only: the work itself is traced once, in the carrier"
        );
    }
}

/// Satellite 3: the serving path under seeded device fault schedules.
#[cfg(feature = "fault-inject")]
mod faults {
    use super::*;
    use scanraw_repro::simio::{FaultConfig, FaultPlan};
    use std::time::Duration;

    /// Seeded schedules; override with `SCANRAW_FAULT_SCHEDULES=<n>` (the
    /// same cap the fault_schedules suite honours).
    fn n_schedules() -> u64 {
        std::env::var("SCANRAW_FAULT_SCHEDULES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64)
    }

    /// Recoverable fault classes only (transient errors, latency spikes,
    /// checksummed-store bit flips): the serving layer must absorb them —
    /// every query completes, answers stay oracle-identical, per-tenant
    /// accounting stays exact, and the suite terminating is the
    /// no-deadlock/no-dropped-query assertion. Crashes and dead regions are
    /// covered by `fault_schedules.rs` on the direct path.
    #[test]
    fn serving_under_fault_schedules_is_oracle_identical() {
        for seed in 0..n_schedules() {
            let cols = 3 + (seed % 2) as usize;
            let rows = 120 + (seed % 5) * 60;
            let spec = CsvSpec::new(rows, cols, seed.wrapping_mul(0x9e37_79b9).max(1));
            let config = ScanRawConfig::default()
                .with_chunk_rows(20 + (seed % 3) as u32 * 15)
                .with_cache_chunks(2 + (seed % 4) as usize)
                .with_workers((seed % 3) as usize)
                .with_policy(WritePolicy::speculative());
            let workloads: Vec<(TenantId, Vec<Query>)> = (0..3u64)
                .map(|t| (t, seeded_queries(cols, seed * 7 + t)))
                .collect();
            let oracle = serial_oracle(&spec, cols, &config, &workloads);

            let disk = SimDisk::instant();
            stage_csv(&disk, "t.csv", &spec);
            disk.set_fault_plan(FaultPlan::new(FaultConfig {
                p_transient: 0.08,
                p_bitflip: 0.04,
                p_latency: 0.05,
                latency_spike: Duration::from_millis(2),
                ..FaultConfig::seeded(seed)
            }));
            let session = Session::open(disk);
            session
                .register_table(
                    "t",
                    "t.csv",
                    Schema::uniform_ints(cols),
                    TextDialect::CSV,
                    config,
                )
                .unwrap();
            let session = Arc::new(session);
            let server = session.serve(ServeConfig::default()).unwrap();

            let results = run_tenants(&server, &workloads);
            assert_eq!(
                results, oracle,
                "seed {seed}: faults may change performance, never answers"
            );
            server.shutdown();

            let c = server.counters();
            let submitted: u64 = workloads.iter().map(|(_, qs)| qs.len() as u64).sum();
            assert_eq!(
                (c.admitted, c.completed, c.rejected),
                (submitted, submitted, 0),
                "seed {seed}: no query dropped or double-counted under faults"
            );
            let served = served_per_tenant(&server);
            for (tenant, queries) in &workloads {
                assert_eq!(
                    served.get(tenant),
                    Some(&(queries.len() as u64)),
                    "seed {seed}: tenant {tenant} served-count wrong"
                );
            }
        }
    }

    /// Degradation attribution: a permanent write fault flips the operator
    /// to external-table mode; queries keep answering from the raw file, and
    /// every `QueryServed` event emitted *after* the degradation names the
    /// right tenant with `degraded: true`.
    #[test]
    fn degradation_is_attributed_to_the_tenants_it_served() {
        let cols = 3;
        let spec = CsvSpec::new(300, cols, 83);
        let config = ScanRawConfig::default()
            .with_chunk_rows(50)
            .with_policy(WritePolicy::speculative());
        let disk = SimDisk::instant();
        stage_csv(&disk, "t.csv", &spec);
        // Every write to the binary store fails permanently; the raw file
        // stays healthy, so answers are unaffected.
        disk.set_fault_plan(FaultPlan::new(FaultConfig {
            target: "db/".into(),
            permanent_after: Some(0),
            ..FaultConfig::seeded(83)
        }));
        let session = Session::open(disk);
        session
            .register_table(
                "t",
                "t.csv",
                Schema::uniform_ints(cols),
                TextDialect::CSV,
                config.clone(),
            )
            .unwrap();
        let session = Arc::new(session);
        let server = session
            .serve(ServeConfig::default().with_dispatchers(0))
            .unwrap();

        // Warm-up query triggers the speculative write-backs that hit the
        // dead store; drain them so the degradation is observed.
        let q = Query::sum_of_columns("t", 0..cols);
        let warmup = server.submit(0, &q).unwrap();
        while server.pump() > 0 {}
        warmup.wait().unwrap();
        let op = session.engine().operator("t").unwrap();
        op.drain_writes();
        assert!(op.load_degraded(), "permanent store fault must degrade");

        // Post-degradation queries: answers still correct, and the serve
        // journal attributes the degraded state to these tenants.
        let oracle = serial_oracle(
            &spec,
            cols,
            &config,
            &[(1, vec![q.clone()]), (2, vec![q.clone()])],
        );
        let t1 = server.submit(1, &q).unwrap();
        let t2 = server.submit(2, &q).unwrap();
        while server.pump() > 0 {}
        for (ticket, expected) in [t1, t2].into_iter().zip(&oracle) {
            let out = ticket.wait().unwrap();
            assert_eq!((out.result.rows, out.result.rows_scanned), expected[0]);
        }
        let flagged: Vec<(TenantId, bool)> = server
            .obs()
            .journal
            .entries()
            .iter()
            .filter_map(|e| match e.event {
                ObsEvent::QueryServed {
                    tenant, degraded, ..
                } if tenant != 0 => Some((tenant, degraded)),
                _ => None,
            })
            .collect();
        assert_eq!(
            flagged,
            vec![(1, true), (2, true)],
            "degradation attributed to the tenants served under it"
        );
    }
}
