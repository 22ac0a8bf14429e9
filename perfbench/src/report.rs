//! Runs one workload and turns what it measured into named metrics.

use crate::harness::{Args, Harness, InSitu, SETUP_REPS};
use crate::input::{CHUNK_ROWS, COLS, WORKERS};
use crate::layers::{self, Isolated};
use crate::spans::{chrome_trace, self_times};
use crate::stats::{median, summarize};
use crate::workloads::{self, Outcome};
use scanraw::Stage;
use scanraw_obs::{json, Value};
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one run: what the driver reads, and what a person reads.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics of an untraced run, the per-layer metrics of a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Every metric by name with its unit, the sample summaries behind the
    /// phases, and the run's parameters.
    pub text: String,
}

impl Report {
    /// The one-line JSON object the driver parses.
    pub fn result_line(&self) -> String {
        let mut metrics = std::collections::BTreeMap::new();
        for m in &self.metrics {
            metrics.insert(
                m.name.to_string(),
                json!({"value": m.value, "unit": m.unit}),
            );
        }
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_json()
    }
}

pub fn run(args: Args) -> Report {
    let mut h = Harness::new(args);
    let outcome = workloads::run(&mut h);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut text = format!(
        "workload {}  seed {}  seconds {}  trace {}\n\
         nproc {nproc}  workers {WORKERS}  rows {}  cols {COLS}  chunk_rows {CHUNK_ROWS}  \
         raw_bytes {}  rounds {}  setup_reps {SETUP_REPS}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        outcome.input.rows(),
        outcome.input.bytes.len(),
        h.insitu.rounds,
    );
    for (tag, phase) in ["a", "b", "c"].iter().zip(&outcome.phases) {
        text += &format!("phase_{tag}_ms = {:.4}  [{}]", phase.value_ms, phase.label);
        if !phase.samples_s.is_empty() {
            let s = summarize(&phase.samples_s);
            text += &format!(
                "  n {}  median {:.4} ms  q25 {:.4}  q75 {:.4}",
                s.n,
                s.median * 1e3,
                s.q25 * 1e3,
                s.q75 * 1e3
            );
            if let Some((pct, value)) = s.tail {
                text += &format!("  p{pct:.1} {:.4}", value * 1e3);
            }
        }
        text.push('\n');
    }

    let metrics = if args.trace {
        h.log.set_recording(true);
        let isolated = layers::measure(&outcome.input, &h.log);
        let spans = h.log.spans();
        text += "bench spans (count, total s, self s):\n";
        for (name, (n, total, own)) in self_times(&spans) {
            text += &format!("  {name:<40} {n:>7} {total:>10.4} {own:>10.4}\n");
        }
        let program = h
            .insitu
            .traced
            .last_trace
            .as_ref()
            .map(|t| t.to_chrome_json());
        text += &match write_trace(&args, &chrome_trace(&spans, program)) {
            Ok(path) => format!("trace written to {}\n", path.display()),
            Err(e) => format!("trace not written: {e}\n"),
        };
        per_layer(&h.insitu, &isolated, &outcome)
    } else {
        end_to_end(&h, &outcome)
    };
    for m in &metrics {
        text += &format!("{:<40} {:>18.6} {}\n", m.name, m.value, m.unit);
    }
    text += &format!(
        "attempted {}  failed {}  failed_share {}\n",
        h.attempted,
        h.failed,
        h.failed as f64 / h.attempted.max(1) as f64
    );

    Report {
        correct: h.failed == 0,
        attempted: h.attempted,
        failed: h.failed,
        metrics,
        text,
    }
}

/// Trace files go under the package's own `results/` directory.
fn write_trace(args: &Args, trace: &Value) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("bench-trace-{}.json", args.workload.name()));
    std::fs::write(&path, trace.to_json())?;
    Ok(path)
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn end_to_end(h: &Harness, outcome: &Outcome) -> Vec<Metric> {
    let [a, b, c] = &outcome.phases;
    vec![
        metric("setup_s", "s", median(&h.setup_s)),
        metric("phase_a_ms", "ms", a.value_ms),
        metric("phase_b_ms", "ms", b.value_ms),
        metric("phase_c_ms", "ms", c.value_ms),
    ]
}

/// `num / den`, or 0 when the layer did nothing to take a ratio of.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(i: &InSitu, iso: &Isolated, outcome: &Outcome) -> Vec<Metric> {
    let rounds = i.rounds.max(1) as f64;
    let per_round = |total: f64| total / rounds;
    let c = &i.counters;
    let t = &i.traced;

    // Lane time: every worker and the single-accessor device, for as long as
    // timed calls were running. What no stage accounts for is `other`: idle
    // lanes, and consumer-side work no stage timer covers (the merge, Serial
    // evaluation, scheduling, waits).
    let worker_lanes = (WORKERS * i.concurrent_scans) as f64;
    let lanes_s = (worker_lanes + 1.0) * i.timed_wall_s;
    let share = |busy_s: f64| ratio(busy_s, lanes_s);
    let stage_shares = [
        share(i.busy.get(Stage::Read)),
        share(i.busy.get(Stage::Tokenize)),
        share(i.busy.get(Stage::Parse)),
        share(i.busy.get(Stage::Exec)),
        share(i.busy.get(Stage::Write)),
    ];
    let other_share = (1.0 - stage_shares.iter().sum::<f64>()).max(0.0);

    let overhead_pct = if t.probe_traced_s.is_empty() || t.probe_untraced_s.is_empty() {
        0.0
    } else {
        100.0 * (median(&t.probe_traced_s) / median(&t.probe_untraced_s) - 1.0)
    };
    let phase_a_s = outcome.phases[0].value_ms / 1e3;
    let predicted_s = outcome
        .sim
        .map_or(0.0, |sim| sim.predict_s(&iso.cost, outcome.input.rows()));
    let submit_us_p50 = if i.serve.submit_s.is_empty() {
        0.0
    } else {
        median(&i.serve.submit_s) * 1e6
    };

    let m = metric;
    vec![
        m(
            "rawfile.tokenize_busy_s",
            "s",
            per_round(i.busy.get(Stage::Tokenize)),
        ),
        m(
            "rawfile.parse_busy_s",
            "s",
            per_round(i.busy.get(Stage::Parse)),
        ),
        m("rawfile.chunker_mb_per_s", "MB/s", iso.chunker_mb_per_s),
        m(
            "rawfile.tokenize_full_mb_per_s",
            "MB/s",
            iso.tokenize_full_mb_per_s,
        ),
        m(
            "rawfile.tokenize_selective_mb_per_s",
            "MB/s",
            iso.tokenize_selective_mb_per_s,
        ),
        m(
            "rawfile.parse_full_mvalues_per_s",
            "Mvalues/s",
            iso.parse_full_mvalues_per_s,
        ),
        m(
            "rawfile.parse_projected_mvalues_per_s",
            "Mvalues/s",
            iso.parse_projected_mvalues_per_s,
        ),
        m(
            "storage.store_cells_mb_per_s",
            "MB/s",
            iso.store_cells_mb_per_s,
        ),
        m(
            "storage.load_cells_mb_per_s",
            "MB/s",
            iso.load_cells_mb_per_s,
        ),
        m("storage.recover_s", "s", iso.recover_s),
        m("storage.stored_bytes", "bytes", i.stored_bytes as f64),
        m("storage.loaded_cells", "count", i.loaded_cells as f64),
        m(
            "storage.stored_bytes_per_raw_byte",
            "ratio",
            ratio(i.stored_bytes as f64, i.raw_bytes as f64),
        ),
        m(
            "storage.write_amp",
            "ratio",
            ratio(per_round(c.write_bytes as f64), i.stored_bytes as f64),
        ),
        m("core.read_busy_s", "s", per_round(i.busy.get(Stage::Read))),
        m(
            "core.write_busy_s",
            "s",
            per_round(i.busy.get(Stage::Write)),
        ),
        m(
            "core.deliver_busy_s",
            "s",
            per_round(i.busy.get(Stage::Deliver)),
        ),
        m(
            "core.worker_busy_share",
            "ratio",
            ratio(i.busy.worker_s(), worker_lanes * i.timed_wall_s),
        ),
        m(
            "core.pipeline_overhead_s",
            "s",
            per_round(i.pipeline_overhead_s),
        ),
        m(
            "core.chunks_from_cache",
            "count",
            per_round(i.from_cache as f64),
        ),
        m("core.chunks_from_db", "count", per_round(i.from_db as f64)),
        m(
            "core.chunks_from_raw",
            "count",
            per_round(i.from_raw as f64),
        ),
        m(
            "core.chunks_from_hybrid",
            "count",
            per_round(i.from_hybrid as f64),
        ),
        m("core.chunks_skipped", "count", per_round(i.skipped as f64)),
        m(
            "core.speculative_writes",
            "count",
            per_round(i.speculative_writes as f64),
        ),
        m(
            "core.safeguard_writes",
            "count",
            per_round(i.safeguard_writes as f64),
        ),
        m("core.drain_s", "s", per_round(i.drain_s)),
        m(
            "core.loaded_chunks_after_q1",
            "count",
            i.loaded_chunks_after_q1,
        ),
        m(
            "core.queries_to_fully_loaded",
            "count",
            i.queries_to_fully_loaded,
        ),
        m(
            "core.spec_over_external_ratio",
            "ratio",
            i.spec_over_external_ratio,
        ),
        m(
            "core.cache_hit_ratio",
            "ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        m(
            "core.cache_evictions",
            "count",
            per_round(c.cache_evictions as f64),
        ),
        m("core.cache_insert_ns", "ns", iso.cache_insert_ns),
        m("core.cache_get_ns", "ns", iso.cache_get_ns),
        m(
            "engine.exec_busy_s",
            "s",
            per_round(i.busy.get(Stage::Exec)),
        ),
        m(
            "engine.parallel_chunks",
            "count",
            per_round(c.parallel_chunks as f64),
        ),
        m("engine.consumer_tail_s", "s", per_round(i.consumer_tail_s)),
        m("engine.merge_s", "s", ratio(t.merge_s, t.queries as f64)),
        m("engine.serve_submit_us_p50", "us", submit_us_p50),
        m("engine.serve_batches", "count", i.serve.batches as f64),
        m(
            "engine.serve_queries_per_batch",
            "ratio",
            ratio(i.serve.batched_queries as f64, i.serve.batches as f64),
        ),
        m("engine.serve_rejected", "count", i.serve.rejected as f64),
        m("engine.serve_p99_ms", "ms", i.serve.p99_ms),
        m("simio.read_bytes", "bytes", per_round(c.read_bytes as f64)),
        m(
            "simio.write_bytes",
            "bytes",
            per_round(c.write_bytes as f64),
        ),
        m("simio.read_ops", "count", per_round(c.read_ops as f64)),
        m("simio.write_ops", "count", per_round(c.write_ops as f64)),
        m("simio.read_busy_s", "s", per_round(c.read_busy_s)),
        m("simio.write_busy_s", "s", per_round(c.write_busy_s)),
        m(
            "simio.device_busy_share",
            "ratio",
            ratio(c.read_busy_s + c.write_busy_s, i.timed_wall_s),
        ),
        m("obs.trace_overhead_pct", "%", overhead_pct),
        m(
            "obs.spans_per_query",
            "count",
            ratio(t.program_spans as f64, t.queries as f64),
        ),
        m("obs.spans_dropped", "count", t.spans_dropped as f64),
        m("pipesim.calibrate_s", "s", iso.calibrate_s),
        m(
            "pipesim.predicted_over_measured",
            "ratio",
            ratio(predicted_s, phase_a_s),
        ),
        m("attr.read_share", "ratio", stage_shares[0]),
        m("attr.tokenize_share", "ratio", stage_shares[1]),
        m("attr.parse_share", "ratio", stage_shares[2]),
        m("attr.exec_share", "ratio", stage_shares[3]),
        m("attr.write_share", "ratio", stage_shares[4]),
        m("attr.other_share", "ratio", other_share),
    ]
}
