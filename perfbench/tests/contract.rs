//! The benchmark against its own description: every workload and metric
//! `BENCHMARK.json` names is emitted exactly once, with the declared unit and
//! a finite value, at a sixteenth of the full table size.

use scanraw_obs::json::parse;
use scanraw_obs::Value;
use scanraw_perfbench::{run, Args, Report, Workload};
use std::collections::BTreeMap;

const SMOKE_ROWS: u64 = 393_216 / 16;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// name → unit of one section of `BENCHMARK.json`.
fn declared(bench: &Value, section: &str) -> BTreeMap<String, String> {
    let entries = bench.get(section).and_then(Value::as_array).expect(section);
    let map: BTreeMap<String, String> = entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect();
    assert_eq!(map.len(), entries.len(), "{section} names a metric twice");
    map
}

fn smoke(workload: Workload, trace: bool) -> Report {
    run(Args {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        rows: SMOKE_ROWS,
    })
}

fn value_of(report: &Report, name: &str) -> f64 {
    let found: Vec<f64> = report
        .metrics
        .iter()
        .filter(|m| m.name == name)
        .map(|m| m.value)
        .collect();
    assert_eq!(found.len(), 1, "{name} emitted {} times", found.len());
    found[0]
}

fn check_report(report: &Report, declared: &BTreeMap<String, String>, what: &str) {
    assert_eq!(report.failed, 0, "{what}: failed operations");
    assert!(report.correct && report.attempted >= 1, "{what}");
    assert_eq!(report.metrics.len(), declared.len(), "{what}: metric count");
    for name in declared.keys() {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        let value = value_of(report, name);
        assert!(value.is_finite(), "{what}: {name} = {value}");
        let unit = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .map(|m| m.unit);
        assert_eq!(
            unit,
            Some(declared[name].as_str()),
            "{what}: unit of {name}"
        );
    }
    // The line the driver reads carries exactly the four keys and the same
    // metrics.
    let line = parse(&report.result_line()).expect("result line is JSON");
    let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = line
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), declared.len());
}

#[test]
fn benchmark_contract() {
    let bench = benchmark_json();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));

    let named: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        named, known,
        "BENCHMARK.json and the binary name the same workloads"
    );

    for workload in Workload::ALL {
        let what = workload.name();
        let untraced = smoke(workload, false);
        check_report(&untraced, &end_to_end, what);
        for name in end_to_end.keys() {
            assert!(
                value_of(&untraced, name) > 0.0,
                "{what}: {name} must never be 0"
            );
        }

        let traced = smoke(workload, true);
        check_report(&traced, &per_layer, what);
        let shares: f64 = per_layer
            .keys()
            .filter(|n| n.starts_with("attr."))
            .map(|n| value_of(&traced, n))
            .sum();
        assert!(
            (shares - 1.0).abs() <= 0.01,
            "{what}: attr.* sum to {shares}"
        );
    }

    // Conversion does no work on the cache-resident workloads.
    for workload in [Workload::WarmExec, Workload::Serve4Tenant] {
        let traced = smoke(workload, true);
        assert_eq!(value_of(&traced, "rawfile.tokenize_busy_s"), 0.0);
        assert_eq!(value_of(&traced, "rawfile.parse_busy_s"), 0.0);
        assert_eq!(value_of(&traced, "core.chunks_from_raw"), 0.0);
    }

    // Two runs with the same seed count the same.
    let exact = [
        "storage.stored_bytes",
        "storage.loaded_cells",
        "storage.stored_bytes_per_raw_byte",
        "simio.read_bytes",
        "simio.write_bytes",
        "core.chunks_from_raw",
        "core.chunks_from_db",
        "core.chunks_from_cache",
    ];
    let first = smoke(Workload::Proj2Lifecycle, true);
    let second = smoke(Workload::Proj2Lifecycle, true);
    for name in exact {
        assert_eq!(value_of(&first, name), value_of(&second, name), "{name}");
    }
    // Two hot columns of twelve: a sixth of what loading every column stores.
    let hot = value_of(&first, "storage.stored_bytes");
    let all = value_of(&smoke(Workload::ColdFull, true), "storage.stored_bytes");
    assert!(
        (hot / all - 2.0 / 12.0).abs() < 0.02 * 2.0 / 12.0,
        "{hot} of {all}"
    );
}
