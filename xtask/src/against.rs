//! `cargo xtask bench --against <rev>`: the benchmark's end-to-end metrics,
//! this checkout against another revision, in alternating pairs.
//!
//! `<rev>`'s tree is exported with `git archive` under
//! `target/bench-against/<sha>/` and its perfbench built there; the working
//! tree's perfbench is built in place. Each workload then runs `--pairs`
//! pairs, the two binaries alternating which goes first, so a drift of the
//! machine during the comparison lands on both sides alike. Each run's last JSON
//! line is the result. Per end-to-end metric of `BENCHMARK.json` the report
//! gives the median and quartiles per side, the pairs the change wins, and
//! the pairs where the change is worse than the base by more than the
//! metric's bound, the ratio of the medians with a seeded paired-bootstrap
//! 95% interval, and the benchmark's noise floor for the metric when
//! `--aa` has measured one. When a majority of a metric's pairs is worse
//! than its bound, or the change fails more operations than the base, the
//! task exits with code 2; any error running it exits with 1. Every run's
//! result line is kept in `results/against.json`.
//!
//! `cargo xtask bench --aa [--pairs N]` measures that noise floor: HEAD's
//! perfbench against a byte-identical copy of its binary at another path,
//! in the same alternating pairs. Per workload and end-to-end metric it
//! writes the A/A ratio of the medians and the larger side's IQR over its
//! median to `results/noise_floor.json`, with the pair count, `nproc` and
//! the date.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use scanraw_obs::json;
use scanraw_obs::json::Value;

/// Exit code of a finished comparison that found the change worse.
const WORSE: u8 = 2;

/// Where `--aa` writes the noise floor and `--against` reads it.
const NOISE_FLOOR: &str = "results/noise_floor.json";

/// Where `--against` keeps every run's result line.
const RUNS: &str = "results/against.json";

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    lower_is_better: bool,
    /// Largest relative worsening one pair may show.
    bound: f64,
}

/// The `p`-quantile (0..=1) of `values`, linear between order statistics.
fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median and quartiles of one side's runs.
fn summary(values: &[f64]) -> String {
    let q = |p| quantile(values, p);
    format!("{:.4} [{:.4}, {:.4}]", q(0.5), q(0.25), q(0.75))
}

/// Interquartile range over the median.
fn spread(values: &[f64]) -> f64 {
    (quantile(values, 0.75) - quantile(values, 0.25)) / quantile(values, 0.5)
}

/// 95% interval of `median(change) / median(base)` from 2,000 resamples of
/// the pairs (a pair's two runs stay together), seeded so a report repeats.
fn bootstrap(base: &[f64], change: &[f64]) -> (f64, f64) {
    let mut state = 0x5EED_u64;
    // SplitMix64.
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let n = base.len();
    let ratios: Vec<f64> = (0..2000)
        .map(|_| {
            let idx: Vec<usize> = (0..n).map(|_| (next() % n as u64) as usize).collect();
            let side = |v: &[f64]| idx.iter().map(|&i| v[i]).collect::<Vec<_>>();
            quantile(&side(change), 0.5) / quantile(&side(base), 0.5)
        })
        .collect();
    (quantile(&ratios, 0.025), quantile(&ratios, 0.975))
}

pub fn run(root: &Path, rev: &str, pairs: usize, size: &[&str]) -> ExitCode {
    match compare(root, rev, pairs, size) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(WORSE),
        Err(e) => {
            eprintln!("xtask bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--aa`: measures the noise floor and writes [`NOISE_FLOOR`].
pub fn run_aa(root: &Path, pairs: usize, size: &[&str]) -> ExitCode {
    match noise_floor(root, pairs, size) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtask bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn noise_floor(root: &Path, pairs: usize, size: &[&str]) -> Result<(), String> {
    let metrics = end_to_end_metrics(root)?;
    let sha = git(root, &["rev-parse", "--verify", "HEAD^{commit}"])?;
    let bin = build(&export(root, &sha)?)?;
    let copy = root
        .join("target")
        .join("bench-aa")
        .join("scanraw-perfbench");
    let copy_dir = copy.parent().ok_or("no directory for the copy")?;
    std::fs::create_dir_all(copy_dir).map_err(|e| format!("{}: {e}", copy_dir.display()))?;
    std::fs::copy(&bin, &copy).map_err(|e| format!("{}: {e}", copy.display()))?;
    println!(
        "A/A: HEAD ({}) against a copy of its perfbench, {pairs} pair(s)",
        &sha[..10]
    );
    let mut workloads = Vec::new();
    for workload in crate::WORKLOADS {
        let results = run_pairs(&[bin.clone(), copy.clone()], workload, pairs, size)?;
        println!("\n== {workload} ==");
        let mut floors = Vec::new();
        for m in &metrics {
            let Some([a, b]) = sides(&results, &m.name) else {
                continue;
            };
            let (ratio, iqr) = (
                quantile(&b, 0.5) / quantile(&a, 0.5),
                spread(&a).max(spread(&b)),
            );
            println!("{:<12} A/A ratio {ratio:.4}, IQR/median {iqr:.4}", m.name);
            floors.push((
                m.name.clone(),
                json!({ "median_ratio": ratio, "iqr_over_median": iqr }),
            ));
        }
        workloads.push((
            workload.to_string(),
            Value::Object(floors.into_iter().collect()),
        ));
    }
    let date = Command::new("date").args(["-u", "+%Y-%m-%d"]).output();
    let doc = json!({
        "pairs": pairs as u64,
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        "date": date.map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string()).unwrap_or_default(),
        "workloads": Value::Object(workloads.into_iter().collect()),
    });
    let path = root.join(NOISE_FLOOR);
    std::fs::create_dir_all(root.join("results")).map_err(|e| format!("results: {e}"))?;
    std::fs::write(&path, doc.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// `pairs` alternating pairs of runs of `workload`; `[side][pair]`.
fn run_pairs(
    bins: &[PathBuf; 2],
    workload: &str,
    pairs: usize,
    size: &[&str],
) -> Result<[Vec<Value>; 2], String> {
    let mut results: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..pairs {
        let first = pair % 2;
        for side in [first, 1 - first] {
            results[side].push(run_once(&bins[side], workload, size)?);
        }
    }
    Ok(results)
}

/// The values of metric `name` on each side; `None` when a workload does not
/// report it.
fn sides(results: &[Vec<Value>; 2], name: &str) -> Option<[Vec<f64>; 2]> {
    let value = |r: &Value| r.get("metrics")?.get(name)?.get("value")?.as_f64();
    let side = |runs: &Vec<Value>| runs.iter().map(value).collect::<Option<Vec<f64>>>();
    Some([side(&results[0])?, side(&results[1])?])
}

/// Runs the comparison; true when the change is not worse.
fn compare(root: &Path, rev: &str, pairs: usize, size: &[&str]) -> Result<bool, String> {
    let metrics = end_to_end_metrics(root)?;
    let sha = git(
        root,
        &["rev-parse", "--verify", &format!("{rev}^{{commit}}")],
    )?;
    let base_tree = export(root, &sha)?;
    let bins = [build(&base_tree)?, build(root)?];
    let short = &sha[..sha.len().min(10)];
    println!("base {rev} ({short}) vs the working tree, {pairs} alternating pair(s)");
    let floor = std::fs::read_to_string(root.join(NOISE_FLOOR))
        .ok()
        .and_then(|text| json::parse(&text).ok());
    if let Some(f) = &floor {
        let (n, date) = (f.get("pairs").and_then(Value::as_u64), f.get("date"));
        println!("noise floor: {NOISE_FLOOR} ({n:?} A/A pairs, {date:?})");
    }
    let mut not_worse = true;
    let mut runs = Vec::new();
    for workload in crate::WORKLOADS {
        // results[side][pair]: side 0 is the base, 1 the change.
        let results = run_pairs(&bins, workload, pairs, size)?;
        let floor = floor
            .as_ref()
            .and_then(|f| f.get("workloads")?.get(workload));
        not_worse &= report(workload, &metrics, &results, floor);
        let [base, change] = results;
        runs.push((
            workload.to_string(),
            json!({ "base": Value::Array(base), "change": Value::Array(change) }),
        ));
    }
    // Every run's result line, so any metric can be read back per pair;
    // pair `i` ran the base first when `i` is even.
    let doc =
        json!({ "base": sha.clone(), "workloads": Value::Object(runs.into_iter().collect()) });
    let path = root.join(RUNS);
    std::fs::create_dir_all(root.join("results")).map_err(|e| format!("results: {e}"))?;
    std::fs::write(&path, doc.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nverdict: {}",
        if not_worse {
            "no metric worse than its bound in a majority of pairs"
        } else {
            "WORSE (see the flagged rows)"
        }
    );
    Ok(not_worse)
}

/// Prints one workload's table, with the A/A noise floor of its metrics
/// when one was measured; false when the change is worse.
fn report(
    workload: &str,
    metrics: &[Metric],
    results: &[Vec<Value>; 2],
    floor: Option<&Value>,
) -> bool {
    let pairs = results[0].len();
    println!("\n== {workload} ==");
    println!(
        "{:<12} {:<34} {:<34} {:>6} {:>11}  {:<26} A/A ratio, IQR/median",
        "metric",
        "base median [q25, q75]",
        "change median [q25, q75]",
        "wins",
        "worse>bound",
        "ratio [95% bootstrap]",
    );
    let mut not_worse = true;
    for m in metrics {
        let Some([base, change]) = sides(results, &m.name) else {
            continue; // the workload does not report this metric
        };
        let (base, change) = (&base[..], &change[..]);
        let pairs_of = || base.iter().zip(change);
        let better = |b: f64, c: f64| if m.lower_is_better { c < b } else { c > b };
        let worse_beyond = |b: f64, c: f64| {
            if m.lower_is_better {
                c > b * (1.0 + m.bound)
            } else {
                c < b * (1.0 - m.bound)
            }
        };
        let wins = pairs_of().filter(|&(&b, &c)| better(b, c)).count();
        let worse = pairs_of().filter(|&(&b, &c)| worse_beyond(b, c)).count();
        let flagged = 2 * worse > pairs;
        not_worse &= !flagged;
        let (lo, hi) = bootstrap(base, change);
        let ratio = quantile(change, 0.5) / quantile(base, 0.5);
        let aa = floor
            .and_then(|f| f.get(&m.name))
            .map_or("-".to_string(), |f| {
                let get = |k| f.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                format!("{:.4}, {:.4}", get("median_ratio"), get("iqr_over_median"))
            });
        println!(
            "{:<12} {:<34} {:<34} {:>6} {:>11}  {:<26} {aa}{}",
            m.name,
            summary(base),
            summary(change),
            format!("{wins}/{pairs}"),
            format!("{worse}/{pairs}"),
            format!("{ratio:.4} [{lo:.4}, {hi:.4}]"),
            if flagged { "  WORSE" } else { "" }
        );
    }
    let failed = |runs: &[Value]| -> u64 {
        let failed = |r: &Value| r.get("failed").and_then(Value::as_u64).unwrap_or(0);
        runs.iter().map(failed).sum()
    };
    let (base_failed, change_failed) = (failed(&results[0]), failed(&results[1]));
    println!("failed operations: base {base_failed}, change {change_failed}");
    not_worse && change_failed <= base_failed
}

/// The `end_to_end` list of `BENCHMARK.json` at the workspace root.
fn end_to_end_metrics(root: &Path) -> Result<Vec<Metric>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name, better or bound".into())
}

/// `git <args>` in `dir`; its trimmed stdout.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .current_dir(dir)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {} failed: {}", args.join(" "), err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The tree of commit `sha`, exported once under `target/bench-against/`.
/// It is unpacked beside its final name and renamed into place, so an
/// interrupted export is never mistaken for a finished one.
fn export(root: &Path, sha: &str) -> Result<PathBuf, String> {
    let parent = root.join("target").join("bench-against");
    let dir = parent.join(sha);
    if dir.is_dir() {
        return Ok(dir);
    }
    let partial = parent.join(format!("{sha}.partial"));
    let _ = std::fs::remove_dir_all(&partial);
    std::fs::create_dir_all(&partial).map_err(|e| format!("{}: {e}", partial.display()))?;
    let mut archive = Command::new("git")
        .current_dir(root)
        .args(["archive", "--format=tar", sha])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run git archive: {e}"))?;
    let tar_in = archive.stdout.take().ok_or("git archive has no stdout")?;
    let untar = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(&partial)
        .stdin(tar_in)
        .status()
        .map_err(|e| format!("cannot run tar: {e}"))?;
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !archived.success() || !untar.success() {
        return Err(format!("exporting {sha} failed"));
    }
    std::fs::rename(&partial, &dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Builds the perfbench of the tree at `tree`; the path of its binary.
fn build(tree: &Path) -> Result<PathBuf, String> {
    let manifest = tree.join("perfbench").join("Cargo.toml");
    eprintln!("xtask bench: building {}", manifest.display());
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(&manifest)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed", manifest.display()));
    }
    Ok(tree.join("perfbench/target/release/scanraw-perfbench"))
}

/// One run of `workload`; its result line.
fn run_once(bin: &Path, workload: &str, size: &[&str]) -> Result<Value, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", "1", "--trace", "0"])
        .args(size)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {workload} exited with {}",
            bin.display(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{workload}: no result line"))?;
    json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}
