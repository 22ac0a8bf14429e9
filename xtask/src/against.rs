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
//! metric's bound. When that happens in a majority of a metric's pairs, or
//! the change fails more operations than the base, the task exits with
//! code 2; any error running it exits with 1.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use scanraw_obs::json::{self, Value};

/// Exit code of a finished comparison that found the change worse.
const WORSE: u8 = 2;

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
    let mut not_worse = true;
    for workload in crate::WORKLOADS {
        // results[side][pair]: side 0 is the base, 1 the change.
        let mut results: [Vec<Value>; 2] = [Vec::new(), Vec::new()];
        for pair in 0..pairs {
            let first = pair % 2;
            for side in [first, 1 - first] {
                results[side].push(run_once(&bins[side], workload, size)?);
            }
        }
        not_worse &= report(workload, &metrics, &results);
    }
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

/// Prints one workload's table; false when the change is worse.
fn report(workload: &str, metrics: &[Metric], results: &[Vec<Value>; 2]) -> bool {
    let pairs = results[0].len();
    println!("\n== {workload} ==");
    println!(
        "{:<12} {:<34} {:<34} {:>6} {:>11}",
        "metric", "base median [q25, q75]", "change median [q25, q75]", "wins", "worse>bound"
    );
    let mut not_worse = true;
    for m in metrics {
        let value = |r: &Value| r.get("metrics")?.get(&m.name)?.get("value")?.as_f64();
        let sides: Option<Vec<Vec<f64>>> = results
            .iter()
            .map(|runs| runs.iter().map(value).collect())
            .collect();
        let Some([base, change]) = sides.as_deref() else {
            continue; // the workload does not report this metric
        };
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
        println!(
            "{:<12} {:<34} {:<34} {:>6} {:>11}{}",
            m.name,
            summary(base),
            summary(change),
            format!("{wins}/{pairs}"),
            format!("{worse}/{pairs}"),
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
