//! Workspace automation: `cargo xtask <task>`.
//!
//! Tasks:
//! - `lint` — run the scanraw-lint analyzer (every rule in its table, see
//!   `--explain`) over the workspace and exit non-zero on any finding not
//!   audited in source.
//! - `bench` — run the repository's one benchmark (`perfbench/`, described
//!   by `BENCHMARK.json`): every workload once at seed 1, end-to-end
//!   metrics (`--trace 0`), each run ending in its JSON result line. Pass
//!   `--smoke` for the small CI-sized configuration. `--against <rev>
//!   [--pairs N]` compares the working tree with `<rev>` instead, in N
//!   alternating pairs per workload (default 10), and exits with 2 when an
//!   end-to-end metric is worse than its bound in a majority of pairs;
//!   `--aa [--pairs N]` runs HEAD against a copy of itself and writes the
//!   benchmark's noise floor to `results/noise_floor.json` (see
//!   `against.rs`).
//! - `trace` — run a seeded traced workload and export its validated span
//!   tree as Chrome trace-event JSON (`scanraw.trace.json`, loadable in
//!   Perfetto / `about://tracing`) plus a folded-stack flamegraph file
//!   (`scanraw.folded`). Pass `--smoke` for the small CI configuration.
//!
//! `lint` options:
//! - `--format text|json|github|callgraph|effects` — output format
//!   (default `text`; `callgraph` prints the resolved call graph as DOT,
//!   `effects` the effect-annotated call graph as DOT)
//! - `--output <path>` — additionally write the JSON report to `<path>`
//! - `--timing` — print the per-phase wall-clock breakdown to stderr
//! - `--budget-ms <n>` — fail when the full analysis (all phases) exceeds
//!   `n` milliseconds; implies `--timing`. CI enforces 2000.
//! - `--explain <RULE>` — print the rule's full documentation and exit

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::PathBuf;
use std::process::ExitCode;

use scanraw_lint::output;

mod against;

fn workspace_root() -> PathBuf {
    // xtask/ sits directly under the workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(PathBuf::from).unwrap_or(manifest)
}

struct LintOpts {
    format: String,
    output: Option<PathBuf>,
    timing: bool,
    budget_ms: Option<u64>,
    explain: Option<String>,
}

fn parse_lint_opts(args: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts {
        format: "text".to_string(),
        output: None,
        timing: false,
        budget_ms: None,
        explain: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                if !matches!(
                    v.as_str(),
                    "text" | "json" | "github" | "callgraph" | "effects"
                ) {
                    return Err(format!(
                        "unknown format `{v}` (expected text, json, github, callgraph, or \
                         effects)"
                    ));
                }
                opts.format = v.clone();
            }
            "--output" => {
                opts.output = Some(PathBuf::from(it.next().ok_or("--output needs a path")?))
            }
            "--timing" => opts.timing = true,
            "--budget-ms" => {
                let v = it.next().ok_or("--budget-ms needs a value")?;
                let ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("--budget-ms: `{v}` is not a number"))?;
                opts.budget_ms = Some(ms);
                opts.timing = true;
            }
            "--explain" => {
                opts.explain = Some(it.next().ok_or("--explain needs a rule id")?.clone())
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

fn task_lint(args: &[String]) -> ExitCode {
    let opts = match parse_lint_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(id) = &opts.explain {
        let Some(rule) = scanraw_lint::Rule::from_id(id) else {
            eprintln!("xtask lint: unknown rule `{id}`; the rules are:");
            for rule in scanraw_lint::Rule::ALL {
                eprintln!("  {rule}  {}", rule.description());
            }
            return ExitCode::FAILURE;
        };
        print!("{}", rule.explain());
        return ExitCode::SUCCESS;
    }
    let root = workspace_root();
    let report = match scanraw_lint::run_report(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: failed to read workspace sources: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.timing {
        let total: std::time::Duration = report.timing.iter().map(|p| p.duration).sum();
        for p in &report.timing {
            eprintln!("xtask lint: phase {:<12} {:>8.2?}", p.name, p.duration);
        }
        eprintln!("xtask lint: phase {:<12} {:>8.2?}", "total", total);
        if let Some(ms) = opts.budget_ms {
            let budget = std::time::Duration::from_millis(ms);
            if total > budget {
                eprintln!(
                    "xtask lint: analysis took {total:.2?}, over the {budget:.2?} budget — \
                     the analyzer's own cost must stay bounded"
                );
                return ExitCode::FAILURE;
            }
            eprintln!("xtask lint: within the {budget:.2?} budget");
        }
    }
    if opts.format == "callgraph" {
        print!("{}", report.callgraph_dot);
        return ExitCode::SUCCESS;
    }
    if opts.format == "effects" {
        print!("{}", report.effects_dot);
        return ExitCode::SUCCESS;
    }
    let findings = report.findings;

    if let Some(path) = &opts.output {
        if let Err(e) = std::fs::write(path, output::to_json(&findings)) {
            eprintln!("xtask lint: cannot write report {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    match opts.format.as_str() {
        "json" => print!("{}", output::to_json(&findings)),
        "github" => print!("{}", output::to_github(&findings)),
        _ => {
            for f in &findings {
                println!("{f}");
            }
        }
    }

    if findings.is_empty() {
        if opts.format == "text" {
            println!(
                "xtask lint: clean ({} rules, 0 findings)",
                scanraw_lint::Rule::ALL.len()
            );
        }
        return ExitCode::SUCCESS;
    }
    if opts.format == "text" {
        let mut by_rule: Vec<(&str, usize)> = Vec::new();
        for f in &findings {
            match by_rule.iter_mut().find(|(id, _)| *id == f.rule.id()) {
                Some((_, n)) => *n += 1,
                None => by_rule.push((f.rule.id(), 1)),
            }
        }
        let summary: Vec<String> = by_rule.iter().map(|(id, n)| format!("{id}: {n}")).collect();
        eprintln!(
            "xtask lint: {} finding(s) ({}); silence false positives with `// lint-ok: <RULE> <reason>`",
            findings.len(),
            summary.join(", ")
        );
    }
    ExitCode::FAILURE
}

/// Runs `cargo <args>` from the workspace root.
fn run_cargo(task: &str, what: &str, args: &[&str]) -> ExitCode {
    let mut cmd = std::process::Command::new(env!("CARGO"));
    cmd.current_dir(workspace_root()).args(args);
    match cmd.status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => {
            eprintln!("xtask {task}: {what} exited with {status}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask {task}: failed to spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The benchmark's workloads, as `BENCHMARK.json` names them.
const WORKLOADS: [&str; 5] = [
    "cold_full",
    "proj2_lifecycle",
    "warm_exec",
    "throttled_seq",
    "serve_4tenant",
];

fn task_bench(args: &[String]) -> ExitCode {
    const USAGE: &str = "usage: cargo xtask bench [--smoke] [--against <rev> | --aa] [--pairs N]";
    let mut smoke = false;
    let mut aa = false;
    let mut against: Option<&str> = None;
    let mut pairs: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.as_slice().first()) {
            ("--smoke", _) => smoke = true,
            ("--aa", _) => aa = true,
            ("--against", Some(rev)) => {
                against = Some(rev);
                it.next();
            }
            ("--pairs", Some(n)) if n.parse::<usize>().is_ok_and(|n| n > 0) => {
                pairs = n.parse().ok();
                it.next();
            }
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    // `--smoke`: a sixteenth of the table and one second per workload.
    let size: &[&str] = if smoke {
        &["--seconds", "1", "--rows", "24576"]
    } else {
        &["--seconds", "10"]
    };
    match (against, aa, pairs) {
        (Some(_), true, _) => {
            eprintln!("xtask bench: --against and --aa exclude each other\n{USAGE}");
            return ExitCode::FAILURE;
        }
        (Some(rev), false, pairs) => {
            return against::run(&workspace_root(), rev, pairs.unwrap_or(10), size)
        }
        (None, true, pairs) => {
            return against::run_aa(&workspace_root(), pairs.unwrap_or(10), size)
        }
        (None, false, Some(_)) => {
            eprintln!("xtask bench: --pairs needs --against or --aa\n{USAGE}");
            return ExitCode::FAILURE;
        }
        (None, false, None) => {}
    }
    for workload in WORKLOADS {
        let mut cargo_args = vec![
            "run",
            "--release",
            "--offline",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--",
            "--workload",
            workload,
            "--seed",
            "1",
            "--trace",
            "0",
        ];
        cargo_args.extend(size);
        if run_cargo("bench", workload, &cargo_args) != ExitCode::SUCCESS {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn task_trace(args: &[String]) -> ExitCode {
    let mut cargo_args = vec![
        "run",
        "--release",
        "-p",
        "scanraw-bench",
        "--bin",
        "trace",
        "--",
    ];
    cargo_args.extend(args.iter().map(String::as_str));
    run_cargo("trace", "trace", &cargo_args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => task_lint(&args[1..]),
        Some("bench") => task_bench(&args[1..]),
        Some("trace") => task_trace(&args[1..]),
        None => {
            eprintln!(
                "usage: cargo xtask <task>\n\ntasks:\n  lint    run the static analysis rule table\n          options: --format text|json|github|callgraph|effects, --output <path>,\n                   --timing, --budget-ms <n>, --explain <RULE>\n  bench   run the benchmark (perfbench/, see BENCHMARK.json): every\n          workload once, end-to-end metrics and a JSON result line each\n          options: --smoke (small CI configuration),\n                   --against <rev> [--pairs N] (alternating pairs against <rev>),\n                   --aa [--pairs N] (HEAD against a copy of itself: the noise floor)\n  trace   run a seeded traced workload and export its span tree\n          (writes scanraw.trace.json for Perfetto and scanraw.folded)\n          options: --smoke (small CI configuration)"
            );
            ExitCode::FAILURE
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (available: lint, bench, trace)");
            ExitCode::FAILURE
        }
    }
}
