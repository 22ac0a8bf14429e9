//! Shared helpers for the experiment harness binaries.
//!
//! Every figure/table of the paper's evaluation (§5) has a binary in
//! `src/bin/` that regenerates it:
//!
//! | binary   | reproduces                                          |
//! |----------|-----------------------------------------------------|
//! | `fig4`   | execution time / % loaded / speedup vs #workers     |
//! | `fig5`   | per-stage time per chunk vs #columns (measured)     |
//! | `fig6`   | selective tokenize/parse: #columns × first position |
//! | `fig7`   | chunk-size sweep × workers                          |
//! | `fig8`   | 6-query sequence × 4 loading methods                |
//! | `fig9`   | CPU / I/O utilization timeline under speculation    |
//! | `table1` | SAM/BAM genomic workload                            |
//! | `ablation` | design-choice ablations (safeguard, bias, seek)   |
//! | `trace`  | seeded traced workload → Chrome trace + folded stacks (`cargo xtask trace`) |
//!
//! Results print as aligned text tables (the same rows/series the paper
//! reports) and are also written as JSON under `results/`.
//!
//! These binaries reproduce the paper; they are not the performance
//! yardstick. The repository's one benchmark is `perfbench/` (described by
//! `BENCHMARK.json`, run with `cargo xtask bench`).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
use scanraw_pipesim::{measure_cost_model, CostModel};
use std::io::Write as _;
use std::path::PathBuf;

/// Rows used for cost-model calibration (overridable via `CALIB_ROWS`).
pub const DEFAULT_CALIB_ROWS: u64 = 1 << 15;
/// Columns used for cost-model calibration — 64, like the paper's default
/// experimental file (2^26 × 64).
pub const DEFAULT_CALIB_COLS: usize = 64;

/// Measures the calibrated cost model once per process.
///
/// The CPU-side constants come from running this repository's real
/// tokenizer/parser; the device keeps the paper's nominal 436 MB/s.
pub fn calibrated_model() -> CostModel {
    let rows = env_u64("CALIB_ROWS", DEFAULT_CALIB_ROWS);
    let cols = env_u64("CALIB_COLS", DEFAULT_CALIB_COLS as u64) as usize;
    let m = measure_cost_model(rows, cols);
    eprintln!(
        "# calibrated on {rows}x{cols}: tokenize {:.2} ns/B (skip {:.2}), parse {:.1} ns/value, engine {:.2} ns/value",
        m.tokenize_split_ns_per_byte, m.tokenize_skip_ns_per_byte, m.parse_ns_per_value, m.engine_ns_per_value
    );
    m
}

/// Cost model rescaled so the CPU↔I/O crossover sits at 6 workers, the
/// paper's hardware ratio (§5.1). Selected with `PAPER_RATIO=1`.
pub fn paper_ratio_model() -> CostModel {
    calibrated_model().with_crossover_at(6.0, 10.48)
}

/// Picks the model according to the `PAPER_RATIO` environment variable.
pub fn experiment_model() -> CostModel {
    if env_u64("PAPER_RATIO", 0) == 1 {
        eprintln!("# PAPER_RATIO=1: device rescaled for a 6-worker crossover");
        paper_ratio_model()
    } else {
        calibrated_model()
    }
}

/// Reads an integer environment knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", parts.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Writes an experiment's machine-readable output under `results/`.
pub fn write_json(name: &str, value: &scanraw_obs::Value) {
    let dir = PathBuf::from("results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "{}", value.to_json_pretty());
        eprintln!("# wrote {}", path.display());
    }
}

/// Formats seconds with 3 significant decimals.
pub fn secs(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_default_used_when_unset() {
        assert_eq!(env_u64("DEFINITELY_NOT_SET_XYZ", 7), 7);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(1.23456), "1.235");
    }
}
