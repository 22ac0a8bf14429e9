//! `scanraw-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the run's report, then — as the last line of standard output — one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use scanraw_perfbench::input::CHUNK_ROWS;
use scanraw_perfbench::{run, Args, Workload};
use std::process::ExitCode;

/// The size every committed number was measured at: 48 chunks of 8,192 rows,
/// about 50 MB of CSV.
const DEFAULT_ROWS: u64 = 393_216;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: scanraw-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--rows N]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ColdFull,
        seed: 1,
        seconds: 10.0,
        trace: false,
        rows: DEFAULT_ROWS,
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value for {flag}: {value}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--rows" => {
                args.rows = value.parse().map_err(|_| bad())?;
                // Two chunks at least, so the throttled workload's half-size
                // table still has one.
                if args.rows < 2 * CHUNK_ROWS as u64 || args.rows > (1 << 24) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    args.workload = workload.ok_or_else(usage)?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let report = run(args);
    print!("{}", report.text);
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
