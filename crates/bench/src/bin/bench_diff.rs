//! `bench-diff` — compare two `BENCH_*.json` reports and fail on QoR
//! regressions beyond a configurable threshold. The geomean wall-clock
//! delta is printed, not gated (`flowbench` owns timing claims).
//!
//! ```text
//! bench-diff BENCH_baseline.json BENCH_ci.json
//! bench-diff BENCH_1.json BENCH_2.json --max-qor-regress 2
//! ```
//!
//! Exit codes: 0 = no regressions, 1 = regressions beyond thresholds,
//! 2 = usage or unreadable/invalid report.

use std::path::PathBuf;
use std::process::ExitCode;

use fpga_bench::qor::{diff, BenchReport, DiffThresholds};

const USAGE: &str = "bench-diff — QoR regression gate over two BENCH_*.json reports

USAGE:
    bench-diff BASELINE.json CURRENT.json [OPTIONS]

OPTIONS:
    --max-qor-regress PCT    tolerated per-design QoR growth for every
                             lower-is-better metric (default: 5)
    --table                  also print the current report's trajectory table
    --version                print the toolset version
    -h, --help               this text
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut th = DiffThresholds::default();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut table = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value (see --help)"))
        };
        match arg.as_str() {
            "--max-qor-regress" => {
                th.max_qor_regress_pct = value("--max-qor-regress")?
                    .parse()
                    .map_err(|_| "--max-qor-regress must be a number".to_string())?;
            }
            "--table" => table = true,
            "--version" => {
                println!("bench-diff {}", fpga_flow::FLOW_VERSION);
                return Ok(ExitCode::SUCCESS);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }
    if paths.len() != 2 {
        return Err(format!(
            "expected exactly two reports, got {} (see --help)",
            paths.len()
        ));
    }

    let baseline = BenchReport::load(&paths[0])?;
    let current = BenchReport::load(&paths[1])?;
    let outcome = diff(&baseline, &current, &th);
    print!("{}", outcome.render());
    if table {
        print!("{}", fpga_bench::qor::render_table(&current));
    }
    Ok(if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
