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

use std::process::ExitCode;

use fpga_bench::qor::{diff, BenchReport, DiffThresholds};
use fpga_flow::cli;

#[rustfmt::skip]
const OPTS: &[cli::Opt] = &[
    ("max-qor-regress", Some("PCT"), "tolerated per-design QoR growth, in % (default: 5)"),
    ("table", None, "also print the current report's trajectory table"),
];

fn main() -> ExitCode {
    let args = cli::parse_args(
        "bench-diff BASELINE.json CURRENT.json [options]",
        OPTS,
        2,
        "",
    );
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &cli::Args) -> Result<ExitCode, String> {
    let mut th = DiffThresholds::default();
    if let Some(pct) = cli::opt_f64(args, "max-qor-regress") {
        th.max_qor_regress_pct = pct;
    }
    let paths = &args.positionals;
    if paths.len() != 2 {
        args.refuse(format!("expected exactly two reports, got {}", paths.len()));
    }
    let baseline = BenchReport::load(paths[0].as_ref())?;
    let current = BenchReport::load(paths[1].as_ref())?;
    let outcome = diff(&baseline, &current, &th);
    print!("{}", outcome.render());
    if args.flag("table") {
        print!("{}", fpga_bench::qor::render_table(&current));
    }
    Ok(if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
