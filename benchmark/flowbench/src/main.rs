//! `flowbench` — the repository's benchmark of record.
//!
//! ```text
//! flowbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]   one run, result line last
//! flowbench suite [--seed N] [--runs R] [--out DIR]                      every workload, R untraced runs + 1 traced
//! flowbench list                                                         every workload and metric name with its unit
//! flowbench compare <setA> <setB>                                        do two sets of runs agree within the bounds?
//! ```
//!
//! See `benchmark/README.md` for the metric catalogue and the workload
//! rationale.

mod catalog;
mod cold;
mod compare;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use report::Outcome;

/// Arguments of one run (the contract's four, plus where traces go).
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
}

/// Scratch space next to the executable, so every file the benchmark
/// writes stays inside the build directory of its checkout.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let dir = exe.parent().expect("executable has a directory");
    dir.join(format!("flowbench-tmp-{}", std::process::id()))
}

fn run(args: &RunArgs) -> Outcome {
    let serve = args.workload.starts_with("serve_");
    match (serve, args.trace) {
        (false, false) => cold::timed(&args.workload, args.seconds),
        (false, true) => cold::traced(&args.workload, args.seconds),
        (true, false) => serve::timed(&args.workload, args.seed, args.seconds),
        (true, true) => serve::traced(&args.workload, args.seed, args.seconds),
    }
}

pub fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

pub fn parse<T: std::str::FromStr>(argv: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(argv, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value '{v}' for {name}")),
    }
}

fn run_command(argv: &[String]) -> Result<ExitCode, String> {
    let workload = flag(argv, "--workload").unwrap_or_default().to_string();
    if catalog::workload(&workload).is_none() {
        return Err(format!(
            "unknown workload '{workload}' (try `flowbench list`)"
        ));
    }
    let args = RunArgs {
        workload,
        seed: parse(argv, "--seed", 1)?,
        seconds: parse(argv, "--seconds", catalog::RUN_SECONDS)?,
        trace: parse::<u8>(argv, "--trace", 0)? != 0,
        out: flag(argv, "--out").map(PathBuf::from),
    };
    let outcome = run(&args);
    let catalogue: &[catalog::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in catalogue {
        eprintln!("{} {} {}", m.name, outcome.value(m.name), m.unit);
    }
    if let (Some(dir), true) = (&args.out, args.trace) {
        spans::write_trace(dir, &args.workload, &outcome.spans)
            .map_err(|e| format!("cannot write trace to {}: {e}", dir.display()))?;
    }
    println!("{}", outcome.result_line(catalogue));
    Ok(ExitCode::SUCCESS)
}

fn list() {
    for w in &WORKLOADS {
        println!("workload {} - {}", w.name, w.why);
    }
    for m in &END_TO_END {
        println!(
            "end_to_end {} {} {} {} - {}",
            m.name,
            m.unit,
            m.better.name(),
            m.bound,
            m.what
        );
    }
    for m in &PER_LAYER {
        println!(
            "per_layer {} {} {} - {}",
            m.name,
            m.unit,
            m.better.name(),
            m.what
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("suite") => suite::run(&argv[1..]),
        Some("compare") => compare::run(&argv[1..]),
        _ if flag(&argv, "--workload").is_some() => run_command(&argv),
        _ => Err("usage: flowbench --workload W --seed N --seconds S --trace 0|1 [--out DIR] | suite | list | compare A B".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("flowbench: {e}");
        ExitCode::from(2)
    })
}
