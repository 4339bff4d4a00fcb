//! `flowbench suite`: every workload, each run in its own child process
//! (so `peak_rss_mb` is per workload), results gathered into one
//! `results.json` plus one `trace_<workload>.json` per workload.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};

/// One child run: the contract's command line plus `--out`; its last
/// stdout line is the result.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let mut result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    if let Value::Object(m) = &mut result {
        m.insert("workload".into(), workload.into());
        m.insert("seed".into(), seed.into());
        m.insert("trace".into(), u64::from(trace).into());
    }
    Ok(result)
}

pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = crate::parse(argv, "--seed", 1)?;
    let runs: u64 = crate::parse(argv, "--runs", 1)?;
    let seconds: f64 = crate::parse(argv, "--seconds", crate::catalog::RUN_SECONDS)?;
    let out = PathBuf::from(crate::flag(argv, "--out").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let mut results = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for (trace, count) in [(false, runs), (true, 1)] {
            for i in 0..count {
                let r = child(w.name, seed + i, seconds, trace, &out)?;
                all_correct &= r["correct"].as_bool() == Some(true);
                let catalogue = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                for m in catalogue {
                    let value = r["metrics"][m.name]["value"].as_f64().unwrap_or(0.0);
                    println!("{} {} {value} {}", w.name, m.name, m.unit);
                }
                results.push(r);
            }
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = serde_json::json!({
        "flow_version": fpga_flow::FLOW_VERSION,
        "host_cores": cores,
        "run_seconds": seconds,
        "runs": Value::Array(results)
    });
    let path = out.join("results.json");
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("flowbench: wrote {}", path.display());
    if !all_correct {
        return Err("a run failed a correctness or workload-validity check".to_string());
    }
    Ok(ExitCode::SUCCESS)
}
