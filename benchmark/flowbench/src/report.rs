//! What one run produces, and the contract's result line.

use serde_json::{Map, Value};

use crate::catalog::Metric;
use crate::spans::Span;

/// Counts operations and checks; anything that goes wrong lands in
/// `failed` and is explained on stderr, never silently dropped.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation or check; a failing one prints why.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("flowbench: FAILED: {}", why());
        }
        ok
    }

    /// Fold in the counts another thread kept.
    pub fn absorb(&mut self, other: &Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub struct Outcome {
    pub checks: Checks,
    /// Measured values by catalogue name; names the run did not measure
    /// are reported as 0 (a layer the workload does not exercise).
    pub values: Vec<(&'static str, f64)>,
    /// Empty on untraced runs.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// A run that could not even start measuring.
    pub fn failed(checks: Checks) -> Self {
        Outcome {
            checks,
            values: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// The `metrics` object of the result line: exactly the catalogue's
    /// names, each `{"value": .., "unit": ..}`.
    pub fn metrics_json(&self, catalogue: &[Metric]) -> Value {
        let mut m = Map::new();
        for metric in catalogue {
            m.insert(
                metric.name.to_string(),
                serde_json::json!({"value": self.value(metric.name), "unit": metric.unit}),
            );
        }
        Value::Object(m)
    }

    /// The contract's last stdout line.
    pub fn result_line(&self, catalogue: &[Metric]) -> String {
        let line = serde_json::json!({
            "correct": self.checks.failed == 0,
            "attempted": self.checks.attempted.max(1),
            "failed": self.checks.failed,
            "metrics": self.metrics_json(catalogue)
        });
        line.to_string()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used so far, user + system over all its
/// threads (`CLOCK_PROCESS_CPUTIME_ID`). On a guest with steal-time
/// accounting the time a virtual CPU was taken away is not counted, so
/// a single-threaded computation costs the same whether or not the host
/// was busy with someone else's work.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target, the only ones this runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}
