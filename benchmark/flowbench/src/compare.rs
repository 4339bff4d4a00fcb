//! `flowbench compare <setA> <setB>`: do two sets of runs agree within
//! the benchmark's own bounds?

use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::catalog::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Pass,
    /// B's median is worse than A's by more than the bound, or an exact
    /// metric varied between runs of one set.
    Fail,
    /// Within the bound, but a set's own quartile spread exceeds it, so
    /// "unchanged" cannot be told from "changed".
    Unresolved,
}

/// B's median relative to A's, positive when worse.
pub fn worsening(m: &Metric, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return if mb == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match m.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// The compare rule for one workload x end-to-end metric.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let constant = |xs: &[f64]| xs.iter().all(|x| *x == xs[0]);
    if a.is_empty() || b.is_empty() || (m.exact && !(constant(a) && constant(b))) {
        return Verdict::Fail;
    }
    if worsening(m, a, b) > m.bound {
        Verdict::Fail
    } else if spread(a).max(spread(b)) > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

fn load(dir: &str) -> Result<Value, String> {
    let path = Path::new(dir).join("results.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every untraced value of one workload x metric in a set.
fn values(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    set["runs"]
        .as_array()
        .into_iter()
        .flatten()
        .filter(|r| r["workload"].as_str() == Some(workload) && r["trace"].as_u64() == Some(0))
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let [a, b] = argv else {
        return Err("usage: flowbench compare <setA> <setB>".to_string());
    };
    let (set_a, set_b) = (load(a)?, load(b)?);
    let mut failed = 0;
    let mut unresolved = 0;
    println!("workload metric unit median_a median_b worsening spread_a spread_b bound verdict");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (
                values(&set_a, w.name, m.name),
                values(&set_b, w.name, m.name),
            );
            let verdict = judge(m, &va, &vb);
            match verdict {
                Verdict::Fail => failed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Pass => {}
            }
            let same = if median(&va) == median(&vb) { " =" } else { "" };
            println!(
                "{} {} {} {} {} {:+.4} {:.4} {:.4} {} {verdict:?}{same}",
                w.name,
                m.name,
                m.unit,
                median(&va),
                median(&vb),
                worsening(m, &va, &vb),
                spread(&va),
                spread(&vb),
                m.bound,
            );
        }
    }
    println!("{failed} failed, {unresolved} unresolved (spread wider than the bound)");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64, exact: bool) -> Metric {
        Metric {
            name: "m",
            unit: "u",
            better,
            bound,
            exact,
            what: "",
        }
    }

    #[test]
    fn lower_is_better_within_and_beyond_the_bound() {
        let m = &metric(Better::Lower, 0.10, false);
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(judge(m, &a, &[10.9, 10.8, 11.0, 10.9]), Verdict::Pass);
        assert_eq!(judge(m, &a, &[11.2, 11.1, 11.3, 11.2]), Verdict::Fail);
        // Getting better is never a failure.
        assert_eq!(judge(m, &a, &[5.0, 5.0, 5.1, 4.9]), Verdict::Pass);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let m = &metric(Better::Higher, 0.10, false);
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(judge(m, &a, &[88.0, 89.0, 87.0, 88.0]), Verdict::Fail);
        assert_eq!(judge(m, &a, &[120.0, 121.0, 119.0, 120.0]), Verdict::Pass);
        assert!(worsening(m, &a, &[90.0]) > 0.0);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let m = &metric(Better::Lower, 0.10, false);
        let noisy = [1.0, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4];
        assert_eq!(judge(m, &noisy, &[1.0, 1.0, 1.0]), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_may_not_vary_inside_a_set() {
        let m = &metric(Better::Lower, 0.05, true);
        assert_eq!(judge(m, &[500.0, 500.0], &[500.0, 500.0]), Verdict::Pass);
        assert_eq!(judge(m, &[500.0, 501.0], &[500.0, 500.0]), Verdict::Fail);
        assert_eq!(judge(m, &[500.0, 500.0], &[530.0, 530.0]), Verdict::Fail);
        assert_eq!(judge(m, &[500.0], &[]), Verdict::Fail);
    }

    #[test]
    fn catalogue_names_fit_the_contract() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(crate::catalog::PER_LAYER.iter().map(|m| m.name))
        {
            assert!(ok(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
