//! Flow reports: per-stage structured results, serialized as JSON for the
//! GUI/automation layer.

use serde::{Deserialize, Serialize};

/// One stage's report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StageReport {
    /// Short stable stage id ([`StageId::name`](crate::StageId::name)),
    /// the key metrics registries and traces aggregate on. `None` for
    /// reports produced before ids existed (or by ad-hoc pushes).
    pub id: Option<String>,
    /// Human-readable stage title ("synthesis (VHDL Parser + DIVINER)").
    pub stage: String,
    pub ok: bool,
    /// Stage-specific metrics (cells, LUTs, wirelength, ...).
    pub metrics: serde_json::Value,
    pub elapsed_ms: f64,
}

/// Machine-readable quality-of-results summary for one compiled design:
/// the numbers every benchmark row, regression diff, and downstream
/// optimization claim is judged on. Typed fields, not display strings —
/// `BENCH_*.json` and `bench-diff` consume these directly.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct QorSummary {
    /// Post-mapping K-LUT count.
    pub luts: u64,
    /// Flip-flop count in the mapped netlist.
    pub ffs: u64,
    /// Packed CLB count.
    pub clbs: u64,
    /// Placement grid dimensions.
    pub grid_w: u64,
    pub grid_h: u64,
    /// Routed channel width (the searched minimum, or the fixed width
    /// the run was pinned to).
    pub channel_width: u64,
    /// Total routed wirelength in segments.
    pub wirelength: u64,
    /// Critical-path delay from the post-route STA, in nanoseconds.
    pub critical_path_ns: f64,
    /// Maximum clock frequency implied by the critical path, in MHz.
    pub fmax_mhz: f64,
    /// Estimated total power, in milliwatts.
    pub power_mw: f64,
}

/// The whole flow's report.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FlowReport {
    pub design: String,
    pub stages: Vec<StageReport>,
    /// Typed QoR summary, populated when the flow ran to completion
    /// (absent in reports from older servers or failed runs).
    pub qor: Option<QorSummary>,
}

impl FlowReport {
    /// Append a finished stage: its human-readable title, and the short
    /// stable stage id when the producer has one.
    pub fn push_with_id(
        &mut self,
        id: Option<&str>,
        stage: &str,
        metrics: serde_json::Value,
        started: std::time::Instant,
    ) {
        self.stages.push(StageReport {
            id: id.map(str::to_string),
            stage: stage.to_string(),
            ok: true,
            metrics,
            elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
        });
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = format!("flow report for '{}':\n", self.design);
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<24} {:>9.2} ms   {}\n",
                s.stage,
                s.elapsed_ms,
                compact(&s.metrics)
            ));
        }
        if let Some(q) = &self.qor {
            out.push_str(&format!(
                "  QoR: {} LUTs, {} CLBs, W={}, {:.2} ns critical ({:.1} MHz), {:.2} mW\n",
                q.luts, q.clbs, q.channel_width, q.critical_path_ns, q.fmax_mhz, q.power_mw
            ));
        }
        out
    }

    /// Total wall-clock across all recorded stages, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.elapsed_ms).sum()
    }
}

fn compact(v: &serde_json::Value) -> String {
    match v {
        serde_json::Value::Object(map) => map
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrip_and_summary() {
        let mut r = FlowReport {
            design: "demo".into(),
            ..Default::default()
        };
        let t = std::time::Instant::now();
        r.push_with_id(None, "synthesis", serde_json::json!({"cells": 42}), t);
        r.push_with_id(
            Some("pack"),
            "packing (T-VPack)",
            serde_json::json!({"clbs": 7}),
            t,
        );
        let js = r.to_json();
        let back: FlowReport = serde_json::from_str(&js).unwrap();
        assert_eq!(back.stages.len(), 2);
        assert_eq!(back.design, "demo");
        assert_eq!(back.stages[0].id, None);
        assert_eq!(back.stages[1].id.as_deref(), Some("pack"));
        let s = r.summary();
        assert!(s.contains("synthesis"));
        assert!(s.contains("cells=42"));
    }

    #[test]
    fn qor_summary_round_trips_through_json() {
        let mut r = FlowReport {
            design: "demo".into(),
            ..Default::default()
        };
        r.qor = Some(QorSummary {
            luts: 128,
            ffs: 32,
            clbs: 26,
            grid_w: 8,
            grid_h: 8,
            channel_width: 12,
            wirelength: 940,
            critical_path_ns: 14.25,
            fmax_mhz: 70.17,
            power_mw: 3.5,
        });
        let back: FlowReport = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back.qor, r.qor);
        assert!((r.total_ms() - 0.0).abs() < f64::EPSILON);
        let s = r.summary();
        assert!(s.contains("128 LUTs"), "{s}");
        assert!(s.contains("W=12"), "{s}");

        // Reports from before the field existed still parse.
        let legacy = r#"{"design":"old","stages":[]}"#;
        let old: FlowReport = serde_json::from_str(legacy).unwrap();
        assert!(old.qor.is_none());
    }
}
