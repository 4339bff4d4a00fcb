//! The diagnostics framework: severities, rule catalogue and the
//! [`Diagnostic`] record every pass emits.
//!
//! Diagnostics are plain data. They serialize to/from `serde_json::Value`
//! with the same explicit field-by-field discipline as the flow server's
//! wire protocol, so they can ride protocol events unchanged and a newer
//! daemon can add fields without breaking older clients.

use serde_json::{json, Value};

/// How bad a finding is. Ordering matters: `Deny > Warn > Info`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: harmless, worth knowing.
    Info,
    /// Suspicious but not fatal; the flow proceeds.
    Warn,
    /// A design-rule violation; under `GateMode::Deny` it fails the job.
    Deny,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    pub fn parse(text: &str) -> Option<Severity> {
        match text {
            "info" => Some(Severity::Info),
            "warn" => Some(Severity::Warn),
            "deny" => Some(Severity::Deny),
            _ => None,
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How much the pipeline cares about a gate's findings. One mode type
/// serves both gates a compile can switch on — the design-rule lint and
/// the cross-stage equivalence check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GateMode {
    /// No checks run; today's behavior, byte for byte.
    #[default]
    Off,
    /// Checks run and report; the flow always proceeds.
    Warn,
    /// Checks run; any `Severity::Deny` finding fails the job.
    Deny,
}

impl GateMode {
    pub fn name(self) -> &'static str {
        match self {
            GateMode::Off => "off",
            GateMode::Warn => "warn",
            GateMode::Deny => "deny",
        }
    }

    pub fn parse(text: &str) -> Option<GateMode> {
        match text {
            "off" => Some(GateMode::Off),
            "warn" => Some(GateMode::Warn),
            "deny" => Some(GateMode::Deny),
            _ => None,
        }
    }

    /// Whether checks run at all under this mode.
    pub fn enabled(self) -> bool {
        self != GateMode::Off
    }
}

/// One finding from one pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable rule code (`NL001`, `PK001`, ...). Scripts and metrics key
    /// on this; it never changes meaning across versions.
    pub code: String,
    pub severity: Severity,
    /// The flow stage whose output the finding is about (`netlist`,
    /// `pack`, `place`, `route`, `bitstream`).
    pub stage: String,
    /// The design object at fault: a net, cell, cluster, block, or
    /// routing-resource name.
    pub subject: String,
    /// One-line human explanation.
    pub message: String,
    /// Supporting detail (cycle paths, driver lists, ...).
    pub notes: Vec<String>,
}

impl Diagnostic {
    pub fn new(
        code: &str,
        severity: Severity,
        stage: &str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity,
            stage: stage.to_string(),
            subject: subject.into(),
            message: message.into(),
            notes: Vec::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Serialize for the wire / reports. Field-by-field, like the proto.
    pub fn to_value(&self) -> Value {
        json!({
            "code": self.code,
            "severity": self.severity.name(),
            "stage": self.stage,
            "subject": self.subject,
            "message": self.message,
            "notes": self.notes,
        })
    }

    /// Parse a wire value back. Unknown extra fields are ignored (a newer
    /// emitter may add some); missing required fields are an error.
    pub fn from_value(v: &Value) -> Result<Diagnostic, String> {
        let text = |field: &str| -> Result<String, String> {
            v.get(field)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("diagnostic missing '{field}'"))
        };
        let severity_name = text("severity")?;
        let severity = Severity::parse(&severity_name)
            .ok_or_else(|| format!("unknown severity '{severity_name}'"))?;
        let notes = match v.get("notes") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Array(items)) => items
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect(),
            Some(other) => return Err(format!("diagnostic notes not a list: {other}")),
        };
        Ok(Diagnostic {
            code: text("code")?,
            severity,
            stage: text("stage")?,
            subject: text("subject")?,
            message: text("message")?,
            notes,
        })
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {} ({})",
            self.severity, self.code, self.stage, self.message, self.subject
        )?;
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// Serialize a batch of diagnostics.
pub fn diagnostics_to_value(diags: &[Diagnostic]) -> Value {
    Value::Array(diags.iter().map(Diagnostic::to_value).collect())
}

/// Parse a batch back from the wire. `Null` means none.
pub fn diagnostics_from_value(v: &Value) -> Result<Vec<Diagnostic>, String> {
    match v {
        Value::Null => Ok(Vec::new()),
        Value::Array(items) => items.iter().map(Diagnostic::from_value).collect(),
        other => Err(format!("diagnostics not a list: {other}")),
    }
}

/// Highest severity in a batch, if any.
pub fn worst(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// One-line summary of a batch: `"3 findings (1 deny, 2 warn)"`.
pub fn summarize(diags: &[Diagnostic]) -> String {
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    let (deny, warn, info) = (
        count(Severity::Deny),
        count(Severity::Warn),
        count(Severity::Info),
    );
    if diags.is_empty() {
        return "no findings".to_string();
    }
    let mut parts = Vec::new();
    if deny > 0 {
        parts.push(format!("{deny} deny"));
    }
    if warn > 0 {
        parts.push(format!("{warn} warn"));
    }
    if info > 0 {
        parts.push(format!("{info} info"));
    }
    format!(
        "{} finding{} ({})",
        diags.len(),
        if diags.len() == 1 { "" } else { "s" },
        parts.join(", ")
    )
}

/// One rule in the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    pub code: &'static str,
    /// The stage family the rule checks.
    pub stage: &'static str,
    /// One-line description, printed by `--help` / `--rules`.
    pub summary: &'static str,
}

/// The full rule catalogue, in stage order. Codes are append-only: a
/// rule's meaning never changes, retired rules keep their slot reserved.
pub const RULES: [Rule; 11] = [
    Rule {
        code: "NL001",
        stage: "netlist",
        summary: "combinational loop (cycle through non-sequential cells)",
    },
    Rule {
        code: "NL002",
        stage: "netlist",
        summary: "multiply-driven net (two drivers, or a cell driving a primary input)",
    },
    Rule {
        code: "NL003",
        stage: "netlist",
        summary: "undriven or dangling net (used-but-undriven denies; unused nets warn/info)",
    },
    Rule {
        code: "PK001",
        stage: "pack",
        summary: "cluster exceeds architecture limits (N BLEs, I inputs, K LUT inputs, clocks)",
    },
    Rule {
        code: "PL001",
        stage: "place",
        summary: "illegal placement (overlap, out of bounds, wrong tile kind, unplaced block)",
    },
    Rule {
        code: "RT001",
        stage: "route",
        summary: "routing-resource overuse: one wire or input pin shorted between nets",
    },
    Rule {
        code: "RT002",
        stage: "route",
        summary: "disconnected routed net (broken tree, missing sink, or phantom edge)",
    },
    Rule {
        code: "BS001",
        stage: "bitstream",
        summary: "bitstream inconsistent with the routed design (geometry or missing switches)",
    },
    Rule {
        code: "EQ001",
        stage: "verify",
        summary: "stage artifact not equivalent to the netlist (counterexample attached)",
    },
    Rule {
        code: "EQ002",
        stage: "verify",
        summary: "bitstream-decoded fabric not equivalent to the netlist (counterexample attached)",
    },
    Rule {
        code: "EQ003",
        stage: "verify",
        summary: "unverifiable cone (view extraction or replay failed; equivalence unknown)",
    },
];

/// Look up a rule by code.
pub fn rule(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

/// The catalogue as `--help` text: one aligned line per rule.
pub fn catalogue_text() -> String {
    let mut out = String::from("rules:\n");
    for r in &RULES {
        out.push_str(&format!("  {}  [{:<9}] {}\n", r.code, r.stage, r.summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_round_trips() {
        assert!(Severity::Deny > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        for s in [Severity::Info, Severity::Warn, Severity::Deny] {
            assert_eq!(Severity::parse(s.name()), Some(s));
        }
        assert_eq!(Severity::parse("fatal"), None);
    }

    #[test]
    fn gate_mode_parses_and_defaults_off() {
        assert_eq!(GateMode::default(), GateMode::Off);
        for m in [GateMode::Off, GateMode::Warn, GateMode::Deny] {
            assert_eq!(GateMode::parse(m.name()), Some(m));
        }
        assert_eq!(GateMode::parse("loud"), None);
        assert!(!GateMode::Off.enabled());
        assert!(GateMode::Deny.enabled());
    }

    #[test]
    fn diagnostic_round_trips_through_value() {
        let d = Diagnostic::new("NL002", Severity::Deny, "netlist", "net 'x'", "two drivers")
            .with_note("driven by 'g1'")
            .with_note("driven by 'g2'");
        let back = Diagnostic::from_value(&d.to_value()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn diagnostic_parse_rejects_missing_fields() {
        let v = serde_json::json!({"code": "NL001", "severity": "deny"});
        assert!(Diagnostic::from_value(&v).is_err());
        let v = serde_json::json!({
            "code": "NL001", "severity": "someday", "stage": "netlist",
            "subject": "s", "message": "m"
        });
        assert!(Diagnostic::from_value(&v).is_err());
    }

    #[test]
    fn batch_round_trip_and_worst() {
        let diags = vec![
            Diagnostic::new("NL003", Severity::Info, "netlist", "a", "dangling"),
            Diagnostic::new("NL001", Severity::Deny, "netlist", "b", "loop"),
        ];
        let back = diagnostics_from_value(&diagnostics_to_value(&diags)).unwrap();
        assert_eq!(back, diags);
        assert_eq!(worst(&diags), Some(Severity::Deny));
        assert_eq!(worst(&[]), None);
        assert!(summarize(&diags).contains("1 deny"));
    }

    #[test]
    fn catalogue_is_complete_and_unique() {
        let mut codes: Vec<&str> = RULES.iter().map(|r| r.code).collect();
        codes.dedup();
        assert_eq!(codes.len(), RULES.len());
        assert!(rule("NL001").is_some());
        assert!(rule("XX999").is_none());
        let text = catalogue_text();
        for r in &RULES {
            assert!(text.contains(r.code), "{text}");
        }
    }
}
