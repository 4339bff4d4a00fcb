//! Per-job tracing: span IDs, monotonic timing, and typed per-stage
//! events.
//!
//! A [`TraceLog`] is created per job (by the flow server when the client
//! asks for `trace`, or by any embedder) and threaded through
//! [`FlowCtx`](crate::FlowCtx) into every stage step. Each step opens one
//! span when it is entered and closes it when it resolves, recording
//! *how* it resolved — computed, served from the in-memory cache, served
//! from the durable disk store, stopped by an injected fault, cancelled,
//! or failed. Inside the span, discrete timestamped [`TraceEvent`]s mark
//! the lifecycle: `start`, the cache attribution
//! (`cache-memory-hit` / `cache-disk-hit` / `compute`), `fault` when an
//! injected fault fired, and `finish`.
//!
//! Timing is monotonic ([`Instant`]), measured in microseconds from the
//! log's epoch (its creation), so spans from one job order and nest
//! consistently regardless of wall-clock adjustments.
//!
//! The log serializes to JSON (`{"spans":[...]}`) for the wire — `flowc
//! --trace` asks the daemon for it and renders the per-stage waterfall
//! with [`render_waterfall`].

use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::sync::lock;

/// Handle to one span in a [`TraceLog`] (an index; spans are never
/// removed). Obtained from [`TraceLog::start`], spent in
/// [`TraceLog::finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// How a span resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanOutcome {
    /// Still open (the stage is running, or a panic unwound past it).
    Pending,
    /// The stage ran its computation.
    Computed,
    /// Served from the in-memory stage cache.
    MemoryHit,
    /// Served from the durable disk store.
    DiskHit,
    /// An injected fault stopped the stage.
    Fault,
    /// Cancellation (explicit or deadline) stopped the stage.
    Cancelled,
    /// The stage failed with a flow error.
    Error,
}

impl SpanOutcome {
    /// Short stable label used in waterfalls and event kinds.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::Pending => "pending",
            SpanOutcome::Computed => "computed",
            SpanOutcome::MemoryHit => "memory-hit",
            SpanOutcome::DiskHit => "disk-hit",
            SpanOutcome::Fault => "fault",
            SpanOutcome::Cancelled => "cancelled",
            SpanOutcome::Error => "error",
        }
    }

    /// Classify a flow error by the stage tag the fault/cancel machinery
    /// stamps on it ([`FaultPlan`](crate::FaultPlan) uses `"fault"`, the
    /// stage gate's cancellation path uses `"cancelled"`).
    pub fn from_flow_error(e: &crate::FlowError) -> Self {
        match e.stage {
            "fault" => SpanOutcome::Fault,
            "cancelled" => SpanOutcome::Cancelled,
            _ => SpanOutcome::Error,
        }
    }

    /// The attribution event a resolution records, if any.
    fn event_kind(self) -> Option<&'static str> {
        match self {
            SpanOutcome::Computed => Some("compute"),
            SpanOutcome::MemoryHit => Some("cache-memory-hit"),
            SpanOutcome::DiskHit => Some("cache-disk-hit"),
            SpanOutcome::Fault => Some("fault"),
            SpanOutcome::Cancelled => Some("cancel"),
            SpanOutcome::Error => Some("error"),
            SpanOutcome::Pending => None,
        }
    }
}

impl From<crate::cache::CacheOutcome> for SpanOutcome {
    fn from(o: crate::cache::CacheOutcome) -> Self {
        match o {
            crate::cache::CacheOutcome::Computed => SpanOutcome::Computed,
            crate::cache::CacheOutcome::MemoryHit => SpanOutcome::MemoryHit,
            crate::cache::CacheOutcome::DiskHit => SpanOutcome::DiskHit,
        }
    }
}

/// One timestamped event inside a span.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Microseconds since the log's epoch.
    pub at_us: u64,
    /// `start`, `compute`, `cache-memory-hit`, `cache-disk-hit`,
    /// `fault`, `cancel`, `error`, or `finish`.
    pub kind: String,
}

/// One stage span: `[start_us, end_us]` relative to the log's epoch,
/// with its resolution and the events observed inside it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Stable stage name ([`StageId::name`](crate::StageId::name)).
    pub stage: String,
    pub start_us: u64,
    /// `None` while the span is open (or if a panic unwound past the
    /// step before it could close).
    pub end_us: Option<u64>,
    pub outcome: SpanOutcome,
    /// Error message for `Fault` / `Cancelled` / `Error` outcomes.
    pub detail: Option<String>,
    pub events: Vec<TraceEvent>,
}

impl TraceSpan {
    /// Span duration in microseconds (0 while open).
    pub fn duration_us(&self) -> u64 {
        self.end_us.unwrap_or(self.start_us) - self.start_us
    }
}

/// A per-job trace collector. Interior-mutable and `Sync`: stage steps
/// record through a shared reference, exactly like the stage cache.
#[derive(Debug)]
pub struct TraceLog {
    epoch: Instant,
    spans: Mutex<Vec<TraceSpan>>,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new()
    }
}

impl TraceLog {
    pub fn new() -> Self {
        TraceLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span for `stage` (records the `start` event).
    pub fn start(&self, stage: &str) -> SpanId {
        let at = self.now_us();
        let mut spans = lock(&self.spans);
        spans.push(TraceSpan {
            stage: stage.to_string(),
            start_us: at,
            end_us: None,
            outcome: SpanOutcome::Pending,
            detail: None,
            events: vec![TraceEvent {
                at_us: at,
                kind: "start".to_string(),
            }],
        });
        SpanId(spans.len() - 1)
    }

    /// Close a span with its resolution (records the attribution event
    /// and the `finish` event). Closing an already-closed span is a
    /// no-op, so a belt-and-suspenders caller cannot double-count.
    pub fn finish(&self, id: SpanId, outcome: SpanOutcome, detail: Option<String>) {
        let at = self.now_us();
        let mut spans = lock(&self.spans);
        let Some(span) = spans.get_mut(id.0) else {
            return;
        };
        if span.end_us.is_some() {
            return;
        }
        span.end_us = Some(at);
        span.outcome = outcome;
        span.detail = detail;
        if let Some(kind) = outcome.event_kind() {
            span.events.push(TraceEvent {
                at_us: at,
                kind: kind.to_string(),
            });
        }
        span.events.push(TraceEvent {
            at_us: at,
            kind: "finish".to_string(),
        });
    }

    /// Snapshot the spans recorded so far.
    pub fn spans(&self) -> Vec<TraceSpan> {
        lock(&self.spans).clone()
    }

    /// The wire form: `{"spans":[...]}`.
    pub fn to_value(&self) -> Value {
        serde_json::json!({ "spans": serde_json::to_value(&self.spans()) })
    }
}

/// Parse the wire form back into spans (what `flowc --trace` does with
/// the `trace` field of a `done` event).
pub fn spans_from_value(v: &Value) -> Result<Vec<TraceSpan>, String> {
    let spans = v
        .get("spans")
        .ok_or_else(|| "trace value has no 'spans'".to_string())?;
    serde_json::from_value(spans).map_err(|e| format!("bad trace spans: {e}"))
}

/// Render a per-stage waterfall: one row per span, a proportional bar
/// positioned at the span's offset, its duration, and its cache/compute
/// attribution. Pure ASCII so it survives any terminal.
///
/// ```text
/// trace waterfall (8 spans, 44.31 ms total)
///   synthesis  |#####.........................|  7.02 ms  computed
///   lut_map    |     ##.......................|  2.96 ms  computed
/// ```
pub fn render_waterfall(title: &str, spans: &[TraceSpan]) -> String {
    const BAR: usize = 30;
    if spans.is_empty() {
        return format!("trace waterfall for {title}: no spans recorded\n");
    }
    let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let t1 = spans
        .iter()
        .map(|s| s.end_us.unwrap_or(s.start_us))
        .max()
        .unwrap_or(t0);
    let total = (t1 - t0).max(1);
    let name_w = spans.iter().map(|s| s.stage.len()).max().unwrap_or(5);
    let mut out = format!(
        "trace waterfall for {title} ({} spans, {:.2} ms total)\n",
        spans.len(),
        total as f64 / 1e3
    );
    for s in spans {
        let off = ((s.start_us - t0) as usize * BAR) / total as usize;
        let mut len = (s.duration_us() as usize * BAR) / total as usize;
        if len == 0 {
            len = 1; // every span is visible, however fast
        }
        let off = off.min(BAR - 1);
        let len = len.min(BAR - off);
        let bar: String = std::iter::repeat_n('.', off)
            .chain(std::iter::repeat_n('#', len))
            .chain(std::iter::repeat_n('.', BAR - off - len))
            .collect();
        let detail = s
            .detail
            .as_deref()
            .map(|d| format!("  ({d})"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:<name_w$}  |{bar}|  {:>8.2} ms  {}{detail}\n",
            s.stage,
            s.duration_us() as f64 / 1e3,
            s.outcome.label(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_lifecycle_events_and_round_trip() {
        let log = TraceLog::new();
        let a = log.start("synthesis");
        log.finish(a, SpanOutcome::Computed, None);
        let b = log.start("lut_map");
        log.finish(b, SpanOutcome::MemoryHit, None);

        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "synthesis");
        assert_eq!(spans[0].outcome, SpanOutcome::Computed);
        let kinds: Vec<&str> = spans[0].events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["start", "compute", "finish"]);
        let kinds: Vec<&str> = spans[1].events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["start", "cache-memory-hit", "finish"]);

        let wire = log.to_value();
        let back = spans_from_value(&wire).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].outcome, SpanOutcome::MemoryHit);
        assert!(back[0].end_us.unwrap() >= back[0].start_us);
    }

    #[test]
    fn double_finish_is_a_no_op() {
        let log = TraceLog::new();
        let s = log.start("pack");
        log.finish(s, SpanOutcome::Computed, None);
        log.finish(s, SpanOutcome::Error, Some("late".into()));
        let spans = log.spans();
        assert_eq!(spans[0].outcome, SpanOutcome::Computed);
        assert!(spans[0].detail.is_none());
        assert_eq!(spans[0].events.len(), 3, "no duplicate finish events");
    }

    #[test]
    fn unfinished_span_stays_pending() {
        let log = TraceLog::new();
        log.start("route");
        let spans = log.spans();
        assert_eq!(spans[0].outcome, SpanOutcome::Pending);
        assert!(spans[0].end_us.is_none());
    }

    #[test]
    fn waterfall_renders_every_span_with_attribution() {
        let log = TraceLog::new();
        let a = log.start("synthesis");
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.finish(a, SpanOutcome::Computed, None);
        let b = log.start("lut_map");
        log.finish(b, SpanOutcome::DiskHit, None);
        let c = log.start("pack");
        log.finish(c, SpanOutcome::Fault, Some("injected".into()));

        let text = render_waterfall("demo", &log.spans());
        assert!(text.contains("synthesis"), "{text}");
        assert!(text.contains("computed"), "{text}");
        assert!(text.contains("disk-hit"), "{text}");
        assert!(text.contains("fault"), "{text}");
        assert!(text.contains("(injected)"), "{text}");
        assert!(text.contains('#'), "{text}");
    }
}
