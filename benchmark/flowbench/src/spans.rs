//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files only, around calls into
//! each layer's public functions; nothing here reaches inside the crates
//! under test. They stay in memory for the whole run and are written out
//! once, at exit, by [`write_trace`].

use std::path::Path;
use std::time::Instant;

use serde_json::Value;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request (or one design's pass) share an identifier.
    pub request_id: u64,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    pub fn ms(&self) -> f64 {
        self.dur_us() as f64 / 1e3
    }
}

/// Single-threaded recorder with a parent stack. Threads that trace
/// concurrently each own one (sharing the epoch) and [`Recorder::absorb`]
/// merges them afterwards.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request_id: u64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request_id: 0,
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Identifier stamped on spans opened from now on.
    pub fn set_request(&mut self, id: u64) {
        self.request_id = id;
    }

    /// Time `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            request_id: self.request_id,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Attach an already-measured interval (a daemon-reported stage span,
    /// placed at `offset_us` after the innermost open span's start) as a
    /// child of that span.
    pub fn child_at_offset(&mut self, name: &str, offset_us: u64, dur_us: u64) {
        let parent = self.stack.last().copied();
        let base = parent.map_or(0, |p| self.spans[p].start_us);
        self.spans.push(Span {
            name: name.to_string(),
            start_us: base + offset_us,
            end_us: base + offset_us + dur_us,
            parent,
            request_id: self.request_id,
        });
    }

    /// Merge another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of the durations of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are not double-counted).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut edge = s.start_us;
            for &(lo, hi) in kids.iter() {
                if hi > edge {
                    covered += hi - lo.max(edge);
                    edge = hi;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Self time per span name, in milliseconds, sorted by name.
pub fn self_ms_by_name(spans: &[Span]) -> Vec<(String, f64)> {
    let mut by_name = std::collections::BTreeMap::<&str, u64>::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        *by_name.entry(&s.name).or_default() += own;
    }
    by_name
        .into_iter()
        .map(|(n, us)| (n.to_string(), us as f64 / 1e3))
        .collect()
}

/// Write `trace_<workload>.json`: every span plus the per-name self-time
/// table derived from them.
pub fn write_trace(dir: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "start_us": s.start_us,
                "end_us": s.end_us,
                "parent": s.parent.map(|p| p as u64),
                "request_id": s.request_id
            })
        })
        .collect();
    let self_ms: Vec<Value> = self_ms_by_name(spans)
        .into_iter()
        .map(|(name, ms)| serde_json::json!({"name": name, "self_ms": ms}))
        .collect();
    let doc = serde_json::json!({
        "workload": workload,
        "self_ms_by_name": Value::Array(self_ms),
        "spans": Value::Array(rows)
    });
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace_{workload}.json")),
        serde_json::to_string(&doc).map_err(std::io::Error::other)? + "\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("request", 0, 100, None),
            span("stage", 10, 40, Some(0)),
            span("stage", 30, 60, Some(0)), // overlaps the first child
            span("inner", 12, 20, Some(1)),
            span("late", 90, 130, Some(0)), // clipped to the parent
        ];
        assert_eq!(self_times_us(&spans), vec![40, 22, 30, 8, 40]);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name[3], ("stage".to_string(), 0.052));
    }

    #[test]
    fn recorder_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.set_request(7);
        a.span("outer", |r| {
            r.span("inner", |_| ());
            r.child_at_offset("reported", 5, 10);
        });
        let mut b = Recorder::new(epoch);
        b.span("other", |r| r.span("leaf", |_| ()));
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].start_us, s[0].start_us + 5);
        assert_eq!(s[2].dur_us(), 10);
        assert_eq!(s[4].parent, Some(3));
        assert_eq!(s[0].request_id, 7);
    }
}
