//! In-memory span recorder for the traced run.
//!
//! A span is one call into a program function: its name, start and end
//! (nanoseconds since the recorder was created), the span it ran inside,
//! and the sample or request id it worked on. Spans stay in memory while
//! the workload runs and are written as JSON lines once it has ended, so
//! the trace costs the timed code two clock reads and a push per call.
//! With tracing off, [`Tracer::span`] only runs the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and function, e.g. `pipeline.conv`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the recorder's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Sample or request id the call worked on (`u64::MAX` for none).
    pub id: u64,
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, (u64, u64)>,
}

/// Id for spans that do not work on one sample or request.
pub const NO_ID: u64 = u64::MAX;

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` working on `id`. Spans opened
    /// inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(index);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
        let out = f(self);
        self.spans[index].end = self.now();
        self.open.pop();
        out
    }

    /// Records an already measured interval (for calls timed on another
    /// thread, such as a served request) as a root span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.open.last().copied(),
            id,
        });
    }

    /// Adds one observation of a work count (dirty channels, changed
    /// samples, words) measured at a layer boundary.
    pub fn record_count(&mut self, name: &'static str, value: u64) {
        if self.enabled {
            let e = self.counts.entry(name).or_default();
            e.0 += 1;
            e.1 += value;
        }
    }

    /// Per count name: (observations, summed value).
    pub fn counts(&self, name: &str) -> (u64, u64) {
        self.counts.get(name).copied().unwrap_or_default()
    }

    /// Per name: (number of spans, summed self time in ns). Self time is a
    /// span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).saturating_sub(child);
        }
        out
    }

    /// The durations in ns of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let id = if s.id == NO_ID {
                "null".to_string()
            } else {
                s.id.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{id}}}",
                s.name, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.span("outer", NO_ID, |t| {
            t.span("inner", 0, |t| t.span("leaf", 0, |_| ()));
            t.span("inner", 1, |_| ());
        });
        let times = t.self_times();
        assert_eq!(times["outer"].0, 1);
        assert_eq!(times["inner"].0, 2);
        assert_eq!(times["leaf"].0, 1);
        let total: u64 = t.durations("outer").iter().sum();
        let summed: u64 = times.values().map(|&(_, ns)| ns).sum();
        assert_eq!(summed, total, "self times partition the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 3, |_| 7), 7);
        assert!(t.self_times().is_empty());
    }
}
