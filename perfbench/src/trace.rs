//! In-memory span recorder for the traced run.
//!
//! The benchmark already takes an `Instant` before and after every call it
//! makes into a layer (the end-to-end metrics need those times), so a span
//! here is just those two instants plus a name: tracing adds no clock
//! reads, only bookkeeping. Spans nest through an explicit stack of open
//! spans; a closed span's duration is charged to its parent's child time,
//! which gives each span name a *self* time (duration minus the time its
//! children cover). Raw spans are kept up to a cap and written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Raw spans kept per tracer; aggregates keep counting past the cap.
const RAW_SPAN_CAP: usize = 50_000;

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed durations minus the time covered by child spans.
    pub self_time: Duration,
}

struct Open {
    name: &'static str,
    start: Instant,
    children: Duration,
    raw: Option<usize>,
}

struct RawSpan {
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    start_ns: u128,
    end_ns: u128,
}

/// One thread's span recorder. A disabled tracer ignores every call, so the
/// untraced run passes one around at no cost beyond a branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
    raw: Vec<RawSpan>,
}

impl Tracer {
    /// A tracer timing against `epoch`; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer { on, epoch, op: 0, stack: Vec::new(), totals: BTreeMap::new(), raw: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with operation id `op` (a segment or a
    /// session), so the spans of one operation share an identifier.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant) {
        if !self.on {
            return;
        }
        let raw = self.push_raw(name, start, start);
        self.stack.push(Open { name, start, children: Duration::ZERO, raw });
    }

    /// Closes the innermost open span at `end`.
    pub fn close(&mut self, end: Instant) {
        if !self.on {
            return;
        }
        let open = self.stack.pop().expect("close without a matching open");
        if let Some(i) = open.raw {
            self.raw[i].end_ns = end.duration_since(self.epoch).as_nanos();
        }
        self.finish(open.name, end.saturating_duration_since(open.start), open.children);
    }

    /// Records a leaf span (no children) under the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.push_raw(name, start, end);
        self.finish(name, end.saturating_duration_since(start), Duration::ZERO);
    }

    /// Adds `count` spans of `total` summed duration, measured elsewhere
    /// (another thread's call timer), as leaves of the innermost open span.
    pub fn leaf_totals(&mut self, name: &'static str, count: u64, total: Duration) {
        if !self.on || count == 0 {
            return;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children += total;
        }
        let entry = self.totals.entry(name).or_default();
        entry.count += count;
        entry.total += total;
        entry.self_time += total;
    }

    fn finish(&mut self, name: &'static str, elapsed: Duration, children: Duration) {
        if let Some(parent) = self.stack.last_mut() {
            parent.children += elapsed;
        }
        let entry = self.totals.entry(name).or_default();
        entry.count += 1;
        entry.total += elapsed;
        entry.self_time += elapsed.saturating_sub(children);
    }

    fn push_raw(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<usize> {
        if self.raw.len() >= RAW_SPAN_CAP {
            return None;
        }
        let parent = self.stack.last().and_then(|open| open.raw);
        self.raw.push(RawSpan {
            name,
            parent,
            op: self.op,
            start_ns: start.duration_since(self.epoch).as_nanos(),
            end_ns: end.duration_since(self.epoch).as_nanos(),
        });
        Some(self.raw.len() - 1)
    }

    /// Folds another thread's totals and raw spans into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let entry = self.totals.entry(name).or_default();
            entry.count += t.count;
            entry.total += t.total;
            entry.self_time += t.self_time;
        }
        // Re-base the other tracer's parent indices past ours.
        let base = self.raw.len();
        for span in other.raw.iter().take(RAW_SPAN_CAP.saturating_sub(base)) {
            self.raw.push(RawSpan {
                name: span.name,
                parent: span.parent.map(|p| p + base),
                op: span.op,
                start_ns: span.start_ns,
                end_ns: span.end_ns,
            });
        }
    }

    /// Per-name totals recorded so far.
    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotals> {
        &self.totals
    }

    /// The raw spans as JSON lines (`id`, `parent`, `op`, name, times in ns
    /// since the run's epoch).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.raw.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.op, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}
