//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, calls}`; names are
//! `crate.module.what`. Spans live in a `Vec` until the repetition ends
//! and are then written to `out/trace-<workload>.json` (one traced
//! repetition per file). A layer's *self time* is its spans' duration
//! minus the part their direct children cover.
//!
//! Calls made a million times per window (the soak's `transmit` and
//! `poll_*`) are folded: one span per soak tick carries the summed busy
//! time of that tick's calls as its length and their number in `calls`,
//! so a trace stays a few thousand spans, not a few million.
//!
//! A tracer that is off records nothing and costs one branch per call;
//! end-to-end metrics are only ever taken with it off.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `crate.module.what`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, likewise (for a folded span: start + summed busy time).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls the span stands for (1 unless folded).
    pub calls: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`], given back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Tracer {
        Tracer { epoch: Instant::now(), on, open: Vec::new(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, calls: 1 });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::enter`] (innermost first).
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Records `calls` calls that together kept `name` busy for `busy`,
    /// the first starting at `first`, as one child of the innermost open
    /// span.
    pub fn folded(&mut self, name: &'static str, first: Instant, busy: Duration, calls: u64) {
        if !self.on || calls == 0 {
            return;
        }
        let start_ns = self.ns(first);
        let end_ns = start_ns + busy.as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns, parent, calls });
    }

    /// Self time in seconds and call count of every span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += s.duration_ns().saturating_sub(*covered) as f64 / 1e9;
            e.1 += s.calls;
        }
        out
    }

    /// The trace as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.calls
            );
            s.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, calls: u64) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, calls }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new(true);
        // rep(0..100) > window(10..90) > { run(20..50), run(50..60), folded tx 5 calls of 10 }
        t.spans = vec![
            span("rep", 0, 100, None, 1),
            span("window", 10, 90, Some(0), 1),
            span("run", 20, 50, Some(1), 1),
            span("run", 50, 60, Some(1), 1),
            span("tx", 60, 70, Some(1), 5),
        ];
        let st = t.self_times();
        let ns = |name: &str| (st[name].0 * 1e9).round() as u64;
        assert_eq!(ns("rep"), 20); // 100 - window's 80
        assert_eq!(ns("window"), 30); // 80 - (30 + 10 + 10)
        assert_eq!(ns("run"), 40);
        assert_eq!(st["run"].1, 2);
        assert_eq!(ns("tx"), 10);
        assert_eq!(st["tx"].1, 5);
        // Grandchildren are not subtracted twice, and self times add up
        // to the root.
        assert_eq!(ns("rep") + ns("window") + ns("run") + ns("tx"), 100);
    }

    #[test]
    fn enter_exit_nest_and_an_off_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.enter("a");
        t.time("b", || ());
        t.folded("c", Instant::now(), Duration::from_nanos(7), 3);
        t.folded("never", Instant::now(), Duration::from_nanos(7), 0);
        t.exit(a);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[2].duration_ns(), 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.to_json().contains("\"name\":\"c\""));

        let mut off = Tracer::new(false);
        let a = off.enter("a");
        off.time("b", || ());
        off.folded("c", Instant::now(), Duration::from_nanos(7), 3);
        off.exit(a);
        assert!(off.spans.is_empty());
        assert_eq!(off.to_json(), "[\n]");
    }
}
