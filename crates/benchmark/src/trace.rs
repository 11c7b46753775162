//! The benchmark's own in-memory span recorder.
//!
//! The traced run wraps every call it makes into a layer's public API in a
//! span (name, start, end, the span that caused it, the op it belongs to,
//! the program it ran on).  Spans stay in memory and are written out as a
//! Chrome-trace file when the run ends.  Nothing in here is called from
//! inside the layers: in-program spans are a later issue.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, times in microseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call this interval covers (`ssir.parse`, `engine.bytecode-O1.serial`, …).
    pub name: String,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The op (one timed call of the workload) the span belongs to.
    pub op: u64,
    /// Which program of the workload's set the op ran on.
    pub program: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// Span recorder: `open`/`close` pairs around layer calls.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    program: usize,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            program: 0,
        }
    }

    /// Starts the next op on `program`; spans opened from now on carry it.
    pub fn begin_op(&mut self, program: usize) {
        self.op += 1;
        self.program = program;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            op: self.op,
            program: self.program,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it).
    pub fn close(&mut self, id: usize) {
        let now = self.now_us();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans named `name`, grouped by program.
    pub fn by_program(&self, name: &str) -> BTreeMap<usize, Vec<f64>> {
        let mut out: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.entry(s.program).or_default().push(s.ms());
        }
        out
    }

    /// Per-program floors (ms) of the spans named `name`, with the total
    /// sample count.
    pub fn program_floors(&self, name: &str) -> (Vec<f64>, usize) {
        let groups = self.by_program(name);
        let n = groups.values().map(Vec::len).sum();
        let medians = groups
            .values()
            .filter_map(|v| stats::floor(v))
            .collect::<Vec<_>>();
        (medians, n)
    }

    /// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document.
    pub fn chrome_trace(&self) -> String {
        use ss_interp::json;
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            json::object([
                ("name", json::string(&s.name)),
                ("ph", json::string("X")),
                ("ts", json::number(s.start_us)),
                ("dur", json::number(s.end_us - s.start_us)),
                ("pid", "1".to_string()),
                ("tid", "1".to_string()),
                (
                    "args",
                    json::object([
                        ("id", id.to_string()),
                        (
                            "parent",
                            s.parent
                                .map(|p| p.to_string())
                                .unwrap_or_else(|| "null".to_string()),
                        ),
                        ("op", s.op.to_string()),
                        ("program", s.program.to_string()),
                    ]),
                ),
            ])
        });
        json::object([("traceEvents", json::array(events))])
    }
}

/// A span's self time in µs: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice).
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = me.start_us;
    for (a, b) in kids {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
            reach = b;
        }
    }
    (me.end_us - me.start_us) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_us: start,
            end_us: end,
            parent,
            op: 1,
            program: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_interval_children_cover() {
        let spans = vec![
            span("op", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("b", 30.0, 60.0, Some(0)),       // overlaps a by 10
            span("c", 90.0, 120.0, Some(0)),      // clipped to the parent
            span("a.inner", 15.0, 20.0, Some(1)), // grandchild: not subtracted from op
        ];
        assert_eq!(self_time_us(&spans, 0), 100.0 - 50.0 - 10.0);
        assert_eq!(self_time_us(&spans, 1), 25.0);
        assert_eq!(self_time_us(&spans, 4), 5.0);
    }

    #[test]
    fn recorder_nests_spans_and_tags_ops() {
        let mut t = Tracer::new();
        t.begin_op(3);
        let outer = t.open("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.close(outer);
        t.begin_op(4);
        t.span("outer", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!((spans[0].op, spans[0].program), (1, 3));
        assert_eq!((spans[2].op, spans[2].program), (2, 4));
        assert!(spans[0].end_us >= spans[1].end_us);
        assert_eq!(t.by_program("outer").len(), 2);
        assert!(self_time_us(spans, 0) >= 0.0);
        let doc = ss_daemon::jsonin::parse(&t.chrome_trace()).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|e| e.as_arr())
                .unwrap()
                .len(),
            3
        );
    }
}
