//! The benchmark's own span recorder. Spans are taken around calls into
//! the system's public API from the benchmark's side, kept in memory,
//! and written out once at exit. Nothing here touches the system's
//! observability registry, so its metric names and trace views stay as
//! they are.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id (stream index, site index or pass number).
    pub request: Option<u64>,
}

/// An open span handle; [`Tracer::close`] ends it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// In-memory span recorder. When off, spans still measure their
/// duration (the benchmark needs it for its metrics) but record nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, request: Option<u64>) -> Open {
        let started = Instant::now();
        let index = self.on.then(|| {
            self.spans.push(Span {
                name,
                start: self.nanos(started),
                end: 0,
                parent: self.stack.last().copied(),
                request,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        Open { index, started }
    }

    /// Closes `open` (spans close innermost first) and returns its
    /// duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let ended = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end = self.nanos(ended);
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        }
        ended.duration_since(open.started)
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.open(name, request);
        let out = f();
        (out, self.close(open))
    }

    /// The span file: every span, then per-name totals of duration and
    /// self time, as one JSON document.
    pub fn to_json(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {}, \"request\": {}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start,
                s.end,
                self_ns[i],
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        out.push_str("\n], \"by_name\": [\n");
        for (i, (name, count, total, own)) in
            totals_by_name(&self.spans, &self_ns).iter().enumerate()
        {
            let _ = write!(
                out,
                "{}{{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                if i == 0 { "" } else { ",\n" }
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval that its children cover. Children may nest or overlap one
/// another; covered time is the union of their intervals clipped to the
/// parent, so no instant is subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// `(name, count, total ns, self ns)` per span name, in name order.
fn totals_by_name(spans: &[Span], self_ns: &[u64]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut by: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for (s, own) in spans.iter().zip(self_ns) {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
    }
    by.into_iter().map(|(n, (c, t, o))| (n, c, t, o)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span(0, 100, None),
            // Two overlapping children covering [10, 50) together …
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),
            // … one disjoint child [60, 70) …
            span(60, 70, Some(0)),
            // … and a grandchild, which counts against its own parent only.
            span(62, 65, Some(3)),
            // A child spilling past its parent is clipped to it.
            span(95, 120, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 10 - 5);
        assert_eq!(own[1], 30);
        assert_eq!(own[3], 10 - 3);
        assert_eq!(own[4], 3);
    }

    #[test]
    fn recorder_nests_and_writes_a_span_file() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", Some(7));
        let ((), _) = t.time("inner", Some(7), || ());
        t.close(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        let json = t.to_json();
        assert!(json.contains("\"name\": \"inner\""), "{json}");
        assert!(json.contains("\"request\": 7"), "{json}");

        let mut off = Tracer::new(false);
        let (v, _) = off.time("inner", None, || 5);
        assert_eq!(v, 5);
        assert!(off.spans.is_empty());
    }
}
