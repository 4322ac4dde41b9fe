//! In-memory span recorder for the traced run: every call the benchmark
//! makes into a crate's public function is wrapped in a named span with a
//! start, an end, a parent and a request id. Spans are written out once,
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; the innermost open span is the parent of the next.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }
}

impl Recorder {
    /// Spans recorded from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of spans called `name` in request `id`, in ms.
    pub fn total_ms(&self, request: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.request == request && s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .sum()
    }

    /// Whether request `id` recorded any span called `name`.
    pub fn has(&self, request: u64, name: &str) -> bool {
        self.spans.iter().any(|s| s.request == request && s.name == name)
    }

    /// The spans as JSON, with a per-name summary of count, total and self
    /// time.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += self_ns;
        }
        let mut out = String::from("{\"summary\": {");
        for (i, (name, (count, total, own))) in summary.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                *total as f64 * 1e-6,
                *own as f64 * 1e-6
            );
        }
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),  // overlaps a: 10..50 covered
            span("c", 90, 120, Some(0)), // clipped to the parent: 90..100
            span("a.x", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 30, 5]);
    }

    #[test]
    fn recorder_nests_spans_and_tracks_requests() {
        let mut rec = Recorder::default();
        rec.set_request(3);
        let v = rec.span("outer", |r| r.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let s = rec.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].request), ("outer", None, 3));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(rec.has(3, "inner") && !rec.has(4, "inner"));
        assert!(rec.to_json().contains("\"outer\": {\"count\": 1"));
    }
}
