//! Flat key→value metrics sink with JSON and CSV export.
//!
//! Aggregates the event stream into the shape the `results/` pipeline
//! consumes: per-`(category, kind)` span totals and counts, last-value
//! counters, instant counts, plus caller-supplied summary metrics. Keys are
//! dotted paths (`span.<category>.<kind>.total_ns`), stable and sorted, so
//! diffs between runs are line diffs.
//!
//! An event's *kind* is its name up to the first space; the rest labels
//! one instance (`hop 3->4` is an instance of `hop`), which a trace shows
//! and the metrics fold into the kind: spans into one count and total,
//! instants into one count, and counter samples into the last one.
//!
//! A span's `count` argument is its multiplicity ([`SpanEvent::args`]):
//! `count` grows by it, so a summary of n events counts n times. Other
//! numeric arguments are summed, except [`ArgValue::Label`]s and an
//! argument named `total_ns`: `count` and `total_ns` are reserved keys.

use crate::event::{ArgValue, CounterEvent, InstantEvent, SpanEvent};
use crate::json;
use crate::sink::Sink;
use crate::ObsError;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

#[derive(Debug, Default, Clone, PartialEq)]
struct SpanAccum {
    /// Events recorded, each weighted by its multiplicity.
    count: u64,
    total_ns: f64,
    /// Sums of numeric span arguments (e.g. `energy_pj`, `bytes`).
    arg_sums: BTreeMap<String, f64>,
}

/// Argument names that would collide with a span's own keys.
const RESERVED: [&str; 2] = ["count", "total_ns"];

/// An event name's kind and instance label (empty when it has none).
fn kind_and_label(name: &str) -> (&str, &str) {
    name.split_once(' ').unwrap_or((name, ""))
}

/// Apply `f` to the value under `key`, inserting a default value first if
/// it is absent. A key that is already present is found by `&str` and
/// allocates nothing.
fn update<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_owned()).or_default()),
    }
}

/// Sink that folds the event stream into flat metrics.
#[derive(Debug, Default)]
pub struct MetricsSink {
    /// Span totals by category, then kind.
    spans: BTreeMap<String, BTreeMap<String, SpanAccum>>,
    /// Last value per `<kind>.<series>`.
    counters: BTreeMap<String, f64>,
    instants: BTreeMap<String, u64>,
    extra: BTreeMap<String, f64>,
    /// Reused buffer for a counter's `<kind>.<series>` key.
    key: String,
}

impl MetricsSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty sink behind the shared handle plumbing (see
    /// [`crate::ChromeTraceSink::shared`]).
    pub fn shared() -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Self::new()))
    }

    /// Record a summary metric under a verbatim key (e.g. final `SimStats`
    /// figures the caller computed outside the event stream).
    pub fn push_metric(&mut self, key: impl Into<String>, value: f64) {
        self.extra.insert(key.into(), value);
    }

    /// Fold another sink's aggregates into this one.
    ///
    /// Merging per-job sinks **in submission order** reproduces exactly
    /// what one shared sink would have recorded from a serial run over the
    /// same jobs: span counts/totals/argument sums add, counters keep the
    /// last merged value (serial last-write-wins), instant counts add, and
    /// summary metrics keep the last merged value.
    pub fn merge(&mut self, other: MetricsSink) {
        for (category, kinds) in other.spans {
            let into = self.spans.entry(category).or_default();
            for (kind, incoming) in kinds {
                let a = into.entry(kind).or_default();
                a.count += incoming.count;
                a.total_ns += incoming.total_ns;
                for (arg, sum) in incoming.arg_sums {
                    *a.arg_sums.entry(arg).or_default() += sum;
                }
            }
        }
        self.counters.extend(other.counters);
        for (name, count) in other.instants {
            *self.instants.entry(name).or_default() += count;
        }
        for (key, value) in other.extra {
            self.extra.insert(key, value);
        }
    }

    /// The flat, sorted `key → value` view of everything recorded.
    pub fn to_flat(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let spans = self.spans.iter().flat_map(|(c, kinds)| kinds.iter().map(move |k| (c, k)));
        for (category, (name, a)) in spans {
            let base = format!("span.{category}.{name}");
            out.insert(format!("{base}.count"), a.count as f64);
            out.insert(format!("{base}.total_ns"), a.total_ns);
            for (arg, sum) in &a.arg_sums {
                out.insert(format!("{base}.{arg}"), *sum);
            }
        }
        for (key, value) in &self.counters {
            out.insert(format!("counter.{key}"), *value);
        }
        for (name, count) in &self.instants {
            out.insert(format!("event.{name}.count"), *count as f64);
        }
        for (key, value) in &self.extra {
            out.insert(key.clone(), *value);
        }
        out
    }

    /// Serialize the flat metrics as a pretty JSON object.
    ///
    /// # Errors
    ///
    /// Reserved for fallible exporters; the built-in writer always
    /// returns `Ok`.
    pub fn to_json_string(&self) -> Result<String, ObsError> {
        let flat = self.to_flat();
        let mut out = b"{".to_vec();
        for (i, (key, value)) in flat.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"\n  ");
            json::write_str(&mut out, key);
            out.extend_from_slice(b": ");
            json::write_f64(&mut out, *value);
        }
        if !flat.is_empty() {
            out.push(b'\n');
        }
        out.push(b'}');
        json::into_string(out)
    }

    /// Render the flat metrics as `metric,value` CSV lines (with header).
    pub fn to_csv_string(&self) -> String {
        let mut out = String::from("metric,value\n");
        for (k, v) in self.to_flat() {
            out.push_str(&format!("{k},{v}\n"));
        }
        out
    }

    /// Serialize and write to `path`: CSV when the extension is `.csv`,
    /// JSON otherwise.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), ObsError> {
        let path = path.as_ref();
        let text = if path.extension().is_some_and(|e| e.eq_ignore_ascii_case("csv")) {
            self.to_csv_string()
        } else {
            self.to_json_string()?
        };
        std::fs::write(path, text).map_err(ObsError::from)
    }
}

impl Sink for MetricsSink {
    fn span(&mut self, event: &SpanEvent<'_>) {
        let kind = kind_and_label(&event.name).0;
        update(&mut self.spans, &event.category, |kinds| {
            update(kinds, kind, |a| {
                let mut multiplicity = 1;
                for &(key, ref value) in event.args {
                    match *value {
                        ArgValue::Num(n) if key == "count" => multiplicity = n as u64,
                        ArgValue::Num(v) if !RESERVED.contains(&key) => {
                            update(&mut a.arg_sums, key, |sum| *sum += v);
                        }
                        _ => {}
                    }
                }
                a.count += multiplicity;
                a.total_ns += event.dur_ns;
            })
        });
    }

    fn instant(&mut self, event: &InstantEvent<'_>) {
        update(&mut self.instants, kind_and_label(&event.name).0, |n| *n += 1);
    }

    fn counter(&mut self, event: &CounterEvent<'_>) {
        self.key.clear();
        self.key.extend([kind_and_label(&event.name).0, ".", &event.series]);
        update(&mut self.counters, &self.key, |last| *last = event.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Arg, TrackId};

    fn fc<'a>(start_ns: f64, dur_ns: f64, args: &'a [Arg<'a>]) -> SpanEvent<'a> {
        SpanEvent::new("fc", "arithmetic", TrackId(1), start_ns, dur_ns).with_args(args)
    }

    fn filled() -> MetricsSink {
        let mut m = MetricsSink::new();
        m.span(&fc(0.0, 10.0, &[("energy_pj", 3.0.into())]));
        m.span(&fc(10.0, 5.0, &[("energy_pj", 2.0.into())]));
        m.span(&SpanEvent::new("attn", "data-movement", TrackId(1), 15.0, 7.0));
        m.instant(&InstantEvent::new("ring-step", "ring", TrackId(2), 1.0));
        m.counter(&CounterEvent::sample("util", TrackId(3), 2.0, "busy", 0.5));
        m.counter(&CounterEvent::sample("util", TrackId(3), 4.0, "busy", 0.75));
        m.push_metric("sim.latency_ns", 22.0);
        m
    }

    #[test]
    fn aggregates_spans_by_category_and_name() {
        let flat = filled().to_flat();
        assert_eq!(flat["span.arithmetic.fc.count"], 2.0);
        assert_eq!(flat["span.arithmetic.fc.total_ns"], 15.0);
        assert_eq!(flat["span.arithmetic.fc.energy_pj"], 5.0);
        assert_eq!(flat["span.data-movement.attn.total_ns"], 7.0);
        assert_eq!(flat["event.ring-step.count"], 1.0);
        assert_eq!(flat["counter.util.busy"], 0.75); // last value wins
        assert_eq!(flat["sim.latency_ns"], 22.0);
    }

    #[test]
    fn count_is_a_multiplicity_and_labels_are_not_summed() {
        let mut m = MetricsSink::new();
        m.span(
            &SpanEvent::new("dec.attn", "arithmetic", TrackId(1), 0.0, 30.0)
                .with_args(&[("energy_pj", 6.0.into()), ("count", 23u64.into())]),
        );
        m.span(&SpanEvent::new("dec.attn", "arithmetic", TrackId(1), 30.0, 2.0));
        for (hop, slot) in [("hop 0->1", 0), ("hop 1->2", 1)] {
            m.span(
                &SpanEvent::new(hop, "ring", TrackId(64), 0.0, 4.0)
                    .with_args(&[("slot", ArgValue::Label(slot)), ("total_ns", 1e9.into())]),
            );
        }
        for (bank, busy) in [(0, 0.5), (1, 0.25)] {
            let name = format!("util.bank {bank}");
            m.counter(&CounterEvent::sample(name, TrackId(64), 0.0, "busy", busy));
        }
        let flat = m.to_flat();
        assert_eq!(flat["span.arithmetic.dec.attn.count"], 24.0);
        assert_eq!(flat["span.arithmetic.dec.attn.total_ns"], 32.0);
        assert_eq!(flat["span.arithmetic.dec.attn.energy_pj"], 6.0);
        // Per-instance names fold into their kind; labels and reserved
        // argument names never become keys of their own.
        assert_eq!(flat["span.ring.hop.count"], 2.0);
        assert_eq!(flat["span.ring.hop.total_ns"], 8.0);
        // A labelled counter keeps its kind's last sample.
        assert_eq!(flat["counter.util.bank.busy"], 0.25);
        assert_eq!(flat.len(), 6, "{flat:?}");
    }

    #[test]
    fn merging_split_streams_matches_one_shared_sink() {
        // Split the event stream of `filled()` across two per-job sinks;
        // merging them in submission order must reproduce the shared sink.
        let mut first = MetricsSink::new();
        first.span(&fc(0.0, 10.0, &[("energy_pj", 3.0.into())]));
        first.counter(&CounterEvent::sample("util", TrackId(3), 2.0, "busy", 0.5));
        let mut second = MetricsSink::new();
        second.span(&fc(10.0, 5.0, &[("energy_pj", 2.0.into())]));
        second.span(&SpanEvent::new("attn", "data-movement", TrackId(1), 15.0, 7.0));
        second.instant(&InstantEvent::new("ring-step", "ring", TrackId(2), 1.0));
        second.counter(&CounterEvent::sample("util", TrackId(3), 4.0, "busy", 0.75));
        second.push_metric("sim.latency_ns", 22.0);

        let mut merged = MetricsSink::new();
        merged.merge(first);
        merged.merge(second);
        assert_eq!(merged.to_flat(), filled().to_flat());
        // Counter order matters: the later job's value wins, as in serial.
        assert_eq!(merged.to_flat()["counter.util.busy"], 0.75);
    }

    #[test]
    fn json_export_parses_back() {
        let json = filled().to_json_string().unwrap();
        let v: BTreeMap<String, f64> = serde_json::from_str(&json).unwrap();
        assert_eq!(v, filled().to_flat());
    }

    #[test]
    fn csv_has_header_and_one_line_per_metric() {
        let m = filled();
        let csv = m.to_csv_string();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "metric,value");
        assert_eq!(lines.len(), 1 + m.to_flat().len());
        assert!(lines.iter().any(|l| l.starts_with("span.arithmetic.fc.total_ns,")));
    }
}
