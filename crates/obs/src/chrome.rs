//! Chrome-tracing / Perfetto JSON sink.
//!
//! Produces the JSON-array flavor of the [trace-event format] that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: complete spans (`ph: "X"`), instants (`ph: "i"`), counters
//! (`ph: "C"`), and thread-name metadata (`ph: "M"`). Timestamps are
//! exported in microseconds, in non-decreasing order.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{ArgValue, CounterEvent, InstantEvent, SpanEvent, TrackId};
use crate::json;
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One serialized trace-event-format record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// Comma-separated category list.
    pub cat: String,
    /// Phase: `X` (complete), `i` (instant), `C` (counter), `M` (metadata).
    pub ph: String,
    /// Timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds (complete spans only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub dur: Option<f64>,
    /// Process id (the simulator is one process).
    pub pid: u32,
    /// Thread id — the [`TrackId`] of the emitting timeline.
    pub tid: u64,
    /// Event arguments.
    #[serde(skip_serializing_if = "BTreeMap::is_empty", default)]
    pub args: BTreeMap<String, ArgValue>,
}

impl ChromeEvent {
    /// Append this record as one trace-event JSON object (the shape the
    /// serde derive produces: optional fields omitted when empty).
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("{\"name\":");
        json::write_str(out, &self.name);
        out.push_str(",\"cat\":");
        json::write_str(out, &self.cat);
        out.push_str(",\"ph\":");
        json::write_str(out, &self.ph);
        out.push_str(",\"ts\":");
        json::write_f64(out, self.ts);
        if let Some(dur) = self.dur {
            out.push_str(",\"dur\":");
            json::write_f64(out, dur);
        }
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", self.pid, self.tid);
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, key);
                out.push(':');
                match value {
                    ArgValue::Num(n) => json::write_f64(out, *n),
                    ArgValue::Label(id) => json::write_f64(out, *id as f64),
                    ArgValue::Str(s) => json::write_str(out, s),
                }
            }
            out.push('}');
        }
        out.push('}');
    }
}

const PID: u32 = 1;
const NS_PER_US: f64 = 1000.0;

/// Event arguments as trace-event args: a label is just a number there.
fn args_map(args: Vec<(String, ArgValue)>) -> BTreeMap<String, ArgValue> {
    args.into_iter()
        .map(|(key, value)| match value {
            ArgValue::Label(id) => (key, ArgValue::Num(id as f64)),
            value => (key, value),
        })
        .collect()
}

/// Sink that accumulates trace-event records and serializes them as one
/// JSON array. Costs memory proportional to the event count; attach it only
/// when a trace was requested.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Vec<ChromeEvent>,
}

impl ChromeTraceSink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty sink behind the shared handle plumbing: keep the returned
    /// `Rc` to read the trace back after the run, and pass
    /// `SinkHandle::from_shared(rc.clone())` to the simulation.
    pub fn shared() -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Self::new()))
    }

    /// Append another sink's events after this one's.
    ///
    /// Absorbing per-job sinks **in submission order** reproduces the
    /// event sequence one shared sink would have recorded from a serial
    /// run: [`sorted_events`](Self::sorted_events) sorts stably, so
    /// records with equal `(ts, tid)` keep their append order.
    pub fn absorb(&mut self, other: ChromeTraceSink) {
        self.events.extend(other.events);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, sorted by timestamp (then track), with
    /// metadata records first.
    pub fn sorted_events(&self) -> Vec<ChromeEvent> {
        let mut out = self.events.clone();
        out.sort_by(|a, b| {
            let meta = |e: &ChromeEvent| u8::from(e.ph != "M");
            meta(a)
                .cmp(&meta(b))
                .then(a.ts.partial_cmp(&b.ts).unwrap_or(std::cmp::Ordering::Equal))
                .then(a.tid.cmp(&b.tid))
        });
        out
    }

    /// Serialize the trace as a JSON array document. The built-in writer
    /// streams the events into one string and cannot fail; the `Result`
    /// keeps serialization failures in the signature for callers that
    /// swap in a fallible exporter.
    ///
    /// # Errors
    ///
    /// Reserved for fallible exporters; the built-in writer always
    /// returns `Ok`.
    pub fn to_json_string(&self) -> Result<String, crate::ObsError> {
        let events = self.sorted_events();
        let mut out = String::with_capacity(events.len() * 96 + 2);
        out.push('[');
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            event.write_json(&mut out);
        }
        out.push(']');
        Ok(out)
    }

    /// Serialize and write the trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), crate::ObsError> {
        std::fs::write(path, self.to_json_string()?).map_err(crate::ObsError::from)
    }
}

impl Sink for ChromeTraceSink {
    fn span(&mut self, event: SpanEvent) {
        self.events.push(ChromeEvent {
            name: event.name,
            cat: event.category,
            ph: "X".into(),
            ts: event.start_ns / NS_PER_US,
            dur: Some(event.dur_ns / NS_PER_US),
            pid: PID,
            tid: event.track.0,
            args: args_map(event.args),
        });
    }

    fn instant(&mut self, event: InstantEvent) {
        self.events.push(ChromeEvent {
            name: event.name,
            cat: event.category,
            ph: "i".into(),
            ts: event.ts_ns / NS_PER_US,
            dur: None,
            pid: PID,
            tid: event.track.0,
            args: args_map(event.args),
        });
    }

    fn counter(&mut self, event: CounterEvent) {
        self.events.push(ChromeEvent {
            name: event.name,
            cat: "counter".into(),
            ph: "C".into(),
            ts: event.ts_ns / NS_PER_US,
            dur: None,
            pid: PID,
            tid: event.track.0,
            args: event.values.into_iter().map(|(k, v)| (k, ArgValue::Num(v))).collect(),
        });
    }

    fn track_name(&mut self, track: TrackId, name: &str) {
        self.events.push(ChromeEvent {
            name: "thread_name".into(),
            cat: "__metadata".into(),
            ph: "M".into(),
            ts: 0.0,
            dur: None,
            pid: PID,
            tid: track.0,
            args: std::iter::once(("name".to_owned(), ArgValue::Str(name.to_owned()))).collect(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> ChromeTraceSink {
        let mut s = ChromeTraceSink::new();
        s.track_name(TrackId(2), "arithmetic");
        s.span(
            SpanEvent::new("fc", "arithmetic", TrackId(2), 2000.0, 1000.0)
                .with_arg("energy_pj", 7.0),
        );
        s.span(SpanEvent::new("attn", "data-movement", TrackId(1), 0.0, 2000.0));
        s.counter(CounterEvent::sample("util", TrackId(3), 500.0, "busy", 0.25));
        s.instant(InstantEvent::new("mark", "ring", TrackId(4), 1500.0));
        s
    }

    #[test]
    fn exports_parseable_sorted_json() {
        let s = filled();
        let json = s.to_json_string().unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v.as_array().unwrap();
        assert_eq!(events.len(), 5);
        // Metadata first, then non-decreasing timestamps.
        assert_eq!(events[0]["ph"], "M");
        let ts: Vec<f64> = events[1..].iter().map(|e| e["ts"].as_f64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps must be sorted: {ts:?}");
    }

    #[test]
    fn span_units_are_microseconds() {
        let s = filled();
        let events = s.sorted_events();
        let fc = events.iter().find(|e| e.name == "fc").unwrap();
        assert_eq!(fc.ts, 2.0);
        assert_eq!(fc.dur, Some(1.0));
        assert_eq!(fc.args["energy_pj"], ArgValue::Num(7.0));
    }

    #[test]
    fn roundtrips_through_serde() {
        let s = filled();
        let json = s.to_json_string().unwrap();
        let back: Vec<ChromeEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s.sorted_events());
    }

    #[test]
    fn absorbing_split_streams_matches_one_shared_sink() {
        let mut first = ChromeTraceSink::new();
        first.track_name(TrackId(2), "arithmetic");
        first.span(
            SpanEvent::new("fc", "arithmetic", TrackId(2), 2000.0, 1000.0)
                .with_arg("energy_pj", 7.0),
        );
        let mut second = ChromeTraceSink::new();
        second.span(SpanEvent::new("attn", "data-movement", TrackId(1), 0.0, 2000.0));
        second.counter(CounterEvent::sample("util", TrackId(3), 500.0, "busy", 0.25));
        second.instant(InstantEvent::new("mark", "ring", TrackId(4), 1500.0));

        let mut merged = ChromeTraceSink::new();
        merged.absorb(first);
        merged.absorb(second);
        assert_eq!(merged.to_json_string().unwrap(), filled().to_json_string().unwrap());
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        assert_eq!(ChromeTraceSink::new().to_json_string().unwrap(), "[]");
    }
}
