//! Chrome-tracing / Perfetto JSON sink.
//!
//! Produces the JSON-array flavor of the [trace-event format] that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: complete spans (`ph: "X"`), instants (`ph: "i"`), counters
//! (`ph: "C"`), and thread-name metadata (`ph: "M"`). Timestamps are
//! exported in microseconds, in non-decreasing order.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{Arg, ArgValue, CounterEvent, InstantEvent, SpanEvent, TrackId};
use crate::json::{self, JsonBuf};
use crate::sink::Sink;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One trace-event-format record, as a trace viewer reads it back.
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
    /// Decode one rendered record. `null`, which a non-finite number
    /// renders as, decodes to NaN.
    fn decode(record: &Value) -> Self {
        let num = |v: &Value| v.as_f64().unwrap_or(f64::NAN);
        let text = |key: &str| record[key].as_str().unwrap_or_default().to_owned();
        let args = record.get("args").and_then(Value::as_object).map(|args| {
            args.iter()
                .map(|(key, v)| {
                    let value = match v.as_str() {
                        Some(s) => ArgValue::Str(s.to_owned()),
                        None => ArgValue::Num(num(v)),
                    };
                    (key.clone(), value)
                })
                .collect()
        });
        Self {
            name: text("name"),
            cat: text("cat"),
            ph: text("ph"),
            ts: num(&record["ts"]),
            dur: record.get("dur").map(num),
            pid: record["pid"].as_u64().unwrap_or_default() as u32,
            tid: record["tid"].as_u64().unwrap_or_default(),
            args: args.unwrap_or_default(),
        }
    }
}

const NS_PER_US: f64 = 1000.0;

/// What follows a record's timestamp up to its track id: the simulator
/// is process 1.
const PID_TID: &[u8] = b",\"pid\":1,\"tid\":";

/// Where one rendered record sits in the buffer, and its sort key.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Metadata records (0) lead the trace; every other record is 1.
    rank: u8,
    /// Timestamp in microseconds, with `-0` folded into `+0` and every
    /// NaN made positive, so that `total_cmp` agrees with numeric order on
    /// every other value and puts NaN last.
    ts: f64,
    tid: u64,
    start: usize,
    end: usize,
}

impl Entry {
    /// Metadata first, then timestamp (NaN last), then track.
    fn order(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank).then(self.ts.total_cmp(&other.ts)).then(self.tid.cmp(&other.tid))
    }
}

/// Append `,"args":{…}` for `args` as a key-sorted map writes them: keys
/// in order, the last value of a repeated key winning. Writes nothing for
/// no arguments. Selecting the next key by a scan costs O(n²) in the
/// argument count, which is a handful, and allocates nothing.
fn write_args(out: &mut JsonBuf, args: &[Arg<'_>]) {
    if args.is_empty() {
        return;
    }
    out.push(b",\"args\":{");
    let mut prev: Option<&str> = None;
    loop {
        let mut next: Option<&Arg<'_>> = None;
        for arg in args {
            let k = arg.0;
            if prev.is_none_or(|p| k > p) && next.is_none_or(|n| k <= n.0) {
                next = Some(arg);
            }
        }
        let Some((key, value)) = next else { break };
        if prev.is_some() {
            out.push(b",");
        }
        out.write_str(key);
        out.push(b":");
        match value {
            // A label is just a number in a trace.
            ArgValue::Num(n) => out.write_f64(*n),
            ArgValue::Label(id) => out.write_f64(*id as f64),
            ArgValue::Str(s) => out.write_str(s),
        }
        prev = Some(key);
    }
    out.push(b"}");
}

/// Sink that renders each trace-event record as it arrives and writes
/// them out as one JSON array, sorted by time.
///
/// Every record is rendered once, into one buffer; an index beside it
/// holds each record's sort key and byte range. Export stable-sorts the
/// index and concatenates the ranges, so it neither re-renders nor
/// clones a record. Costs memory proportional to the rendered trace;
/// attach it only when a trace was requested.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    buf: JsonBuf,
    index: Vec<Entry>,
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

    /// Append another sink's records after this one's.
    ///
    /// Absorbing per-job sinks **in submission order** reproduces the
    /// record sequence one shared sink would have recorded from a serial
    /// run: export sorts stably, so records with equal `(ts, tid)` keep
    /// their append order.
    pub fn absorb(&mut self, other: ChromeTraceSink) {
        let shift = self.buf.bytes.len();
        self.buf.push(&other.buf.bytes);
        self.index.extend(other.index.iter().map(|e| Entry {
            start: e.start + shift,
            end: e.end + shift,
            ..*e
        }));
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The index in export order: metadata first, then by timestamp and
    /// track, ties in record order.
    fn sorted_index(&self) -> Vec<Entry> {
        let mut index = self.index.clone();
        index.sort_by(Entry::order);
        index
    }

    /// The recorded events in export order, decoded back from their
    /// rendered records: a view for tests and tools that inspect a trace.
    pub fn sorted_events(&self) -> Vec<ChromeEvent> {
        let records: Vec<Value> = self
            .sorted_index()
            .iter()
            .map(|e| {
                let record = std::str::from_utf8(&self.buf.bytes[e.start..e.end]).ok()?;
                serde_json::from_str(record).ok()
            })
            .collect::<Option<_>>()
            .expect("the sink renders every record as a UTF-8 JSON object");
        records.iter().map(ChromeEvent::decode).collect()
    }

    /// Serialize the trace as a JSON array document. The built-in writer
    /// concatenates already rendered records and cannot fail; the
    /// `Result` keeps serialization failures in the signature for callers
    /// that swap in a fallible exporter.
    ///
    /// # Errors
    ///
    /// Reserved for fallible exporters; the built-in writer always
    /// returns `Ok`.
    pub fn to_json_string(&self) -> Result<String, crate::ObsError> {
        let index = self.sorted_index();
        let bytes = &self.buf.bytes;
        let mut out = Vec::with_capacity(bytes.len() + index.len() + 2);
        out.push(b'[');
        for (i, e) in index.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(&bytes[e.start..e.end]);
        }
        out.push(b']');
        json::into_string(out)
    }

    /// Serialize and write the trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), crate::ObsError> {
        std::fs::write(path, self.to_json_string()?).map_err(crate::ObsError::from)
    }

    /// Index the record `render` appends to the buffer.
    fn record(&mut self, rank: u8, ts: f64, tid: u64, render: impl FnOnce(&mut JsonBuf)) {
        let start = self.buf.bytes.len();
        render(&mut self.buf);
        let ts = if ts.is_nan() { f64::NAN } else { ts + 0.0 };
        self.index.push(Entry { rank, ts, tid, start, end: self.buf.bytes.len() });
    }
}

/// `{"name":<name>,"cat":<cat>`: how a span or instant record opens.
fn open(out: &mut JsonBuf, name: &str, cat: &str) {
    out.push(b"{\"name\":");
    out.write_str(name);
    out.push(b",\"cat\":");
    out.write_str(cat);
}

/// `,"pid":1,"tid":<tid>`, the arguments and the closing brace: how a
/// span or instant record ends.
fn close(out: &mut JsonBuf, tid: u64, args: &[Arg<'_>]) {
    out.push(PID_TID);
    out.write_u64(tid);
    write_args(out, args);
    out.push(b"}");
}

impl Sink for ChromeTraceSink {
    fn span(&mut self, event: &SpanEvent<'_>) {
        let (ts, dur) = (event.start_ns / NS_PER_US, event.dur_ns / NS_PER_US);
        self.record(1, ts, event.track.0, |out| {
            open(out, &event.name, &event.category);
            out.push(b",\"ph\":\"X\",\"ts\":");
            out.write_f64(ts);
            out.push(b",\"dur\":");
            out.write_f64(dur);
            close(out, event.track.0, event.args);
        });
    }

    fn instant(&mut self, event: &InstantEvent<'_>) {
        let ts = event.ts_ns / NS_PER_US;
        self.record(1, ts, event.track.0, |out| {
            open(out, &event.name, &event.category);
            out.push(b",\"ph\":\"i\",\"ts\":");
            out.write_f64(ts);
            close(out, event.track.0, event.args);
        });
    }

    fn counter(&mut self, event: &CounterEvent<'_>) {
        let ts = event.ts_ns / NS_PER_US;
        self.record(1, ts, event.track.0, |out| {
            out.push(b"{\"name\":");
            out.write_str(&event.name);
            out.push(b",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":");
            out.write_f64(ts);
            out.push(PID_TID);
            out.write_u64(event.track.0);
            out.push(b",\"args\":{");
            out.write_str(&event.series);
            out.push(b":");
            out.write_f64(event.value);
            out.push(b"}}");
        });
    }

    fn track_name(&mut self, track: TrackId, name: &str) {
        self.record(0, 0.0, track.0, |out| {
            out.push(b"{\"name\":\"thread_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0");
            out.push(PID_TID);
            out.write_u64(track.0);
            out.push(b",\"args\":{\"name\":");
            out.write_str(name);
            out.push(b"}}");
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
            &SpanEvent::new("fc", "arithmetic", TrackId(2), 2000.0, 1000.0)
                .with_args(&[("energy_pj", 7.0.into())]),
        );
        s.span(&SpanEvent::new("attn", "data-movement", TrackId(1), 0.0, 2000.0));
        s.counter(&CounterEvent::sample("util", TrackId(3), 500.0, "busy", 0.25));
        s.instant(&InstantEvent::new("mark", "ring", TrackId(4), 1500.0));
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
            &SpanEvent::new("fc", "arithmetic", TrackId(2), 2000.0, 1000.0)
                .with_args(&[("energy_pj", 7.0.into())]),
        );
        let mut second = ChromeTraceSink::new();
        second.span(&SpanEvent::new("attn", "data-movement", TrackId(1), 0.0, 2000.0));
        second.counter(&CounterEvent::sample("util", TrackId(3), 500.0, "busy", 0.25));
        second.instant(&InstantEvent::new("mark", "ring", TrackId(4), 1500.0));

        let mut merged = ChromeTraceSink::new();
        merged.absorb(first);
        merged.absorb(second);
        assert_eq!(merged.to_json_string().unwrap(), filled().to_json_string().unwrap());
    }

    #[test]
    fn non_finite_timestamps_export_as_null_with_metadata_first() {
        let mut s = ChromeTraceSink::new();
        s.span(&SpanEvent::new("nan", "c", TrackId(1), f64::NAN, 1.0));
        s.instant(&InstantEvent::new("inf", "c", TrackId(1), f64::INFINITY));
        s.counter(&CounterEvent::sample("ninf", TrackId(1), f64::NEG_INFINITY, "v", f64::NAN));
        s.span(&SpanEvent::new("zero", "c", TrackId(1), 0.0, f64::INFINITY));
        s.track_name(TrackId(1), "row");
        s.instant(&InstantEvent::new("nan2", "c", TrackId(0), -f64::NAN));
        let json = s.to_json_string().unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let names: Vec<&str> =
            v.as_array().unwrap().iter().map(|e| e["name"].as_str().unwrap()).collect();
        // Metadata, then -inf < 0 < +inf < NaN; NaNs by track, then in
        // record order.
        assert_eq!(names, ["thread_name", "ninf", "zero", "inf", "nan2", "nan"]);
        assert!(json.contains(r#"{"name":"nan","cat":"c","ph":"X","ts":null,"dur":0.001,"#));
        assert!(json.contains(r#""ph":"C","ts":null,"pid":1,"tid":1,"args":{"v":null}}"#));
        assert!(json.contains(r#""ts":0,"dur":null,"#));
        let events = s.sorted_events();
        assert_eq!(events[0].ph, "M");
        assert!(events[1].ts.is_nan(), "null decodes to NaN");
    }

    #[test]
    fn args_export_in_key_order_and_the_last_duplicate_wins() {
        let mut s = ChromeTraceSink::new();
        s.span(&SpanEvent::new("fc", "arithmetic", TrackId(2), 0.0, 1.0).with_args(&[
            ("energy_pj", 1.0.into()),
            ("bytes", 2.0.into()),
            ("slot", ArgValue::Label(3)),
            ("bytes", 4.0.into()),
            ("label", "x".into()),
        ]));
        let json = s.to_json_string().unwrap();
        assert!(json.ends_with(r#""args":{"bytes":4,"energy_pj":1,"label":"x","slot":3}}]"#));
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        assert_eq!(ChromeTraceSink::new().to_json_string().unwrap(), "[]");
    }
}
