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

const PID: u64 = 1;
const NS_PER_US: f64 = 1000.0;

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
fn write_args<T>(
    out: &mut JsonBuf,
    args: &[T],
    key: impl Fn(&T) -> &str,
    value: impl Fn(&mut JsonBuf, &T),
) {
    if args.is_empty() {
        return;
    }
    out.text.push_str(",\"args\":{");
    let mut prev: Option<&str> = None;
    loop {
        let mut next: Option<&T> = None;
        for arg in args {
            let k = key(arg);
            if prev.is_none_or(|p| k > p) && next.is_none_or(|n| k <= key(n)) {
                next = Some(arg);
            }
        }
        let Some(arg) = next else { break };
        if prev.is_some() {
            out.text.push(',');
        }
        json::write_str(&mut out.text, key(arg));
        out.text.push(':');
        value(out, arg);
        prev = Some(key(arg));
    }
    out.text.push('}');
}

/// Write an event argument: a label is just a number in a trace.
fn write_arg_value(out: &mut JsonBuf, value: &ArgValue) {
    match value {
        ArgValue::Num(n) => out.write_f64(*n),
        ArgValue::Label(id) => out.write_f64(*id as f64),
        ArgValue::Str(s) => json::write_str(&mut out.text, s),
    }
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
        let shift = self.buf.text.len();
        self.buf.text.push_str(&other.buf.text);
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
            .map(|e| serde_json::from_str(&self.buf.text[e.start..e.end]))
            .collect::<Result<_, _>>()
            .expect("the sink renders every record as a JSON object");
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
        let text = &self.buf.text;
        let mut out = String::with_capacity(text.len() + index.len() + 2);
        out.push('[');
        for (i, e) in index.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&text[e.start..e.end]);
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

    /// Render one record — `name`, `cat`, `ph`, `ts` in microseconds,
    /// `dur` when present, `pid`, `tid` — with `args` writing its
    /// arguments, and index it.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        name: &str,
        cat: &str,
        ph: &str,
        ts: f64,
        dur: Option<f64>,
        tid: u64,
        args: impl FnOnce(&mut JsonBuf),
    ) {
        let out = &mut self.buf;
        let start = out.text.len();
        out.text.push_str("{\"name\":");
        json::write_str(&mut out.text, name);
        out.text.push_str(",\"cat\":");
        json::write_str(&mut out.text, cat);
        out.text.push_str(",\"ph\":");
        json::write_str(&mut out.text, ph);
        out.text.push_str(",\"ts\":");
        out.write_f64(ts);
        if let Some(dur) = dur {
            out.text.push_str(",\"dur\":");
            out.write_f64(dur);
        }
        out.text.push_str(",\"pid\":");
        json::write_u64(&mut out.text, PID);
        out.text.push_str(",\"tid\":");
        json::write_u64(&mut out.text, tid);
        args(out);
        out.text.push('}');
        let rank = u8::from(ph != "M");
        let ts = if ts.is_nan() { f64::NAN } else { ts + 0.0 };
        self.index.push(Entry { rank, ts, tid, start, end: out.text.len() });
    }
}

impl Sink for ChromeTraceSink {
    fn span(&mut self, event: &SpanEvent<'_>) {
        let (ts, dur) = (event.start_ns / NS_PER_US, event.dur_ns / NS_PER_US);
        self.record(&event.name, &event.category, "X", ts, Some(dur), event.track.0, |out| {
            write_args(out, &event.args, |(k, _)| k, |out, (_, v)| write_arg_value(out, v))
        });
    }

    fn instant(&mut self, event: &InstantEvent<'_>) {
        let ts = event.ts_ns / NS_PER_US;
        self.record(&event.name, &event.category, "i", ts, None, event.track.0, |out| {
            write_args(out, &event.args, |(k, _)| k, |out, (_, v)| write_arg_value(out, v))
        });
    }

    fn counter(&mut self, event: &CounterEvent<'_>) {
        let ts = event.ts_ns / NS_PER_US;
        self.record(&event.name, "counter", "C", ts, None, event.track.0, |out| {
            write_args(out, &event.values, |(k, _)| k, |out, (_, v)| out.write_f64(*v))
        });
    }

    fn track_name(&mut self, track: TrackId, name: &str) {
        self.record("thread_name", "__metadata", "M", 0.0, None, track.0, |out| {
            write_args(out, &[name], |_| "name", |out, name| json::write_str(&mut out.text, name))
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
                .with_arg("energy_pj", 7.0),
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
                .with_arg("energy_pj", 7.0),
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
        s.span(
            &SpanEvent::new("fc", "arithmetic", TrackId(2), 0.0, 1.0)
                .with_arg("energy_pj", 1.0)
                .with_arg("bytes", 2.0)
                .with_label("slot", 3)
                .with_arg("bytes", 4.0)
                .with_arg("label", "x"),
        );
        let json = s.to_json_string().unwrap();
        assert!(json.ends_with(r#""args":{"bytes":4,"energy_pj":1,"label":"x","slot":3}}]"#));
    }

    #[test]
    fn empty_trace_is_an_empty_array() {
        assert_eq!(ChromeTraceSink::new().to_json_string().unwrap(), "[]");
    }
}
