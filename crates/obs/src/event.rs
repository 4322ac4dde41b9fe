//! The event model: spans, instants, and counters on named tracks.
//!
//! Times are nanoseconds of *simulated* time since simulation start —
//! observability describes the machine being modeled, not the host running
//! the model. Sinks translate units as their format requires (the Chrome
//! sink exports microseconds, per the trace-event spec).

use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Identifier of one timeline row ("thread" in Chrome-trace terms).
///
/// Emitters pick the layout; the simulator reserves low ids for breakdown
/// categories, one row for ring-broadcast hops, and a range for
/// per-resource occupancy (see `transpim_hbm::engine::tracks`).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TrackId(pub u64);

impl TrackId {
    /// The default track for emitters that do not care about placement.
    pub const DEFAULT: TrackId = TrackId(0);
}

/// One argument value attached to an event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum ArgValue {
    /// Numeric payload (energies, byte counts, utilizations).
    Num(f64),
    /// String payload (labels, resource names).
    Str(String),
    /// Numeric label (a bank id, a schedule slot): exported as a number,
    /// but it names something rather than measuring it, so metrics never
    /// sum it.
    Label(u64),
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Num(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::Num(v as f64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::Num(f64::from(v))
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Text of an event: borrowed from the emitter (a scope label, a static
/// category) or owned when the emitter had to format it.
pub type Text<'a> = Cow<'a, str>;

/// One attached argument: a key and its value.
pub type Arg<'a> = (&'a str, ArgValue);

/// A complete interval on a track: something that took time.
///
/// Events borrow their text and arguments: an emitter builds its argument
/// list on its own stack and passes the event by reference
/// ([`crate::Sink`]), so emitting one allocates nothing, and a sink
/// copies only what it keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent<'a> {
    /// Human-readable name (scope label, hop label, op label).
    pub name: Text<'a>,
    /// Category label, matching the breakdown vocabulary of the emitter
    /// (e.g. `data-movement`, `arithmetic`, `ring`).
    pub category: Text<'a>,
    /// Track the span renders on.
    pub track: TrackId,
    /// Start, in simulated nanoseconds.
    pub start_ns: f64,
    /// Duration, in simulated nanoseconds (≥ 0).
    pub dur_ns: f64,
    /// Attached arguments, in the order the emitter listed them. A
    /// `count` argument is the span's multiplicity: it stands for that
    /// many events, such as the lumps of a collapsed repeat window.
    /// Metrics count it `count` times; a trace shows it once, with the
    /// argument.
    pub args: &'a [Arg<'a>],
}

impl<'a> SpanEvent<'a> {
    /// A span with no arguments.
    pub fn new(
        name: impl Into<Text<'a>>,
        category: impl Into<Text<'a>>,
        track: TrackId,
        start_ns: f64,
        dur_ns: f64,
    ) -> Self {
        Self { name: name.into(), category: category.into(), track, start_ns, dur_ns, args: &[] }
    }

    /// Attach `args` (builder style), replacing any attached before.
    pub fn with_args(self, args: &'a [Arg<'a>]) -> Self {
        Self { args, ..self }
    }
}

/// A point-in-time marker on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent<'a> {
    /// Human-readable name.
    pub name: Text<'a>,
    /// Category label.
    pub category: Text<'a>,
    /// Track the marker renders on.
    pub track: TrackId,
    /// Timestamp, in simulated nanoseconds.
    pub ts_ns: f64,
    /// Attached arguments, in the order the emitter listed them.
    pub args: &'a [Arg<'a>],
}

impl<'a> InstantEvent<'a> {
    /// An instant with no arguments.
    pub fn new(
        name: impl Into<Text<'a>>,
        category: impl Into<Text<'a>>,
        track: TrackId,
        ts_ns: f64,
    ) -> Self {
        Self { name: name.into(), category: category.into(), track, ts_ns, args: &[] }
    }

    /// Attach `args` (builder style), replacing any attached before.
    pub fn with_args(self, args: &'a [Arg<'a>]) -> Self {
        Self { args, ..self }
    }
}

/// One sample of a counter series (utilization, occupancy, queue depth).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterEvent<'a> {
    /// Counter name (one chart per name in trace viewers).
    pub name: Text<'a>,
    /// Track the counter renders on.
    pub track: TrackId,
    /// Sample timestamp, in simulated nanoseconds.
    pub ts_ns: f64,
    /// Series the sample belongs to.
    pub series: Text<'a>,
    /// Value sampled at `ts_ns`.
    pub value: f64,
}

impl<'a> CounterEvent<'a> {
    /// The sample `value` of `series` at `ts_ns`.
    pub fn sample(
        name: impl Into<Text<'a>>,
        track: TrackId,
        ts_ns: f64,
        series: impl Into<Text<'a>>,
        value: f64,
    ) -> Self {
        Self { name: name.into(), track, ts_ns, series: series.into(), value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_attach_args() {
        let args = [("energy_pj", 10.0.into()), ("label", "a".into())];
        let s = SpanEvent::new("fc", "arithmetic", TrackId(2), 1.0, 5.0).with_args(&args);
        assert_eq!(s.args.len(), 2);
        assert_eq!(s.args[0].1, ArgValue::Num(10.0));
        assert_eq!(s.args[1].1, ArgValue::Str("a".into()));
        let i = InstantEvent::new("mark", "ring", TrackId(4), 1.0).with_args(&args[..1]);
        assert_eq!(i.args, [("energy_pj", ArgValue::Num(10.0))]);
    }

    #[test]
    fn labels_are_numeric_args() {
        let args = [("slot", ArgValue::Label(2))];
        let s = SpanEvent::new("hop 0->1", "ring", TrackId(64), 0.0, 5.0).with_args(&args);
        assert_eq!(s.args, [("slot", ArgValue::Label(2))]);
        assert_eq!(serde_json::to_string(&ArgValue::Label(2)).unwrap(), "2");
    }

    #[test]
    fn arg_values_serialize_untagged() {
        let n = serde_json::to_string(&ArgValue::Num(2.5)).unwrap();
        let s = serde_json::to_string(&ArgValue::Str("x".into())).unwrap();
        assert_eq!(n, "2.5");
        assert_eq!(s, "\"x\"");
    }

    #[test]
    fn counter_sample_is_single_series() {
        let c = CounterEvent::sample("util", TrackId::DEFAULT, 3.0, "busy", 0.5);
        assert_eq!((c.series.as_ref(), c.value), ("busy", 0.5));
    }
}
