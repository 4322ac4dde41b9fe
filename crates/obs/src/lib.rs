//! Structured observability for the TransPIM simulator.
//!
//! Simulator-style accelerator studies live or die on per-stage breakdown
//! reporting: every figure of the paper's evaluation (latency/energy
//! breakdowns per phase, per bank, per ring hop) is a view over the same
//! underlying timeline. This crate provides that timeline as a first-class
//! API instead of ad-hoc strings:
//!
//! * [`event`] — the span / instant / counter event model with typed
//!   [`event::TrackId`] timelines,
//! * [`sink`] — the pluggable [`Sink`] trait, which receives events by
//!   reference, the cheap cloneable [`SinkHandle`] the simulation layers
//!   carry (a disabled handle is the zero-overhead path), and a
//!   [`FanoutSink`] multiplexer that hands the same event to every child,
//! * [`chrome`] — a Chrome-tracing / Perfetto JSON sink
//!   (`chrome://tracing` loads its output directly) that renders each
//!   record once, on receipt, as bytes into one buffer, and sorts an index
//!   of them on export,
//! * [`metrics`] — a flat key→value metrics sink with JSON and CSV export
//!   for the `results/` pipeline.
//!
//! # Example
//!
//! ```
//! use transpim_obs::{ChromeTraceSink, SinkHandle, SpanEvent, TrackId};
//!
//! let chrome = ChromeTraceSink::shared();
//! let sink = SinkHandle::from_shared(chrome.clone());
//! sink.span(&SpanEvent::new("fc", "arithmetic", TrackId(1), 0.0, 100.0)
//!     .with_args(&[("energy_pj", 5_000.0.into())]));
//! let json = chrome.borrow().to_json_string().unwrap();
//! assert!(json.contains("\"name\":\"fc\""));
//! ```
//!
//! Emission discipline: layers that might run hot must gate work behind
//! [`SinkHandle::is_enabled`] — a disabled handle makes every emission a
//! no-op without allocation, so untraced runs behave exactly like runs
//! without any observability compiled in. Traced emission allocates
//! nothing per event: events borrow their names (a scope label, a hop name
//! written into a reused buffer), categories and argument keys are
//! `&'static str`, argument lists live on the emitter's stack, a counter
//! carries its one sample inline, and a sink copies only what it keeps.

pub mod chrome;
pub mod event;
mod json;
pub mod metrics;
pub mod sink;

pub use chrome::{ChromeEvent, ChromeTraceSink};
pub use event::{ArgValue, CounterEvent, InstantEvent, SpanEvent, TrackId};
pub use metrics::MetricsSink;
pub use sink::{FanoutSink, Sink, SinkHandle};

use std::fmt;

/// Errors surfaced by trace/metrics export.
///
/// Serialization failures used to be silently swallowed (an empty trace was
/// returned); they are now loud by construction.
#[derive(Debug)]
pub enum ObsError {
    /// JSON serialization of a trace or metrics document failed.
    Serialize(serde_json::Error),
    /// Writing an export file failed.
    Io(std::io::Error),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Serialize(e) => write!(f, "serializing trace/metrics: {e}"),
            ObsError::Io(e) => write!(f, "writing trace/metrics: {e}"),
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsError::Serialize(e) => Some(e),
            ObsError::Io(e) => Some(e),
        }
    }
}

impl From<serde_json::Error> for ObsError {
    fn from(e: serde_json::Error) -> Self {
        ObsError::Serialize(e)
    }
}

impl From<std::io::Error> for ObsError {
    fn from(e: std::io::Error) -> Self {
        ObsError::Io(e)
    }
}
