//! The [`Sink`] trait, the [`SinkHandle`] the simulation layers carry, and
//! the [`FanoutSink`] multiplexer.

use crate::event::{CounterEvent, InstantEvent, SpanEvent, TrackId};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Consumer of observability events.
///
/// Sinks receive events by reference: the emitter builds each event once,
/// often borrowing its text, and a sink copies only what it keeps (the
/// Chrome sink renders the record, the metrics sink folds it into totals).
/// A [`FanoutSink`] hands the same reference to every child.
///
/// Sinks are single-threaded (the simulator is a discrete-event loop) and
/// receive events in emission order, which is phase order but not strictly
/// timestamp order — a phase's interior events (ring hops, per-op spans)
/// arrive before the enclosing phase span. Sinks that need time order sort
/// on export, as [`crate::ChromeTraceSink`] does.
pub trait Sink {
    /// Whether this sink wants events at all. [`SinkHandle`] caches the
    /// answer at construction; a `false` makes every emission a no-op.
    fn enabled(&self) -> bool {
        true
    }

    /// Record a completed span.
    fn span(&mut self, event: &SpanEvent<'_>);

    /// Record an instantaneous marker.
    fn instant(&mut self, event: &InstantEvent<'_>);

    /// Record a counter sample.
    fn counter(&mut self, event: &CounterEvent<'_>);

    /// Name a track (shown as the timeline-row label in viewers). Optional.
    fn track_name(&mut self, track: TrackId, name: &str) {
        let _ = (track, name);
    }
}

/// Cheap cloneable handle to a shared sink, carried by engines and
/// executors. A disabled handle (from [`SinkHandle::null`] or a sink whose
/// [`Sink::enabled`] is `false`) holds no sink at all, so every emission is
/// a branch on `Option` and nothing more — the zero-overhead path.
#[derive(Clone, Default)]
pub struct SinkHandle {
    inner: Option<Rc<RefCell<dyn Sink>>>,
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkHandle").field("enabled", &self.is_enabled()).finish()
    }
}

impl SinkHandle {
    /// The disabled handle: every emission is a no-op.
    pub fn null() -> Self {
        Self { inner: None }
    }

    /// Wrap an owned sink. A sink reporting [`Sink::enabled`]` == false`
    /// collapses to the null handle.
    pub fn new<S: Sink + 'static>(sink: S) -> Self {
        if sink.enabled() {
            Self { inner: Some(Rc::new(RefCell::new(sink))) }
        } else {
            Self::null()
        }
    }

    /// Wrap an externally shared sink so the caller can read results back
    /// after the run (see [`crate::ChromeTraceSink::shared`]).
    pub fn from_shared<S: Sink + 'static>(sink: Rc<RefCell<S>>) -> Self {
        Self { inner: Some(sink) }
    }

    /// One handle feeding every enabled handle in `handles`: the null
    /// handle when none is enabled, the handle itself when one is, and a
    /// [`FanoutSink`] over them otherwise.
    pub fn fanout(mut handles: Vec<SinkHandle>) -> Self {
        handles.retain(SinkHandle::is_enabled);
        match handles.len() {
            0 => Self::null(),
            1 => handles.swap_remove(0),
            _ => Self::new(FanoutSink::new(handles)),
        }
    }

    /// Whether emissions reach a sink. Gate expensive event construction on
    /// this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit a completed span.
    pub fn span(&self, event: &SpanEvent<'_>) {
        if let Some(s) = &self.inner {
            s.borrow_mut().span(event);
        }
    }

    /// Emit an instantaneous marker.
    pub fn instant(&self, event: &InstantEvent<'_>) {
        if let Some(s) = &self.inner {
            s.borrow_mut().instant(event);
        }
    }

    /// Emit a counter sample.
    pub fn counter(&self, event: &CounterEvent<'_>) {
        if let Some(s) = &self.inner {
            s.borrow_mut().counter(event);
        }
    }

    /// Name a track.
    pub fn track_name(&self, track: TrackId, name: &str) {
        if let Some(s) = &self.inner {
            s.borrow_mut().track_name(track, name);
        }
    }
}

/// Multiplexer: forwards every event to each child handle (e.g. a Chrome
/// trace and a metrics file from one run).
#[derive(Default)]
pub struct FanoutSink {
    children: Vec<SinkHandle>,
}

impl FanoutSink {
    /// Fan out to `children`. Disabled children are dropped up front.
    pub fn new(children: Vec<SinkHandle>) -> Self {
        Self { children: children.into_iter().filter(SinkHandle::is_enabled).collect() }
    }
}

impl Sink for FanoutSink {
    fn enabled(&self) -> bool {
        !self.children.is_empty()
    }

    fn span(&mut self, event: &SpanEvent<'_>) {
        for c in &self.children {
            c.span(event);
        }
    }

    fn instant(&mut self, event: &InstantEvent<'_>) {
        for c in &self.children {
            c.instant(event);
        }
    }

    fn counter(&mut self, event: &CounterEvent<'_>) {
        for c in &self.children {
            c.counter(event);
        }
    }

    fn track_name(&mut self, track: TrackId, name: &str) {
        for c in &self.children {
            c.track_name(track, name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::ChromeTraceSink;

    #[test]
    fn null_handle_is_disabled_and_free() {
        let h = SinkHandle::null();
        assert!(!h.is_enabled());
        h.span(&SpanEvent::new("x", "c", TrackId::DEFAULT, 0.0, 1.0)); // no-op
        assert!(!SinkHandle::default().is_enabled());
    }

    #[test]
    fn fanout_forwards_to_all_children() {
        let a = ChromeTraceSink::shared();
        let b = ChromeTraceSink::shared();
        let fan = SinkHandle::new(FanoutSink::new(vec![
            SinkHandle::from_shared(a.clone()),
            SinkHandle::null(),
            SinkHandle::from_shared(b.clone()),
        ]));
        assert!(fan.is_enabled());
        fan.span(&SpanEvent::new("s", "c", TrackId(1), 0.0, 2.0));
        fan.instant(&InstantEvent::new("i", "c", TrackId(1), 1.0));
        fan.counter(&CounterEvent::sample("u", TrackId(1), 1.0, "busy", 0.5));
        assert_eq!(a.borrow().len(), 3);
        assert_eq!(b.borrow().len(), 3);
    }

    #[test]
    fn fanout_handle_wraps_only_when_needed() {
        assert!(!SinkHandle::fanout(Vec::new()).is_enabled());
        assert!(!SinkHandle::fanout(vec![SinkHandle::null()]).is_enabled());

        let a = ChromeTraceSink::shared();
        let one = SinkHandle::fanout(vec![SinkHandle::null(), SinkHandle::from_shared(a.clone())]);
        let passed: Rc<RefCell<dyn Sink>> = a.clone();
        assert!(Rc::ptr_eq(one.inner.as_ref().unwrap(), &passed), "one handle passes through");

        let b = ChromeTraceSink::shared();
        let two = SinkHandle::fanout(vec![
            SinkHandle::from_shared(a.clone()),
            SinkHandle::from_shared(b.clone()),
        ]);
        two.instant(&InstantEvent::new("i", "c", TrackId(1), 1.0));
        assert_eq!((a.borrow().len(), b.borrow().len()), (1, 1));
    }

    #[test]
    fn fanout_of_disabled_children_is_disabled() {
        let fan = FanoutSink::new(vec![SinkHandle::null(), SinkHandle::default()]);
        assert!(!fan.enabled());
        assert!(!SinkHandle::new(fan).is_enabled());
    }
}
