//! Traced emission does no heap work per event: a traced LM run into a
//! sink that drops every event makes about as many allocation calls as
//! the untraced run, not one more per event. What a traced run may
//! allocate beyond the untraced one is per run or per topology (track
//! names, the placements of a topology's first hop set), never per event.
//! This file is its own test binary because it counts every allocation of
//! the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use transpim::accelerator::Accelerator;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::DataflowKind;
use transpim::SinkHandle;
use transpim_obs::{CounterEvent, InstantEvent, Sink, SpanEvent};
use transpim_transformer::workload::Workload;

/// The system allocator, counting the calls that ask it for memory.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// An enabled sink that keeps nothing: what is left is the cost of
/// building and delivering the events.
struct Discard;

impl Sink for Discard {
    fn span(&mut self, _: &SpanEvent<'_>) {}

    fn instant(&mut self, _: &InstantEvent<'_>) {}

    fn counter(&mut self, _: &CounterEvent<'_>) {}
}

/// Allocation calls made by one Token-TransPIM LM run into `sink`.
fn calls_of_run(sink: SinkHandle) -> usize {
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let lm = Workload::lm();
    let before = CALLS.load(Ordering::Relaxed);
    acc.simulate_with_sink(&lm, DataflowKind::Token, sink);
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn traced_emission_allocates_nothing_per_event() {
    let untraced = calls_of_run(SinkHandle::null());
    let traced = calls_of_run(SinkHandle::new(Discard));
    // The run emits 3,573 events; one allocation per event would be
    // thousands more calls.
    assert!(
        traced <= untraced + 300,
        "a traced run made {traced} allocation calls against {untraced} untraced"
    );
}
