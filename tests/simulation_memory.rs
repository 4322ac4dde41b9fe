//! A simulation prices each step as the compiler emits it, so it holds
//! one repeat body of IR, not the decode loop. The Layer dataflow commits
//! one decoder-layer repeat per generated token; built as a program, the
//! LM decode at 4,096 tokens alone held about 4 MB of repeat bodies. Here
//! the peak live heap of a whole LM simulation stays under 1 MiB for both
//! dataflows, and quadrupling the decode length to 16,384 tokens adds at
//! most 64 KiB to it. This file is its own test binary because it counts
//! every allocation of the process, and one test runs every simulation so
//! that no other test's allocations land in a peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use transpim::accelerator::Accelerator;
use transpim::arch::{ArchConfig, ArchKind};
use transpim::report::DataflowKind;
use transpim_transformer::workload::Workload;

/// The system allocator, tracking the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the accounting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System`'s.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap, above what was live before, of one LM simulation on
/// TransPIM generating `decode` tokens under `dataflow`.
fn peak_heap(dataflow: DataflowKind, decode: usize) -> usize {
    let acc = Accelerator::new(ArchConfig::new(ArchKind::TransPim));
    let mut lm = Workload::lm();
    lm.decode_len = decode;
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = acc.simulate(&lm, dataflow);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(report.latency_ms() > 0.0, "{dataflow} at decode {decode} priced nothing");
    peak
}

#[test]
fn simulation_heap_is_bounded_by_one_repeat_body() {
    const MIB: usize = 1 << 20;
    const KIB: usize = 1 << 10;
    for dataflow in [DataflowKind::Token, DataflowKind::Layer] {
        let short = peak_heap(dataflow, 4096);
        let long = peak_heap(dataflow, 16384);
        assert!(short < MIB, "{dataflow} at decode 4096 peaked at {short} bytes of heap");
        assert!(long < MIB, "{dataflow} at decode 16384 peaked at {long} bytes of heap");
        assert!(
            long <= short + 64 * KIB,
            "{dataflow}: the heap grows with the decode length ({short} bytes at 4096, \
             {long} at 16384)"
        );
    }
}
