//! The slot scheduler's memory is bounded by the hops it schedules, not by
//! the geometry: on a map with more than 2^31 resource ids, scheduling a
//! small ring step and reduction tree allocates a few kilobytes, where one
//! bitmap word per id would be 16 GiB. Nothing is simulated at that
//! geometry. This file is its own test binary because it counts every
//! allocation of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use transpim_acu::ring::{
    one_to_all_broadcast, pairwise_reduce_hops, ring_step_hops, schedule_hops, SlotProfile,
    TransferCostModel,
};
use transpim_hbm::energy::EnergyParams;
use transpim_hbm::geometry::{BankId, HbmGeometry};
use transpim_hbm::resource::{BusParams, ResourceMap};

/// The system allocator, counting the bytes requested from it.
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
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

#[test]
fn scheduling_allocates_nothing_per_resource_id() {
    let huge = HbmGeometry::with_stacks(6_000_000);
    assert!(huge.validate().is_ok());
    assert!(huge.resource_count().expect("validated") >= 1 << 31);
    // The same 8-bank run across a stack boundary on a 2-stack map prices
    // exactly alike; the huge map takes it across its last boundary.
    let small = HbmGeometry::with_stacks(2);
    let across = |g: HbmGeometry| {
        let first = g.total_banks() - g.banks_per_stack() - 4;
        (first..first + 8).map(BankId).collect::<Vec<_>>()
    };
    let mut priced = Vec::new();
    let mut requested = Vec::new();
    for g in [small, huge] {
        let map = ResourceMap::new(g, BusParams::default(), true);
        let xfer = TransferCostModel::new(g, EnergyParams::default(), true);
        let banks = across(g);
        let ring = ring_step_hops(&banks, 1024);
        let tree: Vec<_> = [1, 2, 4].map(|s| pairwise_reduce_hops(&banks, s, 1024)).into();
        let before = REQUESTED.load(Ordering::Relaxed);
        let r = schedule_hops(&map, &xfer, &ring);
        let levels = SlotProfile::levels(&map, &tree);
        let broadcast = one_to_all_broadcast(&map, &xfer, banks[0], banks[0], 8, 1024);
        let route = map.route(banks[3], banks[4]);
        requested.push(REQUESTED.load(Ordering::Relaxed) - before);
        let tree_prices: Vec<_> = levels.iter().map(|l| l.price(&xfer, 1024)).collect();
        priced.push((r, tree_prices, broadcast, route.bandwidth_gbs, route.resources.len()));
    }
    assert_eq!(priced[0], priced[1]);
    for bytes in requested {
        assert!(bytes < 16 << 10, "{bytes} B requested to schedule 8 banks");
    }
}
