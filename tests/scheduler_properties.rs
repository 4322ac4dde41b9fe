//! Property tests for the communication scheduler and routing layer:
//! makespans must respect structural bounds on arbitrary hop sets, routes
//! must be well-formed for every bank pair, the slot scheduler must place
//! hops exactly like a straightforward round-based scheduler with a
//! per-slot `HashSet` (on ring steps, reduction trees and arbitrary hop
//! sets, including ones that need more than 64 slots, and on a geometry
//! whose bank counts per group, channel and stack are not powers of two),
//! a topology's slot profile must price every byte count exactly as that
//! scheduler does, a one-to-all broadcast over a bank run must cost
//! exactly what it did counted over per-bank sets, and in the traced
//! exemplar of a ring step or reduction tree each source bank must send
//! exactly one hop, whose span then gives the bank's busy fraction.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use transpim_acu::ring::{
    one_to_all_broadcast, pairwise_reduce_hops, ring_step_hops, schedule_hops,
    schedule_hops_placed, Hop, HopPlacement, ScheduleResult, SlotProfile, TransferCostModel,
};
use transpim_hbm::energy::EnergyParams;
use transpim_hbm::geometry::{BankId, HbmGeometry};
use transpim_hbm::resource::{BusParams, ResourceMap};

fn small_geometry() -> HbmGeometry {
    HbmGeometry {
        stacks: 2,
        channels_per_stack: 2,
        groups_per_channel: 2,
        banks_per_group: 4,
        ..HbmGeometry::default()
    }
}

/// Two stacks of 5 channels of 3 groups of 3 banks (90 banks, 30 groups):
/// banks per group, channel and stack (3, 9, 45) are not powers of two, so
/// no division the router makes is a shift.
fn odd_geometry() -> HbmGeometry {
    HbmGeometry {
        stacks: 2,
        channels_per_stack: 5,
        groups_per_channel: 3,
        banks_per_group: 3,
        ..HbmGeometry::default()
    }
}

fn setup(buffered: bool) -> (ResourceMap, TransferCostModel) {
    let g = small_geometry();
    (
        ResourceMap::new(g, BusParams::default(), buffered),
        TransferCostModel::new(g, EnergyParams::default(), buffered),
    )
}

/// The round-based greedy slot scheduler spelled out with a fresh
/// `HashSet` of taken resources per slot: the priority order, placements
/// and f64 operation order that `schedule_hops_placed` must reproduce.
fn reference_schedule(
    map: &ResourceMap,
    xfer: &TransferCostModel,
    hops: &[Hop],
) -> (ScheduleResult, Vec<HopPlacement>) {
    if hops.is_empty() {
        return (ScheduleResult::default(), Vec::new());
    }
    let bpg = map.geometry().banks_per_group;
    let routed: Vec<_> = hops.iter().map(|h| map.route(h.src, h.dst)).collect();
    let mut remaining: Vec<usize> = (0..hops.len()).collect();
    remaining.sort_by_key(|&i| {
        let pos = hops[i].src.0 % bpg;
        (usize::MAX - routed[i].resources.len(), pos % 2, pos, hops[i].src.0)
    });
    let mut placements = Vec::new();
    let (mut latency, mut slots) = (0.0, 0u32);
    while !remaining.is_empty() {
        let mut used = HashSet::new();
        let mut slot_dur = 0.0f64;
        let mut next = Vec::new();
        for &i in &remaining {
            let route = &routed[i];
            if route.resources.iter().any(|r| used.contains(r)) {
                next.push(i);
                continue;
            }
            used.extend(route.resources.iter().copied());
            let dur = route.transfer_ns(hops[i].bytes as f64);
            slot_dur = slot_dur.max(dur);
            placements.push(HopPlacement {
                src: hops[i].src,
                dst: hops[i].dst,
                slot: slots,
                start_ns: latency,
                dur_ns: dur,
            });
        }
        latency += slot_dur;
        slots += 1;
        remaining = next;
    }
    let energy_pj = hops.iter().map(|h| xfer.hop_energy_pj(h.bytes)).sum();
    let bytes = hops.iter().map(|h| h.bytes as f64).sum();
    (ScheduleResult { latency_ns: latency, energy_pj, bytes, slots }, placements)
}

/// `first_fit_matches_the_reference_on_arbitrary_hop_sets` on geometry
/// `g`: hops between any banks, then a serial set on one channel without
/// ring links. Inputs are reduced modulo `g`'s banks, groups and channels.
#[allow(clippy::too_many_arguments)]
fn check_first_fit(
    g: HbmGeometry,
    pairs: &[(u32, u32, u64)],
    channel: u32,
    serial: &[(u32, u32)],
    bytes: u64,
    ring_links: bool,
    dead: &[u32],
    degraded: &[(u32, f64)],
) -> TestCaseResult {
    let (n, groups) = (g.total_banks(), g.total_groups());
    let dead: Vec<u32> = dead.iter().map(|d| d % groups).collect();
    let degraded: Vec<(u32, f64)> = degraded.iter().map(|&(d, f)| (d % groups, f)).collect();
    let map =
        ResourceMap::new(g, BusParams::default(), ring_links).with_ring_faults(&dead, &degraded);
    let xfer = TransferCostModel::new(g, EnergyParams::default(), ring_links);
    let hops: Vec<Hop> = pairs
        .iter()
        .map(|&(s, k, b)| {
            let (s, k) = (s % n, 1 + k % (n - 1));
            Hop { src: BankId(s), dst: BankId((s + k) % n), bytes: b }
        })
        .collect();
    let (got, placed) = schedule_hops_placed(&map, &xfer, &hops);
    let (want, want_placed) = reference_schedule(&map, &xfer, &hops);
    prop_assert_eq!(got, want);
    prop_assert_eq!(placed, want_placed);

    let map = ResourceMap::new(g, BusParams::default(), false);
    let xfer = TransferCostModel::new(g, EnergyParams::default(), false);
    let per_channel = g.banks_per_channel();
    let first = channel % g.total_channels() * per_channel;
    let hops: Vec<Hop> = serial
        .iter()
        .map(|&(s, k)| {
            let (s, k) = (s % per_channel, 1 + k % (per_channel - 1));
            Hop { src: BankId(first + s), dst: BankId(first + (s + k) % per_channel), bytes }
        })
        .collect();
    let (got, placed) = schedule_hops_placed(&map, &xfer, &hops);
    let (want, want_placed) = reference_schedule(&map, &xfer, &hops);
    prop_assert_eq!(got.slots as usize, hops.len());
    prop_assert_eq!(got, want);
    prop_assert_eq!(placed, want_placed);
    Ok(())
}

/// `slot_profile_prices_every_byte_count_like_the_reference` on geometry
/// `g`, for the ring step and reduction tree over `count` banks from
/// `first` (both reduced to fit `g`).
fn check_slot_profile(
    g: HbmGeometry,
    first: u32,
    count: u32,
    bytes: &[u64],
    ring_links: bool,
    dead: &[u32],
    degraded: &[(u32, f64)],
) -> TestCaseResult {
    let (n, groups) = (g.total_banks(), g.total_groups());
    let dead: Vec<u32> = dead.iter().map(|d| d % groups).collect();
    let degraded: Vec<(u32, f64)> = degraded.iter().map(|&(d, f)| (d % groups, f)).collect();
    let map =
        ResourceMap::new(g, BusParams::default(), ring_links).with_ring_faults(&dead, &degraded);
    let xfer = TransferCostModel::new(g, EnergyParams::default(), ring_links);
    let first = first % n;
    let ids: Vec<BankId> = (first..(first + count).min(n)).map(BankId).collect();
    let mut levels = vec![ring_step_hops(&ids, 0)];
    let mut stride = 1;
    while stride < ids.len() {
        levels.push(pairwise_reduce_hops(&ids, stride, 0));
        stride *= 2;
    }
    let profiles = SlotProfile::levels(&map, &levels);
    for (level, profile) in levels.iter().zip(&profiles) {
        prop_assert_eq!(profile, &SlotProfile::new(&map, level));
        for &b in bytes {
            let hops: Vec<Hop> = level.iter().map(|h| Hop { bytes: b, ..*h }).collect();
            let (want, _) = reference_schedule(&map, &xfer, &hops);
            let got = profile.price(&xfer, b);
            prop_assert_eq!(got, want, "{} B", b);
            prop_assert_eq!(got.latency_ns.to_bits(), want.latency_ns.to_bits());
        }
    }
    Ok(())
}

/// The one-to-all broadcast as it was priced over a list of banks, with
/// the channels and stacks it reaches counted in `BTreeSet`s: what
/// `one_to_all_broadcast` over a contiguous run must reproduce bit for bit.
fn one_to_all_reference(
    map: &ResourceMap,
    xfer: &TransferCostModel,
    energy: &EnergyParams,
    src: BankId,
    banks: &[BankId],
    bytes: u64,
) -> ScheduleResult {
    let g = map.geometry();
    let bus = map.bus();
    let channels: BTreeSet<u32> = banks.iter().map(|&b| g.channel_at(g.coord(b))).collect();
    let stacks: BTreeSet<u32> = banks.iter().map(|&b| g.coord(b).stack).collect();
    let b = bytes as f64;
    let mut latency = b / bus.group_gbs + b / bus.channel_gbs;
    if stacks.len() > 1 || !stacks.contains(&g.coord(src).stack) {
        latency += b / bus.stack_gbs + b / bus.host_gbs;
    }
    if channels.len() > 1 {
        latency += b / bus.channel_gbs;
    }
    let bits = (bytes * 8) as f64;
    let mut energy_pj = xfer.bank_write_energy_pj(bytes)
        + bits * energy.e_io * (1.0 + stacks.len() as f64)
        + bits * energy.e_post_gsa * channels.len() as f64;
    for &bank in banks {
        if bank != src {
            energy_pj += xfer.bank_write_energy_pj(bytes);
        }
    }
    ScheduleResult {
        latency_ns: latency,
        energy_pj,
        bytes: bytes as f64 * banks.len() as f64,
        slots: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slot_scheduler_matches_hashset_reference(
        first in 0u32..32,
        count in 0u32..33,
        bytes in 64u64..8192,
        ring_links in any::<bool>(),
        dead in proptest::collection::vec(0u32..8, 0..3),
        degraded in proptest::collection::vec((0u32..8, 0.05f64..1.0), 0..3),
    ) {
        let g = small_geometry();
        let map = ResourceMap::new(g, BusParams::default(), ring_links)
            .with_ring_faults(&dead, &degraded);
        let xfer = TransferCostModel::new(g, EnergyParams::default(), ring_links);
        let ids: Vec<BankId> = (first..(first + count).min(32)).map(BankId).collect();
        // One ring step, then every level of the pairwise reduction tree.
        let mut sets = vec![ring_step_hops(&ids, bytes)];
        let mut stride = 1;
        while stride < ids.len() {
            sets.push(pairwise_reduce_hops(&ids, stride, bytes));
            stride *= 2;
        }
        for hops in &sets {
            let (got, placed) = schedule_hops_placed(&map, &xfer, hops);
            let (want, want_placed) = reference_schedule(&map, &xfer, hops);
            prop_assert_eq!(got, want);
            prop_assert_eq!(placed, want_placed);
        }
    }

    #[test]
    fn first_fit_matches_the_reference_on_arbitrary_hop_sets(
        pairs in proptest::collection::vec((0u32..32, 1u32..32, 0u64..1 << 20), 0..48),
        channel in 0u32..4,
        serial in proptest::collection::vec((0u32..8, 1u32..8), 65..160),
        bytes in 64u64..8192,
        ring_links in any::<bool>(),
        dead in proptest::collection::vec(0u32..8, 0..3),
        degraded in proptest::collection::vec((0u32..8, 0.05f64..1.0), 0..3),
    ) {
        let g = small_geometry();
        let map = ResourceMap::new(g, BusParams::default(), ring_links)
            .with_ring_faults(&dead, &degraded);
        let xfer = TransferCostModel::new(g, EnergyParams::default(), ring_links);
        // Any bank to any other, sources repeating, payloads differing.
        let hops: Vec<Hop> = pairs
            .iter()
            .map(|&(s, k, b)| Hop { src: BankId(s), dst: BankId((s + k) % 32), bytes: b })
            .collect();
        let (got, placed) = schedule_hops_placed(&map, &xfer, &hops);
        let (want, want_placed) = reference_schedule(&map, &xfer, &hops);
        prop_assert_eq!(got, want);
        prop_assert_eq!(placed, want_placed);

        // One channel without ring links: every hop rides the channel bus,
        // so each takes a slot of its own, past the first 64.
        let map = ResourceMap::new(g, BusParams::default(), false);
        let xfer = TransferCostModel::new(g, EnergyParams::default(), false);
        let first = channel * g.banks_per_channel();
        let hops: Vec<Hop> = serial
            .iter()
            .map(|&(s, k)| Hop { src: BankId(first + s), dst: BankId(first + (s + k) % 8), bytes })
            .collect();
        let (got, placed) = schedule_hops_placed(&map, &xfer, &hops);
        let (want, want_placed) = reference_schedule(&map, &xfer, &hops);
        prop_assert_eq!(got.slots as usize, hops.len());
        prop_assert_eq!(got, want);
        prop_assert_eq!(placed, want_placed);
    }

    #[test]
    fn slot_profile_prices_every_byte_count_like_the_reference(
        first in 0u32..32,
        count in 0u32..33,
        bytes in proptest::collection::vec(0u64..1 << 40, 2..5),
        ring_links in any::<bool>(),
        dead in proptest::collection::vec(0u32..8, 0..3),
        degraded in proptest::collection::vec((0u32..8, 0.05f64..1.0), 0..3),
    ) {
        let g = small_geometry();
        let map = ResourceMap::new(g, BusParams::default(), ring_links)
            .with_ring_faults(&dead, &degraded);
        let xfer = TransferCostModel::new(g, EnergyParams::default(), ring_links);
        let ids: Vec<BankId> = (first..(first + count).min(32)).map(BankId).collect();
        // One ring step, then every level of the pairwise reduction tree:
        // each topology profiled once, priced at every byte count.
        let mut levels = vec![ring_step_hops(&ids, 0)];
        let mut stride = 1;
        while stride < ids.len() {
            levels.push(pairwise_reduce_hops(&ids, stride, 0));
            stride *= 2;
        }
        for level in &levels {
            let profile = SlotProfile::new(&map, level);
            for &b in &bytes {
                let hops: Vec<Hop> = level.iter().map(|h| Hop { bytes: b, ..*h }).collect();
                let (want, _) = reference_schedule(&map, &xfer, &hops);
                let got = profile.price(&xfer, b);
                prop_assert_eq!(got, want, "{} B", b);
                prop_assert_eq!(got.latency_ns.to_bits(), want.latency_ns.to_bits());
            }
        }
    }

    #[test]
    fn makespan_is_bounded_by_hop_extremes(
        pairs in proptest::collection::vec((0u32..32, 0u32..32), 1..24),
        bytes in 64u64..8192,
        buffered in any::<bool>(),
    ) {
        let (map, xfer) = setup(buffered);
        let hops: Vec<Hop> = pairs
            .iter()
            .filter(|(s, d)| s != d)
            .map(|&(s, d)| Hop { src: BankId(s), dst: BankId(d), bytes })
            .collect();
        prop_assume!(!hops.is_empty());
        let r = schedule_hops(&map, &xfer, &hops);

        let times: Vec<f64> = hops
            .iter()
            .map(|h| map.route(h.src, h.dst).transfer_ns(h.bytes as f64))
            .collect();
        let max = times.iter().copied().fold(0.0, f64::max);
        let sum: f64 = times.iter().sum();
        prop_assert!(r.latency_ns >= max - 1e-9, "makespan below longest hop");
        prop_assert!(r.latency_ns <= sum + 1e-6, "makespan above full serialization");
        prop_assert!(r.slots >= 1 && r.slots as usize <= hops.len());
        prop_assert!(r.energy_pj > 0.0);
        prop_assert_eq!(r.bytes, hops.len() as f64 * bytes as f64);
    }

    #[test]
    fn ring_step_respects_group_serialization_floor(
        banks in 2u32..32,
        bytes in 256u64..4096,
    ) {
        let (map, xfer) = setup(true);
        let ids: Vec<BankId> = (0..banks).map(BankId).collect();
        let hops = ring_step_hops(&ids, bytes);
        let r = schedule_hops(&map, &xfer, &hops);
        // At least ceil over groups: each group's intra hops share a link.
        let g = small_geometry();
        let intra_per_group = (g.banks_per_group - 1).min(banks.saturating_sub(1));
        prop_assert!(
            r.slots >= intra_per_group.max(1),
            "{banks} banks: {} slots below group floor {}",
            r.slots,
            intra_per_group
        );
    }

    #[test]
    fn routes_are_well_formed(src in 0u32..32, dst in 0u32..32) {
        let (map, _) = setup(true);
        prop_assume!(src != dst);
        let r = map.route(BankId(src), BankId(dst));
        prop_assert!(r.resources.len() >= 2, "route must include both banks");
        prop_assert!(r.bandwidth_gbs > 0.0 && r.bandwidth_gbs.is_finite());
        prop_assert!(r.resources.contains(&map.bank(BankId(src))));
        prop_assert!(r.resources.contains(&map.bank(BankId(dst))));
        // Symmetry of bottleneck bandwidth (paths are undirected here).
        let back = map.route(BankId(dst), BankId(src));
        prop_assert!((r.bandwidth_gbs - back.bandwidth_gbs).abs() < 1e-12);
    }

    #[test]
    fn unbuffered_never_beats_buffered(
        // Rings smaller than a bank group gain nothing from the dedicated
        // neighbor links (the shared bus is wider than one link), so the
        // property holds from one full group upward.
        banks in 8u32..32,
        bytes in 256u64..4096,
    ) {
        let (map_b, xfer_b) = setup(true);
        let (map_n, xfer_n) = setup(false);
        let ids: Vec<BankId> = (0..banks).map(BankId).collect();
        let hops = ring_step_hops(&ids, bytes);
        let b = schedule_hops(&map_b, &xfer_b, &hops);
        let n = schedule_hops(&map_n, &xfer_n, &hops);
        prop_assert!(
            b.latency_ns <= n.latency_ns + 1e-9,
            "buffered {} worse than unbuffered {}",
            b.latency_ns,
            n.latency_ns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn first_fit_matches_the_reference_on_a_non_power_of_two_geometry(
        pairs in proptest::collection::vec((0u32..90, 1u32..90, 0u64..1 << 20), 0..48),
        channel in 0u32..10,
        serial in proptest::collection::vec((0u32..9, 1u32..9), 65..160),
        bytes in 64u64..8192,
        ring_links in any::<bool>(),
        dead in proptest::collection::vec(0u32..30, 0..3),
        degraded in proptest::collection::vec((0u32..30, 0.05f64..1.0), 0..3),
    ) {
        check_first_fit(
            odd_geometry(), &pairs, channel, &serial, bytes, ring_links, &dead, &degraded,
        )?;
    }

    #[test]
    fn slot_profile_prices_like_the_reference_on_a_non_power_of_two_geometry(
        first in 0u32..90,
        count in 0u32..91,
        bytes in proptest::collection::vec(0u64..1 << 40, 2..5),
        ring_links in any::<bool>(),
        dead in proptest::collection::vec(0u32..30, 0..3),
        degraded in proptest::collection::vec((0u32..30, 0.05f64..1.0), 0..3),
    ) {
        check_slot_profile(odd_geometry(), first, count, &bytes, ring_links, &dead, &degraded)?;
    }

    #[test]
    fn one_to_all_matches_the_set_reference(
        first in 0u32..2048,
        count in 0u32..2049,
        src in 0u32..2048,
        bytes in 0u64..1 << 40,
        buffered in any::<bool>(),
    ) {
        for g in [small_geometry(), HbmGeometry::default(), odd_geometry()] {
            let n = g.total_banks();
            let energy = EnergyParams::default();
            let map = ResourceMap::new(g, BusParams::default(), buffered);
            let xfer = TransferCostModel::new(g, energy, buffered);
            let first = first % n;
            let drawn = count % (n - first + 1);
            // The drawn run, a single bank and no bank; each from the drawn
            // source, the run's first and last bank, and the bank after it.
            for count in [drawn, 1, 0] {
                let run: Vec<BankId> = (first..first + count).map(BankId).collect();
                let last = first + count.saturating_sub(1);
                for src in [src % n, first, last, (first + count) % n] {
                    let got = one_to_all_broadcast(&map, &xfer, BankId(src), BankId(first), count, bytes);
                    let want = one_to_all_reference(&map, &xfer, &energy, BankId(src), &run, bytes);
                    prop_assert_eq!(got, want, "{} banks from {}, source {}", count, first, src);
                    prop_assert_eq!(got.latency_ns.to_bits(), want.latency_ns.to_bits());
                    prop_assert_eq!(got.energy_pj.to_bits(), want.energy_pj.to_bits());
                }
            }
        }
    }
}

#[test]
fn empty_hop_set_is_free() {
    let (map, xfer) = setup(true);
    let r = schedule_hops(&map, &xfer, &[]);
    assert_eq!(r.latency_ns, 0.0);
    assert_eq!(r.slots, 0);
}

/// A traced run's exemplar of a ring step or reduction tree: every hop
/// placed, each tree level offset by the latency of the levels before it.
fn exemplar(map: &ResourceMap, xfer: &TransferCostModel, levels: &[Vec<Hop>]) -> Vec<HopPlacement> {
    let mut all = Vec::new();
    let mut offset = 0.0;
    for hops in levels {
        let (r, placed) = schedule_hops_placed(map, xfer, hops);
        all.extend(placed.into_iter().map(|mut p| {
            p.start_ns += offset;
            p
        }));
        offset += r.latency_ns;
    }
    all
}

/// The per-bank occupancy samples hop emission once wrote beside the hop
/// spans, as `(source bank, busy fraction)` in ascending bank order.
fn busy_fractions(placements: &[HopPlacement]) -> Vec<(u32, f64)> {
    let makespan = placements.iter().map(|p| p.start_ns + p.dur_ns).fold(0.0, f64::max);
    let mut samples = Vec::new();
    if makespan > 0.0 {
        let srcs = || placements.iter().map(|p| p.src.0);
        let (first, last) = (srcs().min().unwrap_or(0), srcs().max().unwrap_or(0));
        let mut busy: Vec<Option<f64>> = vec![None; (last - first) as usize + 1];
        for p in placements {
            *busy[(p.src.0 - first) as usize].get_or_insert(0.0) += p.dur_ns;
        }
        for (bank, busy_ns) in (first..).zip(busy) {
            let Some(busy_ns) = busy_ns else { continue };
            samples.push((bank, busy_ns / makespan));
        }
    }
    samples
}

/// Hop spans carry everything a per-bank occupancy counter did: in the
/// exemplar of a ring step or reduction tree, each source bank sends
/// exactly one hop, so its span's duration over the makespan is, bit for
/// bit, the bank's busy fraction.
#[test]
fn each_source_bank_sends_once_so_its_hop_is_its_busy_fraction() {
    let g = HbmGeometry::default();
    // With and without ring links, and with bank group 1's link dead.
    for (ring_links, dead) in [(true, &[][..]), (false, &[]), (true, &[1])] {
        let map =
            &ResourceMap::new(g, BusParams::default(), ring_links).with_ring_faults(dead, &[]);
        let xfer = TransferCostModel::new(g, EnergyParams::default(), ring_links);
        for count in 1..=300u32 {
            let ids: Vec<BankId> = (0..count).map(BankId).collect();
            let mut tree = Vec::new();
            let mut stride = 1;
            while stride < ids.len() {
                tree.push(pairwise_reduce_hops(&ids, stride, 1024));
                stride *= 2;
            }
            for levels in [vec![ring_step_hops(&ids, 1024)], tree] {
                let placed = exemplar(map, &xfer, &levels);
                let makespan = placed.iter().map(|p| p.start_ns + p.dur_ns).fold(0.0, f64::max);
                let mut hops: Vec<(u32, f64)> =
                    placed.iter().map(|p| (p.src.0, p.dur_ns / makespan)).collect();
                hops.sort_by_key(|&(bank, _)| bank);
                let senders = hops.len();
                hops.dedup_by_key(|&mut (bank, _)| bank);
                assert_eq!(hops.len(), senders, "{count} banks: a source bank sends twice");
                let want = busy_fractions(&placed);
                assert_eq!(hops.len(), want.len(), "{count} banks");
                for ((bank, frac), (want_bank, want_frac)) in hops.iter().zip(&want) {
                    assert_eq!(bank, want_bank, "{count} banks");
                    assert_eq!(frac.to_bits(), want_frac.to_bits(), "{count} banks, bank {bank}");
                }
            }
        }
    }
}
