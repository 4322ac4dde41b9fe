//! Contended hardware resources of the TransPIM memory system and routing of
//! data transfers across them.
//!
//! A transfer between two banks (or from the host to a bank) occupies every
//! bus segment along its path for its duration; the engine serializes
//! operations that share a segment. The segments follow Figure 2 / Figure 6
//! of the paper:
//!
//! * per-bank ring-broadcast links (dedicated 256-bit neighbor links, only
//!   present when the TransPIM communication hardware is enabled),
//! * per-bank-group buses,
//! * per-channel shared buses,
//! * per-stack TSV/base-die links,
//! * the shared host↔HBM interposer bus (256 GB/s).

use crate::geometry::{BankId, HbmGeometry};
use serde::{Deserialize, Serialize};

/// Identifier of one contended resource, valid for the [`ResourceMap`] that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub u32);

/// Bus/link bandwidth parameters in bytes per nanosecond (= GB/s).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BusParams {
    /// Shared bus of one channel (8 channels × 32 GB/s = 256 GB/s per stack).
    pub channel_gbs: f64,
    /// Bus segment of one bank group.
    pub group_gbs: f64,
    /// Dedicated ring-broadcast link between neighboring banks
    /// (256 bits at the 500 MHz ACU clock = 16 GB/s).
    pub ring_link_gbs: f64,
    /// Per-stack TSV / base-die switching capacity.
    pub stack_gbs: f64,
    /// Host↔HBM interposer bandwidth, shared by all stacks (Section V-A).
    pub host_gbs: f64,
}

impl Default for BusParams {
    fn default() -> Self {
        Self {
            channel_gbs: 32.0,
            group_gbs: 32.0,
            ring_link_gbs: 16.0,
            stack_gbs: 256.0,
            host_gbs: 256.0,
        }
    }
}

/// Most resources one route occupies: a cross-stack hop takes both banks,
/// both group buses, both channel buses, both stack links and the host bus.
pub const MAX_ROUTE_RESOURCES: usize = 9;

/// The resources of one [`Route`], held inline so routing never allocates.
/// Derefs to the occupied `&[ResourceId]`.
#[derive(Clone, Copy)]
pub struct RouteResources {
    ids: [ResourceId; MAX_ROUTE_RESOURCES],
    len: u8,
}

impl RouteResources {
    /// The two endpoint banks, which every route occupies.
    fn banks(src: ResourceId, dst: ResourceId) -> Self {
        let mut ids = [ResourceId(0); MAX_ROUTE_RESOURCES];
        (ids[0], ids[1]) = (src, dst);
        Self { ids, len: 2 }
    }

    fn push(&mut self, r: ResourceId) {
        self.ids[usize::from(self.len)] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for RouteResources {
    type Target = [ResourceId];

    fn deref(&self) -> &[ResourceId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl PartialEq for RouteResources {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for RouteResources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Route taken by a transfer, with the set of occupied resources and the
/// bottleneck bandwidth along the path.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Every resource occupied for the duration of the transfer.
    pub resources: RouteResources,
    /// Bottleneck bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

impl Route {
    /// Transfer time in nanoseconds for `bytes` over this route.
    pub fn transfer_ns(&self, bytes: f64) -> f64 {
        bytes / self.bandwidth_gbs
    }
}

/// A ring link that still works, but below its nominal bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedLink {
    /// Global bank-group index of the affected neighbor link.
    pub group: u32,
    /// Remaining fraction of `ring_link_gbs`, in `(0, 1]`.
    pub factor: f64,
}

/// Maps hierarchy elements to flat [`ResourceId`]s and routes transfers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceMap {
    geometry: HbmGeometry,
    bus: BusParams,
    /// Whether the dedicated ring-broadcast links exist (TransPIM-Buf). When
    /// absent, neighbor hops fall back to the shared buses (TransPIM-NB and
    /// the PIM-only / NBP baselines without the broadcast buffer).
    ring_links: bool,
    /// Groups whose dedicated neighbor link is dead: intra-group hops in
    /// these groups fall back to the shared buses (the paper's 8T
    /// schedule), store-and-forward through the channel controller. Sorted.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    dead_ring_links: Vec<u32>,
    /// Groups whose neighbor link runs below nominal bandwidth.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    degraded_ring_links: Vec<DegradedLink>,
}

impl ResourceMap {
    /// Build a resource map for `geometry` with the given bus parameters.
    pub fn new(geometry: HbmGeometry, bus: BusParams, ring_links: bool) -> Self {
        Self {
            geometry,
            bus,
            ring_links,
            dead_ring_links: Vec::new(),
            degraded_ring_links: Vec::new(),
        }
    }

    /// The same map with ring-link faults applied: `dead` groups lose their
    /// neighbor link entirely, `degraded` groups keep it at a fraction of
    /// nominal bandwidth. A group listed in both is treated as dead.
    pub fn with_ring_faults(mut self, dead: &[u32], degraded: &[(u32, f64)]) -> Self {
        let mut dead: Vec<u32> = dead.to_vec();
        dead.sort_unstable();
        dead.dedup();
        self.degraded_ring_links = degraded
            .iter()
            .filter(|(g, _)| dead.binary_search(g).is_err())
            .map(|&(group, factor)| DegradedLink { group, factor })
            .collect();
        self.dead_ring_links = dead;
        self
    }

    /// True when `group`'s dedicated neighbor link is dead.
    pub fn link_dead(&self, group: u32) -> bool {
        self.dead_ring_links.binary_search(&group).is_ok()
    }

    /// Remaining bandwidth fraction of `group`'s neighbor link (1.0 when
    /// healthy).
    pub fn link_factor(&self, group: u32) -> f64 {
        self.degraded_ring_links.iter().find(|d| d.group == group).map_or(1.0, |d| d.factor)
    }

    /// The geometry this map was built for.
    pub fn geometry(&self) -> &HbmGeometry {
        &self.geometry
    }

    /// Bus parameters.
    pub fn bus(&self) -> &BusParams {
        &self.bus
    }

    /// Resource of a bank (its row buffer / array port).
    pub fn bank(&self, id: BankId) -> ResourceId {
        debug_assert!(id.0 < self.geometry.total_banks());
        ResourceId(id.0)
    }

    /// Resource of a bank-group bus (global group index).
    pub fn group_bus(&self, group: u32) -> ResourceId {
        debug_assert!(group < self.geometry.total_groups());
        self.whole().group_bus(group)
    }

    /// Resource of a channel bus (global channel index).
    pub fn channel_bus(&self, channel: u32) -> ResourceId {
        debug_assert!(channel < self.geometry.total_channels());
        self.whole().channel_bus(channel)
    }

    /// Resource of a stack's TSV/base-die link.
    pub fn stack_link(&self, stack: u32) -> ResourceId {
        debug_assert!(stack < self.geometry.stacks);
        self.whole().stack_link(stack)
    }

    /// Resource of the shared host bus.
    pub fn host_bus(&self) -> ResourceId {
        self.whole().host_bus()
    }

    /// Ring-link token of a bank group: at most one intra-group ring hop can
    /// be in flight per group at a time (Figure 9's schedule uses exactly
    /// this constraint).
    pub fn ring_link(&self, group: u32) -> ResourceId {
        debug_assert!(group < self.geometry.total_groups());
        self.whole().ring_link(group)
    }

    /// The [`ResourceWindow`] of the banks `first..=last`.
    ///
    /// # Panics
    ///
    /// If `last` comes before `first` or is past the last bank.
    pub fn window(&self, first: BankId, last: BankId) -> ResourceWindow {
        let g = &self.geometry;
        assert!(
            first <= last && last.0 < g.total_banks(),
            "bank window {first}..={last} outside the {} banks",
            g.total_banks()
        );
        let div = [g.banks_per_group, g.banks_per_channel(), g.banks_per_stack()].map(Divisor::new);
        let (a, z) = (Place::new(div, first), Place::new(div, last));
        let banks = z.bank - a.bank + 1;
        let groups = z.group - a.group + 1;
        let group_base = banks;
        let channel_base = group_base + groups;
        let stack_base = channel_base + (z.channel - a.channel + 1);
        let host = stack_base + (z.stack - a.stack + 1);
        ResourceWindow {
            div,
            banks_per_group: g.banks_per_group,
            first: a,
            last: z.bank,
            group_base,
            channel_base,
            stack_base,
            host,
            len: host as usize + 1 + groups as usize,
        }
    }

    /// The window of every bank, which numbers resources like the map.
    fn whole(&self) -> ResourceWindow {
        self.window(BankId(0), BankId(self.geometry.total_banks() - 1))
    }

    /// Route a bank-to-bank transfer. Both banks are always occupied; the
    /// intermediate segments depend on how far apart the banks are in the
    /// hierarchy and on whether ring links exist.
    ///
    /// # Panics
    ///
    /// If either bank is past the last bank.
    pub fn route(&self, src: BankId, dst: BankId) -> Route {
        self.route_in(&self.whole(), src, dst)
    }

    /// [`Self::route`] with the resources numbered within window `w`.
    ///
    /// # Panics
    ///
    /// If either bank is outside the window.
    pub fn route_in(&self, w: &ResourceWindow, src: BankId, dst: BankId) -> Route {
        assert!(w.holds(src) && w.holds(dst), "route {src} -> {dst} leaves its bank window");
        let mut resources = RouteResources::banks(w.bank(src), w.bank(dst));
        let mut bw = f64::INFINITY;

        // Each level of the hierarchy is placed only if the banks share
        // every level above it.
        let (src_group, dst_group) = (w.group_of(src), w.group_of(dst));
        let neighbors = src.0.abs_diff(dst.0) == 1;
        if src_group == dst_group && self.ring_links && neighbors && !self.link_dead(src_group) {
            // Dedicated neighbor link inside a bank group, possibly running
            // below nominal bandwidth when degraded.
            resources.push(w.ring_link(src_group));
            bw = bw.min(self.bus.ring_link_gbs * self.link_factor(src_group));
            return Route { resources, bandwidth_gbs: bw };
        }

        if src_group == dst_group {
            resources.push(w.group_bus(src_group));
            bw = bw.min(self.bus.group_gbs);
            if !self.ring_links || self.link_dead(src_group) {
                // Original HBM datapath: every transfer is mediated by the
                // single shared channel bus and controller. A dead neighbor
                // link degrades its group to this path — the Figure 9
                // fallback from the 3T to the 8T schedule.
                resources.push(w.channel_bus(w.channel_of(src)));
                if self.ring_links {
                    // Dead-link detour on a machine built around the
                    // dedicated links: the payload is staged in the channel
                    // controller and re-driven, so the group and channel
                    // crossings serialize (store-and-forward) rather than
                    // streaming cut-through like the native no-links
                    // datapath below — a dead link is never free, even for
                    // a ring confined to one bank group.
                    bw = bw.min(1.0 / (1.0 / self.bus.group_gbs + 1.0 / self.bus.channel_gbs));
                } else {
                    bw = bw.min(self.bus.channel_gbs);
                }
            }
            return Route { resources, bandwidth_gbs: bw };
        }

        // Different groups: occupy both group buses.
        resources.push(w.group_bus(src_group));
        resources.push(w.group_bus(dst_group));
        bw = bw.min(self.bus.group_gbs);

        let (src_channel, dst_channel) = (w.channel_of(src), w.channel_of(dst));
        if src_channel == dst_channel {
            // With the TransPIM broadcast units, the bank-group bus segments
            // are decoupled from the global channel bus, so a cross-group
            // hop only occupies the two adjacent group buses (Figure 9 uses
            // "the bank group bus (both BankGroup A and BankGroup B)" for
            // the 3→4 hop) and disjoint group pairs transfer in parallel.
            // Without them, every transfer rides the single shared channel
            // bus and controller.
            if !self.ring_links {
                resources.push(w.channel_bus(src_channel));
                bw = bw.min(self.bus.channel_gbs);
            }
            return Route { resources, bandwidth_gbs: bw };
        }

        resources.push(w.channel_bus(src_channel));
        resources.push(w.channel_bus(dst_channel));
        bw = bw.min(self.bus.channel_gbs);

        let (src_stack, dst_stack) = (w.stack_of(src), w.stack_of(dst));
        if src_stack == dst_stack {
            resources.push(w.stack_link(src_stack));
            bw = bw.min(self.bus.stack_gbs);
            return Route { resources, bandwidth_gbs: bw };
        }

        resources.push(w.stack_link(src_stack));
        resources.push(w.stack_link(dst_stack));
        resources.push(w.host_bus());
        bw = bw.min(self.bus.stack_gbs).min(self.bus.host_gbs);
        Route { resources, bandwidth_gbs: bw }
    }
}

/// Exact division of any `u32` by a fixed `d ≥ 1` as one widening multiply
/// and shift (Lemire, Kaser and Kurz, "Faster remainder by direct
/// computation", 2019): with `m = ⌈2^64 / d⌉`, `⌊n / d⌋ = ⌊m·n / 2^64⌋` for
/// every `n < 2^32`, because 64 fraction bits cover the 32 bits of `n` plus
/// the at most 32 of `d`. `m` fits 64 bits for every `d ≥ 2`; `d = 1`
/// passes `n` through a mask instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Divisor {
    m: u64,
    /// All ones when `d = 1`, else zero.
    identity: u32,
}

impl Divisor {
    /// The constants for `d`. A zero `d` (a geometry without banks, which
    /// routes nothing) divides everything to 0.
    fn new(d: u32) -> Self {
        match d {
            0 => Self { m: 0, identity: 0 },
            1 => Self { m: 0, identity: u32::MAX },
            d => Self { m: u64::MAX / u64::from(d) + 1, identity: 0 },
        }
    }

    fn div(self, n: u32) -> u32 {
        ((u128::from(self.m) * u128::from(n)) >> 64) as u32 | (n & self.identity)
    }
}

/// A bank and the global indices of its bank group, channel and stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Place {
    bank: u32,
    group: u32,
    channel: u32,
    stack: u32,
}

impl Place {
    /// Bank `b` placed by the divisions by banks per group, per channel and
    /// per stack.
    fn new(div: [Divisor; 3], b: BankId) -> Self {
        let [group, channel, stack] = div.map(|d| d.div(b.0));
        Self { bank: b.0, group, channel, stack }
    }
}

/// Dense numbering of the resources that transfers among the banks
/// `first..=last` can occupy ([`ResourceMap::window`]), so that what a
/// schedule tracks per resource is sized by the banks it spans, not by the
/// map. The kinds come in the map's order, each numbered from the window's
/// first element: the banks, the bus of each bank group the window touches,
/// each channel bus, each stack link, the host bus, then each group's ring
/// link. The window of every bank numbers resources exactly as
/// [`ResourceMap::bank`] and the other accessors do.
///
/// A window also holds its map's bank → group, channel and stack divisions
/// as multiply-shift constants, so routing within it divides nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceWindow {
    /// Divisions by banks per group, per channel and per stack.
    div: [Divisor; 3],
    banks_per_group: u32,
    first: Place,
    last: u32,
    group_base: u32,
    channel_base: u32,
    stack_base: u32,
    host: u32,
    len: usize,
}

impl ResourceWindow {
    /// Number of resource ids in the window: every id [`ResourceMap::route_in`]
    /// returns for it is below this.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false; a window holds at least one bank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Position of bank `b` within its bank group.
    pub fn group_position(&self, b: BankId) -> u32 {
        b.0 - self.group_of(b) * self.banks_per_group
    }

    fn holds(&self, b: BankId) -> bool {
        (self.first.bank..=self.last).contains(&b.0)
    }

    fn group_of(&self, b: BankId) -> u32 {
        self.div[0].div(b.0)
    }

    fn channel_of(&self, b: BankId) -> u32 {
        self.div[1].div(b.0)
    }

    fn stack_of(&self, b: BankId) -> u32 {
        self.div[2].div(b.0)
    }

    fn bank(&self, b: BankId) -> ResourceId {
        ResourceId(b.0 - self.first.bank)
    }

    fn group_bus(&self, group: u32) -> ResourceId {
        ResourceId(self.group_base + (group - self.first.group))
    }

    fn channel_bus(&self, channel: u32) -> ResourceId {
        ResourceId(self.channel_base + (channel - self.first.channel))
    }

    fn stack_link(&self, stack: u32) -> ResourceId {
        ResourceId(self.stack_base + (stack - self.first.stack))
    }

    fn host_bus(&self) -> ResourceId {
        ResourceId(self.host)
    }

    fn ring_link(&self, group: u32) -> ResourceId {
        ResourceId(self.host + 1 + (group - self.first.group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(ring: bool) -> ResourceMap {
        ResourceMap::new(HbmGeometry::default(), BusParams::default(), ring)
    }

    #[test]
    fn resource_ids_are_disjoint() {
        let m = map(true);
        let g = m.geometry;
        let mut seen = std::collections::HashSet::new();
        for b in g.banks() {
            assert!(seen.insert(m.bank(b)));
        }
        for gr in 0..g.total_groups() {
            assert!(seen.insert(m.group_bus(gr)));
            assert!(seen.insert(m.ring_link(gr)));
        }
        for c in 0..g.total_channels() {
            assert!(seen.insert(m.channel_bus(c)));
        }
        for s in 0..g.stacks {
            assert!(seen.insert(m.stack_link(s)));
        }
        assert!(seen.insert(m.host_bus()));
        assert_eq!(seen.len(), m.whole().len());
        assert_eq!(Some(seen.len() as u32), g.resource_count());
    }

    #[test]
    fn neighbor_hop_uses_ring_link_when_present() {
        let m = map(true);
        let r = m.route(BankId(0), BankId(1));
        assert!(r.resources.contains(&m.ring_link(0)));
        assert_eq!(r.bandwidth_gbs, 16.0);

        let m = map(false);
        let r = m.route(BankId(0), BankId(1));
        assert!(r.resources.contains(&m.group_bus(0)));
        assert_eq!(r.bandwidth_gbs, 32.0);
    }

    #[test]
    fn cross_group_hop_occupies_both_group_buses() {
        // With broadcast units the group-bus segments are decoupled from
        // the channel bus; without them the shared channel bus serializes.
        let m = map(true);
        let r = m.route(BankId(3), BankId(4)); // group 0 -> group 1, channel 0
        assert!(r.resources.contains(&m.group_bus(0)));
        assert!(r.resources.contains(&m.group_bus(1)));
        assert!(!r.resources.contains(&m.channel_bus(0)));

        let m = map(false);
        let r = m.route(BankId(3), BankId(4));
        assert!(r.resources.contains(&m.channel_bus(0)));
        let r = m.route(BankId(0), BankId(2)); // same group, no links
        assert!(r.resources.contains(&m.channel_bus(0)));
    }

    #[test]
    fn cross_stack_hop_goes_through_host() {
        let m = map(true);
        let g = *m.geometry();
        let last_of_stack0 = BankId(g.banks_per_stack() - 1);
        let first_of_stack1 = BankId(g.banks_per_stack());
        let r = m.route(last_of_stack0, first_of_stack1);
        assert!(r.resources.contains(&m.host_bus()));
        assert!(r.resources.contains(&m.stack_link(0)));
        assert!(r.resources.contains(&m.stack_link(1)));
    }

    #[test]
    fn dead_link_falls_back_to_shared_buses() {
        let m = map(true).with_ring_faults(&[0], &[]);
        let r = m.route(BankId(0), BankId(1));
        assert!(!r.resources.contains(&m.ring_link(0)));
        assert!(r.resources.contains(&m.group_bus(0)));
        assert!(r.resources.contains(&m.channel_bus(0)), "8T fallback rides the channel bus");
        // Same path as the no-ring-links datapath, but store-and-forward
        // through the controller: the two bus crossings serialize, so the
        // detour is strictly slower than either segment alone.
        let nb = map(false).route(BankId(0), BankId(1));
        assert_eq!(r.resources, nb.resources);
        assert_eq!(r.bandwidth_gbs, 1.0 / (1.0 / 32.0 + 1.0 / 32.0));
        assert!(r.bandwidth_gbs < nb.bandwidth_gbs);
        // Other groups keep their dedicated link.
        let healthy_src = BankId(m.geometry().banks_per_group);
        let r = m.route(healthy_src, BankId(healthy_src.0 + 1));
        assert!(r.resources.contains(&m.ring_link(1)));
        assert_eq!(r.bandwidth_gbs, 16.0);
    }

    #[test]
    fn degraded_link_scales_bandwidth_only() {
        let m = map(true).with_ring_faults(&[], &[(0, 0.25)]);
        let r = m.route(BankId(0), BankId(1));
        assert!(r.resources.contains(&m.ring_link(0)));
        assert_eq!(r.bandwidth_gbs, 4.0);
        assert_eq!(m.route(BankId(4), BankId(5)).bandwidth_gbs, 16.0);
    }

    #[test]
    fn dead_supersedes_degraded_and_wire_shape_is_stable() {
        let m = map(true).with_ring_faults(&[2, 1, 1], &[(1, 0.5), (3, 0.5)]);
        assert!(m.link_dead(1) && m.link_dead(2));
        assert_eq!(m.link_factor(1), 1.0, "dead link wins over degraded");
        assert_eq!(m.link_factor(3), 0.5);
        // A fault-free map serializes without the new fields, so existing
        // JSON fixtures and traces stay byte-identical.
        let clean = serde_json::to_string(&map(true)).expect("serialize");
        assert!(!clean.contains("dead_ring_links"));
        assert!(!clean.contains("degraded_ring_links"));
        let faulted = serde_json::to_string(&m).expect("serialize");
        assert!(faulted.contains("dead_ring_links"));
        let back: ResourceMap = serde_json::from_str(&faulted).expect("roundtrip");
        assert_eq!(back, m);
        let back: ResourceMap = serde_json::from_str(&clean).expect("roundtrip");
        assert_eq!(back, map(true));
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let m = map(true);
        let r = m.route(BankId(0), BankId(1));
        assert!((r.transfer_ns(1600.0) - 100.0).abs() < 1e-9); // 1600 B at 16 GB/s
    }

    #[test]
    fn every_route_fits_the_inline_bound() {
        let g = HbmGeometry::default();
        let n = g.total_banks();
        let maps = [
            map(true),
            map(false),
            map(true).with_ring_faults(&[0, 5, 100, 511], &[(1, 0.5), (6, 0.25), (300, 0.9)]),
        ];
        let mut widest = 0;
        // Intra-group, cross-group, cross-channel and cross-stack pairs.
        let mut seen = [false; 4];
        for m in &maps {
            for src in 0..n {
                // The ring neighbors, another bank of the group, the next
                // group, the next channel and the next stack, wrapping.
                let dsts = [
                    src ^ 1,
                    (src + 1) % n,
                    (src + n - 1) % n,
                    (src + g.banks_per_group) % n,
                    (src + g.banks_per_channel()) % n,
                    (src + g.banks_per_stack()) % n,
                ];
                for dst in dsts {
                    let r = m.route(BankId(src), BankId(dst));
                    let mut ids = r.resources.to_vec();
                    assert!((2..=MAX_ROUTE_RESOURCES).contains(&ids.len()), "{src}->{dst}: {r:?}");
                    assert!(
                        ids.contains(&m.bank(BankId(src))) && ids.contains(&m.bank(BankId(dst)))
                    );
                    ids.sort_unstable();
                    ids.dedup();
                    assert_eq!(ids.len(), r.resources.len(), "{src}->{dst} repeats a resource");
                    widest = widest.max(ids.len());
                    let (a, b) = (g.coord(BankId(src)), g.coord(BankId(dst)));
                    seen[match () {
                        _ if g.group_at(a) == g.group_at(b) => 0,
                        _ if g.channel_at(a) == g.channel_at(b) => 1,
                        _ if a.stack == b.stack => 2,
                        _ => 3,
                    }] = true;
                }
            }
        }
        assert_eq!(seen, [true; 4]);
        assert_eq!(widest, MAX_ROUTE_RESOURCES, "a cross-stack hop fills the bound");
    }

    /// Two stacks of 5 channels of 3 groups of 3 banks: banks per group,
    /// channel and stack (3, 9, 45) are not powers of two, so no division
    /// here is a shift.
    fn odd_geometry() -> HbmGeometry {
        HbmGeometry {
            stacks: 2,
            channels_per_stack: 5,
            groups_per_channel: 3,
            banks_per_group: 3,
            ..HbmGeometry::default()
        }
    }

    #[test]
    fn multiply_shift_division_is_exact() {
        let edges =
            [0, 1, 2, 3, 5, 7, 9, 45, 255, 256, 1 << 31, (1 << 31) + 1, u32::MAX - 1, u32::MAX];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut random = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32 >> (x >> 59)
        };
        let numerators: Vec<u32> = edges.into_iter().chain((0..2000).map(|_| random())).collect();
        let divisors: Vec<u32> =
            edges.into_iter().filter(|&d| d > 0).chain((0..200).map(|_| random().max(1))).collect();
        for &d in &divisors {
            let div = Divisor::new(d);
            for &n in &numerators {
                assert_eq!(div.div(n), n / d, "{n} / {d}");
            }
        }
    }

    #[test]
    fn banks_are_placed_like_their_coordinates() {
        for g in [odd_geometry(), HbmGeometry::default(), HbmGeometry::with_stacks(6_000_000)] {
            let m = ResourceMap::new(g, BusParams::default(), true);
            let w = m.whole();
            let n = g.total_banks();
            let step = (n / 5000).max(1);
            for b in (0..n).step_by(step as usize).chain([n - 1]) {
                let (b, c) = (BankId(b), g.coord(BankId(b)));
                assert_eq!(
                    (w.group_of(b), w.channel_of(b), w.stack_of(b)),
                    (g.group_at(c), g.channel_at(c), c.stack)
                );
                assert_eq!(w.group_position(b), c.bank);
            }
        }
    }

    #[test]
    fn windows_rename_the_map_densely() {
        let g = odd_geometry();
        let n = g.total_banks();
        for ring in [true, false] {
            let m =
                ResourceMap::new(g, BusParams::default(), ring).with_ring_faults(&[4], &[(7, 0.5)]);
            for (first, last) in [(0, n - 1), (0, 0), (4, 5), (2, 11), (8, 52), (40, 50), (13, 89)]
            {
                let w = m.window(BankId(first), BankId(last));
                // Window id -> map id and back: both ways a function, so the
                // window renames without merging or splitting a resource.
                let mut to_map = std::collections::HashMap::new();
                let mut to_window = std::collections::HashMap::new();
                for src in first..=last {
                    for dst in first..=last {
                        let (local, global) = (
                            m.route_in(&w, BankId(src), BankId(dst)),
                            m.route(BankId(src), BankId(dst)),
                        );
                        assert_eq!(local.bandwidth_gbs, global.bandwidth_gbs);
                        assert_eq!(local.resources.len(), global.resources.len());
                        for (l, r) in local.resources.iter().zip(global.resources.iter()) {
                            assert!((l.0 as usize) < w.len(), "{src}->{dst} in {first}..={last}");
                            assert_eq!(*to_map.entry(*l).or_insert(*r), *r);
                            assert_eq!(*to_window.entry(*r).or_insert(*l), *l);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "leaves its bank window")]
    fn routes_stay_in_their_window() {
        let m = map(true);
        let w = m.window(BankId(4), BankId(7));
        m.route_in(&w, BankId(3), BankId(4));
    }
}
