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

    /// Total number of distinct resources (banks + groups + channels +
    /// stacks + host + per-group ring-link tokens).
    pub fn len(&self) -> u32 {
        let g = &self.geometry;
        g.total_banks() + g.total_groups() + g.total_channels() + g.stacks + 1 + g.total_groups()
    }

    /// Always false; maps are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Resource of a bank (its row buffer / array port).
    pub fn bank(&self, id: BankId) -> ResourceId {
        debug_assert!(id.0 < self.geometry.total_banks());
        ResourceId(id.0)
    }

    /// Resource of a bank-group bus (global group index).
    pub fn group_bus(&self, group: u32) -> ResourceId {
        debug_assert!(group < self.geometry.total_groups());
        ResourceId(self.geometry.total_banks() + group)
    }

    /// Resource of a channel bus (global channel index).
    pub fn channel_bus(&self, channel: u32) -> ResourceId {
        debug_assert!(channel < self.geometry.total_channels());
        ResourceId(self.geometry.total_banks() + self.geometry.total_groups() + channel)
    }

    /// Resource of a stack's TSV/base-die link.
    pub fn stack_link(&self, stack: u32) -> ResourceId {
        debug_assert!(stack < self.geometry.stacks);
        ResourceId(
            self.geometry.total_banks()
                + self.geometry.total_groups()
                + self.geometry.total_channels()
                + stack,
        )
    }

    /// Resource of the shared host bus.
    pub fn host_bus(&self) -> ResourceId {
        ResourceId(
            self.geometry.total_banks()
                + self.geometry.total_groups()
                + self.geometry.total_channels()
                + self.geometry.stacks,
        )
    }

    /// Ring-link token of a bank group: at most one intra-group ring hop can
    /// be in flight per group at a time (Figure 9's schedule uses exactly
    /// this constraint).
    pub fn ring_link(&self, group: u32) -> ResourceId {
        debug_assert!(group < self.geometry.total_groups());
        ResourceId(
            self.geometry.total_banks()
                + self.geometry.total_groups()
                + self.geometry.total_channels()
                + self.geometry.stacks
                + 1
                + group,
        )
    }

    /// Route a bank-to-bank transfer. Both banks are always occupied; the
    /// intermediate segments depend on how far apart the banks are in the
    /// hierarchy and on whether ring links exist.
    pub fn route(&self, src: BankId, dst: BankId) -> Route {
        let g = &self.geometry;
        let (sc, dc) = (g.coord(src), g.coord(dst));
        let mut resources = RouteResources::banks(self.bank(src), self.bank(dst));
        let mut bw = f64::INFINITY;

        let (src_group, dst_group) = (g.group_at(sc), g.group_at(dc));
        let (src_channel, dst_channel) = (g.channel_at(sc), g.channel_at(dc));

        let neighbors = src.0.abs_diff(dst.0) == 1;
        if src_group == dst_group && self.ring_links && neighbors && !self.link_dead(src_group) {
            // Dedicated neighbor link inside a bank group, possibly running
            // below nominal bandwidth when degraded.
            resources.push(self.ring_link(src_group));
            bw = bw.min(self.bus.ring_link_gbs * self.link_factor(src_group));
            return Route { resources, bandwidth_gbs: bw };
        }

        if src_group == dst_group {
            resources.push(self.group_bus(src_group));
            bw = bw.min(self.bus.group_gbs);
            if !self.ring_links || self.link_dead(src_group) {
                // Original HBM datapath: every transfer is mediated by the
                // single shared channel bus and controller. A dead neighbor
                // link degrades its group to this path — the Figure 9
                // fallback from the 3T to the 8T schedule.
                resources.push(self.channel_bus(src_channel));
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
        resources.push(self.group_bus(src_group));
        resources.push(self.group_bus(dst_group));
        bw = bw.min(self.bus.group_gbs);

        if src_channel == dst_channel {
            // With the TransPIM broadcast units, the bank-group bus segments
            // are decoupled from the global channel bus, so a cross-group
            // hop only occupies the two adjacent group buses (Figure 9 uses
            // "the bank group bus (both BankGroup A and BankGroup B)" for
            // the 3→4 hop) and disjoint group pairs transfer in parallel.
            // Without them, every transfer rides the single shared channel
            // bus and controller.
            if !self.ring_links {
                resources.push(self.channel_bus(src_channel));
                bw = bw.min(self.bus.channel_gbs);
            }
            return Route { resources, bandwidth_gbs: bw };
        }

        resources.push(self.channel_bus(src_channel));
        resources.push(self.channel_bus(dst_channel));
        bw = bw.min(self.bus.channel_gbs);

        if sc.stack == dc.stack {
            resources.push(self.stack_link(sc.stack));
            bw = bw.min(self.bus.stack_gbs);
            return Route { resources, bandwidth_gbs: bw };
        }

        resources.push(self.stack_link(sc.stack));
        resources.push(self.stack_link(dc.stack));
        resources.push(self.host_bus());
        bw = bw.min(self.bus.stack_gbs).min(self.bus.host_gbs);
        Route { resources, bandwidth_gbs: bw }
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
        assert_eq!(seen.len() as u32, m.len());
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
}
