//! Physical organization of the HBM memory system (Table I of the paper).
//!
//! The hierarchy, from the outside in:
//!
//! ```text
//! system ─ stacks ─ channels ─ bank groups ─ banks ─ subarrays ─ rows
//! ```
//!
//! Table I: 8 channels per die, 32 banks per channel, 4 banks per group,
//! 32 k rows per bank, 1 KB rows, 512×512 subarrays, 256-bit DQ. A stack is
//! therefore 8 GiB and the evaluated system has 8 stacks (64 GiB).

use crate::config::ConfigError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Globally unique bank identifier, numbered ring-order: stacks, then
/// channels within a stack, then bank groups within a channel, then banks
/// within a group. Consecutive ids are physical ring neighbors in the
/// broadcast ring of Section III-B2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BankId(pub u32);

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bank{}", self.0)
    }
}

/// Structured coordinates of a bank within the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankCoord {
    /// Stack index within the system.
    pub stack: u32,
    /// Channel index within the stack.
    pub channel: u32,
    /// Bank-group index within the channel.
    pub group: u32,
    /// Bank index within the bank group.
    pub bank: u32,
}

/// Memory organization parameters (Table I defaults via [`Default`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HbmGeometry {
    /// Number of HBM stacks attached to the host (the paper uses up to 8).
    pub stacks: u32,
    /// Channels per stack ("Channels/die = 8").
    pub channels_per_stack: u32,
    /// Bank groups per channel (32 banks / 4 banks per group = 8).
    pub groups_per_channel: u32,
    /// Banks per bank group ("Banks/Group = 4").
    pub banks_per_group: u32,
    /// Independent subarray row groups per bank that PIM can activate
    /// (64 subarrays of 512 rows in a 32 k-row bank).
    pub subarrays_per_bank: u32,
    /// Rows per bank ("Rows = 32k").
    pub rows_per_bank: u32,
    /// Bytes per row ("Row Size = 1KB").
    pub row_bytes: u32,
    /// Bit-columns per subarray mat (subarray size 512×512).
    pub subarray_cols: u32,
    /// Data-bus width in bits ("DQ size = 256").
    pub dq_bits: u32,
}

impl Default for HbmGeometry {
    fn default() -> Self {
        Self {
            stacks: 8,
            channels_per_stack: 8,
            groups_per_channel: 8,
            banks_per_group: 4,
            subarrays_per_bank: 64,
            rows_per_bank: 32 * 1024,
            row_bytes: 1024,
            subarray_cols: 512,
            dq_bits: 256,
        }
    }
}

impl HbmGeometry {
    /// Geometry with a different stack count (used by the Figure 15
    /// scalability sweep), all other parameters per Table I.
    pub fn with_stacks(stacks: u32) -> Self {
        Self { stacks, ..Self::default() }
    }

    /// Banks per channel (groups × banks per group; Table I: 32).
    pub fn banks_per_channel(&self) -> u32 {
        self.groups_per_channel * self.banks_per_group
    }

    /// Banks per stack.
    pub fn banks_per_stack(&self) -> u32 {
        self.channels_per_stack * self.banks_per_channel()
    }

    /// Total banks in the system.
    pub fn total_banks(&self) -> u32 {
        self.stacks * self.banks_per_stack()
    }

    /// Total channels in the system.
    pub fn total_channels(&self) -> u32 {
        self.stacks * self.channels_per_stack
    }

    /// Total bank groups in the system.
    pub fn total_groups(&self) -> u32 {
        self.total_channels() * self.groups_per_channel
    }

    /// Capacity of one bank in bytes.
    pub fn bank_bytes(&self) -> u64 {
        u64::from(self.rows_per_bank) * u64::from(self.row_bytes)
    }

    /// Capacity of the whole system in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.total_banks()) * self.bank_bytes()
    }

    /// Row-buffer width in bits (1 KB row = 8 Kb).
    pub fn row_bits(&self) -> u32 {
        self.row_bytes * 8
    }

    /// Bit-serial PIM lanes active per bank when `p_sub` subarrays are
    /// activated simultaneously: each activated subarray row exposes
    /// `subarray_cols` bit-columns (512 per Table I). Activating one
    /// 512-bit mat row per subarray keeps the activation power inside the
    /// 60 W DRAM budget of Section V-E (see DESIGN.md §3/§6).
    pub fn pim_lanes_per_bank(&self, p_sub: u32) -> u64 {
        u64::from(self.subarray_cols) * u64::from(p_sub.min(self.subarrays_per_bank))
    }

    /// Fraction of a full bank row that one subarray-row activation opens
    /// (used to scale the Table I full-row activation energy).
    pub fn subarray_row_fraction(&self) -> f64 {
        f64::from(self.subarray_cols) / f64::from(self.row_bits())
    }

    /// Check the structural dimensions for simulation use.
    ///
    /// # Errors
    ///
    /// [`ConfigError::NonPositive`] naming the first zero dimension, and
    /// [`ConfigError::OutOfRange`] if the resource ids
    /// ([`HbmGeometry::resource_count`]) overflow `u32`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let dims = [
            ("geometry.stacks", self.stacks),
            ("geometry.channels_per_stack", self.channels_per_stack),
            ("geometry.groups_per_channel", self.groups_per_channel),
            ("geometry.banks_per_group", self.banks_per_group),
            ("geometry.subarrays_per_bank", self.subarrays_per_bank),
            ("geometry.rows_per_bank", self.rows_per_bank),
            ("geometry.row_bytes", self.row_bytes),
            ("geometry.subarray_cols", self.subarray_cols),
            ("geometry.dq_bits", self.dq_bits),
        ];
        for (name, value) in dims {
            if value == 0 {
                return Err(ConfigError::NonPositive(name));
            }
        }
        // Bank, group and channel ids are resource ids too, so this also
        // bounds every count `total_banks` and its siblings compute.
        if self.resource_count().is_none() {
            return Err(ConfigError::OutOfRange(format!(
                "geometry.stacks {} needs more than the {} resource ids a u32 can number \
                 (banks, bank-group buses, ring links, channel buses, stack links and the host)",
                self.stacks,
                u32::MAX
            )));
        }
        Ok(())
    }

    /// Number of contended resources (see [`crate::resource::ResourceMap`]):
    /// banks + 2 × bank groups (bus and ring link) + channels + stacks +
    /// the host. `None` if the count overflows the `u32` resource ids.
    pub fn resource_count(&self) -> Option<u32> {
        let channels = self.stacks.checked_mul(self.channels_per_stack)?;
        let groups = channels.checked_mul(self.groups_per_channel)?;
        let banks = groups.checked_mul(self.banks_per_group)?;
        [groups, groups, channels, self.stacks, 1].into_iter().try_fold(banks, u32::checked_add)
    }

    /// Convert structured coordinates to a flat ring-ordered [`BankId`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] if any coordinate exceeds this geometry.
    pub fn try_bank_id(&self, c: BankCoord) -> Result<BankId, ConfigError> {
        if c.stack >= self.stacks
            || c.channel >= self.channels_per_stack
            || c.group >= self.groups_per_channel
            || c.bank >= self.banks_per_group
        {
            return Err(ConfigError::OutOfRange(format!(
                "bank coordinate {c:?} out of range for {self:?}"
            )));
        }
        Ok(BankId(
            ((c.stack * self.channels_per_stack + c.channel) * self.groups_per_channel + c.group)
                * self.banks_per_group
                + c.bank,
        ))
    }

    /// Convert a flat [`BankId`] back to structured coordinates.
    ///
    /// # Errors
    ///
    /// [`ConfigError::OutOfRange`] if the id exceeds this geometry.
    pub fn try_coord(&self, id: BankId) -> Result<BankCoord, ConfigError> {
        if id.0 >= self.total_banks() {
            return Err(ConfigError::OutOfRange(format!("{id} out of range")));
        }
        Ok(self.coord_unchecked(id))
    }

    /// Convert a flat [`BankId`] back to structured coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this geometry; use
    /// [`Self::try_coord`] for untrusted inputs.
    pub fn coord(&self, id: BankId) -> BankCoord {
        match self.try_coord(id) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    fn coord_unchecked(&self, id: BankId) -> BankCoord {
        let bank = id.0 % self.banks_per_group;
        let rest = id.0 / self.banks_per_group;
        let group = rest % self.groups_per_channel;
        let rest = rest / self.groups_per_channel;
        let channel = rest % self.channels_per_stack;
        let stack = rest / self.channels_per_stack;
        BankCoord { stack, channel, group, bank }
    }

    /// Global channel index of the bank at `c`.
    pub fn channel_at(&self, c: BankCoord) -> u32 {
        c.stack * self.channels_per_stack + c.channel
    }

    /// Global bank-group index of the bank at `c`.
    pub fn group_at(&self, c: BankCoord) -> u32 {
        self.channel_at(c) * self.groups_per_channel + c.group
    }

    /// Iterator over all bank ids in ring order.
    pub fn banks(&self) -> impl Iterator<Item = BankId> {
        (0..self.total_banks()).map(BankId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table1_capacity_is_8gib_per_stack() {
        let g = HbmGeometry::default();
        assert_eq!(g.banks_per_channel(), 32);
        assert_eq!(g.bank_bytes(), 32 * 1024 * 1024);
        assert_eq!(g.capacity_bytes() / u64::from(g.stacks), 8 << 30);
    }

    #[test]
    fn bank_id_roundtrip_exhaustive_small() {
        let g = HbmGeometry {
            stacks: 2,
            channels_per_stack: 2,
            groups_per_channel: 3,
            banks_per_group: 4,
            ..HbmGeometry::default()
        };
        for id in g.banks() {
            assert_eq!(g.try_bank_id(g.coord(id)), Ok(id));
        }
    }

    #[test]
    fn ring_order_groups_are_contiguous() {
        let g = HbmGeometry::default();
        // Banks 0..4 share group 0, banks 4..8 share group 1, etc.
        let group_of = |id| g.group_at(g.coord(BankId(id)));
        assert_eq!(group_of(0), group_of(3));
        assert_ne!(group_of(3), group_of(4));
        let channel_of = |id| g.channel_at(g.coord(BankId(id)));
        assert_eq!(channel_of(0), channel_of(31));
        assert_ne!(channel_of(31), channel_of(32));
    }

    #[test]
    fn pim_lanes_clamp_to_subarrays() {
        let g = HbmGeometry::default();
        assert_eq!(g.pim_lanes_per_bank(16), 512 * 16);
        assert_eq!(g.pim_lanes_per_bank(1000), 512 * 64);
        assert!((g.subarray_row_fraction() - 1.0 / 16.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn coord_roundtrip(stack in 0u32..8, channel in 0u32..8, group in 0u32..8, bank in 0u32..4) {
            let g = HbmGeometry::default();
            let c = BankCoord { stack, channel, group, bank };
            prop_assert_eq!(g.try_bank_id(c).map(|id| g.coord(id)), Ok(c));
        }
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        let g = HbmGeometry::default();
        let bad = BankCoord { stack: 8, channel: 0, group: 0, bank: 0 };
        let err = g.try_bank_id(bad).expect_err("bad coordinate");
        assert!(err.to_string().contains("out of range"));
        let err = g.try_coord(BankId(g.total_banks())).expect_err("bad id");
        assert!(err.to_string().contains("out of range"));
        assert_eq!(g.try_coord(BankId(5)).expect("valid"), g.coord(BankId(5)));
        assert!(g.validate().is_ok());
        let err = HbmGeometry { banks_per_group: 0, ..g }.validate().expect_err("zero dimension");
        assert!(err.to_string().contains("banks_per_group"));
        // The resource ids (393 per default stack, plus the host) overflow
        // u32 before the bank count does: 10,928,669 stacks number
        // 4,294,966,918 of them, one more stack wraps. 2^24 stacks of 256
        // banks also wrap the bank count to 0, one more stack to 256.
        assert_eq!(HbmGeometry::with_stacks(10_928_669).resource_count(), Some(4_294_966_918));
        assert!(HbmGeometry::with_stacks(10_928_669).validate().is_ok());
        for stacks in [10_928_670, (1 << 24) - 1, 1 << 24, (1 << 24) + 1, u32::MAX] {
            let err = HbmGeometry::with_stacks(stacks).validate().expect_err("id overflow");
            assert!(matches!(err, ConfigError::OutOfRange(_)), "{err}");
            assert!(err.to_string().contains(&format!("geometry.stacks {stacks} ")), "{err}");
        }
        let wide = HbmGeometry { channels_per_stack: 1 << 16, groups_per_channel: 1 << 16, ..g };
        assert!(wide.validate().is_err(), "a group count past u32 overflows too");
    }
}
