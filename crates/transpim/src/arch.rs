//! The memory-based architectures compared in the paper's evaluation
//! (Section V-A2): TransPIM and its no-buffer ablation, the PIM-only
//! baseline, and the Newton-like near-bank-processing baseline.

use crate::calib;
use serde::{Deserialize, Serialize};
use transpim_acu::adder_tree::AcuParams;
use transpim_fault::SystemInfo;
use transpim_hbm::config::{ConfigError, HbmConfig};
use transpim_hbm::resource::BusParams;
use transpim_pim::cost::PimCostParams;

/// Which hardware the memory system has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArchKind {
    /// Full TransPIM: in-subarray bit-serial PIM for point-wise ops, ACUs
    /// for reductions/Softmax, data buffers + ring broadcast units for
    /// communication ("Buf" in the paper's notation).
    TransPim,
    /// TransPIM with the broadcast units and data buffers disabled ("NB"):
    /// same compute, original HBM datapath.
    TransPimNb,
    /// Original PIM: bit-serial in-situ operations only — reductions fall
    /// back to in-array shift-add trees, Softmax reciprocals to iterative
    /// PIM arithmetic, communication to the shared datapath.
    OriginalPim,
    /// Near-bank processing (Newton-like): all arithmetic in near-memory
    /// vector units at the channel periphery; the broadcast buffer is
    /// enabled as in the paper ("for a fair comparison").
    Nbp,
}

impl ArchKind {
    /// All four architectures, in the paper's comparison order.
    pub const ALL: [ArchKind; 4] =
        [ArchKind::OriginalPim, ArchKind::Nbp, ArchKind::TransPimNb, ArchKind::TransPim];

    /// Display name matching the paper's system labels.
    pub fn label(self) -> &'static str {
        match self {
            ArchKind::TransPim => "TransPIM",
            ArchKind::TransPimNb => "TransPIM-NB",
            ArchKind::OriginalPim => "OriginalPIM",
            ArchKind::Nbp => "NBP",
        }
    }
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full architecture configuration: kind + memory system + unit parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchConfig {
    /// Architecture kind.
    pub kind: ArchKind,
    /// Memory system (Table I defaults).
    pub hbm: HbmConfig,
    /// ACU parameters (`P_sub`, `P_add`, tree width, clock).
    pub acu: AcuParams,
    /// In-subarray PIM parameters (the activated subarrays per bank are
    /// `acu.p_sub`).
    pub pim: PimCostParams,
    /// Overlap ring-broadcast steps with the block compute they feed
    /// (Section III-B2 interleaves "ring broadcast and compute steps";
    /// the barrier model prices them sequentially — this flag prices the
    /// pipelined schedule, `max(transfer, compute)` per round).
    pub pipelined_ring: bool,
}

impl ArchConfig {
    /// Default (Table I) configuration of the given kind.
    pub fn new(kind: ArchKind) -> Self {
        Self {
            kind,
            hbm: HbmConfig::default(),
            acu: AcuParams::default(),
            pim: PimCostParams::default(),
            pipelined_ring: false,
        }
    }

    /// Enable ring/compute pipelining.
    pub fn with_pipelined_ring(mut self, on: bool) -> Self {
        self.pipelined_ring = on;
        self
    }

    /// Same architecture with a different stack count (Figure 15).
    pub fn with_stacks(mut self, stacks: u32) -> Self {
        self.hbm.geometry.stacks = stacks;
        self
    }

    /// Same architecture with different ACU design knobs (Figure 13).
    pub fn with_acu(mut self, p_sub: u32, p_add: u32) -> Self {
        self.acu.p_sub = p_sub;
        self.acu.p_add = p_add;
        self
    }

    /// System label in the paper's "dataflow-architecture" notation.
    pub fn system_label(&self, dataflow: &str) -> String {
        format!("{dataflow}-{}", self.kind.label())
    }

    /// The slice of the geometry a fault scenario is validated against.
    pub fn system_info(&self) -> SystemInfo {
        let g = &self.hbm.geometry;
        SystemInfo {
            total_banks: g.total_banks(),
            total_groups: g.total_groups(),
            subarrays_per_bank: g.subarrays_per_bank,
        }
    }

    /// Validate the configuration, returning it for chaining. The CLI
    /// builds its architecture through this instead of letting a zero
    /// dimension panic deep inside pricing.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field: zero geometry
    /// dimensions, non-positive bus rates or timings, or zero ACU design
    /// knobs.
    pub fn validated(self) -> Result<Self, ConfigError> {
        self.hbm.validate()?;
        for (field, v) in [
            ("acu.p_sub", self.acu.p_sub),
            ("acu.p_add", self.acu.p_add),
            ("acu.tree_width", self.acu.tree_width),
        ] {
            if v == 0 {
                return Err(ConfigError::NonPositive(field));
            }
        }
        if !(self.acu.clock_ghz > 0.0 && self.acu.clock_ghz.is_finite()) {
            return Err(ConfigError::NonPositive("acu.clock_ghz"));
        }
        Ok(self)
    }
}

/// The unit that serves a compute job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Bit-serial in-subarray PIM.
    Pim,
    /// The TransPIM ACUs next to each bank: adder trees and dividers.
    Acu,
    /// The near-bank vector unit at each channel's periphery.
    NearBank,
}

/// One architecture's row of the cost-model table (docs/cost-model.md §4):
/// which unit does each compute job, and what the datapath charges to move
/// bytes. The executor resolves it once per architecture and prices every
/// step from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTable {
    /// Unit for point-wise arithmetic (multiplies, adds, Taylor exponent).
    pub arithmetic: Unit,
    /// Unit for reductions.
    pub reduction: Unit,
    /// Unit for the Softmax reciprocal.
    pub reciprocal: Unit,
    /// Whether the data buffers and ring broadcast links are present.
    pub buffered: bool,
    /// Bus rates as priced. Without the buffers every bank-to-bank
    /// transfer is row-cycle bound: open the source row, stream it beat by
    /// beat over the shared bus, open and restore the destination row.
    /// With them, bank-group segments pipeline independently at the
    /// column-access rate.
    pub bus: BusParams,
    /// Multiplier on loads and shuffles into bit-serial layout
    /// ([`calib::LAYOUT_REORG_OVERHEAD`] when arithmetic runs in PIM).
    pub layout_factor: f64,
    /// Bank writes per channel that one broadcast costs: 1 when every bank
    /// of the channel latches the bus at once, one per bank otherwise.
    pub broadcast_copies: f64,
    /// Rate (GB/s) at which a channel writes broadcast or scattered data
    /// into its banks: the bus, floored by the banks' row-cycle-bound
    /// streaming rate — every receiving bank's array write is the
    /// bottleneck, even on the buffered datapath.
    pub write_gbs: f64,
    /// Aggregate rate (GB/s) of an all-to-all shuffle: every bank-group
    /// segment with the buffers, every channel bus without them.
    pub shuffle_gbs: f64,
    /// Elements per ns one channel's near-bank units process.
    pub near_bank_rate: f64,
}

impl CostTable {
    /// Resolve `arch`'s row of the table.
    pub fn new(arch: &ArchConfig) -> Self {
        use Unit::{Acu, NearBank, Pim};
        let (arithmetic, reduction, reciprocal, buffered) = match arch.kind {
            ArchKind::TransPim => (Pim, Acu, Acu, true),
            ArchKind::TransPimNb => (Pim, Acu, Acu, false),
            ArchKind::OriginalPim => (Pim, Pim, Pim, false),
            ArchKind::Nbp => (NearBank, NearBank, NearBank, true),
        };
        let g = arch.hbm.geometry;
        let t = arch.hbm.timing;
        // One bank's row-cycle-bound streaming rate: open the row, stream
        // it beat by beat, restore it.
        let beats = f64::from(g.row_bits()) / f64::from(g.dq_bits);
        let row_cycle_gbs = f64::from(g.row_bytes) / (2.0 * t.t_rc + beats * t.t_ccd_l);
        let mut bus = arch.hbm.bus;
        if buffered {
            bus.group_gbs = f64::from(g.dq_bits) / 8.0 / t.t_ccd_s;
        } else {
            bus.group_gbs = row_cycle_gbs;
            bus.channel_gbs = row_cycle_gbs;
        }
        Self {
            arithmetic,
            reduction,
            reciprocal,
            buffered,
            bus,
            layout_factor: if arithmetic == Pim { calib::LAYOUT_REORG_OVERHEAD } else { 1.0 },
            broadcast_copies: if buffered { 1.0 } else { f64::from(g.banks_per_channel()) },
            write_gbs: row_cycle_gbs.min(bus.channel_gbs),
            shuffle_gbs: if buffered {
                f64::from(g.total_groups()) * bus.group_gbs
            } else {
                f64::from(g.total_channels()) * bus.channel_gbs
            },
            near_bank_rate: f64::from(calib::NBP_LANES)
                * calib::NBP_CLOCK_GHZ
                * f64::from(calib::NBP_UNITS_PER_CHANNEL),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_matches_paper() {
        // Section V-A2 / docs/cost-model.md §4: (arithmetic, reduction,
        // reciprocal, broadcast bank writes per channel). 32 banks per
        // channel serialize a broadcast without the buffers.
        use Unit::{Acu, NearBank, Pim};
        for (kind, units, copies) in [
            (ArchKind::TransPim, (Pim, Acu, Acu), 1.0),
            (ArchKind::TransPimNb, (Pim, Acu, Acu), 32.0),
            (ArchKind::OriginalPim, (Pim, Pim, Pim), 32.0),
            (ArchKind::Nbp, (NearBank, NearBank, NearBank), 1.0),
        ] {
            let t = CostTable::new(&ArchConfig::new(kind));
            assert_eq!((t.arithmetic, t.reduction, t.reciprocal), units, "{kind}");
            assert_eq!(t.broadcast_copies, copies, "{kind}");
            assert_eq!(t.buffered, copies == 1.0, "{kind}");
            let layout = if kind == ArchKind::Nbp { 1.0 } else { calib::LAYOUT_REORG_OVERHEAD };
            assert_eq!(t.layout_factor, layout, "{kind}");
        }
    }

    #[test]
    fn labels_and_builders() {
        let a = ArchConfig::new(ArchKind::TransPim).with_stacks(2).with_acu(8, 2);
        assert_eq!(a.hbm.geometry.stacks, 2);
        assert_eq!(a.acu.p_sub, 8);
        assert_eq!(a.system_label("Token"), "Token-TransPIM");
    }

    #[test]
    fn validation_names_the_offending_field() {
        assert!(ArchConfig::new(ArchKind::TransPim).validated().is_ok());
        let bad = ArchConfig::new(ArchKind::TransPim).with_stacks(0);
        let e = bad.validated().expect_err("zero stacks");
        assert!(e.to_string().contains("geometry.stacks"), "{e}");
        let mut bad = ArchConfig::new(ArchKind::TransPim);
        bad.acu.p_add = 0;
        let e = bad.validated().expect_err("zero p_add");
        assert!(e.to_string().contains("acu.p_add"), "{e}");
    }
}
