//! The memory-based architectures compared in the paper's evaluation
//! (Section V-A2): TransPIM and its no-buffer ablation, the PIM-only
//! baseline, and the Newton-like near-bank-processing baseline.

use serde::{Deserialize, Serialize};
use transpim_acu::adder_tree::AcuParams;
use transpim_fault::SystemInfo;
use transpim_hbm::config::{ConfigError, HbmConfig};
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

    /// Whether point-wise arithmetic runs inside the subarrays (PIM) as
    /// opposed to near-bank units.
    pub fn computes_in_memory(self) -> bool {
        !matches!(self, ArchKind::Nbp)
    }

    /// Whether ACUs (adder trees + dividers) are present.
    pub fn has_acu(self) -> bool {
        matches!(self, ArchKind::TransPim | ArchKind::TransPimNb)
    }

    /// Whether the data buffers / ring broadcast units are present.
    pub fn has_buffers(self) -> bool {
        matches!(self, ArchKind::TransPim | ArchKind::Nbp)
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
    /// In-subarray PIM parameters.
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
        self.pim.p_sub = p_sub;
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

    /// Validate the configuration, returning it for chaining. User-facing
    /// entry points (CLI, scenario files) call this instead of letting a
    /// zero dimension panic deep inside pricing.
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
            ("pim.p_sub", self.pim.p_sub),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_matches_paper() {
        assert!(ArchKind::TransPim.has_acu() && ArchKind::TransPim.has_buffers());
        assert!(ArchKind::TransPimNb.has_acu() && !ArchKind::TransPimNb.has_buffers());
        assert!(!ArchKind::OriginalPim.has_acu() && !ArchKind::OriginalPim.has_buffers());
        assert!(!ArchKind::Nbp.has_acu() && ArchKind::Nbp.has_buffers());
        assert!(!ArchKind::Nbp.computes_in_memory());
    }

    #[test]
    fn labels_and_builders() {
        let a = ArchConfig::new(ArchKind::TransPim).with_stacks(2).with_acu(8, 2);
        assert_eq!(a.hbm.geometry.stacks, 2);
        assert_eq!(a.acu.p_sub, 8);
        assert_eq!(a.pim.p_sub, 8);
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
