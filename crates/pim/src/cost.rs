//! Latency/energy model for bit-serial row-parallel PIM operations.
//!
//! Latency: every logic primitive (AND/OR/NOT/MAJ3) is one AAP command
//! sequence paced by the row cycle `t_RC`. A batch processes
//! `subarray_cols × P_sub` lanes per bank in lock-step (one activated mat
//! row per simultaneously-activated subarray); larger element counts issue
//! multiple batches back-to-back.
//!
//! Energy: each AAP activates one `subarray_cols`-bit row slice per active
//! subarray, costing the Table I full-row activation energy scaled by the
//! activated row fraction. This reproduces the paper's observation that
//! bit-serial in-situ computing is fast but activation-energy hungry
//! (Section V-B: TransPIM is *not* more energy-efficient than NBP).
//!
//! # AAP counts
//!
//! The functional ALU in [`crate::alu`] demonstrates a conservative
//! gate-level op sequence (5 primitives per full-adder bit). Real
//! majority-based DRAM adders are cheaper: with dual-contact cells the
//! complements fall out of the same activation (Ali et al., the paper's
//! reference \[2\]), leaving ~3 majority activations per bit, and partial
//! products accumulate in carry-save form (two compressor activations per
//! bit) with one final carry-propagate add. The cost model uses those
//! optimized counts:
//!
//! * `add(b)` = `3 b` AAPs,
//! * `mul(a, b)` = `b·a` partial-product ANDs + `2·a·b` carry-save
//!   compressions + `3·(a + b)` final propagate = `3ab + b + 3(a+b)` AAPs,
//! * `exp(b, order)` = `order` fused multiply-adds at width `b`.
//!
//! These constants are the calibration point that reproduces the paper's
//! system-level throughput (≈0.7–1.5 TMAC/s over 8 stacks) inside the 60 W
//! DRAM power budget of Section V-E; see `transpim::calib`.

use serde::{Deserialize, Serialize};
use transpim_hbm::energy::EnergyParams;
use transpim_hbm::geometry::HbmGeometry;
use transpim_hbm::timing::TimingParams;

/// Tunable PIM parameters. The number of simultaneously activated
/// subarrays per bank is the ACU's `P_sub` (one ACU per activated
/// subarray), passed to [`PimCostModel::new`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PimCostParams {
    /// Enforce the JEDEC four-activation window (`t_FAW`) on the
    /// subarray-row activation stream. Commodity DRAM limits activations
    /// for power-delivery reasons; PIM designs (including the paper's)
    /// implicitly assume a relaxed window for the low-current mat-row
    /// activations. Enabling this prices the conservative reading.
    pub enforce_faw: bool,
}

/// A row-parallel point-wise PIM operation over a batch of lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PimOp {
    /// Point-wise addition of two `bits`-wide vectors.
    Add {
        /// Operand width in bits.
        bits: u32,
    },
    /// Point-wise multiplication `a × b`.
    Mul {
        /// Width of the first operand.
        a_bits: u32,
        /// Width of the second operand.
        b_bits: u32,
    },
    /// Point-wise exponential via `order`-term Taylor expansion evaluated by
    /// Horner's rule: `order` multiplications and additions at `bits` width
    /// (Figure 8(b) step 1).
    ExpTaylor {
        /// Fixed-point width (the paper uses 16 bits for Softmax).
        bits: u32,
        /// Taylor order (the paper uses 5).
        order: u32,
    },
    /// `planes` raw bit-plane operations (masking etc.).
    Bitwise {
        /// Number of plane-level primitives.
        planes: u32,
    },
}

/// Optimized majority-adder cost: 3 AAPs per bit (see module docs).
pub fn add_aaps(bits: u32) -> u64 {
    3 * u64::from(bits)
}

/// Optimized carry-save multiplier cost (see module docs).
pub fn mul_aaps(a_bits: u32, b_bits: u32) -> u64 {
    let (a, b) = (u64::from(a_bits), u64::from(b_bits));
    3 * a * b + b + 3 * (a + b)
}

impl PimOp {
    /// AAP command sequences per lane-batch for this operation.
    pub fn aaps(self) -> u64 {
        match self {
            PimOp::Add { bits } => add_aaps(bits),
            PimOp::Mul { a_bits, b_bits } => mul_aaps(a_bits, b_bits),
            PimOp::ExpTaylor { bits, order } => {
                u64::from(order) * (mul_aaps(bits, bits) + add_aaps(bits))
            }
            PimOp::Bitwise { planes } => u64::from(planes),
        }
    }
}

/// The PIM latency/energy model for a given memory configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PimCostModel {
    geometry: HbmGeometry,
    timing: TimingParams,
    energy: EnergyParams,
    p_sub: u32,
    params: PimCostParams,
}

impl PimCostModel {
    /// Build a cost model that activates `p_sub` subarrays per bank at
    /// once (Table I: 16).
    pub fn new(
        geometry: HbmGeometry,
        timing: TimingParams,
        energy: EnergyParams,
        p_sub: u32,
        params: PimCostParams,
    ) -> Self {
        Self { geometry, timing, energy, p_sub, params }
    }

    /// The PIM parameters.
    pub fn params(&self) -> PimCostParams {
        self.params
    }

    /// Lanes processed per bank per batch.
    pub fn lanes_per_bank(&self) -> u64 {
        self.geometry.pim_lanes_per_bank(self.p_sub)
    }

    /// Number of lock-step batches needed for `elems_per_bank` lanes.
    pub fn batches(&self, elems_per_bank: u64) -> u64 {
        elems_per_bank.div_ceil(self.lanes_per_bank().max(1))
    }

    /// Latency of one batch of `op`, in nanoseconds. With
    /// [`PimCostParams::enforce_faw`], the AAP stream additionally respects
    /// the four-activation window: each AAP activates `p_sub` subarray rows
    /// in the bank, so the sustainable AAP period becomes
    /// `max(t_RC, p_sub × t_FAW / 4)`.
    pub fn batch_latency_ns(&self, op: PimOp) -> f64 {
        let mut period = self.timing.t_aap();
        if self.params.enforce_faw {
            period = period.max(f64::from(self.p_sub) * self.timing.t_faw / 4.0);
        }
        op.aaps() as f64 * period
    }

    /// Latency of `op` over `elems_per_bank` lanes in the busiest bank.
    pub fn latency_ns(&self, op: PimOp, elems_per_bank: u64) -> f64 {
        self.batches(elems_per_bank) as f64 * self.batch_latency_ns(op)
    }

    /// Energy of one row activation of a single subarray mat row, in pJ.
    pub fn subarray_activation_pj(&self) -> f64 {
        self.energy.e_act * self.geometry.subarray_row_fraction()
    }

    /// Energy of `op` over `total_elems` lanes (system-wide), in pJ.
    ///
    /// Each AAP activates one mat row per group of `subarray_cols` lanes.
    pub fn energy_pj(&self, op: PimOp, total_elems: u64) -> f64 {
        let rows = total_elems.div_ceil(u64::from(self.geometry.subarray_cols)) as f64;
        op.aaps() as f64 * rows * self.subarray_activation_pj()
    }

    /// Latency of a PIM-only in-situ tree reduction (the baseline the ACU
    /// replaces; Section II-C): reducing `vectors_per_bank` vectors of
    /// `vec_len` `bits`-wide elements by `log2(vec_len)` halving steps, each
    /// step needing a row-buffer-mediated shifted copy of the shrinking
    /// operand plus a point-wise add at growing width.
    pub fn reduce_tree_latency_ns(&self, vec_len: u32, bits: u32, vectors_per_bank: u64) -> f64 {
        if vec_len <= 1 {
            return 0.0;
        }
        let steps = 32 - (vec_len - 1).leading_zeros(); // ceil(log2)
        let lanes = self.lanes_per_bank();
        // Vectors that fit side by side in one batch.
        let vecs_per_batch = (lanes / u64::from(vec_len)).max(1);
        let batches = vectors_per_bank.div_ceil(vecs_per_batch) as f64;
        let mut per_batch = 0.0;
        for s in 0..steps {
            let width = bits + s; // partial sums widen each step
            per_batch +=
                self.shift_copy_ns(width) + self.batch_latency_ns(PimOp::Add { bits: width });
        }
        batches * per_batch
    }

    /// Energy of the PIM-only tree reduction over `total_vectors` vectors.
    pub fn reduce_tree_energy_pj(&self, vec_len: u32, bits: u32, total_vectors: u64) -> f64 {
        if vec_len <= 1 {
            return 0.0;
        }
        let steps = 32 - (vec_len - 1).leading_zeros();
        let mut pj = 0.0;
        for s in 0..steps {
            let width = bits + s;
            let elems = total_vectors * u64::from(vec_len >> (s + 1)).max(1);
            pj += self.energy_pj(PimOp::Add { bits: width }, elems);
            // Shifted copy: one activation + write-back per moved row slice.
            let rows =
                elems.div_ceil(u64::from(self.geometry.subarray_cols)) as f64 * f64::from(width);
            pj += rows
                * (self.subarray_activation_pj()
                    + self.energy.local_column_access(u64::from(self.geometry.dq_bits)));
        }
        pj
    }

    /// Expand one lock-step batch of `op` into its DRAM command trace
    /// (every active subarray issues this stream simultaneously). Replaying
    /// the trace under the Table I timing rules reproduces
    /// [`PimCostModel::batch_latency_ns`] exactly — the cross-check the
    /// tests (and the `trace_equivalence` integration test) rely on.
    pub fn batch_trace(&self, op: PimOp) -> transpim_hbm::command::CommandTrace {
        transpim_hbm::command::pim_batch_trace(op.aaps())
    }

    /// Time to move `rows` row slices through the row buffer with a column
    /// offset (the intra-subarray data reorganization that makes PIM-only
    /// reductions slow): activate, stream the slice through the sense amps,
    /// write back, precharge.
    fn shift_copy_ns(&self, rows: u32) -> f64 {
        let t = &self.timing;
        let cols = f64::from(self.geometry.subarray_cols) / f64::from(self.geometry.dq_bits);
        f64::from(rows) * (t.t_rcd + cols * t.t_ccd_l + t.t_wr + t.t_rp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PimCostModel {
        PimCostModel::new(
            HbmGeometry::default(),
            TimingParams::default(),
            EnergyParams::default(),
            16,
            PimCostParams::default(),
        )
    }

    #[test]
    fn lanes_per_bank_matches_table1() {
        assert_eq!(model().lanes_per_bank(), 512 * 16);
    }

    #[test]
    fn aap_counts_match_optimized_closed_forms() {
        assert_eq!(PimOp::Add { bits: 8 }.aaps(), 24);
        assert_eq!(PimOp::Mul { a_bits: 8, b_bits: 8 }.aaps(), 3 * 64 + 8 + 48);
        assert_eq!(
            PimOp::ExpTaylor { bits: 16, order: 5 }.aaps(),
            5 * (mul_aaps(16, 16) + add_aaps(16))
        );
        // The optimized counts must stay below the conservative gate-level
        // ALU sequence they abstract (sanity tie to the functional model).
        assert!(PimOp::Add { bits: 8 }.aaps() <= crate::alu::add_aaps(8));
        assert!(PimOp::Mul { a_bits: 8, b_bits: 8 }.aaps() <= crate::alu::mul_aaps(8, 8));
    }

    #[test]
    fn batching_rounds_up() {
        let m = model();
        assert_eq!(m.batches(1), 1);
        assert_eq!(m.batches(8192), 1);
        assert_eq!(m.batches(8193), 2);
    }

    #[test]
    fn mul8_batch_latency_is_about_11us() {
        let m = model();
        let ns = m.batch_latency_ns(PimOp::Mul { a_bits: 8, b_bits: 8 });
        assert!((ns - 248.0 * 45.0).abs() < 1e-9);
    }

    /// Energy per lane of a full bank of 8-bit multiplies.
    fn mul8_pj_per_elem(m: &PimCostModel) -> f64 {
        let lanes = m.lanes_per_bank();
        m.energy_pj(PimOp::Mul { a_bits: 8, b_bits: 8 }, lanes) / lanes as f64
    }

    #[test]
    fn system_throughput_and_power_envelope() {
        // System-level sanity against the paper: 2048 banks of 8192 lanes
        // doing back-to-back 8-bit multiplies should deliver on the order
        // of 1 TMAC/s while dissipating well under the 60 W DRAM budget.
        let m = model();
        let per_bank_rate =
            m.lanes_per_bank() as f64 / m.batch_latency_ns(PimOp::Mul { a_bits: 8, b_bits: 8 });
        let system_rate = per_bank_rate * 2048.0; // MACs per ns = GMAC/s
        assert!(system_rate > 500.0 && system_rate < 5000.0, "system {system_rate} GMAC/s");
        let power_w = system_rate * 1e9 * mul8_pj_per_elem(&m) * 1e-12;
        assert!(power_w < 60.0, "sustained PIM power {power_w} W exceeds budget");
    }

    #[test]
    fn per_mac_energy_is_tens_of_pj() {
        // Sanity against the paper's implied budget: bit-serial 8-bit
        // multiply should cost tens of pJ per element so that ~0.5 TOP/s
        // stays under the 60 W DRAM budget (Section V-E).
        let e = mul8_pj_per_elem(&model());
        assert!(e > 20.0 && e < 200.0, "per-mul energy {e} pJ out of plausible range");
    }

    #[test]
    fn reduce_tree_slower_than_a_few_adds() {
        let m = model();
        let tree = m.reduce_tree_latency_ns(512, 8, 16);
        let add = m.latency_ns(PimOp::Add { bits: 8 }, 16 * 512);
        assert!(tree > 3.0 * add, "tree {tree} should cost several adds {add}");
    }

    #[test]
    fn reduce_tree_zero_for_trivial_vectors() {
        let m = model();
        assert_eq!(m.reduce_tree_latency_ns(1, 8, 100), 0.0);
        assert_eq!(m.reduce_tree_energy_pj(1, 8, 100), 0.0);
    }

    #[test]
    fn command_trace_replay_matches_closed_form() {
        let m = model();
        for op in [
            PimOp::Add { bits: 8 },
            PimOp::Mul { a_bits: 8, b_bits: 8 },
            PimOp::ExpTaylor { bits: 16, order: 5 },
            PimOp::Bitwise { planes: 7 },
        ] {
            let trace = m.batch_trace(op);
            let replayed = trace.replay_ns(&TimingParams::default());
            let closed = m.batch_latency_ns(op);
            assert!(
                (replayed - closed).abs() < 1e-6,
                "{op:?}: trace {replayed} vs formula {closed}"
            );
            assert_eq!(trace.aaps(), op.aaps());
        }
    }

    #[test]
    fn faw_enforcement_slows_wide_activation() {
        // 16 simultaneous subarray activations per AAP vs 4 per 16 ns:
        // the sustainable AAP period rises from 45 ns to 64 ns (1.42x).
        let params = PimCostParams { enforce_faw: true };
        let faw = PimCostModel::new(
            HbmGeometry::default(),
            TimingParams::default(),
            EnergyParams::default(),
            16,
            params,
        );
        let free = model();
        let op = PimOp::Mul { a_bits: 8, b_bits: 8 };
        let ratio = faw.batch_latency_ns(op) / free.batch_latency_ns(op);
        assert!((ratio - 64.0 / 45.0).abs() < 1e-9, "ratio {ratio}");
        // With few subarrays the window is not binding.
        let narrow = PimCostModel::new(
            HbmGeometry::default(),
            TimingParams::default(),
            EnergyParams::default(),
            4,
            params,
        );
        assert!((narrow.batch_latency_ns(op) / 248.0 - 45.0).abs() < 1e-9);
    }

    #[test]
    fn latency_scales_linearly_with_batches() {
        let m = model();
        let one = m.latency_ns(PimOp::Add { bits: 8 }, 8192);
        let four = m.latency_ns(PimOp::Add { bits: 8 }, 4 * 8192);
        assert!((four - 4.0 * one).abs() < 1e-9);
    }
}
