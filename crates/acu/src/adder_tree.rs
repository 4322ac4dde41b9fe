//! The ACU's pipelined bit-serial adder trees and the reduction cost model
//! of Section IV-A1.
//!
//! Each ACU receives 256-bit slices from the subarray row buffer — the same
//! bit of 256 different bit-serial values per column access — and feeds them
//! into up to `P_add` 256-wide adder trees built from 255 bit-serial adders.
//! Reducing an `N`-element `b`-bit vector costs
//!
//! ```text
//! rows = b × ceil(N / (256 × P_add))
//! ```
//!
//! row activations; before precharging, the ACU performs `P_add` column
//! accesses in the open row (column accesses are ~20× cheaper than row
//! cycles), which is exactly the Figure 13(a) knob: raising `P_add` divides
//! the activation count.

use serde::{Deserialize, Serialize};
use transpim_hbm::energy::EnergyParams;
use transpim_hbm::geometry::HbmGeometry;
use transpim_hbm::timing::TimingParams;

/// ACU design parameters (Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcuParams {
    /// ACUs per bank (= simultaneously activated subarrays), Table I: 16.
    /// It also sets the in-subarray PIM lanes per bank.
    pub p_sub: u32,
    /// Pipelined bit-serial adder trees per ACU, Table I: 4.
    pub p_add: u32,
    /// Adder tree input width, Table I: 256.
    pub tree_width: u32,
    /// ACU clock in GHz (500 MHz, matched to `t_CCD = 2 ns`).
    pub clock_ghz: f64,
}

impl Default for AcuParams {
    fn default() -> Self {
        Self { p_sub: 16, p_add: 4, tree_width: 256, clock_ghz: 0.5 }
    }
}

/// Functional bit-serial adder tree: reduces a slice of unsigned values with
/// an explicit balanced tree (the structure the 255 bit-serial adders form).
///
/// # Example
///
/// ```
/// use transpim_acu::adder_tree::tree_reduce;
/// assert_eq!(tree_reduce(&[1, 2, 3, 4, 5]), 15);
/// assert_eq!(tree_reduce(&[]), 0);
/// ```
pub fn tree_reduce(values: &[u64]) -> u128 {
    match values.len() {
        0 => 0,
        1 => u128::from(values[0]),
        n => tree_reduce(&values[..n / 2]) + tree_reduce(&values[n / 2..]),
    }
}

/// Levels of a `width`-input adder tree, `ceil(log2 width)` and at least
/// 1: the cycles its pipeline takes to drain. Integer bit arithmetic, equal
/// to the f64 `log2().ceil()` for every width.
fn tree_depth(width: u32) -> u32 {
    (width.max(2) - 1).ilog2() + 1
}

/// Latency/energy model for ACU vector reductions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcuReduceModel {
    geometry: HbmGeometry,
    timing: TimingParams,
    energy: EnergyParams,
    params: AcuParams,
}

impl AcuReduceModel {
    /// Build the model.
    pub fn new(
        geometry: HbmGeometry,
        timing: TimingParams,
        energy: EnergyParams,
        params: AcuParams,
    ) -> Self {
        Self { geometry, timing, energy, params }
    }

    /// The ACU parameters.
    pub fn params(&self) -> AcuParams {
        self.params
    }

    /// Row activations needed to reduce one `vec_len`-element `bits`-wide
    /// vector (the Section IV-A1 formula).
    pub fn row_activations(&self, vec_len: u32, bits: u32) -> u64 {
        let per_row = u64::from(self.params.tree_width) * u64::from(self.params.p_add);
        u64::from(bits) * u64::from(vec_len).div_ceil(per_row.max(1))
    }

    /// Latency of reducing one vector in one ACU, in nanoseconds: the row
    /// activations (each long enough to fit `P_add` column accesses) plus
    /// the adder-tree pipeline drain.
    pub fn vector_latency_ns(&self, vec_len: u32, bits: u32) -> f64 {
        let t = &self.timing;
        let per_activation =
            t.t_rc.max(t.t_rcd + f64::from(self.params.p_add) * t.t_ccd_l + t.t_rp());
        let pipeline_drain = (f64::from(tree_depth(self.params.tree_width)) + f64::from(bits))
            / self.params.clock_ghz;
        self.row_activations(vec_len, bits) as f64 * per_activation + pipeline_drain
    }

    /// Latency of reducing `vectors_per_bank` vectors of `vec_len`×`bits`
    /// in one bank's `P_sub` ACUs working in parallel.
    pub fn bank_latency_ns(&self, vec_len: u32, bits: u32, vectors_per_bank: u64) -> f64 {
        let rounds = vectors_per_bank.div_ceil(u64::from(self.params.p_sub).max(1));
        rounds as f64 * self.vector_latency_ns(vec_len, bits)
    }

    /// Energy of reducing `total_vectors` vectors system-wide, in pJ: the
    /// mat-row activations plus the Table II per-access ACU energy (one
    /// access per 256-bit chunk per bit-plane). Raising `P_add` trades
    /// activation energy for cheap register accesses — the Figure 13(a)
    /// energy curve ("the proposed design trades excessive row activation
    /// energy by the register energy").
    pub fn energy_pj(&self, vec_len: u32, bits: u32, total_vectors: u64) -> f64 {
        let act_pj = self.energy.e_act * self.geometry.subarray_row_fraction();
        let activations = self.row_activations(vec_len, bits) as f64 * total_vectors as f64;
        let chunks = u64::from(vec_len).div_ceil(u64::from(self.params.tree_width.max(1)))
            * u64::from(bits)
            * total_vectors;
        activations * act_pj + chunks as f64 * self.energy.e_acu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model_with(p_add: u32) -> AcuReduceModel {
        AcuReduceModel::new(
            HbmGeometry::default(),
            TimingParams::default(),
            EnergyParams::default(),
            AcuParams { p_add, ..AcuParams::default() },
        )
    }

    #[test]
    fn row_activation_formula_matches_paper() {
        let m = model_with(4);
        // N = 512, b = 8, P_add = 4: ceil(512/1024) = 1 per bit → 8 rows.
        assert_eq!(m.row_activations(512, 8), 8);
        // N = 4096, b = 16: 16 × ceil(4096/1024) = 64 rows.
        assert_eq!(m.row_activations(4096, 16), 64);
        // Single tree: b × ceil(N/256).
        let m1 = model_with(1);
        assert_eq!(m1.row_activations(512, 8), 16);
    }

    #[test]
    fn p_add_speeds_up_reduction_with_diminishing_returns() {
        // Figure 13(a): latency drops roughly by 1/P_add until the pipeline
        // drain floor.
        let l1 = model_with(1).vector_latency_ns(4096, 16);
        let l4 = model_with(4).vector_latency_ns(4096, 16);
        let l16 = model_with(16).vector_latency_ns(4096, 16);
        assert!(l1 > 3.0 * l4, "P_add=4 should be ~4x faster: {l1} vs {l4}");
        assert!(l4 > l16, "more trees keeps helping");
        assert!(l1 / l16 < 16.0, "but sublinearly");
    }

    #[test]
    fn p_add_reduces_energy() {
        let e1 = model_with(1).energy_pj(4096, 16, 100);
        let e16 = model_with(16).energy_pj(4096, 16, 100);
        assert!(e1 > e16, "activation energy should shrink with P_add: {e1} vs {e16}");
    }

    #[test]
    fn bank_parallelism_divides_by_p_sub() {
        let m = model_with(4);
        let one = m.bank_latency_ns(512, 8, 16); // one round across 16 ACUs
        let two = m.bank_latency_ns(512, 8, 17); // 17 vectors → 2 rounds
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn integer_tree_depth_equals_the_float_ceil_log2() {
        let float = |w: u32| f64::from(w.max(2)).log2().ceil();
        let powers = (0..32).map(|k| 1u32 << k);
        let near_powers = powers.flat_map(|p| [p - 1, p, p.saturating_add(1)]);
        for w in (1..=65_536).chain([u32::MAX]).chain(near_powers) {
            assert_eq!(f64::from(tree_depth(w)).to_bits(), float(w).to_bits(), "width {w}");
        }
    }

    #[test]
    fn tree_reduce_empty_and_single() {
        assert_eq!(tree_reduce(&[]), 0);
        assert_eq!(tree_reduce(&[42]), 42);
    }

    proptest! {
        #[test]
        fn tree_reduce_matches_sum(values in proptest::collection::vec(any::<u32>(), 0..500)) {
            let v64: Vec<u64> = values.iter().map(|&x| u64::from(x)).collect();
            let expect: u128 = v64.iter().map(|&x| u128::from(x)).sum();
            prop_assert_eq!(tree_reduce(&v64), expect);
        }
    }
}
