//! Calibration constants.
//!
//! Everything in the simulator that is *not* fixed by the paper's Table I
//! (timing/energy), Table II (area/power), or the architecture text lives
//! here, each with its provenance and the paper observable it was
//! calibrated against. EXPERIMENTS.md records the resulting
//! paper-vs-measured factors.

/// Multiplier on loads/shuffles into PIM architectures, covering
/// bit-serial layout reorganization: data arriving row-major must be
/// re-laid column-wise (bit-transposed) before in-situ ops can touch it.
/// The dominant serialization (row-cycle-bound streaming on the unbuffered
/// datapath) is modeled structurally in [`crate::arch::CostTable`]; this
/// factor covers only the residual transpose passes. Calibrated against
/// Figure 3(a)'s layer-based movement share.
pub const LAYOUT_REORG_OVERHEAD: f64 = 1.5;

/// Near-bank processing (NBP) vector unit: lanes per unit. Newton-style
/// units multiply one DQ-width (256 b = 16×16 b) operand slice per beat.
pub const NBP_LANES: u32 = 16;

/// NBP unit clock in GHz, paced by the column-access interval
/// (`t_CCD_L = 4 ns` → 0.25 GHz effective beat rate).
pub const NBP_CLOCK_GHZ: f64 = 0.25;

/// NBP units per channel; with [`NBP_LANES`] and [`NBP_CLOCK_GHZ`] it sets
/// the one near-bank rate that arithmetic, reductions and reciprocals
/// share ([`crate::arch::CostTable::near_bank_rate`]). The paper's NBP
/// baseline has markedly lower parallelism than PIM ("the throughput is
/// limited by the number of NMC processing elements as well as the
/// bandwidth of the data link", Section II-B); one unit at each channel's
/// periphery, fed over the shared channel datapath, reproduces the
/// reported PIM-vs-NBP arithmetic gap (paper: 13.2×) and reduction gap
/// (56.1×) within small factors.
pub const NBP_UNITS_PER_CHANNEL: u32 = 1;

/// NBP per-element logic energy in pJ (multiply-accumulate at 16 b in the
/// near-bank unit), on top of the operand column-access energy. Chosen so
/// NBP and TransPIM land within a few percent of each other in GOP/J, as
/// Section V-B reports ("TransPIM is not more energy-efficient than the
/// NBP baseline — around 0.2% less").
pub const NBP_LOGIC_PJ_PER_OP: f64 = 2.0;

/// Pipeline restart cost (ns) between consecutive vectors streamed through
/// the NBP adder tree.
pub const NBP_VECTOR_RESTART_NS: f64 = 4.0;

/// Iterations of PIM Newton–Raphson reciprocal on architectures without
/// the ACU divider (each iteration: two multiplies and one subtract at
/// Softmax width).
pub const PIM_RECIP_ITERATIONS: u32 = 3;

#[cfg(test)]
mod tests {
    #[test]
    #[allow(clippy::assertions_on_constants)] // sanity-pin the calibration constants
    fn constants_are_sane() {
        assert!(super::LAYOUT_REORG_OVERHEAD >= 1.0);
    }
}
