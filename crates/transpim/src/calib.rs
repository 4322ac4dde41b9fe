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

/// GPU baseline (RTX 2080 Ti, TF2 + XLA as in Section V-A2) roofline
/// constants — see `transpim-baselines::gpu` for the model. These are the
/// weakest-provenance constants in the reproduction: the paper measured a
/// real TF2 stack whose generative-decoding path is far from roofline.
pub mod gpu {
    /// Peak fp32 throughput of the RTX 2080 Ti (TFLOP/s).
    pub const PEAK_TFLOPS: f64 = 13.45;
    /// Peak memory bandwidth (GB/s).
    pub const PEAK_BW_GBS: f64 = 616.0;
    /// Sustained matmul efficiency of the TF2 fp32 stack on these shapes
    /// (non-fused attention, small batch): calibrated against the paper's
    /// 22.1–114.9× end-to-end speedups.
    pub const MATMUL_EFFICIENCY: f64 = 0.05;
    /// Sustained bandwidth efficiency for memory-bound ops.
    pub const MEM_EFFICIENCY: f64 = 0.55;
    /// Fixed overhead per decoder step (kernel launches, host
    /// synchronization, beam bookkeeping) in microseconds. TF2 seq2seq
    /// decoding measures 10²-scale per-step latencies; this constant
    /// dominates the generative workloads exactly as the paper's
    /// GPU baselines do.
    pub const DECODE_STEP_OVERHEAD_US: f64 = 10_000.0;
    /// Fixed overhead per encoder layer invocation (µs).
    pub const LAYER_OVERHEAD_US: f64 = 50.0;
    /// Board power under load (W), for GOP/J comparisons.
    pub const POWER_W: f64 = 250.0;
}

/// TPUv3 single-board constants (Section V-A2 uses one board, 8 cores).
pub mod tpu {
    /// Peak bf16 throughput (TFLOP/s) of a TPUv3 board.
    pub const PEAK_TFLOPS: f64 = 420.0;
    /// HBM bandwidth (GB/s per board).
    pub const PEAK_BW_GBS: f64 = 900.0;
    /// Sustained matmul efficiency at these batch sizes. TPUs need large
    /// batches to fill the MXUs; the paper's TPU is only ~2.5× faster than
    /// its GPU on average (22.1/8.7), so the sustained fraction is small.
    pub const MATMUL_EFFICIENCY: f64 = 0.015;
    /// Bandwidth efficiency.
    pub const MEM_EFFICIENCY: f64 = 0.5;
    /// Per-decoder-step overhead (µs).
    pub const DECODE_STEP_OVERHEAD_US: f64 = 8_000.0;
    /// Per-layer overhead (µs).
    pub const LAYER_OVERHEAD_US: f64 = 40.0;
    /// Board power (W).
    pub const POWER_W: f64 = 200.0;
}

#[cfg(test)]
mod tests {
    #[test]
    #[allow(clippy::assertions_on_constants)] // sanity-pin the calibration constants
    fn constants_are_sane() {
        assert!(super::LAYOUT_REORG_OVERHEAD >= 1.0);
        assert!(super::gpu::MATMUL_EFFICIENCY < 1.0);
        assert!(super::tpu::PEAK_TFLOPS > super::gpu::PEAK_TFLOPS);
    }
}
