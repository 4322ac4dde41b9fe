//! Integration tests: command-level traces replayed under the Table I
//! timing rules must agree with the closed-form cost models everywhere the
//! simulator uses them (the "modified Ramulator" pinning).

use proptest::prelude::*;
use transpim_acu::adder_tree::{AcuParams, AcuReduceModel};
use transpim_hbm::command::{acu_reduce_trace, pim_batch_trace};
use transpim_hbm::config::HbmConfig;
use transpim_hbm::timing::TimingParams;
use transpim_pim::cost::{PimCostModel, PimCostParams, PimOp};

fn pim_model() -> PimCostModel {
    let hbm = HbmConfig::default();
    let p_sub = AcuParams::default().p_sub;
    PimCostModel::new(hbm.geometry, hbm.timing, hbm.energy, p_sub, PimCostParams::default())
}

#[test]
fn pim_ops_trace_equivalence() {
    let m = pim_model();
    let t = TimingParams::default();
    for op in [
        PimOp::Add { bits: 4 },
        PimOp::Add { bits: 16 },
        PimOp::Mul { a_bits: 8, b_bits: 8 },
        PimOp::Mul { a_bits: 16, b_bits: 8 },
        PimOp::ExpTaylor { bits: 16, order: 5 },
    ] {
        let trace = m.batch_trace(op);
        assert!(
            (trace.replay_ns(&t) - m.batch_latency_ns(op)).abs() < 1e-6,
            "{op:?} trace/formula divergence"
        );
    }
}

#[test]
fn acu_reduce_trace_equivalence() {
    // The ACU reduction's per-activation cost in the analytic model must
    // match a replayed activate + P_add column reads + precharge stream.
    let hbm = HbmConfig::default();
    let t = TimingParams::default();
    for p_add in [1u32, 2, 4, 8, 16] {
        let model = AcuReduceModel::new(
            hbm.geometry,
            hbm.timing,
            hbm.energy,
            AcuParams { p_add, ..AcuParams::default() },
        );
        for (vec_len, bits) in [(256u32, 8u32), (512, 16), (4096, 16)] {
            let rows = model.row_activations(vec_len, bits);
            let trace = acu_reduce_trace(rows, p_add);
            let replayed = trace.replay_ns(&t);
            // The analytic model adds the adder-tree pipeline drain on top
            // of the activation stream.
            let analytic = model.vector_latency_ns(vec_len, bits);
            let drain = analytic - replayed;
            assert!(
                (0.0..200.0).contains(&drain),
                "p_add={p_add} N={vec_len} b={bits}: replay {replayed}, analytic {analytic}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_pim_ops_match_traces(a_bits in 1u32..20, b_bits in 1u32..20) {
        let m = pim_model();
        let t = TimingParams::default();
        let op = PimOp::Mul { a_bits, b_bits };
        let trace = m.batch_trace(op);
        prop_assert!((trace.replay_ns(&t) - m.batch_latency_ns(op)).abs() < 1e-6);
        prop_assert_eq!(trace.aaps(), op.aaps());
    }

    #[test]
    fn aap_pacing_is_exact(aaps in 0u64..5000) {
        let t = TimingParams::default();
        let trace = pim_batch_trace(aaps);
        prop_assert!((trace.replay_ns(&t) - aaps as f64 * t.t_aap()).abs() < 1e-6);
    }
}
