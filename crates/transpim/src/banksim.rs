//! Bit-accurate bank simulation of the Figure 8 datapath.
//!
//! Everything the paper's Figure 8 describes, executed end-to-end at the
//! bit-plane level for one bank:
//!
//! 1. **Vector multiplication** (Figure 8(a)): per attended key, the query
//!    and key vectors are laid out column-wise and multiplied point-wise by
//!    the in-array majority ALU; the ACU adder tree then reduces the
//!    products into the attention score.
//! 2. **Softmax** (Figure 8(b)): the scores are exponentiated with a
//!    Horner-form Taylor series computed by PIM multiply/add at fixed
//!    point, the row sum goes through the adder tree, the reciprocal
//!    through the pipelined divider, and the probabilities are the
//!    PIM product of exponents and the replicated reciprocal.
//! 3. **Weighted values**: per output dimension, probabilities ×
//!    value-column products reduce through the adder tree again.
//!
//! The result must match a plain f32 attention computation within
//! fixed-point tolerance — the strongest evidence that the cost model
//! elsewhere in this crate prices *working* hardware.
//!
//! The demonstration uses unsigned fixed point (the in-array shift-and-add
//! multiplier is unsigned; real TransPIM handles signs the same way GOBO
//!-style quantizers do, with offset encodings). Inputs are therefore
//! expected in `[0, 1)`.

use transpim_acu::adder_tree::tree_reduce;
use transpim_acu::divider::recip_q16;
use transpim_pim::{BitPlanes, PimAlu};

/// Fractional bits of the activation format (Q0.8).
const ACT_FRAC: u32 = 8;
/// Fractional bits of the Softmax fixed-point format (Q4.12).
const SM_FRAC: u32 = 12;
/// Width of the Softmax format.
const SM_BITS: u32 = 16;
/// Horner rounds of the Figure 8(b) Taylor exponent.
const TAYLOR_ORDER: u32 = 5;

/// Result of a bit-accurate attention-row execution.
#[derive(Debug, Clone, PartialEq)]
pub struct BankSimResult {
    /// The attention output row.
    pub output: Vec<f32>,
    /// Attention probabilities (post-Softmax).
    pub probs: Vec<f32>,
    /// In-array command count actually issued by the run.
    pub aaps: u64,
}

/// Quantize `[0,1)`-ranged reals to unsigned fixed point with `frac` bits.
/// Rounding saturates at the largest representable code (values above
/// `1 - 2^-(frac+1)` would otherwise round up to `2^frac`, which needs one
/// more bit-plane than the datapath carries).
fn quantize(xs: &[f32], frac: u32) -> Vec<u64> {
    let max_code = (1u64 << frac) - 1;
    xs.iter()
        .map(|&x| {
            assert!((0.0..1.0).contains(&x), "bank sim takes values in [0,1), got {x}");
            ((f64::from(x) * (1u64 << frac) as f64).round() as u64).min(max_code)
        })
        .collect()
}

fn to_f32(v: u64, frac: u32) -> f32 {
    v as f32 / (1u64 << frac) as f32
}

/// Fixed-point Taylor exponent of a non-negative Q4.12 value, evaluated
/// with the in-array ALU exactly as Figure 8(b) step 1 does: `order`
/// multiply-truncate-add rounds of Horner's rule, with the `1/k`
/// coefficients pre-scaled into Q0.12 constants.
fn exp_taylor_planes(alu: &mut PimAlu, x: &BitPlanes, order: u32) -> BitPlanes {
    let lanes = x.lanes();
    let one = BitPlanes::from_values(&vec![1u64 << SM_FRAC; lanes], SM_BITS);
    let mut acc = one.clone();
    for k in (1..=order).rev() {
        // x/k in Q4.12: multiply by the constant 1/k (Q0.12), truncate.
        let inv_k = BitPlanes::from_values(
            &vec![((1u64 << SM_FRAC) as f64 / f64::from(k)).round() as u64; lanes],
            SM_BITS,
        );
        let x_over_k = alu.mul(x, &inv_k).shifted_down(SM_FRAC).resized(SM_BITS);
        let prod = alu.mul(&x_over_k, &acc).shifted_down(SM_FRAC).resized(SM_BITS);
        acc = alu.add(&one, &prod).resized(SM_BITS);
    }
    acc
}

/// Execute one query's attention over `keys`/`values` entirely with the
/// hardware algorithms: in-array multiplies, adder-tree reductions, the
/// Taylor exponent, and the divider reciprocal.
///
/// `q` is length-D; `keys` and `values` are `N × D` (row per attended
/// token). All values must lie in `[0, 1)`.
///
/// # Panics
///
/// Panics on empty inputs, mismatched dimensions, or out-of-range values.
pub fn attention_row(q: &[f32], keys: &[Vec<f32>], values: &[Vec<f32>]) -> BankSimResult {
    let d = q.len();
    let n = keys.len();
    assert!(d > 0 && n > 0, "empty attention inputs");
    assert!(keys.iter().all(|k| k.len() == d), "key width mismatch");
    assert_eq!(values.len(), n, "key/value count mismatch");
    assert!(values.iter().all(|v| v.len() == d), "value width mismatch");

    let mut alu = PimAlu::new();
    let qf = quantize(q, ACT_FRAC);
    let q_planes = BitPlanes::from_values(&qf, ACT_FRAC);

    // (a) Scores: per key, point-wise products over the D lanes reduce
    // through the adder tree. Scale by 1/D to keep the exponent argument
    // in Taylor range (standing in for the 1/√d_h score scaling).
    let mut scores_q = Vec::with_capacity(n); // Q4.12
    for key in keys {
        let k_planes = BitPlanes::from_values(&quantize(key, ACT_FRAC), ACT_FRAC);
        let products = alu.mul(&q_planes, &k_planes); // Q0.16 per lane
        let dot = tree_reduce(&products.to_values()); // exact sum
                                                      // Q0.16 × D lanes → scale to Q4.12 and divide by D.
        let score = (dot / d as u128) >> (2 * ACT_FRAC - SM_FRAC);
        scores_q.push(score as u64);
    }

    // (b) Softmax: PIM Taylor exponent on the score lanes…
    let score_planes = BitPlanes::from_values(&scores_q, SM_BITS);
    let exps = exp_taylor_planes(&mut alu, &score_planes, TAYLOR_ORDER);
    // …adder-tree row sum and divider reciprocal…
    let sum_q12 = tree_reduce(&exps.to_values()) as i64; // Q4.12
    let recip_q = recip_q16(sum_q12 << 4); // Q16.16 in, Q16.16 out
                                           // …replicated across the row and multiplied back in the array.
    let recip_q12 = ((recip_q >> 4).max(1)) as u64; // back to Q4.12
    let recip_planes = BitPlanes::from_values(&vec![recip_q12; n], SM_BITS);
    let probs_planes = alu.mul(&exps, &recip_planes).shifted_down(SM_FRAC).resized(SM_BITS);
    let probs: Vec<f32> = probs_planes.to_values().iter().map(|&p| to_f32(p, SM_FRAC)).collect();

    // (c) Weighted values: per output dimension, probability × value
    // products over the N lanes reduce through the adder tree.
    let mut output = Vec::with_capacity(d);
    for dim in 0..d {
        let col: Vec<f32> = values.iter().map(|v| v[dim]).collect();
        let col_planes = BitPlanes::from_values(&quantize(&col, ACT_FRAC), ACT_FRAC);
        let products = alu.mul(&probs_planes, &col_planes); // Q4.20
        let acc = tree_reduce(&products.to_values());
        output.push(acc as f32 / (1u64 << (SM_FRAC + ACT_FRAC)) as f32);
    }

    BankSimResult { output, probs, aaps: alu.trace().aaps }
}

/// f32 reference of the same computation (scaled-dot-product attention with
/// the 1/D score scaling and exact softmax) for tolerance comparison.
pub fn attention_row_reference(q: &[f32], keys: &[Vec<f32>], values: &[Vec<f32>]) -> Vec<f32> {
    let d = q.len();
    let scores: Vec<f32> = keys
        .iter()
        .map(|k| q.iter().zip(k).map(|(&a, &b)| a * b).sum::<f32>() / d as f32)
        .collect();
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scores.iter().map(|&s| (s - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let probs: Vec<f32> = exps.iter().map(|e| e / sum).collect();
    (0..d).map(|dim| probs.iter().zip(values).map(|(&p, v)| p * v[dim]).sum()).collect()
}

/// Analytic AAP count of [`attention_row`] over `n` keys of width `d`,
/// composed from the ALU closed forms ([`transpim_pim::alu::add_aaps`],
/// [`transpim_pim::alu::mul_aaps`]) mirroring the exact command sequence:
/// `n` Q0.8×Q0.8 score multiplies, `TAYLOR_ORDER` Horner rounds of two
/// Q4.12 multiplies plus one add, one probability multiply, and `d` Q4.12 ×
/// Q0.8 weighted-value multiplies. Adder-tree reductions and the divider
/// reciprocal run in the ACU, not the array, so they issue no AAPs.
///
/// The differential fuzz harness pins `attention_row`'s traced count to
/// this prediction for every shape — the bit-accurate datapath and the
/// analytic cost model must never drift apart.
pub fn predicted_aaps(n: usize, d: usize) -> u64 {
    use transpim_pim::alu::{add_aaps, mul_aaps};
    let scores = n as u64 * mul_aaps(ACT_FRAC, ACT_FRAC);
    let taylor = u64::from(TAYLOR_ORDER) * (2 * mul_aaps(SM_BITS, SM_BITS) + add_aaps(SM_BITS));
    let probs = mul_aaps(SM_BITS, SM_BITS);
    let weighted = d as u64 * mul_aaps(SM_BITS, ACT_FRAC);
    scores + taylor + probs + weighted
}

/// Documented fixed-point error budget of [`attention_row`] against
/// [`attention_row_reference`], per output element, for `n` attended keys.
///
/// The dominant terms: the reciprocal is truncated to Q4.12, which costs up
/// to `2⁻¹² · sum ≈ n·e·2⁻¹²` of relative probability error; each of the
/// `n` probabilities is floor-truncated to Q4.12 after the normalization
/// multiply (up to `n·2⁻¹²` absolute across a row); activations quantize to
/// Q0.8 (±2⁻⁹); and the order-5 Taylor exponent is short by at most
/// `e/6! ≈ 0.0038` relative at the top of its `[0,1)` argument range. A
/// constant floor plus a per-key linear term covers all of them with
/// ~2× headroom.
pub fn tolerance(n: usize) -> f32 {
    0.02 + n as f32 * 1.2e-3
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(seed: u64, n: usize, d: usize) -> (Vec<f32>, Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gen_vec =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(0.05f32..0.95)).collect() };
        let q = gen_vec(d);
        let keys = (0..n).map(|_| gen_vec(d)).collect();
        let values = (0..n).map(|_| gen_vec(d)).collect();
        (q, keys, values)
    }

    #[test]
    fn bit_accurate_attention_matches_reference() {
        for seed in 0..5 {
            let (q, k, v) = random_case(seed, 8, 16);
            let hw = attention_row(&q, &k, &v);
            let reference = attention_row_reference(&q, &k, &v);
            for (i, (&h, &r)) in hw.output.iter().zip(&reference).enumerate() {
                assert!((h - r).abs() < 0.02, "seed {seed} dim {i}: hw {h} vs ref {r}");
            }
            assert!(hw.aaps > 0, "the run must have issued in-array commands");
        }
    }

    #[test]
    fn probabilities_form_a_distribution() {
        let (q, k, v) = random_case(42, 12, 8);
        let hw = attention_row(&q, &k, &v);
        let sum: f32 = hw.probs.iter().sum();
        assert!((sum - 1.0).abs() < 0.02, "probs sum {sum}");
        assert!(hw.probs.iter().all(|&p| (0.0..=1.0 + 1e-3).contains(&p)));
    }

    #[test]
    fn uniform_keys_give_uniform_attention() {
        let d = 8;
        let q: Vec<f32> = vec![0.5; d];
        let keys = vec![vec![0.3f32; d]; 4];
        let values: Vec<Vec<f32>> = (0..4).map(|i| vec![0.2 * (i as f32 + 1.0) / 4.0; d]).collect();
        let hw = attention_row(&q, &keys, &values);
        // Equal scores → each prob ≈ 1/4, output ≈ mean of the value rows.
        for &p in &hw.probs {
            assert!((p - 0.25).abs() < 0.01, "prob {p}");
        }
        let expect = (0.05 + 0.10 + 0.15 + 0.20) / 4.0;
        for &o in &hw.output {
            assert!((o - expect).abs() < 0.01, "out {o} vs {expect}");
        }
    }

    #[test]
    fn aap_count_grows_with_problem_size() {
        let (q1, k1, v1) = random_case(1, 4, 8);
        let (q2, k2, v2) = random_case(1, 16, 8);
        let small = attention_row(&q1, &k1, &v1).aaps;
        let large = attention_row(&q2, &k2, &v2).aaps;
        assert!(large > small, "more keys must issue more commands: {small} vs {large}");
    }

    #[test]
    #[should_panic(expected = "in [0,1)")]
    fn out_of_range_inputs_rejected() {
        attention_row(&[1.5], &[vec![0.5]], &[vec![0.5]]);
    }
}
