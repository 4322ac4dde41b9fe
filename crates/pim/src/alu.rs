//! Majority-based bit-serial arithmetic on [`BitPlanes`], with exact AAP
//! accounting.
//!
//! The full adder uses the Boolean-majority identity the paper inherits from
//! Ali et al. ("In-memory low-cost bit-serial addition"):
//!
//! ```text
//! carry_out = MAJ3(a, b, carry_in)
//! sum       = MAJ3(NOT(carry_out), MAJ3(a, b, NOT(carry_in)), carry_in)
//! ```
//!
//! which needs 5 row-level primitives (2 NOT + 3 MAJ3) per bit — each one an
//! activate-activate-precharge (AAP) command sequence in the DRAM. The
//! multiplier is shift-and-add over partial products; the shift itself is
//! free (it is just a different destination row offset in the column-wise
//! layout).

use crate::bitplane::{BitPlanes, Plane};
use serde::{Deserialize, Serialize};

/// Count of in-DRAM command sequences issued by an ALU operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AapTrace {
    /// Triple-row-activation logic primitives (AND/OR/NOT/MAJ3), one AAP each.
    pub aaps: u64,
}

impl AapTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The bit-serial ALU. Stateless apart from the running [`AapTrace`];
/// operations are free functions over bit-planes with exact op counting.
///
/// # Example
///
/// ```
/// use transpim_pim::{BitPlanes, PimAlu};
///
/// let mut alu = PimAlu::new();
/// let a = BitPlanes::from_values(&[100, 200], 8);
/// let b = BitPlanes::from_values(&[27, 99], 8);
/// let sum = alu.add(&a, &b);
/// assert_eq!(sum.to_values(), vec![127, 299]);
/// assert_eq!(alu.trace().aaps, 5 * 8); // 5 AAPs per operand bit
/// ```
#[derive(Debug, Clone, Default)]
pub struct PimAlu {
    trace: AapTrace,
}

impl PimAlu {
    /// New ALU with an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Commands issued so far.
    pub fn trace(&self) -> AapTrace {
        self.trace
    }

    /// Reset the command counter.
    pub fn reset_trace(&mut self) {
        self.trace = AapTrace::new();
    }

    fn maj3(&mut self, a: &Plane, b: &Plane, c: &Plane) -> Plane {
        self.trace.aaps += 1;
        a.maj3(b, c)
    }

    fn not(&mut self, a: &Plane) -> Plane {
        self.trace.aaps += 1;
        a.not()
    }

    fn and(&mut self, a: &Plane, b: &Plane) -> Plane {
        self.trace.aaps += 1;
        a.and(b)
    }

    /// Full-adder step: returns `(sum, carry_out)` using 5 AAPs.
    fn full_add(&mut self, a: &Plane, b: &Plane, cin: &Plane) -> (Plane, Plane) {
        let n_cin = self.not(cin);
        let m1 = self.maj3(a, b, &n_cin);
        let cout = self.maj3(a, b, cin);
        let n_cout = self.not(&cout);
        let sum = self.maj3(&n_cout, &m1, cin);
        (sum, cout)
    }

    /// Unsigned bit-serial addition. The result is one bit wider than the
    /// wider operand (no overflow). Operands of different widths are
    /// zero-extended.
    pub fn add(&mut self, a: &BitPlanes, b: &BitPlanes) -> BitPlanes {
        assert_eq!(a.lanes(), b.lanes(), "lane counts differ");
        let bits = a.bits().max(b.bits());
        let (a, b) = (a.resized(bits), b.resized(bits));
        let mut out = BitPlanes::zeros(a.lanes(), 0);
        let mut carry = Plane::zeros(a.lanes()); // reserved all-zero row: free
        for i in 0..bits {
            let (sum, cout) = self.full_add(a.plane(i), b.plane(i), &carry);
            out.push_plane(sum);
            carry = cout;
        }
        out.push_plane(carry);
        out
    }

    /// Unsigned shift-and-add multiplication: the result has
    /// `a.bits() + b.bits()` planes, so it is exact.
    ///
    /// For each multiplier bit `i`, the partial product is the AND of every
    /// plane of `a` with plane `i` of `b` (`a.bits()` AAPs), accumulated at
    /// offset `i`. The accumulation reuses [`PimAlu::add`] on the
    /// overlapping planes only.
    pub fn mul(&mut self, a: &BitPlanes, b: &BitPlanes) -> BitPlanes {
        assert_eq!(a.lanes(), b.lanes(), "lane counts differ");
        let out_bits = a.bits() + b.bits();
        let mut acc = BitPlanes::zeros(a.lanes(), out_bits);
        for i in 0..b.bits() {
            // Partial product: a & b_i, one AAP per plane of a.
            let mut pp = BitPlanes::zeros(a.lanes(), 0);
            for j in 0..a.bits() {
                let p = self.and(a.plane(j), b.plane(i));
                pp.push_plane(p);
            }
            let shifted = pp.shifted_up(i).resized(out_bits);
            acc = self.add(&acc, &shifted).resized(out_bits);
        }
        acc
    }
}

/// Number of AAPs issued by [`PimAlu::add`] on `bits`-wide operands.
/// The cost model uses this closed form; the tests pin it to the ALU.
pub fn add_aaps(bits: u32) -> u64 {
    5 * u64::from(bits)
}

/// Number of AAPs issued by [`PimAlu::mul`] on `a_bits` × `b_bits` operands.
pub fn mul_aaps(a_bits: u32, b_bits: u32) -> u64 {
    // Per multiplier bit: a_bits partial-product ANDs + a full-width add.
    u64::from(b_bits) * (u64::from(a_bits) + add_aaps(a_bits + b_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_small_exact() {
        let mut alu = PimAlu::new();
        let a = BitPlanes::from_values(&[255, 0, 17], 8);
        let b = BitPlanes::from_values(&[1, 0, 4], 8);
        assert_eq!(alu.add(&a, &b).to_values(), vec![256, 0, 21]);
    }

    #[test]
    fn add_mixed_widths_zero_extends() {
        let mut alu = PimAlu::new();
        let a = BitPlanes::from_values(&[15], 4);
        let b = BitPlanes::from_values(&[240], 8);
        assert_eq!(alu.add(&a, &b).to_values(), vec![255]);
    }

    #[test]
    fn mul_small_exact() {
        let mut alu = PimAlu::new();
        let a = BitPlanes::from_values(&[12, 255, 0], 8);
        let b = BitPlanes::from_values(&[12, 255, 9], 8);
        assert_eq!(alu.mul(&a, &b).to_values(), vec![144, 65025, 0]);
    }

    #[test]
    fn aap_counts_match_closed_forms() {
        let mut alu = PimAlu::new();
        let a = BitPlanes::from_values(&[3], 8);
        let b = BitPlanes::from_values(&[5], 8);
        alu.add(&a, &b);
        assert_eq!(alu.trace().aaps, add_aaps(8));

        alu.reset_trace();
        alu.mul(&a, &b);
        assert_eq!(alu.trace().aaps, mul_aaps(8, 8));

        // 16-bit values as used by the Softmax path.
        let a = BitPlanes::from_values(&[1000], 16);
        let b = BitPlanes::from_values(&[2000], 16);
        alu.reset_trace();
        alu.mul(&a, &b);
        assert_eq!(alu.trace().aaps, mul_aaps(16, 16));
    }

    proptest! {
        #[test]
        fn add_matches_integer_addition(
            a in proptest::collection::vec(0u64..65536, 1..64),
            b in proptest::collection::vec(0u64..65536, 1..64),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let mut alu = PimAlu::new();
            let pa = BitPlanes::from_values(a, 16);
            let pb = BitPlanes::from_values(b, 16);
            let sum = alu.add(&pa, &pb);
            let expect: Vec<u64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
            prop_assert_eq!(sum.to_values(), expect);
        }

        #[test]
        fn mul_matches_integer_multiplication(
            a in proptest::collection::vec(0u64..256, 1..32),
            b in proptest::collection::vec(0u64..256, 1..32),
        ) {
            let n = a.len().min(b.len());
            let (a, b) = (&a[..n], &b[..n]);
            let mut alu = PimAlu::new();
            let pa = BitPlanes::from_values(a, 8);
            let pb = BitPlanes::from_values(b, 8);
            let prod = alu.mul(&pa, &pb);
            let expect: Vec<u64> = a.iter().zip(b).map(|(x, y)| x * y).collect();
            prop_assert_eq!(prod.to_values(), expect);
        }

        #[test]
        fn mul_aap_count_matches_closed_form(a_bits in 1u32..12, b_bits in 1u32..12) {
            let mut alu = PimAlu::new();
            let a = BitPlanes::from_values(&[1], a_bits);
            let b = BitPlanes::from_values(&[1], b_bits);
            alu.mul(&a, &b);
            prop_assert_eq!(alu.trace().aaps, mul_aaps(a_bits, b_bits));
        }
    }
}
