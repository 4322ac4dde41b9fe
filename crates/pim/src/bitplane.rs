//! Bit-plane representation of column-wise (bit-serial) data.
//!
//! A [`BitPlanes`] value models a group of DRAM rows holding `lanes` numbers
//! in bit-serial layout: plane `i` is a row whose bit-column `j` stores bit
//! `i` (LSB-first) of lane `j`'s value. A row-parallel PIM primitive (AND,
//! OR, NOT, MAJ3) operates on whole planes at once, exactly as a triple-row
//! activation does in the real hardware.

use serde::{Deserialize, Serialize};

/// One DRAM row's worth of bits across all lanes, packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plane {
    words: Vec<u64>,
    lanes: usize,
}

impl Plane {
    /// All-zero plane over `lanes` bit-columns.
    pub fn zeros(lanes: usize) -> Self {
        Self { words: vec![0; lanes.div_ceil(64)], lanes }
    }

    /// All-one plane over `lanes` bit-columns.
    pub fn ones(lanes: usize) -> Self {
        let mut p = Self::zeros(lanes);
        for w in &mut p.words {
            *w = u64::MAX;
        }
        p.mask_tail();
        p
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bit of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn get(&self, lane: usize) -> bool {
        assert!(lane < self.lanes, "lane {lane} out of range");
        (self.words[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Set the bit of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes`.
    pub fn set(&mut self, lane: usize, v: bool) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let (w, b) = (lane / 64, lane % 64);
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.lanes % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    fn zip2(&self, other: &Plane, f: impl Fn(u64, u64) -> u64) -> Plane {
        assert_eq!(self.lanes, other.lanes, "plane lane counts differ");
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect();
        let mut p = Plane { words, lanes: self.lanes };
        p.mask_tail();
        p
    }

    /// Row-parallel AND (one AAP in hardware).
    pub fn and(&self, other: &Plane) -> Plane {
        self.zip2(other, |a, b| a & b)
    }

    /// Row-parallel OR (one AAP in hardware).
    pub fn or(&self, other: &Plane) -> Plane {
        self.zip2(other, |a, b| a | b)
    }

    /// Row-parallel NOT via the dual-contact cell (one AAP in hardware).
    pub fn not(&self) -> Plane {
        let words = self.words.iter().map(|&a| !a).collect();
        let mut p = Plane { words, lanes: self.lanes };
        p.mask_tail();
        p
    }

    /// Row-parallel 3-input Boolean majority — the native triple-row
    /// activation primitive of commodity-DRAM PIM (one AAP).
    ///
    /// # Panics
    ///
    /// Panics if the three planes have different lane counts.
    pub fn maj3(&self, b: &Plane, c: &Plane) -> Plane {
        assert!(self.lanes == b.lanes && b.lanes == c.lanes, "plane lane counts differ");
        let words = self
            .words
            .iter()
            .zip(&b.words)
            .zip(&c.words)
            .map(|((&x, &y), &z)| (x & y) | (y & z) | (x & z))
            .collect();
        let mut p = Plane { words, lanes: self.lanes };
        p.mask_tail();
        p
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

/// A vector of `lanes` integers of `bits` width stored bit-serially as
/// `bits` [`Plane`]s (LSB first) — the column-wise data layout of
/// Figure 8(a).
///
/// # Example
///
/// ```
/// use transpim_pim::BitPlanes;
///
/// let v = BitPlanes::from_values(&[3, 5, 250], 8);
/// assert_eq!(v.to_values(), vec![3, 5, 250]);
/// assert_eq!(v.bits(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitPlanes {
    planes: Vec<Plane>,
    lanes: usize,
}

impl BitPlanes {
    /// All-zero value of `bits` planes over `lanes` lanes.
    pub fn zeros(lanes: usize, bits: u32) -> Self {
        Self { planes: (0..bits).map(|_| Plane::zeros(lanes)).collect(), lanes }
    }

    /// Store `values` bit-serially with `bits` planes. Values are truncated
    /// to `bits` (wrapping), matching what the fixed-width layout holds.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    pub fn from_values(values: &[u64], bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "bits must be in 1..=64, got {bits}");
        let mut bp = Self::zeros(values.len(), bits);
        for (lane, &v) in values.iter().enumerate() {
            for b in 0..bits {
                bp.planes[b as usize].set(lane, (v >> b) & 1 == 1);
            }
        }
        bp
    }

    /// Read the values back as unsigned integers.
    pub fn to_values(&self) -> Vec<u64> {
        (0..self.lanes)
            .map(|lane| {
                self.planes
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (b, p)| acc | (u64::from(p.get(lane)) << b))
            })
            .collect()
    }

    /// Number of lanes (values).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bit width (number of planes).
    pub fn bits(&self) -> u32 {
        self.planes.len() as u32
    }

    /// Borrow plane `i` (bit significance `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= bits`.
    pub fn plane(&self, i: u32) -> &Plane {
        &self.planes[i as usize]
    }

    /// Append a plane at the most-significant end (widening the value).
    ///
    /// # Panics
    ///
    /// Panics if lane counts differ.
    pub fn push_plane(&mut self, p: Plane) {
        assert_eq!(p.lanes(), self.lanes, "plane lane count differs");
        self.planes.push(p);
    }

    /// Logical left shift by `k` bits, widening: the result has
    /// `bits + k` planes (used by shift-and-add multiplication, where the
    /// "shift" is just reading from a different row offset — it costs no
    /// DRAM operations).
    pub fn shifted_up(&self, k: u32) -> BitPlanes {
        let mut planes = Vec::with_capacity(self.planes.len() + k as usize);
        for _ in 0..k {
            planes.push(Plane::zeros(self.lanes));
        }
        planes.extend(self.planes.iter().cloned());
        BitPlanes { planes, lanes: self.lanes }
    }

    /// Logical right shift by `k` bits (drop the `k` least-significant
    /// planes) — fixed-point truncation after a multiply. Like
    /// [`BitPlanes::shifted_up`], this is just a row-offset change in the
    /// column-wise layout and costs no DRAM operations.
    pub fn shifted_down(&self, k: u32) -> BitPlanes {
        let k = (k as usize).min(self.planes.len());
        BitPlanes { planes: self.planes[k..].to_vec(), lanes: self.lanes }
    }

    /// Truncate or zero-extend to exactly `bits` planes.
    pub fn resized(&self, bits: u32) -> BitPlanes {
        let mut planes = self.planes.clone();
        planes.resize(bits as usize, Plane::zeros(self.lanes));
        planes.truncate(bits as usize);
        BitPlanes { planes, lanes: self.lanes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_basic() {
        let v = BitPlanes::from_values(&[0, 1, 2, 255, 128], 8);
        assert_eq!(v.to_values(), vec![0, 1, 2, 255, 128]);
    }

    #[test]
    fn from_values_truncates() {
        let v = BitPlanes::from_values(&[256 + 5], 8);
        assert_eq!(v.to_values(), vec![5]);
    }

    #[test]
    fn plane_ops_match_boolean_algebra() {
        let a = BitPlanes::from_values(&[0b1100], 4);
        let b = BitPlanes::from_values(&[0b1010], 4);
        let and: Vec<bool> = (0..4).map(|i| a.plane(i).and(b.plane(i)).get(0)).collect();
        assert_eq!(and, vec![false, false, false, true]);
        let or: Vec<bool> = (0..4).map(|i| a.plane(i).or(b.plane(i)).get(0)).collect();
        assert_eq!(or, vec![false, true, true, true]);
        assert!(a.plane(0).not().get(0));
    }

    #[test]
    fn maj3_truth_table() {
        for bits in 0u8..8 {
            let a = Plane::ones(1);
            let mut x = Plane::zeros(3);
            // three lanes carrying the three inputs in lane 0 of three planes
            let _ = (a, &mut x);
            let inputs = [(bits >> 2) & 1 == 1, (bits >> 1) & 1 == 1, bits & 1 == 1];
            let mk = |v: bool| {
                let mut p = Plane::zeros(1);
                p.set(0, v);
                p
            };
            let m = mk(inputs[0]).maj3(&mk(inputs[1]), &mk(inputs[2]));
            let expected = inputs.iter().filter(|&&b| b).count() >= 2;
            assert_eq!(m.get(0), expected, "inputs {inputs:?}");
        }
    }

    #[test]
    fn not_masks_tail_lanes() {
        let p = Plane::zeros(5);
        assert_eq!(p.not().count_ones(), 5);
    }

    #[test]
    fn shifted_up_multiplies_by_power_of_two() {
        let v = BitPlanes::from_values(&[3, 7], 4);
        let s = v.shifted_up(2);
        assert_eq!(s.bits(), 6);
        assert_eq!(s.to_values(), vec![12, 28]);
    }

    #[test]
    fn shifted_down_divides_by_power_of_two() {
        let v = BitPlanes::from_values(&[12, 29], 8);
        let s = v.shifted_down(2);
        assert_eq!(s.bits(), 6);
        assert_eq!(s.to_values(), vec![3, 7]);
        // Shifting past the width yields an empty (zero) value.
        assert_eq!(v.shifted_down(20).bits(), 0);
    }

    #[test]
    fn resized_extends_and_truncates() {
        let v = BitPlanes::from_values(&[9], 4);
        assert_eq!(v.resized(8).to_values(), vec![9]);
        assert_eq!(v.resized(3).to_values(), vec![1]); // 9 = 0b1001 -> 0b001
    }

    proptest! {
        #[test]
        fn roundtrip_random(values in proptest::collection::vec(0u64..65536, 1..200)) {
            let v = BitPlanes::from_values(&values, 16);
            prop_assert_eq!(v.to_values(), values);
        }

        #[test]
        fn maj3_planewise_matches_per_lane(
            a in proptest::collection::vec(any::<bool>(), 100),
            b in proptest::collection::vec(any::<bool>(), 100),
            c in proptest::collection::vec(any::<bool>(), 100),
        ) {
            let mk = |v: &[bool]| {
                let mut p = Plane::zeros(v.len());
                for (i, &x) in v.iter().enumerate() { p.set(i, x); }
                p
            };
            let m = mk(&a).maj3(&mk(&b), &mk(&c));
            for i in 0..a.len() {
                let expect = [a[i], b[i], c[i]].iter().filter(|&&x| x).count() >= 2;
                prop_assert_eq!(m.get(i), expect);
            }
        }
    }
}
