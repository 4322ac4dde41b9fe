//! Symmetric fixed-point quantization.
//!
//! The paper runs FC and FFN layers at 8-bit precision (citing GOBO's
//! finding that this suffices for Transformers) and Softmax at 16 bits to
//! cover the exponential's range. This module provides symmetric per-tensor
//! int8 quantization, which is what the bit-serial PIM layout stores (sign
//! handled as two's complement in the bit-planes); [`fake_quant`] applies
//! its error to f32 weights.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A quantized matrix: int8 values plus a per-tensor scale such that
/// `real ≈ value × scale`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    /// Dequantization scale.
    pub scale: f32,
}

impl QuantMatrix {
    /// Quantize `m` symmetrically to int8 (scale = max|x| / 127).
    pub fn quantize(m: &Matrix) -> Self {
        let max = m.max_abs();
        let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
        let data =
            m.as_slice().iter().map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8).collect();
        Self { rows: m.rows(), cols: m.cols(), data, scale }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw quantized value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> i8 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Dequantize back to f32.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f32::from(v) * self.scale).collect(),
        )
    }
}

/// Quantize → dequantize, the error the int8 path introduces.
pub fn fake_quant(m: &Matrix) -> Matrix {
    QuantMatrix::quantize(m).dequantize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let m = Matrix::from_fn(4, 4, |r, c| (r as f32 - 1.5) * (c as f32 + 0.25));
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize();
        assert!(m.max_abs_diff(&back) <= q.scale * 0.5 + 1e-6);
    }

    #[test]
    fn zero_matrix_quantizes_cleanly() {
        let q = QuantMatrix::quantize(&Matrix::zeros(3, 3));
        assert_eq!(q.dequantize(), Matrix::zeros(3, 3));
        assert_eq!(q.scale, 1.0);
    }

    proptest! {
        #[test]
        fn quant_values_in_range(vals in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            let n = vals.len();
            let m = Matrix::from_vec(1, n, vals);
            let q = QuantMatrix::quantize(&m);
            for c in 0..n {
                prop_assert!(q.get(0, c) >= -127); // i8 ⇒ upper bound is the type
            }
        }

        #[test]
        fn fake_quant_idempotent(vals in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
            let m = Matrix::from_vec(1, vals.len(), vals);
            let once = fake_quant(&m);
            let twice = fake_quant(&once);
            prop_assert!(once.max_abs_diff(&twice) <= once.max_abs() * 0.005 + 1e-6);
        }
    }
}
