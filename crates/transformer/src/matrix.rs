//! A small dense row-major f32 matrix kernel.
//!
//! Deliberately minimal: just the operations Transformer inference needs
//! (matmul, matmul against a transpose, row slicing/concatenation,
//! point-wise maps), implemented so the sharded dataflow and the monolithic
//! reference share identical inner-loop summation order along the
//! contraction dimension.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Rows per parallel job in the blocked kernels. One job covers
/// `ROW_BLOCK` output rows, so submitting `rows / ROW_BLOCK` jobs to the
/// pool load-balances without slicing rows across workers.
const ROW_BLOCK: usize = 64;

/// Contraction-dimension block: the rows of `other` touched by one block
/// fit in L1/L2 and are reused across every row of the job's row block.
const K_BLOCK: usize = 256;

/// Multiply-add count below which the kernels stay single-threaded.
const PAR_FLOP_THRESHOLD: usize = 1 << 21;

/// Row-major dense matrix of `f32`.
///
/// # Example
///
/// ```
/// use transpim_transformer::Matrix;
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Self { rows: rows.len(), cols, data: rows.concat() }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of rows `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.rows, "bad row range {lo}..{hi}");
        Matrix {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }

    /// Copy of columns `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.cols, "bad col range {lo}..{hi}");
        Matrix::from_fn(self.rows, hi - lo, |r, c| self[(r, lo + c)])
    }

    /// Vertical concatenation.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vcat(parts: &[Matrix]) -> Matrix {
        let cols = parts.first().map_or(0, Matrix::cols);
        assert!(parts.iter().all(|p| p.cols == cols), "column mismatch in vcat");
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Append `other`'s rows in place.
    ///
    /// Amortized O(rows of `other`): the backing vector grows
    /// geometrically, so repeated appends (a decoder's per-token K/V
    /// cache growth) cost O(total rows) overall instead of the O(total²)
    /// of rebuilding through [`Matrix::vcat`]. The result is bitwise
    /// identical to `Matrix::vcat(&[self, other])`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ (a 0×0 `self` adopts `other`'s
    /// column count).
    pub fn push_rows(&mut self, other: &Matrix) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = other.cols;
        }
        assert_eq!(self.cols, other.cols, "column mismatch in push_rows");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Pre-reserve capacity for `additional` more rows (a decoder that
    /// knows its decode length can make every subsequent
    /// [`Matrix::push_rows`] allocation-free).
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols);
    }

    /// Horizontal concatenation.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hcat(parts: &[Matrix]) -> Matrix {
        let rows = parts.first().map_or(0, Matrix::rows);
        assert!(parts.iter().all(|p| p.rows == rows), "row mismatch in hcat");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut at = 0;
            for p in parts {
                out.row_mut(r)[at..at + p.cols].copy_from_slice(p.row(r));
                at += p.cols;
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// `self × other`.
    ///
    /// Cache-blocked over the contraction dimension and parallelized over
    /// row blocks (via `transpim-par`) above 2^21 multiply-adds.
    /// Every output element accumulates its products in ascending `k`
    /// order regardless of blocking or thread count, so results are
    /// bitwise identical to the naive triple loop and to a serial run.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch {:?} × {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let cols = other.cols;
        if self.rows == 0 || cols == 0 || self.cols == 0 {
            return out;
        }
        let threads = self.kernel_threads(self.rows * self.cols * cols);
        transpim_par::for_each_chunk_mut(
            threads,
            &mut out.data,
            ROW_BLOCK * cols,
            |start, chunk| {
                self.matmul_rows_into(other, start / cols, chunk);
            },
        );
        out
    }

    /// Compute output rows `row0..row0 + chunk.len()/other.cols` of
    /// `self × other` into `chunk`. `k` is blocked so the touched rows of
    /// `other` stay cache-resident across the row block; blocks advance in
    /// ascending `k`, preserving the exact per-element summation order.
    fn matmul_rows_into(&self, other: &Matrix, row0: usize, chunk: &mut [f32]) {
        let cols = other.cols;
        let rows = chunk.len() / cols;
        for kb in (0..self.cols).step_by(K_BLOCK) {
            let kb_end = (kb + K_BLOCK).min(self.cols);
            for r in 0..rows {
                let a_row = self.row(row0 + r);
                let out_row = &mut chunk[r * cols..(r + 1) * cols];
                for (k, &a) in a_row.iter().enumerate().take(kb_end).skip(kb) {
                    let b_row = other.row(k);
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
        }
    }

    /// `self × otherᵀ` — attention scores `Q Kᵀ` without materializing the
    /// transpose. The contraction runs along the shared column dimension in
    /// index order, identical to the sharded execution; each dot product
    /// lives entirely in one job, so threading never reorders a sum.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transb(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_transb shape mismatch {:?} × {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        let cols = other.rows;
        if self.rows == 0 || cols == 0 {
            return out;
        }
        let threads = self.kernel_threads(self.rows * self.cols * cols);
        transpim_par::for_each_chunk_mut(
            threads,
            &mut out.data,
            ROW_BLOCK * cols,
            |start, chunk| {
                let row0 = start / cols;
                let rows = chunk.len() / cols;
                // `j` outer keeps `other.row(j)` hot across the whole row block.
                for j in 0..cols {
                    let b_row = other.row(j);
                    for r in 0..rows {
                        let a_row = self.row(row0 + r);
                        chunk[r * cols + j] = a_row.iter().zip(b_row).map(|(&a, &b)| a * b).sum();
                    }
                }
            },
        );
        out
    }

    /// Worker count for a kernel of `flops` multiply-adds: single-threaded
    /// below [`PAR_FLOP_THRESHOLD`] (spawn overhead dominates the small
    /// matrices unit tests use), the pool default above it.
    fn kernel_threads(&self, flops: usize) -> usize {
        if flops >= PAR_FLOP_THRESHOLD {
            transpim_par::max_threads()
        } else {
            1
        }
    }

    /// Point-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Point-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Largest absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Largest absolute element-wise difference from `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data.iter().zip(&other.data).fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// True when every element differs from `other` by at most
    /// `abs_tol + rel_tol·|other|`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn approx_eq(&self, other: &Matrix, abs_tol: f32, rel_tol: f32) -> bool {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .all(|(&a, &b)| (a - b).abs() <= abs_tol + rel_tol * b.abs())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range {:?}", self.shape());
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range {:?}", self.shape());
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:8.4}")).collect();
            writeln!(f, "  [{}{}]", shown.join(", "), if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_transb_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.3 - 1.0);
        let b = Matrix::from_fn(4, 5, |r, c| (r as f32) - (c as f32) * 0.1);
        let direct = a.matmul_transb(&b);
        let via_t = a.matmul(&b.transpose());
        assert!(direct.max_abs_diff(&via_t) < 1e-5);
    }

    #[test]
    fn slicing_and_concat_roundtrip() {
        let m = Matrix::from_fn(6, 4, |r, c| (r * 4 + c) as f32);
        let top = m.slice_rows(0, 3);
        let bottom = m.slice_rows(3, 6);
        assert_eq!(Matrix::vcat(&[top, bottom]), m);
        let left = m.slice_cols(0, 2);
        let right = m.slice_cols(2, 4);
        assert_eq!(Matrix::hcat(&[left, right]), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 7, |r, c| (r + 2 * c) as f32);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn identity_is_neutral() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * c) as f32 + 1.0);
        assert_eq!(m.matmul(&Matrix::identity(4)), m);
        assert_eq!(Matrix::identity(4).matmul(&m), m);
    }

    #[test]
    fn approx_eq_tolerances() {
        let a = Matrix::from_rows(&[vec![1.0, 100.0]]);
        let b = Matrix::from_rows(&[vec![1.0005, 100.05]]);
        assert!(a.approx_eq(&b, 1e-3, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5, 1e-6));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    /// Naive i→k→j reference: the exact pre-blocking implementation.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            let a_row = a.row(i);
            let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (k, &av) in a_row.iter().enumerate() {
                let b_row = b.row(k);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    #[test]
    fn blocked_parallel_matmul_is_bitwise_identical() {
        // 160×300 × 300×170 ≈ 8.2M MACs — crosses PAR_FLOP_THRESHOLD, so
        // this exercises the blocked kernel on multiple pool workers and
        // multiple k-blocks (300 > K_BLOCK). Equality is exact (`==` on
        // f32 data), not approximate: blocking and threading must not
        // perturb a single summation order.
        let a = Matrix::from_fn(160, 300, |r, c| ((r * 31 + c * 17) % 23) as f32 * 0.37 - 4.0);
        let b = Matrix::from_fn(300, 170, |r, c| ((r * 13 + c * 29) % 19) as f32 * 0.21 - 2.0);
        assert_eq!(a.matmul(&b), matmul_naive(&a, &b));

        let bt = Matrix::from_fn(170, 300, |r, c| ((r * 7 + c * 11) % 17) as f32 * 0.43 - 3.0);
        let reference = Matrix::from_fn(a.rows, bt.rows, |i, j| {
            a.row(i).iter().zip(bt.row(j)).map(|(&x, &y)| x * y).sum()
        });
        assert_eq!(a.matmul_transb(&bt), reference);
    }

    #[test]
    fn blocked_matmul_handles_degenerate_shapes() {
        let empty = Matrix::zeros(0, 5).matmul(&Matrix::zeros(5, 3));
        assert_eq!(empty.shape(), (0, 3));
        let inner_empty = Matrix::zeros(2, 0).matmul(&Matrix::zeros(0, 3));
        assert_eq!(inner_empty, Matrix::zeros(2, 3));
        let skinny = Matrix::zeros(3, 4).matmul_transb(&Matrix::zeros(0, 4));
        assert_eq!(skinny.shape(), (3, 0));
    }

    #[test]
    fn push_rows_matches_vcat_bitwise() {
        // The in-place grow path must be indistinguishable from rebuild-
        // by-vcat, including starting from the 0-row shard shapes the
        // KV caches use.
        let chunks: Vec<Matrix> = (0..5)
            .map(|i| Matrix::from_fn(i % 3 + 1, 4, |r, c| (i * 100 + r * 10 + c) as f32 * 0.25))
            .collect();
        let mut grown = Matrix::zeros(0, 4);
        grown.reserve_rows(16);
        for ch in &chunks {
            grown.push_rows(ch);
        }
        assert_eq!(grown, Matrix::vcat(&chunks));
        assert_eq!(grown.as_slice(), Matrix::vcat(&chunks).as_slice());

        let mut adopt = Matrix::zeros(0, 0);
        adopt.push_rows(&chunks[0]);
        assert_eq!(adopt, chunks[0]);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn push_rows_rejects_width_mismatch() {
        let mut m = Matrix::zeros(0, 3);
        m.push_rows(&Matrix::zeros(2, 4));
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", Matrix::zeros(2, 2));
        assert!(s.contains("Matrix 2×2"));
    }

    proptest! {
        #[test]
        fn matmul_associates_with_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u32..1000) {
            let m = Matrix::from_fn(rows, cols, |r, c| ((r * 31 + c * 17 + seed as usize) % 13) as f32 - 6.0);
            prop_assert_eq!(m.matmul(&Matrix::identity(cols)), m);
        }

        #[test]
        fn vcat_slice_roundtrip(rows in 2usize..8, cols in 1usize..6, split in 1usize..7) {
            let split = split.min(rows - 1);
            let m = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32);
            let parts = [m.slice_rows(0, split), m.slice_rows(split, rows)];
            prop_assert_eq!(Matrix::vcat(&parts), m);
        }
    }
}
