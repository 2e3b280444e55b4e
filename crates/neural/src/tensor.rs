//! The raw 2-D tensor type and its kernels (no autograd here).

use rand::Rng;

/// A dense row-major 2-D `f32` tensor.
///
/// Row vectors are `(1, n)` tensors; sequences are `(seq_len, d_model)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows x cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Wraps a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// A `(1, n)` row tensor.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let n = data.len();
        Tensor::from_vec(1, n, data)
    }

    /// Uniform random entries in `[-bound, bound]`.
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, bound: f32, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Tensor { rows, cols, data }
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

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product (`funcs::matmul_into`).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch (graph construction bug, not a
    /// runtime data condition).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shapes {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        crate::funcs::matmul_into(&self.data, self.rows, other, &mut out.data);
        out
    }

    /// Transpose (blocked: reads and writes stay within an L1-sized tile).
    pub fn transpose(&self) -> Tensor {
        const TB: usize = 32;
        let mut out = Tensor::zeros(self.cols, self.rows);
        for rb in (0..self.rows).step_by(TB) {
            let r_end = (rb + TB).min(self.rows);
            for cb in (0..self.cols).step_by(TB) {
                let c_end = (cb + TB).min(self.cols);
                for r in rb..r_end {
                    for c in cb..c_end {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "mul shape mismatch");
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds a `(1, cols)` row vector to every row.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (d, &b) in out.row_mut(r).iter_mut().zip(&row.data) {
                *d += b;
            }
        }
        out
    }

    /// Scales every entry.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` pairwise with `other`.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place `self += other * s`.
    pub fn add_scaled_assign(&mut self, other: &Tensor, s: f32) {
        assert_eq!(self.shape(), other.shape());
        for (d, &o) in self.data.iter_mut().zip(&other.data) {
            *d += o * s;
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Row-wise softmax ([`crate::funcs::softmax_row`] per row).
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        for r in 0..out.rows {
            crate::funcs::softmax_row(out.row_mut(r));
        }
        out
    }

    /// Extracts columns `[start, start+width)` into a new tensor.
    pub fn slice_cols(&self, start: usize, width: usize) -> Tensor {
        assert!(start + width <= self.cols, "slice out of bounds");
        let mut out = Tensor::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r)
                .copy_from_slice(&self.row(r)[start..start + width]);
        }
        out
    }

    /// Stacks tensors horizontally (same row counts).
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let mut off = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "concat row mismatch");
                out.row_mut(r)[off..off + p.cols].copy_from_slice(p.row(r));
                off += p.cols;
            }
        }
        out
    }

    /// L2 norm of all entries.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Fills with zeros in place.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.matmul(&b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn softmax_rows_normalizes() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.get(0, 2) > s.get(0, 0));
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let t = Tensor::from_vec(1, 2, vec![1000.0, 999.0]);
        let s = t.softmax_rows();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn broadcast_add() {
        let t = Tensor::zeros(2, 3);
        let b = Tensor::row_vector(vec![1.0, 2.0, 3.0]);
        let out = t.add_row_broadcast(&b);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let t = Tensor::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let a = t.slice_cols(0, 2);
        let b = t.slice_cols(2, 2);
        let back = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(back, t);
    }

    #[test]
    fn l2_norm() {
        let t = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((t.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn transpose_blocked_partial_tiles() {
        let t = Tensor::from_vec(45, 33, (0..45 * 33).map(|i| i as f32).collect());
        let tt = t.transpose();
        for r in 0..45 {
            for c in 0..33 {
                assert_eq!(tt.get(c, r), t.get(r, c));
            }
        }
    }

    #[test]
    fn large_matmul_is_thread_count_independent() {
        use std::sync::Arc;
        let a = Tensor::from_vec(80, 70, (0..80 * 70).map(|i| (i as f32).sin()).collect());
        let b = Tensor::from_vec(70, 60, (0..70 * 60).map(|i| (i as f32).cos()).collect());
        let run = |threads: usize| {
            parallel::with_pool(Arc::new(parallel::ThreadPool::new(threads)), || a.matmul(&b))
        };
        let serial = run(1);
        for threads in [2, 8] {
            let par = run(threads);
            assert!(
                serial
                    .as_slice()
                    .iter()
                    .zip(par.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "matmul differs at {threads} threads"
            );
        }
    }
}
