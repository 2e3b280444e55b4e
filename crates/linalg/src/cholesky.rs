//! Cholesky factorization and SPD-specific routines.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L * L^T`.
///
/// This is the workhorse for Gaussian density evaluation and sampling:
/// `log|A| = 2 * sum(log L_ii)`, Mahalanobis distances are two triangular
/// solves, and `x = mu + L z` maps standard normals to `N(mu, A)`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes an SPD matrix. Returns [`LinalgError::NotPositiveDefinite`]
    /// when a pivot is non-positive (matrix not SPD, or numerically so).
    pub fn new(a: &Matrix) -> Result<Cholesky> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare);
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `a`, retrying with increasing diagonal jitter when the
    /// matrix is only positive *semi*-definite (common for near-degenerate
    /// covariance estimates in EM). Returns the factor and the jitter used.
    pub fn new_regularized(a: &Matrix, base_jitter: f64) -> Result<(Cholesky, f64)> {
        if let Ok(c) = Cholesky::new(a) {
            return Ok((c, 0.0));
        }
        let mut jitter = base_jitter.max(f64::MIN_POSITIVE);
        for _ in 0..20 {
            let mut b = a.clone();
            b.add_diag(jitter);
            if let Ok(c) = Cholesky::new(&b) {
                return Ok((c, jitter));
            }
            jitter *= 10.0;
        }
        Err(LinalgError::NotPositiveDefinite)
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Dimension `n` of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// `log|A| = 2 * sum_i log(L_ii)`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l.get(i, i).ln()).sum::<f64>() * 2.0
    }

    /// Solves `L y = b` in place (forward substitution): `y` holds `b` on
    /// entry and the solution on return. The one forward-substitution kernel
    /// behind [`Cholesky::solve_lower`] and the Mahalanobis distances.
    fn solve_lower_in_place(&self, y: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if y.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_lower",
                left: (n, n),
                right: (y.len(), 1),
            });
        }
        for i in 0..n {
            let row = self.l.row(i);
            let mut sum = y[i];
            for (&l, &yk) in row[..i].iter().zip(&y[..i]) {
                sum -= l * yk;
            }
            y[i] = sum / row[i];
        }
        Ok(())
    }

    /// Solves `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut y = b.to_vec();
        self.solve_lower_in_place(&mut y)?;
        Ok(y)
    }

    /// Solves `L^T x = y` (backward substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if y.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_upper",
                left: (n, n),
                right: (y.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l.get(k, i) * x[k];
            }
            x[i] = sum / self.l.get(i, i);
        }
        Ok(x)
    }

    /// Solves `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let y = self.solve_lower(b)?;
        self.solve_upper(&y)
    }

    /// Squared Mahalanobis distance `d^T A^{-1} d` where `d = x - mu`.
    pub fn mahalanobis_sq(&self, diff: &[f64]) -> Result<f64> {
        self.mahalanobis_sq_in_place(&mut diff.to_vec())
    }

    /// [`Cholesky::mahalanobis_sq`] without allocating: whitens `diff` in
    /// place (`diff ← L⁻¹ diff`) and returns its squared norm.
    pub fn mahalanobis_sq_in_place(&self, diff: &mut [f64]) -> Result<f64> {
        self.solve_lower_in_place(diff)?;
        Ok(diff.iter().map(|&v| v * v).sum())
    }

    /// Inverse of the original SPD matrix.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let col = self.solve(&e)?;
            e[c] = 0.0;
            for (r, &v) in col.iter().enumerate() {
                inv.set(r, c, v);
            }
        }
        Ok(inv)
    }

    /// Maps a standard-normal vector `z` to a sample displacement `L z`, in
    /// place. Row `i` reads `z[..=i]` only, so rows are written last to
    /// first, each summed over `k = 0..=i` in order.
    pub fn transform_standard_normal_into(&self, z: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if z.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "transform_standard_normal",
                left: (n, n),
                right: (z.len(), 1),
            });
        }
        for i in (0..n).rev() {
            let mut sum = 0.0;
            for (&l, &zk) in self.l.row(i)[..=i].iter().zip(&z[..=i]) {
                sum += l * zk;
            }
            z[i] = sum;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B * B^T + I is SPD for any B.
        let b = Matrix::from_vec(3, 3, vec![1.0, 2.0, 0.5, 0.0, 1.0, -1.0, 2.0, 0.0, 1.0]);
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diag(1.0);
        a
    }

    #[test]
    fn factor_roundtrip() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(recon.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn regularized_recovers_psd() {
        // Rank-deficient PSD matrix (outer product of one vector).
        let a = Matrix::outer(&[1.0, 2.0], &[1.0, 2.0]);
        let (c, jitter) = Cholesky::new_regularized(&a, 1e-9).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn log_det_matches_2x2() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
        let c = Cholesky::new(&a).unwrap();
        let det = 4.0 * 3.0 - 1.0;
        assert!((c.log_det() - (det as f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_matches_inverse() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = c.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (bi, yi) in b.iter().zip(&back) {
            assert!((bi - yi).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let inv = c.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // the indexed loop is the reference
    fn forward_substitution_matches_the_textbook_loop_bit_for_bit() {
        let c = Cholesky::new(&spd3()).unwrap();
        let b = vec![0.3, -1.7, 2.25];
        let mut expected = vec![0.0; 3];
        for i in 0..3 {
            let mut sum = b[i];
            for k in 0..i {
                sum -= c.l().get(i, k) * expected[k];
            }
            expected[i] = sum / c.l().get(i, i);
        }
        let mut y = b.clone();
        c.solve_lower_in_place(&mut y).unwrap();
        assert!(y
            .iter()
            .zip(&expected)
            .all(|(a, e)| a.to_bits() == e.to_bits()));
        let maha: f64 = expected.iter().map(|&v| v * v).sum();
        assert_eq!(c.mahalanobis_sq(&b).unwrap().to_bits(), maha.to_bits());
        assert!(c.solve_lower_in_place(&mut [1.0, 2.0]).is_err());
    }

    #[test]
    fn mahalanobis_identity_is_euclidean() {
        let c = Cholesky::new(&Matrix::identity(3)).unwrap();
        let d = vec![1.0, 2.0, 2.0];
        assert!((c.mahalanobis_sq(&d).unwrap() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn transform_standard_normal_shape() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        // L z with z = e1 equals first column of L.
        let mut col = vec![1.0, 0.0, 0.0];
        c.transform_standard_normal_into(&mut col).unwrap();
        for i in 0..3 {
            assert!((col[i] - c.l().get(i, 0)).abs() < 1e-14);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // the indexed loop is the reference
    fn in_place_transform_matches_the_textbook_loop_bit_for_bit() {
        let c = Cholesky::new(&spd3()).unwrap();
        let z = vec![0.7, -1.3, 2.1];
        let mut expected = vec![0.0; 3];
        for i in 0..3 {
            let mut sum = 0.0;
            for k in 0..=i {
                sum += c.l().get(i, k) * z[k];
            }
            expected[i] = sum;
        }
        let mut got = z.clone();
        c.transform_standard_normal_into(&mut got).unwrap();
        assert!(got.iter().zip(&expected).all(|(a, e)| a.to_bits() == e.to_bits()));
        assert!(c.transform_standard_normal_into(&mut [1.0, 2.0]).is_err());
    }
}
