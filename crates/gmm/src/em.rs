//! EM sufficient statistics and the paper's incremental update (Eq. 8–9).
//!
//! The rejection test (Section V) must re-estimate the synthesized
//! `O`-distribution every time an entity is added. Refitting by full EM is
//! quadratic in the number of synthesized pairs; the paper instead keeps the
//! E-step responsibilities folded into per-component sufficient statistics
//! and *adds* the new points' contributions (Eq. 8 computes their
//! responsibilities under the current parameters; Eq. 9 merges them).
//!
//! We store the statistics in second-moment form, which makes Eq. 9 a pure
//! accumulation:
//!
//! ```text
//! Γ_k = Σ_i γ_ik            (total responsibility)
//! m_k = Σ_i γ_ik x_i        (weighted sum)
//! S_k = Σ_i γ_ik x_i x_i^T  (weighted second moment)
//!
//! π_k = Γ_k / n,   μ_k = m_k / Γ_k,   Σ_k = S_k / Γ_k − μ_k μ_k^T
//! ```
//!
//! The covariance identity `Σ γ (x−μ)(x−μ)^T / Γ = S/Γ − μμ^T` holds exactly
//! when `μ = m/Γ`, so merging `(Γ, m, S)` of old and new points reproduces
//! Eq. 9's recomputed mean and covariance without revisiting old points.

use linalg::Matrix;

/// Per-component EM sufficient statistics in second-moment form.
#[derive(Debug, Clone)]
pub struct SuffStats {
    /// Total responsibility `Γ_k` per component.
    pub gamma: Vec<f64>,
    /// Responsibility-weighted sums `m_k` per component.
    pub sum_x: Vec<Vec<f64>>,
    /// Responsibility-weighted second moments `S_k` per component.
    pub sum_xx: Vec<Matrix>,
    /// Total number of points folded in.
    pub n: f64,
}

impl SuffStats {
    /// Empty statistics for `g` components of dimension `d`.
    pub fn zeros(g: usize, d: usize) -> Self {
        SuffStats {
            gamma: vec![0.0; g],
            sum_x: vec![vec![0.0; d]; g],
            sum_xx: vec![Matrix::zeros(d, d); g],
            n: 0.0,
        }
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.gamma.len()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.sum_x.first().map_or(0, Vec::len)
    }

    /// Folds one point with responsibilities `resp` (one weight per
    /// component, summing to 1) into the statistics.
    pub fn add_point(&mut self, x: &[f64], resp: &[f64]) {
        debug_assert_eq!(resp.len(), self.components());
        debug_assert_eq!(x.len(), self.dim());
        for (k, &r) in resp.iter().enumerate() {
            if r == 0.0 {
                continue;
            }
            self.gamma[k] += r;
            for (s, &xi) in self.sum_x[k].iter_mut().zip(x) {
                *s += r * xi;
            }
            let d = x.len();
            let sxx = self.sum_xx[k].as_mut_slice();
            for (i, &xi) in x.iter().enumerate() {
                let rxi = r * xi;
                for (s, &xj) in sxx[i * d..(i + 1) * d].iter_mut().zip(x) {
                    *s += rxi * xj;
                }
            }
        }
        self.n += 1.0;
    }

    /// Merges another set of statistics in place (Eq. 9's accumulation).
    pub fn merge(&mut self, other: &SuffStats) {
        assert_eq!(self.components(), other.components());
        for k in 0..self.components() {
            self.gamma[k] += other.gamma[k];
            for (s, &o) in self.sum_x[k].iter_mut().zip(&other.sum_x[k]) {
                *s += o;
            }
            assert_eq!(
                self.sum_xx[k].shape(),
                other.sum_xx[k].shape(),
                "same dimensions"
            );
            let sxx = self.sum_xx[k].as_mut_slice();
            for (s, &o) in sxx.iter_mut().zip(other.sum_xx[k].as_slice()) {
                *s += o;
            }
        }
        self.n += other.n;
    }

    /// Extracts `(π_k, μ_k, Σ_k)` for component `k`. Returns `None` when the
    /// component has (numerically) no mass.
    pub fn component_params(&self, k: usize, reg_covar: f64) -> Option<(f64, Vec<f64>, Matrix)> {
        let g = self.gamma[k];
        if g < 1e-12 || self.n == 0.0 {
            return None;
        }
        let weight = g / self.n;
        let mean: Vec<f64> = self.sum_x[k].iter().map(|&s| s / g).collect();
        let d = mean.len();
        let mut cov = self.sum_xx[k].scale(1.0 / g);
        for i in 0..d {
            for j in 0..d {
                let v = cov.get(i, j) - mean[i] * mean[j];
                cov.set(i, j, v);
            }
        }
        cov.symmetrize();
        cov.add_diag(reg_covar);
        Some((weight, mean, cov))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_component_recovers_sample_moments() {
        let mut st = SuffStats::zeros(1, 2);
        let pts = [[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]];
        for p in &pts {
            st.add_point(p, &[1.0]);
        }
        let (w, mean, cov) = st.component_params(0, 0.0).unwrap();
        assert!((w - 1.0).abs() < 1e-12);
        assert!((mean[0] - 3.0).abs() < 1e-12);
        assert!((mean[1] - 2.0).abs() < 1e-12);
        // Population covariance of x: E[x^2] - mean^2 = (1+9+25)/3 - 9 = 8/3
        assert!((cov.get(0, 0) - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_bulk() {
        let pts: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![i as f64, (i * i) as f64 / 10.0])
            .collect();
        let resp = |x: &[f64]| {
            let r = (x[0] / 10.0).clamp(0.05, 0.95);
            vec![r, 1.0 - r]
        };

        let mut bulk = SuffStats::zeros(2, 2);
        for p in &pts {
            bulk.add_point(p, &resp(p));
        }

        let mut first = SuffStats::zeros(2, 2);
        for p in &pts[..6] {
            first.add_point(p, &resp(p));
        }
        let mut second = SuffStats::zeros(2, 2);
        for p in &pts[6..] {
            second.add_point(p, &resp(p));
        }
        first.merge(&second);

        for k in 0..2 {
            assert!((bulk.gamma[k] - first.gamma[k]).abs() < 1e-10);
            let (_, mb, cb) = bulk.component_params(k, 0.0).unwrap();
            let (_, mf, cf) = first.component_params(k, 0.0).unwrap();
            for (a, b) in mb.iter().zip(&mf) {
                assert!((a - b).abs() < 1e-10);
            }
            assert!(cb.max_abs_diff(&cf) < 1e-9);
        }
    }

    #[test]
    fn empty_component_yields_none() {
        let st = SuffStats::zeros(2, 2);
        assert!(st.component_params(0, 1e-6).is_none());
    }
}
