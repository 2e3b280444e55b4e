//! A single multivariate Gaussian component.

use crate::{GmmError, Result};
use linalg::{Cholesky, Matrix};
use rand::Rng;

pub(crate) const LN_2PI: f64 = 1.837877066409345483560659472811;

// `rand` 0.8 ships the Gaussian sampler in the separate `rand_distr` crate;
// Box–Muller below keeps the dependency tree at just `rand`.

/// Draws one standard-normal sample via the Box–Muller transform.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard against log(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Fills `out` with standard normals, in order.
pub(crate) fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    for z in out.iter_mut() {
        *z = standard_normal(rng);
    }
}

/// A multivariate normal `N(mu, Sigma)` with a cached Cholesky factor of the
/// (regularized) covariance.
#[derive(Debug, Clone)]
pub struct Gaussian {
    mean: Vec<f64>,
    cov: Matrix,
    chol: Cholesky,
    log_norm: f64,
}

impl Gaussian {
    /// Builds a Gaussian, regularizing the covariance with growing diagonal
    /// jitter if it is not numerically positive definite.
    pub fn new(mean: Vec<f64>, mut cov: Matrix) -> Result<Self> {
        if cov.rows() != mean.len() || cov.cols() != mean.len() {
            return Err(GmmError::DimensionMismatch {
                expected: mean.len(),
                got: cov.rows(),
            });
        }
        cov.symmetrize();
        let (chol, jitter) = Cholesky::new_regularized(&cov, 1e-9)?;
        if jitter > 0.0 {
            cov.add_diag(jitter);
        }
        let d = mean.len() as f64;
        let log_norm = -0.5 * (d * LN_2PI + chol.log_det());
        Ok(Gaussian {
            mean,
            cov,
            chol,
            log_norm,
        })
    }

    /// An isotropic Gaussian (used for EM initialization).
    pub fn isotropic(mean: Vec<f64>, var: f64) -> Result<Self> {
        let d = mean.len();
        let cov = Matrix::from_diag(&vec![var.max(1e-9); d]);
        Gaussian::new(mean, cov)
    }

    /// Mean vector.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Covariance matrix (after any regularization).
    pub fn cov(&self) -> &Matrix {
        &self.cov
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Log-density at `x`.
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        self.log_pdf_with(x, &mut vec![0.0; self.dim()])
    }

    /// [`Gaussian::log_pdf`] over a caller's scratch buffer of length
    /// [`Gaussian::dim`], which receives the whitened difference. Allocates
    /// nothing, so EM can evaluate every point of a chunk with one buffer.
    pub(crate) fn log_pdf_with(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        assert_eq!(x.len(), self.mean.len(), "point dimension");
        for ((s, &a), &m) in scratch.iter_mut().zip(x).zip(&self.mean) {
            *s = a - m;
        }
        let maha = self
            .chol
            .mahalanobis_sq_in_place(scratch)
            .expect("scratch has the component's dimension");
        self.log_norm - 0.5 * maha
    }

    /// Density at `x`.
    pub fn pdf(&self, x: &[f64]) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Draws a sample `mu + L z` with `z ~ N(0, I)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        self.sample_into(rng, &mut x);
        x
    }

    /// [`Gaussian::sample`] into `out`, of length [`Gaussian::dim`]: the same
    /// draws and the same arithmetic, with nothing allocated.
    pub(crate) fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        fill_standard_normal(rng, out);
        self.map_standard_normal(out);
    }

    /// Maps standard normals `z`, held in `out` of length [`Gaussian::dim`],
    /// to `μ + L z` in place: the arithmetic of [`Gaussian::sample`].
    pub(crate) fn map_standard_normal(&self, out: &mut [f64]) {
        self.chol
            .transform_standard_normal_into(out)
            .expect("out has the component's dimension");
        for (v, &m) in out.iter_mut().zip(&self.mean) {
            *v = m + *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_log_pdf_at_origin() {
        let g = Gaussian::isotropic(vec![0.0, 0.0], 1.0).unwrap();
        // log N(0; 0, I_2) = -log(2 pi)
        assert!((g.log_pdf(&[0.0, 0.0]) + LN_2PI).abs() < 1e-9);
    }

    #[test]
    fn pdf_integrates_to_one_1d_grid() {
        let g = Gaussian::isotropic(vec![0.0], 0.5).unwrap();
        let mut total = 0.0;
        let step = 0.01;
        let mut x = -10.0;
        while x < 10.0 {
            total += g.pdf(&[x]) * step;
            x += step;
        }
        assert!((total - 1.0).abs() < 1e-3, "integral {total}");
    }

    #[test]
    fn sample_mean_converges() {
        let g = Gaussian::isotropic(vec![3.0, -1.0], 0.25).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut mean = [0.0f64; 2];
        for _ in 0..n {
            let s = g.sample(&mut rng);
            mean[0] += s[0];
            mean[1] += s[1];
        }
        mean[0] /= n as f64;
        mean[1] /= n as f64;
        assert!((mean[0] - 3.0).abs() < 0.02, "mean0 {}", mean[0]);
        assert!((mean[1] + 1.0).abs() < 0.02, "mean1 {}", mean[1]);
    }

    #[test]
    fn sample_covariance_converges() {
        let cov = Matrix::from_vec(2, 2, vec![1.0, 0.6, 0.6, 1.0]);
        let g = Gaussian::new(vec![0.0, 0.0], cov).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40_000;
        let mut xy = 0.0;
        for _ in 0..n {
            let s = g.sample(&mut rng);
            xy += s[0] * s[1];
        }
        assert!((xy / n as f64 - 0.6).abs() < 0.03);
    }

    #[test]
    fn degenerate_covariance_is_regularized() {
        let cov = Matrix::outer(&[1.0, 1.0], &[1.0, 1.0]); // rank 1
        let g = Gaussian::new(vec![0.0, 0.0], cov).unwrap();
        assert!(g.log_pdf(&[0.0, 0.0]).is_finite());
    }

    #[test]
    fn mismatched_cov_rejected() {
        let cov = Matrix::identity(3);
        assert!(Gaussian::new(vec![0.0, 0.0], cov).is_err());
    }

    #[test]
    fn higher_density_nearer_mean() {
        let g = Gaussian::isotropic(vec![0.5, 0.5], 0.1).unwrap();
        assert!(g.log_pdf(&[0.5, 0.5]) > g.log_pdf(&[0.9, 0.1]));
    }
}
