//! The `O`-distribution: `p(x) = π p_m(x) + (1-π) p_n(x)`, with posterior
//! labeling and Monte-Carlo Jensen–Shannon divergence.

use crate::model::Evaluator;
use crate::{Gmm, GmmConfig, GmmError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The overall mixture of the matching (`M`-) and non-matching (`N`-)
/// distributions (paper Section II-B).
#[derive(Debug, Clone)]
pub struct OMixture {
    pi: f64,
    m: Gmm,
    n: Gmm,
}

impl OMixture {
    /// Assembles an `O`-distribution from the two fitted mixtures and the
    /// matching prior `π`.
    pub fn new(pi: f64, m: Gmm, n: Gmm) -> Result<Self> {
        if m.dim() != n.dim() {
            return Err(GmmError::DimensionMismatch {
                expected: m.dim(),
                got: n.dim(),
            });
        }
        Ok(OMixture {
            pi: pi.clamp(0.0, 1.0),
            m,
            n,
        })
    }

    /// Learns an `O`-distribution from labeled similarity vectors (paper step
    /// S1): fits the M-distribution on `pos`, the N-distribution on `neg`
    /// (AIC-selected component counts), and sets `π = |pos| / (|pos|+|neg|)`.
    pub fn learn<R: Rng + ?Sized>(
        pos: &[Vec<f64>],
        neg: &[Vec<f64>],
        config: &GmmConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let (m, _) = Gmm::fit_auto(pos, config, rng)?;
        let (n, _) = Gmm::fit_auto(neg, config, rng)?;
        let pi = pos.len() as f64 / (pos.len() + neg.len()).max(1) as f64;
        OMixture::new(pi, m, n)
    }

    /// The matching prior `π`.
    pub fn pi(&self) -> f64 {
        self.pi
    }

    /// The M-distribution.
    pub fn m(&self) -> &Gmm {
        &self.m
    }

    /// The N-distribution.
    pub fn n(&self) -> &Gmm {
        &self.n
    }

    /// Mutable access to the M-distribution (incremental updates).
    pub fn m_mut(&mut self) -> &mut Gmm {
        &mut self.m
    }

    /// Mutable access to the N-distribution (incremental updates).
    pub fn n_mut(&mut self) -> &mut Gmm {
        &mut self.n
    }

    /// Sets the matching prior.
    pub fn set_pi(&mut self, pi: f64) {
        self.pi = pi.clamp(0.0, 1.0);
    }

    /// Dimensionality of the similarity vectors.
    pub fn dim(&self) -> usize {
        self.m.dim()
    }

    /// Density of the overall mixture `p(x) = π p_m(x) + (1-π) p_n(x)`.
    pub fn pdf(&self, x: &[f64]) -> f64 {
        self.pi * self.m.pdf(x) + (1.0 - self.pi) * self.n.pdf(x)
    }

    /// Log-density of the overall mixture.
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        self.evaluator().log_pdf(x)
    }

    /// An evaluator of [`OMixture::log_pdf`] and [`OMixture::posterior_match`].
    fn evaluator(&self) -> OEvaluator<'_> {
        OEvaluator {
            ln_pi: self.pi.max(1e-300).ln(),
            ln_not_pi: (1.0 - self.pi).max(1e-300).ln(),
            m: self.m.evaluator(),
            n: self.n.evaluator(),
        }
    }

    /// Posterior probability that `x` is a matching pair (paper Section IV-C):
    /// `P_m(x) = π p_m(x) / (π p_m(x) + (1-π) p_n(x))`.
    pub fn posterior_match(&self, x: &[f64]) -> f64 {
        let (lm, ln) = self.evaluator().log_terms(x);
        let norm = crate::log_sum_exp(&[lm, ln]);
        (lm - norm).exp()
    }

    /// Labels `x` as matching iff `P_m(x) >= P_n(x)` (paper Eq. 7 rule).
    pub fn is_match(&self, x: &[f64]) -> bool {
        self.posterior_match(x) >= 0.5
    }

    /// Samples a similarity vector from the O-distribution (paper step S2-2):
    /// from the M-distribution with probability `π`, else from the
    /// N-distribution. Returns the vector (clamped to `[0,1]^l`) and whether
    /// it came from the M-distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Vec<f64>, bool) {
        let mut x = vec![0.0; self.dim()];
        let from_m = self.sample_into(rng, &mut x);
        (x, from_m)
    }

    /// [`OMixture::sample`] into `out`, of length [`OMixture::dim`]; returns
    /// whether the draw came from the M-distribution.
    fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) -> bool {
        let from_m = rng.gen::<f64>() < self.pi;
        let side = if from_m { &self.m } else { &self.n };
        side.sample_clamped_into(rng, out);
        from_m
    }

    /// Monte-Carlo estimate of the Jensen–Shannon divergence between two
    /// `O`-distributions (paper Eq. 3):
    ///
    /// `JSD(p||q) = 0.5 KL(p||m) + 0.5 KL(q||m)` with `m = (p+q)/2`,
    /// estimated by sampling `n` points from each side. The result is in
    /// `[0, ln 2]`, and estimates are non-negative up to Monte-Carlo noise
    /// (clamped at 0).
    ///
    /// Sampling is chunk-parallel: one master seed is drawn from `rng`, each
    /// chunk of draws gets an independent seed-split RNG stream, and chunk
    /// sums merge in order — the estimate is a pure function of `(self,
    /// other, n, master seed)` and does not depend on the thread count.
    ///
    /// Each chunk builds both mixtures' evaluators and one sample buffer up
    /// front, so a draw allocates nothing; every float operation is the one
    /// [`OMixture::sample`] and [`OMixture::log_pdf`] do, in the same order.
    pub fn jsd<R: Rng + ?Sized>(&self, other: &OMixture, n: usize, rng: &mut R) -> f64 {
        const JSD_CHUNK: usize = 128;
        let n = n.max(1);
        let master: u64 = rng.gen();
        // Streams 2ci / 2ci+1 keep the p- and q-side draws independent.
        let draws = vec![(); n];
        let kl_side = |from_q: bool| -> f64 {
            let partials = parallel::par_chunk_map(&draws, JSD_CHUNK, |ci, chunk| {
                let stream = 2 * ci as u64 + from_q as u64;
                let mut crng =
                    StdRng::seed_from_u64(parallel::split_seed(master, stream));
                let (mut p, mut q) = (self.evaluator(), other.evaluator());
                let from = if from_q { other } else { self };
                let mut x = vec![0.0; from.dim()];
                let mut kl = 0.0;
                for _ in 0..chunk.len() {
                    from.sample_into(&mut crng, &mut x);
                    let lp = p.log_pdf(&x);
                    let lq = q.log_pdf(&x);
                    let lm = crate::log_sum_exp(&[lp, lq]) - std::f64::consts::LN_2;
                    kl += if from_q { lq - lm } else { lp - lm };
                }
                kl
            });
            partials.into_iter().sum()
        };
        let kl_p = kl_side(false);
        let kl_q = kl_side(true);
        let d = (0.5 * (kl_p + kl_q) / n as f64).max(0.0);
        obs::series("jsd_estimate", d);
        d
    }
}

/// [`OMixture::log_pdf`] over reused buffers: both sides' log-priors and
/// one [`Evaluator`] per side, built once.
struct OEvaluator<'m> {
    ln_pi: f64,
    ln_not_pi: f64,
    m: Evaluator<'m>,
    n: Evaluator<'m>,
}

impl OEvaluator<'_> {
    /// `(ln π + log p_m(x), ln(1-π) + log p_n(x))`.
    fn log_terms(&mut self, x: &[f64]) -> (f64, f64) {
        (self.ln_pi + self.m.log_pdf(x), self.ln_not_pi + self.n.log_pdf(x))
    }

    fn log_pdf(&mut self, x: &[f64]) -> f64 {
        let (a, b) = self.log_terms(x);
        crate::log_sum_exp(&[a, b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gaussian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A paper-like O-distribution: matches near 1, non-matches near 0.
    fn o_like(rng: &mut StdRng, shift: f64) -> OMixture {
        let gm = Gaussian::isotropic(vec![0.85 + shift, 0.8 + shift], 0.003).unwrap();
        let gn = Gaussian::isotropic(vec![0.1, 0.15], 0.003).unwrap();
        let pos: Vec<Vec<f64>> = (0..200).map(|_| gm.sample(rng)).collect();
        let neg: Vec<Vec<f64>> = (0..600).map(|_| gn.sample(rng)).collect();
        OMixture::learn(&pos, &neg, &GmmConfig::default(), rng).unwrap()
    }

    #[test]
    fn learn_sets_pi_from_counts() {
        let mut rng = StdRng::seed_from_u64(4);
        let o = o_like(&mut rng, 0.0);
        assert!((o.pi() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn posterior_separates_regimes() {
        let mut rng = StdRng::seed_from_u64(4);
        let o = o_like(&mut rng, 0.0);
        assert!(o.posterior_match(&[0.9, 0.85]) > 0.95);
        assert!(o.posterior_match(&[0.05, 0.1]) < 0.05);
        assert!(o.is_match(&[0.9, 0.85]));
        assert!(!o.is_match(&[0.05, 0.1]));
    }

    #[test]
    fn posterior_in_unit_interval_everywhere() {
        let mut rng = StdRng::seed_from_u64(4);
        let o = o_like(&mut rng, 0.0);
        for x in [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.3, 0.9]] {
            let p = o.posterior_match(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn sample_respects_pi() {
        let mut rng = StdRng::seed_from_u64(13);
        let o = o_like(&mut rng, 0.0);
        let n = 5000;
        let matches = (0..n).filter(|_| o.sample(&mut rng).1).count();
        let frac = matches as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn jsd_self_is_near_zero() {
        let mut rng = StdRng::seed_from_u64(17);
        let o = o_like(&mut rng, 0.0);
        let d = o.jsd(&o, 500, &mut rng);
        assert!(d < 0.01, "self-JSD {d}");
    }

    #[test]
    fn jsd_grows_with_shift() {
        let mut rng = StdRng::seed_from_u64(19);
        let o1 = o_like(&mut rng, 0.0);
        let near = o_like(&mut rng, 0.01);
        let far = o_like(&mut rng, -0.4);
        let d_near = o1.jsd(&near, 800, &mut rng);
        let d_far = o1.jsd(&far, 800, &mut rng);
        assert!(d_near < d_far, "near {d_near} far {d_far}");
        assert!(d_far <= std::f64::consts::LN_2 + 0.05);
    }

    #[test]
    fn jsd_is_thread_count_independent() {
        use std::sync::Arc;
        let mut rng = StdRng::seed_from_u64(23);
        let o1 = o_like(&mut rng, 0.0);
        let o2 = o_like(&mut rng, -0.2);
        let run = |threads: usize| {
            parallel::with_pool(Arc::new(parallel::ThreadPool::new(threads)), || {
                let mut r = StdRng::seed_from_u64(77);
                o1.jsd(&o2, 700, &mut r)
            })
        };
        let base = run(1);
        for threads in [2, 8] {
            assert_eq!(base.to_bits(), run(threads).to_bits());
        }
    }

    /// `jsd` as it was written before the chunk evaluators: a fresh `Vec`
    /// per draw, per `L z` and per density, the textbook triangular loops,
    /// and `log_pdf` through each side's own mixture. The estimate must
    /// reproduce it bit for bit, not just agree with itself.
    #[allow(clippy::needless_range_loop)] // the indexed loops are the reference
    mod reference {
        use crate::gaussian::{standard_normal, LN_2PI};
        use crate::{log_sum_exp, Gaussian, Gmm, OMixture};
        use linalg::Cholesky;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// `Gaussian::new` factors the covariance it stores (jitter
        /// included), so factoring `cov()` again gives the same `L`.
        fn factor(c: &Gaussian) -> Cholesky {
            Cholesky::new(c.cov()).unwrap()
        }

        fn gaussian_sample(c: &Gaussian, rng: &mut StdRng) -> Vec<f64> {
            let z: Vec<f64> = (0..c.dim()).map(|_| standard_normal(rng)).collect();
            let l = factor(c);
            let mut lz = vec![0.0; z.len()];
            for i in 0..z.len() {
                let mut sum = 0.0;
                for k in 0..=i {
                    sum += l.l().get(i, k) * z[k];
                }
                lz[i] = sum;
            }
            c.mean().iter().zip(&lz).map(|(&m, &d)| m + d).collect()
        }

        fn gmm_sample_clamped(g: &Gmm, rng: &mut StdRng) -> Vec<f64> {
            let mut u: f64 = rng.gen();
            for (k, &w) in g.weights().iter().enumerate() {
                if u < w || k == g.weights().len() - 1 {
                    let x = gaussian_sample(&g.components()[k], rng);
                    return x.into_iter().map(|v| v.clamp(0.0, 1.0)).collect();
                }
                u -= w;
            }
            unreachable!("weights are normalized");
        }

        fn sample(o: &OMixture, rng: &mut StdRng) -> Vec<f64> {
            if rng.gen::<f64>() < o.pi() {
                gmm_sample_clamped(o.m(), rng)
            } else {
                gmm_sample_clamped(o.n(), rng)
            }
        }

        fn gaussian_log_pdf(c: &Gaussian, x: &[f64]) -> f64 {
            let l = factor(c);
            let log_norm = -0.5 * (c.dim() as f64 * LN_2PI + l.log_det());
            let diff: Vec<f64> = x.iter().zip(c.mean()).map(|(&a, &m)| a - m).collect();
            let n = diff.len();
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut sum = diff[i];
                for k in 0..i {
                    sum -= l.l().get(i, k) * y[k];
                }
                y[i] = sum / l.l().get(i, i);
            }
            let maha: f64 = y.iter().map(|&v| v * v).sum();
            log_norm - 0.5 * maha
        }

        fn gmm_log_pdf(g: &Gmm, x: &[f64]) -> f64 {
            let logs: Vec<f64> = g
                .components()
                .iter()
                .zip(g.weights())
                .map(|(c, &w)| w.max(1e-300).ln() + gaussian_log_pdf(c, x))
                .collect();
            log_sum_exp(&logs)
        }

        fn log_pdf(o: &OMixture, x: &[f64]) -> f64 {
            let a = o.pi().max(1e-300).ln() + gmm_log_pdf(o.m(), x);
            let b = (1.0 - o.pi()).max(1e-300).ln() + gmm_log_pdf(o.n(), x);
            log_sum_exp(&[a, b])
        }

        /// Serial over the same 128-draw chunks and streams, merged in
        /// chunk order.
        pub fn jsd(p: &OMixture, q: &OMixture, n: usize, rng: &mut StdRng) -> f64 {
            let n = n.max(1);
            let master: u64 = rng.gen();
            let kl_side = |from_q: bool| -> f64 {
                let partials: Vec<f64> = (0..n.div_ceil(128))
                    .map(|ci| {
                        let stream = 2 * ci as u64 + from_q as u64;
                        let mut crng =
                            StdRng::seed_from_u64(parallel::split_seed(master, stream));
                        let mut kl = 0.0;
                        for _ in 0..(n - ci * 128).min(128) {
                            let x = if from_q { sample(q, &mut crng) } else { sample(p, &mut crng) };
                            let lp = log_pdf(p, &x);
                            let lq = log_pdf(q, &x);
                            let lm = log_sum_exp(&[lp, lq]) - std::f64::consts::LN_2;
                            kl += if from_q { lq - lm } else { lp - lm };
                        }
                        kl
                    })
                    .collect();
                partials.into_iter().sum()
            };
            let kl_p = kl_side(false);
            let kl_q = kl_side(true);
            (0.5 * (kl_p + kl_q) / n as f64).max(0.0)
        }
    }

    /// A random `g`-component mixture in `d` dimensions: random means and
    /// full covariances, the second component rank-one (factored with
    /// jitter), and the last weighted zero when `g > 1`.
    fn random_gmm(rng: &mut StdRng, g: usize, d: usize) -> Gmm {
        use linalg::Matrix;
        let components: Vec<Gaussian> = (0..g)
            .map(|k| {
                let mean: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
                let cov = if k == 1 {
                    Matrix::outer(&mean, &mean)
                } else {
                    let b: Vec<f64> = (0..d * d).map(|_| rng.gen::<f64>() - 0.5).collect();
                    let b = Matrix::from_vec(d, d, b);
                    let mut cov = b.matmul(&b.transpose()).unwrap().scale(0.1);
                    cov.add_diag(1e-3);
                    cov
                };
                Gaussian::new(mean, cov).unwrap()
            })
            .collect();
        let mut weights: Vec<f64> = (0..g).map(|_| rng.gen::<f64>() + 0.1).collect();
        if g > 1 {
            weights[g - 1] = 0.0;
        }
        let total: f64 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= total);
        Gmm::from_parts(weights, components, crate::SuffStats::zeros(g, d), 1e-6).unwrap()
    }

    #[test]
    fn jsd_matches_the_per_draw_reference_bit_for_bit() {
        use std::sync::Arc;
        let mut rng = StdRng::seed_from_u64(2025);
        for d in 1..=4 {
            for (gp, gq) in [(1, 1), (2, 3), (3, 2)] {
                let p = OMixture::new(rng.gen(), random_gmm(&mut rng, gp, d), random_gmm(&mut rng, gq, d))
                    .unwrap();
                let q = OMixture::new(rng.gen(), random_gmm(&mut rng, gq, d), random_gmm(&mut rng, gp, d))
                    .unwrap();
                // One draw, a partial chunk, and two chunks.
                for n in [1, 80, 129] {
                    let seed: u64 = rng.gen();
                    let want = reference::jsd(&p, &q, n, &mut StdRng::seed_from_u64(seed));
                    for threads in [1, 2] {
                        let got = parallel::with_pool(Arc::new(parallel::ThreadPool::new(threads)), || {
                            p.jsd(&q, n, &mut StdRng::seed_from_u64(seed))
                        });
                        let case = format!("d={d} g=({gp},{gq}) n={n} threads={threads}");
                        assert_eq!(got.to_bits(), want.to_bits(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn mismatched_dims_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let g2 = Gaussian::isotropic(vec![0.5, 0.5], 0.01).unwrap();
        let g3 = Gaussian::isotropic(vec![0.5, 0.5, 0.5], 0.01).unwrap();
        let d2: Vec<Vec<f64>> = (0..50).map(|_| g2.sample(&mut rng)).collect();
        let d3: Vec<Vec<f64>> = (0..50).map(|_| g3.sample(&mut rng)).collect();
        let m = Gmm::fit(&d2, 1, &GmmConfig::default(), &mut rng).unwrap();
        let n = Gmm::fit(&d3, 1, &GmmConfig::default(), &mut rng).unwrap();
        assert!(OMixture::new(0.5, m, n).is_err());
    }
}
