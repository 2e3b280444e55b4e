//! The Gaussian mixture model: EM fitting (Eq. 4–6), AIC model selection,
//! sampling, and incremental updates (Eq. 8–9).

use crate::em::SuffStats;
use crate::gaussian::Gaussian;
use crate::{log_sum_exp, GmmError, Result};
use linalg::RowArena;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed E-step chunk size, in rows. A function of nothing — chunk
/// boundaries must not depend on thread count, or the merge order (and
/// therefore the f64 accumulation) would change with the machine.
const EM_CHUNK: usize = 256;

/// EM's input: `n` points of dimension `d` in one row-major buffer, so every
/// pass streams through contiguous memory instead of `n` separately
/// allocated rows. `n` is kept apart because `d` may be 0.
#[derive(Clone, Copy)]
struct Points<'a> {
    flat: &'a [f64],
    n: usize,
    d: usize,
}

impl<'a> Points<'a> {
    /// The `n` rows of `rows`.
    fn new(rows: &'a RowArena<f64>, n: usize) -> Self {
        Points {
            flat: rows.data(),
            n,
            d: rows.cols(),
        }
    }

    fn row(&self, i: usize) -> &'a [f64] {
        &self.flat[i * self.d..(i + 1) * self.d]
    }

    fn iter(self) -> impl Iterator<Item = &'a [f64]> {
        (0..self.n).map(move |i| self.row(i))
    }
}

/// Checks that `data` is nonempty and of one dimension, and copies it into
/// one flat buffer.
fn flatten(data: &[Vec<f64>]) -> Result<RowArena<f64>> {
    let Some(first) = data.first() else {
        return Err(GmmError::EmptyData);
    };
    let d = first.len();
    let mut rows = RowArena::with_row_capacity(d, data.len());
    for x in data {
        if x.len() != d {
            return Err(GmmError::DimensionMismatch {
                expected: d,
                got: x.len(),
            });
        }
        rows.push_row(x);
    }
    Ok(rows)
}

/// `ln max(π_k, 1e-300)` per component.
fn log_weights(weights: &[f64]) -> Vec<f64> {
    weights.iter().map(|&w| w.max(1e-300).ln()).collect()
}

/// Evaluates one mixture at many points without allocating per point: the
/// log-weights are computed once, when it is built, and the whitened
/// difference and the per-component row are buffers reused from point to
/// point. Every mixture density in this crate goes through it, so EM, AIC,
/// the public queries and the JSD estimate share one arithmetic path.
pub(crate) struct Evaluator<'m> {
    components: &'m [Gaussian],
    log_w: Vec<f64>,
    diff: Vec<f64>,
    row: Vec<f64>,
}

impl<'m> Evaluator<'m> {
    fn new(components: &'m [Gaussian], weights: &[f64]) -> Self {
        Evaluator {
            components,
            log_w: log_weights(weights),
            diff: vec![0.0; components.first().map_or(0, Gaussian::dim)],
            row: vec![0.0; components.len()],
        }
    }

    /// `log p(x)`; leaves `ln π_k + log N(x; μ_k, Σ_k)` in the row.
    pub(crate) fn log_pdf(&mut self, x: &[f64]) -> f64 {
        for ((l, c), &lw) in self.row.iter_mut().zip(self.components).zip(&self.log_w) {
            *l = lw + c.log_pdf_with(x, &mut self.diff);
        }
        log_sum_exp(&self.row)
    }

    /// `log p(x)` and the responsibilities `γ_k(x)` (Eq. 5 / Eq. 8).
    fn responsibilities(&mut self, x: &[f64]) -> (f64, &[f64]) {
        let norm = self.log_pdf(x);
        for l in &mut self.row {
            *l = (*l - norm).exp();
        }
        (norm, &self.row)
    }
}

/// One EM E-step over `points`: per-chunk sufficient statistics,
/// log-likelihood sums, and worst-fit points are computed independently and
/// merged in chunk order, so the result is bit-identical at any thread count.
/// Each chunk evaluates its points over one [`Evaluator`], so nothing is
/// allocated per point.
fn e_step(
    points: Points<'_>,
    components: &[Gaussian],
    weights: &[f64],
) -> (SuffStats, f64, (f64, usize)) {
    let (g, d) = (components.len(), points.d);
    // Zero-sized stand-ins for the rows: `par_chunk_map` cuts them every
    // EM_CHUNK rows, and a `Vec<()>` never allocates.
    let marks = vec![(); points.n];
    let partials = parallel::par_chunk_map(&marks, EM_CHUNK, |ci, chunk| {
        let base = ci * EM_CHUNK;
        let mut eval = Evaluator::new(components, weights);
        let mut stats = SuffStats::zeros(g, d);
        let mut ll = 0.0;
        let mut worst: (f64, usize) = (f64::INFINITY, 0);
        for i in base..base + chunk.len() {
            let x = points.row(i);
            let (norm, resp) = eval.responsibilities(x);
            ll += norm;
            if norm < worst.0 {
                worst = (norm, i);
            }
            stats.add_point(x, resp);
        }
        (stats, ll, worst)
    });
    let mut stats = SuffStats::zeros(g, d);
    let mut ll = 0.0;
    let mut worst: (f64, usize) = (f64::INFINITY, 0);
    for (s, l, w) in partials {
        stats.merge(&s);
        ll += l;
        // Strict `<` keeps the earliest worst point, matching a serial scan.
        if w.0 < worst.0 {
            worst = w;
        }
    }
    (stats, ll, worst)
}

/// Publishes one EM run's per-iteration log-likelihood as the
/// `em.loglik.g<g>` series, under the calling thread's innermost span.
fn publish_loglik(g: usize, trace: &[f64]) {
    if obs::enabled() {
        obs::series_extend(&format!("em.loglik.g{g}"), trace);
    }
}

/// Hyperparameters for GMM fitting.
#[derive(Debug, Clone, PartialEq)]
pub struct GmmConfig {
    /// Maximum number of components tried by [`Gmm::fit_auto`] (AIC picks the
    /// best `g` in `1..=max_components`).
    pub max_components: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence threshold on mean log-likelihood improvement.
    pub tol: f64,
    /// Diagonal regularization added to every covariance estimate.
    pub reg_covar: f64,
}

impl Default for GmmConfig {
    fn default() -> Self {
        GmmConfig {
            max_components: 4,
            max_iters: 200,
            tol: 1e-6,
            reg_covar: 1e-6,
        }
    }
}

/// A fitted Gaussian mixture with retained EM sufficient statistics so it can
/// be updated incrementally (paper Eq. 8–9).
#[derive(Debug, Clone)]
pub struct Gmm {
    weights: Vec<f64>,
    components: Vec<Gaussian>,
    stats: SuffStats,
    reg_covar: f64,
}

impl Gmm {
    /// Fits a `g`-component mixture to `data` by EM (paper Eq. 4–6).
    ///
    /// Initialization: means are seeded by a k-means++-style farthest-point
    /// heuristic on a random draw, covariances start isotropic at the data
    /// variance. Components that collapse (no responsibility mass) are
    /// re-seeded at the point with the lowest likelihood.
    pub fn fit<R: Rng + ?Sized>(
        data: &[Vec<f64>],
        g: usize,
        config: &GmmConfig,
        rng: &mut R,
    ) -> Result<Gmm> {
        let rows = flatten(data)?;
        let (model, trace) = Gmm::fit_points(Points::new(&rows, data.len()), g, config, rng)?;
        publish_loglik(model.weights.len(), &trace);
        Ok(model)
    }

    /// [`Gmm::fit`] over validated, flattened points. Also returns the
    /// per-iteration mean log-likelihood (empty when obs is off), for the
    /// caller to publish with [`publish_loglik`].
    fn fit_points<R: Rng + ?Sized>(
        points: Points<'_>,
        g: usize,
        config: &GmmConfig,
        rng: &mut R,
    ) -> Result<(Gmm, Vec<f64>)> {
        let d = points.d;
        let g = g.max(1);
        if points.n < g {
            return Err(GmmError::TooFewPoints {
                points: points.n,
                components: g,
            });
        }

        let var = data_variance(points).max(1e-6);
        let mut components = init_components(points, g, var, rng)?;
        let mut weights = vec![1.0 / g as f64; g];

        let mut prev_ll = f64::NEG_INFINITY;
        let mut stats = SuffStats::zeros(g, d);
        // Per-iteration log-likelihood trajectory, returned rather than
        // published: a fit may run on a pool worker, whose span stack is
        // empty (the AIC sweep publishes on its own thread).
        let mut ll_trace: Vec<f64> = Vec::new();
        for _ in 0..config.max_iters {
            // E-step: responsibilities + log-likelihood, folded into stats.
            // Runs chunk-parallel; see `e_step` for the determinism argument.
            let e = e_step(points, &components, &weights);
            stats = e.0;
            let mut ll = e.1;
            let worst = e.2;
            ll /= points.n as f64;
            if obs::enabled() {
                ll_trace.push(ll);
            }

            // M-step from the sufficient statistics (Eq. 6).
            for k in 0..g {
                match stats.component_params(k, config.reg_covar) {
                    Some((w, mean, cov)) => {
                        weights[k] = w;
                        components[k] = Gaussian::new(mean, cov)?;
                    }
                    None => {
                        // Collapsed component: re-seed at the worst-fit point.
                        weights[k] = 1.0 / points.n as f64;
                        components[k] = Gaussian::isotropic(points.row(worst.1).to_vec(), var)?;
                    }
                }
            }
            normalize(&mut weights);

            if (ll - prev_ll).abs() < config.tol {
                break;
            }
            prev_ll = ll;
        }

        let model = Gmm {
            weights,
            components,
            stats,
            reg_covar: config.reg_covar,
        };
        Ok((model, ll_trace))
    }

    /// Fits mixtures with `g = 1..=config.max_components` and returns the one
    /// minimizing AIC (paper Section IV-A). Also returns the chosen `g`.
    pub fn fit_auto<R: Rng + ?Sized>(
        data: &[Vec<f64>],
        config: &GmmConfig,
        rng: &mut R,
    ) -> Result<(Gmm, usize)> {
        let _span = obs::span("gmm.fit_auto");
        // The candidate fits are independent, so the sweep runs in parallel.
        // Each `g` gets its own RNG stream derived from one master seed —
        // initialization no longer depends on how earlier candidates consumed
        // the caller's RNG, and the sweep is reproducible at any thread count.
        let master: u64 = rng.gen();
        // One flat copy of the rows, read by every candidate fit.
        let rows = flatten(data)?;
        let points = Points::new(&rows, data.len());
        let candidates: Vec<usize> = (1..=config.max_components.max(1))
            .take_while(|&g| points.n >= g.max(2))
            .collect();
        let fits = parallel::par_map(&candidates, |&g| {
            let mut grng =
                StdRng::seed_from_u64(parallel::split_seed(master, g as u64));
            Gmm::fit_points(points, g, config, &mut grng).ok().map(|(model, trace)| {
                (model.aic_from(model.sum_log_pdf(points.iter())), model, g, trace)
            })
        });
        let mut best: Option<(f64, Gmm, usize)> = None;
        for (aic, model, g, trace) in fits.into_iter().flatten() {
            // Published here, on the calling thread in ascending g, so every
            // series sits under `gmm.fit_auto` whichever thread ran its fit.
            publish_loglik(g, &trace);
            // Strict `<` keeps the smallest g on AIC ties, as before.
            if best.as_ref().map_or(true, |(b, _, _)| aic < *b) {
                best = Some((aic, model, g));
            }
        }
        let picked = match best {
            Some((_, m, g)) => (m, g),
            None => {
                // Fall back to a single component (possible when data is tiny).
                let (model, trace) = Gmm::fit_points(points, 1, config, rng)?;
                publish_loglik(1, &trace);
                (model, 1)
            }
        };
        // A histogram (not a gauge) so both the M- and N-side sweeps of one
        // run stay visible: count, min, max of the AIC-chosen g values.
        obs::hist("aic_chosen_g", picked.1 as f64);
        Ok(picked)
    }

    /// Component weights `π_k`.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The Gaussian components.
    pub fn components(&self) -> &[Gaussian] {
        &self.components
    }

    /// Number of components `g`.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Dimensionality of the modeled vectors.
    pub fn dim(&self) -> usize {
        self.components.first().map_or(0, Gaussian::dim)
    }

    /// The retained sufficient statistics.
    pub fn stats(&self) -> &SuffStats {
        &self.stats
    }

    /// The covariance regularization used at fit time.
    pub fn reg_covar(&self) -> f64 {
        self.reg_covar
    }

    /// Reassembles a mixture from persisted parts (see [`crate::io`]).
    pub fn from_parts(
        weights: Vec<f64>,
        components: Vec<Gaussian>,
        stats: SuffStats,
        reg_covar: f64,
    ) -> Result<Gmm> {
        if weights.len() != components.len() || stats.components() != components.len() {
            return Err(GmmError::DimensionMismatch {
                expected: components.len(),
                got: weights.len().min(stats.components()),
            });
        }
        let d = components.first().map_or(0, Gaussian::dim);
        for c in &components {
            if c.dim() != d {
                return Err(GmmError::DimensionMismatch {
                    expected: d,
                    got: c.dim(),
                });
            }
        }
        Ok(Gmm {
            weights,
            components,
            stats,
            reg_covar,
        })
    }

    /// An [`Evaluator`] of this mixture, for evaluating it at many points.
    pub(crate) fn evaluator(&self) -> Evaluator<'_> {
        Evaluator::new(&self.components, &self.weights)
    }

    /// Log-density `log p(x)` under the mixture.
    pub fn log_pdf(&self, x: &[f64]) -> f64 {
        self.evaluator().log_pdf(x)
    }

    /// Density `p(x)`.
    pub fn pdf(&self, x: &[f64]) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Per-component responsibilities `γ_k(x)` (paper Eq. 5 / Eq. 8).
    pub fn responsibilities(&self, x: &[f64]) -> Vec<f64> {
        self.evaluator().responsibilities(x).1.to_vec()
    }

    /// Total log-likelihood of a dataset (paper Eq. 4).
    pub fn log_likelihood(&self, data: &[Vec<f64>]) -> f64 {
        self.sum_log_pdf(data.iter().map(Vec::as_slice))
    }

    /// `Σ log p(x)` over `xs`, in order.
    fn sum_log_pdf<'a>(&self, xs: impl Iterator<Item = &'a [f64]>) -> f64 {
        let mut eval = self.evaluator();
        xs.map(|x| eval.log_pdf(x)).sum()
    }

    /// Number of free parameters: `g-1` weights + `g d` means + `g d(d+1)/2`
    /// covariance entries.
    pub fn num_params(&self) -> usize {
        let g = self.num_components();
        let d = self.dim();
        (g - 1) + g * d + g * d * (d + 1) / 2
    }

    /// Akaike information criterion `2k - 2 log L` (lower is better).
    pub fn aic(&self, data: &[Vec<f64>]) -> f64 {
        self.aic_from(self.log_likelihood(data))
    }

    /// AIC given the log-likelihood `log L`.
    fn aic_from(&self, log_lik: f64) -> f64 {
        2.0 * self.num_params() as f64 - 2.0 * log_lik
    }

    /// Bayesian information criterion `k ln n - 2 log L`.
    pub fn bic(&self, data: &[Vec<f64>]) -> f64 {
        self.num_params() as f64 * (data.len().max(1) as f64).ln()
            - 2.0 * self.log_likelihood(data)
    }

    /// Draws the component a sample comes from.
    fn pick_component<R: Rng + ?Sized>(&self, rng: &mut R) -> &Gaussian {
        self.component_at(rng.gen())
    }

    /// The component a draw with uniform `u` comes from: the first whose
    /// cumulative weight exceeds `u`, or the last.
    pub(crate) fn component_at(&self, mut u: f64) -> &Gaussian {
        for (k, &w) in self.weights.iter().enumerate() {
            if u < w || k == self.weights.len() - 1 {
                return &self.components[k];
            }
            u -= w;
        }
        unreachable!("weights are normalized");
    }

    /// Samples one vector from the mixture.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        self.pick_component(rng).sample(rng)
    }

    /// Samples one vector, clamped to the unit hypercube — similarity vectors
    /// live in `[0, 1]^l`, but a fitted Gaussian has unbounded support.
    pub fn sample_clamped<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut x = self.sample(rng);
        clamp_to_unit_cube(&mut x);
        x
    }

    /// Incrementally folds `new_points` into the mixture (paper Eq. 8–9):
    /// responsibilities of the new points are computed under the *current*
    /// parameters (Eq. 8), merged into the retained sufficient statistics,
    /// and the parameters re-derived (Eq. 9) — no pass over old points.
    ///
    /// The points may be owned rows or borrowed slices, so callers that
    /// select points out of a larger batch need not copy them.
    pub fn update_incremental<P: AsRef<[f64]>>(&mut self, new_points: &[P]) -> Result<()> {
        if new_points.is_empty() {
            return Ok(());
        }
        let d = self.dim();
        for x in new_points {
            if x.as_ref().len() != d {
                return Err(GmmError::DimensionMismatch {
                    expected: d,
                    got: x.as_ref().len(),
                });
            }
        }
        let g = self.num_components();
        let mut delta = SuffStats::zeros(g, d);
        let mut eval = self.evaluator();
        for x in new_points {
            let x = x.as_ref();
            delta.add_point(x, eval.responsibilities(x).1); // Eq. 8
        }
        self.stats.merge(&delta); // Eq. 9 accumulation

        for k in 0..g {
            if let Some((w, mean, cov)) = self.stats.component_params(k, self.reg_covar) {
                self.weights[k] = w;
                self.components[k] = Gaussian::new(mean, cov)?;
            }
        }
        normalize(&mut self.weights);
        Ok(())
    }
}

fn data_variance(points: Points<'_>) -> f64 {
    let (n, d) = (points.n as f64, points.d);
    let mut mean = vec![0.0; d];
    for x in points.iter() {
        for (m, &v) in mean.iter_mut().zip(x) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = 0.0;
    for x in points.iter() {
        for (m, &v) in mean.iter().zip(x) {
            var += (v - m) * (v - m);
        }
    }
    var / (n * d as f64)
}

/// Farthest-point (k-means++-flavored) mean initialization.
fn init_components<R: Rng + ?Sized>(
    points: Points<'_>,
    g: usize,
    var: f64,
    rng: &mut R,
) -> Result<Vec<Gaussian>> {
    let mut means: Vec<Vec<f64>> = Vec::with_capacity(g);
    means.push(points.row(rng.gen_range(0..points.n)).to_vec());
    while means.len() < g {
        let far = points
            .iter()
            .max_by(|a, b| {
                let da = min_dist2(a, &means);
                let db = min_dist2(b, &means);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("data nonempty");
        if min_dist2(far, &means) == 0.0 {
            // All remaining points coincide with chosen means; jitter.
            let mut m = means[0].clone();
            for v in &mut m {
                *v += (rng.gen::<f64>() - 0.5) * var.sqrt();
            }
            means.push(m);
        } else {
            means.push(far.to_vec());
        }
    }
    means
        .into_iter()
        .map(|m| Gaussian::isotropic(m, var))
        .collect()
}

fn min_dist2(x: &[f64], means: &[Vec<f64>]) -> f64 {
    means
        .iter()
        .map(|m| {
            x.iter()
                .zip(m)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

fn normalize(w: &mut [f64]) {
    let s: f64 = w.iter().sum();
    if s > 0.0 {
        for v in w.iter_mut() {
            *v /= s;
        }
    } else {
        let u = 1.0 / w.len() as f64;
        for v in w.iter_mut() {
            *v = u;
        }
    }
}

/// Clamps a sample to the unit hypercube, where similarity vectors live.
pub(crate) fn clamp_to_unit_cube(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = v.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_cluster_data(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
        let g1 = Gaussian::isotropic(vec![0.1, 0.1], 0.002).unwrap();
        let g2 = Gaussian::isotropic(vec![0.9, 0.9], 0.002).unwrap();
        (0..n)
            .map(|i| if i % 2 == 0 { g1.sample(rng) } else { g2.sample(rng) })
            .collect()
    }

    #[test]
    fn fit_recovers_two_clusters() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = two_cluster_data(&mut rng, 400);
        let gmm = Gmm::fit(&data, 2, &GmmConfig::default(), &mut rng).unwrap();
        let mut means: Vec<f64> = gmm.components().iter().map(|c| c.mean()[0]).collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.1).abs() < 0.05, "means {means:?}");
        assert!((means[1] - 0.9).abs() < 0.05, "means {means:?}");
        assert!((gmm.weights()[0] - 0.5).abs() < 0.1);
    }

    #[test]
    fn fit_auto_prefers_two_components() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = two_cluster_data(&mut rng, 400);
        let (_, g) = Gmm::fit_auto(&data, &GmmConfig::default(), &mut rng).unwrap();
        assert_eq!(g, 2);
    }

    #[test]
    fn fit_auto_prefers_one_component_for_unimodal() {
        // Needs enough data for the AIC penalty to dominate what EM can gain
        // by fitting sampling noise: at a few hundred points the g=1 vs g>1
        // margin is within init luck, at 1000 it is decisive for any seed.
        let mut rng = StdRng::seed_from_u64(5);
        let g1 = Gaussian::isotropic(vec![0.5, 0.5], 0.01).unwrap();
        let data: Vec<Vec<f64>> = (0..1000).map(|_| g1.sample(&mut rng)).collect();
        let (_, g) = Gmm::fit_auto(&data, &GmmConfig::default(), &mut rng).unwrap();
        assert_eq!(g, 1);
    }

    #[test]
    fn empty_data_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            Gmm::fit(&[], 1, &GmmConfig::default(), &mut rng).unwrap_err(),
            GmmError::EmptyData
        );
    }

    #[test]
    fn too_few_points_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = vec![vec![0.0, 0.0]];
        assert!(matches!(
            Gmm::fit(&data, 3, &GmmConfig::default(), &mut rng),
            Err(GmmError::TooFewPoints { .. })
        ));
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = two_cluster_data(&mut rng, 200);
        let gmm = Gmm::fit(&data, 2, &GmmConfig::default(), &mut rng).unwrap();
        let r = gmm.responsibilities(&[0.5, 0.5]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sample_clamped_in_unit_cube() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = two_cluster_data(&mut rng, 100);
        let gmm = Gmm::fit(&data, 2, &GmmConfig::default(), &mut rng).unwrap();
        for _ in 0..100 {
            let s = gmm.sample_clamped(&mut rng);
            assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn incremental_update_matches_growing_refit_direction() {
        // After folding in a batch of points near (0.9, 0.9), the density
        // there must not decrease, and stats count must grow.
        let mut rng = StdRng::seed_from_u64(21);
        let data = two_cluster_data(&mut rng, 200);
        let mut gmm = Gmm::fit(&data, 2, &GmmConfig::default(), &mut rng).unwrap();
        let n_before = gmm.stats().n;
        let before = gmm.log_pdf(&[0.9, 0.9]);
        let new_points: Vec<Vec<f64>> = (0..100).map(|_| vec![0.9, 0.9]).collect();
        gmm.update_incremental(&new_points).unwrap();
        assert_eq!(gmm.stats().n, n_before + 100.0);
        assert!(gmm.log_pdf(&[0.9, 0.9]) >= before - 1e-6);
        let wsum: f64 = gmm.weights().iter().sum();
        assert!((wsum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_update_dimension_checked() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = two_cluster_data(&mut rng, 50);
        let mut gmm = Gmm::fit(&data, 1, &GmmConfig::default(), &mut rng).unwrap();
        assert!(gmm.update_incremental(&[vec![0.0; 5]]).is_err());
        assert!(gmm.update_incremental::<Vec<f64>>(&[]).is_ok());
    }

    #[test]
    fn fit_and_fit_auto_are_thread_count_independent() {
        use std::sync::Arc;
        let mut rng = StdRng::seed_from_u64(33);
        let data = two_cluster_data(&mut rng, 500);
        let run = |threads: usize| -> (Vec<f64>, usize) {
            parallel::with_pool(Arc::new(parallel::ThreadPool::new(threads)), || {
                let mut r = StdRng::seed_from_u64(99);
                let (gmm, g) = Gmm::fit_auto(&data, &GmmConfig::default(), &mut r).unwrap();
                let mut flat: Vec<f64> = gmm.weights().to_vec();
                for c in gmm.components() {
                    flat.extend_from_slice(c.mean());
                }
                (flat, g)
            })
        };
        let (base, base_g) = run(1);
        for threads in [2, 8] {
            let (other, g) = run(threads);
            assert_eq!(base_g, g);
            assert!(
                base.iter().zip(&other).all(|(a, b)| a.to_bits() == b.to_bits()),
                "fit_auto differs at {threads} threads"
            );
        }
    }

    /// The E-step as it was written before the flat-row kernel: a `Vec` per
    /// difference, log row and responsibility row, the textbook
    /// forward-substitution loop, `get`/`set` accumulation and the
    /// `Matrix::add` merge. The kernel must reproduce it bit for bit, not
    /// just agree with itself across thread counts.
    #[allow(clippy::needless_range_loop)] // the indexed loops are the reference
    mod reference {
        use crate::gaussian::LN_2PI;
        use crate::{log_sum_exp, Gaussian, SuffStats};
        use linalg::Cholesky;

        pub struct Density {
            mean: Vec<f64>,
            chol: Cholesky,
            log_norm: f64,
        }

        /// `Gaussian::new` factors the covariance it stores (jitter
        /// included), so factoring `cov()` again gives the same `L`.
        pub fn density(c: &Gaussian) -> Density {
            let chol = Cholesky::new(c.cov()).unwrap();
            let log_norm = -0.5 * (c.dim() as f64 * LN_2PI + chol.log_det());
            Density {
                mean: c.mean().to_vec(),
                chol,
                log_norm,
            }
        }

        fn log_pdf(c: &Density, x: &[f64]) -> f64 {
            let diff: Vec<f64> = x.iter().zip(&c.mean).map(|(&a, &m)| a - m).collect();
            let n = diff.len();
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut sum = diff[i];
                for k in 0..i {
                    sum -= c.chol.l().get(i, k) * y[k];
                }
                y[i] = sum / c.chol.l().get(i, i);
            }
            let maha: f64 = y.iter().map(|&v| v * v).sum();
            c.log_norm - 0.5 * maha
        }

        fn logs(ds: &[Density], weights: &[f64], x: &[f64]) -> Vec<f64> {
            ds.iter()
                .zip(weights)
                .map(|(c, &w)| w.max(1e-300).ln() + log_pdf(c, x))
                .collect()
        }

        pub fn responsibilities(ds: &[Density], weights: &[f64], x: &[f64]) -> Vec<f64> {
            let logs = logs(ds, weights, x);
            let norm = log_sum_exp(&logs);
            logs.iter().map(|&l| (l - norm).exp()).collect()
        }

        fn add_point(st: &mut SuffStats, x: &[f64], resp: &[f64]) {
            for (k, &r) in resp.iter().enumerate() {
                if r == 0.0 {
                    continue;
                }
                st.gamma[k] += r;
                for (s, &xi) in st.sum_x[k].iter_mut().zip(x) {
                    *s += r * xi;
                }
                let d = x.len();
                let sxx = &mut st.sum_xx[k];
                for i in 0..d {
                    let rxi = r * x[i];
                    for j in 0..d {
                        let v = sxx.get(i, j) + rxi * x[j];
                        sxx.set(i, j, v);
                    }
                }
            }
            st.n += 1.0;
        }

        fn merge(st: &mut SuffStats, other: &SuffStats) {
            for k in 0..st.components() {
                st.gamma[k] += other.gamma[k];
                for (s, &o) in st.sum_x[k].iter_mut().zip(&other.sum_x[k]) {
                    *s += o;
                }
                st.sum_xx[k] = st.sum_xx[k].add(&other.sum_xx[k]).unwrap();
            }
            st.n += other.n;
        }

        /// Serial over the same `EM_CHUNK` chunks, merged in chunk order.
        pub fn e_step(
            data: &[Vec<f64>],
            ds: &[Density],
            weights: &[f64],
            chunk_rows: usize,
        ) -> (SuffStats, f64, (f64, usize)) {
            let (g, d) = (ds.len(), data[0].len());
            let mut stats = SuffStats::zeros(g, d);
            let mut ll = 0.0;
            let mut worst: (f64, usize) = (f64::INFINITY, 0);
            for (ci, chunk) in data.chunks(chunk_rows).enumerate() {
                let base = ci * chunk_rows;
                let mut cstats = SuffStats::zeros(g, d);
                let mut cll = 0.0;
                let mut cworst: (f64, usize) = (f64::INFINITY, 0);
                for (off, x) in chunk.iter().enumerate() {
                    let logs = logs(ds, weights, x);
                    let norm = log_sum_exp(&logs);
                    cll += norm;
                    if norm < cworst.0 {
                        cworst = (norm, base + off);
                    }
                    let resp: Vec<f64> = logs.iter().map(|&l| (l - norm).exp()).collect();
                    add_point(&mut cstats, x, &resp);
                }
                merge(&mut stats, &cstats);
                ll += cll;
                if cworst.0 < worst.0 {
                    worst = cworst;
                }
            }
            (stats, ll, worst)
        }

        pub fn log_likelihood(ds: &[Density], weights: &[f64], data: &[Vec<f64>]) -> f64 {
            data.iter()
                .map(|x| log_sum_exp(&logs(ds, weights, x)))
                .sum()
        }
    }

    /// A random `g`-component mixture in `d` dimensions and `n` points drawn
    /// from it. The last component (when `g > 1`) has weight zero, the second
    /// has a rank-one covariance (factored with jitter), and the middle point
    /// is a far outlier.
    fn random_case(
        rng: &mut StdRng,
        g: usize,
        d: usize,
        n: usize,
    ) -> (Vec<Gaussian>, Vec<f64>, Vec<Vec<f64>>) {
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
        normalize(&mut weights);
        let mut data: Vec<Vec<f64>> = (0..n)
            .map(|_| components[rng.gen_range(0..g)].sample(rng))
            .collect();
        data[n / 2] = vec![1e3; d];
        (components, weights, data)
    }

    fn stats_bits(st: &SuffStats) -> Vec<u64> {
        let mut v: Vec<f64> = st.gamma.clone();
        v.extend(st.sum_x.iter().flatten());
        v.extend(st.sum_xx.iter().flat_map(|m| m.as_slice().iter()));
        v.push(st.n);
        v.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn e_step_and_log_likelihood_match_the_per_point_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(2024);
        for g in 1..=4 {
            for d in 1..=6 {
                for n in [1, 255, 256, 257, 1000] {
                    let case = format!("g={g} d={d} n={n}");
                    let (components, weights, data) = random_case(&mut rng, g, d, n);
                    let dens: Vec<_> = components.iter().map(reference::density).collect();
                    let (want_stats, want_ll, want_worst) =
                        reference::e_step(&data, &dens, &weights, EM_CHUNK);
                    let rows = flatten(&data).unwrap();
                    let (stats, ll, worst) = e_step(Points::new(&rows, n), &components, &weights);
                    assert_eq!(stats_bits(&stats), stats_bits(&want_stats), "stats, {case}");
                    assert_eq!(ll.to_bits(), want_ll.to_bits(), "log-likelihood, {case}");
                    assert_eq!(worst.0.to_bits(), want_worst.0.to_bits(), "worst, {case}");
                    assert_eq!(worst.1, want_worst.1, "worst index, {case}");

                    let gmm = Gmm::from_parts(weights.clone(), components, stats, 1e-6).unwrap();
                    let want = reference::log_likelihood(&dens, &weights, &data);
                    assert_eq!(
                        gmm.log_likelihood(&data).to_bits(),
                        want.to_bits(),
                        "{case}"
                    );
                    let resp = gmm.responsibilities(&data[0]);
                    let want = reference::responsibilities(&dens, &weights, &data[0]);
                    assert!(
                        resp.iter()
                            .zip(&want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "responsibilities, {case}"
                    );
                }
            }
        }
    }

    #[test]
    fn aic_bic_finite() {
        let mut rng = StdRng::seed_from_u64(8);
        let data = two_cluster_data(&mut rng, 100);
        let gmm = Gmm::fit(&data, 2, &GmmConfig::default(), &mut rng).unwrap();
        assert!(gmm.aic(&data).is_finite());
        assert!(gmm.bic(&data).is_finite());
        assert!(gmm.bic(&data) >= gmm.aic(&data)); // ln(100) > 2
    }
}
