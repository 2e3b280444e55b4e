//! Entity rejection by distribution (paper Section V, Case 2).
//!
//! Tracks the synthesized dataset's `O_syn` distribution and answers, for a
//! newly synthesized entity `e'` with cross-pair similarity vectors
//! `ΔX_syn`, whether committing it would pull `O_syn` away from `O_real`
//! (Eq. 10). Updates use the GMM incremental sufficient-statistics path
//! (Eq. 8–9), never a full refit.

use crate::Result;
use gmm::{Gmm, GmmConfig, OMixture};
use rand::Rng;

/// The maintained `O_syn` state.
pub struct OSynState {
    /// Warm-up buffer of labeled vectors collected before the first fit.
    warmup_pos: Vec<Vec<f64>>,
    warmup_neg: Vec<Vec<f64>>,
    warmup_target: usize,
    mixture: Option<OMixture>,
    /// Running counts for `π` maintenance.
    n_pos: usize,
    n_neg: usize,
    /// Cached `JSD(O_syn, O_real)` after the last commit.
    jsd_current: f64,
}

impl OSynState {
    /// Creates an empty tracker that will fit its mixtures once
    /// `warmup_target` labeled vectors have been collected.
    pub fn new(warmup_target: usize) -> Self {
        OSynState {
            warmup_pos: Vec::new(),
            warmup_neg: Vec::new(),
            warmup_target: warmup_target.max(4),
            mixture: None,
            n_pos: 0,
            n_neg: 0,
            jsd_current: f64::INFINITY,
        }
    }

    /// Whether the tracker has fitted its mixtures (warm-up complete).
    pub fn is_active(&self) -> bool {
        self.mixture.is_some()
    }

    /// The current `JSD(O_syn, O_real)` (infinite before warm-up ends).
    pub fn jsd_current(&self) -> f64 {
        self.jsd_current
    }

    /// The tracked mixture, if fitted.
    pub fn mixture(&self) -> Option<&OMixture> {
        self.mixture.as_ref()
    }

    /// Commits a batch of vectors labeled by `o_real`'s posterior (Eq. 7).
    ///
    /// During warm-up, vectors are copied into a buffer; once the target is
    /// reached the mixtures are fitted from it. After warm-up, vectors flow
    /// through the incremental update without being copied.
    pub fn commit<R: Rng + ?Sized>(
        &mut self,
        vectors: &[Vec<f64>],
        o_real: &OMixture,
        gmm_cfg: &GmmConfig,
        jsd_samples: usize,
        rng: &mut R,
    ) -> Result<()> {
        let (pos, neg) = split_by_posterior(vectors, o_real);
        self.n_pos += pos.len();
        self.n_neg += neg.len();
        match &mut self.mixture {
            None => {
                self.warmup_pos.extend(pos.iter().map(|v| v.to_vec()));
                self.warmup_neg.extend(neg.iter().map(|v| v.to_vec()));
                if self.warmup_pos.len() + self.warmup_neg.len() >= self.warmup_target
                    && self.warmup_pos.len() >= 2
                    && self.warmup_neg.len() >= 2
                {
                    let (m, _) = Gmm::fit_auto(&self.warmup_pos, gmm_cfg, rng)?;
                    let (n, _) = Gmm::fit_auto(&self.warmup_neg, gmm_cfg, rng)?;
                    let pi = self.n_pos as f64 / (self.n_pos + self.n_neg).max(1) as f64;
                    let mixture = OMixture::new(pi, m, n)?;
                    self.jsd_current = mixture.jsd(o_real, jsd_samples, rng);
                    self.mixture = Some(mixture);
                }
            }
            Some(mixture) => {
                mixture.m_mut().update_incremental(&pos)?;
                mixture.n_mut().update_incremental(&neg)?;
                let pi = self.n_pos as f64 / (self.n_pos + self.n_neg).max(1) as f64;
                mixture.set_pi(pi);
                self.jsd_current = mixture.jsd(o_real, jsd_samples, rng);
            }
        }
        Ok(())
    }

    /// The rejection test (Eq. 10): would committing `delta` make
    /// `JSD(O'_syn, O_real) > α · JSD(O_syn, O_real)`?
    ///
    /// Returns `false` (accept) while the tracker is still warming up. The
    /// candidate update is evaluated on a clone; the live state is untouched.
    pub fn would_reject<R: Rng + ?Sized>(
        &self,
        delta: &[Vec<f64>],
        o_real: &OMixture,
        alpha: f64,
        jsd_samples: usize,
        rng: &mut R,
    ) -> bool {
        let Some(mixture) = &self.mixture else {
            return false;
        };
        if delta.is_empty() {
            return false;
        }
        let (pos, neg) = split_by_posterior(delta, o_real);
        let mut candidate = mixture.clone();
        if candidate.m_mut().update_incremental(&pos).is_err()
            || candidate.n_mut().update_incremental(&neg).is_err()
        {
            return true; // degenerate update: treat as drift
        }
        let pi = (self.n_pos + pos.len()) as f64
            / (self.n_pos + self.n_neg + delta.len()).max(1) as f64;
        candidate.set_pi(pi);
        let jsd_new = candidate.jsd(o_real, jsd_samples, rng);
        jsd_new > alpha * self.jsd_current
    }
}

/// Splits vectors into (matching, non-matching) by `o_real`'s posterior rule
/// `P_m(x) ≥ P_n(x)` (paper Eq. 7), borrowing the rows.
fn split_by_posterior<'v>(
    vectors: &'v [Vec<f64>],
    o_real: &OMixture,
) -> (Vec<&'v [f64]>, Vec<&'v [f64]>) {
    let mut pos = Vec::new();
    let mut neg = Vec::new();
    for v in vectors {
        if o_real.is_match(v) {
            pos.push(v.as_slice());
        } else {
            neg.push(v.as_slice());
        }
    }
    (pos, neg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm::Gaussian;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn o_real(rng: &mut StdRng) -> OMixture {
        let gm = Gaussian::isotropic(vec![0.85, 0.85], 0.004).unwrap();
        let gn = Gaussian::isotropic(vec![0.15, 0.15], 0.004).unwrap();
        let pos: Vec<Vec<f64>> = (0..150).map(|_| gm.sample(rng)).collect();
        let neg: Vec<Vec<f64>> = (0..450).map(|_| gn.sample(rng)).collect();
        OMixture::learn(&pos, &neg, &GmmConfig::default(), rng).unwrap()
    }

    fn on_distribution_batch(o: &OMixture, rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| o.sample(rng).0).collect()
    }

    #[test]
    fn warmup_then_activates() {
        let mut rng = StdRng::seed_from_u64(0);
        let o = o_real(&mut rng);
        let mut state = OSynState::new(30);
        assert!(!state.is_active());
        let batch = on_distribution_batch(&o, &mut rng, 40);
        state
            .commit(&batch, &o, &GmmConfig::default(), 100, &mut rng)
            .unwrap();
        assert!(state.is_active());
        assert!(state.jsd_current().is_finite());
    }

    #[test]
    fn accepts_everything_during_warmup() {
        let mut rng = StdRng::seed_from_u64(1);
        let o = o_real(&mut rng);
        let state = OSynState::new(100);
        // Even wildly off-distribution deltas pass while warming up.
        let delta = vec![vec![0.5, 0.5]; 10];
        assert!(!state.would_reject(&delta, &o, 1.0, 50, &mut rng));
    }

    #[test]
    fn a_tracker_fed_only_non_matches_never_fits_and_accepts_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let o = o_real(&mut rng);
        let mut state = OSynState::new(20);
        let gn = Gaussian::isotropic(vec![0.15, 0.15], 0.004).unwrap();
        // Far past the warm-up target, but no vector is labeled matching.
        for _ in 0..6 {
            let batch: Vec<Vec<f64>> = (0..20).map(|_| gn.sample(&mut rng)).collect();
            assert!(batch.iter().all(|v| !o.is_match(v)));
            state.commit(&batch, &o, &GmmConfig::default(), 50, &mut rng).unwrap();
        }
        assert!(!state.is_active());
        // Case 2 is off: even a far-off batch is accepted (S2 counts these
        // accepts as `SynthesisStats::warmup_accepts`).
        let drift = vec![vec![0.5, 0.5]; 20];
        assert!(!state.would_reject(&drift, &o, 1.0, 50, &mut rng));
    }

    #[test]
    fn rejects_drifting_batch_accepts_conforming() {
        let mut rng = StdRng::seed_from_u64(2);
        let o = o_real(&mut rng);
        let mut state = OSynState::new(30);
        for _ in 0..4 {
            let batch = on_distribution_batch(&o, &mut rng, 30);
            state
                .commit(&batch, &o, &GmmConfig::default(), 200, &mut rng)
                .unwrap();
        }
        assert!(state.is_active());
        // A big batch centered far from both modes drags O_syn away.
        let drift = vec![vec![0.5, 0.5]; 120];
        let reject_drift = state.would_reject(&drift, &o, 1.2, 400, &mut rng);
        // A batch straight from O_real should not trip the alpha=1.2 test.
        let conform = on_distribution_batch(&o, &mut rng, 120);
        let reject_conform = state.would_reject(&conform, &o, 1.2, 400, &mut rng);
        assert!(
            reject_drift && !reject_conform,
            "drift={reject_drift} conform={reject_conform}"
        );
    }

    #[test]
    fn huge_alpha_never_rejects() {
        let mut rng = StdRng::seed_from_u64(3);
        let o = o_real(&mut rng);
        let mut state = OSynState::new(20);
        let batch = on_distribution_batch(&o, &mut rng, 40);
        state
            .commit(&batch, &o, &GmmConfig::default(), 100, &mut rng)
            .unwrap();
        let drift = vec![vec![0.5, 0.5]; 100];
        assert!(!state.would_reject(&drift, &o, 1e9, 100, &mut rng));
    }

    #[test]
    fn commit_updates_pi() {
        let mut rng = StdRng::seed_from_u64(4);
        let o = o_real(&mut rng);
        let mut state = OSynState::new(10);
        let batch = on_distribution_batch(&o, &mut rng, 60);
        state
            .commit(&batch, &o, &GmmConfig::default(), 50, &mut rng)
            .unwrap();
        let pi = state.mixture().unwrap().pi();
        // O_real has pi = 0.25; the sampled batch should be in that vicinity.
        assert!(pi > 0.05 && pi < 0.5, "pi {pi}");
    }
}
