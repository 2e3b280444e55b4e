//! Entity rejection by distribution (paper Section V, Case 2).
//!
//! Tracks the synthesized dataset's `O_syn` distribution and answers, for a
//! newly synthesized entity `e'` with cross-pair similarity vectors
//! `ΔX_syn`, whether committing it would pull `O_syn` away from `O_real`
//! (Eq. 10). Updates use the GMM incremental sufficient-statistics path
//! (Eq. 8–9), never a full refit.
//!
//! Both sides of Eq. 10 are estimated on one [`JsdSheet`] of common random
//! numbers, drawn when warm-up ends. An estimate on a fixed sheet is a pure
//! function of the mixture, so the tracker memoizes exactly: a commit of
//! the candidate the last test accepted adopts that candidate's mixture and
//! JSD, and a current JSD that a commit the tracker did not test left stale
//! is estimated only when a test next reads it.

use crate::Result;
use gmm::{Gmm, GmmConfig, JsdSheet, OMixture};
use rand::Rng;

/// The maintained `O_syn` state.
pub struct OSynState {
    /// Warm-up buffer of labeled vectors collected before the first fit.
    warmup_pos: Vec<Vec<f64>>,
    warmup_neg: Vec<Vec<f64>>,
    warmup_target: usize,
    /// Running counts for `π` maintenance.
    n_pos: usize,
    n_neg: usize,
    /// The fitted state, once warm-up has ended.
    tracked: Option<Tracked>,
}

/// `O_syn` after warm-up, with the sheet every Eq. 10 estimate is made on.
struct Tracked {
    mixture: OMixture,
    sheet: JsdSheet,
    /// `JSD(O_syn, O_real)` on the sheet; `None` while stale.
    jsd: Option<f64>,
    /// The candidate the last test accepted, against the current state.
    accepted: Option<Accepted>,
    /// Estimates made on the sheet.
    estimates: usize,
    /// Each current JSD as it became known, kept while `obs` is enabled.
    trajectory: Vec<f64>,
}

/// A candidate `would_reject` accepted: its rows and their posterior split,
/// and the updated mixture and its JSD.
struct Accepted {
    rows: Vec<Vec<f64>>,
    pos: usize,
    neg: usize,
    mixture: OMixture,
    jsd: f64,
}

impl Tracked {
    /// The estimate of `p` on the sheet.
    fn estimate(&mut self, p: &OMixture) -> f64 {
        self.estimates += 1;
        self.sheet.estimate(p)
    }

    /// The current JSD, estimated now if stale.
    fn current_jsd(&mut self) -> f64 {
        if let Some(jsd) = self.jsd {
            return jsd;
        }
        self.estimates += 1;
        let jsd = self.sheet.estimate(&self.mixture);
        self.set_jsd(jsd);
        jsd
    }

    /// Records a current JSD that has become known.
    fn set_jsd(&mut self, jsd: f64) {
        self.jsd = Some(jsd);
        if obs::enabled() {
            self.trajectory.push(jsd);
        }
    }
}

impl OSynState {
    /// Creates an empty tracker that will fit its mixtures once
    /// `warmup_target` labeled vectors have been collected.
    pub fn new(warmup_target: usize) -> Self {
        OSynState {
            warmup_pos: Vec::new(),
            warmup_neg: Vec::new(),
            warmup_target: warmup_target.max(4),
            n_pos: 0,
            n_neg: 0,
            tracked: None,
        }
    }

    /// Whether the tracker has fitted its mixtures (warm-up complete).
    pub fn is_active(&self) -> bool {
        self.tracked.is_some()
    }

    /// The current `JSD(O_syn, O_real)` on the tracker's sheet, if known:
    /// `None` before warm-up ends, and after a commit the tracker did not
    /// test until a test next reads it.
    pub fn jsd_current(&self) -> Option<f64> {
        self.tracked.as_ref().and_then(|t| t.jsd)
    }

    /// The tracked mixture, if fitted.
    pub fn mixture(&self) -> Option<&OMixture> {
        self.tracked.as_ref().map(|t| &t.mixture)
    }

    /// The JSD estimates the tracker has made: one when warm-up ends, one
    /// per tested candidate, and one per stale current JSD a test read.
    pub fn jsd_estimates(&self) -> usize {
        self.tracked.as_ref().map_or(0, |t| t.estimates)
    }

    /// Each current JSD in the order it became known (at warm-up end, on
    /// adopting an accepted candidate, on estimating a stale one), recorded
    /// while `obs` is enabled: the left side of Eq. 10 over the run.
    pub fn jsd_trajectory(&self) -> &[f64] {
        self.tracked.as_ref().map_or(&[], |t| &t.trajectory)
    }

    /// Commits a batch of vectors labeled by `o_real`'s posterior (Eq. 7).
    ///
    /// During warm-up, vectors are copied into a buffer; once the target is
    /// reached the mixtures are fitted from it, one seed is drawn from `rng`
    /// for a sheet of `jsd_samples` draws against `o_real`, and the first
    /// JSD is estimated on it. After warm-up, `rng` is not read. A batch
    /// whose rows equal, bit for bit, those of the candidate the last
    /// [`OSynState::would_reject`] accepted adopts that candidate's mixture
    /// and JSD; any other batch flows through the incremental update
    /// without being copied and leaves the JSD stale.
    pub fn commit<R: Rng + ?Sized>(
        &mut self,
        vectors: &[Vec<f64>],
        o_real: &OMixture,
        gmm_cfg: &GmmConfig,
        jsd_samples: usize,
        rng: &mut R,
    ) -> Result<()> {
        if vectors.is_empty() {
            return Ok(()); // nothing changes, and a memo stays exact
        }
        let Some(tracked) = &mut self.tracked else {
            let (pos, neg) = split_by_posterior(vectors, o_real);
            self.n_pos += pos.len();
            self.n_neg += neg.len();
            self.warmup_pos.extend(pos.iter().map(|v| v.to_vec()));
            self.warmup_neg.extend(neg.iter().map(|v| v.to_vec()));
            if self.warmup_pos.len() + self.warmup_neg.len() >= self.warmup_target
                && self.warmup_pos.len() >= 2
                && self.warmup_neg.len() >= 2
            {
                let (m, _) = Gmm::fit_auto(&self.warmup_pos, gmm_cfg, rng)?;
                let (n, _) = Gmm::fit_auto(&self.warmup_neg, gmm_cfg, rng)?;
                let mixture = OMixture::new(matching_share(self.n_pos, self.n_neg), m, n)?;
                let mut tracked = Tracked {
                    sheet: JsdSheet::new(o_real, jsd_samples, rng.gen()),
                    mixture,
                    jsd: None,
                    accepted: None,
                    estimates: 0,
                    trajectory: Vec::new(),
                };
                tracked.current_jsd();
                self.tracked = Some(tracked);
            }
            return Ok(());
        };
        match tracked.accepted.take() {
            Some(a) if same_rows(&a.rows, vectors) => {
                self.n_pos += a.pos;
                self.n_neg += a.neg;
                tracked.mixture = a.mixture;
                tracked.set_jsd(a.jsd);
            }
            _ => {
                let (pos, neg) = split_by_posterior(vectors, o_real);
                self.n_pos += pos.len();
                self.n_neg += neg.len();
                tracked.mixture.m_mut().update_incremental(&pos)?;
                tracked.mixture.n_mut().update_incremental(&neg)?;
                tracked.mixture.set_pi(matching_share(self.n_pos, self.n_neg));
                tracked.jsd = None;
            }
        }
        Ok(())
    }

    /// The rejection test (Eq. 10): would committing `delta` make
    /// `JSD(O'_syn, O_real) > α · JSD(O_syn, O_real)`? Both sides are
    /// estimated on the tracker's sheet, so `jsd_samples` and `rng` are not
    /// read, and the same `delta` gets the same verdict until a commit.
    ///
    /// Returns `false` (accept) while the tracker is still warming up. The
    /// candidate update is evaluated on a clone; the live state is
    /// untouched, but an accepted candidate is kept for the next commit.
    pub fn would_reject<R: Rng + ?Sized>(
        &mut self,
        delta: &[Vec<f64>],
        o_real: &OMixture,
        alpha: f64,
        _jsd_samples: usize,
        _rng: &mut R,
    ) -> bool {
        let Some(tracked) = &mut self.tracked else {
            return false;
        };
        if delta.is_empty() {
            return false;
        }
        let (pos, neg) = split_by_posterior(delta, o_real);
        let mut candidate = tracked.mixture.clone();
        if candidate.m_mut().update_incremental(&pos).is_err()
            || candidate.n_mut().update_incremental(&neg).is_err()
        {
            return true; // degenerate update: treat as drift
        }
        candidate.set_pi(matching_share(self.n_pos + pos.len(), self.n_neg + neg.len()));
        let jsd_current = tracked.current_jsd();
        let jsd_new = tracked.estimate(&candidate);
        if jsd_new > alpha * jsd_current {
            return true;
        }
        tracked.accepted = Some(Accepted {
            rows: delta.to_vec(),
            pos: pos.len(),
            neg: neg.len(),
            mixture: candidate,
            jsd: jsd_new,
        });
        false
    }
}

/// `π`, the share of matching vectors among `n_pos + n_neg`.
fn matching_share(n_pos: usize, n_neg: usize) -> f64 {
    n_pos as f64 / (n_pos + n_neg).max(1) as f64
}

/// Whether two batches hold the same rows, bit for bit.
fn same_rows(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
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
        // Warm-up's end estimates the first JSD.
        assert!(state.jsd_current().is_some_and(f64::is_finite));
        assert_eq!(state.jsd_estimates(), 1);
    }

    #[test]
    fn accepts_everything_during_warmup() {
        let mut rng = StdRng::seed_from_u64(1);
        let o = o_real(&mut rng);
        let mut state = OSynState::new(100);
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
        // A big batch centered far from both modes drags O_syn away. (Both
        // tests run on the sheet of 200 draws warm-up's end drew.)
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

    /// Every float of a mixture that an update or `set_pi` writes: `π`, and
    /// each side's weights, means and covariances, as bit patterns.
    fn bits(o: &OMixture) -> Vec<u64> {
        let mut out = vec![o.pi().to_bits()];
        for g in [o.m(), o.n()] {
            out.extend(g.weights().iter().map(|w| w.to_bits()));
            for c in g.components() {
                out.extend(c.mean().iter().chain(c.cov().as_slice()).map(|v| v.to_bits()));
            }
        }
        out
    }

    /// A tracker warmed on `o` at `seed`, active, with a sheet of 80 draws.
    fn warmed(o: &OMixture, seed: u64) -> (OSynState, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = OSynState::new(30);
        let batch = on_distribution_batch(o, &mut rng, 40);
        state.commit(&batch, o, &GmmConfig::default(), 80, &mut rng).unwrap();
        assert!(state.is_active());
        (state, rng)
    }

    /// Conforming and drifting ΔX batches of ten vectors, interleaved.
    fn batches(o: &OMixture, rng: &mut StdRng) -> Vec<Vec<Vec<f64>>> {
        (0..16)
            .map(|k| match k % 4 {
                3 => (0..10).map(|i| vec![0.4 + 0.01 * i as f64, 0.6]).collect(),
                _ => on_distribution_batch(o, rng, 10),
            })
            .collect()
    }

    #[test]
    fn committing_the_accepted_candidate_equals_recomputing_it() {
        let mut rng = StdRng::seed_from_u64(6);
        let o = o_real(&mut rng);
        let deltas = batches(&o, &mut rng);
        let (mut tested, mut r1) = warmed(&o, 60);
        let (mut untested, mut r2) = warmed(&o, 60);
        let cfg = GmmConfig::default();
        let (mut adopted, mut recomputed) = (0, 0);
        for delta in &deltas {
            // The tested tracker commits every batch, as serdbench's replay
            // does: an accepted one through the memo, a rejected one anew.
            let rejected = tested.would_reject(delta, &o, 1.0, 80, &mut r1);
            tested.commit(delta, &o, &cfg, 80, &mut r1).unwrap();
            if rejected {
                recomputed += 1;
                assert_eq!(tested.jsd_current(), None, "a recomputed commit leaves the JSD stale");
            } else {
                adopted += 1;
                assert!(tested.jsd_current().is_some());
            }
            untested.commit(delta, &o, &cfg, 80, &mut r2).unwrap();
            assert_eq!(bits(tested.mixture().unwrap()), bits(untested.mixture().unwrap()));
            assert_eq!(tested.n_pos, untested.n_pos);
            assert_eq!(tested.n_neg, untested.n_neg);
        }
        assert!(adopted > 0 && recomputed > 0, "adopted {adopted}, recomputed {recomputed}");
        // End on an accepted, adopted batch; then the untested tracker's
        // stale JSD, filled lazily by its next test, is the adopted one.
        let last = on_distribution_batch(&o, &mut rng, 10);
        assert!(!tested.would_reject(&last, &o, 1e9, 80, &mut r1));
        tested.commit(&last, &o, &cfg, 80, &mut r1).unwrap();
        untested.commit(&last, &o, &cfg, 80, &mut r2).unwrap();
        let eager = tested.jsd_current().expect("adopted with its JSD");
        assert_eq!(untested.jsd_current(), None);
        untested.would_reject(&last, &o, 1.0, 80, &mut r2);
        let lazy = untested.jsd_current().expect("filled by the test");
        assert_eq!(eager.to_bits(), lazy.to_bits());
        let t = untested.tracked.as_ref().unwrap();
        assert_eq!(lazy.to_bits(), t.sheet.estimate(&t.mixture).to_bits());
    }

    #[test]
    fn only_the_last_accepted_batch_is_adopted() {
        let mut rng = StdRng::seed_from_u64(7);
        let o = o_real(&mut rng);
        let cfg = GmmConfig::default();
        let d1 = on_distribution_batch(&o, &mut rng, 10);
        let d2 = on_distribution_batch(&o, &mut rng, 10);
        // Equal to d1 under `==`, not bit for bit.
        let mut d1_signed = d1.clone();
        d1_signed[0] = vec![-0.0, d1[0][1]];
        let mut d1_zero = d1.clone();
        d1_zero[0] = vec![0.0, d1[0][1]];
        let prefix = d1[..9].to_vec();
        let cases = [
            (vec![&d1], &d2),             // another batch
            (vec![&d1, &d2], &d1),        // accepted, but not last
            (vec![&d1_zero], &d1_signed), // 0.0 tested, -0.0 committed
            (vec![&d1], &prefix),         // a prefix
        ];
        for (k, (tested, committed)) in cases.into_iter().enumerate() {
            let (mut state, mut r) = warmed(&o, 70);
            let (mut reference, mut r_ref) = warmed(&o, 70);
            for delta in tested {
                assert!(!state.would_reject(delta, &o, 1e9, 80, &mut r), "case {k}");
            }
            state.commit(committed, &o, &cfg, 80, &mut r).unwrap();
            reference.commit(committed, &o, &cfg, 80, &mut r_ref).unwrap();
            assert_eq!(state.jsd_current(), None, "case {k}: adopted a memo");
            assert_eq!(bits(state.mixture().unwrap()), bits(reference.mixture().unwrap()), "case {k}");
        }
    }

    #[test]
    fn after_warmup_the_rng_is_untouched_and_verdicts_repeat() {
        let mut rng = StdRng::seed_from_u64(8);
        let o = o_real(&mut rng);
        let (mut state, mut r) = warmed(&o, 80);
        let before = r.clone();
        let cfg = GmmConfig::default();
        let drift = vec![vec![0.5, 0.5]; 20];
        let conform = on_distribution_batch(&o, &mut rng, 20);
        for delta in [&drift, &conform, &drift] {
            let first = state.would_reject(delta, &o, 1.1, 80, &mut r);
            let estimates = state.jsd_estimates();
            assert_eq!(first, state.would_reject(delta, &o, 1.1, 80, &mut r));
            // The repeat re-estimates the candidate only.
            assert_eq!(state.jsd_estimates(), estimates + 1);
            state.commit(delta, &o, &cfg, 80, &mut r).unwrap();
        }
        assert_eq!(r, before);
    }

    #[test]
    fn jsd_estimates_count_warmup_tests_and_stale_fills() {
        let mut rng = StdRng::seed_from_u64(9);
        let o = o_real(&mut rng);
        let (mut state, mut r) = warmed(&o, 90);
        let cfg = GmmConfig::default();
        assert_eq!(state.jsd_estimates(), 1);
        let d = on_distribution_batch(&o, &mut rng, 10);
        // Tested and adopted: one estimate, for the candidate.
        assert!(!state.would_reject(&d, &o, 1e9, 80, &mut r));
        state.commit(&d, &o, &cfg, 80, &mut r).unwrap();
        assert_eq!(state.jsd_estimates(), 2);
        // Committed untested: the JSD goes stale, at no estimate ...
        let d = on_distribution_batch(&o, &mut rng, 10);
        state.commit(&d, &o, &cfg, 80, &mut r).unwrap();
        state.commit(&d, &o, &cfg, 80, &mut r).unwrap();
        assert_eq!(state.jsd_estimates(), 2);
        // ... until a test reads it: one fill, one candidate.
        state.would_reject(&d, &o, 1.0, 80, &mut r);
        assert_eq!(state.jsd_estimates(), 4);
        // An empty batch changes nothing and is never estimated.
        assert!(!state.would_reject(&[], &o, 1.0, 80, &mut r));
        state.commit(&[], &o, &cfg, 80, &mut r).unwrap();
        assert_eq!(state.jsd_estimates(), 4);
    }

    /// Eq. 10's decision on fixed batches, across 40 sheets: the setting of
    /// `rejects_drifting_batch_accepts_conforming` at 80 samples, each seed
    /// drawing its own O_syn fit and sheet.
    #[test]
    fn decisions_are_stable_across_sheet_seeds() {
        let mut data = StdRng::seed_from_u64(2);
        let o = o_real(&mut data);
        let warm: Vec<Vec<Vec<f64>>> = (0..4).map(|_| on_distribution_batch(&o, &mut data, 30)).collect();
        let drift = vec![vec![0.5, 0.5]; 120];
        let conform = on_distribution_batch(&o, &mut data, 120);
        let (mut drift_rejected, mut conform_accepted) = (0, 0);
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = OSynState::new(30);
            for batch in &warm {
                state.commit(batch, &o, &GmmConfig::default(), 80, &mut rng).unwrap();
            }
            drift_rejected += usize::from(state.would_reject(&drift, &o, 1.2, 80, &mut rng));
            conform_accepted += usize::from(!state.would_reject(&conform, &o, 1.2, 80, &mut rng));
        }
        assert_eq!(drift_rejected, 40);
        assert!(conform_accepted >= 36, "conforming batch accepted on {conform_accepted} of 40 sheets");
    }
}
