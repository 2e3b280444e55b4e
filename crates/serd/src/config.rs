//! SERD pipeline configuration.

use crate::backend::Backend;
use gan::TabularGanConfig;
use gmm::GmmConfig;
use marginals::MarginalsConfig;
use transformer::BucketedSynthesizerConfig;

/// All knobs of the SERD pipeline, defaulting to the paper's settings
/// (Section VII "Settings").
#[derive(Debug, Clone)]
pub struct SerdConfig {
    /// Target `|A_syn|`; `None` copies `|A_real|` (the paper's default).
    pub n_a: Option<usize>,
    /// Target `|B_syn|`; `None` copies `|B_real|`.
    pub n_b: Option<usize>,
    /// GMM fitting configuration for the M-/N-distributions.
    pub gmm: GmmConfig,
    /// Non-matching pairs sampled from `E_real` when learning the
    /// N-distribution.
    pub neg_samples: usize,
    /// Probability that step S2-2 samples from the M-distribution. `None`
    /// auto-derives `|M_real| / (n_a + n_b)` so `E_syn` carries about as many
    /// S2 matching pairs as `E_real` has matches — the count a downstream
    /// matcher needs. (The paper samples with `π = |X+| / (|X+| + |X-|)`,
    /// which depends on how exhaustively `X-` is materialized; pinning the
    /// expectation to `|M_real|` reproduces its evaluation setting.)
    pub match_rate: Option<f64>,
    /// Distribution-rejection strictness `α` (Eq. 10; paper default 1.0).
    pub alpha: f64,
    /// Discriminator-rejection threshold `β` (paper default 0.6).
    pub beta: f64,
    /// Enable rejection Case 1 (GAN discriminator).
    pub reject_by_discriminator: bool,
    /// Enable rejection Case 2 (distribution drift, Eq. 10).
    pub reject_by_distribution: bool,
    /// Entities sampled from `T_e` when computing `ΔX_syn` (paper Section V
    /// Remark 1; keeps the rejection check O(t) instead of O(|T_e|)).
    pub t_sample: usize,
    /// Monte-Carlo draws per side of a JSD estimate: the size of the
    /// rejection tracker's sheet (`gmm::JsdSheet`).
    pub jsd_samples: usize,
    /// Synthesized pairs collected before the `O_syn` tracker is first
    /// fitted (the distribution test needs a stable baseline).
    pub osyn_warmup: usize,
    /// Retries before a repeatedly rejected entity is accepted anyway (the
    /// paper notes rejection must not loop forever; `α`/`β` tuning plus this
    /// cap guarantee progress).
    pub max_retries: usize,
    /// Bucketed-transformer training configuration (text columns).
    pub text: BucketedSynthesizerConfig,
    /// Which tabular backend `fit` trains for the numeric/categorical
    /// columns (cold start + rejection Case 1). The GAN is the paper's
    /// default; `Backend::Marginals` swaps in the DP-marginals synthesizer.
    pub backend: Backend,
    /// Tabular GAN configuration (used when `backend` is `Backend::Gan`).
    pub gan: TabularGanConfig,
    /// Background rows generated to train the GAN.
    pub gan_rows: usize,
    /// DP-marginals configuration (used when `backend` is
    /// `Backend::Marginals`).
    pub marginals: MarginalsConfig,
}

impl Default for SerdConfig {
    fn default() -> Self {
        SerdConfig {
            n_a: None,
            n_b: None,
            gmm: GmmConfig::default(),
            neg_samples: 2000,
            match_rate: None,
            alpha: 1.0,
            beta: 0.6,
            reject_by_discriminator: true,
            reject_by_distribution: true,
            t_sample: 20,
            jsd_samples: 200,
            osyn_warmup: 30,
            max_retries: 8,
            text: BucketedSynthesizerConfig::default(),
            backend: Backend::Gan,
            gan: TabularGanConfig::default(),
            gan_rows: 200,
            marginals: MarginalsConfig::default(),
        }
    }
}

impl SerdConfig {
    /// A configuration sized for unit tests and quick demos: tiny transformer
    /// family, fewer JSD samples, fewer retries.
    pub fn fast() -> Self {
        SerdConfig {
            neg_samples: 400,
            jsd_samples: 80,
            t_sample: 10,
            osyn_warmup: 20,
            max_retries: 4,
            text: BucketedSynthesizerConfig::test_tiny(),
            gan: TabularGanConfig::test_tiny(),
            gan_rows: 60,
            marginals: MarginalsConfig::test_tiny(),
            ..Default::default()
        }
    }

    /// Switches the tabular backend (builder style).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The `SERD-` ablation: same pipeline with both rejection cases off
    /// (paper Section VII "Comparisons").
    pub fn without_rejection(mut self) -> Self {
        self.reject_by_discriminator = false;
        self.reject_by_distribution = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let cfg = SerdConfig::default();
        assert_eq!(cfg.alpha, 1.0);
        assert_eq!(cfg.beta, 0.6);
        assert_eq!(cfg.text.buckets, 10);
        assert_eq!(cfg.text.candidates, 10);
        assert!(cfg.reject_by_discriminator && cfg.reject_by_distribution);
    }

    #[test]
    fn without_rejection_flips_both_flags() {
        let cfg = SerdConfig::default().without_rejection();
        assert!(!cfg.reject_by_discriminator);
        assert!(!cfg.reject_by_distribution);
    }
}
