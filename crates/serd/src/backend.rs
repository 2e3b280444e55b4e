//! The tabular-backend seam: enum dispatch over the generators that can fill
//! the numeric/categorical/date part of a synthesized entity.
//!
//! The paper hard-wires a tabular GAN into two spots of the online loop: the
//! cold-start bootstrap entity (Section IV-B2) and rejection Case 1, where a
//! candidate whose discriminator probability falls below `β` is discarded
//! (Section V). [`TabularBackend`] abstracts exactly those two capabilities —
//! *generate a plausible entity* and *score an entity's plausibility in
//! `[0, 1]`* — so a cheaper DP-marginals synthesizer (PrivSyn-style, see
//! `crates/marginals`) can stand in for the GAN without touching the rest of
//! the pipeline.
//!
//! Dispatch is a plain enum, not a trait object: the backend must be `Clone`
//! for serving replicas, persistable, and there are exactly two variants —
//! an enum keeps match-exhaustiveness checking and avoids boxing on the hot
//! rejection path.
//!
//! # RNG-stream contract
//!
//! The default GAN variant must consume the *identical* RNG stream the
//! pre-seam code consumed, in `fit` and in the online loop, so golden outputs
//! stay byte-identical. Every method here is therefore a zero-cost forward on
//! the GAN arm; only the `Marginals` arm introduces new draws (on its own
//! code path, selected explicitly via `SerdConfig::backend`).

use er_core::{Entity, Value};
use gan::TabularGan;
use marginals::MarginalSynthesizer;
use persist::{Reader, Writer};
use rand::Rng;

/// Which tabular backend to train / which one an artifact carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's tabular GAN (cold-start generator + rejection
    /// discriminator, optional DP-SGD on the discriminator).
    Gan,
    /// DP-marginals synthesizer: noisy 1-/2-way marginals with PrivSyn-style
    /// greedy selection (`crates/marginals`).
    Marginals,
}

impl Backend {
    /// Every selectable backend, in CLI listing order.
    pub const ALL: [Backend; 2] = [Backend::Gan, Backend::Marginals];

    /// The stable lowercase name used by `fit --backend`, `/models`, and
    /// artifact metadata.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Gan => "gan",
            Backend::Marginals => "marginals",
        }
    }

    /// Parses a CLI/user-supplied backend name.
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == s)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A trained tabular backend, carried by [`crate::SerdModel`].
pub enum TabularBackend {
    /// Trained GAN (generator + discriminator).
    Gan(TabularGan),
    /// Measured noisy marginals.
    Marginals(MarginalSynthesizer),
}

impl TabularBackend {
    /// Which backend family this is.
    pub fn kind(&self) -> Backend {
        match self {
            TabularBackend::Gan(_) => Backend::Gan,
            TabularBackend::Marginals(_) => Backend::Marginals,
        }
    }

    /// Generates one entity's values in schema order (the online loop's
    /// cold-start bootstrap). Text columns draw from `corpora`.
    pub fn generate_entity<R: Rng + ?Sized>(
        &self,
        corpora: &[Vec<String>],
        rng: &mut R,
    ) -> Vec<Value> {
        match self {
            TabularBackend::Gan(g) => g.generate_entity(corpora, rng),
            TabularBackend::Marginals(m) => m.generate_entity(corpora, rng),
        }
    }

    /// Plausibility of a candidate in `[0, 1]`, compared against `β` by
    /// rejection Case 1. GAN: discriminator probability. Marginals: mean
    /// relative likelihood under the released 1-way marginals.
    pub fn plausibility(&self, entity: &Entity) -> f64 {
        match self {
            TabularBackend::Gan(g) => g.discriminator_prob(entity),
            TabularBackend::Marginals(m) => m.plausibility(entity),
        }
    }

    /// DP ε (δ = 1e-5) this backend spent, accounted through
    /// `dp::RdpAccountant`: DP-SGD steps for the GAN (0.0 when the
    /// discriminator trains without DP), Gaussian marginal releases for the
    /// marginals backend.
    pub fn epsilon(&self) -> f64 {
        match self {
            TabularBackend::Gan(g) => g.epsilon(),
            TabularBackend::Marginals(m) => m.epsilon(),
        }
    }

    /// Writes the backend's own persist section (`serd-gan-v1` or
    /// `serd-marginals-v1`). The GAN arm emits byte-identical output to the
    /// pre-seam `serd-model-v1` layout, so existing artifacts stay valid.
    pub fn write_into(&self, w: &mut Writer) {
        match self {
            TabularBackend::Gan(g) => w.child(g),
            TabularBackend::Marginals(m) => w.child(m),
        }
    }

    /// Reads whichever backend section comes next, dispatching on the peeked
    /// magic line's component family. Unknown or missing content falls
    /// through to the GAN reader so pre-seam artifacts load unchanged and
    /// errors keep naming the `serd-gan-v1` magic they always named.
    pub fn read_from(r: &mut Reader<'_>) -> persist::Result<Self> {
        let peeked = r.peek_line().unwrap_or("").trim();
        if persist::family(peeked) == Some("serd-marginals") {
            Ok(TabularBackend::Marginals(r.child()?))
        } else {
            Ok(TabularBackend::Gan(r.child()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use er_core::Relation;
    use gan::{DpGanConfig, TabularGanConfig};
    use marginals::MarginalsConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Instant;

    #[test]
    fn backend_names_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(format!("{b}"), b.name());
        }
        assert_eq!(Backend::parse("frobnicator"), None);
        assert_eq!(Backend::parse("GAN"), None, "names are case-sensitive");
    }

    /// The marginals backend's reason to exist: on the same pooled rows, at
    /// the σ grid point whose ε is closest to the DP-GAN's, measuring the
    /// marginals (best of 3) takes less time than training the GAN. Only
    /// the backend step is timed; a full `fit`'s GMM and text-model costs
    /// are the same for both.
    #[test]
    fn marginals_fit_is_faster_than_dp_gan_at_matched_epsilon() {
        let mut rng = StdRng::seed_from_u64(11);
        let sim = generate(DatasetKind::Restaurant, 0.03, &mut rng);
        let (a, b) = (sim.er.a(), sim.er.b());
        let mut pooled = Relation::new("pooled", a.schema().clone());
        for e in a.entities().iter().chain(b.entities()) {
            pooled.push_entity(e.clone()).expect("schema-valid row");
        }

        let gan_cfg = TabularGanConfig {
            dp: Some(DpGanConfig {
                clip: 1.0,
                sigma: 1.0,
            }),
            ..TabularGanConfig::default()
        };
        let t = Instant::now();
        let gan = TabularGan::train(&pooled, gan_cfg, &mut rng);
        let gan_time = t.elapsed();
        assert!(gan.epsilon() > 0.0, "the GAN must train under DP-SGD");

        let (cfg, _) = [32.0, 16.0, 8.0, 4.0, 2.0, 1.0]
            .into_iter()
            .map(|sigma| {
                let cfg = MarginalsConfig {
                    sigma,
                    ..MarginalsConfig::default()
                };
                let eps = MarginalSynthesizer::measure(a, b, &cfg, &mut rng).epsilon();
                (cfg, (eps - gan.epsilon()).abs())
            })
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("non-empty σ grid");
        let marginals_time = (0..3)
            .map(|_| {
                let t = Instant::now();
                MarginalSynthesizer::measure(a, b, &cfg, &mut rng);
                t.elapsed()
            })
            .min()
            .expect("three runs");
        assert!(
            marginals_time < gan_time,
            "marginals at σ = {} took {marginals_time:?}, DP-GAN at ε = {:.3} took {gan_time:?}",
            cfg.sigma,
            gan.epsilon()
        );
    }
}
