//! **SERD** — Synthesize ER Datasets (the paper's core contribution).
//!
//! Given a real ER dataset `E_real = (A, B, M, N)` and background corpora for
//! its textual columns, SERD produces a fully synthetic `E_syn` whose pair
//! similarity distribution matches `E_real`'s, so that matchers trained on
//! `E_syn` behave like matchers trained on `E_real` — without exposing any
//! real entity (paper Sections III–VI).
//!
//! Pipeline (Figure 3):
//!
//! * **S1** ([`SerdSynthesizer::fit`]): compute `X+`/`X-` similarity vectors,
//!   fit the M- and N-distributions as AIC-selected multivariate GMMs, and
//!   train the per-column bucketed DP transformers plus the tabular GAN on
//!   background data.
//! * **S2** ([`SerdSynthesizer::synthesize`]): iteratively sample a
//!   synthesized entity `e` and a similarity vector `x ~ O_real`, synthesize
//!   `e'` column-by-column so `sim(e, e') = x`, and subject `e'` to **entity
//!   rejection** — the GAN discriminator test (`D(e') ≥ β`) and the
//!   distribution test (`JSD(O'_syn, O_real) ≤ α · JSD(O_syn, O_real)`,
//!   Eq. 10, maintained incrementally via the GMM sufficient-statistics
//!   update, both sides estimated on one sheet of common random numbers).
//! * **S3**: label every remaining pair by GMM posterior (`P_m(x) ≥ P_n(x)`),
//!   using q-gram blocking instead of the full cross product.
//!
//! The `SERD-` ablation (rejection off) and the EMBench-style perturbation
//! baseline (paper Section VII "Comparisons") live in [`baselines`].
//!
//! The pipeline is split into an **offline** phase (`fit`, hours) and an
//! **online** phase (`synthesize`, minutes) that meet at the versioned
//! [`SerdModel`] artifact (`serd-model-v1`): `fit` returns a model, the
//! model can be saved/loaded as a line-oriented text artifact, and
//! [`SerdSynthesizer::from_model`] turns it back into a runnable
//! synthesizer. Synthesis is bit-identical whether the model came from `fit`
//! in the same process or from disk.
//!
//! ```no_run
//! use serd::{SerdConfig, SerdModel, SerdSynthesizer};
//! use rand::SeedableRng;
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! # let sim = datagen::generate(datagen::DatasetKind::Restaurant, 0.02, &mut rng);
//! // Offline: fit once, save the artifact.
//! let model = SerdSynthesizer::fit(
//!     &sim.er,
//!     &sim.background,
//!     SerdConfig::fast(),
//!     &mut rng,
//! ).unwrap();
//! model.save_to("model.serd").unwrap();
//! // Online: load and synthesize (possibly elsewhere, later).
//! let synthesizer = SerdSynthesizer::from_model(SerdModel::load_from("model.serd").unwrap());
//! let out = synthesizer.synthesize(&mut rng).unwrap();
//! println!("synthesized {} x {} entities, {} matches",
//!          out.er.a().len(), out.er.b().len(), out.er.num_matches());
//! ```

mod algorithm;
pub mod api;
mod backend;
pub mod baselines;
mod config;
pub mod decision;
mod model;
mod rejection;
mod synthesis;

pub use algorithm::{SerdSynthesizer, SynthesisPlan, SynthesisStats, SynthesizedEr};
pub use backend::{Backend, TabularBackend};
pub use config::SerdConfig;
pub use model::{OnlineConfig, SerdModel};
pub use rejection::OSynState;
pub use synthesis::{ColumnSynthesizer, PreparedEntity, Side};
// Re-exported so downstream users (CLI, tests) can call `Persist` methods on
// artifacts without depending on the persist crate directly.
pub use persist::{Persist, PersistError};

/// Errors from the SERD pipeline.
#[derive(Debug)]
pub enum SerdError {
    /// The real dataset has no matching pairs to learn from.
    NoMatches,
    /// Distribution learning failed (e.g. all similarity vectors identical).
    Gmm(gmm::GmmError),
    /// The data model rejected a synthesized row (internal invariant).
    Er(er_core::ErError),
    /// Saving or loading a model artifact failed (IO, corruption, version
    /// skew — see [`PersistError`]).
    Persist(PersistError),
}

impl std::fmt::Display for SerdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerdError::NoMatches => write!(f, "real dataset has no matching pairs"),
            SerdError::Gmm(e) => write!(f, "distribution learning failed: {e}"),
            SerdError::Er(e) => write!(f, "data model error: {e}"),
            SerdError::Persist(e) => write!(f, "model artifact error: {e}"),
        }
    }
}

impl std::error::Error for SerdError {}

impl From<gmm::GmmError> for SerdError {
    fn from(e: gmm::GmmError) -> Self {
        SerdError::Gmm(e)
    }
}

impl From<er_core::ErError> for SerdError {
    fn from(e: er_core::ErError) -> Self {
        SerdError::Er(e)
    }
}

impl From<PersistError> for SerdError {
    fn from(e: PersistError) -> Self {
        SerdError::Persist(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, SerdError>;
