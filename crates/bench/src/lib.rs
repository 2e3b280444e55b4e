//! Shared scaffolding for the `exp_*` experiment binaries (one per paper
//! table/figure). The benchmark is `serdbench/`, a workspace of its own.
//!
//! Every experiment binary reads an optional scale factor from the
//! `SERD_SCALE` environment variable (a multiplier on the per-dataset
//! default scales below) so the full paper-sized runs remain reachable:
//! `SERD_SCALE=20 cargo run --release -p bench --bin exp_table3`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::datagen::{generate_with_min_matches, DatasetKind, SimulatedDataset};
use serd_repro::serd::baselines::{embench, serd_minus};
use serd_repro::serd::{SerdConfig, SerdSynthesizer, SynthesizedEr};

/// Default simulation scale per dataset, chosen so each run finishes in
/// minutes on a laptop while keeping enough matches for matcher training.
pub fn default_scale(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::DblpAcm => 0.04,
        DatasetKind::Restaurant => 0.15,
        DatasetKind::WalmartAmazon => 0.02,
        DatasetKind::ItunesAmazon => 0.008,
    }
}

/// Scale after applying the `SERD_SCALE` multiplier.
pub fn scale_for(kind: DatasetKind) -> f64 {
    let mult: f64 = std::env::var("SERD_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    default_scale(kind) * mult
}

/// Minimum planted matches at bench scales (keeps low-match datasets like
/// iTunes-Amazon trainable).
pub const MIN_MATCHES: usize = 24;

/// One dataset plus all three synthesis methods' outputs.
pub struct Bundle {
    /// Which benchmark.
    pub kind: DatasetKind,
    /// The simulated real dataset + background corpora.
    pub sim: SimulatedDataset,
    /// SERD output.
    pub serd: SynthesizedEr,
    /// SERD without rejection.
    pub serd_minus: SynthesizedEr,
    /// EMBench-style baseline output.
    pub embench: SynthesizedEr,
    /// Wall-clock seconds of SERD's offline phase (`fit`), Table IV.
    pub offline_secs: f64,
    /// Wall-clock seconds of SERD's online phase (`synthesize`), Table IV.
    pub online_secs: f64,
}

/// One timed SERD run: the simulated dataset, then `fit` (offline) and
/// `synthesize` (online) on it, Table IV's two columns.
pub struct SerdRun {
    /// The simulated real dataset + background corpora.
    pub sim: SimulatedDataset,
    /// SERD output.
    pub serd: SynthesizedEr,
    /// Wall-clock seconds of `fit`.
    pub offline_secs: f64,
    /// Wall-clock seconds of `synthesize`.
    pub online_secs: f64,
}

/// Generates the dataset and runs SERD on it, drawing everything from `rng`.
pub fn run_serd(kind: DatasetKind, rng: &mut StdRng) -> SerdRun {
    let sim = generate_with_min_matches(kind, scale_for(kind), MIN_MATCHES, rng);
    let t_fit = std::time::Instant::now();
    let synthesizer = SerdSynthesizer::from_model(
        SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), rng)
            .expect("SERD fit"),
    );
    let offline_secs = t_fit.elapsed().as_secs_f64();
    let t_syn = std::time::Instant::now();
    let serd = synthesizer.synthesize(rng).expect("SERD synthesize");
    let online_secs = t_syn.elapsed().as_secs_f64();
    SerdRun { sim, serd, offline_secs, online_secs }
}

/// Generates the dataset and runs all three methods (deterministic per
/// `seed`).
pub fn prepare(kind: DatasetKind, seed: u64) -> Bundle {
    let mut rng = StdRng::seed_from_u64(seed);
    let SerdRun { sim, serd, offline_secs, online_secs } = run_serd(kind, &mut rng);
    let minus = serd_minus(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
        .expect("SERD- synthesize");
    let emb = embench(&sim.er, &mut rng).expect("EMBench");
    Bundle {
        kind,
        sim,
        serd,
        serd_minus: minus,
        embench: emb,
        offline_secs,
        online_secs,
    }
}

/// Prints a rule line of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_sane() {
        for kind in DatasetKind::all() {
            let s = default_scale(kind);
            assert!(s > 0.0 && s <= 1.0);
        }
    }
}
