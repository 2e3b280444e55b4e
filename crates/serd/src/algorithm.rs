//! The SERD algorithm: S1 (fit, the *offline* phase), S2 (synthesize loop +
//! rejection) and S3 (label all pairs) — the *online* phase.
//!
//! The two phases meet at [`SerdModel`]: `fit` produces one, `from_model`
//! turns one (fresh from `fit` or loaded from a `serd-model-v1` artifact)
//! back into a runnable synthesizer. Synthesis is bit-identical either way.

use crate::backend::{Backend, TabularBackend};
use crate::model::SerdModel;
use crate::rejection::OSynState;
use crate::synthesis::ColumnSynthesizer;
use crate::{OnlineConfig, Result, SerdConfig, SerdError};
use er_core::{
    blocking, ColumnType, Entity, ErDataset, IncrementalProfiler, RecordProfile, Relation, Value,
};
use gan::TabularGan;
use gmm::OMixture;
use marginals::MarginalSynthesizer;
use rand::Rng;
use std::collections::HashMap;
use transformer::BucketedSynthesizer;

/// Counters of one synthesis run. Stage timings live in the observability
/// layer now: enable `SERD_OBS` and read the `fit` / `synthesize` spans from
/// [`SerdSynthesizer::run_report`] instead of ad-hoc stopwatch fields.
#[derive(Debug, Clone, Default)]
pub struct SynthesisStats {
    /// Entities accepted into `E_syn`.
    pub accepted: usize,
    /// Rejections by the GAN discriminator (Case 1).
    pub rejected_discriminator: usize,
    /// Rejections by the distribution test (Case 2, Eq. 10).
    pub rejected_distribution: usize,
    /// Entities accepted after exhausting retries.
    pub forced_accepts: usize,
    /// Candidates Case 2 accepted untested because `O_syn` was still in
    /// warm-up. Warm-up ends only once two or more committed vectors on
    /// each side of `O_real`'s posterior have been buffered, so a run can
    /// stay in warm-up, with Case 2 off, to its end.
    pub warmup_accepts: usize,
    /// Matching pairs created during S2.
    pub s2_matches: usize,
    /// Matching pairs added by S3 posterior labeling.
    pub s3_matches: usize,
    /// DP ε (δ = 1e-5) spent training the text models.
    pub epsilon: f64,
}

/// The output of a synthesis run.
pub struct SynthesizedEr {
    /// The synthesized dataset `(A_syn, B_syn, M_syn)`.
    pub er: ErDataset,
    /// Run statistics.
    pub stats: SynthesisStats,
}

/// The online half of the pipeline: wraps a fitted [`SerdModel`] (`O_real`,
/// the column synthesizer, the tabular GAN) and runs S2 + S3 against it.
pub struct SerdSynthesizer {
    model: SerdModel,
}

/// One synthesis run's resolved parameters: target sizes plus the online
/// knobs. [`SerdSynthesizer::plan`] copies them out of the model;
/// `serd::api` layers per-request overrides on top before calling
/// [`SerdSynthesizer::synthesize_with`]. A plan equal to the model's own
/// values reproduces [`SerdSynthesizer::synthesize`] bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisPlan {
    /// Target `|A_syn|`.
    pub n_a: usize,
    /// Target `|B_syn|`.
    pub n_b: usize,
    /// Online-phase knobs (rejection thresholds, retries, GMM refit config).
    pub online: OnlineConfig,
}

impl SerdSynthesizer {
    /// **S1 + offline training.** Learns the M-/N-distributions from
    /// `real`'s similarity vectors, trains per-text-column bucketed DP
    /// transformers on `background`, and trains the selected tabular backend
    /// (`cfg.backend`): the GAN on a background relation (text from corpora,
    /// numerics/categoricals drawn from the real columns' ranges — never
    /// real rows), or the DP-marginals synthesizer on noisy Gaussian
    /// releases of the real columns' low-way marginals.
    ///
    /// Returns the fitted [`SerdModel`] — save it with
    /// [`SerdModel::save_to`] or run it directly via
    /// [`SerdSynthesizer::from_model`].
    pub fn fit<R: Rng>(
        real: &ErDataset,
        background: &[Vec<String>],
        cfg: SerdConfig,
        rng: &mut R,
    ) -> Result<SerdModel> {
        let _span = obs::span("fit");
        if real.num_matches() == 0 {
            return Err(SerdError::NoMatches);
        }
        let sv = real.similarity_vectors(cfg.neg_samples, rng);
        if sv.pos.len() < 2 || sv.neg.len() < 2 {
            return Err(SerdError::NoMatches);
        }
        let o_real = OMixture::learn(&sv.pos, &sv.neg, &cfg.gmm, rng)?;

        // Per-column machinery.
        let schema = real.a().schema().clone();
        let mm_a = real.a().min_max();
        let mm_b = real.b().min_max();
        let bounds: Vec<(f64, f64)> = mm_a
            .iter()
            .zip(&mm_b)
            .map(|(&(la, ha), &(lb, hb))| (la.min(lb), ha.max(hb)))
            .collect();
        let integral: Vec<bool> = (0..schema.len())
            .map(|i| {
                real.a()
                    .entities()
                    .iter()
                    .chain(real.b().entities())
                    .filter_map(|e| e.value(i).as_f64())
                    .all(|v| v.fract() == 0.0)
            })
            .collect();

        let mut domains_a = HashMap::new();
        let mut domains_b = HashMap::new();
        let mut text_models: HashMap<usize, BucketedSynthesizer> = HashMap::new();
        // Only text columns keep their corpus slice: the GAN decoder reads
        // nothing else, and cloning the full background into every model
        // bloated the artifact for no behavioral difference.
        let mut text_corpora: Vec<Vec<String>> = vec![Vec::new(); schema.len()];
        let mut epsilon = 0.0f64;
        for (i, col) in schema.columns().iter().enumerate() {
            match col.ctype {
                ColumnType::Categorical => {
                    // Kept per side: the two tables of a real ER dataset use
                    // different surface forms (Fig. 1's venue column), and
                    // pooling them would distort E_syn's cross-pair sims.
                    domains_a.insert(i, real.a().categorical_domain(i));
                    domains_b.insert(i, real.b().categorical_domain(i));
                }
                ColumnType::Text => {
                    let corpus = background.get(i).map(Vec::as_slice).unwrap_or(&[]);
                    text_corpora[i] = corpus.to_vec();
                    if !corpus.is_empty() {
                        let model =
                            BucketedSynthesizer::train(corpus, cfg.text.clone(), rng);
                        epsilon = epsilon.max(model.epsilon());
                        text_models.insert(i, model);
                    }
                }
                _ => {}
            }
        }

        let columns = ColumnSynthesizer::new(
            schema.clone(),
            domains_a.clone(),
            domains_b,
            text_models,
            bounds.clone(),
            integral,
        );

        let backend = match cfg.backend {
            Backend::Gan => {
                // GAN training relation: background text, ranges for the
                // rest. This arm consumes the pre-seam RNG stream verbatim —
                // golden outputs depend on it.
                let mut gan_rel = Relation::new("background", schema);
                for _ in 0..cfg.gan_rows.max(8) {
                    let values: Vec<Value> = columns
                        .schema()
                        .columns()
                        .iter()
                        .enumerate()
                        .map(|(i, col)| match col.ctype {
                            ColumnType::Numeric => {
                                let (lo, hi) = bounds[i];
                                Value::Numeric(rng.gen_range(lo..=hi.max(lo)))
                            }
                            ColumnType::Date => {
                                let (lo, hi) = bounds[i];
                                Value::Date(
                                    rng.gen_range(lo as i64..=(hi as i64).max(lo as i64)),
                                )
                            }
                            ColumnType::Categorical => {
                                // Cold-start entities land in A, so the GAN's
                                // training rows use A's domain.
                                let dom = &domains_a[&i];
                                if dom.is_empty() {
                                    Value::Null
                                } else {
                                    Value::Categorical(
                                        dom[rng.gen_range(0..dom.len())].clone(),
                                    )
                                }
                            }
                            ColumnType::Text => {
                                let corpus =
                                    background.get(i).map(Vec::as_slice).unwrap_or(&[]);
                                if corpus.is_empty() {
                                    Value::Text(String::new())
                                } else {
                                    Value::Text(
                                        corpus[rng.gen_range(0..corpus.len())].clone(),
                                    )
                                }
                            }
                        })
                        .collect();
                    gan_rel.push(values)?;
                }
                TabularBackend::Gan(TabularGan::train(&gan_rel, cfg.gan.clone(), rng))
            }
            Backend::Marginals => {
                // Noisy marginal measurement of the real columns; every
                // release is Gaussian-mechanism DP, composed into the
                // model's reported ε below.
                let m =
                    MarginalSynthesizer::measure(real.a(), real.b(), &cfg.marginals, rng);
                epsilon = epsilon.max(m.epsilon());
                TabularBackend::Marginals(m)
            }
        };

        let n_a = cfg.n_a.unwrap_or_else(|| real.a().len());
        let n_b = cfg.n_b.unwrap_or_else(|| real.b().len());
        // Per-drawn-entity match probability: |M_real| matches materialize
        // over |A_real|+|B_real| entity draws, so the same rate reproduces
        // the real match count at any target size.
        let match_rate = cfg
            .match_rate
            .unwrap_or_else(|| {
                real.num_matches() as f64
                    / (real.a().len() + real.b().len()).max(1) as f64
            })
            .clamp(0.0, 0.9);
        Ok(SerdModel {
            o_real,
            columns,
            backend,
            text_corpora,
            n_a,
            n_b,
            names: (
                format!("{}_syn", real.a().name()),
                format!("{}_syn", real.b().name()),
            ),
            match_rate,
            epsilon,
            online: OnlineConfig::from_serd(&cfg),
        })
    }

    /// Wraps a fitted model — fresh from [`SerdSynthesizer::fit`] or loaded
    /// from a `serd-model-v1` artifact — into a runnable synthesizer.
    pub fn from_model(model: SerdModel) -> Self {
        SerdSynthesizer { model }
    }

    /// The underlying model.
    pub fn model(&self) -> &SerdModel {
        &self.model
    }

    /// Unwraps the model (e.g. to save it after a run).
    pub fn into_model(self) -> SerdModel {
        self.model
    }

    /// The learned `O_real` distribution.
    pub fn o_real(&self) -> &OMixture {
        &self.model.o_real
    }

    /// The column synthesizer (exposed for examples and ablations).
    pub fn columns(&self) -> &ColumnSynthesizer {
        &self.model.columns
    }

    /// DP ε (δ = 1e-5) spent on the text models during `fit`.
    pub fn epsilon(&self) -> f64 {
        self.model.epsilon
    }

    /// Serializes the learned `O_real` distribution to text (`gmm::io`
    /// format). This is exactly the artifact the paper's Figure 2 deems safe
    /// to share: distribution parameters, never entities.
    pub fn export_o_real(&self) -> String {
        gmm::io::omixture_to_string(&self.model.o_real)
    }

    /// The model's own synthesis parameters as a mutable [`SynthesisPlan`].
    pub fn plan(&self) -> SynthesisPlan {
        SynthesisPlan {
            n_a: self.model.n_a,
            n_b: self.model.n_b,
            online: self.model.online.clone(),
        }
    }

    /// **S2 + S3.** Runs the iterative synthesis loop with entity rejection,
    /// then labels all remaining (blocked) pairs by GMM posterior.
    pub fn synthesize<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<SynthesizedEr> {
        self.synthesize_with(&self.plan(), rng)
    }

    /// [`SerdSynthesizer::synthesize`] with explicit run parameters. The
    /// model's learned components are untouched; only target sizes and
    /// online knobs come from `plan`, so a plan equal to [`Self::plan`] is
    /// RNG-stream-identical to `synthesize`.
    pub fn synthesize_with<R: Rng + ?Sized>(
        &self,
        plan: &SynthesisPlan,
        rng: &mut R,
    ) -> Result<SynthesizedEr> {
        let _span = obs::span("synthesize");
        let model = &self.model;
        let online = &plan.online;
        let mut stats = SynthesisStats {
            epsilon: model.epsilon,
            ..Default::default()
        };
        let schema = model.columns.schema().clone();
        let mut a = Relation::new(model.names.0.clone(), schema.clone());
        let mut b = Relation::new(model.names.1.clone(), schema.clone());
        let mut matches: Vec<(usize, usize)> = Vec::new();
        let mut osyn = OSynState::new(online.osyn_warmup);

        // Every synthesized record is profiled exactly once, when it is
        // created; all later comparisons (ΔX_syn against every candidate,
        // S3 blocking + labeling) reuse the profile instead of re-deriving
        // q-grams/tokens/char buffers per comparison.
        let mut profiler = IncrementalProfiler::new(&schema, blocking::DEFAULT_BLOCK_Q);
        let mut aprofs: Vec<RecordProfile> = Vec::new();
        let mut bprofs: Vec<RecordProfile> = Vec::new();

        // Bootstrap: one backend-generated fake A-entity (Section IV-B2).
        let first = Entity::new(model.backend.generate_entity(&model.text_corpora, rng));
        aprofs.push(profiler.profile_entity(&first));
        a.push_entity(first)?;
        stats.accepted += 1;

        while a.len() < plan.n_a || b.len() < plan.n_b {
            // S2-1: sample an existing synthesized entity. Once a table is
            // full, `e` is drawn only from it so `e'` fills the other one
            // (paper Section III Remark 1).
            let e_in_a = if a.len() >= plan.n_a {
                true // A full: e from A, e' into B
            } else if b.is_empty() {
                true // only A has entities yet
            } else if b.len() >= plan.n_b {
                false // B full: e from B, e' into A
            } else {
                rng.gen_range(0..a.len() + b.len()) < a.len()
            };
            let (e, e_idx) = if e_in_a {
                let i = rng.gen_range(0..a.len());
                (a.entity(i).clone(), i)
            } else {
                let j = rng.gen_range(0..b.len());
                (b.entity(j).clone(), j)
            };

            // S2-2: sample a similarity vector from O_real — from the
            // M-distribution with the (match-count-preserving) match rate.
            let from_m = rng.gen::<f64>() < model.match_rate;
            let x = if from_m {
                model.o_real.m().sample_clamped(rng)
            } else {
                model.o_real.n().sample_clamped(rng)
            };

            // S2-3 with rejection (Section V). Up to `max_retries` candidates
            // go through both rejection cases; when every one of them is
            // rejected, a final candidate is synthesized and accepted
            // unconditionally — the paper notes rejection must not loop
            // forever, and that candidate is counted as a forced accept.
            let target_side = if e_in_a {
                crate::Side::B
            } else {
                crate::Side::A
            };
            let source_table = if e_in_a { &a } else { &b };
            let source_profs = if e_in_a { &aprofs } else { &bprofs };
            // Everything about (e, x, side) that doesn't consume randomness
            // — categorical choices, and for text columns bucket-model
            // selection, source encoding and encoder memory — is prepared
            // once and shared by every attempt.
            let prepared = model.columns.prepare_entity(&e, &x, target_side);
            let mut chosen: Option<(Entity, RecordProfile, Vec<Vec<f64>>)> = None;
            for _attempt in 0..online.max_retries {
                let candidate = stage("s2.decode", || prepared.synthesize(rng));

                if online.reject_by_discriminator
                    && stage("s2.plausibility", || model.backend.plausibility(&candidate))
                        < online.beta
                {
                    stats.rejected_discriminator += 1;
                    continue;
                }

                // ΔX_syn: candidate vs (a sample of) the table e lives in.
                // The candidate is profiled once, here, and the profile is
                // reused across every ΔX_syn comparison (and kept if the
                // candidate is accepted).
                let cand_prof = stage("s2.profile", || profiler.profile_entity(&candidate));
                let delta = stage("s2.delta_vectors", || {
                    delta_vectors(
                        &candidate,
                        &cand_prof,
                        source_table,
                        source_profs,
                        &profiler,
                        online.t_sample,
                        rng,
                    )
                });
                if online.reject_by_distribution
                    && stage("s2.would_reject", || {
                        osyn.would_reject(
                            &delta,
                            &model.o_real,
                            online.alpha,
                            online.jsd_samples,
                            rng,
                        )
                    })
                {
                    stats.rejected_distribution += 1;
                    continue;
                }
                if online.reject_by_distribution && !osyn.is_active() {
                    stats.warmup_accepts += 1;
                }
                chosen = Some((candidate, cand_prof, delta));
                break;
            }
            let (e_prime, e_prime_prof, delta) = match chosen {
                Some(picked) => picked,
                None => {
                    // Every retry was rejected (or retries are disabled):
                    // synthesize one last candidate and accept it as-is.
                    let candidate = stage("s2.decode", || prepared.synthesize(rng));
                    let cand_prof = stage("s2.profile", || profiler.profile_entity(&candidate));
                    let delta = stage("s2.delta_vectors", || {
                        delta_vectors(
                            &candidate,
                            &cand_prof,
                            source_table,
                            source_profs,
                            &profiler,
                            online.t_sample,
                            rng,
                        )
                    });
                    if online.max_retries > 0 {
                        stats.forced_accepts += 1;
                    }
                    (candidate, cand_prof, delta)
                }
            };

            // S2-4: add e' to the opposite table and record the pair label.
            let (ai, bi) = if e_in_a {
                bprofs.push(e_prime_prof);
                let j = b.push_entity(e_prime)?;
                (e_idx, j)
            } else {
                aprofs.push(e_prime_prof);
                let i = a.push_entity(e_prime)?;
                (i, e_idx)
            };
            stats.accepted += 1;
            if from_m {
                matches.push((ai, bi));
                stats.s2_matches += 1;
            }
            stage("s2.commit", || {
                osyn.commit(&delta, &model.o_real, &online.gmm, online.jsd_samples, rng)
            })?;
        }

        // S3: label remaining pairs by posterior over blocked candidates.
        {
            let _s3 = obs::span("s3.label");
            let known: std::collections::HashSet<(usize, usize)> =
                matches.iter().copied().collect();
            let pairs = blocking::candidate_pairs_profiled(
                &a,
                &b,
                &aprofs,
                &bprofs,
                blocking::DEFAULT_BLOCK_Q,
                50,
            );
            for (i, j) in pairs {
                if known.contains(&(i, j)) {
                    continue;
                }
                let v = profiler.pair_similarity(
                    a.schema(),
                    a.entity(i),
                    &aprofs[i],
                    b.entity(j),
                    &bprofs[j],
                );
                if model.o_real.is_match(&v) {
                    matches.push((i, j));
                    stats.s3_matches += 1;
                }
            }
        }

        if obs::enabled() {
            obs::counter("accepted", stats.accepted as u64);
            obs::counter("rejected.discriminator", stats.rejected_discriminator as u64);
            obs::counter("rejected.distribution", stats.rejected_distribution as u64);
            obs::counter("forced_accepts", stats.forced_accepts as u64);
            // Case 2 tests nothing until O_syn is fitted; a run that never
            // leaves warm-up shows 0 here and accepts every candidate.
            obs::counter("rejection.warmup_accepts", stats.warmup_accepts as u64);
            obs::gauge("rejection.osyn_fitted", f64::from(u8::from(osyn.is_active())));
            obs::counter("rejection.jsd_estimates", osyn.jsd_estimates() as u64);
            // The JSD(O_syn, O_real) trajectory (Eq. 10 left side).
            obs::series_extend("rejection.jsd", osyn.jsd_trajectory());
            obs::counter("matches.s2", stats.s2_matches as u64);
            obs::counter("matches.s3", stats.s3_matches as u64);
            let attempts = stats.accepted
                + stats.rejected_discriminator
                + stats.rejected_distribution;
            if attempts > 0 {
                obs::gauge(
                    "acceptance_rate",
                    stats.accepted as f64 / attempts as f64,
                );
            }
        }
        Ok(SynthesizedEr {
            er: ErDataset::new(a, b, matches)?,
            stats,
        })
    }

    /// The structured run-report: publishes end-of-run pool utilization
    /// gauges, then serializes every recorded span, counter, gauge,
    /// histogram, and series to JSON. Returns a `{"enabled":false}` stub
    /// when observability is off (`SERD_OBS` unset).
    pub fn run_report(&self) -> String {
        if obs::enabled() {
            let (jobs, busy) = parallel::pool_stats();
            obs::gauge("pool.jobs_executed", jobs as f64);
            obs::gauge("pool.busy_secs", busy);
            let threads = parallel::num_threads() as f64;
            obs::gauge("pool.threads", threads);
            let wall = obs::span_secs(&["fit"]).unwrap_or(0.0)
                + obs::span_secs(&["synthesize"]).unwrap_or(0.0);
            if wall > 0.0 {
                obs::gauge("pool.utilization", (busy / (wall * threads)).min(1.0));
            }
            obs::gauge("epsilon", self.model.epsilon);
        }
        obs::report_json()
    }
}

/// Runs `f` under the span `name`, one of S2's sub-stages (`s2.decode`,
/// `s2.plausibility`, `s2.profile`, `s2.delta_vectors`, `s2.would_reject`,
/// `s2.commit`), so the run report splits the rejection loop's time.
fn stage<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = obs::span(name);
    f()
}

/// Similarity vectors between `candidate` and up to `t` random entities of
/// `table` (paper Section V Remark 1). `table_profs` holds the table rows'
/// cached profiles (index-aligned) and `cand_prof` the candidate's; every
/// comparison goes through the profile kernels — score-identical to
/// `er_core::pair_similarity` on the raw entities.
fn delta_vectors<R: Rng + ?Sized>(
    candidate: &Entity,
    cand_prof: &RecordProfile,
    table: &Relation,
    table_profs: &[RecordProfile],
    profiler: &IncrementalProfiler,
    t: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    if table.is_empty() {
        return Vec::new();
    }
    let n = table.len();
    let take = t.min(n);
    let mut out = Vec::with_capacity(take);
    let schema = table.schema();
    if take == n {
        for (i, e) in table.iter() {
            out.push(profiler.pair_similarity(schema, e, &table_profs[i], candidate, cand_prof));
        }
    } else {
        for _ in 0..take {
            let i = rng.gen_range(0..n);
            out.push(profiler.pair_similarity(
                schema,
                table.entity(i),
                &table_profs[i],
                candidate,
                cand_prof,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fit_fast(kind: DatasetKind, scale: f64, seed: u64) -> (SerdSynthesizer, ErDataset) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = generate(kind, scale, &mut rng);
        let model = SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
            .expect("fit succeeds on simulated data");
        (SerdSynthesizer::from_model(model), sim.er)
    }

    #[test]
    fn fit_rejects_dataset_without_matches() {
        let mut rng = StdRng::seed_from_u64(0);
        let sim = generate(DatasetKind::Restaurant, 0.02, &mut rng);
        let empty = ErDataset::new(sim.er.a().clone(), sim.er.b().clone(), vec![]).unwrap();
        assert!(matches!(
            SerdSynthesizer::fit(&empty, &sim.background, SerdConfig::fast(), &mut rng),
            Err(SerdError::NoMatches)
        ));
    }

    #[test]
    fn synthesize_reaches_target_sizes() {
        let (syn, real) = fit_fast(DatasetKind::Restaurant, 0.03, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let out = syn.synthesize(&mut rng).unwrap();
        assert_eq!(out.er.a().len(), real.a().len());
        assert_eq!(out.er.b().len(), real.b().len());
        assert!(out.stats.accepted >= real.a().len() + real.b().len());
    }

    #[test]
    fn synthesized_entities_are_not_real_entities() {
        let (syn, real) = fit_fast(DatasetKind::Restaurant, 0.03, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let out = syn.synthesize(&mut rng).unwrap();
        // No synthesized text value may equal a real text value.
        let real_names: std::collections::HashSet<&str> = real
            .a()
            .entities()
            .iter()
            .chain(real.b().entities())
            .filter_map(|e| e.value(0).as_str())
            .collect();
        let clones = out
            .er
            .a()
            .entities()
            .iter()
            .chain(out.er.b().entities())
            .filter_map(|e| e.value(0).as_str())
            .filter(|s| real_names.contains(s))
            .count();
        let total = out.er.a().len() + out.er.b().len();
        assert!(
            (clones as f64) < 0.05 * total as f64,
            "{clones}/{total} synthesized names are verbatim real names"
        );
    }

    #[test]
    fn synthesized_matches_have_high_similarity() {
        let (syn, _) = fit_fast(DatasetKind::Restaurant, 0.03, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let out = syn.synthesize(&mut rng).unwrap();
        assert!(out.er.num_matches() > 0, "no matches synthesized");
        let mut match_mean = 0.0;
        for &(i, j) in out.er.matches() {
            let v = out.er.similarity_vector(i, j);
            match_mean += v.iter().sum::<f64>() / v.len() as f64;
        }
        match_mean /= out.er.num_matches() as f64;
        // Non-matching baseline.
        let neg = out.er.sample_nonmatch_pairs(100, &mut rng);
        let mut neg_mean = 0.0;
        for (i, j) in &neg {
            let v = out.er.similarity_vector(*i, *j);
            neg_mean += v.iter().sum::<f64>() / v.len() as f64;
        }
        neg_mean /= neg.len().max(1) as f64;
        assert!(
            match_mean > neg_mean + 0.1,
            "match mean {match_mean:.3} vs non-match mean {neg_mean:.3}"
        );
    }

    #[test]
    fn rejection_counters_populate() {
        let (syn, _) = fit_fast(DatasetKind::Restaurant, 0.03, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let out = syn.synthesize(&mut rng).unwrap();
        // With rejection on, at least the machinery ran; counters are
        // consistent (every accepted entity was attempted at least once).
        assert!(out.stats.accepted > 0);
        assert!(out.stats.accepted >= out.er.a().len() + out.er.b().len());
        assert!(out.stats.s2_matches + out.stats.s3_matches == out.er.num_matches());
    }

    #[test]
    fn warmup_accepts_count_what_case_2_let_through_untested() {
        let (syn, _) = fit_fast(DatasetKind::Restaurant, 0.03, 7);
        // A warm-up that cannot end: every candidate that passes Case 1 is
        // accepted untested, and only those, so apart from the bootstrap
        // entity every accept is a warm-up accept or a forced one.
        let mut plan = syn.plan();
        plan.online.osyn_warmup = usize::MAX;
        let out = syn.synthesize_with(&plan, &mut StdRng::seed_from_u64(8)).unwrap();
        let st = &out.stats;
        assert_eq!(st.rejected_distribution, 0);
        assert!(st.warmup_accepts > 0);
        assert_eq!(1 + st.warmup_accepts + st.forced_accepts, st.accepted);
        // A warm-up that ends counts only the accepts before it did; later
        // candidates passed the test itself.
        let out = syn.synthesize(&mut StdRng::seed_from_u64(8)).unwrap();
        let st = &out.stats;
        assert!(st.rejected_distribution > 0, "Case 2 never ran");
        assert!(st.warmup_accepts > 0);
        assert!(1 + st.warmup_accepts + st.forced_accepts < st.accepted);
    }

    #[test]
    fn custom_target_sizes_respected() {
        let mut rng = StdRng::seed_from_u64(9);
        let sim = generate(DatasetKind::Restaurant, 0.03, &mut rng);
        let cfg = SerdConfig {
            n_a: Some(10),
            n_b: Some(15),
            ..SerdConfig::fast()
        };
        let model = SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng).unwrap();
        let out = SerdSynthesizer::from_model(model).synthesize(&mut rng).unwrap();
        assert_eq!(out.er.a().len(), 10);
        assert_eq!(out.er.b().len(), 15);
    }

    #[test]
    fn dp_epsilon_reported() {
        let (syn, _) = fit_fast(DatasetKind::Restaurant, 0.02, 10);
        assert!(syn.epsilon() > 0.0 && syn.epsilon().is_finite());
    }

    #[test]
    fn marginals_backend_fits_and_synthesizes() {
        let mut rng = StdRng::seed_from_u64(13);
        let sim = generate(DatasetKind::Restaurant, 0.03, &mut rng);
        let cfg = SerdConfig::fast().with_backend(Backend::Marginals);
        let model = SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng).unwrap();
        assert_eq!(model.backend.kind(), Backend::Marginals);
        assert!(model.epsilon > 0.0 && model.epsilon.is_finite());
        let mut rng = StdRng::seed_from_u64(14);
        let out = SerdSynthesizer::from_model(model).synthesize(&mut rng).unwrap();
        assert_eq!(out.er.a().len(), sim.er.a().len());
        assert_eq!(out.er.b().len(), sim.er.b().len());
    }

    #[test]
    fn marginals_backend_epsilon_dominates_text_budget() {
        // The reported ε is the max of the text-transformer budget and the
        // marginals releases, both accounted through the same RdpAccountant.
        let mut rng = StdRng::seed_from_u64(15);
        let sim = generate(DatasetKind::Restaurant, 0.02, &mut rng);
        let cfg = SerdConfig::fast().with_backend(Backend::Marginals);
        let model = SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng).unwrap();
        if let crate::TabularBackend::Marginals(m) = &model.backend {
            assert!(model.epsilon >= m.epsilon());
            assert!(m.epsilon() > 0.0);
        } else {
            panic!("expected marginals backend");
        }
    }

    #[test]
    fn exported_o_real_roundtrips() {
        let (syn, _) = fit_fast(DatasetKind::Restaurant, 0.02, 11);
        let text = syn.export_o_real();
        let back = gmm::io::omixture_from_str(&text).unwrap();
        assert_eq!(back.pi(), syn.o_real().pi());
        let x = vec![0.5; syn.o_real().dim()];
        assert_eq!(back.posterior_match(&x), syn.o_real().posterior_match(&x));
    }

    #[test]
    fn zero_retries_never_rejects() {
        let mut rng = StdRng::seed_from_u64(12);
        let sim = generate(DatasetKind::Restaurant, 0.02, &mut rng);
        let cfg = SerdConfig {
            max_retries: 0,
            ..SerdConfig::fast()
        };
        let model = SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng).unwrap();
        let out = SerdSynthesizer::from_model(model).synthesize(&mut rng).unwrap();
        // With retries disabled, every candidate is accepted first try and
        // none counts as forced.
        assert_eq!(out.stats.rejected_discriminator, 0);
        assert_eq!(out.stats.rejected_distribution, 0);
        assert_eq!(out.stats.forced_accepts, 0);
        assert_eq!(out.er.a().len(), sim.er.a().len());
    }
}
