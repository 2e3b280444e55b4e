//! `offline`: the data owner's `fit --data` at 10⁵ entities.
//!
//! Set-up streams a DBLP-ACM directory with `datagen::export_dir`. Each
//! iteration then runs `datagen::ingest_dir` → `SerdSynthesizer::fit` →
//! `SerdModel::save_to`, from a fresh ingest, so the lazily built
//! `ProfileCache` costs what it costs users. Decode, JSD and HTTP do no
//! work here: this workload is the bypass for every online-layer change.

use crate::layers::insert_persist;
use crate::report::Report;
use crate::stats::{derive_seed, fnv1a64, median, tail};
use crate::sys::{peak_rss_mb, WorkDir};
use crate::trace::{by_name, Tracer, CHECK_REQ, REPLAY_REQ, SETUP_REQ};
use crate::RunCfg;
use datagen::{DatasetKind, ScaleSpec};
use er_core::{blocking, ColumnType};
use gmm::OMixture;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd::api;
use serd::{SerdConfig, SerdSynthesizer};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;
use transformer::BucketedSynthesizer;

const STREAM_FIT: u64 = 11;
/// How many times a traced run replays fit's inner layers.
const REPLAY_REPS: u64 = 3;

/// The blocking parameters `fit` uses for its hard negatives.
const BLOCK_Q: usize = 3;
const BLOCK_BUCKET: usize = 20;

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub entities: usize,
    pub setup_reps: usize,
}

pub const FULL: Sizes = Sizes {
    entities: 100_000,
    setup_reps: 7,
};

pub const TINY: Sizes = Sizes {
    entities: 2_000,
    setup_reps: 1,
};

pub fn run(cfg: &RunCfg, sizes: &Sizes) -> Result<Report, String> {
    let mut rep = Report::default();
    let tracer = Tracer::new(cfg.trace, cfg.epoch, 0);
    let work = WorkDir::new("offline").map_err(|e| format!("work dir: {e}"))?;
    let data = work.path().join("dblp-acm");
    let kind = DatasetKind::DblpAcm;
    let spec = ScaleSpec::for_entities(kind, sizes.entities);

    let mut setup_s = Vec::new();
    let mut exported = None;
    for r in 0..sizes.setup_reps.max(1) {
        let t = Instant::now();
        let stats = tracer
            .time("datagen.export_dir", SETUP_REQ + r as u64, || {
                datagen::export_dir(&spec, cfg.seed, &data)
            })
            .map_err(|e| format!("export: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        exported = Some(stats);
    }
    let ex = exported.expect("at least one set-up repetition");
    rep.check(
        "offline.export_sizes",
        ex.rows_a == spec.size_a && ex.rows_b == spec.size_b && ex.matches == spec.matches,
        format!(
            "wrote {}+{} rows and {} matches for a spec of {}+{} and {}",
            ex.rows_a, ex.rows_b, ex.matches, spec.size_a, spec.size_b, spec.matches
        ),
    );

    let art = work.path().join("model.serd");
    let pool0 = parallel::pool_stats();
    let t_loop = Instant::now();
    let mut iter_s = Vec::new();
    let mut fit_s = Vec::new();
    let mut failed = 0u64;
    let mut rows_ok = true;
    let mut digests: Vec<u64> = Vec::new();
    let mut k = 0u64;
    while k == 0 || t_loop.elapsed().as_secs_f64() < cfg.seconds {
        let _op = tracer.span("offline.iteration", k);
        let t0 = Instant::now();
        let outcome = (|| -> Result<f64, String> {
            let sim = tracer
                .time("datagen.ingest_dir", k, || datagen::ingest_dir(kind, &data))
                .map_err(|e| format!("ingest: {e}"))?;
            rows_ok &= sim.er.a().len() == ex.rows_a
                && sim.er.b().len() == ex.rows_b
                && sim.er.num_matches() == ex.matches;
            // A fit seed per iteration: EM/AIC convergence depends on it, and
            // the run's median then spans many fits instead of one.
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_FIT, k));
            let t_fit = Instant::now();
            let model = tracer
                .time("serd.fit", k, || {
                    SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
                })
                .map_err(|e| format!("fit: {e}"))?;
            let fit = t_fit.elapsed().as_secs_f64();
            tracer
                .time("persist.save", k, || model.save_to(&art))
                .map_err(|e| format!("save: {e}"))?;
            Ok(fit)
        })();
        let dt = t0.elapsed().as_secs_f64();
        match outcome {
            Ok(fit) => {
                iter_s.push(dt);
                fit_s.push(fit);
                let bytes = std::fs::read(&art).map_err(|e| format!("read artifact: {e}"))?;
                digests.push(fnv1a64(&bytes));
            }
            Err(e) => {
                failed += 1;
                eprintln!("offline: iteration {k} failed: {e}");
            }
        }
        k += 1;
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let pool1 = parallel::pool_stats();
    rep.ops("offline.iterations_ok", k, failed);

    rep.check(
        "offline.ingest_rows",
        rows_ok && !iter_s.is_empty(),
        "every ingest reads back as many rows and matches as set-up wrote",
    );
    for (k, d) in digests.iter().enumerate() {
        rep.digest(format!("offline.artifact.iter{k}"), *d);
    }
    // save → load → save must be a byte fixpoint.
    let t = Instant::now();
    let reloaded = tracer.time("persist.load", CHECK_REQ, || api::load_model(&art));
    let load_s = t.elapsed().as_secs_f64();
    let fixpoint = reloaded.map_err(|e| e.to_string()).and_then(|m| {
        let again = work.path().join("model-again.serd");
        m.save_to(&again).map_err(|e| e.to_string())?;
        let (x, y) = (std::fs::read(&art), std::fs::read(&again));
        Ok(matches!((x, y), (Ok(x), Ok(y)) if x == y))
    });
    rep.check(
        "offline.save_load_save",
        fixpoint == Ok(true),
        format!("save -> load -> save is byte-identical ({fixpoint:?})"),
    );

    let entities = (ex.rows_a + ex.rows_b) as f64;
    let iter_ms: Vec<f64> = iter_s.iter().map(|s| s * 1e3).collect();
    let p50_ms = median(&iter_ms).unwrap_or(0.0);
    let (tail_p, tail_ms) = tail(&iter_ms).unwrap_or((50.0, 0.0));
    let rates: Vec<f64> = iter_s.iter().map(|s| entities / s.max(1e-9)).collect();
    let entities_per_s = median(&rates).unwrap_or(0.0);
    rep.e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    rep.e2e.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    rep.e2e.insert("entities_per_s", entities_per_s);
    rep.samples.push(("iteration_ms", iter_ms.clone()));
    rep.note("iterations", iter_s.len() as f64, "count");
    rep.note("iteration_p50_ms", p50_ms, "ms");
    rep.note("fit_p50_s", median(&fit_s).unwrap_or(0.0), "s");
    if tail_p > 50.0 {
        rep.note(format!("iteration_p{tail_p}_ms"), tail_ms, "ms");
    }
    rep.note("entities", entities, "count");

    if cfg.trace {
        // Replay fit's inner layers on fresh ingests of the run's directory,
        // REPLAY_REPS times, and take each layer's median. Replay `r` uses
        // iteration `r`'s fit seed and fit's call order, so it repeats
        // exactly the inner calls that iteration's fit made; what the
        // replay does not cover is that fit's remainder.
        let t_replay = Instant::now();
        let fast = SerdConfig::fast();
        let mut quality = (0usize, 0usize, 0usize, 0usize);
        let mut pairs = 0usize;
        for r in 0..REPLAY_REPS {
            let req = REPLAY_REQ + r;
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, STREAM_FIT, r));
            let sim = tracer
                .time("datagen.ingest_dir", req, || {
                    datagen::ingest_dir(kind, &data)
                })
                .map_err(|e| format!("ingest: {e}"))?;
            let er = &sim.er;
            let cache = tracer.time("er-core.profile_build", req, || er.profiles());
            let cands = tracer.time("er-core.block", req, || {
                blocking::candidate_pairs_cached(er.a(), er.b(), cache, BLOCK_Q, BLOCK_BUCKET)
            });
            let cand_set: HashSet<(usize, usize)> = cands.iter().copied().collect();
            let found = er.matches().iter().filter(|p| cand_set.contains(p)).count();
            quality = (
                cands.len(),
                found,
                er.num_matches(),
                er.a().len() * er.b().len(),
            );
            let sv = tracer.time("er-core.simvec", req, || {
                er.similarity_vectors(fast.neg_samples, &mut rng)
            });
            pairs = sv.pos.len() + sv.neg.len();
            let learned = tracer.time("gmm.learn", req, || {
                OMixture::learn(&sv.pos, &sv.neg, &fast.gmm, &mut rng)
            });
            black_box(learned.map_err(|e| format!("learn: {e}"))?);
            tracer.time("transformer.train", req, || {
                for (i, col) in er.a().schema().columns().iter().enumerate() {
                    let corpus = sim.background.get(i).map(Vec::as_slice).unwrap_or(&[]);
                    if col.ctype == ColumnType::Text && !corpus.is_empty() {
                        black_box(BucketedSynthesizer::train(
                            corpus,
                            fast.text.clone(),
                            &mut rng,
                        ));
                    }
                }
            });
        }
        let replay_s = t_replay.elapsed().as_secs_f64();

        let main_spans = tracer.into_spans();
        let stats = by_name(std::slice::from_ref(&main_spans));
        let span_median = |name: &str| {
            stats
                .get(name)
                .and_then(|s| median(&s.durations))
                .unwrap_or(0.0)
        };
        let fit_inner = [
            "er-core.profile_build",
            "er-core.simvec",
            "gmm.learn",
            "transformer.train",
        ];
        let other: Vec<f64> = fit_s
            .iter()
            .zip(0..REPLAY_REPS)
            .map(|(fit, r)| {
                let replayed: f64 = main_spans
                    .iter()
                    .filter(|s| s.req == REPLAY_REQ + r && fit_inner.contains(&s.name))
                    .map(|s| s.secs())
                    .sum();
                fit - replayed
            })
            .collect();
        let (profile_s, sv_s) = (
            span_median("er-core.profile_build"),
            span_median("er-core.simvec"),
        );
        let (learn_s, train_s) = (span_median("gmm.learn"), span_median("transformer.train"));
        let (candidates, found, planted, cross) = quality;
        let l = &mut rep.layers;
        l.insert("transformer.train_s", train_s);
        l.insert("serd.fit_other_s", median(&other).unwrap_or(0.0));
        l.insert("gmm.learn_s", learn_s);
        l.insert(
            "er-core.ingest_records_per_s",
            entities / span_median("datagen.ingest_dir").max(1e-9),
        );
        l.insert("er-core.profile_build_s", profile_s);
        l.insert("er-core.simvec_pairs_per_s", pairs as f64 / sv_s.max(1e-9));
        l.insert("er-core.block_s", span_median("er-core.block"));
        l.insert("er-core.block_candidates", candidates as f64);
        l.insert("er-core.block_pc", found as f64 / planted.max(1) as f64);
        l.insert(
            "er-core.block_rr",
            1.0 - candidates as f64 / cross.max(1) as f64,
        );
        let saves = stats
            .get("persist.save")
            .map_or(&[][..], |s| &s.durations[..]);
        let bytes = std::fs::metadata(&art).map_or(0, |m| m.len() as usize);
        insert_persist(l, saves, &[load_s], bytes);
        let loop_spans = main_spans.iter().filter(|s| s.req < REPLAY_REQ).count();
        rep.insert_run_layers(
            [pool0, pool1],
            loop_s,
            main_spans.len(),
            loop_spans,
            replay_s,
            p50_ms,
        );
        rep.spans = vec![main_spans];
    }
    Ok(rep)
}
