//! `online`: Table IV's online phase from one fitted artifact.
//!
//! Set-up fits Restaurant at the Table IV bench scale with the CLI's
//! configuration (`SerdConfig::fast()`), saves the artifact and reloads it
//! with `api::load_model`. One caller then runs a closed loop of
//! `api::synthesize` + `SynthesisResponse::csv` over request seeds drawn
//! from the workload seed, with rejection on as fitted.
//!
//! The artifact is fitted from a fixed seed, as a deployed model is fixed:
//! per-request cost depends strongly on the fitted model (2-5 s for the same
//! request seed across fits), so a model drawn per workload seed would make
//! run-to-run spread a property of the fit, not of the online path.

use crate::layers::{insert_persist, replay_costs, CallCounts};
use crate::report::Report;
use crate::stats::{derive_seed, fnv1a64, median, tail};
use crate::sys::{peak_rss_mb, WorkDir};
use crate::trace::{by_name, Tracer, FIDELITY_REQ, REPLAY_REQ, SETUP_REQ};
use crate::RunCfg;
use datagen::DatasetKind;
use gmm::OMixture;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd::api::{self, ModelRef, SynthesisRequest, SynthesisResponse, Table};
use serd::{OnlineConfig, SerdConfig, SerdModel, SerdSynthesizer, SynthesisStats, SynthesizedEr};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the served model's data and fit (the CLI's default `--seed`).
pub const ARTIFACT_SEED: u64 = 42;
/// Monte-Carlo samples of the fidelity JSD estimate.
const FIDELITY_SAMPLES: usize = 4000;
/// Requests (the run's first) whose datasets are kept for the fidelity
/// estimate; later responses keep only their digest and counters, so peak
/// memory does not grow with the number of requests a run completes.
const FIDELITY_REQUESTS: usize = 12;

const STREAM_REQUEST: u64 = 1;
const STREAM_FIDELITY: u64 = 2;
const STREAM_REPLAY: u64 = 3;

/// Workload sizes; `FULL` is the benchmark, `TINY` the test-suite smoke run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub scale: f64,
    pub min_matches: usize,
    /// `n_a = n_b` of every request.
    pub n: usize,
    pub setup_reps: usize,
    pub replay_steps: usize,
    pub s3_passes: usize,
}

pub const FULL: Sizes = Sizes {
    scale: 0.15,
    min_matches: 16,
    n: 32,
    setup_reps: 7,
    replay_steps: 800,
    s3_passes: 5,
};

pub const TINY: Sizes = Sizes {
    scale: 0.02,
    min_matches: 16,
    n: 8,
    setup_reps: 2,
    replay_steps: 8,
    s3_passes: 1,
};

/// A fitted, saved and reloaded artifact.
pub struct Artifact {
    pub path: PathBuf,
    pub synth: SerdSynthesizer,
    pub bytes: Vec<u8>,
    pub save_s: f64,
    pub load_s: f64,
}

/// Generates Restaurant at `scale` and fits it with the CLI's
/// configuration.
pub fn fit_model(
    scale: f64,
    min_matches: usize,
    seed: u64,
    tracer: &Tracer,
    req: u64,
) -> Result<SerdModel, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sim = tracer.time("datagen.generate", req, || {
        datagen::generate_with_min_matches(DatasetKind::Restaurant, scale, min_matches, &mut rng)
    });
    tracer
        .time("serd.fit", req, || {
            SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
        })
        .map_err(|e| format!("fit: {e}"))
}

/// [`fit_model`], then [`save_and_load`].
pub fn fit_artifact(
    scale: f64,
    min_matches: usize,
    seed: u64,
    path: &Path,
    tracer: &Tracer,
    req: u64,
) -> Result<Artifact, String> {
    let model = fit_model(scale, min_matches, seed, tracer, req)?;
    save_and_load(&model, path, tracer, req)
}

/// Saves `model` to `path` and reloads it through `api::load_model`.
pub fn save_and_load(
    model: &SerdModel,
    path: &Path,
    tracer: &Tracer,
    req: u64,
) -> Result<Artifact, String> {
    let t = Instant::now();
    tracer
        .time("persist.save", req, || model.save_to(path))
        .map_err(|e| format!("save: {e}"))?;
    let save_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let loaded = tracer
        .time("persist.load", req, || api::load_model(path))
        .map_err(|e| format!("load: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::read(path).map_err(|e| format!("read artifact: {e}"))?;
    Ok(Artifact {
        path: path.to_path_buf(),
        synth: SerdSynthesizer::from_model(loaded),
        bytes,
        save_s,
        load_s,
    })
}

/// Eq. 3 fidelity: the mean over `outs` of `OMixture::jsd(O_syn, O_real)`,
/// `O_syn` learned (`OMixture::learn`, timed as `gmm.learn`) on each
/// dataset's `similarity_vectors`, with a fixed sample count and seeds
/// derived from the workload seed. Returns the mean (0 when no dataset
/// had enough matches to learn from) and how many datasets it averages.
pub fn fidelity_jsd(
    synth: &SerdSynthesizer,
    outs: &[&SynthesizedEr],
    seed: u64,
    tracer: &Tracer,
) -> (f64, usize) {
    let gmm_cfg = &synth.model().online.gmm;
    let neg = SerdConfig::fast().neg_samples;
    let mut jsds = Vec::new();
    for (k, out) in outs.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_FIDELITY, k as u64));
        let sv = out.er.similarity_vectors(neg, &mut rng);
        let learned = tracer.time("gmm.learn", FIDELITY_REQ + k as u64, || {
            OMixture::learn(&sv.pos, &sv.neg, gmm_cfg, &mut rng)
        });
        match learned {
            Ok(o_syn) => jsds.push(o_syn.jsd(synth.o_real(), FIDELITY_SAMPLES, &mut rng)),
            Err(e) => eprintln!("fidelity skipped for dataset {k}: {e}"),
        }
    }
    if jsds.is_empty() {
        return (0.0, 0);
    }
    (jsds.iter().sum::<f64>() / jsds.len() as f64, jsds.len())
}

/// Digest of a response's three CSV renderings.
fn response_digest(csvs: &[String; 3]) -> u64 {
    let mut acc = Vec::with_capacity(24);
    for c in csvs {
        acc.extend_from_slice(&fnv1a64(c.as_bytes()).to_le_bytes());
    }
    fnv1a64(&acc)
}

fn render(resp: &SynthesisResponse) -> [String; 3] {
    [
        resp.csv(Table::A),
        resp.csv(Table::B),
        resp.csv(Table::Matches),
    ]
}

fn request(path: &Path, seed: u64, n: usize) -> SynthesisRequest {
    SynthesisRequest {
        seed,
        n_a: Some(n),
        n_b: Some(n),
        ..SynthesisRequest::new(ModelRef::Path(path.to_path_buf()))
    }
}

struct Done {
    seed: u64,
    synth_s: f64,
    op_s: f64,
    digest: u64,
    stats: SynthesisStats,
    online: OnlineConfig,
    /// The synthesized dataset, kept for the first `FIDELITY_REQUESTS`.
    out: Option<SynthesizedEr>,
}

pub fn run(cfg: &RunCfg, sizes: &Sizes) -> Result<Report, String> {
    let mut rep = Report::default();
    let tracer = Tracer::new(cfg.trace, cfg.epoch, 0);
    let work = WorkDir::new("online").map_err(|e| format!("work dir: {e}"))?;

    // Set-up, repeated: its median is `setup_s`, and every repetition must
    // produce the same artifact bytes.
    let mut setup_s = Vec::new();
    let mut saves = Vec::new();
    let mut loads = Vec::new();
    let mut artifact: Option<Artifact> = None;
    for r in 0..sizes.setup_reps.max(1) {
        let t = Instant::now();
        let path = work.path().join(format!("restaurant-{r}.serd"));
        let art = fit_artifact(
            sizes.scale,
            sizes.min_matches,
            ARTIFACT_SEED,
            &path,
            &tracer,
            SETUP_REQ + r as u64,
        )?;
        setup_s.push(t.elapsed().as_secs_f64());
        saves.push(art.save_s);
        loads.push(art.load_s);
        if let Some(prev) = &artifact {
            rep.check(
                "online.setup_reproducible",
                prev.bytes == art.bytes,
                "re-fitting at the same seed must give the same artifact bytes",
            );
        }
        artifact = Some(art);
    }
    let art = artifact.expect("at least one set-up repetition");
    rep.digest("online.artifact", fnv1a64(&art.bytes));

    // Timed closed loop.
    let pool0 = parallel::pool_stats();
    let t_loop = Instant::now();
    let mut done: Vec<Done> = Vec::new();
    let mut failed = 0u64;
    let mut short = 0u64;
    let mut i = 0u64;
    while i == 0 || t_loop.elapsed().as_secs_f64() < cfg.seconds {
        let seed = derive_seed(cfg.seed, STREAM_REQUEST, i);
        let req = request(&art.path, seed, sizes.n);
        let _op = tracer.span("online.request", i);
        let t0 = Instant::now();
        let resp = tracer.time("api.synthesize", i, || api::synthesize(&art.synth, &req));
        let synth_s = t0.elapsed().as_secs_f64();
        match resp {
            Ok(resp) => {
                let csvs = tracer.time("serd.render", i, || render(&resp));
                let op_s = t0.elapsed().as_secs_f64();
                let sizes_ok = resp.er().a().len() == sizes.n && resp.er().b().len() == sizes.n;
                if !sizes_ok {
                    short += 1;
                }
                done.push(Done {
                    seed,
                    synth_s,
                    op_s,
                    digest: response_digest(&csvs),
                    stats: resp.stats().clone(),
                    online: resp.online.clone(),
                    out: (done.len() < FIDELITY_REQUESTS).then_some(resp.out),
                });
            }
            Err(e) => {
                failed += 1;
                eprintln!("online: request seed {seed} failed: {e}");
            }
        }
        i += 1;
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let pool1 = parallel::pool_stats();
    rep.ops("online.requests_ok", i, failed);

    // Output checks (after the timed section).
    rep.check(
        "online.target_sizes",
        !done.is_empty() && short == 0,
        format!(
            "every response has {n} + {n} entities ({short} short)",
            n = sizes.n
        ),
    );
    if let Some(first) = done.first() {
        let again = api::synthesize(&art.synth, &request(&art.path, first.seed, sizes.n))
            .map(|r| response_digest(&render(&r)));
        rep.check(
            "online.rerun_identical",
            again.as_ref().ok() == Some(&first.digest),
            "rerunning the first request must give the same CSV bytes",
        );
    }
    for d in &done {
        rep.digest(format!("online.response.seed{}", d.seed), d.digest);
    }

    let kept: Vec<&SynthesizedEr> = done.iter().filter_map(|d| d.out.as_ref()).collect();
    let (fidelity, jsds) = fidelity_jsd(&art.synth, &kept, cfg.seed, &tracer);

    // Per-request rates, and their median: a few requests cost 5-20x the
    // median, so the run's total would hinge on how many of them it met.
    let rates: Vec<f64> = done
        .iter()
        .map(|d| d.stats.accepted as f64 / d.synth_s.max(1e-9))
        .collect();
    let entities: usize = done.iter().map(|d| d.stats.accepted).sum();
    let synth_total: f64 = done.iter().map(|d| d.synth_s).sum();
    let op_ms: Vec<f64> = done.iter().map(|d| d.op_s * 1e3).collect();
    let entities_per_s = median(&rates).unwrap_or(0.0);
    let p50_ms = median(&op_ms).unwrap_or(0.0);
    let (tail_p, tail_ms) = tail(&op_ms).unwrap_or((50.0, 0.0));

    rep.e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    rep.e2e.insert("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    rep.e2e.insert("entities_per_s", entities_per_s);
    rep.samples.push(("op_ms", op_ms.clone()));
    rep.note("requests", done.len() as f64, "count");
    rep.note("request_p50_ms", p50_ms, "ms");
    rep.note(
        "entities_per_s_total",
        entities as f64 / synth_total.max(1e-9),
        "1/s",
    );
    rep.note(format!("request_p{tail_p}_ms"), tail_ms, "ms");
    rep.note("fidelity_jsd", fidelity, "nats");
    rep.note("fidelity_samples", jsds as f64, "count");

    if cfg.trace {
        let counts: Vec<CallCounts> = done
            .iter()
            .map(|d| CallCounts::from_stats(&d.stats, &d.online))
            .collect();
        let t_replay = Instant::now();
        let kept = done.iter().rev().find_map(|d| d.out.as_ref());
        let kept = kept.ok_or("no successful request to replay")?;
        let (costs, replay_spans) = replay_costs(
            &art.synth,
            kept,
            sizes.replay_steps,
            sizes.s3_passes,
            derive_seed(cfg.seed, STREAM_REPLAY, 0),
            cfg.epoch,
            REPLAY_REQ,
        )?;
        let replay_s = t_replay.elapsed().as_secs_f64();
        let main_spans = tracer.into_spans();
        let stats = by_name(std::slice::from_ref(&main_spans));
        let span_median = |name| {
            stats
                .get(name)
                .and_then(|s| median(&s.durations))
                .unwrap_or(0.0)
        };
        let l = &mut rep.layers;
        costs.insert_layers(&counts, synth_total, l);
        insert_persist(l, &saves, &loads, art.bytes.len());
        l.insert("serd.render_ms", span_median("serd.render") * 1e3);
        l.insert("serd.fidelity_jsd", fidelity);
        l.insert("gmm.learn_s", span_median("gmm.learn"));
        let loop_spans = main_spans.iter().filter(|s| s.req < REPLAY_REQ).count();
        let spans = main_spans.len() + replay_spans.len();
        rep.insert_run_layers([pool0, pool1], loop_s, spans, loop_spans, replay_s, p50_ms);
        rep.spans = vec![main_spans, replay_spans];
    }
    Ok(rep)
}
