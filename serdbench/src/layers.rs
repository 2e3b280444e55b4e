//! Layer replays for traced runs.
//!
//! `api::synthesize` and `SerdSynthesizer::fit` run their inner layers out
//! of the benchmark's sight, so a traced run calls each inner layer's public
//! function directly, on inputs taken from the run's own synthesized tables,
//! artifact and ingested data, and times every call with a span. Call
//! counts per request come from `SynthesisStats`; multiplying them by the
//! replayed per-call costs attributes a request's time to layers.

use crate::trace::{by_name, NameStats, Tracer};
use er_core::{blocking, IncrementalProfiler, RecordProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serd::{OSynState, OnlineConfig, SerdSynthesizer, Side, SynthesisStats, SynthesizedEr};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Calls one synthesis request makes into each S2/S3 layer, derived from
/// its `SynthesisStats` and the online knobs it ran with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CallCounts {
    /// `PreparedEntity::synthesize` calls (S2 candidates).
    pub decode: u64,
    /// `ColumnSynthesizer::prepare_entity` calls (one per S2 step).
    pub prepare: u64,
    /// `TabularBackend::plausibility` calls (rejection case 1).
    pub plausibility: u64,
    /// ΔX computations (`IncrementalProfiler::profile_entity` + pair
    /// similarities) — one per candidate that passed case 1.
    pub delta: u64,
    /// `OSynState::would_reject` calls (rejection case 2).
    pub would_reject: u64,
    /// `OSynState::commit` calls (one per accepted S2 entity).
    pub commit: u64,
    /// Entities accepted after exhausting retries.
    pub forced: u64,
}

impl CallCounts {
    /// Derives the counts from the loop structure of S2: every accepted
    /// entity but the cold-start one is one S2 step; each step decodes its
    /// rejected candidates plus the one it keeps, and a forced accept's
    /// last candidate skips both rejection tests. `online` is the effective
    /// configuration the request ran with (`SynthesisResponse::online`).
    pub fn from_stats(st: &SynthesisStats, online: &OnlineConfig) -> CallCounts {
        let steps = st.accepted.saturating_sub(1) as u64;
        let rd = st.rejected_discriminator as u64;
        let rj = st.rejected_distribution as u64;
        let forced = st.forced_accepts as u64;
        let decode = steps + rd + rj;
        // With no retries every step keeps its only candidate untested (and
        // S2 does not count it as forced).
        let tested = if online.max_retries == 0 {
            0
        } else {
            decode - forced
        };
        CallCounts {
            decode,
            prepare: steps,
            plausibility: if online.reject_by_discriminator {
                tested
            } else {
                0
            },
            delta: decode - rd,
            would_reject: if online.reject_by_distribution {
                tested - rd
            } else {
                0
            },
            commit: steps,
            forced,
        }
    }

    /// Every call that runs a Monte-Carlo JSD estimate or warm-up fit.
    pub fn jsd_calls(&self) -> u64 {
        self.would_reject + self.commit
    }
}

/// Mean seconds per call of each replayed S2/S3 layer.
#[derive(Debug, Clone, Default)]
pub struct S2Costs {
    pub prepare: f64,
    pub candidate: f64,
    pub plausibility: f64,
    pub delta: f64,
    pub would_reject: f64,
    pub commit: f64,
    /// One S3 pass: blocking + pair similarities + posterior labels.
    pub s3: f64,
    /// Span statistics of the replay, by span name.
    pub spans: BTreeMap<&'static str, NameStats>,
}

impl S2Costs {
    /// Seconds a request with `c` calls spends in the replayed layers.
    pub fn attributed_s(&self, c: &CallCounts) -> f64 {
        c.prepare as f64 * self.prepare
            + c.decode as f64 * self.candidate
            + c.plausibility as f64 * self.plausibility
            + c.delta as f64 * self.delta
            + c.would_reject as f64 * self.would_reject
            + c.commit as f64 * self.commit
            + self.s3
    }

    pub fn median_s(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .and_then(|s| crate::stats::median(&s.durations))
            .unwrap_or(0.0)
    }

    /// Inserts the S2/S3 per-layer metrics of a synthesis workload: the
    /// replayed calls' median costs, the per-request call counts in
    /// `counts` (one entry per request), and the share of `synth_total`
    /// (those requests' seconds in `api::synthesize`) the replayed costs
    /// do not explain.
    pub fn insert_layers(
        &self,
        counts: &[CallCounts],
        synth_total: f64,
        l: &mut BTreeMap<&'static str, f64>,
    ) {
        let sum = |f: fn(&CallCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
        let n = counts.len().max(1) as f64;
        let attributed: f64 = counts.iter().map(|c| self.attributed_s(c)).sum();
        let ms = |name| self.median_s(name) * 1e3;
        let us = |name| self.median_s(name) * 1e6;
        l.insert("transformer.candidate_ms", ms("transformer.candidate"));
        l.insert("serd.decode_calls", sum(|c| c.decode) / n);
        l.insert(
            "serd.accept_ratio",
            sum(|c| c.prepare) / sum(|c| c.decode).max(1.0),
        );
        l.insert(
            "serd.forced_frac",
            sum(|c| c.forced) / sum(|c| c.prepare).max(1.0),
        );
        l.insert("serd.prepare_ms", ms("serd.prepare"));
        l.insert(
            "serd.unattributed_frac",
            1.0 - attributed / synth_total.max(1e-9),
        );
        l.insert("gmm.would_reject_ms", ms("gmm.would_reject"));
        l.insert("gmm.commit_ms", ms("gmm.commit"));
        l.insert("gmm.jsd_calls", sum(|c| c.jsd_calls()) / n);
        l.insert("gmm.s3_label_ms", ms("gmm.s3_label"));
        l.insert("gan.plausibility_us", us("gan.plausibility"));
        l.insert("er-core.delta_us", us("er-core.delta"));
        l.insert("er-core.s3_block_ms", ms("er-core.s3_block"));
    }
}

/// Inserts `persist.*` from set-up: the median `save_to` and
/// `api::load_model` seconds and the size of the saved artifact.
pub fn insert_persist(
    l: &mut BTreeMap<&'static str, f64>,
    saves: &[f64],
    loads: &[f64],
    bytes: usize,
) {
    l.insert("persist.save_s", crate::stats::median(saves).unwrap_or(0.0));
    l.insert("persist.load_s", crate::stats::median(loads).unwrap_or(0.0));
    l.insert("persist.artifact_bytes", bytes as f64);
}

fn mean_s(stats: &BTreeMap<&'static str, NameStats>, name: &str) -> f64 {
    stats
        .get(name)
        .map_or(0.0, |s| s.total_s / s.calls.max(1) as f64)
}

/// Replays `steps` S2 steps and `s3_passes` S3 passes of `synth` on the
/// tables of `out` (a response the run synthesized), timing each layer call
/// under `tracer`. Span request ids start at `req_base`.
fn replay_s2(
    synth: &SerdSynthesizer,
    out: &SynthesizedEr,
    steps: usize,
    s3_passes: usize,
    seed: u64,
    tracer: &Tracer,
    req_base: u64,
) -> Result<(), String> {
    let model = synth.model();
    let online = &model.online;
    let er = &out.er;
    let (a, b) = (er.a(), er.b());
    if a.is_empty() || b.is_empty() {
        return Err("replay needs non-empty synthesized tables".into());
    }
    let schema = a.schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut profiler = IncrementalProfiler::new(schema, blocking::DEFAULT_BLOCK_Q);
    let aprofs: Vec<RecordProfile> = a
        .entities()
        .iter()
        .map(|e| profiler.profile_entity(e))
        .collect();
    let bprofs: Vec<RecordProfile> = b
        .entities()
        .iter()
        .map(|e| profiler.profile_entity(e))
        .collect();
    let t = online.t_sample.max(1);

    // Warm the O_syn tracker the way S2 does: labeled cross-pair vectors,
    // matches first so both sides of the posterior split are populated.
    let mut osyn = OSynState::new(online.osyn_warmup);
    let mut matches: Vec<(usize, usize)> = er.matches().iter().copied().collect();
    matches.sort_unstable();
    let mut warm: Vec<Vec<f64>> = matches
        .iter()
        .map(|&(i, j)| {
            profiler.pair_similarity(schema, a.entity(i), &aprofs[i], b.entity(j), &bprofs[j])
        })
        .collect();
    for _ in 0..4 * online.osyn_warmup.max(t) {
        let (i, j) = (rng.gen_range(0..a.len()), rng.gen_range(0..b.len()));
        warm.push(profiler.pair_similarity(
            schema,
            a.entity(i),
            &aprofs[i],
            b.entity(j),
            &bprofs[j],
        ));
    }
    for chunk in warm.chunks(t) {
        if osyn.is_active() {
            break;
        }
        osyn.commit(
            chunk,
            &model.o_real,
            &online.gmm,
            online.jsd_samples,
            &mut rng,
        )
        .map_err(|e| format!("O_syn warm-up: {e}"))?;
    }

    for s in 0..steps {
        let req = req_base + s as u64;
        // As in S2: e from either table, e' for the other one, and ΔX
        // against the table e lives in.
        let (table, profs, side) = if rng.gen_range(0..a.len() + b.len()) < a.len() {
            (a, &aprofs, Side::B)
        } else {
            (b, &bprofs, Side::A)
        };
        let e = table.entity(rng.gen_range(0..table.len()));
        let x = if rng.gen::<f64>() < model.match_rate {
            model.o_real.m().sample_clamped(&mut rng)
        } else {
            model.o_real.n().sample_clamped(&mut rng)
        };
        let prepared = tracer.time("serd.prepare", req, || {
            model.columns.prepare_entity(e, &x, side)
        });
        let cand = tracer.time("transformer.candidate", req, || {
            prepared.synthesize(&mut rng)
        });
        black_box(tracer.time("gan.plausibility", req, || {
            model.backend.plausibility(&cand)
        }));
        let delta = tracer.time("er-core.delta", req, || {
            let cp = profiler.profile_entity(&cand);
            (0..t)
                .map(|_| {
                    let k = rng.gen_range(0..table.len());
                    profiler.pair_similarity(schema, table.entity(k), &profs[k], &cand, &cp)
                })
                .collect::<Vec<_>>()
        });
        if osyn.is_active() {
            black_box(tracer.time("gmm.would_reject", req, || {
                osyn.would_reject(
                    &delta,
                    &model.o_real,
                    online.alpha,
                    online.jsd_samples,
                    &mut rng,
                )
            }));
            tracer
                .time("gmm.commit", req, || {
                    osyn.commit(
                        &delta,
                        &model.o_real,
                        &online.gmm,
                        online.jsd_samples,
                        &mut rng,
                    )
                })
                .map_err(|e| format!("O_syn commit: {e}"))?;
        }
    }

    for p in 0..s3_passes {
        let req = req_base + (steps + p) as u64;
        let _s3 = tracer.span("serd.s3", req);
        let pairs = tracer.time("er-core.s3_block", req, || {
            blocking::candidate_pairs_profiled(
                a,
                b,
                &aprofs,
                &bprofs,
                blocking::DEFAULT_BLOCK_Q,
                50,
            )
        });
        let vectors: Vec<Vec<f64>> = tracer.time("er-core.s3_simvec", req, || {
            pairs
                .iter()
                .map(|&(i, j)| {
                    profiler.pair_similarity(
                        schema,
                        a.entity(i),
                        &aprofs[i],
                        b.entity(j),
                        &bprofs[j],
                    )
                })
                .collect()
        });
        black_box(tracer.time("gmm.s3_label", req, || {
            vectors.iter().filter(|v| model.o_real.is_match(v)).count()
        }));
    }
    Ok(())
}

/// Turns the replay's spans into per-call costs.
fn costs_from(spans: BTreeMap<&'static str, NameStats>) -> S2Costs {
    S2Costs {
        prepare: mean_s(&spans, "serd.prepare"),
        candidate: mean_s(&spans, "transformer.candidate"),
        plausibility: mean_s(&spans, "gan.plausibility"),
        delta: mean_s(&spans, "er-core.delta"),
        would_reject: mean_s(&spans, "gmm.would_reject"),
        commit: mean_s(&spans, "gmm.commit"),
        s3: mean_s(&spans, "serd.s3"),
        spans,
    }
}

/// Replays `steps` S2 steps and `s3_passes` S3 passes on a tracer of its
/// own and returns the per-call costs plus the spans.
pub fn replay_costs(
    synth: &SerdSynthesizer,
    out: &SynthesizedEr,
    steps: usize,
    s3_passes: usize,
    seed: u64,
    epoch: std::time::Instant,
    req_base: u64,
) -> Result<(S2Costs, Vec<crate::trace::SpanRec>), String> {
    let tracer = Tracer::new(true, epoch, 1);
    replay_s2(synth, out, steps, s3_passes, seed, &tracer, req_base)?;
    let spans = tracer.into_spans();
    let costs = costs_from(by_name(std::slice::from_ref(&spans)));
    Ok((costs, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serd::api::{self, ModelRef, SynthesisRequest};
    use serd::SerdConfig;

    fn stats(accepted: usize, rd: usize, rj: usize, forced: usize) -> SynthesisStats {
        SynthesisStats {
            accepted,
            rejected_discriminator: rd,
            rejected_distribution: rj,
            forced_accepts: forced,
            ..Default::default()
        }
    }

    #[test]
    fn counts_follow_the_s2_loop() {
        // 11 accepted = cold start + 10 steps; 4 + 3 rejections, 1 forced.
        let c = CallCounts::from_stats(&stats(11, 4, 3, 1), &OnlineConfig::default());
        assert_eq!(c.decode, 17);
        assert_eq!(c.prepare, 10);
        assert_eq!(c.commit, 10);
        assert_eq!(c.plausibility, 16);
        assert_eq!(c.delta, 13);
        assert_eq!(c.would_reject, 12);
        assert_eq!(c.jsd_calls(), 22);
    }

    /// Counts derived from real `SynthesisStats` of a tiny fitted model,
    /// with rejection as fitted, switched off, and with no retries.
    #[test]
    fn counts_from_a_tiny_fitted_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let sim = datagen::generate_with_min_matches(
            datagen::DatasetKind::Restaurant,
            0.02,
            16,
            &mut rng,
        );
        let model = SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
            .expect("tiny fit succeeds");
        let synth = SerdSynthesizer::from_model(model);
        let mut req = SynthesisRequest {
            seed: 9,
            n_a: Some(12),
            n_b: Some(12),
            ..SynthesisRequest::new(ModelRef::Name("tiny".into()))
        };
        let resp = api::synthesize(&synth, &req).expect("synthesis succeeds");
        let st = resp.stats();
        let c = CallCounts::from_stats(st, &resp.online);
        assert_eq!(st.accepted, 24);
        assert_eq!((c.prepare, c.commit), (23, 23));
        let rejected = (st.rejected_discriminator + st.rejected_distribution) as u64;
        assert_eq!(c.decode, 23 + rejected);
        assert!(
            rejected > 0,
            "rejection as fitted rejects something: {st:?}"
        );
        assert_eq!(c.plausibility + c.forced, c.decode);
        assert_eq!(c.delta + st.rejected_discriminator as u64, c.decode);
        assert_eq!(
            c.would_reject + st.rejected_discriminator as u64 + c.forced,
            c.decode
        );
        // A request cannot keep more candidates than its retry budget allows.
        assert!(c.decode <= c.prepare * (resp.online.max_retries as u64 + 1));

        req.overrides.rejection = Some(false);
        let off = api::synthesize(&synth, &req).expect("synthesis succeeds");
        let c = CallCounts::from_stats(off.stats(), &off.online);
        assert_eq!(
            (c.decode, c.plausibility, c.would_reject, c.delta, c.forced),
            (23, 0, 0, 23, 0)
        );

        req.overrides.rejection = None;
        req.overrides.max_retries = Some(0);
        let none = api::synthesize(&synth, &req).expect("synthesis succeeds");
        let c = CallCounts::from_stats(none.stats(), &none.online);
        assert_eq!(
            (c.decode, c.plausibility, c.would_reject, c.delta),
            (23, 0, 0, 23)
        );
    }
}
