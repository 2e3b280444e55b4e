//! End-to-end test of the enabled observability path: run the fast SERD
//! pipeline with `obs` in JSON mode and check that the run-report carries
//! spans and metrics for every pipeline stage, and that recording does not
//! perturb the synthesis output (obs must never consume RNG or change
//! control flow).
//!
//! This lives in an integration-test binary so flipping the process-global
//! obs mode cannot race the crate's unit tests.

use datagen::{generate, DatasetKind};
use er_core::csv;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd::{SerdConfig, SerdSynthesizer};

fn run_pipeline(seed: u64) -> (SerdSynthesizer, serd::SynthesizedEr) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sim = generate(DatasetKind::Restaurant, 0.02, &mut rng);
    let model = SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng)
        .expect("fit");
    let syn = SerdSynthesizer::from_model(model);
    let out = syn.synthesize(&mut rng).expect("synthesize");
    (syn, out)
}

#[test]
fn json_run_report_covers_every_stage_and_recording_is_inert() {
    // Seed note: the serd-text-v2 sampling-stream bump (per-candidate RNG
    // lanes, DESIGN.md §11.1) shifted every downstream draw; at the old seed
    // 11 the O_syn tracker no longer collects the ≥2 posterior-positive
    // vectors it needs to leave warm-up, so the JSD metrics are never
    // recorded. Seed 12 exercises the full rejection path; the metric
    // checklist below is unchanged.
    // Baseline run with obs off: capture the exact synthesized output.
    obs::set_mode(obs::Mode::Off);
    let (_, baseline) = run_pipeline(12);
    let baseline_a = csv::relation_to_csv(baseline.er.a());
    let baseline_b = csv::relation_to_csv(baseline.er.b());

    // Instrumented run, same seed.
    obs::set_mode(obs::Mode::Json);
    obs::reset();
    let (syn, out) = run_pipeline(12);
    let report = syn.run_report();
    obs::set_mode(obs::Mode::Off);

    // Determinism: recording must not consume RNG or alter control flow.
    assert_eq!(csv::relation_to_csv(out.er.a()), baseline_a);
    assert_eq!(csv::relation_to_csv(out.er.b()), baseline_b);
    assert_eq!(out.er.num_matches(), baseline.er.num_matches());
    assert_eq!(out.stats.accepted, baseline.stats.accepted);

    // The report is one JSON object with spans + metrics sections.
    assert!(report.starts_with('{') && report.trim_end().ends_with('}'));

    // Spans for each pipeline stage (fit/synthesize at top level, the inner
    // stages nested under them, so their names appear in the tree).
    for span in ["\"fit\"", "\"synthesize\"", "\"blocking\"", "\"similarity_vectors\"",
                 "\"gmm.fit_auto\"", "\"transformer.train\"", "\"s3.label\"",
                 // The fit-time probe of each trained bucket model, nested
                 // under `transformer.train`; its decodes run S2's candidate
                 // step, so `text.generate` appears there.
                 "\"transformer.probe\"",
                 // S2 sub-stages, nested under `synthesize`.
                 "\"s2.decode\"", "\"s2.plausibility\"", "\"s2.profile\"",
                 "\"s2.delta_vectors\"", "\"s2.would_reject\"", "\"s2.commit\"",
                 // Text synthesis: model candidates (under the probe, and
                 // under `s2.decode` for kept models) and guided repair
                 // (under `s2.decode`).
                 "\"text.generate\"", "\"text.repair\""] {
        assert!(report.contains(span), "missing span {span} in report:\n{report}");
    }

    // The probe counts its verdicts. At this seed it drops every model, so
    // S2 decodes no candidate: every text value is a repair.
    let fit = subtree(&report, "fit");
    let synthesize = subtree(&report, "synthesize");
    for counter in ["\"text.models_kept\":0", "\"text.models_dropped\":6"] {
        assert!(fit.contains(counter), "fit report lacks {counter}:\n{fit}");
    }
    assert!(!synthesize.contains("text.candidates"), "decoded candidates:\n{synthesize}");
    assert!(!synthesize.contains("decode.kv_cache_steps"), "decoded tokens:\n{synthesize}");
    assert!(synthesize.contains("\"text.repair\""));

    // Metrics recorded by each subsystem.
    for metric in [
        "reduction_ratio",      // er-core blocking
        "pairs_per_sec",        // similarity-vector extraction
        "em.loglik",            // gmm EM per-iteration log-likelihood
        "aic_chosen_g",         // gmm AIC-selected component count
        "jsd_estimate",         // gmm JSD estimates
        "train.loss.bucket",    // transformer per-epoch loss
        "dpsgd.epsilon",        // DP-SGD accountant epsilon trajectory
        "dpsgd.clip_fraction",  // DP-SGD clip fraction
        "rejection.jsd",        // rejection sampling JSD trajectory
        "acceptance_rate",      // rejection sampling acceptance rate
        "pool.jobs_executed",   // parallel pool stats
        "pool.utilization",
        "epsilon",              // total privacy budget
        "text.models_kept",     // bucket models the probe kept
        "text.models_dropped",  // bucket models the probe dropped
        "text.candidates",      // decoded text candidates
        "text.gate_rejected",   // candidates the plausibility gate discarded
        "text.repairs",         // text values produced by guided repair
        "text.repair_rounds",   // search rounds those repairs ran
        "text.repair_unconverged", // repairs that ended outside the tolerance
        "text.repair_stalled",  // repairs the stall rule ended
        "text.repair_miss",     // |achieved - target| per repair
        "rejection.warmup_accepts", // candidates accepted before O_syn was fitted
        "rejection.osyn_fitted",    // whether O_syn left warm-up (0/1)
    ] {
        assert!(report.contains(metric), "missing metric {metric} in report:\n{report}");
    }

    // Rejection counters are present and the acceptance gauge is sane.
    assert!(report.contains("accepted"));
    assert!(report.contains("rejected.discriminator"));
    assert!(report.contains("rejected.distribution"));
}

/// The JSON object of the first span node named `name`.
fn subtree<'r>(report: &'r str, name: &str) -> &'r str {
    let start = report
        .find(&format!("{{\"name\":\"{name}\""))
        .unwrap_or_else(|| panic!("no span {name:?} in report:\n{report}"));
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in report[start..].char_indices() {
        match (in_string, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') => in_string = false,
            (true, false, _) => {}
            (false, _, '"') => in_string = true,
            (false, _, '{') => depth += 1,
            (false, _, '}') => {
                depth -= 1;
                if depth == 0 {
                    return &report[start..=start + i];
                }
            }
            (false, _, _) => {}
        }
    }
    panic!("unterminated span {name:?}");
}
