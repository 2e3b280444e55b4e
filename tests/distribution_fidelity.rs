//! Integration tests for the statistical core: does the synthesized
//! dataset's similarity-vector distribution actually track the real one?

use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::prelude::*;

#[test]
fn osyn_tracks_oreal_in_jsd() {
    // Each seed's check reads one 600-sample Monte-Carlo estimate for one
    // synthesized dataset, and both vary from seed to seed: over seeds 0–63
    // the estimates average 0.149 under the serd-text-v3 sampling stream
    // and 0.137 under serd-text-v4 (standard deviations 0.084 and 0.076),
    // and 7 and 5 of them exceed 0.25. So a stream bump can move one seed
    // over a 0.25 bar while the output gets no worse: v2 moved seed 0 to
    // 0.268, and v4 moves seed 2 to 0.261, where twenty fresh estimates of
    // the same two mixtures average 0.151 and none reaches 0.25. The mean
    // over seeds 2–5 must therefore stay below 0.2, and no seed may reach
    // 0.3, about the per-seed mean plus two standard deviations.
    let mut jsds = Vec::new();
    for seed in 2..6 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sim = datagen::generate_with_min_matches(DatasetKind::DblpAcm, 0.03, 20, &mut rng);
        let synthesizer = SerdSynthesizer::from_model(
            SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng).unwrap(),
        );
        let out = synthesizer.synthesize(&mut rng).unwrap();

        // Learn O distributions from both datasets with the same recipe and
        // compare via Monte-Carlo JSD.
        let sv_real = sim.er.similarity_vectors(400, &mut rng);
        let o_real = OMixture::learn(&sv_real.pos, &sv_real.neg, &GmmConfig::default(), &mut rng)
            .unwrap();
        let sv_syn = out.er.similarity_vectors(400, &mut rng);
        assert!(
            !sv_syn.pos.is_empty(),
            "seed {seed}: synthesized dataset lost its matching pairs"
        );
        let o_syn =
            OMixture::learn(&sv_syn.pos, &sv_syn.neg, &GmmConfig::default(), &mut rng).unwrap();
        // Absolute closeness: JSD lives in [0, ln 2 ≈ 0.693]; the
        // synthesized distribution should sit well inside the low end.
        let jsd = o_real.jsd(&o_syn, 600, &mut rng);
        assert!(jsd < 0.3, "seed {seed}: JSD(O_syn, O_real) = {jsd:.3} too large");
        jsds.push(jsd);

        // Decision-level agreement: what matcher training actually consumes
        // is the match/non-match structure. On vectors drawn from O_real,
        // the two learned posteriors must agree almost always.
        let n = 1000;
        let agree = (0..n)
            .filter(|_| {
                let (x, _) = o_real.sample(&mut rng);
                o_real.is_match(&x) == o_syn.is_match(&x)
            })
            .count();
        let frac = agree as f64 / n as f64;
        assert!(
            frac > 0.9,
            "seed {seed}: posterior agreement between O_syn and O_real only {frac:.3}"
        );
    }

    let mean = jsds.iter().sum::<f64>() / jsds.len() as f64;
    assert!(mean < 0.2, "mean JSD(O_syn, O_real) = {mean:.3} too large: {jsds:.3?}");
}

#[test]
fn posterior_labeling_matches_planted_labels_on_real_data() {
    // If we learn O_real and then re-label the real dataset's own pairs by
    // posterior, we should broadly recover the planted labels — the premise
    // behind step S3.
    let mut rng = StdRng::seed_from_u64(1);
    let sim = datagen::generate_with_min_matches(DatasetKind::DblpAcm, 0.03, 20, &mut rng);
    let sv = sim.er.similarity_vectors(400, &mut rng);
    let o = OMixture::learn(&sv.pos, &sv.neg, &GmmConfig::default(), &mut rng).unwrap();

    let pos_correct = sv.pos.iter().filter(|v| o.is_match(v)).count();
    let neg_correct = sv.neg.iter().filter(|v| !o.is_match(v)).count();
    let pos_acc = pos_correct as f64 / sv.pos.len() as f64;
    let neg_acc = neg_correct as f64 / sv.neg.len() as f64;
    assert!(pos_acc > 0.9, "match posterior accuracy {pos_acc}");
    assert!(neg_acc > 0.95, "non-match posterior accuracy {neg_acc}");
}

#[test]
fn synthesized_match_vectors_live_in_match_region() {
    let mut rng = StdRng::seed_from_u64(2);
    let sim = datagen::generate_with_min_matches(DatasetKind::Restaurant, 0.08, 16, &mut rng);
    let synthesizer = SerdSynthesizer::from_model(
        SerdSynthesizer::fit(&sim.er, &sim.background, SerdConfig::fast(), &mut rng).unwrap(),
    );
    let out = synthesizer.synthesize(&mut rng).unwrap();

    let o_real = synthesizer.o_real();
    let mut agree = 0;
    let mut total = 0;
    for &(i, j) in out.er.matches() {
        let v = out.er.similarity_vector(i, j);
        if o_real.is_match(&v) {
            agree += 1;
        }
        total += 1;
    }
    assert!(total > 0);
    let frac = agree as f64 / total as f64;
    assert!(
        frac > 0.5,
        "only {frac:.2} of synthesized matches sit in O_real's match region"
    );
}

#[test]
fn all_similarity_vectors_in_unit_cube() {
    let mut rng = StdRng::seed_from_u64(3);
    let sim = datagen::generate_with_min_matches(DatasetKind::ItunesAmazon, 0.008, 12, &mut rng);
    let sv = sim.er.similarity_vectors(300, &mut rng);
    for v in sv.pos.iter().chain(&sv.neg) {
        assert_eq!(v.len(), sim.er.a().schema().len());
        assert!(v.iter().all(|&x| (0.0..=1.0).contains(&x)), "{v:?}");
    }
}
