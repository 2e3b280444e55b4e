//! Exp-2 (model evaluation) and Exp-3 (data evaluation) runners.

use crate::metrics::{confusion, Metrics};
use er_core::ErDataset;
use matchers::{Classifier, LabeledVectors, MatcherKind, TrainedMatcher};
use rand::Rng;

/// Builds a labeled feature set from an ER dataset: one vector per matching
/// pair plus `neg_ratio × |M|` sampled non-matching pairs (blocked hard
/// negatives + uniform random, mirroring standard Magellan/Deepmatcher
/// training-set construction). These are fit's X+ and X− at a larger sample
/// ([`ErDataset::similarity_vectors`]), so no profile cache is built.
pub fn labeled_vectors<R: Rng>(
    er: &ErDataset,
    neg_ratio: usize,
    rng: &mut R,
) -> LabeledVectors {
    let n_neg = er.num_matches().max(1) * neg_ratio.max(1);
    let sv = er.similarity_vectors(n_neg, rng);
    let mut data = LabeledVectors::default();
    for v in sv.pos {
        data.push(v, true);
    }
    for v in sv.neg {
        data.push(v, false);
    }
    data
}

/// Evaluates a trained matcher on a labeled test set.
pub fn evaluate(matcher: &TrainedMatcher, test: &LabeledVectors) -> Metrics {
    let preds: Vec<bool> = test.x.iter().map(|x| matcher.predict(x)).collect();
    confusion(&preds, &test.y).metrics()
}

/// One Exp-2 row: the metrics of matchers trained on each source dataset
/// and tested on the *same* real test set.
#[derive(Debug, Clone)]
pub struct ModelEvaluation {
    /// `(method name, metrics on T)` per training source, starting with
    /// `"Real"`.
    pub rows: Vec<(String, Metrics)>,
}

/// Runs Exp-2 for one matcher family: split `real` into train/test, train on
/// real-train and on each synthesized dataset, and test everything on the
/// real test split.
pub fn model_evaluation<R: Rng>(
    kind: MatcherKind,
    real: &ErDataset,
    synthesized: &[(&str, &ErDataset)],
    neg_ratio: usize,
    test_frac: f64,
    rng: &mut R,
) -> ModelEvaluation {
    let all = labeled_vectors(real, neg_ratio, rng);
    let (train, test) = all.split(test_frac, rng);
    let mut rows = Vec::new();

    let m_real = kind.train(&train.x, &train.y, rng);
    rows.push(("Real".to_string(), evaluate(&m_real, &test)));

    for (name, syn) in synthesized {
        let syn_data = labeled_vectors(syn, neg_ratio, rng);
        let m_syn = kind.train(&syn_data.x, &syn_data.y, rng);
        rows.push((name.to_string(), evaluate(&m_syn, &test)));
    }
    ModelEvaluation { rows }
}

/// One Exp-3 row: the same real-trained matcher evaluated on `T_real` vs
/// each synthesized test set of the same size.
#[derive(Debug, Clone)]
pub struct DataEvaluation {
    /// `("Real", metrics on T_real)` followed by per-method metrics on
    /// their `T_syn`.
    pub rows: Vec<(String, Metrics)>,
}

/// Runs Exp-3 for one matcher family: train on real-train, then test on
/// `T_real` and on equally sized labeled samples `T_syn` drawn from each
/// synthesized dataset.
pub fn data_evaluation<R: Rng>(
    kind: MatcherKind,
    real: &ErDataset,
    synthesized: &[(&str, &ErDataset)],
    neg_ratio: usize,
    test_frac: f64,
    rng: &mut R,
) -> DataEvaluation {
    let all = labeled_vectors(real, neg_ratio, rng);
    let (train, t_real) = all.split(test_frac, rng);
    let matcher = kind.train(&train.x, &train.y, rng);

    let mut rows = vec![("Real".to_string(), evaluate(&matcher, &t_real))];
    for (name, syn) in synthesized {
        let syn_all = labeled_vectors(syn, neg_ratio, rng);
        let (_, t_syn) = syn_all.split(test_frac, rng);
        rows.push((name.to_string(), evaluate(&matcher, &t_syn)));
    }
    DataEvaluation { rows }
}

/// K-fold cross-validated metrics of one matcher family on a labeled set:
/// the data is split into `k` stratified folds, each fold serves once as the
/// test set, and the per-fold metrics are averaged. Useful when a dataset is
/// too small for a single train/test split to be stable (e.g. Restaurant at
/// low scales).
pub fn cross_validate<R: Rng>(
    kind: MatcherKind,
    data: &LabeledVectors,
    k: usize,
    rng: &mut R,
) -> Metrics {
    use rand::seq::SliceRandom;
    let k = k.clamp(2, data.len().max(2));
    // Stratified fold assignment.
    let mut pos: Vec<usize> = (0..data.len()).filter(|&i| data.y[i]).collect();
    let mut neg: Vec<usize> = (0..data.len()).filter(|&i| !data.y[i]).collect();
    pos.shuffle(rng);
    neg.shuffle(rng);
    let mut fold_of = vec![0usize; data.len()];
    for (pos_rank, &i) in pos.iter().enumerate() {
        fold_of[i] = pos_rank % k;
    }
    for (neg_rank, &i) in neg.iter().enumerate() {
        fold_of[i] = neg_rank % k;
    }

    let mut total = Metrics::default();
    let mut folds_used = 0;
    for fold in 0..k {
        let mut train = LabeledVectors::default();
        let mut test = LabeledVectors::default();
        for i in 0..data.len() {
            let target = if fold_of[i] == fold { &mut test } else { &mut train };
            target.push(data.x[i].clone(), data.y[i]);
        }
        if train.positives() == 0 || test.is_empty() {
            continue;
        }
        let m = kind.train(&train.x, &train.y, rng);
        let metrics = evaluate(&m, &test);
        total.precision += metrics.precision;
        total.recall += metrics.recall;
        total.f1 += metrics.f1;
        folds_used += 1;
    }
    let n = folds_used.max(1) as f64;
    Metrics {
        precision: total.precision / n,
        recall: total.recall / n,
        f1: total.f1 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, DatasetKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labeled_vectors_balanced_by_ratio() {
        let mut rng = StdRng::seed_from_u64(0);
        let sim = generate(DatasetKind::Restaurant, 0.05, &mut rng);
        let data = labeled_vectors(&sim.er, 3, &mut rng);
        let pos = data.positives();
        assert_eq!(pos, sim.er.num_matches());
        assert!(data.len() - pos <= 3 * pos);
        assert!(data.len() - pos >= pos); // got a reasonable negative pool
    }

    #[test]
    fn labeled_vectors_score_the_sorted_matches_then_the_sampled_negatives() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        let sim = generate(DatasetKind::DblpAcm, 0.03, &mut rng);
        let er = &sim.er;
        let data = labeled_vectors(er, 4, &mut StdRng::seed_from_u64(9));

        // The same pairs scored one at a time through the resident cache.
        let mut rng = StdRng::seed_from_u64(9);
        let mut matches: Vec<(usize, usize)> = er.matches().iter().copied().collect();
        matches.sort_unstable();
        let negs = er.sample_nonmatch_pairs(4 * er.num_matches(), &mut rng);
        let mut want = LabeledVectors::default();
        for (i, j) in matches {
            want.push(er.similarity_vector(i, j), true);
        }
        for (i, j) in negs {
            want.push(er.similarity_vector(i, j), false);
        }
        let bits = |d: &LabeledVectors| -> Vec<Vec<u64>> {
            d.x.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        assert!(bits(&data) == bits(&want), "vectors differ from the resident cache's");
        assert_eq!(data.y, want.y);
        // Both consumed the same draws.
        let mut after = StdRng::seed_from_u64(9);
        let _ = labeled_vectors(er, 4, &mut after);
        assert_eq!(after.gen::<u64>(), rng.gen::<u64>());
    }

    #[test]
    fn real_matcher_performs_well_on_simulated_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let sim = generate(DatasetKind::DblpAcm, 0.05, &mut rng);
        let eval = model_evaluation(MatcherKind::Magellan, &sim.er, &[], 4, 0.3, &mut rng);
        let (name, m) = &eval.rows[0];
        assert_eq!(name, "Real");
        assert!(m.f1 > 0.8, "real-trained F1 {}", m.f1);
    }

    #[test]
    fn embench_trained_matcher_appears_in_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let sim = generate(DatasetKind::Restaurant, 0.05, &mut rng);
        let emb = serd::baselines::embench(&sim.er, &mut rng).unwrap();
        let eval = model_evaluation(
            MatcherKind::Magellan,
            &sim.er,
            &[("EMBench", &emb.er)],
            4,
            0.3,
            &mut rng,
        );
        assert_eq!(eval.rows.len(), 2);
        assert_eq!(eval.rows[1].0, "EMBench");
        // EMBench data is drawn from perturbed real entities, so it should
        // train a working (if worse) matcher — sanity: finite metrics.
        assert!(eval.rows[1].1.f1.is_finite());
    }

    #[test]
    fn cross_validation_on_separable_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let sim = generate(DatasetKind::DblpAcm, 0.03, &mut rng);
        let data = labeled_vectors(&sim.er, 4, &mut rng);
        let m = cross_validate(MatcherKind::Magellan, &data, 5, &mut rng);
        assert!(m.f1 > 0.8, "cv F1 {}", m.f1);
        assert!((0.0..=1.0).contains(&m.precision));
        assert!((0.0..=1.0).contains(&m.recall));
    }

    #[test]
    fn cross_validation_degenerate_k_clamped() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut data = LabeledVectors::default();
        for i in 0..6 {
            data.push(vec![i as f64 / 6.0], i >= 3);
        }
        // k larger than the dataset is clamped rather than panicking.
        let m = cross_validate(MatcherKind::Magellan, &data, 100, &mut rng);
        assert!(m.f1.is_finite());
    }

    #[test]
    fn data_evaluation_rows_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let sim = generate(DatasetKind::Restaurant, 0.05, &mut rng);
        let emb = serd::baselines::embench(&sim.er, &mut rng).unwrap();
        let eval = data_evaluation(
            MatcherKind::Magellan,
            &sim.er,
            &[("EMBench", &emb.er)],
            4,
            0.3,
            &mut rng,
        );
        assert_eq!(eval.rows.len(), 2);
        assert_eq!(eval.rows[0].0, "Real");
    }
}
