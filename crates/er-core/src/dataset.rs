//! The labeled ER dataset `E = (A, B, M, N)` and similarity-vector extraction.

use crate::simcache::{self, ProfileCache};
use crate::{blocking, Entity, ErError, Relation, Result};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Label of an entity pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairLabel {
    /// The pair refers to the same real-world entity (`(a, b) ∈ M`).
    Match,
    /// The pair refers to different entities (`(a, b) ∈ N`).
    NonMatch,
}

/// The matching (`X+`) and non-matching (`X-`) similarity-vector samples of a
/// dataset (paper Section II-B). `X-` is typically a *sample* of the full
/// non-matching set, which is quadratic.
#[derive(Debug, Clone, Default)]
pub struct SimilarityVectors {
    /// Similarity vectors of matching pairs.
    pub pos: Vec<Vec<f64>>,
    /// Similarity vectors of (sampled) non-matching pairs.
    pub neg: Vec<Vec<f64>>,
}

impl SimilarityVectors {
    /// Matching prior `π = |X+| / (|X+| + |X-|)` over the *sampled* pairs.
    pub fn pi(&self) -> f64 {
        let total = self.pos.len() + self.neg.len();
        if total == 0 {
            0.0
        } else {
            self.pos.len() as f64 / total as f64
        }
    }
}

/// A labeled ER dataset: two schema-aligned relations plus the match set `M`.
///
/// Every pair of `A x B` not in `M` is implicitly non-matching; the quadratic
/// `N` is never materialized. Use [`ErDataset::similarity_vectors`] to obtain
/// `X+` and a sampled `X-`.
#[derive(Debug, Clone)]
pub struct ErDataset {
    a: Relation,
    b: Relation,
    matches: HashSet<(usize, usize)>,
    /// Lazily built per-record similarity profiles (see [`ProfileCache`]).
    profiles: OnceLock<Arc<ProfileCache>>,
}

impl ErDataset {
    /// Builds a dataset after checking schema alignment and match indices.
    pub fn new(a: Relation, b: Relation, matches: Vec<(usize, usize)>) -> Result<Self> {
        if a.schema().len() != b.schema().len() {
            return Err(ErError::SchemaMismatch);
        }
        for (ca, cb) in a.schema().columns().iter().zip(b.schema().columns()) {
            if ca.ctype != cb.ctype {
                return Err(ErError::SchemaMismatch);
            }
        }
        for &(i, j) in &matches {
            if i >= a.len() {
                return Err(ErError::IndexOutOfBounds { index: i, len: a.len() });
            }
            if j >= b.len() {
                return Err(ErError::IndexOutOfBounds { index: j, len: b.len() });
            }
        }
        Ok(ErDataset {
            a,
            b,
            matches: matches.into_iter().collect(),
            profiles: OnceLock::new(),
        })
    }

    /// The per-record profile cache, built on first use (parallel string
    /// work, serial deterministic interning) and kept for the dataset's
    /// life. Random-access scoring ([`ErDataset::similarity_vector`]) routes
    /// through it; [`ErDataset::similarity_vectors`] does not build it.
    pub fn profiles(&self) -> &ProfileCache {
        self.profiles.get_or_init(|| {
            Arc::new(ProfileCache::build(&self.a, &self.b, blocking::DEFAULT_BLOCK_Q))
        })
    }

    /// The A relation.
    pub fn a(&self) -> &Relation {
        &self.a
    }

    /// The B relation.
    pub fn b(&self) -> &Relation {
        &self.b
    }

    /// The match set `M` (pairs of indices into A and B).
    pub fn matches(&self) -> &HashSet<(usize, usize)> {
        &self.matches
    }

    /// Number of matching pairs.
    pub fn num_matches(&self) -> usize {
        self.matches.len()
    }

    /// Label of pair `(i, j)`.
    pub fn label(&self, i: usize, j: usize) -> PairLabel {
        if self.matches.contains(&(i, j)) {
            PairLabel::Match
        } else {
            PairLabel::NonMatch
        }
    }

    /// Similarity vector of entities `a[i]` and `b[j]` under A's schema
    /// (Section II-B; the schemas are aligned so either schema works).
    /// Computed through the cached per-record profiles — score-identical to
    /// [`pair_similarity`] on the raw entities.
    pub fn similarity_vector(&self, i: usize, j: usize) -> Vec<f64> {
        self.profiles()
            .pair_similarity(self.a.schema(), self.a.entity(i), i, self.b.entity(j), j)
    }

    /// Extracts `X+` (all matches) and `X-` (a sample of `neg_samples`
    /// non-matching pairs: half blocked "hard" negatives that share q-grams
    /// with a match candidate, half uniform random negatives).
    ///
    /// The blocked negatives matter: uniformly random pairs of large tables
    /// are trivially dissimilar, which would make the learned N-distribution
    /// degenerate near the origin and the matching task artificially easy.
    ///
    /// Pairs are scored in parallel, each through profiles of its two
    /// records that are dropped after scoring, so no profile of the dataset
    /// stays resident; scores are bit-identical to
    /// [`ErDataset::similarity_vector`]'s. The match set is sorted first
    /// (HashSet iteration order varies run to run) so the extracted vectors
    /// arrive in a reproducible order for the downstream GMM fits.
    pub fn similarity_vectors<R: Rng>(&self, neg_samples: usize, rng: &mut R) -> SimilarityVectors {
        let _span = obs::span("similarity_vectors");
        let mut pairs: Vec<(usize, usize)> = self.matches.iter().copied().collect();
        pairs.sort_unstable();
        let n_pos = pairs.len();
        pairs.extend(self.sample_nonmatch_pairs(neg_samples, rng));

        let timer = obs::enabled().then(std::time::Instant::now);
        let mut pos = simcache::score_pairs(&self.a, &self.b, &pairs);
        let neg = pos.split_off(n_pos);
        if let Some(t) = timer {
            obs::counter("pairs", pairs.len() as u64);
            let secs = t.elapsed().as_secs_f64();
            if secs > 0.0 {
                obs::gauge("pairs_per_sec", pairs.len() as f64 / secs);
                obs::gauge("sim.pairs_per_sec", pairs.len() as f64 / secs);
            }
        }
        SimilarityVectors { pos, neg }
    }

    /// Samples `n` non-matching pairs: blocked hard negatives first, then
    /// uniform random pairs to fill the quota. The returned order is a pure
    /// function of the dataset and `rng` (insertion order, deduplicated) —
    /// no hash-iteration order leaks into it. With obs on, publishes the
    /// blocking's pair completeness (planted matches among the candidates ÷
    /// |M|) as `blocking.pair_completeness`.
    pub fn sample_nonmatch_pairs<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = Vec::new();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();

        // Hard negatives via q-gram blocking on the first text column.
        let mut blocked = blocking::candidate_pairs(&self.a, &self.b, 3, 20);
        if obs::enabled() && !self.matches.is_empty() {
            let found = blocked.iter().filter(|p| self.matches.contains(p)).count();
            let completeness = found as f64 / self.matches.len() as f64;
            obs::gauge("blocking.pair_completeness", completeness);
        }
        blocked.shuffle(rng);
        for (i, j) in blocked {
            if out.len() >= n / 2 {
                break;
            }
            if !self.matches.contains(&(i, j)) && seen.insert((i, j)) {
                out.push((i, j));
            }
        }

        // Uniform random negatives.
        let (na, nb) = (self.a.len(), self.b.len());
        if na > 0 && nb > 0 {
            let mut attempts = 0;
            while out.len() < n && attempts < 50 * n + 100 {
                attempts += 1;
                let i = rng.gen_range(0..na);
                let j = rng.gen_range(0..nb);
                if !self.matches.contains(&(i, j)) && seen.insert((i, j)) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Matching prior over the full cross product: `|M| / (|A| * |B|)`.
    pub fn match_prior(&self) -> f64 {
        let total = self.a.len() as f64 * self.b.len() as f64;
        if total == 0.0 {
            0.0
        } else {
            self.matches.len() as f64 / total
        }
    }

    /// All labeled pairs `(i, j, label)` for small datasets (full cross
    /// product — use only when `|A| * |B|` is modest, e.g. in tests).
    pub fn all_pairs(&self) -> impl Iterator<Item = (usize, usize, PairLabel)> + '_ {
        (0..self.a.len()).flat_map(move |i| {
            (0..self.b.len()).map(move |j| (i, j, self.label(i, j)))
        })
    }
}

/// Similarity vector of two entities under a schema (helper shared with the
/// synthesis loop, which compares entities that are not yet in any dataset).
pub fn pair_similarity(
    schema: &crate::Schema,
    a: &Entity,
    b: &Entity,
) -> Vec<f64> {
    schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, col)| col.similarity(a.value(i), b.value(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, Schema, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::text("title"),
            Column::numeric("year", 10.0),
        ])
    }

    fn paper_like() -> ErDataset {
        let mut a = Relation::new("A", schema());
        let mut b = Relation::new("B", schema());
        a.push(vec![Value::Text("adaptable query optimization".into()), Value::Numeric(2001.0)]).unwrap();
        a.push(vec![Value::Text("generalised hash teams".into()), Value::Numeric(1999.0)]).unwrap();
        b.push(vec![Value::Text("adaptable query optimization".into()), Value::Numeric(2001.0)]).unwrap();
        b.push(vec![Value::Text("generalized hash teams".into()), Value::Numeric(1999.0)]).unwrap();
        b.push(vec![Value::Text("finding frequent elements".into()), Value::Numeric(2003.0)]).unwrap();
        ErDataset::new(a, b, vec![(0, 0), (1, 1)]).unwrap()
    }

    #[test]
    fn schema_mismatch_rejected() {
        let a = Relation::new("A", schema());
        let b = Relation::new(
            "B",
            Schema::new(vec![Column::text("title"), Column::text("year")]),
        );
        assert_eq!(
            ErDataset::new(a, b, vec![]).unwrap_err(),
            ErError::SchemaMismatch
        );
    }

    #[test]
    fn bad_match_index_rejected() {
        let mut a = Relation::new("A", schema());
        a.push(vec![Value::Text("x".into()), Value::Numeric(0.0)]).unwrap();
        let b = Relation::new("B", schema());
        assert!(matches!(
            ErDataset::new(a, b, vec![(0, 5)]),
            Err(ErError::IndexOutOfBounds { index: 5, .. })
        ));
    }

    #[test]
    fn labels_and_counts() {
        let e = paper_like();
        assert_eq!(e.num_matches(), 2);
        assert_eq!(e.label(0, 0), PairLabel::Match);
        assert_eq!(e.label(0, 1), PairLabel::NonMatch);
        assert_eq!(e.all_pairs().count(), 6);
        let m = e.all_pairs().filter(|&(_, _, l)| l == PairLabel::Match).count();
        assert_eq!(m, 2);
    }

    #[test]
    fn similarity_vector_shape_and_values() {
        let e = paper_like();
        let v = e.similarity_vector(0, 0);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], 1.0); // identical titles
        assert_eq!(v[1], 1.0); // same year
        let v = e.similarity_vector(0, 2);
        assert!(v[0] < 0.3);
    }

    #[test]
    fn similarity_vectors_split() {
        let e = paper_like();
        let mut rng = StdRng::seed_from_u64(7);
        let sv = e.similarity_vectors(4, &mut rng);
        assert_eq!(sv.pos.len(), 2);
        assert!(!sv.neg.is_empty() && sv.neg.len() <= 4);
        assert!(sv.pi() > 0.0 && sv.pi() < 1.0);
        // Matching vectors should dominate non-matching ones on title sim.
        let avg_pos: f64 = sv.pos.iter().map(|v| v[0]).sum::<f64>() / sv.pos.len() as f64;
        let avg_neg: f64 = sv.neg.iter().map(|v| v[0]).sum::<f64>() / sv.neg.len() as f64;
        assert!(avg_pos > avg_neg);
    }

    #[test]
    fn match_prior() {
        let e = paper_like();
        assert!((e.match_prior() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn extraction_is_reproducible_and_thread_count_independent() {
        use std::sync::Arc;
        let e = paper_like();
        let run = |threads: usize| {
            parallel::with_pool(Arc::new(parallel::ThreadPool::new(threads)), || {
                let mut rng = StdRng::seed_from_u64(42);
                e.similarity_vectors(4, &mut rng)
            })
        };
        let base = run(1);
        for threads in [2, 8] {
            let other = run(threads);
            assert_eq!(base.pos, other.pos, "pos differs at {threads} threads");
            assert_eq!(base.neg, other.neg, "neg differs at {threads} threads");
        }
        // Same seed, same process: identical output (no hash-order leakage).
        let again = run(1);
        assert_eq!(base.pos, again.pos);
        assert_eq!(base.neg, again.neg);
    }

    #[test]
    fn sampled_nonmatches_exclude_matches() {
        let e = paper_like();
        let mut rng = StdRng::seed_from_u64(1);
        for (i, j) in e.sample_nonmatch_pairs(4, &mut rng) {
            assert_eq!(e.label(i, j), PairLabel::NonMatch);
        }
    }
}
