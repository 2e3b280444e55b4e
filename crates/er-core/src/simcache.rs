//! Per-record similarity profiles: build each record's [`StringProfile`]s
//! once, compare pairs through them.
//!
//! Similarity-vector extraction, blocking, and the synthesis rejection loop
//! all compare the same records against many partners. The scalar kernels
//! re-derive per-string structure (char buffers, q-gram maps, token sets) on
//! *every* comparison; the shapes here hoist that work to one profile build
//! per record and column, after which each pair comparison is a pure merge
//! over preprocessed arrays (see `similarity::profile`). Scores are identical
//! to the scalar path — the profile kernels replicate the scalar kernels'
//! exact floating-point operation order.
//!
//! Three shapes cover the three access patterns:
//!
//! * `score_pairs` — a known list of pairs, scored once each (fit's X+ and
//!   X−, through [`crate::ErDataset::similarity_vectors`]). Each pair
//!   profiles its two records and drops them after scoring, so no profile
//!   outlives its pair.
//! * [`ProfileCache`] — random access over both relations of a dataset,
//!   every record resident, built in parallel (`parallel::par_map`).
//!   [`crate::ErDataset`] builds one lazily for
//!   [`crate::ErDataset::similarity_vector`].
//! * [`IncrementalProfiler`] — a grow-as-you-go profiler for the synthesis
//!   loop, where records are created one candidate at a time and each
//!   accepted record is compared against every later candidate.
//!
//! The first two share one token pass: columns whose kernel reads tokens are
//! interned serially first, so token ids are deterministic at any thread
//! count; on schemas without such columns there is nothing to intern.

use crate::{blocking, Entity, Relation, Schema};
use similarity::{ProfileSpec, RawProfile, SimContext, StringProfile, TokenInterner};

/// One profiled record: at each column position, the column's
/// [`StringProfile`] — or `None` for numeric/date columns and null values.
#[derive(Debug, Clone, Default)]
pub struct RecordProfile {
    cols: Vec<Option<StringProfile>>,
}

impl RecordProfile {
    /// The profile of column `i`, if one was built.
    pub fn col(&self, i: usize) -> Option<&StringProfile> {
        self.cols.get(i).and_then(|c| c.as_ref())
    }
}

/// Per-column profile specs derived from the schema's configured similarity
/// kinds ([`similarity::SimilarityKind::profile_spec`]). When `block_q` is
/// given, the blocking column's spec additionally precomputes the sorted
/// gram keys q-gram blocking indexes on (the only field of the blocking
/// column's spec if its own similarity needs none, e.g. numeric fallback).
pub fn profile_specs(schema: &Schema, block_q: Option<usize>) -> Vec<Option<ProfileSpec>> {
    let mut specs: Vec<Option<ProfileSpec>> =
        schema.columns().iter().map(|c| c.sim.profile_spec()).collect();
    if let Some(bq) = block_q {
        let col = blocking::blocking_column_of(schema);
        if let Some(slot) = specs.get_mut(col) {
            slot.get_or_insert_with(ProfileSpec::default).block_q = Some(bq);
        }
    }
    specs
}

/// One record's per-column profiles: `build` runs on every column that has a
/// spec and a string value; every other column gets `None`.
fn profile_cols<T>(
    e: &Entity,
    specs: &[Option<ProfileSpec>],
    mut build: impl FnMut(&str, &ProfileSpec) -> Option<T>,
) -> Vec<Option<T>> {
    specs
        .iter()
        .enumerate()
        .map(|(c, spec)| match (spec, e.value(c).as_str()) {
            (Some(spec), Some(s)) => build(s, spec),
            _ => None,
        })
        .collect()
}

/// One record's profiles, with token ids looked up in `interner`, which
/// must already hold every token of the record's token-reading columns
/// ([`intern_tokens`]). Reads no shared mutable state, so records can be
/// profiled on any thread and in any order.
fn profile_record(
    e: &Entity,
    specs: &[Option<ProfileSpec>],
    interner: &TokenInterner,
) -> RecordProfile {
    RecordProfile {
        cols: profile_cols(e, specs, |s, spec| {
            RawProfile::build(s, spec).intern_readonly(interner)
        }),
    }
}

/// Records tokenized per interning chunk.
const CHUNK: usize = 4096;

/// Interns the tokens of every column whose kernel reads them, serially —
/// relation A then relation B, record order, column order — so token ids are
/// first-seen and independent of thread count and of which records are
/// profiled afterwards. The string work of each [`CHUNK`] of records fans out
/// over the pool and is dropped after interning, so peak memory is one chunk.
/// Schemas with no token-reading column intern nothing.
fn intern_tokens(
    a: &Relation,
    b: &Relation,
    specs: &[Option<ProfileSpec>],
    interner: &mut TokenInterner,
) {
    let token_only = ProfileSpec { tokens: true, ..ProfileSpec::default() };
    let token_specs: Vec<Option<ProfileSpec>> =
        specs.iter().map(|s| s.filter(|s| s.tokens).map(|_| token_only)).collect();
    if token_specs.iter().all(Option::is_none) {
        return;
    }
    for r in [a, b] {
        let ids: Vec<usize> = (0..r.len()).collect();
        for chunk in ids.chunks(CHUNK) {
            let rows = parallel::par_map(chunk, |&i| {
                profile_cols(r.entity(i), &token_specs, |s, spec| Some(RawProfile::build(s, spec)))
            });
            for raw in rows.into_iter().flatten().flatten() {
                let _ = raw.intern(interner);
            }
        }
    }
}

/// Similarity vector of two profiled records under `schema` — the scoring
/// loop behind every shape, score-identical to [`crate::pair_similarity`] on
/// the raw entities.
fn score_profiled(
    schema: &Schema,
    ea: &Entity,
    pa: &RecordProfile,
    eb: &Entity,
    pb: &RecordProfile,
    interner: &TokenInterner,
) -> Vec<f64> {
    schema
        .columns()
        .iter()
        .enumerate()
        .map(|(c, col)| {
            col.similarity_profiled(ea.value(c), eb.value(c), pa.col(c), pb.col(c), interner)
        })
        .collect()
}

/// Similarity vectors of `pairs` (indices into `a` and `b`), in order,
/// without keeping profiles: each pair profiles its two records with
/// [`profile_record`], scores them, and drops the profiles. This is the shape
/// for pairs known up front and scored once each — fit's matches, which are
/// 1:1, and a few hundred sampled non-matches — so its memory is the
/// interner, not a profile per record. Scores are bit-identical to
/// [`ProfileCache::pair_similarity`]: token ids come from the same
/// [`intern_tokens`] pass, and the specs lack only the blocking grams, which
/// no score reads.
pub(crate) fn score_pairs(a: &Relation, b: &Relation, pairs: &[(usize, usize)]) -> Vec<Vec<f64>> {
    let specs = profile_specs(a.schema(), None);
    let mut interner = TokenInterner::new();
    intern_tokens(a, b, &specs, &mut interner);
    parallel::par_map(pairs, |&(i, j)| {
        let (ea, eb) = (a.entity(i), b.entity(j));
        let pa = profile_record(ea, &specs, &interner);
        let pb = profile_record(eb, &specs, &interner);
        score_profiled(a.schema(), ea, &pa, eb, &pb, &interner)
    })
}

/// A bulk profile cache over the two relations of a dataset, every record
/// resident, for random access: pairs that are not known up front or that
/// revisit records. All profiles share one interner, so any A-record may be
/// compared with any B-record.
#[derive(Debug)]
pub struct ProfileCache {
    ctx: SimContext,
    a: Vec<RecordProfile>,
    b: Vec<RecordProfile>,
}

impl ProfileCache {
    /// Profiles every record of both relations. Columns whose kernel reads
    /// tokens are interned first, serially ([`intern_tokens`]), so token ids
    /// are a pure function of the data — independent of thread count; then
    /// every record's profiles are built over the worker pool, one
    /// `par_map` per relation.
    pub fn build(a: &Relation, b: &Relation, block_q: usize) -> ProfileCache {
        let _span = obs::span("sim.profile_build");
        let specs = profile_specs(a.schema(), Some(block_q));
        let mut ctx = SimContext::new();
        intern_tokens(a, b, &specs, ctx.interner_mut());
        let interner = ctx.interner();
        let all = |r: &Relation| {
            let ids: Vec<usize> = (0..r.len()).collect();
            parallel::par_map(&ids, |&i| profile_record(r.entity(i), &specs, interner))
        };
        let (a, b) = (all(a), all(b));
        ProfileCache { ctx, a, b }
    }

    /// The shared token interner.
    pub fn interner(&self) -> &TokenInterner {
        self.ctx.interner()
    }

    /// The A and B profiles, each indexed like its relation.
    pub fn profiles(&self) -> (&[RecordProfile], &[RecordProfile]) {
        (&self.a, &self.b)
    }

    /// Similarity vector of `a[i]` vs `b[j]` through the cached profiles —
    /// score-identical to [`crate::pair_similarity`] on the raw entities.
    pub fn pair_similarity(
        &self,
        schema: &Schema,
        ea: &Entity,
        i: usize,
        eb: &Entity,
        j: usize,
    ) -> Vec<f64> {
        score_profiled(schema, ea, &self.a[i], eb, &self.b[j], self.ctx.interner())
    }
}

/// A grow-as-you-go profiler for the synthesis loop: records arrive one
/// candidate at a time and each accepted record is compared against every
/// later candidate, so each is profiled exactly once on creation.
#[derive(Debug, Clone)]
pub struct IncrementalProfiler {
    ctx: SimContext,
    specs: Vec<Option<ProfileSpec>>,
}

impl IncrementalProfiler {
    /// A profiler for records under `schema`, with blocking keys
    /// precomputed at gram length `block_q`.
    pub fn new(schema: &Schema, block_q: usize) -> IncrementalProfiler {
        IncrementalProfiler {
            ctx: SimContext::new(),
            specs: profile_specs(schema, Some(block_q)),
        }
    }

    /// The shared token interner.
    pub fn interner(&self) -> &TokenInterner {
        self.ctx.interner()
    }

    /// Profiles one record (all its text columns) through the shared
    /// interner.
    pub fn profile_entity(&mut self, e: &Entity) -> RecordProfile {
        let ctx = &mut self.ctx;
        RecordProfile { cols: profile_cols(e, &self.specs, |s, spec| Some(ctx.profile(s, spec))) }
    }

    /// Similarity vector of two profiled records — score-identical to
    /// [`crate::pair_similarity`] on the raw entities.
    pub fn pair_similarity(
        &self,
        schema: &Schema,
        ea: &Entity,
        pa: &RecordProfile,
        eb: &Entity,
        pb: &RecordProfile,
    ) -> Vec<f64> {
        score_profiled(schema, ea, pa, eb, pb, self.ctx.interner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pair_similarity, Column, Value};
    use similarity::SimilarityKind;

    /// One column per similarity kind, so every lean profile spec is
    /// exercised; `authors` and `title_tf` read tokens.
    fn schema() -> Schema {
        Schema::new(vec![
            Column::text("title"),
            Column::text("authors").with_sim(SimilarityKind::TokenJaccard),
            Column::numeric("year", 10.0),
            Column::text("title_edit").with_sim(SimilarityKind::EditSimilarity),
            Column::text("authors_jw").with_sim(SimilarityKind::JaroWinkler),
            Column::text("title_tf").with_sim(SimilarityKind::CosineTf),
        ])
    }

    /// Rows of `(title, authors, year)`; the last three columns score the
    /// title and authors again under the other kinds.
    fn rel(name: &str, rows: &[(&str, &str, f64)]) -> Relation {
        let mut r = Relation::new(name, schema());
        for &(t, a, y) in rows {
            r.push(vec![
                Value::Text(t.into()),
                Value::Text(a.into()),
                Value::Numeric(y),
                Value::Text(t.into()),
                Value::Text(a.into()),
                Value::Text(t.into()),
            ])
            .unwrap();
        }
        r
    }

    #[test]
    fn cache_matches_scalar_pair_similarity() {
        let a = rel("A", &[
            ("adaptable query optimization", "kossmann, stocker", 2000.0),
            ("generalised hash teams", "kemper", 1999.0),
        ]);
        let b = rel("B", &[
            ("adaptable query optimization", "d. kossmann, k. stocker", 2000.0),
            ("finding frequent elements", "cormode", 2003.0),
        ]);
        let cache = ProfileCache::build(&a, &b, 3);
        for i in 0..a.len() {
            for j in 0..b.len() {
                let fast = cache.pair_similarity(a.schema(), a.entity(i), i, b.entity(j), j);
                let slow = pair_similarity(a.schema(), a.entity(i), b.entity(j));
                let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
                let slow_bits: Vec<u64> = slow.iter().map(|v| v.to_bits()).collect();
                assert_eq!(fast_bits, slow_bits, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn cache_handles_nulls() {
        let (x, t) = (|| Value::Text("x".into()), || Value::Text("t".into()));
        let mut a = Relation::new("A", schema());
        a.push(vec![Value::Null, x(), Value::Null, Value::Null, x(), Value::Null]).unwrap();
        let mut b = Relation::new("B", schema());
        b.push(vec![t(), Value::Null, Value::Numeric(1.0), t(), Value::Null, t()]).unwrap();
        let cache = ProfileCache::build(&a, &b, 3);
        let fast = cache.pair_similarity(a.schema(), a.entity(0), 0, b.entity(0), 0);
        let slow = pair_similarity(a.schema(), a.entity(0), b.entity(0));
        assert_eq!(fast, slow);
        assert_eq!(fast, vec![0.0; 6]);
    }

    #[test]
    fn incremental_profiler_matches_scalar() {
        let a = rel("A", &[("adaptive query processing", "deshpande, ives", 2007.0)]);
        let b = rel("B", &[("adaptive query evaluation", "ives", 2006.0)]);
        let mut prof = IncrementalProfiler::new(a.schema(), 3);
        let pa = prof.profile_entity(a.entity(0));
        let pb = prof.profile_entity(b.entity(0));
        let fast = prof.pair_similarity(a.schema(), a.entity(0), &pa, b.entity(0), &pb);
        let slow = pair_similarity(a.schema(), a.entity(0), b.entity(0));
        let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
        let slow_bits: Vec<u64> = slow.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fast_bits, slow_bits);
    }

    #[test]
    fn blocking_column_gets_block_grams() {
        let specs = profile_specs(&schema(), Some(3));
        assert_eq!(specs[0].unwrap().block_q, Some(3));
        assert_eq!(specs[1].unwrap().block_q, None);
        assert!(specs[2].is_none());
        // A numeric blocking column gets a spec that builds only the keys.
        let numeric_first = Schema::new(vec![Column::numeric("year", 10.0)]);
        let only_keys = ProfileSpec { block_q: Some(3), ..ProfileSpec::default() };
        assert_eq!(profile_specs(&numeric_first, Some(3)), vec![Some(only_keys)]);
    }

    #[test]
    fn schemas_without_token_columns_intern_nothing() {
        let qgram_only = Schema::new(vec![Column::text("title"), Column::categorical("venue")]);
        let rel = |name: &str, title: &str| {
            let mut r = Relation::new(name, qgram_only.clone());
            r.push(vec![Value::Text(title.into()), Value::Categorical("VLDB".into())]).unwrap();
            r
        };
        let (a, b) = (rel("A", "adaptive query processing"), rel("B", "adaptive query evaluation"));
        let cache = ProfileCache::build(&a, &b, 3);
        assert!(cache.interner().is_empty());
        let fast = cache.pair_similarity(a.schema(), a.entity(0), 0, b.entity(0), 0);
        assert_eq!(fast, pair_similarity(a.schema(), a.entity(0), b.entity(0)));
        assert_eq!(score_pairs(&a, &b, &[(0, 0)]), vec![fast]);
    }

    /// `n` records over [`schema`] from a small vocabulary, so records share
    /// tokens and grams; every fifth record has a null, in a column that
    /// cycles through the schema.
    fn varied(name: &str, n: usize, salt: usize) -> Relation {
        const WORDS: [&str; 8] =
            ["adaptive", "query", "processing", "hash", "teams", "frequent", "items", "streams"];
        let mut r = Relation::new(name, schema());
        for k in 0..n {
            let w = |o: usize| WORDS[(k * 3 + o + salt) % WORDS.len()];
            let title = format!("{} {} {}", w(0), w(1), w(k % 5));
            let authors = format!("{}, {}", w(2), w(4));
            let mut row = vec![
                Value::Text(title.clone()),
                Value::Text(authors.clone()),
                Value::Numeric(1990.0 + (k % 13) as f64),
                Value::Text(title.clone()),
                Value::Text(authors),
                Value::Text(title),
            ];
            if k % 5 == 0 {
                let c = k / 5 % row.len();
                row[c] = Value::Null;
            }
            r.push(row).unwrap();
        }
        r
    }

    #[test]
    fn pairwise_extraction_matches_the_resident_cache_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const SEED: u64 = 5;
        const NEG: usize = 300;
        let n = 90;
        // Two of every three pairs match, so every record is in ~60 matches
        // and the pool's workers profile the same records concurrently.
        let matches: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| (i + 2 * j) % 3 != 0)
            .collect();
        let er = crate::ErDataset::new(varied("A", n, 0), varied("B", n, 3), matches).unwrap();
        let (a, b) = (er.a(), er.b());

        // Reference: the same pairs through a resident cache — the sorted
        // matches, then the negatives one sampling call draws at the seed.
        let bits = |vs: &[Vec<f64>]| -> Vec<Vec<u64>> {
            vs.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let cache = ProfileCache::build(a, b, blocking::DEFAULT_BLOCK_Q);
        let resident = |pairs: &[(usize, usize)]| -> Vec<Vec<f64>> {
            pairs
                .iter()
                .map(|&(i, j)| cache.pair_similarity(a.schema(), a.entity(i), i, b.entity(j), j))
                .collect()
        };
        let mut pos_pairs: Vec<(usize, usize)> = er.matches().iter().copied().collect();
        pos_pairs.sort_unstable();
        let mut rng = StdRng::seed_from_u64(SEED);
        let neg_pairs = er.sample_nonmatch_pairs(NEG, &mut rng);
        assert_eq!(neg_pairs.len(), NEG);
        let want_pos = bits(&resident(&pos_pairs));
        let want_neg = bits(&resident(&neg_pairs));
        let want_next = rng.gen::<u64>();

        for threads in [1, 2, 8] {
            let (sv, next) =
                parallel::with_pool(std::sync::Arc::new(parallel::ThreadPool::new(threads)), || {
                    let mut rng = StdRng::seed_from_u64(SEED);
                    let sv = er.similarity_vectors(NEG, &mut rng);
                    (sv, rng.gen::<u64>())
                });
            assert!(bits(&sv.pos) == want_pos, "X+ differs at {threads} threads");
            assert!(bits(&sv.neg) == want_neg, "X- differs at {threads} threads");
            assert_eq!(next, want_next, "RNG stream differs at {threads} threads");
        }
    }

    #[test]
    fn ids_are_thread_count_independent() {
        use std::sync::Arc;
        let a = rel("A", &[
            ("zeta alpha", "m n", 1.0),
            ("beta gamma delta", "o p q", 2.0),
            ("epsilon", "r", 3.0),
        ]);
        let b = rel("B", &[("gamma beta", "s", 4.0)]);
        let build = |threads: usize| {
            parallel::with_pool(Arc::new(parallel::ThreadPool::new(threads)), || {
                ProfileCache::build(&a, &b, 3)
            })
        };
        let base = build(1);
        // First-seen order: A then B, record order, then column order
        // (`authors` before `title_tf`); `title` and the other string
        // columns read no tokens and intern nothing.
        let texts: Vec<&str> =
            (0..base.interner().len() as u32).map(|id| base.interner().text(id)).collect();
        assert_eq!(texts, [
            "m", "n", "zeta", "alpha", "o", "p", "q", "beta", "gamma", "delta", "r", "epsilon",
            "s",
        ]);
        for threads in [2, 8] {
            let other = build(threads);
            assert_eq!(base.interner().len(), other.interner().len());
            for id in 0..base.interner().len() as u32 {
                assert_eq!(base.interner().text(id), other.interner().text(id), "id {id}");
            }
        }
    }
}
