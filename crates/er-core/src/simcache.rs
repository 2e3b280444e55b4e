//! Per-record similarity-profile caches: build each record's
//! [`StringProfile`]s once, compare pairs forever.
//!
//! Similarity-vector extraction, blocking, and the synthesis rejection loop
//! all compare the same records against many partners. The scalar kernels
//! re-derive per-string structure (char buffers, q-gram maps, token sets) on
//! *every* comparison; the caches here hoist that work to one profile build
//! per record and column, after which each pair comparison is a pure merge
//! over preprocessed arrays (see `similarity::profile`). Scores are identical
//! to the scalar path — the profile kernels replicate the scalar kernels'
//! exact floating-point operation order.
//!
//! Two cache shapes cover the two access patterns:
//!
//! * [`ProfileCache`] — a bulk cache over both relations of a dataset, built
//!   in parallel (`parallel::par_map`). Columns whose kernel reads tokens
//!   first get a serial interning pass, so token ids are deterministic at any
//!   thread count; on schemas without such columns the build is one
//!   `par_map` per relation. [`crate::ErDataset`] builds one lazily and
//!   routes similarity vectors and blocking through it.
//! * [`IncrementalProfiler`] — a grow-as-you-go profiler for the synthesis
//!   loop, where records are created one candidate at a time and each
//!   accepted record is compared against every later candidate.

use crate::{blocking, Entity, Relation, Schema};
use similarity::{ProfileSpec, RawProfile, SimContext, StringProfile, TokenInterner};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, Mutex};

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

/// Interns the tokens of every column whose kernel reads them, serially —
/// relation A then relation B, record order, column order — so token ids are
/// first-seen and independent of thread count and residency budget. The
/// string work of each fixed-size chunk fans out over the pool and is
/// dropped after interning, so peak memory is one chunk. Schemas with no
/// token-reading column intern nothing.
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
    const CHUNK: usize = 4096;
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
/// loop behind both caches, score-identical to [`crate::pair_similarity`] on
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

/// Parses `SERD_PROFILE_BUDGET` — the maximum number of [`RecordProfile`]s
/// the cache keeps resident. Unset, unparsable, or `0` all mean unlimited.
fn env_profile_budget() -> Option<usize> {
    let raw = std::env::var("SERD_PROFILE_BUDGET").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(_) => {
            obs::diag(&format!(
                "SERD_PROFILE_BUDGET={raw:?} is not a number; profile cache unbounded"
            ));
            None
        }
    }
}

/// Cache key: `(side, record id)` with side 0 = A, 1 = B.
type SlotKey = (u8, usize);

/// The bounded store's LRU state. Recency stamps come from a logical clock;
/// the heap holds `(stamp, key)` entries, lazily invalidated on touch, so
/// eviction is O(log n) amortized instead of a full scan per miss. Victims
/// are the minimum `(stamp, key)` — least recently used, ties broken by
/// record id — and eviction only ever costs a rebuild, never a score change.
#[derive(Debug, Default)]
struct Lru {
    clock: u64,
    map: HashMap<SlotKey, (u64, Arc<RecordProfile>)>,
    heap: BinaryHeap<Reverse<(u64, SlotKey)>>,
}

impl Lru {
    fn touch(&mut self, key: SlotKey) -> Option<Arc<RecordProfile>> {
        let (stamp, prof) = self.map.get_mut(&key)?;
        self.clock += 1;
        *stamp = self.clock;
        let stamped = (self.clock, key);
        let prof = prof.clone();
        self.heap.push(Reverse(stamped));
        Some(prof)
    }

    fn insert(&mut self, key: SlotKey, prof: Arc<RecordProfile>, budget: usize) {
        self.clock += 1;
        self.map.insert(key, (self.clock, prof));
        self.heap.push(Reverse((self.clock, key)));
        while self.map.len() > budget.max(1) {
            let Some(Reverse((stamp, victim))) = self.heap.pop() else {
                break;
            };
            // Stale heap entries (the key was touched since) are skipped.
            if self.map.get(&victim).is_some_and(|(s, _)| *s == stamp) {
                self.map.remove(&victim);
            }
        }
    }
}

/// Where the profiles live: every record resident (the default — exactly the
/// layout that existed before budgets), or an LRU of at most `budget`
/// records, rebuilt on miss through the read-only interner.
#[derive(Debug)]
enum Store {
    Resident {
        a: Vec<RecordProfile>,
        b: Vec<RecordProfile>,
    },
    Bounded {
        budget: usize,
        n_a: usize,
        n_b: usize,
        lru: Mutex<Lru>,
    },
}

/// A bulk profile cache over the two relations of a dataset. All profiles
/// share one interner, so any A-record may be compared with any B-record.
///
/// Under `SERD_PROFILE_BUDGET` (or [`ProfileCache::build_with_budget`]) the
/// cache holds at most that many profiles resident, evicting LRU-first;
/// misses rebuild through the same read-only interning as the resident
/// build, against the interner completed at build time, so scores stay
/// bit-identical to the unbounded cache (DESIGN.md §13).
#[derive(Debug)]
pub struct ProfileCache {
    ctx: SimContext,
    specs: Vec<Option<ProfileSpec>>,
    store: Store,
}

impl ProfileCache {
    /// Profiles every record of both relations. Columns whose kernel reads
    /// tokens are interned first, serially ([`intern_tokens`]), so token ids
    /// are a pure function of the data — independent of thread count; then
    /// every record's profiles are built over the worker pool, one
    /// `par_map` per relation. Honors `SERD_PROFILE_BUDGET` (default:
    /// unlimited).
    pub fn build(a: &Relation, b: &Relation, block_q: usize) -> ProfileCache {
        ProfileCache::build_with_budget(a, b, block_q, env_profile_budget())
    }

    /// [`ProfileCache::build`] with an explicit residency budget. The
    /// interning pass always covers the full corpus in the same serial
    /// order, so token ids — and therefore every score — are identical at
    /// any budget; the budget only bounds how many finished profiles stay
    /// resident at once.
    pub fn build_with_budget(
        a: &Relation,
        b: &Relation,
        block_q: usize,
        budget: Option<usize>,
    ) -> ProfileCache {
        let _span = obs::span("sim.profile_build");
        let specs = profile_specs(a.schema(), Some(block_q));
        let mut ctx = SimContext::new();
        intern_tokens(a, b, &specs, ctx.interner_mut());
        let store = match budget.filter(|&bud| bud < a.len() + b.len()) {
            Some(budget) => Store::Bounded {
                budget,
                n_a: a.len(),
                n_b: b.len(),
                lru: Mutex::new(Lru::default()),
            },
            None => {
                let interner = ctx.interner();
                let all = |r: &Relation| {
                    let ids: Vec<usize> = (0..r.len()).collect();
                    parallel::par_map(&ids, |&i| profile_record(r.entity(i), &specs, interner))
                };
                Store::Resident { a: all(a), b: all(b) }
            }
        };
        ProfileCache { ctx, specs, store }
    }

    /// The shared token interner.
    pub fn interner(&self) -> &TokenInterner {
        self.ctx.interner()
    }

    /// The A and B profiles, each indexed like its relation, when every
    /// record is resident; `None` under a residency budget, where profiles
    /// exist only on demand inside [`ProfileCache::pair_similarity`].
    pub fn resident_profiles(&self) -> Option<(&[RecordProfile], &[RecordProfile])> {
        match &self.store {
            Store::Resident { a, b } => Some((a, b)),
            Store::Bounded { .. } => None,
        }
    }

    /// Number of profiles currently resident.
    pub fn resident(&self) -> usize {
        match &self.store {
            Store::Resident { a, b } => a.len() + b.len(),
            Store::Bounded { lru, .. } => lru.lock().expect("profile LRU poisoned").map.len(),
        }
    }

    /// The residency budget, if one is in effect.
    pub fn budget(&self) -> Option<usize> {
        match &self.store {
            Store::Resident { .. } => None,
            Store::Bounded { budget, .. } => Some(*budget),
        }
    }

    /// The profile at `key` in a bounded store's LRU, getting or rebuilding
    /// it. `entity` must be that record.
    fn fetch(
        &self,
        lru: &Mutex<Lru>,
        budget: usize,
        key: SlotKey,
        entity: &Entity,
    ) -> Arc<RecordProfile> {
        if let Some(hit) = lru.lock().expect("profile LRU poisoned").touch(key) {
            return hit;
        }
        // Miss: rebuild outside the lock. Two threads racing on the same
        // record both produce identical profiles; last insert wins.
        let prof = Arc::new(profile_record(entity, &self.specs, self.ctx.interner()));
        let mut lru = lru.lock().expect("profile LRU poisoned");
        lru.insert(key, prof.clone(), budget);
        if obs::enabled() {
            obs::gauge("simcache.resident", lru.map.len() as f64);
        }
        prof
    }

    /// Similarity vector of `a[i]` vs `b[j]` through the cached profiles —
    /// score-identical to [`crate::pair_similarity`] on the raw entities,
    /// with or without a residency budget.
    pub fn pair_similarity(
        &self,
        schema: &Schema,
        ea: &Entity,
        i: usize,
        eb: &Entity,
        j: usize,
    ) -> Vec<f64> {
        let interner = self.ctx.interner();
        match &self.store {
            Store::Resident { a, b } => score_profiled(schema, ea, &a[i], eb, &b[j], interner),
            Store::Bounded { budget, n_a, n_b, lru } => {
                assert!(i < *n_a && j < *n_b, "pair ({i}, {j}) out of range");
                let pa = self.fetch(lru, *budget, (0, i), ea);
                let pb = self.fetch(lru, *budget, (1, j), eb);
                score_profiled(schema, ea, &pa, eb, &pb, interner)
            }
        }
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
        for budget in [None, Some(1)] {
            let cache = ProfileCache::build_with_budget(&a, &b, 3, budget);
            assert!(cache.interner().is_empty(), "budget {budget:?}");
            let fast = cache.pair_similarity(a.schema(), a.entity(0), 0, b.entity(0), 0);
            assert_eq!(fast, pair_similarity(a.schema(), a.entity(0), b.entity(0)));
        }
    }

    #[test]
    fn bounded_cache_scores_match_resident_bit_for_bit() {
        let a = rel("A", &[
            ("adaptable query optimization", "kossmann, stocker", 2000.0),
            ("generalised hash teams", "kemper", 1999.0),
            ("finding frequent items", "cormode, muthukrishnan", 2005.0),
        ]);
        let b = rel("B", &[
            ("adaptable query optimization", "d. kossmann, k. stocker", 2000.0),
            ("finding frequent elements", "cormode", 2003.0),
        ]);
        let resident = ProfileCache::build_with_budget(&a, &b, 3, None);
        // A budget of 2 forces evictions on every pair (each pair needs 2
        // slots and the scan below cycles through 5 records).
        let bounded = ProfileCache::build_with_budget(&a, &b, 3, Some(2));
        assert!(resident.resident_profiles().is_some());
        assert!(bounded.resident_profiles().is_none());
        assert_eq!(bounded.budget(), Some(2));
        // The interner is identical: ids were assigned by the same serial
        // pass regardless of budget.
        assert_eq!(resident.interner().len(), bounded.interner().len());
        for id in 0..resident.interner().len() as u32 {
            assert_eq!(resident.interner().text(id), bounded.interner().text(id));
        }
        for i in 0..a.len() {
            for j in 0..b.len() {
                let full = resident.pair_similarity(a.schema(), a.entity(i), i, b.entity(j), j);
                let tight = bounded.pair_similarity(a.schema(), a.entity(i), i, b.entity(j), j);
                let full_bits: Vec<u64> = full.iter().map(|v| v.to_bits()).collect();
                let tight_bits: Vec<u64> = tight.iter().map(|v| v.to_bits()).collect();
                assert_eq!(full_bits, tight_bits, "pair ({i}, {j})");
                assert!(bounded.resident() <= 2, "budget exceeded at pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn bounded_eviction_is_lru_by_recency() {
        let a = rel("A", &[
            ("alpha one", "x", 1.0),
            ("beta two", "y", 2.0),
            ("gamma three", "z", 3.0),
        ]);
        let b = rel("B", &[("alpha won", "x", 1.0)]);
        let cache = ProfileCache::build_with_budget(&a, &b, 3, Some(2));
        // Touch A0+B0, then A1+B0 (A0 evicted), then A2+B0 (A1 evicted):
        // residency never exceeds the budget and every score still works.
        for i in 0..a.len() {
            cache.pair_similarity(a.schema(), a.entity(i), i, b.entity(0), 0);
            assert!(cache.resident() <= 2);
        }
    }

    #[test]
    fn budget_at_or_above_corpus_size_stays_resident() {
        let a = rel("A", &[("alpha", "x", 1.0)]);
        let b = rel("B", &[("beta", "y", 2.0)]);
        assert!(ProfileCache::build_with_budget(&a, &b, 3, Some(2)).resident_profiles().is_some());
        assert!(ProfileCache::build_with_budget(&a, &b, 3, Some(1)).resident_profiles().is_none());
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
