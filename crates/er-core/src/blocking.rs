//! q-gram blocking: candidate pair generation without the full cross product.
//!
//! Walmart-Amazon-scale tables (2.5k x 22k) make exhaustive pair enumeration
//! expensive. Blocking indexes entities by the q-grams of their first text
//! column and only pairs entities that share at least one gram, capping the
//! bucket fan-out so stop-gram buckets ("the", "and") don't explode.
//!
//! Every entry point runs the same sharded join under one `blocking` span;
//! they differ only in where each record's grams come from — the relations'
//! strings or already-profiled records (DESIGN.md §13.2).

use crate::simcache::{ProfileCache, RecordProfile};
use crate::{ColumnType, Relation, Schema};
use similarity::block_gram_hashes;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Gram length the pipeline blocks at (and profile caches precompute
/// blocking keys for).
pub const DEFAULT_BLOCK_Q: usize = 3;

/// Returns candidate `(i, j)` pairs of entities that share at least one
/// character q-gram on the blocking column (the first `Text` column; falls
/// back to the first column if no text column exists).
///
/// `max_bucket` caps the number of entities per gram bucket on each side;
/// larger buckets are truncated (standard blocking practice — ubiquitous
/// grams carry no signal). The index is sharded by `gram_hash % S`, one
/// shard per worker-pool thread; the candidate set is bit-identical at any
/// shard or thread count.
pub fn candidate_pairs(
    a: &Relation,
    b: &Relation,
    q: usize,
    max_bucket: usize,
) -> Vec<(usize, usize)> {
    candidate_pairs_sharded(a, b, q, max_bucket, parallel::num_threads())
}

/// [`candidate_pairs`] with an explicit shard count (`shards = 1` is the
/// monolithic single-index reference the equivalence tests pin against).
pub fn candidate_pairs_sharded(
    a: &Relation,
    b: &Relation,
    q: usize,
    max_bucket: usize,
    shards: usize,
) -> Vec<(usize, usize)> {
    block(a, b, GramSource::Relations, q, max_bucket, shards)
}

/// [`candidate_pairs`] over a dataset's [`ProfileCache`]: a fully resident
/// cache blocks on its profiles ([`candidate_pairs_profiled`]); a budgeted
/// one cannot lend out profile slices, so it blocks on the relations (same
/// candidate set, recomputed grams).
pub fn candidate_pairs_cached(
    a: &Relation,
    b: &Relation,
    cache: &ProfileCache,
    q: usize,
    max_bucket: usize,
) -> Vec<(usize, usize)> {
    match cache.resident_profiles() {
        Some((aprofs, bprofs)) => candidate_pairs_profiled(a, b, aprofs, bprofs, q, max_bucket),
        None => candidate_pairs(a, b, q, max_bucket),
    }
}

/// [`candidate_pairs`] over already-profiled record slices (the synthesis
/// loop's S3 labeling pass, where the records were profiled one by one as
/// they were accepted), indexed like `a` and `b`. Each profile's
/// precomputed blocking keys are reused when they were built at this `q`;
/// otherwise the relation's string is hashed.
pub fn candidate_pairs_profiled(
    a: &Relation,
    b: &Relation,
    aprofs: &[RecordProfile],
    bprofs: &[RecordProfile],
    q: usize,
    max_bucket: usize,
) -> Vec<(usize, usize)> {
    let source = GramSource::Profiles(aprofs, bprofs);
    block(a, b, source, q, max_bucket, parallel::num_threads())
}

/// The index of the column used for blocking.
pub fn blocking_column(r: &Relation) -> usize {
    blocking_column_of(r.schema())
}

/// [`blocking_column`] from a schema alone.
pub fn blocking_column_of(schema: &Schema) -> usize {
    schema
        .columns()
        .iter()
        .position(|c| c.ctype == ColumnType::Text)
        .unwrap_or(0)
}

/// Where a blocking run reads each record's grams from.
enum GramSource<'p> {
    /// Hash the relations' lowercase blocking-column strings.
    Relations,
    /// Reuse profiled records (A's, then B's, indexed like the relations).
    Profiles(&'p [RecordProfile], &'p [RecordProfile]),
}

/// The one q-gram blocking run: collect both sides' grams from `source`,
/// join them through the sharded index, and report the candidate count and
/// reduction ratio.
fn block(
    a: &Relation,
    b: &Relation,
    source: GramSource<'_>,
    q: usize,
    max_bucket: usize,
    shards: usize,
) -> Vec<(usize, usize)> {
    let _span = obs::span("blocking");
    let col = blocking_column(a);
    let (grams_a, grams_b) = match source {
        GramSource::Relations => (relation_grams(a, col, q), relation_grams(b, col, q)),
        GramSource::Profiles(aprofs, bprofs) => {
            (profiled_grams(a, aprofs, col, q), profiled_grams(b, bprofs, col, q))
        }
    };
    let out = sharded_join(&grams_a, &grams_b, max_bucket, shards);
    if obs::enabled() {
        obs::counter("candidates.qgram", out.len() as u64);
        let cross = (a.len() as f64) * (b.len() as f64);
        if cross > 0.0 {
            // Fraction of the cross product pruned away by blocking.
            obs::gauge("reduction_ratio.qgram", 1.0 - out.len() as f64 / cross);
        }
    }
    out
}

/// One record's sorted-unique blocking grams: borrowed from a profile or
/// hashed from the relation's string.
type Grams<'p> = Cow<'p, [u64]>;

/// Sorted-unique FNV-1a gram hashes of record `i`'s blocking-column string
/// (none when it has no string value). Keying on `u64` hashes instead of
/// owned gram `String`s removes the per-gram allocations; the candidate set
/// is unchanged unless two distinct grams collide in 64 bits (probability
/// ~ g²/2⁶⁵ corpus-wide, DESIGN.md §10).
fn string_grams(r: &Relation, i: usize, col: usize, q: usize) -> Vec<u64> {
    match r.entity(i).value(col).as_str() {
        Some(s) => block_gram_hashes(&s.to_lowercase(), q),
        None => Vec::new(),
    }
}

/// Per-record grams of one relation's blocking column, computed in parallel.
fn relation_grams(r: &Relation, col: usize, q: usize) -> Vec<Grams<'static>> {
    let ids: Vec<usize> = (0..r.len()).collect();
    parallel::par_map(&ids, |&i| Cow::Owned(string_grams(r, i, col, q)))
}

/// [`relation_grams`] over profiled records: borrows each profile's
/// precomputed blocking keys when they were built at this `q`, and hashes
/// the relation's string otherwise.
fn profiled_grams<'p>(
    r: &Relation,
    profs: &'p [RecordProfile],
    col: usize,
    q: usize,
) -> Vec<Grams<'p>> {
    profs
        .iter()
        .enumerate()
        .map(|(i, rp)| match rp.col(col).and_then(|p| p.block_grams_at(q)) {
            Some(grams) => Cow::Borrowed(grams),
            None => Cow::Owned(string_grams(r, i, col, q)),
        })
        .collect()
}

/// One shard of a side's blocking index: only grams with
/// `hash % shards == shard`. Record ids arrive in increasing order, so
/// per-gram buckets are identical to the monolithic index's — the bucket
/// cap truncates the same ids no matter how grams are partitioned.
fn shard_index(
    grams: &[Grams<'_>],
    shard: u64,
    shards: u64,
    max_bucket: usize,
) -> HashMap<u64, Vec<usize>> {
    let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
    for (id, gs) in grams.iter().enumerate() {
        for &g in gs.iter() {
            if g % shards != shard {
                continue;
            }
            let bucket = index.entry(g).or_default();
            // Grams are deduplicated per record, so the `last != id` guard
            // only defends against misuse.
            if bucket.len() < max_bucket && bucket.last() != Some(&id) {
                bucket.push(id);
            }
        }
    }
    index
}

/// Joins one shard's two side indexes into sorted, deduplicated pairs
/// (sorted so candidate order doesn't leak hash-iteration order).
fn join_indexes(
    ia: &HashMap<u64, Vec<usize>>,
    ib: &HashMap<u64, Vec<usize>>,
) -> Vec<(usize, usize)> {
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    for (g, ids_a) in ia {
        if let Some(ids_b) = ib.get(g) {
            for &i in ids_a {
                for &j in ids_b {
                    seen.insert((i, j));
                }
            }
        }
    }
    let mut out: Vec<(usize, usize)> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Builds both sides' shards in parallel (`par_map` keeps shard order
/// deterministic), joins shard-by-shard, and merges: every gram lives in
/// exactly one shard, so the union of per-shard joins equals the monolithic
/// join, and the final global sort + dedup makes the output independent of
/// shard count, thread count, and hash-iteration order.
fn sharded_join(
    grams_a: &[Grams<'_>],
    grams_b: &[Grams<'_>],
    max_bucket: usize,
    shards: usize,
) -> Vec<(usize, usize)> {
    let shards = shards.max(1) as u64;
    if obs::enabled() {
        obs::gauge("blocking.shards", shards as f64);
    }
    let shard_ids: Vec<u64> = (0..shards).collect();
    let per_shard: Vec<Vec<(usize, usize)>> = parallel::par_map(&shard_ids, |&s| {
        let ia = shard_index(grams_a, s, shards, max_bucket);
        let ib = shard_index(grams_b, s, shards, max_bucket);
        join_indexes(&ia, &ib)
    });
    // A pair can surface from several shards (one per shared gram): dedup
    // across shards, then sort for a canonical order.
    let seen: HashSet<(usize, usize)> = per_shard.into_iter().flatten().collect();
    let mut out: Vec<(usize, usize)> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, Schema, Value};

    fn rel(names: &[&str]) -> Relation {
        let schema = Schema::new(vec![Column::text("title")]);
        let mut r = Relation::new("t", schema);
        for n in names {
            r.push(vec![Value::Text((*n).to_string())]).unwrap();
        }
        r
    }

    #[test]
    fn similar_titles_are_candidates() {
        let a = rel(&["adaptable query optimization", "zzzz completely unrelated"]);
        let b = rel(&["adaptable query evaluation", "something else entirely"]);
        let pairs = candidate_pairs(&a, &b, 3, 10);
        assert!(pairs.contains(&(0, 0)));
    }

    #[test]
    fn disjoint_strings_are_not_candidates() {
        let a = rel(&["aaaaaa"]);
        let b = rel(&["zzzzzz"]);
        let pairs = candidate_pairs(&a, &b, 3, 10);
        assert!(pairs.is_empty());
    }

    #[test]
    fn bucket_cap_limits_fanout() {
        // 30 identical entities on each side, bucket cap 5 -> at most 25 pairs.
        let names: Vec<&str> = std::iter::repeat("same title here").take(30).collect();
        let a = rel(&names);
        let b = rel(&names);
        let pairs = candidate_pairs(&a, &b, 3, 5);
        assert!(pairs.len() <= 25);
        assert!(!pairs.is_empty());
    }

    #[test]
    fn blocking_column_prefers_text() {
        let schema = Schema::new(vec![Column::numeric("year", 1.0), Column::text("title")]);
        let r = Relation::new("t", schema);
        assert_eq!(blocking_column(&r), 1);
    }

    #[test]
    fn cached_blocking_matches_uncached() {
        let a = rel(&["adaptable query optimization", "zzzz completely unrelated", "ab"]);
        let b = rel(&["adaptable query evaluation", "query processing things", "ab"]);
        let cache = crate::simcache::ProfileCache::build(&a, &b, 3);
        assert_eq!(
            candidate_pairs(&a, &b, 3, 10),
            candidate_pairs_cached(&a, &b, &cache, 3, 10)
        );
        // A q the cache didn't precompute falls back to hashing the
        // relation strings — still the same candidates.
        assert_eq!(
            candidate_pairs(&a, &b, 2, 10),
            candidate_pairs_cached(&a, &b, &cache, 2, 10)
        );
        // S3's path: records profiled one at a time as they are accepted.
        // At q = 3 the precomputed blocking keys are used; at q = 2 the
        // relation strings are hashed.
        let mut profiler = crate::IncrementalProfiler::new(a.schema(), DEFAULT_BLOCK_Q);
        let aprofs: Vec<RecordProfile> =
            a.entities().iter().map(|e| profiler.profile_entity(e)).collect();
        let bprofs: Vec<RecordProfile> =
            b.entities().iter().map(|e| profiler.profile_entity(e)).collect();
        for q in [3, 2] {
            assert_eq!(
                candidate_pairs(&a, &b, q, 10),
                candidate_pairs_profiled(&a, &b, &aprofs, &bprofs, q, 10),
                "q = {q}"
            );
        }
    }

    #[test]
    fn sharded_candidates_match_unsharded_at_any_shard_count() {
        let a = rel(&[
            "adaptable query optimization",
            "zzzz completely unrelated",
            "generalised hash teams",
            "ab",
            "",
        ]);
        let b = rel(&[
            "adaptable query evaluation",
            "query processing things",
            "generalized hash teams",
            "ab",
        ]);
        let reference = candidate_pairs_sharded(&a, &b, 3, 10, 1);
        for shards in [2, 3, 7, 16, 64] {
            assert_eq!(
                candidate_pairs_sharded(&a, &b, 3, 10, shards),
                reference,
                "shards = {shards}"
            );
        }
        // The bucket cap truncates identically through shards.
        let names: Vec<&str> = std::iter::repeat("same title here").take(30).collect();
        let big_a = rel(&names);
        let big_b = rel(&names);
        let capped = candidate_pairs_sharded(&big_a, &big_b, 3, 5, 1);
        for shards in [2, 8] {
            assert_eq!(candidate_pairs_sharded(&big_a, &big_b, 3, 5, shards), capped);
        }
    }

    #[test]
    fn budgeted_cache_blocking_falls_back_to_relations() {
        let a = rel(&["adaptable query optimization", "zzzz completely unrelated", "ab"]);
        let b = rel(&["adaptable query evaluation", "query processing things", "ab"]);
        // Budget 1 < 6 records: the cache is not fully resident.
        let cache = crate::simcache::ProfileCache::build_with_budget(&a, &b, 3, Some(1));
        assert!(cache.resident_profiles().is_none());
        assert_eq!(
            candidate_pairs(&a, &b, 3, 10),
            candidate_pairs_cached(&a, &b, &cache, 3, 10)
        );
    }

    #[test]
    fn short_values_block_on_whole_string() {
        let a = rel(&["ab"]);
        let b = rel(&["ab", "cd"]);
        let pairs = candidate_pairs(&a, &b, 3, 10);
        assert_eq!(pairs, vec![(0, 0)]);
    }
}
