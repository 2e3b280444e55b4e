//! Cross-crate pin: sharded q-gram blocking emits bit-identical candidate
//! pairs to the monolithic single-index path on the simulated Restaurant and
//! DBLP-ACM benchmarks, at 1 and 4 compute threads — and, on a streamed
//! 10⁵-entity Restaurant export, under a residency-budgeted ProfileCache.
//!
//! The per-shard indexes partition the gram space (`gram_hash % S`), every
//! shard's buckets are truncated exactly as the monolithic index truncates
//! them, and the merged union is deduplicated and sorted — so neither the
//! shard count nor the thread count may move a single pair.

use datagen::{export_dir, generate, ingest_dir, DatasetKind, ScaleSpec};
use er_core::blocking::{candidate_pairs, candidate_pairs_cached, candidate_pairs_sharded};
use er_core::ProfileCache;
use parallel::{with_pool, ThreadPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn pin_kind(kind: DatasetKind, threads: usize) {
    let sim = generate(kind, 0.08, &mut StdRng::seed_from_u64(77));
    let (a, b) = (sim.er.a(), sim.er.b());
    with_pool(Arc::new(ThreadPool::new(threads)), || {
        let reference = candidate_pairs_sharded(a, b, 3, 20, 1);
        assert!(
            !reference.is_empty(),
            "{kind:?}: simulated corpus produced no candidates"
        );
        for shards in [2, 4, 16] {
            assert_eq!(
                candidate_pairs_sharded(a, b, 3, 20, shards),
                reference,
                "{kind:?}: {shards} shards diverged at {threads} threads"
            );
        }
        let cache = ProfileCache::build(a, b, 3);
        assert_eq!(
            candidate_pairs_cached(a, b, &cache, 3, 20),
            reference,
            "{kind:?}: cached path diverged at {threads} threads"
        );
    });
}

#[test]
fn restaurant_sharded_blocking_is_thread_and_shard_invariant() {
    for threads in [1, 4] {
        pin_kind(DatasetKind::Restaurant, threads);
    }
}

#[test]
fn dblp_acm_sharded_blocking_is_thread_and_shard_invariant() {
    for threads in [1, 4] {
        pin_kind(DatasetKind::DblpAcm, threads);
    }
}

/// The scale path end to end at 10⁵ entities: streamed export → ingest drops
/// no row, pool-width blocking equals the single-shard reference, and a
/// ProfileCache budgeted at half the corpus blocks identically and stays
/// within its budget while scoring pairs that touch every record.
#[test]
fn restaurant_streamed_1e5_ingests_every_row_and_blocks_under_a_budget() {
    const BUDGET: usize = 50_000;
    let kind = DatasetKind::Restaurant;
    let dir = std::env::temp_dir().join(format!("serd_blocking_scale_{}", std::process::id()));
    let spec = ScaleSpec::for_entities(kind, 100_000);
    let stats = export_dir(&spec, 42, &dir).expect("export");
    let sim = ingest_dir(kind, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let sim = sim.expect("ingest");
    let (a, b) = (sim.er.a(), sim.er.b());
    assert_eq!(
        (a.len(), b.len(), sim.er.num_matches()),
        (stats.rows_a, stats.rows_b, stats.matches),
        "rows dropped between export and ingest"
    );
    // Compared by `==` with lengths in the message: a diff of 10⁴-pair
    // vectors would bury the failure.
    let same = |got: Vec<(usize, usize)>, want: &[(usize, usize)], what: &str| {
        assert!(
            got == want,
            "{what}: {} candidates, reference {}",
            got.len(),
            want.len()
        );
    };

    with_pool(Arc::new(ThreadPool::new(4)), || {
        let reference = candidate_pairs_sharded(a, b, 3, 20, 1);
        assert!(!reference.is_empty(), "10⁵ entities produced no candidates");
        same(
            candidate_pairs(a, b, 3, 20),
            &reference,
            "pool-width shards diverged",
        );

        let cache = ProfileCache::build_with_budget(a, b, 3, Some(BUDGET));
        same(
            candidate_pairs_cached(a, b, &cache, 3, 20),
            &reference,
            "budgeted cache diverged",
        );
        // Blocking truncates buckets, so its candidates reach few records;
        // score a[i] against b[i] instead, touching every record once.
        assert!(
            a.len() + b.len() > BUDGET,
            "the sweep must overflow the budget"
        );
        for i in 0..a.len().min(b.len()) {
            cache.pair_similarity(a.schema(), a.entity(i), i, b.entity(i), i);
        }
        assert!(
            cache.resident() <= BUDGET,
            "{} profiles resident over a budget of {BUDGET}",
            cache.resident()
        );
    });
}
