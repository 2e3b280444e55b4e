//! Cross-crate pin: sharded q-gram blocking emits bit-identical candidate
//! pairs to the monolithic single-index path on the simulated Restaurant and
//! DBLP-ACM benchmarks, at 1 and 4 compute threads — and, on a streamed
//! 10⁵-entity Restaurant export, so do the profile cache's blocking and
//! fit's per-pair similarity vectors.
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
/// no row, pool-width blocking and blocking over a resident ProfileCache equal
/// the single-shard reference, and fit's similarity vectors equal the
/// resident cache's scores of the same pairs, bit for bit.
#[test]
fn restaurant_streamed_1e5_ingests_every_row_and_blocks_identically() {
    const NEG: usize = 400;
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
    // Compared by `==` with lengths in the message: a diff of 10⁴-element
    // vectors would bury the failure.
    fn same<T: PartialEq>(got: &[T], want: &[T], what: &str) {
        assert!(
            got == want,
            "{what}: {} items, reference {}",
            got.len(),
            want.len()
        );
    }

    with_pool(Arc::new(ThreadPool::new(4)), || {
        let reference = candidate_pairs_sharded(a, b, 3, 20, 1);
        assert!(!reference.is_empty(), "10⁵ entities produced no candidates");
        same(
            &candidate_pairs(a, b, 3, 20),
            &reference,
            "pool-width shards diverged",
        );

        let cache = ProfileCache::build(a, b, 3);
        same(
            &candidate_pairs_cached(a, b, &cache, 3, 20),
            &reference,
            "cached blocking diverged",
        );

        let mut rng = StdRng::seed_from_u64(9);
        let sv = sim.er.similarity_vectors(NEG, &mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let neg_pairs = sim.er.sample_nonmatch_pairs(NEG, &mut rng);
        let mut pos_pairs: Vec<(usize, usize)> = sim.er.matches().iter().copied().collect();
        pos_pairs.sort_unstable();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (got, pairs, what) in [(&sv.pos, &pos_pairs, "X+"), (&sv.neg, &neg_pairs, "X-")] {
            let got: Vec<Vec<u64>> = got.iter().map(|v| bits(v)).collect();
            let want: Vec<Vec<u64>> = pairs
                .iter()
                .map(|&(i, j)| {
                    bits(&cache.pair_similarity(a.schema(), a.entity(i), i, b.entity(j), j))
                })
                .collect();
            same(
                &got,
                &want,
                &format!("{what} differs from the resident cache's scores"),
            );
        }
    });
}
