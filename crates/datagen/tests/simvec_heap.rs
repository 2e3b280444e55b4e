//! Pins that fit's similarity-vector pass keeps no per-record profiles
//! (DESIGN.md §13.3): on a streamed DBLP-ACM export, the live heap's
//! high-water mark during `ErDataset::similarity_vectors`, above what was
//! live when it started, stays below half of what a resident `ProfileCache`
//! retains on the same relations (about a third at these 10⁵ entities; the
//! rest is blocking's grams). Heap bytes are exact on any runner, where wall
//! time and RSS are not.
//!
//! The counting allocator is this binary's global allocator and counts live
//! bytes process-wide. The binary holds this one test, run on a 1-thread
//! pool, so nothing else allocates while it measures.

use datagen::{export_dir, ingest_dir, DatasetKind, ScaleSpec};
use er_core::blocking::DEFAULT_BLOCK_Q;
use er_core::ProfileCache;
use parallel::{with_pool, ThreadPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only two
// atomics, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn similarity_vectors_peak_under_half_a_resident_profile_cache() {
    let kind = DatasetKind::DblpAcm;
    let dir = std::env::temp_dir().join(format!("serd_simvec_heap_{}", std::process::id()));
    let spec = ScaleSpec::for_entities(kind, 100_000);
    export_dir(&spec, 7, &dir).expect("export");
    let sim = ingest_dir(kind, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let sim = sim.expect("ingest");
    let (a, b) = (sim.er.a(), sim.er.b());

    with_pool(Arc::new(ThreadPool::new(1)), || {
        let before = LIVE.load(Relaxed);
        let cache = ProfileCache::build(a, b, DEFAULT_BLOCK_Q);
        let resident = LIVE.load(Relaxed) - before;
        drop(cache);

        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let sv = sim
            .er
            .similarity_vectors(400, &mut StdRng::seed_from_u64(3));
        let high_water = PEAK.load(Relaxed) - base;
        assert_eq!(sv.pos.len(), sim.er.num_matches());
        assert!(
            2 * high_water < resident,
            "similarity_vectors peaked {high_water} B above its start; \
             a resident cache retains {resident} B"
        );
    });
}
