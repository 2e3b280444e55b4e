//! Pins that the Monte-Carlo JSD estimate allocates per chunk, not per
//! draw (DESIGN.md §7): one draw and a full 128-draw chunk allocate the
//! same. The counting allocator is this binary's global allocator, and it
//! counts per thread; a single chunk runs on the calling thread, so other
//! tests and the harness's own threads cannot disturb the count.

use gmm::{Gaussian, GmmConfig, OMixture};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A paper-like O-distribution over 3-dimensional similarity vectors.
fn o_like(rng: &mut StdRng, shift: f64) -> OMixture {
    let gm = Gaussian::isotropic(vec![0.85 + shift, 0.8, 0.9], 0.003).unwrap();
    let gn = Gaussian::isotropic(vec![0.1, 0.15 + shift, 0.2], 0.003).unwrap();
    let pos: Vec<Vec<f64>> = (0..200).map(|_| gm.sample(rng)).collect();
    let neg: Vec<Vec<f64>> = (0..600).map(|_| gn.sample(rng)).collect();
    OMixture::learn(&pos, &neg, &GmmConfig::default(), rng).unwrap()
}

#[test]
fn jsd_allocations_do_not_grow_with_the_draws_of_a_chunk() {
    let mut rng = StdRng::seed_from_u64(3);
    let (p, q) = (o_like(&mut rng, 0.0), o_like(&mut rng, -0.2));
    // Builds the thread pool and any other lazily created state first.
    std::hint::black_box(p.jsd(&q, 1, &mut rng));
    let mut count = |n: usize| {
        let before = allocations();
        std::hint::black_box(p.jsd(&q, n, &mut rng));
        allocations() - before
    };
    let (one, chunk) = (count(1), count(128));
    assert_eq!(one, chunk, "1 draw allocated {one} times, 128 draws {chunk}");
}
