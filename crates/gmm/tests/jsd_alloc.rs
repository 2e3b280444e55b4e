//! Pins that the Monte-Carlo JSD estimate allocates per estimate, not per
//! draw (DESIGN.md §7): an estimate on a sheet of one draw and on a sheet
//! of 128 draws allocate the same, and so does a whole `OMixture::jsd`,
//! which also builds its sheet. The counting allocator is this binary's
//! global allocator, and it counts per thread; the estimate runs serially
//! on the calling thread, so other tests and the harness's own threads
//! cannot disturb the count.

use gmm::{Gaussian, GmmConfig, JsdSheet, OMixture};
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
fn jsd_allocations_do_not_grow_with_the_draws() {
    let mut rng = StdRng::seed_from_u64(3);
    let (p, q) = (o_like(&mut rng, 0.0), o_like(&mut rng, -0.2));
    // Builds any lazily created state first.
    std::hint::black_box(p.jsd(&q, 1, &mut rng));
    let on_sheet = |n: usize| {
        let sheet = JsdSheet::new(&q, n, 11);
        let before = allocations();
        std::hint::black_box(sheet.estimate(&p));
        allocations() - before
    };
    let (one, many) = (on_sheet(1), on_sheet(128));
    assert_eq!(one, many, "an estimate on 1 draw allocated {one} times, on 128 draws {many}");
    let mut whole = |n: usize| {
        let before = allocations();
        std::hint::black_box(p.jsd(&q, n, &mut rng));
        allocations() - before
    };
    let (one, many) = (whole(1), whole(128));
    assert_eq!(one, many, "jsd at n = 1 allocated {one} times, at n = 128 {many}");
}
