//! Pins that a `BatchDecoder` step allocates nothing once the decoder is
//! built (DESIGN.md §11). The counting allocator is this binary's global
//! allocator, and it counts per thread, so other tests and the harness's
//! own threads cannot disturb the count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use transformer::vocab::BOS;
use transformer::{BatchDecoder, Seq2SeqTransformer, TransformerConfig};

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

#[test]
fn steps_allocate_nothing_once_the_decoder_is_built() {
    const STEPS: usize = 48;
    let model = Seq2SeqTransformer::new(TransformerConfig::tiny(24), &mut StdRng::seed_from_u64(5));
    let enc = model.encode_source(&[4, 5, 6, 7, 8]);
    let mut dec = BatchDecoder::new(&model, &enc, 3, STEPS);
    let feeds: Vec<Vec<(usize, usize)>> = (0..STEPS)
        .map(|i| match i {
            0 => vec![(0, BOS), (1, BOS), (2, BOS)],
            // Lanes retire at different steps, as they do under sampling.
            _ if i < 20 => vec![(0, 4 + i % 20), (1, 5), (2, 6 + i % 7)],
            _ if i < 33 => vec![(2, 4 + i % 11), (0, 9)],
            _ => vec![(0, 4 + i % 13)],
        })
        .collect();
    let before = allocations();
    for f in &feeds {
        std::hint::black_box(dec.step(f));
    }
    assert_eq!(allocations() - before, 0, "{STEPS} steps allocated");
}
