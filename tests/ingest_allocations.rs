//! Counted work on the XSD ingest path: heap allocations per
//! `parse_schema_with_limits`, pinned exactly.
//!
//! Wall-clock ingest time is too noisy to gate on a shared CI core, but
//! the allocation count of one parse repeats exactly, so it is a hard
//! gate. The counting allocator keeps one counter per thread, so tests
//! running in parallel in this binary cannot disturb each other's counts.
//!
//! A change that moves a count on purpose updates the pin here and says
//! why in `CHANGES.md`.

use qmatch::datasets::{drift, synth};
use qmatch::xsd::{parse_schema_with_limits, IngestLimits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold. Counting only touches a const-initialized
// thread-local `Cell` without a destructor, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (including reallocations) made by this thread while
/// parsing `src` once. The parsed schema is dropped after counting.
fn allocations_per_parse(src: &str) -> u64 {
    let limits = IngestLimits::default();
    // Warm any lazily initialized state first; the count is per parse.
    drop(parse_schema_with_limits(src, &limits).expect("input parses"));
    let before = ALLOCATIONS.with(Cell::get);
    let schema = parse_schema_with_limits(src, &limits).expect("input parses");
    let after = ALLOCATIONS.with(Cell::get);
    drop(schema);
    after - before
}

#[test]
fn pir_parse_allocations_are_pinned() {
    let pir = &synth::protein_corpus().pir_xsd;
    assert_eq!(pir.len(), 23_966, "the PIR document itself changed");
    assert_eq!(allocations_per_parse(pir), 983);
}

#[test]
fn revision_parse_allocations_are_pinned() {
    // One low-drift PIR revision rendered as a registry PUT body.
    let revision = &drift::mutation_chain(synth::pir(), 1, 0.15, drift::GATE_SEED)[0];
    let body = drift::to_xsd(revision);
    assert_eq!(allocations_per_parse(&body), 990);
}
