//! Allocation budget of population seeding: heap allocations per seeded
//! tagger, and frees per tagger when the engine is dropped.
//!
//! Its own test binary because it installs a counting global allocator.
//! The counters are process-wide, so the binary holds exactly one test
//! and nothing else allocates while it measures.
//!
//! The reference figures are those of the store before ordered loads
//! (one existence probe and one insert per key, key and value copied
//! into two separate buffers): 9.06 allocations per tagger while
//! seeding and 2.02 frees per tagger at teardown, measured for a
//! 600,000-tagger seed. Staging each chunk in one buffer brought the
//! seed from 3.01 allocations per tagger (two owned vectors per put, and
//! the stored pair) to one: the stored pair itself. The budget is 1.1
//! of each, at one thread (inline) and at two (encoder thread).

use itag_core::config::EngineConfig;
use itag_core::engine::ITagEngine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Taggers seeded; the wire benchmark's population.
const TAGGERS: u32 = 600_000;
const REFERENCE_ALLOCS: f64 = 9.06;
const REFERENCE_FREES: f64 = 2.02;
const BUDGET: f64 = 1.1;

#[test]
fn seeding_allocates_and_frees_at_most_half_the_reference() {
    for threads in [1, 2] {
        let mut config = EngineConfig::in_memory(7);
        config.threads = threads;
        let mut engine = ITagEngine::new(config).unwrap();

        let before = ALLOCS.load(Ordering::Relaxed);
        engine.seed_taggers(0, TAGGERS).unwrap();
        let allocs = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / TAGGERS as f64;

        let before = FREES.load(Ordering::Relaxed);
        drop(engine);
        let frees = (FREES.load(Ordering::Relaxed) - before) as f64 / TAGGERS as f64;

        println!(
            "seed_taggers(0, {TAGGERS}) at {threads} thread(s): {allocs:.3} allocations per \
             tagger (reference {REFERENCE_ALLOCS}), {frees:.3} frees per tagger at teardown \
             (reference {REFERENCE_FREES})"
        );
        assert!(
            allocs <= BUDGET,
            "{allocs:.3} allocations per seeded tagger at {threads} thread(s); budget {BUDGET}"
        );
        assert!(
            frees <= BUDGET,
            "{frees:.3} frees per tagger at teardown at {threads} thread(s); budget {BUDGET}"
        );
    }
}
