//! Allocation budget of one campaign round: heap allocations per
//! `run(p)` on a strict-sync durable engine running eight campaigns
//! shaped like the wire benchmark's `rounds_durable` workload (120
//! resources each, 40-task rounds, round-robin over the campaigns).
//!
//! Its own test binary because it installs a counting global allocator.
//! The counters are process-wide, so the binary holds exactly one test
//! and nothing else allocates while it measures. The engine runs on one
//! thread so the count does not depend on the host's core count.
//!
//! Measured on this workload: 1,280.8 allocations per round before write
//! batches were staged into one buffer (each put owned a key and a value
//! vector, and a durable commit serialized its ops into a second
//! payload), 900.5 after. The budget is the latter plus 5%.

use itag_core::config::{EngineConfig, StorageConfig};
use itag_core::engine::ITagEngine;
use itag_core::project::ProjectSpec;
use itag_model::delicious::DeliciousConfig;
use itag_model::ids::ProjectId;
use itag_store::testutil::TestDir;
use itag_store::{Durability, SyncPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

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
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CAMPAIGNS: u32 = 8;
const ROUND_TASKS: u32 = 40;
/// Rounds run before measuring, so every campaign is past its first
/// round's one-off growth.
const WARM_ROUNDS: u32 = 2 * CAMPAIGNS;
const MEASURED_ROUNDS: u32 = 20 * CAMPAIGNS;
const BUDGET_PER_ROUND: f64 = 900.5 * 1.05;

#[test]
fn a_round_allocates_within_its_budget() {
    let dir = TestDir::new("round-allocs");
    let mut engine = ITagEngine::new(EngineConfig {
        seed: 11,
        threads: 1,
        storage: StorageConfig::Durable {
            dir: dir.path().to_path_buf(),
            durability: Durability::Sync,
            sync_policy: SyncPolicy::Always,
            checkpoint_every: 10_000,
        },
        ..EngineConfig::default()
    })
    .unwrap();
    let provider = engine.register_provider("bench-provider").unwrap();
    for i in 0..CAMPAIGNS {
        let dataset = DeliciousConfig {
            resources: 120,
            vocab: 300,
            initial_posts: 360,
            eval_posts: 240,
            taggers: 24,
            seed: 0x5eed_0000 + i as u64,
            ..DeliciousConfig::default()
        }
        .generate()
        .dataset;
        let spec = ProjectSpec::demo(&format!("campaign-{i}"), 2_000_000);
        engine.add_project(provider, spec, dataset).unwrap();
    }
    let mut round = |k: u32| {
        let summary = engine.run(ProjectId(k % CAMPAIGNS), ROUND_TASKS).unwrap();
        assert!(summary.issued > 0, "round {k} issued no task");
    };
    for k in 0..WARM_ROUNDS {
        round(k);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for k in WARM_ROUNDS..WARM_ROUNDS + MEASURED_ROUNDS {
        round(k);
    }
    let per_round = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / MEASURED_ROUNDS as f64;

    println!("run(p): {per_round:.1} allocations per round (budget {BUDGET_PER_ROUND:.1})");
    assert!(
        per_round <= BUDGET_PER_ROUND,
        "{per_round:.1} allocations per round; budget {BUDGET_PER_ROUND:.1}"
    );
}
