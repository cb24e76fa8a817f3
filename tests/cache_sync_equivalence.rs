//! Equivalence suite for the WAL `SyncPolicy`: a throughput knob only —
//! every sync policy must leave identical store contents (and identical
//! resumed campaigns) after a clean shutdown. The decoded-entity cache's
//! equivalence contract lives with the store, in
//! `crates/store/tests/cache_equiv.rs`.

use itag::core::config::{EngineConfig, StorageConfig};
use itag::core::engine::ITagEngine;
use itag::core::monitor::MonitorSnapshot;
use itag::core::project::ProjectSpec;
use itag::model::delicious::DeliciousConfig;
use itag::store::{Durability, SyncPolicy};

fn dataset(seed: u64) -> itag::model::dataset::Dataset {
    DeliciousConfig {
        resources: 30,
        initial_posts: 150,
        eval_posts: 0,
        seed,
        ..DeliciousConfig::default()
    }
    .generate()
    .dataset
}

#[test]
fn sync_policies_leave_identical_stores_after_clean_shutdown() {
    let policies = [
        SyncPolicy::Always,
        SyncPolicy::EveryN(8),
        SyncPolicy::Batched,
    ];
    let mut checksums = Vec::new();
    let mut resumed_monitors: Vec<Vec<MonitorSnapshot>> = Vec::new();
    for (i, policy) in policies.into_iter().enumerate() {
        let dir = itag::store::testutil::TestDir::new(&format!("engine-sync-equiv-{i}"));
        let config = EngineConfig {
            storage: StorageConfig::Durable {
                dir: dir.path().to_path_buf(),
                durability: Durability::Sync,
                sync_policy: policy,
                checkpoint_every: 0,
            },
            ..EngineConfig::in_memory(0x5ECC)
        };
        let projects = {
            let mut e = ITagEngine::new(config.clone()).unwrap();
            let provider = e.register_provider("sync-equiv").unwrap();
            let mut projects = Vec::new();
            for s in 0..2u64 {
                projects.push(
                    e.add_project(
                        provider,
                        ProjectSpec::demo(&format!("sync-{s}"), 80),
                        dataset(0x5ECC + s),
                    )
                    .unwrap(),
                );
            }
            e.run_all_on(80, 2).unwrap();
            projects
            // Clean shutdown: drop without an explicit sync — every policy
            // must still leave the full committed state on disk.
        };

        let mut e = ITagEngine::new(config).unwrap();
        checksums.push(e.store_checksum());
        let mut monitors = Vec::new();
        for p in &projects {
            e.resume_project(*p).unwrap();
            monitors.push(e.monitor(*p).unwrap());
        }
        resumed_monitors.push(monitors);
    }
    assert_eq!(
        checksums[0], checksums[1],
        "Always vs EveryN(8) stores diverged after clean shutdown"
    );
    assert_eq!(
        checksums[0], checksums[2],
        "Always vs Batched stores diverged after clean shutdown"
    );
    assert_eq!(resumed_monitors[0], resumed_monitors[1]);
    assert_eq!(resumed_monitors[0], resumed_monitors[2]);
}
