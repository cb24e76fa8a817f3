//! WAL faults on the frames that seeding and project creation write.
//!
//! * A pipelined seed whose third chunk fails to append returns the
//!   error, keeps the first two chunks, stores nothing after them, and
//!   leaves no encoder thread behind.
//! * `add_project` writes one frame holding the resource rows, the tag
//!   dictionary and the project and dataset rows, in that order; a fault
//!   on that frame leaves none of them after a reopen.
//!
//! This binary arms the process-global fault plan, so every test here
//! arms (see `crates/store/tests/fault_torture.rs` for the isolation
//! rule) and holds its guard from first line to last.

#![cfg(feature = "faults")]

use itag_core::config::{EngineConfig, StorageConfig};
use itag_core::engine::ITagEngine;
use itag_core::project::ProjectSpec;
use itag_core::records::UserRole;
use itag_core::tables;
use itag_core::user_mgr::UserManager;
use itag_core::EngineError;
use itag_model::delicious::DeliciousConfig;
use itag_store::faults::{self, FaultKind, FaultPlan, FaultSpec, Trigger};
use itag_store::testutil::TestDir;
use itag_store::txn::{Op, WalEntry};
use itag_store::{serbin, wal, Durability, Store, StoreError, StoreOptions, SyncPolicy, TableId};
use std::path::Path;
use std::sync::Arc;

const SEED: u64 = 0xF4A3;

fn strict() -> StoreOptions {
    StoreOptions {
        durability: Durability::Sync,
        sync_policy: SyncPolicy::Always,
        ..StoreOptions::default()
    }
}

/// Names of this process's live threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|tasks| {
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .map(|name| name.trim().to_string())
                .collect()
        })
        .unwrap_or_default()
}

fn eio_on_append(nth: u64) -> FaultPlan {
    FaultPlan::new().site(
        faults::WAL_APPEND,
        FaultSpec::new(FaultKind::Eio, Trigger::Nth(nth)),
    )
}

#[test]
fn a_wal_fault_on_the_third_seed_chunk_keeps_the_first_two() {
    let mut guard = faults::arm(&FaultPlan::new());
    let dir = TestDir::new("seed-chunk-fault");
    {
        let users = UserManager::new(Arc::new(Store::open(dir.path(), strict()).unwrap()));
        guard.rearm(&eio_on_append(3));
        let err = users
            .register_bulk(UserRole::Tagger, 0, 6 * 4096, "seed-", 2)
            .expect_err("the third chunk's append fails");
        guard.rearm(&FaultPlan::new());
        assert!(
            matches!(err, EngineError::Store(StoreError::Io(_))),
            "the root cause comes back typed: {err:?}"
        );
        assert!(
            !thread_names().iter().any(|n| n == "seed-encoder"),
            "the encoder thread outlived the seed"
        );
    }
    let store = Store::open(dir.path(), strict()).unwrap();
    assert_eq!(store.count(tables::USERS), 2 * 4096, "chunks 1-2 kept");
    let users = UserManager::new(Arc::new(store));
    for id in [0, 4095, 4096, 2 * 4096 - 1] {
        assert!(
            users.get(UserRole::Tagger, id).unwrap().is_some(),
            "id {id}"
        );
    }
    for id in [2 * 4096, 6 * 4096 - 1] {
        assert!(
            users.get(UserRole::Tagger, id).unwrap().is_none(),
            "id {id}"
        );
    }
}

fn config(dir: &Path) -> EngineConfig {
    EngineConfig {
        seed: SEED,
        storage: StorageConfig::Durable {
            dir: dir.to_path_buf(),
            durability: Durability::Sync,
            sync_policy: SyncPolicy::Always,
            checkpoint_every: 0,
        },
        ..EngineConfig::default()
    }
}

fn dataset() -> itag_model::dataset::Dataset {
    DeliciousConfig {
        resources: 12,
        vocab: 40,
        initial_posts: 30,
        eval_posts: 60,
        taggers: 6,
        seed: SEED,
        ..DeliciousConfig::default()
    }
    .generate()
    .dataset
}

fn frames(dir: &Path) -> Vec<Vec<u8>> {
    wal::scan(&dir.join("db.wal")).unwrap().frames
}

/// The project's tables, in the order its frame writes them.
const PROJECT_TABLES: [TableId; 5] = [
    tables::RESOURCES,
    tables::IDX_RESOURCE_BY_POSTCOUNT,
    tables::TAGS,
    tables::PROJECTS,
    tables::DATASETS,
];

#[test]
fn add_project_is_one_frame_and_a_fault_on_it_leaves_no_rows() {
    let mut guard = faults::arm(&FaultPlan::new());
    let dataset = dataset();

    let dir = TestDir::new("create-project-frame");
    let mut engine = ITagEngine::new(config(dir.path())).unwrap();
    let provider = engine.register_provider("alice").unwrap();
    let before = frames(dir.path()).len();
    engine
        .add_project(
            provider,
            ProjectSpec::demo("one-frame", 20),
            dataset.clone(),
        )
        .unwrap();
    drop(engine);
    let after = frames(dir.path());
    assert_eq!(after.len(), before + 1, "add_project writes one frame");
    let entry: WalEntry = serbin::from_bytes(&after[before]).unwrap();
    let resources = dataset.resources.len();
    let tags = dataset.dictionary.len();
    assert_eq!(entry.ops.len(), 2 * resources + tags + 2);
    let table_order: Vec<TableId> = entry
        .ops
        .iter()
        .map(|op| match op {
            Op::Put { table, .. } | Op::Delete { table, .. } => *table,
        })
        .collect();
    let expected: Vec<TableId> =
        std::iter::repeat_n(PROJECT_TABLES[..2].iter().copied(), resources)
            .flatten()
            .chain(std::iter::repeat_n(tables::TAGS, tags))
            .chain(PROJECT_TABLES[3..].iter().copied())
            .collect();
    assert_eq!(
        table_order, expected,
        "resources, dictionary, project, dataset"
    );

    let dir = TestDir::new("create-project-fault");
    let mut engine = ITagEngine::new(config(dir.path())).unwrap();
    let provider = engine.register_provider("alice").unwrap();
    guard.rearm(&eio_on_append(1));
    let err = engine
        .add_project(provider, ProjectSpec::demo("faulted", 20), dataset)
        .expect_err("the project's frame fails to append");
    guard.rearm(&FaultPlan::new());
    assert!(err.is_storage_fault(), "{err:?}");
    drop(engine);
    let engine = ITagEngine::new(config(dir.path())).unwrap();
    let store = engine.store_handle();
    for table in PROJECT_TABLES {
        assert_eq!(store.count(table), 0, "{table} has rows after the reopen");
    }
    assert_eq!(store.count(tables::USERS), 1, "the provider stays");
}
