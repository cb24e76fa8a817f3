//! Population seeding is the same at every thread count: with more than
//! one thread, `seed_taggers` encodes each 4,096-id chunk on a second
//! thread while the caller commits the chunk before it, and the result
//! must be the inline schedule's byte for byte — the same
//! `store_checksum()` in memory and on disk, and an identical `db.wal`.
//! Taggers that exist before the seed sit on both sides of the first
//! chunk boundary (ids 4095, 4096, 4097) and must survive it untouched.

use itag_core::config::EngineConfig;
use itag_core::engine::ITagEngine;
use itag_core::records::{UserRecord, UserRole};
use itag_core::user_mgr::UserManager;
use itag_store::testutil::TestDir;
use std::path::Path;

const SEED: u64 = 0x5EED;
const EXISTING: [u32; 3] = [4095, 4096, 4097];

/// Registers taggers under their own names at the ids around the first
/// chunk boundary, seeds a population over them and returns the store
/// checksum, the records at those ids, and the WAL bytes when `dir` is
/// given.
fn seed_at(threads: usize, dir: Option<&Path>) -> (u64, Vec<UserRecord>, Option<Vec<u8>>) {
    let mut config = match dir {
        Some(dir) => EngineConfig::durable(SEED, dir.to_path_buf()),
        None => EngineConfig::in_memory(SEED),
    };
    config.threads = threads;
    let mut engine = ITagEngine::new(config).expect("engine");
    let users = UserManager::new(engine.store_handle());
    for id in EXISTING {
        users
            .register(UserRole::Tagger, id, &format!("old-{id}"))
            .expect("existing tagger");
    }
    engine.seed_taggers(0, 3 * 4096 + 100).expect("seed");
    engine.seed_taggers(40_000, 9_000).expect("second seed");
    let checksum = engine.store_checksum();
    let kept = EXISTING
        .iter()
        .map(|&id| users.get(UserRole::Tagger, id).expect("get").expect("kept"))
        .collect();
    drop((engine, users));
    let wal = dir.map(|d| std::fs::read(d.join("db.wal")).expect("wal"));
    (checksum, kept, wal)
}

#[test]
fn seeding_is_identical_at_every_thread_count() {
    let (reference, kept, _) = seed_at(1, None);
    for (id, record) in EXISTING.iter().zip(&kept) {
        assert_eq!(
            record.name,
            format!("old-{id}"),
            "seeding overwrote tagger {id}"
        );
    }
    for threads in [2, 8] {
        let (checksum, other, _) = seed_at(threads, None);
        assert_eq!(checksum, reference, "in memory, threads={threads}");
        assert_eq!(other, kept, "threads={threads}");
    }

    let dir = TestDir::new("seed-pipeline-1");
    let (durable, _, wal) = seed_at(1, Some(dir.path()));
    let wal = wal.expect("durable run has a WAL");
    assert_eq!(durable, reference, "durable store holds what memory holds");
    for threads in [2, 8] {
        let dir = TestDir::new(&format!("seed-pipeline-{threads}"));
        let (checksum, _, other) = seed_at(threads, Some(dir.path()));
        assert_eq!(checksum, reference, "durable, threads={threads}");
        assert!(
            other.as_deref() == Some(&wal[..]),
            "db.wal differs at threads={threads}"
        );
    }
}
