//! Engine-level twin of the store torture harness: WAL faults injected
//! under a *durable engine* surface as typed [`EngineError`]s (never
//! panics), classify as storage faults, and after reopening the engine
//! recovers to exactly the state a fault-free twin reaches by replaying
//! the acknowledged operations.
//!
//! This binary arms the process-global fault plan; every test here must
//! arm (see `crates/store/tests/fault_torture.rs` for the isolation
//! rule). Each test holds its guard from first line to last: it arms an
//! empty plan, swaps in the fault plan for the faulty phase and back to
//! the empty plan afterwards, so a parallel test's plan can never fire
//! inside its healthy prefix or its twin replays.

#![cfg(feature = "faults")]

use itag_core::config::{EngineConfig, StorageConfig};
use itag_core::engine::ITagEngine;
use itag_core::project::ProjectSpec;
use itag_core::EngineError;
use itag_model::delicious::DeliciousConfig;
use itag_store::faults::{self, FaultKind, FaultPlan, FaultSpec, Trigger};
use itag_store::testutil::TestDir;

const SEED: u64 = 0x1CDE;

/// Strict durability so an `Ok` from the engine means the operation is
/// on disk — that is what makes the replay twin exact.
fn config(dir: &std::path::Path) -> EngineConfig {
    EngineConfig {
        seed: SEED,
        storage: StorageConfig::Durable {
            dir: dir.to_path_buf(),
            durability: itag_store::Durability::Sync,
            sync_policy: itag_store::SyncPolicy::Always,
            checkpoint_every: 0,
        },
        ..EngineConfig::default()
    }
}

/// The healthy prefix both engines replay identically (same seed, same
/// calls → same persisted state; the determinism suite pins that).
fn healthy_prefix(engine: &mut ITagEngine) -> u32 {
    let provider = engine.register_provider("alice").expect("provider");
    let dataset = DeliciousConfig {
        resources: 20,
        vocab: 100,
        initial_posts: 80,
        eval_posts: 150,
        taggers: 8,
        seed: SEED,
        ..DeliciousConfig::default()
    }
    .generate()
    .dataset;
    let project = engine
        .add_project(provider, ProjectSpec::demo("torture", 40), dataset)
        .expect("project");
    engine.run(project, 25).expect("round");
    provider
}

#[test]
fn wal_fault_under_engine_is_typed_and_recovery_matches_replay_twin() {
    let mut guard = faults::arm(&FaultPlan::new());
    let dir = TestDir::new("engine-torture");
    let mut engine = ITagEngine::new(config(dir.path())).expect("engine");
    healthy_prefix(&mut engine);

    // Arm: every WAL append from here on fails. The next write-path
    // operation must fail with a typed storage fault.
    guard.rearm(&FaultPlan::new().site(
        faults::WAL_APPEND,
        FaultSpec::new(FaultKind::Eio, Trigger::After(0)),
    ));
    let err = engine
        .register_provider("bob")
        .expect_err("registration over a failing WAL must error");
    assert!(
        matches!(err, EngineError::Store(_)),
        "untyped error {err:?}"
    );
    assert!(
        err.is_storage_fault(),
        "{err} should classify as a storage fault"
    );
    assert!(guard.fired(faults::WAL_APPEND) >= 1);

    // The store is now broken: later writes fail too — still typed,
    // still storage faults (this is what latches server degradation).
    let err2 = engine
        .register_provider("carol")
        .expect_err("broken store must keep refusing writes");
    assert!(
        err2.is_storage_fault(),
        "{err2} should classify as a storage fault"
    );

    guard.rearm(&FaultPlan::new());
    drop(engine);

    // Reopen: the engine recovers, and its persisted state equals a
    // fault-free twin that replays exactly the acknowledged operations.
    let recovered = ITagEngine::new(config(dir.path())).expect("reopen after fault");
    let twin_dir = TestDir::new("engine-torture-twin");
    let mut twin = ITagEngine::new(config(twin_dir.path())).expect("twin");
    healthy_prefix(&mut twin);
    assert_eq!(
        recovered.store_checksum(),
        twin.store_checksum(),
        "recovered engine diverged from the acknowledged-operations twin"
    );

    // And the healed engine accepts writes again.
    let mut recovered = recovered;
    recovered
        .register_provider("dave")
        .expect("healed engine rejects writes");
}

/// Strict-durability config with cross-project group commits enabled:
/// one WAL frame carries several projects' merge batches.
fn batched_config(dir: &std::path::Path) -> EngineConfig {
    EngineConfig {
        commit_batch: Some(8),
        ..config(dir)
    }
}

/// Multi-project prefix for the group-commit torture legs: three
/// campaigns whose round merges share a group commit (budget 8 > 3).
fn batched_prefix(engine: &mut ITagEngine) {
    let provider = engine.register_provider("alice").expect("provider");
    for i in 0..3u64 {
        let dataset = DeliciousConfig {
            resources: 15,
            vocab: 80,
            initial_posts: 60,
            eval_posts: 100,
            taggers: 8,
            seed: SEED + i,
            ..DeliciousConfig::default()
        }
        .generate()
        .dataset;
        engine
            .add_project(
                provider,
                ProjectSpec::demo(&format!("batch-{i}"), 40),
                dataset,
            )
            .expect("project");
    }
    engine.run_all_with(20, 1, 1).expect("round");
}

/// A WAL fault during a *batched* group commit fails the whole group —
/// every member's round is a typed storage fault, none is half-applied —
/// and the reopened engine equals a fault-free twin that replays only
/// the acknowledged prefix.
#[test]
fn group_commit_fault_fails_the_whole_group_and_recovers_to_prefix() {
    let mut guard = faults::arm(&FaultPlan::new());
    let dir = TestDir::new("engine-group-fault");
    let mut engine = ITagEngine::new(batched_config(dir.path())).expect("engine");
    batched_prefix(&mut engine);

    guard.rearm(&FaultPlan::new().site(
        faults::WAL_APPEND,
        FaultSpec::new(FaultKind::Eio, Trigger::After(0)),
    ));
    let err = engine
        .run_all_with(20, 1, 1)
        .expect_err("a round over a failing WAL must error");
    assert!(
        err.is_storage_fault(),
        "{err} should classify as a storage fault"
    );
    assert!(guard.fired(faults::WAL_APPEND) >= 1);
    guard.rearm(&FaultPlan::new());
    drop(engine);

    // The failed group was all-or-nothing: recovery lands exactly on the
    // acknowledged prefix, digest-equal to a fault-free twin.
    let recovered = ITagEngine::new(batched_config(dir.path())).expect("reopen");
    let twin_dir = TestDir::new("engine-group-fault-twin");
    let mut twin = ITagEngine::new(batched_config(twin_dir.path())).expect("twin");
    batched_prefix(&mut twin);
    assert_eq!(
        recovered.store_checksum(),
        twin.store_checksum(),
        "recovered engine diverged from the acknowledged-prefix twin"
    );

    // Healed: the next batched round goes through.
    let mut recovered = recovered;
    recovered
        .run_all_with(20, 1, 1)
        .expect("healed engine must run batched rounds again");
}

/// Power loss mid-batched-frame: the WAL swallows bytes partway through
/// a group commit's frame. Recovery must be atomic at group-commit
/// granularity — the reopened store equals the twin *before* the torn
/// round or the twin *after* it, never a state in between where some
/// group members' merges survived and others vanished.
#[test]
fn crash_mid_batched_group_frame_recovers_atomically() {
    let mut guard = faults::arm(&FaultPlan::new());
    let dir = TestDir::new("engine-group-crash");
    let mut engine = ITagEngine::new(batched_config(dir.path())).expect("engine");
    batched_prefix(&mut engine);

    guard.rearm(&FaultPlan::new().site(
        faults::WAL_APPEND,
        FaultSpec::new(FaultKind::Crash(4_000), Trigger::Once),
    ));
    // Past the crash offset this round's group frame is torn; the engine
    // may or may not notice before power loss.
    let _ = engine.run_all_with(20, 1, 1);
    drop(engine);
    assert!(
        guard.fired(faults::WAL_APPEND) >= 1,
        "crash offset was never reached; the round wrote fewer WAL bytes than expected"
    );
    guard.rearm(&FaultPlan::new());

    let recovered = ITagEngine::new(batched_config(dir.path())).expect("reopen after crash");

    let twin_before_dir = TestDir::new("engine-group-crash-twin-before");
    let mut twin_before = ITagEngine::new(batched_config(twin_before_dir.path())).expect("twin");
    batched_prefix(&mut twin_before);
    let before = twin_before.store_checksum();
    twin_before.run_all_with(20, 1, 1).expect("twin round");
    let after = twin_before.store_checksum();

    let got = recovered.store_checksum();
    assert!(
        got == before || got == after,
        "recovered state is neither the pre-round nor the post-round twin: \
         group-commit recovery tore a batch"
    );

    let mut recovered = recovered;
    recovered
        .register_provider("post-crash")
        .expect("recovered engine must accept writes");
}

/// Crash-at-offset under the engine: commits keep reporting `Ok` while
/// bytes past the offset are silently swallowed (power loss), and the
/// reopened engine must land on a consistent recovered state — no
/// panics, no corruption errors, and the store serves reads and writes.
#[test]
fn wal_crash_under_engine_recovers_consistently() {
    let mut guard = faults::arm(&FaultPlan::new());
    let dir = TestDir::new("engine-crash");
    let mut engine = ITagEngine::new(config(dir.path())).expect("engine");
    healthy_prefix(&mut engine);

    guard.rearm(&FaultPlan::new().site(
        faults::WAL_APPEND,
        FaultSpec::new(FaultKind::Crash(40_000), Trigger::Once),
    ));
    // Keep writing; past the crash offset these land in the void.
    for i in 0..30 {
        let _ = engine.register_provider(&format!("t{i}"));
    }
    // Power loss: the engine dies with the fault still armed.
    drop(engine);
    guard.rearm(&FaultPlan::new());

    let mut recovered = ITagEngine::new(config(dir.path())).expect("reopen after crash");
    recovered
        .register_provider("post-crash")
        .expect("recovered engine must accept writes");
}
