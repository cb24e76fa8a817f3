//! Fault-torture harness for the storage layer: for every named storage
//! fault site × fault kind, run a scripted workload with the fault
//! armed, assert the failure surfaces as a **typed error, never a
//! panic**, then reopen/recover and assert the store digest is
//! identical to a fault-free twin that stopped at the same durable
//! point.
//!
//! Every test in this binary arms the process-global fault plan, so the
//! whole binary is a dedicated isolation domain: the [`ArmedFaults`]
//! guard serializes the tests against each other, and no fault-free
//! store test lives here. Each test holds its guard from first line to
//! last ([`hold`]) and swaps plans under it, so a parallel test's plan
//! can never fire inside its set-up, reopen or twin replays.

#![cfg(feature = "faults")]

use itag_store::db::{Store, StoreOptions};
use itag_store::faults::{self, ArmedFaults, FaultKind, FaultPlan, FaultSpec, Trigger};
use itag_store::testutil::TestDir;
use itag_store::{Durability, StoreError, SyncPolicy, TableId};

const T: TableId = TableId(3);

/// Strict options: `Ok` from a commit means durable (one fsync per
/// group), so the set of successful puts *is* the durable point.
fn opts() -> StoreOptions {
    StoreOptions {
        durability: Durability::Sync,
        sync_policy: SyncPolicy::Always,
        checkpoint_every: 0,
        shards: 2,
        ..StoreOptions::default()
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("key-{i:04}").into_bytes()
}

fn val(i: u32) -> Vec<u8> {
    format!("value-{i:04}-{}", i.wrapping_mul(2654435761)).into_bytes()
}

/// Runs `n` single-put commits against `store`, returning the indices
/// that committed `Ok` and every error encountered (all must be typed —
/// a panic would abort the test on the spot).
fn workload(store: &Store, n: u32) -> (Vec<u32>, Vec<StoreError>) {
    let mut ok = Vec::new();
    let mut errs = Vec::new();
    for i in 0..n {
        match store.put(T, key(i), val(i)) {
            Ok(()) => ok.push(i),
            Err(e) => errs.push(e),
        }
    }
    (ok, errs)
}

/// Builds the fault-free twin: a fresh durable store holding exactly the
/// given puts, and returns its content digest.
fn twin_digest(ok: &[u32]) -> u64 {
    let dir = TestDir::new("torture-twin");
    let store = Store::open(dir.path(), opts()).expect("twin open");
    for &i in ok {
        store.put(T, key(i), val(i)).expect("twin put");
    }
    store.content_checksum()
}

/// Takes the process-global plan for the whole test, with nothing armed.
fn hold() -> ArmedFaults {
    faults::arm(&FaultPlan::new())
}

fn one(site: &'static str, kind: FaultKind, trigger: Trigger) -> FaultPlan {
    FaultPlan::new().site(site, FaultSpec::new(kind, trigger))
}

/// The shared scenario for call-layer kinds on the WAL sites: arm, run,
/// expect typed errors after the trigger, reopen, compare digests.
fn torture_wal_site(site: &'static str, kind: FaultKind) {
    let mut guard = hold();
    let dir = TestDir::new("torture-wal");
    let store = Store::open(dir.path(), opts()).expect("open");
    guard.rearm(&one(site, kind, Trigger::Nth(8)));

    let (ok, errs) = workload(&store, 20);
    assert!(!errs.is_empty(), "{site}: fault never surfaced");
    assert!(ok.len() < 20, "{site}: every put succeeded despite fault");
    assert!(guard.fired(site) >= 1, "{site}: trigger never fired");
    // The triggering commit reports the root I/O error; once the store
    // is broken, later commits fail with `Broken`. Both are retryable.
    for e in &errs {
        assert!(
            matches!(e, StoreError::Io(_) | StoreError::Broken(_)),
            "{site}: untyped/unexpected error {e:?}"
        );
        assert!(e.is_retryable(), "{site}: {e} should be retryable");
    }
    assert!(
        matches!(errs[0], StoreError::Io(_)),
        "{site}: first failure should carry the root I/O error, got {:?}",
        errs[0]
    );

    drop(store);
    guard.rearm(&FaultPlan::new());

    // Reopening heals the store. The recovered state must be a *prefix*
    // of the workload that contains every acknowledged commit. It may
    // contain one unacknowledged commit beyond that: a failed fsync is
    // ambiguous (the frame reached the file before the sync error), and
    // surviving is the legal side of that ambiguity — losing an
    // acknowledged commit is not.
    let recovered = Store::open(dir.path(), opts()).expect("reopen after fault");
    let k = recovered.stats().recovered_entries as usize;
    assert!(
        k >= ok.len(),
        "{site}: lost acknowledged commits ({k} < {})",
        ok.len()
    );
    assert!(k < 20, "{site}: the broken store kept accepting appends");
    let prefix: Vec<u32> = (0..k as u32).collect();
    assert_eq!(
        ok,
        prefix[..ok.len()],
        "{site}: acknowledged commits are not a prefix"
    );
    assert_eq!(
        recovered.content_checksum(),
        twin_digest(&prefix),
        "{site}: recovered digest diverged from the durable-prefix twin"
    );
    // And the healed store accepts writes again.
    recovered
        .put(T, b"post-recovery".to_vec(), b"ok".to_vec())
        .expect("healed store rejects writes");
}

#[test]
fn wal_append_enospc_is_typed_and_recovery_matches_twin() {
    torture_wal_site(faults::WAL_APPEND, FaultKind::Enospc);
}

#[test]
fn wal_append_eio_is_typed_and_recovery_matches_twin() {
    torture_wal_site(faults::WAL_APPEND, FaultKind::Eio);
}

#[test]
fn wal_sync_enospc_is_typed_and_recovery_matches_twin() {
    torture_wal_site(faults::WAL_SYNC, FaultKind::Enospc);
}

#[test]
fn wal_sync_eio_is_typed_and_recovery_matches_twin() {
    torture_wal_site(faults::WAL_SYNC, FaultKind::Eio);
}

/// EINTR and short writes are *absorbed* kinds: the retry loops in
/// `write_all`/`BufWriter` must soak them up, so the workload succeeds,
/// the injection demonstrably happened, and the store is byte-identical
/// to a fault-free twin of the **full** workload.
#[test]
fn wal_eintr_and_short_writes_are_absorbed_by_retries() {
    let mut guard = hold();
    for kind in [FaultKind::Eintr, FaultKind::Short] {
        let dir = TestDir::new("torture-absorb");
        let store = Store::open(dir.path(), opts()).expect("open");
        guard.rearm(&one(faults::WAL_APPEND, kind, Trigger::Every(3)));

        let (ok, errs) = workload(&store, 20);
        assert!(errs.is_empty(), "{kind:?}: absorbed kind surfaced {errs:?}");
        assert_eq!(ok.len(), 20);
        assert!(guard.fired(faults::WAL_APPEND) >= 1, "{kind:?} never fired");

        drop(store);
        guard.rearm(&FaultPlan::new());

        let recovered = Store::open(dir.path(), opts()).expect("reopen");
        let all: Vec<u32> = (0..20).collect();
        assert_eq!(
            recovered.content_checksum(),
            twin_digest(&all),
            "{kind:?}: absorbed faults changed the durable contents"
        );
    }
}

/// Crash-at-byte-offset on the WAL: every write past the offset is
/// silently swallowed (power loss), so commits keep reporting `Ok`.
/// After the "crash" (store dropped while armed), recovery must land on
/// exactly the prefix the torn-tail contract pins, and the recovered
/// contents must match a twin of that prefix.
#[test]
fn wal_crash_at_offset_recovers_to_durable_prefix() {
    let mut guard = hold();
    for offset in [8u64, 64, 200, 500] {
        let dir = TestDir::new("torture-crash");
        let store = Store::open(dir.path(), opts()).expect("open");
        guard.rearm(&one(
            faults::WAL_APPEND,
            FaultKind::Crash(offset),
            Trigger::Once,
        ));

        let (ok, errs) = workload(&store, 20);
        assert!(errs.is_empty(), "crash swallows silently, got {errs:?}");
        assert_eq!(ok.len(), 20);

        // Simulated power loss: the store handle dies while the fault is
        // still armed, so even drop-time flushes are swallowed.
        drop(store);
        assert!(
            guard.fired(faults::WAL_APPEND) >= 1,
            "offset {offset} never crossed"
        );
        guard.rearm(&FaultPlan::new());

        let recovered = Store::open(dir.path(), opts()).expect("reopen after crash");
        let k = recovered.stats().recovered_entries as u32;
        assert!(k < 20, "offset {offset}: crash cut nothing");
        let prefix: Vec<u32> = (0..k).collect();
        assert_eq!(
            recovered.content_checksum(),
            twin_digest(&prefix),
            "offset {offset}: recovered digest is not the {k}-put prefix"
        );
    }
}

/// Checkpoint faults (both the whole-operation kind and a mid-stream
/// `nth` trigger) fail typed, leave the store fully usable, and never
/// install a torn snapshot over the good state.
#[test]
fn checkpoint_stream_faults_are_typed_and_do_not_poison() {
    let mut guard = hold();
    for trigger in [Trigger::Once, Trigger::Nth(2)] {
        let dir = TestDir::new("torture-ckpt");
        let store = Store::open(dir.path(), opts()).expect("open");
        let (ok, errs) = workload(&store, 10);
        assert!(errs.is_empty());

        guard.rearm(&one(faults::CHECKPOINT_STREAM, FaultKind::Eio, trigger));
        let err = store.checkpoint().expect_err("checkpoint should fail");
        assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
        assert!(guard.fired(faults::CHECKPOINT_STREAM) >= 1);
        guard.rearm(&FaultPlan::new());

        // A failed checkpoint breaks nothing: writes continue, and after
        // reopen the contents match the full fault-free twin.
        store
            .put(T, key(100), val(100))
            .expect("store poisoned by checkpoint fault");
        store.checkpoint().expect("retry after disarm");
        drop(store);

        let recovered = Store::open(dir.path(), opts()).expect("reopen");
        let mut all = ok;
        all.push(100);
        assert_eq!(recovered.content_checksum(), twin_digest(&all));
    }
}

/// The reference snapshot writer: a whole-operation fault is typed, and
/// byte-level crash faults can only tear the temp file — the install
/// rename never happens, so the target path stays absent/intact.
#[test]
fn snapshot_write_faults_never_install_torn_snapshots() {
    use itag_store::snapshot::{self, Snapshot, TableDump};
    let dir = TestDir::new("torture-snapwrite");
    let path = dir.path().join("db.snp");
    let snap = Snapshot {
        last_lsn: 7,
        tables: vec![TableDump {
            table: T,
            entries: vec![(b"k".to_vec(), b"v".to_vec())],
        }],
    };

    let mut guard = hold();
    guard.rearm(&one(
        faults::SNAPSHOT_WRITE,
        FaultKind::Enospc,
        Trigger::Once,
    ));
    let err = snapshot::write(&path, &snap).expect_err("write should fail");
    assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
    assert_eq!(guard.fired(faults::SNAPSHOT_WRITE), 1);
    guard.rearm(&FaultPlan::new());
    assert!(
        snapshot::read(&path).expect("read").is_none(),
        "failed write installed a file"
    );

    // Crash mid-payload: writes swallowed, sync "succeeds", but the temp
    // file is torn — and a torn temp file must never install.
    guard.rearm(&one(
        faults::SNAPSHOT_WRITE,
        FaultKind::Crash(10),
        Trigger::Once,
    ));
    let res = snapshot::write(&path, &snap);
    guard.rearm(&FaultPlan::new());
    match res {
        // The producer noticed nothing (power loss): the installed bytes
        // are torn, and `read` must say so with a typed error.
        Ok(()) => {
            assert!(matches!(snapshot::read(&path), Err(StoreError::Corrupt(_))));
            std::fs::remove_file(&path).ok();
        }
        Err(e) => assert!(matches!(e, StoreError::Io(_)), "got {e:?}"),
    }

    // Disarmed, the same write succeeds and roundtrips.
    snapshot::write(&path, &snap).expect("clean write");
    assert_eq!(snapshot::read(&path).expect("read").expect("some"), snap);
}

/// Recovery faults: a store that cannot scan its WAL (or load its
/// snapshot) reports a typed error from `open`, and the next open —
/// fault cleared — recovers the identical durable contents.
#[test]
fn recovery_scan_fault_is_typed_and_next_open_heals() {
    let mut guard = hold();
    let dir = TestDir::new("torture-recov");
    let store = Store::open(dir.path(), opts()).expect("open");
    let (ok, errs) = workload(&store, 12);
    assert!(errs.is_empty());
    // Half the workload behind a checkpoint so both recovery readers
    // (snapshot load + WAL scan) run on reopen.
    store.checkpoint().expect("checkpoint");
    for i in 12..16 {
        store.put(T, key(i), val(i)).expect("post-checkpoint put");
    }
    drop(store);

    guard.rearm(&one(faults::RECOVERY_SCAN, FaultKind::Eio, Trigger::Once));
    let Err(err) = Store::open(dir.path(), opts()) else {
        panic!("open should fail");
    };
    assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
    assert_eq!(guard.fired(faults::RECOVERY_SCAN), 1);

    // Second trigger position: fail the *WAL scan* (the snapshot load
    // consumes the first poll).
    guard.rearm(&one(faults::RECOVERY_SCAN, FaultKind::Eio, Trigger::Nth(2)));
    let Err(err) = Store::open(dir.path(), opts()) else {
        panic!("open should fail on wal scan");
    };
    assert!(matches!(err, StoreError::Io(_)), "got {err:?}");
    guard.rearm(&FaultPlan::new());

    let recovered = Store::open(dir.path(), opts()).expect("healed open");
    let mut all: Vec<u32> = ok;
    all.extend(12..16);
    assert_eq!(recovered.content_checksum(), twin_digest(&all));
}

/// A broken store stays consistently broken until reopened: every
/// post-fault commit fails `Broken` (no flapping), reads still work.
#[test]
fn broken_store_fails_closed_until_reopen() {
    let mut guard = hold();
    let dir = TestDir::new("torture-broken");
    let store = Store::open(dir.path(), opts()).expect("open");
    guard.rearm(&one(faults::WAL_APPEND, FaultKind::Eio, Trigger::Nth(3)));
    let (ok, errs) = workload(&store, 6);
    assert_eq!(ok, vec![0, 1]);
    assert_eq!(errs.len(), 4);
    guard.rearm(&FaultPlan::new());
    // Disarmed, but the store stays broken — the log can't be trusted.
    let err = store
        .put(T, key(99), val(99))
        .expect_err("broken store accepted a write");
    assert!(matches!(err, StoreError::Broken(_)), "got {err:?}");
    // Reads keep serving the applied state.
    assert_eq!(
        store.get(T, &key(0)).expect("read"),
        Some(bytes::Bytes::from(val(0)))
    );
    assert!(store.get(T, &key(3)).expect("read").is_none());
}
