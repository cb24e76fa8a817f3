//! Satellite of the WAL crash-proptest family: drives the fault layer's
//! byte-level kinds across **every byte offset of the last frame** and
//! pins the recovery result to the exact same prefix the torn-tail
//! suite guarantees for a file truncated at that offset.
//!
//! Every test in this binary arms the global fault plan (dedicated
//! arming binary — see `fault_torture.rs` for the isolation rule), and
//! holds its guard for the whole test: it arms an empty plan first and
//! swaps plans under the held guard, so a parallel test's plan can never
//! fire inside its fault-free reference writes.

#![cfg(feature = "faults")]

use itag_store::faults::{self, FaultKind, FaultPlan, FaultSpec, Trigger};
use itag_store::testutil::TestDir;
use itag_store::wal::{self, Wal};
use itag_store::StoreError;

fn payload(i: u32) -> Vec<u8> {
    // Variable-length payloads so frame boundaries are irregular.
    let mut p = format!("frame-{i:03}-").into_bytes();
    p.extend(std::iter::repeat_n(b'x', (i as usize * 7) % 23));
    p
}

/// Builds a fault-free WAL with `n` frames and returns its raw bytes.
fn reference_bytes(n: u32) -> Vec<u8> {
    let dir = TestDir::new("sweep-ref");
    let path = dir.path().join("ref.wal");
    let mut w = Wal::create(&path).expect("create");
    for i in 0..n {
        w.append(&payload(i)).expect("append");
    }
    w.sync().expect("sync");
    drop(w);
    std::fs::read(&path).expect("read")
}

/// Takes the process-global plan for the whole test, with nothing armed.
fn hold() -> faults::ArmedFaults {
    faults::arm(&FaultPlan::new())
}

fn one(site: &'static str, kind: FaultKind, trigger: Trigger) -> FaultPlan {
    FaultPlan::new().site(site, FaultSpec::new(kind, trigger))
}

/// Crash injected at byte offset `c` must recover exactly what the
/// torn-tail contract recovers from a file truncated at `c` — for every
/// offset inside the last frame (and a margin before it).
#[test]
fn crash_at_every_offset_of_last_frame_matches_torn_tail_truncation() {
    const N: u32 = 6;
    let mut guard = hold();
    let reference = reference_bytes(N);
    let last_frame_len = 8 + payload(N - 1).len(); // header + body
    let sweep_start = reference.len() - last_frame_len - 4; // margin into frame N-2
    let torn_dir = TestDir::new("sweep-torn");

    for cut in sweep_start..reference.len() {
        // Expected: scan of the reference bytes truncated at `cut`.
        let torn_path = torn_dir.path().join(format!("torn-{cut}.wal"));
        std::fs::write(&torn_path, &reference[..cut]).expect("write torn");
        let expected = wal::scan(&torn_path).expect("scan torn");

        // Actual: a WAL written with crash-at-offset `cut` armed, the
        // writer dropped while the fault is live (power loss).
        let dir = TestDir::new("sweep-crash");
        let path = dir.path().join("crash.wal");
        guard.rearm(&one(
            faults::WAL_APPEND,
            FaultKind::Crash(cut as u64),
            Trigger::Once,
        ));
        let mut w = Wal::create(&path).expect("create");
        for i in 0..N {
            w.append(&payload(i))
                .expect("append (crash swallows silently)");
        }
        // Flush is swallowed past the offset too; sync may "succeed".
        let _ = w.sync();
        drop(w);
        guard.rearm(&FaultPlan::new());

        let got = wal::scan(&path).expect("scan crashed");
        assert_eq!(
            got.frames, expected.frames,
            "offset {cut}: crash recovery diverged from torn-tail truncation"
        );
        assert_eq!(
            got.valid_len, expected.valid_len,
            "offset {cut}: valid prefix length diverged"
        );
    }
}

/// A short write on every single poll must be fully absorbed by the
/// `write_all` retry loop: all frames recover.
#[test]
fn short_write_on_every_poll_recovers_every_frame() {
    let mut guard = hold();
    let dir = TestDir::new("sweep-short");
    let path = dir.path().join("short.wal");
    guard.rearm(&one(
        faults::WAL_APPEND,
        FaultKind::Short,
        Trigger::Every(1),
    ));
    let mut w = Wal::create(&path).expect("create");
    for i in 0..40 {
        w.append(&payload(i)).expect("append");
    }
    w.sync().expect("sync");
    drop(w);
    assert!(guard.fired(faults::WAL_APPEND) > 0, "short never fired");
    guard.rearm(&FaultPlan::new());

    let s = wal::scan(&path).expect("scan");
    assert_eq!(s.frames.len(), 40);
    assert!(!s.truncated_tail);
    for (i, f) in s.frames.iter().enumerate() {
        assert_eq!(*f, payload(i as u32), "frame {i} corrupted by short writes");
    }
}

/// ENOSPC on the n-th append poll recovers exactly n-1 frames — the
/// call-layer check fails the operation before any bytes are written.
#[test]
fn enospc_on_nth_append_recovers_exactly_the_preceding_frames() {
    let mut guard = hold();
    for n in [1u64, 3, 10] {
        let dir = TestDir::new("sweep-enospc");
        let path = dir.path().join("enospc.wal");
        guard.rearm(&one(faults::WAL_APPEND, FaultKind::Enospc, Trigger::Nth(n)));
        let mut w = Wal::create(&path).expect("create");
        let mut failed_at = None;
        for i in 0..10u32 {
            match w.append(&payload(i)) {
                Ok(()) => {}
                Err(e) => {
                    assert!(matches!(e, StoreError::Io(_)), "untyped error {e:?}");
                    failed_at = Some(i);
                    break;
                }
            }
        }
        assert_eq!(
            failed_at,
            Some(n as u32 - 1),
            "fault fired at the wrong poll"
        );
        w.sync().expect("sync of surviving frames");
        drop(w);
        guard.rearm(&FaultPlan::new());

        let s = wal::scan(&path).expect("scan");
        assert_eq!(
            s.frames.len(),
            n as usize - 1,
            "nth({n}): wrong number of recovered frames"
        );
        assert!(!s.truncated_tail);
    }
}
