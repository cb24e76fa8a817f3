//! Serving-layer fault injection: the `server.accept` and
//! `server.session_write` sites, and read-only degradation when the
//! engine reports a storage fault on the write path.
//!
//! Every test in this binary arms the process-global fault plan (the
//! `ArmedFaults` guard serializes them); no fault-free test may live
//! here. See `crates/store/tests/fault_torture.rs` for the rule. Each
//! test holds its guard from first line to last ([`hold`]) and swaps
//! plans under it, so a parallel test's plan never fires inside its
//! healthy phases (set-up, reconnects, shutdown).

#![cfg(feature = "faults")]

use std::time::Duration;

use itag_core::config::EngineConfig;
use itag_core::engine::ITagEngine;
use itag_server::client::{Client, ClientError, RetryPolicy};
use itag_server::proto::ErrorCode;
use itag_server::server::{serve, ServerConfig};
use itag_store::faults::{self, FaultKind, FaultPlan, FaultSpec, Trigger};
use itag_store::testutil::TestDir;

/// Takes the process-global plan for the whole test, with nothing armed.
fn hold() -> faults::ArmedFaults {
    faults::arm(&FaultPlan::new())
}

fn one(site: &'static str, kind: FaultKind, trigger: Trigger) -> FaultPlan {
    FaultPlan::new().site(site, FaultSpec::new(kind, trigger))
}

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(20),
        ..ServerConfig::default()
    }
}

/// An injected accept fault drops the connection on the floor; the
/// typed client's retry policy rides straight through it.
#[test]
fn accept_fault_drops_connection_and_retry_rides_through() {
    let mut guard = hold();
    let engine = ITagEngine::new(EngineConfig::in_memory(1)).expect("engine");
    let handle = serve(engine, ("127.0.0.1", 0), quick_cfg()).expect("serve");
    guard.rearm(&one(faults::SERVER_ACCEPT, FaultKind::Eio, Trigger::Once));

    let policy = RetryPolicy {
        max_attempts: 10,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(100),
        seed: 3,
    };
    let mut client =
        Client::connect_retrying(handle.addr(), 4 << 20, Duration::from_secs(2), policy)
            .expect("retry should get past the dropped accept");
    client.ping().expect("ping");
    assert_eq!(
        guard.fired(faults::SERVER_ACCEPT),
        1,
        "accept fault never fired"
    );
    guard.rearm(&FaultPlan::new());

    let report = handle.shutdown();
    assert_eq!(report.stats.accept_faults, 1);
    assert_eq!(report.stats.worker_panics, 0);
}

/// An injected session-write fault cuts the session mid-response; the
/// client sees a transient connection error (not a hang, not garbage)
/// and the failure is counted.
#[test]
fn session_write_fault_cuts_session_and_is_counted() {
    let mut guard = hold();
    let engine = ITagEngine::new(EngineConfig::in_memory(2)).expect("engine");
    let handle = serve(engine, ("127.0.0.1", 0), quick_cfg()).expect("serve");

    // Nth(2): the HelloOk write passes, the first Pong write dies.
    guard.rearm(&one(
        faults::SERVER_SESSION_WRITE,
        FaultKind::Eio,
        Trigger::Nth(2),
    ));
    let mut client = Client::connect(handle.addr()).expect("handshake passes");
    let err = client.ping().expect_err("pong write should be cut");
    assert!(
        err.is_transient(),
        "cut session should look transient, got {err}"
    );
    assert_eq!(guard.fired(faults::SERVER_SESSION_WRITE), 1);
    guard.rearm(&FaultPlan::new());

    // The server itself is healthy: fresh sessions serve normally.
    let mut again = Client::connect(handle.addr()).expect("reconnect");
    again.ping().expect("ping after fault cleared");

    let report = handle.shutdown();
    assert_eq!(report.stats.session_write_failures, 1);
    assert_eq!(report.stats.worker_panics, 0);
}

/// The degradation contract end to end: a storage fault on a write
/// request flips the server read-only. Reads keep serving, writes get
/// the typed `Degraded` code (and are counted), and the latch is visible
/// on the handle.
#[test]
fn storage_fault_degrades_server_to_read_only() {
    let mut guard = hold();
    let dir = TestDir::new("server-degraded");
    let engine =
        ITagEngine::new(EngineConfig::durable(3, dir.path().to_path_buf())).expect("engine");
    let handle = serve(engine, ("127.0.0.1", 0), quick_cfg()).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Healthy first: a write lands, a read answers.
    let provider = client.register_provider("alice").expect("healthy write");
    client.ping().expect("healthy read");
    assert!(!handle.degraded());

    // Break the WAL under the engine. After(0) fires on every poll, so
    // the store stays broken for as long as the guard lives.
    guard.rearm(&one(faults::WAL_APPEND, FaultKind::Eio, Trigger::After(0)));
    let err = client
        .register_provider("bob")
        .expect_err("write over a broken WAL must fail");
    match err {
        ClientError::Server(w) => assert_eq!(
            w.code,
            ErrorCode::Engine,
            "first failure carries the engine error: {w}"
        ),
        other => panic!("expected a typed server error, got {other}"),
    }
    assert!(handle.degraded(), "storage fault did not latch degradation");

    // Writes are now refused up front with the dedicated code — the
    // engine (and its broken store) is not even consulted.
    let fired_before = guard.fired(faults::WAL_APPEND);
    for _ in 0..3 {
        match client.register_provider("carol") {
            Err(ClientError::Server(w)) => assert_eq!(w.code, ErrorCode::Degraded, "{w}"),
            other => panic!("expected Degraded refusal, got {other:?}"),
        }
    }
    assert_eq!(
        guard.fired(faults::WAL_APPEND),
        fired_before,
        "degraded refusals must not touch the store"
    );

    // Reads keep serving the applied state.
    client.ping().expect("read while degraded");
    let _ = provider; // the registered id remains visible via reads
    client.checksum().expect("checksum while degraded");
    guard.rearm(&FaultPlan::new());

    // Still latched after the fault clears — degradation is an operator
    // decision to undo, not something the server un-decides silently.
    assert!(handle.degraded());
    handle.set_degraded(false);
    assert!(!handle.degraded());

    let report = handle.shutdown();
    assert_eq!(report.stats.degraded_refusals, 3);
    assert_eq!(report.stats.worker_panics, 0);
}
