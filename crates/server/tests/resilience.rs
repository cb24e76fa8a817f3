//! Serving-layer resilience without fault injection: graceful drain
//! under a streaming client, idle-session reaping, prompt shutdown of an
//! idle server, shed-failure accounting, client retry against a genuinely
//! busy server, and large frames that never wait on a delayed ACK.
//!
//! Nothing in this binary arms the fault layer, so these tests run
//! concurrently like any other integration tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use itag_core::config::EngineConfig;
use itag_core::engine::ITagEngine;
use itag_core::project::ProjectSpec;
use itag_server::client::{Client, RetryPolicy};
use itag_server::frame::write_frame;
use itag_server::proto::{DatasetSpec, Request, PROTOCOL_VERSION};
use itag_server::server::{serve, ServerConfig};

fn engine(seed: u64) -> ITagEngine {
    ITagEngine::new(EngineConfig::in_memory(seed)).expect("engine")
}

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(20),
        ..ServerConfig::default()
    }
}

/// The drain contract: a client that streams requests forever must not
/// stall shutdown past the drain deadline. Before the deadline existed
/// this test hung — the stop flag was only polled on read *timeouts*,
/// which a busy session never hits.
#[test]
fn shutdown_is_bounded_against_a_streaming_client() {
    // Long read timeout relative to the drain deadline: once shutdown is
    // requested, the only way out of a continuously-fed session is the
    // deadline cut, not an incidental read timeout.
    let cfg = ServerConfig {
        drain_deadline: Duration::from_millis(150),
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let handle = serve(engine(1), ("127.0.0.1", 0), cfg).expect("serve");
    let addr = handle.addr();

    // A raw session that pumps Ping frames flat out; a second thread
    // drains responses so backpressure never blocks the server's writes.
    let streamer = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut w = stream.try_clone().expect("clone");
        let mut r = stream;
        let drainer = std::thread::spawn(move || {
            let mut scratch = [0u8; 4096];
            loop {
                match r.read(&mut scratch) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
            }
        });
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        write_frame(&mut w, &hello, 1 << 20).expect("hello");
        w.flush().expect("flush");
        while write_frame(&mut w, &Request::Ping, 1 << 20).is_ok() && w.flush().is_ok() {}
        drainer.join().expect("drainer");
    });

    // Let the streamer get going, then demand shutdown and time it.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    let report = handle.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown took {took:?} against a streaming client — drain deadline is not working"
    );
    assert_eq!(
        report.stats.drain_cut, 1,
        "the streaming session should have been cut at the deadline"
    );
    assert_eq!(report.stats.worker_panics, 0);
    streamer.join().expect("streamer thread");
}

/// A client that stops sending but never times out is still drained
/// promptly on shutdown, and is *not* counted as drain-cut (nothing was
/// in flight).
#[test]
fn idle_sessions_end_on_shutdown_without_drain_cut() {
    let handle = serve(engine(2), ("127.0.0.1", 0), quick_cfg()).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    // Session now sits idle in its read loop.
    std::thread::sleep(Duration::from_millis(60));
    let report = handle.shutdown();
    assert_eq!(report.stats.drain_cut, 0);
    assert_eq!(report.stats.worker_panics, 0);
}

/// The acceptor blocks in `accept`, and `shutdown` wakes it with one
/// loopback connect to the bound port. A server that never saw a session
/// must therefore shut down promptly, for a loopback bind and for an
/// unspecified one (`0.0.0.0`, which `shutdown` maps to loopback), and
/// the wake-up connection must not be served as a session.
#[test]
fn shutting_down_an_idle_server_returns_within_a_second() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let handle = serve(engine(6), bind, ServerConfig::default()).expect("serve");
        let (tx, rx) = std::sync::mpsc::channel();
        let started = Instant::now();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(handle.shutdown().stats);
        });
        let stats = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown of an idle server hung");
        let took = started.elapsed();
        waiter.join().expect("shutdown thread panicked");
        assert!(
            took < Duration::from_secs(1),
            "{bind}: shutdown took {took:?}"
        );
        assert_eq!(stats.served, 0, "{bind}: the wake-up connection was served");
        assert_eq!(stats.worker_panics, 0);
    }
}

/// Frames larger than the 8 KiB `BufWriter` buffer leave as a 1–3 byte
/// length prefix and then the payload. With Nagle on, the payload waits
/// for the peer's delayed ACK of the prefix, ≈40 ms on Linux, on every
/// such frame. Both ends set `TCP_NODELAY`: the client for large requests
/// (a 32 KiB provider name) and the server for large responses (a
/// project listing carrying a 32 KiB project name). Either end without
/// it puts the median round trip of this loop at 40 ms or more.
#[test]
fn large_frames_do_not_wait_for_delayed_acks() {
    let handle = serve(engine(7), ("127.0.0.1", 0), ServerConfig::default()).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let big = "x".repeat(32 << 10);
    let provider = client.register_provider(&big).expect("register");
    client
        .create_project(
            provider,
            ProjectSpec::demo(&big, 10),
            DatasetSpec::small(3),
            false,
        )
        .expect("project");

    let mut rounds = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        let listed = client.browse_projects().expect("browse");
        assert_eq!(listed.len(), 1);
        client.register_provider(&big).expect("register");
        rounds.push(t.elapsed());
    }
    rounds.sort();
    let median = rounds[rounds.len() / 2];
    assert!(
        median < Duration::from_millis(30),
        "large frames stalled: median round trip {median:?} ({rounds:?})"
    );
    client.quit().expect("quit");
    handle.shutdown();
}

/// Idle reaping: with `idle_timeout` set, a session that goes quiet is
/// cut and counted; activity resets the clock.
#[test]
fn idle_sessions_are_reaped_after_the_timeout() {
    let cfg = ServerConfig {
        idle_timeout: Some(Duration::from_millis(120)),
        ..quick_cfg()
    };
    let handle = serve(engine(3), ("127.0.0.1", 0), cfg).expect("serve");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Stay just under the limit twice: activity must reset the clock.
    for _ in 0..2 {
        std::thread::sleep(Duration::from_millis(70));
        client.ping().expect("active session must not be reaped");
    }

    // Now go quiet past the limit; the server should cut us.
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().reaped_idle == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.stats().reaped_idle, 1, "idle session never reaped");
    assert!(client.ping().is_err(), "reaped session still answers");
    handle.shutdown();
}

/// Satellite regression: shed()'s best-effort Busy frame can itself fail
/// to write, and that failure must be counted, not dropped. A 1-byte
/// frame cap makes the encoded Busy response overflow `write_frame`
/// deterministically, and zero workers + zero queue capacity makes every
/// connection shed.
#[test]
fn failed_busy_writes_are_counted_not_swallowed() {
    let cfg = ServerConfig {
        workers: 0,
        queue_capacity: 0,
        max_frame: 0,
        ..quick_cfg()
    };
    let handle = serve(engine(4), ("127.0.0.1", 0), cfg).expect("serve");

    for _ in 0..3 {
        // Raw connect: the server sheds before reading anything, so no
        // handshake is needed (and a typed Client would refuse the
        // zero frame cap anyway).
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        assert!(buf.is_empty(), "no Busy frame fits in a zero-byte cap");
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.stats().shed_write_failures < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.stats();
    assert_eq!(stats.shed, 3);
    assert_eq!(
        stats.shed_write_failures, 3,
        "failed Busy writes were silently dropped"
    );
    handle.shutdown();
}

/// Client retry end-to-end: a server with no capacity sheds the first
/// connections; once capacity exists, `connect_retrying` gets through
/// where a single-shot connect already failed.
#[test]
fn connect_retrying_rides_out_busy() {
    // One worker, one queue slot: with the worker pinned and the slot
    // full, every further connection sheds with Busy.
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..quick_cfg()
    };
    let handle = serve(engine(5), ("127.0.0.1", 0), cfg).expect("serve");
    let addr = handle.addr();

    // Pin the single worker with a live session.
    let mut pin = Client::connect(addr).expect("first connect");
    pin.ping().expect("ping");

    // Fill the queue slot with a connection that is already closed by
    // the time a worker reaches it (instant EOF, no worker time wasted).
    let filler = TcpStream::connect(addr).expect("filler connect");
    std::thread::sleep(Duration::from_millis(50));
    drop(filler);

    // Single-shot connects are shed now.
    assert!(
        matches!(Client::connect(addr), Err(itag_server::ClientError::Busy)),
        "expected Busy while the only worker is pinned"
    );

    // Release the worker shortly; the retrying connect should get in.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        pin.quit().expect("quit");
    });
    let policy = RetryPolicy {
        max_attempts: 20,
        base: Duration::from_millis(25),
        cap: Duration::from_millis(200),
        seed: 9,
    };
    let mut client = Client::connect_retrying(addr, 4 << 20, Duration::from_secs(5), policy)
        .expect("retrying connect should eventually get through");
    client.ping().expect("ping after retry");
    releaser.join().expect("releaser");

    let report = handle.shutdown();
    assert!(
        report.stats.shed >= 1,
        "the scenario never exercised shedding"
    );
}
