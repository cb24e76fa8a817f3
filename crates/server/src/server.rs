//! The serving loop: one acceptor, a fixed worker pool, one engine.
//!
//! Sessions are whole-connection units of work: the acceptor hands each
//! fresh `TcpStream` to the pool through the bounded [`SessionQueue`],
//! shedding with [`Response::Busy`] when the queue is full, and a worker
//! serves the connection's frames until `Quit`, disconnect, or a framing
//! violation. The engine sits behind one `server.engine` lock (lockcheck
//! class) acquired per request — never across a socket read or write, so
//! a slow client cannot hold the engine hostage.
//!
//! # Snapshot reads
//!
//! Dashboard verbs ([`Request::is_snapshot_read`]: monitor, table,
//! browse, export) skip the engine mutex entirely: they run against an
//! [`EngineSnapshot`] held in an epoch-keyed cache
//! (`server.snapshot_cache`), re-captured only when the store's commit
//! epoch has advanced and served stale (bounded by one pipeline flush)
//! when the engine is mid-round. Serialization and socket writes happen
//! on the `Arc`'d snapshot after every lock is dropped, so a slow
//! dashboard client costs the write path nothing. Every dashboard answer
//! comes from one function over an `EngineSnapshot`: with
//! `ITAG_SNAPSHOT_READS=0` (or [`ServerConfig::snapshot_reads`]) the
//! capture is taken fresh under the engine mutex instead of served from
//! the cache, for A/B and bisection. The loopback byte-identity suite
//! holds the wire answers to the in-process ones.
//!
//! Framing errors drop the session; payload-decode errors answer
//! [`ErrorCode::Malformed`] and keep the session (frame alignment is
//! intact); engine errors answer [`ErrorCode::Engine`] and keep the
//! session. Nothing a client sends can panic the server — that contract
//! is exercised by `tests/wire_adversarial.rs`.
//!
//! # Degradation and drain
//!
//! Two resilience behaviours live here. **Read-only degradation**: when
//! the engine reports a storage fault on a write request (the store's
//! retryable `Io`/`Broken` family), the server flips a latch and from
//! then on refuses writes with [`ErrorCode::Degraded`] while reads keep
//! serving from the applied in-memory state — a half-alive server beats
//! a dead one, and the latch is visible to operators via
//! [`ServerHandle::degraded`]. **Graceful drain**: shutdown stops the
//! acceptor, lets in-flight sessions finish up to
//! [`ServerConfig::drain_deadline`], then cuts stragglers (counted in
//! [`ServeStats::drain_cut`]) — without the deadline a
//! continuously-streaming client would hold its worker, and `shutdown`'s
//! join, hostage forever. The `server.accept` / `server.session_write`
//! fault sites (see `itag_store::faults`) inject failures into both
//! paths for the torture suite.

use std::io::{BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use itag_store::{faults, Store};

use itag_core::engine::ITagEngine;
use itag_core::EngineSnapshot;
use itag_crowd::audience::ManualPlatform;
use parking_lot::{Mutex, MutexGuard};

use crate::frame::{write_frame, FrameError, FrameReader, ReadOutcome};
use crate::proto::{ErrorCode, OpenTask, Request, Response, WireError, PROTOCOL_VERSION};
use crate::queue::{Pop, SessionQueue};

/// Serving knobs. All configuration arrives through this struct (or the
/// `loadgen` CLI) — the one environment override is `ITAG_SNAPSHOT_READS`
/// for [`ServerConfig::snapshot_reads`], validated strictly at
/// [`serve`] time (garbage refuses to start rather than silently
/// defaulting).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Session workers: the concurrency ceiling for in-flight sessions.
    pub workers: usize,
    /// Accepted-but-unclaimed sessions; beyond this the acceptor sheds.
    pub queue_capacity: usize,
    /// Frame cap for both directions.
    pub max_frame: usize,
    /// Socket read timeout: how often a blocked session polls shutdown.
    pub read_timeout: Duration,
    /// Stack size for session workers (a worker keeps no deep state, so
    /// pools of ~1k workers stay cheap).
    pub worker_stack: usize,
    /// After shutdown is requested, in-flight sessions may keep serving
    /// frames for this long before being cut ([`ServeStats::drain_cut`]).
    pub drain_deadline: Duration,
    /// Sessions idle (no complete frame) longer than this are reaped
    /// ([`ServeStats::reaped_idle`]); `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Serve dashboard reads ([`Request::is_snapshot_read`]) from an
    /// epoch-keyed [`EngineSnapshot`] instead of the engine mutex.
    /// `None` = the `ITAG_SNAPSHOT_READS` override, else on. Read
    /// *results* do not depend on this — snapshot reads equal live reads
    /// at the same store epoch — only whether a dashboard can stall
    /// behind a long write.
    pub snapshot_reads: Option<bool>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            queue_capacity: 64,
            max_frame: 4 << 20,
            read_timeout: Duration::from_millis(100),
            worker_stack: 512 * 1024,
            drain_deadline: Duration::from_secs(1),
            idle_timeout: None,
            snapshot_reads: None,
        }
    }
}

/// Resolves [`ServerConfig::snapshot_reads`]: explicit config wins, else
/// the `ITAG_SNAPSHOT_READS` environment override (`0/false/off` and
/// `1/true/on`; empty = unset), else on. A garbage value is a startup
/// error, not a silent default — the same strictness contract as the
/// engine's `ITAG_*` knobs.
fn resolve_snapshot_reads(cfg: &ServerConfig) -> std::io::Result<bool> {
    if let Some(on) = cfg.snapshot_reads {
        return Ok(on);
    }
    // The env read itself lives in `core::config` (the lint-sanctioned
    // home for `ITAG_*` grammar); only the posture is decided here.
    match itag_core::config::env_snapshot_reads() {
        Ok(over) => Ok(over.unwrap_or(true)),
        Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, e)),
    }
}

/// Counters a load test asserts over.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Sessions fully served by a worker.
    pub served: u64,
    /// Sessions refused with `Busy`.
    pub shed: u64,
    /// Sessions dropped for framing violations.
    pub framing_errors: u64,
    /// Shed sessions whose best-effort `Busy` frame could not even be
    /// written — the peer saw a bare close instead of a typed refusal.
    pub shed_write_failures: u64,
    /// In-flight sessions cut because they outlived the drain deadline.
    pub drain_cut: u64,
    /// Sessions reaped for exceeding [`ServerConfig::idle_timeout`].
    pub reaped_idle: u64,
    /// Write requests refused because the server is degraded (read-only).
    pub degraded_refusals: u64,
    /// Accepted connections dropped by an injected `server.accept` fault.
    pub accept_faults: u64,
    /// Sessions cut because a response write failed (injected
    /// `server.session_write` faults and real socket errors alike).
    pub session_write_failures: u64,
    /// Worker or acceptor threads that died by panic instead of joining
    /// cleanly. Known only after shutdown; always zero before.
    pub worker_panics: u64,
    /// Snapshot reads answered from the cached capture at the current
    /// store epoch — the no-lock, no-copy fast path.
    pub snapshot_hits: u64,
    /// Snapshot reads that captured a fresh [`EngineSnapshot`] because
    /// the store epoch had advanced past the cache.
    pub snapshot_captures: u64,
    /// Snapshot reads served a stale capture because the engine mutex
    /// was busy (a round in flight): bounded staleness instead of
    /// blocking the dashboard behind the write path.
    pub snapshot_stale: u64,
}

struct Shared {
    engine: Mutex<ITagEngine>,
    /// The engine's store, shared so snapshot reads can check the commit
    /// epoch (and capture raw-store state) without the engine mutex.
    store: Arc<Store>,
    /// Epoch-keyed cache of the latest [`EngineSnapshot`]. Lock order:
    /// `server.snapshot_cache` → `server.engine` → store shards — the
    /// engine never acquires the cache, so the hierarchy is acyclic.
    snapshot_cache: Mutex<Option<Arc<EngineSnapshot>>>,
    /// Resolved [`ServerConfig::snapshot_reads`].
    snapshot_reads: bool,
    queue: SessionQueue<TcpStream>,
    stop: AtomicBool,
    /// Read-only degradation latch; see the module docs.
    degraded: AtomicBool,
    served: AtomicU64,
    shed: AtomicU64,
    framing_errors: AtomicU64,
    shed_write_failures: AtomicU64,
    drain_cut: AtomicU64,
    reaped_idle: AtomicU64,
    degraded_refusals: AtomicU64,
    accept_faults: AtomicU64,
    session_write_failures: AtomicU64,
    snapshot_hits: AtomicU64,
    snapshot_captures: AtomicU64,
    snapshot_stale: AtomicU64,
    /// When the server came up; drain deadlines are stored as offsets
    /// from this epoch so they fit an atomic.
    epoch: Instant,
    /// Millis-from-epoch at which shutdown was requested; `u64::MAX`
    /// while running. Written once (before `stop` flips) so workers can
    /// compute the drain deadline without a lock.
    stop_at_ms: AtomicU64,
    cfg: ServerConfig,
}

impl Shared {
    fn stats_now(&self) -> ServeStats {
        ServeStats {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            framing_errors: self.framing_errors.load(Ordering::Relaxed),
            shed_write_failures: self.shed_write_failures.load(Ordering::Relaxed),
            drain_cut: self.drain_cut.load(Ordering::Relaxed),
            reaped_idle: self.reaped_idle.load(Ordering::Relaxed),
            degraded_refusals: self.degraded_refusals.load(Ordering::Relaxed),
            accept_faults: self.accept_faults.load(Ordering::Relaxed),
            session_write_failures: self.session_write_failures.load(Ordering::Relaxed),
            worker_panics: 0,
            snapshot_hits: self.snapshot_hits.load(Ordering::Relaxed),
            snapshot_captures: self.snapshot_captures.load(Ordering::Relaxed),
            snapshot_stale: self.snapshot_stale.load(Ordering::Relaxed),
        }
    }

    /// The instant past which in-flight sessions are cut, once shutdown
    /// has been requested.
    fn drain_deadline(&self) -> Option<Instant> {
        let ms = self.stop_at_ms.load(Ordering::Acquire);
        (ms != u64::MAX).then(|| self.epoch + Duration::from_millis(ms) + self.cfg.drain_deadline)
    }
}

/// A running server; dropping it without [`ServerHandle::shutdown`]
/// leaks the threads, so tests and `loadgen` always shut down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// What [`ServerHandle::shutdown`] hands back.
pub struct ShutdownReport {
    /// The engine, returned to the caller once every worker has exited —
    /// this is what the loopback byte-identity test checksums.
    pub engine: ITagEngine,
    pub stats: ServeStats,
}

/// Binds `addr` (use port 0 for an ephemeral port) and starts serving
/// `engine`.
pub fn serve(
    engine: ITagEngine,
    addr: impl ToSocketAddrs,
    cfg: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let snapshot_reads = resolve_snapshot_reads(&cfg)?;
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;

    // Seed the snapshot cache before any worker exists: the first
    // dashboard request finds a capture waiting instead of racing the
    // first round for the engine mutex.
    let store = engine.store_handle();
    let seeded = snapshot_reads.then(|| Arc::new(engine.snapshot()));

    let shared = Arc::new(Shared {
        engine: Mutex::named("server.engine", engine),
        store,
        snapshot_cache: Mutex::named("server.snapshot_cache", seeded),
        snapshot_reads,
        queue: SessionQueue::new(cfg.queue_capacity),
        stop: AtomicBool::new(false),
        degraded: AtomicBool::new(false),
        served: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        framing_errors: AtomicU64::new(0),
        shed_write_failures: AtomicU64::new(0),
        drain_cut: AtomicU64::new(0),
        reaped_idle: AtomicU64::new(0),
        degraded_refusals: AtomicU64::new(0),
        accept_faults: AtomicU64::new(0),
        session_write_failures: AtomicU64::new(0),
        snapshot_hits: AtomicU64::new(0),
        snapshot_captures: AtomicU64::new(0),
        snapshot_stale: AtomicU64::new(0),
        epoch: Instant::now(),
        stop_at_ms: AtomicU64::new(u64::MAX),
        cfg: cfg.clone(),
    });

    let mut workers = Vec::with_capacity(cfg.workers);
    for i in 0..cfg.workers {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("itag-session-{i}"))
                .stack_size(cfg.worker_stack)
                .spawn(move || worker_loop(&shared))?,
        );
    }

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("itag-acceptor".into())
            .spawn(move || accept_loop(listener, &shared))?
    };

    Ok(ServerHandle {
        addr: local,
        shared,
        acceptor,
        workers,
    })
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn stats(&self) -> ServeStats {
        self.shared.stats_now()
    }

    /// True once a storage fault flipped the server read-only.
    pub fn degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::SeqCst)
    }

    /// Operator override for the degradation latch: set it to take the
    /// server read-only preemptively, clear it after the storage fault
    /// is resolved out of band.
    pub fn set_degraded(&self, on: bool) {
        self.shared.degraded.store(on, Ordering::SeqCst);
    }

    /// Locks the engine and hands the guard to the caller — the test
    /// hook behind the lock-free-dashboard contract: a test parks itself
    /// on the engine mutex through this and then proves snapshot reads
    /// still answer. Holding it stalls every write and non-snapshot
    /// read, exactly like a long `RunRound` would.
    pub fn engine_guard(&self) -> MutexGuard<'_, ITagEngine> {
        self.shared.engine.lock()
    }

    /// Whether dashboard reads are being served from MVCC snapshots
    /// (the resolved [`ServerConfig::snapshot_reads`]).
    pub fn snapshot_reads(&self) -> bool {
        self.shared.snapshot_reads
    }

    /// Stops accepting, drains the pool, joins every thread, and returns
    /// the engine. Idle sessions end at their next read timeout; sessions
    /// still streaming requests may finish work until
    /// [`ServerConfig::drain_deadline`], after which they are cut.
    pub fn shutdown(self) -> ShutdownReport {
        let elapsed =
            u64::try_from(self.shared.epoch.elapsed().as_millis()).unwrap_or(u64::MAX - 1);
        // Deadline first, stop flag second: a worker that sees `stop`
        // must be able to read a real deadline.
        self.shared.stop_at_ms.store(elapsed, Ordering::Release);
        self.shared.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`: one loopback connect wakes it,
        // and it re-checks `stop` before serving what it accepted. If the
        // connect fails the listener already has a connection pending or
        // is gone, and either way `accept` returns on its own.
        let _ = TcpStream::connect_timeout(&wake_addr(self.addr), Duration::from_secs(1));
        self.shared.queue.close();
        let mut worker_panics = 0;
        if self.acceptor.join().is_err() {
            worker_panics += 1;
        }
        for w in self.workers {
            if w.join().is_err() {
                worker_panics += 1;
            }
        }
        let stats = ServeStats {
            worker_panics,
            ..self.shared.stats_now()
        };
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("all server threads joined; no other owners remain"));
        ShutdownReport {
            engine: shared.engine.into_inner(),
            stats,
        }
    }
}

/// Where [`ServerHandle::shutdown`] connects to wake the acceptor: the
/// bound address, with an unspecified IP (`0.0.0.0`, `::`) mapped to
/// loopback of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Blocking accept loop. `stop` is re-checked after every `accept`
/// returns, so the wake-up connection from `shutdown` (or any connection
/// racing it) is dropped instead of served.
fn accept_loop(listener: TcpListener, shared: &Shared) {
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // `server.accept` fault site: an injected failure here
                // models accept()/fd-limit errors — the connection is
                // dropped on the floor (the peer sees a reset), which is
                // exactly what clients must retry through.
                if faults::check_io(faults::SERVER_ACCEPT).is_err() {
                    shared.accept_faults.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if let Err(stream) = shared.queue.try_push(stream) {
                    shed(shared, stream);
                }
            }
            // A failed accept (fd limit, aborted handshake) backs off
            // briefly so a persistent error cannot spin the acceptor.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The load-shedding contract: a refused session gets a best-effort
/// `Busy` frame, then its connection is closed. Short write timeout so a
/// stalled peer cannot wedge the acceptor. "Best-effort" is still
/// accounted for: a refusal the peer never saw is a different outcome
/// from a typed `Busy`, and `shed_write_failures` keeps the difference
/// visible instead of silently dropping the write error.
fn shed(shared: &Shared, stream: TcpStream) {
    shared.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut w = BufWriter::new(stream);
    let sent =
        write_frame(&mut w, &Response::Busy, shared.cfg.max_frame).is_ok() && w.flush().is_ok();
    if !sent {
        shared.shed_write_failures.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        match shared.queue.pop(shared.cfg.read_timeout) {
            Pop::Item(stream) => {
                serve_session(shared, stream);
                shared.served.fetch_add(1, Ordering::Relaxed);
            }
            Pop::Empty => continue,
            Pop::Closed => break,
        }
    }
}

/// Outcome of one request: keep the session or end it.
enum Ctl {
    Continue,
    Close,
}

fn serve_session(shared: &Shared, stream: TcpStream) {
    // No Nagle: a frame larger than the `BufWriter` buffer leaves as a
    // 1–3 byte length prefix and then the payload, and with Nagle on the
    // payload would wait for the client's delayed ACK of the prefix.
    if stream
        .set_read_timeout(Some(shared.cfg.read_timeout))
        .and_then(|()| stream.set_nodelay(true))
        .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut frames = FrameReader::new(shared.cfg.max_frame);
    let mut helloed = false;
    let mut last_frame_at = Instant::now();

    loop {
        let payload = match frames.read(&mut reader) {
            Ok(ReadOutcome::Frame(p)) => {
                last_frame_at = Instant::now();
                p
            }
            Ok(ReadOutcome::Eof) => return,
            Ok(ReadOutcome::TimedOut) => {
                // An idle session has nothing in flight: shutdown ends it
                // at the next poll, no drain grace needed.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(limit) = shared.cfg.idle_timeout {
                    if last_frame_at.elapsed() >= limit {
                        shared.reaped_idle.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                continue;
            }
            Err(e) => {
                shared.framing_errors.fetch_add(1, Ordering::Relaxed);
                // Best-effort typed refusal; the stream is no longer
                // frame-aligned either way, so the session ends here.
                let code = match e {
                    FrameError::TooLarge { .. } | FrameError::BadLength => ErrorCode::Malformed,
                    _ => return,
                };
                let _ = write_frame(
                    &mut writer,
                    &Response::Error(WireError::new(code, e.to_string())),
                    shared.cfg.max_frame,
                );
                return;
            }
        };

        let (response, ctl) = match crate::frame::decode_payload::<Request>(&payload) {
            Err(e) => (
                Response::Error(WireError::new(
                    ErrorCode::Malformed,
                    format!("undecodable request: {e}"),
                )),
                Ctl::Continue,
            ),
            Ok(Request::Hello { version }) => {
                if version == PROTOCOL_VERSION {
                    helloed = true;
                    (
                        Response::HelloOk {
                            version: PROTOCOL_VERSION,
                        },
                        Ctl::Continue,
                    )
                } else {
                    (
                        Response::Error(WireError::new(
                            ErrorCode::Version,
                            format!(
                                "unknown protocol version {version} (speaking {PROTOCOL_VERSION})"
                            ),
                        )),
                        Ctl::Close,
                    )
                }
            }
            Ok(_) if !helloed => (
                Response::Error(WireError::new(
                    ErrorCode::Version,
                    "session must start with Hello",
                )),
                Ctl::Close,
            ),
            Ok(Request::Quit) => (Response::Bye, Ctl::Close),
            Ok(req) => (apply(shared, req), Ctl::Continue),
        };

        // `server.session_write` fault site: an injected failure models a
        // response write dying mid-session. Injected or real, a failed
        // response write cuts the session (the peer's framing is gone)
        // and is counted rather than silently swallowed.
        if faults::check_io(faults::SERVER_SESSION_WRITE).is_err()
            || write_frame(&mut writer, &response, shared.cfg.max_frame).is_err()
        {
            shared
                .session_write_failures
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        if matches!(ctl, Ctl::Close) {
            return;
        }
        // Graceful drain: once shutdown is requested this session may
        // keep answering in-flight frames, but only until the deadline —
        // a client that never stops streaming must not stall `shutdown`'s
        // join forever.
        if shared.stop.load(Ordering::SeqCst) {
            if let Some(deadline) = shared.drain_deadline() {
                if Instant::now() >= deadline {
                    shared.drain_cut.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }
}

/// Executes one request against the engine. The engine lock is scoped to
/// this function — never held across socket I/O.
///
/// This is also where read-only degradation lives: a write request that
/// fails with a storage fault latches `degraded`, and every later write
/// is refused with [`ErrorCode::Degraded`] without touching the engine.
/// Reads bypass the latch entirely — they serve the applied in-memory
/// state, which a broken WAL does not invalidate.
fn apply(shared: &Shared, req: Request) -> Response {
    // Dashboard reads never touch the engine mutex: they run against an
    // epoch-keyed MVCC snapshot, so a mid-flight `RunRound` (or a client
    // that parked itself on the engine) cannot stall a monitor screen.
    if shared.snapshot_reads && req.is_snapshot_read() {
        let (snap, fresh) = current_snapshot(shared);
        match dispatch_snapshot(&snap, req.clone()) {
            Ok(resp) => return resp,
            Err(e) if fresh => {
                return Response::Error(WireError::new(ErrorCode::Engine, e.to_string()))
            }
            // A *negative* answer from a stale capture is not
            // trustworthy — the project may have been created after the
            // capture. Positive stale answers are the documented
            // staleness contract; negative ones fall through to live
            // engine dispatch below and pay the lock for the
            // authoritative answer.
            Err(_) => {}
        }
    }
    let is_write = req.is_write();
    if is_write && shared.degraded.load(Ordering::SeqCst) {
        shared.degraded_refusals.fetch_add(1, Ordering::Relaxed);
        return Response::Error(WireError::new(
            ErrorCode::Degraded,
            "server is read-only after a storage fault; writes are refused",
        ));
    }
    let mut engine = shared.engine.lock();
    let result = dispatch(&mut engine, req);
    drop(engine);
    match result {
        Ok(resp) => resp,
        Err(e) => {
            if is_write && e.is_storage_fault() {
                shared.degraded.store(true, Ordering::SeqCst);
            }
            Response::Error(WireError::new(ErrorCode::Engine, e.to_string()))
        }
    }
}

/// Returns a snapshot no older than the last *committed* store epoch at
/// some point during this call, plus whether it is *fresh* (epoch-equal
/// to the store at read time) or a stale serve. Freshness argument:
/// every engine mutation that can change a dashboard answer (rounds,
/// budget, strategy switches, registrations, stops) commits a store
/// batch and so advances the epoch — an epoch-equal cache is therefore
/// answer-equal, not merely probably fresh. When the cache is stale the
/// capture needs the engine mutex; if a round holds it, the stale
/// capture is served instead of blocking
/// ([`ServeStats::snapshot_stale`]) — the staleness is bounded by one
/// flush of the writer's pipeline, and `apply` refuses to serve
/// *negative* answers from a stale capture.
///
/// Lock order here is `server.snapshot_cache` → `server.engine` → store
/// shards; nothing acquires them in any other order.
fn current_snapshot(shared: &Shared) -> (Arc<EngineSnapshot>, bool) {
    let mut cache = shared.snapshot_cache.lock();
    let epoch = shared.store.epoch();
    if let Some(snap) = cache.as_ref() {
        if snap.epoch() == epoch {
            shared.snapshot_hits.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(snap), true);
        }
    }
    if let Some(engine) = shared.engine.try_lock() {
        let snap = Arc::new(engine.snapshot());
        drop(engine);
        shared.snapshot_captures.fetch_add(1, Ordering::Relaxed);
        *cache = Some(Arc::clone(&snap));
        return (snap, true);
    }
    if let Some(snap) = cache.as_ref() {
        shared.snapshot_stale.fetch_add(1, Ordering::Relaxed);
        return (Arc::clone(snap), false);
    }
    // No capture yet and the engine is busy — only reachable when the
    // eager seed in `serve` was skipped (snapshot reads toggled on after
    // start is impossible today, but stay total): block once.
    let snap = Arc::new(shared.engine.lock().snapshot());
    shared.snapshot_captures.fetch_add(1, Ordering::Relaxed);
    *cache = Some(Arc::clone(&snap));
    (snap, true)
}

/// The one implementation of the [`Request::is_snapshot_read`] verbs,
/// over an [`EngineSnapshot`]: `apply` calls it with the cached capture,
/// [`dispatch`] with a fresh one taken under the engine lock (so
/// `snapshot_reads = false` just means "capture fresh under the
/// mutex"). The loopback byte-identity test holds the wire answers to
/// the in-process ones.
fn dispatch_snapshot(snap: &EngineSnapshot, req: Request) -> itag_core::Result<Response> {
    Ok(match req {
        Request::Monitor { project } => Response::Snapshot(snap.monitor(project)?),
        Request::MonitorTable { project, limit } => Response::Table {
            rendered: snap.render_table(project, limit as usize)?,
        },
        Request::ExportCsv { project } => Response::Csv {
            csv: snap.export(project)?.to_csv(),
        },
        Request::ExportDownload { project } => Response::Download {
            bytes: snap.export(project)?.to_bytes(),
        },
        Request::BrowseProjects => Response::Projects {
            listings: snap.browse()?,
        },
        // `apply` routes only snapshot reads here; anything else is a
        // routing bug answered as an error, never a panic (this path is
        // reachable from the wire).
        other => {
            return Err(itag_core::EngineError::Config(format!(
                "request {other:?} is not a snapshot read"
            )))
        }
    })
}

fn dispatch(engine: &mut ITagEngine, req: Request) -> itag_core::Result<Response> {
    Ok(match req {
        // Handled in the session loop; unreachable here but kept total so
        // a new Request variant is a compile error until routed.
        Request::Hello { .. } => Response::HelloOk {
            version: PROTOCOL_VERSION,
        },
        Request::Quit => Response::Bye,
        Request::Ping => Response::Pong,
        Request::RegisterProvider { name } => Response::Registered {
            id: engine.register_provider(&name)?,
        },
        Request::RegisterTagger { name } => Response::Registered {
            id: engine.register_tagger(&name)?,
        },
        Request::CreateProject {
            provider,
            spec,
            dataset,
            audience,
        } => {
            let data = dataset.generate();
            let project = if audience {
                engine.add_project_with_platform(
                    provider,
                    spec.clone(),
                    data,
                    Box::new(ManualPlatform::new(spec.platform)),
                )?
            } else {
                engine.add_project(provider, spec, data)?
            };
            Response::ProjectCreated { project }
        }
        Request::PublishBatch { project, want } => Response::Published {
            tasks: engine.publish_batch(project, want as usize)?,
        },
        Request::RunRound { project, max_tasks } => Response::RunDone {
            summary: engine.run(project, max_tasks)?,
        },
        Request::Collect { project } => {
            let (approved, rejected) = engine.collect_once(project)?;
            Response::Collected { approved, rejected }
        }
        // Dashboard reads: one implementation, over a fresh capture taken
        // under the caller's engine lock.
        dashboard @ (Request::Monitor { .. }
        | Request::MonitorTable { .. }
        | Request::BrowseProjects
        | Request::ExportCsv { .. }
        | Request::ExportDownload { .. }) => {
            return dispatch_snapshot(&engine.snapshot(), dashboard)
        }
        Request::ResourceDetail { project, resource } => {
            Response::Detail(engine.resource_detail(project, resource)?)
        }
        Request::AddBudget {
            project,
            extra_tasks,
        } => {
            engine.add_budget(project, extra_tasks)?;
            Response::Done
        }
        Request::SwitchStrategy { project, strategy } => {
            engine.switch_strategy(project, strategy)?;
            Response::Done
        }
        Request::StopProject { project } => {
            engine.stop_project(project)?;
            Response::Done
        }
        Request::PullTasks { project, limit } => Response::Tasks {
            open: engine
                .audience_open_tasks(project, limit as usize)?
                .into_iter()
                .map(|(task, resource)| OpenTask { task, resource })
                .collect(),
        },
        Request::SubmitPost {
            project,
            task,
            tagger,
            tags,
        } => {
            engine.audience_submit(project, task, tagger, tags)?;
            Response::Done
        }
        Request::Reputation { tagger } => Response::ReputationReport {
            approval_rate: engine.tagger_approval_rate(tagger)?,
            reliable: engine.is_reliable_tagger(tagger)?,
        },
        Request::Checksum => Response::Checksum {
            digest: engine.store_checksum(),
        },
    })
}

/// Applies the same operation a wire request would, directly to an
/// engine — the in-process twin used by the loopback byte-identity test
/// and kept here so server dispatch and twin dispatch cannot drift.
pub fn apply_in_process(engine: &mut ITagEngine, req: Request) -> itag_core::Result<Response> {
    dispatch(engine, req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_knob_parses_strictly() {
        use itag_core::config::parse_snapshot_reads;
        assert_eq!(parse_snapshot_reads(None).unwrap(), None);
        assert_eq!(parse_snapshot_reads(Some("  ")).unwrap(), None);
        for on in ["1", "true", "on", " true "] {
            assert_eq!(parse_snapshot_reads(Some(on)).unwrap(), Some(true));
        }
        for off in ["0", "false", "off", " off "] {
            assert_eq!(parse_snapshot_reads(Some(off)).unwrap(), Some(false));
        }
        for garbage in ["yes", "2", "enabled", "-1"] {
            let err = parse_snapshot_reads(Some(garbage)).unwrap_err();
            assert!(
                err.contains("ITAG_SNAPSHOT_READS"),
                "error must name the variable: {err}"
            );
        }
    }

    #[test]
    fn explicit_config_beats_the_environment() {
        let cfg = ServerConfig {
            snapshot_reads: Some(false),
            ..ServerConfig::default()
        };
        assert!(!resolve_snapshot_reads(&cfg).unwrap());
        let cfg = ServerConfig {
            snapshot_reads: Some(true),
            ..ServerConfig::default()
        };
        assert!(resolve_snapshot_reads(&cfg).unwrap());
    }
}
