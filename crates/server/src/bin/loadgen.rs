//! `loadgen` — replays thousands of concurrent client sessions against a
//! self-hosted `itag-server` and reports serving throughput and tail
//! latency. This is the harness behind `BENCH_pr7.json`.
//!
//! ```text
//! cargo run --release -p itag-server --bin loadgen -- \
//!     [--sessions N] [--workers W] [--queue Q] [--tasks T] [--seed S] [--out PATH]
//! ```
//!
//! The mix is 1 provider session per 10 taggers: providers create and run
//! a private simulated campaign, inspect it, and download the export;
//! taggers browse, pull tasks from a shared audience campaign, submit
//! posts, and check their reputation. Engine-level refusals (e.g. a task
//! already taken by a concurrent tagger) are counted as served responses
//! — they are the protocol working, not failures. Every session thread
//! verifies its responses; any panic anywhere fails the run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use itag_core::config::EngineConfig;
use itag_core::engine::ITagEngine;
use itag_core::project::ProjectSpec;
use itag_model::ids::{ProjectId, TagId, TaggerId};
use itag_server::client::{Client, ClientError};
use itag_server::proto::DatasetSpec;
use itag_server::server::{serve, ServerConfig};

struct Args {
    sessions: usize,
    workers: usize,
    queue: usize,
    /// Audience tasks published up front for taggers to fight over.
    tasks: u32,
    seed: u64,
    out: Option<String>,
    /// Fault storm: a `site:kind[@trigger],...` plan (same grammar as
    /// `ITAG_FAULTS`) armed for the duration of the session storm. The
    /// shakeout contract: sessions may fail *transiently*, the server
    /// must stay healthy — zero panics, post-storm ping answered.
    faults: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        sessions: 1000,
        workers: 128,
        queue: 2048,
        tasks: 2000,
        seed: 7,
        out: None,
        faults: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--sessions" => args.sessions = take("--sessions").parse().expect("--sessions"),
            "--workers" => args.workers = take("--workers").parse().expect("--workers"),
            "--queue" => args.queue = take("--queue").parse().expect("--queue"),
            "--tasks" => args.tasks = take("--tasks").parse().expect("--tasks"),
            "--seed" => args.seed = take("--seed").parse().expect("--seed"),
            "--out" => args.out = Some(take("--out")),
            "--faults" => args.faults = Some(take("--faults")),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// A session that died, and whether the death is tolerable under a fault
/// storm (transient connection loss, shed, or a typed degraded refusal —
/// the resilience machinery working as designed).
struct SessionFailure {
    msg: String,
    tolerable: bool,
}

fn classify(e: ClientError, ctx: String) -> SessionFailure {
    let tolerable = e.is_transient()
        || matches!(
            &e,
            ClientError::Server(w) if w.code == itag_server::proto::ErrorCode::Degraded
        );
    SessionFailure {
        msg: format!("{ctx}: {e}"),
        tolerable,
    }
}

fn connect(addr: std::net::SocketAddr, retry: bool) -> Result<Client, ClientError> {
    if retry {
        Client::connect_retrying(
            addr,
            4 << 20,
            std::time::Duration::from_secs(30),
            itag_server::client::RetryPolicy::default(),
        )
    } else {
        Client::connect(addr)
    }
}

/// One timed request round-trip, in microseconds.
fn timed<T>(lat: &mut Vec<u64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    lat.push(t.elapsed().as_micros() as u64);
    out
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// A provider session: create a private simulated campaign, run it,
/// inspect it, fund it, and download the export.
fn provider_session(
    addr: std::net::SocketAddr,
    n: usize,
    seed: u64,
    retry: bool,
) -> Result<Vec<u64>, SessionFailure> {
    let mut lat = Vec::with_capacity(16);
    let mut run = || -> Result<(), ClientError> {
        let mut c = connect(addr, retry)?;
        let provider = timed(&mut lat, || c.register_provider(&format!("prov-{n}")))?;
        let project = timed(&mut lat, || {
            c.create_project(
                provider,
                ProjectSpec::demo(&format!("campaign-{n}"), 30),
                DatasetSpec {
                    resources: 20,
                    vocab: 120,
                    initial_posts: 80,
                    eval_posts: 120,
                    taggers: 8,
                    seed: seed ^ n as u64,
                },
                false,
            )
        })?;
        let summary = timed(&mut lat, || c.run_round(project, 20))?;
        if summary.issued == 0 {
            return Err(ClientError::Unexpected("a non-empty round"));
        }
        timed(&mut lat, || c.add_budget(project, 10))?;
        let snap = timed(&mut lat, || c.monitor(project))?;
        if snap.budget_total != 40 {
            return Err(ClientError::Unexpected("funded budget"));
        }
        timed(&mut lat, || c.monitor_table(project, 5))?;
        timed(&mut lat, || c.export_csv(project))?;
        timed(&mut lat, || c.stop_project(project))?;
        c.quit()?;
        Ok(())
    };
    run().map_err(|e| classify(e, format!("provider session {n}")))?;
    Ok(lat)
}

/// A tagger session against the shared audience campaign.
fn tagger_session(
    addr: std::net::SocketAddr,
    n: usize,
    shared_project: ProjectId,
    submitted: &AtomicU64,
    retry: bool,
) -> Result<Vec<u64>, SessionFailure> {
    let mut lat = Vec::with_capacity(16);
    let mut run = || -> Result<(), ClientError> {
        let mut c = connect(addr, retry)?;
        let tagger = timed(&mut lat, || c.register_tagger(&format!("tagger-{n}")))?;
        let listings = timed(&mut lat, || c.browse_projects())?;
        if listings.is_empty() {
            return Err(ClientError::Unexpected("a browsable project"));
        }
        let open = timed(&mut lat, || c.pull_tasks(shared_project, 4))?;
        for t in &open {
            // Another tagger may have claimed the task between pull and
            // submit — an Engine error response is the correct outcome.
            match timed(&mut lat, || {
                c.submit_post(
                    shared_project,
                    t.task,
                    TaggerId(tagger),
                    vec![TagId((t.task % 60) as u32), TagId((t.task % 7) as u32)],
                )
            }) {
                Ok(()) => {
                    submitted.fetch_add(1, Ordering::Relaxed);
                }
                Err(ClientError::Server(e)) if e.code == itag_server::proto::ErrorCode::Engine => {}
                Err(e) => return Err(e),
            }
        }
        timed(&mut lat, || c.reputation(tagger))?;
        c.quit()?;
        Ok(())
    };
    run().map_err(|e| classify(e, format!("tagger session {n}")))?;
    Ok(lat)
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn main() {
    let args = parse_args();

    let engine = ITagEngine::new(EngineConfig::in_memory(args.seed)).expect("engine");
    let handle = serve(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: args.workers,
            queue_capacity: args.queue,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // Host session: the shared audience campaign the taggers work on.
    let shared_project = {
        let mut host = Client::connect(addr).expect("host connect");
        let provider = host.register_provider("loadgen-host").expect("register");
        let project = host
            .create_project(
                provider,
                ProjectSpec::demo("audience-firehose", args.tasks),
                DatasetSpec {
                    resources: 200,
                    vocab: 400,
                    initial_posts: 800,
                    eval_posts: 0,
                    taggers: 32,
                    seed: args.seed,
                },
                true,
            )
            .expect("shared project");
        let published = host
            .publish_batch(project, args.tasks)
            .expect("publish firehose");
        assert!(published > 0, "no tasks published for the tagger fleet");
        host.quit().expect("host quit");
        project
    };

    println!(
        "loadgen: {} sessions ({} workers, queue {}) against {addr}",
        args.sessions, args.workers, args.queue
    );

    // Fault storm: armed only after the healthy setup above, so the
    // shared campaign always exists. With the `faults` feature off this
    // panics loudly instead of silently testing nothing.
    let fault_guard = args.faults.as_deref().map(|raw| {
        assert!(
            itag_store::faults::compiled_in(),
            "--faults requires a build with the `faults` feature"
        );
        let plan =
            itag_store::faults::FaultPlan::parse(raw).unwrap_or_else(|e| panic!("--faults: {e}"));
        println!("fault storm armed: {raw}");
        itag_store::faults::arm(&plan)
    });
    let storm = fault_guard.is_some();

    let submitted = Arc::new(AtomicU64::new(0));
    let wall = Instant::now();
    let mut joins = Vec::with_capacity(args.sessions);
    for n in 0..args.sessions {
        let submitted = Arc::clone(&submitted);
        let seed = args.seed;
        joins.push(
            std::thread::Builder::new()
                .name(format!("loadgen-{n}"))
                .stack_size(256 * 1024)
                .spawn(move || {
                    if n % 10 == 0 {
                        provider_session(addr, n, seed, storm)
                    } else {
                        tagger_session(addr, n, shared_project, &submitted, storm)
                    }
                })
                .expect("spawn session"),
        );
    }

    let mut latencies: Vec<u64> = Vec::new();
    let mut busy = 0u64;
    let mut faulted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for j in joins {
        match j.join().expect("session thread panicked") {
            Ok(lat) => latencies.extend(lat),
            // A shed session is the server keeping its bounded-queue
            // promise under overload; under a fault storm, transient
            // deaths and degraded refusals are the resilience contract
            // working. Anything else is a failure.
            Err(f) if f.msg.contains("server busy") => busy += 1,
            Err(f) if storm && f.tolerable => faulted += 1,
            Err(f) => failures.push(f.msg),
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();

    // End the storm before the health check: the server must come back
    // clean the moment faults stop, or resilience is just delayed death.
    drop(fault_guard);

    // Post-run smoke: the server must still be healthy after the storm.
    {
        let mut c = connect(addr, storm).expect("post-run connect");
        c.ping().expect("post-run ping");
        c.quit().expect("post-run quit");
    }

    let was_degraded = handle.degraded();
    let report = handle.shutdown();
    assert!(
        failures.is_empty(),
        "{} failed sessions, first: {}",
        failures.len(),
        failures[0]
    );
    assert_eq!(
        report.stats.worker_panics, 0,
        "server threads died by panic during the run"
    );
    if storm {
        println!(
            "fault storm: {faulted} sessions tolerably faulted; server counters: \
             accept_faults {}, session_write_failures {}, degraded_refusals {}, degraded {was_degraded}",
            report.stats.accept_faults,
            report.stats.session_write_failures,
            report.stats.degraded_refusals,
        );
    }

    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let throughput = requests as f64 / wall_s;
    let rss = peak_rss_kb().unwrap_or(0);

    println!(
        "{} requests in {:.2}s: {:.0} req/s, p50 {}us, p99 {}us; {} posts submitted; \
         {} sessions shed busy; served {}, framing errors {}; peak RSS {} KiB",
        requests,
        wall_s,
        throughput,
        p50,
        p99,
        submitted.load(Ordering::Relaxed),
        busy,
        report.stats.served,
        report.stats.framing_errors,
        rss
    );

    if let Some(path) = args.out {
        let json = format!(
            r#"{{
  "benchmark": "itag-server loopback serving: {sessions} concurrent client sessions (1 provider : 9 taggers) against one engine behind {workers} session workers, queue capacity {queue}; providers create+run+fund+export a private simulated campaign, taggers pull/submit against a shared {tasks}-task audience campaign",
  "methodology": "cargo run --release -p itag-server --bin loadgen -- --sessions {sessions} --workers {workers} --queue {queue} --tasks {tasks} --seed {seed}; every session is its own thread and TCP connection; per-request round-trip latency measured client-side; engine-level refusals (task already taken) count as served requests, Busy-shed sessions are counted separately and are the load-shedding contract working",
  "wall_seconds": {wall_s:.3},
  "requests": {requests},
  "throughput_req_per_sec": {throughput:.0},
  "latency_us": {{ "p50": {p50}, "p99": {p99} }},
  "sessions": {{ "launched": {sessions}, "served": {served}, "shed_busy": {busy}, "failed": 0 }},
  "posts_submitted": {submitted},
  "framing_errors": {framing},
  "peak_rss_kib": {rss},
  "invariants": "zero panics across {sessions} session threads and the server pool; a post-storm ping succeeded before shutdown; the engine came back from ServerHandle::shutdown intact"
}}
"#,
            sessions = args.sessions,
            workers = args.workers,
            queue = args.queue,
            tasks = args.tasks,
            seed = args.seed,
            wall_s = wall_s,
            requests = requests,
            throughput = throughput,
            p50 = p50,
            p99 = p99,
            served = report.stats.served,
            busy = busy,
            submitted = submitted.load(Ordering::Relaxed),
            framing = report.stats.framing_errors,
            rss = rss,
        );
        std::fs::write(&path, json).expect("write bench json");
        println!("wrote {path}");
    }
}
