//! Shared plumbing: timed wire calls, the in-process twin replay, the
//! outcome tally, and per-verb layer attribution.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use itag_core::config::{EngineConfig, StorageConfig};
use itag_core::engine::ITagEngine;
use itag_core::EngineSnapshot;
use itag_server::client::Client;
use itag_server::frame::{decode_payload, write_frame, FrameReader, ReadOutcome};
use itag_server::proto::{Request, Response};
use itag_server::server::{apply_in_process, serve, ServeStats, ServerConfig, ServerHandle};
use itag_store::Durability;

use crate::script::verb;
use crate::stats::{ratio, Samples};
use crate::trace::Recorder;

const MAX_FRAME: usize = 4 << 20;
/// Server session workers: at least as many as the benchmark ever holds
/// connections open at once (a session keeps its worker until `Quit`).
const WORKERS: usize = 2;

/// The engine configuration every server and twin in a run shares. A
/// durable one is the engine's own durable configuration (including its
/// checkpoint period) made strict-sync: one fsync per commit.
pub fn engine_config(seed: u64, dir: Option<&Path>) -> EngineConfig {
    let Some(dir) = dir else {
        return EngineConfig::in_memory(seed);
    };
    let mut config = EngineConfig::durable(seed, dir.to_path_buf());
    if let StorageConfig::Durable { durability, .. } = &mut config.storage {
        *durability = Durability::Sync;
    }
    config
}

pub fn start(engine: ITagEngine) -> Result<ServerHandle, String> {
    serve(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            queue_capacity: 16,
            snapshot_reads: Some(true),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("serve: {e}"))
}

pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

/// One request over the wire; typed refusals are errors.
pub fn call(c: &mut Client, req: &Request) -> Result<Response, String> {
    match c.call(req) {
        Ok(Response::Error(e)) => Err(format!("{} refused: {e}", verb(req))),
        Ok(Response::Busy) => Err(format!("{} shed: server busy", verb(req))),
        Ok(resp) => Ok(resp),
        Err(e) => Err(format!("{}: {e}", verb(req))),
    }
}

/// Runs `script` on a fresh connection and returns the responses.
pub fn run_script(addr: SocketAddr, script: &[Request]) -> Result<Vec<Response>, String> {
    let mut c = connect(addr)?;
    let out = script
        .iter()
        .map(|req| call(&mut c, req))
        .collect::<Result<Vec<_>, _>>()?;
    c.quit().map_err(|e| format!("quit: {e}"))?;
    Ok(out)
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Server-side failures over the run: panicked threads, shed requests
    /// and framing errors must all read 0.
    pub fn check_serve(&mut self, serve: &ServeStats) {
        self.check(serve.worker_panics == 0, || {
            "server threads panicked".into()
        });
        self.check(serve.shed == 0, || {
            format!("server shed {} requests", serve.shed)
        });
        self.check(serve.framing_errors == 0, || {
            format!("server saw {} framing errors", serve.framing_errors)
        });
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// A request/response pair kept for the twin replay.
pub struct Sent {
    pub id: u64,
    pub req: Request,
    pub resp: Response,
    pub rtt_us: f64,
}

/// A client thread's trace state. With tracing off it only times calls.
pub struct Tracer {
    pub on: bool,
    pub rec: Recorder,
    pub log: Vec<Sent>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            rec: Recorder::new(epoch),
            log: Vec::new(),
        }
    }

    /// Sends `req` and times the round trip in microseconds. A traced
    /// call records a `request` span; a kept call logs the exchange for
    /// the twin replay.
    pub fn call(
        &mut self,
        c: &mut Client,
        req: Request,
        id: u64,
        traced: bool,
        parent: Option<usize>,
        keep: bool,
    ) -> (Result<Response, String>, f64) {
        let span = (self.on && traced).then(|| self.rec.open("request", parent, id));
        let t = Instant::now();
        let out = call(c, &req);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(s) = span {
            self.rec.close(s);
        }
        if keep {
            if let Ok(resp) = &out {
                self.log.push(Sent {
                    id,
                    req,
                    resp: resp.clone(),
                    rtt_us: us,
                });
            }
        }
        (out, us)
    }
}

/// What replaying one request on a twin cost.
pub struct Replayed {
    pub resp: Result<Response, String>,
    pub engine_us: f64,
    /// Frame encode + decode of the request and the response (0 when the
    /// replay was not traced).
    pub codec_us: f64,
    pub resp_bytes: usize,
}

/// Encodes `value` as a frame and decodes it back, as the two ends of the
/// wire do.
fn codec_round_trip<T>(value: &T) -> Result<(T, usize), String>
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let mut buf = Vec::new();
    write_frame(&mut buf, value, MAX_FRAME).map_err(|e| e.to_string())?;
    let len = buf.len();
    match FrameReader::new(MAX_FRAME).read(&mut &buf[..]) {
        Ok(ReadOutcome::Frame(payload)) => Ok((decode_payload::<T>(&payload)?, len)),
        _ => Err("frame did not read back".into()),
    }
}

/// Applies `req` to the twin through the server's own dispatch. Traced
/// replays run the whole in-process pipeline under a `replay` span:
/// request codec, engine dispatch, response codec.
pub fn replay(
    engine: &mut ITagEngine,
    req: &Request,
    rec: Option<&mut Recorder>,
    id: u64,
) -> Replayed {
    let Some(rec) = rec else {
        let t = Instant::now();
        let resp = apply_in_process(engine, req.clone()).map_err(|e| e.to_string());
        return Replayed {
            resp,
            engine_us: t.elapsed().as_secs_f64() * 1e6,
            codec_us: 0.0,
            resp_bytes: 0,
        };
    };
    let root = rec.open("replay", None, id);
    let span = rec.open("codec.request", Some(root), id);
    let decoded = codec_round_trip(req);
    rec.close(span);
    let req = match decoded {
        Ok((r, _)) => r,
        Err(e) => {
            rec.close(root);
            return Replayed {
                resp: Err(format!("request codec: {e}")),
                engine_us: 0.0,
                codec_us: 0.0,
                resp_bytes: 0,
            };
        }
    };
    let span = rec.open("engine", Some(root), id);
    let resp = apply_in_process(engine, req);
    rec.close(span);
    let engine_ns = rec.spans[span].dur_ns();
    let resp = match resp {
        Ok(resp) => {
            let span = rec.open("codec.response", Some(root), id);
            let back = codec_round_trip(&resp);
            rec.close(span);
            back
        }
        Err(e) => Err(e.to_string()),
    };
    rec.close(root);
    let codec_ns: u64 = rec.spans[root + 1..]
        .iter()
        .filter(|s| s.name.starts_with("codec."))
        .map(|s| s.dur_ns())
        .sum();
    let (resp, resp_bytes) = match resp {
        Ok((r, n)) => (Ok(r), n),
        Err(e) => (Err(e), 0),
    };
    Replayed {
        resp,
        engine_us: engine_ns as f64 / 1e3,
        codec_us: codec_ns as f64 / 1e3,
        resp_bytes,
    }
}

/// Times the server's snapshot-read path for `req` on `snap`, in µs:
/// the same `EngineSnapshot` calls the server's snapshot dispatch makes.
/// `None` for verbs the server does not answer from a snapshot.
pub fn time_snapshot_read(snap: &EngineSnapshot, req: &Request) -> Option<f64> {
    let t = Instant::now();
    let ok = match req {
        Request::Monitor { project } => snap.monitor(*project).is_ok(),
        Request::MonitorTable { project, limit } => {
            snap.render_table(*project, *limit as usize).is_ok()
        }
        Request::BrowseProjects => snap.browse().is_ok(),
        Request::ExportCsv { project } => snap.export(*project).map(|e| e.to_csv()).is_ok(),
        _ => return None,
    };
    ok.then(|| t.elapsed().as_secs_f64() * 1e6)
}

/// Per-verb attribution samples from traced requests.
#[derive(Default)]
pub struct VerbAttr {
    pub rtt: Samples,
    /// `apply_in_process` on the twin.
    pub engine: Samples,
    /// The path the server really runs: the snapshot path for dashboard
    /// reads, `apply_in_process` for everything else.
    pub served: Samples,
    pub wire: Samples,
    pub codec: Samples,
    pub bytes: Samples,
}

impl VerbAttr {
    /// The share of the median round trip that no independently measured
    /// layer accounts for: 1 − (null request + codec + served path +
    /// durability) / RTT. Negative when the layers overcount.
    pub fn residual(&mut self, ping_us: f64, durability_us: f64) -> Option<f64> {
        let rtt = self.rtt.percentile(0.5).ok()?;
        let layers = ping_us + self.codec.p50_or_zero() + self.served.p50_or_zero() + durability_us;
        Some(1.0 - layers / rtt)
    }
}

#[derive(Default)]
pub struct Attribution {
    pub verbs: BTreeMap<&'static str, VerbAttr>,
}

impl Attribution {
    pub fn add(&mut self, req: &Request, rtt_us: f64, r: &Replayed, served_us: Option<f64>) {
        let a = self.verbs.entry(verb(req)).or_default();
        a.rtt.push_us(rtt_us);
        a.engine.push_us(r.engine_us);
        a.served.push_us(served_us.unwrap_or(r.engine_us));
        a.wire.push_us(rtt_us - r.engine_us);
        a.codec.push_us(r.codec_us);
        a.bytes.push_us(r.resp_bytes as f64);
    }

    /// Writes the per-verb server, engine and residual figures.
    pub fn report(
        &mut self,
        layer: &mut BTreeMap<String, f64>,
        ping_us: f64,
        durability: impl Fn(&str) -> f64,
    ) {
        for (v, a) in self.verbs.iter_mut() {
            layer.insert(format!("server.wire_us.{v}.p50"), a.wire.p50_or_zero());
            layer.insert(format!("server.codec_us.{v}"), a.codec.p50_or_zero());
            layer.insert(format!("server.resp_bytes.{v}"), a.bytes.p50_or_zero());
            layer.insert(format!("engine.verb_us.{v}.p50"), a.engine.p50_or_zero());
            if let Some(r) = a.residual(ping_us, durability(v)) {
                layer.insert(format!("trace.residual_frac.{v}"), r);
            }
        }
    }
}

/// The server figures every workload reports: connect and null-request
/// baselines, and the `ServeStats` snapshot and refusal counters.
pub fn report_server(
    layer: &mut BTreeMap<String, f64>,
    connect_us: &mut Samples,
    ping_us: f64,
    serve: &ServeStats,
) {
    let reads = serve.snapshot_hits + serve.snapshot_captures + serve.snapshot_stale;
    let rows = [
        ("server.connect_us.p50", connect_us.p50_or_zero()),
        ("server.connect_us.p99", connect_us.p99_or_zero()),
        ("server.ping_us.p50", ping_us),
        (
            "server.snapshot_hit_ratio",
            ratio(serve.snapshot_hits, reads),
        ),
        ("server.shed", serve.shed as f64),
        ("server.framing_errors", serve.framing_errors as f64),
    ];
    for (name, v) in rows {
        layer.insert(name.to_string(), v);
    }
}

/// Connect and null-request baselines, measured on an otherwise idle
/// server: `connects` connect+Hello / Quit cycles, then `pings` Pings on
/// one connection. Each connect is recorded as a `connect` span.
pub fn probe(
    addr: SocketAddr,
    connects: usize,
    pings: usize,
    rec: &mut Recorder,
) -> Result<(Samples, Samples), String> {
    let mut connect_us = Samples::default();
    for _ in 0..connects {
        let span = rec.open("connect", None, 0);
        let t = Instant::now();
        let c = connect(addr)?;
        connect_us.push(t.elapsed());
        rec.close(span);
        c.quit().map_err(|e| format!("quit: {e}"))?;
    }
    let mut ping_us = Samples::default();
    let mut c = connect(addr)?;
    for _ in 0..pings {
        let t = Instant::now();
        call(&mut c, &Request::Ping)?;
        ping_us.push(t.elapsed());
    }
    c.quit().map_err(|e| format!("quit: {e}"))?;
    Ok((connect_us, ping_us))
}
