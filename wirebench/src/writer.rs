//! `rounds_durable`: one provider connection runs `RunRound` round-robin
//! over the campaigns on a strict-sync durable store. The traced run adds
//! a dashboard pass after the window that cycles the snapshot-read verbs,
//! so their layers are attributed too.

use std::net::SocketAddr;
use std::time::Instant;

use itag_core::engine::{ITagEngine, RunSummary};
use itag_model::ids::ProjectId;
use itag_server::proto::{Request, Response};

use crate::host::{dir_bytes, peak_rss_mib};
use crate::script::{self, verb, CAMPAIGNS, TABLE_LIMIT, WRITER_BUDGET};
use crate::stats::{median, median_rate, ratio, ratio_p50, Samples, RATE_CHUNKS};
use crate::wire::{
    call, connect, engine_config, probe, replay, report_server, run_script, start,
    time_snapshot_read, Attribution, Tally, Tracer,
};
use crate::{Ctx, Outcome};

/// Rounds the durable twin replays to attribute durability and count
/// store operations per round (a whole number of passes over the
/// campaigns, so every corpus weighs the same).
const PREFIX_ROUNDS: u64 = 6 * CAMPAIGNS as u64;
/// Request ids of dashboard reads start here; writer rounds use `k + 1`.
const READ_ID_BASE: u64 = 1 << 40;
/// Dashboard reads the traced run sends after the window: six cycles of
/// the four verbs over every campaign, so each verb has 48 samples.
const DASHBOARD_READS: u64 = 6 * 4 * CAMPAIGNS as u64;
/// Set-ups per run; `setup_s` is their median and the last one is
/// measured. A set-up is ~20 ms, so many are cheap and steady the median.
const SETUPS: usize = 31;
/// `peak_rss_mib` is read when the writer has acknowledged this many
/// rounds (or at the end of a shorter run), so it measures a fixed amount
/// of work however fast the rounds go.
const RSS_AT_ROUNDS: u64 = 1000;
/// Safety cap on rounds per run, which bounds memory, twin replay and
/// recovery time for a much faster writer.
const MAX_ROUNDS: u64 = 40_000;
/// Connect+Hello samples the traced run takes before the window.
const PROBE_CONNECTS: usize = 400;
const PROBE_PINGS: usize = 2000;

/// Rounds in alternate passes over the campaigns are traced, so traced
/// and untraced rounds see the same corpora.
fn round_traced(k: u64) -> bool {
    (k / CAMPAIGNS as u64) % 2 == 1
}

fn check_read(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (Request::Monitor { project }, Response::Snapshot(s)) => {
            s.project == *project && s.budget_total == WRITER_BUDGET
        }
        (Request::MonitorTable { .. }, Response::Table { rendered }) => !rendered.is_empty(),
        (Request::BrowseProjects, Response::Projects { listings }) => {
            listings.len() == CAMPAIGNS as usize
        }
        (Request::ExportCsv { .. }, Response::Csv { csv }) => csv.lines().count() > 1,
        _ => false,
    }
}

struct ReadOut {
    /// Latency per verb, in the cycle's order.
    by_verb: [Samples; 4],
    tally: Tally,
    /// Every read, traced and kept for the twin replay.
    tracer: Tracer,
}

/// The traced run's dashboard pass: [`DASHBOARD_READS`] reads on a fresh
/// connection once the writer has stopped, so the gated rounds never
/// share the host with it.
fn dashboard(addr: SocketAddr, mut tracer: Tracer) -> Result<ReadOut, String> {
    let mut by_verb: [Samples; 4] = Default::default();
    let mut tally = Tally::default();
    let mut c = connect(addr)?;
    for k in 0..DASHBOARD_READS {
        let req = script::dashboard_read(k);
        let (resp, us) = tracer.call(&mut c, req.clone(), READ_ID_BASE + k, true, None, true);
        by_verb[(k % 4) as usize].push_us(us);
        match resp {
            Ok(resp) => tally.check(check_read(&req, &resp), || {
                format!("read {k}: wrong {} answer", verb(&req))
            }),
            Err(e) => {
                tally.fail(format!("read {k}: {e}"));
                break;
            }
        }
    }
    c.quit().map_err(|e| format!("dashboard quit: {e}"))?;
    Ok(ReadOut {
        by_verb,
        tally,
        tracer,
    })
}

/// Times `f` in microseconds into `s`.
fn time_into<T>(s: &mut Samples, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    s.push(t.elapsed());
    out
}

#[derive(Default)]
struct SnapTimes {
    capture: Samples,
    read_snapshot: Samples,
    monitor: Samples,
    table: Samples,
    browse: Samples,
    export: Samples,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(ctx.epoch);
    let seed = ctx.seed;
    let setup = script::writer_setup(seed);
    let mut setup_script = setup.clone();
    // Warms the server's snapshot cache while the engine is idle.
    setup_script.push(Request::BrowseProjects);

    // Set-up, repeated; the last one is measured.
    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let dir = ctx.tmp.join(format!("db-{i}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir: {e}"))?;
        let t = Instant::now();
        let engine = ITagEngine::new(engine_config(seed, Some(&dir)))
            .map_err(|e| format!("open engine: {e}"))?;
        let store = engine.store_handle();
        let handle = start(engine)?;
        let resps = run_script(handle.addr(), &setup_script)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            live = Some((dir, store, handle, resps));
        } else {
            drop(handle.shutdown());
            drop(store);
            std::fs::remove_dir_all(&dir).map_err(|e| format!("rm: {e}"))?;
        }
    }
    let (dir, store, handle, setup_resps) = live.expect("SETUPS >= 1");
    let addr = handle.addr();
    out.tally.check(
        matches!(setup_resps.last(), Some(Response::Projects { listings }) if listings.len() == CAMPAIGNS as usize),
        || "set-up browse does not list every campaign".into(),
    );

    let (mut connect_us, mut ping_us) = if ctx.trace {
        probe(addr, PROBE_CONNECTS, PROBE_PINGS, &mut out.spans)?
    } else {
        Default::default()
    };

    // The measured window.
    let stats0 = store.stats();
    let mut tr = Tracer::new(ctx.trace, ctx.epoch);
    let mut c = connect(addr)?;
    let (mut traced, mut untraced) = (Samples::default(), Samples::default());
    let mut round_rtt = Vec::new();
    let mut summaries: Vec<Option<RunSummary>> = Vec::new();
    let mut decided = 0u64;
    // (seconds into the window, tasks decided) per acknowledged round.
    let mut done: Vec<(f64, f64)> = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + ctx.window;
    let mut k = 0u64;
    let mut rss = None;
    while Instant::now() < deadline && k < MAX_ROUNDS {
        if k == RSS_AT_ROUNDS {
            rss = Some(peak_rss_mib());
        }
        let is_traced = round_traced(k);
        let (resp, us) = tr.call(
            &mut c,
            script::writer_round(k),
            k + 1,
            is_traced,
            None,
            false,
        );
        round_rtt.push(us);
        if is_traced {
            &mut traced
        } else {
            &mut untraced
        }
        .push_us(us);
        let fatal = match resp {
            Ok(Response::RunDone { summary }) => {
                out.tally
                    .check(summary.issued > 0, || format!("round {k} issued no task"));
                let tasks = summary.approved + summary.rejected;
                decided += tasks as u64;
                done.push((t0.elapsed().as_secs_f64(), tasks as f64));
                summaries.push(Some(summary));
                false
            }
            Ok(_) => {
                out.tally.fail(format!("round {k}: not a RunDone"));
                summaries.push(None);
                false
            }
            Err(e) => {
                out.tally.fail(format!("round {k}: {e}"));
                summaries.push(None);
                true
            }
        };
        k += 1;
        if fatal {
            break;
        }
    }
    let writer_s = t0.elapsed().as_secs_f64();
    let n = k;
    let digest = match call(&mut c, &Request::Checksum) {
        Ok(Response::Checksum { digest }) => Some(digest),
        other => {
            out.tally.fail(format!("final checksum: {:?}", other.err()));
            None
        }
    };
    if let Err(e) = c.quit() {
        out.tally.fail(format!("writer quit: {e}"));
    }
    let stats1 = store.stats();
    let reads = if ctx.trace {
        let tracer = Tracer::new(true, ctx.epoch);
        Some(dashboard(addr, tracer).map_err(|e| format!("dashboard: {e}"))?)
    } else {
        None
    };
    let rss = rss.unwrap_or_else(peak_rss_mib);
    let report = handle.shutdown();
    drop(report.engine);
    drop(store);
    let serve = report.stats;
    out.tally.check_serve(&serve);

    // Check 1: an in-process twin replaying the exact script agrees with
    // every round summary and the final checksum. Traced runs also time
    // the replay layer by layer.
    let mut twin = ITagEngine::new(engine_config(seed, None)).map_err(|e| format!("twin: {e}"))?;
    let mut attr = Attribution::default();
    let mut create_ms = Vec::new();
    for (req, wire) in setup.iter().zip(&setup_resps) {
        let r = replay(&mut twin, req, None, 0);
        if matches!(req, Request::CreateProject { .. }) {
            create_ms.push(r.engine_us / 1e3);
        }
        out.tally.check(r.resp.as_ref() == Ok(wire), || {
            format!("twin set-up answer differs for {}", verb(req))
        });
    }
    let mut twin_rec = crate::trace::Recorder::new(ctx.epoch);
    let mut twin_round_us = Vec::with_capacity(n as usize);
    let mut snap = SnapTimes::default();
    for k in 0..n {
        let req = script::writer_round(k);
        let r = replay(&mut twin, &req, ctx.trace.then_some(&mut twin_rec), k + 1);
        twin_round_us.push(r.engine_us);
        let agrees = match (&r.resp, &summaries[k as usize]) {
            (Ok(Response::RunDone { summary }), Some(wire)) => summary == wire,
            _ => false,
        };
        out.tally.check(agrees, || {
            format!("round {k}: twin summary differs from the wire")
        });
        if ctx.trace {
            if round_traced(k) {
                attr.add(&req, round_rtt[k as usize], &r, None);
            }
            if k % 4 != 0 {
                continue;
            }
            let es = time_into(&mut snap.capture, || twin.snapshot());
            let handle = twin.store_handle();
            drop(time_into(&mut snap.read_snapshot, || {
                handle.read_snapshot()
            }));
            if k % 32 == 0 {
                let p = ProjectId(((k / 32) % CAMPAIGNS as u64) as u32);
                let ok = time_into(&mut snap.monitor, || es.monitor(p)).is_ok()
                    && time_into(&mut snap.table, || es.render_table(p, TABLE_LIMIT as usize))
                        .is_ok()
                    && time_into(&mut snap.browse, || es.browse()).is_ok()
                    && time_into(&mut snap.export, || es.export(p).map(|e| e.to_csv())).is_ok();
                out.tally
                    .check(ok, || format!("snapshot reads failed after round {k}"));
            }
        }
    }
    // The dashboard pass came after every round: the server answers it
    // from a capture of the final state, so time that path on one.
    let read_log = reads.as_ref().map_or(&[][..], |r| &r.tracer.log[..]);
    for s in read_log {
        let served = time_snapshot_read(&twin.snapshot(), &s.req);
        let r = replay(&mut twin, &s.req, Some(&mut twin_rec), s.id);
        attr.add(&s.req, s.rtt_us, &r, served);
    }
    out.tally.check(digest == Some(twin.store_checksum()), || {
        "wire checksum differs from the twin's".into()
    });
    drop(twin);

    // Check 2: the reopened durable directory holds every acknowledged
    // round.
    let t = Instant::now();
    let reopened =
        ITagEngine::new(engine_config(seed, Some(&dir))).map_err(|e| format!("reopen: {e}"))?;
    let recover_s = t.elapsed().as_secs_f64();
    out.tally
        .check(digest == Some(reopened.store_checksum()), || {
            "reopened checksum differs from the acknowledged state".into()
        });
    let recovered = reopened.store_stats().recovered_entries;
    drop(reopened);

    // End-to-end figures.
    let mut rounds = Samples::from_us(round_rtt.clone());
    let ones: Vec<(f64, f64)> = done.iter().map(|&(t, _)| (t, 1.0)).collect();
    let rounds_per_s = median_rate(&ones, RATE_CHUNKS);
    let tasks_per_s = median_rate(&done, RATE_CHUNKS);
    out.setup(&setup_s);
    out.show_p50(&mut rounds, "round_p50_ms", 1e-3, "ms");
    out.show_tail(&mut rounds, "round_p99_ms", 1e-3, "ms");
    out.show(
        "tasks_per_s",
        tasks_per_s,
        "1/s",
        format!(
            "(median of {RATE_CHUNKS} stretches; {decided} decided in {writer_s:.2} s = {:.1}/s)",
            decided as f64 / writer_s
        ),
    );
    out.show(
        "recover_s",
        recover_s,
        "s",
        format!("{recovered} WAL entries replayed"),
    );
    if let Some(r) = reads.as_ref() {
        for (k, s) in r.by_verb.iter().enumerate() {
            let name = verb(&script::dashboard_read(k as u64));
            out.show_p50(&mut s.clone(), &format!("read_p50_us.{name}"), 1.0, "us");
        }
    }
    out.e2e.insert("tasks_per_s", tasks_per_s);
    out.e2e.insert("peak_rss_mib", rss);
    out.headline(&round_rtt, rounds_per_s);
    let overhead = ratio_p50(traced, untraced);
    if let Some(r) = reads {
        out.tally.absorb(r.tally);
        out.spans.merge(r.tracer.rec);
    }
    if !ctx.trace {
        return Ok(out);
    }
    out.layer.insert("trace.overhead_frac".into(), overhead);

    // Per-layer figures (traced run).
    let p = n.min(PREFIX_ROUNDS);
    let dir2 = ctx.tmp.join("twin-db");
    let mut durable =
        ITagEngine::new(engine_config(seed, Some(&dir2))).map_err(|e| format!("twin: {e}"))?;
    for req in &setup {
        let _ = replay(&mut durable, req, None, 0);
    }
    let s0 = durable.store_stats();
    let wal0 = dir_bytes(&dir2);
    let durable_us: Vec<f64> = (0..p)
        .map(|k| replay(&mut durable, &script::writer_round(k), None, 0).engine_us)
        .collect();
    let s1 = durable.store_stats();
    // The prefix is far shorter than the checkpoint period, so the
    // directory grows by WAL frames alone.
    let wal_bytes = dir_bytes(&dir2).saturating_sub(wal0);
    let prefix_tasks: u64 = summaries[..p as usize]
        .iter()
        .flatten()
        .map(|s| (s.approved + s.rejected) as u64)
        .sum();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir2);
    let durability = median(&durable_us) - median(&twin_round_us[..p as usize]);
    let per = |a: u64, b: u64| (b - a) as f64 / p.max(1) as f64;
    let round_durability = |v: &str| if v == "RunRound" { durability } else { 0.0 };
    let ping = ping_us.p50_or_zero();
    attr.report(&mut out.layer, ping, round_durability);
    report_server(&mut out.layer, &mut connect_us, ping, &serve);

    let mut layer = |name: &str, v: f64| {
        out.layer.insert(name.to_string(), v);
    };
    let mut twin_rounds = Samples::from_us(twin_round_us);
    layer("engine.round_us.p50", twin_rounds.p50_or_zero());
    layer("engine.round_us.p99", twin_rounds.p99_or_zero());
    layer("snapshot.capture_us.p50", snap.capture.p50_or_zero());
    layer("snapshot.capture_us.p99", snap.capture.p99_or_zero());
    layer("snapshot.monitor_us", snap.monitor.p50_or_zero());
    layer("snapshot.table_us", snap.table.p50_or_zero());
    layer("snapshot.browse_us", snap.browse.p50_or_zero());
    layer("snapshot.export_us", snap.export.p50_or_zero());
    layer("store.read_snapshot_us", snap.read_snapshot.p50_or_zero());
    layer("store.durability_us_per_round", durability);
    layer("store.commits_per_round", per(s0.commits, s1.commits));
    layer("store.wal_syncs_per_round", per(s0.wal_syncs, s1.wal_syncs));
    layer(
        "store.group_commits_per_round",
        per(s0.group_commits, s1.group_commits),
    );
    layer("store.ops_per_round", per(s0.ops_applied, s1.ops_applied));
    layer("store.gets_per_round", per(s0.gets, s1.gets));
    layer("store.scans_per_round", per(s0.scans, s1.scans));
    let hits = stats1.cache_hits - stats0.cache_hits;
    let misses = stats1.cache_misses - stats0.cache_misses;
    layer("store.cache_hit_ratio", ratio(hits, hits + misses));
    layer(
        "store.wal_bytes_per_task",
        wal_bytes as f64 / prefix_tasks.max(1) as f64,
    );
    layer("store.recovered_entries", recovered as f64);
    let gen_ms: Vec<f64> = (0..CAMPAIGNS)
        .map(|i| {
            let spec = script::writer_dataset(seed, i);
            let t = Instant::now();
            drop(spec.generate());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layer("setup.dataset_gen_ms", median(&gen_ms));
    layer("setup.create_project_ms", median(&create_ms));
    out.spans.merge(tr.rec);
    out.spans.merge(twin_rec);
    Ok(out)
}
