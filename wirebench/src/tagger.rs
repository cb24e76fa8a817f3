//! `tagger_sessions`: one client thread runs short tagger sessions back
//! to back against a large audience campaign on an in-memory store, over
//! a seeded tagger population larger than the entity cache. A provider
//! connection collects and republishes every few sessions.

use std::net::SocketAddr;
use std::time::Instant;

use itag_core::engine::ITagEngine;
use itag_model::ids::{ProjectId, TaggerId};
use itag_server::client::Client;
use itag_server::proto::{Request, Response};

use crate::host::peak_rss_mib;
use crate::script::{self, verb, SessionDraws, SessionPlan, COLLECT_EVERY, POPULATION, PULL};
use crate::stats::{median_rate, ratio, ratio_p50, Samples, RATE_CHUNKS};
use crate::wire::{
    call, connect, engine_config, probe, replay, report_server, run_script, start,
    time_snapshot_read, Attribution, Tally, Tracer,
};
use crate::{Ctx, Outcome};

const PROJECT: ProjectId = ProjectId(0);
/// Request ids of provider-side calls start here; session `k`'s requests
/// use `k << 4 | j`.
const PROVIDER_ID_BASE: u64 = 1 << 48;
/// Sessions the twin replays to count store operations per session: a
/// whole number of collect cycles, short enough that every run of a few
/// seconds completes them, so the counts repeat exactly.
const COUNT_SESSIONS: u64 = 200;
const PROBE_PINGS: usize = 2000;
/// Set-ups per run; `setup_s` is their median and the last one is
/// measured. On a shared host single set-ups range from 0.4 to 0.9 s,
/// almost all of it `seed_taggers`, with no difference in page faults
/// between fast and slow ones; slow ones come in stretches of a few
/// seconds, so the median needs many of them.
const SETUPS: usize = 21;

struct SessionOut {
    connect_us: f64,
    session_us: f64,
    request_us: Vec<f64>,
    submitted: u64,
}

/// One tagger session, connect through `Bye`.
fn session(
    addr: SocketAddr,
    k: u64,
    draws: &SessionDraws,
    tr: &mut Tracer,
    traced: bool,
    tally: &mut Tally,
) -> Result<SessionOut, String> {
    let base = k << 4;
    let root = (tr.on && traced).then(|| tr.rec.open("session", None, base));
    let t0 = Instant::now();
    let span = root.map(|r| tr.rec.open("connect", Some(r), base));
    let mut c: Client = connect(addr)?;
    if let Some(s) = span {
        tr.rec.close(s);
    }
    let connect_us = t0.elapsed().as_secs_f64() * 1e6;
    let keep = tr.on;
    let mut out = SessionOut {
        connect_us,
        session_us: 0.0,
        request_us: Vec::with_capacity(10),
        submitted: 0,
    };
    let mut j = 0u64;
    let mut send = |c: &mut Client, req: Request, out: &mut SessionOut| {
        j += 1;
        let name = verb(&req);
        let (resp, us) = tr.call(c, req, base | j, traced, root, keep);
        out.request_us.push(us);
        let resp = resp?;
        tally.ok();
        Ok::<_, String>((name, resp))
    };

    let tagger = match send(
        &mut c,
        Request::RegisterTagger {
            name: format!("session-{k}"),
        },
        &mut out,
    )? {
        (_, Response::Registered { id }) => id,
        (v, _) => return Err(format!("{v}: not Registered")),
    };
    match send(&mut c, Request::BrowseProjects, &mut out)? {
        (_, Response::Projects { listings }) if listings.len() == 1 => {}
        (v, _) => return Err(format!("{v}: wrong listing")),
    }
    let open = match send(
        &mut c,
        Request::PullTasks {
            project: PROJECT,
            limit: PULL,
        },
        &mut out,
    )? {
        (_, Response::Tasks { open }) if open.len() == PULL as usize => open,
        (v, _) => return Err(format!("{v}: fewer than {PULL} open tasks")),
    };
    for (task, tags) in open.iter().zip(&draws.tags) {
        let req = Request::SubmitPost {
            project: PROJECT,
            task: task.task,
            tagger: TaggerId(tagger),
            tags: tags.clone(),
        };
        match send(&mut c, req, &mut out)? {
            (_, Response::Done) => out.submitted += 1,
            (v, _) => return Err(format!("{v}: not Done")),
        }
    }
    for who in [tagger, draws.peer] {
        match send(&mut c, Request::Reputation { tagger: who }, &mut out)? {
            (_, Response::ReputationReport { approval_rate, .. })
                if (0.0..=1.0).contains(&approval_rate) => {}
            (v, _) => return Err(format!("{v}: bad report")),
        }
    }
    match call(&mut c, &Request::Quit)? {
        Response::Bye => {}
        _ => return Err("Quit: not Bye".into()),
    }
    drop(c);
    out.session_us = t0.elapsed().as_secs_f64() * 1e6;
    if let Some(r) = root {
        tr.rec.close(r);
    }
    Ok(out)
}

/// Provider side: decide what the last sessions submitted, then publish
/// as many tasks as they took. Returns the decided count.
fn collect_and_publish(
    pc: &mut Client,
    tr: &mut Tracer,
    id: &mut u64,
    publish: bool,
    tally: &mut Tally,
) -> Result<u64, String> {
    *id += 2;
    let (resp, _) = tr.call(
        pc,
        Request::Collect { project: PROJECT },
        *id - 1,
        true,
        None,
        tr.on,
    );
    let decided = match resp? {
        Response::Collected { approved, rejected } => (approved + rejected) as u64,
        _ => return Err("Collect: not Collected".into()),
    };
    tally.ok();
    if publish {
        let want = PULL * COLLECT_EVERY as u32;
        let req = Request::PublishBatch {
            project: PROJECT,
            want,
        };
        let (resp, _) = tr.call(pc, req, *id, true, None, tr.on);
        match resp? {
            Response::Published { tasks } if tasks == want => tally.ok(),
            _ => tally.fail(format!("PublishBatch: fewer than {want} tasks")),
        }
    }
    Ok(decided)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new(ctx.epoch);
    let seed = ctx.seed;
    let setup = script::audience_setup(seed);

    // Set-up, repeated; the last one is measured. It ends with one
    // warm-up session, so the first measured session is not the one that
    // grows the audience platform's worker table to the population size.
    let mut setup_s = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let mut engine =
            ITagEngine::new(engine_config(seed, None)).map_err(|e| format!("engine: {e}"))?;
        engine
            .seed_taggers(0, POPULATION)
            .map_err(|e| format!("seed taggers: {e}"))?;
        let store = engine.store_handle();
        let handle = start(engine)?;
        let resps = run_script(handle.addr(), &setup)?;
        let mut plan = SessionPlan::new(seed);
        let mut tr = Tracer::new(ctx.trace, ctx.epoch);
        let warm = session(
            handle.addr(),
            0,
            &plan.next(),
            &mut tr,
            false,
            &mut out.tally,
        )?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            live = Some((store, handle, resps, plan, tr, warm.submitted));
        } else {
            drop(handle.shutdown());
        }
    }
    let (store, handle, setup_resps, mut plan, mut tr, mut submitted) = live.expect("SETUPS >= 1");
    let addr = handle.addr();
    let mut ping_us = if ctx.trace {
        probe(addr, 0, PROBE_PINGS, &mut out.spans)?.1
    } else {
        Samples::default()
    };

    // The measured window.
    let mut pc = connect(addr)?;
    let mut pid = PROVIDER_ID_BASE;
    let stats0 = store.stats();
    let mut session_us = Vec::new();
    let (mut traced, mut untraced) = (Samples::default(), Samples::default());
    let (mut requests, mut connects) = (Samples::default(), Samples::default());
    let mut decided = 0u64;
    // (seconds into the window, weight) per finished session and per
    // collected batch of decisions.
    let mut ended: Vec<(f64, f64)> = Vec::new();
    let mut decisions: Vec<(f64, f64)> = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + ctx.window;
    let mut k = 1u64;
    while Instant::now() < deadline {
        let draws = plan.next();
        // Alternate whole collect cycles, so traced and untraced sessions
        // sit at the same offsets from a Collect.
        let is_traced = ((k - 1) / COLLECT_EVERY) % 2 == 1;
        match session(addr, k, &draws, &mut tr, is_traced, &mut out.tally) {
            Ok(s) => {
                session_us.push(s.session_us);
                if is_traced {
                    &mut traced
                } else {
                    &mut untraced
                }
                .push_us(s.session_us);
                connects.push_us(s.connect_us);
                for us in s.request_us {
                    requests.push_us(us);
                }
                submitted += s.submitted;
                ended.push((t0.elapsed().as_secs_f64(), 1.0));
            }
            Err(e) => out.tally.fail(format!("session {k}: {e}")),
        }
        if k.is_multiple_of(COLLECT_EVERY) {
            match collect_and_publish(&mut pc, &mut tr, &mut pid, true, &mut out.tally) {
                Ok(d) => {
                    decided += d;
                    decisions.push((t0.elapsed().as_secs_f64(), d as f64));
                }
                Err(e) => out.tally.fail(e),
            }
        }
        k += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let n = k - 1;
    let stats1 = store.stats();
    let mut total_decided = decided;
    match collect_and_publish(&mut pc, &mut tr, &mut pid, false, &mut out.tally) {
        Ok(d) => total_decided += d,
        Err(e) => out.tally.fail(e),
    }
    out.tally.check(total_decided == submitted, || {
        format!("{total_decided} decided after the final Collect, {submitted} posts submitted")
    });
    if let Err(e) = pc.quit() {
        out.tally.fail(format!("provider quit: {e}"));
    }
    let rss = peak_rss_mib();
    let report = handle.shutdown();
    drop(report.engine);
    drop(store);
    let serve = report.stats;
    out.tally.check_serve(&serve);

    let sessions_per_s = median_rate(&ended, RATE_CHUNKS);
    let tasks_per_s = median_rate(&decisions, RATE_CHUNKS);
    out.setup(&setup_s);
    let mut sessions = Samples::from_us(session_us.clone());
    out.show_p50(&mut sessions, "session_p50_ms", 1e-3, "ms");
    out.show_tail(&mut sessions, "session_p99_ms", 1e-3, "ms");
    out.show(
        "sessions_per_s",
        sessions_per_s,
        "1/s",
        format!("(median of {RATE_CHUNKS} stretches; {n} sessions in {wall_s:.2} s)"),
    );
    out.show_p50(&mut requests, "request_p50_us", 1.0, "us");
    out.show_tail(&mut requests, "request_p99_us", 1.0, "us");
    out.show(
        "tasks_per_s",
        tasks_per_s,
        "1/s",
        format!(
            "(median of {RATE_CHUNKS} stretches; {decided} decided in-window, {total_decided} of {submitted} \
             after the final Collect)"
        ),
    );
    out.e2e.insert("tasks_per_s", tasks_per_s);
    out.e2e.insert("peak_rss_mib", rss);
    out.headline(&session_us, sessions_per_s);
    if !ctx.trace {
        return Ok(out);
    }

    // Per-layer figures (traced run): replay every exchange on a twin.
    let mut twin = ITagEngine::new(engine_config(seed, None)).map_err(|e| format!("twin: {e}"))?;
    let t = Instant::now();
    twin.seed_taggers(0, POPULATION)
        .map_err(|e| format!("twin seed: {e}"))?;
    let seed_s = t.elapsed().as_secs_f64();
    let mut create_ms = 0.0;
    for (req, wire) in setup.iter().zip(&setup_resps) {
        let r = replay(&mut twin, req, None, 0);
        if matches!(req, Request::CreateProject { .. }) {
            create_ms = r.engine_us / 1e3;
        }
        out.tally.check(r.resp.as_ref() == Ok(wire), || {
            format!("twin set-up answer differs for {}", verb(req))
        });
    }
    let mut twin_rec = crate::trace::Recorder::new(ctx.epoch);
    let mut attr = Attribution::default();
    let mut registered = 0u64;
    let (mut c0, mut c1) = (None, None);
    // Entity-cache hits and lookups of the peer `Reputation` calls alone:
    // the lookups the population is sized to push out of the cache.
    let (mut peer_hits, mut peer_lookups) = (0u64, 0u64);
    for s in &tr.log {
        if matches!(s.req, Request::RegisterTagger { .. }) {
            registered += 1;
            if registered == 2 {
                c0 = Some(twin.store_stats());
            } else if registered == 2 + COUNT_SESSIONS {
                c1 = Some(twin.store_stats());
            }
        }
        // Every session writes before it browses, so the server captures a
        // fresh snapshot for each BrowseProjects: time capture + browse.
        let served = matches!(s.req, Request::BrowseProjects).then(|| {
            let t = Instant::now();
            let snap = twin.snapshot();
            let capture_us = t.elapsed().as_secs_f64() * 1e6;
            time_snapshot_read(&snap, &s.req).map(|us| us + capture_us)
        });
        let peer = matches!(s.req, Request::Reputation { tagger } if tagger < POPULATION);
        let before = peer.then(|| twin.store_stats());
        let r = replay(&mut twin, &s.req, Some(&mut twin_rec), s.id);
        if let Some(b) = before {
            let a = twin.store_stats();
            peer_hits += a.cache_hits - b.cache_hits;
            peer_lookups += a.cache_hits + a.cache_misses - b.cache_hits - b.cache_misses;
        }
        out.tally.check(r.resp.as_ref() == Ok(&s.resp), || {
            format!("request {}: twin answer differs for {}", s.id, verb(&s.req))
        });
        attr.add(&s.req, s.rtt_us, &r, served.flatten());
    }
    let c1 = c1.unwrap_or_else(|| twin.store_stats());
    let counted = registered.saturating_sub(1).clamp(1, COUNT_SESSIONS) as f64;
    drop(twin);
    let ping = ping_us.p50_or_zero();
    attr.report(&mut out.layer, ping, |_| 0.0);
    report_server(&mut out.layer, &mut connects, ping, &serve);

    let mut layer = |name: &str, v: f64| {
        out.layer.insert(name.to_string(), v);
    };
    layer("trace.overhead_frac", ratio_p50(traced, untraced));
    if let Some(c0) = c0 {
        layer(
            "store.commits_per_session",
            (c1.commits - c0.commits) as f64 / counted,
        );
        layer(
            "store.gets_per_session",
            (c1.gets - c0.gets) as f64 / counted,
        );
    }
    let hits = stats1.cache_hits - stats0.cache_hits;
    let misses = stats1.cache_misses - stats0.cache_misses;
    layer("store.cache_hit_ratio", ratio(hits, hits + misses));
    layer("store.peer_cache_hit_ratio", ratio(peer_hits, peer_lookups));
    if let Some(Request::CreateProject { dataset, .. }) = setup.get(1) {
        let t = Instant::now();
        drop(dataset.generate());
        layer("setup.dataset_gen_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    layer("setup.create_project_ms", create_ms);
    layer("setup.seed_taggers_s", seed_s);
    out.spans.merge(tr.rec);
    out.spans.merge(twin_rec);
    Ok(out)
}
