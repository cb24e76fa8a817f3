//! Loopback integration: the wire path must be a transparent veneer over
//! the engine. The headline test drives a full provider + tagger session
//! sequence over TCP and replays the identical operations in-process,
//! then compares the two engines' persisted-table digests byte for byte.

use std::time::Duration;

use itag_core::config::EngineConfig;
use itag_core::engine::ITagEngine;
use itag_core::project::ProjectSpec;
use itag_model::ids::{ProjectId, TagId, TaggerId};
use itag_server::client::{Client, ClientError};
use itag_server::proto::{DatasetSpec, Request, Response};
use itag_server::server::{apply_in_process, serve, ServerConfig};
use itag_strategy::StrategyKind;

const SEED: u64 = 0xC0FFEE;

/// The scripted session: every operation expressed as a wire request, so
/// the loopback run and the in-process twin execute the same list by
/// construction.
fn script() -> Vec<Request> {
    let mut ops = vec![
        Request::RegisterProvider {
            name: "alice".into(),
        },
        Request::CreateProject {
            provider: 0,
            spec: ProjectSpec::demo("wire-sim", 60),
            dataset: DatasetSpec::small(11),
            audience: false,
        },
        Request::RunRound {
            project: ProjectId(0),
            max_tasks: 30,
        },
        Request::AddBudget {
            project: ProjectId(0),
            extra_tasks: 10,
        },
        Request::SwitchStrategy {
            project: ProjectId(0),
            strategy: StrategyKind::MostUnstable,
        },
        Request::RunRound {
            project: ProjectId(0),
            max_tasks: 20,
        },
        Request::RegisterTagger { name: "bob".into() },
        Request::CreateProject {
            provider: 0,
            spec: ProjectSpec::demo("wire-audience", 40),
            dataset: DatasetSpec::small(12),
            audience: true,
        },
        Request::PublishBatch {
            project: ProjectId(1),
            want: 8,
        },
    ];
    // The tagger works the first six audience tasks. Task ids are
    // deterministic (fresh platform, fresh engine on both sides).
    for task in 0..6u64 {
        ops.push(Request::SubmitPost {
            project: ProjectId(1),
            task,
            tagger: TaggerId(3),
            tags: vec![TagId((task % 5) as u32), TagId((7 + task % 3) as u32)],
        });
    }
    ops.extend([
        Request::Collect {
            project: ProjectId(1),
        },
        Request::Monitor {
            project: ProjectId(0),
        },
        Request::MonitorTable {
            project: ProjectId(0),
            limit: 10,
        },
        Request::BrowseProjects,
        Request::ExportCsv {
            project: ProjectId(0),
        },
        Request::ExportDownload {
            project: ProjectId(0),
        },
        Request::Reputation { tagger: 3 },
        Request::StopProject {
            project: ProjectId(1),
        },
    ]);
    ops
}

#[test]
fn loopback_session_state_is_byte_identical_to_in_process() {
    let engine = ITagEngine::new(EngineConfig::in_memory(SEED)).expect("engine");
    let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("serve");

    let mut wire_responses = Vec::new();
    let mut c = Client::connect(handle.addr()).expect("connect");
    for req in script() {
        let resp = c.call(&req).expect("wire call");
        assert!(
            !matches!(resp, Response::Error(_) | Response::Busy),
            "wire op {req:?} refused: {resp:?}"
        );
        wire_responses.push(resp);
    }
    let wire_digest = c.checksum().expect("wire checksum");
    c.quit().expect("quit");
    let report = handle.shutdown();

    // Twin engine: same seed, same ops, no network.
    let mut twin = ITagEngine::new(EngineConfig::in_memory(SEED)).expect("twin engine");
    let mut twin_responses = Vec::new();
    for req in script() {
        twin_responses.push(apply_in_process(&mut twin, req).expect("in-process op"));
    }

    // Response payloads match one for one (snapshots, tables, exports,
    // run summaries — everything the provider or tagger would see)...
    assert_eq!(wire_responses, twin_responses);
    // ...and the persisted state digests are byte-identical.
    assert_eq!(wire_digest, report.engine.store_checksum());
    assert_eq!(wire_digest, twin.store_checksum());
    assert_eq!(report.stats.served, 1);
    assert_eq!(report.stats.framing_errors, 0);
}

#[test]
fn server_survives_engine_refusals_and_session_continues() {
    let engine = ITagEngine::new(EngineConfig::in_memory(1)).expect("engine");
    let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("serve");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Unknown project: a typed Engine error, not a dropped session.
    match c.monitor(ProjectId(99)) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, itag_server::proto::ErrorCode::Engine);
            assert!(e.message.contains("unknown project"), "{}", e.message);
        }
        other => panic!("expected engine refusal, got {other:?}"),
    }
    // The same session keeps working.
    c.ping().expect("ping after refusal");

    // A budget overflow surfaces as the named BudgetOverflow error.
    let provider = c.register_provider("edge").expect("register");
    let project = c
        .create_project(
            provider,
            ProjectSpec::demo("edge", u32::MAX - 5),
            DatasetSpec::small(2),
            false,
        )
        .expect("project");
    match c.add_budget(project, 10) {
        Err(ClientError::Server(e)) => {
            assert!(e.message.contains("overflows"), "{}", e.message);
        }
        other => panic!("expected overflow refusal, got {other:?}"),
    }
    c.quit().expect("quit");
    handle.shutdown();
}

#[test]
fn full_queue_sheds_with_busy() {
    let engine = ITagEngine::new(EngineConfig::in_memory(2)).expect("engine");
    let handle = serve(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();

    // Session A occupies the single worker (the completed handshake
    // proves a worker claimed it, not the queue).
    let mut a = Client::connect(addr).expect("session A");
    a.ping().expect("A live");

    // Session B fills the queue of one. It cannot complete a handshake —
    // no worker is free — so only open the socket.
    let _b = std::net::TcpStream::connect(addr).expect("session B");
    std::thread::sleep(Duration::from_millis(150));

    // Session C must be shed with Busy, not buffered.
    match Client::connect_with(addr, 1 << 20, Duration::from_secs(5)) {
        Err(ClientError::Busy) => {}
        Err(other) => panic!("expected Busy shed, got error {other:?}"),
        Ok(_) => panic!("expected Busy shed, got a served session"),
    }

    a.quit().expect("A quit");
    let report = handle.shutdown();
    assert!(report.stats.shed >= 1, "shed counter records the refusal");
}

/// A wire round is one WAL frame: on a strict-sync durable engine a
/// 40-task `RunRound` moves `wal_syncs` by exactly one and a `Collect` by
/// at most one, and a reopen answers the checksum the client was given.
#[test]
fn a_wire_round_costs_one_fsync() {
    let dir = itag_store::testutil::TestDir::new("loopback-one-fsync");
    let mut config = EngineConfig::durable(SEED, dir.path().to_path_buf());
    if let itag_core::config::StorageConfig::Durable { durability, .. } = &mut config.storage {
        *durability = itag_store::Durability::Sync;
    }
    let engine = ITagEngine::new(config.clone()).expect("engine");
    let store = engine.store_handle();
    let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("serve");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let mut call = |req: Request| {
        let resp = c.call(&req).expect("wire call");
        assert!(!matches!(resp, Response::Error(_)), "{req:?}: {resp:?}");
        resp
    };
    let mut setup = script();
    setup.truncate(2); // provider + simulated campaign 0
    setup.extend([
        Request::CreateProject {
            provider: 0,
            spec: ProjectSpec::demo("wire-audience", 40),
            dataset: DatasetSpec::small(12),
            audience: true,
        },
        Request::PublishBatch {
            project: ProjectId(1),
            want: 8,
        },
    ]);
    for req in setup {
        call(req);
    }
    for task in 0..4u64 {
        call(Request::SubmitPost {
            project: ProjectId(1),
            task,
            tagger: TaggerId(3),
            tags: vec![TagId(task as u32), TagId(7)],
        });
    }

    let syncs = || store.stats().wal_syncs;
    let before = syncs();
    let round = call(Request::RunRound {
        project: ProjectId(0),
        max_tasks: 40,
    });
    assert!(matches!(round, Response::RunDone { summary } if summary.issued == 40));
    assert_eq!(syncs() - before, 1, "a 40-task round is one fsync");
    for decided in [4, 0] {
        let before = syncs();
        let collected = call(Request::Collect {
            project: ProjectId(1),
        });
        assert!(matches!(
            collected,
            Response::Collected { approved, rejected } if approved + rejected == decided
        ));
        assert!(syncs() - before <= 1, "a Collect is at most one fsync");
    }

    let digest = c.checksum().expect("checksum");
    c.quit().expect("quit");
    drop(handle.shutdown());
    drop(store);
    let reopened = ITagEngine::new(config).expect("reopen");
    assert_eq!(reopened.store_checksum(), digest);
}
