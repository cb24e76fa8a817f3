//! Reputation equivalence at the public surface: the engine keeps one
//! incremental ledger (built from the tagger table at open, maintained by
//! each committed round's per-worker deltas), and the gate an
//! [`EngineSnapshot`] answers from it must equal the gate read straight
//! from the stored tagger rows — the per-round rescan, now an oracle —
//! at every round boundary, across thread counts, pipeline depths,
//! serial/parallel interleavings, a crash + reopen (the ledger's
//! recovery rebuild) and a registered population far larger than any
//! round's worker set. The counter-level twin of this oracle lives in
//! `engine.rs`'s test module, which can read the ledger itself.

use itag::core::config::EngineConfig;
use itag::core::engine::{ITagEngine, RunSummary};
use itag::core::monitor::MonitorSnapshot;
use itag::core::project::ProjectSpec;
use itag::core::snapshot::EngineSnapshot;
use itag::model::delicious::DeliciousConfig;
use itag::model::ids::ProjectId;

const WORKERS: usize = 16;
/// Seeded taggers start here, far above the worker-id range.
const SEEDED_FROM: u32 = 1 << 20;

fn dataset(seed: u64) -> itag::model::dataset::Dataset {
    DeliciousConfig {
        resources: 40,
        initial_posts: 200,
        eval_posts: 0,
        seed,
        ..DeliciousConfig::default()
    }
    .generate()
    .dataset
}

fn config(mut c: EngineConfig) -> EngineConfig {
    c.workers = WORKERS;
    // Mostly spammers: rejections push taggers below the gate, which the
    // following rounds read.
    c.spammer_fraction = 0.9;
    c
}

/// The oracle: for every active tagger (and a sample of seeded ones) the
/// snapshot's ledger gate equals the gate over the stored tagger row, and
/// the active range holds every tagger the table scan finds unreliable.
/// Returns the number of unreliable taggers.
fn assert_snapshot_gate_matches_table(e: &ITagEngine, registered: u32, ctx: &str) -> usize {
    let snap: EngineSnapshot = e.snapshot();
    let seeded = (0..registered.min(64)).map(|i| SEEDED_FROM + i * (registered / 64).max(1));
    let mut unreliable = 0;
    for t in (0..4 * WORKERS as u32).chain(seeded) {
        let table = e.is_reliable_tagger(t).unwrap();
        assert_eq!(
            snap.is_reliable_tagger(t),
            table,
            "snapshot gate diverged from the tagger table for tagger {t}: {ctx}"
        );
        unreliable += usize::from(!table);
    }
    assert_eq!(
        unreliable,
        e.unreliable_tagger_count().unwrap(),
        "an unreliable tagger lies outside the checked ids: {ctx}"
    );
    unreliable
}

fn build_engine(registered: u32) -> (ITagEngine, Vec<ProjectId>) {
    let mut e = ITagEngine::new(config(EngineConfig::in_memory(0x1ED6E4))).unwrap();
    if registered > 0 {
        e.seed_taggers(SEEDED_FROM, registered).unwrap();
    }
    let provider = e.register_provider("reputation-equivalence").unwrap();
    let projects = (0..4u64)
        .map(|i| {
            e.add_project(
                provider,
                ProjectSpec::demo(&format!("campaign-{i}"), 200),
                dataset(0x1ED6E4 + i),
            )
            .unwrap()
        })
        .collect();
    (e, projects)
}

type RoundOutput = (
    Vec<(ProjectId, RunSummary)>,
    Vec<MonitorSnapshot>,
    Vec<Vec<(u32, u64)>>,
    usize,
    u64,
);

/// Two parallel rounds with a single-project `run` between them, the
/// oracle checked at every boundary; returns everything observable.
fn run_rounds(registered: u32, threads: usize, depth: usize) -> RoundOutput {
    let (mut e, projects) = build_engine(registered);
    let ctx = format!("{registered} seeded, {threads} threads, depth {depth}");
    assert_snapshot_gate_matches_table(&e, registered, &format!("at open, {ctx}"));
    let mut summaries = Vec::new();
    for (round, &project) in projects.iter().enumerate().take(2) {
        summaries.extend(e.run_all_with(75, threads, depth).unwrap());
        assert_snapshot_gate_matches_table(&e, registered, &format!("round {round}, {ctx}"));
        summaries.push((project, e.run(project, 20).unwrap()));
        assert_snapshot_gate_matches_table(&e, registered, &format!("run {round}, {ctx}"));
    }
    let unreliable = assert_snapshot_gate_matches_table(&e, registered, &format!("end, {ctx}"));
    let monitors = projects.iter().map(|p| e.monitor(*p).unwrap()).collect();
    let balances = projects
        .iter()
        .map(|p| e.worker_balances(*p).unwrap())
        .collect();
    (
        summaries,
        monitors,
        balances,
        unreliable,
        e.store_checksum(),
    )
}

#[test]
fn ledger_matches_rescan_at_every_thread_count_and_depth() {
    // threads {1, 2, 8} × pipeline depths {1, 2, 4}, all against the
    // inline (one-thread) schedule — summaries, monitor snapshots,
    // payment ledgers, the gate and the stored-table digest bit-for-bit.
    let base = run_rounds(0, 1, 1);
    assert!(base.3 > 0, "the scenario must push taggers below the gate");
    for threads in [1usize, 2, 8] {
        for depth in [1usize, 2, 4] {
            if (threads, depth) == (1, 1) {
                continue; // the base cell itself
            }
            let other = run_rounds(0, threads, depth);
            let cell = format!("{threads} threads, depth {depth}");
            assert_eq!(base.0, other.0, "summaries diverged: {cell}");
            assert_eq!(base.1, other.1, "monitors diverged: {cell}");
            assert_eq!(base.2, other.2, "ledger balances diverged: {cell}");
            assert_eq!(base.3, other.3, "unreliable counts diverged: {cell}");
            assert_eq!(base.4, other.4, "stored bytes diverged: {cell}");
        }
    }
}

#[test]
fn large_registered_population_changes_nothing_but_the_user_table() {
    // Registered-but-inactive taggers (a small active fringe in a large
    // population) must not influence a single decision; only the user
    // table carries the extra rows.
    let base = run_rounds(0, 2, 2);
    let populated = run_rounds(5_000, 2, 2);
    assert_eq!(base.0, populated.0, "inactive accounts influenced a round");
    assert_eq!(
        base.1, populated.1,
        "inactive accounts influenced a monitor"
    );
    assert_eq!(base.2, populated.2, "inactive accounts influenced a payout");
    assert_eq!(base.3, populated.3, "inactive accounts changed the gate");
    assert_ne!(base.4, populated.4, "the seeded rows must be stored");
}

#[test]
fn crash_reopen_mid_run_rebuilds_the_ledger_identically() {
    // Rounds, then a drop with the WAL tail live (no checkpoint): the
    // reopen replays it and rebuilds the ledger from the recovered table,
    // whose gate must answer exactly as the first life's maintained one;
    // more rounds, a checkpoint and a final reopen keep it so.
    let dir = itag::store::testutil::TestDir::new("rep-equiv-reopen");
    let durable = || config(EngineConfig::durable(0xC4A5, dir.path().to_path_buf()));
    let gates = |e: &ITagEngine| -> Vec<bool> {
        let snap = e.snapshot();
        (0..4 * WORKERS as u32)
            .map(|t| snap.is_reliable_tagger(t))
            .collect()
    };
    let (projects, first_life) = {
        let mut e = ITagEngine::new(durable()).unwrap();
        let provider = e.register_provider("durable-equivalence").unwrap();
        let projects: Vec<ProjectId> = (0..3u64)
            .map(|i| {
                e.add_project(
                    provider,
                    ProjectSpec::demo(&format!("durable-{i}"), 300),
                    dataset(0xC4A5 + i),
                )
                .unwrap()
            })
            .collect();
        for round in 0..2 {
            e.run_all_with(75, 4, 2).unwrap();
            assert_snapshot_gate_matches_table(&e, 0, &format!("first life, round {round}"));
        }
        (projects, gates(&e))
        // Dropped without a checkpoint: the WAL tail carries the rounds.
    };
    assert!(
        first_life.iter().any(|reliable| !reliable),
        "the first life must push taggers below the gate"
    );
    let digest = {
        let mut e = ITagEngine::new(durable()).unwrap();
        assert_eq!(
            gates(&e),
            first_life,
            "the recovery rebuild answers the gate differently from the first life"
        );
        for p in &projects {
            e.resume_project(*p).unwrap();
        }
        for round in 0..2 {
            e.run_all_with(40, 4, 2).unwrap();
            assert_snapshot_gate_matches_table(&e, 0, &format!("after reopen, round {round}"));
        }
        e.checkpoint().unwrap();
        e.store_checksum()
    };
    let reopened = ITagEngine::new(durable()).unwrap();
    assert_snapshot_gate_matches_table(&reopened, 0, "after checkpoint + reopen");
    assert_eq!(reopened.store_checksum(), digest);
}
