//! Concurrency determinism suite: the parallel engine tick must be
//! bit-for-bit identical at every thread count **and every round-pipeline
//! depth**. The same multi-campaign scenario (spammers included, so the
//! reliability overlay is exercised) runs at `threads = 1, 2, 8` and
//! pipeline depths `1`, `2` and `4`, against the reference schedule —
//! one thread, where every project's round runs inline in project-id
//! order; monitor snapshots, per-worker ledger balances, and a digest of
//! every stored table must agree exactly.

use itag::core::config::EngineConfig;
use itag::core::engine::{ITagEngine, RunSummary};
use itag::core::monitor::MonitorSnapshot;
use itag::core::project::ProjectSpec;
use itag::model::delicious::DeliciousConfig;
use itag::model::ids::ProjectId;

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

fn build_engine() -> (ITagEngine, Vec<ProjectId>) {
    build_engine_with(None)
}

fn build_engine_with(commit_batch: Option<usize>) -> (ITagEngine, Vec<ProjectId>) {
    let mut config = EngineConfig::in_memory(0xD17E);
    config.workers = 16;
    config.spammer_fraction = 0.25; // rejections → bans → overlay gating
    config.commit_batch = commit_batch;
    let mut e = ITagEngine::new(config).unwrap();
    let provider = e.register_provider("determinism-suite").unwrap();
    let mut projects = Vec::new();
    for i in 0..6u64 {
        projects.push(
            e.add_project(
                provider,
                ProjectSpec::demo(&format!("campaign-{i}"), 150),
                dataset(0xD17E + i),
            )
            .unwrap(),
        );
    }
    (e, projects)
}

type RoundOutput = (
    Vec<(ProjectId, RunSummary)>,
    Vec<MonitorSnapshot>,
    Vec<Vec<(u32, u64)>>,
    u64,
);

fn run_with(
    threads: usize,
    pipeline_depth: usize,
    rounds: u32,
    tasks_per_round: u32,
) -> RoundOutput {
    run_with_batch(threads, pipeline_depth, rounds, tasks_per_round, None)
}

fn run_with_batch(
    threads: usize,
    pipeline_depth: usize,
    rounds: u32,
    tasks_per_round: u32,
    commit_batch: Option<usize>,
) -> RoundOutput {
    let (mut e, projects) = build_engine_with(commit_batch);
    let mut summaries = Vec::new();
    for _ in 0..rounds {
        summaries.extend(
            e.run_all_with(tasks_per_round, threads, pipeline_depth)
                .unwrap(),
        );
    }
    let monitors = projects.iter().map(|p| e.monitor(*p).unwrap()).collect();
    let balances = projects
        .iter()
        .map(|p| e.worker_balances(*p).unwrap())
        .collect();
    let checksum = e.store_checksum();
    (summaries, monitors, balances, checksum)
}

fn assert_equal(base: &RoundOutput, other: &RoundOutput, what: &str) {
    assert_eq!(base.0, other.0, "run summaries differ: {what}");
    assert_eq!(base.1, other.1, "monitor snapshots differ: {what}");
    assert_eq!(base.2, other.2, "ledger balances differ: {what}");
    assert_eq!(base.3, other.3, "stored-table checksums differ: {what}");
}

#[test]
fn single_round_is_identical_at_1_2_and_8_threads() {
    let base = run_with(1, 1, 1, 150);
    for threads in [2usize, 8] {
        let other = run_with(threads, 1, 1, 150);
        assert_equal(&base, &other, &format!("{threads} threads, depth 1"));
    }
}

#[test]
fn single_round_is_identical_across_pipeline_depths() {
    // Every depth at every thread count against the inline reference:
    // snapshots, ledgers and stored bytes must be bit-identical. This is
    // the round-pipeline contract — the merger overlapping later ticks
    // must be unobservable in the results.
    let base = run_with(1, 1, 1, 150);
    for threads in [1usize, 2, 8] {
        for depth in [1usize, 2, 4] {
            if (threads, depth) == (1, 1) {
                continue; // the base cell itself
            }
            let other = run_with(threads, depth, 1, 150);
            assert_equal(&base, &other, &format!("{threads} threads, depth {depth}"));
        }
    }
}

#[test]
fn multi_round_interleaving_is_identical_across_thread_counts() {
    // Several smaller rounds: reputation persisted between rounds feeds
    // the next round's reliability gate, so round boundaries must land in
    // the same places at every thread count.
    let base = run_with(1, 1, 3, 50);
    for threads in [2usize, 8] {
        let other = run_with(threads, 1, 3, 50);
        assert_equal(&base, &other, &format!("{threads} threads, depth 1"));
    }
}

#[test]
fn multi_round_interleaving_is_identical_across_pipeline_depths() {
    // Round boundaries are where the pipeline hands its RNG streams and
    // reputation snapshots across rounds; every depth must land every
    // boundary in the same place the inline schedule does.
    let base = run_with(1, 1, 3, 50);
    for threads in [2usize, 8] {
        for depth in [1usize, 2, 4] {
            let other = run_with(threads, depth, 3, 50);
            assert_equal(&base, &other, &format!("{threads} threads, depth {depth}"));
        }
    }
}

#[test]
fn run_all_with_env_resolved_threads_matches_explicit_single_thread() {
    // `run_all()` resolves its thread count from `EngineConfig::threads`,
    // then `ITAG_THREADS`, then the machine, at the default pipeline
    // depth. This is the path the CI matrix (ITAG_THREADS) actually
    // exercises. Whatever it resolves to, the results must equal an
    // explicit one-thread round.
    let (mut via_env, projects) = build_engine();
    let (mut explicit, _) = build_engine();
    assert!(via_env.resolved_threads() >= 1);
    let a = via_env.run_all(150).unwrap();
    let b = explicit.run_all_with(150, 1, 1).unwrap();
    assert_eq!(a, b, "env-resolved thread count changed the results");
    assert_eq!(via_env.store_checksum(), explicit.store_checksum());
    for p in &projects {
        assert_eq!(
            via_env.monitor(*p).unwrap(),
            explicit.monitor(*p).unwrap(),
            "monitor for {p:?} differs"
        );
    }
}

#[test]
fn parallel_rounds_preserve_integrity_and_money_conservation() {
    for depth in [1usize, 2] {
        let (mut e, projects) = build_engine();
        let summaries = e.run_all_with(150, 4, depth).unwrap();
        assert_eq!(summaries.len(), projects.len());
        for p in &projects {
            assert_eq!(e.verify_integrity(*p).unwrap(), 40);
            let m = e.monitor(*p).unwrap();
            assert_eq!(
                m.paid + m.refunded + m.escrowed,
                m.budget_spent as u64 * 5,
                "project {p:?} leaks money at pipeline depth {depth}"
            );
        }
    }
}

/// One lone campaign driven by `rounds`, and what it ended as.
fn solo_campaign(
    rounds: impl FnOnce(&mut ITagEngine, ProjectId) -> Vec<(ProjectId, RunSummary)>,
) -> RoundOutput {
    let mut config = EngineConfig::in_memory(0xD17E);
    config.workers = 16;
    config.spammer_fraction = 0.25;
    let mut e = ITagEngine::new(config).unwrap();
    let provider = e.register_provider("solo").unwrap();
    let p = e
        .add_project(provider, ProjectSpec::demo("solo", 150), dataset(0xD17E))
        .unwrap();
    let summaries = rounds(&mut e, p);
    (
        summaries,
        vec![e.monitor(p).unwrap()],
        vec![e.worker_balances(p).unwrap()],
        e.store_checksum(),
    )
}

#[test]
fn run_is_run_all_over_one_project() {
    // `run(p)` is the round `run_all` runs, over the set {p}: the same
    // per-project RNG stream, reputation snapshot and single frame, so a
    // lone campaign ends bit-identical either way, at any thread count
    // and pipeline depth.
    let base = solo_campaign(|e, p| (0..3).map(|_| (p, e.run(p, 50).unwrap())).collect());
    for (threads, depth) in [(1usize, 1usize), (2, 2), (8, 4)] {
        let all = solo_campaign(|e, _| {
            (0..3)
                .flat_map(|_| e.run_all_with(50, threads, depth).unwrap())
                .collect()
        });
        assert_equal(
            &base,
            &all,
            &format!("run vs run_all, {threads} threads, depth {depth}"),
        );
    }
}

#[test]
fn sequential_and_parallel_paths_can_interleave() {
    // Single-project rounds between whole-engine rounds must keep every
    // invariant: budgets, integrity, and the ability to finish a project
    // either way.
    let (mut e, projects) = build_engine();
    let first = projects[0];
    let s = e.run(first, 30).unwrap();
    assert_eq!(s.issued, 30);
    let summaries = e.run_all_on(40, 3).unwrap();
    assert_eq!(summaries.len(), projects.len());
    let (_, s0) = summaries[0];
    assert_eq!(s0.issued, 40);
    let m = e.monitor(first).unwrap();
    assert_eq!(m.budget_spent, 70);
    for p in &projects {
        assert_eq!(e.verify_integrity(*p).unwrap(), 40);
    }
}

#[test]
fn group_commit_batching_is_identical_to_per_project_commits() {
    // The cross-project group commit (EngineConfig::commit_batch) folds
    // several projects' merge frames into one store commit. It is a
    // throughput knob only: summaries, monitors, ledgers, and the stored
    // bytes must be bit-identical to groups of one at every thread count
    // and pipeline depth. `0` is the documented alias for `1`.
    let base = run_with_batch(1, 1, 2, 60, Some(1));
    let zero = run_with_batch(2, 1, 2, 60, Some(0));
    assert_equal(&base, &zero, "commit_batch 0 (alias of 1)");
    for threads in [1usize, 2, 8] {
        for depth in [1usize, 2] {
            let other = run_with_batch(threads, depth, 2, 60, Some(8));
            assert_equal(
                &base,
                &other,
                &format!("commit_batch 8, {threads} threads, depth {depth}"),
            );
        }
    }
}

#[test]
fn group_commit_batching_cuts_fsyncs_per_round() {
    // The point of the batching: with 6 projects and budget 8, a round's
    // merges land in ⌈6/8⌉ = 1 group commit instead of 6 — fewer WAL
    // syncs for the same bytes. Measured on durable stores so the syncs
    // are real, and the recovered stores must still be byte-identical.
    let mut syncs = Vec::new();
    let mut checksums = Vec::new();
    for (tag, batch) in [("per-project", 1usize), ("batched", 8)] {
        let dir = itag::store::testutil::TestDir::new(&format!("det-batch-{tag}"));
        {
            let mut config = EngineConfig::durable(0xD17E, dir.path().to_path_buf());
            // `durable()` defaults to buffered WAL writes (no fsyncs at
            // all); force one fsync per commit group so the counter
            // actually measures commits.
            config.storage = itag::core::config::StorageConfig::Durable {
                dir: dir.path().to_path_buf(),
                durability: itag::store::Durability::Sync,
                sync_policy: itag::store::SyncPolicy::Always,
                checkpoint_every: 10_000,
            };
            config.workers = 16;
            config.spammer_fraction = 0.25;
            config.commit_batch = Some(batch);
            let mut e = ITagEngine::new(config).unwrap();
            let provider = e.register_provider("determinism-suite").unwrap();
            for i in 0..6u64 {
                e.add_project(
                    provider,
                    ProjectSpec::demo(&format!("campaign-{i}"), 100),
                    dataset(0xD17E + i),
                )
                .unwrap();
            }
            let before = e.store_handle().stats().wal_syncs;
            e.run_all_with(50, 4, 1).unwrap();
            syncs.push(e.store_handle().stats().wal_syncs - before);
            e.checkpoint().unwrap();
        }
        let reopened =
            ITagEngine::new(EngineConfig::durable(0xD17E, dir.path().to_path_buf())).unwrap();
        checksums.push(reopened.store_checksum());
    }
    assert_eq!(
        checksums[0], checksums[1],
        "batching changed the durable bytes"
    );
    assert!(
        syncs[1] < syncs[0],
        "batched round should sync less: per-project {} vs batched {}",
        syncs[0],
        syncs[1]
    );
}

#[test]
fn durable_store_bytes_are_identical_across_pipeline_depths() {
    // The strongest form of the contract: the WAL frames the merger
    // commits land in the same order, op for op, at every thread count
    // and pipeline depth as in the inline one-thread round — so the WAL
    // bytes match, and so do the recovered stores. (Stored content alone
    // cannot see a merge-order slip: the merge's effects commute.)
    let mut wals = Vec::new();
    let mut checksums = Vec::new();
    let cells = [(1usize, 1usize), (4, 1), (4, 2), (8, 4)];
    for (threads, depth) in cells {
        let dir = itag::store::testutil::TestDir::new(&format!("det-pipeline-{threads}-{depth}"));
        {
            let mut config = EngineConfig::durable(0xD17E, dir.path().to_path_buf());
            config.workers = 16;
            config.spammer_fraction = 0.25;
            let mut e = ITagEngine::new(config).unwrap();
            let provider = e.register_provider("determinism-suite").unwrap();
            for i in 0..3u64 {
                e.add_project(
                    provider,
                    ProjectSpec::demo(&format!("campaign-{i}"), 100),
                    dataset(0xD17E + i),
                )
                .unwrap();
            }
            e.run_all_with(100, threads, depth).unwrap();
            e.store_handle().sync().unwrap();
            wals.push(std::fs::read(dir.path().join("db.wal")).unwrap());
            e.checkpoint().unwrap();
        }
        let reopened =
            ITagEngine::new(EngineConfig::durable(0xD17E, dir.path().to_path_buf())).unwrap();
        checksums.push(reopened.store_checksum());
    }
    for (i, (threads, depth)) in cells.iter().enumerate().skip(1) {
        assert!(
            wals[i] == wals[0],
            "{threads} threads, depth {depth}: WAL frames differ from the inline round"
        );
        assert_eq!(
            checksums[i], checksums[0],
            "{threads} threads, depth {depth} diverged on disk"
        );
    }
}
