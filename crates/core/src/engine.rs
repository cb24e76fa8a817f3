//! The iTag engine: everything of Fig. 2 wired together.
//!
//! `ITagEngine` runs the same Algorithm-1 loop as the pure simulator, but
//! each chosen resource becomes a **published platform task**: a worker
//! claims it, submits tags after their latency, the approval policy
//! decides, money moves through escrow, user approval rates update, and
//! only approved posts reach the rfd and the storage tables. This is the
//! system path the demo exercises; the `itag-strategy` simulator is the
//! algorithm path the figures sweep.

use crate::config::{EngineConfig, EnvOverrides, StorageConfig, DEFAULT_PIPELINE_DEPTH};
use crate::monitor::{MonitorSnapshot, ResourceDetail};
use crate::notify::{Notification, NotificationQueue};
use crate::project::{ProjectRecord, ProjectSpec, ProjectState};
use crate::quality_mgr::{ProjectQuality, QualityManager};
use crate::records::{DatasetRecord, UserRole};
use crate::resource_mgr::ResourceManager;
use crate::shared::Series;
use crate::snapshot::EngineSnapshot;
use crate::tag_mgr::TagManager;
use crate::user_mgr::{DecisionDeltas, ReputationLedger, ReputationSnapshot, UserManager};
use crate::{EngineError, Result};
use itag_crowd::approval::ApprovalPolicy;
use itag_crowd::behavior::TaggerBehavior;
use itag_crowd::payment::Ledger;
use itag_crowd::platform::{CrowdPlatform, SimPlatform};
use itag_crowd::worker::WorkerPool;
use itag_model::dataset::Dataset;
use itag_model::ids::{PostId, ProjectId, ResourceId, TagId, TaggerId};
use itag_model::post::Post;
use itag_store::codec::{FxHashMap, FxHashSet};
use itag_store::table::{Entity, KeyCodec};
use itag_store::{Store, StoreOptions, TypedTable, WriteBatch};
use itag_strategy::env::EnvView;
use itag_strategy::framework::{BudgetPoint, ChooseResources};
use itag_strategy::{StrategyKind, SwitchableStrategy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Read-only [`EnvView`] over a project's live quality state.
struct RuntimeView<'a> {
    pq: &'a ProjectQuality,
    popularity: &'a [f64],
}

impl EnvView for RuntimeView<'_> {
    fn num_resources(&self) -> usize {
        self.pq.counts.len()
    }
    fn post_count(&self, r: ResourceId) -> u32 {
        self.pq.counts[r.index()]
    }
    fn instability(&self, r: ResourceId) -> f64 {
        1.0 - self.pq.qualities[r.index()]
    }
    fn quality(&self, r: ResourceId) -> f64 {
        self.pq.qualities[r.index()]
    }
    fn mean_quality(&self) -> f64 {
        self.pq.mean_quality()
    }
    fn popularity_weight(&self, r: ResourceId) -> f64 {
        self.popularity[r.index()]
    }
    fn planning_marginal(&self, r: ResourceId, k: u32) -> f64 {
        self.pq.gains.planning_marginal(r.index(), k)
    }
}

/// Live state of one campaign.
struct ProjectRuntime {
    id: ProjectId,
    provider: u32,
    name: String,
    dataset: Dataset,
    pq: ProjectQuality,
    strategy: SwitchableStrategy,
    strategy_initialized: bool,
    platform: Box<dyn CrowdPlatform + Send>,
    /// Tasks published but not yet decided (drained by `collect_step`).
    pending: FxHashSet<u64>,
    ledger: Ledger,
    approval: ApprovalPolicy,
    pay_cents: u32,
    budget_total: u32,
    budget_spent: u32,
    state: ProjectState,
    series: Series<BudgetPoint>,
    initial_quality: f64,
    last_milestone: f64,
    tasks_approved: u64,
    tasks_rejected: u64,
    next_record: u32,
    /// Per-project RNG stream for the parallel tick: seeded from the
    /// engine seed and the project id, so a project's trajectory is the
    /// same no matter which thread (or how many threads) runs it.
    rng: StdRng,
}

/// Outcome of one `run` call. Serializable so the server can hand it to
/// remote provider sessions unchanged.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunSummary {
    /// Tasks published against the budget.
    pub issued: u32,
    /// Submissions approved (posts created).
    pub approved: u32,
    /// Submissions rejected (budget consumed, escrow refunded).
    pub rejected: u32,
    /// `q(R)` after the run.
    pub quality: f64,
    /// `q(R)` improvement since the campaign started.
    pub improvement: f64,
}

/// One buffered decision from a parallel round, ready to be merged into
/// the shared tables on the main thread (where the global post id is
/// assigned).
struct DecisionRecord {
    worker: TaggerId,
    approved: bool,
    pay: u32,
    resource: ResourceId,
    tags: Vec<TagId>,
    submitted_at: u64,
    /// `pq.counts[r]` after the post was folded in (the post's ordinal).
    posts_after: u32,
    /// Quality right after folding (approved decisions only).
    quality_after: f64,
}

/// Everything one project produced during a parallel round.
struct ProjectOutcome {
    summary: RunSummary,
    decisions: Vec<DecisionRecord>,
    notifications: Vec<Notification>,
}

/// A ticked project waiting to be merged: its outcome plus the block of
/// global post ids assigned to its approved decisions (blocks are handed
/// out in project-id order, so ids are thread-count independent).
struct MergeJob {
    project: ProjectId,
    provider: u32,
    budget_spent: u32,
    state: ProjectState,
    post_base: u64,
    outcome: ProjectOutcome,
}

/// What one project's round ended as, in the merge phase's output.
enum RoundResult {
    /// The tick itself failed; nothing was staged or committed.
    TickFailed(EngineError),
    /// Staging the project's frame failed; none of it was committed.
    StageFailed(EngineError),
    /// The project's frame joined a group commit; its outcome lands in
    /// [`GroupCommit::outcomes`] when the group flushes and is resolved in
    /// `round`'s assembly loop.
    Deferred,
}

/// One resource's accumulated effects over a parallel round.
struct ResourceRound {
    orig: Arc<crate::records::ResourceRecord>,
    approved: u32,
    last_posts: u32,
    last_quality: f64,
}

// The staging/merge half of a parallel round is determinism-contracted:
// the bytes it commits must be a pure function of (dataset, seed, order),
// never of wall-clock time. The repo lint rejects `Instant::now()` /
// `SystemTime::now()` inside this fence.
// lint: determinism

/// Stages one project's post, resource-count and quality-snapshot ops into
/// a fresh batch. Runs on a worker thread. The managers are stateless
/// views over the store; staging reads only this project's resource rows,
/// which nothing writes until this project's own merge — so staging is
/// safe to overlap with the merger committing *earlier* projects (the
/// round pipeline), and reads through [`ResourceManager::get_arc`], so it
/// never clones or decodes a row the entity cache already holds.
///
/// Post rows are staged per decision (each is a distinct key), but
/// resource records — post count, index position and quality snapshot —
/// are folded to **one final row per touched resource**: the intermediate
/// counts a batch would stage are overwritten inside the same atomic
/// commit anyway, so skipping them produces identical stored state for a
/// fraction of the encode and apply work. Finals are staged in
/// resource-id order (deterministic merge).
fn stage_project_effects(
    job: &mut MergeJob,
    tags: &TagManager,
    resources: &ResourceManager,
) -> Result<WriteBatch> {
    let mut batch = WriteBatch::with_capacity(job.outcome.decisions.len() * 3 + 8);
    let mut next_id = job.post_base;
    let mut touched: FxHashMap<u32, ResourceRound> = FxHashMap::default();
    for d in job.outcome.decisions.iter_mut() {
        if !d.approved {
            continue;
        }
        let post = Post::new(
            PostId(next_id),
            d.resource,
            d.worker,
            std::mem::take(&mut d.tags),
            d.posts_after,
            d.submitted_at,
        );
        next_id += 1;
        tags.stage_post(&mut batch, job.project, &post)?;
        let agg = match touched.entry(d.resource.0) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => v.insert(ResourceRound {
                orig: resources.get_arc(job.project, d.resource)?,
                approved: 0,
                last_posts: 0,
                last_quality: 0.0,
            }),
        };
        agg.approved += 1;
        agg.last_posts = d.posts_after;
        agg.last_quality = d.quality_after;
    }
    let mut rounds: Vec<(u32, ResourceRound)> = touched.into_iter().collect();
    rounds.sort_unstable_by_key(|(rid, _)| *rid);
    for (_, agg) in rounds {
        let mut record = (*agg.orig).clone();
        let old_posts = record.posts;
        record.posts += agg.approved;
        debug_assert_eq!(
            record.posts, agg.last_posts,
            "record count and live count must agree"
        );
        record.quality = agg.last_quality;
        resources.stage_finalize_posts(&mut batch, old_posts, record)?;
    }
    Ok(batch)
}

/// Hands a ticked project its block of global post ids off the shared
/// counter. Called in strict project-id order — the pipeline's ordered
/// handoff — so the blocks are identical at every thread count and
/// pipeline depth. Failed ticks consume no ids. (`Relaxed` suffices:
/// calls are already serialized by the caller, and the final read
/// happens after the scope joins.)
fn assign_post_base(
    next_post: &AtomicU64,
    id: u32,
    rt: &ProjectRuntime,
    outcome: Result<ProjectOutcome>,
) -> Result<MergeJob> {
    let outcome = outcome?;
    let approved = outcome.decisions.iter().filter(|d| d.approved).count() as u64;
    let post_base = next_post.load(Ordering::Relaxed);
    next_post.store(post_base + approved, Ordering::Relaxed);
    Ok(MergeJob {
        project: ProjectId(id),
        provider: rt.provider,
        budget_spent: rt.budget_spent,
        state: rt.state,
        post_base,
        outcome,
    })
}

/// One project's share of a (possibly grouped) commit: its summary and
/// notifications ride with the deltas the reputation ledger applies once
/// the frame holding the project's ops has durably committed.
struct GroupMember {
    project: u32,
    summary: RunSummary,
    deltas: DecisionDeltas,
    notifications: Vec<Notification>,
}

/// Stages one ticked project's **complete** frame: the round's staged
/// effects batch, the per-worker reputation deltas, and the project row.
/// The project row rides in the same frame as the round's effects:
/// budget/state can never run ahead of (or behind) the posts they paid
/// for.
///
/// On error the staged-record overlay may hold this project's partial
/// records; [`merge_into_group`] flushes the group, which clears it,
/// before the next read.
fn stage_member_frame(
    users: &UserManager,
    projects: &TypedTable<ProjectRecord>,
    job: MergeJob,
    deltas: DecisionDeltas,
    batch: Result<WriteBatch>,
) -> std::result::Result<(WriteBatch, GroupMember), EngineError> {
    let MergeJob {
        project,
        provider,
        budget_spent,
        state,
        outcome,
        ..
    } = job;
    let ProjectOutcome {
        summary,
        notifications,
        ..
    } = outcome;
    let mut batch = batch?;
    users.stage_round_deltas(&mut batch, provider, &deltas)?;
    let mut record = projects
        .get(&project)?
        .ok_or(EngineError::UnknownProject(project))?;
    record.budget_spent = budget_spent;
    record.state = state;
    projects.stage_upsert_owned(&mut batch, record)?;
    Ok((
        batch,
        GroupMember {
            project: project.0,
            summary,
            deltas,
            notifications,
        },
    ))
}

/// Accumulator of the group commit: the merger folds consecutive
/// projects' frames into one [`WriteBatch`] and commits up to
/// `commit_batch` of them as **one** WAL frame + fsync (a group of one is
/// a project's own frame, byte for byte). Ops are appended in project-id
/// order (the merge phase's calling order), so the applied key/value
/// sequence — and therefore every stored byte — is the same at every
/// budget; only the WAL framing (k projects per LSN) differs. The
/// staged-record overlay is *not* cleared between members: a later
/// member's delta staging must read the earlier members' still-uncommitted
/// user rows (read-your-own-writes), exactly as it would have read them
/// post-commit in a smaller group.
#[derive(Default)]
struct GroupCommit {
    batch: WriteBatch,
    members: Vec<GroupMember>,
    /// Flush-resolved outcomes keyed by project id; `run_all_with`'s
    /// assembly loop consumes these for every `RoundResult::Deferred`.
    outcomes: FxHashMap<u32, (Result<RunSummary>, Vec<Notification>)>,
}

/// Folds one ticked project into the pending group, flushing when the
/// member budget or the byte ceiling is reached. A member that fails to
/// stage must not poison the projects already folded into the pending
/// frame: they are flushed (committed) first, which also clears the
/// overlay of the failed member's partial records.
#[allow(clippy::too_many_arguments)]
fn merge_into_group(
    users: &UserManager,
    projects: &TypedTable<ProjectRecord>,
    store: &Store,
    ledger: &ReputationLedger,
    budget: usize,
    group: &mut GroupCommit,
    job: MergeJob,
    deltas: DecisionDeltas,
    batch: Result<WriteBatch>,
) -> RoundResult {
    match stage_member_frame(users, projects, job, deltas, batch) {
        Ok((frame, member)) => {
            group.batch.append(frame);
            group.members.push(member);
            if group.members.len() >= budget
                || group.batch.ops_bytes() >= crate::config::COMMIT_BATCH_MAX_BYTES
            {
                flush_group(users, store, ledger, group);
            }
            RoundResult::Deferred
        }
        Err(e) => {
            flush_group(users, store, ledger, group);
            RoundResult::StageFailed(e)
        }
    }
}

/// Commits the pending group as one frame and resolves every member's
/// outcome. On success each member's deltas are applied to the ledger in
/// member (project-id) order — deltas commute, so the folded counters
/// are the same at every budget. On a commit error the whole frame is
/// gone: the first member carries the root cause, the rest a derived
/// broken-commit error (storage faults either way, so the server degrades
/// exactly as it would for a group of one).
fn flush_group(
    users: &UserManager,
    store: &Store,
    ledger: &ReputationLedger,
    group: &mut GroupCommit,
) {
    let batch = std::mem::take(&mut group.batch);
    let members = std::mem::take(&mut group.members);
    let committed = if members.is_empty() {
        Ok(())
    } else {
        store.commit(batch)
    };
    // Cleared even with no members pending: the caller may have a failed
    // member's partial records sitting in the overlay.
    users.clear_staged();
    match committed {
        Ok(()) => {
            for m in members {
                ledger.apply(&m.deltas);
                group
                    .outcomes
                    .insert(m.project, (Ok(m.summary), m.notifications));
            }
        }
        Err(e) => {
            let derived = format!("round lost: its group commit failed: {e}");
            let mut root = Some(EngineError::Store(e));
            for m in members {
                let err = root.take().unwrap_or_else(|| {
                    EngineError::Store(itag_store::StoreError::Broken(derived.clone()))
                });
                group.outcomes.insert(m.project, (Err(err), Vec::new()));
            }
        }
    }
}

// lint: end determinism

/// What one project's tick does in a round.
#[derive(Debug, Clone, Copy)]
enum Tick {
    /// Algorithm 1 for up to this many tasks: publish a batch, collect
    /// and decide it, repeat until the quota or the budget runs out.
    Run(u32),
    /// One platform step over tasks already published: decide what was
    /// submitted and publish nothing (the audience-mode `Collect`).
    Collect,
}

/// One project's round in progress inside [`tick_campaign`].
#[derive(Default)]
struct TickAcc {
    decisions: Vec<DecisionRecord>,
    notifications: Vec<Notification>,
    /// (approved, rejected) per worker in this round, layered over the
    /// round-start snapshot for reliability gating: the gate sees the
    /// pre-round base plus this project's own decisions — independent of
    /// the thread count and of how far the merger has advanced.
    overlay: FxHashMap<u32, (u32, u32)>,
    approved: u32,
    rejected: u32,
}

impl ProjectRuntime {
    /// Step 4 of Algorithm 1: CHOOSERESOURCES() picks up to `want`
    /// resources and their tagging tasks are published (escrowing pay,
    /// consuming budget). Returns the number published.
    fn publish(&mut self, want: usize) -> u32 {
        if !self.strategy_initialized {
            let view = RuntimeView {
                pq: &self.pq,
                popularity: &self.dataset.popularity,
            };
            self.strategy.init(&view, self.budget_total, &mut self.rng);
            self.strategy_initialized = true;
        }
        let chosen = {
            let view = RuntimeView {
                pq: &self.pq,
                popularity: &self.dataset.popularity,
            };
            self.strategy.choose(&view, want, &mut self.rng)
        };
        for &r in &chosen {
            let task = self.platform.publish(self.id, r, self.pay_cents);
            self.ledger.escrow(self.id, self.pay_cents as u64);
            self.pending.insert(task.0);
        }
        self.budget_spent += chosen.len() as u32;
        chosen.len() as u32
    }
}

/// Steps 5–6 of Algorithm 1 for one platform tick: collect finished
/// submissions, decide approval, move money, fold approved posts into the
/// statistics (UPDATE()), and emit feedback — buffering every effect on
/// shared tables into `acc`.
fn collect_step(
    rt: &mut ProjectRuntime,
    config: &EngineConfig,
    rep: &ReputationSnapshot,
    acc: &mut TickAcc,
) -> Result<()> {
    let results = rt.platform.step(&rt.dataset, &mut rt.rng);
    for result in results {
        rt.pending.remove(&result.task.0);
        let i = result.resource.index();
        let approve = rt.approval.decide(&result.tags, rt.pq.states[i].rfd());
        let (worker, pay) = rt.platform.decide(result.task, approve)?;
        let counts = acc.overlay.entry(worker.0).or_insert((0, 0));
        let mut posts_after = 0u32;
        let mut quality_after = 0.0f64;
        if approve {
            counts.0 += 1;
            rt.ledger.release(rt.id, worker, pay as u64)?;
            quality_after = rt.pq.apply_post(&rt.dataset, result.resource, &result.tags);
            posts_after = rt.pq.counts[i];
            rt.tasks_approved += 1;
            acc.approved += 1;
        } else {
            counts.1 += 1;
            rt.ledger.refund(rt.id, pay as u64)?;
            rt.tasks_rejected += 1;
            acc.rejected += 1;
        }

        // Reliability enforcement: a tagger whose received-approval rate
        // fell through the gate stops receiving assignments.
        if config.enforce_reliability && !approve {
            let (extra_a, extra_r) = acc.overlay[&worker.0];
            if !rep.is_reliable_with(worker.0, extra_a, extra_r) {
                rt.platform.ban_worker(worker);
            }
        }

        // The strategy observes every decision (MU re-queues the resource
        // with its refreshed instability).
        let view = RuntimeView {
            pq: &rt.pq,
            popularity: &rt.dataset.popularity,
        };
        rt.strategy.notify_update(&view, result.resource);

        acc.notifications.push(Notification::TagDecided {
            project: rt.id,
            resource: result.resource,
            tagger: worker,
            approved: approve,
        });
        acc.decisions.push(DecisionRecord {
            worker,
            approved: approve,
            pay,
            resource: result.resource,
            tags: result.tags,
            submitted_at: result.submitted_at,
            posts_after,
            quality_after,
        });
    }

    // Feedback: series point + quality milestones, once per tick.
    if rt.budget_spent >= rt.next_record {
        rt.series.push(BudgetPoint {
            spent: rt.budget_spent,
            mean_quality: rt.pq.mean_quality(),
        });
        rt.next_record += config.record_every.max(1);
    }
    let q = rt.pq.mean_quality();
    while q >= rt.last_milestone + 0.1 {
        rt.last_milestone += 0.1;
        acc.notifications.push(Notification::QualityMilestone {
            project: rt.id,
            quality: q,
            milestone: rt.last_milestone,
        });
    }
    Ok(())
}

/// Runs one project's tick of a round using only project-local state plus
/// the round-start [`ReputationSnapshot`], buffering every effect that
/// touches shared tables. The merge in [`ITagEngine::run_all_with`]
/// replays the buffers in project-id order, so the stored bytes are
/// identical across thread counts. Reading reputation from the snapshot
/// (never the live tables) is what lets the merger commit earlier
/// projects while this tick is still running without breaking that
/// contract.
fn tick_campaign(
    rt: &mut ProjectRuntime,
    config: &EngineConfig,
    rep: &ReputationSnapshot,
    tick: Tick,
) -> Result<ProjectOutcome> {
    let mut acc = TickAcc::default();
    let mut issued = 0u32;
    match tick {
        Tick::Collect => collect_step(rt, config, rep, &mut acc)?,
        Tick::Run(max_tasks) => {
            loop {
                let want = config
                    .batch_size
                    .min((max_tasks - issued) as usize)
                    .min((rt.budget_total - rt.budget_spent) as usize);
                if want == 0 {
                    break;
                }
                let published = rt.publish(want);
                if published == 0 {
                    break; // strategy has nothing left
                }
                issued += published;

                let mut ticks = 0u32;
                while !rt.pending.is_empty() && ticks < config.max_ticks_per_batch {
                    ticks += 1;
                    collect_step(rt, config, rep, &mut acc)?;
                }
                if !rt.pending.is_empty() {
                    // Platform starvation: the published work cannot
                    // complete (e.g. the reliability gate banned the whole
                    // pool after a spam-poisoned consensus — the death
                    // spiral the `gatekeeping` figure studies). Stop
                    // issuing; the stalled tasks stay visible as
                    // open_tasks and their pay as held escrow.
                    break;
                }
            }

            // Close the series at the exact final spend.
            if rt.series.last().map(|p| p.spent) != Some(rt.budget_spent) {
                rt.series.push(BudgetPoint {
                    spent: rt.budget_spent,
                    mean_quality: rt.pq.mean_quality(),
                });
            }
            if rt.budget_spent >= rt.budget_total {
                rt.state = ProjectState::Completed;
                acc.notifications
                    .push(Notification::BudgetExhausted { project: rt.id });
            }
        }
    }

    let quality = rt.pq.mean_quality();
    Ok(ProjectOutcome {
        summary: RunSummary {
            issued,
            approved: acc.approved,
            rejected: acc.rejected,
            quality,
            improvement: quality - rt.initial_quality,
        },
        decisions: acc.decisions,
        notifications: acc.notifications,
    })
}

/// Version of the core record encodings stored in [`crate::tables::META`].
/// serbin is not self-describing, so any change to a stored record's
/// layout must bump this — an old database then fails cleanly at open
/// instead of mis-decoding. History: v2 folded the quality column into
/// [`crate::records::ResourceRecord`] and retired the quality table.
pub const SCHEMA_VERSION: u32 = 2;

const SCHEMA_KEY: &[u8] = b"schema_version";

/// The iTag system.
pub struct ITagEngine {
    store: Arc<Store>,
    resources: ResourceManager,
    tags: TagManager,
    users: UserManager,
    projects: TypedTable<ProjectRecord>,
    datasets: TypedTable<DatasetRecord>,
    runtimes: FxHashMap<u32, ProjectRuntime>,
    config: EngineConfig,
    /// Environment overrides, validated once at construction — garbage in
    /// `ITAG_THREADS`/`ITAG_COMMIT_BATCH` fails `new` loudly.
    env: EnvOverrides,
    /// The incremental reputation ledger: built from the tagger table
    /// once at open/recovery, kept current by the merger applying each
    /// committed round's deltas — in every config, so a
    /// [`ITagEngine::snapshot`] always carries the true gate.
    reputation: ReputationLedger,
    rng: StdRng,
    notifications: NotificationQueue,
    next_post_id: u64,
    next_project_id: u32,
    next_provider_id: u32,
    next_tagger_id: u32,
}

impl ITagEngine {
    /// Opens (or creates) the engine per `config`. On a durable store this
    /// runs recovery; projects found on disk can then be resumed with
    /// [`ITagEngine::resume_project`].
    pub fn new(config: EngineConfig) -> Result<Self> {
        let env = EnvOverrides::from_env().map_err(EngineError::Config)?;
        let store = Arc::new(match &config.storage {
            StorageConfig::InMemory => Store::in_memory(),
            StorageConfig::Durable {
                dir,
                durability,
                sync_policy,
                checkpoint_every,
            } => Store::open(
                dir,
                StoreOptions {
                    durability: *durability,
                    sync_policy: *sync_policy,
                    checkpoint_every: *checkpoint_every,
                    ..StoreOptions::default()
                },
            )?,
        });

        Self::check_schema(&store)?;

        let resources = ResourceManager::new(Arc::clone(&store));
        let tags = TagManager::new(Arc::clone(&store));
        let users = UserManager::new(Arc::clone(&store));
        let projects: TypedTable<ProjectRecord> = TypedTable::new(Arc::clone(&store));
        let datasets: TypedTable<DatasetRecord> = TypedTable::new(Arc::clone(&store));

        let next_post_id = tags.last_post_id().map(|p| p.0 + 1).unwrap_or(0);
        let next_project_id = store
            .last_key(ProjectRecord::TABLE)
            .and_then(|k| ProjectId::decode(&k).ok())
            .map(|p| p.0 + 1)
            .unwrap_or(0);
        let next_provider_id = users
            .providers()?
            .iter()
            .map(|u| u.id + 1)
            .max()
            .unwrap_or(0);
        let next_tagger_id = users.taggers()?.iter().map(|u| u.id + 1).max().unwrap_or(0);

        // Build once: one tagger-range scan here (which after a crash is
        // the recovery rebuild — the WAL replay restored the table, this
        // restores the ledger), then the merge phase's deltas keep it
        // current; no per-round rescans.
        let reputation = users.reputation_ledger()?;

        let rng = StdRng::seed_from_u64(config.seed);
        Ok(ITagEngine {
            store,
            resources,
            tags,
            users,
            projects,
            datasets,
            runtimes: FxHashMap::default(),
            config,
            env,
            reputation,
            rng,
            notifications: NotificationQueue::default(),
            next_post_id,
            next_project_id,
            next_provider_id,
            next_tagger_id,
        })
    }

    /// Verifies (or, on a fresh store, stamps) the record-schema version.
    /// A database written by a binary with a different record layout is
    /// rejected here with a clear message instead of mis-decoding later.
    fn check_schema(store: &Store) -> Result<()> {
        use itag_store::StoreError;
        match store.get(crate::tables::META, SCHEMA_KEY)? {
            Some(bytes) => {
                let found = <[u8; 4]>::try_from(bytes.as_ref())
                    .map(u32::from_be_bytes)
                    .map_err(|_| StoreError::Corrupt("unreadable schema-version row".into()))?;
                if found != SCHEMA_VERSION {
                    return Err(EngineError::Store(StoreError::Corrupt(format!(
                        "database schema v{found} does not match this binary's \
                         v{SCHEMA_VERSION}; no migration exists — re-ingest or \
                         use a matching build"
                    ))));
                }
                Ok(())
            }
            None if store.table_ids().is_empty() => {
                store.put(
                    crate::tables::META,
                    SCHEMA_KEY.to_vec(),
                    SCHEMA_VERSION.to_be_bytes().to_vec(),
                )?;
                Ok(())
            }
            None => Err(EngineError::Store(StoreError::Corrupt(format!(
                "database predates schema versioning (pre-v{SCHEMA_VERSION}); \
                 no migration exists — re-ingest or use a matching build"
            )))),
        }
    }

    /// Registers a provider account and returns its id.
    pub fn register_provider(&mut self, name: &str) -> Result<u32> {
        let id = self.next_provider_id;
        self.next_provider_id += 1;
        self.users.register(UserRole::Provider, id, name)?;
        Ok(id)
    }

    /// Registers a tagger account and returns its id — the server-side
    /// half of a remote tagger session's sign-up. Ids continue after both
    /// earlier registrations and [`ITagEngine::seed_taggers`] ranges.
    pub fn register_tagger(&mut self, name: &str) -> Result<u32> {
        let id = self.next_tagger_id;
        self.next_tagger_id += 1;
        self.users.register(UserRole::Tagger, id, name)?;
        Ok(id)
    }

    /// The Add-Project flow (Fig. 4): validates, persists, builds the
    /// runtime, and returns the new project id.
    pub fn add_project(
        &mut self,
        provider: u32,
        spec: ProjectSpec,
        dataset: Dataset,
    ) -> Result<ProjectId> {
        self.add_project_on(provider, spec, dataset, None)
    }

    /// Like [`ITagEngine::add_project`], but with a caller-supplied
    /// platform — e.g. [`itag_crowd::audience::ManualPlatform`] for the
    /// demo's live audience mode, or an adapter to a real marketplace.
    pub fn add_project_with_platform(
        &mut self,
        provider: u32,
        spec: ProjectSpec,
        dataset: Dataset,
        platform: Box<dyn CrowdPlatform + Send>,
    ) -> Result<ProjectId> {
        self.add_project_on(provider, spec, dataset, Some(platform))
    }

    fn add_project_on(
        &mut self,
        provider: u32,
        spec: ProjectSpec,
        dataset: Dataset,
        platform: Option<Box<dyn CrowdPlatform + Send>>,
    ) -> Result<ProjectId> {
        spec.validate().map_err(EngineError::InvalidDataset)?;
        validate_dataset(&dataset)?;

        let id = ProjectId(self.next_project_id);
        self.next_project_id += 1;

        let counts = dataset.initial_counts();
        let pq = ProjectQuality::from_dataset(&dataset, self.config.metric);
        // Resource rows, tag dictionary, project row and dataset row commit
        // as one frame: a crash can never leave a project's resources
        // without the project.
        let mut batch = WriteBatch::new();
        self.resources
            .stage_upload(&mut batch, id, &dataset.resources, &counts, &pq.qualities)?;
        self.tags
            .stage_dictionary(&mut batch, &dataset.dictionary)?;
        let record = ProjectRecord {
            id,
            provider,
            spec: spec.clone(),
            state: ProjectState::Running,
            budget_total: spec.budget,
            budget_spent: 0,
            created_at: 0,
        };
        self.projects.stage_upsert_cached(&mut batch, &record)?;
        self.datasets.stage_upsert(
            &mut batch,
            &DatasetRecord {
                project: id,
                dataset: dataset.clone(),
            },
        )?;
        self.store.commit(batch)?;

        let runtime = self.build_runtime(record, dataset, pq, platform)?;
        self.runtimes.insert(id.0, runtime);
        Ok(id)
    }

    /// Typed access to a project's platform (for audience submissions or
    /// adapter-specific control). Fails if the platform is of a different
    /// concrete type.
    pub fn platform_mut<P: CrowdPlatform + 'static>(
        &mut self,
        project: ProjectId,
    ) -> Result<&mut P> {
        let rt = self
            .runtimes
            .get_mut(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        rt.platform
            .as_any_mut()
            .downcast_mut::<P>()
            .ok_or(EngineError::BadProjectState {
                project,
                state: "backed by a different platform type",
            })
    }

    /// Claimable tasks of an audience-platform project, oldest first —
    /// the server-side half of a remote tagger's task-pull (Fig. 8's
    /// tagging screen). Fails like [`ITagEngine::platform_mut`] when the
    /// project is not backed by a [`ManualPlatform`].
    pub fn audience_open_tasks(
        &mut self,
        project: ProjectId,
        limit: usize,
    ) -> Result<Vec<(u64, ResourceId)>> {
        use itag_crowd::audience::ManualPlatform;
        let platform: &mut ManualPlatform = self.platform_mut(project)?;
        let ids: Vec<_> = platform.open_task_ids().take(limit).collect();
        Ok(ids
            .into_iter()
            .filter_map(|t| platform.task(t).map(|task| (t.0, task.resource)))
            .collect())
    }

    /// A remote tagger claims `task` on an audience-platform project and
    /// submits `tags`; the next [`ITagEngine::collect_once`] decides and
    /// commits it.
    pub fn audience_submit(
        &mut self,
        project: ProjectId,
        task: u64,
        tagger: TaggerId,
        tags: Vec<TagId>,
    ) -> Result<()> {
        use itag_crowd::audience::ManualPlatform;
        let platform: &mut ManualPlatform = self.platform_mut(project)?;
        platform.submit(itag_crowd::task::TaskId(task), tagger, tags)?;
        Ok(())
    }

    /// Rebuilds the runtime of a persisted project after a restart,
    /// replaying stored campaign posts onto the dataset's initial state.
    /// Platform worker session state (in-flight tasks) is not persisted —
    /// open tasks at crash time were never charged posts, matching the
    /// at-most-once semantics of the budget.
    pub fn resume_project(&mut self, id: ProjectId) -> Result<()> {
        let record = self
            .projects
            .get(&id)?
            .ok_or(EngineError::UnknownProject(id))?;
        let mut dataset = self
            .datasets
            .get(&id)?
            .ok_or(EngineError::UnknownProject(id))?
            .dataset;
        // Rebuild skipped serde fields.
        dataset.dictionary.rebuild_index();
        for latent in &mut dataset.latent {
            latent.rebuild_sampler();
        }

        let pq = ProjectQuality::from_dataset(&dataset, self.config.metric);
        let mut runtime = self.build_runtime(record, dataset, pq, None)?;
        for post in self.tags.all_posts(id)? {
            runtime
                .pq
                .apply_post(&runtime.dataset, post.resource, &post.tags);
            runtime.tasks_approved += 1;
        }
        runtime.initial_quality = runtime
            .series
            .first()
            .map(|p| p.mean_quality)
            .unwrap_or_else(|| runtime.pq.mean_quality());
        self.runtimes.insert(id.0, runtime);
        Ok(())
    }

    fn build_runtime(
        &mut self,
        record: ProjectRecord,
        dataset: Dataset,
        pq: ProjectQuality,
        platform: Option<Box<dyn CrowdPlatform + Send>>,
    ) -> Result<ProjectRuntime> {
        let platform = match platform {
            Some(p) => p,
            None => {
                let s = self.config.spammer_fraction.clamp(0.0, 1.0);
                let pool = WorkerPool::from_mix(
                    self.config.workers,
                    &[
                        (TaggerBehavior::casual(), 0.60 * (1.0 - s)),
                        (TaggerBehavior::diligent(), 0.25 * (1.0 - s)),
                        (TaggerBehavior::sloppy(), 0.15 * (1.0 - s)),
                        (TaggerBehavior::spammer(), s),
                    ],
                    &mut self.rng,
                );
                Box::new(SimPlatform::new(record.spec.platform, pool))
            }
        };
        let initial_quality = pq.mean_quality();
        let series = Series::new(BudgetPoint {
            spent: record.budget_spent,
            mean_quality: initial_quality,
        });
        Ok(ProjectRuntime {
            id: record.id,
            provider: record.provider,
            name: record.spec.name.clone(),
            dataset,
            pq,
            strategy: SwitchableStrategy::new(record.spec.strategy.build()),
            strategy_initialized: false,
            platform,
            pending: FxHashSet::default(),
            ledger: Ledger::new(),
            approval: record.spec.approval,
            pay_cents: record.spec.pay_per_task_cents,
            budget_total: record.budget_total,
            budget_spent: record.budget_spent,
            state: record.state,
            series,
            initial_quality,
            last_milestone: initial_quality,
            tasks_approved: 0,
            tasks_rejected: 0,
            next_record: record.budget_spent + self.config.record_every.max(1),
            rng: StdRng::seed_from_u64(
                self.config.seed
                    ^ 0x51_7c_c1_b7_27_22_0a_95u64.wrapping_mul(record.id.0 as u64 + 1),
            ),
        })
    }

    /// Step 4 of Algorithm 1 as a standalone operation: CHOOSERESOURCES()
    /// picks up to `want` resources and their tagging tasks are published
    /// (escrowing pay, consuming budget). Returns the number published.
    ///
    /// Audience-platform projects publish with this and decide what the
    /// audience submitted with [`ITagEngine::collect_once`]; `run` does
    /// both inside its round.
    pub fn publish_batch(&mut self, project: ProjectId, want: usize) -> Result<u32> {
        let rt = self
            .runtimes
            .get_mut(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        if rt.state != ProjectState::Running {
            return Err(EngineError::BadProjectState {
                project,
                state: rt.state.label(),
            });
        }
        let want = want
            .min((rt.budget_total - rt.budget_spent) as usize)
            .min(self.config.batch_size.max(1) * 16); // sanity bound
        if want == 0 {
            return Ok(0);
        }
        Ok(rt.publish(want))
    }

    /// Steps 5–6 of Algorithm 1 for one platform tick, as a round over
    /// this project that publishes nothing: collect finished submissions,
    /// decide approval, move money, fold approved posts into the
    /// statistics (UPDATE()), emit feedback, and commit it all as one
    /// frame. Returns `(approved, rejected)` for this tick.
    pub fn collect_once(&mut self, project: ProjectId) -> Result<(u32, u32)> {
        let s = self.round_of(project, Tick::Collect)?;
        Ok((s.approved, s.rejected))
    }

    /// Tasks published but not yet decided.
    pub fn pending_tasks(&self, project: ProjectId) -> Result<usize> {
        Ok(self
            .runtimes
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?
            .pending
            .len())
    }

    /// Runs Algorithm 1 for up to `max_tasks` tasks (bounded by the
    /// remaining budget) through the crowdsourcing platform: the round of
    /// [`ITagEngine::run_all`] over this one project, committed as one
    /// WAL frame.
    pub fn run(&mut self, project: ProjectId, max_tasks: u32) -> Result<RunSummary> {
        let rt = self
            .runtimes
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        if rt.state != ProjectState::Running {
            return Err(EngineError::BadProjectState {
                project,
                state: rt.state.label(),
            });
        }
        self.round_of(project, Tick::Run(max_tasks))
    }

    /// A round over one project; `UnknownProject` if it has no runtime.
    /// It runs inline at any thread count, so this skips resolving one (a
    /// cgroup probe per call).
    fn round_of(&mut self, project: ProjectId, tick: Tick) -> Result<RunSummary> {
        self.round(vec![project.0], tick, 1, DEFAULT_PIPELINE_DEPTH)?
            .pop()
            .map(|(_, s)| s)
            .ok_or(EngineError::UnknownProject(project))
    }

    /// Ticks every `Running` project concurrently — Algorithm 1 per
    /// project, up to `max_tasks` tasks each — across `threads` scoped
    /// worker threads, with the round pipeline at
    /// [`crate::config::DEFAULT_PIPELINE_DEPTH`]. Non-running projects
    /// are skipped. Returns `(project, summary)` pairs in project-id
    /// order.
    pub fn run_all_on(
        &mut self,
        max_tasks: u32,
        threads: usize,
    ) -> Result<Vec<(ProjectId, RunSummary)>> {
        self.run_all_with(max_tasks, threads, DEFAULT_PIPELINE_DEPTH)
    }

    /// [`ITagEngine::run_all_on`] with an explicit pipeline depth.
    ///
    /// Worker threads tick and stage projects while a dedicated merger
    /// thread drains staged projects **in project-id order**, at most
    /// `pipeline_depth` (min 1) projects behind the workers
    /// (back-pressure). The serial merge of project `k` thus runs
    /// concurrently with the ticking/staging of projects `> k` instead of
    /// stalling every thread at a round barrier. With one thread (or one
    /// project) every phase runs inline in project-id order — the
    /// reference schedule the threaded runs must match.
    ///
    /// Determinism contract: each project consumes its own RNG stream;
    /// ticks read cross-project reputation from a **round-start snapshot**
    /// (never the live tables, which the merger may already be advancing);
    /// post-id blocks are assigned in project-id order at the pipeline's
    /// ordered handoff; staging reads only its own project's rows, which
    /// only its own (later) merge writes; and the merger commits frames in
    /// project-id order. Monitor snapshots, ledgers and
    /// stored bytes are therefore **identical for every thread count and
    /// every pipeline depth**.
    pub fn run_all_with(
        &mut self,
        max_tasks: u32,
        threads: usize,
        pipeline_depth: usize,
    ) -> Result<Vec<(ProjectId, RunSummary)>> {
        let mut ids: Vec<u32> = self
            .runtimes
            .iter()
            .filter(|(_, rt)| rt.state == ProjectState::Running)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        self.round(ids, Tick::Run(max_tasks), threads, pipeline_depth)
    }

    /// One round over the projects `ids` (ascending): tick, stage and
    /// merge each, committing their frames in groups of
    /// [`ITagEngine::resolved_commit_batch`].
    fn round(
        &mut self,
        ids: Vec<u32>,
        kind: Tick,
        threads: usize,
        pipeline_depth: usize,
    ) -> Result<Vec<(ProjectId, RunSummary)>> {
        let threads = threads.max(1);
        let work: Vec<(u32, ProjectRuntime)> = ids
            .into_iter()
            .filter_map(|id| self.runtimes.remove(&id).map(|rt| (id, rt)))
            .collect();
        if work.is_empty() {
            return Ok(Vec::new());
        }

        // The round-start reputation view: O(1), an `Arc` of the ledger's
        // maintained counters.
        let rep = self.reputation.snapshot();
        // Group commit: up to `commit_budget` consecutive merge frames
        // share one WAL frame + fsync. The mutex is uncontended — only the
        // merge phase touches it, and merges are serial — but it makes the
        // closure set `Sync` for the scoped threads.
        let commit_budget = self.resolved_commit_batch().max(1);
        let group = parking_lot::Mutex::named("core.engine.group_commit", GroupCommit::default());
        let results = {
            let rep = &rep;
            let config = &self.config;
            let tags_mgr = &self.tags;
            let resources_mgr = &self.resources;
            let users = &self.users;
            let ledger = &self.reputation;
            let projects_tbl = &self.projects;
            let store: &Store = &self.store;
            let next_post = &AtomicU64::new(self.next_post_id);
            let group = &group;

            // The four phases of one project's round. `tick` and `stage`
            // run on whichever worker claimed the project; `sequence` runs
            // in project-id order (the ordered handoff); `merge` runs in
            // project-id order on the merger thread (inline on this thread
            // for a single-threaded round).
            let tick = |_: usize, (id, mut rt): (u32, ProjectRuntime)| {
                let outcome = tick_campaign(&mut rt, config, rep, kind);
                (id, rt, outcome)
            };
            let sequence =
                |_: usize, (id, rt, outcome): (u32, ProjectRuntime, Result<ProjectOutcome>)| {
                    let job = assign_post_base(next_post, id, &rt, outcome);
                    (id, rt, job)
                };
            let stage = |_: usize, (id, rt, job): (u32, ProjectRuntime, Result<MergeJob>)| {
                let staged = job.map(|mut job| {
                    // Fold the round's decisions into per-worker deltas on
                    // the worker thread (the parallel half of the user
                    // accounting); the merger just stages and applies them
                    // — the delta handoff rides the pipeline with the
                    // staged batch.
                    let deltas = DecisionDeltas::from_decisions(
                        job.outcome
                            .decisions
                            .iter()
                            .map(|d| (d.worker.0, d.approved, d.pay)),
                    );
                    let batch = stage_project_effects(&mut job, tags_mgr, resources_mgr);
                    (job, deltas, batch)
                });
                (id, rt, staged)
            };
            type Staged = (
                u32,
                ProjectRuntime,
                Result<(MergeJob, DecisionDeltas, Result<WriteBatch>)>,
            );
            let merge = |_: usize, (id, rt, staged): Staged| {
                let round = match staged {
                    Ok((job, deltas, batch)) => merge_into_group(
                        users,
                        projects_tbl,
                        store,
                        ledger,
                        commit_budget,
                        &mut group.lock(),
                        job,
                        deltas,
                        batch,
                    ),
                    Err(e) => RoundResult::TickFailed(e),
                };
                (id, rt, round)
            };

            let results: Vec<(u32, ProjectRuntime, RoundResult)> =
                itag_crowd::parallel::pipelined_map(
                    work,
                    threads,
                    pipeline_depth,
                    tick,
                    sequence,
                    stage,
                    merge,
                );
            // Flush the tail group — the last `< budget` projects of the
            // round, still pending after the final merge call.
            flush_group(users, store, ledger, &mut group.lock());
            self.next_post_id = next_post.load(Ordering::Relaxed);
            results
        };
        let mut group_outcomes = std::mem::take(&mut group.lock().outcomes);

        // The round is over and its snapshot is gone: fold the committed
        // deltas into the ledger's counters (in place — no snapshot holds
        // the map any more), so the next round starts from the exact
        // state a scan of the tagger table would rebuild.
        drop(rep);
        self.reputation.fold_pending();

        // Reinsert the runtimes (their RNG streams carry into the next
        // round) and fold the per-project results in project-id order.
        // Error precedence matches the pre-pipeline code: the first tick
        // error in project order wins over the first merge error.
        let mut summaries = Vec::with_capacity(results.len());
        let mut tick_err: Option<EngineError> = None;
        let mut merge_err: Option<EngineError> = None;
        for (id, rt, round) in results {
            self.runtimes.insert(id, rt);
            match round {
                RoundResult::TickFailed(e) => tick_err = tick_err.or(Some(e)),
                RoundResult::StageFailed(e) => merge_err = merge_err.or(Some(e)),
                // Every deferred member was resolved by its group's flush
                // or the tail flush above, so a miss is a harness bug —
                // surfaced as an error, never a panic (dashboards ride on
                // this path).
                RoundResult::Deferred => match group_outcomes.remove(&id) {
                    Some((Ok(s), notes)) => {
                        for n in notes {
                            self.notifications.push(n);
                        }
                        summaries.push((ProjectId(id), s));
                    }
                    Some((Err(e), _)) => merge_err = merge_err.or(Some(e)),
                    None => {
                        merge_err = merge_err.or(Some(EngineError::Config(format!(
                            "project {id}: group-commit outcome missing"
                        ))))
                    }
                },
            }
        }
        match tick_err.or(merge_err) {
            Some(e) => Err(e),
            None => Ok(summaries),
        }
    }

    /// [`ITagEngine::run_all_on`] with the configured thread count
    /// ([`EngineConfig::threads`], else `ITAG_THREADS`, else auto).
    pub fn run_all(&mut self, max_tasks: u32) -> Result<Vec<(ProjectId, RunSummary)>> {
        let threads = self.resolved_threads();
        self.run_all_on(max_tasks, threads)
    }

    /// Thread count the parallel tick will use (a throughput knob only —
    /// results do not depend on it). `EngineConfig::threads`, else the
    /// `ITAG_THREADS` override validated at construction, else the
    /// machine's available parallelism capped at 8.
    pub fn resolved_threads(&self) -> usize {
        if self.config.threads > 0 {
            return self.config.threads;
        }
        if let Some(n) = self.env.threads {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1)
    }

    /// Group-commit budget every round will use: up to this many
    /// projects' merge frames are folded into a single store commit (one
    /// WAL append + fsync) per flush, also bounded by
    /// [`crate::config::COMMIT_BATCH_MAX_BYTES`]. `0` and `1` both mean a
    /// group of one: one frame per project. Purely a throughput knob —
    /// results are bit-identical at every budget.
    /// `EngineConfig::commit_batch`, else the `ITAG_COMMIT_BATCH`
    /// override validated at construction, else
    /// [`crate::config::DEFAULT_COMMIT_BATCH`].
    pub fn resolved_commit_batch(&self) -> usize {
        if let Some(n) = self.config.commit_batch {
            return n;
        }
        if let Some(n) = self.env.commit_batch {
            return n;
        }
        crate::config::DEFAULT_COMMIT_BATCH
    }

    /// Registers a population of tagger accounts in bulk (ids
    /// `start..start + count`) — the scale harness for scenarios where
    /// the registered population dwarfs any round's worker set. Existing
    /// records are left untouched. Zero-decision taggers answer the
    /// reliability gate exactly like unknown ones, so the reputation
    /// ledger never tracks them.
    ///
    /// With more than one thread ([`ITagEngine::resolved_threads`]) a
    /// second thread encodes each chunk while this one commits the one
    /// before; the stored bytes are the same at every thread count.
    pub fn seed_taggers(&mut self, start: u32, count: u32) -> Result<()> {
        let threads = self.resolved_threads();
        self.users
            .register_bulk(UserRole::Tagger, start, count, "tagger-", threads)?;
        self.next_tagger_id = self.next_tagger_id.max(start.saturating_add(count));
        Ok(())
    }

    /// Worker payouts of a project's ledger, sorted by worker id.
    pub fn worker_balances(&self, project: ProjectId) -> Result<Vec<(u32, u64)>> {
        Ok(self
            .runtimes
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?
            .ledger
            .worker_balances())
    }

    /// Order-independent digest of every persisted table (see
    /// [`itag_store::Store::content_checksum`]).
    pub fn store_checksum(&self) -> u64 {
        self.store.content_checksum()
    }

    /// A shared handle to the engine's store. The server uses it for
    /// lock-free epoch probes ([`itag_store::Store::epoch`]) to decide
    /// whether a cached [`crate::snapshot::EngineSnapshot`] is current
    /// without taking the engine lock.
    pub fn store_handle(&self) -> Arc<Store> {
        Arc::clone(&self.store)
    }

    /// Captures a frozen analytics view: the store snapshot, the O(1)
    /// reputation snapshot, and one [`crate::snapshot::ProjectDigest`]
    /// per live runtime. The engine is borrowed (`&self`) for the whole
    /// capture and rounds require `&mut self`, so the captured store
    /// epoch and the digests describe the same round boundary. Cost is
    /// one shard-directory clone plus O(projects) digests — no table is
    /// copied ([`itag_store::Store::read_snapshot`]).
    pub fn snapshot(&self) -> EngineSnapshot {
        let store = self.store.read_snapshot();
        let reputation = self.reputation.snapshot();
        let mut projects = std::collections::BTreeMap::new();
        for rt in self.runtimes.values() {
            let (escrowed, paid, refunded) = rt.ledger.totals();
            projects.insert(
                rt.id.0,
                crate::snapshot::ProjectDigest {
                    project: rt.id,
                    provider: rt.provider,
                    name: rt.name.clone(),
                    state: rt.state.label().to_string(),
                    strategy: rt.strategy.active_name().to_string(),
                    quality_mean: rt.pq.mean_quality(),
                    quality_initial: rt.initial_quality,
                    oracle_quality: rt.pq.oracle_mean_quality(&rt.dataset),
                    budget_total: rt.budget_total,
                    budget_spent: rt.budget_spent,
                    open_tasks: rt.platform.open_tasks(),
                    tasks_approved: rt.tasks_approved,
                    tasks_rejected: rt.tasks_rejected,
                    banned_taggers: rt.platform.banned_count(),
                    escrowed: escrowed - paid - refunded,
                    paid,
                    refunded,
                    pay_per_task_cents: rt.pay_cents,
                    series: rt.series.clone(),
                    rfds: rt.pq.rfds.clone(),
                },
            );
        }
        EngineSnapshot::assemble(store, reputation, projects)
    }

    /// The Fig. 3 / Fig. 5 view of a project, off a fresh
    /// [`ITagEngine::snapshot`] — one implementation for live and
    /// snapshot reads.
    pub fn monitor(&self, project: ProjectId) -> Result<MonitorSnapshot> {
        let snap: EngineSnapshot = self.snapshot();
        snap.monitor(project)
    }

    /// The Fig. 6 single-resource drill-down.
    pub fn resource_detail(&self, project: ProjectId, r: ResourceId) -> Result<ResourceDetail> {
        let rt = self
            .runtimes
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        let record = self.resources.get(project, r)?;
        let state = &rt.pq.states[r.index()];
        let mut tag_counts: Vec<(itag_model::ids::TagId, u32)> = state.rfd().iter().collect();
        tag_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let top_tags = tag_counts
            .into_iter()
            .take(20)
            .map(|(t, c)| (self.tags.text(t), c))
            .collect();
        Ok(ResourceDetail {
            id: r,
            uri: record.resource.uri,
            description: record.resource.description,
            posts: rt.pq.counts[r.index()],
            quality: rt.pq.qualities[r.index()],
            top_tags,
            series: state.series().to_vec(),
        })
    }

    /// The Promote button.
    pub fn promote(&mut self, project: ProjectId, r: ResourceId) -> Result<()> {
        let rt = self
            .runtimes
            .get_mut(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        rt.strategy.promote(r);
        Ok(())
    }

    /// The per-resource Stop button (persisted).
    pub fn stop_resource(&mut self, project: ProjectId, r: ResourceId) -> Result<()> {
        let rt = self
            .runtimes
            .get_mut(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        rt.strategy.stop_resource(r);
        self.resources.set_stopped(project, r, true)?;
        Ok(())
    }

    /// Re-allow a stopped resource.
    pub fn resume_resource(&mut self, project: ProjectId, r: ResourceId) -> Result<()> {
        let rt = self
            .runtimes
            .get_mut(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        rt.strategy.resume_resource(r);
        self.resources.set_stopped(project, r, false)?;
        Ok(())
    }

    /// Mid-run strategy change (Fig. 5's strategy selector).
    pub fn switch_strategy(&mut self, project: ProjectId, kind: StrategyKind) -> Result<()> {
        let rt = self
            .runtimes
            .get_mut(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        rt.strategy.switch_to(kind.build());
        rt.strategy_initialized = true; // SwitchableStrategy re-inits lazily
        self.projects.update(&project, |record| {
            record.spec.strategy = kind;
        })?;
        self.notifications.push(Notification::StrategySwitched {
            project,
            to: kind.label().to_string(),
        });
        Ok(())
    }

    /// "Providers may add budget to the project."
    ///
    /// The addition is checked: a wrap would leave `budget_total <
    /// budget_spent`, and the `(budget_total - budget_spent)` task-quota
    /// math in the tick would underflow to a near-infinite quota. The
    /// durable project row is updated **before** the in-memory runtime,
    /// so a store error can never leave memory ahead of disk.
    pub fn add_budget(&mut self, project: ProjectId, extra_tasks: u32) -> Result<()> {
        let rt = self
            .runtimes
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        let new_total =
            rt.budget_total
                .checked_add(extra_tasks)
                .ok_or(EngineError::BudgetOverflow {
                    project,
                    current: rt.budget_total,
                    extra: extra_tasks,
                })?;
        let new_state = if rt.state == ProjectState::Completed {
            ProjectState::Running
        } else {
            rt.state
        };
        self.projects
            .update(&project, |record| {
                record.budget_total = new_total;
                record.state = new_state;
            })?
            // A runtime without its stored row means the durable update
            // silently applied to nothing — surface it instead of letting
            // memory and disk diverge.
            .ok_or(EngineError::UnknownProject(project))?;
        let rt = self
            .runtimes
            .get_mut(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        rt.budget_total = new_total;
        rt.state = new_state;
        Ok(())
    }

    /// "If the quality has been good enough, providers can stop the
    /// project, minimize their budget invested."
    pub fn stop_project(&mut self, project: ProjectId) -> Result<()> {
        let rt = self
            .runtimes
            .get_mut(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        rt.state = ProjectState::Stopped;
        self.projects.update(&project, |record| {
            record.state = ProjectState::Stopped;
        })?;
        self.notifications
            .push(Notification::ProjectStopped { project });
        Ok(())
    }

    /// "Export resources with the desired tags", off a fresh snapshot.
    pub fn export(&self, project: ProjectId) -> Result<crate::export::Export> {
        let snap: EngineSnapshot = self.snapshot();
        snap.export(project)
    }

    /// "We will help providers choose the best strategy given the current
    /// resources and tags statistics."
    pub fn suggest_strategy(&self, project: ProjectId) -> Result<StrategyKind> {
        let rt = self
            .runtimes
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        let window = match self.config.metric {
            itag_quality::metric::QualityMetric::Stability { window, .. }
            | itag_quality::metric::QualityMetric::SmoothedStability { window, .. } => window,
            itag_quality::metric::QualityMetric::Oracle => 5,
        };
        Ok(QualityManager::suggest_strategy(&rt.pq, window))
    }

    /// Drains pending notifications.
    pub fn take_notifications(&mut self) -> Vec<Notification> {
        self.notifications.drain()
    }

    /// Tagger approval rate, from the persisted User Manager counters.
    pub fn tagger_approval_rate(&self, tagger: u32) -> Result<f64> {
        self.users.tagger_approval_rate(tagger)
    }

    /// Provider generosity rate.
    pub fn provider_approval_rate(&self, provider: u32) -> Result<f64> {
        self.users.provider_approval_rate(provider)
    }

    /// The User Manager's reliability gate for a tagger.
    pub fn is_reliable_tagger(&self, tagger: u32) -> Result<bool> {
        self.users.is_reliable(tagger)
    }

    /// Number of known taggers currently failing the reliability gate.
    pub fn unreliable_tagger_count(&self) -> Result<usize> {
        let mut n = 0;
        for t in self.users.taggers()? {
            if !self.users.is_reliable(t.id)? {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Storage statistics (commits, keys, recovery info).
    pub fn store_stats(&self) -> itag_store::StoreStats {
        self.store.stats()
    }

    /// Forces a storage checkpoint (durable stores only).
    pub fn checkpoint(&self) -> Result<()> {
        self.store.checkpoint()?;
        Ok(())
    }

    /// The tagger-side project browser (Fig. 7), sorted the way taggers
    /// choose: "projects with high pay per task or projects from
    /// providers with good approval rate", off a fresh snapshot.
    pub fn browse_projects(&self) -> Result<Vec<crate::monitor::ProjectListing>> {
        let snap: EngineSnapshot = self.snapshot();
        snap.browse()
    }

    /// A tagger's post history on a project (Fig. 8).
    pub fn tagger_history(
        &self,
        project: ProjectId,
        tagger: itag_model::ids::TaggerId,
    ) -> Result<Vec<Post>> {
        self.tags.posts_by_tagger(project, tagger)
    }

    /// Cross-checks the live runtime against the persisted tables:
    /// per-resource post counts must agree between the quality state, the
    /// resource records, the post-count index and the stored post log.
    /// Returns the number of resources checked.
    pub fn verify_integrity(&self, project: ProjectId) -> Result<usize> {
        let rt = self
            .runtimes
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        let records = self.resources.list(project)?;
        if records.len() != rt.pq.counts.len() {
            return Err(EngineError::InvalidDataset(format!(
                "resource count mismatch: {} stored vs {} live",
                records.len(),
                rt.pq.counts.len()
            )));
        }
        let initial = rt.dataset.initial_counts();
        for record in &records {
            let i = record.resource.id.index();
            let live = rt.pq.counts[i];
            if record.posts != live {
                return Err(EngineError::InvalidDataset(format!(
                    "resource {}: stored posts {} != live {}",
                    record.resource.id, record.posts, live
                )));
            }
            let logged = self.tags.posts_of(project, record.resource.id)?.len() as u32;
            if initial[i] + logged != live {
                return Err(EngineError::InvalidDataset(format!(
                    "resource {}: initial {} + logged {} != live {}",
                    record.resource.id, initial[i], logged, live
                )));
            }
        }
        // The post-count index must enumerate exactly the resource set.
        let indexed = self.resources.below_posts(project, u32::MAX)?;
        if indexed.len() != records.len() {
            return Err(EngineError::InvalidDataset(format!(
                "index has {} entries, table has {}",
                indexed.len(),
                records.len()
            )));
        }
        Ok(records.len())
    }

    /// Ids of projects with live runtimes.
    pub fn active_projects(&self) -> Vec<ProjectId> {
        let mut ids: Vec<ProjectId> = self.runtimes.values().map(|rt| rt.id).collect();
        ids.sort();
        ids
    }

    /// Ids of all persisted projects (including not-yet-resumed ones).
    /// Streams the table — only the ids are materialized, not the records.
    pub fn stored_projects(&self) -> Result<Vec<ProjectId>> {
        let mut ids = Vec::new();
        self.projects.for_each(|p: ProjectRecord| {
            ids.push(p.id);
            true
        })?;
        Ok(ids)
    }
}

fn validate_dataset(dataset: &Dataset) -> Result<()> {
    if dataset.is_empty() {
        return Err(EngineError::InvalidDataset("no resources".into()));
    }
    if dataset.latent.len() != dataset.resources.len()
        || dataset.popularity.len() != dataset.resources.len()
    {
        return Err(EngineError::InvalidDataset(
            "latent/popularity arrays must match resources".into(),
        ));
    }
    for (i, r) in dataset.resources.iter().enumerate() {
        if r.id.index() != i {
            return Err(EngineError::InvalidDataset(format!(
                "resource ids must be dense: index {i} has {}",
                r.id
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use itag_model::delicious::DeliciousConfig;

    fn engine() -> ITagEngine {
        ITagEngine::new(EngineConfig::in_memory(77)).unwrap()
    }

    fn dataset(seed: u64) -> Dataset {
        DeliciousConfig::tiny(seed).generate().dataset
    }

    #[test]
    fn add_project_and_run_improves_quality() {
        let mut e = engine();
        let provider = e.register_provider("alice").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("demo", 300), dataset(1))
            .unwrap();
        let before = e.monitor(p).unwrap().quality_mean;
        let summary = e.run(p, 300).unwrap();
        assert_eq!(summary.issued, 300);
        assert_eq!(summary.approved + summary.rejected, 300);
        assert!(summary.approved > 0, "some submissions must be approved");
        let after = e.monitor(p).unwrap();
        assert!(
            after.quality_mean > before,
            "{before} → {}",
            after.quality_mean
        );
        assert_eq!(after.state, "completed");
        assert_eq!(after.budget_spent, 300);
    }

    #[test]
    fn money_is_conserved_through_the_pipeline() {
        let mut e = engine();
        let provider = e.register_provider("bob").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("money", 100), dataset(2))
            .unwrap();
        let _ = e.run(p, 100).unwrap();
        let m = e.monitor(p).unwrap();
        // 100 tasks at 5 cents: escrowed total = paid + refunded + held.
        assert_eq!(m.paid + m.refunded + m.escrowed, 500);
        assert_eq!(m.tasks_approved * 5, m.paid);
        assert_eq!(m.tasks_rejected * 5, m.refunded);
    }

    #[test]
    fn budget_is_a_hard_cap_and_projects_complete() {
        let mut e = engine();
        let provider = e.register_provider("carol").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("cap", 50), dataset(3))
            .unwrap();
        let s1 = e.run(p, 30).unwrap();
        assert_eq!(s1.issued, 30);
        let s2 = e.run(p, 100).unwrap();
        assert_eq!(s2.issued, 20, "only the remaining budget is spendable");
        // Running a completed project is a state error.
        assert!(matches!(
            e.run(p, 1),
            Err(EngineError::BadProjectState { .. })
        ));
        // Adding budget revives it.
        e.add_budget(p, 10).unwrap();
        let s3 = e.run(p, 100).unwrap();
        assert_eq!(s3.issued, 10);
    }

    #[test]
    fn add_budget_overflow_is_a_named_error_and_mutates_nothing() {
        let mut e = engine();
        let provider = e.register_provider("croesus").unwrap();
        let p = e
            .add_project(
                provider,
                ProjectSpec::demo("rich", u32::MAX - 5),
                dataset(3),
            )
            .unwrap();
        // Pre-fix this wrapped in release, leaving budget_total <
        // budget_spent and an underflowing task quota in the tick.
        let err = e.add_budget(p, 10).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::BudgetOverflow {
                    project,
                    current,
                    extra: 10,
                } if project == p && current == u32::MAX - 5
            ),
            "expected BudgetOverflow, got {err}"
        );
        // Neither the runtime nor the stored row moved.
        assert_eq!(e.monitor(p).unwrap().budget_total, u32::MAX - 5);
        assert_eq!(
            e.projects.get(&p).unwrap().unwrap().budget_total,
            u32::MAX - 5
        );
        // A non-overflowing top-up still works.
        e.add_budget(p, 5).unwrap();
        assert_eq!(e.monitor(p).unwrap().budget_total, u32::MAX);
    }

    #[test]
    fn add_budget_leaves_runtime_untouched_when_the_durable_update_fails() {
        let mut e = engine();
        let provider = e.register_provider("frank").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("torn", 50), dataset(3))
            .unwrap();
        // Sabotage the durable side: drop the project row behind the
        // engine's back, so `projects.update` has nothing to apply to.
        // Pre-fix the runtime was bumped first, leaving memory ahead of
        // disk (the update silently applied to nothing).
        assert!(e.projects.delete(&p).unwrap());
        assert!(matches!(
            e.add_budget(p, 10),
            Err(EngineError::UnknownProject(q)) if q == p
        ));
        assert_eq!(
            e.monitor(p).unwrap().budget_total,
            50,
            "runtime must not run ahead of the failed durable update"
        );
    }

    #[test]
    fn stop_project_blocks_runs() {
        let mut e = engine();
        let provider = e.register_provider("dave").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("stop", 100), dataset(4))
            .unwrap();
        e.stop_project(p).unwrap();
        assert!(matches!(
            e.run(p, 1),
            Err(EngineError::BadProjectState { .. })
        ));
    }

    #[test]
    fn promote_and_stop_resource_steer_allocation() {
        let mut e = engine();
        let provider = e.register_provider("erin").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("steer", 200), dataset(5))
            .unwrap();
        e.stop_resource(p, ResourceId(0)).unwrap();
        e.promote(p, ResourceId(1)).unwrap();
        let posts_before_r1 = e.monitor(p).unwrap().rows[1].posts;
        let _ = e.run(p, 60).unwrap();
        let m = e.monitor(p).unwrap();
        assert_eq!(
            m.rows[0].posts,
            dataset(5).initial_counts()[0],
            "stopped resource must not gain posts"
        );
        assert!(m.rows[0].stopped);
        assert!(
            m.rows[1].posts > posts_before_r1,
            "promoted resource must be tagged"
        );
    }

    #[test]
    fn switch_strategy_mid_run_and_notifications_flow() {
        let mut e = engine();
        let provider = e.register_provider("frank").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("switch", 400), dataset(6))
            .unwrap();
        let _ = e.run(p, 100).unwrap();
        e.switch_strategy(p, StrategyKind::MostUnstable).unwrap();
        let _ = e.run(p, 100).unwrap();
        let m = e.monitor(p).unwrap();
        assert_eq!(m.strategy, "MU");
        let notes = e.take_notifications();
        assert!(notes
            .iter()
            .any(|n| matches!(n, Notification::StrategySwitched { .. })));
        assert!(notes
            .iter()
            .any(|n| matches!(n, Notification::TagDecided { .. })));
        assert!(e.take_notifications().is_empty(), "drain empties the queue");
    }

    #[test]
    fn spammers_earn_less_than_honest_taggers() {
        let mut config = EngineConfig::in_memory(9);
        config.spammer_fraction = 0.3;
        let mut e = ITagEngine::new(config).unwrap();
        let provider = e.register_provider("grace").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("spam", 600), dataset(7))
            .unwrap();
        let summary = e.run(p, 600).unwrap();
        assert!(
            summary.rejected > 0,
            "with 30% spammers some submissions must be rejected"
        );
        // Aggregate earnings by behaviour through monitor + user manager.
        let taggers = e.users.taggers().unwrap();
        assert!(!taggers.is_empty());
        let unreliable = taggers
            .iter()
            .filter(|t| !e.is_reliable_tagger(t.id).unwrap())
            .count();
        assert!(unreliable > 0, "reliability gate must flag some taggers");
        let m = e.monitor(p).unwrap();
        assert!(
            m.banned_taggers > 0,
            "enforcement must ban flagged taggers from the platform"
        );
    }

    #[test]
    fn export_reflects_tagging_results() {
        let mut e = engine();
        let provider = e.register_provider("heidi").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("export", 150), dataset(8))
            .unwrap();
        let _ = e.run(p, 150).unwrap();
        let export = e.export(p).unwrap();
        assert_eq!(export.resources.len(), 50);
        assert!(export.resources.iter().any(|r| !r.tags.is_empty()));
        let csv = export.to_csv();
        assert!(csv.lines().count() == 51);
        let back = crate::export::Export::from_bytes(&export.to_bytes()).unwrap();
        assert_eq!(back, export);
    }

    #[test]
    fn suggestion_follows_statistics() {
        let mut e = engine();
        let provider = e.register_provider("ivan").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("suggest", 100), dataset(10))
            .unwrap();
        // The tiny corpus has many thin resources → hybrid.
        assert_eq!(
            e.suggest_strategy(p).unwrap(),
            StrategyKind::FpMu { min_posts: 5 }
        );
    }

    #[test]
    fn resource_detail_shows_consensus() {
        let mut e = engine();
        let provider = e.register_provider("judy").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("detail", 200), dataset(11))
            .unwrap();
        let _ = e.run(p, 200).unwrap();
        // Find a resource with posts.
        let m = e.monitor(p).unwrap();
        let busiest = m.rows.iter().max_by_key(|r| r.posts).unwrap();
        let detail = e.resource_detail(p, busiest.id).unwrap();
        assert_eq!(detail.posts, busiest.posts);
        assert!(!detail.top_tags.is_empty());
        assert!(!detail.series.is_empty());
        assert!(detail.top_tags[0].1 >= detail.top_tags.last().unwrap().1);
    }

    #[test]
    fn all_spam_pool_starves_instead_of_spinning() {
        // 100% spammers + reliability enforcement: the whole pool is
        // banned quickly; run() must stop issuing instead of burning
        // max_ticks per batch forever, and the stall must be observable.
        let mut config = EngineConfig::in_memory(0x5BAD);
        config.spammer_fraction = 1.0;
        config.workers = 8;
        config.max_ticks_per_batch = 2_000;
        let mut e = ITagEngine::new(config).unwrap();
        let provider = e.register_provider("spam-city").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("spam", 500), dataset(19))
            .unwrap();
        let summary = e.run(p, 500).unwrap();
        assert!(
            summary.issued < 500,
            "run must stop early under starvation, issued {}",
            summary.issued
        );
        let m = e.monitor(p).unwrap();
        assert!(m.banned_taggers > 0);
        // Stalled tasks and their escrow are visible, money conserved.
        assert!(m.open_tasks > 0 || m.tasks_rejected > 0);
        assert_eq!(m.paid + m.refunded + m.escrowed, summary.issued as u64 * 5);
    }

    #[test]
    fn audience_mode_drives_a_campaign_through_manual_submissions() {
        use itag_crowd::audience::ManualPlatform;
        use itag_crowd::platform::PlatformKind;
        use itag_model::ids::TaggerId;

        let mut e = engine();
        let provider = e.register_provider("audience-host").unwrap();
        let d = dataset(18);
        let latents = d.latent.clone();
        let p = e
            .add_project_with_platform(
                provider,
                ProjectSpec::demo("live-demo", 40),
                d,
                Box::new(ManualPlatform::new(PlatformKind::Facebook)),
            )
            .unwrap();

        // Publish a batch; nothing completes until the audience acts.
        let published = e.publish_batch(p, 10).unwrap();
        assert_eq!(published, 10);
        assert_eq!(e.pending_tasks(p).unwrap(), 10);
        let (a, r) = e.collect_once(p).unwrap();
        assert_eq!((a, r), (0, 0), "no submissions yet");

        // Audience members submit honest tags for every open task.
        let open: Vec<(itag_crowd::task::TaskId, ResourceId)> = {
            let platform: &mut ManualPlatform = e.platform_mut(p).unwrap();
            let ids: Vec<_> = platform.open_task_ids().collect();
            ids.iter()
                .map(|&t| (t, platform.task(t).unwrap().resource))
                .collect()
        };
        assert_eq!(open.len(), 10);
        for (idx, (task, resource)) in open.iter().enumerate() {
            let tags: Vec<itag_model::ids::TagId> = latents[resource.index()].top_k(2).to_vec();
            let platform: &mut ManualPlatform = e.platform_mut(p).unwrap();
            platform
                .submit(*task, TaggerId(idx as u32 % 3), tags)
                .unwrap();
        }

        // Collect: all ten flow through approval, payment and UPDATE().
        let (a, r) = e.collect_once(p).unwrap();
        assert_eq!(a + r, 10);
        assert!(a > 0, "honest top-tag posts should be approved");
        assert_eq!(e.pending_tasks(p).unwrap(), 0);
        let m = e.monitor(p).unwrap();
        assert_eq!(m.budget_spent, 10);
        assert_eq!(m.paid + m.refunded + m.escrowed, 10 * 5);
        assert_eq!(e.verify_integrity(p).unwrap(), 50);

        // The sim-platform accessor must refuse the wrong type.
        assert!(e
            .platform_mut::<itag_crowd::platform::SimPlatform>(p)
            .is_err());
    }

    #[test]
    fn tagger_history_and_project_browser() {
        let mut e = engine();
        let provider = e.register_provider("nina").unwrap();
        let cheap = e
            .add_project(provider, ProjectSpec::demo("cheap", 200), dataset(16))
            .unwrap();
        let mut rich_spec = ProjectSpec::demo("rich", 200);
        rich_spec.pay_per_task_cents = 50;
        let rich = e.add_project(provider, rich_spec, dataset(17)).unwrap();

        // Taggers browse by pay: the rich project lists first.
        let listings = e.browse_projects().unwrap();
        assert_eq!(listings[0].project, rich);
        assert_eq!(listings[0].pay_per_task_cents, 50);
        assert_eq!(listings[1].project, cheap);

        // Run the cheap project and fetch some tagger's history.
        let _ = e.run(cheap, 200).unwrap();
        let m = e.monitor(cheap).unwrap();
        assert!(m.tasks_approved > 0);
        // Find a tagger with approved posts by scanning known worker ids.
        let mut found = false;
        for w in 0..50u32 {
            let history = e
                .tagger_history(cheap, itag_model::ids::TaggerId(w))
                .unwrap();
            if !history.is_empty() {
                found = true;
                assert!(history.windows(2).all(|p| p[0].id < p[1].id));
                assert!(history.iter().all(|p| !p.tags.is_empty()));
                // History is project-scoped: the rich project saw no runs.
                assert!(e
                    .tagger_history(rich, itag_model::ids::TaggerId(w))
                    .unwrap()
                    .is_empty());
                break;
            }
        }
        assert!(found, "some tagger must have history after 200 tasks");
    }

    #[test]
    fn integrity_holds_after_a_campaign() {
        let mut e = engine();
        let provider = e.register_provider("vera").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("verify", 250), dataset(14))
            .unwrap();
        assert_eq!(e.verify_integrity(p).unwrap(), 50);
        let _ = e.run(p, 250).unwrap();
        assert_eq!(e.verify_integrity(p).unwrap(), 50);
    }

    #[test]
    fn monitor_summary_matches_rows() {
        let mut e = engine();
        let provider = e.register_provider("mallory").unwrap();
        let p = e
            .add_project(provider, ProjectSpec::demo("summary", 150), dataset(15))
            .unwrap();
        let _ = e.run(p, 150).unwrap();
        let m = e.monitor(p).unwrap();
        let mean_from_rows: f64 =
            m.rows.iter().map(|r| r.quality).sum::<f64>() / m.rows.len() as f64;
        assert!((m.quality_summary.mean - mean_from_rows).abs() < 1e-9);
        assert!((m.quality_summary.mean - m.quality_mean).abs() < 1e-9);
        assert!(m.quality_summary.min <= m.quality_summary.max);
    }

    #[test]
    fn invalid_dataset_is_rejected() {
        let mut e = engine();
        let provider = e.register_provider("kim").unwrap();
        let mut bad = dataset(12);
        bad.latent.pop();
        assert!(matches!(
            e.add_project(provider, ProjectSpec::demo("bad", 10), bad),
            Err(EngineError::InvalidDataset(_))
        ));
    }

    #[test]
    fn unknown_project_errors_everywhere() {
        let mut e = engine();
        let p = ProjectId(99);
        assert!(matches!(e.run(p, 1), Err(EngineError::UnknownProject(_))));
        assert!(matches!(
            e.collect_once(p),
            Err(EngineError::UnknownProject(_))
        ));
        assert!(matches!(e.monitor(p), Err(EngineError::UnknownProject(_))));
        assert!(matches!(e.export(p), Err(EngineError::UnknownProject(_))));
        assert!(matches!(
            e.promote(p, ResourceId(0)),
            Err(EngineError::UnknownProject(_))
        ));
    }

    #[test]
    fn run_all_drives_every_project_and_keeps_integrity() {
        let mut e = engine();
        let provider = e.register_provider("fleet").unwrap();
        let mut projects = Vec::new();
        for seed in 20..24u64 {
            projects.push(
                e.add_project(
                    provider,
                    ProjectSpec::demo(&format!("campaign-{seed}"), 80),
                    dataset(seed),
                )
                .unwrap(),
            );
        }
        let summaries = e.run_all_on(80, 4).unwrap();
        assert_eq!(summaries.len(), 4);
        let ids: Vec<ProjectId> = summaries.iter().map(|(p, _)| *p).collect();
        assert_eq!(ids, projects, "summaries come back in project-id order");
        for (p, s) in &summaries {
            assert_eq!(s.issued, 80);
            assert_eq!(s.approved + s.rejected, 80);
            let m = e.monitor(*p).unwrap();
            assert_eq!(m.state, "completed");
            assert_eq!(m.budget_spent, 80);
            assert_eq!(m.paid + m.refunded + m.escrowed, 80 * 5);
            assert_eq!(e.verify_integrity(*p).unwrap(), 50);
        }
        // A second round on completed projects is a clean no-op.
        assert!(e.run_all_on(10, 2).unwrap().is_empty());
        // Notifications from the round were merged (budget exhausted × 4).
        let notes = e.take_notifications();
        assert_eq!(
            notes
                .iter()
                .filter(|n| matches!(n, Notification::BudgetExhausted { .. }))
                .count(),
            4
        );
    }

    #[test]
    fn run_all_is_identical_across_thread_counts() {
        let outputs: Vec<_> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let mut e = engine();
                let provider = e.register_provider("det").unwrap();
                let mut projects = Vec::new();
                for seed in 40..43u64 {
                    projects.push(
                        e.add_project(
                            provider,
                            ProjectSpec::demo(&format!("det-{seed}"), 60),
                            dataset(seed),
                        )
                        .unwrap(),
                    );
                }
                let summaries = e.run_all_on(60, threads).unwrap();
                let monitors: Vec<_> = projects.iter().map(|p| e.monitor(*p).unwrap()).collect();
                let balances: Vec<_> = projects
                    .iter()
                    .map(|p| e.worker_balances(*p).unwrap())
                    .collect();
                (summaries, monitors, balances, e.store_checksum())
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "1 vs 2 threads diverged");
        assert_eq!(outputs[0], outputs[2], "1 vs 8 threads diverged");
    }

    #[test]
    fn run_all_is_identical_across_pipeline_depths() {
        let outputs: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|depth| {
                let mut e = engine();
                let provider = e.register_provider("pipe").unwrap();
                let mut projects = Vec::new();
                for seed in 50..53u64 {
                    projects.push(
                        e.add_project(
                            provider,
                            ProjectSpec::demo(&format!("pipe-{seed}"), 60),
                            dataset(seed),
                        )
                        .unwrap(),
                    );
                }
                let summaries = e.run_all_with(60, 4, depth).unwrap();
                let monitors: Vec<_> = projects.iter().map(|p| e.monitor(*p).unwrap()).collect();
                let notes = e.take_notifications().len();
                (summaries, monitors, notes, e.store_checksum())
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "depth-1 vs depth-2 diverged");
        assert_eq!(outputs[0], outputs[2], "depth-1 vs depth-4 diverged");
    }

    /// [`SimPlatform`] wrapper whose first `decide` fails — forces one
    /// deterministic tick error so the round's error routing can be
    /// pinned across pipeline depths.
    struct FailOncePlatform {
        inner: SimPlatform,
        failed: bool,
    }

    impl CrowdPlatform for FailOncePlatform {
        fn kind(&self) -> itag_crowd::platform::PlatformKind {
            self.inner.kind()
        }
        fn publish(
            &mut self,
            project: ProjectId,
            resource: ResourceId,
            pay_cents: u32,
        ) -> itag_crowd::task::TaskId {
            self.inner.publish(project, resource, pay_cents)
        }
        fn step(
            &mut self,
            source: &dyn itag_crowd::platform::TagSource,
            rng: &mut StdRng,
        ) -> Vec<itag_crowd::task::TaskResult> {
            self.inner.step(source, rng)
        }
        fn decide(
            &mut self,
            task: itag_crowd::task::TaskId,
            approve: bool,
        ) -> itag_crowd::Result<(TaggerId, u32)> {
            if !self.failed {
                self.failed = true;
                return Err(itag_crowd::CrowdError::UnknownTask(task));
            }
            self.inner.decide(task, approve)
        }
        fn task(&self, id: itag_crowd::task::TaskId) -> Option<&itag_crowd::task::TaggingTask> {
            self.inner.task(id)
        }
        fn workers(&self) -> &WorkerPool {
            self.inner.workers()
        }
        fn stats(&self) -> itag_crowd::platform::PlatformStats {
            self.inner.stats()
        }
        fn open_tasks(&self) -> usize {
            self.inner.open_tasks()
        }
        fn ban_worker(&mut self, worker: TaggerId) {
            self.inner.ban_worker(worker)
        }
        fn banned_count(&self) -> usize {
            self.inner.banned_count()
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn failing_tick_routes_identically_at_every_pipeline_depth() {
        use itag_crowd::platform::PlatformKind;
        // One of three projects fails its first round's tick (the first
        // `decide` errors). The error must surface from run_all_with, the
        // healthy projects must still commit, the failed project's
        // runtime must survive for later rounds, and — because failed
        // ticks consume no post-id block — the follow-up round must be
        // bit-identical at every pipeline depth.
        let outputs: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|depth| {
                let mut e = engine();
                let provider = e.register_provider("failing").unwrap();
                let p0 = e
                    .add_project(provider, ProjectSpec::demo("healthy-a", 120), dataset(60))
                    .unwrap();
                let mut rng = StdRng::seed_from_u64(0xFA11);
                let pool = WorkerPool::from_mix(8, &[(TaggerBehavior::diligent(), 1.0)], &mut rng);
                let p1 = e
                    .add_project_with_platform(
                        provider,
                        ProjectSpec::demo("fails-once", 120),
                        dataset(61),
                        Box::new(FailOncePlatform {
                            inner: SimPlatform::new(PlatformKind::MTurk, pool),
                            failed: false,
                        }),
                    )
                    .unwrap();
                let p2 = e
                    .add_project(provider, ProjectSpec::demo("healthy-b", 120), dataset(62))
                    .unwrap();

                let err = e.run_all_with(40, 4, depth).unwrap_err();
                assert!(
                    matches!(err, EngineError::Crowd(_)),
                    "tick error must surface (depth {depth}): {err}"
                );
                // Healthy projects committed their round despite the error.
                for p in [p0, p2] {
                    assert_eq!(e.monitor(p).unwrap().budget_spent, 40, "depth {depth}");
                    assert_eq!(e.verify_integrity(p).unwrap(), 50, "depth {depth}");
                }
                // The failed project's runtime survived the round.
                let failed_monitor = e.monitor(p1).unwrap();
                // A follow-up round runs clean (the platform fails once).
                let summaries = e.run_all_with(40, 4, depth).unwrap();
                assert_eq!(summaries.len(), 3, "depth {depth}");
                let monitors: Vec<_> = [p0, p1, p2]
                    .iter()
                    .map(|p| e.monitor(*p).unwrap())
                    .collect();
                (failed_monitor, summaries, monitors, e.store_checksum())
            })
            .collect();
        assert_eq!(
            outputs[0], outputs[1],
            "depth 1 vs 2 diverged after a tick error"
        );
        assert_eq!(
            outputs[0], outputs[2],
            "depth 1 vs 4 diverged after a tick error"
        );
    }

    /// The reputation oracle: at a round boundary the engine's maintained
    /// ledger must equal a fresh scan of the tagger table — the open-time
    /// build, which is exactly what a per-round rescan would recompute.
    fn assert_ledger_matches_table(e: &ITagEngine, ctx: &str) {
        let scanned = e.users.reputation_ledger().unwrap();
        assert_eq!(
            *e.reputation.counters, *scanned.counters,
            "maintained ledger diverged from the tagger table: {ctx}"
        );
    }

    /// Three campaigns on a 16-worker pool with a `spam` share of
    /// spammers (rejections → gate reads), plus `registered` bulk-seeded
    /// taggers far above the worker-id range.
    fn oracle_engine(enforce: bool, spam: f64, registered: u32) -> (ITagEngine, Vec<ProjectId>) {
        let mut config = EngineConfig::in_memory(0x1ED6);
        config.workers = 16;
        config.spammer_fraction = spam;
        config.enforce_reliability = enforce;
        let mut e = ITagEngine::new(config).unwrap();
        if registered > 0 {
            e.seed_taggers(1 << 20, registered).unwrap();
        }
        let provider = e.register_provider("oracle").unwrap();
        let projects = (80..83u64)
            .map(|seed| {
                e.add_project(
                    provider,
                    ProjectSpec::demo(&format!("oracle-{seed}"), 220),
                    dataset(seed),
                )
                .unwrap()
            })
            .collect();
        (e, projects)
    }

    /// Parallel rounds with a single-project `run` between them, the
    /// oracle checked at every boundary; returns everything observable.
    #[allow(clippy::type_complexity)]
    fn oracle_rounds(
        e: &mut ITagEngine,
        projects: &[ProjectId],
        threads: usize,
        depth: usize,
    ) -> (
        Vec<(ProjectId, RunSummary)>,
        Vec<MonitorSnapshot>,
        usize,
        u64,
    ) {
        let ctx = format!("{threads} threads, depth {depth}");
        assert_ledger_matches_table(e, &format!("at open, {ctx}"));
        let mut summaries = Vec::new();
        for round in 0..3 {
            summaries.extend(e.run_all_with(50, threads, depth).unwrap());
            assert_ledger_matches_table(e, &format!("after round {round}, {ctx}"));
            let s = e.run(projects[round % projects.len()], 20).unwrap();
            assert_eq!(s.issued, 20);
            assert_ledger_matches_table(e, &format!("after run {round}, {ctx}"));
        }
        let monitors = projects.iter().map(|p| e.monitor(*p).unwrap()).collect();
        let unreliable = e.unreliable_tagger_count().unwrap();
        (summaries, monitors, unreliable, e.store_checksum())
    }

    /// The per-round rescan survives only as the oracle: the maintained
    /// ledger must equal a table scan at every boundary of the
    /// multi-round scenario, in every (threads, depth) cell, and every
    /// cell must produce the same engine.
    #[test]
    fn reputation_ledger_and_rescan_schedules_are_bit_identical() {
        let (mut e, projects) = oracle_engine(true, 0.25, 0);
        let base = oracle_rounds(&mut e, &projects, 1, 1);
        assert!(
            e.reputation
                .counters
                .values()
                .any(|&(_, rejected)| rejected > 0),
            "the scenario must reject submissions, so the gate is read"
        );
        for threads in [1usize, 2, 8] {
            for depth in [1usize, 2, 4] {
                if (threads, depth) == (1, 1) {
                    continue; // the base cell itself
                }
                let (mut e, projects) = oracle_engine(true, 0.25, 0);
                let other = oracle_rounds(&mut e, &projects, threads, depth);
                assert_eq!(base, other, "{threads} threads, depth {depth} diverged");
            }
        }
    }

    #[test]
    fn ledger_is_maintained_and_snapshots_carry_the_gate_with_enforcement_off() {
        // Nothing reads the gate inside a round with enforcement off, but
        // the ledger is still kept current, so a snapshot answers
        // reputation exactly like the live tables.
        let (mut e, projects) = oracle_engine(false, 1.0, 0);
        let _ = oracle_rounds(&mut e, &projects, 2, 2);
        let snap = e.snapshot();
        let mut unreliable = 0;
        for t in e.users.taggers().unwrap() {
            let live = e.is_reliable_tagger(t.id).unwrap();
            assert_eq!(snap.is_reliable_tagger(t.id), live, "tagger {}", t.id);
            unreliable += usize::from(!live);
        }
        assert!(
            unreliable > 0,
            "the scenario must push taggers below the gate"
        );
    }

    #[test]
    fn ledger_oracle_holds_over_a_large_seeded_population() {
        // Registered-but-inactive taggers (a small active fringe in a
        // large population) never enter the ledger and never change a
        // decision; only the user table carries the extra rows.
        let (mut e, projects) = oracle_engine(true, 0.25, 0);
        let base = oracle_rounds(&mut e, &projects, 2, 2);
        let (mut e, projects) = oracle_engine(true, 0.25, 5_000);
        let populated = oracle_rounds(&mut e, &projects, 2, 2);
        assert_eq!(base.0, populated.0, "inactive accounts influenced a round");
        assert_eq!(
            base.1, populated.1,
            "inactive accounts influenced a monitor"
        );
        assert_eq!(base.2, populated.2);
        assert!(
            e.reputation.tracked_taggers() <= 16,
            "seeded zero-decision taggers entered the ledger"
        );
    }

    #[test]
    fn ledger_oracle_survives_a_durable_reopen() {
        // Rounds, then a drop with the WAL tail live (no checkpoint): the
        // reopen replays it and rebuilds the ledger, which must equal the
        // ledger the first life maintained; more rounds, a checkpoint and
        // a final reopen keep the oracle and the stored bytes.
        let dir = itag_store::testutil::TestDir::new("ledger-oracle-reopen");
        let config = || {
            let mut c = EngineConfig::durable(0xC4A5, dir.path().to_path_buf());
            c.workers = 16;
            c.spammer_fraction = 0.25;
            c
        };
        let (projects, maintained) = {
            let mut e = ITagEngine::new(config()).unwrap();
            let provider = e.register_provider("durable-oracle").unwrap();
            let projects: Vec<ProjectId> = (0..3u64)
                .map(|i| {
                    e.add_project(
                        provider,
                        ProjectSpec::demo(&format!("durable-{i}"), 200),
                        dataset(0xC4A5 + i),
                    )
                    .unwrap()
                })
                .collect();
            for round in 0..2 {
                e.run_all_with(40, 4, 2).unwrap();
                assert_ledger_matches_table(&e, &format!("first life, round {round}"));
            }
            (projects, e.reputation.counters.clone())
        };
        assert!(!maintained.is_empty());
        let digest = {
            let mut e = ITagEngine::new(config()).unwrap();
            assert_eq!(
                *e.reputation.counters, *maintained,
                "the recovery rebuild differs from the ledger the first life kept"
            );
            for p in &projects {
                e.resume_project(*p).unwrap();
            }
            for round in 0..2 {
                e.run_all_with(40, 4, 2).unwrap();
                assert_ledger_matches_table(&e, &format!("after reopen, round {round}"));
            }
            e.checkpoint().unwrap();
            e.store_checksum()
        };
        let reopened = ITagEngine::new(config()).unwrap();
        assert_ledger_matches_table(&reopened, "after checkpoint + reopen");
        assert_eq!(reopened.store_checksum(), digest);
    }

    #[test]
    fn staged_user_overlay_is_empty_after_runs() {
        // The read-your-own-writes overlay is scoped to a batch, not a
        // forever-growing cache: after single-project and parallel
        // campaigns over a churny worker pool it must hold nothing.
        let mut config = EngineConfig::in_memory(0x0CAC);
        config.workers = 32;
        config.spammer_fraction = 0.2;
        let mut e = ITagEngine::new(config).unwrap();
        let provider = e.register_provider("bounded").unwrap();
        let p0 = e
            .add_project(provider, ProjectSpec::demo("serial", 150), dataset(90))
            .unwrap();
        let p1 = e
            .add_project(provider, ProjectSpec::demo("parallel", 150), dataset(91))
            .unwrap();
        let _ = e.run(p0, 150).unwrap();
        assert_eq!(
            e.users.staged_len(),
            0,
            "single-project rounds must clear the overlay per frame"
        );
        let _ = e.run_all_with(150, 4, 2).unwrap();
        assert_eq!(
            e.users.staged_len(),
            0,
            "merge path must clear the overlay per project frame"
        );
        assert!(e.monitor(p1).unwrap().tasks_approved > 0);
    }

    /// Runs the boundary scenario: exact-boundary reputation counters are
    /// seeded behind the engine's back, the engine is reopened (which is
    /// what rebuilds the ledger from the table), and two parallel rounds
    /// run at the given thread count and depth, the ledger oracle checked
    /// after each.
    fn boundary_round_output(
        threads: usize,
        depth: usize,
    ) -> (Vec<bool>, Vec<(ProjectId, RunSummary)>, usize, u64) {
        let dir = itag_store::testutil::TestDir::new(&format!("gate-boundary-{threads}-{depth}"));
        let seeded_config = || {
            let mut config = EngineConfig::durable(0xB0DA, dir.path().to_path_buf());
            config.workers = 12;
            config.spammer_fraction = 0.4;
            config
        };
        {
            let mut e = ITagEngine::new(seeded_config()).unwrap();
            let provider = e.register_provider("boundary").unwrap();
            for (i, seed) in [70u64, 71].into_iter().enumerate() {
                e.add_project(
                    provider,
                    ProjectSpec::demo(&format!("boundary-{i}"), 200),
                    dataset(seed),
                )
                .unwrap();
            }
            // Exact gate boundaries (threshold 0.5, grace 5), committed
            // directly through the user manager: one decision short of
            // grace, exactly at grace, exactly at the threshold, and one
            // decision below it.
            let mut batch = WriteBatch::new();
            e.users
                .stage_decisions(&mut batch, provider, 0, 0, 4, 0)
                .unwrap();
            e.users
                .stage_decisions(&mut batch, provider, 1, 0, 5, 0)
                .unwrap();
            e.users
                .stage_decisions(&mut batch, provider, 2, 5, 5, 0)
                .unwrap();
            e.users
                .stage_decisions(&mut batch, provider, 3, 4, 5, 0)
                .unwrap();
            e.store.commit(batch).unwrap();
            e.users.clear_staged();
            for (tagger, reliable) in [(0u32, true), (1, false), (2, true), (3, false)] {
                assert_eq!(
                    e.is_reliable_tagger(tagger).unwrap(),
                    reliable,
                    "seeded boundary for tagger {tagger} is off"
                );
            }
        }
        let mut e = ITagEngine::new(seeded_config()).unwrap();
        for p in e.stored_projects().unwrap() {
            e.resume_project(p).unwrap();
        }
        let mut summaries = Vec::new();
        for round in 0..2 {
            summaries.extend(e.run_all_with(50, threads, depth).unwrap());
            assert_ledger_matches_table(&e, &format!("boundary round {round}"));
        }
        let gates = (0..12u32)
            .map(|t| e.is_reliable_tagger(t).unwrap())
            .collect();
        let unreliable = e.unreliable_tagger_count().unwrap();
        (gates, summaries, unreliable, e.store_checksum())
    }

    #[test]
    fn gate_boundaries_pin_identically_across_depths_and_modes() {
        // Boundary counters (decided == grace, rate == threshold, one
        // step either side) must steer every schedule identically — the
        // inline single-thread round and threaded pipelines at depths 1,
        // 2 and 4 — including the ledger's reopen/rebuild path, which is
        // how the boundary counters reach it.
        let base = boundary_round_output(1, 1);
        for (threads, depth) in [(4usize, 1usize), (4, 2), (8, 4)] {
            let other = boundary_round_output(threads, depth);
            assert_eq!(
                base, other,
                "boundary rounds diverged at {threads} threads, depth {depth}"
            );
        }
    }

    #[test]
    fn a_group_of_one_writes_the_per_project_frame_byte_for_byte() {
        // Rounds always commit through the group accumulator; a group of
        // one must put on disk exactly the frame the per-project schedule
        // committed: one project's staged effects, deltas and row, handed
        // straight to the store.
        let wal_after = |per_project: bool| {
            let dir = itag_store::testutil::TestDir::new("group-of-one");
            let config = EngineConfig::durable(0x1F, dir.path().to_path_buf());
            let mut e = ITagEngine::new(config).unwrap();
            let provider = e.register_provider("frames").unwrap();
            let p = e
                .add_project(provider, ProjectSpec::demo("frames", 100), dataset(30))
                .unwrap();
            if per_project {
                let mut rt = e.runtimes.remove(&p.0).unwrap();
                let rep = e.reputation.snapshot();
                let outcome = tick_campaign(&mut rt, &e.config, &rep, Tick::Run(40));
                let next = AtomicU64::new(e.next_post_id);
                let mut job = assign_post_base(&next, p.0, &rt, outcome).unwrap();
                let deltas = DecisionDeltas::from_decisions(
                    job.outcome
                        .decisions
                        .iter()
                        .map(|d| (d.worker.0, d.approved, d.pay)),
                );
                let batch = stage_project_effects(&mut job, &e.tags, &e.resources);
                let (frame, _) =
                    stage_member_frame(&e.users, &e.projects, job, deltas, batch).unwrap();
                e.store.commit(frame).unwrap();
            } else {
                assert_eq!(e.run(p, 40).unwrap().issued, 40);
            }
            drop(e);
            std::fs::read(dir.path().join("db.wal")).unwrap()
        };
        assert_eq!(wal_after(true), wal_after(false));
    }

    #[test]
    fn schema_version_gate_rejects_foreign_databases() {
        use itag_store::{Store, StoreOptions};
        // A mismatched version row is rejected with a clear error.
        let dir = itag_store::testutil::TestDir::new("engine-schema-mismatch");
        {
            let store = Store::open(dir.path(), StoreOptions::default()).unwrap();
            store
                .put(
                    crate::tables::META,
                    SCHEMA_KEY.to_vec(),
                    (SCHEMA_VERSION + 1).to_be_bytes().to_vec(),
                )
                .unwrap();
            store.sync().unwrap();
        }
        let err = ITagEngine::new(EngineConfig::durable(1, dir.path().to_path_buf()))
            .err()
            .expect("mismatched schema must be rejected");
        assert!(err.to_string().contains("schema"), "got: {err}");

        // A pre-versioning database (core tables, no meta row) is rejected.
        let dir = itag_store::testutil::TestDir::new("engine-schema-legacy");
        {
            let store = Store::open(dir.path(), StoreOptions::default()).unwrap();
            store
                .put(crate::tables::PROJECTS, vec![0, 0, 0, 0], vec![1])
                .unwrap();
            store.sync().unwrap();
        }
        assert!(
            ITagEngine::new(EngineConfig::durable(1, dir.path().to_path_buf())).is_err(),
            "legacy database must be rejected"
        );

        // A fresh directory is stamped and reopens cleanly.
        let dir = itag_store::testutil::TestDir::new("engine-schema-fresh");
        drop(ITagEngine::new(EngineConfig::durable(1, dir.path().to_path_buf())).unwrap());
        drop(ITagEngine::new(EngineConfig::durable(1, dir.path().to_path_buf())).unwrap());
    }

    #[test]
    fn durable_engine_resumes_after_restart() {
        let dir = itag_store::testutil::TestDir::new("engine-resume");
        let (project, quality_before, counts_before) = {
            let mut e =
                ITagEngine::new(EngineConfig::durable(13, dir.path().to_path_buf())).unwrap();
            let provider = e.register_provider("leo").unwrap();
            let p = e
                .add_project(provider, ProjectSpec::demo("durable", 400), dataset(13))
                .unwrap();
            let _ = e.run(p, 200).unwrap();
            let m = e.monitor(p).unwrap();
            (
                p,
                m.quality_mean,
                m.rows.iter().map(|r| r.posts).collect::<Vec<_>>(),
            )
        };

        let mut e = ITagEngine::new(EngineConfig::durable(13, dir.path().to_path_buf())).unwrap();
        assert_eq!(e.stored_projects().unwrap(), vec![project]);
        e.resume_project(project).unwrap();
        let m = e.monitor(project).unwrap();
        let counts_after: Vec<u32> = m.rows.iter().map(|r| r.posts).collect();
        assert_eq!(counts_after, counts_before, "post counts survive restart");
        assert!(
            (m.quality_mean - quality_before).abs() < 1e-9,
            "replayed quality {} vs live {}",
            m.quality_mean,
            quality_before
        );
        // The resumed project can keep running.
        let s = e.run(project, 50).unwrap();
        assert_eq!(s.issued, 50);
    }
}
