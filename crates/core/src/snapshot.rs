//! Engine snapshots — analytics over one consistent round boundary.
//!
//! [`crate::engine::ITagEngine::snapshot`] captures an [`EngineSnapshot`]:
//! a typed wrapper over a [`StoreSnapshot`] of every persisted table, the
//! O(1) reputation snapshot, and one [`ProjectDigest`] per live runtime
//! (the scalars, series and rfds that exist only in memory, the latter
//! two shared copy-on-write with the runtime — [`crate::shared`]).
//! All the dashboard reads — [`EngineSnapshot::monitor`],
//! [`EngineSnapshot::render_table`], [`EngineSnapshot::browse`],
//! [`EngineSnapshot::export`] — are rebuilt here against the frozen view,
//! so a dashboard session reads tables, listings and exports that all
//! describe the *same* round boundary, no matter how far the live engine
//! has advanced since the capture.
//!
//! These are the only implementation of the dashboard reads: the
//! engine's `monitor`, `browse_projects` and `export` answer off a fresh
//! capture, so a served snapshot and a live read at the same epoch agree
//! by construction. Monitor rows come from the stored
//! `ResourceRecord.posts/quality`, which the integrity checker pins as
//! bit-copies of the live quality state between rounds. Exports read the
//! captured rfds; the tests hold them to the dataset-initial tags plus
//! the stored post log, folded from scratch. The per-digest float fields
//! (`quality_mean`, `oracle_quality`) are captured as scalars rather than
//! recomputed, because the live mean is a drifting accumulator —
//! recomputing would be close but not bit-equal.
//!
//! Every read path here is panic-free (`get` + `?`, never indexing): the
//! server serves these off-lock to untrusted dashboard sessions, and the
//! panic-reachability gate holds this surface to the pinned waiver set.

use crate::export::{Export, ExportedResource};
use crate::monitor::{MonitorSnapshot, ProjectListing, ResourceRow};
use crate::records::{ResourceRecord, TagRecord, UserRecord, UserRole};
use crate::shared::{PagedVec, Series};
use crate::user_mgr::ReputationSnapshot;
use crate::{EngineError, Result};
use itag_model::ids::{ProjectId, ResourceId, TagId};
use itag_quality::rfd::Rfd;
use itag_store::codec::FxHashMap;
use itag_store::StoreSnapshot;
use itag_strategy::framework::BudgetPoint;
use std::collections::BTreeMap;

/// The per-project scalars that live only in the engine runtime, captured
/// under the engine lock. Strings are the already-rendered labels the
/// monitor screens show; money is the ledger's round-boundary totals.
#[derive(Debug, Clone)]
pub struct ProjectDigest {
    pub project: ProjectId,
    pub provider: u32,
    pub name: String,
    pub state: String,
    pub strategy: String,
    /// `q(R)` — the live drifting accumulator, captured as a scalar.
    pub quality_mean: f64,
    pub quality_initial: f64,
    pub oracle_quality: f64,
    pub budget_total: u32,
    pub budget_spent: u32,
    pub open_tasks: usize,
    pub tasks_approved: u64,
    pub tasks_rejected: u64,
    pub banned_taggers: usize,
    /// Money still held in escrow (already net of paid/refunded).
    pub escrowed: u64,
    pub paid: u64,
    pub refunded: u64,
    pub pay_per_task_cents: u32,
    /// The Fig. 5 quality-over-budget trajectory, sharing the runtime's
    /// chunks.
    pub series: Series<BudgetPoint>,
    /// Each resource's rfd, sharing the runtime's pages.
    pub rfds: PagedVec<Rfd>,
}

/// A frozen analytics view of the whole engine (see module docs).
/// Cloning is cheap: the store view is an `Arc` handle and the digests
/// are shared via the server's per-epoch cache, not per-request.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    store: StoreSnapshot,
    reputation: ReputationSnapshot,
    /// Digests keyed by project id (ordered — `browse` iterates this).
    projects: BTreeMap<u32, ProjectDigest>,
}

impl EngineSnapshot {
    pub(crate) fn assemble(
        store: StoreSnapshot,
        reputation: ReputationSnapshot,
        projects: BTreeMap<u32, ProjectDigest>,
    ) -> Self {
        EngineSnapshot {
            store,
            reputation,
            projects,
        }
    }

    /// Store LSN this view was captured at. The server's per-epoch cache
    /// compares this against [`itag_store::Store::epoch`] to decide
    /// whether a cached snapshot is still current.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The underlying raw store view.
    pub fn store(&self) -> &StoreSnapshot {
        &self.store
    }

    /// The captured per-project digest, if the project had a live runtime.
    pub fn digest(&self, project: ProjectId) -> Option<&ProjectDigest> {
        self.projects.get(&project.0)
    }

    /// The reliability gate over the captured reputation counters.
    pub fn is_reliable_tagger(&self, tagger: u32) -> bool {
        self.reputation.is_reliable_with(tagger, 0, 0)
    }

    /// A project's resource records, in resource-id order (the snapshot
    /// twin of `ResourceManager::list`).
    fn project_resources(&self, project: ProjectId) -> Result<Vec<ResourceRecord>> {
        let from = (project, ResourceId(0));
        let to = (ProjectId(project.0.wrapping_add(1)), ResourceId(0));
        let to = if project.0 == u32::MAX {
            None
        } else {
            Some(&to)
        };
        Ok(self.store.table::<ResourceRecord>().scan_range(&from, to)?)
    }

    /// The Fig. 3 / Fig. 5 view of a project, rebuilt from the frozen
    /// tables plus the digest. Equal to the live `ITagEngine::monitor` at
    /// capture time: rows come from the stored resource records, whose
    /// post counts and qualities are round-boundary bit-copies of the
    /// live quality state.
    pub fn monitor(&self, project: ProjectId) -> Result<MonitorSnapshot> {
        let d = self
            .projects
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        let rows: Vec<ResourceRow> = self
            .project_resources(project)?
            .into_iter()
            .map(|r| ResourceRow {
                id: r.resource.id,
                uri: r.resource.uri,
                posts: r.posts,
                quality: r.quality,
                stopped: r.stopped,
            })
            .collect();
        let qualities: Vec<f64> = rows.iter().map(|r| r.quality).collect();
        Ok(MonitorSnapshot {
            project,
            name: d.name.clone(),
            state: d.state.clone(),
            strategy: d.strategy.clone(),
            quality_mean: d.quality_mean,
            quality_initial: d.quality_initial,
            oracle_quality: d.oracle_quality,
            budget_total: d.budget_total,
            budget_spent: d.budget_spent,
            open_tasks: d.open_tasks,
            tasks_approved: d.tasks_approved,
            tasks_rejected: d.tasks_rejected,
            banned_taggers: d.banned_taggers,
            escrowed: d.escrowed,
            paid: d.paid,
            refunded: d.refunded,
            quality_summary: itag_quality::aggregate::QualitySummary::compute(&qualities),
            series: d.series.to_vec(),
            rows,
        })
    }

    /// The rendered Fig. 3 console table (top `limit` rows) off the
    /// frozen view — what the server streams to dashboard sessions
    /// without touching the engine.
    pub fn render_table(&self, project: ProjectId, limit: usize) -> Result<String> {
        Ok(self.monitor(project)?.render_table(limit))
    }

    /// The tagger-side project browser (Fig. 7) over the frozen view,
    /// same sort as the live `ITagEngine::browse_projects`: pay
    /// descending, provider generosity as tie-break, id as final
    /// tie-break. Generosity comes from the captured user table.
    pub fn browse(&self) -> Result<Vec<ProjectListing>> {
        let users = self.store.table::<UserRecord>();
        let mut listings = Vec::with_capacity(self.projects.len());
        for d in self.projects.values() {
            let provider_approval_rate = users
                .get(&(UserRole::Provider.tag(), d.provider))?
                .map(|u| u.approval_rate_given())
                .unwrap_or(1.0);
            listings.push(ProjectListing {
                project: d.project,
                name: d.name.clone(),
                state: d.state.clone(),
                pay_per_task_cents: d.pay_per_task_cents,
                provider_approval_rate,
                open_tasks: d.open_tasks,
            });
        }
        listings.sort_by(|a, b| {
            b.pay_per_task_cents
                .cmp(&a.pay_per_task_cents)
                .then(
                    b.provider_approval_rate
                        .total_cmp(&a.provider_approval_rate),
                )
                .then(a.project.cmp(&b.project))
        });
        Ok(listings)
    }

    /// "Export resources with the desired tags", off the frozen view.
    /// Per-resource consensus tags come from the rfds captured in the
    /// digest, most frequent first (ties by tag id), so the cost is the
    /// project's resources and tags — never the store's post log.
    pub fn export(&self, project: ProjectId) -> Result<Export> {
        let d = self
            .projects
            .get(&project.0)
            .ok_or(EngineError::UnknownProject(project))?;
        let tags_table = self.store.table::<TagRecord>();
        let mut tag_texts: FxHashMap<TagId, String> = FxHashMap::default();
        let mut resources = Vec::new();
        for record in self.project_resources(project)? {
            let mut tag_counts: Vec<(TagId, u32)> = d
                .rfds
                .get(record.resource.id.index())
                .map(|rfd| rfd.iter().collect())
                .unwrap_or_default();
            tag_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let mut tags = Vec::with_capacity(tag_counts.len());
            for (t, c) in tag_counts {
                let text = match tag_texts.get(&t) {
                    Some(text) => text.clone(),
                    None => {
                        let text = tags_table.get(&t)?.map(|r| r.text).unwrap_or_default();
                        tag_texts.insert(t, text.clone());
                        text
                    }
                };
                tags.push((text, c));
            }
            resources.push(ExportedResource {
                uri: record.resource.uri,
                kind: record.resource.kind.label().to_string(),
                posts: record.posts,
                quality: record.quality,
                tags,
            });
        }
        Ok(Export {
            project: d.name.clone(),
            resources,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::ITagEngine;
    use crate::project::ProjectSpec;
    use crate::records::{DatasetRecord, PostRecord};
    use itag_model::delicious::DeliciousConfig;
    use itag_model::ids::PostId;
    use itag_store::table::Entity;

    fn engine_with_projects(n: u64) -> (ITagEngine, Vec<ProjectId>) {
        let mut config = EngineConfig::in_memory(0x5AB5);
        config.spammer_fraction = 0.25;
        let mut e = ITagEngine::new(config).unwrap();
        let mut ids = Vec::new();
        for i in 0..n {
            let provider = e.register_provider(&format!("prov-{i}")).unwrap();
            let dataset = DeliciousConfig::tiny(90 + i).generate().dataset;
            let p = e
                .add_project(
                    provider,
                    ProjectSpec::demo(&format!("camp-{i}"), 120),
                    dataset,
                )
                .unwrap();
            ids.push(p);
        }
        (e, ids)
    }

    /// The headline contract: every snapshot read equals its live
    /// counterpart at capture time — full `PartialEq`, floats included.
    #[test]
    fn snapshot_reads_equal_live_reads_at_capture() {
        let (mut e, ids) = engine_with_projects(3);
        e.run_all(60).unwrap();
        let snap = e.snapshot();
        assert_eq!(snap.epoch(), e.store_handle().epoch());
        for &p in &ids {
            assert_eq!(snap.monitor(p).unwrap(), e.monitor(p).unwrap());
            assert_eq!(
                snap.render_table(p, 10).unwrap(),
                e.monitor(p).unwrap().render_table(10)
            );
        }
        assert_eq!(snap.browse().unwrap(), e.browse_projects().unwrap());
    }

    /// A snapshot keeps answering with its round boundary after the
    /// engine moves on; a fresh one tracks the live state again.
    #[test]
    fn snapshot_is_frozen_while_the_engine_advances() {
        let (mut e, ids) = engine_with_projects(2);
        e.run_all(40).unwrap();
        let frozen = e.snapshot();
        let frozen_monitors: Vec<_> = ids.iter().map(|&p| frozen.monitor(p).unwrap()).collect();

        e.run_all(40).unwrap();
        for (i, &p) in ids.iter().enumerate() {
            assert_eq!(
                frozen.monitor(p).unwrap(),
                frozen_monitors[i],
                "held snapshot must not see the new round"
            );
            let live = e.monitor(p).unwrap();
            assert!(live.budget_spent > frozen_monitors[i].budget_spent);
        }
        let fresh = e.snapshot();
        assert!(fresh.epoch() > frozen.epoch());
        for &p in &ids {
            assert_eq!(fresh.monitor(p).unwrap(), e.monitor(p).unwrap());
        }
        assert_eq!(fresh.browse().unwrap(), e.browse_projects().unwrap());
    }

    /// The oracle for `export`'s captured rfds: every resource's tags
    /// folded from the dataset's initial posts plus each stored post of
    /// the project, ranked the way `export` ranks them.
    fn export_by_fold(snap: &EngineSnapshot, p: ProjectId) -> Export {
        let dataset = snap
            .store
            .table::<DatasetRecord>()
            .get(&p)
            .unwrap()
            .unwrap()
            .dataset;
        let mut rfds = vec![FxHashMap::<TagId, u32>::default(); dataset.len()];
        let mut fold = |r: ResourceId, tags: &[TagId]| {
            for &t in tags {
                *rfds[r.index()].entry(t).or_insert(0) += 1;
            }
        };
        for post in &dataset.initial_posts {
            fold(post.resource, &post.tags);
        }
        let posts = snap.store.table::<PostRecord>();
        posts
            .for_each_range(&PostId(0), None, |rec| {
                if rec.project == p {
                    fold(rec.post.resource, &rec.post.tags);
                }
                true
            })
            .unwrap();
        let texts = snap.store.table::<TagRecord>();
        let mut want = snap.export(p).unwrap();
        for (res, rfd) in want.resources.iter_mut().zip(rfds) {
            let mut counts: Vec<(TagId, u32)> = rfd.into_iter().collect();
            counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            res.tags = counts
                .into_iter()
                .map(|(t, c)| (texts.get(&t).unwrap().unwrap().text, c))
                .collect();
        }
        want
    }

    /// Exports off captured rfds equal the post-log fold and the live
    /// export, round after round, including from a capture held while
    /// the engine moved on.
    #[test]
    fn export_equals_the_post_log_fold_across_rounds_and_projects() {
        let (mut e, ids) = engine_with_projects(3);
        let mut held = Vec::new();
        for round in 0..6 {
            if round % 2 == 0 {
                e.run_all(20).unwrap();
            } else {
                e.run(ids[round % 3], 25).unwrap();
            }
            let snap = e.snapshot();
            for &p in &ids {
                let got = snap.export(p).unwrap();
                assert_eq!(got, export_by_fold(&snap, p), "round {round}, {p}");
                assert_eq!(got, e.export(p).unwrap(), "round {round}, {p}");
            }
            held.push(snap);
        }
        for snap in &held {
            for &p in &ids {
                assert_eq!(snap.export(p).unwrap(), export_by_fold(snap, p));
            }
        }
    }

    /// An export reads its project's rows and tags only: other projects'
    /// posts do not change the entries it reads off the store view.
    #[test]
    fn export_reads_do_not_grow_with_other_projects_posts() {
        let (mut e, ids) = engine_with_projects(2);
        e.run_all(20).unwrap();
        let reads_of = |snap: &EngineSnapshot| {
            let before = snap.store().entries_read();
            snap.export(ids[0]).unwrap();
            snap.store().entries_read() - before
        };
        let small = e.snapshot();
        for _ in 0..4 {
            e.run(ids[1], 25).unwrap();
        }
        let large = e.snapshot();
        assert!(large.store().count(PostRecord::TABLE) > small.store().count(PostRecord::TABLE));
        assert_eq!(reads_of(&small), reads_of(&large));
    }

    /// Unknown projects are clean errors on every snapshot read — the
    /// server serves these to arbitrary sessions, so nothing may panic.
    #[test]
    fn unknown_project_is_an_error_not_a_panic() {
        let (e, _) = engine_with_projects(1);
        let snap = e.snapshot();
        let ghost = ProjectId(999);
        assert!(snap.monitor(ghost).is_err());
        assert!(snap.export(ghost).is_err());
        assert!(snap.render_table(ghost, 5).is_err());
        assert!(snap.digest(ghost).is_none());
    }

    /// The reputation view rides the snapshot: a tagger the live gate
    /// flags is flagged by the captured gate too.
    #[test]
    fn reputation_gate_matches_live_at_capture() {
        let (mut e, _) = engine_with_projects(2);
        e.run_all(120).unwrap();
        let snap = e.snapshot();
        let mut checked = 0;
        for t in 0..64u32 {
            if let Ok(live) = e.is_reliable_tagger(t) {
                assert_eq!(snap.is_reliable_tagger(t), live, "tagger {t}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
