//! Resource Manager — "in charge of controlling the operations on
//! resources and their related tags, and … responsible for storing
//! resource and tagging information" (Section III-A).

use crate::records::{ResourceRecord, IDX_RESOURCE_BY_POSTCOUNT};
use crate::{EngineError, Result};
use itag_model::ids::{ProjectId, ResourceId};
use itag_model::resource::Resource;
use itag_store::{Store, TypedTable, WriteBatch};
use std::sync::Arc;

/// CRUD + post-count index over project resources.
pub struct ResourceManager {
    table: TypedTable<ResourceRecord>,
    store: Arc<Store>,
}

impl ResourceManager {
    pub fn new(store: Arc<Store>) -> Self {
        ResourceManager {
            table: TypedTable::new(Arc::clone(&store)),
            store,
        }
    }

    /// Stages the upload of a project's resources (all start with the
    /// given post counts and quality snapshots; counts come from the
    /// provider's pre-existing posts, qualities from the initial metric
    /// evaluation). The caller commits `batch`, so the upload can share a
    /// frame with the project's other rows.
    pub fn stage_upload(
        &self,
        batch: &mut WriteBatch,
        project: ProjectId,
        resources: &[Resource],
        initial_counts: &[u32],
        initial_qualities: &[f64],
    ) -> Result<()> {
        for (i, r) in resources.iter().enumerate() {
            let record = ResourceRecord {
                project,
                resource: r.clone(),
                posts: initial_counts.get(i).copied().unwrap_or(0),
                quality: initial_qualities.get(i).copied().unwrap_or(0.0),
                stopped: false,
            };
            // Write-through: the first tick's reads hit the entity cache.
            self.table.stage_upsert_cached(batch, &record)?;
            IDX_RESOURCE_BY_POSTCOUNT.stage_update(batch, None, Some(&record));
        }
        Ok(())
    }

    /// Fetches one resource record.
    pub fn get(&self, project: ProjectId, r: ResourceId) -> Result<ResourceRecord> {
        self.table
            .get(&(project, r))?
            .ok_or(EngineError::UnknownResource(r))
    }

    /// Zero-copy fetch of one resource record: a cache hit hands back the
    /// shared decoded record, so concurrent staging threads never clone
    /// (or decode) a row just to read it. Clone-on-write call sites keep
    /// the `Arc` and clone only if they end up mutating.
    pub fn get_arc(&self, project: ProjectId, r: ResourceId) -> Result<Arc<ResourceRecord>> {
        self.table
            .get_arc(&(project, r))?
            .ok_or(EngineError::UnknownResource(r))
    }

    /// All records of a project, in resource-id order.
    pub fn list(&self, project: ProjectId) -> Result<Vec<ResourceRecord>> {
        let from = (project, ResourceId(0));
        let to = (ProjectId(project.0 + 1), ResourceId(0));
        Ok(self.table.scan_range(&from, Some(&to))?)
    }

    /// Stages a post-count bump (keeps the count index consistent); set
    /// `record.quality` first and the fresh snapshot rides along.
    /// Returns the updated record.
    pub fn stage_increment_posts(
        &self,
        batch: &mut WriteBatch,
        record: &ResourceRecord,
    ) -> Result<ResourceRecord> {
        let mut updated = record.clone();
        updated.posts += 1;
        self.stage_finalize_posts(batch, record.posts, updated.clone())?;
        Ok(updated)
    }

    /// Stages the final record of a round by ownership: `record` already
    /// carries its final post count and quality, `old_posts` is the count
    /// the stored row and index still hold. One encode, zero extra record
    /// clones — the record moves into the write-through cache hint.
    pub fn stage_finalize_posts(
        &self,
        batch: &mut WriteBatch,
        old_posts: u32,
        record: ResourceRecord,
    ) -> Result<()> {
        use itag_store::table::{Entity, KeyCodec};
        let pk = record.primary_key().encoded();
        IDX_RESOURCE_BY_POSTCOUNT.stage_remove(batch, &(record.project, old_posts), &pk);
        IDX_RESOURCE_BY_POSTCOUNT.stage_insert(batch, &(record.project, record.posts), &pk);
        self.table.stage_upsert_owned(batch, record)?;
        Ok(())
    }

    /// Persists the provider's Stop/Resume toggle. The read-modify-write
    /// stages through a single [`WriteBatch`], so the flip commits as one
    /// atomic frame instead of a separate read and write commit.
    pub fn set_stopped(&self, project: ProjectId, r: ResourceId, stopped: bool) -> Result<()> {
        self.table
            .update(&(project, r), |record| record.stopped = stopped)?
            .ok_or(EngineError::UnknownResource(r))?;
        Ok(())
    }

    /// Resources of `project` with fewer than `t` posts, via one ordered
    /// index scan (the figure `lowpost-vs-budget` reads this).
    pub fn below_posts(&self, project: ProjectId, t: u32) -> Result<Vec<(ProjectId, ResourceId)>> {
        let from = (project, 0u32);
        let to = (project, t);
        Ok(IDX_RESOURCE_BY_POSTCOUNT.range(self.store.as_ref(), &from, Some(&to))?)
    }

    /// Number of resources in `project`.
    pub fn count(&self, project: ProjectId) -> Result<usize> {
        Ok(self.list(project)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itag_model::resource::ResourceKind;

    fn mgr() -> ResourceManager {
        ResourceManager::new(Arc::new(Store::in_memory()))
    }

    fn resources(n: u32) -> Vec<Resource> {
        (0..n)
            .map(|i| Resource::synthetic(ResourceId(i), ResourceKind::WebUrl))
            .collect()
    }

    const P: ProjectId = ProjectId(1);

    fn upload(m: &ResourceManager, p: ProjectId, rs: &[Resource], counts: &[u32], q: &[f64]) {
        let mut batch = WriteBatch::new();
        m.stage_upload(&mut batch, p, rs, counts, q).unwrap();
        m.table.store().commit(batch).unwrap();
    }

    #[test]
    fn upload_then_list_roundtrip() {
        let m = mgr();
        upload(
            &m,
            P,
            &resources(5),
            &[3, 0, 1, 0, 7],
            &[0.1, 0.2, 0.3, 0.4, 0.5],
        );
        let list = m.list(P).unwrap();
        assert_eq!(list.len(), 5);
        assert_eq!(list[0].posts, 3);
        assert_eq!(list[4].posts, 7);
        assert_eq!(m.count(P).unwrap(), 5);
    }

    #[test]
    fn projects_are_isolated() {
        let m = mgr();
        upload(&m, P, &resources(3), &[0, 0, 0], &[]);
        upload(&m, ProjectId(2), &resources(2), &[9, 9], &[]);
        assert_eq!(m.list(P).unwrap().len(), 3);
        assert_eq!(m.list(ProjectId(2)).unwrap().len(), 2);
        assert!(m.get(P, ResourceId(0)).unwrap().posts == 0);
        assert!(m.get(ProjectId(2), ResourceId(0)).unwrap().posts == 9);
    }

    #[test]
    fn below_posts_uses_the_count_index() {
        let m = mgr();
        upload(&m, P, &resources(4), &[0, 5, 2, 10], &[]);
        let low = m.below_posts(P, 3).unwrap();
        let ids: Vec<u32> = low.iter().map(|(_, r)| r.0).collect();
        assert_eq!(ids, vec![0, 2]); // sorted by (count, id): 0 posts, then 2
    }

    #[test]
    fn increment_keeps_index_consistent() {
        let m = mgr();
        upload(&m, P, &resources(2), &[0, 0], &[]);
        let rec = m.get(P, ResourceId(0)).unwrap();
        let mut batch = WriteBatch::new();
        let updated = m.stage_increment_posts(&mut batch, &rec).unwrap();
        m.table.store().commit(batch).unwrap();
        assert_eq!(updated.posts, 1);
        assert_eq!(m.get(P, ResourceId(0)).unwrap().posts, 1);
        let low = m.below_posts(P, 1).unwrap();
        assert_eq!(low.len(), 1, "only resource 1 still has 0 posts");
        assert_eq!(low[0].1, ResourceId(1));
    }

    #[test]
    fn stop_flag_persists() {
        let m = mgr();
        upload(&m, P, &resources(1), &[0], &[]);
        m.set_stopped(P, ResourceId(0), true).unwrap();
        assert!(m.get(P, ResourceId(0)).unwrap().stopped);
        m.set_stopped(P, ResourceId(0), false).unwrap();
        assert!(!m.get(P, ResourceId(0)).unwrap().stopped);
    }

    #[test]
    fn unknown_resource_is_an_error() {
        let m = mgr();
        assert!(matches!(
            m.get(P, ResourceId(9)),
            Err(EngineError::UnknownResource(_))
        ));
    }
}
