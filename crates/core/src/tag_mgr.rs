//! Tag Manager — "the linking of tags to resources is handled by the Tag
//! Manager, after the desired resource has been tagged" (Section III-B).

use crate::records::{PostRecord, TagRecord, IDX_POSTS_BY_RESOURCE};
use crate::Result;
use itag_model::ids::{PostId, ProjectId, ResourceId, TagId};
use itag_model::post::Post;
use itag_model::tag::TagDictionary;
use itag_store::{Store, TypedTable, WriteBatch};
use std::sync::Arc;

/// Persists the tag dictionary and the post log.
pub struct TagManager {
    tags: TypedTable<TagRecord>,
    posts: TypedTable<PostRecord>,
    store: Arc<Store>,
}

impl TagManager {
    pub fn new(store: Arc<Store>) -> Self {
        TagManager {
            tags: TypedTable::new(Arc::clone(&store)),
            posts: TypedTable::new(Arc::clone(&store)),
            store,
        }
    }

    /// Stages a whole dictionary (idempotent upserts) into `batch`.
    pub fn stage_dictionary(&self, batch: &mut WriteBatch, dict: &TagDictionary) -> Result<()> {
        for i in 0..dict.len() as u32 {
            let id = TagId(i);
            if let Some(text) = dict.text(id) {
                self.tags.stage_upsert(
                    batch,
                    &TagRecord {
                        id,
                        text: text.to_string(),
                    },
                )?;
            }
        }
        Ok(())
    }

    /// The text of a tag (empty string if unknown — display contexts only).
    /// Reads through [`TypedTable::get_arc`]: a hit clones only the text,
    /// not the whole record.
    pub fn text(&self, id: TagId) -> String {
        self.tags
            .get_arc(&id)
            .ok()
            .flatten()
            .map(|t| t.text.clone())
            .unwrap_or_default()
    }

    /// Stages one post (row + by-resource and by-tagger indexes) without
    /// cloning the post: serbin encodes structs as plain field
    /// concatenation, so the tuple `(project, &post)` produces bytes
    /// identical to a built [`PostRecord`] (pinned by a records.rs test),
    /// and the index rows are staged straight from the borrowed fields.
    pub fn stage_post(
        &self,
        batch: &mut WriteBatch,
        project: ProjectId,
        post: &Post,
    ) -> Result<()> {
        use itag_store::serbin;
        use itag_store::table::{Entity, KeyCodec};
        let pk = post.id.encoded();
        IDX_POSTS_BY_RESOURCE.stage_insert(batch, &(project, post.resource), &pk);
        crate::records::IDX_POSTS_BY_TAGGER.stage_insert(batch, &(project, post.tagger), &pk);
        batch.put_with(
            PostRecord::TABLE,
            |k| k.extend_from_slice(&pk),
            |v| Ok(serbin::to_writer(v, &(project, post))?),
        )?;
        Ok(())
    }

    /// A tagger's post history on a project, arrival order (Fig. 8's
    /// "view their historical tagging data").
    pub fn posts_by_tagger(
        &self,
        project: ProjectId,
        tagger: itag_model::ids::TaggerId,
    ) -> Result<Vec<Post>> {
        let ids =
            crate::records::IDX_POSTS_BY_TAGGER.lookup(self.store.as_ref(), &(project, tagger))?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(rec) = self.posts.get(&id)? {
                out.push(rec.post);
            }
        }
        out.sort_by_key(|p| p.id);
        Ok(out)
    }

    /// The post sequence of a resource, in post-id (arrival) order.
    pub fn posts_of(&self, project: ProjectId, r: ResourceId) -> Result<Vec<Post>> {
        let ids = IDX_POSTS_BY_RESOURCE.lookup(self.store.as_ref(), &(project, r))?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(rec) = self.posts.get(&id)? {
                out.push(rec.post);
            }
        }
        out.sort_by_key(|p| p.id);
        Ok(out)
    }

    /// All posts of a project, arrival order. Streams the post log instead
    /// of materializing every project's posts just to filter one out.
    pub fn all_posts(&self, project: ProjectId) -> Result<Vec<Post>> {
        let mut out: Vec<Post> = Vec::new();
        self.posts.for_each(|p: PostRecord| {
            if p.project == project {
                out.push(p.post);
            }
            true
        })?;
        out.sort_by_key(|p| p.id);
        Ok(out)
    }

    /// Total stored posts (all projects).
    pub fn post_count(&self) -> usize {
        self.posts.count()
    }

    /// Largest stored post id (for id-counter recovery on reopen).
    pub fn last_post_id(&self) -> Option<PostId> {
        use itag_store::table::{Entity, KeyCodec};
        self.store
            .last_key(PostRecord::TABLE)
            .and_then(|k| PostId::decode(&k).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itag_model::ids::TaggerId;

    fn mgr() -> TagManager {
        TagManager::new(Arc::new(Store::in_memory()))
    }

    const P: ProjectId = ProjectId(1);

    fn post(id: u64, resource: u32, seq: u32) -> Post {
        Post::new(
            PostId(id),
            ResourceId(resource),
            TaggerId(0),
            vec![TagId(1), TagId(2)],
            seq,
            id,
        )
    }

    #[test]
    fn dictionary_roundtrip() {
        let m = mgr();
        let mut d = TagDictionary::new();
        d.intern("rust");
        d.intern("database");
        let mut batch = WriteBatch::new();
        m.stage_dictionary(&mut batch, &d).unwrap();
        m.tags.store().commit(batch).unwrap();
        assert_eq!(m.text(TagId(0)), "rust");
        assert_eq!(m.text(TagId(1)), "database");
        assert_eq!(m.text(TagId(9)), "");
    }

    #[test]
    fn post_sequences_are_per_resource_and_ordered() {
        let m = mgr();
        let mut batch = WriteBatch::new();
        m.stage_post(&mut batch, P, &post(2, 1, 2)).unwrap();
        m.stage_post(&mut batch, P, &post(0, 1, 1)).unwrap();
        m.stage_post(&mut batch, P, &post(1, 2, 1)).unwrap();
        m.posts.store().commit(batch).unwrap();

        let seq = m.posts_of(P, ResourceId(1)).unwrap();
        assert_eq!(seq.len(), 2);
        assert!(seq[0].id < seq[1].id);
        assert_eq!(m.posts_of(P, ResourceId(9)).unwrap().len(), 0);
        assert_eq!(m.post_count(), 3);
        assert_eq!(m.last_post_id(), Some(PostId(2)));
    }

    #[test]
    fn all_posts_filters_by_project() {
        let m = mgr();
        let mut batch = WriteBatch::new();
        m.stage_post(&mut batch, P, &post(0, 0, 1)).unwrap();
        m.stage_post(&mut batch, ProjectId(2), &post(1, 0, 1))
            .unwrap();
        m.posts.store().commit(batch).unwrap();
        assert_eq!(m.all_posts(P).unwrap().len(), 1);
        assert_eq!(m.all_posts(ProjectId(2)).unwrap().len(), 1);
        assert_eq!(m.all_posts(ProjectId(3)).unwrap().len(), 0);
    }
}
