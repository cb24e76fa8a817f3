//! Audience participation — the demo's live mode.
//!
//! "The audience can participate either as a provider or as a tagger.
//! Taggers can choose their tagging tasks to complete …" (Section IV).
//! [`ManualPlatform`] is a [`CrowdPlatform`] whose submissions are
//! *injected by the caller* instead of generated by behaviour models: a
//! console demo feeds audience input, and a production deployment would
//! feed real marketplace callbacks through exactly this surface. The
//! engine cannot tell the difference.

use crate::platform::{CrowdPlatform, PlatformKind, PlatformStats, TagSource};
use crate::task::{TaggingTask, TaskId, TaskResult, TaskState};
use crate::worker::{Worker, WorkerPool};
use crate::{CrowdError, Result};
use itag_model::ids::{ProjectId, ResourceId, TagId, TaggerId};
use itag_store::codec::{FxHashMap, FxHashSet};
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// A platform driven by externally supplied submissions.
pub struct ManualPlatform {
    kind: PlatformKind,
    tasks: FxHashMap<u64, TaggingTask>,
    /// Published tasks waiting for an audience member, FIFO.
    open: VecDeque<TaskId>,
    /// Submissions queued by the caller, surfaced at the next `step`.
    inbox: VecDeque<TaskResult>,
    /// Audience members seen so far (auto-registered on first submission).
    workers: WorkerPool,
    banned: FxHashSet<u32>,
    next_task: u64,
    clock: u64,
    stats: PlatformStats,
}

impl ManualPlatform {
    /// An empty audience platform.
    pub fn new(kind: PlatformKind) -> Self {
        ManualPlatform {
            kind,
            tasks: FxHashMap::default(),
            open: VecDeque::new(),
            inbox: VecDeque::new(),
            workers: WorkerPool::default(),
            banned: FxHashSet::default(),
            next_task: 0,
            clock: 0,
            stats: PlatformStats::default(),
        }
    }

    /// Tasks currently claimable by the audience, oldest first (what the
    /// tagging screen of Fig. 8 lists).
    pub fn open_task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.open.iter().copied()
    }

    /// An audience member claims `task` and submits `tags`.
    ///
    /// Rejects unknown/already-taken tasks, banned taggers and empty tag
    /// sets — the validations the demo UI performs.
    // lint: allow(panic-path)
    pub fn submit(&mut self, task_id: TaskId, tagger: TaggerId, tags: Vec<TagId>) -> Result<()> {
        if self.banned.contains(&tagger.0) {
            return Err(CrowdError::BadState {
                task: task_id,
                expected: "unbanned tagger",
                actual: "banned",
            });
        }
        if tags.is_empty() {
            return Err(CrowdError::BadState {
                task: task_id,
                expected: "non-empty tag set",
                actual: "empty",
            });
        }
        let (project, resource) = {
            let task = self
                .tasks
                .get(&task_id.0)
                .ok_or(CrowdError::UnknownTask(task_id))?;
            if task.state != TaskState::Published {
                return Err(CrowdError::BadState {
                    task: task_id,
                    expected: "published",
                    actual: task.state.name(),
                });
            }
            (task.project, task.resource)
        };
        let pos = self
            .open
            .iter()
            .position(|&t| t == task_id)
            .expect("published task is in the open queue");
        self.open.remove(pos);

        self.register(tagger);
        if let Some(task) = self.tasks.get_mut(&task_id.0) {
            task.state = TaskState::Submitted {
                worker: tagger,
                tags: tags.clone(),
            };
        }
        if let Some(w) = self.workers.get_mut(tagger) {
            w.stats.submitted += 1;
        }
        self.stats.assigned += 1;
        self.stats.submitted += 1;
        self.inbox.push_back(TaskResult {
            task: task_id,
            project,
            resource,
            worker: tagger,
            tags,
            submitted_at: self.clock,
        });
        Ok(())
    }

    fn register(&mut self, tagger: TaggerId) {
        if self.workers.get(tagger).is_none() {
            // Audience members have no behaviour model (they are real).
            let behavior = crate::behavior::TaggerBehavior::casual();
            self.workers.push(Worker::new(tagger, behavior));
        }
    }
}

impl CrowdPlatform for ManualPlatform {
    fn kind(&self) -> PlatformKind {
        self.kind
    }

    fn publish(&mut self, project: ProjectId, resource: ResourceId, pay_cents: u32) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        self.tasks.insert(
            id.0,
            TaggingTask {
                id,
                project,
                resource,
                pay_cents,
                state: TaskState::Published,
                published_at: self.clock,
            },
        );
        self.open.push_back(id);
        self.stats.published += 1;
        id
    }

    fn step(&mut self, _source: &dyn TagSource, _rng: &mut StdRng) -> Vec<TaskResult> {
        self.clock += 1;
        self.stats.ticks += 1;
        self.inbox.drain(..).collect()
    }

    fn decide(&mut self, task_id: TaskId, approve: bool) -> Result<(TaggerId, u32)> {
        let task = self
            .tasks
            .get_mut(&task_id.0)
            .ok_or(CrowdError::UnknownTask(task_id))?;
        let worker = match &task.state {
            TaskState::Submitted { worker, .. } => *worker,
            other => {
                return Err(CrowdError::BadState {
                    task: task_id,
                    expected: "submitted",
                    actual: other.name(),
                })
            }
        };
        task.state = if approve {
            TaskState::Approved { worker }
        } else {
            TaskState::Rejected { worker }
        };
        let pay = task.pay_cents;
        if let Some(w) = self.workers.get_mut(worker) {
            if approve {
                w.stats.approved += 1;
                w.stats.earned_cents += pay as u64;
            } else {
                w.stats.rejected += 1;
            }
        }
        if approve {
            self.stats.approved += 1;
        } else {
            self.stats.rejected += 1;
        }
        Ok((worker, pay))
    }

    fn task(&self, id: TaskId) -> Option<&TaggingTask> {
        self.tasks.get(&id.0)
    }

    fn workers(&self) -> &WorkerPool {
        &self.workers
    }

    fn stats(&self) -> PlatformStats {
        self.stats
    }

    fn open_tasks(&self) -> usize {
        self.open.len()
    }

    fn ban_worker(&mut self, worker: TaggerId) {
        self.banned.insert(worker.0);
    }

    fn banned_count(&self) -> usize {
        self.banned.len()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct NoSource;
    impl TagSource for NoSource {
        fn latent(&self, _r: ResourceId) -> &itag_model::vocab::TagDistribution {
            unreachable!("manual platform never samples")
        }
        fn vocab_size(&self) -> u32 {
            0
        }
    }

    #[test]
    fn audience_submission_flows_to_results() {
        let mut p = ManualPlatform::new(PlatformKind::Facebook);
        let mut rng = StdRng::seed_from_u64(1);
        let t = p.publish(ProjectId(1), ResourceId(3), 10);
        assert_eq!(p.open_tasks(), 1);
        assert_eq!(p.open_task_ids().collect::<Vec<_>>(), vec![t]);

        p.submit(t, TaggerId(7), vec![TagId(1), TagId(2)]).unwrap();
        assert_eq!(p.open_tasks(), 0);
        let results = p.step(&NoSource, &mut rng);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].worker, TaggerId(7));
        assert_eq!(results[0].tags, vec![TagId(1), TagId(2)]);

        let (worker, pay) = p.decide(t, true).unwrap();
        assert_eq!((worker, pay), (TaggerId(7), 10));
        assert_eq!(p.workers().get(TaggerId(7)).unwrap().stats.approved, 1);
        assert_eq!(p.workers().get(TaggerId(7)).unwrap().stats.earned_cents, 10);
    }

    #[test]
    fn registering_a_high_id_adds_one_worker() {
        // Engine-wide tagger ids start past the seeded population, so the
        // first audience member can be tagger 600,000.
        let mut p = ManualPlatform::new(PlatformKind::Facebook);
        let t = p.publish(ProjectId(1), ResourceId(0), 5);
        p.submit(t, TaggerId(600_000), vec![TagId(1)]).unwrap();
        assert_eq!(p.workers().len(), 1);
        let t = p.publish(ProjectId(1), ResourceId(1), 5);
        p.submit(t, TaggerId(600_001), vec![TagId(2)]).unwrap();
        assert_eq!(p.workers().len(), 2);
        assert_eq!(
            p.workers().get(TaggerId(600_000)).unwrap().stats.submitted,
            1
        );
    }

    #[test]
    fn double_claim_is_rejected() {
        let mut p = ManualPlatform::new(PlatformKind::Facebook);
        let t = p.publish(ProjectId(1), ResourceId(0), 5);
        p.submit(t, TaggerId(0), vec![TagId(1)]).unwrap();
        let err = p.submit(t, TaggerId(1), vec![TagId(2)]).unwrap_err();
        assert!(matches!(err, CrowdError::BadState { .. }));
    }

    #[test]
    fn empty_tags_and_unknown_tasks_are_rejected() {
        let mut p = ManualPlatform::new(PlatformKind::Facebook);
        let t = p.publish(ProjectId(1), ResourceId(0), 5);
        assert!(p.submit(t, TaggerId(0), vec![]).is_err());
        assert!(matches!(
            p.submit(TaskId(99), TaggerId(0), vec![TagId(1)]),
            Err(CrowdError::UnknownTask(_))
        ));
    }

    #[test]
    fn banned_audience_members_cannot_submit() {
        let mut p = ManualPlatform::new(PlatformKind::Facebook);
        let t = p.publish(ProjectId(1), ResourceId(0), 5);
        p.ban_worker(TaggerId(4));
        assert!(p.submit(t, TaggerId(4), vec![TagId(1)]).is_err());
        assert_eq!(p.banned_count(), 1);
        // Another tagger can still take it.
        p.submit(t, TaggerId(5), vec![TagId(1)]).unwrap();
    }

    #[test]
    fn step_without_submissions_is_empty() {
        let mut p = ManualPlatform::new(PlatformKind::Facebook);
        let mut rng = StdRng::seed_from_u64(2);
        p.publish(ProjectId(1), ResourceId(0), 5);
        assert!(p.step(&NoSource, &mut rng).is_empty());
        assert_eq!(p.open_tasks(), 1, "unclaimed tasks stay open");
    }
}
