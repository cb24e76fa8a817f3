//! Workers and worker pools.

use crate::behavior::TaggerBehavior;
use itag_model::ids::TaggerId;
use itag_store::codec::FxHashMap;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-worker outcome counters; drives the approval rate the User Manager
/// tracks ("the ratio of providers approving the tags of a given tagger").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    pub submitted: u32,
    pub approved: u32,
    pub rejected: u32,
    pub earned_cents: u64,
}

impl WorkerStats {
    /// Approval rate over decided tasks; 1.0 before any decision (benefit
    /// of the doubt, matching how marketplaces bootstrap new workers).
    pub fn approval_rate(&self) -> f64 {
        let decided = self.approved + self.rejected;
        if decided == 0 {
            1.0
        } else {
            self.approved as f64 / decided as f64
        }
    }
}

/// A simulated crowd worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Worker {
    pub id: TaggerId,
    pub behavior: TaggerBehavior,
    pub stats: WorkerStats,
}

impl Worker {
    pub fn new(id: TaggerId, behavior: TaggerBehavior) -> Self {
        Worker {
            id,
            behavior,
            stats: WorkerStats::default(),
        }
    }
}

/// A pool of workers with a configurable behaviour mix.
#[derive(Debug, Clone, Default)]
pub struct WorkerPool {
    workers: Vec<Worker>,
    /// Each worker's position in `workers`, kept once ids stop being
    /// dense (`workers[i].id == i`); `None` while they are.
    sparse: Option<FxHashMap<u32, usize>>,
}

impl WorkerPool {
    /// Builds `n` workers by sampling behaviours from `mix`
    /// (`(behavior, weight)` pairs).
    ///
    /// # Panics
    /// Panics on an empty mix or all-zero weights.
    pub fn from_mix(n: usize, mix: &[(TaggerBehavior, f64)], rng: &mut StdRng) -> Self {
        assert!(!mix.is_empty(), "worker mix must not be empty");
        let total: f64 = mix.iter().map(|(_, w)| *w).sum();
        assert!(total > 0.0, "worker mix weights must not all be zero");
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let mut u = rng.gen::<f64>() * total;
            let mut behavior = mix[mix.len() - 1].0;
            for (b, w) in mix {
                if u < *w {
                    behavior = *b;
                    break;
                }
                u -= w;
            }
            workers.push(Worker::new(TaggerId(i as u32), behavior));
        }
        WorkerPool {
            workers,
            sparse: None,
        }
    }

    /// The default demo crowd: mostly casual taggers, some diligent, a few
    /// sloppy ones and a thin slice of spammers.
    pub fn demo_crowd(n: usize, rng: &mut StdRng) -> Self {
        WorkerPool::from_mix(
            n,
            &[
                (TaggerBehavior::casual(), 0.55),
                (TaggerBehavior::diligent(), 0.25),
                (TaggerBehavior::sloppy(), 0.15),
                (TaggerBehavior::spammer(), 0.05),
            ],
            rng,
        )
    }

    /// An all-honest pool (noise experiments override per-worker fields).
    pub fn uniform(n: usize, behavior: TaggerBehavior) -> Self {
        WorkerPool {
            workers: (0..n)
                .map(|i| Worker::new(TaggerId(i as u32), behavior))
                .collect(),
            sparse: None,
        }
    }

    pub fn len(&self) -> usize {
        self.workers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Adds a worker under its own id, in O(1). Ids need not be dense:
    /// the audience platform registers members on demand under their
    /// engine-wide ids, which can start anywhere, and the first id that
    /// is not the next dense one switches the pool to an id index. The
    /// id must not be in the pool yet.
    pub fn push(&mut self, worker: Worker) {
        if self.sparse.is_none() && worker.id.index() != self.workers.len() {
            let index = self.workers.iter().enumerate();
            self.sparse = Some(index.map(|(i, w)| (w.id.0, i)).collect());
        }
        if let Some(index) = &mut self.sparse {
            index.insert(worker.id.0, self.workers.len());
        }
        self.workers.push(worker);
    }

    fn position(&self, id: TaggerId) -> Option<usize> {
        match &self.sparse {
            Some(index) => index.get(&id.0).copied(),
            None => Some(id.index()),
        }
    }

    pub fn get(&self, id: TaggerId) -> Option<&Worker> {
        self.workers.get(self.position(id)?)
    }

    pub fn get_mut(&mut self, id: TaggerId) -> Option<&mut Worker> {
        let i = self.position(id)?;
        self.workers.get_mut(i)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Worker> {
        self.workers.iter()
    }

    /// Fraction of workers whose approval rate is at least `threshold` —
    /// the User Manager's "approval rate of taggers … at a reliable level".
    pub fn reliable_fraction(&self, threshold: f64) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let ok = self
            .workers
            .iter()
            .filter(|w| w.stats.approval_rate() >= threshold)
            .count();
        ok as f64 / self.workers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn approval_rate_boundaries() {
        let mut s = WorkerStats::default();
        assert_eq!(s.approval_rate(), 1.0);
        s.approved = 3;
        s.rejected = 1;
        assert!((s.approval_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mix_produces_requested_share() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool = WorkerPool::from_mix(
            2000,
            &[
                (TaggerBehavior::casual(), 0.8),
                (TaggerBehavior::spammer(), 0.2),
            ],
            &mut rng,
        );
        let spammers = pool.iter().filter(|w| w.behavior.spammer).count();
        let frac = spammers as f64 / 2000.0;
        assert!((frac - 0.2).abs() < 0.05, "spammer share {frac}");
    }

    #[test]
    fn worker_ids_are_dense() {
        let mut rng = StdRng::seed_from_u64(2);
        let pool = WorkerPool::demo_crowd(10, &mut rng);
        for (i, w) in pool.iter().enumerate() {
            assert_eq!(w.id, TaggerId(i as u32));
        }
        assert!(pool.get(TaggerId(9)).is_some());
        assert!(pool.get(TaggerId(10)).is_none());
    }

    #[test]
    fn sparse_ids_are_indexed_not_padded() {
        let mut pool = WorkerPool::uniform(2, TaggerBehavior::casual());
        pool.push(Worker::new(TaggerId(600_000), TaggerBehavior::casual()));
        pool.push(Worker::new(TaggerId(7), TaggerBehavior::casual()));
        assert_eq!(pool.len(), 4);
        for id in [0, 1, 7, 600_000] {
            assert_eq!(pool.get(TaggerId(id)).map(|w| w.id), Some(TaggerId(id)));
        }
        pool.get_mut(TaggerId(7)).unwrap().stats.approved = 1;
        assert_eq!(pool.get(TaggerId(7)).unwrap().stats.approved, 1);
        assert!(pool.get(TaggerId(2)).is_none());
        assert!(pool.get(TaggerId(599_999)).is_none());
    }

    #[test]
    fn reliable_fraction_counts_thresholds() {
        let mut pool = WorkerPool::uniform(2, TaggerBehavior::casual());
        pool.get_mut(TaggerId(0)).unwrap().stats = WorkerStats {
            submitted: 10,
            approved: 9,
            rejected: 1,
            earned_cents: 90,
        };
        pool.get_mut(TaggerId(1)).unwrap().stats = WorkerStats {
            submitted: 10,
            approved: 2,
            rejected: 8,
            earned_cents: 20,
        };
        assert!((pool.reliable_fraction(0.8) - 0.5).abs() < 1e-12);
        assert_eq!(WorkerPool::default().reliable_fraction(0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_mix_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = WorkerPool::from_mix(5, &[], &mut rng);
    }
}
