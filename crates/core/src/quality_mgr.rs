//! Quality Manager — "receives the budget together with other resource
//! information, creates a Project, … executes the best strategy to
//! allocate resources to taggers" and "constantly provide feedback to
//! the provider" (Section III-A).
//!
//! The per-project *live* quality state lives here: rfd histories, cached
//! qualities, learning-curve gain estimators. The engine consults it for
//! every strategy decision; the durable per-resource quality snapshot is
//! the `quality` column of [`crate::records::ResourceRecord`] (staged by
//! the Resource Manager together with the post count, so both commit
//! atomically in one record per resource per round).

use crate::shared::PagedVec;
use itag_model::dataset::Dataset;
use itag_model::ids::{ResourceId, TagId};
use itag_quality::gain::GainEstimator;
use itag_quality::history::ResourceQuality;
use itag_quality::metric::QualityMetric;
use itag_quality::rfd::Rfd;
use itag_strategy::StrategyKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Marks an [`ProjectQuality`] oracle memo entry as needing evaluation
/// (a NaN payload `eval` never returns).
const STALE: u64 = u64::MAX;

/// Live quality state of one project.
pub struct ProjectQuality {
    pub metric: QualityMetric,
    pub states: Vec<ResourceQuality>,
    pub qualities: Vec<f64>,
    pub counts: Vec<u32>,
    quality_sum: f64,
    pub gains: GainEstimator,
    /// A copy of each resource's rfd that snapshot captures share
    /// page-wise instead of re-deriving it from the post log.
    pub rfds: PagedVec<Rfd>,
    /// Each resource's oracle quality as `f64` bits, [`STALE`] once a
    /// post moved it: [`ProjectQuality::oracle_mean_quality`] re-evaluates
    /// only those. Every dashboard capture reports the oracle mean,
    /// captures far outnumber posts on tagger traffic, and one evaluation
    /// walks a resource's tag distribution.
    oracle: Vec<AtomicU64>,
}

impl ProjectQuality {
    /// Builds state from a dataset, replaying its initial posts.
    pub fn from_dataset(dataset: &Dataset, metric: QualityMetric) -> Self {
        let n = dataset.len();
        let max_lag = match metric {
            QualityMetric::Stability { window, .. }
            | QualityMetric::SmoothedStability { window, .. } => window.max(1) as usize,
            QualityMetric::Oracle => 1,
        };
        let mut states: Vec<ResourceQuality> =
            (0..n).map(|_| ResourceQuality::new(max_lag)).collect();
        for post in &dataset.initial_posts {
            states[post.resource.index()].push_post(&post.tags);
        }
        let counts: Vec<u32> = states.iter().map(|s| s.posts()).collect();
        let qualities: Vec<f64> = states
            .iter()
            .enumerate()
            .map(|(i, s)| metric.eval(s, Some(&dataset.latent[i])))
            .collect();
        let quality_sum = qualities.iter().sum();
        let mut pq = ProjectQuality {
            metric,
            rfds: states.iter().map(|s| s.rfd().clone()).collect(),
            states,
            qualities,
            counts,
            quality_sum,
            gains: GainEstimator::oracle(&dataset.latent),
            oracle: (0..n).map(|_| AtomicU64::new(STALE)).collect(),
        };
        for i in 0..n {
            let q = pq.qualities[i];
            pq.states[i].record(q);
        }
        pq
    }

    /// Folds one approved post into resource `r`; returns the new quality.
    pub fn apply_post(&mut self, dataset: &Dataset, r: ResourceId, tags: &[TagId]) -> f64 {
        let i = r.index();
        self.states[i].push_post(tags);
        if let Some(rfd) = self.rfds.make_mut(i) {
            rfd.add_tags(tags);
        }
        self.counts[i] += 1;
        let q = self.metric.eval(&self.states[i], Some(&dataset.latent[i]));
        self.quality_sum += q - self.qualities[i];
        self.qualities[i] = q;
        self.states[i].record(q);
        *self.oracle[i].get_mut() = STALE;
        q
    }

    /// Dataset quality `q(R, k⃗)`.
    pub fn mean_quality(&self) -> f64 {
        if self.qualities.is_empty() {
            0.0
        } else {
            self.quality_sum / self.qualities.len() as f64
        }
    }

    /// Ground-truth quality under the oracle metric. `dataset` must be
    /// the one this state was built from: each resource's value is
    /// computed once and reused until a post moves it.
    pub fn oracle_mean_quality(&self, dataset: &Dataset) -> f64 {
        let n = self.states.len().max(1) as f64;
        let values = self.states.iter().zip(&self.oracle).enumerate();
        let sum: f64 = values
            .map(|(i, (s, memo))| {
                let mut bits = memo.load(Ordering::Relaxed);
                if bits == STALE {
                    bits = QualityMetric::Oracle
                        .eval(s, Some(&dataset.latent[i]))
                        .to_bits();
                    memo.store(bits, Ordering::Relaxed);
                }
                f64::from_bits(bits)
            })
            .sum();
        sum / n
    }

    /// Resources with quality at or above `tau`.
    pub fn count_quality_at_least(&self, tau: f64) -> usize {
        self.qualities.iter().filter(|&&q| q >= tau).count()
    }

    /// Resources with fewer than `t` posts.
    pub fn count_below_posts(&self, t: u32) -> usize {
        self.counts.iter().filter(|&&c| c < t).count()
    }
}

/// Advice around [`ProjectQuality`] (persistence moved onto the resource
/// rows — see the module docs).
pub struct QualityManager;

impl QualityManager {
    /// "We will help providers choose the best strategy given the current
    /// resources and tags statistics": the suggestion heuristic.
    ///
    /// * Many untagged/thin resources → the FP phase matters → FP-MU.
    /// * Coverage fine but rfds unsettled → MU.
    /// * Already stable everywhere → FC (no point steering; harvest
    ///   preferences, as Table I's FC "pro" says).
    pub fn suggest_strategy(pq: &ProjectQuality, window: u32) -> StrategyKind {
        let n = pq.counts.len().max(1);
        let thin = pq.count_below_posts(window) as f64 / n as f64;
        if thin > 0.10 {
            return StrategyKind::FpMu { min_posts: window };
        }
        let unstable = pq.qualities.iter().filter(|&&q| q < 0.8).count() as f64 / n as f64;
        if unstable > 0.05 {
            StrategyKind::MostUnstable
        } else {
            StrategyKind::FreeChoice
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itag_model::delicious::DeliciousConfig;

    fn dataset() -> Dataset {
        DeliciousConfig::tiny(31).generate().dataset
    }

    #[test]
    fn state_builds_from_initial_posts() {
        let d = dataset();
        let expected = d.initial_counts();
        let pq = ProjectQuality::from_dataset(&d, QualityMetric::default());
        assert_eq!(pq.counts, expected);
        let mean = pq.mean_quality();
        assert!((0.0..=1.0).contains(&mean));
    }

    #[test]
    fn apply_post_moves_the_cached_mean_consistently() {
        let d = dataset();
        let mut pq = ProjectQuality::from_dataset(&d, QualityMetric::default());
        let r = ResourceId(0);
        let tags: Vec<TagId> = d.latent[0].top_k(2).to_vec();
        pq.apply_post(&d, r, &tags);
        assert_eq!(pq.counts[0], d.initial_counts()[0] + 1);
        let recomputed: f64 = pq.qualities.iter().sum::<f64>() / pq.qualities.len() as f64;
        assert!((pq.mean_quality() - recomputed).abs() < 1e-12);
    }

    #[test]
    fn oracle_mean_is_recomputed_after_a_post() {
        let d = dataset();
        let tags: Vec<TagId> = d.latent[0].top_k(2).to_vec();
        let mut memoized = ProjectQuality::from_dataset(&d, QualityMetric::default());
        let before = memoized.oracle_mean_quality(&d);
        memoized.apply_post(&d, ResourceId(0), &tags);
        let mut fresh = ProjectQuality::from_dataset(&d, QualityMetric::default());
        fresh.apply_post(&d, ResourceId(0), &tags);
        let after = fresh.oracle_mean_quality(&d);
        assert_ne!(before.to_bits(), after.to_bits(), "the post moved nothing");
        assert_eq!(memoized.oracle_mean_quality(&d).to_bits(), after.to_bits());
    }

    #[test]
    fn suggestion_tracks_dataset_shape() {
        let d = dataset();
        let pq = ProjectQuality::from_dataset(&d, QualityMetric::default());
        // The tiny Delicious corpus has a thin tail → hybrid suggested.
        assert_eq!(
            QualityManager::suggest_strategy(&pq, 5),
            StrategyKind::FpMu { min_posts: 5 }
        );

        // Saturate every resource with identical posts → stable → FC.
        let mut pq = ProjectQuality::from_dataset(&d, QualityMetric::default());
        for i in 0..d.len() {
            let tags: Vec<TagId> = d.latent[i].top_k(2).to_vec();
            for _ in 0..12 {
                pq.apply_post(&d, ResourceId(i as u32), &tags);
            }
        }
        assert_eq!(
            QualityManager::suggest_strategy(&pq, 5),
            StrategyKind::FreeChoice
        );
    }

    #[test]
    fn threshold_counters() {
        let d = dataset();
        let pq = ProjectQuality::from_dataset(&d, QualityMetric::default());
        assert_eq!(pq.count_quality_at_least(0.0), d.len());
        assert_eq!(pq.count_quality_at_least(1.1), 0);
        assert!(pq.count_below_posts(u32::MAX) == d.len());
    }
}
