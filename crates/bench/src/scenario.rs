//! Scenario builders shared by the figure harness and the benches.

use itag_core::config::EngineConfig;
use itag_core::engine::ITagEngine;
use itag_core::project::ProjectSpec;
use itag_model::delicious::{DeliciousConfig, DeliciousDataset};
use itag_model::ids::ProjectId;
use itag_quality::metric::QualityMetric;
use itag_strategy::framework::{Framework, RunReport};
use itag_strategy::simenv::SimWorld;
use itag_strategy::StrategyKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of one strategy-comparison sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    pub resources: usize,
    pub initial_posts: usize,
    pub seed: u64,
    pub metric: QualityMetric,
    pub batch_size: usize,
    pub noise: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            resources: 1_000,
            initial_posts: 5_000,
            seed: 0xDE11,
            metric: QualityMetric::default(),
            batch_size: 10,
            noise: 0.0,
        }
    }
}

impl SweepConfig {
    /// The generated corpus for this sweep (deterministic in the seed).
    pub fn corpus(&self) -> DeliciousDataset {
        DeliciousConfig {
            resources: self.resources,
            initial_posts: self.initial_posts,
            eval_posts: 0,
            seed: self.seed,
            ..DeliciousConfig::default()
        }
        .generate()
    }
}

/// Builds a fresh simulation world from a sweep config.
pub fn sim_world(cfg: &SweepConfig) -> SimWorld {
    SimWorld::new(cfg.corpus().dataset, cfg.metric).with_noise(cfg.noise)
}

/// Runs one strategy to `budget` on a fresh world; returns the report and
/// the world (for post-hoc counters like "#resources ≥ τ").
pub fn run_strategy(cfg: &SweepConfig, kind: StrategyKind, budget: u32) -> (RunReport, SimWorld) {
    let mut world = sim_world(cfg);
    let mut strategy = kind.build();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
    let report = Framework {
        batch_size: cfg.batch_size,
        record_every: (budget / 20).max(1),
    }
    .run(&mut world, strategy.as_mut(), budget, &mut rng);
    (report, world)
}

/// Gini coefficient of an allocation vector (task concentration).
pub fn gini(counts: &[u32]) -> f64 {
    itag_model::dataset::DatasetStats::compute(counts).gini
}

/// Parameters of a many-campaign engine workload: `projects` concurrent
/// campaigns, each over its own Zipf-popular resource set (the heavy-tailed
/// shape self-organized tagging systems exhibit), all ticked through
/// [`ITagEngine::run_all_on`]. This is the scenario the parallel-tick
/// bench sweeps across thread counts.
#[derive(Debug, Clone)]
pub struct MultiCampaignConfig {
    /// Concurrent campaigns.
    pub projects: usize,
    /// Resources per campaign.
    pub resources: usize,
    /// Pre-campaign posts per campaign.
    pub initial_posts: usize,
    /// Task budget per campaign.
    pub budget: u32,
    /// Zipf exponent of resource popularity (≈1 on Delicious).
    pub popularity_exponent: f64,
    /// Simulated workers per campaign platform.
    pub workers: usize,
    /// Registered-but-inactive tagger accounts seeded into the user table
    /// before the campaigns start — the north-star shape where the
    /// registered population dwarfs any round's worker set. Inactive
    /// accounts influence no decision, and the engine's reputation ledger
    /// never tracks them: a round's cost scales with its active workers.
    pub registered_taggers: u32,
    /// Master seed; each campaign derives its own dataset seed.
    pub seed: u64,
}

impl Default for MultiCampaignConfig {
    fn default() -> Self {
        MultiCampaignConfig {
            projects: 8,
            resources: 200,
            initial_posts: 1_000,
            budget: 200,
            popularity_exponent: 1.0,
            workers: 24,
            registered_taggers: 0,
            seed: 0x5CA1E,
        }
    }
}

/// Builds an in-memory engine populated with `cfg.projects` campaigns,
/// ready for [`ITagEngine::run_all_on`]. Deterministic in `cfg.seed`.
pub fn build_multi_campaign(cfg: &MultiCampaignConfig) -> (ITagEngine, Vec<ProjectId>) {
    let mut engine_config = EngineConfig::in_memory(cfg.seed);
    engine_config.workers = cfg.workers;
    let mut engine = ITagEngine::new(engine_config).expect("in-memory engine");
    if cfg.registered_taggers > 0 {
        // Seed the inactive population well above the live worker-id
        // range so campaign workers never collide with it.
        engine
            .seed_taggers(1 << 20, cfg.registered_taggers)
            .expect("population seeding");
    }
    let provider = engine
        .register_provider("multi-campaign")
        .expect("provider registration");
    let mut projects = Vec::with_capacity(cfg.projects);
    for i in 0..cfg.projects {
        let dataset = DeliciousConfig {
            resources: cfg.resources,
            initial_posts: cfg.initial_posts,
            eval_posts: 0,
            popularity_exponent: cfg.popularity_exponent,
            seed: cfg
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
            ..DeliciousConfig::default()
        }
        .generate()
        .dataset;
        projects.push(
            engine
                .add_project(
                    provider,
                    ProjectSpec::demo(&format!("campaign-{i}"), cfg.budget),
                    dataset,
                )
                .expect("valid generated dataset"),
        );
    }
    (engine, projects)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_are_deterministic_per_config() {
        let cfg = SweepConfig {
            resources: 100,
            initial_posts: 400,
            ..SweepConfig::default()
        };
        let (a, _) = run_strategy(&cfg, StrategyKind::FewestPosts, 200);
        let (b, _) = run_strategy(&cfg, StrategyKind::FewestPosts, 200);
        assert_eq!(a.final_quality, b.final_quality);
        assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn informed_strategies_beat_fc_on_the_standard_corpus() {
        let cfg = SweepConfig {
            resources: 200,
            initial_posts: 1_000,
            ..SweepConfig::default()
        };
        let (fc, _) = run_strategy(&cfg, StrategyKind::FreeChoice, 600);
        let (fpmu, _) = run_strategy(&cfg, StrategyKind::FpMu { min_posts: 5 }, 600);
        assert!(
            fpmu.improvement() > fc.improvement(),
            "FP-MU {} vs FC {}",
            fpmu.improvement(),
            fc.improvement()
        );
    }

    #[test]
    fn gini_detects_concentration() {
        assert!(gini(&[1, 1, 1, 1]) < 0.01);
        assert!(gini(&[0, 0, 0, 100]) > 0.7);
    }

    #[test]
    fn registered_population_and_schedule_do_not_change_outcomes() {
        // The large-population scenario (registered taggers ≫ per-round
        // workers) must produce the same campaign results as the plain
        // one, on the inline and the threaded round alike — the
        // population is never signal.
        let base_cfg = MultiCampaignConfig {
            projects: 2,
            resources: 30,
            initial_posts: 120,
            budget: 40,
            workers: 8,
            ..MultiCampaignConfig::default()
        };
        let (mut base, projects) = build_multi_campaign(&base_cfg);
        let base_summaries = base.run_all_on(base_cfg.budget, 2).unwrap();
        for threads in [1usize, 2] {
            let cfg = MultiCampaignConfig {
                registered_taggers: 2_000,
                ..base_cfg.clone()
            };
            let (mut e, p) = build_multi_campaign(&cfg);
            assert_eq!(p, projects);
            let summaries = e.run_all_on(cfg.budget, threads).unwrap();
            assert_eq!(
                summaries, base_summaries,
                "population changed outcomes at {threads} threads"
            );
        }
    }

    #[test]
    fn multi_campaign_builder_is_deterministic_and_runnable() {
        let cfg = MultiCampaignConfig {
            projects: 3,
            resources: 30,
            initial_posts: 120,
            budget: 40,
            workers: 8,
            ..MultiCampaignConfig::default()
        };
        let (mut a, pa) = build_multi_campaign(&cfg);
        let (mut b, pb) = build_multi_campaign(&cfg);
        assert_eq!(pa.len(), 3);
        assert_eq!(pa, pb);
        let sa = a.run_all_on(cfg.budget, 2).unwrap();
        let sb = b.run_all_on(cfg.budget, 4).unwrap();
        assert_eq!(sa, sb, "same scenario, different thread counts");
        assert_eq!(a.store_checksum(), b.store_checksum());
    }
}
