//! Parallel-tick throughput: many concurrent campaigns over Zipf-popular
//! resources, ticked through `ITagEngine::run_all_with` at 1/2/4/8 threads
//! and round-pipeline depth 2 (staged projects drain through a dedicated
//! merger while later projects tick; one thread runs the round inline).
//! The determinism suite guarantees every thread count computes the same
//! result, so the sweep measures pure scheduling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use itag_bench::scenario::{build_multi_campaign, MultiCampaignConfig};
use std::hint::black_box;

fn bench_multi_campaign(c: &mut Criterion) {
    let cfg = MultiCampaignConfig::default();
    let total_tasks = cfg.projects as u32 * cfg.budget;
    let name = format!("engine/multi_campaign_{}x{}tasks", cfg.projects, cfg.budget);
    let mut group = c.benchmark_group(&name);
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("threads_{threads}_pipeline_2"), |b| {
            b.iter_batched(
                || build_multi_campaign(&cfg),
                |(mut engine, _projects)| {
                    let summaries = engine.run_all_with(cfg.budget, threads, 2).unwrap();
                    let issued: u32 = summaries.iter().map(|(_, s)| s.issued).sum();
                    assert_eq!(issued, total_tasks);
                    black_box(summaries)
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// The large-population scenario: a registered tagger population far
/// beyond the per-round worker set, the campaign budget split over
/// several rounds so per-round costs show. The reputation ledger applies
/// each round's per-worker deltas, so no per-round cost scales with the
/// registered population.
fn bench_large_population(c: &mut Criterion) {
    let rounds = 5u32;
    let cfg = MultiCampaignConfig {
        projects: 2,
        resources: 50,
        initial_posts: 250,
        budget: 50,
        workers: 12,
        registered_taggers: 20_000,
        ..MultiCampaignConfig::default()
    };
    let per_round = cfg.budget.div_ceil(rounds);
    let total_tasks = cfg.projects as u32 * cfg.budget;
    let name = format!(
        "engine/large_population_{}taggers_{}rounds",
        cfg.registered_taggers, rounds
    );
    let mut group = c.benchmark_group(&name);
    group.sample_size(10);
    group.bench_function("ledger", |b| {
        b.iter_batched(
            || build_multi_campaign(&cfg),
            |(mut engine, _projects)| {
                let mut issued = 0u32;
                for _ in 0..rounds {
                    let summaries = engine.run_all_with(per_round, 2, 2).unwrap();
                    issued += summaries.iter().map(|(_, s)| s.issued).sum::<u32>();
                }
                assert_eq!(issued, total_tasks);
                black_box(issued)
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_multi_campaign, bench_large_population);
criterion_main!(benches);
