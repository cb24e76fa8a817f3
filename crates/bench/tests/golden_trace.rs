//! Golden-trace regression test: a small pinned-seed sweep whose
//! per-round quality trajectory is committed as a fixture. Any change to
//! strategy allocation order, RNG consumption, or quality arithmetic shows
//! up as a line-level diff here instead of a silent drift in the figures.
//!
//! To re-bless after an *intentional* behaviour change:
//! `ITAG_BLESS=1 cargo test -p itag-bench --test golden_trace`

use itag_bench::scenario::{run_strategy, SweepConfig};
use itag_strategy::StrategyKind;
use std::fmt::Write as _;
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_trace.txt")
}

fn render_trace() -> String {
    let cfg = SweepConfig {
        resources: 120,
        initial_posts: 600,
        seed: 0x601D,
        ..SweepConfig::default()
    };
    let mut out = String::new();
    for kind in [
        StrategyKind::FewestPosts,
        StrategyKind::MostUnstable,
        StrategyKind::FpMu { min_posts: 5 },
    ] {
        let (report, _) = run_strategy(&cfg, kind, 300);
        for p in &report.series {
            writeln!(
                out,
                "{} {} {:.12}",
                report.strategy, p.spent, p.mean_quality
            )
            .unwrap();
        }
    }
    out
}

fn engine_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_engine_trace.txt")
}

/// Renders a small multi-campaign engine run — three rounds through
/// `run_all_with` — as one line per (round, project): spend, approvals
/// and the quality trajectory, pinned to 12 decimals.
fn render_engine_trace(pipeline_depth: usize) -> String {
    use itag_bench::scenario::{build_multi_campaign, MultiCampaignConfig};
    let cfg = MultiCampaignConfig {
        projects: 4,
        resources: 60,
        initial_posts: 240,
        budget: 120,
        workers: 12,
        ..MultiCampaignConfig::default()
    };
    let (mut engine, projects) = build_multi_campaign(&cfg);
    let mut out = String::new();
    for round in 0..3u32 {
        let summaries = engine.run_all_with(40, 4, pipeline_depth).unwrap();
        for (p, s) in &summaries {
            writeln!(
                out,
                "round {round} project {} issued {} approved {} rejected {} quality {:.12}",
                p.0, s.issued, s.approved, s.rejected, s.quality
            )
            .unwrap();
        }
    }
    let checksum = engine.store_checksum();
    for p in &projects {
        let m = engine.monitor(*p).unwrap();
        writeln!(
            out,
            "final project {} spent {} quality {:.12} checksum {checksum}",
            p.0, m.budget_spent, m.quality_mean,
        )
        .unwrap();
    }
    out
}

#[test]
fn engine_trajectory_matches_committed_fixture_at_every_pipeline_depth() {
    // The engine-side golden trace: the round pipeline (depth 1, 2 and
    // 4) must render the exact same multi-round trajectory, and that
    // trajectory is pinned as a fixture so RNG-stream or merge-order
    // regressions surface as a line diff.
    let base = render_engine_trace(1);
    for depth in [2usize, 4] {
        assert_eq!(
            base,
            render_engine_trace(depth),
            "pipeline depth {depth} diverged from depth 1"
        );
    }
    let path = engine_fixture_path();
    if std::env::var("ITAG_BLESS").is_ok() {
        std::fs::write(&path, &base).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .expect("fixture missing — run once with ITAG_BLESS=1 to create it");
    for (i, (got, want)) in base.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "engine trajectory diverges at line {} — a merge-order or RNG \
             regression (re-bless with ITAG_BLESS=1 only if intentional)",
            i + 1
        );
    }
    assert_eq!(
        base.lines().count(),
        expected.lines().count(),
        "engine trajectory length changed"
    );
}

#[test]
fn quality_trajectory_matches_committed_fixture() {
    let trace = render_trace();
    let path = fixture_path();
    if std::env::var("ITAG_BLESS").is_ok() {
        std::fs::write(&path, &trace).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .expect("fixture missing — run once with ITAG_BLESS=1 to create it");
    for (i, (got, want)) in trace.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "trajectory diverges at line {} — a strategy-order or RNG regression \
             (re-bless with ITAG_BLESS=1 only if the change is intentional)",
            i + 1
        );
    }
    assert_eq!(
        trace.lines().count(),
        expected.lines().count(),
        "trajectory length changed"
    );
}

#[test]
fn trace_is_reproducible_within_a_process() {
    assert_eq!(render_trace(), render_trace());
}
