//! The fixed metric catalogue. Every run reports every metric of its
//! mode, so the lists live here rather than in the workloads; a per-layer
//! figure a workload does not exercise (a verb it never sends) reads 0.

/// Verbs whose wire, codec and residual figures are reported.
pub const VERBS: [&str; 10] = [
    "RunRound",
    "Monitor",
    "MonitorTable",
    "BrowseProjects",
    "ExportCsv",
    "RegisterTagger",
    "PullTasks",
    "SubmitPost",
    "Reputation",
    "Collect",
];

/// Verbs whose in-process engine time is reported.
pub const ENGINE_VERBS: [&str; 6] = [
    "RegisterTagger",
    "PullTasks",
    "SubmitPost",
    "Reputation",
    "Collect",
    "BrowseProjects",
];

/// Span names whose median self time is reported.
pub const SPAN_LAYERS: [&str; 7] = [
    "session",
    "connect",
    "request",
    "replay",
    "codec.request",
    "engine",
    "codec.response",
];

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("server.connect_us.p50".into(), "us");
    add("server.connect_us.p99".into(), "us");
    add("server.ping_us.p50".into(), "us");
    for v in VERBS {
        add(format!("server.wire_us.{v}.p50"), "us");
        add(format!("server.codec_us.{v}"), "us");
        add(format!("server.resp_bytes.{v}"), "bytes");
    }
    add("server.snapshot_hit_ratio".into(), "ratio");
    add("server.shed".into(), "count");
    add("server.framing_errors".into(), "count");
    add("engine.round_us.p50".into(), "us");
    add("engine.round_us.p99".into(), "us");
    for v in ENGINE_VERBS {
        add(format!("engine.verb_us.{v}.p50"), "us");
    }
    add("snapshot.capture_us.p50".into(), "us");
    add("snapshot.capture_us.p99".into(), "us");
    add("snapshot.monitor_us".into(), "us");
    add("snapshot.table_us".into(), "us");
    add("snapshot.browse_us".into(), "us");
    add("snapshot.export_us".into(), "us");
    add("store.read_snapshot_us".into(), "us");
    add("store.durability_us_per_round".into(), "us");
    add("store.fsync_commit_us".into(), "us");
    for c in [
        "commits",
        "wal_syncs",
        "group_commits",
        "ops",
        "gets",
        "scans",
    ] {
        add(format!("store.{c}_per_round"), "count");
    }
    add("store.commits_per_session".into(), "count");
    add("store.gets_per_session".into(), "count");
    add("store.cache_hit_ratio".into(), "ratio");
    add("store.peer_cache_hit_ratio".into(), "ratio");
    add("store.wal_bytes_per_task".into(), "bytes");
    add("store.recovered_entries".into(), "count");
    add("setup.dataset_gen_ms".into(), "ms");
    add("setup.create_project_ms".into(), "ms");
    add("setup.seed_taggers_s".into(), "s");
    add("trace.overhead_frac".into(), "ratio");
    for v in VERBS {
        add(format!("trace.residual_frac.{v}"), "frac");
    }
    for l in SPAN_LAYERS {
        add(format!("trace.self_us.{l}"), "us");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_fits_the_benchmark_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = layers.iter().map(|(n, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
