//! Engine configuration.

use itag_crowd::approval::ApprovalPolicy;
use itag_crowd::platform::PlatformKind;
use itag_quality::metric::QualityMetric;
use std::path::PathBuf;

/// Where the engine keeps its data.
#[derive(Debug, Clone)]
pub enum StorageConfig {
    /// Ephemeral (simulations, benches).
    InMemory,
    /// Durable WAL + snapshots under `dir`.
    Durable {
        dir: PathBuf,
        durability: itag_store::Durability,
        /// Fsync cadence under `Durability::Sync` (see the store's
        /// durability contract); ignored otherwise.
        sync_policy: itag_store::SyncPolicy,
        /// Auto-checkpoint period in commits (0 = manual).
        checkpoint_every: u64,
    },
}

/// Engine-wide settings; per-project settings live in
/// [`crate::project::ProjectSpec`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Master seed; all engine randomness derives from it.
    pub seed: u64,
    /// Quality metric used by the Quality Manager.
    pub metric: QualityMetric,
    /// Resources per CHOOSERESOURCES() call.
    pub batch_size: usize,
    /// Workers staffing the simulated platform.
    pub workers: usize,
    /// Fraction of spammers mixed into the worker pool (ablation knob;
    /// the rest follow the demo-crowd mix).
    pub spammer_fraction: f64,
    /// Default platform for new projects.
    pub platform: PlatformKind,
    /// Default approval policy for new projects.
    pub approval: ApprovalPolicy,
    /// Record a quality point every this many issued tasks.
    pub record_every: u32,
    /// Safety cap on platform ticks while collecting one batch.
    pub max_ticks_per_batch: u32,
    /// When true, taggers failing the User Manager's reliability gate are
    /// banned from claiming further tasks (Section III-A: the approval
    /// rate of platform taggers is kept "at a reliable level").
    pub enforce_reliability: bool,
    /// Threads for [`crate::engine::ITagEngine::run_all`]. `0` = auto:
    /// the `ITAG_THREADS` environment variable if set, else the machine's
    /// available parallelism capped at 8. The tick is deterministic in the
    /// thread count, so this is purely a throughput knob.
    pub threads: usize,
    /// Cross-project group-commit budget for
    /// [`crate::engine::ITagEngine::run_all`]: how many projects' merge
    /// frames the merger folds into **one** WAL frame + fsync before
    /// flushing (also bounded by [`COMMIT_BATCH_MAX_BYTES`]). `Some(0)`
    /// or `Some(1)` commit one frame per project (the pre-batching
    /// schedule); `None` = auto: the `ITAG_COMMIT_BATCH` environment
    /// variable if set, else [`DEFAULT_COMMIT_BATCH`]. Stored bytes are
    /// bit-identical at every budget — a throughput knob only (fewer
    /// fsyncs per round; pinned by the determinism suite).
    pub commit_batch: Option<usize>,
    /// Storage backend.
    pub storage: StorageConfig,
}

/// Round-pipeline depth of [`crate::engine::ITagEngine::run_all`]: how
/// many staged projects may queue ahead of the merger thread before
/// staging blocks (back-pressure). Results are bit-identical at every
/// depth; [`crate::engine::ITagEngine::run_all_with`] takes an explicit
/// depth for the determinism sweep.
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;

/// Group-commit budget used when neither [`EngineConfig::commit_batch`]
/// nor `ITAG_COMMIT_BATCH` says otherwise.
pub const DEFAULT_COMMIT_BATCH: usize = 8;

/// Byte ceiling on a group-committed frame: the merger flushes early once
/// the folded ops reach this size, so a giant round can't balloon one WAL
/// frame (and its recovery replay unit) without bound.
pub const COMMIT_BATCH_MAX_BYTES: usize = 1 << 20;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            seed: 0x17A6,
            metric: QualityMetric::default(),
            batch_size: 10,
            workers: 50,
            spammer_fraction: 0.05,
            platform: PlatformKind::MTurk,
            approval: ApprovalPolicy::default(),
            record_every: 100,
            max_ticks_per_batch: 100_000,
            enforce_reliability: true,
            threads: 0,
            commit_batch: None,
            storage: StorageConfig::InMemory,
        }
    }
}

/// The engine's environment overrides, parsed **strictly** at
/// [`crate::engine::ITagEngine::new`]: a malformed value is a loud
/// configuration error naming the variable and the offending text, never
/// a silent fallback (`ITAG_THREADS=abc` used to quietly mean "auto").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvOverrides {
    /// `ITAG_THREADS`: worker threads for the parallel tick (≥ 1).
    pub threads: Option<usize>,
    /// `ITAG_COMMIT_BATCH`: cross-project group-commit budget
    /// (`0`/`1` = one frame per project).
    pub commit_batch: Option<usize>,
}

impl EnvOverrides {
    /// Reads and validates the overrides from the process environment.
    pub fn from_env() -> std::result::Result<EnvOverrides, String> {
        let var = |name: &str| std::env::var(name).ok();
        Ok(EnvOverrides {
            threads: parse_threads(var("ITAG_THREADS").as_deref())?,
            commit_batch: parse_commit_batch(var("ITAG_COMMIT_BATCH").as_deref())?,
        })
    }
}

/// Parses `ITAG_THREADS`: an integer ≥ 1, or unset. An empty (or
/// whitespace-only) value means unset — `ITAG_THREADS=` is the common
/// shell idiom for clearing a variable, not garbage.
pub fn parse_threads(raw: Option<&str>) -> std::result::Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    if raw.trim().is_empty() {
        return Ok(None);
    }
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!(
            "ITAG_THREADS={raw:?} is not a valid thread count (expected an integer >= 1)"
        )),
    }
}

/// Parses `ITAG_COMMIT_BATCH`: a group-commit budget (`0`/`1` = one
/// frame per project), or unset (empty counts as unset, matching the
/// other knobs).
pub fn parse_commit_batch(raw: Option<&str>) -> std::result::Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    if raw.trim().is_empty() {
        return Ok(None);
    }
    match raw.trim().parse::<usize>() {
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "ITAG_COMMIT_BATCH={raw:?} is not a valid group-commit budget (expected an integer; 0 or 1 disables batching)"
        )),
    }
}

/// Parses `ITAG_SNAPSHOT_READS`: a boolean switch for the server's
/// snapshot-backed dashboard reads. The knob belongs to `itag-server`,
/// but this module is the sanctioned home for `ITAG_*` environment
/// grammar (the repo lint pins env reads here and in
/// `store::envknob`), so the parser — and [`env_snapshot_reads`], the
/// one place the variable is actually read — live here.
pub fn parse_snapshot_reads(raw: Option<&str>) -> std::result::Result<Option<bool>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim() {
        "" => Ok(None),
        "1" | "true" | "on" => Ok(Some(true)),
        "0" | "false" | "off" => Ok(Some(false)),
        _ => Err(format!(
            "ITAG_SNAPSHOT_READS={raw:?} is not a valid switch (expected 0/1/true/false/on/off)"
        )),
    }
}

/// Reads and validates `ITAG_SNAPSHOT_READS` from the process
/// environment. `None` = unset (the server defaults to snapshot reads
/// on).
pub fn env_snapshot_reads() -> std::result::Result<Option<bool>, String> {
    parse_snapshot_reads(std::env::var("ITAG_SNAPSHOT_READS").ok().as_deref())
}

impl EngineConfig {
    /// In-memory config with a given seed (the common bench setup).
    pub fn in_memory(seed: u64) -> Self {
        EngineConfig {
            seed,
            ..EngineConfig::default()
        }
    }

    /// Durable config rooted at `dir` with buffered WAL writes.
    pub fn durable(seed: u64, dir: PathBuf) -> Self {
        EngineConfig {
            seed,
            storage: StorageConfig::Durable {
                dir,
                durability: itag_store::Durability::Buffered,
                sync_policy: itag_store::SyncPolicy::Always,
                checkpoint_every: 10_000,
            },
            ..EngineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.batch_size >= 1);
        assert!(c.workers >= 1);
        assert!((0.0..=1.0).contains(&c.spammer_fraction));
        assert!(matches!(c.storage, StorageConfig::InMemory));
    }

    #[test]
    fn env_parsers_accept_valid_values() {
        assert_eq!(parse_threads(None).unwrap(), None);
        assert_eq!(parse_threads(Some("1")).unwrap(), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")).unwrap(), Some(8));
        assert_eq!(parse_commit_batch(None).unwrap(), None);
        assert_eq!(parse_commit_batch(Some("0")).unwrap(), Some(0));
        assert_eq!(parse_commit_batch(Some(" 16 ")).unwrap(), Some(16));
        // `VAR=` in a shell means "cleared", not garbage — empty (or
        // whitespace) parses as unset for every knob.
        assert_eq!(parse_threads(Some("")).unwrap(), None);
        assert_eq!(parse_commit_batch(Some(" ")).unwrap(), None);
    }

    #[test]
    fn env_parsers_reject_garbage_loudly() {
        for bad in ["abc", "-1", "1.5", "8x"] {
            let err = parse_threads(Some(bad)).unwrap_err();
            assert!(
                err.contains("ITAG_THREADS") && err.contains(bad),
                "error must name the variable and the offending value: {err}"
            );
        }
        // 0 threads is as invalid as garbage.
        assert!(parse_threads(Some("0")).unwrap_err().contains("\"0\""));
        for bad in ["many", "-4", "2.5"] {
            let err = parse_commit_batch(Some(bad)).unwrap_err();
            assert!(
                err.contains("ITAG_COMMIT_BATCH") && err.contains(bad),
                "{err}"
            );
        }
    }

    #[test]
    fn durable_builder_sets_dir() {
        let c = EngineConfig::durable(1, PathBuf::from("/tmp/x"));
        match c.storage {
            StorageConfig::Durable { ref dir, .. } => assert_eq!(dir, &PathBuf::from("/tmp/x")),
            _ => panic!("expected durable"),
        }
    }
}
