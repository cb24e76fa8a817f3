//! The host descriptor printed next to every figure, and the small
//! process/filesystem probes the workloads need.

use std::path::Path;
use std::time::Instant;

use itag_store::txn::WriteBatch;
use itag_store::{Durability, Store, StoreOptions, SyncPolicy, TableId};

pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    pub tmp_fs: String,
    /// Median of single-op strict-sync `Store::commit`s on a scratch store
    /// in the benchmark's temp directory.
    pub fsync_commit_us: f64,
}

impl Host {
    pub fn probe(tmp: &Path) -> std::io::Result<Host> {
        Ok(Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            tmp_fs: fs_type(tmp).unwrap_or_else(|| "unknown".into()),
            fsync_commit_us: fsync_commit_us(&tmp.join("fsync-probe"))?,
        })
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} kernel={} tmp_fs={} store.fsync_commit_us={:.1}",
            self.nproc, self.kernel, self.tmp_fs, self.fsync_commit_us
        )
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let mut halves = line.split(" - ");
        let (left, right) = (halves.next()?, halves.next()?);
        let mount = left.split_whitespace().nth(4)?;
        let fstype = right.split_whitespace().next()?;
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

fn fsync_commit_us(dir: &Path) -> std::io::Result<f64> {
    const COMMITS: usize = 41;
    std::fs::create_dir_all(dir)?;
    let store = Store::open(
        dir,
        StoreOptions {
            durability: Durability::Sync,
            sync_policy: SyncPolicy::Always,
            ..StoreOptions::default()
        },
    )
    .map_err(|e| std::io::Error::other(e.to_string()))?;
    let mut us = Vec::with_capacity(COMMITS);
    for i in 0..COMMITS as u64 {
        let mut batch = WriteBatch::new();
        batch.put(TableId(1), i.to_be_bytes().to_vec(), vec![0u8; 64]);
        let t = Instant::now();
        store
            .commit(batch)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(store);
    std::fs::remove_dir_all(dir)?;
    Ok(crate::stats::median(&us))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
