//! The [`Store`]: sharded ordered key/value tables + group-commit WAL +
//! snapshots + a typed entity cache.
//!
//! Concurrency model: the memtable set is **hash-partitioned into N
//! shards**, each behind its own `parking_lot::RwLock`, so readers on
//! different shards never contend. Durability is a **single group-commit
//! WAL**: concurrent `commit` calls enqueue their batches under a small
//! mutex, one caller becomes the group leader, appends every queued frame
//! with one flush/fsync, applies the group to the shards in LSN order, and
//! wakes the followers. With one writer the path degenerates to the classic
//! per-commit WAL append; under contention the fsync cost is amortised
//! across the whole group.
//!
//! Consistency: a committed batch is applied while holding the write locks
//! of every shard it touches, so point reads and scans never observe half a
//! batch. Single-table queries (scans, `count`, `last_key`) lock only the
//! shards that can hold the table's keys (tracked by a per-table presence
//! mask), not the whole shard set. Reads return [`bytes::Bytes`] so
//! monitors copy nothing; memtable keys are [`Bytes`] too, so scans hand
//! keys back without re-copying them.
//!
//! ## WAL frames and applies
//!
//! A [`WriteBatch`] is already its WAL encoding: one body holding every
//! op as serbin encodes it, plus per-op headers (see the [`crate::txn`]
//! module docs). The group leader writes each frame as
//! `varint(lsn) ++ varint(op count) ++ body`, checksummed over those
//! pieces ([`wal::Wal::append_parts`]), so committing copies the body
//! once, into the WAL's buffer, and the frame is byte-identical to
//! `serbin(WalEntry { lsn, ops })`. Applying a put allocates the pair's
//! one stored buffer and copies key and value into it from the body; the
//! body is freed whole afterwards. Recovery decodes each frame into the
//! same headers over the frame's bytes and applies it the same way.
//!
//! ## Durability contract ([`Durability`] × [`SyncPolicy`])
//!
//! * [`Durability::InMemory`] — no files; nothing survives the process.
//! * [`Durability::Buffered`] — every commit group is `write(2)`-flushed to
//!   the OS before the commit returns: a process crash loses nothing, a
//!   power failure may lose any suffix of the log.
//! * [`Durability::Sync`] — fsync cadence is set by [`SyncPolicy`]:
//!   * [`SyncPolicy::Always`] — one fsync per commit group. A commit that
//!     returned `Ok` is durable against power failure.
//!   * [`SyncPolicy::EveryN`]`(n)` — flush per group, fsync once at least
//!     every `n` commits. Power failure loses at most the last `n - 1`
//!     commits; a process crash still loses nothing.
//!   * [`SyncPolicy::Batched`] — adaptive group fsync: after appending its
//!     group, the leader checks the commit queue **under the commit
//!     mutex** — atomically with enqueues. Writers queued behind it will
//!     form the next group, so the fsync is deferred to that group's
//!     leader; an empty queue means this group is the last of the burst
//!     and is fsynced now. A quiescent store is therefore always fully
//!     fsynced (`StoreStats::wal_unsynced_commits == 0` once every commit
//!     has returned — regression-tested); power failure mid-burst may
//!     lose the most recent groups of that burst. Process crash loses
//!     nothing.
//!
//!   Every policy fsyncs on [`Store::sync`], on checkpoints, and before a
//!   snapshot replaces WAL frames, so recovery invariants (prefix
//!   semantics, torn-tail truncation) are identical across policies.
//!
//! ## Retryable vs. fatal errors
//!
//! When a commit fails, the caller's next move depends on the
//! [`StoreError`] variant (see [`StoreError::is_retryable`]):
//!
//! * **Retryable** — `Io` (a filesystem fault: `ENOSPC`, `EIO`, ...) and
//!   `Broken` (the store poisoned itself after a group-commit I/O
//!   failure, because the WAL and memtables can no longer be trusted to
//!   agree). The durable prefix on disk is intact: **reopening the store
//!   re-runs recovery and heals it**, after which the failed operation
//!   may be retried. Serving layers degrade to read-only on these
//!   instead of dying (reads never need the WAL).
//! * **Fatal** — `Corrupt` (on-disk bytes failed an integrity check
//!   somewhere recovery cannot truncate away), `Codec`, `Conflict`,
//!   `NotFound`, `NotDurable`: retrying the same operation fails the
//!   same way; these need operator or caller intervention.
//!
//! The fault-torture suite (`tests/fault_torture.rs`) pins the healing
//! claim: for every storage fault site, an injected failure surfaces as
//! a typed error, and the reopened store's contents are byte-identical
//! to a fault-free twin that stopped at the same durable point.
//!
//! ## Entity cache
//!
//! The typed layer ([`crate::table::TypedTable`]) decodes records out of
//! the stored bytes. To keep tight read-modify-write loops from paying a
//! decode per `get`, the store carries a **per-shard decoded-entity
//! cache**: `(table, key) → (stored bytes, Arc<decoded>)`. A cached entry
//! is valid only while the memtable still holds the *same* `Bytes` view
//! (same data pointer and length — the slot keeps the old buffer alive,
//! so a match is proof nothing was overwritten). Committed puts staged via
//! [`crate::txn::WriteBatch::put_cached`] write through into the cache
//! under the same shard write lock that applies them; plain puts and
//! deletes invalidate, including a plain write later in the same batch
//! as the write-through that first made its table cache-bearing. The
//! cache therefore never changes results, only
//! skips decodes — `StoreOptions::entity_cache = false` turns it off
//! wholesale, and that cache-off decode is the reference the store's
//! differential test (`tests/cache_equiv.rs`) holds the cache to.

use crate::codec::FxHasher;
use crate::cow::{self, CowMap};
use crate::error::{Result, StoreError};
use crate::txn::{decode_frame, CachedEntity, OpHead, WriteBatch};
use crate::{snapshot, wal, TableId};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// How hard the store tries to make each commit durable. See the module
/// docs for the full durability contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Pure in-memory operation; no files at all. Used by simulations and
    /// benches where the dataset is regenerated per run.
    InMemory,
    /// WAL appends are flushed to the OS per commit group but not fsynced;
    /// a process crash loses nothing, a power failure may lose the tail.
    Buffered,
    /// WAL appends are fsynced per the configured [`SyncPolicy`].
    Sync,
}

/// Fsync cadence under [`Durability::Sync`]. See the module docs for the
/// durability contract of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// One fsync per commit group (the strongest setting, and the
    /// pre-policy behaviour of `Durability::Sync`).
    Always,
    /// Fsync once at least every `n` commits (`0` and `1` behave like
    /// [`SyncPolicy::Always`]); flush-only groups in between.
    EveryN(u64),
    /// Adaptive group fsync: sync when the commit queue drains, flush while
    /// more writers are already queued.
    Batched,
}

/// Default number of hash partitions (see [`StoreOptions::shards`]).
pub const DEFAULT_SHARDS: usize = 8;

/// Default per-(table, shard) entity-cache capacity, in entries.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// Tuning knobs for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    pub durability: Durability,
    /// Fsync cadence when `durability` is [`Durability::Sync`]; ignored
    /// otherwise.
    pub sync_policy: SyncPolicy,
    /// Auto-checkpoint after this many committed batches (0 = manual only).
    pub checkpoint_every: u64,
    /// Number of hash-partitioned memtable shards (min 1). The on-disk
    /// format is shard-agnostic: a database written with one shard count
    /// reopens fine under another.
    pub shards: usize,
    /// Enables the decoded-entity cache (see module docs).
    pub entity_cache: bool,
    /// Entity-cache entries per (table, shard) before the slab is dropped
    /// and allowed to refill.
    pub entity_cache_capacity: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            durability: Durability::Buffered,
            sync_policy: SyncPolicy::Always,
            checkpoint_every: 0,
            shards: DEFAULT_SHARDS,
            entity_cache: true,
            entity_cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// Monotonic operation counters (cheap, lock-free reads).
#[derive(Debug, Default)]
struct Counters {
    gets: AtomicU64,
    scans: AtomicU64,
    commits: AtomicU64,
    ops_applied: AtomicU64,
    checkpoints: AtomicU64,
    group_commits: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    wal_syncs: AtomicU64,
    snapshot_captures: AtomicU64,
    cow_pairs_copied: AtomicU64,
}

/// A point-in-time view of store activity and size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    pub gets: u64,
    pub scans: u64,
    pub commits: u64,
    pub ops_applied: u64,
    pub checkpoints: u64,
    /// WAL write groups formed (== commits when writers never contend).
    pub group_commits: u64,
    /// Entity-cache lookups resolved without a decode.
    pub cache_hits: u64,
    /// Entity-cache lookups that had to decode (cold or invalidated key).
    pub cache_misses: u64,
    /// WAL fsyncs performed (policy-driven, [`Store::sync`], checkpoints).
    pub wal_syncs: u64,
    /// Commits appended to the WAL since the last fsync. The
    /// [`SyncPolicy::Batched`] contract says a quiescent store is fully
    /// fsynced — i.e. this must read 0 once every commit has returned.
    pub wal_unsynced_commits: u64,
    /// MVCC read snapshots captured ([`Store::read_snapshot`]).
    pub snapshot_captures: u64,
    /// Handles copied by memtable copy-on-write: a write to a table that
    /// a live snapshot still shares copies that table's page directory
    /// (one handle per page) and the one page it touches (one handle per
    /// pair). Stays 0 while no snapshot is alive (see the `cow` module).
    pub cow_pairs_copied: u64,
    /// LSN of the last batch applied to the memtables (0 on a fresh
    /// store; recovery resumes it from the replayed WAL).
    pub epoch: u64,
    pub tables: usize,
    pub keys: usize,
    /// Number of memtable shards.
    pub shards: usize,
    /// Entries replayed from the WAL during the last open.
    pub recovered_entries: u64,
    /// True if the last open had to drop a torn WAL tail.
    pub recovered_torn_tail: bool,
}

/// One logical table's ordered pairs in one shard: a page-shared
/// [`CowMap`], so an MVCC snapshot ([`Store::read_snapshot`]) shares every
/// table it captured for one refcount bump. A write copies nothing while
/// no snapshot holds the table; under a live snapshot it copies the
/// table's page directory (≈ `len / PAGE` handles) and the one page it
/// touches (≤ [`cow::PAGE`] pairs), never the rest of the table.
pub(crate) type TableMap = CowMap;

/// One table set partition: `table → (key → value)`. Keys are [`Bytes`] so
/// scans can return them without copying.
pub(crate) type Memtable = BTreeMap<TableId, TableMap>;

/// One decoded-entity cache partition: `table → key → slot`.
struct CacheSlot {
    /// The exact stored view this decode came from. The same data
    /// pointer and length as the live memtable value prove the slot is
    /// current (the slot keeps the buffer alive, so the address cannot be
    /// reused while the entry exists).
    value: Bytes,
    decoded: CachedEntity,
}
type CacheShard = crate::codec::FxHashMap<TableId, crate::codec::FxHashMap<Bytes, CacheSlot>>;

/// A batch waiting in the group-commit queue. Its body is the WAL frame's
/// payload after the `varint(lsn) ++ varint(op count)` prefix (see the
/// `txn` module docs); the leader takes it when it applies the group.
struct Pending {
    lsn: u64,
    batch: WriteBatch,
}

/// Shared commit ordering state, guarded by `Store::commit_mu`.
struct CommitState {
    next_lsn: u64,
    /// Every entry with `lsn <= applied_lsn` is in the memtables (and, on a
    /// durable store, flushed per the durability level).
    applied_lsn: u64,
    queue: VecDeque<Pending>,
    leader_active: bool,
    /// A manual checkpoint is quiescing: new batches hold off enqueueing so
    /// the in-flight work can drain (bounds the checkpoint's wait).
    checkpoint_waiting: bool,
    /// Set on an unrecoverable WAL I/O failure; all later commits fail.
    broken: Option<String>,
}

/// WAL + recovery bookkeeping, guarded by `Store::log_mu`. Only the group
/// leader (or a quiesced checkpoint) holds this lock.
struct LogState {
    wal: Option<wal::Wal>,
    dir: Option<PathBuf>,
    commits_since_checkpoint: u64,
    /// Commits flushed but not yet fsynced (drives [`SyncPolicy::EveryN`]).
    commits_since_sync: u64,
    /// Commits appended since the last fsync, under any policy (feeds
    /// `StoreStats::wal_unsynced_commits`; the Batched regression tests
    /// assert it drains to 0 whenever the store quiesces).
    unsynced_commits: u64,
    recovered_entries: u64,
    recovered_torn_tail: bool,
}

/// The storage engine. See module docs.
pub struct Store {
    shards: Vec<RwLock<Memtable>>,
    /// Decoded-entity cache, partitioned like `shards` (same router).
    cache: Vec<RwLock<CacheShard>>,
    cache_enabled: bool,
    cache_capacity: usize,
    /// Tables that ever held a cache entry (grows monotonically). Lets
    /// `apply_batch` skip cache invalidation entirely for write-only
    /// tables (post logs, index rows) with one lookup per batch instead
    /// of a cache-shard lock per op.
    cached_tables: RwLock<crate::codec::FxHashSet<TableId>>,
    /// Per-table shard-presence bitmask: bit `s` set ⇔ shard `s` may hold
    /// keys of the table. Grows monotonically; set *before* a batch takes
    /// its write locks so single-table readers can lock just these shards.
    /// Unused (queries fall back to locking everything) when the shard
    /// count exceeds the mask width.
    presence: RwLock<crate::codec::FxHashMap<TableId, u128>>,
    commit_mu: Mutex<CommitState>,
    commit_cv: Condvar,
    log_mu: Mutex<LogState>,
    /// Serializes read-modify-write cycles ([`Store::rmw_guard`]): holders
    /// know no *other guard holder's* write can interleave between their
    /// read and their commit.
    rmw_mu: parking_lot::Mutex<()>,
    /// LSN of the last batch applied to the memtables, published while the
    /// applying batch's shard write locks are still held. A reader that
    /// holds **all** shard read locks ([`Store::read_snapshot`]) therefore
    /// observes exactly the epoch whose batches its view contains; the
    /// lock-free [`Store::epoch`] accessor is a staleness probe only.
    epoch: AtomicU64,
    opts: StoreOptions,
    counters: Counters,
}

/// Declares the store's reviewed lock-order exemptions and
/// held-across-fsync allowances to the shim's acquisition tracker, once
/// per process (every store constructor funnels through
/// [`Store::assemble`]). This list is the lockcheck analogue of the
/// lint's waiver budget: every entry documents an intentional pattern,
/// and anything *not* listed that trips the tracker is a real bug.
fn register_lockcheck_policy() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        use parking_lot::lockcheck;
        // `SyncPolicy::Batched`: the group leader peeks at the commit
        // queue while holding `log_mu`, inverting the usual
        // `commit_mu → log_mu` order (manual checkpoints take `log_mu`
        // under `commit_mu`). Deadlock-free by state machine: a
        // checkpoint only takes `log_mu` under `commit_mu` after
        // observing `leader_active == false` while continuously holding
        // `commit_mu`, and the queue peek runs only on the active leader
        // — the two critical sections cannot overlap.
        lockcheck::allow_edge(
            "store.log_mu",
            "store.commit_mu",
            "batched-fsync queue peek; checkpoint waits for leader_active == false \
             under commit_mu before touching log_mu",
        );
        // The WAL fsync sites that run with locks held, all by design:
        lockcheck::allow_held_across_fsync(
            "store.log_mu",
            "the group leader serializes all WAL I/O (including fsync) under the log mutex",
        );
        lockcheck::allow_held_across_fsync(
            "store.commit_mu",
            "a manual checkpoint quiesces committers and holds the commit mutex across \
             its snapshot cut, including the WAL sync that seals it",
        );
        lockcheck::allow_held_across_fsync(
            "store.rmw_mu",
            "TypedTable::update holds the read-modify-write guard across its commit, \
             which may fsync; that is the guard's entire purpose",
        );
    });
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("db.wal")
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("db.snp")
}

/// Shard router: FxHash of `(table, key)`, avalanched, mod shard count.
/// FxHash alone leaves the low bits to the first bytes of each 8-byte
/// word, so every big-endian `u64` key of a table (post ids, say) would
/// land in one shard; the finalizer spreads them.
///
/// The low 4 bits of the key's last byte are left out, so runs of 16
/// consecutive big-endian ids share a shard: a merged scan
/// ([`MergedTableIter`]) reads each run from one shard with one key
/// comparison per pair, while the runs still spread over every shard.
///
/// Nothing on disk depends on the router: the WAL, checkpoints and
/// [`Store::content_checksum`] see keys in merged key order, so a
/// database reopens identically under any router or shard count.
pub(crate) fn route(shards: usize, table: TableId, key: &[u8]) -> usize {
    if shards == 1 {
        return 0;
    }
    let mut h = FxHasher::default();
    h.write_u16(table.0);
    if let Some((last, head)) = key.split_last() {
        h.write(head);
        h.write_u8(last & 0xF0);
    }
    (avalanche(h.finish()) % shards as u64) as usize
}

/// MurmurHash3's 64-bit finalizer: every input bit affects every output
/// bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// One stored pair as two views of a single buffer (`key ++ value`): one
/// allocation per pair, freed once the pair, every snapshot sharing it
/// and its entity-cache slot let go. Key and value are copied into it
/// straight from the batch body or WAL frame they were read from.
fn pair(key: &[u8], value: &[u8]) -> (Bytes, Bytes) {
    let mut key_view = Bytes::concat(key, value);
    let value_view = key_view.split_off(key.len());
    (key_view, value_view)
}

/// One empty memtable per shard.
fn empty_parts(shards: usize) -> Vec<Memtable> {
    (0..shards.max(1)).map(|_| Memtable::new()).collect()
}

/// Inserts one pair into its shard's map (recovery, before the shards
/// are locked). Pairs arriving in key order per table take the map's
/// append path.
fn put_routed(parts: &mut [Memtable], table: TableId, key: &[u8], value: &[u8]) {
    let s = route(parts.len(), table, key);
    if let Some(part) = parts.get_mut(s) {
        let (key, value) = pair(key, value);
        part.entry(table).or_default().insert(key, value);
    }
}

/// What the group leader reports back: the WAL-append + memtable-apply
/// verdict (a failure here poisons the store — log and memory can no
/// longer be trusted to agree) and, separately, the auto-checkpoint
/// verdict (a failure here is transient and surfaced only to the leader;
/// the group itself is durable and applied).
struct LeadOutcome {
    wal_apply: Result<()>,
    checkpoint: Result<()>,
}

/// Union of table ids across a set of shard guards, ascending.
fn tables_union(guards: &[RwLockReadGuard<'_, Memtable>]) -> BTreeSet<TableId> {
    tables_union_of(guards.iter().map(|g| &**g))
}

/// Union of table ids across any set of memtable parts, ascending.
pub(crate) fn tables_union_of<'g>(parts: impl Iterator<Item = &'g Memtable>) -> BTreeSet<TableId> {
    let mut ids = BTreeSet::new();
    for p in parts {
        ids.extend(p.keys().copied());
    }
    ids
}

/// Streams one table's pairs from a set of shard guards in ascending key
/// order — a k-way merge over the per-shard ordered maps, so nothing is
/// materialized (each shard holds disjoint keys, so ties cannot occur).
/// Heads carry their keys' inline prefixes ([`cow::Range::next_prefixed`]),
/// so comparing two heads dereferences their keys only on a prefix tie.
/// After a full comparison the winning shard keeps emitting, one
/// comparison per pair, while it stays below the runner-up head: the
/// router keeps runs of consecutive ids in one shard (see [`route`]).
pub(crate) struct MergedTableIter<'g> {
    iters: Vec<cow::Range<'g>>,
    heads: Vec<Option<cow::Prefixed<'g>>>,
    /// The last full comparison's winner and the runner-up key it may
    /// emit up to (`None`: no other shard has pairs left).
    run: Option<(usize, Option<(u64, &'g Bytes)>)>,
}

/// `a < b` in key order, for `(prefix, key)` pairs.
fn key_lt(a: (u64, &Bytes), b: (u64, &Bytes)) -> bool {
    a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)).is_lt()
}

impl<'g> Iterator for MergedTableIter<'g> {
    type Item = (&'g Bytes, &'g Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        let in_run = self.run.filter(|&(i, bound)| {
            let head = self.heads.get(i).copied().flatten();
            head.is_some_and(|(p, k, _)| bound.is_none_or(|b| key_lt((p, k), b)))
        });
        let i = match in_run {
            Some((i, _)) => i,
            None => {
                // Full comparison: the smallest head and the runner-up.
                let mut best: Option<(usize, u64, &'g Bytes)> = None;
                let mut second: Option<(u64, &'g Bytes)> = None;
                for (i, head) in self.heads.iter().enumerate() {
                    let Some((p, k, _)) = *head else { continue };
                    match best {
                        Some((_, bp, bk)) if key_lt((bp, bk), (p, k)) => {
                            if second.is_none_or(|s| key_lt((p, k), s)) {
                                second = Some((p, k));
                            }
                        }
                        _ => {
                            second = best.map(|(_, bp, bk)| (bp, bk));
                            best = Some((i, p, k));
                        }
                    }
                }
                let (i, ..) = best?;
                self.run = Some((i, second));
                i
            }
        };
        let item = self.heads[i].take();
        self.heads[i] = self.iters[i].next_prefixed();
        item.map(|(_, k, v)| (k, v))
    }
}

/// Merged in-order view of `table` over any set of memtable parts,
/// bounded to `[from, to)` (`to = None` means unbounded). Shared by the
/// guard-holding live-store readers and the lock-free snapshot readers
/// ([`crate::mvcc::StoreSnapshot`]) so both paths answer identically.
pub(crate) fn merged_parts<'g>(
    parts: impl Iterator<Item = &'g Memtable>,
    table: TableId,
    from: &[u8],
    to: Option<&[u8]>,
) -> MergedTableIter<'g> {
    let mut iters: Vec<cow::Range<'g>> = parts
        .filter_map(|p| p.get(&table))
        .map(|t| t.range(from, to))
        .collect();
    let heads = iters.iter_mut().map(|it| it.next_prefixed()).collect();
    MergedTableIter {
        iters,
        heads,
        run: None,
    }
}

/// Merged in-order view of `table` over `guards`, bounded to
/// `[from, to)` (`to = None` means unbounded).
fn merged_range<'g>(
    guards: &'g [RwLockReadGuard<'_, Memtable>],
    table: TableId,
    from: &[u8],
    to: Option<&[u8]>,
) -> MergedTableIter<'g> {
    merged_parts(guards.iter().map(|g| &**g), table, from, to)
}

impl Store {
    /// An ephemeral store with no durability (no files are touched).
    pub fn in_memory() -> Self {
        Store::in_memory_sharded(DEFAULT_SHARDS)
    }

    /// An ephemeral store with an explicit shard count (tests and benches
    /// that sweep partitioning).
    pub fn in_memory_sharded(shards: usize) -> Self {
        Store::in_memory_with(StoreOptions {
            durability: Durability::InMemory,
            shards,
            ..StoreOptions::default()
        })
    }

    /// An ephemeral store with full control over the options (the
    /// durability level is forced to [`Durability::InMemory`]).
    pub fn in_memory_with(opts: StoreOptions) -> Self {
        Store::assemble(
            StoreOptions {
                durability: Durability::InMemory,
                checkpoint_every: 0,
                ..opts
            },
            empty_parts(opts.shards),
            None,
            None,
            0,
            0,
            false,
        )
    }

    /// Opens (or creates) a durable store in `dir`, running recovery:
    /// load the snapshot if present, then replay WAL entries past it.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Self> {
        if opts.durability == Durability::InMemory {
            return Ok(Store::in_memory_with(opts));
        }
        // Arm any `ITAG_FAULTS` plan before recovery runs, so the
        // `recovery.scan` site can fault the very first open too.
        crate::faults::init_env();
        std::fs::create_dir_all(dir)?;

        // Every pair goes straight into its shard's map, copied once out
        // of the snapshot file's bytes; a checkpoint lists each table in
        // key order, so every shard map is loaded by appends.
        let mut parts = empty_parts(opts.shards);
        let mut table = TableId(0);
        let snap = snapshot::read_with(&snapshot_path(dir), |item| match item {
            snapshot::Item::Table(t) => table = t,
            snapshot::Item::Pair(k, v) => put_routed(&mut parts, table, k, v),
        })?;
        let mut last_lsn = snap.unwrap_or(0);

        let scan = wal::scan(&wal_path(dir))?;
        let mut recovered = 0u64;
        for frame in &scan.frames {
            let (lsn, heads) = decode_frame(frame)?;
            if lsn <= last_lsn {
                continue; // already folded into the snapshot
            }
            last_lsn = lsn;
            apply_ops(&mut parts, frame, &heads);
            recovered += 1;
        }

        let wal = wal::Wal::open_for_append(&wal_path(dir), scan.valid_len).or_else(|_| {
            // No WAL yet (fresh dir): create one.
            wal::Wal::create(&wal_path(dir))
        })?;

        Ok(Store::assemble(
            opts,
            parts,
            Some(wal),
            Some(dir.to_path_buf()),
            last_lsn,
            recovered,
            scan.truncated_tail,
        ))
    }

    /// Builds the store around its already-routed shard contents
    /// (`parts`, one memtable per shard, as [`empty_parts`] makes them).
    fn assemble(
        opts: StoreOptions,
        parts: Vec<Memtable>,
        wal: Option<wal::Wal>,
        dir: Option<PathBuf>,
        last_lsn: u64,
        recovered_entries: u64,
        recovered_torn_tail: bool,
    ) -> Self {
        let n = parts.len();
        let mut presence: crate::codec::FxHashMap<TableId, u128> = Default::default();
        if n <= 128 {
            for (s, part) in parts.iter().enumerate() {
                for (table, map) in part {
                    if map.len() > 0 {
                        *presence.entry(*table).or_insert(0) |= 1u128 << s;
                    }
                }
            }
        }
        let cache_enabled = opts.entity_cache;
        register_lockcheck_policy();
        crate::faults::init_env();
        Store {
            shards: parts
                .into_iter()
                .enumerate()
                .map(|(i, m)| RwLock::named(&format!("store.shard[{i}]"), m))
                .collect(),
            cache: (0..n)
                .map(|i| RwLock::named(&format!("store.cache[{i}]"), CacheShard::default()))
                .collect(),
            cache_enabled,
            cache_capacity: opts.entity_cache_capacity.max(1),
            cached_tables: RwLock::named("store.cached_tables", Default::default()),
            presence: RwLock::named("store.presence", presence),
            commit_mu: Mutex::named(
                "store.commit_mu",
                CommitState {
                    next_lsn: last_lsn + 1,
                    applied_lsn: last_lsn,
                    queue: VecDeque::new(),
                    leader_active: false,
                    checkpoint_waiting: false,
                    broken: None,
                },
            ),
            commit_cv: Condvar::new(),
            log_mu: Mutex::named(
                "store.log_mu",
                LogState {
                    wal,
                    dir,
                    commits_since_checkpoint: 0,
                    commits_since_sync: 0,
                    unsynced_commits: 0,
                    recovered_entries,
                    recovered_torn_tail,
                },
            ),
            rmw_mu: parking_lot::Mutex::named("store.rmw_mu", ()),
            epoch: AtomicU64::new(last_lsn),
            opts,
            counters: Counters::default(),
        }
    }

    /// Guard for a read-modify-write cycle: while held, no other
    /// `rmw_guard` holder can interleave a write between this caller's
    /// read and commit ([`crate::table::TypedTable::update`] takes it).
    /// Raw `commit` callers are not excluded — full isolation would need
    /// transactions, which the store does not have.
    pub fn rmw_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.rmw_mu.lock()
    }

    fn shard_of(&self, table: TableId, key: &[u8]) -> usize {
        route(self.shards.len(), table, key)
    }

    /// Read-locks every shard at once (index order), giving multi-table
    /// readers (checksums, stats, checkpoints) a batch-atomic view: the
    /// group leader applies each batch while holding the write locks of
    /// all shards that batch touches.
    fn lock_all(&self) -> Vec<RwLockReadGuard<'_, Memtable>> {
        self.shards.iter().map(|s| s.read()).collect()
    }

    /// The presence mask of `table` (shards that may hold its keys).
    fn table_mask(&self, table: TableId) -> u128 {
        self.presence.read().get(&table).copied().unwrap_or(0)
    }

    /// Read-locks only the shards that can hold keys of `table`, in index
    /// order. The mask is re-checked after acquisition: writers set
    /// presence bits *before* taking their write locks, so if the mask is
    /// unchanged the guard set covers every committed (and in-flight) key
    /// of the table and the view is still batch-atomic. Falls back to
    /// locking everything when the shard count exceeds the mask width.
    // lint: allow(panic-path)
    fn lock_table_shards(&self, table: TableId) -> Vec<RwLockReadGuard<'_, Memtable>> {
        let n = self.shards.len();
        if n == 1 {
            return vec![self.shards[0].read()];
        }
        if n > 128 {
            return self.lock_all();
        }
        loop {
            let mask = self.table_mask(table);
            if mask == 0 {
                // Presence is raised before a batch locks its shards, so a
                // zero mask means no key of this table is committed yet and
                // an empty view is a correct linearization (before any
                // in-flight first batch). The re-check mirrors the non-zero
                // arm's discipline: it narrows — but cannot close — the
                // window in which a reader answers "empty" concurrently
                // with a first-ever batch, at the cost of one map lookup.
                // (Bits never clear, so a table whose rows were all deleted
                // keeps its mask and takes the non-zero arm; the
                // `presence_answers_stay_correct_*` regression test pins
                // those delete paths.)
                if self.table_mask(table) == 0 {
                    return Vec::new();
                }
                continue;
            }
            let guards: Vec<_> = (0..n)
                .filter(|s| mask >> s & 1 == 1)
                .map(|s| self.shards[s].read())
                .collect();
            if self.table_mask(table) == mask {
                return guards;
            }
            // A batch spilled the table onto a new shard while we were
            // locking; retry so we cannot observe half of it.
            drop(guards);
        }
    }

    /// Raises presence bits for every `(table, shard)` a batch touches.
    /// Called before the batch's write locks are taken — see
    /// [`Store::lock_table_shards`]. `routes[i]` is op `i`'s shard,
    /// precomputed by the caller (each key is hashed exactly once per
    /// apply).
    fn note_presence(&self, heads: &[OpHead], routes: &[usize]) {
        let n = self.shards.len();
        if n == 1 || n > 128 {
            return;
        }
        // A batch names few tables, mostly in runs: a short list, checked
        // at its last entry first, beats hashing every op.
        let mut needed: Vec<(TableId, u128)> = Vec::new();
        for (head, &s) in heads.iter().zip(routes) {
            if head.value.is_none() {
                continue;
            }
            let bit = 1u128 << s;
            match needed.iter_mut().rev().find(|(t, _)| *t == head.table) {
                Some((_, bits)) => *bits |= bit,
                None => needed.push((head.table, bit)),
            }
        }
        {
            let p = self.presence.read();
            if needed
                .iter()
                .all(|(t, bits)| p.get(t).is_some_and(|have| have & bits == *bits))
            {
                return; // steady state: no new bits
            }
        }
        let mut p = self.presence.write();
        for (t, bits) in needed {
            *p.entry(t).or_insert(0) |= bits;
        }
    }

    /// Commits a batch atomically: one WAL frame, then apply to memtables.
    ///
    /// Concurrent callers are batched: one becomes the group leader and
    /// writes every queued frame with a single flush/fsync.
    pub fn commit(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // A stored pair is two views of one buffer, each addressed by
        // `u32` offsets (see `bytes::Bytes`); refuse what cannot be held
        // before anything is logged.
        if let Some(len) = batch.heads.iter().find_map(|h| {
            let value = h.value.as_ref()?;
            Some(h.key.len() + value.len()).filter(|&len| u32::try_from(len).is_err())
        }) {
            return Err(StoreError::Codec(format!(
                "a {len}-byte key and value exceed the {}-byte pair limit",
                u32::MAX
            )));
        }

        let mut state = self.commit_mu.lock();
        // Hold off while a manual checkpoint is quiescing so its wait is
        // bounded; queued work keeps draining below regardless.
        while state.checkpoint_waiting {
            self.commit_cv.wait(&mut state);
        }
        if let Some(msg) = &state.broken {
            return Err(StoreError::Broken(msg.clone()));
        }
        let lsn = state.next_lsn;
        state.next_lsn += 1;
        state.queue.push_back(Pending { lsn, batch });

        loop {
            // `applied_lsn` is checked before `broken`: a batch that made
            // it into an earlier, successful group really is durable and
            // applied, even if a *later* group has since broken the store.
            if state.applied_lsn >= lsn {
                return Ok(());
            }
            if let Some(msg) = &state.broken {
                return Err(StoreError::Broken(msg.clone()));
            }
            if state.leader_active {
                self.commit_cv.wait(&mut state);
                continue;
            }
            // Become the group leader: drain the queue, do the I/O and the
            // memtable applies without holding the commit mutex, then report
            // back and wake the followers.
            state.leader_active = true;
            let mut group: Vec<Pending> = state.queue.drain(..).collect();
            drop(state);

            let group_last_lsn = group.last().map(|p| p.lsn);
            // If the leader panics mid-group (an apply bug unwinding out
            // of `lead_group`), the followers must not wait forever on
            // `leader_active`: this guard breaks the store and wakes
            // everyone before the panic leaves `commit`. The
            // `group_commit_leader_death` schedule-explorer model in
            // `crowd` checks exactly this protocol.
            struct LeaderAbort<'a> {
                store: &'a Store,
                armed: bool,
            }
            impl Drop for LeaderAbort<'_> {
                fn drop(&mut self) {
                    if !self.armed {
                        return;
                    }
                    let mut state = self.store.commit_mu.lock();
                    state.leader_active = false;
                    state.broken = Some(
                        "group-commit leader panicked mid-group; \
                         log and memtables may disagree"
                            .into(),
                    );
                    self.store.commit_cv.notify_all();
                }
            }
            let mut abort = LeaderAbort {
                store: self,
                armed: true,
            };
            let outcome = self.lead_group(&mut group);
            abort.armed = false;

            state = self.commit_mu.lock();
            state.leader_active = false;
            match outcome.wal_apply {
                Ok(()) => {
                    if let Some(last) = group_last_lsn {
                        state.applied_lsn = state.applied_lsn.max(last);
                    }
                }
                Err(e) => {
                    // A WAL write failed mid-group; the log can no longer
                    // be trusted to match the memtables, so fail this
                    // group (applied_lsn is NOT advanced past it) and
                    // every later commit loudly instead of diverging
                    // silently. The leader reports the root cause (e.g.
                    // the `Io` fault itself); followers and later commits
                    // see `StoreError::Broken` until the store is
                    // reopened.
                    state.broken = Some(format!("group commit failed: {e}"));
                    drop(state);
                    self.commit_cv.notify_all();
                    return Err(e);
                }
            }
            self.commit_cv.notify_all();
            // The group is durable and applied even if the piggybacked
            // auto-checkpoint failed; surface such a failure to the leader
            // alone (matching the pre-sharding behaviour, where the commit
            // that tripped the threshold reported the error) and let the
            // next qualifying group retry it.
            outcome.checkpoint?;
        }
    }

    /// Group-leader work: append + flush/fsync all frames per the sync
    /// policy, apply in LSN order, bump counters, maybe auto-checkpoint.
    /// Consumes each pending batch (see [`Store::apply_batch`]).
    // lint: allow(panic-path)
    fn lead_group(&self, group: &mut [Pending]) -> LeadOutcome {
        let mut log = self.log_mu.lock();
        let wal_apply = (|| -> Result<()> {
            let LogState {
                wal,
                commits_since_sync,
                unsynced_commits,
                ..
            } = &mut *log;
            if let Some(w) = wal.as_mut() {
                // Each frame is `varint(lsn) ++ varint(op count) ++ body`,
                // checksummed and written in those pieces: the body is
                // never copied into a joined payload.
                let mut prefix = Vec::with_capacity(20);
                for p in group.iter() {
                    prefix.clear();
                    crate::codec::write_uvarint(&mut prefix, p.lsn);
                    crate::codec::write_uvarint(&mut prefix, p.batch.len() as u64);
                    w.append_parts(&[&prefix, &p.batch.body])?;
                }
                *unsynced_commits += group.len() as u64;
                let fsync = |w: &mut wal::Wal,
                             commits_since_sync: &mut u64,
                             unsynced_commits: &mut u64|
                 -> Result<()> {
                    w.sync()?;
                    *commits_since_sync = 0;
                    *unsynced_commits = 0;
                    self.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                };
                match self.opts.durability {
                    Durability::Sync => match self.opts.sync_policy {
                        SyncPolicy::Always => fsync(w, commits_since_sync, unsynced_commits)?,
                        SyncPolicy::EveryN(n) => {
                            *commits_since_sync += group.len() as u64;
                            if n <= 1 || *commits_since_sync >= n {
                                fsync(w, commits_since_sync, unsynced_commits)?;
                            } else {
                                w.flush()?;
                            }
                        }
                        SyncPolicy::Batched => {
                            // Derive the decision from the commit queue
                            // itself, read under the commit mutex — i.e.
                            // atomically with enqueues. The old lock-free
                            // depth hint was written at drain time and
                            // read here without any ordering against the
                            // enqueues it was supposed to count, so the
                            // leader could act on a count that never
                            // corresponded to the queue state. Now: if
                            // writers are queued behind this group they
                            // *will* form the next group (they hold real
                            // queue entries), and that group's leader
                            // repeats this check — the last group of any
                            // burst always observes an empty queue and
                            // fsyncs, which is what keeps the "a
                            // quiescent store is fully fsynced" contract
                            // airtight. (Lock order is safe: a checkpoint
                            // only takes `log_mu` under `commit_mu` after
                            // observing `leader_active == false`, and we
                            // are the active leader.)
                            let followers_queued = !self.commit_mu.lock().queue.is_empty();
                            if followers_queued {
                                w.flush()?;
                            } else {
                                fsync(w, commits_since_sync, unsynced_commits)?;
                            }
                        }
                    },
                    Durability::Buffered => w.flush()?,
                    Durability::InMemory => unreachable!("in-memory store has no WAL"),
                }
            }
            Ok(())
        })();
        if wal_apply.is_err() {
            return LeadOutcome {
                wal_apply,
                checkpoint: Ok(()),
            };
        }
        let mut ops_total = 0u64;
        for p in group.iter_mut() {
            let batch = std::mem::take(&mut p.batch);
            ops_total += batch.len() as u64;
            self.apply_batch(p.lsn, batch);
        }
        self.counters
            .commits
            .fetch_add(group.len() as u64, Ordering::Relaxed);
        self.counters
            .ops_applied
            .fetch_add(ops_total, Ordering::Relaxed);
        self.counters.group_commits.fetch_add(1, Ordering::Relaxed);

        let mut checkpoint = Ok(());
        if log.wal.is_some() && self.opts.checkpoint_every > 0 {
            log.commits_since_checkpoint += group.len() as u64;
            if log.commits_since_checkpoint >= self.opts.checkpoint_every {
                let last = group.last().map(|p| p.lsn).unwrap_or(0);
                checkpoint = self.checkpoint_locked(&mut log, last);
            }
        }
        LeadOutcome {
            wal_apply,
            checkpoint,
        }
    }

    /// Applies one batch while holding the write locks of every shard it
    /// touches, so concurrent readers see all of the batch or none of it.
    /// Each put is stored as one buffer holding its key and value (see
    /// [`pair`]), copied out of the batch body: one allocation per pair,
    /// and nothing freed per op (the body goes in one free).
    /// Write-through hints install decoded entities into the cache under
    /// the same locks; unhinted puts and deletes invalidate. A hinted put
    /// makes its table cache-bearing for the rest of the batch too, so a
    /// later unhinted write of the same key drops the slot it installed.
    /// The batch's LSN is published as the store epoch before the write
    /// locks drop, so an all-shards reader sees epoch and contents move
    /// together.
    // lint: allow(panic-path)
    fn apply_batch(&self, lsn: u64, batch: WriteBatch) {
        let n = self.shards.len();
        let WriteBatch { body, heads, hints } = batch;
        // Hash every key exactly once; the presence update, the lock set
        // and the apply loop all reuse these routes.
        let routes: Vec<usize> = heads
            .iter()
            .map(|h| route(n, h.table, body.get(h.key.clone()).unwrap_or_default()))
            .collect();
        self.note_presence(&heads, &routes);
        let mut guards: Vec<Option<RwLockWriteGuard<'_, Memtable>>> =
            (0..n).map(|_| None).collect();
        if n <= 128 {
            let mut touched = 0u128;
            for &s in &routes {
                touched |= 1u128 << s;
            }
            for (s, guard) in guards.iter_mut().enumerate() {
                if touched >> s & 1 == 1 {
                    *guard = Some(self.shards[s].write());
                }
            }
        } else {
            let mut touched: Vec<usize> = routes.clone();
            touched.sort_unstable();
            touched.dedup();
            for &s in &touched {
                guards[s] = Some(self.shards[s].write());
            }
        }
        // One lookup per batch decides which tables need cache
        // maintenance at all; write-only tables (post logs, index rows)
        // then skip the cache-shard locks entirely.
        let mut cache_tables: Vec<TableId> = if self.cache_enabled {
            self.cached_tables.read().iter().copied().collect()
        } else {
            Vec::new()
        };
        let mut hints = hints.into_iter().peekable();
        let mut copied = 0;
        for (idx, (head, &s)) in heads.iter().zip(routes.iter()).enumerate() {
            let hint = match hints.peek() {
                Some((h, _)) if *h as usize == idx => hints.next().map(|(_, d)| d),
                _ => None,
            };
            // Ranges come from staging or from `decode_frame`, both of
            // which bound them by the body.
            let Some((key, value)) = head.parts(&body) else {
                continue;
            };
            let table = head.table;
            // The guard set is computed from the same `routes` this loop
            // indexes with, so the slot is always populated; an error
            // path here has no caller to surface to (the batch is already
            // in the WAL).
            // lint: allow(store-unwrap)
            let shard = guards[s].as_mut().expect("touched shard is locked");
            match value {
                Some(value) => {
                    let (key, value) = pair(key, value);
                    if self.cache_enabled {
                        if hint.is_some() && !cache_tables.contains(&table) {
                            cache_tables.push(table);
                        }
                        if cache_tables.contains(&table) {
                            self.cache_apply(s, table, &key, &value, hint);
                        }
                    }
                    copied += shard.entry(table).or_default().insert(key, value);
                }
                None => {
                    if self.cache_enabled && cache_tables.contains(&table) {
                        self.cache_remove(s, table, key);
                    }
                    if let Some(t) = shard.get_mut(&table) {
                        copied += t.remove(key);
                    }
                }
            }
        }
        if copied > 0 {
            self.counters
                .cow_pairs_copied
                .fetch_add(copied as u64, Ordering::Relaxed);
        }
        // Publish the new epoch while the touched shards are still
        // write-locked: a capture holding every shard read lock can then
        // never observe this batch's data without its epoch or vice versa.
        // Applies are serialized (single group leader), so the store is
        // monotonic even though only the touched shards are locked here.
        self.epoch.store(lsn, Ordering::Release);
    }

    /// Registers `table` as cache-bearing (cheap read-check fast path).
    fn note_cached_table(&self, table: TableId) {
        if !self.cached_tables.read().contains(&table) {
            self.cached_tables.write().insert(table);
        }
    }

    /// Cache side of applying one put (shard write lock already held, so
    /// readers of the shard cannot interleave). `key` and `value` are the
    /// memtable's own handles: a hinted put stores them, so the slot
    /// shares the pair's buffer instead of copying the key. The slot is
    /// replaced whole, key included, so it never holds an overwritten
    /// pair's buffer alive.
    // lint: allow(panic-path)
    fn cache_apply(
        &self,
        shard: usize,
        table: TableId,
        key: &Bytes,
        value: &Bytes,
        hint: Option<CachedEntity>,
    ) {
        let Some(decoded) = hint else {
            self.cache_remove(shard, table, key);
            return;
        };
        self.note_cached_table(table);
        let mut cshard = self.cache[shard].write();
        let m = cshard.entry(table).or_default();
        if m.remove(&key[..]).is_none() && m.len() >= self.cache_capacity {
            m.clear();
        }
        m.insert(
            key.clone(),
            CacheSlot {
                value: value.clone(),
                decoded,
            },
        );
    }

    /// Drops any cached decode of `key` (an unhinted put or a delete).
    /// Takes the cheap read-check first — most tables are never cached.
    // lint: allow(panic-path)
    fn cache_remove(&self, shard: usize, table: TableId, key: &[u8]) {
        let stale = self.cache[shard]
            .read()
            .get(&table)
            .is_some_and(|m| m.contains_key(key));
        if stale {
            if let Some(m) = self.cache[shard].write().get_mut(&table) {
                m.remove(key);
            }
        }
    }

    /// True when the decoded-entity cache is active.
    pub fn entity_cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Looks up the decoded entity cached for `(table, key)`, valid only
    /// if `bytes` is the exact stored buffer the decode came from. Counts
    /// a hit or miss either way (callers decode on `None`).
    // lint: allow(panic-path)
    pub fn cache_lookup(&self, table: TableId, key: &[u8], bytes: &Bytes) -> Option<CachedEntity> {
        if !self.cache_enabled {
            return None;
        }
        let shard = self.shard_of(table, key);
        // The slot is current iff it views exactly the stored bytes: the
        // same start and the same length (a pair's key and value share one
        // buffer, so a start alone names a buffer position, not a view).
        // Empty views are never treated as cache-valid (no real entity
        // encodes to zero bytes).
        let hit = self.cache[shard].read().get(&table).and_then(|m| {
            m.get(key).and_then(|slot| {
                (!bytes.is_empty()
                    && slot.value.as_ptr() == bytes.as_ptr()
                    && slot.value.len() == bytes.len())
                .then(|| CachedEntity::clone(&slot.decoded))
            })
        });
        match hit {
            Some(_) => self.counters.cache_hits.fetch_add(1, Ordering::Relaxed),
            None => self.counters.cache_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// True when the entity cache holds a slot for `(table, key)`, current
    /// or not. A slot that outlives an overwrite of its key pins the old
    /// buffer until the key is next read; tests use this to see that none
    /// does.
    pub fn cache_holds(&self, table: TableId, key: &[u8]) -> bool {
        self.cache
            .get(self.shard_of(table, key))
            .is_some_and(|c| c.read().get(&table).is_some_and(|m| m.contains_key(key)))
    }

    /// Installs a read-through decode for `(table, key)`. `bytes` must be
    /// the stored buffer the decode came from.
    // lint: allow(panic-path)
    pub fn cache_store(&self, table: TableId, key: &[u8], bytes: Bytes, decoded: CachedEntity) {
        if !self.cache_enabled {
            return;
        }
        self.note_cached_table(table);
        let shard = self.shard_of(table, key);
        let mut cshard = self.cache[shard].write();
        let m = cshard.entry(table).or_default();
        if m.len() >= self.cache_capacity {
            m.clear();
        }
        m.insert(
            Bytes::copy_from_slice(key),
            CacheSlot {
                value: bytes,
                decoded,
            },
        );
    }

    /// Single-key put (a one-op batch).
    pub fn put(&self, table: TableId, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        let mut b = WriteBatch::with_capacity(1);
        b.put(table, key, value);
        self.commit(b)
    }

    /// Single-key delete (a one-op batch).
    pub fn delete(&self, table: TableId, key: Vec<u8>) -> Result<()> {
        let mut b = WriteBatch::with_capacity(1);
        b.delete(table, key);
        self.commit(b)
    }

    /// Point lookup. The returned [`Bytes`] is a zero-copy handle.
    // lint: allow(panic-path)
    pub fn get(&self, table: TableId, key: &[u8]) -> Result<Option<Bytes>> {
        self.counters.gets.fetch_add(1, Ordering::Relaxed);
        let shard = self.shards[self.shard_of(table, key)].read();
        Ok(shard.get(&table).and_then(|t| t.get(key)).cloned())
    }

    /// True if `key` exists in `table`.
    pub fn contains(&self, table: TableId, key: &[u8]) -> bool {
        let shard = self.shards[self.shard_of(table, key)].read();
        shard
            .get(&table)
            .map(|t| t.contains_key(key))
            .unwrap_or(false)
    }

    /// All pairs whose key starts with `prefix`, in key order. Keys and
    /// values are zero-copy handles onto the stored buffers.
    pub fn scan_prefix(&self, table: TableId, prefix: &[u8]) -> Vec<(Bytes, Bytes)> {
        self.counters.scans.fetch_add(1, Ordering::Relaxed);
        let guards = self.lock_table_shards(table);
        merged_range(&guards, table, prefix, None)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Pairs in `[from, to)` (`to = None` means unbounded), in key order.
    /// Keys and values are zero-copy handles onto the stored buffers.
    pub fn scan_range(
        &self,
        table: TableId,
        from: &[u8],
        to: Option<&[u8]>,
    ) -> Vec<(Bytes, Bytes)> {
        self.counters.scans.fetch_add(1, Ordering::Relaxed);
        let guards = self.lock_table_shards(table);
        merged_range(&guards, table, from, to)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Every pair in `table`, in key order.
    pub fn scan_all(&self, table: TableId) -> Vec<(Bytes, Bytes)> {
        self.scan_range(table, &[], None)
    }

    /// Streams the pairs of `table` in `[from, to)` through `f` in key
    /// order, without materializing the result set. `f` returns whether to
    /// keep going. The table's shards stay read-locked for the duration,
    /// so the view is batch-atomic — keep callbacks short.
    pub fn for_each_range<F>(&self, table: TableId, from: &[u8], to: Option<&[u8]>, mut f: F)
    where
        F: FnMut(&Bytes, &Bytes) -> bool,
    {
        self.counters.scans.fetch_add(1, Ordering::Relaxed);
        let guards = self.lock_table_shards(table);
        for (k, v) in merged_range(&guards, table, from, to) {
            if !f(k, v) {
                break;
            }
        }
    }

    /// Number of keys in `table`. Locks only the table's shards.
    pub fn count(&self, table: TableId) -> usize {
        let guards = self.lock_table_shards(table);
        guards
            .iter()
            .filter_map(|g| g.get(&table))
            .map(|t| t.len())
            .sum()
    }

    /// The largest key in `table` (used to resume id counters on reopen).
    /// Locks only the table's shards.
    pub fn last_key(&self, table: TableId) -> Option<Bytes> {
        let guards = self.lock_table_shards(table);
        guards
            .iter()
            .filter_map(|g| g.get(&table))
            .filter_map(|t| t.last_key())
            .max()
            .cloned()
    }

    /// Ids of every table that has ever been written, ascending.
    pub fn table_ids(&self) -> Vec<TableId> {
        let guards = self.lock_all();
        tables_union(&guards).into_iter().collect()
    }

    /// Order-independent digest of the full logical contents (every table,
    /// every pair, in key order). Shard-count invariant; used by the
    /// determinism tests to compare stores byte-for-byte.
    pub fn content_checksum(&self) -> u64 {
        let guards = self.lock_all();
        let mut h = FxHasher::default();
        for table in tables_union(&guards) {
            h.write_u16(table.0);
            for (k, v) in merged_range(&guards, table, &[], None) {
                h.write_usize(k.len());
                h.write(k);
                h.write_usize(v.len());
                h.write(v);
            }
        }
        h.finish()
    }

    /// Writes a snapshot of every table and starts a fresh WAL.
    pub fn checkpoint(&self) -> Result<()> {
        if self.opts.durability == Durability::InMemory {
            return Err(StoreError::NotDurable);
        }
        // Quiesce: raise the checkpoint flag so new batches hold off
        // enqueueing (bounding this wait even under sustained traffic),
        // then wait for the in-flight work to drain. Holding the commit
        // mutex afterwards keeps enqueues blocked for the duration of the
        // checkpoint, so the snapshot is a clean LSN cut.
        let mut state = self.commit_mu.lock();
        while state.checkpoint_waiting {
            self.commit_cv.wait(&mut state); // serialize checkpointers
        }
        state.checkpoint_waiting = true;
        while state.leader_active || !state.queue.is_empty() {
            self.commit_cv.wait(&mut state);
        }
        let last = state.applied_lsn;
        let result = {
            let mut log = self.log_mu.lock();
            self.checkpoint_locked(&mut log, last)
        };
        state.checkpoint_waiting = false;
        self.commit_cv.notify_all();
        result
    }

    /// Streams every shard's tables straight into the snapshot writer —
    /// no intermediate clone of the memtable contents. Readers stay
    /// unblocked (shards are only read-locked); writers are already
    /// quiesced by the caller (manual checkpoint) or are the group leader
    /// itself (auto-checkpoint).
    fn checkpoint_locked(&self, log: &mut LogState, last_lsn: u64) -> Result<()> {
        let dir = log.dir.clone().ok_or(StoreError::NotDurable)?;
        // Make sure every WAL frame covered by the snapshot is on disk
        // before the snapshot replaces them.
        if let Some(w) = log.wal.as_mut() {
            w.sync()?;
            self.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
        }
        {
            let guards = self.lock_all();
            let tables = tables_union(&guards);
            let mut writer = snapshot::SnapshotWriter::create(
                &snapshot_path(&dir),
                last_lsn,
                tables.len() as u64,
            )?;
            for table in tables {
                let entries: u64 = guards
                    .iter()
                    .filter_map(|g| g.get(&table))
                    .map(|t| t.len() as u64)
                    .sum();
                writer.begin_table(table, entries)?;
                for (k, v) in merged_range(&guards, table, &[], None) {
                    writer.entry(k, v)?;
                }
            }
            writer.finish()?;
        }
        log.wal = Some(wal::Wal::create(&wal_path(&dir))?);
        log.commits_since_checkpoint = 0;
        log.commits_since_sync = 0;
        log.unsynced_commits = 0;
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes and fsyncs the WAL regardless of the durability level.
    pub fn sync(&self) -> Result<()> {
        let mut log = self.log_mu.lock();
        if let Some(w) = log.wal.as_mut() {
            w.sync()?;
            self.counters.wal_syncs.fetch_add(1, Ordering::Relaxed);
        }
        log.commits_since_sync = 0;
        log.unsynced_commits = 0;
        Ok(())
    }

    /// Activity and size counters.
    pub fn stats(&self) -> StoreStats {
        let (tables, keys) = {
            let guards = self.lock_all();
            let keys = guards
                .iter()
                .map(|g| g.values().map(|t| t.len()).sum::<usize>())
                .sum();
            (tables_union(&guards).len(), keys)
        };
        let (recovered_entries, recovered_torn_tail, wal_unsynced_commits) = {
            let log = self.log_mu.lock();
            (
                log.recovered_entries,
                log.recovered_torn_tail,
                log.unsynced_commits,
            )
        };
        StoreStats {
            gets: self.counters.gets.load(Ordering::Relaxed),
            scans: self.counters.scans.load(Ordering::Relaxed),
            commits: self.counters.commits.load(Ordering::Relaxed),
            ops_applied: self.counters.ops_applied.load(Ordering::Relaxed),
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed),
            group_commits: self.counters.group_commits.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            wal_syncs: self.counters.wal_syncs.load(Ordering::Relaxed),
            wal_unsynced_commits,
            snapshot_captures: self.counters.snapshot_captures.load(Ordering::Relaxed),
            cow_pairs_copied: self.counters.cow_pairs_copied.load(Ordering::Relaxed),
            epoch: self.epoch(),
            tables,
            keys,
            shards: self.shards.len(),
            recovered_entries,
            recovered_torn_tail,
        }
    }

    /// LSN of the last batch applied to the memtables, read without any
    /// lock. Monotonic; equal to the epoch a [`Store::read_snapshot`]
    /// call would capture *at some point* during this call — use it as a
    /// cheap staleness probe ("has anything committed since my snapshot's
    /// epoch?"), not as a fence.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Captures a point-in-time read snapshot of every table.
    ///
    /// Cost: all shard read locks are held just long enough to clone each
    /// shard's *table directory* — `O(shards × tables)` refcount bumps,
    /// never the pairs themselves. Copy-on-write is page-grained: a later
    /// commit that touches a captured table copies that table's page
    /// directory and the one page it writes (see the `cow` module). The
    /// capture linearizes against the group leader's applies, so the returned
    /// view contains exactly the batches `1..=epoch` and nothing else,
    /// byte-identical to a quiesced store at that LSN. Once this method
    /// returns, the snapshot never blocks writers — it holds no lock,
    /// only shared table references.
    pub fn read_snapshot(&self) -> crate::mvcc::StoreSnapshot {
        let guards = self.lock_all();
        let epoch = self.epoch.load(Ordering::Acquire);
        let shards: Vec<Memtable> = guards.iter().map(|g| (**g).clone()).collect();
        drop(guards);
        self.counters
            .snapshot_captures
            .fetch_add(1, Ordering::Relaxed);
        crate::mvcc::StoreSnapshot::assemble(epoch, shards)
    }

    /// True when the store persists to disk.
    pub fn is_durable(&self) -> bool {
        self.opts.durability != Durability::InMemory
    }

    /// Number of memtable shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// Recovery-time apply of one decoded WAL frame (`heads` over `frame`,
/// see [`decode_frame`]) onto the shard memtables before the store is
/// assembled (no cache, no presence — [`Store::assemble`] derives the
/// presence masks from the final contents).
fn apply_ops(parts: &mut [Memtable], frame: &[u8], heads: &[OpHead]) {
    for head in heads {
        match head.parts(frame) {
            Some((key, Some(value))) => put_routed(parts, head.table, key, value),
            Some((key, None)) => {
                let s = route(parts.len(), head.table, key);
                if let Some(t) = parts.get_mut(s).and_then(|p| p.get_mut(&head.table)) {
                    t.remove(key);
                }
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;
    use std::sync::Arc;

    const T1: TableId = TableId(1);
    const T2: TableId = TableId(2);

    #[test]
    fn in_memory_crud() {
        let s = Store::in_memory();
        s.put(T1, b"a".to_vec(), b"1".to_vec()).unwrap();
        s.put(T1, b"b".to_vec(), b"2".to_vec()).unwrap();
        assert_eq!(s.get(T1, b"a").unwrap().unwrap().as_ref(), b"1");
        assert!(s.get(T2, b"a").unwrap().is_none());
        s.put(T1, b"a".to_vec(), b"9".to_vec()).unwrap();
        assert_eq!(s.get(T1, b"a").unwrap().unwrap().as_ref(), b"9");
        s.delete(T1, b"a".to_vec()).unwrap();
        assert!(s.get(T1, b"a").unwrap().is_none());
        assert_eq!(s.count(T1), 1);
    }

    #[test]
    fn scans_are_ordered_and_bounded() {
        let s = Store::in_memory();
        for i in [5u8, 1, 9, 3, 7] {
            s.put(T1, vec![i], vec![i * 10]).unwrap();
        }
        let all = s.scan_all(T1);
        let keys: Vec<u8> = all.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);

        let mid = s.scan_range(T1, &[3], Some(&[8]));
        let keys: Vec<u8> = mid.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, vec![3, 5, 7]);
    }

    #[test]
    fn prefix_scan_stops_at_prefix_end() {
        let s = Store::in_memory();
        s.put(T1, b"ab1".to_vec(), vec![]).unwrap();
        s.put(T1, b"ab2".to_vec(), vec![]).unwrap();
        s.put(T1, b"ac0".to_vec(), vec![]).unwrap();
        let hits = s.scan_prefix(T1, b"ab");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn streaming_scan_matches_collected_scan_and_stops_early() {
        let s = Store::in_memory_sharded(4);
        for i in 0..50u8 {
            s.put(T1, vec![i], vec![i]).unwrap();
        }
        let mut streamed = Vec::new();
        s.for_each_range(T1, &[], None, |k, v| {
            streamed.push((k.clone(), v.clone()));
            true
        });
        assert_eq!(streamed, s.scan_all(T1));

        let mut first_three = Vec::new();
        s.for_each_range(T1, &[], None, |k, _| {
            first_three.push(k[0]);
            first_three.len() < 3
        });
        assert_eq!(first_three, vec![0, 1, 2]);
    }

    #[test]
    fn batch_commit_is_atomic_across_tables() {
        let s = Store::in_memory();
        let mut b = WriteBatch::new();
        b.put(T1, b"k".to_vec(), b"v".to_vec());
        b.put(T2, b"idx".to_vec(), b"k".to_vec());
        s.commit(b).unwrap();
        assert!(s.contains(T1, b"k"));
        assert!(s.contains(T2, b"idx"));
        assert_eq!(s.stats().commits, 1);
        assert_eq!(s.stats().ops_applied, 2);
    }

    #[test]
    fn durable_store_recovers_from_wal() {
        let dir = TestDir::new("db-recover");
        {
            let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
            s.put(T1, b"x".to_vec(), b"1".to_vec()).unwrap();
            s.put(T1, b"y".to_vec(), b"2".to_vec()).unwrap();
            s.delete(T1, b"x".to_vec()).unwrap();
            s.sync().unwrap();
        }
        let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert!(s.get(T1, b"x").unwrap().is_none());
        assert_eq!(s.get(T1, b"y").unwrap().unwrap().as_ref(), b"2");
        assert_eq!(s.stats().recovered_entries, 3);
    }

    #[test]
    fn checkpoint_then_recover_uses_snapshot_plus_tail() {
        let dir = TestDir::new("db-ckpt");
        {
            let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
            for i in 0..10u8 {
                s.put(T1, vec![i], vec![i]).unwrap();
            }
            s.checkpoint().unwrap();
            // Post-checkpoint writes land in the fresh WAL.
            s.put(T1, vec![100], vec![100]).unwrap();
            s.sync().unwrap();
        }
        let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert_eq!(s.count(T1), 11);
        // Only the post-checkpoint entry should have been replayed.
        assert_eq!(s.stats().recovered_entries, 1);
    }

    #[test]
    fn torn_wal_tail_loses_only_the_torn_batch() {
        let dir = TestDir::new("db-torn");
        {
            let s = Store::open(
                dir.path(),
                StoreOptions {
                    durability: Durability::Sync,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            s.put(T1, b"keep".to_vec(), b"1".to_vec()).unwrap();
            s.put(T1, b"lost".to_vec(), b"2".to_vec()).unwrap();
        }
        // Tear the last frame.
        let wal = dir.path().join("db.wal");
        let data = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &data[..data.len() - 2]).unwrap();

        let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert!(s.contains(T1, b"keep"));
        assert!(!s.contains(T1, b"lost"));
        assert!(s.stats().recovered_torn_tail);

        // The store keeps working after tail truncation.
        s.put(T1, b"new".to_vec(), b"3".to_vec()).unwrap();
        s.sync().unwrap();
        let s2 = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert!(s2.contains(T1, b"new"));
    }

    #[test]
    fn auto_checkpoint_triggers() {
        let dir = TestDir::new("db-auto");
        let s = Store::open(
            dir.path(),
            StoreOptions {
                durability: Durability::Buffered,
                checkpoint_every: 5,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for i in 0..12u8 {
            s.put(T1, vec![i], vec![i]).unwrap();
        }
        assert_eq!(s.stats().checkpoints, 2);
        drop(s);
        let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert_eq!(s.count(T1), 12);
    }

    #[test]
    fn empty_batch_commit_is_a_noop() {
        let s = Store::in_memory();
        s.commit(WriteBatch::new()).unwrap();
        assert_eq!(s.stats().commits, 0);
    }

    #[test]
    fn checkpoint_on_in_memory_store_is_rejected() {
        let s = Store::in_memory();
        assert!(matches!(s.checkpoint(), Err(StoreError::NotDurable)));
    }

    #[test]
    fn concurrent_readers_with_writer() {
        let s = Arc::new(Store::in_memory());
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..1000u32 {
                    s.put(T1, i.to_be_bytes().to_vec(), vec![1]).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..200 {
                        let n = s.count(T1);
                        assert!(n >= last, "count must be monotone under puts");
                        last = n;
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(s.count(T1), 1000);
    }

    #[test]
    fn frame_payload_matches_serbin_wal_entry() {
        // commit() writes `varint(lsn) ++ varint(op count) ++ body` in
        // pieces; recovery reads a full `WalEntry`. The frame must stay
        // byte-identical to serbin's encoding of that entry, across the
        // one-to-two-byte varint step of the LSN (127 → 128) and of the
        // value length.
        use crate::txn::{Op, WalEntry};
        let dir = TestDir::new("db-frame-payload");
        let ops = |i: u64| {
            vec![
                Op::Put {
                    table: T1,
                    key: i.to_be_bytes().to_vec(),
                    value: vec![3; (i % 3 * 100) as usize],
                },
                Op::Delete {
                    table: T2,
                    key: vec![9],
                },
            ]
        };
        {
            let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
            for i in 1..=130u64 {
                let mut b = WriteBatch::new();
                for op in ops(i) {
                    match op {
                        Op::Put { table, key, value } => b.put(table, key, value),
                        Op::Delete { table, key } => b.delete(table, key),
                    };
                }
                s.commit(b).unwrap();
            }
        }
        let scan = wal::scan(&wal_path(dir.path())).unwrap();
        assert_eq!(scan.frames.len(), 130);
        for (lsn, frame) in (1u64..).zip(&scan.frames) {
            let entry = WalEntry { lsn, ops: ops(lsn) };
            assert_eq!(
                frame,
                &crate::serbin::to_bytes(&entry).unwrap(),
                "lsn={lsn}"
            );
            let back: WalEntry = crate::serbin::from_bytes(frame).unwrap();
            assert_eq!(back, entry);
        }
        let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert_eq!((s.count(T1), s.stats().recovered_entries), (130, 130));
    }

    #[test]
    fn sharded_store_reads_back_every_key() {
        for shards in [1usize, 2, 3, 16] {
            let s = Store::in_memory_sharded(shards);
            assert_eq!(s.shard_count(), shards);
            for i in 0..200u32 {
                s.put(T1, i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec())
                    .unwrap();
            }
            for i in 0..200u32 {
                assert_eq!(
                    s.get(T1, &i.to_be_bytes()).unwrap().unwrap().as_ref(),
                    i.to_le_bytes()
                );
            }
            let all = s.scan_all(T1);
            assert_eq!(all.len(), 200);
            assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan stays sorted");
            assert_eq!(s.count(T1), 200);
            assert_eq!(
                s.last_key(T1).unwrap().as_ref(),
                199u32.to_be_bytes().as_slice()
            );
        }
    }

    #[test]
    fn count_and_last_key_lock_only_presence_shards() {
        // Regression for the lock_all → presence-mask change: single-table
        // queries must stay correct for sparse tables (one shard), dense
        // tables (all shards), unknown tables (no shards), and across
        // deletes that empty a shard (presence is conservative).
        for shards in [1usize, 2, 8, 16] {
            let s = Store::in_memory_sharded(shards);
            assert_eq!(s.count(T1), 0);
            assert!(s.last_key(T1).is_none());

            // One key: exactly one shard can hold T1.
            s.put(T1, b"solo".to_vec(), vec![1]).unwrap();
            assert_eq!(s.count(T1), 1);
            assert_eq!(s.last_key(T1).unwrap().as_ref(), b"solo");

            // Dense: every shard ends up holding some T1 key.
            for i in 0..200u32 {
                s.put(T1, i.to_be_bytes().to_vec(), vec![0]).unwrap();
                s.put(T2, i.to_be_bytes().to_vec(), vec![0]).unwrap();
            }
            assert_eq!(s.count(T1), 201);
            assert_eq!(s.count(T2), 200);
            assert_eq!(s.last_key(T1).unwrap().as_ref(), b"solo");
            assert_eq!(
                s.last_key(T2).unwrap().as_ref(),
                199u32.to_be_bytes().as_slice()
            );

            // Deletes keep answers correct even though presence never
            // shrinks.
            for i in 0..200u32 {
                s.delete(T1, i.to_be_bytes().to_vec()).unwrap();
            }
            assert_eq!(s.count(T1), 1);
            assert_eq!(s.last_key(T1).unwrap().as_ref(), b"solo");
            s.delete(T1, b"solo".to_vec()).unwrap();
            assert_eq!(s.count(T1), 0);
            assert!(s.last_key(T1).is_none());
            assert_eq!(s.count(T2), 200, "T2 untouched by T1 deletes");
        }
    }

    #[test]
    fn presence_survives_recovery_and_reshard() {
        let dir = TestDir::new("db-presence");
        {
            let s = Store::open(
                dir.path(),
                StoreOptions {
                    shards: 4,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            for i in 0..50u8 {
                s.put(T1, vec![i], vec![i]).unwrap();
            }
            s.sync().unwrap();
        }
        let s = Store::open(
            dir.path(),
            StoreOptions {
                shards: 8,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.count(T1), 50);
        assert_eq!(s.last_key(T1).unwrap().as_ref(), &[49u8]);
        assert_eq!(s.scan_all(T1).len(), 50);
    }

    /// Sequential big-endian `u64` keys of one table (post ids, say)
    /// reach every shard, and spread evenly in runs of 16.
    #[test]
    fn sequential_u64_keys_reach_every_shard() {
        for shards in [2usize, 8, 16] {
            let mut per_shard = vec![0usize; shards];
            for i in 0..10_000u64 {
                per_shard[route(shards, T1, &i.to_be_bytes())] += 1;
            }
            let fair = 10_000 / shards;
            assert!(
                per_shard.iter().all(|&n| n > fair / 2 && n < fair * 2),
                "{shards} shards got {per_shard:?}"
            );
        }
    }

    /// Merged scans over shards that hold runs of consecutive ids and
    /// scattered keys of other lengths agree with one ordered map, for
    /// every range.
    #[test]
    fn merged_scans_match_an_ordered_map() {
        let s = Store::in_memory_sharded(8);
        let mut model = BTreeMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut b = WriteBatch::new();
        for i in 0..3_000u64 {
            let key = match rand() % 3 {
                0 => i.to_be_bytes().to_vec(),
                1 => (rand() % 5_000).to_be_bytes().to_vec(),
                _ => (rand() as u32 % 70_000).to_be_bytes()[1..].to_vec(),
            };
            b.put(T1, key.clone(), vec![i as u8]);
            model.insert(key, vec![i as u8]);
        }
        s.commit(b).unwrap();
        let all: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let got: Vec<_> = s
            .scan_all(T1)
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        assert_eq!(got, all);
        for _ in 0..200 {
            let from = (rand() % 6_000).to_be_bytes();
            let to = (u64::from_be_bytes(from) + rand() % 300).to_be_bytes();
            let expect: Vec<_> = model
                .range(from.to_vec()..to.to_vec())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let got: Vec<_> = s
                .scan_range(T1, &from, Some(&to))
                .into_iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            assert_eq!(got, expect);
        }
    }

    /// The router decides only where a pair lives in memory: a
    /// checkpoint written under any shard count is byte-identical, and
    /// reopens under any other with the same checksum.
    #[test]
    fn checkpoint_bytes_do_not_depend_on_the_shard_count() {
        let mut images = Vec::new();
        let mut digests = Vec::new();
        for shards in [1usize, 3, 8] {
            let dir = TestDir::new("ckpt-shards");
            let opts = StoreOptions {
                shards,
                ..StoreOptions::default()
            };
            let s = Store::open(dir.path(), opts.clone()).unwrap();
            for i in 0..2_000u64 {
                let mut b = WriteBatch::new();
                b.put(T1, i.to_be_bytes().to_vec(), vec![i as u8; 5]);
                b.put(T2, (i as u32 * 7).to_be_bytes().to_vec(), vec![1]);
                s.commit(b).unwrap();
            }
            s.delete(T1, 17u64.to_be_bytes().to_vec()).unwrap();
            s.checkpoint().unwrap();
            digests.push(s.content_checksum());
            drop(s);
            images.push(std::fs::read(snapshot_path(dir.path())).unwrap());
            let reopened = Store::open(
                dir.path(),
                StoreOptions {
                    shards: 5,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(reopened.content_checksum(), digests[0]);
            assert_eq!(reopened.count(T1), 1_999);
        }
        assert!(images.windows(2).all(|w| w[0] == w[1]));
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn content_checksum_is_shard_count_invariant() {
        let mut digests = Vec::new();
        for shards in [1usize, 2, 16] {
            let s = Store::in_memory_sharded(shards);
            for i in 0..100u32 {
                s.put(T1, i.to_be_bytes().to_vec(), vec![i as u8; 3])
                    .unwrap();
                s.put(T2, vec![i as u8], vec![1]).unwrap();
            }
            s.delete(T2, vec![7]).unwrap();
            digests.push(s.content_checksum());
        }
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[1], digests[2]);
        assert_eq!(
            Store::in_memory_sharded(4).table_ids(),
            Vec::<TableId>::new()
        );
    }

    #[test]
    fn reopen_with_a_different_shard_count_keeps_data() {
        let dir = TestDir::new("db-reshard");
        {
            let s = Store::open(
                dir.path(),
                StoreOptions {
                    shards: 4,
                    ..StoreOptions::default()
                },
            )
            .unwrap();
            for i in 0..50u8 {
                s.put(T1, vec![i], vec![i]).unwrap();
            }
            s.checkpoint().unwrap();
            s.put(T1, vec![200], vec![200]).unwrap();
            s.sync().unwrap();
        }
        let s = Store::open(
            dir.path(),
            StoreOptions {
                shards: 2,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.count(T1), 51);
        assert_eq!(s.stats().shards, 2);
    }

    #[test]
    fn group_commit_absorbs_concurrent_writers() {
        let dir = TestDir::new("db-group");
        let s = Arc::new(
            Store::open(
                dir.path(),
                StoreOptions {
                    durability: Durability::Buffered,
                    ..StoreOptions::default()
                },
            )
            .unwrap(),
        );
        let threads: Vec<_> = (0..8u8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..50u8 {
                        let mut b = WriteBatch::new();
                        b.put(T1, vec![t, i], vec![i]);
                        b.put(T2, vec![t, i], vec![t]);
                        s.commit(b).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = s.stats();
        assert_eq!(stats.commits, 400);
        assert_eq!(stats.ops_applied, 800);
        assert!(
            stats.group_commits <= stats.commits,
            "groups never exceed commits"
        );
        assert_eq!(s.count(T1), 400);
        s.sync().unwrap();
        drop(s);
        let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert_eq!(s.count(T1), 400);
        assert_eq!(s.count(T2), 400);
    }

    #[test]
    fn scans_never_observe_half_a_batch() {
        // Each batch writes a *pair* of keys to the same table; a scan
        // (which locks every presence shard at once) must always see an
        // even count, or it observed half a batch.
        let s = Arc::new(Store::in_memory_sharded(4));
        let writer = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..500u32 {
                    let mut b = WriteBatch::new();
                    b.put(T1, [i.to_be_bytes().as_slice(), &[0]].concat(), vec![1]);
                    b.put(T1, [i.to_be_bytes().as_slice(), &[1]].concat(), vec![1]);
                    s.commit(b).unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let n = s.scan_all(T1).len();
                        assert_eq!(n % 2, 0, "scan observed a torn batch ({n} keys)");
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn every_sync_policy_commits_and_recovers() {
        for (name, policy) in [
            ("always", SyncPolicy::Always),
            ("every0", SyncPolicy::EveryN(0)),
            ("every3", SyncPolicy::EveryN(3)),
            ("batched", SyncPolicy::Batched),
        ] {
            let dir = TestDir::new(&format!("db-sync-{name}"));
            {
                let s = Store::open(
                    dir.path(),
                    StoreOptions {
                        durability: Durability::Sync,
                        sync_policy: policy,
                        ..StoreOptions::default()
                    },
                )
                .unwrap();
                for i in 0..10u8 {
                    s.put(T1, vec![i], vec![i]).unwrap();
                }
            }
            let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
            assert_eq!(s.count(T1), 10, "policy {name} lost commits");
            assert_eq!(s.stats().recovered_entries, 10);
        }
    }

    #[test]
    fn batched_policy_syncs_when_the_queue_drains() {
        // Single-writer: every group sees an empty queue, so Batched must
        // fsync like Always — i.e. the data survives a reopen without an
        // explicit sync() and without relying on Drop-order luck.
        let dir = TestDir::new("db-batched-drain");
        let s = Store::open(
            dir.path(),
            StoreOptions {
                durability: Durability::Sync,
                sync_policy: SyncPolicy::Batched,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        s.put(T1, b"k".to_vec(), b"v".to_vec()).unwrap();
        // No sync() here on purpose.
        drop(s);
        let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert!(s.contains(T1, b"k"));
    }

    #[test]
    fn batched_policy_fsyncs_every_uncontended_group() {
        // Regression for the queue-depth hint: with a single writer the
        // queue is empty at every group's decision point, so Batched must
        // fsync each group — a leader may only skip the fsync for frames
        // it just appended when real followers are queued to carry it.
        let dir = TestDir::new("db-batched-every-group");
        let s = Store::open(
            dir.path(),
            StoreOptions {
                durability: Durability::Sync,
                sync_policy: SyncPolicy::Batched,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for i in 0..20u8 {
            s.put(T1, vec![i], vec![i]).unwrap();
        }
        let stats = s.stats();
        assert_eq!(
            stats.wal_syncs, stats.group_commits,
            "every uncontended Batched group must fsync"
        );
        assert_eq!(stats.wal_unsynced_commits, 0);
    }

    #[test]
    fn batched_policy_leaves_no_unsynced_tail_after_a_burst() {
        // The Batched contract: once every commit has returned and the
        // queue is empty, the WAL is fully fsynced. The fix derives the
        // leader's defer/fsync decision from the queue it actually sees
        // under the commit mutex, so the last group of any burst always
        // fsyncs — this must hold for every interleaving of the burst.
        let dir = TestDir::new("db-batched-burst");
        let s = Arc::new(
            Store::open(
                dir.path(),
                StoreOptions {
                    durability: Durability::Sync,
                    sync_policy: SyncPolicy::Batched,
                    ..StoreOptions::default()
                },
            )
            .unwrap(),
        );
        let threads: Vec<_> = (0..8u8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..50u8 {
                        let mut b = WriteBatch::new();
                        b.put(T1, vec![t, i], vec![i]);
                        s.commit(b).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = s.stats();
        assert_eq!(stats.commits, 400);
        assert_eq!(
            stats.wal_unsynced_commits, 0,
            "a quiescent Batched store must be fully fsynced"
        );
        assert!(stats.wal_syncs >= 1);
        // And the data really is durable without any explicit sync().
        drop(s);
        let s = Store::open(dir.path(), StoreOptions::default()).unwrap();
        assert_eq!(s.count(T1), 400);
    }

    #[test]
    fn presence_answers_stay_correct_when_a_batch_empties_a_table() {
        // Regression for the presence-mask fast paths: a table whose only
        // rows were deleted keeps its mask raised forever, so `count`,
        // `last_key` and the scans must answer from the (empty) shard
        // contents, never from the mask — including when the put and the
        // delete ride in the *same* batch.
        for shards in [1usize, 4, 16] {
            let s = Store::in_memory_sharded(shards);

            // Same-batch put + delete: the batch raises presence bits but
            // commits an empty table.
            let mut b = WriteBatch::new();
            b.put(T1, b"a".to_vec(), vec![1]);
            b.put(T1, b"b".to_vec(), vec![2]);
            b.delete(T1, b"a".to_vec());
            b.delete(T1, b"b".to_vec());
            s.commit(b).unwrap();
            assert_eq!(s.count(T1), 0, "shards={shards}");
            assert!(s.last_key(T1).is_none(), "shards={shards}");
            assert!(s.scan_all(T1).is_empty());
            assert!(!s.contains(T1, b"a"));

            // Rows spread over every shard, then emptied by one batch.
            for i in 0..64u32 {
                s.put(T1, i.to_be_bytes().to_vec(), vec![0]).unwrap();
            }
            let mut b = WriteBatch::new();
            for i in 0..64u32 {
                b.delete(T1, i.to_be_bytes().to_vec());
            }
            s.commit(b).unwrap();
            assert_eq!(s.count(T1), 0);
            assert!(s.last_key(T1).is_none());
            assert!(s.scan_range(T1, &[], None).is_empty());
            let mut streamed = 0;
            s.for_each_range(T1, &[], None, |_, _| {
                streamed += 1;
                true
            });
            assert_eq!(streamed, 0);

            // Delete + re-insert in one batch: answers must reflect the
            // batch's net effect, in op order.
            s.put(T1, b"x".to_vec(), vec![1]).unwrap();
            let mut b = WriteBatch::new();
            b.delete(T1, b"x".to_vec());
            b.put(T1, b"y".to_vec(), vec![2]);
            s.commit(b).unwrap();
            assert_eq!(s.count(T1), 1);
            assert_eq!(s.last_key(T1).unwrap().as_ref(), b"y");

            // The emptied-then-reused table keeps working.
            s.delete(T1, b"y".to_vec()).unwrap();
            assert!(s.last_key(T1).is_none());
            s.put(T1, b"z".to_vec(), vec![3]).unwrap();
            assert_eq!(s.count(T1), 1);
            assert_eq!(s.last_key(T1).unwrap().as_ref(), b"z");
        }
    }

    #[test]
    fn cache_write_through_and_invalidation() {
        let s = Store::in_memory();
        assert!(s.entity_cache_enabled());

        // Read-through: first lookup misses, install, second hits.
        s.put(T1, b"k".to_vec(), b"v1".to_vec()).unwrap();
        let bytes = s.get(T1, b"k").unwrap().unwrap();
        assert!(s.cache_lookup(T1, b"k", &bytes).is_none());
        s.cache_store(T1, b"k", bytes.clone(), Arc::new(41u32));
        let hit = s.cache_lookup(T1, b"k", &bytes).unwrap();
        assert_eq!(*hit.downcast::<u32>().unwrap(), 41);

        // An unhinted overwrite invalidates.
        s.put(T1, b"k".to_vec(), b"v2".to_vec()).unwrap();
        let bytes2 = s.get(T1, b"k").unwrap().unwrap();
        assert!(s.cache_lookup(T1, b"k", &bytes2).is_none());

        // A write-through put is immediately visible as a hit.
        let mut b = WriteBatch::new();
        b.put_cached(T1, b"k".to_vec(), b"v3".to_vec(), Arc::new(43u32));
        s.commit(b).unwrap();
        let bytes3 = s.get(T1, b"k").unwrap().unwrap();
        let hit = s.cache_lookup(T1, b"k", &bytes3).unwrap();
        assert_eq!(*hit.downcast::<u32>().unwrap(), 43);

        // A write-through overwrite replaces the cached pair whole: the
        // slot's key and value are the memtable's new views, so the
        // overwritten pair's buffer is not kept alive by the cache.
        let mut b = WriteBatch::new();
        b.put_cached(T1, b"k".to_vec(), b"v4".to_vec(), Arc::new(44u32));
        s.commit(b).unwrap();
        let (key, value) = s.scan_all(T1).pop().unwrap();
        assert_eq!(key.as_ptr().wrapping_add(key.len()), value.as_ptr());
        {
            let cache = s.cache[s.shard_of(T1, b"k")].read();
            let (slot_key, slot) = cache[&T1].get_key_value(&b"k"[..]).unwrap();
            assert_eq!(slot_key.as_ptr(), key.as_ptr());
            assert_eq!(slot.value.as_ptr(), value.as_ptr());
        }
        // A view with the cached start but another length is not a hit.
        let short = value.slice(..1);
        assert!(s.cache_lookup(T1, b"k", &short).is_none());

        // Deletes invalidate too.
        s.delete(T1, b"k".to_vec()).unwrap();
        assert!(s.get(T1, b"k").unwrap().is_none());

        let stats = s.stats();
        assert!(stats.cache_hits >= 2);
        assert!(stats.cache_misses >= 2);
    }

    #[test]
    fn cache_can_be_disabled_by_option() {
        let s = Store::in_memory_with(StoreOptions {
            entity_cache: false,
            ..StoreOptions::default()
        });
        assert!(!s.entity_cache_enabled());
        s.put(T1, b"k".to_vec(), b"v".to_vec()).unwrap();
        let bytes = s.get(T1, b"k").unwrap().unwrap();
        s.cache_store(T1, b"k", bytes.clone(), Arc::new(1u8));
        assert!(s.cache_lookup(T1, b"k", &bytes).is_none());
        let stats = s.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0));
    }

    #[test]
    fn cache_eviction_keeps_answers_correct() {
        let s = Store::in_memory_with(StoreOptions {
            entity_cache_capacity: 4,
            ..StoreOptions::default()
        });
        for i in 0..64u32 {
            let mut b = WriteBatch::new();
            b.put_cached(T1, i.to_be_bytes().to_vec(), vec![i as u8], Arc::new(i));
            s.commit(b).unwrap();
        }
        for i in 0..64u32 {
            let key = i.to_be_bytes();
            let bytes = s.get(T1, &key).unwrap().unwrap();
            assert_eq!(bytes.as_ref(), &[i as u8]);
            if let Some(hit) = s.cache_lookup(T1, &key, &bytes) {
                assert_eq!(*hit.downcast::<u32>().unwrap(), i);
            }
        }
    }
}
