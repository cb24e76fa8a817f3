//! Entity-cache equivalence: the decoded-record cache must be invisible —
//! every read, every digest, every recovered state is bit-identical with
//! the cache on, off, or pathologically small. Random typed operation
//! sequences drive three durable stores that differ only in cache
//! configuration; the cache-off store is the reference (every read a
//! plain decode of the stored bytes), so any divergence is a cache
//! coherence bug.
//!
//! The op set covers every `TypedTable` call the engine makes — cached,
//! owned and plain upserts, raw `WriteBatch::put`s, multi-op batches,
//! read-modify-writes, deletes, `get`/`get_arc`, `for_each_range` and
//! `keys_in_range` — plus typed reads through a `Store::read_snapshot`
//! taken before later writes, checkpoints, and durable reopens (WAL
//! replay over the last checkpoint).

use itag_store::serbin;
use itag_store::table::{Entity, KeyCodec};
use itag_store::testutil::TestDir;
use itag_store::{Store, StoreOptions, StoreSnapshot, TableId, TypedTable, WriteBatch};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Item {
    id: u32,
    label: String,
    score: u64,
}

impl Entity for Item {
    const TABLE: TableId = TableId(21);
    const NAME: &'static str = "item";
    type Key = u32;

    fn primary_key(&self) -> u32 {
        self.id
    }
}

/// How one write is staged into a batch.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Write-through (`stage_upsert_cached`).
    Cached,
    /// Write-through, entity moved in (`stage_upsert_owned`).
    Owned,
    /// Plain encode handed over as owned vectors (`WriteBatch::put`).
    Raw,
    /// Plain upsert (`stage_upsert`; the cache must invalidate).
    Plain,
    Delete,
}

#[derive(Debug, Clone)]
enum TypedOp {
    /// One staged write committed on its own.
    Write {
        stage: Stage,
        id: u32,
        score: u64,
    },
    /// Several staged writes committed as one batch.
    Batch(Vec<(Stage, u32, u64)>),
    /// Read-modify-write via `TypedTable::update`.
    Bump {
        id: u32,
    },
    /// Point reads; the *values* must agree across stores.
    Get {
        id: u32,
    },
    GetArc {
        id: u32,
    },
    /// `for_each_range` over `[from, from + len)`.
    Range {
        from: u32,
        len: u32,
    },
    /// `keys_in_range` over `[from, from + len)`.
    Keys {
        from: u32,
        len: u32,
    },
    /// Captures a `read_snapshot` that later `SnapshotGet`s read from.
    Capture,
    SnapshotGet {
        id: u32,
    },
    Checkpoint,
    /// Drops the store and reopens it from disk.
    Reopen,
}

/// What a read op answered.
#[derive(Debug, PartialEq)]
enum Read {
    One(Option<Item>),
    Many(Vec<Item>),
    Keys(Vec<u32>),
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::Cached),
        Just(Stage::Owned),
        Just(Stage::Raw),
        Just(Stage::Plain),
        Just(Stage::Delete),
    ]
}

fn op_strategy() -> impl Strategy<Value = TypedOp> {
    prop_oneof![
        6 => (stage_strategy(), 0u32..24, any::<u64>())
            .prop_map(|(stage, id, score)| TypedOp::Write { stage, id, score }),
        // Few distinct ids, so one batch often writes a key twice.
        2 => proptest::collection::vec((stage_strategy(), 0u32..4, any::<u64>()), 1..6)
            .prop_map(TypedOp::Batch),
        2 => (0u32..24).prop_map(|id| TypedOp::Bump { id }),
        3 => (0u32..24).prop_map(|id| TypedOp::Get { id }),
        3 => (0u32..24).prop_map(|id| TypedOp::GetArc { id }),
        1 => (0u32..24, 0u32..10).prop_map(|(from, len)| TypedOp::Range { from, len }),
        1 => (0u32..24, 0u32..10).prop_map(|(from, len)| TypedOp::Keys { from, len }),
        1 => Just(TypedOp::Capture),
        2 => (0u32..24).prop_map(|id| TypedOp::SnapshotGet { id }),
        1 => Just(TypedOp::Checkpoint),
        1 => Just(TypedOp::Reopen),
    ]
}

fn item(id: u32, score: u64) -> Item {
    Item {
        id,
        label: format!("item-{id}"),
        score,
    }
}

/// One durable store under test, its typed table and its held capture.
struct Harness {
    dir: TestDir,
    opts: StoreOptions,
    table: TypedTable<Item>,
    capture: Option<StoreSnapshot>,
}

impl Harness {
    fn new(opts: StoreOptions) -> Self {
        let dir = TestDir::new("cache-equiv");
        let table = TypedTable::new(Arc::new(Store::open(dir.path(), opts.clone()).unwrap()));
        Harness {
            dir,
            opts,
            table,
            capture: None,
        }
    }

    fn stage(&mut self, batch: &mut WriteBatch, stage: Stage, id: u32, score: u64) {
        let t = &self.table;
        match stage {
            Stage::Cached => t.stage_upsert_cached(batch, &item(id, score)).unwrap(),
            Stage::Owned => t.stage_upsert_owned(batch, item(id, score)).unwrap(),
            Stage::Raw => {
                let it = item(id, score);
                batch.put(Item::TABLE, id.encoded(), serbin::to_bytes(&it).unwrap());
            }
            Stage::Plain => t.stage_upsert(batch, &item(id, score)).unwrap(),
            Stage::Delete => t.stage_delete(batch, &id),
        }
    }

    fn apply(&mut self, op: &TypedOp) -> Option<Read> {
        match op {
            TypedOp::Write { stage, id, score } => {
                let mut b = WriteBatch::new();
                self.stage(&mut b, *stage, *id, *score);
                self.table.store().commit(b).unwrap();
                None
            }
            TypedOp::Batch(writes) => {
                let mut b = WriteBatch::new();
                for &(stage, id, score) in writes {
                    self.stage(&mut b, stage, id, score);
                }
                self.table.store().commit(b).unwrap();
                None
            }
            TypedOp::Bump { id } => {
                self.table
                    .update(id, |it| it.score = it.score.wrapping_add(1))
                    .unwrap();
                None
            }
            TypedOp::Get { id } => Some(Read::One(self.table.get(id).unwrap())),
            TypedOp::GetArc { id } => Some(Read::One(
                self.table.get_arc(id).unwrap().map(|a| (*a).clone()),
            )),
            TypedOp::Range { from, len } => {
                let mut out = Vec::new();
                self.table
                    .for_each_range(from, Some(&(from + len)), |it| {
                        out.push(it);
                        true
                    })
                    .unwrap();
                Some(Read::Many(out))
            }
            TypedOp::Keys { from, len } => Some(Read::Keys(
                self.table.keys_in_range(from, Some(&(from + len))).unwrap(),
            )),
            TypedOp::Capture => {
                self.capture = Some(self.table.store().read_snapshot());
                None
            }
            TypedOp::SnapshotGet { id } => Some(Read::One(
                self.capture
                    .as_ref()
                    .and_then(|s| s.table::<Item>().get(id).unwrap()),
            )),
            TypedOp::Checkpoint => {
                self.table.store().checkpoint().unwrap();
                None
            }
            TypedOp::Reopen => {
                // The old store must be gone before its directory reopens.
                self.table = TypedTable::new(Arc::new(Store::in_memory()));
                let store = Store::open(self.dir.path(), self.opts.clone()).unwrap();
                self.table = TypedTable::new(Arc::new(store));
                None
            }
        }
    }
}

fn cache_configs() -> [StoreOptions; 3] {
    [
        StoreOptions {
            entity_cache: true,
            ..StoreOptions::default()
        },
        // The reference: every read decodes the stored bytes.
        StoreOptions {
            entity_cache: false,
            ..StoreOptions::default()
        },
        // A 2-entry cache evicts constantly — hammers the refill path.
        StoreOptions {
            entity_cache: true,
            entity_cache_capacity: 2,
            ..StoreOptions::default()
        },
    ]
}

/// Runs `ops` on one store per cache config and checks every read and
/// the final stored bytes against the cache-off reference.
fn check_equivalent(ops: &[TypedOp]) {
    let mut stores: Vec<Harness> = cache_configs().into_iter().map(Harness::new).collect();
    for op in ops {
        let reads: Vec<Option<Read>> = stores.iter_mut().map(|h| h.apply(op)).collect();
        prop_assert_eq!(
            &reads[0],
            &reads[1],
            "cached vs uncached read diverged: {:?}",
            op
        );
        prop_assert_eq!(
            &reads[2],
            &reads[1],
            "tiny-cache vs uncached read diverged: {:?}",
            op
        );
    }

    let reference = stores[1].table.store().content_checksum();
    prop_assert_eq!(
        stores[0].table.store().content_checksum(),
        reference,
        "stored bytes diverged (on)"
    );
    prop_assert_eq!(
        stores[2].table.store().content_checksum(),
        reference,
        "stored bytes diverged (tiny)"
    );

    // The cache-off store must never touch the cache counters.
    let off_stats = stores[1].table.store().stats();
    prop_assert_eq!((off_stats.cache_hits, off_stats.cache_misses), (0, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cache_on_off_and_tiny_are_bit_identical(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        check_equivalent(&ops);
    }
}

#[test]
fn a_key_cached_and_overwritten_in_one_batch_reads_the_last_write() {
    // A write-through makes its table cache-bearing for the rest of its
    // batch, so a plain overwrite of the same key later in that batch
    // drops the slot the write-through installed: no slot is left viewing
    // (and pinning) the overwritten bytes, and reads do not lean on the
    // slot's identity check. The same holds again after a reopen, whose
    // store starts cold.
    let batch = TypedOp::Batch(vec![(Stage::Cached, 1, 10), (Stage::Plain, 1, 20)]);
    let ops = [
        batch.clone(),
        TypedOp::Get { id: 1 },
        TypedOp::GetArc { id: 1 },
        TypedOp::Reopen,
        batch.clone(),
        TypedOp::GetArc { id: 1 },
    ];
    check_equivalent(&ops);

    for opts in cache_configs() {
        let mut h = Harness::new(opts);
        for _ in 0..2 {
            h.apply(&batch);
            assert!(
                !h.table.store().cache_holds(Item::TABLE, &1u32.encoded()),
                "a slot survived the overwrite in its own batch"
            );
            h.apply(&TypedOp::Reopen);
        }
    }
}
