//! Differential test of the write-batch buffer: random `put` /
//! `put_cached` / `delete` / `append` sequences, with empty keys and
//! values and lengths on both sides of every varint step (127/128,
//! 16,383/16,384), are committed to a durable store and checked three
//! ways against plain models:
//!
//! * each WAL frame equals `serbin::to_bytes(&WalEntry { lsn, ops })` of
//!   a `Vec<Op>` mirror built next to the batch;
//! * the applied state equals a `BTreeMap` model;
//! * a reopen replays the log to the same `content_checksum()`.

use itag_store::testutil::TestDir;
use itag_store::txn::{CachedEntity, Op, WalEntry};
use itag_store::{serbin, wal, Store, StoreOptions, TableId, WriteBatch};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const TABLES: u16 = 3;

#[derive(Debug, Clone)]
enum Step {
    Put {
        table: u16,
        key: Vec<u8>,
        value: Vec<u8>,
        cached: bool,
    },
    Delete {
        table: u16,
        key: Vec<u8>,
    },
}

/// A batch: its own steps, then any number of batches appended to it.
#[derive(Debug, Clone)]
struct Batch {
    steps: Vec<Step>,
    appended: Vec<Vec<Step>>,
}

fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1),
        Just(127),
        Just(128),
        Just(129),
        0usize..40,
        Just(16_383),
        Just(16_384),
    ]
}

/// Few distinct keys per table, so batches overwrite and delete keys
/// they or earlier batches wrote.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..3,
        prop_oneof![Just(0usize), Just(1), Just(127), Just(128), 2usize..9],
    )
        .prop_map(|(b, len)| vec![b; len])
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0..TABLES, key_strategy(), len_strategy(), any::<u8>(), any::<bool>())
            .prop_map(|(table, key, len, fill, cached)| Step::Put {
                table,
                key,
                value: vec![fill; len],
                cached,
            }),
        1 => (0..TABLES, key_strategy()).prop_map(|(table, key)| Step::Delete { table, key }),
    ]
}

fn batch_strategy() -> impl Strategy<Value = Batch> {
    (
        proptest::collection::vec(step_strategy(), 0..6),
        proptest::collection::vec(proptest::collection::vec(step_strategy(), 0..4), 0..3),
    )
        .prop_map(|(steps, appended)| Batch { steps, appended })
}

/// Stages `steps` into `batch` and their owned form into `mirror`.
fn stage(batch: &mut WriteBatch, mirror: &mut Vec<Op>, steps: &[Step]) {
    for step in steps {
        match step.clone() {
            Step::Put {
                table,
                key,
                value,
                cached,
            } => {
                let table = TableId(table);
                if cached {
                    let decoded: CachedEntity = Arc::new(value.clone());
                    batch.put_cached(table, key.clone(), value.clone(), decoded);
                } else {
                    batch.put(table, key.clone(), value.clone());
                }
                mirror.push(Op::Put { table, key, value });
            }
            Step::Delete { table, key } => {
                batch.delete(TableId(table), key.clone());
                mirror.push(Op::Delete {
                    table: TableId(table),
                    key,
                });
            }
        }
    }
}

fn model_apply(model: &mut BTreeMap<(u16, Vec<u8>), Vec<u8>>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Put { table, key, value } => {
                model.insert((table.0, key.clone()), value.clone());
            }
            Op::Delete { table, key } => {
                model.remove(&(table.0, key.clone()));
            }
        }
    }
}

fn store_contents(store: &Store) -> BTreeMap<(u16, Vec<u8>), Vec<u8>> {
    let mut out = BTreeMap::new();
    for t in 0..TABLES {
        for (k, v) in store.scan_all(TableId(t)) {
            out.insert((t, k.to_vec()), v.to_vec());
        }
    }
    out
}

fn check(batches: &[Batch]) {
    let dir = TestDir::new("batch-buffer");
    let mut model = BTreeMap::new();
    let mut committed: Vec<Vec<Op>> = Vec::new();
    let checksum = {
        let store = Store::open(dir.path(), StoreOptions::default()).unwrap();
        for b in batches {
            let mut batch = WriteBatch::new();
            let mut mirror = Vec::new();
            stage(&mut batch, &mut mirror, &b.steps);
            for steps in &b.appended {
                let mut other = WriteBatch::new();
                stage(&mut other, &mut mirror, steps);
                batch.append(other);
            }
            prop_assert_eq!(batch.ops(), mirror.clone());
            prop_assert_eq!(batch.len(), mirror.len());
            store.commit(batch).unwrap();
            model_apply(&mut model, &mirror);
            if !mirror.is_empty() {
                committed.push(mirror);
            }
        }
        prop_assert_eq!(store_contents(&store), model.clone());
        store.content_checksum()
    };

    let frames = wal::scan(&dir.path().join("db.wal")).unwrap().frames;
    prop_assert_eq!(frames.len(), committed.len());
    for ((lsn, frame), ops) in (1u64..).zip(&frames).zip(committed) {
        let entry = WalEntry { lsn, ops };
        prop_assert_eq!(
            frame,
            &serbin::to_bytes(&entry).unwrap(),
            "frame of lsn {}",
            lsn
        );
    }

    let reopened = Store::open(dir.path(), StoreOptions::default()).unwrap();
    prop_assert_eq!(reopened.content_checksum(), checksum);
    prop_assert_eq!(store_contents(&reopened), model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_bytes_state_and_replay_match_the_models(
        batches in proptest::collection::vec(batch_strategy(), 1..12)
    ) {
        check(&batches);
    }
}

#[test]
fn appending_into_an_empty_batch_keeps_the_other_batch_whole() {
    let decoded: CachedEntity = Arc::new(1u8);
    let mut other = WriteBatch::new();
    other.delete(TableId(1), vec![]);
    other.put_cached(TableId(2), vec![1; 128], vec![2; 16_384], decoded);
    let expected = other.ops();
    let mut batch = WriteBatch::new();
    batch.append(other);
    assert_eq!(batch.ops(), expected);
    check(&[Batch {
        steps: Vec::new(),
        appended: vec![
            Vec::new(),
            vec![Step::Put {
                table: 1,
                key: vec![],
                value: vec![],
                cached: true,
            }],
        ],
    }]);
}
