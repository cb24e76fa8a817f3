//! `table-store`: micro-benchmarks of the storage substrate (the MySQL
//! substitute): WAL append, point lookup, ordered scan, recovery.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use itag_core::config::EngineConfig;
use itag_core::engine::ITagEngine;
use itag_store::db::{Durability, Store, StoreOptions};
use itag_store::table::Entity;
use itag_store::testutil::TestDir;
use itag_store::{TableId, TypedTable, WriteBatch};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;

const T: TableId = TableId(1);

/// A record with enough string payload that decoding is non-trivial —
/// the shape the entity cache is built for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchRecord {
    id: u64,
    uri: String,
    description: String,
    counts: Vec<u32>,
}

impl Entity for BenchRecord {
    const TABLE: TableId = TableId(30);
    const NAME: &'static str = "bench-record";
    type Key = u64;

    fn primary_key(&self) -> u64 {
        self.id
    }
}

fn bench_typed_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/typed_get");
    for (name, cache) in [("cached", true), ("uncached", false)] {
        let table: TypedTable<BenchRecord> =
            TypedTable::new(Arc::new(Store::in_memory_with(StoreOptions {
                entity_cache: cache,
                ..StoreOptions::default()
            })));
        for id in 0..1_000u64 {
            table
                .upsert(&BenchRecord {
                    id,
                    uri: format!("https://example.org/resource/{id}"),
                    description: format!("synthetic benchmark record number {id}"),
                    counts: (0..16).collect(),
                })
                .unwrap();
        }
        // Point reads over a hot working set: with the cache on, repeat
        // reads skip the serbin decode entirely.
        group.bench_function(format!("hot_reads_{name}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                black_box(table.get(&(i % 64)).unwrap());
                i = i.wrapping_add(7);
            });
        });
        // The zero-copy variant: cache hits return the shared Arc.
        group.bench_function(format!("hot_reads_arc_{name}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                black_box(table.get_arc(&(i % 64)).unwrap());
                i = i.wrapping_add(7);
            });
        });
    }
    group.finish();
}

fn bench_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/commit");
    group.bench_function("put_in_memory", |b| {
        let store = Store::in_memory();
        let mut i = 0u64;
        b.iter(|| {
            store
                .put(T, i.to_be_bytes().to_vec(), vec![0u8; 64])
                .unwrap();
            i += 1;
        });
    });
    group.bench_function("batch100_in_memory", |b| {
        let store = Store::in_memory();
        let mut i = 0u64;
        b.iter(|| {
            let mut batch = WriteBatch::with_capacity(100);
            for _ in 0..100 {
                batch.put(T, i.to_be_bytes().to_vec(), vec![0u8; 64]);
                i += 1;
            }
            store.commit(batch).unwrap();
        });
    });
    // One round's commit on a long `rounds_durable`-shaped run: about 150
    // puts and 14 deletes across 8 tables, in one batch.
    group.bench_function("round_shaped", |b| {
        let store = Store::in_memory();
        let mut round = 0u64;
        b.iter(|| {
            let mut batch = WriteBatch::new();
            for j in 0..150u64 {
                let key = ((round * 150 + j) % 65_536).to_be_bytes();
                batch.put_slices(TableId(1 + (j % 8) as u16), &key, &[j as u8; 48]);
            }
            for j in 0..14u64 {
                let key = ((round * 150 + j * 10) % 65_536).to_be_bytes();
                batch.delete(TableId(1 + (j * 10 % 8) as u16), key.to_vec());
            }
            store.commit(batch).unwrap();
            round += 1;
        });
    });
    group.bench_function("put_wal_buffered", |b| {
        let dir = TestDir::new("bench-wal");
        let store = Store::open(
            dir.path(),
            StoreOptions {
                durability: Durability::Buffered,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let mut i = 0u64;
        b.iter(|| {
            store
                .put(T, i.to_be_bytes().to_vec(), vec![0u8; 64])
                .unwrap();
            i += 1;
        });
    });
    group.finish();
}

fn bench_reads(c: &mut Criterion) {
    let store = Store::in_memory();
    for i in 0..100_000u64 {
        store
            .put(T, i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec())
            .unwrap();
    }
    let mut group = c.benchmark_group("store/read");
    group.bench_function("get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let key = (i % 100_000).to_be_bytes();
            black_box(store.get(T, &key).unwrap());
            i = i.wrapping_add(7919);
        });
    });
    group.bench_function("scan_range_100", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let from = (i % 99_000).to_be_bytes();
            let to = ((i % 99_000) + 100).to_be_bytes();
            black_box(store.scan_range(T, &from, Some(&to)));
            i = i.wrapping_add(104_729);
        });
    });
    group.finish();
}

/// Copy-on-write under MVCC: one put into a 600k-key table while a
/// freshly captured snapshot still shares every page. Keys have the
/// user table's shape (`u16` role, `u32` id), which spreads them over
/// the 8 shards. The put copies one shard's page directory and one page;
/// dropping the snapshot afterwards (timed too, as the server pays it)
/// frees the copies it no longer shares.
fn bench_snapshot_writes(c: &mut Criterion) {
    const N: u32 = 600_000;
    let key = |i: u32| [&2u16.to_be_bytes()[..], &i.to_be_bytes()[..]].concat();
    let store = Store::in_memory();
    for start in (0..N).step_by(20_000) {
        let mut batch = WriteBatch::with_capacity(20_000);
        for i in start..start + 20_000 {
            batch.put(T, key(i), vec![0u8; 32]);
        }
        store.commit(batch).unwrap();
    }
    let mut group = c.benchmark_group("store/mvcc");
    group.bench_function("put_under_live_snapshot_600k", |b| {
        let mut i = 0u32;
        b.iter_batched(
            || store.read_snapshot(),
            |snap| {
                store.put(T, key(i % N), vec![1u8; 32]).unwrap();
                i = i.wrapping_add(7919);
                snap
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("store/recovery");
    group.sample_size(10);
    group.bench_function("replay_10k_wal_entries", |b| {
        b.iter_batched(
            || {
                let dir = TestDir::new("bench-recover");
                {
                    let store = Store::open(dir.path(), StoreOptions::default()).unwrap();
                    for i in 0..10_000u64 {
                        store
                            .put(T, i.to_be_bytes().to_vec(), vec![0u8; 32])
                            .unwrap();
                    }
                    store.sync().unwrap();
                }
                dir
            },
            |dir| {
                let store = Store::open(dir.path(), StoreOptions::default()).unwrap();
                assert_eq!(store.stats().recovered_entries, 10_000);
                black_box(store.count(T))
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

/// Ordered loads through both of their callers: seeding the wire
/// benchmark's 600k-tagger population into a fresh engine (bulk
/// registration: one range scan and one commit per 4,096 ids), and
/// reopening a checkpoint of 300k user-shaped pairs (recovery routes each
/// pair once into its shard). Every pair takes the memtable's append
/// path. The previous iteration's engine or store is dropped in the
/// untimed set-up.
fn bench_ordered_loads(c: &mut Criterion) {
    let retired: RefCell<Option<Box<dyn std::any::Any>>> = RefCell::new(None);
    let mut group = c.benchmark_group("store/ingest");
    group.sample_size(10);
    // Inline, and with the encoder thread ahead of the commits.
    for threads in [1, 2] {
        group.bench_function(format!("seed_600k/threads{threads}"), |b| {
            b.iter_batched(
                || {
                    retired.take();
                    let mut config = EngineConfig::in_memory(7);
                    config.threads = threads;
                    ITagEngine::new(config).unwrap()
                },
                |mut engine| {
                    engine.seed_taggers(0, 600_000).unwrap();
                    *retired.borrow_mut() = Some(Box::new(engine));
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
    retired.take();

    const N: u32 = 300_000;
    let dir = TestDir::new("bench-open");
    {
        let store = Store::open(dir.path(), StoreOptions::default()).unwrap();
        for start in (0..N).step_by(10_000) {
            let mut batch = WriteBatch::with_capacity(10_000);
            for i in start..start + 10_000 {
                let key = [&1u16.to_be_bytes()[..], &i.to_be_bytes()[..]].concat();
                batch.put(T, key, format!("tagger-{i}").into_bytes());
            }
            store.commit(batch).unwrap();
        }
        store.checkpoint().unwrap();
    }
    let mut group = c.benchmark_group("store/recover");
    group.sample_size(10);
    group.bench_function("open_300k", |b| {
        b.iter_batched(
            || {
                retired.take();
            },
            |()| {
                let store = Store::open(dir.path(), StoreOptions::default()).unwrap();
                assert_eq!(store.count(T), N as usize);
                *retired.borrow_mut() = Some(Box::new(store));
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_commit,
    bench_reads,
    bench_typed_reads,
    bench_snapshot_writes,
    bench_recovery,
    bench_ordered_loads
);
criterion_main!(benches);
