//! Threaded tagging pool.
//!
//! The discrete-tick [`crate::platform::SimPlatform`] is deterministic and
//! single-threaded — right for experiments. A real deployment aggregates
//! submissions arriving concurrently from the marketplace; this module
//! reproduces that shape with a scoped fan-out/fan-in: worker threads
//! claim tagging jobs off a shared cursor and return their results at
//! join. Used by the throughput bench and the engine's bulk-seeding path.

use crate::behavior::TaggerBehavior;
use itag_model::ids::{ResourceId, TagId};
use itag_model::vocab::TagDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

// Everything below up to the test module is determinism-contracted: the
// output of these maps must be a pure function of (input, seed), never of
// wall-clock time or scheduling. The repo lint rejects `Instant::now()` /
// `SystemTime::now()` inside this fence.
// lint: determinism

/// A unit of tagging work.
#[derive(Debug, Clone)]
pub struct TagJob {
    pub resource: ResourceId,
    /// Sequence number used to make per-job RNG streams independent.
    pub seq: u64,
}

/// A completed tagging job.
#[derive(Debug, Clone)]
pub struct TagJobResult {
    pub resource: ResourceId,
    pub seq: u64,
    pub tags: Vec<TagId>,
}

/// Runs `jobs` across `threads` OS threads, each simulating a tagger with
/// `behavior` over the shared `latents`. Results are returned sorted by
/// `seq`, so the output is deterministic for a given `(seed, jobs)` input
/// regardless of scheduling.
pub fn run_parallel_tagging(
    latents: &[TagDistribution],
    vocab_size: u32,
    behavior: TaggerBehavior,
    jobs: &[TagJob],
    threads: usize,
    seed: u64,
) -> Vec<TagJobResult> {
    assert!(threads >= 1, "need at least one thread");
    let cursor = std::sync::atomic::AtomicUsize::new(0);

    let mut results: Vec<TagJobResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                let behavior = &behavior;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        // Independent deterministic stream per job: the result
                        // set does not depend on which thread ran the job.
                        let mut rng = StdRng::seed_from_u64(
                            seed ^ job.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        let latent = &latents[job.resource.index()];
                        let tags = behavior.generate_tags(latent, vocab_size, &mut rng);
                        out.push(TagJobResult {
                            resource: job.resource,
                            seq: job.seq,
                            tags,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("tagging threads must not panic"))
            .collect()
    });
    results.sort_by_key(|r| r.seq);
    results
}

/// Shared state of one [`pipelined_map`] run.
struct PipelineState<M> {
    /// Staged results waiting for the merger, indexed by item.
    staged: Vec<Option<M>>,
    /// Next item the merger will consume; deposits more than `depth`
    /// items ahead of this block (back-pressure).
    next_merge: usize,
    /// Next item allowed through the ordered handoff section.
    next_order: usize,
    /// Set when any thread panicked, so waiters fail instead of hanging.
    poisoned: bool,
}

/// Marks the pipeline poisoned if the owning thread unwinds mid-item, so
/// every blocked peer wakes up and propagates instead of deadlocking on a
/// turn that will never come.
struct PoisonOnPanic<'a, M> {
    state: &'a parking_lot::Mutex<PipelineState<M>>,
    cv: &'a parking_lot::Condvar,
    armed: bool,
}

impl<M> Drop for PoisonOnPanic<'_, M> {
    fn drop(&mut self) {
        if self.armed {
            self.state.lock().poisoned = true;
            self.cv.notify_all();
        }
    }
}

/// Scoped fan-out over owned work items with an ordered serial tail:
/// `threads` OS threads claim items off a shared atomic cursor, the
/// parallel work on each item is split around a cheap **ordered
/// handoff**, and a dedicated **merger thread** drains finished items in
/// input order while the workers keep going — the serial phase of item
/// `i` overlaps the parallel phases of items `> i` instead of stalling
/// the pool at a barrier. The engine ticks its project runtimes this way.
///
/// Per item `i`, four callbacks run in sequence:
///
/// 1. `work(i, item) -> A` — parallel, on whichever worker claimed `i`;
/// 2. `order(i, A) -> B` — called in **strict input order** under the
///    pipeline lock (a sequencer: keep it cheap — e.g. assigning an id
///    block from a running counter);
/// 3. `post(i, B) -> M` — parallel again, same worker;
/// 4. `merge(i, M) -> R` — on the single merger thread, in input order.
///
/// `depth` bounds how many items may sit staged-but-unmerged ahead of the
/// merger (min 1): a worker that finishes `post` blocks before depositing
/// until the merger is within `depth` items — back-pressure, so a slow
/// merger cannot be buried under an unbounded backlog.
///
/// Results come back in input order, and every `order`/`merge` call runs
/// in input order regardless of `threads` or `depth` — the caller never
/// sees scheduling. With one thread
/// (or one item) everything runs inline in input order, which is the
/// reference schedule the threaded runs must match.
///
/// Because `merge` is `FnMut` and single-threaded, it may carry mutable
/// state across items (a running ledger, an accumulator): the engine
/// applies each committed round's reputation deltas this way. Items whose
/// earlier phases run concurrently still reach that state strictly in
/// input order, so a stateful merge is exactly as deterministic as a
/// stateless one.
// Panics only to re-raise a worker's panic, or on a broken slot
// invariant; engine rounds on the wire reach it.
// lint: allow(panic-path)
pub fn pipelined_map<T, A, B, M, R, FW, FO, FP, FM>(
    items: Vec<T>,
    threads: usize,
    depth: usize,
    work: FW,
    order: FO,
    post: FP,
    mut merge: FM,
) -> Vec<R>
where
    T: Send,
    A: Send,
    B: Send,
    M: Send,
    R: Send,
    FW: Fn(usize, T) -> A + Sync,
    FO: Fn(usize, A) -> B + Sync,
    FP: Fn(usize, B) -> M + Sync,
    FM: FnMut(usize, M) -> R + Send,
{
    assert!(threads >= 1, "need at least one thread");
    let depth = depth.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if threads.min(n) == 1 {
        // The reference schedule: each item flows through all four phases
        // before the next starts. Threaded runs produce the same calls in
        // the same order by construction.
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| merge(i, post(i, order(i, work(i, t)))))
            .collect();
    }

    let slots: Vec<parking_lot::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| parking_lot::Mutex::named("crowd.pipeline.slot", Some(t)))
        .collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let state = parking_lot::Mutex::named(
        "crowd.pipeline.state",
        PipelineState::<M> {
            staged: (0..n).map(|_| None).collect(),
            next_merge: 0,
            next_order: 0,
            poisoned: false,
        },
    );
    let cv = parking_lot::Condvar::new();
    let work = &work;
    let order = &order;
    let post = &post;

    std::thread::scope(|scope| {
        let merger = {
            let state = &state;
            let cv = &cv;
            scope.spawn(move || {
                let mut guard = PoisonOnPanic {
                    state,
                    cv,
                    armed: true,
                };
                let mut out: Vec<R> = Vec::with_capacity(n);
                for i in 0..n {
                    let m = {
                        let mut s = state.lock();
                        loop {
                            if s.poisoned {
                                panic!("pipelined_map worker panicked");
                            }
                            if let Some(m) = s.staged[i].take() {
                                s.next_merge = i + 1;
                                break m;
                            }
                            cv.wait(&mut s);
                        }
                    };
                    // Workers blocked on back-pressure can move again.
                    cv.notify_all();
                    out.push(merge(i, m));
                }
                guard.armed = false;
                out
            })
        };

        for _ in 0..threads.min(n) {
            let slots = &slots;
            let cursor = &cursor;
            let state = &state;
            let cv = &cv;
            scope.spawn(move || {
                let mut guard = PoisonOnPanic {
                    state,
                    cv,
                    armed: true,
                };
                loop {
                    let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .take()
                        .expect("each slot is claimed exactly once");
                    let a = work(i, item);
                    // Ordered handoff: items pass through `order` in input
                    // order, under the pipeline lock.
                    let b = {
                        let mut s = state.lock();
                        while s.next_order != i {
                            if s.poisoned {
                                panic!("pipelined_map peer panicked");
                            }
                            cv.wait(&mut s);
                        }
                        let b = order(i, a);
                        s.next_order += 1;
                        cv.notify_all();
                        b
                    };
                    let m = post(i, b);
                    // Deposit for the merger, at most `depth` items ahead.
                    {
                        let mut s = state.lock();
                        while i >= s.next_merge + depth {
                            if s.poisoned {
                                panic!("pipelined_map peer panicked");
                            }
                            cv.wait(&mut s);
                        }
                        s.staged[i] = Some(m);
                        cv.notify_all();
                    }
                }
                guard.armed = false;
            });
        }

        merger.join().expect("pipeline merger must not panic")
    })
}

// lint: end determinism

#[cfg(test)]
mod tests {
    use super::*;

    fn latents() -> Vec<TagDistribution> {
        (0..5)
            .map(|i| TagDistribution::new(vec![(TagId(i * 10), 0.6), (TagId(i * 10 + 1), 0.4)]))
            .collect()
    }

    fn jobs(n: u64) -> Vec<TagJob> {
        (0..n)
            .map(|seq| TagJob {
                resource: ResourceId((seq % 5) as u32),
                seq,
            })
            .collect()
    }

    #[test]
    fn output_is_deterministic_across_thread_counts() {
        let l = latents();
        let js = jobs(200);
        let a = run_parallel_tagging(&l, 100, TaggerBehavior::casual(), &js, 1, 42);
        let b = run_parallel_tagging(&l, 100, TaggerBehavior::casual(), &js, 4, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seq, y.seq);
            assert_eq!(x.tags, y.tags, "job {} differs across thread counts", x.seq);
        }
    }

    #[test]
    fn every_job_is_completed_exactly_once() {
        let l = latents();
        let js = jobs(500);
        let out = run_parallel_tagging(&l, 100, TaggerBehavior::diligent(), &js, 8, 7);
        assert_eq!(out.len(), 500);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert!(!r.tags.is_empty());
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let l = latents();
        let out = run_parallel_tagging(&l, 100, TaggerBehavior::casual(), &[], 4, 1);
        assert!(out.is_empty());
    }

    #[test]
    fn pipelined_map_matches_the_inline_schedule_at_any_threads_and_depth() {
        let items: Vec<u64> = (0..157).collect();
        // Reference: one thread runs everything inline in input order.
        let reference = pipelined_map(
            items.clone(),
            1,
            1,
            |_, x: u64| x + 1,
            |_, a| a * 3,
            |_, b| b - 2,
            |i, m| m + i as u64,
        );
        for threads in [2usize, 3, 8] {
            for depth in [1usize, 2, 5, 100] {
                let out = pipelined_map(
                    items.clone(),
                    threads,
                    depth,
                    |_, x: u64| x + 1,
                    |_, a| a * 3,
                    |_, b| b - 2,
                    |i, m| m + i as u64,
                );
                assert_eq!(out, reference, "threads={threads} depth={depth}");
            }
        }
    }

    #[test]
    fn pipelined_map_runs_order_and_merge_in_strict_input_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let n = 64usize;
        let order_seen = AtomicUsize::new(0);
        let merge_seen = Mutex::new(Vec::new());
        let out = pipelined_map(
            (0..n).collect::<Vec<_>>(),
            4,
            2,
            |_, x: usize| x,
            |i, a| {
                // Each ordered-handoff call must be the next index.
                assert_eq!(order_seen.fetch_add(1, Ordering::SeqCst), i);
                a
            },
            |_, b| b,
            |i, m: usize| {
                merge_seen.lock().unwrap().push(i);
                m
            },
        );
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert_eq!(order_seen.load(Ordering::SeqCst), n);
        assert_eq!(*merge_seen.lock().unwrap(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn pipelined_map_stateful_merge_matches_the_inline_schedule() {
        // The merge closure may fold into mutable state it owns (the
        // engine's reputation ledger does exactly this). The folded state
        // must match the inline single-thread schedule at every thread
        // count and depth even under an order-sensitive fold.
        let items: Vec<u64> = (0..123).collect();
        let fold =
            |acc: u64, i: usize, m: u64| acc.wrapping_mul(0x100000001B3).wrapping_add(m ^ i as u64);
        let reference = {
            let mut acc = 0u64;
            let _ = pipelined_map(
                items.clone(),
                1,
                1,
                |_, x: u64| x * 7,
                |_, a| a,
                |_, b| b + 1,
                |i, m| {
                    acc = fold(acc, i, m);
                    m
                },
            );
            acc
        };
        for threads in [2usize, 4, 8] {
            for depth in [1usize, 3] {
                let mut acc = 0u64;
                let _ = pipelined_map(
                    items.clone(),
                    threads,
                    depth,
                    |_, x: u64| x * 7,
                    |_, a| a,
                    |_, b| b + 1,
                    |i, m| {
                        acc = fold(acc, i, m);
                        m
                    },
                );
                assert_eq!(
                    acc, reference,
                    "stateful merge diverged at threads={threads} depth={depth}"
                );
            }
        }
    }

    #[test]
    fn pipelined_map_backpressure_bounds_the_staged_backlog() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A deliberately slow merger: workers must never run more than
        // `depth` deposits ahead of it.
        let depth = 2usize;
        let staged = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = pipelined_map(
            (0..40u64).collect::<Vec<_>>(),
            4,
            depth,
            |_, x: u64| x,
            |_, a| a,
            |_, b| {
                let now = staged.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                b
            },
            |_, m: u64| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                staged.fetch_sub(1, Ordering::SeqCst);
                m * 2
            },
        );
        assert_eq!(out, (0..40u64).map(|x| x * 2).collect::<Vec<_>>());
        // `post` runs before the deposit blocks and the merger holds one
        // item while merging it, so up to depth + threads + 1 items can
        // be past `post` but not yet merged; the deposit window itself is
        // what the pipeline bounds. Without back-pressure the peak would
        // approach the full 40-item input.
        assert!(
            peak.load(Ordering::SeqCst) <= depth + 4 + 1,
            "staged backlog exceeded depth + threads + 1: {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    #[should_panic]
    fn pipelined_map_worker_panic_poisons_instead_of_hanging() {
        // A panicking `work` closure strands every peer: later items wait
        // for an order turn that will never come, and the merger waits
        // for a deposit that will never arrive. PoisonOnPanic must wake
        // them all so the call panics promptly instead of deadlocking —
        // this test hangs forever if that wakeup path breaks.
        let _ = pipelined_map(
            (0..32u64).collect::<Vec<_>>(),
            4,
            1,
            |_, x: u64| {
                if x == 3 {
                    panic!("worker died mid-item");
                }
                x
            },
            |_, a| a,
            |_, b| b,
            |_, m: u64| m,
        );
    }

    #[test]
    #[should_panic]
    fn pipelined_map_merger_panic_poisons_instead_of_hanging() {
        // Same contract from the other side: a panicking `merge` leaves
        // workers blocked on back-pressure; the poison flag must wake
        // and fail them rather than hang the scope join.
        let _ = pipelined_map(
            (0..32u64).collect::<Vec<_>>(),
            4,
            1,
            |_, x: u64| x,
            |_, a| a,
            |_, b| b,
            |i, m: u64| {
                if i == 2 {
                    panic!("merger died mid-item");
                }
                m
            },
        );
    }

    #[test]
    fn pipelined_map_handles_empty_and_single_item_input() {
        let nothing: Vec<u8> =
            pipelined_map(Vec::new(), 4, 2, |_, x: u8| x, |_, a| a, |_, b| b, |_, m| m);
        assert!(nothing.is_empty());
        let one = pipelined_map(
            vec![7u8],
            4,
            2,
            |_, x: u8| x,
            |_, a| a + 1,
            |_, b| b,
            |_, m| m,
        );
        assert_eq!(one, vec![8]);
        // Owned, non-`Copy` items move through every phase.
        let strings = vec!["a".to_string(), "bb".to_string(), "ccc".to_string()];
        let lens = pipelined_map(
            strings,
            2,
            1,
            |_, s: String| s,
            |_, s| s,
            |_, s| s.len(),
            |_, n| n,
        );
        assert_eq!(lens, vec![1, 2, 3]);
    }
}
