//! Demonstrates what the round pipeline buys: with a barrier schedule,
//! every worker thread stalls while the serial merge phase drains; with
//! [`itag::crowd::parallel::pipelined_map`], the merge of item `k`
//! overlaps the work on items `> k`, so the wall clock approaches
//! `max(parallel work, serial merge)` instead of their sum — even on one
//! core, when the phases spend their time waiting (I/O, fsync, channel
//! stalls) rather than computing.
//!
//! ```text
//! cargo run --release --example pipeline_overlap
//! ```

use itag::crowd::parallel::pipelined_map;
use std::time::{Duration, Instant};

fn main() {
    let items: Vec<u32> = (0..16).collect();
    let threads = 4;
    let work = Duration::from_millis(5);
    let merge = Duration::from_millis(5);

    // Barrier schedule: work everything (an empty merge tail), then
    // merge everything.
    let start = Instant::now();
    let staged = pipelined_map(
        items.clone(),
        threads,
        items.len(),
        |_, x| {
            std::thread::sleep(work);
            x
        },
        |_, x| x,
        |_, x| x,
        |_, x| x,
    );
    let merged: Vec<u32> = staged
        .into_iter()
        .map(|x| {
            std::thread::sleep(merge);
            x * 2
        })
        .collect();
    let barrier_time = start.elapsed();

    // Pipelined: a dedicated merger drains in order while workers go on.
    let start = Instant::now();
    let pipelined: Vec<u32> = pipelined_map(
        items,
        threads,
        2,
        |_, x| {
            std::thread::sleep(work);
            x
        },
        |_, x| x,
        |_, x| x,
        |_, x| {
            std::thread::sleep(merge);
            x * 2
        },
    );
    let pipelined_time = start.elapsed();

    assert_eq!(merged, pipelined, "identical results by contract");
    println!("barrier schedule: {barrier_time:?}");
    println!("round pipeline:   {pipelined_time:?}");
    println!(
        "overlap win: {:.2}x",
        barrier_time.as_secs_f64() / pipelined_time.as_secs_f64()
    );
}
