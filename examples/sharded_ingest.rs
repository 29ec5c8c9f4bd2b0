//! Sharded ingest: the single-node ingest paths side by side.
//!
//! A stream of per-second request counts (biased around a shared level,
//! a few anomalous seconds) is fed through the same `CountSketch`
//! configuration four ways:
//!
//! 1. **single** — one `update` call per item, the classical hot path;
//! 2. **batched** — `drive_chunked` + `update_batch`, the fast path
//!    that hoists the hash-family dispatch out of the item loop;
//! 3. **sharded** — `ShardedIngest`, batches fanned across per-thread
//!    shard sketches merged once by linearity (the paper's distributed
//!    protocol of §5.5 collapsed onto one machine) — k× counter memory;
//! 4. **concurrent-shared** — `ConcurrentIngest`, one writer thread
//!    feeding **one** `Atomic`-backed sketch that readers may copy
//!    while it is written — 1× counter memory, no merge step.
//!
//! All four produce the *same sketch* (bit-for-bit on this
//! integer-delta stream); only throughput and memory differ.
//!
//! Run with: `cargo run --release --example sharded_ingest`

use bias_aware_sketches::prelude::*;
use std::time::Instant;

fn main() {
    let n = 1_000_000u64;
    let total_updates = 4_000_000usize;
    let params = SketchParams::new(n, 4_096, 9).with_seed(11);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("available parallelism: {cores} core(s) (sharded paths need >1 to win)");

    // Synthetic traffic: most seconds see counts near the bias, a few
    // seconds spike. Deltas are integer-valued (the arrival model), so
    // every ingest path below agrees exactly.
    println!("generating {total_updates} updates over a universe of {n}...");
    let mut state = 0x5EED_CAFEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let updates: Vec<(u64, f64)> = (0..total_updates)
        .map(|_| {
            let item = next() % n;
            let delta = if item % 100_003 == 0 { 50.0 } else { 1.0 };
            (item, delta)
        })
        .collect();

    // ------------------------------------------------------------------
    // Path 1: single-item updates.
    // ------------------------------------------------------------------
    let t = Instant::now();
    let mut single = CountSketch::new(&params);
    for &(i, d) in &updates {
        single.update(i, d);
    }
    let single_secs = t.elapsed().as_secs_f64();
    report("single-item", total_updates, single_secs, single_secs);

    // ------------------------------------------------------------------
    // Path 2: chunked batches through the update_batch fast path.
    // ------------------------------------------------------------------
    let t = Instant::now();
    let mut batched = CountSketch::new(&params);
    let stream = updates.iter().map(|&(i, d)| StreamUpdate::new(i, d));
    let delivered = drive_chunked(
        stream,
        bias_aware_sketches::streaming::DEFAULT_CHUNK_SIZE,
        |c| batched.update_batch(c),
    );
    assert_eq!(delivered as usize, total_updates);
    report(
        "batched",
        total_updates,
        t.elapsed().as_secs_f64(),
        single_secs,
    );

    // ------------------------------------------------------------------
    // Path 3: sharded across worker threads, merged by linearity.
    // ------------------------------------------------------------------
    let mut sharded_sketches = Vec::new();
    for shards in [2usize, 4, 8] {
        let t = Instant::now();
        let mut ingest = ShardedIngest::new(shards, || CountSketch::new(&params));
        ingest.extend_from_slice(&updates);
        let sk = ingest.finish();
        report(
            &format!("sharded-{shards}"),
            total_updates,
            t.elapsed().as_secs_f64(),
            single_secs,
        );
        sharded_sketches.push(sk);
    }

    // ------------------------------------------------------------------
    // Path 4: one writer feeding ONE shared atomic-backed sketch.
    // ------------------------------------------------------------------
    let t = Instant::now();
    let mut ingest =
        ConcurrentIngest::new(EpochHandle::new(AtomicCountSketch::with_backend(&params)));
    ingest.extend_from_slice(&updates);
    let shared = ingest.finish();
    report(
        "concurrent-shared",
        total_updates,
        t.elapsed().as_secs_f64(),
        single_secs,
    );
    let words = single.size_in_words();
    println!(
        "  (memory: concurrent-shared holds {words} counter words; sharded-8 \
         held {} until its merge)",
        8 * words
    );

    // ------------------------------------------------------------------
    // Same sketch, four ways: spot-check estimates agree exactly.
    // ------------------------------------------------------------------
    let mut checked = 0u32;
    for j in (0..n).step_by(37_021) {
        let reference = single.estimate(j);
        assert_eq!(batched.estimate(j), reference, "batched item {j}");
        for sk in &sharded_sketches {
            assert_eq!(sk.estimate(j), reference, "sharded item {j}");
        }
        assert_eq!(
            shared.sketch().estimate(j),
            reference,
            "concurrent item {j}"
        );
        checked += 1;
    }
    println!("\nall paths agree exactly on {checked} spot-checked estimates");
    println!(
        "(linearity: merged same-seed shard sketches == the single-threaded sketch, paper §5.5;\n \
         one writer of one shared sketch == the same sketch again)"
    );
}

fn report(label: &str, updates: usize, secs: f64, baseline_secs: f64) {
    println!(
        "{label:>14}: {:>7.1} ms  {:>6.1} M items/s  ({:.2}x vs single)",
        secs * 1e3,
        updates as f64 / secs / 1e6,
        baseline_secs / secs,
    );
}
