//! The concurrency test suite for single-writer shared-sketch ingest.
//!
//! Pinned claims, per the storage layer's single-writer contract (one
//! writer per counter plane, any number of readers copying it while it
//! is written):
//!
//! 1. `Atomic`-backend **sequential** ingest is bit-for-bit equal to
//!    `Dense` — the backend is unobservable under exclusive access;
//! 2. `ConcurrentIngest` into one shared sketch, pinned and queried by
//!    `k − 1` reader threads while it flushes, equals single-threaded
//!    ingest **exactly** on integer-valued deltas;
//! 3. ...and on fractional deltas too: every cell receives its
//!    increments in stream order and readers never write, so nothing
//!    changes the rounding;
//! 4. the shared path composes with `ShardedIngest` and the chunked
//!    driver without changing results.
//!
//! The thread counts `k` default to {2, 8}; CI re-runs the suite under
//! `--release` with `BAS_TEST_THREADS=2` and `=8` explicitly, so both
//! run even if the defaults change (8 threads oversubscribe the
//! standard runner's cores, so readers preempt the writer mid-flush).

use bias_aware_sketches::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// Thread counts to exercise: `BAS_TEST_THREADS` (CI) or {2, 8}. A
/// count of `k` runs the one writer beside `k − 1` readers, or `k`
/// shards under `ShardedIngest`.
fn thread_counts() -> Vec<usize> {
    match std::env::var("BAS_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("BAS_TEST_THREADS must be a number")],
        Err(_) => vec![2, 8],
    }
}

const FLUSH: usize = 4_096;

/// Feeds `updates` through one `ConcurrentIngest` writer into `sketch`
/// while `threads − 1` reader threads pin snapshots of it, and returns
/// the settled sketch. Every pinned snapshot must sit on a flush
/// boundary.
fn ingest_while_read<S>(sketch: S, updates: &[(u64, f64)], threads: usize) -> EpochHandle<S>
where
    S: SharedSketch + Snapshottable + Send,
{
    let shared = EpochHandle::new(sketch);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 1..threads {
            let (reader, done) = (shared.clone(), &done);
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let snap = reader.pin();
                    let applied = snap.applied() as usize;
                    assert!(
                        applied % FLUSH == 0 || applied == updates.len(),
                        "snapshot at {applied} is not a flush boundary"
                    );
                    std::hint::black_box(snap.estimate(applied as u64 % N));
                }
            });
        }
        let mut ingest = ConcurrentIngest::new(shared.clone()).with_flush_threshold(FLUSH);
        ingest.extend_from_slice(updates);
        ingest.finish();
        done.store(true, Ordering::Release);
    });
    shared
}

const N: u64 = 2_000;

fn params() -> SketchParams {
    SketchParams::new(N, 128, 7).with_seed(33)
}

/// Deterministic integer-delta stream (the paper's arrival model).
fn integer_stream(len: u64) -> Vec<(u64, f64)> {
    let mut state = 0xBA5E_1111u64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % N, (1 + state % 9) as f64)
        })
        .collect()
}

/// Deterministic fractional turnstile stream.
fn fractional_stream(len: u64) -> Vec<(u64, f64)> {
    let mut state = 0xBA5E_2222u64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let delta = ((state % 2_000) as f64 - 600.0) / 128.0;
            (state % N, delta)
        })
        .collect()
}

#[test]
fn concurrent_count_sketch_integer_deltas_bit_for_bit() {
    let updates = integer_stream(60_000);
    let mut reference = CountSketch::new(&params());
    reference.update_batch(&updates);
    for threads in thread_counts() {
        let shared = ingest_while_read(
            AtomicCountSketch::with_backend(&params()),
            &updates,
            threads,
        );
        for j in 0..N {
            assert_eq!(
                shared.sketch().estimate(j),
                reference.estimate(j),
                "{threads} threads, item {j}"
            );
        }
    }
}

#[test]
fn concurrent_count_median_integer_deltas_bit_for_bit() {
    let updates = integer_stream(60_000);
    let mut reference = CountMedian::new(&params());
    reference.update_batch(&updates);
    for threads in thread_counts() {
        let shared = ingest_while_read(
            AtomicCountMedian::with_backend(&params()),
            &updates,
            threads,
        );
        for j in 0..N {
            assert_eq!(
                shared.sketch().estimate(j),
                reference.estimate(j),
                "{threads} threads, item {j}"
            );
        }
    }
}

#[test]
fn concurrent_fractional_deltas_bit_for_bit() {
    let updates = fractional_stream(60_000);
    let mut reference = CountSketch::new(&params());
    reference.update_batch(&updates);
    for threads in thread_counts() {
        let shared = ingest_while_read(
            AtomicCountSketch::with_backend(&params()),
            &updates,
            threads,
        );
        for j in 0..N {
            let (a, b) = (shared.sketch().estimate(j), reference.estimate(j));
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{threads} threads, item {j}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn shared_range_sum_matches_exclusive() {
    // Every dyadic level is one more plane with the same one writer,
    // so even fractional deltas land bit-for-bit.
    let updates = fractional_stream(20_000);
    let mut reference = RangeSumSketch::new(&params());
    for &(i, d) in &updates {
        reference.update(i, d);
    }
    for threads in thread_counts() {
        let shared = ingest_while_read(
            RangeSumSketch::<Atomic>::with_backend(&params()),
            &updates,
            threads,
        );
        for (a, b) in [(0u64, N - 1), (17, 1_200), (500, 501), (N - 64, N - 1)] {
            assert_eq!(
                shared.sketch().query(a, b).to_bits(),
                reference.query(a, b).to_bits(),
                "{threads} threads, range [{a},{b}]"
            );
        }
    }
}

#[test]
fn concurrent_matches_sharded_on_integer_deltas() {
    // The two multi-core strategies must agree with each other, not
    // just with the single-threaded reference: linearity (sharded) and
    // one writer under concurrent readers (shared) describe the same
    // sketch.
    let updates = integer_stream(40_000);
    for threads in thread_counts() {
        let shared = ingest_while_read(
            AtomicCountSketch::with_backend(&params()),
            &updates,
            threads,
        );

        let mut sharded_ingest =
            ShardedIngest::new(threads, || CountSketch::new(&params())).with_flush_threshold(2_048);
        sharded_ingest.extend_from_slice(&updates);
        let sharded = sharded_ingest.finish();

        for j in (0..N).step_by(7) {
            assert_eq!(
                shared.sketch().estimate(j),
                sharded.estimate(j),
                "{threads} threads, item {j}"
            );
        }
    }
}

#[test]
fn chunked_driver_feeds_shared_sketch() {
    // The driver's sink works against the shared path too: a receive
    // loop can be the one writer of a shared sketch.
    let updates = integer_stream(10_000);
    let shared = AtomicCountSketch::with_backend(&params());
    let stream = updates.iter().map(|&(i, d)| StreamUpdate::new(i, d));
    let delivered = drive_chunked(stream, 512, |chunk| shared.update_batch_shared(chunk));
    assert_eq!(delivered, 10_000);
    let mut reference = CountSketch::new(&params());
    reference.update_batch(&updates);
    for j in (0..N).step_by(13) {
        assert_eq!(shared.estimate(j), reference.estimate(j), "item {j}");
    }
}

#[test]
fn memory_accounting_shared_vs_sharded() {
    // The motivating arithmetic: ConcurrentIngest holds one sketch's
    // counters however many threads read it; ShardedIngest holds one
    // per shard. size_in_words counts counter words.
    let one = CountSketch::new(&params()).size_in_words();
    for threads in thread_counts() {
        let shared = EpochHandle::new(AtomicCountSketch::with_backend(&params()));
        let readers: Vec<_> = (1..threads).map(|_| shared.clone()).collect();
        let ingest = ConcurrentIngest::new(shared.clone());
        // One counter plane however many handles read it — versus the
        // `threads * one` words ShardedIngest holds until finish().
        assert_eq!(
            ingest.shared().sketch().size_in_words(),
            one,
            "{threads} threads"
        );
        assert!(readers.iter().all(|r| r.sketch().size_in_words() == one));
    }
}
