//! Torn-read regression suite for the live query plane.
//!
//! The writer mutates the shared counter plane cell-by-cell; the claims
//! under test are that readers can never observe anything *worse* than
//! a bounded smear, and that pinned snapshots observe no smear at all:
//!
//! 1. **Live reads** (lock-free, no epoch discipline): on a
//!    non-negative integer stream every counter is monotone, so a live
//!    estimate taken at any instant — even mid-flush, racing the
//!    writer thread — lies in `[0, total mass]`. A violation would mean a
//!    torn counter value, which per-cell atomicity forbids.
//! 2. **Snapshot reads** (epoch-pinned): every pinned view is a flush
//!    boundary, i.e. exactly the first `applied()` pushed updates.
//!    Estimates from it are bounded by the *snapshot's own* mass, and
//!    are **bit-identical** to a quiesced sketch rebuilt over that
//!    same prefix — the acceptance bar for the query plane.
//!
//! CI re-runs this suite under `--release` (like
//! `tests/concurrent_ingest.rs`): atomics and memory-ordering bugs
//! hide in debug builds' serialization.

use bias_aware_sketches::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

const N: u64 = 1_000;

fn params() -> SketchParams {
    SketchParams::new(N, 128, 7).with_seed(51)
}

/// Deterministic non-negative integer stream (the cash-register
/// arrival model the invariants rely on).
fn stream(len: u64) -> Vec<(u64, f64)> {
    let mut state = 0x7EA5_0001u64;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % N, (1 + state % 8) as f64)
        })
        .collect()
}

/// Hammer live + snapshot reads from `readers` threads while one
/// producer flushes, asserting the mass invariants throughout.
/// Returns after the full stream is applied.
fn hammer<S>(sketch: S, readers: usize, updates: &[(u64, f64)])
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
{
    let total_mass: f64 = updates.iter().map(|&(_, d)| d).sum();
    let total_updates = updates.len() as u64;
    let mut engine = QueryEngine::new(sketch).with_flush_threshold(2_048);
    let handles: Vec<EpochHandle<S>> = (0..readers).map(|_| engine.handle()).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for handle in handles {
            let stop = &stop;
            scope.spawn(move || {
                let mut snap = handle.pin();
                let mut rounds = 0u64;
                loop {
                    let done = stop.load(Ordering::Acquire);
                    for j in (0..N).step_by(37) {
                        let live = handle.sketch().estimate(j);
                        assert!(
                            (0.0..=total_mass).contains(&live),
                            "live estimate {live} outside [0, {total_mass}] at item {j}"
                        );
                    }
                    snap.refresh();
                    assert!(
                        snap.mass() <= total_mass + 1e-9,
                        "snapshot mass {} exceeds stream mass {total_mass}",
                        snap.mass()
                    );
                    // Every capture is a flush boundary: a threshold
                    // multiple, or the final (partial) flush.
                    let applied = snap.applied();
                    assert!(
                        applied % 2_048 == 0 || applied == total_updates,
                        "snapshot off a flush boundary: {applied}"
                    );
                    for j in (0..N).step_by(53) {
                        let est = snap.estimate(j);
                        assert!(
                            (0.0..=snap.mass() + 1e-9).contains(&est),
                            "snapshot estimate {est} outside [0, {}] at item {j}",
                            snap.mass()
                        );
                    }
                    rounds += 1;
                    if done {
                        break;
                    }
                }
                assert!(rounds > 0);
            });
        }
        engine.extend_from_slice(updates);
        engine.flush();
        stop.store(true, Ordering::Release);
    });
    assert_eq!(engine.applied(), updates.len() as u64);
    assert_eq!(engine.mass(), total_mass);
}

#[test]
fn live_reads_racing_the_writer_stay_within_total_mass_count_median() {
    let updates = stream(150_000);
    hammer(AtomicCountMedian::with_backend(&params()), 4, &updates);
}

#[test]
fn live_reads_racing_the_writer_stay_within_total_mass_count_min() {
    let updates = stream(150_000);
    hammer(
        AtomicCountMin::with_backend(&params(), UpdatePolicy::Plain),
        4,
        &updates,
    );
}

#[test]
fn mid_stream_snapshot_is_bit_identical_to_quiesced_prefix() {
    // The acceptance criterion: a snapshot pinned while the writer is
    // live equals a fresh sketch fed exactly the captured prefix,
    // bit for bit, for every item in the universe.
    let updates = stream(200_000);
    let mut engine =
        QueryEngine::new(AtomicCountMedian::with_backend(&params())).with_flush_threshold(4_096);
    let reader = engine.handle();
    let captured = std::thread::scope(|scope| {
        let probe = scope.spawn(move || {
            // Keep pinning until we catch a strictly-mid-stream state.
            let mut snap = reader.pin();
            loop {
                snap.refresh();
                let applied = snap.applied();
                if applied > 0 && applied < 200_000 {
                    let estimates: Vec<f64> = (0..N).map(|j| snap.estimate(j)).collect();
                    return Some((applied, estimates));
                }
                if applied == 200_000 {
                    return None; // writer outran us; rare, not a failure
                }
                std::hint::spin_loop();
            }
        });
        engine.extend_from_slice(&updates);
        engine.flush();
        probe.join().expect("probe reader panicked")
    });
    if let Some((applied, estimates)) = captured {
        assert_eq!(applied % 4_096, 0, "prefix off a flush boundary");
        let mut reference = CountMedian::new(&params());
        reference.update_batch(&updates[..applied as usize]);
        for j in 0..N {
            assert_eq!(
                estimates[j as usize],
                reference.estimate(j),
                "mid-stream snapshot at prefix {applied}, item {j}"
            );
        }
    }
    // And the final snapshot equals the full-stream reference.
    let snap = engine.pin();
    let mut full = CountMedian::new(&params());
    full.update_batch(&updates);
    for j in 0..N {
        assert_eq!(
            snap.estimate(j),
            full.estimate(j),
            "final snapshot, item {j}"
        );
    }
}

#[test]
fn heavy_hitter_scans_race_writers_without_tearing() {
    // Plant two heavy items, then scan snapshots while the writer
    // ingests: every reported estimate must respect the snapshot's own
    // mass, and the quiesced scan must find the planted items.
    let mut updates = stream(60_000);
    for i in 0..30_000 {
        updates.push((7, 1.0));
        if i % 2 == 0 {
            updates.push((13, 1.0));
        }
    }
    let total_mass: f64 = updates.iter().map(|&(_, d)| d).sum();
    let mut engine =
        QueryEngine::new(AtomicCountMedian::with_backend(&params())).with_flush_threshold(2_048);
    let reader = engine.handle();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        let scanning_engine = engine.handle();
        scope.spawn(move || {
            let mut snap = scanning_engine.pin();
            while !stop.load(Ordering::Acquire) {
                snap.refresh();
                let threshold = 0.05 * snap.mass();
                for j in 0..N {
                    let est = snap.estimate(j);
                    assert!(est <= snap.mass() + 1e-9, "item {j}");
                    if est >= threshold {
                        // A candidate surfaced mid-scan must still be
                        // within the snapshot's settled state.
                        assert!(est <= total_mass + 1e-9);
                    }
                }
            }
            let _ = reader.applied();
        });
        engine.extend_from_slice(&updates);
        engine.flush();
        stop.store(true, Ordering::Release);
    });
    let found = engine.heavy_hitters(0.05);
    let items: Vec<u64> = found.iter().map(|h| h.item).collect();
    assert!(items.contains(&7), "{items:?}");
    assert!(items.contains(&13), "{items:?}");
}
