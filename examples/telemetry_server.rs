//! A miniature telemetry server on the live query plane.
//!
//! The north-star scenario: per-endpoint request counts stream in hot
//! (one ingest thread writing **one** shared Count-Median), while
//! reader threads serve queries off the same sketch the whole time:
//!
//! * **live point reads** — lock-free, straight off the atomic cells;
//! * **heavy-endpoint scans** — over epoch-pinned snapshots, so the
//!   scan sees one consistent stream prefix;
//! * **time-range sums** — a second engine wraps a `RangeSumSketch`
//!   keyed by second-of-day, answering "requests between 09:00 and
//!   09:05" from the same snapshot discipline;
//! * **mid-stream probes** — the `drive_probed` stream driver
//!   interleaves deterministic query checkpoints with ingest.
//!
//! At the end the example *gates itself*: the final snapshot must be
//! bit-identical to a single-threaded sketch of the same stream
//! (integer deltas make every path exact), and the range engine's
//! full-range estimate must match the true total within sketch error.
//!
//! This example is the **single-engine** deep dive. Its original
//! "wire two engines together by hand" framing is superseded by the
//! `serving_fabric` example, where `bas-server` owns the many-engine
//! story: per-tenant placement, the wire protocol, admission control
//! and live rebalance.
//!
//! Run with: `cargo run --release --example telemetry_server`

use bias_aware_sketches::prelude::*;
use std::time::Instant;

const ENDPOINTS: u64 = 100_000;
const SECONDS: u64 = 86_400;
const TOTAL: usize = 2_000_000;
const READERS: usize = 2;

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("telemetry server demo: {cores} core(s), 1 ingest writer, {READERS} readers");

    // Synthetic traffic: most endpoints hum along, two are hot, and
    // requests cluster in a morning rush window.
    let mut state = 0x7E1E_C0DEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let traffic: Vec<(u64, u64)> = (0..TOTAL)
        .map(|_| {
            let r = next();
            let endpoint = if r % 10 < 2 {
                if r % 2 == 0 {
                    42
                } else {
                    777
                } // 20% of traffic on two endpoints
            } else {
                r % ENDPOINTS
            };
            let second = if r % 10 < 4 {
                9 * 3600 + r % 1800 // 40% inside the 09:00–09:30 rush
            } else {
                r % SECONDS
            };
            (endpoint, second)
        })
        .collect();

    let point_params = SketchParams::new(ENDPOINTS, 4_096, 7).with_seed(13);
    let range_params = SketchParams::new(SECONDS, 2_048, 5).with_seed(14);
    let mut points = QueryEngine::new(AtomicCountMedian::with_backend(&point_params));
    let mut ranges = QueryEngine::new(RangeSumSketch::<Atomic>::with_backend(&range_params));

    // Reader threads hammer the point engine while the main thread
    // ingests; each does a bounded quota of live + snapshot reads.
    let handles: Vec<EpochHandle<_>> = (0..READERS).map(|_| points.handle()).collect();
    let ingest_clock = Instant::now();
    let mut reader_stats = Vec::new();
    std::thread::scope(|scope| {
        let spawned: Vec<_> = handles
            .into_iter()
            .map(|handle| {
                scope.spawn(move || {
                    let quota = 200_000usize;
                    let mut snap = handle.pin();
                    let mut item = 0xFEEDu64;
                    let mut acc = 0.0;
                    let t = Instant::now();
                    for q in 0..quota {
                        item = item.wrapping_mul(6364136223846793005).wrapping_add(1);
                        if q % 4 == 0 {
                            if q % 8_192 == 0 {
                                snap.refresh();
                            }
                            acc += snap.estimate(item % ENDPOINTS);
                        } else {
                            acc += handle.sketch().estimate(item % ENDPOINTS);
                        }
                    }
                    std::hint::black_box(acc);
                    (quota as f64 / t.elapsed().as_secs_f64(), snap.applied())
                })
            })
            .collect();

        // The ingest path: a probed stream driver interleaving
        // deterministic query checkpoints with chunked ingest.
        let stream = traffic
            .iter()
            .map(|&(endpoint, _)| StreamUpdate::new(endpoint, 1.0));
        let mut checkpoints = 0u64;
        let points_ref = std::cell::RefCell::new(&mut points);
        drive_probed(
            stream,
            8_192,
            64,
            |chunk| points_ref.borrow_mut().extend_from_slice(chunk),
            |progress| {
                let engine = points_ref.borrow();
                let snap = engine.pin();
                // The pinned prefix never runs ahead of what the driver
                // has delivered into the engine.
                assert!(snap.applied() <= progress.delivered);
                checkpoints += 1;
            },
        );
        points_ref.borrow_mut().flush();
        for h in spawned {
            reader_stats.push(h.join().expect("reader panicked"));
        }
        println!("mid-stream probe checkpoints served: {checkpoints}");
    });
    let ingest_secs = ingest_clock.elapsed().as_secs_f64();

    // Time-keyed ingest for the range engine (bulk, then quiesce).
    let seconds: Vec<(u64, f64)> = traffic.iter().map(|&(_, s)| (s, 1.0)).collect();
    ranges.extend_from_slice(&seconds);
    ranges.flush();

    println!(
        "ingest: {TOTAL} updates in {ingest_secs:.2}s ({:.2} M items/s, readers live throughout)",
        TOTAL as f64 / ingest_secs / 1e6
    );
    for (i, (qps, seen)) in reader_stats.iter().enumerate() {
        println!(
            "reader {i}: {:.2} M queries/s (last snapshot at stream position {seen})",
            qps / 1e6
        );
    }

    // Serve some queries off the final state.
    let snap = points.pin();
    println!(
        "endpoint 42: {:.0} requests (live {:.0})",
        snap.estimate(42),
        points.estimate_live(42)
    );
    let hot = points.heavy_hitters_in(&snap, 0.05);
    println!(
        "heavy endpoints (>=5% of {} requests): {:?}",
        snap.mass(),
        hot.iter().map(|h| h.item).collect::<Vec<_>>()
    );
    let rush = ranges.range_sum(9 * 3600, 9 * 3600 + 1799);
    println!(
        "requests 09:00-09:30: {rush:.0} (expect ~{})",
        2 * TOTAL / 5
    );

    // ---- exactness gates ----
    // 1) The final snapshot is bit-identical to a single-threaded
    //    sketch of the same stream.
    let mut reference = CountMedian::new(&point_params);
    let updates: Vec<(u64, f64)> = traffic.iter().map(|&(e, _)| (e, 1.0)).collect();
    reference.update_batch(&updates);
    for j in (0..ENDPOINTS).step_by(9_973) {
        assert_eq!(
            snap.estimate(j),
            reference.estimate(j),
            "exactness gate failed at endpoint {j}"
        );
    }
    assert_eq!(snap.applied(), TOTAL as u64);
    // 2) The planted heavy endpoints surface in the scan.
    let hot_items: Vec<u64> = hot.iter().map(|h| h.item).collect();
    assert!(
        hot_items.contains(&42) && hot_items.contains(&777),
        "{hot_items:?}"
    );
    // 3) The range engine's full-range estimate matches the total mass
    //    within Count-Median error at this width.
    let full = ranges.range_sum(0, SECONDS - 1);
    let tolerance = 0.05 * TOTAL as f64;
    assert!(
        (full - TOTAL as f64).abs() <= tolerance,
        "full-range {full} vs {TOTAL}"
    );
    println!("exactness gates passed: snapshot == single-threaded reference");
}
