//! Window conformance suite: the acceptance gates of the windowed
//! query plane.
//!
//! Three families of claims, each tied to the linearity that makes
//! window serving possible at all (`Φx^{(a,t]} = Φx^{(0,t]} − Φx^{(0,a]}`):
//!
//! 1. **Oracle conformance** — tumbling and sliding window estimates
//!    (point, heavy-hitter, range-sum) match an exact brute-force
//!    oracle restricted to the window, within the same per-sketch
//!    error margins the since-boot suites assert (Theorem 1 shape,
//!    `3·mass/s`, with the *window's* mass) — on Zipf and uniform
//!    timestamped streams, quiescent and mid-ingest.
//! 2. **Plane arithmetic** — a sliding-window plane equals the
//!    merge of per-interval delta planes (differences of adjacent
//!    seals) plus the live partial interval, and a fresh sketch of the
//!    window's own updates, **bit for bit** on integer-delta streams:
//!    subtraction of cumulative planes and addition of delta planes
//!    are the same exact integer arithmetic.
//! 3. **Rotation under the hammer** — with the writer flushing into the
//!    shared plane and reader threads hammering the seqlock, every
//!    sealed plane is exactly the sketch of a flush-boundary prefix of
//!    the stream, bit for bit, and pinned window snapshots stay frozen
//!    while ingest continues.
//!
//! Streams come from `bas_data::TimestampedStreamGen`, a deterministic
//! interval-major source, so each interval's updates are one slice.

use bias_aware_sketches::prelude::*;
use proptest::prelude::*;

const WIDTH: usize = 256;
const DEPTH: usize = 7;

/// Theorem-1-shaped point-estimate margin at this width, on the
/// window's own mass (the window plane is a Count-Median sketch of the
/// window vector, so the since-boot margin applies verbatim).
///
/// Constant 8 rather than the heavy-hitter suite's 3 because these
/// assertions gate **every** item of every case, not just the
/// heavy/light boundary: per row, `P[deviation > t·mass/s] ≤ 1/t`
/// (Markov), so the depth-7 median exceeds the margin with probability
/// `≈ C(7,4)/t⁴ ≈ 0.9%` at `t = 8` — and proptest's deterministic
/// seeding pins the observed outcome.
fn margin(window_mass: f64) -> f64 {
    8.0 * window_mass / WIDTH as f64
}

/// Exact frequency oracle over a slice of the timestamped stream.
fn oracle_freqs(n: u64, updates: &[TimestampedUpdate]) -> Vec<f64> {
    let mut x = vec![0.0f64; n as usize];
    for u in updates {
        x[u.item as usize] += u.delta;
    }
    x
}

/// Builds a windowed engine over `stream`, rotating at every interval
/// boundary, leaving the final interval in progress (flushed).
fn drive_windowed(
    params: &SketchParams,
    policy: impl Into<Policy>,
    stream: &[TimestampedUpdate],
) -> QueryEngine<AtomicCountMedian> {
    let engine = std::cell::RefCell::new(QueryEngine::with_policy(
        1,
        AtomicCountMedian::with_backend(params),
        policy,
    ));
    drive_timestamped(
        stream.iter().copied(),
        512,
        |chunk| engine.borrow_mut().extend_from_slice(chunk),
        |_| {
            engine.borrow_mut().advance_interval();
        },
    );
    let mut engine = engine.into_inner();
    engine.flush();
    engine
}

/// The window's exact update slice, using the generator's
/// interval-major layout (`per_interval` updates per interval).
fn window_slice<'a>(
    stream: &'a [TimestampedUpdate],
    per_interval: usize,
    start_interval: u64,
) -> &'a [TimestampedUpdate] {
    &stream[start_interval as usize * per_interval..]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (1a) Sliding-window point estimates vs the exact window oracle,
    /// Zipf and uniform, across window lengths and seeds.
    #[test]
    fn sliding_point_estimates_match_window_oracle(
        seed in 0u64..500,
        window in 1usize..4,
        zipf in prop::bool::ANY,
    ) {
        let n = 400u64;
        let (intervals, per_interval) = (5u64, 300usize);
        let gen = if zipf {
            TimestampedStreamGen::zipf(n, intervals, per_interval, 1.1)
        } else {
            TimestampedStreamGen::uniform(n, intervals, per_interval)
        }
        .with_seed(seed)
        .with_max_delta(3);
        let stream = gen.generate();
        let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(seed ^ 0xA0);
        let engine = drive_windowed(&params, Sliding::new(window).unwrap(), &stream);

        let win = engine.pin_window();
        // drive_timestamped leaves the last interval open; Sliding(K)
        // covers it plus the K−1 seals before it (or back to boot).
        let expect_start = (intervals - 1).saturating_sub(window as u64 - 1);
        prop_assert_eq!(win.start_interval(), expect_start);
        let truth = oracle_freqs(n, window_slice(&stream, per_interval, win.start_interval()));
        let mass: f64 = truth.iter().sum();
        prop_assert_eq!(win.mass(), mass); // exact bookkeeping
        for (item, &x) in truth.iter().enumerate() {
            let est = win.estimate(item as u64);
            prop_assert!(
                (est - x).abs() <= margin(mass),
                "item {item}: window est {est} vs truth {x} (mass {mass})"
            );
        }
    }

    /// (1a') Tumbling-window point estimates: same oracle, bucket
    /// semantics (the window resets at bucket boundaries).
    #[test]
    fn tumbling_point_estimates_match_bucket_oracle(
        seed in 0u64..500,
        bucket in 2usize..4,
        zipf in prop::bool::ANY,
    ) {
        let n = 400u64;
        let (intervals, per_interval) = (6u64, 250usize);
        let gen = if zipf {
            TimestampedStreamGen::zipf(n, intervals, per_interval, 1.2)
        } else {
            TimestampedStreamGen::uniform(n, intervals, per_interval)
        }
        .with_seed(seed);
        let stream = gen.generate();
        let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(seed ^ 0x70);
        let engine = drive_windowed(&params, Tumbling::new(bucket).unwrap(), &stream);

        let win = engine.pin_window();
        let current = intervals - 1;
        let bucket_start = current - current % bucket as u64;
        prop_assert_eq!(win.start_interval(), bucket_start);
        let truth = oracle_freqs(n, window_slice(&stream, per_interval, bucket_start));
        let mass: f64 = truth.iter().sum();
        prop_assert_eq!(win.mass(), mass);
        for (item, &x) in truth.iter().enumerate() {
            let est = win.estimate(item as u64);
            prop_assert!(
                (est - x).abs() <= margin(mass),
                "item {item}: bucket est {est} vs truth {x}"
            );
        }
    }

    /// (1b) Window heavy hitters vs the exact oracle restricted to the
    /// window, with the Theorem-1 recall/precision margins — including
    /// items that are heavy since boot but NOT in the window (they must
    /// not be reported).
    #[test]
    fn window_heavy_hitters_match_window_oracle(
        seed in 0u64..500,
        zipf in prop::bool::ANY,
    ) {
        let n = 400u64;
        let (intervals, per_interval) = (4u64, 400usize);
        let gen = if zipf {
            TimestampedStreamGen::zipf(n, intervals, per_interval, 1.3)
        } else {
            TimestampedStreamGen::uniform(n, intervals, per_interval)
        }
        .with_seed(seed);
        let stream = gen.generate();
        let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(seed ^ 0x44);
        let engine = drive_windowed(&params, Sliding::new(1).unwrap(), &stream);

        let win = engine.pin_window();
        let truth = oracle_freqs(n, window_slice(&stream, per_interval, win.start_interval()));
        let mass: f64 = truth.iter().sum();
        let phi = 0.05;
        let reported: Vec<u64> = engine
            .heavy_hitters_in_window(phi)
            .unwrap()
            .iter()
            .map(|h| h.item)
            .collect();
        let threshold = phi * mass;
        for (item, &x) in truth.iter().enumerate() {
            if x >= threshold + margin(mass) {
                prop_assert!(
                    reported.contains(&(item as u64)),
                    "missed window-heavy item {item} (window x = {x}, threshold {threshold})"
                );
            }
        }
        for &item in &reported {
            prop_assert!(
                truth[item as usize] >= threshold - margin(mass),
                "window false positive {item} (window x = {}, threshold {threshold})",
                truth[item as usize]
            );
        }
    }

    /// (2) Plane arithmetic, bit for bit: the sliding-window plane
    /// (cumulative − boundary seal) equals the sum of per-interval
    /// delta planes (adjacent-seal differences) plus the live partial
    /// interval — two different plane-arithmetic routes to the same
    /// integer counters — and equals a fresh sketch of the window's
    /// own updates, whose count is the live plane's `applied` less the
    /// boundary seal's.
    #[test]
    fn sliding_window_equals_merged_delta_planes_bit_for_bit(
        seed in 0u64..500,
        window in 2usize..4,
    ) {
        let n = 300u64;
        let (intervals, per_interval) = (5u64, 240usize);
        let stream = TimestampedStreamGen::zipf(n, intervals, per_interval, 1.1)
            .with_seed(seed)
            .with_max_delta(4)
            .generate();
        let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(seed ^ 0x22);
        let mut ingest =
            WindowedIngest::new(AtomicCountMedian::with_backend(&params), window);
        // Hand-rolled drive (the interval-major layout makes it
        // trivial): extend each interval's slice, then rotate.
        for t in 0..intervals {
            let slice = &stream[t as usize * per_interval..(t as usize + 1) * per_interval];
            let updates: Vec<(u64, f64)> = slice.iter().map(|u| (u.item, u.delta)).collect();
            ingest.extend_from_slice(&updates);
            if t < intervals - 1 {
                ingest.advance_interval();
            }
        }
        ingest.flush();

        let shared = ingest.shared();
        let current = ingest.interval(); // == intervals − 1, in progress
        let boundary = current - window as u64; // Sliding(window) boundary

        // Route A: cumulative(now) − sealed(boundary).
        let mut route_a = shared.pin().into_snapshot();
        shared
            .sketch().subtract_snapshot(&mut route_a, ingest.bank().sealed(boundary).unwrap().plane())
            .unwrap();

        // Route B: Σ per-interval delta planes + live partial interval.
        let mut route_b = shared.sketch().make_snapshot(); // zero plane
        for t in (boundary + 1)..current {
            // delta(t) = sealed(t) − sealed(t−1)
            let mut delta = ingest.bank().sealed(t).unwrap().plane().clone();
            shared
                .sketch().subtract_snapshot(&mut delta, ingest.bank().sealed(t - 1).unwrap().plane())
                .unwrap();
            shared.sketch().merge_snapshot(&mut route_b, &delta).unwrap();
        }
        let mut live_partial = shared.pin().into_snapshot();
        shared
            .sketch().subtract_snapshot(
                &mut live_partial,
                ingest.bank().sealed(current - 1).unwrap().plane(),
            )
            .unwrap();
        shared.sketch().merge_snapshot(&mut route_b, &live_partial).unwrap();

        // Route C: a fresh sketch of the window's raw updates. Routes
        // A and B both telescope to `live − seal(boundary)` whatever
        // the seals hold; this one reads no seal, so it also pins the
        // boundary seal to the stream prefix its interval closed.
        let window_updates: Vec<(u64, f64)> = window_slice(&stream, per_interval, boundary + 1)
            .iter()
            .map(|u| (u.item, u.delta))
            .collect();
        let mut reference = CountMedian::new(&params);
        reference.update_batch(&window_updates);
        let mut route_c = reference.make_snapshot();
        reference.snapshot_into(&mut route_c);
        let boundary_applied = ingest.bank().sealed(boundary).unwrap().applied();
        prop_assert_eq!(
            window_updates.len() as u64,
            shared.applied() - boundary_applied
        );

        // Bit-for-bit: integer cumulative counters < 2^53, so all
        // three routes compute the same exact integers.
        prop_assert_eq!(&route_a, &route_c);
        prop_assert_eq!(route_a, route_b);
    }
}

/// (1c) Window range sums vs the exact oracle restricted to the
/// window. The dyadic stack sums `O(log n)` Count-Median point
/// estimates per query, so the margin scales the Theorem-1 shape by
/// the decomposition length.
#[test]
fn window_range_sums_match_window_oracle() {
    let n = 256u64;
    let (intervals, per_interval) = (4u64, 500usize);
    for (seed, zipf) in [(3u64, true), (4, false), (9, true), (11, false)] {
        let gen = if zipf {
            TimestampedStreamGen::zipf(n, intervals, per_interval, 1.1)
        } else {
            TimestampedStreamGen::uniform(n, intervals, per_interval)
        }
        .with_seed(seed)
        .with_max_delta(2);
        let stream = gen.generate();
        let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(seed);
        let policy = Sliding::new(1).unwrap();
        let mut engine =
            QueryEngine::with_policy(1, RangeSumSketch::<Atomic>::with_backend(&params), policy);
        for t in 0..intervals {
            let slice = &stream[t as usize * per_interval..(t as usize + 1) * per_interval];
            let updates: Vec<(u64, f64)> = slice.iter().map(|u| (u.item, u.delta)).collect();
            engine.extend_from_slice(&updates);
            if t < intervals - 1 {
                engine.advance_interval();
            }
        }
        engine.flush();

        let win = engine.pin_window();
        let truth = oracle_freqs(n, window_slice(&stream, per_interval, win.start_interval()));
        let mass: f64 = truth.iter().sum();
        // ≤ 2 dyadic blocks per level, each a Theorem-1 point estimate.
        let range_margin = 2.0 * (n as f64).log2() * margin(mass);
        for (a, b) in [(0u64, 255u64), (3, 90), (64, 64), (10, 200), (200, 255)] {
            let exact: f64 = truth[a as usize..=b as usize].iter().sum();
            let est = win.range_sum(a, b).unwrap();
            assert!(
                (est - exact).abs() <= range_margin,
                "seed {seed} range [{a},{b}]: window est {est} vs exact {exact} (margin {range_margin})"
            );
            let engine_est = engine.range_sum_in_window(a, b).unwrap();
            assert!(
                (engine_est - exact).abs() <= range_margin,
                "seed {seed} range [{a},{b}]: engine window est {engine_est}"
            );
        }
    }
}

/// (1, mid-ingest) A window pinned while the buffered tail has NOT
/// been flushed covers exactly the flush-boundary prefix of the
/// in-progress interval: the window equals a reference sketch of the
/// window's closed intervals plus the flushed prefix, bit for bit.
#[test]
fn mid_ingest_window_is_a_flush_boundary_prefix() {
    let n = 400u64;
    let per_interval = 1_000usize;
    let threshold = 256usize;
    let stream = TimestampedStreamGen::zipf(n, 3, per_interval, 1.1)
        .with_seed(21)
        .with_max_delta(3)
        .generate();
    let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(5);
    let policy = Sliding::new(1).unwrap();
    let mut engine = QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), policy)
        .with_flush_threshold(threshold);
    // Close intervals 0 and 1; push 60% of interval 2 WITHOUT flushing.
    for t in 0..2usize {
        let updates: Vec<(u64, f64)> = stream[t * per_interval..(t + 1) * per_interval]
            .iter()
            .map(|u| (u.item, u.delta))
            .collect();
        engine.extend_from_slice(&updates);
        engine.advance_interval();
    }
    let partial: Vec<(u64, f64)> = stream[2 * per_interval..2 * per_interval + 600]
        .iter()
        .map(|u| (u.item, u.delta))
        .collect();
    engine.extend_from_slice(&partial);
    assert!(engine.pending() > 0, "tail must still be buffered");

    let win = engine.pin_window();
    // Window = interval 2's flushed prefix only (Sliding(1), boundary
    // at the end of interval 1). Flushes land at threshold multiples.
    let flushed = (600 / threshold) * threshold;
    assert_eq!(win.applied(), flushed as u64);
    let mut reference = CountMedian::new(&params);
    reference.update_batch(&partial[..flushed]);
    for j in 0..n {
        assert_eq!(win.estimate(j), reference.estimate(j), "item {j}");
    }
}

/// (3) Rotation under the torn-read hammer: every sealed
/// plane is the sketch of a flush-boundary prefix (bit-for-bit equal
/// to a quiesced reference over exactly `seal.applied()` updates),
/// while reader threads hammer the seqlock with pins and live reads,
/// and previously pinned window snapshots stay frozen.
#[test]
fn rotation_under_writer_hammer_seals_only_flush_boundary_prefixes() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let n = 500u64;
    let (intervals, per_interval) = (6u64, 20_000usize);
    let stream = TimestampedStreamGen::zipf(n, intervals, per_interval, 1.05)
        .with_seed(13)
        .with_max_delta(8)
        .generate();
    let flat: Vec<(u64, f64)> = stream.iter().map(|u| (u.item, u.delta)).collect();
    let total_mass: f64 = flat.iter().map(|&(_, d)| d).sum();
    let params = SketchParams::new(n, 128, 7).with_seed(51);
    let policy = Sliding::new(2).unwrap();
    let mut engine = QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), policy)
        .with_flush_threshold(2_048);

    let readers: Vec<EpochHandle<AtomicCountMedian>> = (0..2).map(|_| engine.handle()).collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for handle in readers {
            let stop = &stop;
            scope.spawn(move || {
                let mut snap = handle.pin();
                while !stop.load(Ordering::Relaxed) {
                    snap.refresh();
                    // Seqlock invariant: a pinned snapshot is a settled
                    // prefix, so its mass never exceeds the stream's.
                    assert!(snap.mass() <= total_mass + 1e-9);
                    for j in (0..n).step_by(67) {
                        assert!(snap.estimate(j) <= snap.mass() + 1e-9);
                        let _ = handle.sketch().estimate(j);
                    }
                }
            });
        }

        let mut reference = CountMedian::new(&params);
        let mut frozen_window: Option<(WindowSnapshot<AtomicCountMedian>, Vec<f64>)> = None;
        for t in 0..intervals as usize {
            let slice = &flat[t * per_interval..(t + 1) * per_interval];
            engine.extend_from_slice(slice);
            reference.update_batch(slice);
            if t < intervals as usize - 1 {
                let sealed = engine.advance_interval();
                assert_eq!(sealed, t as u64);
                // The seal is a flush-boundary prefix: bit-for-bit the
                // reference over exactly the pushed updates.
                let win = engine.pin_window_since(sealed).unwrap();
                assert_eq!(win.applied(), 0, "nothing past the seal yet");
                let cumulative = engine.pin();
                assert_eq!(cumulative.applied(), ((t + 1) * per_interval) as u64);
                for j in (0..n).step_by(11) {
                    assert_eq!(
                        cumulative.estimate(j),
                        reference.estimate(j),
                        "interval {t}, item {j}"
                    );
                }
                // Freeze one window mid-run; it must never move again.
                if t == 2 {
                    let win = engine.pin_window();
                    let values: Vec<f64> = (0..n).map(|j| win.estimate(j)).collect();
                    frozen_window = Some((win, values));
                }
            }
        }
        engine.flush();
        stop.store(true, Ordering::Relaxed);

        let (win, values) = frozen_window.expect("window pinned at interval 2");
        for (j, &v) in values.iter().enumerate() {
            assert_eq!(win.estimate(j as u64), v, "pinned window moved at item {j}");
        }
    });

    // Quiesced: final window = last 2 intervals exactly.
    let win = engine.pin_window();
    assert_eq!(win.start_interval(), intervals - 2);
    let truth = oracle_freqs(n, &stream[(intervals as usize - 2) * per_interval..]);
    assert_eq!(win.mass(), truth.iter().sum::<f64>());
    let mut window_reference = CountMedian::new(&params);
    window_reference.update_batch(&flat[(intervals as usize - 2) * per_interval..]);
    for j in 0..n {
        assert_eq!(win.estimate(j), window_reference.estimate(j), "item {j}");
    }
}

/// The Unbounded policy really is the pre-window engine: same applied
/// count, same estimates.
#[test]
fn unbounded_policy_matches_pre_window_behavior() {
    let n = 300u64;
    let stream = TimestampedStreamGen::uniform(n, 3, 500)
        .with_seed(2)
        .generate();
    let flat: Vec<(u64, f64)> = stream.iter().map(|u| (u.item, u.delta)).collect();
    let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(8);
    let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params));
    engine.extend_from_slice(&flat);
    engine.flush();
    let mut reference = CountMedian::new(&params);
    reference.update_batch(&flat);
    assert_eq!(engine.applied(), flat.len() as u64);
    let snap = engine.pin();
    for j in 0..n {
        assert_eq!(snap.estimate(j), reference.estimate(j), "item {j}");
        assert_eq!(engine.estimate_live(j), reference.estimate(j), "item {j}");
    }
}
