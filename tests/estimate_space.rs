//! Estimate-space vs counter-space window combination.
//!
//! The robustness plane answers windows over rotated (heterogeneous-
//! seed) planes by combining per-plane **estimates**
//! (`combine_plane_estimates`), because adding their counters is
//! unsound. This suite pins the contract that makes the estimate-space
//! path a safe default on the *homogeneous* side too:
//!
//! * On same-config planes, [`EstimateCombine::Sum`] counter-merges
//!   internally, so its answers agree with the existing counter-space
//!   `sub_matrix`/`merge_snapshot` window path **bit for bit** for
//!   Count-Median and Count-Sketch point queries (integer-delta
//!   streams; `f64` addition of integer-valued counters is exact).
//! * Heavy-hitter scans over the two paths return the same item sets
//!   with estimates equal to within `1e-9` (the sets are derived from
//!   the same thresholds on bit-equal estimates; the margin documents
//!   the guarantee without relying on scan-order details).
//! * For replicated planes, Mean/Median treat each plane as one vote:
//!   identical-seed replicas are a fixed point, and independent-seed
//!   replicas stay within the per-plane Theorem-1 error bound.
//!
//! Randomized structure (seeded streams over several shapes) in the
//! style of `tests/properties.rs`, plus deterministic engine-vs-plane
//! cross-checks against the live windowed `QueryEngine`.

use bias_aware_sketches::prelude::*;
use proptest::prelude::*;

const N: u64 = 500;
const WIDTH: usize = 64;
const DEPTH: usize = 5;

fn params(seed: u64) -> SketchParams {
    SketchParams::new(N, WIDTH, DEPTH).with_seed(seed)
}

/// A deterministic integer-delta stream for one interval, distinct per
/// interval and stream seed.
fn interval_stream(stream_seed: u64, interval: u64, len: u64) -> Vec<(u64, f64)> {
    (0..len)
        .map(|i| {
            let x = i
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(interval.wrapping_mul(0x85EB_CA6B))
                .wrapping_add(stream_seed);
            ((x >> 3) % N, (1 + x % 4) as f64)
        })
        .collect()
}

/// Freezes a Dense sketch of exactly `updates` under `params`.
fn plane_of(
    params: &SketchParams,
    updates: &[(u64, f64)],
) -> (CountMedian, <CountMedian as Snapshottable>::Snapshot) {
    let mut cm = CountMedian::new(params);
    cm.update_batch(updates);
    let mut snap = cm.make_snapshot();
    cm.snapshot_into(&mut snap);
    (cm, snap)
}

/// The counter-space reference: one sketch over the union of the
/// window's updates (equivalent to the engine's `cumulative − seal`
/// plane by linearity).
fn windowed_reference(params: &SketchParams, window: &[Vec<(u64, f64)>]) -> CountMedian {
    let mut cm = CountMedian::new(params);
    for interval in window {
        cm.update_batch(interval);
    }
    cm
}

#[test]
fn cm_sum_over_homogeneous_planes_matches_engine_window_bit_for_bit() {
    // Live windowed engine: counter-space `cumulative − seal` path.
    let policy = Sliding::new(3).unwrap();
    let mut engine =
        QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params(7)), policy);
    let mut per_interval = Vec::new();
    for t in 0..5u64 {
        let updates = interval_stream(1, t, 700);
        engine.extend_from_slice(&updates);
        per_interval.push(updates);
        engine.advance_interval();
    }
    let window = engine.pin_window();
    assert_eq!(window.start_interval(), 3); // intervals 3, 4 (+ empty 5)

    // Estimate-space path: one frozen plane per window interval, all
    // sharing the engine's config, combined with Sum.
    let planes: Vec<_> = (3..5)
        .map(|t| plane_of(&params(7), &per_interval[t as usize]))
        .collect();
    let entries: Vec<(&CountMedian, _)> = planes.iter().map(|(cm, snap)| (cm, snap)).collect();
    let items: Vec<u64> = (0..N).collect();
    let combined = combine_plane_estimates(&entries, &items, EstimateCombine::Sum);
    for (j, est) in items.iter().zip(&combined) {
        // Bit-for-bit: same config → one counter-merged group → the
        // exact counter-space window estimate.
        assert_eq!(*est, window.estimate(*j), "item {j}");
    }
}

/// The rotating engine's window answer is the sum of independent
/// per-generation references: one `CountMedian` per window interval,
/// built under `SeedSchedule::seed_for(g)` from that interval's
/// updates, the open (live) interval counted as one of them. Integer
/// deltas, so the sum is exact and the match is bit for bit — for
/// point estimates, for the window heavy-hitter scan (against
/// `heavy_hitters_across` over the reference planes, live first), and
/// for the window's `applied` and `mass`.
#[test]
fn rotating_window_equals_sum_of_per_generation_references() {
    let (window, intervals, per_interval) = (4u64, 9u64, 600usize);
    let schedule = SeedSchedule::new(7);
    let stream = TimestampedStreamGen::zipf(N, intervals, per_interval, 1.1)
        .with_seed(11)
        .with_max_delta(4)
        .generate();
    let sketch = AtomicCountMedian::with_backend(&params(7));
    let policy = Policy::Rotating(Sliding::new(window as usize).unwrap());
    let engine = std::cell::RefCell::new(QueryEngine::with_policy(1, sketch, policy));
    drive_timestamped(
        stream.iter().copied(),
        256,
        |chunk| engine.borrow_mut().extend_from_slice(chunk),
        |_| {
            engine.borrow_mut().advance_interval();
        },
    );
    let mut engine = engine.into_inner();
    engine.flush();
    assert_eq!(
        engine.interval(),
        intervals - 1,
        "the last interval stays open"
    );

    let references: Vec<CountMedian> = (intervals - window..intervals)
        .map(|g| {
            let start = g as usize * per_interval;
            let updates: Vec<(u64, f64)> = stream[start..start + per_interval]
                .iter()
                .map(|u| (u.item, u.delta))
                .collect();
            windowed_reference(&params(schedule.seed_for(g)), &[updates])
        })
        .collect();
    for j in 0..N {
        let expected: f64 = references.iter().map(|r| r.estimate(j)).sum();
        assert_eq!(
            engine.point_in_window(j).to_bits(),
            expected.to_bits(),
            "item {j}"
        );
    }

    // The window's totals are the references' totals.
    let masses: Vec<f64> = (intervals - window..intervals)
        .map(|g| {
            let start = g as usize * per_interval;
            let updates = &stream[start..start + per_interval];
            updates.iter().map(|u| u.delta).sum()
        })
        .collect();
    let (live_mass, closed_masses) = masses.split_last().unwrap();
    let mass = live_mass + closed_masses.iter().sum::<f64>();
    assert_eq!(engine.applied(), window * per_interval as u64);
    assert_eq!(engine.mass().to_bits(), mass.to_bits());

    // The window scan equals `heavy_hitters_across` over the reference
    // planes, ordered live first, then closed generations oldest first.
    let planes: Vec<_> = references
        .iter()
        .map(|r| {
            let mut snap = r.make_snapshot();
            r.snapshot_into(&mut snap);
            snap
        })
        .collect();
    let mut entries: Vec<(&CountMedian, _)> = references.iter().zip(&planes).collect();
    entries.rotate_right(1);
    for phi in [0.01, 0.02, 0.05] {
        let expected = heavy_hitters_across(&entries, mass, phi, EstimateCombine::Sum).unwrap();
        let got = engine.heavy_hitters_in_window(phi).unwrap();
        assert!(!got.is_empty(), "phi {phi}");
        let bits = |hh: &[HeavyHitter]| {
            hh.iter()
                .map(|h| (h.item, h.estimate.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&got), bits(&expected), "phi {phi}");
    }
}

#[test]
fn cs_sum_over_homogeneous_planes_matches_counter_space_bit_for_bit() {
    let first = interval_stream(2, 0, 900);
    let second = interval_stream(2, 1, 600);
    let build = |updates: &[(u64, f64)]| {
        let mut cs = CountSketch::new(&params(9));
        cs.update_batch(updates);
        let mut snap = cs.make_snapshot();
        cs.snapshot_into(&mut snap);
        (cs, snap)
    };
    let (a, snap_a) = build(&first);
    let (b, snap_b) = build(&second);

    // Counter-space: merge then estimate.
    let mut merged = a.make_snapshot();
    a.merge_snapshot(&mut merged, &snap_a).unwrap();
    a.merge_snapshot(&mut merged, &snap_b).unwrap();

    let items: Vec<u64> = (0..N).collect();
    let combined = combine_plane_estimates(
        &[(&a, &snap_a), (&b, &snap_b)],
        &items,
        EstimateCombine::Sum,
    );
    for (j, est) in items.iter().zip(&combined) {
        assert_eq!(*est, a.estimate_in(&merged, *j), "item {j}");
    }
}

#[test]
fn heavy_hitters_agree_between_paths_within_margin() {
    let policy = Sliding::new(3).unwrap();
    let mut engine =
        QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params(5)), policy);
    let mut per_interval = Vec::new();
    for t in 0..3u64 {
        let mut updates = interval_stream(3, t, 400);
        // Plant per-interval heavy items so the window scan has
        // structure to disagree about if the paths diverged.
        for _ in 0..120 {
            updates.push((7 + t, 1.0));
        }
        engine.extend_from_slice(&updates);
        per_interval.push(updates);
        engine.advance_interval();
    }
    let window = engine.pin_window();
    let phi = 0.05;
    let counter_space = window.heavy_hitters(phi).unwrap();

    let planes: Vec<_> = (1..3)
        .map(|t| plane_of(&params(5), &per_interval[t as usize]))
        .collect();
    let entries: Vec<(&CountMedian, _)> = planes.iter().map(|(cm, snap)| (cm, snap)).collect();
    let estimate_space =
        heavy_hitters_across(&entries, window.mass(), phi, EstimateCombine::Sum).unwrap();

    let counter_items: Vec<u64> = counter_space.iter().map(|h| h.item).collect();
    let estimate_items: Vec<u64> = estimate_space.iter().map(|h| h.item).collect();
    assert_eq!(counter_items, estimate_items);
    for (c, e) in counter_space.iter().zip(&estimate_space) {
        assert!(
            (c.estimate - e.estimate).abs() <= 1e-9,
            "item {}: {} vs {}",
            c.item,
            c.estimate,
            e.estimate
        );
    }
    // Both paths found the planted heavies.
    assert!(counter_items.contains(&8), "{counter_items:?}");
    assert!(counter_items.contains(&9), "{counter_items:?}");
}

#[test]
fn identical_replicas_are_a_fixed_point_of_mean_and_median() {
    let updates = interval_stream(4, 0, 800);
    let (a, snap_a) = plane_of(&params(11), &updates);
    let (b, snap_b) = plane_of(&params(11), &updates);
    let (c, snap_c) = plane_of(&params(11), &updates);
    let entries: Vec<(&CountMedian, _)> = vec![(&a, &snap_a), (&b, &snap_b), (&c, &snap_c)];
    let items: Vec<u64> = (0..N).step_by(3).collect();
    let mean = combine_plane_estimates(&entries, &items, EstimateCombine::Mean);
    let median = combine_plane_estimates(&entries, &items, EstimateCombine::Median);
    for ((j, m), md) in items.iter().zip(&mean).zip(&median) {
        let single = a.estimate(*j);
        assert_eq!(*m, single, "mean item {j}");
        assert_eq!(*md, single, "median item {j}");
    }
}

#[test]
fn independent_seed_replicas_stay_within_the_per_plane_bound() {
    // Replicated stream under three independent seeds: every vote is
    // within the Count-Median L1 bound, so Mean and Median are too.
    let updates = interval_stream(5, 0, 1_500);
    let mut truth = vec![0.0f64; N as usize];
    for &(item, delta) in &updates {
        truth[item as usize] += delta;
    }
    let mass: f64 = truth.iter().sum();
    let bound = 3.0 * mass / WIDTH as f64;

    let planes: Vec<_> = [21u64, 22, 23]
        .iter()
        .map(|&seed| plane_of(&params(seed), &updates))
        .collect();
    let entries: Vec<(&CountMedian, _)> = planes.iter().map(|(cm, snap)| (cm, snap)).collect();
    let items: Vec<u64> = (0..N).collect();
    for combine in [EstimateCombine::Mean, EstimateCombine::Median] {
        let out = combine_plane_estimates(&entries, &items, combine);
        for (j, est) in items.iter().zip(&out) {
            let err = (est - truth[*j as usize]).abs();
            assert!(
                err <= bound,
                "{combine:?} item {j}: err {err} > bound {bound}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: for any partition of a random integer-delta stream
    /// into consecutive same-config planes, estimate-space Sum equals
    /// the single-sketch counter-space answer bit for bit.
    #[test]
    fn sum_is_partition_invariant_on_homogeneous_planes(
        stream_seed in 0u64..1_000,
        sketch_seed in 0u64..1_000,
        cuts in prop::collection::vec(1usize..600, 1..4),
        len in 200u64..600,
    ) {
        let updates = interval_stream(stream_seed, 0, len);
        // Counter-space reference: one sketch over everything.
        let reference = windowed_reference(&params(sketch_seed), &[updates.clone()]);

        // Split at the (sorted, deduped, clamped) cut points.
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % updates.len()).collect();
        bounds.push(0);
        bounds.push(updates.len());
        bounds.sort_unstable();
        bounds.dedup();
        let planes: Vec<_> = bounds
            .windows(2)
            .map(|w| plane_of(&params(sketch_seed), &updates[w[0]..w[1]]))
            .collect();
        let entries: Vec<(&CountMedian, _)> =
            planes.iter().map(|(cm, snap)| (cm, snap)).collect();

        let items: Vec<u64> = (0..N).step_by(7).collect();
        let combined = combine_plane_estimates(&entries, &items, EstimateCombine::Sum);
        for (j, est) in items.iter().zip(&combined) {
            prop_assert!(*est == reference.estimate(*j), "item {}", j);
        }
    }
}
