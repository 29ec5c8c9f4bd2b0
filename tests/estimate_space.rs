//! Estimate space: a rotating window's answers are sums of per-plane
//! estimates.
//!
//! Under `Policy::Rotating` every generation runs under its own seed,
//! so adding the generations' counters is unsound; the window reads
//! each generation's plane through its own hashers and sums the
//! **estimates**, live generation first. This suite pins that read
//! against independent per-generation references built offline: point
//! estimates, the window heavy-hitter scan and the window's totals,
//! bit for bit on an integer-delta stream.

use bias_aware_sketches::prelude::*;

const N: u64 = 500;
const WIDTH: usize = 64;
const DEPTH: usize = 5;

fn params(seed: u64) -> SketchParams {
    SketchParams::new(N, WIDTH, DEPTH).with_seed(seed)
}

/// The rotating engine's window answer is the sum of independent
/// per-generation references: one `CountMedian` per window interval,
/// built under `SeedSchedule::seed_for(g)` from that interval's
/// updates, the open (live) interval counted as one of them. Integer
/// deltas, so the sum is exact and the match is bit for bit — for
/// point estimates, for the window heavy-hitter scan (against a scan of
/// the summed reference estimates, live first), and for the window's
/// `applied` and `mass`.
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
            let mut reference = CountMedian::new(&params(schedule.seed_for(g)));
            reference.update_batch(&updates);
            reference
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

    // The window scan equals a scan of the summed reference estimates,
    // live first, then closed generations oldest first: every item at
    // or above `phi · mass`, by decreasing estimate, ties by item.
    let (live, closed) = references.split_last().unwrap();
    let summed = |j: u64| {
        closed
            .iter()
            .fold(live.estimate(j), |acc, r| acc + r.estimate(j))
    };
    for phi in [0.01, 0.02, 0.05] {
        let mut expected: Vec<HeavyHitter> = (0..N)
            .map(|item| HeavyHitter {
                item,
                estimate: summed(item),
            })
            .filter(|h| h.estimate >= phi * mass)
            .collect();
        expected.sort_by(|a, b| b.estimate.total_cmp(&a.estimate).then(a.item.cmp(&b.item)));
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
