//! Integration coverage for heavy-hitter tracking — the one sketch
//! module that had none (every other sketch has a dedicated suite).
//!
//! Two oracles gate the results:
//!
//! * the **exact frequency oracle** (the true vector, maintained in
//!   plain counters) decides who *is* heavy: recall and precision are
//!   asserted against it with the sketch-error margin Theorem 1
//!   grants — `E = 3·‖x‖₁/s` — so the assertions are properties of
//!   the construction, not tuned constants;
//! * the **snapshot path** must agree with the live path on a
//!   quiescent tracker (bit-identical lists), and the `QueryEngine`
//!   scan must match the exact oracle under the same margins while
//!   writers are quiesced at a flush boundary.

use bias_aware_sketches::prelude::*;
use proptest::prelude::*;

const WIDTH: usize = 512;
const DEPTH: usize = 7;

/// Recall/precision margin: Count-Median's `ℓ∞` error scale at this
/// width (Theorem 1 shape with explicit constant 3).
fn margin(mass: f64) -> f64 {
    3.0 * mass / WIDTH as f64
}

/// Builds `(updates, exact)` from a proptest-generated tail plus
/// planted heavy items: `heavies[i]` copies of item `i`.
fn build_stream(tail: &[u16], heavies: &[u64]) -> (Vec<(u64, f64)>, Vec<f64>) {
    let n = tail.len().max(heavies.len()).max(1);
    let mut exact = vec![0.0f64; n];
    let mut updates = Vec::new();
    for (item, &count) in heavies.iter().enumerate() {
        exact[item] += count as f64;
        for _ in 0..count {
            updates.push((item as u64, 1.0));
        }
    }
    for (item, &count) in tail.iter().enumerate() {
        exact[item] += count as f64;
        for _ in 0..count {
            updates.push((item as u64, 1.0));
        }
    }
    // Interleave deterministically so heavy mass is not one contiguous
    // prefix (candidates must survive threshold growth).
    let stride = 7;
    let mut shuffled = Vec::with_capacity(updates.len());
    for start in 0..stride {
        shuffled.extend(updates.iter().skip(start).step_by(stride));
    }
    (shuffled, exact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tracker recall: every item that is heavy by a sketch-error
    /// margin is reported; precision: nothing light by the same margin
    /// is reported.
    #[test]
    fn tracker_recall_and_precision_against_exact_oracle(
        tail in prop::collection::vec(0u16..8, 64..256),
        heavies in prop::collection::vec(300u64..900, 1..4),
        seed in 0u64..1_000,
    ) {
        let (updates, exact) = build_stream(&tail, &heavies);
        let mass: f64 = exact.iter().sum();
        let phi = 0.1;
        let params = SketchParams::new(exact.len() as u64, WIDTH, DEPTH).with_seed(seed);
        let mut hh = HeavyHitters::new(CountMedian::new(&params), phi);
        hh.update_batch(&updates);
        let reported: Vec<u64> = hh.heavy_hitters().iter().map(|h| h.item).collect();

        let threshold = phi * mass;
        for (item, &x) in exact.iter().enumerate() {
            if x >= threshold + margin(mass) {
                prop_assert!(
                    reported.contains(&(item as u64)),
                    "missed heavy item {item} (x = {x}, threshold = {threshold})"
                );
            }
        }
        for &item in &reported {
            prop_assert!(
                exact[item as usize] >= threshold - margin(mass),
                "false positive {item} (x = {}, threshold = {threshold})",
                exact[item as usize]
            );
        }
    }

    /// Snapshot-path equivalence: on a quiescent tracker the frozen
    /// scan reports exactly the live list.
    #[test]
    fn snapshot_path_equals_live_path(
        tail in prop::collection::vec(0u16..6, 32..128),
        heavies in prop::collection::vec(200u64..600, 1..3),
        seed in 0u64..1_000,
    ) {
        let (updates, exact) = build_stream(&tail, &heavies);
        let params = SketchParams::new(exact.len() as u64, WIDTH, DEPTH).with_seed(seed);
        let mut hh = HeavyHitters::new(CountMedian::new(&params), 0.1);
        hh.update_batch(&updates);
        let snap = hh.snapshot();
        let frozen = hh.heavy_hitters_in(&snap);
        let live = hh.heavy_hitters();
        prop_assert_eq!(frozen, live);
    }

    /// The serving-side scan (`QueryEngine::heavy_hitters`, full
    /// universe over an epoch snapshot) obeys the same oracle margins
    /// — and, being a scan, needs no per-update candidate tracking to
    /// achieve recall.
    #[test]
    fn query_engine_scan_matches_exact_oracle(
        tail in prop::collection::vec(0u16..8, 64..192),
        heavies in prop::collection::vec(300u64..800, 1..4),
        seed in 0u64..1_000,
    ) {
        let (updates, exact) = build_stream(&tail, &heavies);
        let mass: f64 = exact.iter().sum();
        let phi = 0.1;
        let params = SketchParams::new(exact.len() as u64, WIDTH, DEPTH).with_seed(seed);
        let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params));
        engine.extend_from_slice(&updates);
        engine.flush();
        let reported: Vec<u64> = engine.heavy_hitters(phi).iter().map(|h| h.item).collect();

        let threshold = phi * mass;
        for (item, &x) in exact.iter().enumerate() {
            if x >= threshold + margin(mass) {
                prop_assert!(reported.contains(&(item as u64)), "scan missed item {item}");
            }
        }
        for &item in &reported {
            prop_assert!(
                exact[item as usize] >= threshold - margin(mass),
                "scan false positive {item}"
            );
        }
    }
}

/// Deterministic spot-check that the tracker and the engine scan agree
/// on a planted workload (the scan may additionally report items the
/// tracker's candidate set never admitted; on this clean stream both
/// see exactly the planted pair).
#[test]
fn tracker_and_engine_scan_agree_on_planted_stream() {
    let n = 2_000u64;
    let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(3);
    let mut updates = Vec::new();
    for _ in 0..500 {
        updates.push((11u64, 1.0));
        updates.push((503, 1.0));
    }
    for i in 0..1_000u64 {
        updates.push((1_000 + i % 900, 1.0));
    }

    let mut hh = HeavyHitters::new(CountMedian::new(&params), 0.2);
    hh.update_batch(&updates);
    let mut tracked: Vec<u64> = hh.heavy_hitters().iter().map(|h| h.item).collect();
    tracked.sort_unstable(); // both planted items have equal counts, so
                             // their estimate order is collision noise

    let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params));
    engine.extend_from_slice(&updates);
    engine.flush();
    let mut scanned: Vec<u64> = engine.heavy_hitters(0.2).iter().map(|h| h.item).collect();
    scanned.sort_unstable();

    assert_eq!(tracked, vec![11, 503]);
    assert_eq!(scanned, vec![11, 503]);
}
