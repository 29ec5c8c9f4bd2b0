//! Estimate-space combination: answering one query from **many**
//! frozen planes that need not share a hasher configuration.
//!
//! Counter-space plane arithmetic (`merge_snapshot` /
//! `subtract_snapshot`) is the cheapest way to combine planes, but it
//! is only *sound* when every plane hashes with the same functions —
//! adding bucket `(r, c)` across planes presumes the bucket means the
//! same set of colliding items in each. Seed rotation
//! ([`Policy::Rotating`](crate::Policy::Rotating)) breaks that premise
//! on purpose. This module combines planes one level up, in **estimate
//! space**: query each plane through its own hashers, then sum the
//! per-plane *estimates* (a rotating engine's window scan over several
//! generations is [`heavy_hitters_across`]).
//!
//! The planes partition the stream (disjoint time slices): by
//! linearity of the underlying frequency vectors, `x_j = Σ_g x^g_j`, so
//! summing unbiased per-plane estimates estimates the total.
//! Consecutive **same-config** planes are first merged in counter
//! space — free accuracy, and the reason the homogeneous-seed case
//! degenerates to exactly the counter-space answer, bit for bit
//! (`tests/estimate_space.rs` freezes this).
//!
//! The price of the sum over K rotated planes: each plane's estimate
//! carries its own Theorem-1 error term, so the window bound is up to
//! K error terms where a single fixed-seed plane pays one. That is the
//! robustness trade tested end-to-end in `tests/adversarial.rs`.

use crate::error::QueryError;
use bas_sketch::{HeavyHitter, Reseedable, Snapshottable};

/// One combination unit: either a borrowed single plane (bit-for-bit
/// the caller's counters) or the counter-space merge of a run of
/// same-config planes.
enum GroupPlane<'a, S: Snapshottable> {
    Borrowed(&'a S::Snapshot),
    Merged(S::Snapshot),
}

/// The planes regrouped for one combination pass: built once, queried
/// per item.
struct Combined<'a, S: Snapshottable> {
    groups: Vec<(&'a S, GroupPlane<'a, S>)>,
}

impl<'a, S: Snapshottable + Reseedable> Combined<'a, S> {
    fn new(entries: &[(&'a S, &'a S::Snapshot)]) -> Self {
        assert!(!entries.is_empty(), "no planes to combine");
        let mut groups: Vec<(&'a S, GroupPlane<'a, S>)> = Vec::new();
        // Runs of consecutive same-config planes merge in counter space
        // first: sound (identical hashers) and strictly more accurate
        // than summing their separate estimates, because the median/min
        // recovery then sees the summed counters.
        let mut run = 0;
        while run < entries.len() {
            let (sketch, first) = entries[run];
            let config = sketch.config();
            let mut end = run + 1;
            while end < entries.len()
                && entries[end]
                    .0
                    .config()
                    .check_counter_compatible(&config)
                    .is_ok()
            {
                end += 1;
            }
            if end == run + 1 {
                groups.push((sketch, GroupPlane::Borrowed(first)));
            } else {
                let mut acc = sketch.make_snapshot(); // zero-filled
                let mut merged_all = true;
                for &(_, plane) in &entries[run..end] {
                    if sketch.merge_snapshot(&mut acc, plane).is_err() {
                        merged_all = false;
                        break;
                    }
                }
                if merged_all {
                    groups.push((sketch, GroupPlane::Merged(acc)));
                } else {
                    // Non-additive counters (state-dependent baselines):
                    // fall back to per-plane estimates, which is the
                    // definition of the estimate-space sum.
                    for &(s, plane) in &entries[run..end] {
                        groups.push((s, GroupPlane::Borrowed(plane)));
                    }
                }
            }
            run = end;
        }
        Self { groups }
    }

    /// The sum of the groups' estimates of `item`, in group order.
    fn estimate(&self, item: u64) -> f64 {
        self.groups
            .iter()
            .map(|(sketch, group)| {
                let plane = match group {
                    GroupPlane::Borrowed(p) => *p,
                    GroupPlane::Merged(p) => p,
                };
                sketch.estimate_in(plane, item)
            })
            .sum()
    }
}

/// Summed point estimates for `items` across many frozen planes, each
/// queried through its **own** sketch's hash functions — the
/// estimate-space path that stays sound when the planes' seeds differ
/// (rotated generations).
///
/// Each entry pairs the sketch owning the hashers with the frozen
/// plane to query; entries should be ordered (by time slice) so that
/// same-config runs are adjacent — those runs are counter-merged
/// first, which makes the all-same-config case agree **bit for bit**
/// with the counter-space merge path on integer streams.
///
/// # Panics
/// Panics if `entries` is empty, or on plane-shape mismatches between
/// same-config entries (the same panic `merge_snapshot` raises).
pub fn combine_plane_estimates<S: Snapshottable + Reseedable>(
    entries: &[(&S, &S::Snapshot)],
    items: &[u64],
) -> Vec<f64> {
    let combined = Combined::new(entries);
    items.iter().map(|&item| combined.estimate(item)).collect()
}

/// Heavy hitters across many frozen planes by summed estimate: every
/// item whose [`combine_plane_estimates`] value reaches `phi · mass`,
/// sorted by decreasing estimate — the estimate-space counterpart of
/// the counter-space window scan. `mass` is the caller's window mass,
/// the sum over the planes.
///
/// A full universe scan over every group (`O(n · groups · d)`).
///
/// # Errors
/// Returns [`QueryError::InvalidPhi`] unless `0 < phi < 1`.
///
/// # Panics
/// Panics if `entries` is empty.
pub fn heavy_hitters_across<S: Snapshottable + Reseedable>(
    entries: &[(&S, &S::Snapshot)],
    mass: f64,
    phi: f64,
) -> Result<Vec<HeavyHitter>, QueryError> {
    QueryError::check_phi(phi)?;
    let combined = Combined::new(entries);
    if mass <= 0.0 {
        return Ok(Vec::new());
    }
    let threshold = phi * mass;
    let universe = entries[0].0.universe();
    let mut out: Vec<HeavyHitter> = (0..universe)
        .filter_map(|item| {
            let estimate = combined.estimate(item);
            (estimate >= threshold).then_some(HeavyHitter { item, estimate })
        })
        .collect();
    out.sort_by(|a, b| b.estimate.total_cmp(&a.estimate).then(a.item.cmp(&b.item)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_sketch::{CountMedian, PointQuerySketch, SketchParams};

    fn params(seed: u64) -> SketchParams {
        SketchParams::new(300, 64, 5).with_seed(seed)
    }

    fn sketch_of(seed: u64, updates: &[(u64, f64)]) -> CountMedian {
        let mut cm = CountMedian::new(&params(seed));
        cm.update_batch(updates);
        cm
    }

    #[test]
    #[should_panic(expected = "no planes")]
    fn empty_combine_panics() {
        combine_plane_estimates::<CountMedian>(&[], &[0]);
    }

    #[test]
    fn homogeneous_sum_equals_counter_space_bit_for_bit() {
        let first: Vec<(u64, f64)> = (0..400).map(|i| (i * 7 % 300, 2.0)).collect();
        let second: Vec<(u64, f64)> = (0..300).map(|i| (i * 11 % 300, 3.0)).collect();
        let a = sketch_of(5, &first);
        let b = sketch_of(5, &second);
        let (snap_a, snap_b) = (a.make_snapshot_of(), b.make_snapshot_of());

        // Counter-space reference: merge the planes, estimate once.
        let mut merged = snap_a.clone();
        a.merge_snapshot(&mut merged, &snap_b).unwrap();

        let items: Vec<u64> = (0..300).collect();
        let combined = combine_plane_estimates(&[(&a, &snap_a), (&b, &snap_b)], &items);
        for (j, &est) in items.iter().zip(&combined) {
            assert_eq!(est, a.estimate_in(&merged, *j), "item {j}");
        }
    }

    #[test]
    fn heterogeneous_sum_estimates_the_total() {
        // Different seeds: counter merging is unsound, the
        // estimate-space sum still estimates x_j = x^0_j + x^1_j.
        let first: Vec<(u64, f64)> = vec![(7, 100.0), (9, 40.0)];
        let second: Vec<(u64, f64)> = vec![(7, 50.0), (11, 30.0)];
        let a = sketch_of(1, &first);
        let b = sketch_of(2, &second);
        let (snap_a, snap_b) = (a.make_snapshot_of(), b.make_snapshot_of());
        let out = combine_plane_estimates(&[(&a, &snap_a), (&b, &snap_b)], &[7, 9, 11]);
        // Sparse stream, wide sketch: estimates are exact here.
        assert_eq!(out, vec![150.0, 40.0, 30.0]);
    }

    #[test]
    fn heavy_hitters_across_rotated_planes() {
        // Item 7 is heavy only when both time slices are combined.
        let first: Vec<(u64, f64)> = (0..100u64).map(|i| (i, 1.0)).chain([(7, 60.0)]).collect();
        let second: Vec<(u64, f64)> = (100..200u64).map(|i| (i, 1.0)).chain([(7, 60.0)]).collect();
        let a = sketch_of(1, &first);
        let b = sketch_of(2, &second);
        let (sa, sb) = (a.make_snapshot_of(), b.make_snapshot_of());
        let mass = 320.0;
        let hot = heavy_hitters_across(&[(&a, &sa), (&b, &sb)], mass, 0.25).unwrap();
        let items: Vec<u64> = hot.iter().map(|h| h.item).collect();
        assert!(items.contains(&7), "{items:?}");
        for w in hot.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
        assert_eq!(
            heavy_hitters_across(&[(&a, &sa)], mass, 1.5),
            Err(QueryError::InvalidPhi { phi: 1.5 })
        );
    }

    /// Test helper: freeze a sketch's current counters.
    trait MakeSnapshotOf: Snapshottable {
        fn make_snapshot_of(&self) -> Self::Snapshot {
            let mut snap = self.make_snapshot();
            self.snapshot_into(&mut snap);
            snap
        }
    }
    impl<S: Snapshottable> MakeSnapshotOf for S {}
}
