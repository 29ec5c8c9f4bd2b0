//! Estimate-space combination: answering one query from **many**
//! frozen planes that need not share a hasher configuration.
//!
//! Counter-space plane arithmetic (`merge_snapshot` /
//! `subtract_snapshot`) is the cheapest way to combine planes, but it
//! is only *sound* when every plane hashes with the same functions —
//! adding bucket `(r, c)` across planes presumes the bucket means the
//! same set of colliding items in each. Seed rotation
//! ([`Policy::Rotating`](crate::Policy::Rotating)) and heterogeneous
//! distributed sites break that premise on purpose. This module
//! combines planes one level up, in **estimate space**: query each
//! plane through its own hashers, then combine the per-plane
//! *estimates* (a rotating engine's window scan over several
//! generations is [`heavy_hitters_across`] with
//! [`EstimateCombine::Sum`]):
//!
//! * [`EstimateCombine::Sum`] — the planes partition the stream
//!   (disjoint time slices, disjoint sites): by linearity of the
//!   underlying frequency vectors, `x_j = Σ_g x^g_j`, so summing
//!   unbiased per-plane estimates estimates the total. Consecutive
//!   **same-config** planes are first merged in counter space — free
//!   accuracy, and the reason the homogeneous-seed case degenerates to
//!   exactly the counter-space answer, bit for bit
//!   (`tests/estimate_space.rs` freezes this).
//! * [`EstimateCombine::Mean`] / [`EstimateCombine::Median`] — the
//!   planes *replicate* the stream (same updates, independent seeds):
//!   each plane is an independent estimator of the same `x_j`, so the
//!   mean tightens variance and the median tightens the failure
//!   probability, Count-Median-style but across planes. Here
//!   same-config planes are **not** merged — each plane is one vote.
//!
//! The price of Sum over K rotated planes: each plane's estimate
//! carries its own Theorem-1 error term, so the window bound is up to
//! K error terms where a single fixed-seed plane pays one. That is the
//! robustness trade tested end-to-end in `tests/adversarial.rs`.

use crate::error::QueryError;
use bas_sketch::{HeavyHitter, Reseedable, Snapshottable};

/// How per-plane estimates are combined into one answer — see the
/// module docs for which variant matches which plane relationship
/// (partitioned stream vs replicated stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateCombine {
    /// Sum the per-plane estimates: the planes partition the stream
    /// (time slices of one engine, disjoint distributed sites).
    Sum,
    /// Average the per-plane estimates: the planes replicate the
    /// stream under independent seeds; averaging tightens variance.
    Mean,
    /// Median of the per-plane estimates: replicated planes again,
    /// trading variance reduction for outlier (failure-probability)
    /// suppression — the cross-plane analogue of median-of-rows.
    Median,
}

impl EstimateCombine {
    /// Combines one query's per-plane estimates. `values` is scratch
    /// (Median reorders it).
    ///
    /// # Panics
    /// Panics on an empty slice — a query must see at least one plane.
    pub fn combine(&self, values: &mut [f64]) -> f64 {
        assert!(!values.is_empty(), "no planes to combine");
        match self {
            EstimateCombine::Sum => values.iter().sum(),
            EstimateCombine::Mean => values.iter().sum::<f64>() / values.len() as f64,
            EstimateCombine::Median => {
                values.sort_by(f64::total_cmp);
                let mid = values.len() / 2;
                if values.len() % 2 == 1 {
                    values[mid]
                } else {
                    (values[mid - 1] + values[mid]) / 2.0
                }
            }
        }
    }
}

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
    combine: EstimateCombine,
}

impl<'a, S: Snapshottable + Reseedable> Combined<'a, S> {
    fn new(entries: &[(&'a S, &'a S::Snapshot)], combine: EstimateCombine) -> Self {
        assert!(!entries.is_empty(), "no planes to combine");
        let mut groups: Vec<(&'a S, GroupPlane<'a, S>)> = Vec::new();
        if combine == EstimateCombine::Sum {
            // Runs of consecutive same-config planes merge in counter
            // space first: sound (identical hashers) and strictly more
            // accurate than summing their separate estimates, because
            // the median/min recovery then sees the summed counters.
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
                        // Non-additive counters (state-dependent
                        // baselines): fall back to per-plane estimates,
                        // which is the definition of estimate-space Sum.
                        for &(s, plane) in &entries[run..end] {
                            groups.push((s, GroupPlane::Borrowed(plane)));
                        }
                    }
                }
                run = end;
            }
        } else {
            // Mean/Median: every plane is one independent vote — never
            // pre-merge, even same-config planes.
            for &(sketch, plane) in entries {
                groups.push((sketch, GroupPlane::Borrowed(plane)));
            }
        }
        Self { groups, combine }
    }

    fn estimate(&self, item: u64, scratch: &mut Vec<f64>) -> f64 {
        scratch.clear();
        for (sketch, group) in &self.groups {
            let plane = match group {
                GroupPlane::Borrowed(p) => *p,
                GroupPlane::Merged(p) => p,
            };
            scratch.push(sketch.estimate_in(plane, item));
        }
        self.combine.combine(scratch)
    }
}

/// Combined point estimates for `items` across many frozen planes,
/// each queried through its **own** sketch's hash functions — the
/// estimate-space path that stays sound when the planes' seeds differ
/// (rotated generations, heterogeneous distributed sites).
///
/// Each entry pairs the sketch owning the hashers with the frozen
/// plane to query; entries should be ordered (by time slice or site)
/// so that same-config runs are adjacent — under
/// [`EstimateCombine::Sum`] those runs are counter-merged first, which
/// makes the all-same-config case agree **bit for bit** with the
/// counter-space merge path on integer streams.
///
/// # Panics
/// Panics if `entries` is empty, or on plane-shape mismatches between
/// same-config entries (the same panic `merge_snapshot` raises).
pub fn combine_plane_estimates<S: Snapshottable + Reseedable>(
    entries: &[(&S, &S::Snapshot)],
    items: &[u64],
    combine: EstimateCombine,
) -> Vec<f64> {
    let combined = Combined::new(entries, combine);
    let mut scratch = Vec::with_capacity(entries.len());
    items
        .iter()
        .map(|&item| combined.estimate(item, &mut scratch))
        .collect()
}

/// Heavy hitters across many frozen planes by combined estimate: every
/// item whose [`combine_plane_estimates`] value reaches `phi · mass`,
/// sorted by decreasing estimate — the estimate-space counterpart of
/// the counter-space window scan. `mass` is the caller's combined
/// window mass (sum over the planes for [`EstimateCombine::Sum`]; the
/// common stream's mass for Mean/Median replicas).
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
    combine: EstimateCombine,
) -> Result<Vec<HeavyHitter>, QueryError> {
    QueryError::check_phi(phi)?;
    let combined = Combined::new(entries, combine);
    if mass <= 0.0 {
        return Ok(Vec::new());
    }
    let threshold = phi * mass;
    let universe = entries[0].0.universe();
    let mut scratch = Vec::with_capacity(entries.len());
    let mut out: Vec<HeavyHitter> = (0..universe)
        .filter_map(|item| {
            let estimate = combined.estimate(item, &mut scratch);
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
    fn combine_variants() {
        assert_eq!(EstimateCombine::Sum.combine(&mut [1.0, 2.0, 4.0]), 7.0);
        assert_eq!(EstimateCombine::Mean.combine(&mut [1.0, 2.0, 6.0]), 3.0);
        assert_eq!(EstimateCombine::Median.combine(&mut [9.0, 1.0, 4.0]), 4.0);
        assert_eq!(EstimateCombine::Median.combine(&mut [4.0, 2.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "no planes")]
    fn empty_combine_panics() {
        EstimateCombine::Sum.combine(&mut []);
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
        let combined = combine_plane_estimates(
            &[(&a, &snap_a), (&b, &snap_b)],
            &items,
            EstimateCombine::Sum,
        );
        for (j, &est) in items.iter().zip(&combined) {
            assert_eq!(est, a.estimate_in(&merged, *j), "item {j}");
        }
    }

    #[test]
    fn heterogeneous_sum_estimates_the_total() {
        // Different seeds: counter merging is unsound, estimate-space
        // Sum still estimates x_j = x^0_j + x^1_j.
        let first: Vec<(u64, f64)> = vec![(7, 100.0), (9, 40.0)];
        let second: Vec<(u64, f64)> = vec![(7, 50.0), (11, 30.0)];
        let a = sketch_of(1, &first);
        let b = sketch_of(2, &second);
        let (snap_a, snap_b) = (a.make_snapshot_of(), b.make_snapshot_of());
        let out = combine_plane_estimates(
            &[(&a, &snap_a), (&b, &snap_b)],
            &[7, 9, 11],
            EstimateCombine::Sum,
        );
        // Sparse stream, wide sketch: estimates are exact here.
        assert_eq!(out, vec![150.0, 40.0, 30.0]);
    }

    #[test]
    fn median_across_replicas_suppresses_an_outlier_plane() {
        // Three replicas of the same stream under independent seeds;
        // one is corrupted. The median ignores it, the mean does not.
        let stream: Vec<(u64, f64)> = vec![(3, 10.0)];
        let a = sketch_of(1, &stream);
        let b = sketch_of(2, &stream);
        let mut c = sketch_of(3, &stream);
        c.update(3, 900.0); // corrupted replica
        let (sa, sb, sc) = (
            a.make_snapshot_of(),
            b.make_snapshot_of(),
            c.make_snapshot_of(),
        );
        let entries = [(&a, &sa), (&b, &sb), (&c, &sc)];
        let med = combine_plane_estimates(&entries, &[3], EstimateCombine::Median)[0];
        let mean = combine_plane_estimates(&entries, &[3], EstimateCombine::Mean)[0];
        assert_eq!(med, 10.0);
        assert!(mean > 100.0);
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
        let hot = heavy_hitters_across(&[(&a, &sa), (&b, &sb)], mass, 0.25, EstimateCombine::Sum)
            .unwrap();
        let items: Vec<u64> = hot.iter().map(|h| h.item).collect();
        assert!(items.contains(&7), "{items:?}");
        for w in hot.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
        assert_eq!(
            heavy_hitters_across(&[(&a, &sa)], mass, 1.5, EstimateCombine::Sum),
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
