//! Count-Min with plain and conservative update policies.

use crate::storage::CounterMatrix;
use crate::traits::{MergeError, MergeableSketch, PointQuerySketch, SketchParams};
use crate::util::MEDIAN_SCRATCH_DEPTH;
use bas_hash::{AnyBucketHasher, BucketHasher, HashFamily, RowDeriver, SplitMix64};

/// Update policy for [`CountMin`].
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdatePolicy {
    /// Plain Count-Min: every row's bucket receives the full delta.
    /// Linear, mergeable.
    #[default]
    Plain,
    /// Conservative update (Estan & Varghese; CM-CU in the paper's
    /// experiments): each bucket is raised only as far as needed —
    /// `c_i ← max(c_i, est + Δ)` where `est` is the pre-update minimum.
    /// Strictly reduces over-estimation but breaks linearity, so CM-CU
    /// "cannot be directly used in the distributed setting" (paper §2).
    Conservative,
}

/// The Count-Min sketch of Cormode & Muthukrishnan, with the
/// conservative-update variant used as the CM-CU baseline in the paper.
///
/// Point queries return the **minimum** of the `d` bucket counters, which
/// for non-negative vectors over-estimates:
/// `x_j ≤ x̂_j ≤ x_j + ε‖x‖₁` with `ε = e/s`, w.p. `1 − e^{-d}`.
///
/// Both policies require the **cash-register** model: updates must have
/// `Δ ≥ 0` (negative deltas panic). The paper does not bench plain
/// Count-Min because CM-CU dominates it; we keep both for completeness
/// and for the linearity/merging tests.
///
/// Counters live in a dense [`CounterMatrix`]. Count-Min is a paper
/// baseline, driven through [`PointQuerySketch`] and, under the plain
/// policy, [`MergeableSketch`]; the serving stack (snapshots, shared
/// ingest, windows, plane moves) runs Count-Median, Count-Sketch and
/// the range-sum stack only.
///
/// ```
/// use bas_sketch::{CountMin, PointQuerySketch, SketchParams, UpdatePolicy};
///
/// let params = SketchParams::new(1_000, 128, 5).with_seed(17);
/// let mut cm = CountMin::new(&params, UpdatePolicy::Plain);
/// cm.update(4, 5.0);
/// cm.update_batch(&[(4, 2.0), (8, 3.0)]); // cash-register batch
/// // Count-Min never under-estimates; sparse input keeps it exact here.
/// assert_eq!(cm.estimate(4), 7.0);
/// assert_eq!(cm.estimate(8), 3.0);
/// ```
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone)]
pub struct CountMin {
    params: SketchParams,
    policy: UpdatePolicy,
    grid: CounterMatrix<f64>,
    hashers: Vec<AnyBucketHasher>,
}

impl CountMin {
    /// Creates an empty Count-Min sketch with the given update policy.
    pub fn new(params: &SketchParams, policy: UpdatePolicy) -> Self {
        let mut seeder = SplitMix64::new(params.seed ^ 0xC0DE_0003);
        let mut family = HashFamily::new(params.hash_kind, &mut seeder, params.width);
        let hashers = family.sample_many(params.depth);
        let width = family.buckets();
        let mut params = *params;
        params.width = width;
        Self {
            params,
            policy,
            grid: CounterMatrix::new(width, params.depth),
            hashers,
        }
    }

    /// Convenience constructor for the conservative-update baseline.
    pub fn conservative(params: &SketchParams) -> Self {
        Self::new(params, UpdatePolicy::Conservative)
    }

    /// The update policy in effect.
    pub fn policy(&self) -> UpdatePolicy {
        self.policy
    }

    /// The parameters the sketch was built with.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// Estimates the inner product `⟨x, y⟩` of two non-negative vectors
    /// from their plain Count-Min sketches (Cormode–Muthukrishnan): each
    /// row's dot product `Σ_b A_i[b]·B_i[b]` over-estimates, so the
    /// minimum over rows is the tightest upper bound — the classic
    /// join-size estimator.
    ///
    /// # Errors
    /// Returns a [`MergeError`] if the sketches are incompatible or
    /// either uses conservative update (whose counters are not sums).
    pub fn inner_product(&self, other: &Self) -> Result<f64, MergeError> {
        if self.policy != UpdatePolicy::Plain || other.policy != UpdatePolicy::Plain {
            return Err(MergeError::ShapeMismatch {
                what: "update policies (CU counters are not additive)",
            });
        }
        self.params.check_counter_compatible(&other.params)?;
        let best = (0..self.params.depth)
            .map(|row| self.grid.row_dot(&other.grid, row))
            .fold(f64::INFINITY, f64::min);
        Ok(best)
    }

    #[inline]
    fn min_over_rows(&self, item: u64) -> f64 {
        let mut best = f64::INFINITY;
        for (row, h) in self.hashers.iter().enumerate() {
            let v = self.grid.get(row, h.bucket(item));
            if v < best {
                best = v;
            }
        }
        best
    }

    #[inline]
    fn validate_delta(delta: f64) {
        assert!(
            delta >= 0.0,
            "Count-Min requires the cash-register model (delta >= 0), got {delta}"
        );
    }
}

impl PointQuerySketch for CountMin {
    #[inline]
    fn update(&mut self, item: u64, delta: f64) {
        debug_assert!(item < self.params.n, "item outside universe");
        Self::validate_delta(delta);
        match self.policy {
            UpdatePolicy::Plain => {
                for (row, h) in self.hashers.iter().enumerate() {
                    self.grid.add(row, h.bucket(item), delta);
                }
            }
            UpdatePolicy::Conservative => {
                // Hash each row once: the same indices feed the
                // pre-update minimum and the raise pass (previously the
                // raise pass re-evaluated every row hash).
                let depth = self.params.depth;
                let mut scratch = [0usize; MEDIAN_SCRATCH_DEPTH];
                let mut spill;
                let buckets: &mut [usize] = if depth <= MEDIAN_SCRATCH_DEPTH {
                    &mut scratch[..depth]
                } else {
                    spill = vec![0usize; depth];
                    &mut spill
                };
                let mut target = f64::INFINITY;
                for (row, h) in self.hashers.iter().enumerate() {
                    let b = h.bucket(item);
                    buckets[row] = b;
                    let v = self.grid.get(row, b);
                    if v < target {
                        target = v;
                    }
                }
                target += delta;
                for (row, &b) in buckets.iter().enumerate() {
                    if self.grid.get(row, b) < target {
                        self.grid.set(row, b, target);
                    }
                }
            }
        }
    }

    /// Batch update. [`UpdatePolicy::Plain`] takes the blocked
    /// row-major kernel ([`CounterMatrix::apply_rows_blocked`], SIMD
    /// batch lane when active) on one-hash rows and the
    /// dispatch-hoisted fast path of [`bas_hash::bucket_rows_each`]
    /// otherwise; [`UpdatePolicy::Conservative`] necessarily stays
    /// item-by-item because each bump depends on the pre-update
    /// minimum across all rows — exactly the state dependence that
    /// also breaks linearity. Both policies validate the whole batch
    /// before touching any counter, and both are bit-for-bit
    /// equivalent to the one-by-one loop on valid (non-negative)
    /// input.
    fn update_batch(&mut self, items: &[(u64, f64)]) {
        for &(item, delta) in items {
            debug_assert!(item < self.params.n, "item outside universe");
            Self::validate_delta(delta);
        }
        match self.policy {
            UpdatePolicy::Plain => {
                if let Some(rd) = RowDeriver::from_hashers(&self.hashers) {
                    let derive = crate::util::onehash_block_derive(&rd, self.params.depth);
                    self.grid.apply_rows_blocked(items, derive);
                    return;
                }
                let grid = &mut self.grid;
                bas_hash::bucket_rows_each(&self.hashers, items, |row, _, b, delta: f64| {
                    grid.add(row, b, delta);
                });
            }
            UpdatePolicy::Conservative => {
                for &(item, delta) in items {
                    self.update(item, delta);
                }
            }
        }
    }

    fn estimate(&self, item: u64) -> f64 {
        self.min_over_rows(item)
    }

    fn universe(&self) -> u64 {
        self.params.n
    }

    fn size_in_words(&self) -> usize {
        self.grid.len()
    }

    fn label(&self) -> &'static str {
        match self.policy {
            UpdatePolicy::Plain => "CMin",
            UpdatePolicy::Conservative => "CM-CU",
        }
    }
}

impl MergeableSketch for CountMin {
    /// Only the [`UpdatePolicy::Plain`] variant is linear; merging a
    /// conservative-update sketch returns a shape error to prevent the
    /// silent accuracy loss the paper warns about.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.policy != UpdatePolicy::Plain || other.policy != UpdatePolicy::Plain {
            return Err(MergeError::ShapeMismatch {
                what: "update policies (conservative update is not linear)",
            });
        }
        self.params.check_counter_compatible(&other.params)?;
        self.grid.add_matrix(&other.grid);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u64, w: usize, d: usize) -> SketchParams {
        SketchParams::new(n, w, d).with_seed(17)
    }

    #[test]
    fn never_underestimates() {
        let n = 500u64;
        let mut cm = CountMin::new(&params(n, 32, 4), UpdatePolicy::Plain);
        let mut cu = CountMin::conservative(&params(n, 32, 4));
        let x: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
        cm.ingest_vector(&x);
        cu.ingest_vector(&x);
        for j in 0..n {
            assert!(cm.estimate(j) >= x[j as usize] - 1e-9, "plain item {j}");
            assert!(cu.estimate(j) >= x[j as usize] - 1e-9, "cu item {j}");
        }
    }

    #[test]
    fn conservative_dominates_plain() {
        // CU estimates are pointwise <= plain CM estimates on the same
        // stream with the same hash functions.
        let n = 2000u64;
        let p = params(n, 64, 4);
        let mut plain = CountMin::new(&p, UpdatePolicy::Plain);
        let mut cons = CountMin::new(&p, UpdatePolicy::Conservative);
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 17) as f64).collect();
        plain.ingest_vector(&x);
        cons.ingest_vector(&x);
        for j in 0..n {
            assert!(
                cons.estimate(j) <= plain.estimate(j) + 1e-9,
                "item {j}: cu {} > plain {}",
                cons.estimate(j),
                plain.estimate(j)
            );
        }
    }

    #[test]
    fn exact_when_no_collisions() {
        let mut cm = CountMin::new(&params(4, 64, 4), UpdatePolicy::Plain);
        cm.update(0, 5.0);
        cm.update(1, 7.0);
        assert_eq!(cm.estimate(0), 5.0);
        assert_eq!(cm.estimate(1), 7.0);
    }

    #[test]
    #[should_panic(expected = "cash-register")]
    fn negative_delta_panics() {
        let mut cm = CountMin::new(&params(10, 8, 2), UpdatePolicy::Plain);
        cm.update(0, -1.0);
    }

    #[test]
    fn update_batch_matches_one_by_one_both_policies() {
        for policy in [UpdatePolicy::Plain, UpdatePolicy::Conservative] {
            let p = params(200, 16, 4);
            let mut batched = CountMin::new(&p, policy);
            let mut looped = CountMin::new(&p, policy);
            let items: Vec<(u64, f64)> =
                (0..300u64).map(|i| (i * 3 % 200, (i % 7) as f64)).collect();
            batched.update_batch(&items);
            for &(i, d) in &items {
                looped.update(i, d);
            }
            for j in 0..200u64 {
                assert_eq!(batched.estimate(j), looped.estimate(j), "{policy:?} {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cash-register")]
    fn batch_negative_delta_panics() {
        let mut cm = CountMin::new(&params(10, 8, 2), UpdatePolicy::Plain);
        cm.update_batch(&[(0, 1.0), (1, -2.0)]);
    }

    #[test]
    fn plain_merge_equals_combined() {
        let p = params(100, 16, 3);
        let mut a = CountMin::new(&p, UpdatePolicy::Plain);
        let mut b = CountMin::new(&p, UpdatePolicy::Plain);
        let mut c = CountMin::new(&p, UpdatePolicy::Plain);
        for i in 0..100u64 {
            a.update(i, 1.0);
            b.update(i, 2.0);
            c.update(i, 3.0);
        }
        a.merge_from(&b).unwrap();
        for j in 0..100u64 {
            assert_eq!(a.estimate(j), c.estimate(j));
        }
    }

    #[test]
    fn conservative_merge_rejected() {
        let p = params(10, 8, 2);
        let mut a = CountMin::conservative(&p);
        let b = CountMin::conservative(&p);
        assert!(matches!(
            a.merge_from(&b),
            Err(MergeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn inner_product_upper_bounds_join_size() {
        let n = 2000u64;
        let p = params(n, 256, 5);
        let mut a = CountMin::new(&p, UpdatePolicy::Plain);
        let mut b = CountMin::new(&p, UpdatePolicy::Plain);
        // Two relations joining on keys 0..50.
        for i in 0..50u64 {
            a.update(i, 4.0);
            b.update(i, 3.0);
        }
        for i in 500..600u64 {
            a.update(i, 2.0); // no join partner
        }
        let truth = 50.0 * 4.0 * 3.0;
        let est = a.inner_product(&b).unwrap();
        assert!(est >= truth - 1e-9, "never underestimates");
        assert!(est <= truth * 1.3 + 10.0, "est = {est} vs {truth}");
    }

    #[test]
    fn inner_product_rejects_cu() {
        let p = params(10, 8, 2);
        let a = CountMin::conservative(&p);
        let b = CountMin::conservative(&p);
        assert!(a.inner_product(&b).is_err());
        // Plain sketches over different universes do not combine either.
        let plain = CountMin::new(&p, UpdatePolicy::Plain);
        let wider = CountMin::new(&params(20, 8, 2), UpdatePolicy::Plain);
        assert_eq!(
            plain.inner_product(&wider),
            Err(MergeError::ShapeMismatch { what: "universes" })
        );
    }

    #[test]
    fn labels() {
        let p = params(10, 8, 2);
        assert_eq!(CountMin::new(&p, UpdatePolicy::Plain).label(), "CMin");
        assert_eq!(CountMin::conservative(&p).label(), "CM-CU");
    }

    #[test]
    fn conservative_update_order_insensitive_totals() {
        // CU is order-dependent in general, but single-update-per-item
        // streams must still produce upper bounds regardless of order.
        let n = 50u64;
        let p = params(n, 8, 3);
        let x: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        let mut fwd = CountMin::conservative(&p);
        for i in 0..n {
            fwd.update(i, x[i as usize]);
        }
        let mut rev = CountMin::conservative(&p);
        for i in (0..n).rev() {
            rev.update(i, x[i as usize]);
        }
        for j in 0..n {
            assert!(fwd.estimate(j) >= x[j as usize]);
            assert!(rev.estimate(j) >= x[j as usize]);
        }
    }
}
