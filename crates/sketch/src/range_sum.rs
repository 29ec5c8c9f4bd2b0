//! Dyadic range-sum queries over stacked Count-Median sketches.
//!
//! "Range query" is among the applications the paper's introduction
//! motivates for point-queryable linear sketches. The textbook reduction
//! (Cormode & Muthukrishnan) keeps one sketch per dyadic level; any range
//! `[a, b]` decomposes into `O(log n)` dyadic intervals, each of which is
//! a single point query at its level.

use crate::count_median::CountMedian;
use crate::heavy_hitters::HeavyHitter;
use crate::snapshot::{AbsorbPlane, Snapshottable};
use crate::storage::{CounterBackend, CounterMatrix, Dense, SharedBackend};
use crate::traits::{
    MergeError, MergeableSketch, PointQuerySketch, Reseedable, SharedSketch, SketchParams,
};

/// A turnstile range-sum sketch: `query(a, b) ≈ Σ_{a ≤ i ≤ b} x_i`.
///
/// Level `ℓ` sketches the aggregated vector `x^(ℓ)[j] = Σ x_i` over the
/// block `i >> ℓ == j`, so an update touches one counter set per level
/// (`O(log n · d)` work) and a range query sums at most two point
/// estimates per level. Built on [`CountMedian`], hence fully linear;
/// each level inherits Count-Median's Theorem 1 `ℓ∞/ℓ1` guarantee.
///
/// ```
/// use bas_sketch::{PointQuerySketch, RangeSumSketch, SketchParams};
///
/// let params = SketchParams::new(256, 128, 7).with_seed(11);
/// let mut rs = RangeSumSketch::new(&params);
/// rs.update(10, 5.0);
/// rs.update_batch(&[(20, 3.0), (200, 2.0)]); // batched fast path
/// let est = rs.query(0, 100); // ≈ 5 + 3 on this sparse input
/// assert!((est - 8.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct RangeSumSketch<B: CounterBackend = Dense> {
    n: u64,
    levels: Vec<CountMedian<B>>,
}

#[cfg(feature = "serde")]
crate::impl_backend_serde!(RangeSumSketch { n, levels });

impl RangeSumSketch {
    /// Creates a range-sum sketch over `[0, params.n)` with the default
    /// [`Dense`] backend.
    pub fn new(params: &SketchParams) -> Self {
        Self::with_backend(params)
    }
}

impl<B: CounterBackend> RangeSumSketch<B> {
    /// Creates a range-sum sketch over `[0, params.n)` with an explicit
    /// counter backend. Each dyadic level gets its own Count-Median
    /// sketch of the given width/depth (coarser levels have fewer
    /// distinct blocks but reuse the same width for simplicity; memory
    /// is `O(log n · s · d)`).
    pub fn with_backend(params: &SketchParams) -> Self {
        let n = params.n;
        let num_levels = 64 - (n.max(2) - 1).leading_zeros() as usize + 1; // ceil(log2 n) + 1
        let levels = (0..num_levels)
            .map(|l| {
                let blocks = ((n + (1u64 << l) - 1) >> l).max(1);
                let mut p = *params;
                p.n = blocks;
                p.seed = params.seed.wrapping_add(0x9E37 * (l as u64 + 1));
                CountMedian::with_backend(&p)
            })
            .collect();
        Self { n, levels }
    }

    /// Number of dyadic levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Standard dyadic decomposition shared by the live and snapshot
    /// query paths: greedily take the largest aligned block starting at
    /// `lo` that stays within `hi`, reading each block's estimate
    /// through `block_estimate(level, block)`.
    fn decompose(&self, a: u64, b: u64, mut block_estimate: impl FnMut(usize, u64) -> f64) -> f64 {
        assert!(a <= b && b < self.n, "invalid range [{a}, {b}]");
        let mut lo = a;
        let hi = b;
        let mut sum = 0.0;
        while lo <= hi {
            // Largest level where `lo` is block-aligned and the block fits.
            let align = if lo == 0 {
                63
            } else {
                lo.trailing_zeros() as usize
            };
            let mut l = align.min(self.levels.len() - 1);
            while l > 0 && lo + (1u64 << l) - 1 > hi {
                l -= 1;
            }
            sum += block_estimate(l, lo >> l);
            let step = 1u64 << l;
            if lo > hi - (step - 1) {
                break;
            }
            lo += step;
            if lo == 0 {
                break; // overflow guard (cannot trigger for b < n <= u64::MAX)
            }
        }
        sum
    }

    /// Estimates `Σ_{a ≤ i ≤ b} x_i` (inclusive bounds).
    ///
    /// # Panics
    /// Panics if `a > b` or `b ≥ n`.
    pub fn query(&self, a: u64, b: u64) -> f64 {
        self.decompose(a, b, |l, block| self.levels[l].estimate(block))
    }

    /// [`query`](RangeSumSketch::query) answered **from a frozen
    /// snapshot** (see [`Snapshottable`]): every dyadic point estimate
    /// reads the snapshot's counters, so the whole decomposition
    /// reflects one consistent stream prefix even while writers feed
    /// the live sketch.
    ///
    /// # Panics
    /// Panics if `a > b`, `b ≥ n`, or the snapshot has the wrong shape.
    pub fn query_in(&self, snap: &<Self as Snapshottable>::Snapshot, a: u64, b: u64) -> f64 {
        assert_eq!(
            snap.len(),
            self.levels.len(),
            "snapshot level count mismatch"
        );
        self.decompose(a, b, |l, block| self.levels[l].estimate_in(&snap[l], block))
    }

    /// [`rank`](RangeSumSketch::rank) from a frozen snapshot: the
    /// prefix mass `Σ_{i ≤ v} x_i` as of the snapshot's stream prefix.
    pub fn rank_in(&self, snap: &<Self as Snapshottable>::Snapshot, v: u64) -> f64 {
        self.query_in(snap, 0, v)
    }

    /// Estimates the rank of `v`: `Σ_{i ≤ v} x_i` — the prefix mass up
    /// to coordinate `v`. For cash-register streams this is the
    /// empirical CDF scaled by the total mass.
    pub fn rank(&self, v: u64) -> f64 {
        self.query(0, v)
    }

    /// Estimates the `phi`-quantile coordinate: the smallest `v` with
    /// `rank(v) ≥ phi · total_mass`, by binary search over prefix sums
    /// (`O(log² n)` point estimates). Intended for non-negative streams
    /// — the "quantile / range query" applications of the paper's
    /// introduction.
    ///
    /// # Panics
    /// Panics unless `0 < phi ≤ 1`.
    pub fn quantile(&self, phi: f64) -> u64 {
        assert!(phi > 0.0 && phi <= 1.0, "phi must be in (0,1], got {phi}");
        let total = self.query(0, self.n - 1);
        let target = phi * total;
        let (mut lo, mut hi) = (0u64, self.n - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rank(mid) >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }
}

/// The point-query view of the range-sum stack: `estimate(j)` is the
/// single-coordinate range query `query(j, j)`, answered directly from
/// the finest dyadic level. Implementing the trait (rather than
/// keeping `update` inherent, as before the query-plane refactor) is
/// what lets the stack ride every generic ingest and serving path —
/// `ShardedIngest`, `ConcurrentIngest`, `QueryEngine` — unchanged.
impl<B: CounterBackend> Reseedable for RangeSumSketch<B> {
    /// The top-level parameters are reconstructed from level 0: the
    /// struct stores only `n` and the per-level sketches (the serde
    /// wire format predates rotation), and level `l`'s seed is
    /// `master + 0x9E37·(l+1)` by construction, so the master is
    /// exactly `level0.seed − 0x9E37`.
    fn config(&self) -> SketchParams {
        let mut p = self.levels[0].config();
        p.n = self.n;
        p.seed = p.seed.wrapping_sub(0x9E37);
        p
    }

    fn reseeded(&self, seed: u64) -> Self {
        Self::with_backend(&self.config().with_seed(seed))
    }
}

impl<B: CounterBackend> PointQuerySketch for RangeSumSketch<B> {
    fn update(&mut self, item: u64, delta: f64) {
        assert!(item < self.n, "item outside universe");
        for (l, sketch) in self.levels.iter_mut().enumerate() {
            sketch.update(item >> l, delta);
        }
    }

    /// Applies a batch of updates level-major: items are shifted into
    /// each dyadic level's block coordinates incrementally, then handed
    /// to that level's [`CountMedian::update_batch`] fast path — so
    /// under `bas_hash::HashKind::OneHash` every dyadic level takes
    /// the blocked row-major kernel for free. One
    /// scratch buffer serves all levels. Bit-for-bit equivalent to
    /// calling [`update`](PointQuerySketch::update) per item (each
    /// counter sees the same deltas in the same order).
    fn update_batch(&mut self, items: &[(u64, f64)]) {
        for &(item, _) in items {
            assert!(item < self.n, "item outside universe");
        }
        let mut shifted = items.to_vec();
        for (l, sketch) in self.levels.iter_mut().enumerate() {
            if l > 0 {
                for u in &mut shifted {
                    u.0 >>= 1;
                }
            }
            sketch.update_batch(&shifted);
        }
    }

    /// The finest level *is* the point sketch, so a point estimate
    /// reads level 0 only — identical to `query(item, item)`, which the
    /// dyadic decomposition also answers entirely at level 0.
    fn estimate(&self, item: u64) -> f64 {
        assert!(item < self.n, "item outside universe");
        self.levels[0].estimate(item)
    }

    fn universe(&self) -> u64 {
        self.n
    }

    fn size_in_words(&self) -> usize {
        self.levels.iter().map(|s| s.size_in_words()).sum()
    }

    fn label(&self) -> &'static str {
        "RS"
    }
}

impl<B: CounterBackend> MergeableSketch for RangeSumSketch<B> {
    /// Merges another range-sum sketch built with identical parameters,
    /// level by level.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.n != other.n || self.levels.len() != other.levels.len() {
            return Err(MergeError::ShapeMismatch { what: "universes" });
        }
        for (a, b) in self.levels.iter_mut().zip(other.levels.iter()) {
            a.merge_from(b)?;
        }
        Ok(())
    }

    /// Exact counter subtraction, level by level (every dyadic level is
    /// a linear Count-Median).
    fn subtract_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.n != other.n || self.levels.len() != other.levels.len() {
            return Err(MergeError::ShapeMismatch { what: "universes" });
        }
        for (a, b) in self.levels.iter_mut().zip(other.levels.iter()) {
            a.subtract_from(b)?;
        }
        Ok(())
    }
}

impl<B: SharedBackend> SharedSketch for RangeSumSketch<B> {
    /// Applies `x_item ← x_item + delta` through a **shared** reference
    /// — one shared update per dyadic level.
    fn update_shared(&self, item: u64, delta: f64) {
        assert!(item < self.n, "item outside universe");
        for (l, sketch) in self.levels.iter().enumerate() {
            sketch.update_shared(item >> l, delta);
        }
    }

    /// Shared-reference batch update: shifts items into each level's
    /// block coordinates and feeds that level's
    /// [`SharedSketch::update_batch_shared`] kernel.
    fn update_batch_shared(&self, items: &[(u64, f64)]) {
        for &(item, _) in items {
            assert!(item < self.n, "item outside universe");
        }
        let mut shifted = items.to_vec();
        for (l, sketch) in self.levels.iter().enumerate() {
            if l > 0 {
                for u in &mut shifted {
                    u.0 >>= 1;
                }
            }
            sketch.update_batch_shared(&shifted);
        }
    }
}

impl<B: CounterBackend> Snapshottable for RangeSumSketch<B> {
    /// One frozen Count-Median matrix per dyadic level, coarsest last.
    type Snapshot = Vec<CounterMatrix<f64, Dense>>;

    fn make_snapshot(&self) -> Self::Snapshot {
        self.levels.iter().map(|s| s.make_snapshot()).collect()
    }

    fn snapshot_into(&self, snap: &mut Self::Snapshot) {
        assert_eq!(
            snap.len(),
            self.levels.len(),
            "snapshot level count mismatch"
        );
        for (sketch, level_snap) in self.levels.iter().zip(snap.iter_mut()) {
            sketch.snapshot_into(level_snap);
        }
    }

    fn estimate_in(&self, snap: &Self::Snapshot, item: u64) -> f64 {
        assert!(item < self.n, "item outside universe");
        self.levels[0].estimate_in(&snap[0], item)
    }

    /// Point estimates read level 0 only, and level 0's universe is
    /// this sketch's, so the scan is level 0's.
    fn items_at_least_in(&self, snap: &Self::Snapshot, threshold: f64, out: &mut Vec<HeavyHitter>) {
        self.levels[0].items_at_least_in(&snap[0], threshold, out);
    }

    /// Linear level by level: always `Ok`.
    fn merge_snapshot(
        &self,
        snap: &mut Self::Snapshot,
        other: &Self::Snapshot,
    ) -> Result<(), MergeError> {
        assert_eq!(snap.len(), other.len(), "snapshot level count mismatch");
        for (sketch, (mine, theirs)) in self.levels.iter().zip(snap.iter_mut().zip(other.iter())) {
            sketch.merge_snapshot(mine, theirs)?;
        }
        Ok(())
    }

    /// Exact subtraction level by level: the whole dyadic stack is
    /// linear, so a windowed range-sum plane is just per-level plane
    /// arithmetic. Always `Ok`.
    fn subtract_snapshot(
        &self,
        snap: &mut Self::Snapshot,
        other: &Self::Snapshot,
    ) -> Result<(), MergeError> {
        assert_eq!(snap.len(), other.len(), "snapshot level count mismatch");
        for (sketch, (mine, theirs)) in self.levels.iter().zip(snap.iter_mut().zip(other.iter())) {
            sketch.subtract_snapshot(mine, theirs)?;
        }
        Ok(())
    }
}

/// The dyadic stack absorbs level by level — each level is a linear
/// Count-Median, so a shipped stack of planes rebuilds the whole
/// hierarchy exactly.
impl<B: SharedBackend> AbsorbPlane for RangeSumSketch<B> {
    fn absorb_plane_shared(&self, plane: &Self::Snapshot) -> Result<(), MergeError> {
        if plane.len() != self.levels.len() {
            return Err(MergeError::ShapeMismatch {
                what: "dyadic level counts",
            });
        }
        for (sketch, level_plane) in self.levels.iter().zip(plane.iter()) {
            sketch.absorb_plane_shared(level_plane)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sparse vector: sketch error is proportional to tail mass, so a
    /// k-sparse input (tail ≈ 0) makes range queries near-exact and the
    /// test deterministic in spirit.
    fn build_sparse(n: u64) -> (RangeSumSketch, Vec<f64>) {
        let params = SketchParams::new(n, 256, 7).with_seed(11);
        let mut rs = RangeSumSketch::new(&params);
        let mut x = vec![0.0f64; n as usize];
        for i in (0..n).step_by((n as usize / 16).max(1)) {
            x[i as usize] = 10.0 + (i % 7) as f64;
        }
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                rs.update(i as u64, v);
            }
        }
        (rs, x)
    }

    #[test]
    fn point_ranges_match_point_values() {
        let (rs, x) = build_sparse(512);
        for i in (0..512u64).step_by(11) {
            let est = rs.query(i, i);
            assert!(
                (est - x[i as usize]).abs() < 2.0,
                "i = {i}: {est} vs {}",
                x[i as usize]
            );
        }
    }

    #[test]
    fn full_range_matches_total() {
        let (rs, x) = build_sparse(256);
        let total: f64 = x.iter().sum();
        let est = rs.query(0, 255);
        assert!(
            (est - total).abs() <= 0.05 * total + 5.0,
            "est {est} vs total {total}"
        );
    }

    #[test]
    fn arbitrary_ranges_close_to_truth() {
        let (rs, x) = build_sparse(512);
        for (a, b) in [(0u64, 10u64), (13, 200), (250, 511), (100, 101), (7, 7)] {
            let truth: f64 = x[a as usize..=b as usize].iter().sum();
            let est = rs.query(a, b);
            assert!(
                (est - truth).abs() <= 0.10 * truth.max(30.0),
                "range [{a},{b}]: est {est}, truth {truth}"
            );
        }
    }

    #[test]
    fn dense_vector_error_within_theory() {
        // Dense inputs have large tail mass; the estimate error per
        // dyadic block is O(tail/k), so just check a generous bound.
        let n = 200u64;
        let params = SketchParams::new(n, 256, 7).with_seed(11);
        let mut rs = RangeSumSketch::new(&params);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 5) as f64).collect();
        for (i, &v) in x.iter().enumerate() {
            rs.update(i as u64, v);
        }
        let total: f64 = x.iter().sum();
        for (a, b) in [(0u64, 199u64), (20, 120)] {
            let truth: f64 = x[a as usize..=b as usize].iter().sum();
            let est = rs.query(a, b);
            assert!(
                (est - truth).abs() <= 0.25 * total,
                "range [{a},{b}]: est {est}, truth {truth}"
            );
        }
    }

    #[test]
    fn update_batch_matches_one_by_one_exactly() {
        let params = SketchParams::new(128, 32, 5).with_seed(4);
        let mut batched = RangeSumSketch::new(&params);
        let mut looped = RangeSumSketch::new(&params);
        let items: Vec<(u64, f64)> = (0..200u64)
            .map(|i| (i * 5 % 128, ((i % 11) as f64 - 5.0)))
            .collect();
        batched.update_batch(&items);
        for &(i, d) in &items {
            looped.update(i, d);
        }
        for (a, b) in [(0u64, 127u64), (3, 90), (64, 64), (10, 30)] {
            assert_eq!(batched.query(a, b), looped.query(a, b), "range [{a},{b}]");
        }
    }

    #[test]
    fn point_estimate_equals_single_coordinate_query() {
        let (rs, _) = build_sparse(256);
        for j in (0..256u64).step_by(7) {
            assert_eq!(rs.estimate(j), rs.query(j, j), "item {j}");
        }
        assert_eq!(rs.label(), "RS");
    }

    #[test]
    fn snapshot_queries_match_live_when_quiescent() {
        let (mut rs, _) = build_sparse(256);
        let snap = rs.snapshot();
        for (a, b) in [(0u64, 255u64), (3, 90), (64, 64), (10, 30)] {
            assert_eq!(rs.query_in(&snap, a, b), rs.query(a, b), "range [{a},{b}]");
        }
        for v in (0..256u64).step_by(31) {
            assert_eq!(rs.rank_in(&snap, v), rs.rank(v), "v {v}");
        }
        // Frozen: later updates do not leak into the snapshot.
        let before = rs.query_in(&snap, 0, 255);
        rs.update(100, 500.0);
        assert_eq!(rs.query_in(&snap, 0, 255), before);
    }

    #[test]
    fn merged_snapshots_equal_snapshot_of_merged_stack() {
        let params = SketchParams::new(128, 64, 5).with_seed(9);
        let mut a = RangeSumSketch::new(&params);
        let mut b = RangeSumSketch::new(&params);
        for i in 0..128u64 {
            a.update(i, 1.0);
            b.update(i, (i % 3) as f64);
        }
        let mut snap = a.snapshot();
        a.merge_snapshot(&mut snap, &b.snapshot()).unwrap();
        a.merge_from(&b).unwrap();
        for (lo, hi) in [(0u64, 127u64), (5, 60), (64, 100)] {
            assert_eq!(a.query_in(&snap, lo, hi), a.query(lo, hi));
        }
    }

    #[test]
    fn turnstile_deletions_supported() {
        let params = SketchParams::new(64, 64, 5).with_seed(2);
        let mut rs = RangeSumSketch::new(&params);
        rs.update(10, 5.0);
        rs.update(20, 3.0);
        rs.update(10, -5.0);
        let est = rs.query(0, 63);
        assert!((est - 3.0).abs() < 0.5, "est = {est}");
    }

    #[test]
    fn merge_matches_combined() {
        let params = SketchParams::new(128, 64, 5).with_seed(9);
        let mut a = RangeSumSketch::new(&params);
        let mut b = RangeSumSketch::new(&params);
        let mut c = RangeSumSketch::new(&params);
        for i in 0..128u64 {
            a.update(i, 1.0);
            b.update(i, (i % 3) as f64);
            c.update(i, 1.0 + (i % 3) as f64);
        }
        a.merge_from(&b).unwrap();
        for (lo, hi) in [(0u64, 127u64), (5, 60), (64, 100)] {
            assert!((a.query(lo, hi) - c.query(lo, hi)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn reversed_range_panics() {
        let (rs, _) = build_sparse(32);
        rs.query(10, 5);
    }

    #[test]
    fn rank_is_monotone_prefix_mass() {
        let (rs, x) = build_sparse(256);
        let mut prev = f64::NEG_INFINITY;
        for v in (0..256u64).step_by(32) {
            let r = rs.rank(v);
            let truth: f64 = x[..=v as usize].iter().sum();
            assert!((r - truth).abs() <= 0.1 * truth.max(30.0), "v = {v}");
            assert!(r >= prev - 1.0, "rank should be ~monotone at v = {v}");
            prev = r;
        }
    }

    #[test]
    fn quantiles_land_near_true_quantiles() {
        // Mass concentrated on known coordinates -> quantiles must land
        // on/near them.
        let params = SketchParams::new(1024, 256, 7).with_seed(21);
        let mut rs = RangeSumSketch::new(&params);
        rs.update(100, 400.0); // 40% of the mass
        rs.update(500, 400.0); // cumulative 80%
        rs.update(900, 200.0); // cumulative 100%
        let q25 = rs.quantile(0.25);
        let q60 = rs.quantile(0.60);
        let q95 = rs.quantile(0.95);
        assert!((90..=110).contains(&q25), "q25 = {q25}");
        assert!((490..=510).contains(&q60), "q60 = {q60}");
        assert!((890..=910).contains(&q95), "q95 = {q95}");
    }

    #[test]
    fn median_of_uniform_mass_is_central() {
        let params = SketchParams::new(512, 256, 7).with_seed(3);
        let mut rs = RangeSumSketch::new(&params);
        for i in 0..512u64 {
            rs.update(i, 1.0);
        }
        let med = rs.quantile(0.5);
        assert!(
            (180..=330).contains(&med),
            "median {med} should be near 256"
        );
    }

    #[test]
    #[should_panic(expected = "phi must be in")]
    fn quantile_rejects_bad_phi() {
        let (rs, _) = build_sparse(32);
        rs.quantile(0.0);
    }

    #[test]
    fn num_levels_is_log_n() {
        let params = SketchParams::new(1024, 16, 2).with_seed(0);
        let rs = RangeSumSketch::new(&params);
        assert_eq!(rs.num_levels(), 11); // log2(1024) + 1
        assert_eq!(rs.universe(), 1024);
        assert!(rs.size_in_words() >= 11 * 16 * 2 / 2);
    }
}
