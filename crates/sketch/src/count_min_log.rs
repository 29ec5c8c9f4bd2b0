//! Count-Min-Log with conservative update (CML-CU).

use crate::snapshot::Snapshottable;
use crate::storage::{CounterBackend, CounterMatrix, Dense};
use crate::traits::{MergeError, PointQuerySketch, SketchParams};
use bas_hash::{AnyBucketHasher, BucketHasher, HashFamily, SplitMix64};

/// Count-Min-Log sketch with conservative update (Pitel & Fouquier,
/// 2015) — the CML-CU baseline of the paper's experiments, with the same
/// log base **1.00025** (§5.1).
///
/// Counters hold log-scale values: a counter at level `c` represents the
/// estimate `value(c) = (base^c − 1)/(base − 1)`. A unit increment
/// succeeds with probability `base^{−c_min}` and (conservatively) bumps
/// only the counters currently at the minimum level. Queries return
/// `value(min_i c_i)`.
///
/// Properties relevant to the paper's comparison:
/// * **Not linear** — the probabilistic, state-dependent increments make
///   merging lossy, so CML-CU is excluded from the distributed protocol.
/// * Cash-register only — `Δ` must be a non-negative integer (fractional
///   or negative deltas panic).
/// * Bit-efficient — levels grow logarithmically with the count, which
///   is the sketch's entire reason to exist. Levels are stored in 16
///   bits (as in Pitel & Fouquier's evaluation), so **four counters fit
///   per 64-bit word**; at equal space budgets CML-CU therefore gets 4x
///   the buckets of Count-Min, which is exactly why the paper's CML-CU
///   beats CM-CU. With base 1.00025 a saturated 16-bit level represents
///   ≈5·10^10, far beyond any workload here; saturated counters stop
///   incrementing.
///
/// Bulk updates `(i, Δ)` are applied with exact geometric batching: the
/// number of Bernoulli(`p`) trials until a success is sampled directly as
/// a Geometric(`p`) variate, so one `update` call with `Δ = m` follows
/// exactly the same distribution as `m` unit updates, in
/// `O(levels gained + 1)` work instead of `O(m)`.
///
/// The 16-bit levels live in a [`CounterMatrix`] whose backend `B` is a
/// type parameter like every other sketch's. CML-CU never implements
/// shared ingest, though: each increment reads the current minimum
/// level *and* the RNG — state dependence that per-counter shared
/// updates cannot express (the same property that already makes it
/// non-mergeable). The generic parameter exists for storage-layer
/// uniformity, and [`Dense`] is the only sensible choice.
///
/// ```
/// use bas_sketch::{CountMinLog, PointQuerySketch, SketchParams};
///
/// let params = SketchParams::new(1_000, 64, 4).with_seed(23);
/// let mut cml = CountMinLog::new(&params);
/// cml.update(7, 40.0);
/// cml.update_batch(&[(7, 10.0), (9, 25.0)]); // integer deltas only
/// // Base 1.00025 makes small counts near-exact.
/// assert!((cml.estimate(7) - 50.0).abs() < 1.0);
/// assert!((cml.estimate(9) - 25.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CountMinLog<B: CounterBackend = Dense> {
    params: SketchParams,
    base: f64,
    ln_base: f64,
    levels: CounterMatrix<u16, B>, // depth × width
    hashers: Vec<AnyBucketHasher>,
    rng: SplitMix64,
}

#[cfg(feature = "serde")]
crate::impl_backend_serde!(CountMinLog {
    params,
    base,
    ln_base,
    levels,
    hashers,
    rng
});

impl CountMinLog {
    /// Creates an empty CML-CU sketch with the given log base and the
    /// default [`Dense`] backend.
    ///
    /// # Panics
    /// Panics unless `base > 1`.
    pub fn with_base(params: &SketchParams, base: f64) -> Self {
        Self::with_backend(params, base)
    }

    /// Creates an empty sketch with the paper's base of 1.00025.
    pub fn new(params: &SketchParams) -> Self {
        Self::with_base(params, Self::PAPER_BASE)
    }
}

impl<B: CounterBackend> CountMinLog<B> {
    /// Log base used in the paper's experiments.
    pub const PAPER_BASE: f64 = 1.00025;

    /// Creates an empty CML-CU sketch with an explicit counter backend.
    ///
    /// # Panics
    /// Panics unless `base > 1`.
    pub fn with_backend(params: &SketchParams, base: f64) -> Self {
        assert!(base > 1.0, "log base must exceed 1, got {base}");
        let mut seeder = SplitMix64::new(params.seed ^ 0xC0DE_0004);
        let mut family = HashFamily::new(params.hash_kind, &mut seeder, params.width);
        let hashers = family.sample_many(params.depth);
        let width = family.buckets();
        let mut params = *params;
        params.width = width;
        Self {
            params,
            base,
            ln_base: base.ln(),
            levels: CounterMatrix::new(width, params.depth),
            hashers,
            rng: seeder.split(),
        }
    }

    /// The log base in use.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The estimated count represented by a level.
    #[inline]
    pub fn value_of_level(&self, level: u16) -> f64 {
        ((level as f64 * self.ln_base).exp() - 1.0) / (self.base - 1.0)
    }

    #[inline]
    fn cell(&self, row: usize, col: usize) -> u16 {
        self.levels.get(row, col)
    }

    #[inline]
    fn min_level(&self, item: u64) -> u16 {
        let mut best = u16::MAX;
        for (row, h) in self.hashers.iter().enumerate() {
            let v = self.cell(row, h.bucket(item));
            if v < best {
                best = v;
            }
        }
        best
    }

    /// Samples `G ~ Geometric(p)`: the number of Bernoulli(`p`) trials up
    /// to and including the first success. Exact inverse-CDF sampling.
    #[inline]
    fn sample_geometric(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 1;
        }
        debug_assert!(p > 0.0);
        // U uniform in (0,1]; G = ceil(ln U / ln(1-p)).
        let u = loop {
            let bits = self.rng.next_u64() >> 11; // 53 random bits
            let u = (bits as f64 + 1.0) / (1u64 << 53) as f64;
            if u > 0.0 {
                break u;
            }
        };
        let g = (u.ln() / (-p).ln_1p()).ceil();
        if g < 1.0 {
            1
        } else if g >= u64::MAX as f64 {
            u64::MAX
        } else {
            g as u64
        }
    }

    /// Applies `remaining` unit increments to `item` (the validated
    /// inner loop shared by `update` and `update_batch`).
    fn apply_units(&mut self, item: u64, mut remaining: u64) {
        while remaining > 0 {
            let c_min = self.min_level(item);
            if c_min == u16::MAX {
                return; // saturated: estimate is pinned at value(65535)
            }
            // Success probability for a unit increment at this level.
            let p = (-(c_min as f64) * self.ln_base).exp();
            let g = self.sample_geometric(p);
            if g > remaining {
                return; // no success within the remaining units
            }
            remaining -= g;
            // Conservative: bump only the counters at the minimum level.
            for row in 0..self.params.depth {
                let b = self.hashers[row].bucket(item);
                if self.levels.get(row, b) == c_min {
                    self.levels.set(row, b, c_min + 1);
                }
            }
        }
    }

    /// Validates the cash-register / integer-delta contract shared by
    /// `update` and `update_batch`.
    #[inline]
    fn validate_delta(delta: f64) {
        assert!(
            delta >= 0.0 && delta.fract() == 0.0,
            "CML-CU requires non-negative integer deltas, got {delta}"
        );
    }
}

impl<B: CounterBackend> PointQuerySketch for CountMinLog<B> {
    /// Applies `Δ` unit increments with the exact batched distribution.
    ///
    /// # Panics
    /// Panics if `delta` is negative or not an integer.
    fn update(&mut self, item: u64, delta: f64) {
        debug_assert!(item < self.params.n, "item outside universe");
        Self::validate_delta(delta);
        self.apply_units(item, delta as u64);
    }

    /// Batch update. CML-CU's counters are probabilistic *and*
    /// state-dependent (each increment's success probability reads the
    /// current minimum level), so there is no hoisted rewrite: the
    /// specialization validates the whole batch up front — failing fast
    /// before any counter or RNG state changes — then applies items in
    /// order, drawing from the RNG exactly as the one-by-one loop
    /// would. State after a successful call is therefore bit-for-bit
    /// identical to calling [`update`](PointQuerySketch::update) per
    /// item.
    fn update_batch(&mut self, items: &[(u64, f64)]) {
        for &(item, delta) in items {
            debug_assert!(item < self.params.n, "item outside universe");
            Self::validate_delta(delta);
        }
        for &(item, delta) in items {
            self.apply_units(item, delta as u64);
        }
    }

    fn estimate(&self, item: u64) -> f64 {
        self.value_of_level(self.min_level(item))
    }

    fn universe(&self) -> u64 {
        self.params.n
    }

    fn size_in_words(&self) -> usize {
        // Four u16 levels per 64-bit word: the bit-efficiency that buys
        // CML-CU extra width in equal-space comparisons. (The `Atomic`
        // backend physically spends a word per level, but the paper's
        // space accounting — what this method reports — is about the
        // dense wire/storage form.)
        self.levels.len().div_ceil(4)
    }

    fn label(&self) -> &'static str {
        "CML-CU"
    }
}

impl<B: CounterBackend> Snapshottable for CountMinLog<B> {
    /// The frozen view keeps the 16-bit log levels as-is; decoding to
    /// counts happens at query time exactly as on the live sketch.
    type Snapshot = CounterMatrix<u16, Dense>;

    fn make_snapshot(&self) -> Self::Snapshot {
        CounterMatrix::new(self.params.width, self.params.depth)
    }

    fn snapshot_into(&self, snap: &mut Self::Snapshot) {
        self.levels.snapshot_into(snap);
    }

    fn estimate_in(&self, snap: &Self::Snapshot, item: u64) -> f64 {
        let mut best = u16::MAX;
        for (row, h) in self.hashers.iter().enumerate() {
            let v = snap.get(row, h.bucket(item));
            if v < best {
                best = v;
            }
        }
        self.value_of_level(best)
    }

    /// Always an error: log-scale levels are not additive (the same
    /// non-linearity that excludes CML-CU from merging and from the
    /// distributed protocol).
    fn merge_snapshot(
        &self,
        _snap: &mut Self::Snapshot,
        _other: &Self::Snapshot,
    ) -> Result<(), MergeError> {
        Err(MergeError::ShapeMismatch {
            what: "log-scale counters (CML-CU is not linear)",
        })
    }

    /// **Approximate only.** Log-scale levels are not sums, so the
    /// windowed plane arithmetic that is exact for the linear sketches
    /// degenerates here to per-cell *saturating level subtraction*:
    /// `level ← level − min(level, old_level)`. The result decodes to a
    /// crude lower-bound-ish window estimate (a bucket whose level did
    /// not move since the boundary decodes to 0, one that moved decodes
    /// to far less than the window's true mass). Allowed so
    /// bounded-lifetime rotation stays *possible* on every sketch in
    /// the comparison set; callers needing faithful windows must use a
    /// linear sketch — which is also why the windowed `QueryEngine`
    /// never admits CML-CU (no `SharedSketch` impl).
    fn subtract_snapshot(
        &self,
        snap: &mut Self::Snapshot,
        other: &Self::Snapshot,
    ) -> Result<(), MergeError> {
        for row in 0..snap.depth() {
            for col in 0..snap.width() {
                let diff = snap.get(row, col).saturating_sub(other.get(row, col));
                snap.set(row, col, diff);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u64, w: usize, d: usize) -> SketchParams {
        SketchParams::new(n, w, d).with_seed(23)
    }

    #[test]
    fn snapshot_estimates_match_live_when_quiescent() {
        let mut cml = CountMinLog::new(&params(200, 64, 4));
        let items: Vec<(u64, f64)> = (0..300u64)
            .map(|i| (i * 3 % 200, (1 + i % 6) as f64))
            .collect();
        cml.update_batch(&items);
        let snap = cml.snapshot();
        for j in 0..200u64 {
            assert_eq!(cml.estimate_in(&snap, j), cml.estimate(j), "item {j}");
        }
        let other = cml.snapshot();
        let mut snap2 = cml.snapshot();
        assert!(cml.merge_snapshot(&mut snap2, &other).is_err());
    }

    #[test]
    fn level_zero_is_zero() {
        let cml = CountMinLog::new(&params(100, 32, 4));
        assert_eq!(cml.value_of_level(0), 0.0);
        assert_eq!(cml.estimate(5), 0.0);
    }

    #[test]
    fn value_function_matches_formula() {
        let cml = CountMinLog::with_base(&params(10, 4, 1), 2.0);
        // base 2: value(c) = 2^c - 1.
        for c in 0..10u16 {
            assert!((cml.value_of_level(c) - ((1u64 << c) - 1) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn small_counts_are_near_exact() {
        // With base 1.00025, increments are deterministic for thousands
        // of units (p ~ 1), so small counts come back almost exactly.
        let mut cml = CountMinLog::new(&params(100, 64, 4));
        cml.update(7, 50.0);
        let est = cml.estimate(7);
        assert!((est - 50.0).abs() < 1.0, "est = {est}");
    }

    #[test]
    fn batched_update_matches_unit_updates_in_distribution() {
        // Mean estimate over many trials should approximate the true
        // count for both update styles.
        let truth = 2000.0;
        let trials = 30;
        let mut batched = 0.0;
        let mut units = 0.0;
        for seed in 0..trials {
            let p = SketchParams::new(10, 16, 2).with_seed(seed);
            let mut a = CountMinLog::new(&p);
            a.update(3, truth);
            batched += a.estimate(3);
            let mut b = CountMinLog::new(&p.with_seed(seed + 1000));
            for _ in 0..truth as u64 {
                b.update(3, 1.0);
            }
            units += b.estimate(3);
        }
        batched /= trials as f64;
        units /= trials as f64;
        assert!(
            (batched - truth).abs() < 0.05 * truth,
            "batched = {batched}"
        );
        assert!((units - truth).abs() < 0.05 * truth, "units = {units}");
        assert!((batched - units).abs() < 0.05 * truth);
    }

    #[test]
    fn update_batch_matches_one_by_one_exactly() {
        // Same seed => same RNG stream => identical counters, because
        // the batch path draws geometrics in the same order.
        let p = params(100, 16, 3);
        let mut batched = CountMinLog::new(&p);
        let mut looped = CountMinLog::new(&p);
        let items: Vec<(u64, f64)> = (0..200u64).map(|i| (i % 100, (i % 5) as f64)).collect();
        batched.update_batch(&items);
        for &(i, d) in &items {
            looped.update(i, d);
        }
        for j in 0..100u64 {
            assert_eq!(batched.estimate(j), looped.estimate(j), "item {j}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative integer")]
    fn batch_fractional_delta_panics() {
        let mut cml = CountMinLog::new(&params(10, 8, 2));
        cml.update_batch(&[(0, 1.0), (1, 0.5)]);
    }

    #[test]
    fn estimate_relative_error_reasonable_for_large_counts() {
        let mut cml = CountMinLog::new(&params(50, 32, 4));
        let truth = 200_000.0;
        cml.update(11, truth);
        let est = cml.estimate(11);
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.10, "relative error {rel}");
    }

    #[test]
    #[should_panic(expected = "non-negative integer")]
    fn negative_delta_panics() {
        let mut cml = CountMinLog::new(&params(10, 8, 2));
        cml.update(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative integer")]
    fn fractional_delta_panics() {
        let mut cml = CountMinLog::new(&params(10, 8, 2));
        cml.update(0, 1.5);
    }

    #[test]
    #[should_panic(expected = "log base must exceed 1")]
    fn base_one_rejected() {
        CountMinLog::with_base(&params(10, 8, 2), 1.0);
    }

    #[test]
    fn geometric_sampler_mean() {
        let mut cml = CountMinLog::new(&params(10, 8, 2));
        let p = 0.2;
        let trials = 20_000;
        let sum: u64 = (0..trials).map(|_| cml.sample_geometric(p)).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 1.0 / p).abs() < 0.2, "mean = {mean}");
    }

    #[test]
    fn geometric_p_one_is_always_one() {
        let mut cml = CountMinLog::new(&params(10, 8, 2));
        for _ in 0..100 {
            assert_eq!(cml.sample_geometric(1.0), 1);
        }
    }

    #[test]
    fn size_reports_quarter_words() {
        let cml = CountMinLog::new(&params(10, 8, 2));
        assert_eq!(cml.size_in_words(), 4); // 16 u16 cells = 4 words
        assert_eq!(cml.label(), "CML-CU");
    }

    #[test]
    fn saturation_stops_cleanly() {
        // Force saturation with a huge base so levels climb fast.
        let mut cml = CountMinLog::with_base(&params(4, 2, 1), 1e9);
        // With base 1e9, the first unit increment moves level 0 -> 1 and
        // the success probability for the next is 1e-9; just check the
        // sketch keeps answering.
        cml.update(0, 1_000_000.0);
        assert!(cml.estimate(0).is_finite());
    }
}
