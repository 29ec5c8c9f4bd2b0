//! Count-Sketch: CS-matrix sketching with signed median recovery.

use crate::snapshot::Snapshottable;
use crate::storage::{CounterBackend, CounterMatrix, Dense, SharedBackend};
use crate::traits::{
    MergeError, MergeableSketch, PointQuerySketch, Reseedable, SharedSketch, SketchParams,
};
use crate::util::median_of_rows;
use bas_hash::{
    AnyBucketHasher, BucketHasher, HashFamily, RowDeriver, SignHash, SignHasher, SplitMix64,
};

/// One row's sign for `item`. One-hash rows carry their own sign
/// channel derived from the shared digest (so batch kernels get signs
/// for free); every other family uses the row's sampled [`SignHash`].
/// The constructor samples the `SignHash` vector identically for all
/// kinds, so seeding streams and the serialized layout never change.
#[inline]
fn row_sign(hasher: &AnyBucketHasher, sign: &SignHash, item: u64) -> i8 {
    match hasher {
        AnyBucketHasher::Derived(r) => r.sign(item),
        _ => sign.sign(item),
    }
}

/// The Count-Sketch of Charikar, Chen & Farach-Colton (paper, Theorem 2).
///
/// Each row pairs a bucket hash `h_i` with a pairwise-independent sign
/// `r_i : [n] → {−1, +1}` (the CS-matrix of Definition 2); a point query
/// returns
///
/// ```text
/// x̂_j = median_{i ∈ [d]} r_i(j)·( Ψ(h_i, r_i)·x )_{h_i(j)}
/// ```
///
/// With `s = Θ(k/α)`, `d = Θ(log n)` this achieves
/// `‖x̂ − x‖∞ ≤ α/√k · Err_2^k(x)` w.p. `1 − 1/n` — the `ℓ∞/ℓ2` guarantee
/// that the bias-aware `ℓ2`-S/R strictly improves on biased inputs.
/// Linear, so it merges and works in the distributed model.
///
/// Counters live in a [`CounterMatrix`] whose backend `B` is a type
/// parameter: [`Dense`] (the default) for classical exclusive ingest,
/// `CountSketch<Atomic>` (alias
/// [`AtomicCountSketch`](crate::AtomicCountSketch)) for single-writer
/// [`SharedSketch`] ingest into one shared sketch.
///
/// ```
/// use bas_sketch::{CountSketch, PointQuerySketch, SketchParams};
///
/// let params = SketchParams::new(1_000, 128, 7).with_seed(7);
/// let mut cs = CountSketch::new(&params);
/// cs.update(42, 9.0);
/// cs.update_batch(&[(42, 1.0), (9, -2.0)]); // turnstile batch
/// assert_eq!(cs.estimate(42), 10.0);        // sparse input: exact
/// assert_eq!(cs.estimate(9), -2.0);
/// ```
#[derive(Debug, Clone)]
pub struct CountSketch<B: CounterBackend = Dense> {
    params: SketchParams,
    grid: CounterMatrix<f64, B>,
    hashers: Vec<AnyBucketHasher>,
    signs: Vec<SignHash>,
}

#[cfg(feature = "serde")]
crate::impl_backend_serde!(CountSketch {
    params,
    grid,
    hashers,
    signs
});

impl CountSketch {
    /// Creates an empty Count-Sketch with the default [`Dense`] backend.
    pub fn new(params: &SketchParams) -> Self {
        Self::with_backend(params)
    }
}

impl<B: CounterBackend> CountSketch<B> {
    /// Creates an empty Count-Sketch with an explicit counter backend
    /// (e.g. `CountSketch::<Atomic>::with_backend` for shared ingest).
    pub fn with_backend(params: &SketchParams) -> Self {
        let mut seeder = SplitMix64::new(params.seed ^ 0xC0DE_0002);
        let mut family = HashFamily::new(params.hash_kind, &mut seeder, params.width);
        let hashers = family.sample_many(params.depth);
        let signs = (0..params.depth)
            .map(|_| SignHash::sample(&mut seeder))
            .collect();
        let width = family.buckets();
        let mut params = *params;
        params.width = width;
        Self {
            params,
            grid: CounterMatrix::new(width, params.depth),
            hashers,
            signs,
        }
    }

    /// The parameters the sketch was built with.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// Raw signed bucket sum `(Ψ(h_row, r_row)·x)[bucket]`.
    #[inline]
    pub fn bucket_value(&self, row: usize, bucket: usize) -> f64 {
        self.grid.get(row, bucket)
    }

    /// The bucket the item hashes to in a given row.
    #[inline]
    pub fn bucket_of(&self, row: usize, item: u64) -> usize {
        self.hashers[row].bucket(item)
    }

    /// The sign the item carries in a given row.
    #[inline]
    pub fn sign_of(&self, row: usize, item: u64) -> f64 {
        row_sign(&self.hashers[row], &self.signs[row], item) as f64
    }

    /// Estimates the inner product `⟨x, y⟩` from two Count-Sketches of
    /// `x` and `y` built with identical parameters: each row's dot
    /// product `Σ_b A_i[b]·B_i[b]` is an unbiased estimator (the random
    /// signs cancel cross terms), and the median over rows concentrates
    /// it — the join-size / correlation application of sketches.
    ///
    /// # Errors
    /// Returns a [`MergeError`] when the sketches are not compatible.
    pub fn inner_product(&self, other: &Self) -> Result<f64, MergeError> {
        self.params.check_counter_compatible(&other.params)?;
        Ok(median_of_rows(self.params.depth, |row| {
            self.grid.row_dot(&other.grid, row)
        }))
    }

    /// Per-bucket **signed** column sums `ψ_i` of each CS-matrix:
    /// `ψ_i[b] = Σ_{j : h_i(j)=b} r_i(j)` (paper, Algorithm 4 line 3),
    /// returned as a `depth × width` [`CounterMatrix`]. Needed by the
    /// `ℓ2` bias-aware recovery to de-bias buckets. Costs `O(n·d)`; the
    /// caller caches it.
    pub fn signed_column_sums(&self) -> CounterMatrix<f64> {
        let mut psis = CounterMatrix::<f64>::new(self.params.width, self.params.depth);
        for j in 0..self.params.n {
            for (row, h) in self.hashers.iter().enumerate() {
                psis.add(row, h.bucket(j), row_sign(h, &self.signs[row], j) as f64);
            }
        }
        psis
    }
}

impl<B: CounterBackend> Reseedable for CountSketch<B> {
    fn config(&self) -> SketchParams {
        self.params
    }

    fn reseeded(&self, seed: u64) -> Self {
        Self::with_backend(&self.params.with_seed(seed))
    }
}

impl<B: CounterBackend> PointQuerySketch for CountSketch<B> {
    #[inline]
    fn update(&mut self, item: u64, delta: f64) {
        debug_assert!(item < self.params.n, "item outside universe");
        for row in 0..self.params.depth {
            let b = self.hashers[row].bucket(item);
            let s = row_sign(&self.hashers[row], &self.signs[row], item) as f64;
            self.grid.add(row, b, s * delta);
        }
    }

    /// Batched update. One-hash rows route through the blocked
    /// row-major kernel [`CounterMatrix::apply_rows_blocked`] — one
    /// digest per item (SIMD batch lane when active) yields every
    /// row's bucket *and* sign, then the signed writes sweep row by
    /// row per block. Other families go through
    /// [`bas_hash::bucket_rows_each`]: family dispatched once for the
    /// whole batch, inner item×row loop (bucket hash + sign flip +
    /// add) fully monomorphized. Both paths are bit-for-bit identical
    /// to the one-by-one loop.
    fn update_batch(&mut self, items: &[(u64, f64)]) {
        #[cfg(debug_assertions)]
        for &(item, _) in items {
            debug_assert!(item < self.params.n, "item outside universe");
        }
        if let Some(rd) = RowDeriver::from_hashers(&self.hashers) {
            let derive = crate::util::onehash_signed_block_derive(&rd, self.params.depth);
            self.grid.apply_rows_blocked(items, derive);
            return;
        }
        let grid = &mut self.grid;
        let hashers = &self.hashers;
        let signs = &self.signs;
        bas_hash::bucket_rows_each(hashers, items, |row, item, b, delta: f64| {
            grid.add(
                row,
                b,
                row_sign(&hashers[row], &signs[row], item) as f64 * delta,
            );
        });
    }

    fn estimate(&self, item: u64) -> f64 {
        median_of_rows(self.params.depth, |row| {
            let b = self.hashers[row].bucket(item);
            row_sign(&self.hashers[row], &self.signs[row], item) as f64 * self.grid.get(row, b)
        })
    }

    fn universe(&self) -> u64 {
        self.params.n
    }

    fn size_in_words(&self) -> usize {
        self.grid.len()
    }

    fn label(&self) -> &'static str {
        "CS"
    }
}

impl<B: SharedBackend> SharedSketch for CountSketch<B> {
    #[inline]
    fn update_shared(&self, item: u64, delta: f64) {
        debug_assert!(item < self.params.n, "item outside universe");
        for row in 0..self.params.depth {
            let b = self.hashers[row].bucket(item);
            let s = row_sign(&self.hashers[row], &self.signs[row], item) as f64;
            self.grid.add_shared(row, b, s * delta);
        }
    }

    /// The signed `update_batch` sweep through the shared blocked
    /// kernel [`CounterMatrix::apply_rows_blocked_shared`].
    fn update_batch_shared(&self, items: &[(u64, f64)]) {
        #[cfg(debug_assertions)]
        for &(item, _) in items {
            debug_assert!(item < self.params.n, "item outside universe");
        }
        if let Some(rd) = RowDeriver::from_hashers(&self.hashers) {
            let derive = crate::util::onehash_signed_block_derive(&rd, self.params.depth);
            self.grid.apply_rows_blocked_shared(items, derive);
            return;
        }
        let hashers = &self.hashers;
        let signs = &self.signs;
        self.grid
            .apply_rows_blocked_shared(items, |block, cols, vals| {
                let n = block.len();
                for (i, &(x, delta)) in block.iter().enumerate() {
                    for (row, h) in hashers.iter().enumerate() {
                        cols[row * n + i] = h.bucket(x);
                        vals[row * n + i] = row_sign(h, &signs[row], x) as f64 * delta;
                    }
                }
            });
    }
}

impl<B: CounterBackend> Snapshottable for CountSketch<B> {
    type Snapshot = CounterMatrix<f64, Dense>;

    fn make_snapshot(&self) -> Self::Snapshot {
        CounterMatrix::new(self.params.width, self.params.depth)
    }

    fn snapshot_into(&self, snap: &mut Self::Snapshot) {
        self.grid.snapshot_into(snap);
    }

    fn estimate_in(&self, snap: &Self::Snapshot, item: u64) -> f64 {
        median_of_rows(self.params.depth, |row| {
            let b = self.hashers[row].bucket(item);
            row_sign(&self.hashers[row], &self.signs[row], item) as f64 * snap.get(row, b)
        })
    }

    /// Count-Sketch is linear, so snapshots add: always `Ok`.
    fn merge_snapshot(
        &self,
        snap: &mut Self::Snapshot,
        other: &Self::Snapshot,
    ) -> Result<(), MergeError> {
        snap.add_matrix(other);
        Ok(())
    }

    /// Linear, so snapshots subtract exactly: always `Ok`.
    fn subtract_snapshot(
        &self,
        snap: &mut Self::Snapshot,
        other: &Self::Snapshot,
    ) -> Result<(), MergeError> {
        snap.sub_matrix(other);
        Ok(())
    }
}

/// Count-Sketch is linear: a shipped plane adds straight into the
/// live grid (signs live in the hashers, which the seed rebuilds). A
/// plane of another shape is refused before any cell is written.
impl<B: SharedBackend> crate::snapshot::AbsorbPlane for CountSketch<B> {
    fn absorb_plane_shared(&self, plane: &Self::Snapshot) -> Result<(), MergeError> {
        crate::snapshot::absorb_grid(&self.grid, plane)
    }
}

impl<B: CounterBackend> MergeableSketch for CountSketch<B> {
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.params.check_counter_compatible(&other.params)?;
        self.grid.add_matrix(&other.grid);
        Ok(())
    }

    /// Exact counter subtraction (Count-Sketch is linear).
    fn subtract_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.params.check_counter_compatible(&other.params)?;
        self.grid.sub_matrix(&other.grid);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Atomic;

    fn params(n: u64, w: usize, d: usize) -> SketchParams {
        SketchParams::new(n, w, d).with_seed(7)
    }

    #[test]
    fn single_item_recovers_exactly() {
        let mut cs = CountSketch::new(&params(1000, 128, 7));
        cs.update(42, 9.0);
        assert_eq!(cs.estimate(42), 9.0);
    }

    #[test]
    fn turnstile_updates_cancel() {
        let mut cs = CountSketch::new(&params(200, 64, 5));
        cs.update(5, 3.0);
        cs.update(5, -1.0);
        cs.update(5, -2.0);
        for j in 0..200 {
            assert_eq!(cs.estimate(j), 0.0, "item {j}");
        }
    }

    #[test]
    fn estimator_is_unbiased_empirically() {
        // Across many seeds, the mean estimate of a fixed coordinate
        // should converge to its true value even with heavy collisions.
        let n = 64u64;
        let mut x = vec![1.0f64; n as usize];
        x[0] = 10.0;
        let trials = 300;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut cs = CountSketch::new(&SketchParams::new(n, 4, 1).with_seed(seed));
            cs.ingest_vector(&x);
            sum += cs.estimate(0);
        }
        let mean = sum / trials as f64;
        assert!((mean - 10.0).abs() < 1.5, "mean = {mean}");
    }

    #[test]
    fn merge_equals_combined_stream() {
        let p = params(300, 32, 5);
        let mut a = CountSketch::new(&p);
        let mut b = CountSketch::new(&p);
        let mut combined = CountSketch::new(&p);
        for i in 0..300u64 {
            let (va, vb) = ((i % 7) as f64, (i % 3) as f64);
            a.update(i, va);
            b.update(i, vb);
            combined.update(i, va + vb);
        }
        a.merge_from(&b).unwrap();
        for j in (0..300u64).step_by(13) {
            assert!((a.estimate(j) - combined.estimate(j)).abs() < 1e-9);
        }
    }

    #[test]
    fn update_batch_matches_one_by_one_exactly() {
        let p = params(300, 32, 5);
        let mut batched = CountSketch::new(&p);
        let mut looped = CountSketch::new(&p);
        let items: Vec<(u64, f64)> = (0..400u64)
            .map(|i| (i * 11 % 300, ((i % 9) as f64 - 4.0) * 0.5))
            .collect();
        batched.update_batch(&items);
        for &(i, d) in &items {
            looped.update(i, d);
        }
        for j in 0..300u64 {
            assert_eq!(batched.estimate(j), looped.estimate(j), "item {j}");
        }
    }

    #[test]
    fn atomic_backend_matches_dense_bit_for_bit() {
        let p = params(300, 32, 5);
        let mut dense = CountSketch::new(&p);
        let mut atomic = CountSketch::<Atomic>::with_backend(&p);
        let items: Vec<(u64, f64)> = (0..400u64)
            .map(|i| (i * 11 % 300, ((i % 9) as f64 - 4.0) * 0.5))
            .collect();
        dense.update_batch(&items);
        atomic.update_batch(&items);
        for j in 0..300u64 {
            assert_eq!(dense.estimate(j), atomic.estimate(j), "item {j}");
        }
    }

    #[test]
    fn shared_updates_match_exclusive_updates() {
        let p = params(200, 32, 5);
        let mut exclusive = CountSketch::<Atomic>::with_backend(&p);
        let shared = CountSketch::<Atomic>::with_backend(&p);
        let items: Vec<(u64, f64)> = (0..300u64).map(|i| (i % 200, (1 + i % 5) as f64)).collect();
        for &(i, d) in &items {
            exclusive.update(i, d);
            shared.update_shared(i, d);
        }
        let batch_shared = CountSketch::<Atomic>::with_backend(&p);
        batch_shared.update_batch_shared(&items);
        for j in 0..200u64 {
            assert_eq!(exclusive.estimate(j), shared.estimate(j), "item {j}");
            assert_eq!(exclusive.estimate(j), batch_shared.estimate(j), "item {j}");
        }
    }

    #[test]
    fn merge_rejects_hash_kind_mismatch() {
        use bas_hash::HashKind;
        let mut a = CountSketch::new(&params(10, 8, 2));
        let b = CountSketch::new(
            &SketchParams::new(10, 8, 2)
                .with_seed(7)
                .with_hash_kind(HashKind::Tabulation),
        );
        assert_eq!(a.merge_from(&b), Err(MergeError::SeedMismatch));
    }

    #[test]
    fn signed_column_sums_match_brute_force() {
        let p = params(100, 16, 3);
        let cs = CountSketch::new(&p);
        let psis = cs.signed_column_sums();
        for row in 0..3 {
            let mut expect = vec![0.0f64; 16];
            for j in 0..100u64 {
                expect[cs.bucket_of(row, j)] += cs.sign_of(row, j);
            }
            assert_eq!(psis.row_snapshot(row), expect, "row {row}");
        }
    }

    #[test]
    fn beats_count_median_on_l2_friendly_tails() {
        // Long-tail input: CS (l2 guarantee) should have smaller average
        // error than CM (l1 guarantee) for equal space.
        use crate::count_median::CountMedian;
        let n = 5000u64;
        let mut x = vec![0.0f64; n as usize];
        for (i, v) in x.iter_mut().enumerate() {
            *v = 1000.0 / (i + 1) as f64; // Zipf-ish tail
        }
        let p = SketchParams::new(n, 100, 9).with_seed(3);
        let mut cs = CountSketch::new(&p);
        let mut cm = CountMedian::new(&p);
        cs.ingest_vector(&x);
        cm.ingest_vector(&x);
        let err = |est: &dyn Fn(u64) -> f64| -> f64 {
            (0..n).map(|j| (est(j) - x[j as usize]).abs()).sum::<f64>() / n as f64
        };
        let cs_err = err(&|j| cs.estimate(j));
        let cm_err = err(&|j| cm.estimate(j));
        assert!(
            cs_err < cm_err,
            "CS avg err {cs_err} should beat CM avg err {cm_err}"
        );
    }

    #[test]
    fn inner_product_estimates_dot() {
        let n = 500u64;
        let p = params(n, 256, 9);
        let mut a = CountSketch::new(&p);
        let mut b = CountSketch::new(&p);
        // Sparse disjoint + overlapping support.
        a.update(3, 10.0);
        a.update(7, 4.0);
        a.update(100, -2.0);
        b.update(3, 5.0);
        b.update(100, 6.0);
        b.update(200, 9.0);
        // True <x, y> = 10*5 + (-2)*6 = 38.
        let est = a.inner_product(&b).unwrap();
        assert!((est - 38.0).abs() < 8.0, "est = {est}");
    }

    #[test]
    fn inner_product_self_is_l2_norm_squared() {
        let n = 300u64;
        let p = params(n, 512, 9);
        let mut a = CountSketch::new(&p);
        for i in 0..20u64 {
            a.update(i, (i + 1) as f64);
        }
        let truth: f64 = (1..=20u64).map(|v| (v * v) as f64).sum();
        let est = a.inner_product(&a).unwrap();
        // Self inner product overestimates slightly (collision squares
        // add), but should be close for sparse input.
        assert!((est - truth).abs() < 0.15 * truth, "est = {est} vs {truth}");
    }

    #[test]
    fn snapshot_estimates_match_live_when_quiescent() {
        let p = params(300, 64, 5);
        let mut cs = CountSketch::new(&p);
        let items: Vec<(u64, f64)> = (0..500u64)
            .map(|i| (i * 17 % 300, ((i % 9) as f64 - 4.0)))
            .collect();
        cs.update_batch(&items);
        let snap = cs.snapshot();
        for j in 0..300u64 {
            assert_eq!(cs.estimate_in(&snap, j), cs.estimate(j), "item {j}");
        }
    }

    #[test]
    fn inner_product_rejects_mismatch() {
        let a = CountSketch::new(&params(10, 8, 2));
        let b = CountSketch::new(&SketchParams::new(10, 8, 2).with_seed(99));
        assert!(a.inner_product(&b).is_err());
        // Universes must match too, as they must for a merge.
        let wider = CountSketch::new(&params(20, 8, 2));
        let universes = Err(MergeError::ShapeMismatch { what: "universes" });
        assert_eq!(a.inner_product(&wider), universes);
    }

    #[test]
    fn label_and_size() {
        let cs = CountSketch::new(&params(10, 8, 2));
        assert_eq!(cs.label(), "CS");
        assert_eq!(cs.size_in_words(), 16);
    }
}
