//! Count-Median: CM-matrix sketching with median recovery.

use crate::heavy_hitters::HeavyHitter;
use crate::snapshot::{each_item_at_least, Snapshottable};
use crate::storage::{CounterBackend, CounterMatrix, Dense, SharedBackend, APPLY_BLOCK};
use crate::traits::{
    MergeError, MergeableSketch, PointQuerySketch, Reseedable, SharedSketch, SketchParams,
};
use crate::util::median_of_rows;
use bas_hash::{AnyBucketHasher, BucketHasher, HashFamily, RowDeriver, SplitMix64};
use std::cmp::Ordering;

/// The Count-Median sketch of Cormode & Muthukrishnan (paper, Theorem 1).
///
/// `d` independent CM-matrices `Π(h_1), …, Π(h_d)` (Definition 1) are
/// applied to the input vector; a point query returns the **median** of
/// the `d` bucket sums the item hashes into:
///
/// ```text
/// x̂_j = median_{i ∈ [d]} ( Π(h_i)·x )_{h_i(j)}
/// ```
///
/// With `s = Θ(k/α)` and `d = Θ(log n)` this guarantees
/// `‖x̂ − x‖∞ ≤ α/k · Err_1^k(x)` with probability `1 − 1/n`. It is fully
/// linear (supports turnstile updates and merging) — and it is the
/// component the bias-aware `ℓ1`-S/R de-biases.
///
/// Counters live in a [`CounterMatrix`] whose backend `B` is a type
/// parameter: the default [`Dense`] is the classical single-threaded
/// configuration, while `CountMedian<Atomic>` (alias
/// [`AtomicCountMedian`](crate::AtomicCountMedian)) additionally
/// implements [`SharedSketch`]: single-writer `&self` ingest into one
/// shared sketch that snapshot readers copy concurrently.
///
/// ```
/// use bas_sketch::{CountMedian, PointQuerySketch, SketchParams};
///
/// let params = SketchParams::new(1_000, 128, 7).with_seed(42);
/// let mut cm = CountMedian::new(&params);
/// cm.update(17, 5.0);                          // single turnstile update
/// cm.update_batch(&[(17, 2.0), (900, -1.0)]);  // batched fast path
/// assert_eq!(cm.estimate(17), 7.0);            // sparse input: exact
/// assert_eq!(cm.estimate(900), -1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CountMedian<B: CounterBackend = Dense> {
    params: SketchParams,
    grid: CounterMatrix<f64, B>,
    hashers: Vec<AnyBucketHasher>,
}

#[cfg(feature = "serde")]
crate::impl_backend_serde!(CountMedian {
    params,
    grid,
    hashers
});

impl CountMedian {
    /// Creates an empty Count-Median sketch with the default [`Dense`]
    /// backend.
    pub fn new(params: &SketchParams) -> Self {
        Self::with_backend(params)
    }
}

impl<B: CounterBackend> CountMedian<B> {
    /// Creates an empty Count-Median sketch with an explicit counter
    /// backend (e.g. `CountMedian::<Atomic>::with_backend` for shared
    /// ingest).
    pub fn with_backend(params: &SketchParams) -> Self {
        let mut seeder = SplitMix64::new(params.seed ^ 0xC0DE_0001);
        let mut family = HashFamily::new(params.hash_kind, &mut seeder, params.width);
        let hashers = family.sample_many(params.depth);
        let width = family.buckets();
        let mut params = *params;
        params.width = width; // multiply-shift may round up
        Self {
            params,
            grid: CounterMatrix::new(width, params.depth),
            hashers,
        }
    }

    /// The parameters the sketch was built with (width may have been
    /// rounded up by the hash family).
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// Raw bucket sum `(Π(h_row)·x)[bucket]` — exposed because the
    /// bias-aware recovery needs direct access to de-bias buckets.
    #[inline]
    pub fn bucket_value(&self, row: usize, bucket: usize) -> f64 {
        self.grid.get(row, bucket)
    }

    /// The bucket the item hashes to in a given row.
    #[inline]
    pub fn bucket_of(&self, row: usize, item: u64) -> usize {
        self.hashers[row].bucket(item)
    }

    /// A dense copy of one row of bucket sums, read through the matrix
    /// API (backend-independent; the storage layout stays private).
    pub fn row_snapshot(&self, row: usize) -> Vec<f64> {
        self.grid.row_snapshot(row)
    }

    /// The counter grid, for the range-sum stack, which runs its
    /// plane-wide operations over every level's cells alike.
    pub(crate) fn cells(&self) -> &CounterMatrix<f64, B> {
        &self.grid
    }

    /// Mutable [`cells`](Self::cells).
    pub(crate) fn cells_mut(&mut self) -> &mut CounterMatrix<f64, B> {
        &mut self.grid
    }

    /// Per-bucket column counts `π_i` of each CM-matrix: `π_i[b]` is the
    /// number of universe elements hashed to bucket `b` in row `i`
    /// (paper, Algorithm 2 line 2), returned as a `depth × width`
    /// [`CounterMatrix`]. Costs `O(n·d)`; the caller caches it.
    pub fn column_counts(&self) -> CounterMatrix<u64> {
        let mut pis = CounterMatrix::<u64>::new(self.params.width, self.params.depth);
        for j in 0..self.params.n {
            for (row, h) in self.hashers.iter().enumerate() {
                pis.add(row, h.bucket(j), 1);
            }
        }
        pis
    }
}

impl<B: CounterBackend> Reseedable for CountMedian<B> {
    fn config(&self) -> SketchParams {
        self.params
    }

    fn reseeded(&self, seed: u64) -> Self {
        Self::with_backend(&self.params.with_seed(seed))
    }
}

impl<B: CounterBackend> PointQuerySketch for CountMedian<B> {
    #[inline]
    fn update(&mut self, item: u64, delta: f64) {
        debug_assert!(item < self.params.n, "item outside universe");
        for (row, h) in self.hashers.iter().enumerate() {
            self.grid.add(row, h.bucket(item), delta);
        }
    }

    /// Batched update. One-hash rows ([`bas_hash::HashKind::OneHash`])
    /// route through the blocked row-major kernel
    /// [`CounterMatrix::apply_rows_blocked`]: one digest per item (SIMD
    /// batch lane when active), all `d` bucket indices derived up
    /// front, counter writes swept row by row per block. Every other
    /// family goes through [`bas_hash::bucket_rows_each`] — family
    /// dispatched once for the whole batch, inner item×row loop fully
    /// monomorphized. Both paths are bit-for-bit identical to the
    /// one-by-one loop (each cell receives the same increments in item
    /// order).
    fn update_batch(&mut self, items: &[(u64, f64)]) {
        #[cfg(debug_assertions)]
        for &(item, _) in items {
            debug_assert!(item < self.params.n, "item outside universe");
        }
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

    fn estimate(&self, item: u64) -> f64 {
        median_of_rows(self.params.depth, |row| {
            self.grid.get(row, self.hashers[row].bucket(item))
        })
    }

    fn universe(&self) -> u64 {
        self.params.n
    }

    fn size_in_words(&self) -> usize {
        self.grid.len()
    }

    fn label(&self) -> &'static str {
        "CM"
    }
}

impl<B: SharedBackend> SharedSketch for CountMedian<B> {
    #[inline]
    fn update_shared(&self, item: u64, delta: f64) {
        debug_assert!(item < self.params.n, "item outside universe");
        for (row, h) in self.hashers.iter().enumerate() {
            self.grid.add_shared(row, h.bucket(item), delta);
        }
    }

    /// The `update_batch` sweep through the shared blocked kernel
    /// [`CounterMatrix::apply_rows_blocked_shared`].
    fn update_batch_shared(&self, items: &[(u64, f64)]) {
        #[cfg(debug_assertions)]
        for &(item, _) in items {
            debug_assert!(item < self.params.n, "item outside universe");
        }
        if let Some(rd) = RowDeriver::from_hashers(&self.hashers) {
            let derive = crate::util::onehash_block_derive(&rd, self.params.depth);
            self.grid.apply_rows_blocked_shared(items, derive);
            return;
        }
        let derive = crate::util::hashed_block_derive(&self.hashers);
        self.grid.apply_rows_blocked_shared(items, derive);
    }
}

impl<B: CounterBackend> Snapshottable for CountMedian<B> {
    type Snapshot = CounterMatrix<f64, Dense>;

    fn make_snapshot(&self) -> Self::Snapshot {
        CounterMatrix::new(self.params.width, self.params.depth)
    }

    fn snapshot_into(&self, snap: &mut Self::Snapshot) {
        self.grid.snapshot_into(snap);
    }

    fn estimate_in(&self, snap: &Self::Snapshot, item: u64) -> f64 {
        median_of_rows(self.params.depth, |row| {
            snap.get(row, self.hashers[row].bucket(item))
        })
    }

    /// One-hash rows ([`bas_hash::HashKind::OneHash`]) take the blocked
    /// scan kernel: per block of [`APPLY_BLOCK`] items, one digest call;
    /// then, item by item, a byte-mask lookup per cell of its first
    /// `⌊d/2⌋ + 1` rows (at most eight), derived and summed in
    /// registers, and of later rows only while `⌈d/2⌉` hot rows, the
    /// necessary condition proved in the body, are still within reach.
    /// Items that reach them get the unchanged median. The classical
    /// families have no shared digest and keep the per-item default.
    /// Either way the answer is bit-for-bit the default's.
    ///
    /// # Panics
    /// Panics if `snap` was made for a different shape.
    fn items_at_least_in(&self, snap: &Self::Snapshot, threshold: f64, out: &mut Vec<HeavyHitter>) {
        assert!(
            snap.width() == self.params.width && snap.depth() == self.params.depth,
            "snapshot shape mismatch"
        );
        let Some(rd) = RowDeriver::from_hashers(&self.hashers) else {
            return each_item_at_least(self, snap, threshold, out);
        };
        // Necessary condition. `median_in_place` returns, for odd d,
        // the value u of rank ⌊d/2⌋ under `total_cmp`, and for even d
        // `0.5·(l + u)` with u of rank d/2 and l ≤ u the largest
        // non-NaN value ranked below it (−∞ if none). The ⌈d/2⌉ values
        // ranked at or above u are each NaN or ≥ u. An estimate that
        // is `>= threshold` is not NaN, and then
        // u ≥ m = min(threshold, 2^1023):
        // * odd d: the estimate is u;
        // * even d, u < 2^1023: l + u ≤ 2u exactly, and 2u rounds to
        //   itself (or to −∞), so by monotone rounding
        //   0.5·fl(l + u) ≤ u;
        // * even d, u ≥ 2^1023: l + u may overflow to +∞, which reaches
        //   any threshold, but u ≥ m already.
        // So each of those ⌈d/2⌉ cells is not below m (NaN cells are
        // unordered, so they count too), and an item with fewer such
        // cells cannot reach the threshold. Every other item gets the
        // exact median.
        let floor = threshold.min(f64::from_bits(0x7FE0_0000_0000_0000)); // 2^1023
        let hot: Vec<u8> = (0..self.params.depth)
            .flat_map(|row| snap.row(row))
            .map(|v| u8::from(v.partial_cmp(&floor) != Some(Ordering::Less)))
            .collect();
        // A head of `⌊d/2⌋ + 1` rows, at most eight: a deeper sketch
        // keeps every item past its head and filters in the tail.
        let scan: ScanKernel = match self.params.depth / 2 + 1 {
            1 => scan_onehash::<1>,
            2 => scan_onehash::<2>,
            3 => scan_onehash::<3>,
            4 => scan_onehash::<4>,
            5 => scan_onehash::<5>,
            6 => scan_onehash::<6>,
            7 => scan_onehash::<7>,
            _ => scan_onehash::<8>,
        };
        scan(&rd, &hot, snap, threshold, self.params.n, out);
    }

    /// Linear, so snapshots subtract exactly.
    fn subtract_snapshot(&self, snap: &mut Self::Snapshot, other: &Self::Snapshot) {
        snap.sub_matrix(other);
    }
}

/// The one-hash scan's signature, one instance per head size.
type ScanKernel =
    fn(&RowDeriver, &[u8], &CounterMatrix<f64, Dense>, f64, u64, &mut Vec<HeavyHitter>);

/// The one-hash scan of items `0..n` over the hot mask `hot` (`d × w`,
/// row-major), with a head of `K` rows.
///
/// After reading `r` rows, an item can still reach `need = ⌈d/2⌉` hot
/// rows in the `d − r` left only with `due(r) = need − (d − r)` of them
/// already. Per block of
/// [`APPLY_BLOCK`] items, one digest call; then each item's first `K`
/// buckets ([`bas_hash::RowHead::buckets`]) and hot bytes are derived
/// and summed in registers, and the item joins the block's survivor
/// list, without a branch, if it has `due(K)`. With `K = ⌊d/2⌋ + 1`
/// (every depth up to 15) that is an item hot in any head row, about
/// one in nine at the served shape. Each later row is one pass over the
/// survivors that keeps those with `due(r + 1)`; after the last, the
/// survivors are the items with `need` hot rows, and they get the
/// unchanged median.
fn scan_onehash<const K: usize>(
    rd: &RowDeriver,
    hot: &[u8],
    snap: &CounterMatrix<f64, Dense>,
    threshold: f64,
    n: u64,
    out: &mut Vec<HeavyHitter>,
) {
    let (width, depth) = (snap.width(), snap.depth());
    let need = depth - depth / 2;
    let due = |rows: usize| (need + rows).saturating_sub(depth);
    let head = rd.head::<K>();
    let head_hot: [&[u8]; K] = std::array::from_fn(|r| &hot[r * width..(r + 1) * width]);
    // Every bucket is already below `width`, a power of two: masking
    // with `width - 1` changes no index and lets the compiler drop the
    // bounds checks.
    let mask = width - 1;
    let mut items = [0u64; APPLY_BLOCK];
    let mut digests = [0u64; APPLY_BLOCK];
    let mut survivors = [(0usize, 0usize); APPLY_BLOCK];
    let mut start = 0u64;
    while start < n {
        let len = (n - start).min(APPLY_BLOCK as u64) as usize;
        for (slot, item) in items[..len].iter_mut().zip(start..) {
            *slot = item;
        }
        start += len as u64;
        rd.digests_into(&items[..len], &mut digests[..len]);
        let mut kept = 0;
        for (i, &digest) in digests[..len].iter().enumerate() {
            let buckets = head.buckets(digest);
            let hits: usize = (0..K)
                .map(|r| usize::from(head_hot[r][buckets[r] & mask]))
                .sum();
            survivors[kept] = (i, hits);
            kept += usize::from(hits >= due(K));
        }
        for row in K..depth {
            let hot_row = &hot[row * width..(row + 1) * width];
            let mut still = 0;
            for s in 0..kept {
                let (i, hits) = survivors[s];
                let bucket = rd.bucket_of_digest(row, digests[i]) & mask;
                let hits = hits + usize::from(hot_row[bucket]);
                survivors[still] = (i, hits);
                still += usize::from(hits >= due(row + 1));
            }
            kept = still;
        }
        for &(i, _) in &survivors[..kept] {
            let digest = digests[i];
            let estimate =
                median_of_rows(depth, |row| snap.get(row, rd.bucket_of_digest(row, digest)));
            if estimate >= threshold {
                out.push(HeavyHitter {
                    item: items[i],
                    estimate,
                });
            }
        }
    }
}

/// Count-Median is linear: a shipped plane adds straight into the
/// live grid, so a tenant rebuilt from seed + plane is bit-for-bit.
/// A plane of another shape is refused before any cell is written.
impl<B: SharedBackend> crate::snapshot::AbsorbPlane for CountMedian<B> {
    fn absorb_plane_shared(&self, plane: &Self::Snapshot) -> Result<(), MergeError> {
        crate::snapshot::absorb_grid(&self.grid, plane)
    }
}

impl<B: CounterBackend> MergeableSketch for CountMedian<B> {
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.params.check_counter_compatible(&other.params)?;
        self.grid.add_matrix(&other.grid);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Atomic;

    fn params(n: u64, w: usize, d: usize) -> SketchParams {
        SketchParams::new(n, w, d).with_seed(42)
    }

    #[test]
    fn exact_on_sparse_vectors() {
        // A 1-sparse vector collides with nothing: recovery is exact up
        // to hash collisions, which the median across rows suppresses.
        let p = params(1000, 256, 7);
        let mut cm = CountMedian::new(&p);
        cm.update(17, 5.0);
        assert_eq!(cm.estimate(17), 5.0);
        // Untouched items should estimate ~0 (possibly exactly 0).
        let zero_est = cm.estimate(900);
        assert!(zero_est.abs() <= 5.0);
    }

    #[test]
    fn turnstile_updates_cancel() {
        let p = params(100, 64, 5);
        let mut cm = CountMedian::new(&p);
        cm.update(3, 10.0);
        cm.update(3, -10.0);
        for j in 0..100 {
            assert_eq!(cm.estimate(j), 0.0, "item {j}");
        }
    }

    #[test]
    fn error_bounded_by_theorem_1_shape() {
        // x has k=2 heavy entries and small tail; Count-Median error
        // should be O(Err_1^k / k), far below the heavy values.
        let n = 2000u64;
        let p = params(n, 200, 9);
        let mut cm = CountMedian::new(&p);
        let mut x = vec![0.0f64; n as usize];
        x[10] = 1000.0;
        x[20] = -800.0;
        for (i, v) in x.iter_mut().enumerate() {
            if i != 10 && i != 20 {
                *v = if i % 3 == 0 { 1.0 } else { 0.0 };
            }
        }
        cm.ingest_vector(&x);
        let tail: f64 = x
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 10 && *i != 20)
            .map(|(_, v)| v.abs())
            .sum();
        // Generous bound: per-item error below tail/ (width/..) scale.
        for j in [10u64, 20, 30, 999] {
            let err = (cm.estimate(j) - x[j as usize]).abs();
            assert!(err <= tail * 10.0 / 200.0, "item {j}: err {err}");
        }
    }

    #[test]
    fn merge_equals_combined_stream() {
        let p = params(500, 64, 5);
        let mut a = CountMedian::new(&p);
        let mut b = CountMedian::new(&p);
        let mut combined = CountMedian::new(&p);
        for i in 0..250u64 {
            a.update(i, i as f64);
            combined.update(i, i as f64);
        }
        for i in 250..500u64 {
            b.update(i, 2.0 * i as f64);
            combined.update(i, 2.0 * i as f64);
        }
        a.merge_from(&b).unwrap();
        for j in (0..500u64).step_by(17) {
            assert_eq!(a.estimate(j), combined.estimate(j), "item {j}");
        }
    }

    #[test]
    fn update_batch_matches_one_by_one_exactly() {
        let p = params(400, 32, 5);
        let mut batched = CountMedian::new(&p);
        let mut looped = CountMedian::new(&p);
        let items: Vec<(u64, f64)> = (0..500u64)
            .map(|i| (i * 7 % 400, ((i % 13) as f64 - 6.0) * 0.25))
            .collect();
        batched.update_batch(&items);
        for &(i, d) in &items {
            looped.update(i, d);
        }
        for j in 0..400u64 {
            assert_eq!(batched.estimate(j), looped.estimate(j), "item {j}");
        }
    }

    #[test]
    fn atomic_backend_matches_dense_bit_for_bit() {
        // Same seed, same updates, exclusive access: the storage
        // backend must be unobservable.
        let p = params(300, 32, 5);
        let mut dense = CountMedian::new(&p);
        let mut atomic = CountMedian::<Atomic>::with_backend(&p);
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
        let mut exclusive = CountMedian::<Atomic>::with_backend(&p);
        let shared = CountMedian::<Atomic>::with_backend(&p);
        let items: Vec<(u64, f64)> = (0..300u64).map(|i| (i % 200, (1 + i % 5) as f64)).collect();
        for &(i, d) in &items {
            exclusive.update(i, d);
            shared.update_shared(i, d);
        }
        let batch_shared = CountMedian::<Atomic>::with_backend(&p);
        batch_shared.update_batch_shared(&items);
        for j in 0..200u64 {
            assert_eq!(exclusive.estimate(j), shared.estimate(j), "item {j}");
            assert_eq!(exclusive.estimate(j), batch_shared.estimate(j), "item {j}");
        }
    }

    #[test]
    fn snapshot_estimates_match_live_when_quiescent() {
        let p = params(300, 32, 5);
        let mut cm = CountMedian::new(&p);
        let items: Vec<(u64, f64)> = (0..400u64)
            .map(|i| (i * 13 % 300, (i % 7) as f64))
            .collect();
        cm.update_batch(&items);
        let snap = cm.snapshot();
        for j in 0..300u64 {
            assert_eq!(cm.estimate_in(&snap, j), cm.estimate(j), "item {j}");
        }
        // The snapshot is frozen: further updates do not affect it.
        let before = cm.estimate_in(&snap, 3);
        cm.update(3, 50.0);
        assert_eq!(cm.estimate_in(&snap, 3), before);
    }

    #[test]
    fn merge_rejects_mismatched_seed() {
        let mut a = CountMedian::new(&params(10, 8, 2));
        let b = CountMedian::new(&SketchParams::new(10, 8, 2).with_seed(43));
        assert_eq!(a.merge_from(&b), Err(MergeError::SeedMismatch));
    }

    #[test]
    fn merge_rejects_mismatched_shape() {
        let mut a = CountMedian::new(&params(10, 8, 2));
        let b = CountMedian::new(&params(10, 16, 2));
        assert!(matches!(
            a.merge_from(&b),
            Err(MergeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn column_counts_sum_to_n() {
        let p = params(300, 32, 4);
        let cm = CountMedian::new(&p);
        let pis = cm.column_counts();
        assert_eq!(pis.depth(), 4);
        for row in 0..4 {
            assert_eq!(pis.row_snapshot(row).iter().sum::<u64>(), 300);
        }
    }

    #[test]
    fn bucket_value_consistent_with_update() {
        let p = params(50, 16, 3);
        let mut cm = CountMedian::new(&p);
        cm.update(7, 4.0);
        for row in 0..3 {
            let b = cm.bucket_of(row, 7);
            assert_eq!(cm.bucket_value(row, b), 4.0);
            assert_eq!(cm.row_snapshot(row)[b], 4.0);
        }
    }

    #[test]
    fn size_in_words_is_grid_size() {
        let cm = CountMedian::new(&params(100, 32, 6));
        assert_eq!(cm.size_in_words(), 32 * 6);
        assert_eq!(cm.label(), "CM");
        assert_eq!(cm.universe(), 100);
    }
}
