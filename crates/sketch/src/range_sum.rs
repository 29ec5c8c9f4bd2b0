//! Dyadic range-sum queries over a stack of per-level counters.
//!
//! "Range query" is among the applications the paper's introduction
//! motivates for point-queryable linear sketches. The textbook reduction
//! (Cormode & Muthukrishnan) keeps one summary per dyadic level; any
//! range `[a, b]` decomposes into `O(log n)` dyadic intervals, each of
//! which is a single point query at its level. Coarse levels have so
//! few blocks that they are kept exactly instead of sketched.

use crate::count_median::CountMedian;
use crate::heavy_hitters::HeavyHitter;
use crate::snapshot::{AbsorbPlane, Snapshottable};
use crate::storage::{CounterBackend, CounterMatrix, Dense, SharedBackend};
use crate::traits::{
    MergeError, MergeableSketch, PointQuerySketch, Reseedable, SharedSketch, SketchParams,
};
use std::fmt;

/// A turnstile range-sum sketch: `query(a, b) ≈ Σ_{a ≤ i ≤ b} x_i`.
///
/// Level `ℓ` holds the aggregated vector `x^(ℓ)[j] = Σ x_i` over the
/// block `i >> ℓ == j`, which has `⌈n / 2^ℓ⌉` blocks, so an update
/// touches one counter set per level and a range query reads at most
/// two blocks per level. A level is stored one of two ways:
///
/// * **grid** — a [`CountMedian`] of the stack's width `w` and depth
///   `d` over the level's blocks, with Count-Median's Theorem 1
///   `ℓ∞/ℓ1` guarantee on every block;
/// * **exact** — a plain `1 × blocks` counter vector indexed by
///   `item >> ℓ`, with no hashing: every block is exact.
///
/// **Layout rule.** A level is exact when its block count is strictly
/// below `w·d`, the cell count of the grid it would otherwise get: the
/// vector is smaller than that grid and has no error. Block counts
/// fall with `ℓ`, so the grids are a prefix `0..g` of the stack, and
/// that one number, [`grid_levels`](RangeSumSketch::grid_levels), is
/// the whole layout. At `n = 2^17`, `w = 4,096`, `d = 9`, levels 0–1
/// are grids and 2–17 exact: 139,263 cells instead of 663,552, and a
/// range's error comes from at most 2 × 2 sketched blocks. When
/// `n < w·d`, level 0 is exact too and so is every answer.
///
/// The cut is strict so that a layout can be read back from plane
/// shapes alone ([`RangeSumSketch::grid_levels_of`]): a grid level's
/// plane is `d × w`, an exact level's `1 × blocks`, and the two
/// coincide only if `d = 1` and `blocks = w`, which `<` keeps a grid.
/// A stack of planes shipped in an older layout — every level a grid
/// — is therefore recognised and rebuilt in that layout
/// ([`with_grid_levels`](RangeSumSketch::with_grid_levels)).
///
/// Both kinds of level are linear, so the whole stack is: merge,
/// subtract, snapshots and plane absorption run level by level.
///
/// ```
/// use bas_sketch::{PointQuerySketch, RangeSumSketch, SketchParams};
///
/// let params = SketchParams::new(256, 128, 7).with_seed(11);
/// let mut rs = RangeSumSketch::new(&params);
/// rs.update(10, 5.0);
/// rs.update_batch(&[(20, 3.0), (200, 2.0)]); // batched fast path
/// assert_eq!(rs.query(0, 100), 8.0); // 256 < 128·7: every level is exact
///
/// let wide = RangeSumSketch::new(&SketchParams::new(1 << 17, 4_096, 9));
/// assert_eq!((wide.grid_levels(), wide.num_levels()), (2, 18));
/// ```
#[derive(Debug, Clone)]
pub struct RangeSumSketch<B: CounterBackend = Dense> {
    /// The stack's parameters, width rounded as its grids round it.
    params: SketchParams,
    /// Levels `0..g`, sketched.
    grids: Vec<CountMedian<B>>,
    /// Levels `g..`, one `1 × blocks` vector each.
    exact: Vec<CounterMatrix<f64, B>>,
}

#[cfg(feature = "serde")]
crate::impl_backend_serde!(RangeSumSketch {
    params,
    grids,
    exact
});

/// Dyadic levels over `[0, n)`: `⌈log2 n⌉ + 1`.
fn num_levels(n: u64) -> usize {
    64 - (n.max(2) - 1).leading_zeros() as usize + 1
}

/// Blocks at `level`: `⌈n / 2^level⌉`.
fn blocks(n: u64, level: usize) -> u64 {
    ((n.max(1) - 1) >> level) + 1
}

/// `params` with the width its Count-Median grids get.
fn effective(params: &SketchParams) -> SketchParams {
    let mut p = *params;
    p.width = p.hash_kind.buckets(p.width);
    p
}

/// The layout rule on effective params: the levels with at least `w·d`
/// blocks are grids.
fn rule_grid_levels(p: &SketchParams) -> usize {
    let cells = p.width.saturating_mul(p.depth) as u64;
    (0..num_levels(p.n))
        .take_while(|&l| blocks(p.n, l) >= cells)
        .count()
}

/// The block derivation of an exact level's one-row sweep: item `x`
/// lands in cell `x >> level`.
fn exact_cells(level: usize, block: &[(u64, f64)], cols: &mut [usize], vals: &mut [f64]) {
    for ((col, val), &(x, delta)) in cols.iter_mut().zip(vals.iter_mut()).zip(block) {
        *col = (x >> level) as usize;
        *val = delta;
    }
}

/// Why a stack of planes matches no layout of a [`RangeSumSketch`]
/// (see [`RangeSumSketch::grid_levels_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutError {
    /// The stack has `got` planes where the universe has `want` levels.
    Levels {
        /// Planes in the stack.
        got: usize,
        /// Dyadic levels of the universe.
        want: usize,
    },
    /// Plane `level` is `depth × width`, which is neither that level's
    /// grid shape nor, where the rule allows it, its exact shape.
    Plane {
        /// The first level that fits no layout.
        level: usize,
        /// Its plane's rows.
        depth: usize,
        /// Its plane's columns.
        width: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Levels { got, want } => write!(f, "{got} dyadic levels, expected {want}"),
            Self::Plane {
                level,
                depth,
                width,
            } => write!(
                f,
                "level {level} is {depth} x {width}, which fits no layout of this stack"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}

impl RangeSumSketch {
    /// Creates a range-sum sketch over `[0, params.n)` with the default
    /// [`Dense`] backend.
    pub fn new(params: &SketchParams) -> Self {
        Self::with_backend(params)
    }

    /// The layout a stack of level planes records: its number of
    /// leading grid levels, for a stack built from `params`.
    ///
    /// Levels below the layout rule's cut must be grids (`d × w`
    /// planes); from there on, each level is a grid or, once one is
    /// not, exact (`1 × blocks`) to the end. A stack in the rule's
    /// layout and one from before exact levels existed (every level a
    /// grid) both read back as the layout they were built in.
    ///
    /// # Errors
    /// [`LayoutError`] naming the level count or the first plane that
    /// fits no layout.
    pub fn grid_levels_of(
        params: &SketchParams,
        planes: &[CounterMatrix<f64, Dense>],
    ) -> Result<usize, LayoutError> {
        let p = effective(params);
        let want = num_levels(p.n);
        if planes.len() != want {
            return Err(LayoutError::Levels {
                got: planes.len(),
                want,
            });
        }
        let grids = planes
            .iter()
            .take_while(|m| (m.depth(), m.width()) == (p.depth, p.width))
            .count();
        let exact_from = rule_grid_levels(&p);
        let misfit = (grids..want)
            .find(|&l| {
                l < exact_from
                    || (planes[l].depth(), planes[l].width() as u64) != (1, blocks(p.n, l))
            })
            .map(|l| LayoutError::Plane {
                level: l,
                depth: planes[l].depth(),
                width: planes[l].width(),
            });
        misfit.map_or(Ok(grids), Err)
    }
}

impl<B: CounterBackend> RangeSumSketch<B> {
    /// Creates a range-sum sketch over `[0, params.n)` with an explicit
    /// counter backend, in the layout the rule gives `params` (see the
    /// type's docs). No level holds more cells than it has blocks or
    /// than a grid has, so memory is `O(min(n, log n · w · d))` cells.
    pub fn with_backend(params: &SketchParams) -> Self {
        Self::with_grid_levels(params, rule_grid_levels(&effective(params)))
    }

    /// Creates an empty stack whose first `grid_levels` levels are
    /// grids — the layout [`grid_levels_of`](RangeSumSketch::grid_levels_of)
    /// read off a shipped stack of planes, which is how an older layout
    /// is rebuilt as it was. Grid level `ℓ` is seeded
    /// `params.seed + 0x9E37·(ℓ+1)`.
    ///
    /// # Panics
    /// Panics unless `grid_levels` lies between the rule's cut and the
    /// level count, the layouts whose planes can be told apart.
    pub fn with_grid_levels(params: &SketchParams, grid_levels: usize) -> Self {
        let params = effective(params);
        let (n, levels) = (params.n, num_levels(params.n));
        let exact_from = rule_grid_levels(&params);
        assert!(
            (exact_from..=levels).contains(&grid_levels),
            "{grid_levels} grid levels: a stack of {levels} levels over this shape needs {exact_from} to {levels}"
        );
        let grids = (0..grid_levels)
            .map(|l| {
                let mut p = params;
                p.n = blocks(n, l);
                p.seed = params.seed.wrapping_add(0x9E37 * (l as u64 + 1));
                CountMedian::with_backend(&p)
            })
            .collect();
        let exact = (grid_levels..levels)
            .map(|l| CounterMatrix::new(blocks(n, l) as usize, 1))
            .collect();
        Self {
            params,
            grids,
            exact,
        }
    }

    /// Number of dyadic levels.
    pub fn num_levels(&self) -> usize {
        self.grids.len() + self.exact.len()
    }

    /// Number of leading levels stored as Count-Median grids; the rest
    /// are exact.
    pub fn grid_levels(&self) -> usize {
        self.grids.len()
    }

    /// Every level's counters, finest first.
    fn cells(&self) -> impl Iterator<Item = &CounterMatrix<f64, B>> {
        self.grids.iter().map(CountMedian::cells).chain(&self.exact)
    }

    /// Mutable [`cells`](Self::cells).
    fn cells_mut(&mut self) -> impl Iterator<Item = &mut CounterMatrix<f64, B>> {
        self.grids
            .iter_mut()
            .map(CountMedian::cells_mut)
            .chain(&mut self.exact)
    }

    /// Block `block`'s sum at `level`: a point estimate on a grid, the
    /// cell itself on an exact level.
    fn block_sum(&self, level: usize, block: u64) -> f64 {
        match self.grids.get(level) {
            Some(grid) => grid.estimate(block),
            None => self.exact[level - self.grids.len()].get(0, block as usize),
        }
    }

    /// [`block_sum`](Self::block_sum) from a snapshot.
    fn block_sum_in(&self, snap: &[CounterMatrix<f64, Dense>], level: usize, block: u64) -> f64 {
        match self.grids.get(level) {
            Some(grid) => grid.estimate_in(&snap[level], block),
            None => snap[level].get(0, block as usize),
        }
    }

    fn check_compatible(&self, other: &Self) -> Result<(), MergeError> {
        self.params.check_counter_compatible(&other.params)?;
        if self.grids.len() != other.grids.len() {
            return Err(MergeError::ShapeMismatch {
                what: "dyadic layouts",
            });
        }
        Ok(())
    }

    /// Standard dyadic decomposition shared by the live and snapshot
    /// query paths: greedily take the largest aligned block starting at
    /// `lo` that stays within `hi`, reading each block's sum through
    /// `block_sum(level, block)`.
    fn decompose(&self, a: u64, b: u64, mut block_sum: impl FnMut(usize, u64) -> f64) -> f64 {
        assert!(a <= b && b < self.params.n, "invalid range [{a}, {b}]");
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
            let mut l = align.min(self.num_levels() - 1);
            while l > 0 && lo + (1u64 << l) - 1 > hi {
                l -= 1;
            }
            sum += block_sum(l, lo >> l);
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
        self.decompose(a, b, |l, block| self.block_sum(l, block))
    }

    /// [`query`](RangeSumSketch::query) answered **from a frozen
    /// snapshot** (see [`Snapshottable`]): every dyadic block reads the
    /// snapshot's counters, so the whole decomposition reflects one
    /// consistent stream prefix even while writers feed the live
    /// sketch.
    ///
    /// # Panics
    /// Panics if `a > b`, `b ≥ n`, or the snapshot has the wrong shape.
    pub fn query_in(&self, snap: &<Self as Snapshottable>::Snapshot, a: u64, b: u64) -> f64 {
        assert_eq!(
            snap.len(),
            self.num_levels(),
            "snapshot level count mismatch"
        );
        self.decompose(a, b, |l, block| self.block_sum_in(snap, l, block))
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
        let total = self.query(0, self.params.n - 1);
        let target = phi * total;
        let (mut lo, mut hi) = (0u64, self.params.n - 1);
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
    /// The stack's own parameters, with the width its grids use
    /// (multiply-shift and one-hash round it up to a power of two).
    /// They determine the layout rule's cut even when no level is a
    /// grid, which is why the stack keeps them rather than reading
    /// them off level 0.
    fn config(&self) -> SketchParams {
        self.params
    }

    /// A fresh stack in the same layout, under a new seed.
    fn reseeded(&self, seed: u64) -> Self {
        Self::with_grid_levels(&self.params.with_seed(seed), self.grids.len())
    }
}

impl<B: CounterBackend> PointQuerySketch for RangeSumSketch<B> {
    fn update(&mut self, item: u64, delta: f64) {
        assert!(item < self.params.n, "item outside universe");
        for (l, grid) in self.grids.iter_mut().enumerate() {
            grid.update(item >> l, delta);
        }
        for (l, cells) in (self.grids.len()..).zip(&mut self.exact) {
            cells.add(0, (item >> l) as usize, delta);
        }
    }

    /// Applies a batch of updates level-major. Grid levels get the
    /// items shifted into their block coordinates incrementally, one
    /// scratch buffer for all of them, through
    /// [`CountMedian::update_batch`], so under
    /// `bas_hash::HashKind::OneHash` they take the blocked row-major
    /// kernel. Exact levels run the same blocked sweep with one row,
    /// each item landing in cell `item >> ℓ`. Bit-for-bit equivalent
    /// to calling [`update`](PointQuerySketch::update) per item (each
    /// counter sees the same deltas in the same order).
    fn update_batch(&mut self, items: &[(u64, f64)]) {
        for &(item, _) in items {
            assert!(item < self.params.n, "item outside universe");
        }
        let mut shifted = items.to_vec();
        for (l, grid) in self.grids.iter_mut().enumerate() {
            if l > 0 {
                for u in &mut shifted {
                    u.0 >>= 1;
                }
            }
            grid.update_batch(&shifted);
        }
        for (l, cells) in (self.grids.len()..).zip(&mut self.exact) {
            cells.apply_rows_blocked(items, |b, c, v| exact_cells(l, b, c, v));
        }
    }

    /// The finest level *is* the point sketch, so a point estimate
    /// reads level 0 only — identical to `query(item, item)`, which the
    /// dyadic decomposition also answers entirely at level 0.
    fn estimate(&self, item: u64) -> f64 {
        assert!(item < self.params.n, "item outside universe");
        self.block_sum(0, item)
    }

    fn universe(&self) -> u64 {
        self.params.n
    }

    fn size_in_words(&self) -> usize {
        self.cells().map(CounterMatrix::len).sum()
    }

    fn label(&self) -> &'static str {
        "RS"
    }
}

impl<B: CounterBackend> MergeableSketch for RangeSumSketch<B> {
    /// Merges another range-sum sketch built with identical parameters
    /// and layout, cell by cell on every level.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.check_compatible(other)?;
        for (mine, theirs) in self.cells_mut().zip(other.cells()) {
            mine.add_matrix(theirs);
        }
        Ok(())
    }

    /// Exact counter subtraction, level by level (every level is
    /// linear).
    fn subtract_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.check_compatible(other)?;
        for (mine, theirs) in self.cells_mut().zip(other.cells()) {
            mine.sub_matrix(theirs);
        }
        Ok(())
    }
}

impl<B: SharedBackend> SharedSketch for RangeSumSketch<B> {
    /// Applies `x_item ← x_item + delta` through a **shared** reference
    /// — one shared update per dyadic level.
    fn update_shared(&self, item: u64, delta: f64) {
        assert!(item < self.params.n, "item outside universe");
        for (l, grid) in self.grids.iter().enumerate() {
            grid.update_shared(item >> l, delta);
        }
        for (l, cells) in (self.grids.len()..).zip(&self.exact) {
            cells.add_shared(0, (item >> l) as usize, delta);
        }
    }

    /// The shared-reference form of
    /// [`update_batch`](PointQuerySketch::update_batch): grid levels
    /// feed their [`SharedSketch::update_batch_shared`] kernel, exact
    /// levels the shared one-row sweep.
    fn update_batch_shared(&self, items: &[(u64, f64)]) {
        for &(item, _) in items {
            assert!(item < self.params.n, "item outside universe");
        }
        let mut shifted = items.to_vec();
        for (l, grid) in self.grids.iter().enumerate() {
            if l > 0 {
                for u in &mut shifted {
                    u.0 >>= 1;
                }
            }
            grid.update_batch_shared(&shifted);
        }
        for (l, cells) in (self.grids.len()..).zip(&self.exact) {
            cells.apply_rows_blocked_shared(items, |b, c, v| exact_cells(l, b, c, v));
        }
    }
}

impl<B: CounterBackend> Snapshottable for RangeSumSketch<B> {
    /// One frozen plane per dyadic level, coarsest last: `d × w` for a
    /// grid level, `1 × blocks` for an exact one.
    type Snapshot = Vec<CounterMatrix<f64, Dense>>;

    fn make_snapshot(&self) -> Self::Snapshot {
        self.cells()
            .map(|cells| CounterMatrix::new(cells.width(), cells.depth()))
            .collect()
    }

    fn snapshot_into(&self, snap: &mut Self::Snapshot) {
        assert_eq!(
            snap.len(),
            self.num_levels(),
            "snapshot level count mismatch"
        );
        for (cells, level_snap) in self.cells().zip(snap.iter_mut()) {
            cells.snapshot_into(level_snap);
        }
    }

    fn estimate_in(&self, snap: &Self::Snapshot, item: u64) -> f64 {
        assert!(item < self.params.n, "item outside universe");
        self.block_sum_in(snap, 0, item)
    }

    /// Point estimates read level 0 only, and level 0's universe is
    /// this sketch's, so the scan is level 0's: Count-Median's blocked
    /// scan on a grid, a plain filter over the cells when exact.
    fn items_at_least_in(&self, snap: &Self::Snapshot, threshold: f64, out: &mut Vec<HeavyHitter>) {
        match self.grids.first() {
            Some(grid) => grid.items_at_least_in(&snap[0], threshold, out),
            None => out.extend(
                (0..)
                    .zip(snap[0].row(0))
                    .filter(|&(_, &estimate)| estimate >= threshold)
                    .map(|(item, &estimate)| HeavyHitter { item, estimate }),
            ),
        }
    }

    /// Linear level by level: always `Ok`.
    fn merge_snapshot(
        &self,
        snap: &mut Self::Snapshot,
        other: &Self::Snapshot,
    ) -> Result<(), MergeError> {
        assert_eq!(snap.len(), other.len(), "snapshot level count mismatch");
        for (mine, theirs) in snap.iter_mut().zip(other) {
            mine.add_matrix(theirs);
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
        for (mine, theirs) in snap.iter_mut().zip(other) {
            mine.sub_matrix(theirs);
        }
        Ok(())
    }
}

/// The dyadic stack absorbs level by level — every level is linear,
/// so a shipped stack of planes rebuilds the whole hierarchy exactly.
/// A stack of another level count or any plane of another shape is
/// refused before any cell is written.
impl<B: SharedBackend> AbsorbPlane for RangeSumSketch<B> {
    fn absorb_plane_shared(&self, plane: &Self::Snapshot) -> Result<(), MergeError> {
        if plane.len() != self.num_levels() {
            return Err(MergeError::ShapeMismatch {
                what: "dyadic level counts",
            });
        }
        let fits = |(cells, p): (&CounterMatrix<f64, B>, &CounterMatrix<f64, Dense>)| {
            (cells.width(), cells.depth()) == (p.width(), p.depth())
        };
        if !self.cells().zip(plane).all(fits) {
            return Err(MergeError::ShapeMismatch {
                what: "dyadic level shapes",
            });
        }
        for (cells, level_plane) in self.cells().zip(plane) {
            cells.add_matrix_shared(level_plane);
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
