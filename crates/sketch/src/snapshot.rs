//! Frozen query views: the [`Snapshottable`] trait.
//!
//! Single-cell reads on an `Atomic`-backed sketch are always safe to
//! race with writers (each counter is one atomic word), but multi-cell
//! queries — median-of-rows point estimates, heavy-hitter scans, range
//! decompositions — combine many cells and can observe a *mix* of two
//! in-flight flushes. The query plane's answer is to freeze a
//! consistent dense copy of the counters and query that instead. This
//! module defines the contract every sketch implements for it:
//!
//! * [`Snapshottable::snapshot_into`] copies the live counters into a
//!   caller-owned [`Snapshot`](Snapshottable::Snapshot) (a plain dense
//!   matrix, or a stack of them), reusing its storage so steady-state
//!   snapshots allocate nothing;
//! * `estimate_in` (and the sketch-specific `*_in` companions such as
//!   [`RangeSumSketch::query_in`](crate::RangeSumSketch::query_in))
//!   answer queries **from the snapshot's counters** using the live
//!   sketch's hash functions, which are immutable after construction;
//! * [`Snapshottable::items_at_least_in`] is the heavy-hitter scan over
//!   a snapshot: every item whose `estimate_in` reaches a threshold.
//!   Its default asks `estimate_in` item by item; one-hash
//!   [`CountMedian`](crate::CountMedian) (and the range-sum stack,
//!   through its finest level) overrides it with a blocked kernel that
//!   hashes each item once and takes the median only where it can
//!   reach the threshold, answering bit-for-bit what the default does;
//! * [`Snapshottable::subtract_snapshot`] subtracts one snapshot from
//!   another — by linearity (`Φx = Φx¹ + Φx²`),
//!   `Φx^{(a,b]} = Φx^{(0,b]} − Φx^{(0,a]}`, so the sketch of a **time
//!   window** is one subtraction of two cumulative snapshots. This is
//!   the plane-arithmetic primitive under the tumbling/sliding serving
//!   policies in `bas_serve`. Planes under different seeds never meet
//!   here: a rotating window sums their estimates instead.
//!
//! The *consistency* of the copy is not this trait's business: it only
//! promises a faithful cell-by-cell copy of whatever the counters held
//! during the copy. `bas_pipeline::epoch` layers the seqlock retry
//! discipline on top (copy, check the write epoch, retry if a flush
//! intervened), which upgrades the copy to "a settled state between
//! flushes — a prefix of the update stream".

use crate::heavy_hitters::HeavyHitter;
use crate::storage::{CounterMatrix, Dense, SharedBackend};
use crate::traits::{MergeError, PointQuerySketch, SharedSketch};

/// The per-item heavy-hitter scan: the default of
/// [`Snapshottable::items_at_least_in`], and the path an override
/// falls back to when it cannot take its fast kernel.
pub(crate) fn each_item_at_least<S: Snapshottable + ?Sized>(
    sketch: &S,
    snap: &S::Snapshot,
    threshold: f64,
    out: &mut Vec<HeavyHitter>,
) {
    out.extend((0..sketch.universe()).filter_map(|item| {
        let estimate = sketch.estimate_in(snap, item);
        (estimate >= threshold).then_some(HeavyHitter { item, estimate })
    }));
}

/// A sketch that can freeze its counters into a dense, immutable,
/// cheaply-queryable view.
///
/// Implemented by the three linear sketches the serving stack runs
/// (Count-Median, Count-Sketch and the range-sum stack);
/// [`HeavyHitters`](crate::HeavyHitters) exposes the snapshot of any
/// of them. The snapshot holds *only counters*; hash functions stay on
/// the live sketch (they are immutable after construction, so sharing
/// them across threads is free), and every query method takes both.
///
/// ```
/// use bas_sketch::{CountMedian, PointQuerySketch, SketchParams, Snapshottable};
///
/// let params = SketchParams::new(1_000, 64, 5).with_seed(2);
/// let mut cm = CountMedian::new(&params);
/// cm.update(7, 4.0);
///
/// let mut snap = cm.make_snapshot();
/// cm.snapshot_into(&mut snap);
/// cm.update(7, 10.0); // the live sketch moves on...
///
/// assert_eq!(cm.estimate_in(&snap, 7), 4.0); // ...the snapshot does not
/// assert_eq!(cm.estimate(7), 14.0);
/// ```
pub trait Snapshottable: PointQuerySketch + Sync {
    /// The frozen dense view: plain owned data (no atomics, no hash
    /// state), safe to query from any thread.
    type Snapshot: Send + Sync + std::fmt::Debug;

    /// Allocates a zero-filled snapshot of the right shape for this
    /// sketch. Done once per reader; afterwards
    /// [`snapshot_into`](Snapshottable::snapshot_into) refills it
    /// without allocating.
    fn make_snapshot(&self) -> Self::Snapshot;

    /// Copies the sketch's current counters into `snap`, reusing its
    /// storage.
    ///
    /// # Panics
    /// Panics if `snap` was made for a different configuration (shape
    /// mismatch).
    fn snapshot_into(&self, snap: &mut Self::Snapshot);

    /// Point estimate of `x_item` computed from the snapshot's
    /// counters — the frozen counterpart of
    /// [`PointQuerySketch::estimate`]. On a quiescent sketch the two
    /// agree bit-for-bit.
    fn estimate_in(&self, snap: &Self::Snapshot, item: u64) -> f64;

    /// Appends to `out`, in item order, every item of the universe
    /// whose [`estimate_in`](Snapshottable::estimate_in) is
    /// `>= threshold`, paired with that estimate — the heavy-hitter
    /// scan over a frozen plane.
    ///
    /// The default asks `estimate_in` for every item, `O(n·d)` cell
    /// reads plus one median per item. Sketches may override it with a
    /// faster scan that must report exactly the same items with
    /// bit-for-bit the same estimates: one-hash
    /// [`CountMedian`](crate::CountMedian) does, and
    /// [`RangeSumSketch`](crate::RangeSumSketch) scans its finest
    /// level through it.
    ///
    /// ```
    /// use bas_sketch::{CountMedian, PointQuerySketch, SketchParams, Snapshottable};
    ///
    /// let params = SketchParams::new(1_000, 64, 5).with_seed(2);
    /// let mut cm = CountMedian::new(&params);
    /// cm.update_batch(&[(7, 40.0), (9, 3.0)]);
    /// let snap = cm.snapshot();
    /// let mut hot = Vec::new();
    /// cm.items_at_least_in(&snap, 10.0, &mut hot);
    /// assert_eq!(hot.len(), 1);
    /// assert_eq!((hot[0].item, hot[0].estimate), (7, 40.0));
    /// ```
    fn items_at_least_in(&self, snap: &Self::Snapshot, threshold: f64, out: &mut Vec<HeavyHitter>) {
        each_item_at_least(self, snap, threshold, out);
    }

    /// Subtracts `other`'s counters from `snap` element-wise.
    ///
    /// Every implementor is linear, so this is **exact** plane
    /// arithmetic: if `other` is a cumulative snapshot at an earlier
    /// stream position, the result is bit-for-bit the sketch of the
    /// updates in between (on integer-delta streams, where `f64`
    /// addition is exact). The windowed query plane is built on this.
    ///
    /// # Panics
    /// Panics on shape mismatch between the two snapshots.
    fn subtract_snapshot(&self, snap: &mut Self::Snapshot, other: &Self::Snapshot);

    /// Convenience: allocate a snapshot and fill it in one call.
    fn snapshot(&self) -> Self::Snapshot {
        let mut snap = self.make_snapshot();
        self.snapshot_into(&mut snap);
        snap
    }
}

/// A shared-backend sketch whose **live** counters can absorb a frozen
/// plane through a shared reference — the destination half of moving a
/// sketch between hosts.
///
/// Rebalance by linearity: a tenant's sketch is shipped as its counter
/// plane only (a [`Snapshot`](Snapshottable::Snapshot)); the
/// destination rebuilds the hashers deterministically from the same
/// [`SketchParams`](crate::SketchParams) seed and adds the shipped
/// plane into a freshly zeroed sketch. Because `Φx = Φx¹ + Φx²`
/// cell-wise, the rebuilt sketch's counters equal the original's — on
/// integer-delta streams (where `f64` addition is exact) **bit for
/// bit** — so every estimate the destination serves is identical to
/// what the source would have served.
///
/// The absorb goes through the shared single-writer
/// [`add_matrix_shared`](crate::CounterMatrix::add_matrix_shared)
/// path: it is one more write to the plane, made by its one writer
/// (`bas_pipeline::EpochSketch::absorb_plane` runs it inside a write
/// section, so seqlock readers see all of it or none).
pub trait AbsorbPlane: Snapshottable + SharedSketch {
    /// Adds `plane`'s counters into the live sketch cell-wise through
    /// a shared reference.
    ///
    /// # Errors
    /// Returns [`MergeError::ShapeMismatch`] if `plane` was made for a
    /// different shape, and then writes no counter.
    fn absorb_plane_shared(&self, plane: &Self::Snapshot) -> Result<(), MergeError>;
}

/// The absorb of every one-grid sketch: refuses a plane of another
/// shape before any write, then adds it through the grid's shared
/// single-writer path.
pub(crate) fn absorb_grid<B: SharedBackend>(
    grid: &CounterMatrix<f64, B>,
    plane: &CounterMatrix<f64, Dense>,
) -> Result<(), MergeError> {
    if (plane.width(), plane.depth()) != (grid.width(), grid.depth()) {
        return Err(MergeError::ShapeMismatch {
            what: "widths/depths",
        });
    }
    grid.add_matrix_shared(plane);
    Ok(())
}
