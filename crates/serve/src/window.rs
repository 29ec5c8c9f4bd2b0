//! Window-pinned snapshots: frozen, self-contained views of one time
//! window.

use crate::error::QueryError;
use bas_pipeline::EpochHandle;
use bas_sketch::{
    CounterBackend, HeavyHitter, PointQuerySketch, RangeSumSketch, SharedSketch, SketchParams,
    Snapshottable,
};

/// A pinned, epoch-consistent frozen view of **one window** of the
/// stream: the counter plane of intervals
/// `start_interval ..= end_interval`, obtained as
/// `cumulative(now) − sealed(boundary)` by linearity.
///
/// Like `bas_pipeline::SnapshotHandle`, the view is self-contained
/// (it keeps the owning sketch alive for its hash functions) and
/// `Send`, so a coordinator can ship per-site window snapshots across
/// threads — `bas_distributed::aggregate_windows` merges same-window
/// snapshots from many sites by the same linearity that built them.
///
/// Obtain one from
/// [`QueryEngine::pin_window`](crate::QueryEngine::pin_window); refresh
/// it in place (allocation-free) with
/// [`QueryEngine::refresh_window`](crate::QueryEngine::refresh_window).
#[derive(Debug)]
pub struct WindowSnapshot<S: SharedSketch + Snapshottable + Send> {
    pub(crate) owner: EpochHandle<S>,
    pub(crate) plane: S::Snapshot,
    /// The hasher configuration (seed included) the plane was pinned
    /// under: carried explicitly so a coordinator can refuse to
    /// counter-merge windows sealed under different seeds (see
    /// `bas_distributed::aggregate_windows`) instead of silently
    /// combining incompatible planes.
    pub(crate) params: SketchParams,
    pub(crate) start_interval: u64,
    pub(crate) end_interval: u64,
    pub(crate) applied: u64,
    pub(crate) mass: f64,
}

impl<S: SharedSketch + Snapshottable + Send> WindowSnapshot<S> {
    /// Point estimate of `x_item` **within the window** — the frozen
    /// counterpart of a live estimate, scoped to the window's updates.
    pub fn estimate(&self, item: u64) -> f64 {
        self.owner.sketch().estimate_in(&self.plane, item)
    }

    /// Heavy hitters of the window: every item whose window estimate
    /// reaches `phi` times the window's mass, sorted by decreasing
    /// estimate. The same universe scan as the unbounded engine's
    /// ([`Snapshottable::items_at_least_in`]). An empty (or
    /// net-non-positive) window has no heavy hitters.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidPhi`] unless `0 < phi < 1`.
    pub fn heavy_hitters(&self, phi: f64) -> Result<Vec<HeavyHitter>, QueryError> {
        crate::scan_heavy_hitters(self.owner.sketch(), &self.plane, self.mass, phi)
    }

    /// The frozen window plane, for sketch-specific multi-cell queries
    /// and for shipping to a distributed coordinator.
    pub fn plane(&self) -> &S::Snapshot {
        &self.plane
    }

    /// The sketch this window was pinned from (hash functions).
    pub fn sketch(&self) -> &S {
        self.owner.sketch()
    }

    /// The hasher configuration the window's plane was pinned under.
    /// Counter-space combination of two windows is only sound when
    /// their configs pass
    /// [`SketchParams::check_counter_compatible`]; otherwise combine
    /// their **estimates** (see [`crate::combine_plane_estimates`]).
    pub fn config(&self) -> SketchParams {
        self.params
    }

    /// First interval the window covers.
    pub fn start_interval(&self) -> u64 {
        self.start_interval
    }

    /// Last interval the window covers (the interval that was in
    /// progress at pin time).
    pub fn end_interval(&self) -> u64 {
        self.end_interval
    }

    /// Updates inside the window as of the pin.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Total delta mass inside the window as of the pin — the base for
    /// window heavy-hitter thresholds.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Unwraps the frozen window plane (e.g. to ship it to a
    /// coordinator without the owner handle).
    pub fn into_plane(self) -> S::Snapshot {
        self.plane
    }
}

impl<B: CounterBackend> WindowSnapshot<RangeSumSketch<B>>
where
    RangeSumSketch<B>: SharedSketch,
{
    /// Range sum `Σ_{a ≤ i ≤ b} x_i` **within the window**: the whole
    /// dyadic decomposition reads the one subtracted plane, so every
    /// level reflects the same window of the stream.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidRange`] if `a > b` or `b ≥ n`.
    pub fn range_sum(&self, a: u64, b: u64) -> Result<f64, QueryError> {
        let sketch = self.owner.sketch();
        QueryError::check_range(a, b, sketch.universe())?;
        Ok(sketch.query_in(&self.plane, a, b))
    }
}
