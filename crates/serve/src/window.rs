//! Window-pinned snapshots: frozen, self-contained views of one time
//! window.

use crate::error::QueryError;
use bas_pipeline::EpochHandle;
use bas_sketch::{
    CounterBackend, HeavyHitter, PointQuerySketch, RangeSumSketch, Reseedable, SealedPlane,
    SharedSketch, Snapshottable,
};

/// A pinned, epoch-consistent frozen view of **one window** of the
/// stream: intervals `start_interval ..= end_interval`, held as one
/// frozen plane per generation the window reaches — the live generation
/// first, then closed generations oldest first. Under a fixed seed
/// there is exactly one, `cumulative(now) − sealed(boundary)` by
/// linearity; under seed rotation each plane keeps its own hashers and
/// answers sum the planes' estimates.
///
/// Like `bas_pipeline::SnapshotHandle`, the view is self-contained
/// (it keeps each plane's owning sketch alive for its hash functions)
/// and `Send`, so a reader may take it to another thread.
///
/// Obtain one from
/// [`QueryEngine::pin_window`](crate::QueryEngine::pin_window); refresh
/// it in place (allocation-free) with
/// [`QueryEngine::refresh_window`](crate::QueryEngine::refresh_window).
#[derive(Debug)]
pub struct WindowSnapshot<S: SharedSketch + Snapshottable + Reseedable + Send> {
    /// The live generation's plane, cut at the boundary under a fixed
    /// seed.
    live: (EpochHandle<S>, S::Snapshot),
    /// The closed generations inside the window, oldest first.
    closed: Vec<(EpochHandle<S>, S::Snapshot)>,
    pub(crate) start_interval: u64,
    pub(crate) end_interval: u64,
    applied: u64,
    mass: f64,
}

/// Pins `handle` into `slot`'s buffer and makes `handle` the slot's
/// owner; returns the pin's `(epoch, applied, mass)`.
fn repin<S: Snapshottable>(
    slot: &mut (EpochHandle<S>, S::Snapshot),
    handle: &EpochHandle<S>,
) -> (u64, u64, f64) {
    if !std::sync::Arc::ptr_eq(slot.0.shared(), handle.shared()) {
        slot.0 = handle.clone();
    }
    handle.pin_into(&mut slot.1)
}

impl<S: SharedSketch + Snapshottable + Reseedable + Send> WindowSnapshot<S> {
    /// An unpinned window with a plane buffer for `live`.
    pub(crate) fn new(live: &EpochHandle<S>) -> Self {
        Self {
            live: (live.clone(), live.sketch().make_snapshot()),
            closed: Vec::new(),
            start_interval: 0,
            end_interval: 0,
            applied: 0,
            mass: 0.0,
        }
    }

    /// Re-pins the live plane, less `cut`, and one plane per closed
    /// generation in `closed`, reusing the buffers already held.
    pub(crate) fn fill<'a>(
        &mut self,
        live: &EpochHandle<S>,
        closed: impl Iterator<Item = &'a EpochHandle<S>>,
        cut: Option<&SealedPlane<S::Snapshot>>,
    ) where
        S: 'a,
    {
        let (_, applied, mass) = repin(&mut self.live, live);
        (self.applied, self.mass) = match cut {
            Some(seal) => {
                live.sketch()
                    .subtract_snapshot(&mut self.live.1, seal.plane())
                    .expect("servable sketches subtract exactly");
                (applied - seal.applied(), mass - seal.mass())
            }
            None => (applied, mass),
        };
        let (mut held, mut closed_applied, mut closed_mass) = (0, 0u64, -0.0f64);
        for handle in closed {
            if held == self.closed.len() {
                self.closed
                    .push((handle.clone(), handle.sketch().make_snapshot()));
            }
            let (_, a, m) = repin(&mut self.closed[held], handle);
            (closed_applied, closed_mass) = (closed_applied + a, closed_mass + m);
            held += 1;
        }
        self.closed.truncate(held);
        self.applied += closed_applied;
        self.mass += closed_mass;
    }

    /// Sums `read` over the planes, live first.
    fn sum(&self, read: impl Fn(&S, &S::Snapshot) -> f64) -> f64 {
        let live = read(self.live.0.sketch(), &self.live.1);
        self.closed.iter().fold(live, |acc, (owner, plane)| {
            acc + read(owner.sketch(), plane)
        })
    }

    /// Point estimate of `x_item` **within the window** — the frozen
    /// counterpart of a live estimate, scoped to the window's updates:
    /// the sum of the planes' estimates, each through its own hashers.
    pub fn estimate(&self, item: u64) -> f64 {
        self.sum(|sketch, plane| sketch.estimate_in(plane, item))
    }

    /// Heavy hitters of the window: every item whose window estimate
    /// reaches `phi` times the window's mass, sorted by decreasing
    /// estimate. One plane is scanned by
    /// [`Snapshottable::items_at_least_in`]; several (a rotating
    /// window's generations, each under its own seed) scan the universe
    /// through [`estimate`](Self::estimate), the same per-plane sum that
    /// window points answer. An empty (or net-non-positive) window has
    /// no heavy hitters.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidPhi`] unless `0 < phi < 1`.
    pub fn heavy_hitters(&self, phi: f64) -> Result<Vec<HeavyHitter>, QueryError> {
        let (owner, plane) = &self.live;
        crate::scan_heavy_hitters(self.mass, phi, |threshold, out| {
            if self.closed.is_empty() {
                return owner.sketch().items_at_least_in(plane, threshold, out);
            }
            out.extend((0..owner.sketch().universe()).filter_map(|item| {
                let estimate = self.estimate(item);
                (estimate >= threshold).then_some(HeavyHitter { item, estimate })
            }));
        })
    }

    /// The frozen planes, each with the sketch whose hashers address
    /// it: the live generation first, then closed generations oldest
    /// first. A fixed-seed window holds exactly one. Counter-space
    /// combination is sound only between planes whose configs pass
    /// [`SketchParams::check_counter_compatible`](bas_sketch::SketchParams::check_counter_compatible);
    /// otherwise combine their **estimates**, as
    /// [`estimate`](Self::estimate) does.
    pub fn planes(&self) -> impl Iterator<Item = (&S, &S::Snapshot)> {
        std::iter::once(&self.live)
            .chain(&self.closed)
            .map(|(owner, plane)| (owner.sketch(), plane))
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
}

impl<B: CounterBackend> WindowSnapshot<RangeSumSketch<B>>
where
    RangeSumSketch<B>: SharedSketch,
{
    /// Range sum `Σ_{a ≤ i ≤ b} x_i` **within the window**: each
    /// plane's whole dyadic decomposition reads that one frozen plane,
    /// so every level reflects the same window of the stream.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidRange`] if `a > b` or `b ≥ n`.
    pub fn range_sum(&self, a: u64, b: u64) -> Result<f64, QueryError> {
        QueryError::check_range(a, b, self.live.0.sketch().universe())?;
        Ok(self.sum(|sketch, plane| sketch.query_in(plane, a, b)))
    }
}
