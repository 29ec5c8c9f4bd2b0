//! Epoch snapshots: consistent reads over a sketch that is being fed
//! concurrently.
//!
//! [`ConcurrentIngest`](crate::ConcurrentIngest) writes one shared
//! `Atomic`-backed sketch from one writer; this module makes it
//! **readable** while that writer is live. The discipline is a
//! seqlock built from two pieces the lower layers already own:
//!
//! * the storage layer's
//!   [`EpochCounter`] — a sequence
//!   that is odd exactly while a flush's write section is open (and
//!   whose `begin_write` rejects a second, overlapping writer);
//! * the sketch layer's [`Snapshottable`] — an allocation-free
//!   cell-by-cell freeze of the counters into a dense view.
//!
//! [`EpochSketch`] glues them together: it wraps any
//! [`SharedSketch`] and publishes a write epoch through the
//! [`SharedSketch::write_epoch`] hook, which `ConcurrentIngest`
//! brackets around every flush (begin before the first cell write, end
//! after the last). A reader [`pin`](EpochSketch::pin)s a
//! [`SnapshotHandle`] with the classic retry loop — read the epoch,
//! copy the cells, re-read the epoch, retry if a flush intervened — so
//! every pinned snapshot is a **settled state from between flushes**,
//! i.e. the sketch of a prefix of the pushed update stream. On integer
//! streams that makes snapshot queries bit-identical to quiescing the
//! ingester at the same prefix and querying directly.
//!
//! Live reads (single-cell, lock-free) remain available at any moment
//! through the wrapped sketch; the decision table in ARCHITECTURE.md's
//! "Query plane" section says which read mode fits which query.

use bas_sketch::storage::EpochCounter;
use bas_sketch::{
    AbsorbPlane, MergeError, PointQuerySketch, Reseedable, SharedSketch, Snapshottable,
};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// RAII bracket for one write section of an [`EpochCounter`]: the
/// epoch turns odd on [`enter`](EpochGuard::enter) and even again on
/// drop. `ConcurrentIngest` holds one across each flush so snapshot
/// readers can detect (and retry across) the in-flight counter
/// mutations.
#[derive(Debug)]
pub struct EpochGuard<'a> {
    epoch: &'a EpochCounter,
}

impl<'a> EpochGuard<'a> {
    /// Opens a write section on `epoch`.
    pub fn enter(epoch: &'a EpochCounter) -> Self {
        epoch.begin_write();
        Self { epoch }
    }
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.epoch.end_write();
    }
}

/// A [`SharedSketch`] wrapped with the write-epoch and stream-position
/// bookkeeping that snapshot readers need.
///
/// Construct one around an `Atomic`-backed sketch, put it in an
/// [`Arc`], and hand clones of the `Arc` to readers while an ingest
/// driver (typically `ConcurrentIngest`, typically owned by a
/// `bas_serve::QueryEngine`) feeds it:
///
/// * writers see a [`SharedSketch`] that delegates updates unchanged
///   and publishes its epoch through
///   [`SharedSketch::write_epoch`], so every `ConcurrentIngest` flush
///   is automatically bracketed;
/// * readers call [`sketch`](EpochSketch::sketch) for lock-free live
///   reads, or [`pin`](EpochSketch::pin) /
///   [`SnapshotHandle::refresh`] for epoch-consistent frozen views.
///
/// ```
/// use bas_pipeline::{ConcurrentIngest, EpochHandle};
/// use bas_sketch::{AtomicCountMedian, PointQuerySketch, SketchParams};
///
/// let params = SketchParams::new(1_000, 64, 5).with_seed(4);
/// let shared = EpochHandle::new(AtomicCountMedian::with_backend(&params));
///
/// let mut ingest = ConcurrentIngest::new(shared.clone());
/// for i in 0..5_000u64 {
///     ingest.push(i % 1_000, 1.0);
/// }
/// ingest.flush();
///
/// let snap = shared.pin();
/// assert_eq!(snap.applied(), 5_000);       // a full prefix of the stream
/// assert_eq!(snap.estimate(3), shared.sketch().estimate(3));
/// ```
#[derive(Debug)]
pub struct EpochSketch<S> {
    sketch: S,
    epoch: EpochCounter,
    /// Updates applied in completed write sections.
    applied: AtomicU64,
    /// Total delta mass applied in completed write sections, stored as
    /// `f64` bits (heavy-hitter thresholds are `φ·mass`).
    mass_bits: AtomicU64,
}

impl<S> EpochSketch<S> {
    /// Wraps a sketch; the epoch starts at 0 with nothing applied.
    pub fn new(sketch: S) -> Self {
        Self {
            sketch,
            epoch: EpochCounter::new(),
            applied: AtomicU64::new(0),
            mass_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// The wrapped sketch, for **live** reads: single-cell queries are
    /// safe at any moment (each counter is one atomic word), but
    /// multi-cell queries made here can mix state from an in-flight
    /// flush — use [`pin`](EpochSketch::pin) for those.
    pub fn sketch(&self) -> &S {
        &self.sketch
    }

    /// The write-epoch counter (even = settled, odd = flush in
    /// flight).
    pub fn epoch(&self) -> &EpochCounter {
        &self.epoch
    }

    /// Updates applied in completed flushes — the length of the stream
    /// prefix a snapshot pinned *now* would capture.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Total delta mass applied in completed flushes.
    pub fn mass(&self) -> f64 {
        f64::from_bits(self.mass_bits.load(Ordering::Acquire))
    }

    /// Unwraps the inner sketch.
    pub fn into_inner(self) -> S {
        self.sketch
    }
}

impl<S: Snapshottable> EpochSketch<S> {
    /// Pins a consistent snapshot: allocates the dense view once, then
    /// runs the seqlock retry loop. See [`SnapshotHandle::refresh`] for
    /// the allocation-free steady-state path.
    ///
    /// The handle owns an `Arc` clone, so it stays valid (and frozen)
    /// however long the caller keeps it.
    pub fn pin(this: &Arc<Self>) -> SnapshotHandle<S> {
        let mut snap = this.sketch.make_snapshot();
        let (epoch, applied, mass) = this.fill(&mut snap);
        SnapshotHandle {
            owner: Arc::clone(this),
            snap,
            epoch,
            applied,
            mass,
        }
    }

    /// Runs the seqlock retry loop into a **caller-owned** snapshot
    /// buffer and returns the `(epoch, applied, mass)` the capture
    /// settled at — the primitive under both [`SnapshotHandle::refresh`]
    /// and the window plane's allocation-free rotation/seal path
    /// (`WindowedIngest` refills a recycled bank slot with it). Same
    /// consistency contract as [`pin`](EpochSketch::pin): the buffer
    /// always ends up holding a flush-boundary prefix of the stream.
    ///
    /// # Panics
    /// Panics if `snap` was made for a different configuration.
    pub fn pin_into(&self, snap: &mut S::Snapshot) -> (u64, u64, f64) {
        self.fill(snap)
    }

    /// The seqlock read loop: copy the counters and keep the copy only
    /// if the write epoch was even and unchanged across the copy.
    /// Returns `(epoch, applied, mass)` as of the captured state.
    ///
    /// While a flush is in flight the reader **yields** rather than
    /// spins: a flush is a millisecond-scale section (it hashes a full
    /// buffer), so burning cycles only heats the core — and on a
    /// single-core host it would actively delay the very writer whose
    /// section the reader is waiting out. Between flushes — while the
    /// ingester refills its buffer — there is always a settled window
    /// to capture.
    fn fill(&self, snap: &mut S::Snapshot) -> (u64, u64, f64) {
        loop {
            let before = self.epoch.read();
            if !EpochCounter::is_write_open(before) {
                let applied = self.applied.load(Ordering::Acquire);
                let mass = f64::from_bits(self.mass_bits.load(Ordering::Acquire));
                self.sketch.snapshot_into(snap);
                // Order the cell loads above before the epoch re-check.
                // Pairs with the release fence in
                // `EpochCounter::begin_write` (Boehm's seqlock reader): a
                // load that saw any store of a later section makes the
                // re-check see that section's odd epoch.
                fence(Ordering::Acquire);
                if self.epoch.read() == before {
                    return (before, applied, mass);
                }
            }
            std::thread::yield_now();
        }
    }
}

impl<S: AbsorbPlane> EpochSketch<S> {
    /// Absorbs a transferred cumulative counter plane into the live
    /// sketch inside **one write section**, advancing the stream
    /// position by the updates/mass the plane represents — the
    /// destination half of a tenant rebalance. Epoch-consistent readers
    /// either see the sketch entirely without the plane or entirely
    /// with it, with `applied()`/`mass()` matching either way.
    ///
    /// Must not race another write section: the caller serializes it
    /// against flushes exactly as ingest drivers do (overlap is a hard
    /// error in [`EpochCounter::begin_write`]).
    ///
    /// # Errors
    /// Propagates the sketch's [`AbsorbPlane`] rejection (e.g.
    /// conservative-update Count-Min) with the counters untouched.
    pub fn absorb_plane(
        &self,
        plane: &S::Snapshot,
        applied: u64,
        mass: f64,
    ) -> Result<(), MergeError> {
        let _guard = EpochGuard::enter(&self.epoch);
        self.sketch.absorb_plane_shared(plane)?;
        SharedSketch::note_applied(self, applied, mass);
        Ok(())
    }
}

impl<S: PointQuerySketch> EpochSketch<S> {
    /// Exclusive-path stream-position bookkeeping: `&mut self` means no
    /// reader exists, so plain (`get_mut`) arithmetic suffices — but
    /// the position must still advance, or later snapshots would
    /// report an `applied()`/`mass()` that undercounts the counters.
    fn note_applied_mut(&mut self, updates: u64, mass: f64) {
        *self.applied.get_mut() += updates;
        let bits = self.mass_bits.get_mut();
        *bits = (f64::from_bits(*bits) + mass).to_bits();
    }
}

impl<S: PointQuerySketch> PointQuerySketch for EpochSketch<S> {
    /// Exclusive update, delegated. Possible only while no reader holds
    /// an `Arc` clone (it needs `&mut`), so no epoch bracket is
    /// required; the stream position still advances so snapshots keep
    /// their `applied()`/`mass()` contract.
    fn update(&mut self, item: u64, delta: f64) {
        self.sketch.update(item, delta);
        self.note_applied_mut(1, delta);
    }

    fn update_batch(&mut self, items: &[(u64, f64)]) {
        self.sketch.update_batch(items);
        self.note_applied_mut(items.len() as u64, items.iter().map(|&(_, d)| d).sum());
    }

    fn estimate(&self, item: u64) -> f64 {
        self.sketch.estimate(item)
    }

    fn universe(&self) -> u64 {
        self.sketch.universe()
    }

    fn size_in_words(&self) -> usize {
        self.sketch.size_in_words()
    }

    fn label(&self) -> &'static str {
        self.sketch.label()
    }
}

impl<S: SharedSketch> SharedSketch for EpochSketch<S> {
    fn update_shared(&self, item: u64, delta: f64) {
        self.sketch.update_shared(item, delta);
    }

    fn update_batch_shared(&self, items: &[(u64, f64)]) {
        self.sketch.update_batch_shared(items);
    }

    /// Publishes the wrapper's epoch: ingest drivers bracket every
    /// flush with it, which is what turns raw shared ingest into the
    /// snapshot-consistent query plane.
    fn write_epoch(&self) -> Option<&EpochCounter> {
        Some(&self.epoch)
    }

    /// Advances the stream position. Called inside the write section,
    /// so epoch-consistent readers always see counters and position
    /// from the same settled state. The section admits one writer
    /// (an overlapping one panics in [`EpochCounter::begin_write`]), so
    /// a plain load and store suffice, exactly as for the cells; the
    /// Release stores let a live [`applied`](EpochSketch::applied)
    /// reader that sees the new position also see the flush's cells.
    fn note_applied(&self, updates: u64, mass: f64) {
        let applied = self.applied.load(Ordering::Relaxed) + updates;
        self.applied.store(applied, Ordering::Release);
        let total = f64::from_bits(self.mass_bits.load(Ordering::Relaxed)) + mass;
        self.mass_bits.store(total.to_bits(), Ordering::Release);
    }
}

impl<S: Snapshottable> Snapshottable for EpochSketch<S> {
    type Snapshot = S::Snapshot;

    fn make_snapshot(&self) -> Self::Snapshot {
        self.sketch.make_snapshot()
    }

    /// Raw (non-retrying) copy of the current counters; use
    /// [`EpochSketch::pin`] for the epoch-consistent loop.
    fn snapshot_into(&self, snap: &mut Self::Snapshot) {
        self.sketch.snapshot_into(snap);
    }

    fn estimate_in(&self, snap: &Self::Snapshot, item: u64) -> f64 {
        self.sketch.estimate_in(snap, item)
    }

    fn items_at_least_in(
        &self,
        snap: &Self::Snapshot,
        threshold: f64,
        out: &mut Vec<bas_sketch::HeavyHitter>,
    ) {
        self.sketch.items_at_least_in(snap, threshold, out);
    }

    fn merge_snapshot(
        &self,
        snap: &mut Self::Snapshot,
        other: &Self::Snapshot,
    ) -> Result<(), bas_sketch::MergeError> {
        self.sketch.merge_snapshot(snap, other)
    }

    fn subtract_snapshot(
        &self,
        snap: &mut Self::Snapshot,
        other: &Self::Snapshot,
    ) -> Result<(), bas_sketch::MergeError> {
        self.sketch.subtract_snapshot(snap, other)
    }
}

impl<S: Reseedable> Reseedable for EpochSketch<S> {
    fn config(&self) -> bas_sketch::SketchParams {
        self.sketch.config()
    }

    /// A **fresh** epoch plane over the reseeded sketch: empty
    /// counters, epoch 0, nothing applied. Rotation drivers swap this
    /// in as the next generation's live plane; the old plane (with its
    /// frozen seed *and* counters) stays queryable through any handles
    /// still holding it.
    fn reseeded(&self, seed: u64) -> Self {
        EpochSketch::new(self.sketch.reseeded(seed))
    }
}

/// A cloneable shared handle to an [`EpochSketch`]: the type that lets
/// a `ConcurrentIngest` own one end of the sketch while any number of
/// reader handles hold the other — the writer/reader split behind
/// `bas_serve::QueryEngine`.
///
/// (A newtype around `Arc<EpochSketch<S>>` rather than the `Arc`
/// itself because the sketch traits are foreign to this crate — the
/// orphan rule — and because the handle is the natural home for
/// [`pin`](EpochHandle::pin).)
///
/// Derefs to [`EpochSketch`], so live reads, epoch probes and stream
/// position are all one `.` away.
#[derive(Debug)]
pub struct EpochHandle<S>(Arc<EpochSketch<S>>);

impl<S> Clone for EpochHandle<S> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<S> EpochHandle<S> {
    /// Wraps a sketch in a fresh shared [`EpochSketch`].
    pub fn new(sketch: S) -> Self {
        Self(Arc::new(EpochSketch::new(sketch)))
    }

    /// The underlying shared allocation.
    pub fn shared(&self) -> &Arc<EpochSketch<S>> {
        &self.0
    }
}

impl<S: Snapshottable> EpochHandle<S> {
    /// Pins an epoch-consistent snapshot — see [`EpochSketch::pin`].
    pub fn pin(&self) -> SnapshotHandle<S> {
        EpochSketch::pin(&self.0)
    }
}

impl<S> std::ops::Deref for EpochHandle<S> {
    type Target = EpochSketch<S>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<S: PointQuerySketch> PointQuerySketch for EpochHandle<S> {
    /// # Panics
    /// Panics if any other handle clone is alive: exclusive updates on
    /// a shared engine sketch would bypass the epoch discipline. Use
    /// the shared ingest path instead.
    fn update(&mut self, item: u64, delta: f64) {
        Arc::get_mut(&mut self.0)
            .expect("sketch is shared with reader handles; ingest through the shared path")
            .update(item, delta);
    }

    fn estimate(&self, item: u64) -> f64 {
        self.0.estimate(item)
    }

    fn universe(&self) -> u64 {
        self.0.universe()
    }

    fn size_in_words(&self) -> usize {
        self.0.size_in_words()
    }

    fn label(&self) -> &'static str {
        self.0.label()
    }
}

impl<S: SharedSketch + Send> SharedSketch for EpochHandle<S> {
    fn update_shared(&self, item: u64, delta: f64) {
        self.0.update_shared(item, delta);
    }

    fn update_batch_shared(&self, items: &[(u64, f64)]) {
        self.0.update_batch_shared(items);
    }

    fn write_epoch(&self) -> Option<&EpochCounter> {
        self.0.write_epoch()
    }

    fn note_applied(&self, updates: u64, mass: f64) {
        self.0.note_applied(updates, mass);
    }
}

impl<S: Reseedable> Reseedable for EpochHandle<S> {
    fn config(&self) -> bas_sketch::SketchParams {
        self.0.config()
    }

    /// A fresh handle over a fresh [`EpochSketch`] (see
    /// [`EpochSketch::reseeded`]) — a **new** `Arc`, sharing nothing
    /// with `self` or its clones.
    fn reseeded(&self, seed: u64) -> Self {
        EpochHandle::new(self.0.sketch().reseeded(seed))
    }
}

/// A pinned, epoch-consistent frozen view of an [`EpochSketch`].
///
/// Holds the dense counter copy plus the stream position it was
/// captured at: [`applied`](SnapshotHandle::applied) updates carrying
/// [`mass`](SnapshotHandle::mass) total delta — always a **prefix** of
/// the pushed stream, never a mix of an in-flight flush. Queries go
/// through the owner's hash functions; the handle keeps the owner
/// alive via `Arc`.
///
/// [`refresh`](SnapshotHandle::refresh) re-pins in place, reusing the
/// buffer — a steady-state reader allocates nothing per snapshot.
#[derive(Debug)]
pub struct SnapshotHandle<S: Snapshottable> {
    owner: Arc<EpochSketch<S>>,
    snap: S::Snapshot,
    epoch: u64,
    applied: u64,
    mass: f64,
}

impl<S: Snapshottable> SnapshotHandle<S> {
    /// Point estimate from the frozen counters.
    pub fn estimate(&self, item: u64) -> f64 {
        self.owner.sketch.estimate_in(&self.snap, item)
    }

    /// The frozen counters, for sketch-specific multi-cell queries
    /// (`RangeSumSketch::query_in`, heavy-hitter scans).
    pub fn snapshot(&self) -> &S::Snapshot {
        &self.snap
    }

    /// The sketch this snapshot was pinned from (hash functions, live
    /// counters).
    pub fn owner(&self) -> &Arc<EpochSketch<S>> {
        &self.owner
    }

    /// The (even) write epoch the snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Updates applied as of the capture: the snapshot equals a
    /// quiesced sketch of exactly the first `applied()` pushed updates.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Total delta mass applied as of the capture (`‖x‖₁` for
    /// cash-register streams) — the base for heavy-hitter thresholds.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// Whether the owner has not flushed since this snapshot was
    /// pinned (a cheap staleness probe before paying for a refresh).
    pub fn is_current(&self) -> bool {
        self.owner.epoch.read() == self.epoch
    }

    /// Re-pins against the owner's current state, reusing the buffer:
    /// the allocation-free steady-state snapshot path.
    pub fn refresh(&mut self) {
        let (epoch, applied, mass) = self.owner.fill(&mut self.snap);
        self.epoch = epoch;
        self.applied = applied;
        self.mass = mass;
    }

    /// Unwraps the frozen counters (e.g. to do plane arithmetic on
    /// them, or to ship them in a tenant transfer).
    pub fn into_snapshot(self) -> S::Snapshot {
        self.snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcurrentIngest;
    use bas_sketch::{AtomicCountMedian, AtomicCountSketch, CountMedian, SketchParams};

    fn params() -> SketchParams {
        SketchParams::new(400, 64, 5).with_seed(12)
    }

    fn stream(len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| (i * 13 % 400, (1 + i % 4) as f64))
            .collect()
    }

    #[test]
    fn epoch_guard_brackets_write_sections() {
        let epoch = EpochCounter::new();
        {
            let _guard = EpochGuard::enter(&epoch);
            assert!(EpochCounter::is_write_open(epoch.read()));
        }
        assert!(!EpochCounter::is_write_open(epoch.read()));
        assert_eq!(epoch.read(), 2);
    }

    #[test]
    fn pinned_snapshot_is_a_flush_boundary_prefix() {
        let shared = EpochHandle::new(AtomicCountMedian::with_backend(&params()));
        let mut ingest = ConcurrentIngest::new(shared.clone()).with_flush_threshold(1_000);
        let updates = stream(2_500);
        ingest.extend_from_slice(&updates);
        // 2 flushes done, 500 buffered: the snapshot sees exactly 2000.
        let snap = shared.pin();
        assert_eq!(snap.applied(), 2_000);
        assert_eq!(snap.epoch(), 4); // two completed write sections
        let mass: f64 = updates[..2_000].iter().map(|&(_, d)| d).sum();
        assert_eq!(snap.mass(), mass);

        let mut reference = CountMedian::new(&params());
        reference.update_batch(&updates[..2_000]);
        for j in 0..400u64 {
            assert_eq!(snap.estimate(j), reference.estimate(j), "item {j}");
        }
    }

    #[test]
    fn refresh_reuses_the_handle_and_tracks_new_flushes() {
        let shared = EpochHandle::new(AtomicCountSketch::with_backend(&params()));
        let mut ingest = ConcurrentIngest::new(shared.clone()).with_flush_threshold(500);
        let updates = stream(1_500);
        ingest.extend_from_slice(&updates[..500]);
        let mut snap = shared.pin();
        assert_eq!(snap.applied(), 500);
        assert!(snap.is_current());

        ingest.extend_from_slice(&updates[500..]);
        assert!(!snap.is_current());
        snap.refresh();
        assert_eq!(snap.applied(), 1_500);
        assert!(snap.is_current());
        let mut reference = bas_sketch::CountSketch::new(&params());
        reference.update_batch(&updates);
        for j in (0..400u64).step_by(7) {
            assert_eq!(snap.estimate(j), reference.estimate(j), "item {j}");
        }
    }

    #[test]
    fn snapshot_is_frozen_while_live_moves_on() {
        let shared = EpochHandle::new(AtomicCountMedian::with_backend(&params()));
        let mut ingest = ConcurrentIngest::new(shared.clone()).with_flush_threshold(100);
        ingest.extend_from_slice(&stream(100));
        let snap = shared.pin();
        let frozen = snap.estimate(13);
        ingest.extend_from_slice(&stream(100)); // same stream again: doubles
        assert_eq!(snap.estimate(13), frozen);
        assert_eq!(shared.sketch().estimate(13), 2.0 * frozen);
    }

    #[test]
    fn plain_shared_sketch_publishes_no_epoch() {
        let plain = AtomicCountMedian::with_backend(&params());
        assert!(plain.write_epoch().is_none());
        plain.note_applied(10, 10.0); // default no-op must not panic
        let wrapped = EpochSketch::new(plain);
        assert!(wrapped.write_epoch().is_some());
    }

    #[test]
    fn exclusive_update_through_unique_arc_works() {
        let mut shared = EpochHandle::new(AtomicCountMedian::with_backend(&params()));
        shared.update(3, 5.0);
        assert_eq!(shared.estimate(3), 5.0);
        assert_eq!(shared.label(), "CM");
        assert_eq!(shared.universe(), 400);
    }

    #[test]
    fn exclusive_updates_advance_the_stream_position() {
        // The snapshot contract (`applied()` = exactly the updates the
        // counters reflect) must survive the exclusive ingest path too.
        let mut shared = EpochHandle::new(AtomicCountMedian::with_backend(&params()));
        shared.update(3, 5.0);
        shared.update_batch(&[(4, 2.0), (5, 1.0)]);
        assert_eq!(shared.applied(), 3);
        assert_eq!(shared.mass(), 8.0);
        let snap = shared.pin();
        assert_eq!(snap.applied(), 3);
        assert_eq!(snap.mass(), 8.0);
        assert_eq!(snap.estimate(3), 5.0);
    }

    #[test]
    #[should_panic(expected = "overlapping write sections")]
    fn overlapping_write_sections_are_a_hard_error() {
        // Raw calls rather than guards: a guard dropped during the
        // expected unwind would end_write an already-even epoch.
        let epoch = EpochCounter::new();
        epoch.begin_write();
        epoch.begin_write(); // second writer: must panic
    }

    #[test]
    #[should_panic(expected = "shared with reader handles")]
    fn exclusive_update_through_aliased_arc_panics() {
        let mut shared = EpochHandle::new(AtomicCountMedian::with_backend(&params()));
        let _reader = shared.clone();
        shared.update(3, 5.0);
    }
}
