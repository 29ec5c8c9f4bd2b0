//! Epoch snapshots: consistent reads over a sketch that is being fed
//! concurrently.
//!
//! [`ConcurrentIngest`](crate::ConcurrentIngest) writes one shared
//! `Atomic`-backed sketch from one writer; this module makes it
//! **readable** while that writer is live. The discipline is a seqlock,
//! and every piece of it sits in this file:
//!
//! * [`EpochCounter`] — a sequence that is odd exactly while a write
//!   section is open, whose `begin_write` rejects a second, overlapping
//!   writer and issues the writer's Release fence;
//! * [`EpochSketch::write`] and [`EpochSketch::absorb_plane`] — the two
//!   writes, each one write section that also advances the stream
//!   position (`applied`, `mass`) before it closes;
//! * the reader's retry loop behind [`EpochSketch::pin`] — read the
//!   epoch, copy the cells through the sketch layer's
//!   [`Snapshottable`] freeze, issue the Acquire fence, re-read the
//!   epoch, retry if a flush intervened.
//!
//! [`EpochSketch`] is the plane: a sketch plus its epoch and stream
//! position. It is not itself a sketch; reads and hashers go through
//! [`sketch`](EpochSketch::sketch). Every pinned [`SnapshotHandle`] is
//! a **settled state from between flushes**, i.e. the sketch of a
//! prefix of the pushed update stream. On integer streams that makes
//! snapshot queries bit-identical to quiescing the ingester at the same
//! prefix and querying directly.
//!
//! Live reads (single-cell, lock-free) remain available at any moment
//! through the wrapped sketch; the decision table in ARCHITECTURE.md's
//! "Query plane" section says which read mode fits which query.

use bas_sketch::{AbsorbPlane, MergeError, SharedSketch, Snapshottable};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// The seqlock's write-epoch sequence.
///
/// Writers bracket each batch of counter mutations (one flush, one
/// absorbed plane) with [`begin_write`]/[`end_write`]; the sequence is
/// **odd exactly while a write section is open** and even between
/// sections. A reader copies the counters and keeps the copy only if
/// the epoch was even and unchanged across the copy — then the copy
/// reflects a settled state from *between* write sections, i.e. a
/// prefix of the applied update stream. The section is also the
/// single-writer gate of the shared store: a second writer opening an
/// overlapping section panics.
///
/// Because every counter cell is itself an atomic, a racing copy can
/// never observe a torn *value* — the epoch only rules out a torn
/// *schedule* (a mix of two write sections).
///
/// ```
/// use bas_pipeline::EpochCounter;
///
/// let epoch = EpochCounter::new();
/// let before = epoch.read();
/// assert!(!EpochCounter::is_write_open(before));
/// epoch.begin_write();
/// assert!(EpochCounter::is_write_open(epoch.read()));
/// epoch.end_write();
/// assert_eq!(epoch.read(), before + 2);
/// ```
///
/// [`begin_write`]: EpochCounter::begin_write
/// [`end_write`]: EpochCounter::end_write
#[derive(Debug, Default)]
pub struct EpochCounter {
    seq: AtomicU64,
}

impl EpochCounter {
    /// A fresh counter at epoch 0 (no write section open).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a write section: the sequence becomes odd. Returns the new
    /// (odd) value. Callers must pair this with
    /// [`end_write`](EpochCounter::end_write); [`EpochSketch`]'s writes
    /// do so by RAII.
    ///
    /// # Panics
    /// Panics if a write section is already open. Writers must be
    /// serialized (ingest drivers take `&mut self` per flush, so this
    /// only trips when two drivers are mistakenly built over clones of
    /// one shared sketch) — and overlapping sections would make the
    /// sequence even *mid-write*, silently handing readers torn
    /// snapshots, so the overlap is a hard error even in release
    /// builds.
    pub fn begin_write(&self) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
        // Boehm's seqlock writer. The cell writes of the section are
        // plain Relaxed stores, and the increment above orders only the
        // stores *before* it. This fence orders the odd sequence before
        // every store that follows; it pairs with the reader's
        // `fence(Acquire)` after its cell loads (`EpochSketch::fill`
        // below): a reader that loads any value stored in this section
        // re-reads an epoch no older than this odd one, and retries.
        fence(Ordering::Release);
        assert!(
            Self::is_write_open(seq),
            "overlapping write sections: epoch writers must be serialized"
        );
        seq
    }

    /// Closes the current write section: the sequence becomes even
    /// again. The `AcqRel` ordering makes every counter store in the
    /// section visible to a reader that observes the new epoch.
    pub fn end_write(&self) {
        let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
        debug_assert!(!Self::is_write_open(seq), "unbalanced end_write");
    }

    /// The current sequence value (`Acquire`, so cell reads issued
    /// after it observe at least the state the epoch advertises).
    pub fn read(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Whether a sequence value was sampled inside a write section.
    pub fn is_write_open(seq: u64) -> bool {
        seq % 2 == 1
    }
}

/// RAII bracket for one write section of an [`EpochCounter`]: the
/// epoch turns odd on [`enter`](EpochGuard::enter) and even again on
/// drop.
#[derive(Debug)]
struct EpochGuard<'a> {
    epoch: &'a EpochCounter,
}

impl<'a> EpochGuard<'a> {
    /// Opens a write section on `epoch`.
    fn enter(epoch: &'a EpochCounter) -> Self {
        epoch.begin_write();
        Self { epoch }
    }
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.epoch.end_write();
    }
}

/// A shared sketch with the write epoch and stream-position
/// bookkeeping that snapshot readers need: the served counter plane.
///
/// Build one through an [`EpochHandle`] around an `Atomic`-backed
/// sketch and hand clones of the handle to readers while an ingest
/// driver (typically `ConcurrentIngest`, typically owned by a
/// `bas_serve::QueryEngine`) feeds it:
///
/// * the writer calls [`write`](EpochSketch::write) once per flush, or
///   [`absorb_plane`](EpochSketch::absorb_plane) to take in a shipped
///   plane; each is one write section;
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

    /// Updates applied in completed flushes — the length of the stream
    /// prefix a snapshot pinned *now* would capture.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Acquire)
    }

    /// Total delta mass applied in completed flushes.
    pub fn mass(&self) -> f64 {
        f64::from_bits(self.mass_bits.load(Ordering::Acquire))
    }

    /// Advances the stream position. Called inside the write section,
    /// so epoch-consistent readers always see counters and position
    /// from the same settled state. The section admits one writer
    /// (an overlapping one panics in [`EpochCounter::begin_write`]), so
    /// a plain load and store suffice, exactly as for the cells; the
    /// Release stores let a live [`applied`](EpochSketch::applied)
    /// reader that sees the new position also see the section's cells.
    fn advance(&self, updates: u64, mass: f64) {
        let applied = self.applied.load(Ordering::Relaxed) + updates;
        self.applied.store(applied, Ordering::Release);
        let total = f64::from_bits(self.mass_bits.load(Ordering::Relaxed)) + mass;
        self.mass_bits.store(total.to_bits(), Ordering::Release);
    }
}

impl<S: SharedSketch> EpochSketch<S> {
    /// Applies one flush's batch in **one write section**: the cells
    /// through the sketch's blocked shared kernel
    /// ([`SharedSketch::update_batch_shared`]), then the stream
    /// position by the batch's length and delta sum, then the section
    /// closes. Seqlock readers therefore only ever capture flush
    /// *boundaries*: prefixes of the pushed stream, never a mix of an
    /// in-flight flush.
    ///
    /// # Panics
    /// Panics if another write section is open (see
    /// [`EpochCounter::begin_write`]).
    pub fn write(&self, batch: &[(u64, f64)]) {
        let _section = EpochGuard::enter(&self.epoch);
        self.sketch.update_batch_shared(batch);
        self.advance(batch.len() as u64, batch.iter().map(|&(_, d)| d).sum());
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
        let _section = EpochGuard::enter(&self.epoch);
        self.sketch.absorb_plane_shared(plane)?;
        self.advance(applied, mass);
        Ok(())
    }
}

/// A cloneable shared handle to an [`EpochSketch`]: the type that lets
/// a `ConcurrentIngest` own one end of the plane while any number of
/// reader handles hold the other — the writer/reader split behind
/// `bas_serve::QueryEngine`, whose `handle()` hands one out.
///
/// (A newtype around `Arc<EpochSketch<S>>` rather than the `Arc`
/// itself because the handle is the natural home for
/// [`pin`](EpochHandle::pin).)
///
/// Derefs to [`EpochSketch`], so live reads
/// (`handle.sketch().estimate(item)`), epoch probes and stream position
/// are all one `.` away.
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
    use bas_sketch::{
        AtomicCountMedian, AtomicCountSketch, CountMedian, PointQuerySketch, SketchParams,
    };

    fn params() -> SketchParams {
        SketchParams::new(400, 64, 5).with_seed(12)
    }

    fn stream(len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| (i * 13 % 400, (1 + i % 4) as f64))
            .collect()
    }

    #[test]
    fn epoch_counter_seqlock_protocol() {
        let e = EpochCounter::new();
        assert_eq!(e.read(), 0);
        assert!(!EpochCounter::is_write_open(e.read()));
        let odd = e.begin_write();
        assert_eq!(odd, 1);
        assert!(EpochCounter::is_write_open(e.read()));
        e.end_write();
        assert_eq!(e.read(), 2);
        assert!(!EpochCounter::is_write_open(e.read()));
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
    #[should_panic(expected = "overlapping write sections")]
    fn overlapping_write_sections_are_a_hard_error() {
        // Raw calls rather than guards: a guard dropped during the
        // expected unwind would end_write an already-even epoch.
        let epoch = EpochCounter::new();
        epoch.begin_write();
        epoch.begin_write(); // second writer: must panic
    }
}
