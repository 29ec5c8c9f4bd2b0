//! Windowed ingest: the rotation driver that turns the since-boot
//! epoch query plane into a **time-scoped** one.
//!
//! [`ConcurrentIngest`] + [`EpochSketch`](crate::EpochSketch) give
//! one unbounded-lifetime
//! counter plane with consistent snapshots. Real telemetry queries are
//! time-scoped — "heavy hitters in the last 5 minutes", not "since
//! boot" — and because every servable sketch here is linear, window
//! answers need no second ingest path: the plane of intervals `(a, t]`
//! is `cumulative(now) − cumulative(a)`, one subtractive merge of two
//! frozen planes.
//!
//! [`WindowedIngest`] packages that: it owns the concurrent write side
//! plus a [`PlaneBank`] of sealed **cumulative** snapshots, one per
//! closed interval. [`advance_interval`](WindowedIngest::advance_interval)
//! is the rotation step:
//!
//! 1. **flush** — the buffered tail is applied inside one
//!    `EpochGuard` write section (exactly like every other flush), so
//!    the live plane lands on a flush boundary;
//! 2. **seal** — the settled plane is copied into the bank through the
//!    same seqlock fill loop snapshot readers use
//!    ([`EpochSketch::pin_into`](crate::EpochSketch::pin_into)), so a
//!    sealed plane can never be anything but a flush-boundary prefix
//!    of the stream — rotation inherits the query plane's torn-read
//!    safety instead of inventing its own discipline;
//! 3. **recycle** — once the bank holds `capacity` seals, the oldest
//!    slot's allocation is refilled in place: steady-state rotation
//!    allocates nothing.
//!
//! The live sketch is never reset — its writer keeps feeding it
//! across rotations, and concurrent readers' pinned snapshots stay
//! valid. `bas_serve` layers the tumbling/sliding window *policies* on
//! top; this module only owns the mechanics.

use crate::concurrent::ConcurrentIngest;
use crate::epoch::EpochHandle;
use bas_sketch::storage::PlaneBank;
use bas_sketch::{AbsorbPlane, Reseedable, SharedSketch, Snapshottable};
use bas_stream::StreamUpdate;

/// A concurrent ingester with interval rotation: the write side of a
/// windowed query plane.
///
/// Wraps a [`ConcurrentIngest`] over an epoch-wrapped shared sketch and
/// a [`PlaneBank`] of sealed cumulative planes. Interval ids start at 0
/// and advance only through
/// [`advance_interval`](WindowedIngest::advance_interval) — time is
/// whatever the caller says it is (a wall-clock tick, a
/// `bas_stream::drive_timestamped` boundary, a row-count quota), which
/// keeps every test and bench deterministic.
///
/// ```
/// use bas_pipeline::WindowedIngest;
/// use bas_sketch::{AtomicCountMedian, SketchParams, Snapshottable};
///
/// let params = SketchParams::new(1_000, 64, 5).with_seed(4);
/// let mut ingest =
///     WindowedIngest::new(AtomicCountMedian::with_backend(&params), 3);
///
/// for interval in 0..4u64 {
///     for i in 0..500u64 {
///         ingest.push((interval * 131 + i) % 1_000, 1.0);
///     }
///     assert_eq!(ingest.advance_interval(), interval);
/// }
/// assert_eq!(ingest.interval(), 4);       // interval 4 is in progress
/// assert_eq!(ingest.bank().len(), 3);     // ring holds seals 1, 2, 3
///
/// // Window = cumulative(now) − sealed(1): intervals 2..=4 only.
/// let shared = ingest.shared().clone();
/// let mut window = shared.pin().into_snapshot();
/// let boundary = ingest.bank().sealed(1).unwrap();
/// shared
///     .sketch()
///     .subtract_snapshot(&mut window, boundary.plane())
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct WindowedIngest<S: SharedSketch + Snapshottable + Reseedable + Send> {
    ingest: ConcurrentIngest<EpochHandle<S>>,
    bank: PlaneBank<S::Snapshot>,
    /// Id of the interval currently accepting updates; seals exist for
    /// (a suffix of) `0..interval`.
    interval: u64,
}

impl<S: SharedSketch + Snapshottable + Reseedable + Send> WindowedIngest<S> {
    /// Creates a windowed ingester whose bank retains the last
    /// `bank_capacity` sealed planes. Capacity 0 disables sealing
    /// entirely — the unbounded configuration, with zero rotation
    /// overhead.
    pub fn new(sketch: S, bank_capacity: usize) -> Self {
        Self {
            ingest: ConcurrentIngest::new(EpochHandle::new(sketch)),
            bank: PlaneBank::new(bank_capacity),
            interval: 0,
        }
    }

    /// Overrides the flush threshold (see
    /// [`ConcurrentIngest::with_flush_threshold`]).
    ///
    /// # Panics
    /// Panics if `updates` is zero.
    pub fn with_flush_threshold(mut self, updates: usize) -> Self {
        self.ingest = self.ingest.with_flush_threshold(updates);
        self
    }

    // ---- write side (single producer, `&mut self`) ----

    /// Buffers one update into the current interval.
    pub fn push(&mut self, item: u64, delta: f64) {
        self.ingest.push(item, delta);
    }

    /// Buffers a slice of updates into the current interval.
    pub fn extend_from_slice(&mut self, updates: &[(u64, f64)]) {
        self.ingest.extend_from_slice(updates);
    }

    /// Buffers a stream of [`StreamUpdate`]s into the current interval.
    pub fn extend_updates<I: IntoIterator<Item = StreamUpdate>>(&mut self, updates: I) {
        self.ingest.extend_updates(updates);
    }

    /// Applies all buffered updates now (without closing the interval).
    pub fn flush(&mut self) {
        self.ingest.flush();
    }

    /// Closes the current interval: flushes the buffered tail (one
    /// epoch write section, like every flush), seals the settled
    /// cumulative plane into the bank — recycling the oldest slot
    /// allocation-free once the ring is full — and starts the next
    /// interval. Returns the id of the interval just sealed.
    ///
    /// The seal goes through the seqlock fill loop
    /// ([`EpochSketch::pin_into`](crate::EpochSketch::pin_into)), so
    /// even with reader threads pinning concurrently, every sealed
    /// plane is exactly the sketch of a flush-boundary prefix — the
    /// same guarantee pinned snapshots carry.
    ///
    /// Each seal copies the full plane (`O(s·d)`) even when nothing
    /// was applied since the last one — per-interval seals are what
    /// the window policies index by. Callers closing intervals on a
    /// wall clock should pick a granularity coarse enough that long
    /// idle gaps do not turn into bursts of redundant seals.
    ///
    /// # Panics
    /// Panics, before anything is flushed or sealed, if the current
    /// interval is `u64::MAX`: no interval follows it.
    pub fn advance_interval(&mut self) -> u64 {
        let next = self
            .interval
            .checked_add(1)
            .expect("interval u64::MAX is the last: no interval follows it");
        self.ingest.flush();
        let sealed = self.interval;
        let shared = self.ingest.sketch();
        self.bank.seal_with(
            sealed,
            shared.config(),
            || shared.make_snapshot(),
            |slot| {
                let (_, applied, mass) = shared.pin_into(slot);
                (applied, mass)
            },
        );
        self.interval = next;
        sealed
    }

    /// Flushes the remainder and returns the shared handle plus the
    /// bank of sealed planes; readers (and their snapshots) stay valid.
    pub fn finish(mut self) -> (EpochHandle<S>, PlaneBank<S::Snapshot>) {
        self.ingest.flush();
        (self.ingest.finish(), self.bank)
    }

    // ---- plane transfer (tenant rebalance by linearity) ----

    /// Absorbs a transferred **cumulative** plane into the live sketch:
    /// the buffered tail is flushed first, then the plane is added
    /// cell-wise inside one epoch write section
    /// ([`EpochSketch::absorb_plane`](crate::EpochSketch::absorb_plane)),
    /// advancing `applied()`/`mass()` by what the plane represents. By
    /// linearity, a freshly built same-seed ingester that absorbs a
    /// shipped plane serves every later query bit-for-bit as the plane's
    /// source would have (integer-delta streams).
    ///
    /// # Errors
    /// Propagates the sketch's [`AbsorbPlane`] rejection with the
    /// counters untouched.
    pub fn absorb_cumulative(
        &mut self,
        plane: &S::Snapshot,
        applied: u64,
        mass: f64,
    ) -> Result<(), bas_sketch::MergeError>
    where
        S: AbsorbPlane,
    {
        self.ingest.flush();
        self.ingest
            .sketch()
            .shared()
            .absorb_plane(plane, applied, mass)
    }

    /// Restores one sealed cumulative plane into the bank — the
    /// destination half of shipping a windowed tenant: seals arrive
    /// oldest-first with their original `(interval, applied, mass)`
    /// bookkeeping, so window subtraction on the rebuilt ingester is
    /// bit-for-bit the source's.
    ///
    /// # Panics
    /// Panics if `interval` does not advance past the bank's latest
    /// seal (the bank's monotonicity invariant).
    pub fn restore_seal(&mut self, interval: u64, plane: S::Snapshot, applied: u64, mass: f64) {
        let config = self.ingest.sketch().config();
        let incoming = std::cell::RefCell::new(Some(plane));
        self.bank.seal_with(
            interval,
            config,
            || {
                incoming
                    .borrow_mut()
                    .take()
                    .expect("make runs at most once")
            },
            |slot| {
                // A recycled slot skips `make`; overwrite it instead.
                if let Some(p) = incoming.borrow_mut().take() {
                    *slot = p;
                }
                (applied, mass)
            },
        );
    }

    /// Fast-forwards the current interval id after restoring seals —
    /// transfers resume exactly where the source stopped, so interval
    /// arithmetic (window boundaries) is preserved.
    ///
    /// # Panics
    /// Panics if `interval` moves backwards, or does not lie strictly
    /// past the latest restored seal.
    pub fn restore_interval(&mut self, interval: u64) {
        assert!(
            interval >= self.interval,
            "interval may only move forward: {interval} < {}",
            self.interval
        );
        if let Some(latest) = self.bank.latest() {
            assert!(
                interval > latest.interval(),
                "current interval {interval} must lie past the latest seal {}",
                latest.interval()
            );
        }
        self.interval = interval;
    }

    // ---- read side / bookkeeping (`&self`) ----

    /// Id of the interval currently accepting updates.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The bank of sealed cumulative planes (oldest first).
    pub fn bank(&self) -> &PlaneBank<S::Snapshot> {
        &self.bank
    }

    /// The shared epoch-wrapped sketch: clone it for reader threads,
    /// pin it for consistent snapshots, or read single cells lock-free.
    pub fn shared(&self) -> &EpochHandle<S> {
        self.ingest.sketch()
    }

    /// Updates applied in completed flushes (all intervals combined —
    /// the plane is cumulative).
    pub fn applied(&self) -> u64 {
        self.ingest.sketch().applied()
    }

    /// Total delta mass applied in completed flushes.
    pub fn mass(&self) -> f64 {
        self.ingest.sketch().mass()
    }

    /// Updates buffered but not yet flushed.
    pub fn pending(&self) -> usize {
        self.ingest.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_sketch::{AtomicCountMedian, CountMedian, PointQuerySketch, SketchParams};

    const N: u64 = 400;

    fn params() -> SketchParams {
        SketchParams::new(N, 64, 5).with_seed(31)
    }

    fn interval_stream(interval: u64, len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| ((i * 7 + interval * 17) % N, (1 + (i + interval) % 3) as f64))
            .collect()
    }

    #[test]
    fn seals_are_cumulative_flush_boundary_prefixes() {
        let mut ingest = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 4);
        let mut reference = CountMedian::new(&params());
        let mut applied = 0u64;
        for t in 0..3u64 {
            let updates = interval_stream(t, 700);
            ingest.extend_from_slice(&updates);
            reference.update_batch(&updates);
            applied += updates.len() as u64;
            assert_eq!(ingest.advance_interval(), t);
            let seal = ingest.bank().sealed(t).expect("seal retained");
            assert_eq!(seal.applied(), applied);
            // Cumulative: the seal equals the reference over everything
            // pushed so far, bit for bit (integer deltas).
            for j in (0..N).step_by(13) {
                assert_eq!(
                    ingest.shared().estimate_in(seal.plane(), j),
                    reference.estimate(j),
                    "interval {t}, item {j}"
                );
            }
        }
        assert_eq!(ingest.interval(), 3);
    }

    #[test]
    fn window_subtraction_recovers_one_interval_exactly() {
        let mut ingest = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 2);
        let first = interval_stream(0, 900);
        let second = interval_stream(1, 600);
        ingest.extend_from_slice(&first);
        ingest.advance_interval();
        ingest.extend_from_slice(&second);
        ingest.advance_interval();

        // sealed(1) − sealed(0) = the second interval alone.
        let bank = ingest.bank();
        let mut delta = bank.sealed(1).unwrap().plane().clone();
        ingest
            .shared()
            .subtract_snapshot(&mut delta, bank.sealed(0).unwrap().plane())
            .unwrap();
        let mut reference = CountMedian::new(&params());
        reference.update_batch(&second);
        for j in 0..N {
            assert_eq!(
                ingest.shared().estimate_in(&delta, j),
                reference.estimate(j),
                "item {j}"
            );
        }
    }

    #[test]
    fn ring_recycles_and_live_plane_survives_rotation() {
        let mut ingest = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 2);
        for t in 0..5u64 {
            ingest.extend_from_slice(&interval_stream(t, 300));
            ingest.advance_interval();
        }
        assert_eq!(ingest.bank().len(), 2);
        assert_eq!(ingest.bank().oldest().unwrap().interval(), 3);
        assert_eq!(ingest.bank().latest().unwrap().interval(), 4);
        // The live plane is cumulative across all 5 intervals.
        assert_eq!(ingest.applied(), 5 * 300);
        let (shared, bank) = ingest.finish();
        assert_eq!(shared.applied(), 1_500);
        assert_eq!(bank.latest().unwrap().applied(), 1_500);
    }

    #[test]
    fn zero_capacity_is_the_unbounded_configuration() {
        let mut ingest = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 0);
        ingest.extend_from_slice(&interval_stream(0, 200));
        assert_eq!(ingest.advance_interval(), 0);
        assert!(ingest.bank().is_empty());
        assert_eq!(ingest.interval(), 1);
        assert_eq!(ingest.applied(), 200);
    }

    #[test]
    fn transfer_rebuilds_a_windowed_ingester_bit_for_bit() {
        // Source: 3 sealed intervals + a live tail.
        let mut source = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 4);
        for t in 0..3u64 {
            source.extend_from_slice(&interval_stream(t, 500));
            source.advance_interval();
        }
        source.extend_from_slice(&interval_stream(3, 250));
        source.flush();

        // Ship: cumulative plane + every seal + the interval id, as a
        // destination that never saw an update would receive them.
        let cumulative = source.shared().pin();
        let mut dest = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 4);
        dest.absorb_cumulative(
            cumulative.snapshot(),
            cumulative.applied(),
            cumulative.mass(),
        )
        .unwrap();
        for seal in source.bank().planes() {
            dest.restore_seal(
                seal.interval(),
                seal.plane().clone(),
                seal.applied(),
                seal.mass(),
            );
        }
        dest.restore_interval(source.interval());

        assert_eq!(dest.applied(), source.applied());
        assert_eq!(dest.mass(), source.mass());
        assert_eq!(dest.interval(), source.interval());
        assert_eq!(dest.bank().len(), source.bank().len());
        for j in 0..N {
            assert_eq!(
                dest.shared().sketch().estimate(j),
                source.shared().sketch().estimate(j),
                "live estimate, item {j}"
            );
        }
        // Window subtraction agrees too: sealed(1)..live on both sides.
        let mut src_win = source.shared().pin().into_snapshot();
        source
            .shared()
            .subtract_snapshot(&mut src_win, source.bank().sealed(1).unwrap().plane())
            .unwrap();
        let mut dst_win = dest.shared().pin().into_snapshot();
        dest.shared()
            .subtract_snapshot(&mut dst_win, dest.bank().sealed(1).unwrap().plane())
            .unwrap();
        for j in 0..N {
            assert_eq!(
                dest.shared().estimate_in(&dst_win, j),
                source.shared().estimate_in(&src_win, j),
                "window estimate, item {j}"
            );
        }
        // Both sides keep rotating in lockstep afterwards.
        let more = interval_stream(4, 300);
        source.extend_from_slice(&more);
        dest.extend_from_slice(&more);
        assert_eq!(source.advance_interval(), dest.advance_interval());
        assert_eq!(
            dest.bank().latest().unwrap().applied(),
            source.bank().latest().unwrap().applied()
        );
    }

    #[test]
    fn restore_seal_overwrites_recycled_slots() {
        // Fill a capacity-2 bank, then restore two more seals so both
        // paths (fresh alloc and pop_front recycle) run the overwrite.
        let mut ingest = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 2);
        ingest.extend_from_slice(&interval_stream(0, 100));
        ingest.advance_interval();
        ingest.extend_from_slice(&interval_stream(1, 100));
        ingest.advance_interval();

        let donor = {
            let mut d = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 2);
            d.extend_from_slice(&interval_stream(7, 400));
            d.advance_interval();
            d
        };
        let seal = donor.bank().sealed(0).unwrap();
        ingest.restore_seal(5, seal.plane().clone(), seal.applied(), seal.mass());
        assert_eq!(ingest.bank().latest().unwrap().interval(), 5);
        assert_eq!(ingest.bank().latest().unwrap().applied(), 400);
        for j in (0..N).step_by(17) {
            assert_eq!(
                ingest
                    .shared()
                    .estimate_in(ingest.bank().sealed(5).unwrap().plane(), j),
                donor.shared().estimate_in(seal.plane(), j),
                "item {j}"
            );
        }
        ingest.restore_interval(9);
        assert_eq!(ingest.interval(), 9);
    }

    #[test]
    #[should_panic(expected = "must lie past the latest seal")]
    fn restore_interval_rejects_ids_at_or_before_the_latest_seal() {
        let mut ingest = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 2);
        ingest.extend_from_slice(&interval_stream(0, 50));
        ingest.advance_interval();
        ingest.restore_seal(
            6,
            ingest.bank().sealed(0).unwrap().plane().clone(),
            50,
            50.0,
        );
        ingest.restore_interval(6);
    }

    #[test]
    fn empty_intervals_seal_cleanly() {
        let mut ingest = WindowedIngest::new(AtomicCountMedian::with_backend(&params()), 3);
        ingest.advance_interval();
        ingest.extend_from_slice(&interval_stream(1, 100));
        ingest.advance_interval();
        ingest.advance_interval();
        let bank = ingest.bank();
        assert_eq!(bank.sealed(0).unwrap().applied(), 0);
        assert_eq!(bank.sealed(1).unwrap().applied(), 100);
        assert_eq!(bank.sealed(2).unwrap().applied(), 100);
    }
}
