//! The generation ring: windows and seed rotation on one write side.
//!
//! [`ConcurrentIngest`] + [`EpochSketch`](crate::EpochSketch) give one
//! unbounded-lifetime counter plane with consistent snapshots. Serving
//! needs more than one plane for two reasons:
//!
//! * **Windows.** Real telemetry queries are time-scoped ("heavy
//!   hitters in the last 5 minutes", not "since boot"). Every servable
//!   sketch here is linear, so the plane of intervals `(a, t]` is
//!   `cumulative(t) − cumulative(a)`: one subtractive merge of two
//!   frozen planes, and no second ingest path.
//! * **Seed rotation.** Once query answers feed back into the stream,
//!   an adaptive adversary can learn a fixed seed one probe at a time
//!   and steer mass into a victim's buckets, far beyond the (ε, δ)
//!   analysis, which assumes the input is independent of the hash
//!   functions (the adaptive-inputs attack in PAPERS.md, the attack
//!   loop in `tests/adversarial.rs`). Bounding every seed's lifetime
//!   bounds how long a learned seed stays useful.
//!
//! [`WindowedIngest`] serves both with one ring of **generations**. A
//! generation is a run of intervals that share one hasher seed. The
//! ring holds:
//!
//! * the **live** generation, the plane the writer feeds;
//! * the **cumulative seals** taken inside it, in a [`PlaneBank`]:
//!   seal `t` is the live plane as of the end of interval `t`;
//! * the **closed** generations before it, oldest first, each a frozen
//!   [`EpochHandle`] that keeps its own hashers and only its own
//!   intervals' counters ([`Generation`]).
//!
//! [`advance_interval`](WindowedIngest::advance_interval) flushes the
//! buffered tail (one epoch write section, like every flush), then does
//! one of two things, fixed when the ring is built:
//!
//! * **seal** ([`new`](WindowedIngest::new), one seed): the settled
//!   plane is copied into the bank through the same seqlock fill loop
//!   snapshot readers use
//!   ([`EpochSketch::pin_into`](crate::EpochSketch::pin_into)), so a
//!   seal is always a flush-boundary prefix of the stream. Once the
//!   bank is full the oldest slot is refilled in place: steady-state
//!   sealing allocates nothing. The generation never closes.
//! * **close** ([`rotating`](WindowedIngest::rotating), a
//!   [`SeedSchedule`]): the live generation is frozen and an empty one
//!   starts under `seed_for(next)`, so every generation spans exactly
//!   one interval and generation `g` runs under `seed_for(g)`.
//!
//! Retention keeps what a window of `K` intervals ending at the live
//! interval can reach: `K` seals, or `K − 1` closed generations.
//! Planes under different seeds must never add counters
//! (`SketchParams::check_counter_compatible` refuses them with
//! `MergeError::SeedMismatch`); a read across generations sums their
//! **estimates** instead, and each generation pays its own Theorem-1
//! error term. `bas_serve::QueryEngine` owns that read rule; this
//! module owns the mechanics. The live sketch of a sealing ring is
//! never reset, so concurrent readers' pinned snapshots stay valid
//! across advances.

use std::collections::VecDeque;

use crate::concurrent::ConcurrentIngest;
use crate::epoch::EpochHandle;
use bas_hash::SeedSchedule;
use bas_sketch::storage::PlaneBank;
use bas_sketch::{AbsorbPlane, MergeError, Reseedable, SharedSketch, Snapshottable};
use bas_stream::StreamUpdate;

/// One closed generation of a rotating [`WindowedIngest`]: a frozen
/// [`EpochHandle`] that keeps its interval's hashers **and** counters.
///
/// No writer exists for it any more, so direct reads through the
/// handle are settled and need no pin. Unlike a [`PlaneBank`] seal,
/// the plane is **not cumulative**: it holds exactly the updates of
/// its own interval, because every generation starts empty.
#[derive(Debug)]
pub struct Generation<S> {
    interval: u64,
    handle: EpochHandle<S>,
}

impl<S> Generation<S> {
    /// The interval this generation ingested (and nothing else).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The frozen plane: estimates answered here go through this
    /// generation's own hash functions.
    pub fn handle(&self) -> &EpochHandle<S> {
        &self.handle
    }
}

/// How a rotating ring closes generations.
#[derive(Debug, Clone, Copy)]
struct Rotation {
    schedule: SeedSchedule,
    /// Closed generations kept, oldest dropped first.
    retain: usize,
}

/// A concurrent ingester with interval rotation: the write side of the
/// generation ring (see the module docs).
///
/// Interval ids start at 0 and advance only through
/// [`advance_interval`](WindowedIngest::advance_interval) — time is
/// whatever the caller says it is (a wall-clock tick, a
/// `bas_stream::drive_timestamped` boundary, a row-count quota), which
/// keeps every test and bench deterministic.
///
/// ```
/// use bas_hash::SeedSchedule;
/// use bas_pipeline::WindowedIngest;
/// use bas_sketch::{AtomicCountMedian, Reseedable, SketchParams, Snapshottable};
///
/// let params = SketchParams::new(1_000, 64, 5).with_seed(4);
/// let mut sealing =
///     WindowedIngest::new(AtomicCountMedian::with_backend(&params), 3);
/// let mut rotating = WindowedIngest::rotating(
///     AtomicCountMedian::with_backend(&params),
///     SeedSchedule::new(4),
///     /* closed generations kept = */ 2,
/// );
///
/// for interval in 0..4u64 {
///     for ring in [&mut sealing, &mut rotating] {
///         for i in 0..500u64 {
///             ring.push((interval * 131 + i) % 1_000, 1.0);
///         }
///         assert_eq!(ring.advance_interval(), interval);
///     }
/// }
/// assert_eq!(sealing.interval(), 4);      // interval 4 is in progress
/// assert_eq!(sealing.bank().len(), 3);    // the bank holds seals 1, 2, 3
/// assert_eq!(rotating.generations().count(), 2); // generations 2, 3
/// assert_eq!(
///     rotating.shared().sketch().config().seed,
///     SeedSchedule::new(4).seed_for(4)
/// );
///
/// // Window = cumulative(now) − sealed(1): intervals 2..=4 only.
/// let shared = sealing.shared().clone();
/// let mut window = shared.pin().into_snapshot();
/// let boundary = sealing.bank().sealed(1).unwrap();
/// shared
///     .sketch()
///     .subtract_snapshot(&mut window, boundary.plane())
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct WindowedIngest<S: SharedSketch + Snapshottable + Reseedable + Send> {
    ingest: ConcurrentIngest<S>,
    bank: PlaneBank<S::Snapshot>,
    /// Closed generations, oldest first (empty unless rotating).
    closed: VecDeque<Generation<S>>,
    rotation: Option<Rotation>,
    /// Id of the interval currently accepting updates.
    interval: u64,
    flush_threshold: Option<usize>,
}

impl<S: SharedSketch + Snapshottable + Reseedable + Send> WindowedIngest<S> {
    /// Creates a one-seed ring whose bank retains the last
    /// `bank_capacity` sealed planes. Capacity 0 disables sealing
    /// entirely — the unbounded configuration, with zero rotation
    /// overhead.
    pub fn new(sketch: S, bank_capacity: usize) -> Self {
        Self {
            ingest: ConcurrentIngest::new(EpochHandle::new(sketch)),
            bank: PlaneBank::new(bank_capacity),
            closed: VecDeque::new(),
            rotation: None,
            interval: 0,
            flush_threshold: None,
        }
    }

    /// Creates a rotating ring that keeps the last `retain` closed
    /// generations. `sketch` is reseeded to `schedule.seed_for(0)` (its
    /// counters are discarded — pass a fresh sketch), so generation `g`
    /// always runs under `schedule.seed_for(g)` and anyone holding the
    /// schedule can rebuild every generation's hashers.
    pub fn rotating(sketch: S, schedule: SeedSchedule, retain: usize) -> Self {
        Self {
            rotation: Some(Rotation { schedule, retain }),
            ..Self::new(sketch.reseeded(schedule.seed_for(0)), 0)
        }
    }

    /// Overrides the flush threshold (see
    /// [`ConcurrentIngest::with_flush_threshold`]); the override
    /// carries over to every later generation.
    ///
    /// # Panics
    /// Panics if `updates` is zero.
    pub fn with_flush_threshold(mut self, updates: usize) -> Self {
        self.ingest = self.ingest.with_flush_threshold(updates);
        self.flush_threshold = Some(updates);
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

    /// Closes the current interval and starts the next; returns the id
    /// of the interval just closed. The buffered tail is flushed first
    /// (one epoch write section, like every flush), then:
    ///
    /// * a one-seed ring **seals** the settled cumulative plane into
    ///   the bank through the seqlock fill loop
    ///   ([`EpochSketch::pin_into`](crate::EpochSketch::pin_into)), so
    ///   even with readers pinning concurrently every seal is exactly
    ///   the sketch of a flush-boundary prefix, and a full bank
    ///   recycles its oldest slot allocation-free;
    /// * a rotating ring **closes** the live generation (hashers and
    ///   counters frozen) and starts an empty one under
    ///   `schedule.seed_for(next)`, dropping the oldest closed
    ///   generation beyond its retention.
    ///
    /// Either way each advance costs one plane (`O(s·d)`) even when
    /// nothing was applied since the last one. Callers closing
    /// intervals on a wall clock should pick a granularity coarse
    /// enough that long idle gaps do not turn into bursts of redundant
    /// seals.
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
        let closed = self.interval;
        match self.rotation {
            None => {
                let shared = self.ingest.shared();
                self.bank.seal_with(
                    closed,
                    shared.sketch().config(),
                    || shared.sketch().make_snapshot(),
                    |slot| {
                        let (_, applied, mass) = shared.pin_into(slot);
                        (applied, mass)
                    },
                );
            }
            Some(rotation) => {
                let seed = rotation.schedule.seed_for(next);
                let live = self.live_ingest(seed);
                let handle = std::mem::replace(&mut self.ingest, live).finish();
                self.close(Generation {
                    interval: closed,
                    handle,
                });
            }
        }
        self.interval = next;
        closed
    }

    /// An ingester over a fresh live generation under `seed`, with the
    /// flush threshold override carried over.
    fn live_ingest(&self, seed: u64) -> ConcurrentIngest<S> {
        let ingest = ConcurrentIngest::new(self.reseeded(seed));
        match self.flush_threshold {
            Some(updates) => ingest.with_flush_threshold(updates),
            None => ingest,
        }
    }

    /// Appends a closed generation, dropping the oldest beyond
    /// retention.
    fn close(&mut self, generation: Generation<S>) {
        let retain = self.rotation.map_or(0, |r| r.retain);
        self.closed.push_back(generation);
        while self.closed.len() > retain {
            self.closed.pop_front();
        }
    }

    /// A fresh, empty plane under `seed` with the live sketch's shape.
    fn reseeded(&self, seed: u64) -> EpochHandle<S> {
        EpochHandle::new(self.ingest.shared().sketch().reseeded(seed))
    }

    /// Flushes the remainder and returns the live generation's shared
    /// handle; readers (and their snapshots) stay valid.
    pub fn finish(mut self) -> EpochHandle<S> {
        self.ingest.flush();
        self.ingest.finish()
    }

    // ---- restore (tenant rebalance by linearity) ----

    /// Restores one retained plane with its original `(interval,
    /// applied, mass)` bookkeeping — the destination half of shipping a
    /// ring. Call it on a fresh ring, oldest first, then
    /// [`restore_live`](Self::restore_live). A one-seed ring takes
    /// cumulative seals into its bank; a rotating ring rebuilds closed
    /// generation `interval` under `schedule.seed_for(interval)` and
    /// absorbs its per-interval plane. Either way later reads are
    /// bit-for-bit the source's (integer-delta streams).
    ///
    /// # Errors
    /// Propagates the sketch's [`AbsorbPlane`] rejection.
    ///
    /// # Panics
    /// Panics if a seal's `interval` does not advance past the bank's
    /// latest seal (the bank's monotonicity invariant).
    pub fn restore_seal(
        &mut self,
        interval: u64,
        plane: S::Snapshot,
        applied: u64,
        mass: f64,
    ) -> Result<(), MergeError>
    where
        S: AbsorbPlane,
    {
        if let Some(rotation) = self.rotation {
            let seed = rotation.schedule.seed_for(interval);
            let handle = self.reseeded(seed);
            handle.absorb_plane(&plane, applied, mass)?;
            self.close(Generation { interval, handle });
            return Ok(());
        }
        let config = self.ingest.shared().sketch().config();
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
        Ok(())
    }

    /// Restores the live plane, last: the live generation is rebuilt
    /// under the seed of `interval` (a one-seed ring keeps its seed),
    /// absorbs `plane` in one epoch write section — advancing
    /// `applied()`/`mass()` by what the plane represents — and
    /// `interval` becomes the interval in progress, so window
    /// boundaries resume exactly where the source stopped.
    ///
    /// # Errors
    /// Propagates the sketch's [`AbsorbPlane`] rejection with the
    /// counters untouched.
    ///
    /// # Panics
    /// Panics if `interval` moves backwards, or does not lie strictly
    /// past the latest restored seal or generation.
    pub fn restore_live(
        &mut self,
        interval: u64,
        plane: &S::Snapshot,
        applied: u64,
        mass: f64,
    ) -> Result<(), MergeError>
    where
        S: AbsorbPlane,
    {
        assert!(
            interval >= self.interval,
            "interval may only move forward: {interval} < {}",
            self.interval
        );
        let latest = self.bank.latest().map(|s| s.interval());
        if let Some(latest) = latest.or(self.closed.back().map(|g| g.interval)) {
            assert!(
                interval > latest,
                "current interval {interval} must lie past the latest seal {latest}"
            );
        }
        if let Some(rotation) = self.rotation {
            let seed = rotation.schedule.seed_for(interval);
            self.ingest = self.live_ingest(seed);
        }
        self.ingest.flush();
        self.ingest.shared().absorb_plane(plane, applied, mass)?;
        self.interval = interval;
        Ok(())
    }

    // ---- read side / bookkeeping (`&self`) ----

    /// Id of the interval currently accepting updates.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Whether every advance closes a generation (built by
    /// [`rotating`](Self::rotating)).
    pub fn rotates(&self) -> bool {
        self.rotation.is_some()
    }

    /// The cumulative seals of the live generation (oldest first);
    /// always empty in a rotating ring.
    pub fn bank(&self) -> &PlaneBank<S::Snapshot> {
        &self.bank
    }

    /// The closed generations, oldest first; always empty in a
    /// one-seed ring.
    pub fn generations(&self) -> impl Iterator<Item = &Generation<S>> {
        self.closed.iter()
    }

    /// The live generation's shared epoch-wrapped sketch: clone it for
    /// reader threads, pin it for consistent snapshots, or read single
    /// cells lock-free.
    pub fn shared(&self) -> &EpochHandle<S> {
        self.ingest.shared()
    }

    /// Updates applied in completed flushes, over the retained
    /// generations: since boot in a one-seed ring (its plane is
    /// cumulative), the live and closed generations in a rotating one.
    pub fn applied(&self) -> u64 {
        let closed: u64 = self.closed.iter().map(|g| g.handle.applied()).sum();
        self.ingest.shared().applied() + closed
    }

    /// Total delta mass applied in completed flushes, over the same
    /// generations as [`applied`](Self::applied).
    pub fn mass(&self) -> f64 {
        let closed: f64 = self.closed.iter().map(|g| g.handle.mass()).sum();
        self.ingest.shared().mass() + closed
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
    const SEED: u64 = 31;

    fn params() -> SketchParams {
        SketchParams::new(N, 64, 5).with_seed(SEED)
    }

    fn interval_stream(interval: u64, len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| ((i * 7 + interval * 17) % N, (1 + (i + interval) % 3) as f64))
            .collect()
    }

    fn sealing(capacity: usize) -> WindowedIngest<AtomicCountMedian> {
        WindowedIngest::new(AtomicCountMedian::with_backend(&params()), capacity)
    }

    fn rotating(retain: usize) -> WindowedIngest<AtomicCountMedian> {
        WindowedIngest::rotating(
            AtomicCountMedian::with_backend(&params()),
            SeedSchedule::new(SEED),
            retain,
        )
    }

    fn kept(ring: &WindowedIngest<AtomicCountMedian>) -> Vec<u64> {
        let seals = ring.bank().planes().map(|s| s.interval());
        seals
            .chain(ring.generations().map(|g| g.interval()))
            .collect()
    }

    #[test]
    fn seals_are_cumulative_flush_boundary_prefixes() {
        let mut ingest = sealing(4);
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
                    ingest.shared().sketch().estimate_in(seal.plane(), j),
                    reference.estimate(j),
                    "interval {t}, item {j}"
                );
            }
        }
        assert_eq!(ingest.interval(), 3);
    }

    #[test]
    fn window_subtraction_recovers_one_interval_exactly() {
        let mut ingest = sealing(2);
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
            .sketch()
            .subtract_snapshot(&mut delta, bank.sealed(0).unwrap().plane())
            .unwrap();
        let mut reference = CountMedian::new(&params());
        reference.update_batch(&second);
        for j in 0..N {
            assert_eq!(
                ingest.shared().sketch().estimate_in(&delta, j),
                reference.estimate(j),
                "item {j}"
            );
        }
    }

    #[test]
    fn ring_recycles_and_live_plane_survives_rotation() {
        let mut ingest = sealing(2);
        for t in 0..5u64 {
            ingest.extend_from_slice(&interval_stream(t, 300));
            ingest.advance_interval();
        }
        assert_eq!(kept(&ingest), [3, 4]);
        assert_eq!(ingest.bank().latest().unwrap().applied(), 1_500);
        // The live plane is cumulative across all 5 intervals.
        assert_eq!(ingest.applied(), 5 * 300);
        assert_eq!(ingest.finish().applied(), 1_500);
    }

    /// Retention keeps what a window ending at the live interval can
    /// reach: `K` seals, or `K − 1` closed generations; the applied
    /// count covers exactly the retained generations.
    #[test]
    fn retention_bounds_seals_and_closed_generations() {
        for (mut ring, applied) in [(sealing(2), 1_200), (rotating(2), 600)] {
            for t in 0..5u64 {
                ring.extend_from_slice(&interval_stream(t, 200));
                assert_eq!(ring.advance_interval(), t);
            }
            assert_eq!(kept(&ring), [3, 4], "rotates: {}", ring.rotates());
            ring.extend_from_slice(&interval_stream(5, 200));
            ring.flush();
            assert_eq!(ring.applied(), applied, "rotates: {}", ring.rotates());
        }
    }

    #[test]
    fn zero_capacity_is_the_unbounded_configuration() {
        // Neither a bank of 0 nor a retention of 0 keeps anything; only
        // the one-seed ring's live plane remembers the closed interval.
        for (mut ring, applied) in [(sealing(0), 200), (rotating(0), 0)] {
            ring.extend_from_slice(&interval_stream(0, 200));
            assert_eq!(ring.advance_interval(), 0);
            assert!(kept(&ring).is_empty());
            assert_eq!(ring.interval(), 1);
            assert_eq!(ring.applied(), applied);
        }
    }

    #[test]
    fn generation_zero_matches_the_one_seed_ring() {
        // seed_for(0) = master: until the first advance, the rotating
        // ring is bit-for-bit the one-seed ring it hardens.
        let (mut ring, mut one_seed) = (rotating(4), sealing(4));
        let mut fixed = CountMedian::new(&params());
        let updates = interval_stream(0, 800);
        ring.extend_from_slice(&updates);
        one_seed.extend_from_slice(&updates);
        fixed.update_batch(&updates);
        ring.flush();
        one_seed.flush();
        assert_eq!(
            ring.shared().sketch().config(),
            one_seed.shared().sketch().config()
        );
        for j in 0..N {
            assert_eq!(
                ring.shared().sketch().estimate(j),
                fixed.estimate(j),
                "item {j}"
            );
            assert_eq!(
                one_seed.shared().sketch().estimate(j),
                fixed.estimate(j),
                "item {j}"
            );
        }
    }

    #[test]
    fn rotation_reseeds_live_and_freezes_closed() {
        let schedule = SeedSchedule::new(SEED);
        let mut ring = rotating(4);
        let first = interval_stream(0, 700);
        ring.extend_from_slice(&first);
        ring.advance_interval();

        assert_eq!(ring.shared().sketch().config().seed, schedule.seed_for(1));
        assert_eq!(ring.shared().applied(), 0);
        assert!(ring.bank().is_empty());

        // The closed generation kept the master seed and exactly the
        // first interval's counters.
        let gen0 = ring.generations().next().expect("kept").handle().clone();
        assert_eq!(gen0.sketch().config().seed, SEED);
        assert_eq!(gen0.applied(), first.len() as u64);
        let mut reference = CountMedian::new(&params());
        reference.update_batch(&first);
        for j in (0..N).step_by(7) {
            assert_eq!(gen0.sketch().estimate(j), reference.estimate(j));
        }

        // Later pushes land only in the new generation.
        ring.extend_from_slice(&interval_stream(1, 300));
        ring.flush();
        assert_eq!(gen0.applied(), first.len() as u64);
        assert_eq!(ring.shared().applied(), 300);
        assert_eq!(ring.applied(), 1_000);
    }

    #[test]
    fn generations_are_per_interval_planes_not_cumulative() {
        // Each generation sketches exactly its own interval under its
        // own seed: estimate-space sums across generations recover the
        // window by linearity of the underlying frequency vectors.
        let schedule = SeedSchedule::new(SEED);
        let mut ring = rotating(3);
        for t in 0..3u64 {
            ring.extend_from_slice(&interval_stream(t, 500));
            ring.advance_interval();
        }
        for (t, generation) in ring.generations().enumerate() {
            let t = t as u64;
            assert_eq!(generation.interval(), t);
            let mut reference = CountMedian::new(&params().with_seed(schedule.seed_for(t)));
            reference.update_batch(&interval_stream(t, 500));
            for j in (0..N).step_by(11) {
                assert_eq!(
                    generation.handle().sketch().estimate(j),
                    reference.estimate(j),
                    "interval {t}, item {j}"
                );
            }
        }
    }

    #[test]
    fn flush_threshold_survives_rotation() {
        let mut ring = rotating(1).with_flush_threshold(64);
        ring.extend_from_slice(&interval_stream(0, 63));
        assert_eq!(ring.pending(), 63);
        ring.advance_interval();
        // The threshold still applies to the new generation's ingester:
        // 63 pushes stay buffered, the 64th triggers an auto-flush.
        for (item, delta) in interval_stream(1, 63) {
            ring.push(item, delta);
        }
        assert_eq!(ring.pending(), 63);
        ring.push(0, 1.0);
        assert_eq!(ring.pending(), 0);
        assert_eq!(ring.shared().applied(), 64);
    }

    /// Ships `source` the way a rebalance does: every retained seal or
    /// closed generation, oldest first, then the live plane.
    fn ship(
        source: &WindowedIngest<AtomicCountMedian>,
        mut dest: WindowedIngest<AtomicCountMedian>,
    ) -> WindowedIngest<AtomicCountMedian> {
        for seal in source.bank().planes() {
            dest.restore_seal(
                seal.interval(),
                seal.plane().clone(),
                seal.applied(),
                seal.mass(),
            )
            .unwrap();
        }
        for g in source.generations() {
            let plane = g.handle().pin();
            let (applied, mass) = (plane.applied(), plane.mass());
            dest.restore_seal(g.interval(), plane.into_snapshot(), applied, mass)
                .unwrap();
        }
        let live = source.shared().pin();
        dest.restore_live(
            source.interval(),
            live.snapshot(),
            live.applied(),
            live.mass(),
        )
        .unwrap();
        dest
    }

    #[test]
    fn transfer_rebuilds_a_windowed_ingester_bit_for_bit() {
        // Source: 3 closed intervals + a live tail, in both ring shapes;
        // the destination never saw an update.
        let make = [|| sealing(4), || rotating(2)];
        for make in make {
            let mut source = make().with_flush_threshold(64);
            for t in 0..3u64 {
                source.extend_from_slice(&interval_stream(t, 500));
                source.advance_interval();
            }
            source.extend_from_slice(&interval_stream(3, 250));
            source.flush();
            let mut dest = ship(&source, make().with_flush_threshold(64));

            let rotates = source.rotates();
            assert_eq!(dest.applied(), source.applied(), "rotates: {rotates}");
            assert_eq!(dest.mass(), source.mass());
            assert_eq!(dest.interval(), source.interval());
            assert_eq!(kept(&dest), kept(&source));
            assert_eq!(
                dest.shared().sketch().config(),
                source.shared().sketch().config()
            );
            for j in 0..N {
                assert_eq!(
                    dest.shared().sketch().estimate(j),
                    source.shared().sketch().estimate(j),
                    "live estimate, item {j}"
                );
            }
            // Every closed generation under its own seed, bit for bit.
            for (a, b) in source.generations().zip(dest.generations()) {
                assert_eq!(a.handle().sketch().config(), b.handle().sketch().config());
                assert_eq!(a.handle().applied(), b.handle().applied());
                for j in 0..N {
                    let (x, y) = (
                        a.handle().sketch().estimate(j),
                        b.handle().sketch().estimate(j),
                    );
                    assert_eq!(x.to_bits(), y.to_bits(), "generation {}", a.interval());
                }
            }
            // Window subtraction agrees too: sealed(1)..live on both sides.
            if !rotates {
                let window = |ring: &WindowedIngest<AtomicCountMedian>| {
                    let mut plane = ring.shared().pin().into_snapshot();
                    let seal = ring.bank().sealed(1).unwrap().plane();
                    ring.shared()
                        .sketch()
                        .subtract_snapshot(&mut plane, seal)
                        .unwrap();
                    (0..N)
                        .map(|j| ring.shared().sketch().estimate_in(&plane, j))
                        .collect::<Vec<_>>()
                };
                assert_eq!(window(&dest), window(&source));
            }
            // Both sides keep rotating in lockstep afterwards, with the
            // flush threshold carried over.
            let more = interval_stream(4, 63);
            for ring in [&mut source, &mut dest] {
                ring.extend_from_slice(&more);
                assert_eq!(ring.pending(), 63);
                assert_eq!(ring.advance_interval(), 3);
            }
            assert_eq!(kept(&dest), kept(&source));
            assert_eq!(dest.applied(), source.applied());
            assert_eq!(
                dest.shared().sketch().config(),
                source.shared().sketch().config()
            );
        }
    }

    #[test]
    fn restore_seal_overwrites_recycled_slots() {
        // Fill a capacity-2 bank, then restore two more seals so both
        // paths (fresh alloc and pop_front recycle) run the overwrite.
        let mut ingest = sealing(2);
        ingest.extend_from_slice(&interval_stream(0, 100));
        ingest.advance_interval();
        ingest.extend_from_slice(&interval_stream(1, 100));
        ingest.advance_interval();

        let donor = {
            let mut d = sealing(2);
            d.extend_from_slice(&interval_stream(7, 400));
            d.advance_interval();
            d
        };
        let seal = donor.bank().sealed(0).unwrap();
        ingest
            .restore_seal(5, seal.plane().clone(), seal.applied(), seal.mass())
            .unwrap();
        assert_eq!(ingest.bank().latest().unwrap().interval(), 5);
        assert_eq!(ingest.bank().latest().unwrap().applied(), 400);
        for j in (0..N).step_by(17) {
            assert_eq!(
                ingest
                    .shared()
                    .sketch()
                    .estimate_in(ingest.bank().sealed(5).unwrap().plane(), j),
                donor.shared().sketch().estimate_in(seal.plane(), j),
                "item {j}"
            );
        }
        let empty = ingest.shared().sketch().make_snapshot();
        ingest.restore_live(9, &empty, 0, 0.0).unwrap();
        assert_eq!(ingest.interval(), 9);
    }

    #[test]
    #[should_panic(expected = "must lie past the latest seal")]
    fn restore_live_rejects_ids_at_or_before_the_latest_seal() {
        let mut ingest = sealing(2);
        ingest.extend_from_slice(&interval_stream(0, 50));
        ingest.advance_interval();
        let plane = ingest.bank().sealed(0).unwrap().plane().clone();
        ingest.restore_seal(6, plane.clone(), 50, 50.0).unwrap();
        ingest.restore_live(6, &plane, 50, 50.0).unwrap();
    }

    #[test]
    fn empty_intervals_seal_cleanly() {
        let mut ingest = sealing(3);
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
