//! Rotating ingest: bounded-lifetime hasher seeds for adaptive-adversary
//! robustness.
//!
//! [`WindowedIngest`](crate::WindowedIngest) rotates *planes* but keeps
//! one hasher configuration forever — fine against oblivious streams,
//! but once query answers feed back into the stream an adaptive
//! adversary can learn the fixed seed one probe at a time and steer
//! mass into the colliding buckets of a chosen victim, inflating its
//! error far beyond the (ε, δ) analysis (which assumes the input is
//! independent of the hash functions; see the adaptive-inputs attack
//! in PAPERS.md and the attack loop in `tests/adversarial.rs`).
//!
//! [`RotatingIngest`] bounds every seed's lifetime to **one interval**:
//!
//! 1. **flush** — the buffered tail is applied to the current
//!    generation's plane, exactly like every other flush;
//! 2. **retire** — the whole live [`EpochHandle`] (hashers *and*
//!    counters) is frozen as a [`RotatingGeneration`]; it is quiesced
//!    from here on, so direct estimates on it are settled and exact;
//! 3. **reseed** — a fresh, empty plane is built under the next seed of
//!    the [`SeedSchedule`] (`seed_for(interval + 1)`) and becomes the
//!    live generation.
//!
//! Because generations use **different** hash functions, their counter
//! planes must never be added (`MergeError::PlaneSeedMismatch` guards
//! the counter-space path); a window over the last K intervals is
//! instead answered in **estimate space** — per-generation estimates
//! combined by linearity of the underlying frequency vectors,
//! `x̂^{(a,b]}_j = Σ_g x̂^g_j`. Each generation's estimate carries its
//! own Theorem-1 error term, so a K-generation window pays up to K
//! error terms where the fixed-seed plane pays one — the price of
//! robustness, tested end to end in `tests/adversarial.rs`.
//! `bas_serve::RotatingEngine` packages the serving side (window
//! combination plus query auditing); this module owns the write side.
//!
//! A generation's seed is a pure function of the schedule and its
//! interval, so the ingester moves by its planes alone, each absorbed
//! under its own rebuilt hashers
//! ([`restore_generation`](RotatingIngest::restore_generation)).

use std::collections::VecDeque;

use crate::concurrent::ConcurrentIngest;
use crate::epoch::EpochHandle;
use bas_hash::SeedSchedule;
use bas_sketch::{AbsorbPlane, MergeError, Reseedable, SharedSketch, SketchParams};
use bas_stream::StreamUpdate;

/// One retired generation of a [`RotatingIngest`]: a frozen
/// [`EpochHandle`] that keeps its interval's hashers **and** counters.
///
/// The handle is quiesced (its `ConcurrentIngest` was consumed at
/// rotation, so no writer exists), which makes direct reads settled:
/// `estimate` / `applied` / `mass` need no epoch pinning. Unlike a
/// `PlaneBank` seal, the plane here is **not cumulative** — it holds
/// exactly the updates applied during its own interval, because every
/// rotation starts from an empty reseeded plane.
#[derive(Debug)]
pub struct RotatingGeneration<S> {
    interval: u64,
    handle: EpochHandle<S>,
}

impl<S: SharedSketch + Reseedable + Send> RotatingGeneration<S> {
    /// The interval this generation ingested (and nothing else).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The frozen plane: estimates answered here go through this
    /// generation's own (now-retired) hash functions.
    pub fn handle(&self) -> &EpochHandle<S> {
        &self.handle
    }

    /// The hasher configuration this generation was sealed under.
    pub fn config(&self) -> SketchParams {
        self.handle.config()
    }

    /// Updates applied during this generation's interval.
    pub fn applied(&self) -> u64 {
        self.handle.applied()
    }

    /// Delta mass applied during this generation's interval.
    pub fn mass(&self) -> f64 {
        self.handle.mass()
    }
}

/// A concurrent ingester whose hasher seeds have bounded lifetimes:
/// the write side of the robustness plane.
///
/// Construction reseeds the input sketch to `schedule.seed_for(0)` —
/// the master seed — so generation `g` always runs under
/// `schedule.seed_for(g)` and any party holding the schedule can
/// reconstruct every generation's hashers. The live generation ingests
/// through the same single-writer [`ConcurrentIngest`] path as the
/// fixed-seed engines; [`advance_interval`](RotatingIngest::advance_interval)
/// retires it and starts the next, retaining the last `retain` retired
/// generations for estimate-space window serving.
///
/// ```
/// use bas_hash::SeedSchedule;
/// use bas_pipeline::RotatingIngest;
/// use bas_sketch::{AtomicCountMedian, Reseedable, SketchParams};
///
/// let params = SketchParams::new(1_000, 64, 5).with_seed(42);
/// let schedule = SeedSchedule::new(42);
/// let mut ingest = RotatingIngest::new(
///     AtomicCountMedian::with_backend(&params),
///     schedule,
///     /* retain = */ 3,
/// );
///
/// for interval in 0..4u64 {
///     for i in 0..300u64 {
///         ingest.push((interval * 131 + i) % 1_000, 1.0);
///     }
///     assert_eq!(ingest.advance_interval(), interval);
/// }
/// // Four generations retired, the oldest dropped; the live plane is
/// // empty and runs under the rotation-4 seed.
/// assert_eq!(ingest.generations().count(), 3);
/// assert_eq!(ingest.live().config().seed, schedule.seed_for(4));
/// assert_eq!(ingest.live().applied(), 0);
/// ```
#[derive(Debug)]
pub struct RotatingIngest<S: SharedSketch + Reseedable + Send> {
    ingest: ConcurrentIngest<EpochHandle<S>>,
    schedule: SeedSchedule,
    /// Retired generations, oldest first; at most `retain` long.
    retired: VecDeque<RotatingGeneration<S>>,
    retain: usize,
    /// Id of the interval (= generation) currently accepting updates.
    interval: u64,
    flush_threshold: Option<usize>,
}

impl<S: SharedSketch + Reseedable + Send> RotatingIngest<S> {
    /// Creates a rotating ingester: `sketch` is reseeded to
    /// `schedule.seed_for(0)` (its counters are discarded — pass a
    /// fresh sketch) and becomes generation 0's live plane. The last
    /// `retain` retired generations are kept for window serving (0
    /// keeps none — every rotation forgets the past entirely).
    pub fn new(sketch: S, schedule: SeedSchedule, retain: usize) -> Self {
        let live = EpochHandle::new(sketch.reseeded(schedule.seed_for(0)));
        Self {
            ingest: ConcurrentIngest::new(live),
            schedule,
            retired: VecDeque::new(),
            retain,
            interval: 0,
            flush_threshold: None,
        }
    }

    /// Overrides the flush threshold (see
    /// [`ConcurrentIngest::with_flush_threshold`]); the override
    /// carries across rotations.
    ///
    /// # Panics
    /// Panics if `updates` is zero.
    pub fn with_flush_threshold(mut self, updates: usize) -> Self {
        self.ingest = self.ingest.with_flush_threshold(updates);
        self.flush_threshold = Some(updates);
        self
    }

    // ---- write side (single producer, `&mut self`) ----

    /// Buffers one update into the current generation.
    pub fn push(&mut self, item: u64, delta: f64) {
        self.ingest.push(item, delta);
    }

    /// Buffers a slice of updates into the current generation.
    pub fn extend_from_slice(&mut self, updates: &[(u64, f64)]) {
        self.ingest.extend_from_slice(updates);
    }

    /// Buffers a stream of [`StreamUpdate`]s into the current
    /// generation.
    pub fn extend_updates<I: IntoIterator<Item = StreamUpdate>>(&mut self, updates: I) {
        self.ingest.extend_updates(updates);
    }

    /// Applies all buffered updates now (without rotating).
    pub fn flush(&mut self) {
        self.ingest.flush();
    }

    /// Rotates: flushes the buffered tail, retires the live generation
    /// (hashers and counters frozen, quiesced from here on), and
    /// starts the next generation on a **fresh, empty** plane under
    /// `schedule.seed_for(interval + 1)`. Returns the id of the
    /// interval just retired.
    ///
    /// Swapping the `ConcurrentIngest` itself costs one allocation —
    /// rotation overhead is dominated by the plane allocation for the
    /// next generation (`O(s·d)` words, same as a `PlaneBank` seal).
    ///
    /// # Panics
    /// Panics, before anything is flushed or retired, if the current
    /// interval is `u64::MAX`: no interval follows it.
    pub fn advance_interval(&mut self) -> u64 {
        let next_interval = self
            .interval
            .checked_add(1)
            .expect("interval u64::MAX is the last: no interval follows it");
        self.ingest.flush();
        let sealed = self.interval;
        let next = self.live_ingest(
            self.ingest
                .sketch()
                .reseeded(self.schedule.seed_for(next_interval)),
        );
        let handle = std::mem::replace(&mut self.ingest, next).finish();
        self.retire(RotatingGeneration {
            interval: sealed,
            handle,
        });
        self.interval = next_interval;
        sealed
    }

    /// A live-generation ingester over `live`, with the flush
    /// threshold override carried across rotations.
    fn live_ingest(&self, live: EpochHandle<S>) -> ConcurrentIngest<EpochHandle<S>> {
        let ingest = ConcurrentIngest::new(live);
        match self.flush_threshold {
            Some(updates) => ingest.with_flush_threshold(updates),
            None => ingest,
        }
    }

    /// Appends a retired generation, dropping the oldest beyond
    /// `retain`.
    fn retire(&mut self, generation: RotatingGeneration<S>) {
        self.retired.push_back(generation);
        while self.retired.len() > self.retain {
            self.retired.pop_front();
        }
    }

    // ---- plane transfer (rebalance by linearity, per generation) ----

    /// A fresh plane under `schedule.seed_for(interval)` that absorbed
    /// `plane`: by linearity, bit-for-bit the generation `plane` was
    /// pinned from (integer-delta streams).
    fn rebuild(
        &self,
        interval: u64,
        plane: &S::Snapshot,
        applied: u64,
        mass: f64,
    ) -> Result<EpochHandle<S>, MergeError>
    where
        S: AbsorbPlane,
    {
        let handle = self
            .ingest
            .sketch()
            .reseeded(self.schedule.seed_for(interval));
        handle.absorb_plane(plane, applied, mass)?;
        Ok(handle)
    }

    /// Restores one retired generation from its per-interval plane and
    /// bookkeeping — the destination half of shipping a rotating
    /// ingester. Call it on a fresh ingester, oldest generation first,
    /// then [`restore_live`](Self::restore_live).
    ///
    /// # Errors
    /// Propagates the sketch's [`AbsorbPlane`] rejection.
    pub fn restore_generation(
        &mut self,
        interval: u64,
        plane: &S::Snapshot,
        applied: u64,
        mass: f64,
    ) -> Result<(), MergeError>
    where
        S: AbsorbPlane,
    {
        let handle = self.rebuild(interval, plane, applied, mass)?;
        self.retire(RotatingGeneration { interval, handle });
        Ok(())
    }

    /// Makes `interval` the live generation, rebuilt from its seed and
    /// the shipped live plane.
    ///
    /// # Errors
    /// Propagates the sketch's [`AbsorbPlane`] rejection.
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
        let live = self.rebuild(interval, plane, applied, mass)?;
        self.ingest = self.live_ingest(live);
        self.interval = interval;
        Ok(())
    }

    /// Flushes the remainder and returns the live generation's handle
    /// plus the retired generations (oldest first).
    pub fn finish(mut self) -> (EpochHandle<S>, Vec<RotatingGeneration<S>>) {
        self.ingest.flush();
        (self.ingest.finish(), self.retired.into_iter().collect())
    }

    // ---- read side / bookkeeping (`&self`) ----

    /// Id of the interval (= generation) currently accepting updates.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The live generation's shared handle: clone it for reader
    /// threads, pin it for consistent snapshots, or read single cells
    /// lock-free. Its [`config`](Reseedable::config) carries the
    /// current rotation's seed.
    pub fn live(&self) -> &EpochHandle<S> {
        self.ingest.sketch()
    }

    /// Retired generations, oldest first.
    pub fn generations(&self) -> impl Iterator<Item = &RotatingGeneration<S>> {
        self.retired.iter()
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
    const MASTER: u64 = 42;

    fn params() -> SketchParams {
        SketchParams::new(N, 64, 5).with_seed(MASTER)
    }

    fn interval_stream(interval: u64, len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| ((i * 7 + interval * 17) % N, (1 + (i + interval) % 3) as f64))
            .collect()
    }

    fn rotating(retain: usize) -> RotatingIngest<AtomicCountMedian> {
        RotatingIngest::new(
            AtomicCountMedian::with_backend(&params()),
            SeedSchedule::new(MASTER),
            retain,
        )
    }

    fn generation(
        ingest: &RotatingIngest<AtomicCountMedian>,
        interval: u64,
    ) -> Option<&RotatingGeneration<AtomicCountMedian>> {
        ingest.generations().find(|g| g.interval() == interval)
    }

    #[test]
    fn generation_zero_matches_the_fixed_seed_engine() {
        // seed_for(0) = master: until the first rotation, the rotating
        // engine is bit-for-bit the fixed-seed engine it hardens.
        let mut ingest = rotating(4);
        let mut fixed = CountMedian::new(&params());
        let updates = interval_stream(0, 800);
        ingest.extend_from_slice(&updates);
        fixed.update_batch(&updates);
        ingest.flush();
        for j in 0..N {
            assert_eq!(ingest.live().estimate(j), fixed.estimate(j), "item {j}");
        }
    }

    #[test]
    fn rotation_reseeds_live_and_freezes_retired() {
        let schedule = SeedSchedule::new(MASTER);
        let mut ingest = rotating(4);
        let first = interval_stream(0, 700);
        ingest.extend_from_slice(&first);
        ingest.advance_interval();

        assert_eq!(ingest.live().config().seed, schedule.seed_for(1));
        assert_eq!(ingest.live().applied(), 0);

        // The retired generation kept the master seed and exactly the
        // first interval's counters.
        let gen0 = generation(&ingest, 0).expect("retained").handle().clone();
        assert_eq!(gen0.config().seed, MASTER);
        assert_eq!(gen0.applied(), first.len() as u64);
        let mut reference = CountMedian::new(&params());
        reference.update_batch(&first);
        for j in (0..N).step_by(7) {
            assert_eq!(gen0.estimate(j), reference.estimate(j));
        }

        // Later pushes land only in the new generation.
        ingest.extend_from_slice(&interval_stream(1, 300));
        ingest.flush();
        assert_eq!(gen0.applied(), first.len() as u64);
        assert_eq!(ingest.live().applied(), 300);
    }

    #[test]
    fn generations_are_per_interval_planes_not_cumulative() {
        // Each generation sketches exactly its own interval under its
        // own seed: estimate-space sums across generations recover the
        // window by linearity of the underlying frequency vectors.
        let schedule = SeedSchedule::new(MASTER);
        let mut ingest = rotating(3);
        for t in 0..3u64 {
            ingest.extend_from_slice(&interval_stream(t, 500));
            ingest.advance_interval();
        }
        for t in 0..3u64 {
            let generation = generation(&ingest, t).expect("retained");
            let mut reference = CountMedian::new(&params().with_seed(schedule.seed_for(t)));
            reference.update_batch(&interval_stream(t, 500));
            for j in (0..N).step_by(11) {
                assert_eq!(
                    generation.handle().estimate(j),
                    reference.estimate(j),
                    "interval {t}, item {j}"
                );
            }
        }
    }

    #[test]
    fn retain_bounds_the_retired_set() {
        let mut ingest = rotating(2);
        for t in 0..5u64 {
            ingest.extend_from_slice(&interval_stream(t, 200));
            assert_eq!(ingest.advance_interval(), t);
        }
        let kept: Vec<u64> = ingest.generations().map(|g| g.interval()).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn retain_zero_forgets_everything_on_rotation() {
        let mut ingest = rotating(0);
        ingest.extend_from_slice(&interval_stream(0, 100));
        ingest.advance_interval();
        assert_eq!(ingest.generations().count(), 0);
        assert_eq!(ingest.live().applied(), 0);
    }

    #[test]
    fn flush_threshold_survives_rotation() {
        let mut ingest = rotating(1).with_flush_threshold(64);
        ingest.extend_from_slice(&interval_stream(0, 63));
        assert_eq!(ingest.pending(), 63);
        ingest.advance_interval();
        // The threshold still applies to the new generation's ingester:
        // 63 pushes stay buffered, the 64th triggers an auto-flush.
        for (item, delta) in interval_stream(1, 63) {
            ingest.push(item, delta);
        }
        assert_eq!(ingest.pending(), 63);
        ingest.push(0, 1.0);
        assert_eq!(ingest.pending(), 0);
        assert_eq!(ingest.live().applied(), 64);
    }

    #[test]
    fn restored_generations_answer_bit_for_bit_under_their_own_seeds() {
        let mut source = rotating(2).with_flush_threshold(64);
        for t in 0..4u64 {
            source.extend_from_slice(&interval_stream(t, 300));
            source.advance_interval();
        }
        source.extend_from_slice(&interval_stream(4, 100));
        source.flush();

        // Ship each plane with its bookkeeping; seeds are not shipped.
        let mut dest = rotating(2).with_flush_threshold(64);
        for g in source.generations() {
            let snap = g.handle().pin();
            dest.restore_generation(g.interval(), snap.snapshot(), g.applied(), g.mass())
                .unwrap();
        }
        let live = source.live().pin();
        dest.restore_live(
            source.interval(),
            live.snapshot(),
            live.applied(),
            live.mass(),
        )
        .unwrap();

        assert_eq!(dest.interval(), source.interval());
        for (a, b) in source.generations().zip(dest.generations()) {
            assert_eq!((a.interval(), a.config()), (b.interval(), b.config()));
            assert_eq!((a.applied(), a.mass()), (b.applied(), b.mass()));
            for j in 0..N {
                let (x, y) = (a.handle().estimate(j), b.handle().estimate(j));
                assert_eq!(x.to_bits(), y.to_bits(), "generation {}", a.interval());
            }
        }
        assert_eq!(dest.live().config(), source.live().config());
        for j in 0..N {
            assert_eq!(dest.live().estimate(j), source.live().estimate(j));
        }
        // Both keep rotating in lockstep: the flush threshold carried,
        // and the oldest restored generation ages out.
        for ingest in [&mut source, &mut dest] {
            ingest.extend_from_slice(&interval_stream(5, 63));
            assert_eq!(ingest.pending(), 63);
            ingest.advance_interval();
        }
        let kept =
            |i: &RotatingIngest<_>| i.generations().map(|g| g.interval()).collect::<Vec<_>>();
        assert_eq!(kept(&dest), [3, 4]);
        assert_eq!(kept(&dest), kept(&source));
        assert_eq!(
            dest.live().config().seed,
            SeedSchedule::new(MASTER).seed_for(5)
        );
    }

    #[test]
    fn finish_returns_live_and_retired() {
        let mut ingest = rotating(2);
        ingest.extend_from_slice(&interval_stream(0, 150));
        ingest.advance_interval();
        ingest.extend_from_slice(&interval_stream(1, 250));
        let (live, retired) = ingest.finish();
        assert_eq!(live.applied(), 250);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].applied(), 150);
    }
}
