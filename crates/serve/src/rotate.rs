//! The rotating query engine: bounded-lifetime seeds on the write
//! side, estimate-space windows and query auditing on the read side —
//! the serving package of the robustness plane.
//!
//! A [`RotatingEngine`] is the adaptive-adversary-hardened counterpart
//! of a [`Sliding`](crate::Sliding) [`QueryEngine`](crate::QueryEngine):
//! same window semantics (the live interval plus the last `K − 1`
//! closed ones), but every interval runs under its **own** hasher
//! seed, derived from a [`SeedSchedule`] by
//! [`bas_pipeline::RotatingIngest`]. Since the generations' planes are
//! not counter-compatible, window answers combine per-generation
//! **estimates** ([`EstimateCombine::Sum`](crate::EstimateCombine) over
//! the disjoint time slices — see `crate::estimate`); each generation
//! contributes its own Theorem-1 error term, so a K-interval window
//! pays up to K terms where the fixed-seed engine pays one. That is
//! the price of robustness; `tests/adversarial.rs` shows what it buys:
//! the identical adaptive attack that blows the fixed-seed engine's
//! bound leaves this engine inside it.
//!
//! Rotation alone bounds how long leaked seed knowledge stays useful;
//! the optional audit ([`with_audit`](RotatingEngine::with_audit))
//! bounds how much can leak per generation in the first place, and its
//! per-key budgets reset automatically at every
//! [`advance_interval`](RotatingEngine::advance_interval) — a fresh
//! seed makes stale feedback worthless.

use crate::audit::{AuditBudget, AuditPolicy};
use crate::error::QueryError;
use bas_hash::SeedSchedule;
use bas_pipeline::{EpochHandle, RotatingGeneration, RotatingIngest};
use bas_sketch::{
    AbsorbPlane, HeavyHitter, MergeError, PointQuerySketch, Reseedable, SharedSketch, Snapshottable,
};
use bas_stream::StreamUpdate;

/// A query engine whose hasher seeds rotate every interval — see the
/// module docs for the threat model and the error trade.
///
/// ```
/// use bas_hash::SeedSchedule;
/// use bas_serve::RotatingEngine;
/// use bas_sketch::{AtomicCountMedian, SketchParams};
///
/// let params = SketchParams::new(1_000, 64, 5).with_seed(42);
/// let mut engine = RotatingEngine::new(
///     1,
///     AtomicCountMedian::with_backend(&params),
///     SeedSchedule::new(42),
///     /* window of */ 3, // live interval + 2 retired generations
/// )
/// .unwrap();
///
/// for interval in 0..4u64 {
///     engine.push(7, 10.0);
///     engine.advance_interval();
/// }
/// engine.push(7, 10.0);
/// engine.flush();
/// // Window = intervals 2, 3 (retired) + 4 (live): 30 of the 50.
/// assert_eq!(engine.window_estimate(7), 30.0);
/// assert_eq!(engine.window_mass(), 30.0);
/// ```
#[derive(Debug)]
pub struct RotatingEngine<S: SharedSketch + Snapshottable + Reseedable + Send> {
    ingest: RotatingIngest<S>,
    audit: Option<AuditBudget>,
}

impl<S: SharedSketch + Snapshottable + Reseedable + Send> RotatingEngine<S> {
    /// Creates a rotating engine serving a sliding window of
    /// `window_len` intervals (the live one plus `window_len − 1`
    /// retired generations). The sketch is reseeded to
    /// `schedule.seed_for(0)`, so generation `g` always runs under
    /// `schedule.seed_for(g)`.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidWindowLen`] if `window_len` is 0.
    ///
    /// Flushes run on the calling thread, the plane's one writer, so
    /// `workers` must be 1; the argument stays only so existing
    /// callers (the `servebench` ladder) build unchanged.
    ///
    /// # Panics
    /// Panics unless `workers` is 1.
    pub fn new(
        workers: usize,
        sketch: S,
        schedule: SeedSchedule,
        window_len: usize,
    ) -> Result<Self, QueryError> {
        assert_eq!(workers, 1, "flushes have one writer: workers must be 1");
        QueryError::check_window_len(window_len)?;
        Ok(Self {
            ingest: RotatingIngest::new(sketch, schedule, window_len - 1),
            audit: None,
        })
    }

    /// Overrides the flush threshold (see
    /// [`bas_pipeline::ConcurrentIngest::with_flush_threshold`]).
    ///
    /// # Panics
    /// Panics if `updates` is zero.
    pub fn with_flush_threshold(mut self, updates: usize) -> Self {
        self.ingest = self.ingest.with_flush_threshold(updates);
        self
    }

    /// Installs a query audit on the windowed read path: per-key
    /// budgets for [`audited_window_estimate`](RotatingEngine::audited_window_estimate),
    /// reset automatically at every rotation.
    pub fn with_audit(mut self, policy: AuditPolicy) -> Self {
        self.audit = Some(AuditBudget::new(policy));
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

    /// Rotates: retires the live generation (frozen hashers and
    /// counters), starts the next under the schedule's next seed, and
    /// resets the audit budgets — stale feedback is worthless against
    /// the fresh seed. Returns the id of the interval just retired.
    ///
    /// # Panics
    /// Panics if the current interval is `u64::MAX` (see
    /// [`RotatingIngest::advance_interval`]).
    pub fn advance_interval(&mut self) -> u64 {
        if let Some(audit) = &self.audit {
            audit.reset();
        }
        self.ingest.advance_interval()
    }

    /// See [`RotatingIngest::restore_generation`]; generation
    /// `interval` runs under `schedule.seed_for(interval)`.
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
        self.ingest
            .restore_generation(interval, plane, applied, mass)
    }

    /// See [`RotatingIngest::restore_live`].
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
        self.ingest.restore_live(interval, plane, applied, mass)
    }

    // ---- read side (`&self`) ----

    /// Point estimate of `x_item` **within the window**: the sum of
    /// per-generation estimates, each answered through that
    /// generation's own hashers (the estimate-space path — generation
    /// planes are deliberately not counter-compatible). Retired
    /// generations are quiesced, so their terms are settled; the live
    /// generation's term is a lock-free live read with the usual
    /// single-flush smear (flush first for settled answers).
    pub fn window_estimate(&self, item: u64) -> f64 {
        let live = self.ingest.live().estimate(item);
        self.ingest
            .generations()
            .map(|g| g.handle().estimate(item))
            .fold(live, |acc, e| acc + e)
    }

    /// Total delta mass inside the window (live + retained
    /// generations) — the base for window heavy-hitter thresholds.
    pub fn window_mass(&self) -> f64 {
        self.ingest.live().mass() + self.ingest.generations().map(|g| g.mass()).sum::<f64>()
    }

    /// Updates applied inside the window.
    pub fn window_applied(&self) -> u64 {
        self.ingest.live().applied() + self.ingest.generations().map(|g| g.applied()).sum::<u64>()
    }

    /// Heavy hitters **within the window** by combined estimate: every
    /// item whose [`window_estimate`](RotatingEngine::window_estimate)
    /// reaches `phi` times the window's mass, sorted by decreasing
    /// estimate. A full universe scan over every generation
    /// (`O(n · K · d)`).
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidPhi`] unless `0 < phi < 1`.
    pub fn window_heavy_hitters(&self, phi: f64) -> Result<Vec<HeavyHitter>, QueryError> {
        QueryError::check_phi(phi)?;
        let mass = self.window_mass();
        if mass <= 0.0 {
            return Ok(Vec::new());
        }
        let threshold = phi * mass;
        let mut out: Vec<HeavyHitter> = (0..self.ingest.live().universe())
            .filter_map(|item| {
                let estimate = self.window_estimate(item);
                (estimate >= threshold).then_some(HeavyHitter { item, estimate })
            })
            .collect();
        out.sort_by(|a, b| b.estimate.total_cmp(&a.estimate).then(a.item.cmp(&b.item)));
        Ok(out)
    }

    /// The audited window read: counts the query against `item`'s
    /// per-generation budget, then answers
    /// [`window_estimate`](RotatingEngine::window_estimate) through
    /// the policy's noise/quantize pipeline. Without an installed
    /// audit this is an uncounted exact window read.
    ///
    /// # Errors
    /// Returns [`QueryError::AuditRejected`] once `item`'s budget for
    /// the current generation is exhausted (budgets reset at every
    /// rotation).
    pub fn audited_window_estimate(&self, item: u64) -> Result<f64, QueryError> {
        match &self.audit {
            Some(audit) => audit.answer(item, || self.window_estimate(item)),
            None => Ok(self.window_estimate(item)),
        }
    }

    // ---- bookkeeping ----

    /// Id of the interval (= generation) currently accepting updates.
    pub fn interval(&self) -> u64 {
        self.ingest.interval()
    }

    /// The live generation's handle (current seed, current counters).
    pub fn live(&self) -> &EpochHandle<S> {
        self.ingest.live()
    }

    /// The retired generations inside the window, oldest first.
    pub fn generations(&self) -> impl Iterator<Item = &RotatingGeneration<S>> {
        self.ingest.generations()
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
    const MASTER: u64 = 23;

    fn params() -> SketchParams {
        SketchParams::new(N, 64, 5).with_seed(MASTER)
    }

    fn make_engine(window_len: usize) -> RotatingEngine<AtomicCountMedian> {
        RotatingEngine::new(
            1,
            AtomicCountMedian::with_backend(&params()),
            SeedSchedule::new(MASTER),
            window_len,
        )
        .unwrap()
    }

    fn interval_stream(interval: u64, len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| {
                (
                    (i * 13 + interval * 29) % N,
                    (1 + (i + interval) % 3) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn zero_window_is_rejected() {
        let result = RotatingEngine::new(
            1,
            AtomicCountMedian::with_backend(&params()),
            SeedSchedule::new(MASTER),
            0,
        );
        assert_eq!(result.unwrap_err(), QueryError::InvalidWindowLen { len: 0 });
    }

    #[test]
    fn window_estimate_sums_generation_estimates() {
        // Wide sketch, sparse stream: every per-generation estimate is
        // exact, so the window sum is exact too.
        let mut engine = make_engine(3);
        for interval in 0..4u64 {
            engine.push(7, 10.0);
            engine.push(interval + 100, 1.0);
            engine.advance_interval();
        }
        engine.push(7, 5.0);
        engine.flush();
        // Window = generations 2, 3 + live interval 4.
        assert_eq!(engine.window_estimate(7), 25.0);
        assert_eq!(engine.window_mass(), 27.0);
        assert_eq!(engine.window_applied(), 5);
        assert_eq!(engine.interval(), 4);
    }

    #[test]
    fn window_tracks_reference_per_interval_truth() {
        // Denser traffic: window answers stay within the sum of the
        // per-generation Theorem-1 bounds (3·mass_g/s each).
        let mut engine = make_engine(2).with_flush_threshold(256);
        let mut per_interval_truth: Vec<Vec<f64>> = Vec::new();
        for t in 0..3u64 {
            let updates = interval_stream(t, 600);
            let mut truth = vec![0.0; N as usize];
            for &(item, delta) in &updates {
                truth[item as usize] += delta;
            }
            per_interval_truth.push(truth);
            engine.extend_from_slice(&updates);
            engine.advance_interval();
        }
        engine.flush();
        // Window = generation 2 + empty live interval 3.
        let width = 64.0;
        let mass: f64 = per_interval_truth[2].iter().sum();
        let bound = 3.0 * mass / width;
        for j in 0..N {
            let err = (engine.window_estimate(j) - per_interval_truth[2][j as usize]).abs();
            assert!(err <= bound, "item {j}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn generations_rotate_seeds_per_schedule() {
        let schedule = SeedSchedule::new(MASTER);
        let mut engine = make_engine(4);
        for t in 0..3u64 {
            engine.push(t, 1.0);
            engine.advance_interval();
        }
        assert_eq!(engine.live().config().seed, schedule.seed_for(3));
        let seeds: Vec<u64> = engine.generations().map(|g| g.config().seed).collect();
        assert_eq!(
            seeds,
            vec![
                schedule.seed_for(0),
                schedule.seed_for(1),
                schedule.seed_for(2)
            ]
        );
    }

    #[test]
    fn window_heavy_hitters_sees_across_generations() {
        let mut engine = make_engine(3);
        // Item 9 is moderately hot in each of three generations —
        // heavy only in the combined window.
        for _ in 0..3 {
            for _ in 0..40 {
                engine.push(9, 1.0);
            }
            for i in 0..80u64 {
                engine.push(i % 70, 1.0);
            }
            engine.advance_interval();
        }
        let hot = engine.window_heavy_hitters(0.25).unwrap();
        let items: Vec<u64> = hot.iter().map(|h| h.item).collect();
        assert!(items.contains(&9), "{items:?}");
        assert_eq!(
            engine.window_heavy_hitters(0.0),
            Err(QueryError::InvalidPhi { phi: 0.0 })
        );
        // Empty window after the bank ages everything out: vacuous.
        let empty = make_engine(1);
        assert!(empty.window_heavy_hitters(0.5).unwrap().is_empty());
    }

    #[test]
    fn audit_budget_caps_and_resets_on_rotation() {
        let mut engine = make_engine(2).with_audit(AuditPolicy::new(2));
        engine.push(7, 30.0);
        engine.flush();
        assert_eq!(engine.audited_window_estimate(7), Ok(30.0));
        assert_eq!(engine.audited_window_estimate(7), Ok(30.0));
        assert_eq!(
            engine.audited_window_estimate(7),
            Err(QueryError::AuditRejected { item: 7, limit: 2 })
        );
        // Unbudgeted keys still answer; the exact read is unthrottled.
        assert_eq!(engine.audited_window_estimate(8), Ok(0.0));
        assert_eq!(engine.window_estimate(7), 30.0);
        // Rotation renews the budget.
        engine.advance_interval();
        assert_eq!(engine.audited_window_estimate(7), Ok(30.0));
    }

    #[test]
    fn unaudited_engine_serves_uncounted() {
        let mut engine = make_engine(1);
        engine.push(3, 4.0);
        engine.flush();
        for _ in 0..100 {
            assert_eq!(engine.audited_window_estimate(3), Ok(4.0));
        }
    }

    #[test]
    fn matches_fixed_seed_engine_before_first_rotation() {
        let mut rotating = make_engine(3);
        let mut fixed = CountMedian::new(&params());
        let updates = interval_stream(0, 500);
        rotating.extend_from_slice(&updates);
        fixed.update_batch(&updates);
        rotating.flush();
        for j in 0..N {
            assert_eq!(rotating.window_estimate(j), fixed.estimate(j), "item {j}");
        }
    }
}
