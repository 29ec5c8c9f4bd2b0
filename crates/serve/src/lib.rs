//! # bas-serve — the live query plane
//!
//! Everything below this crate moves data *into* sketches; this crate
//! serves queries *out of* one **while a writer is still feeding it**.
//! A [`QueryEngine`] owns the write side — a
//! [`WindowedIngest`] whose flushes the calling thread writes into one
//! shared `Atomic`-backed sketch — and [`handle`](QueryEngine::handle)
//! hands out the live plane's [`EpochHandle`], which any number of
//! reader threads clone. Two read modes, chosen per query:
//!
//! * **live** ([`QueryEngine::estimate_live`], or
//!   `handle.sketch().estimate(item)` on a handle) — reads the atomic
//!   cells directly, lock-free, never waits. Each cell is one atomic
//!   word, so a single-cell read is always a real value; a multi-cell
//!   estimate may mix counters from an in-flight flush. Right for
//!   monitoring-grade point reads where a bounded smear across one
//!   flush is acceptable.
//! * **snapshot** ([`EpochHandle::pin`]) — freezes an epoch-consistent
//!   dense copy via the seqlock in `bas_pipeline::epoch`. Every pinned
//!   view equals the sketch of a **prefix** of the pushed stream, so
//!   multi-cell queries (median-of-rows estimates, heavy-hitter scans,
//!   range decompositions) are exactly as trustworthy as on a quiesced
//!   sketch. [`SnapshotHandle::refresh`] re-pins into the same buffer,
//!   so steady-state readers allocate nothing.
//!
//! ## Serving policies: since-boot vs time-scoped
//!
//! The engine holds one [`Policy`] value deciding *how much history*
//! window queries cover:
//!
//! * [`Unbounded`] (the default) — the since-boot accumulator: no
//!   plane is sealed, and a window reaches back to boot;
//! * [`Tumbling`]`(K)` / [`Sliding`]`(K)` — **windowed** serving over
//!   the last bucket / last `K` intervals. The write side's
//!   [`advance_interval`](QueryEngine::advance_interval) flushes and
//!   seals the cumulative plane into a rotating bank, and the read
//!   side's window-scoped queries subtract the boundary seal:
//!   [`point_in_window`](QueryEngine::point_in_window),
//!   [`heavy_hitters_in_window`](QueryEngine::heavy_hitters_in_window),
//!   [`range_sum_in_window`](QueryEngine::range_sum_in_window), and
//!   pinnable [`WindowSnapshot`]s. Window answers are **plane
//!   arithmetic** — `cumulative(now) − sealed(boundary)`, exact for
//!   the linear sketches by `Φx^{(a,t]} = Φx^{(0,t]} − Φx^{(0,a]}` —
//!   so there is no second ingest path and no per-window counters;
//! * [`Policy::Rotating`]`(K)` — the sliding window hardened against
//!   adaptive inputs: every interval is a *generation* under its own
//!   seed, and window answers sum the generations' estimates.
//!
//! All four share one read rule over the engine's generation ring: a
//! read over the intervals `(b, now]` visits each retained generation
//! the range overlaps, reads a generation wholly inside the range as
//! it stands, and pins and subtracts `seal(b)` only where `b` cuts the
//! live generation of a fixed-seed window. Since-boot reads are the
//! same reads with no boundary, so under [`Policy::Rotating`] they
//! cover the window's generations, the only planes it keeps.
//!
//! ## Auditing
//!
//! An engine built [`with_audit`](QueryEngine::with_audit) answers its
//! audited point reads through one per-key budget ([`AuditPolicy`])
//! that every advance renews — the serving-side half of the defence
//! against adaptive inputs.
//!
//! Bad query parameters (invalid `phi`, reversed ranges, zero-length
//! windows) are rejected with the typed [`QueryError`]; the panicking
//! conveniences panic with its `Display` message.
//!
//! The engine is generic over any sketch that is both
//! [`SharedSketch`] (single-writer shared ingest)
//! and [`Snapshottable`] (freezable counters): Count-Median,
//! Count-Sketch and the dyadic range-sum stack.
//!
//! ```
//! use bas_serve::QueryEngine;
//! use bas_sketch::{AtomicCountMedian, SketchParams};
//!
//! let params = SketchParams::new(10_000, 256, 5).with_seed(8);
//! let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params));
//!
//! // Writer side: push updates; a full buffer flushes on this thread,
//! // the plane's one writer.
//! for i in 0..20_000u64 {
//!     engine.push(i % 10_000, 1.0);
//! }
//! engine.flush();
//!
//! // Reader side: live point reads and consistent snapshots. On a
//! // quiesced engine the two modes agree bit-for-bit.
//! let snap = engine.pin();
//! assert_eq!(snap.applied(), 20_000);
//! assert_eq!(snap.estimate(42), engine.estimate_live(42));
//! ```
//!
//! Windowed serving (the time-scoped shape — "heavy hitters in the
//! current window", not "since boot"):
//!
//! ```
//! use bas_serve::{QueryEngine, Sliding};
//! use bas_sketch::{AtomicCountMedian, SketchParams};
//!
//! let params = SketchParams::new(1_000, 128, 5).with_seed(9);
//! let policy = Sliding::new(2).unwrap(); // last 2 intervals
//! let mut engine =
//!     QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), policy);
//!
//! for interval in 0..4u64 {
//!     engine.push(7, 10.0); // item 7 gets 10 per interval
//!     engine.advance_interval();
//! }
//! // Window = intervals 3..=4 (4 is in progress, still empty).
//! let window = engine.pin_window();
//! assert_eq!(window.estimate(7), 10.0); // one interval's worth, not 40
//! assert_eq!(window.mass(), 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod error;
mod policy;
mod rotate;
mod window;

pub use audit::AuditPolicy;
pub use error::QueryError;
pub use policy::{Policy, Sliding, Tumbling, Unbounded};
pub use rotate::RotatingEngine;
pub use window::WindowSnapshot;

use audit::AuditBudget;
use bas_pipeline::{EpochHandle, Generation, SnapshotHandle, WindowedIngest};
use bas_sketch::{
    AbsorbPlane, CounterBackend, HeavyHitter, MergeError, PointQuerySketch, RangeSumSketch,
    Reseedable, SealedPlane, SharedSketch, Snapshottable,
};
use bas_stream::StreamUpdate;

/// Every item whose estimate reaches `phi · mass`, by decreasing
/// estimate — the heavy-hitter query shared by the snapshot scan and
/// the window scans. `scan` appends the items at or above the threshold
/// it is given (a sketch's [`Snapshottable::items_at_least_in`], or a
/// window's summed estimates); this checks `phi`, answers nothing when
/// the mass is not positive, and sorts.
fn scan_heavy_hitters(
    mass: f64,
    phi: f64,
    scan: impl FnOnce(f64, &mut Vec<HeavyHitter>),
) -> Result<Vec<HeavyHitter>, QueryError> {
    QueryError::check_phi(phi)?;
    if mass <= 0.0 {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    scan(phi * mass, &mut out);
    out.sort_by(|a, b| b.estimate.total_cmp(&a.estimate).then(a.item.cmp(&b.item)));
    Ok(out)
}

/// A query engine over one concurrently-fed sketch: the write side is
/// a [`WindowedIngest`] generation ring (one writer, one live counter
/// plane, plus the seals or closed generations the [`Policy`]
/// retains), the read side is any number of clones of the live plane's
/// [`EpochHandle`] serving live and snapshot reads — see the crate docs
/// for the mode choice and the policy choice.
///
/// The `&mut self` methods are the single-producer write side (hand
/// the engine to your ingest thread); [`handle`](QueryEngine::handle)
/// clones are the multi-consumer read side (hand one to each reader
/// thread). Readers never block writers: snapshot pins retry across
/// in-flight flushes instead of locking them out.
///
/// When building the underlying sketch for a **new** engine, prefer
/// `SketchParams` with `HashKind::OneHash`: the batch kernels the
/// flush path runs hoist its single digest out of the row loop, which
/// is where serving throughput comes from. The classical kinds remain
/// the right choice for paper-conformance experiments and for engines
/// that must answer bit-for-bit like existing serialized sketches.
#[derive(Debug)]
pub struct QueryEngine<S: SharedSketch + Snapshottable + Reseedable + Send> {
    ingest: WindowedIngest<S>,
    policy: Policy,
    audit: Option<AuditBudget>,
}

impl<S: SharedSketch + Snapshottable + Reseedable + Send> QueryEngine<S> {
    /// Creates an [`Unbounded`] (since-boot) engine whose flushes write
    /// the plane on the calling thread (see
    /// [`bas_pipeline::ConcurrentIngest`]). The sketch must be built on
    /// a shared-capable backend (e.g. [`bas_sketch::Atomic`]).
    pub fn new(sketch: S) -> Self {
        Self::with_policy(1, sketch, Unbounded)
    }

    /// Creates an engine with an explicit serving policy (see the
    /// crate docs): [`Unbounded`], [`Tumbling`], [`Sliding`] or a
    /// [`Policy`]. The ring keeps what a window of `K` intervals can
    /// reach: [`Unbounded`] keeps nothing, a fixed-seed window `K`
    /// seals, and [`Policy::Rotating`] `K − 1` closed generations, the
    /// sketch's own seed being the master of its `SeedSchedule`.
    ///
    /// Flushes run on the calling thread, the plane's one writer, so
    /// `workers` must be 1; the argument stays only so existing
    /// callers (the `servebench` ladder) build unchanged.
    ///
    /// # Panics
    /// Panics unless `workers` is 1.
    pub fn with_policy(workers: usize, sketch: S, policy: impl Into<Policy>) -> Self {
        assert_eq!(workers, 1, "flushes have one writer: workers must be 1");
        let policy = policy.into();
        Self {
            ingest: policy.ring(sketch),
            policy,
            audit: None,
        }
    }

    /// Overrides the flush threshold (see
    /// [`bas_pipeline::ConcurrentIngest::with_flush_threshold`]); it
    /// carries over to every later generation. Smaller thresholds mean
    /// fresher snapshots (more flush boundaries) at more per-flush
    /// overhead.
    ///
    /// # Panics
    /// Panics if `updates` is zero.
    pub fn with_flush_threshold(mut self, updates: usize) -> Self {
        self.ingest = self.ingest.with_flush_threshold(updates);
        self
    }

    /// Installs a query audit on the point reads: one per-key budget
    /// that both [`audited_estimate_live`](Self::audited_estimate_live)
    /// and [`audited_point_in_window`](Self::audited_point_in_window)
    /// count against, renewed at every
    /// [`advance_interval`](Self::advance_interval). The unaudited reads
    /// stay exact and uncounted, for trusted readers.
    pub fn with_audit(mut self, policy: AuditPolicy) -> Self {
        self.audit = Some(AuditBudget::new(policy));
        self
    }

    /// The serving policy in effect.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    // ---- write side (single producer, `&mut self`) ----

    /// Buffers one update, flushing when the buffer fills.
    pub fn push(&mut self, item: u64, delta: f64) {
        self.ingest.push(item, delta);
    }

    /// Buffers a slice of updates, flushing as the buffer fills.
    pub fn extend_from_slice(&mut self, updates: &[(u64, f64)]) {
        self.ingest.extend_from_slice(updates);
    }

    /// Buffers a stream of [`StreamUpdate`]s, flushing as the buffer
    /// fills.
    pub fn extend_updates<I: IntoIterator<Item = StreamUpdate>>(&mut self, updates: I) {
        self.ingest.extend_updates(updates);
    }

    /// Applies all buffered updates now. After this returns, the next
    /// pinned snapshot captures everything pushed so far.
    pub fn flush(&mut self) {
        self.ingest.flush();
    }

    /// Flushes the remainder and returns the live plane's shared
    /// handle; the engine's write side is gone, readers (and their
    /// snapshots) remain valid.
    pub fn finish(self) -> EpochHandle<S> {
        self.ingest.finish()
    }

    // ---- read side (`&self`; or clone a handle per thread) ----

    /// The live plane's handle, for another thread (under
    /// [`Policy::Rotating`], the live generation's):
    /// `handle.sketch().estimate(item)` is a live lock-free read,
    /// [`EpochHandle::pin`] an epoch-consistent snapshot, and
    /// `applied()`/`mass()` the plane's stream position.
    pub fn handle(&self) -> EpochHandle<S> {
        self.ingest.shared().clone()
    }

    /// Live lock-free point estimate over the retained planes — see the
    /// crate docs for when the live mode is appropriate. Since boot
    /// under a fixed seed; under [`Policy::Rotating`] the sum of every
    /// retained generation's estimate, live first, each read in place
    /// through its own hashers.
    pub fn estimate_live(&self, item: u64) -> f64 {
        let live = self.ingest.shared().sketch().estimate(item);
        self.ingest
            .generations()
            .fold(live, |acc, g| acc + g.handle().sketch().estimate(item))
    }

    /// Pins an epoch-consistent snapshot of the live plane: everything
    /// flushed so far under a fixed seed, the live generation under
    /// [`Policy::Rotating`].
    pub fn pin(&self) -> SnapshotHandle<S> {
        self.ingest.shared().pin()
    }

    /// Heavy hitters as of a pinned snapshot: every item whose
    /// snapshot estimate reaches `phi` times the snapshot's total
    /// mass, sorted by decreasing estimate — the serving-side
    /// complement of the streaming [`bas_sketch::HeavyHitters`]
    /// tracker, with no tracker state to maintain on the hot write
    /// path. The whole universe is scanned through
    /// [`Snapshottable::items_at_least_in`]: one-hash Count-Median
    /// planes hash each item once and take a median only for items hot
    /// in at least half the rows; other sketches ask every item's
    /// estimate (`O(n·d)`).
    ///
    /// An empty (or net-non-positive) snapshot has no heavy hitters:
    /// with zero mass every threshold is vacuous, so the scan returns
    /// the empty list rather than the whole universe.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidPhi`] unless `0 < phi < 1`.
    pub fn try_heavy_hitters_in(
        &self,
        snap: &SnapshotHandle<S>,
        phi: f64,
    ) -> Result<Vec<HeavyHitter>, QueryError> {
        let sketch = self.ingest.shared().sketch();
        scan_heavy_hitters(snap.mass(), phi, |threshold, out| {
            sketch.items_at_least_in(snap.snapshot(), threshold, out)
        })
    }

    /// Panicking convenience over
    /// [`try_heavy_hitters_in`](QueryEngine::try_heavy_hitters_in).
    ///
    /// # Panics
    /// Panics with the [`QueryError`] message unless `0 < phi < 1`.
    pub fn heavy_hitters_in(&self, snap: &SnapshotHandle<S>, phi: f64) -> Vec<HeavyHitter> {
        self.try_heavy_hitters_in(snap, phi)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Heavy hitters over the retained planes: the window read with no
    /// boundary (see [`pin_window`](QueryEngine::pin_window)), so since
    /// boot under a fixed seed.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidPhi`] unless `0 < phi < 1`.
    pub fn try_heavy_hitters(&self, phi: f64) -> Result<Vec<HeavyHitter>, QueryError> {
        QueryError::check_phi(phi)?; // fail before paying for the pin
        self.pin_reaching(None)?.heavy_hitters(phi)
    }

    /// Panicking convenience over
    /// [`try_heavy_hitters`](QueryEngine::try_heavy_hitters).
    ///
    /// # Panics
    /// Panics with the [`QueryError`] message unless `0 < phi < 1`.
    pub fn heavy_hitters(&self, phi: f64) -> Vec<HeavyHitter> {
        self.try_heavy_hitters(phi)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    // ---- audited point reads ----

    /// [`estimate_live`](Self::estimate_live) behind the engine's audit
    /// (see [`with_audit`](Self::with_audit)); uncounted and exact
    /// without one.
    ///
    /// # Errors
    /// Returns [`QueryError::AuditRejected`] once `item`'s budget for
    /// the current interval is used up.
    pub fn audited_estimate_live(&self, item: u64) -> Result<f64, QueryError> {
        self.audited(item, || self.estimate_live(item))
    }

    /// [`point_in_window`](Self::point_in_window) behind the engine's
    /// audit, counted against the same per-key budget.
    ///
    /// # Errors
    /// Returns [`QueryError::AuditRejected`] once `item`'s budget for
    /// the current interval is used up.
    pub fn audited_point_in_window(&self, item: u64) -> Result<f64, QueryError> {
        self.audited(item, || self.point_in_window(item))
    }

    fn audited(&self, item: u64, read: impl FnOnce() -> f64) -> Result<f64, QueryError> {
        match &self.audit {
            Some(audit) => audit.answer(item, read),
            None => Ok(read()),
        }
    }

    // ---- bookkeeping ----

    /// Updates applied in completed flushes over the retained planes:
    /// since boot under a fixed seed, the window under
    /// [`Policy::Rotating`].
    pub fn applied(&self) -> u64 {
        self.ingest.applied()
    }

    /// Updates buffered but not yet flushed.
    pub fn pending(&self) -> usize {
        self.ingest.pending()
    }

    /// Total delta mass applied in completed flushes, over the same
    /// planes as [`applied`](QueryEngine::applied).
    pub fn mass(&self) -> f64 {
        self.ingest.mass()
    }

    /// The live plane's sketch (hash functions + live counters).
    pub fn sketch(&self) -> &S {
        self.ingest.shared().sketch()
    }

    /// Closes the current interval: flushes the buffered tail, then
    /// seals the cumulative plane into the bank (recycling the oldest
    /// slot allocation-free) or, under [`Policy::Rotating`], closes the
    /// live generation and starts the next under the schedule's next
    /// seed; renews every audit budget. Returns the id of the interval
    /// just closed. Drive it from a wall-clock tick, a
    /// [`bas_stream::drive_timestamped`] boundary callback, or any
    /// other notion of time.
    ///
    /// Under [`Unbounded`] the bank retains nothing, so this is a
    /// flush plus interval bookkeeping — the hook a serving fabric
    /// uses to rotate per-tenant admission quotas uniformly across
    /// windowed and since-boot tenants.
    ///
    /// # Panics
    /// Panics if the current interval is `u64::MAX` (see
    /// [`WindowedIngest::advance_interval`]).
    pub fn advance_interval(&mut self) -> u64 {
        let closed = self.ingest.advance_interval();
        if let Some(audit) = &self.audit {
            audit.reset();
        }
        closed
    }

    /// Id of the interval currently accepting updates.
    pub fn interval(&self) -> u64 {
        self.ingest.interval()
    }

    // ---- plane transfer (tenant rebalance by linearity) ----

    /// The bank of sealed cumulative planes (empty under [`Unbounded`]
    /// and [`Policy::Rotating`]) — read it to ship a windowed tenant's
    /// seals to another host.
    pub fn bank(&self) -> &bas_sketch::PlaneBank<S::Snapshot> {
        self.ingest.bank()
    }

    /// The closed generations, oldest first (empty unless
    /// [`Policy::Rotating`]) — read them to ship a rotating tenant.
    pub fn generations(&self) -> impl Iterator<Item = &Generation<S>> {
        self.ingest.generations()
    }

    /// Restores one seal or closed generation with its original
    /// bookkeeping (see [`WindowedIngest::restore_seal`]); they arrive
    /// oldest first, before [`restore_live`](Self::restore_live).
    ///
    /// # Errors
    /// Propagates the sketch's [`bas_sketch::AbsorbPlane`] rejection.
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
        self.ingest.restore_seal(interval, plane, applied, mass)
    }

    /// Restores the live plane at interval `interval`, last (see
    /// [`WindowedIngest::restore_live`]): a freshly built engine that
    /// restores a shipped tenant answers every later query bit-for-bit
    /// as the source would have (integer-delta streams).
    ///
    /// # Errors
    /// Propagates the sketch's [`bas_sketch::AbsorbPlane`] rejection
    /// with the counters untouched.
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

    // ---- window-scoped reads ----

    /// Pins a [`WindowSnapshot`]: epoch-consistent frozen planes of
    /// exactly the policy's current window, with the window's own
    /// `applied`/`mass` for thresholds. Without a boundary (during
    /// warm-up, when fewer intervals have closed than the window
    /// reaches back, and always under [`Unbounded`]) the window covers
    /// every retained plane: since boot under a fixed seed.
    ///
    /// Allocates one plane per generation per call; steady-state
    /// readers hold a snapshot and
    /// [`refresh_window`](QueryEngine::refresh_window) it.
    pub fn pin_window(&self) -> WindowSnapshot<S> {
        let mut ws = WindowSnapshot::new(self.ingest.shared());
        self.refresh_window(&mut ws);
        ws
    }

    /// Re-pins `ws` against the policy's *current* window, reusing its
    /// plane buffers — the allocation-free steady-state path (the
    /// windowed counterpart of
    /// [`SnapshotHandle::refresh`](bas_pipeline::SnapshotHandle::refresh)).
    ///
    /// # Panics
    /// Panics if `ws` was pinned from a differently-configured engine
    /// (plane shape mismatch).
    pub fn refresh_window(&self, ws: &mut WindowSnapshot<S>) {
        let boundary = self.policy.window_boundary(self.ingest.interval());
        let cut = self
            .cut(boundary)
            .expect("policy boundaries stay within retention");
        self.fill_window(ws, boundary, cut);
    }

    /// Pins a window reaching back to the **end of interval
    /// `boundary`** instead of the policy's own boundary — the manual
    /// form for ad-hoc lookback (covers intervals
    /// `boundary + 1 ..= current`).
    ///
    /// # Errors
    /// Returns [`QueryError::WindowUnavailable`] when the ring no
    /// longer retains what the window reaches back to: interval
    /// `boundary`'s seal under a fixed seed, or a closed generation
    /// after it under [`Policy::Rotating`].
    pub fn pin_window_since(&self, boundary: u64) -> Result<WindowSnapshot<S>, QueryError> {
        self.pin_reaching(Some(boundary))
    }

    fn pin_reaching(&self, boundary: Option<u64>) -> Result<WindowSnapshot<S>, QueryError> {
        let cut = self.cut(boundary)?;
        let mut ws = WindowSnapshot::new(self.ingest.shared());
        self.fill_window(&mut ws, boundary, cut);
        Ok(ws)
    }

    /// Where a read over the intervals `(boundary, now]` cuts the ring:
    /// the seal to subtract from the live generation of a fixed-seed
    /// ring, or `None` when the read takes whole generations.
    ///
    /// # Errors
    /// [`QueryError::WindowUnavailable`] when the ring no longer
    /// retains what the read reaches back to.
    fn cut(&self, boundary: Option<u64>) -> Result<Option<&SealedPlane<S::Snapshot>>, QueryError> {
        let Some(b) = boundary else { return Ok(None) };
        let unavailable = QueryError::WindowUnavailable { interval: b };
        if !self.ingest.rotates() {
            return self.ingest.bank().sealed(b).map(Some).ok_or(unavailable);
        }
        let current = self.ingest.interval();
        let oldest = self.ingest.generations().next();
        if b >= current || b + 1 < oldest.map_or(current, |g| g.interval()) {
            return Err(unavailable);
        }
        Ok(None)
    }

    /// The one read rule. A read over the intervals `(boundary, now]`
    /// visits each retained generation the range overlaps, live first,
    /// then closed generations oldest first. A generation wholly inside
    /// the range is read as it stands. The boundary can cut at most one
    /// generation, the live one of a fixed-seed ring: it is pinned and
    /// `cut`, the seal of `boundary`, is subtracted. No boundary reads
    /// every retained plane.
    fn fill_window(
        &self,
        ws: &mut WindowSnapshot<S>,
        boundary: Option<u64>,
        cut: Option<&SealedPlane<S::Snapshot>>,
    ) {
        // `cut` accepted `boundary`, so it lies before the interval in
        // progress.
        let start = boundary.map_or(0, |b| b + 1);
        let closed = self.ingest.generations().filter(|g| g.interval() >= start);
        ws.fill(self.ingest.shared(), closed.map(|g| g.handle()), cut);
        ws.start_interval = start;
        ws.end_interval = self.ingest.interval();
    }

    /// Point estimate of `x_item` **within the current window** — the
    /// windowed counterpart of a snapshot point read. Under a fixed
    /// seed it pins a fresh window per call (allocates); batch several
    /// queries through one [`pin_window`](QueryEngine::pin_window)
    /// instead when serving a stream of them. Under
    /// [`Policy::Rotating`] no boundary cuts a generation, so the
    /// window is every retained generation, read in place like
    /// [`estimate_live`](QueryEngine::estimate_live), with no pin.
    pub fn point_in_window(&self, item: u64) -> f64 {
        if self.ingest.rotates() {
            return self.estimate_live(item);
        }
        self.pin_window().estimate(item)
    }

    /// Heavy hitters **within the current window**: every item whose
    /// window estimate reaches `phi` times the window's mass, sorted
    /// by decreasing estimate — "heavy in the last K intervals", the
    /// time-scoped question operators actually ask.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidPhi`] unless `0 < phi < 1`.
    pub fn heavy_hitters_in_window(&self, phi: f64) -> Result<Vec<HeavyHitter>, QueryError> {
        QueryError::check_phi(phi)?; // fail before paying for the pin
        self.pin_window().heavy_hitters(phi)
    }
}

impl<B: CounterBackend> QueryEngine<RangeSumSketch<B>>
where
    RangeSumSketch<B>: SharedSketch,
{
    /// Range sum `Σ_{a ≤ i ≤ b} x_i` **within the current window**.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidRange`] if `a > b` or `b ≥ n`.
    pub fn range_sum_in_window(&self, a: u64, b: u64) -> Result<f64, QueryError> {
        QueryError::check_range(a, b, self.sketch().universe())?;
        self.pin_window().range_sum(a, b)
    }

    /// Convenience: one range query over the retained planes (since
    /// boot under a fixed seed), pinned fresh.
    ///
    /// # Panics
    /// Panics if `a > b` or `b ≥ n`.
    pub fn range_sum(&self, a: u64, b: u64) -> f64 {
        self.pin_reaching(None)
            .and_then(|ws| ws.range_sum(a, b))
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_sketch::{Atomic, AtomicCountMedian, CountMedian, PointQuerySketch, SketchParams};

    fn params() -> SketchParams {
        SketchParams::new(500, 64, 5).with_seed(77)
    }

    fn stream(len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| (i * 11 % 500, (1 + i % 3) as f64))
            .collect()
    }

    #[test]
    fn snapshot_equals_quiesced_reference_at_flush_boundary() {
        let updates = stream(4_000);
        let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()))
            .with_flush_threshold(1_000);
        engine.extend_from_slice(&updates);
        let snap = engine.pin();
        assert_eq!(snap.applied(), 4_000);
        let mut reference = CountMedian::new(&params());
        reference.update_batch(&updates);
        for j in 0..500u64 {
            assert_eq!(snap.estimate(j), reference.estimate(j), "item {j}");
            assert_eq!(engine.estimate_live(j), reference.estimate(j), "item {j}");
        }
    }

    #[test]
    fn readers_run_concurrently_with_the_writer() {
        let updates = stream(50_000);
        let total_mass: f64 = updates.iter().map(|&(_, d)| d).sum();
        let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()))
            .with_flush_threshold(2_000);
        let readers: Vec<EpochHandle<_>> = (0..2).map(|_| engine.handle()).collect();
        std::thread::scope(|scope| {
            for reader in readers {
                scope.spawn(move || {
                    let mut snap = reader.pin();
                    for round in 0..50 {
                        snap.refresh();
                        // Non-negative stream: a consistent prefix can
                        // never exceed the final mass.
                        assert!(snap.mass() <= total_mass + 1e-9, "round {round}");
                        for j in (0..500u64).step_by(41) {
                            assert!(snap.estimate(j) <= snap.mass() + 1e-9);
                            let _ = reader.sketch().estimate(j);
                        }
                    }
                });
            }
            engine.extend_from_slice(&updates);
            engine.flush();
        });
        assert_eq!(engine.applied(), 50_000);
        assert_eq!(engine.mass(), total_mass);
    }

    #[test]
    fn heavy_hitter_scan_finds_planted_items() {
        let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()));
        for _ in 0..300 {
            engine.push(7, 1.0);
            engine.push(9, 1.0);
        }
        for i in 0..400u64 {
            engine.push(i, 1.0);
        }
        engine.flush();
        let found = engine.heavy_hitters(0.2);
        let items: Vec<u64> = found.iter().map(|h| h.item).collect();
        assert!(items.contains(&7) && items.contains(&9), "{items:?}");
        assert!(items.len() <= 4, "{items:?}");
        // Sorted by decreasing estimate.
        for w in found.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
        // The typed path returns the same list.
        assert_eq!(engine.try_heavy_hitters(0.2).unwrap(), found);
    }

    #[test]
    fn range_sum_engine_serves_range_queries() {
        let p = SketchParams::new(256, 128, 5).with_seed(6);
        let mut engine =
            QueryEngine::new(RangeSumSketch::<Atomic>::with_backend(&p)).with_flush_threshold(64);
        engine.push(10, 5.0);
        engine.push(20, 3.0);
        engine.push(200, 2.0);
        engine.flush();
        let est = engine.range_sum(0, 100);
        assert!((est - 8.0).abs() < 1.0, "est = {est}");
    }

    #[test]
    fn finish_leaves_readers_alive() {
        let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()));
        let reader = engine.handle();
        engine.push(3, 4.0);
        let shared = engine.finish();
        assert_eq!(shared.sketch().estimate(3), 4.0);
        assert_eq!(reader.sketch().estimate(3), 4.0);
        assert_eq!(reader.pin().estimate(3), 4.0);
    }

    #[test]
    fn heavy_hitters_on_an_empty_engine_is_empty() {
        // Zero mass means every threshold is vacuous; the scan must
        // return nothing, not the entire universe.
        let engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()));
        assert!(engine.heavy_hitters(0.05).is_empty());
    }

    #[test]
    #[should_panic(expected = "phi must be in (0,1)")]
    fn heavy_hitters_rejects_bad_phi() {
        let engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()));
        let _ = engine.heavy_hitters(1.0);
    }

    #[test]
    fn typed_rejection_carries_the_parameter() {
        let engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()));
        assert_eq!(
            engine.try_heavy_hitters(1.0),
            Err(QueryError::InvalidPhi { phi: 1.0 })
        );
    }

    // ---- windowed serving ----

    /// One interval's worth of deterministic integer-delta traffic,
    /// distinct per interval.
    fn interval_stream(interval: u64, len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| {
                (
                    (i * 13 + interval * 29) % 500,
                    (1 + (i + interval) % 4) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn sliding_window_matches_reference_over_exactly_k_intervals() {
        let policy = Sliding::new(2).unwrap();
        let mut engine =
            QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy);
        let mut per_interval = Vec::new();
        for t in 0..5u64 {
            let updates = interval_stream(t, 800);
            engine.extend_from_slice(&updates);
            per_interval.push(updates);
            engine.advance_interval();
        }
        // Interval 5 is in progress and empty; window = intervals 4, 5.
        assert_eq!(engine.interval(), 5);
        let window = engine.pin_window();
        assert_eq!(window.start_interval(), 4);
        assert_eq!(window.end_interval(), 5);
        assert_eq!(window.applied(), 800);
        let mut reference = CountMedian::new(&params());
        reference.update_batch(&per_interval[4]);
        for j in 0..500u64 {
            assert_eq!(window.estimate(j), reference.estimate(j), "item {j}");
            assert_eq!(engine.point_in_window(j), reference.estimate(j));
        }
    }

    #[test]
    fn tumbling_window_resets_at_bucket_boundaries() {
        let policy = Tumbling::new(2).unwrap();
        let mut engine =
            QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy);
        // Bucket 0 = intervals 0,1; bucket 1 = intervals 2,3.
        for _ in 0..3u64 {
            engine.push(7, 10.0);
            engine.advance_interval();
        }
        engine.push(7, 10.0);
        engine.flush();
        // In-progress interval 3: bucket 1 covers intervals 2..=3 only.
        let window = engine.pin_window();
        assert_eq!(window.start_interval(), 2);
        assert_eq!(window.estimate(7), 20.0);
        assert_eq!(window.mass(), 20.0);
        // Since-boot reads are untouched by the policy.
        assert_eq!(engine.estimate_live(7), 40.0);
        assert_eq!(engine.pin().estimate(7), 40.0);
    }

    #[test]
    fn warm_up_window_covers_since_boot() {
        let sliding = Sliding::new(4).unwrap();
        for policy in [Policy::Sliding(sliding), Policy::Rotating(sliding)] {
            let mut engine =
                QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy);
            engine.push(3, 5.0);
            engine.advance_interval();
            engine.push(3, 2.0);
            engine.flush();
            // Only 1 closed interval < window of 4: everything counts.
            let window = engine.pin_window();
            assert_eq!(window.start_interval(), 0, "{policy:?}");
            assert_eq!(window.estimate(3), 7.0);
            assert_eq!(window.mass(), 7.0);
        }
    }

    #[test]
    fn refresh_window_reuses_the_plane_and_tracks_rotation() {
        let sliding = Sliding::new(1).unwrap();
        for policy in [Policy::Sliding(sliding), Policy::Rotating(sliding)] {
            let mut engine =
                QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy);
            engine.push(9, 4.0);
            engine.advance_interval();
            let mut window = engine.pin_window();
            assert_eq!(window.estimate(9), 0.0); // interval 1 is empty so far
            engine.push(9, 6.0);
            engine.advance_interval(); // now window = interval 2 (empty)
            engine.push(9, 1.0);
            engine.flush();
            engine.refresh_window(&mut window);
            assert_eq!(window.start_interval(), 2, "{policy:?}");
            assert_eq!(window.estimate(9), 1.0);
            assert_eq!(window.mass(), 1.0);
        }
    }

    #[test]
    fn window_heavy_hitters_see_only_the_window() {
        let policy = Sliding::new(1).unwrap();
        let mut engine =
            QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy);
        // Interval 0: item 7 dominates. Interval 1: item 9 dominates.
        for _ in 0..100 {
            engine.push(7, 1.0);
        }
        for i in 0..100u64 {
            engine.push(i % 50, 1.0);
        }
        engine.advance_interval();
        for _ in 0..100 {
            engine.push(9, 1.0);
        }
        for i in 0..100u64 {
            engine.push((i % 50) + 100, 1.0);
        }
        engine.flush();
        let hot = engine.heavy_hitters_in_window(0.2).unwrap();
        let items: Vec<u64> = hot.iter().map(|h| h.item).collect();
        assert!(items.contains(&9), "{items:?}");
        assert!(
            !items.contains(&7),
            "window must exclude interval 0: {items:?}"
        );
        // The since-boot scan still sees both.
        let all: Vec<u64> = engine.heavy_hitters(0.2).iter().map(|h| h.item).collect();
        assert!(all.contains(&7) && all.contains(&9), "{all:?}");
    }

    #[test]
    fn windowed_range_sums_scope_the_decomposition() {
        let p = SketchParams::new(256, 128, 5).with_seed(6);
        let policy = Sliding::new(1).unwrap();
        let mut engine =
            QueryEngine::with_policy(1, RangeSumSketch::<Atomic>::with_backend(&p), policy);
        engine.push(10, 5.0);
        engine.advance_interval();
        engine.push(20, 3.0);
        engine.flush();
        let est = engine.range_sum_in_window(0, 100).unwrap();
        assert!((est - 3.0).abs() < 1.0, "window est = {est}");
        let since_boot = engine.range_sum(0, 100);
        assert!(
            (since_boot - 8.0).abs() < 1.0,
            "since-boot est = {since_boot}"
        );
        assert_eq!(
            engine.range_sum_in_window(10, 5),
            Err(QueryError::InvalidRange {
                a: 10,
                b: 5,
                n: 256
            })
        );
    }

    #[test]
    fn pin_window_since_rejects_evicted_boundaries() {
        let sliding = Sliding::new(2).unwrap();
        for policy in [Policy::Sliding(sliding), Policy::Rotating(sliding)] {
            let mut engine =
                QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy);
            for t in 0..5u64 {
                engine.push(t, 1.0);
                engine.advance_interval();
            }
            // Seals 3 and 4 retained, or generation 4: a window may
            // start at interval 4 or 5, and no earlier.
            assert!(engine.pin_window_since(3).is_ok());
            for boundary in [0, 5, u64::MAX] {
                assert_eq!(
                    engine.pin_window_since(boundary).unwrap_err(),
                    QueryError::WindowUnavailable { interval: boundary },
                    "{policy:?}"
                );
            }
            let lookback = engine.pin_window_since(3).unwrap();
            assert_eq!(lookback.start_interval(), 4);
            assert_eq!(lookback.applied(), 1); // interval 4's single update
        }
    }

    #[test]
    fn window_snapshot_is_frozen_and_sendable() {
        let policy = Sliding::new(1).unwrap();
        let mut engine =
            QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy);
        engine.push(5, 3.0);
        engine.advance_interval();
        engine.push(5, 4.0);
        engine.flush();
        let window = engine.pin_window();
        let frozen = window.estimate(5);
        assert_eq!(frozen, 4.0);
        engine.push(5, 100.0);
        engine.flush();
        // The pinned window does not move; queries work from any thread.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_eq!(window.estimate(5), frozen);
                assert_eq!(window.planes().next().unwrap().0.label(), "CM");
            });
        });
    }

    #[test]
    fn policy_accessors() {
        let engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()));
        assert_eq!(engine.policy(), Policy::Unbounded);
        let sliding = Sliding::new(3).unwrap();
        let windowed =
            QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), sliding);
        assert_eq!(windowed.policy(), Policy::Sliding(sliding));
        let rotating = QueryEngine::with_policy(
            1,
            AtomicCountMedian::with_backend(&params()),
            Policy::Rotating(sliding),
        );
        assert_eq!(rotating.policy(), Policy::Rotating(sliding));
    }

    #[test]
    fn unbounded_windows_reach_back_to_boot() {
        let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params()));
        engine.push(3, 5.0);
        engine.advance_interval();
        engine.push(3, 2.0);
        engine.flush();
        assert!(engine.bank().is_empty());
        let window = engine.pin_window();
        assert_eq!((window.start_interval(), window.end_interval()), (0, 1));
        assert_eq!(window.estimate(3), 7.0);
        assert_eq!(engine.point_in_window(3), engine.estimate_live(3));
    }
    // ---- seed rotation ----

    fn rotating(window: usize) -> QueryEngine<AtomicCountMedian> {
        let policy = Policy::Rotating(Sliding::new(window).unwrap());
        QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy)
    }

    #[test]
    fn rotating_window_sums_generation_estimates() {
        // Generation 0 runs under the engine's own seed: before the
        // first advance the engine is the fixed-seed one.
        let mut engine = rotating(3);
        let mut fixed = CountMedian::new(&params());
        let updates = interval_stream(0, 500);
        engine.extend_from_slice(&updates);
        fixed.update_batch(&updates);
        engine.flush();
        for j in 0..500u64 {
            assert_eq!(engine.point_in_window(j), fixed.estimate(j), "item {j}");
        }

        // Wide sketch, sparse stream: every per-generation estimate is
        // exact, so the window sum is exact too.
        let mut engine = rotating(3);
        for interval in 0..4u64 {
            engine.push(7, 10.0);
            engine.push(interval + 100, 1.0);
            engine.advance_interval();
        }
        engine.push(7, 5.0);
        engine.flush();
        // Window = generations 2, 3 + live interval 4, read in place
        // or pinned.
        assert_eq!(engine.estimate_live(7), 25.0);
        assert_eq!(engine.point_in_window(7), 25.0);
        assert_eq!(engine.pin_window().estimate(7), 25.0);
        assert_eq!((engine.mass(), engine.applied()), (27.0, 5));
        // `pin` and `handle` read the live generation alone.
        assert_eq!(engine.pin().estimate(7), 5.0);
        assert_eq!(engine.handle().sketch().estimate(7), 5.0);

        // Generation g runs under seed_for(g).
        let schedule = bas_hash::SeedSchedule::new(77);
        assert_eq!(engine.sketch().config().seed, schedule.seed_for(4));
        let seeds: Vec<u64> = engine
            .generations()
            .map(|g| g.handle().sketch().config().seed)
            .collect();
        assert_eq!(seeds, [schedule.seed_for(2), schedule.seed_for(3)]);
    }

    #[test]
    fn rotating_window_tracks_reference_per_interval_truth() {
        // Denser traffic: window answers stay within the sum of the
        // per-generation Theorem-1 bounds (3·mass_g/s each).
        let mut engine = rotating(2).with_flush_threshold(256);
        let mut last_truth = vec![0.0; 500];
        for t in 0..3u64 {
            let updates = interval_stream(t, 600);
            last_truth = vec![0.0; 500];
            for &(item, delta) in &updates {
                last_truth[item as usize] += delta;
            }
            engine.extend_from_slice(&updates);
            engine.advance_interval();
        }
        engine.flush();
        // Window = generation 2 + empty live interval 3.
        let bound = 3.0 * last_truth.iter().sum::<f64>() / 64.0;
        for j in 0..500u64 {
            let err = (engine.point_in_window(j) - last_truth[j as usize]).abs();
            assert!(err <= bound, "item {j}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn rotating_window_heavy_hitters_see_across_generations() {
        let mut engine = rotating(3);
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
        let hot = engine.heavy_hitters_in_window(0.25).unwrap();
        let items: Vec<u64> = hot.iter().map(|h| h.item).collect();
        assert!(items.contains(&9), "{items:?}");
        assert_eq!(engine.try_heavy_hitters(0.25).unwrap(), hot);
        assert_eq!(
            engine.heavy_hitters_in_window(0.0),
            Err(QueryError::InvalidPhi { phi: 0.0 })
        );
        // A window of one empty generation: vacuous.
        assert!(rotating(1).heavy_hitters_in_window(0.5).unwrap().is_empty());
    }

    #[test]
    fn one_audit_budget_counts_every_point_verb_and_renews_on_advance() {
        let sliding = Sliding::new(2).unwrap();
        for policy in [Policy::Sliding(sliding), Policy::Rotating(sliding)] {
            let engine =
                QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params()), policy);
            let mut engine = engine.with_audit(AuditPolicy::new(2));
            engine.push(7, 30.0);
            engine.flush();
            assert_eq!(engine.audited_estimate_live(7), Ok(30.0));
            assert_eq!(engine.audited_point_in_window(7), Ok(30.0));
            let rejected = Err(QueryError::AuditRejected { item: 7, limit: 2 });
            assert_eq!(engine.audited_point_in_window(7), rejected, "{policy:?}");
            assert_eq!(engine.audited_estimate_live(7), rejected);
            // Unbudgeted keys still answer; the exact reads are
            // unthrottled.
            assert_eq!(engine.audited_estimate_live(8), Ok(0.0));
            assert_eq!(engine.point_in_window(7), 30.0);
            // An advance renews the budget.
            engine.advance_interval();
            assert_eq!(engine.audited_point_in_window(7), Ok(30.0));
        }
        // Without an audit every read is answered, uncounted.
        let mut engine = rotating(1);
        engine.push(3, 4.0);
        engine.flush();
        for _ in 0..100 {
            assert_eq!(engine.audited_point_in_window(3), Ok(4.0));
        }
    }
}
