//! The shared ingester: one writer per counter plane, feeding **one**
//! `Atomic`-backed sketch that snapshot readers copy while it is
//! written.
//!
//! Where [`ShardedIngest`](crate::ShardedIngest) buys parallelism with
//! memory — `k` same-seed shard copies, `k×` the counter space, merged
//! at the end — [`ConcurrentIngest`] keeps the small-space promise that
//! motivates sketching in the first place: one counter plane, `1×`
//! memory, written through the storage layer's single-writer
//! [`SharedSketch`] path. No merge step, no shard copies, and the
//! sketch is queryable the moment a flush returns. The concurrency is
//! between the one writer and its readers, not among writers.

use crate::buffer::IngestBuffer;
use crate::epoch::EpochHandle;
use bas_sketch::SharedSketch;
use bas_stream::StreamUpdate;

/// Buffers an update stream and applies it in flushes to **one**
/// shared plane, an [`EpochHandle`] over a [`SharedSketch`].
///
/// The sketch must be built on a shared-capable counter backend —
/// in practice [`bas_sketch::storage::Atomic`], e.g.
/// [`bas_sketch::AtomicCountSketch`]. Each time the buffer reaches the
/// flush threshold the calling thread applies it in one write section
/// ([`EpochSketch::write`](crate::EpochSketch::write)), through the
/// same blocked kernel as exclusive batch ingest.
///
/// **Memory.** A width-`s`, depth-`d` sketch costs `s·d` counter words
/// here versus `k·s·d` under `ShardedIngest` with `k` shards — the
/// difference between one compact shared summary and per-thread copies.
///
/// **Exactness.** Every cell receives its increments in stream order,
/// so the result is **bit-for-bit** equal to single-threaded exclusive
/// ingest for any deltas — asserted on fractional streams, with
/// concurrent readers, by `tests/concurrent_ingest.rs`.
///
/// **Consistency.** Readers holding a clone of the handle pin
/// snapshots that always sit on a flush boundary; between `push`/`flush`
/// calls no writer is live, so live reads observe a fully settled
/// state.
///
/// ```
/// use bas_pipeline::{ConcurrentIngest, EpochHandle};
/// use bas_sketch::{AtomicCountSketch, CountSketch, PointQuerySketch, SketchParams};
///
/// let params = SketchParams::new(10_000, 128, 5).with_seed(3);
/// let live = EpochHandle::new(AtomicCountSketch::with_backend(&params));
/// let mut ingest = ConcurrentIngest::new(live);
/// for i in 0..20_000u64 {
///     ingest.push(i % 10_000, 0.25 * (i % 7) as f64);
/// }
/// let shared = ingest.finish();
///
/// // One shared sketch == the single-threaded exclusive sketch.
/// let mut reference = CountSketch::new(&params);
/// for i in 0..20_000u64 {
///     reference.update(i % 10_000, 0.25 * (i % 7) as f64);
/// }
/// assert_eq!(shared.sketch().estimate(42), reference.estimate(42));
/// assert_eq!(shared.applied(), 20_000);
/// ```
#[derive(Debug)]
pub struct ConcurrentIngest<S> {
    live: EpochHandle<S>,
    buf: IngestBuffer,
}

impl<S: SharedSketch> ConcurrentIngest<S> {
    /// Default number of buffered updates that triggers a flush — same
    /// sizing rationale as
    /// [`ShardedIngest::DEFAULT_FLUSH_THRESHOLD`](crate::ShardedIngest::DEFAULT_FLUSH_THRESHOLD).
    pub const DEFAULT_FLUSH_THRESHOLD: usize = IngestBuffer::DEFAULT_FLUSH_THRESHOLD;

    /// Creates an ingester whose flushes write `live` on the calling
    /// thread. Keep a clone of the handle to read the plane.
    pub fn new(live: EpochHandle<S>) -> Self {
        Self {
            live,
            buf: IngestBuffer::new(),
        }
    }

    /// Overrides the flush threshold (mostly for tests and benches).
    ///
    /// # Panics
    /// Panics if `updates` is zero.
    pub fn with_flush_threshold(mut self, updates: usize) -> Self {
        self.buf.set_flush_threshold(updates);
        self
    }

    /// Updates applied to the shared sketch so far (excludes buffered).
    pub fn total_updates(&self) -> u64 {
        self.buf.total_updates()
    }

    /// Flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.buf.flushes()
    }

    /// Updates currently buffered, waiting for the next flush.
    pub fn pending(&self) -> usize {
        self.buf.pending()
    }

    /// The plane this ingester writes. Its counters reflect every
    /// update already flushed; buffered updates are not yet visible
    /// (call [`flush`](ConcurrentIngest::flush) first for a
    /// point-in-time exact view).
    pub fn shared(&self) -> &EpochHandle<S> {
        &self.live
    }

    /// Buffers one update `x_item ← x_item + delta`, flushing when the
    /// buffer is full.
    pub fn push(&mut self, item: u64, delta: f64) {
        if self.buf.push(item, delta) {
            self.flush();
        }
    }

    /// Buffers a slice of updates, flushing as the buffer fills.
    pub fn extend_from_slice(&mut self, mut updates: &[(u64, f64)]) {
        while !updates.is_empty() {
            updates = self.buf.fill(updates);
            if self.buf.is_full() {
                self.flush();
            }
        }
    }

    /// Buffers a stream of [`StreamUpdate`]s (the `bas-stream` update
    /// model), flushing as the buffer fills.
    pub fn extend_updates<I: IntoIterator<Item = StreamUpdate>>(&mut self, updates: I) {
        for u in updates {
            self.push(u.item, u.delta);
        }
    }

    /// Applies all buffered updates now, on the calling thread, in one
    /// write section ([`EpochSketch::write`](crate::EpochSketch::write)).
    /// Returns with the plane settled.
    pub fn flush(&mut self) {
        let live = &self.live;
        self.buf.drain(|pending| live.write(pending));
    }

    /// Flushes the remainder and returns the plane. Unlike
    /// [`ShardedIngest::finish`](crate::ShardedIngest::finish) there is
    /// nothing to merge — the counters were shared all along.
    pub fn finish(mut self) -> EpochHandle<S> {
        self.flush();
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_sketch::{
        AtomicCountMedian, AtomicCountSketch, CountMedian, PointQuerySketch, SketchParams,
    };

    fn params() -> SketchParams {
        SketchParams::new(500, 64, 5).with_seed(9)
    }

    /// Fractional-delta stream: every cell gets its increments in
    /// stream order, so the shared sketch must reproduce the
    /// single-threaded sketch bit-for-bit.
    fn stream(len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| (i * 7 % 500, 0.1 + (i % 5) as f64 / 3.0))
            .collect()
    }

    #[test]
    fn concurrent_equals_single_threaded_exactly() {
        let updates = stream(10_000);
        let mut ingest =
            ConcurrentIngest::new(EpochHandle::new(AtomicCountMedian::with_backend(&params())))
                .with_flush_threshold(1_000);
        ingest.extend_from_slice(&updates);
        let shared = ingest.finish();
        let shared = shared.sketch();
        let mut reference = CountMedian::new(&params());
        reference.update_batch(&updates);
        for j in 0..500u64 {
            assert_eq!(
                shared.estimate(j).to_bits(),
                reference.estimate(j).to_bits(),
                "item {j}"
            );
        }
    }

    #[test]
    fn push_and_slice_and_stream_apis_agree() {
        let updates = stream(3_000);
        let mut by_push =
            ConcurrentIngest::new(EpochHandle::new(AtomicCountSketch::with_backend(&params())));
        for &(i, d) in &updates {
            by_push.push(i, d);
        }
        let mut by_slice =
            ConcurrentIngest::new(EpochHandle::new(AtomicCountSketch::with_backend(&params())));
        by_slice.extend_from_slice(&updates);
        let mut by_stream =
            ConcurrentIngest::new(EpochHandle::new(AtomicCountSketch::with_backend(&params())));
        by_stream.extend_updates(updates.iter().map(|&(i, d)| StreamUpdate::new(i, d)));
        let (a, b, c) = (by_push.finish(), by_slice.finish(), by_stream.finish());
        let (a, b, c) = (a.sketch(), b.sketch(), c.sketch());
        for j in (0..500u64).step_by(17) {
            assert_eq!(a.estimate(j), b.estimate(j), "item {j}");
            assert_eq!(a.estimate(j), c.estimate(j), "item {j}");
        }
    }

    #[test]
    fn counters_track_flushes_and_mid_stream_queries_work() {
        let mut ingest =
            ConcurrentIngest::new(EpochHandle::new(AtomicCountMedian::with_backend(&params())))
                .with_flush_threshold(100);
        for (i, d) in stream(250) {
            ingest.push(i, d);
        }
        assert_eq!(ingest.flushes(), 2);
        assert_eq!(ingest.total_updates(), 200);
        assert_eq!(ingest.pending(), 50);
        // Mid-stream query: flushed state is settled and visible.
        let _ = ingest.shared().sketch().estimate(3);
        ingest.flush();
        assert_eq!(ingest.pending(), 0);
        let _ = ingest.finish();
    }

    #[test]
    fn a_single_update_is_applied() {
        let mut ingest =
            ConcurrentIngest::new(EpochHandle::new(AtomicCountMedian::with_backend(&params())));
        ingest.push(3, 2.0);
        let sk = ingest.finish();
        assert_eq!(sk.sketch().estimate(3), 2.0);
        assert_eq!((sk.applied(), sk.mass()), (1, 2.0));
    }

    #[test]
    fn empty_stream_yields_empty_sketch() {
        let ingest =
            ConcurrentIngest::new(EpochHandle::new(AtomicCountMedian::with_backend(&params())));
        let sk = ingest.finish();
        for j in (0..500u64).step_by(31) {
            assert_eq!(sk.sketch().estimate(j), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "flush threshold must be positive")]
    fn zero_threshold_rejected() {
        let _ = ConcurrentIngest::new(EpochHandle::new(AtomicCountMedian::with_backend(&params())))
            .with_flush_threshold(0);
    }
}
