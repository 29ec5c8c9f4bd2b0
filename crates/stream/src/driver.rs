//! Chunked driver: turn a stream of [`StreamUpdate`]s into fixed-size
//! batches for the sketches' `update_batch` fast path.
//!
//! The sketches' batched ingest amortizes per-row hash-state setup over
//! a whole batch, but real streams arrive one update at a time. This
//! module is the missing glue: it buffers updates into `(item, delta)`
//! chunks and hands each full chunk to a sink — typically a closure
//! calling `update_batch`, or a `bas-pipeline` sharded ingester.
//!
//! The driver is storage-agnostic: since the counter-matrix refactor
//! the same chunks feed either an exclusive sketch
//! (`|chunk| sketch.update_batch(chunk)`) or a shared atomic-backed one
//! through its single-writer `&self` path
//! (`|chunk| shared.update_batch_shared(chunk)`), which is how a
//! receive loop can be the one writer of a sketch that readers copy
//! from other threads.

use crate::update::{StreamUpdate, TimestampedUpdate};

/// Default chunk size for [`drive_chunked`] / [`ChunkedDriver`]: big
/// enough to amortize per-row setup, small enough that a chunk of
/// 16-byte updates stays L2-resident.
pub const DEFAULT_CHUNK_SIZE: usize = 8_192;

/// Drives an update stream into `sink` in chunks of `chunk_size`,
/// flushing the final partial chunk. Returns the number of updates
/// delivered.
///
/// Because the sketches' `update_batch` is exactly equivalent to the
/// one-by-one loop, chunking never changes the sketch state — only the
/// throughput.
///
/// ```
/// use bas_stream::{drive_chunked, StreamUpdate};
///
/// let stream = (0..10u64).map(StreamUpdate::arrival);
/// let mut batches = Vec::new();
/// let total = drive_chunked(stream, 4, |chunk| batches.push(chunk.to_vec()));
/// assert_eq!(total, 10);
/// assert_eq!(batches.len(), 3); // 4 + 4 + 2
/// assert_eq!(batches[2], vec![(8, 1.0), (9, 1.0)]);
/// ```
///
/// # Panics
/// Panics if `chunk_size` is zero.
pub fn drive_chunked<I, F>(updates: I, chunk_size: usize, mut sink: F) -> u64
where
    I: IntoIterator<Item = StreamUpdate>,
    F: FnMut(&[(u64, f64)]),
{
    let mut driver = ChunkedDriver::new(chunk_size);
    for u in updates {
        driver.push(u, &mut sink);
    }
    driver.finish(&mut sink)
}

/// Stream position handed to the probe callback of [`drive_probed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveProgress {
    /// Updates delivered to the sink so far.
    pub delivered: u64,
    /// Full or final-partial chunks delivered so far.
    pub chunks: u64,
}

/// [`drive_chunked`] with a mid-stream **probe**: after every
/// `probe_every` delivered chunks — and once more after the final
/// flush — `probe` runs with the current stream position, while the
/// driver (and therefore the sink) is between chunks.
///
/// This is the glue for serving queries mid-stream: the sink feeds a
/// query engine's ingest path and the probe issues queries against the
/// same engine, so reads interleave with ingest at deterministic
/// stream positions (every `probe_every · chunk_size` updates) instead
/// of wherever a wall clock happens to fire. The driver stays
/// sink-agnostic — the probe is just a callback, so any query plane
/// (or none) plugs in.
///
/// ```
/// use bas_stream::{drive_probed, StreamUpdate};
///
/// let stream = (0..10u64).map(StreamUpdate::arrival);
/// let mut positions = Vec::new();
/// let total = drive_probed(stream, 2, 2, |_chunk| {}, |p| positions.push(p.delivered));
/// assert_eq!(total, 10);
/// assert_eq!(positions, vec![4, 8, 10]); // every 2 chunks + final
/// ```
///
/// # Panics
/// Panics if `chunk_size` or `probe_every` is zero.
pub fn drive_probed<I, F, P>(
    updates: I,
    chunk_size: usize,
    probe_every: u64,
    mut sink: F,
    mut probe: P,
) -> u64
where
    I: IntoIterator<Item = StreamUpdate>,
    F: FnMut(&[(u64, f64)]),
    P: FnMut(DriveProgress),
{
    assert!(probe_every > 0, "probe interval must be positive");
    let mut driver = ChunkedDriver::new(chunk_size);
    let mut chunks = 0u64;
    for u in updates {
        let before = driver.delivered();
        driver.push(u, &mut sink);
        if driver.delivered() != before {
            chunks += 1;
            if chunks % probe_every == 0 {
                probe(DriveProgress {
                    delivered: driver.delivered(),
                    chunks,
                });
            }
        }
    }
    let pending = driver.pending();
    let total = driver.finish(&mut sink);
    if pending > 0 {
        chunks += 1;
    }
    // Final probe: the stream is fully delivered and quiescent.
    probe(DriveProgress {
        delivered: total,
        chunks,
    });
    total
}

/// Drives a **timestamped** stream into `sink` in chunks, firing
/// `on_interval(t)` exactly once per closed interval `t`, in order —
/// the glue between [`TimestampedUpdate`] producers and a windowed
/// query plane's rotation verb.
///
/// Semantics, chosen so rotation is deterministic and loss-free:
///
/// * updates are delivered in chunks of `chunk_size`, exactly like
///   [`drive_chunked`] — batching never changes sketch state;
/// * intervals must be **monotone non-decreasing** (time moves
///   forward); a regression panics;
/// * before `on_interval(t)` fires, every update of interval `t` has
///   been delivered to the sink (the partial chunk is flushed first),
///   so a sink feeding an ingest engine plus an `on_interval` calling
///   `advance_interval()` seals exactly interval `t`'s updates;
/// * empty intervals (gaps in the ids, or a stream starting past
///   interval 0) still fire their boundaries, one per skipped
///   interval — wall-clock time does not pause because no traffic
///   arrived. A boundary that seals a counter plane costs `O(s·d)`
///   even when the plane did not change, so pick interval ids coarse
///   enough that long idle gaps stay cheap (an hour-long gap at
///   1-second intervals is 3 600 seals in a burst);
/// * the final interval is **not** closed: it is still in progress
///   when the stream ends (query it live, or close it yourself).
///
/// Returns the number of updates delivered.
///
/// ```
/// use bas_stream::{drive_timestamped, TimestampedUpdate};
///
/// let stream = [
///     TimestampedUpdate::arrival(0, 1),
///     TimestampedUpdate::arrival(0, 2),
///     TimestampedUpdate::arrival(2, 3), // interval 1 was empty
/// ];
/// let delivered = std::cell::Cell::new(0usize);
/// let mut closed = Vec::new();
/// let total = drive_timestamped(
///     stream,
///     2,
///     |chunk| delivered.set(delivered.get() + chunk.len()),
///     |t| closed.push((t, delivered.get())),
/// );
/// assert_eq!(total, 3);
/// // Interval 0 closed after both its updates; empty interval 1
/// // closed immediately after; interval 2 stays in progress.
/// assert_eq!(closed, vec![(0, 2), (1, 2)]);
/// ```
///
/// # Panics
/// Panics if `chunk_size` is zero or an interval id decreases.
pub fn drive_timestamped<I, F, R>(
    updates: I,
    chunk_size: usize,
    mut sink: F,
    mut on_interval: R,
) -> u64
where
    I: IntoIterator<Item = TimestampedUpdate>,
    F: FnMut(&[(u64, f64)]),
    R: FnMut(u64),
{
    let mut driver = ChunkedDriver::new(chunk_size);
    let mut current = 0u64;
    for u in updates {
        assert!(
            u.interval >= current,
            "interval ids must be monotone: {} after {current}",
            u.interval
        );
        if u.interval > current {
            // Close every interval before the update's: flush so the
            // closing interval's updates are all delivered first.
            driver.flush(&mut sink);
            for t in current..u.interval {
                on_interval(t);
            }
            current = u.interval;
        }
        driver.push(u.update(), &mut sink);
    }
    driver.finish(&mut sink)
}

/// Incremental form of [`drive_chunked`] for callers that receive
/// updates piecemeal (network handlers, pollers) rather than holding an
/// iterator. Push updates as they arrive; every full chunk is delivered
/// to the sink passed at that call site; [`ChunkedDriver::finish`]
/// flushes the remainder.
#[derive(Debug)]
pub struct ChunkedDriver {
    buf: Vec<(u64, f64)>,
    chunk_size: usize,
    delivered: u64,
}

impl ChunkedDriver {
    /// Creates a driver delivering chunks of `chunk_size` updates.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        Self {
            buf: Vec::with_capacity(chunk_size),
            chunk_size,
            delivered: 0,
        }
    }

    /// Buffered updates not yet delivered.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Updates delivered to sinks so far (excludes pending).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Buffers one update, delivering a chunk to `sink` when full.
    pub fn push<F: FnMut(&[(u64, f64)])>(&mut self, u: StreamUpdate, mut sink: F) {
        self.buf.push((u.item, u.delta));
        if self.buf.len() == self.chunk_size {
            sink(&self.buf);
            self.delivered += self.buf.len() as u64;
            self.buf.clear();
        }
    }

    /// Delivers the buffered partial chunk now (a mid-stream flush for
    /// callers that need a delivery barrier — e.g.
    /// [`drive_timestamped`] before closing an interval). A no-op when
    /// nothing is buffered.
    pub fn flush<F: FnMut(&[(u64, f64)])>(&mut self, mut sink: F) {
        if !self.buf.is_empty() {
            sink(&self.buf);
            self.delivered += self.buf.len() as u64;
            self.buf.clear();
        }
    }

    /// Flushes the final partial chunk and returns the total number of
    /// updates delivered over the driver's lifetime.
    pub fn finish<F: FnMut(&[(u64, f64)])>(mut self, sink: F) -> u64 {
        self.flush(sink);
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(n: u64) -> impl Iterator<Item = StreamUpdate> {
        (0..n).map(StreamUpdate::arrival)
    }

    #[test]
    fn exact_multiple_has_no_partial_chunk() {
        let mut sizes = Vec::new();
        let total = drive_chunked(arrivals(12), 4, |c| sizes.push(c.len()));
        assert_eq!(total, 12);
        assert_eq!(sizes, vec![4, 4, 4]);
    }

    #[test]
    fn remainder_is_flushed() {
        let mut sizes = Vec::new();
        let total = drive_chunked(arrivals(10), 4, |c| sizes.push(c.len()));
        assert_eq!(total, 10);
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn empty_stream_delivers_nothing() {
        let mut calls = 0;
        let total = drive_chunked(arrivals(0), 8, |_| calls += 1);
        assert_eq!(total, 0);
        assert_eq!(calls, 0);
    }

    #[test]
    fn preserves_order_and_deltas() {
        let updates = vec![
            StreamUpdate::new(3, 2.0),
            StreamUpdate::new(1, -1.0),
            StreamUpdate::new(3, 0.5),
        ];
        let mut seen = Vec::new();
        drive_chunked(updates, 2, |c| seen.extend_from_slice(c));
        assert_eq!(seen, vec![(3, 2.0), (1, -1.0), (3, 0.5)]);
    }

    #[test]
    fn incremental_driver_counts() {
        let mut driver = ChunkedDriver::new(3);
        let mut delivered = Vec::new();
        for u in arrivals(7) {
            driver.push(u, |c| delivered.extend_from_slice(c));
        }
        assert_eq!(driver.pending(), 1);
        assert_eq!(driver.delivered(), 6);
        let total = driver.finish(|c| delivered.extend_from_slice(c));
        assert_eq!(total, 7);
        assert_eq!(delivered.len(), 7);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        ChunkedDriver::new(0);
    }

    #[test]
    fn probed_driver_delivers_like_plain_driver() {
        let mut plain = Vec::new();
        drive_chunked(arrivals(11), 3, |c| plain.extend_from_slice(c));
        let mut probed = Vec::new();
        let total = drive_probed(arrivals(11), 3, 1, |c| probed.extend_from_slice(c), |_| {});
        assert_eq!(total, 11);
        assert_eq!(probed, plain);
    }

    #[test]
    fn probes_fire_between_chunks_and_once_at_the_end() {
        let seen = std::cell::Cell::new(0u64);
        let mut delivered_at_probe = Vec::new();
        drive_probed(
            arrivals(10),
            2,
            2,
            |c| seen.set(seen.get() + c.len() as u64),
            |p| {
                // The probe observes only fully delivered chunks.
                assert_eq!(seen.get(), p.delivered);
                delivered_at_probe.push((p.delivered, p.chunks));
            },
        );
        assert_eq!(delivered_at_probe, vec![(4, 2), (8, 4), (10, 5)]);
    }

    #[test]
    fn exact_multiple_probes_final_position_once_per_trigger() {
        let mut probes = Vec::new();
        let total = drive_probed(arrivals(8), 4, 1, |_| {}, |p| probes.push(p.delivered));
        assert_eq!(total, 8);
        // Two chunk probes plus the final quiescent probe.
        assert_eq!(probes, vec![4, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "probe interval must be positive")]
    fn zero_probe_interval_rejected() {
        drive_probed(arrivals(4), 2, 0, |_| {}, |_| {});
    }

    fn timed(spec: &[(u64, u64)]) -> Vec<TimestampedUpdate> {
        spec.iter()
            .map(|&(t, item)| TimestampedUpdate::arrival(t, item))
            .collect()
    }

    #[test]
    fn timestamped_closes_intervals_after_their_updates() {
        let stream = timed(&[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (2, 6)]);
        let delivered = std::cell::RefCell::new(Vec::new());
        let mut closed = Vec::new();
        let total = drive_timestamped(
            stream,
            2,
            |chunk| delivered.borrow_mut().extend_from_slice(chunk),
            |t| closed.push((t, delivered.borrow().len())),
        );
        assert_eq!(total, 6);
        // Each boundary fires with its interval fully delivered, and
        // the final interval (2) stays open.
        assert_eq!(closed, vec![(0, 3), (1, 4)]);
        assert_eq!(
            delivered.into_inner(),
            vec![(1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0), (6, 1.0)]
        );
    }

    #[test]
    fn timestamped_fires_boundaries_for_empty_intervals() {
        // Stream starts at interval 3: intervals 0..=2 were silent but
        // time still passed.
        let stream = timed(&[(3, 9)]);
        let mut closed = Vec::new();
        drive_timestamped(stream, 8, |_| {}, |t| closed.push(t));
        assert_eq!(closed, vec![0, 1, 2]);
    }

    #[test]
    fn timestamped_delivery_matches_plain_chunking() {
        let stream = timed(&[(0, 1), (1, 2), (1, 3), (4, 4), (4, 5)]);
        let mut plain = Vec::new();
        drive_chunked(stream.iter().map(|u| u.update()), 2, |c| {
            plain.extend_from_slice(c)
        });
        let mut via_timed = Vec::new();
        let total = drive_timestamped(stream, 2, |c| via_timed.extend_from_slice(c), |_| {});
        assert_eq!(total, 5);
        assert_eq!(via_timed, plain);
    }

    #[test]
    fn empty_timestamped_stream_closes_nothing() {
        let mut closed = Vec::new();
        let total = drive_timestamped(Vec::new(), 4, |_| {}, |t| closed.push(t));
        assert_eq!(total, 0);
        assert!(closed.is_empty());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn timestamped_rejects_time_regressions() {
        drive_timestamped(timed(&[(2, 1), (1, 2)]), 4, |_| {}, |_| {});
    }

    #[test]
    fn driver_flush_is_a_mid_stream_barrier() {
        let mut driver = ChunkedDriver::new(10);
        let mut out = Vec::new();
        for u in arrivals(3) {
            driver.push(u, |c: &[(u64, f64)]| out.extend_from_slice(c));
        }
        assert!(out.is_empty()); // chunk not full yet
        driver.flush(|c: &[(u64, f64)]| out.extend_from_slice(c));
        assert_eq!(out.len(), 3);
        assert_eq!(driver.pending(), 0);
        assert_eq!(driver.delivered(), 3);
        driver.flush(|_: &[(u64, f64)]| panic!("flush of empty buffer must not deliver"));
    }
}
