//! # bas-pipeline — batched, sharded single-node ingest
//!
//! The paper's distributed protocol (§1, §5.5) rests on linearity:
//! sites sketch their local streams independently and the coordinator
//! adds the sketches, `Φx = Φx¹ + … + Φxᵗ`. This crate turns that same
//! property into a **single-node throughput win**: fan an update stream
//! across per-thread worker shards — each owning a sketch built from
//! the *same seed* — and merge the shards when the stream ends. The
//! merged sketch is the sketch of the whole stream, exactly as if one
//! thread had ingested everything.
//!
//! Within each shard, updates flow through the sketches'
//! `update_batch` fast path, so the pipeline stacks two
//! amortizations:
//!
//! 1. **batching** — the hash family's enum dispatch is hoisted out of
//!    the item loop (once per batch instead of once per item×row), so
//!    the inner loop runs fully monomorphized;
//! 2. **sharding** — batches are processed by `k` threads in parallel
//!    (the vendored `crossbeam::scope`, the same primitive
//!    `bas-distributed` uses for its sites).
//!
//! The restructuring mirrors how the distributed-least-squares line of
//! work (Garg, Tan & Dereziński 2024, see `PAPERS.md`) rebuilds a
//! sequential solver around merged partial summaries: the algebra that
//! makes remote merging correct makes local parallelism free.
//!
//! ## Sharded vs concurrent-shared
//!
//! Two multi-core ingest strategies live here, trading memory against
//! how the work splits:
//!
//! * [`ShardedIngest`] — `k` per-thread same-seed shard sketches, `k×`
//!   the counter memory, each thread taking a slice of the stream, one
//!   merge at the end.
//! * [`ConcurrentIngest`] — **one** shared plane, an [`EpochHandle`]
//!   over a sketch on the storage layer's `Atomic` backend, `1×`
//!   memory, written by one thread through the single-writer
//!   [`SharedSketch`](bas_sketch::SharedSketch) path while any number
//!   of readers copy it; no merge step. A
//!   width-4096 × depth-9 sketch costs ~288 KiB shared versus ~2.3 MiB
//!   under 8-way sharding.
//!
//! `ConcurrentIngest` equals single-threaded ingest bit for bit on any
//! deltas, `ShardedIngest` on integer deltas (its merge reorders
//! additions).
//!
//! ## Reading while writing: the epoch module
//!
//! [`epoch`] owns the seqlock that makes the shared plane a
//! read-while-write **query plane**. An [`EpochSketch`] is a sketch plus
//! its write epoch ([`EpochCounter`]) and stream position, and
//! `ConcurrentIngest` writes it only through
//! [`EpochSketch::write`], one seqlock write section per flush, so
//! readers can [`pin`](EpochSketch::pin) consistent
//! [`SnapshotHandle`]s — frozen views that always equal the sketch of a
//! *prefix* of the pushed stream — while the writer keeps flushing. The
//! plane is not itself a sketch: reads and hashers go through
//! [`EpochSketch::sketch`]. The `bas-serve` crate packages this split
//! as a `QueryEngine`.
//!
//! ## Bounded lifetimes: the window module
//!
//! [`window`] adds interval **rotation** on top of the epoch plane: a
//! [`WindowedIngest`] is a ring of *generations*, runs of intervals that
//! share one hasher seed. At every
//! [`advance_interval`](WindowedIngest::advance_interval) it flushes and
//! then either seals the cumulative plane into a
//! [`PlaneBank`](bas_sketch::PlaneBank) (copied through the same seqlock
//! fill loop snapshot readers use, the oldest slot recycled
//! allocation-free) or, under a `bas_hash::SeedSchedule`, closes the
//! live generation and starts an empty one under the next seed.
//! Because the sketches are linear, any time window is then one
//! subtractive merge of two planes, or a sum of per-generation
//! estimates — the mechanism behind `bas-serve`'s serving policies,
//! seed rotation included.
//!
//! Non-linear sketches (CM-CU, CML-CU) are rejected by the type
//! system, exactly as in the distributed protocol: [`ShardedIngest`]
//! requires [`MergeableSketch`](bas_sketch::MergeableSketch), and
//! [`ConcurrentIngest`] requires [`SharedSketch`](bas_sketch::SharedSketch).
//! Count-Min (either policy), CML-CU and the S/R types implement no
//! `SharedSketch`, so they are rejected at compile time.
//!
//! The serving ladder (`servebench/`) measures the path the daemon
//! runs, `ConcurrentIngest` into one shared sketch, rung by rung.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod concurrent;
pub mod epoch;
mod sharded;
pub mod window;

pub use concurrent::ConcurrentIngest;
pub use epoch::{EpochCounter, EpochHandle, EpochSketch, SnapshotHandle};
pub use sharded::ShardedIngest;
pub use window::{Generation, WindowedIngest};
