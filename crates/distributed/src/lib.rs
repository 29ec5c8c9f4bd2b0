//! # bas-distributed — the paper's distributed computation model
//!
//! §1 of the paper: `t` sites each hold a local vector `xⁱ` and connect
//! to a coordinator who wants the global `x = Σᵢ xⁱ`. With a *linear*
//! sketch, each site sends `Φxⁱ` and the coordinator sums:
//! `Φx = Φx¹ + … + Φxᵗ`, costing `t × |sketch|` words instead of
//! `t × n`.
//!
//! This crate simulates that protocol faithfully enough to measure what
//! the paper reports (§5.5):
//!
//! * sites sketch concurrently (real threads via `crossbeam::scope`),
//!   each feeding its whole shard through the sketches' batched
//!   `update_batch` ingest path — the dispatch-hoisted fast path of
//!   `bas-sketch`, bit-for-bit equivalent to updating one item at a
//!   time;
//! * the coordinator ships the hash seeds to the sites (`O(1)` words per
//!   channel, as footnote 4 prescribes) and merges local sketches;
//! * every message is metered in 64-bit words by [`CommMeter`], so the
//!   total communication can be compared against the naive protocol.
//!
//! The non-linear baselines (CM-CU, CML-CU) are rejected by the type
//! system: the protocol requires [`bas_sketch::MergeableSketch`].
//!
//! For the *single-node* version of the same fan-out-and-merge
//! restructuring — worker threads as "sites", one process — see the
//! `bas-pipeline` crate's `ShardedIngest`; for single-node ingest into
//! one shared counter plane (1× memory), its `ConcurrentIngest`.
//!
//! The protocol is storage-agnostic: sketches are generic over the
//! counter-matrix backend, so sites may locally ingest into
//! `Atomic`-backed sketches (e.g. while a `ConcurrentIngest` writes
//! them) and still merge at the coordinator — linearity does not care
//! how the counters were stored.
//!
//! ```
//! use bas_distributed::{DistributedRun, SiteData};
//! use bas_core::{L2Config, L2SketchRecover};
//! use bas_sketch::PointQuerySketch;
//!
//! let n = 1024u64;
//! // Three sites, each seeing a shard of the traffic.
//! let sites: Vec<SiteData> = (0..3)
//!     .map(|s| SiteData::from_vector(
//!         (0..n).map(|i| if i % 3 == s { 30.0 } else { 0.0 }).collect()))
//!     .collect();
//! let cfg = L2Config::new(n, 128, 5).with_seed(9);
//! let run = DistributedRun::execute(&sites, || L2SketchRecover::new(&cfg));
//! assert_eq!(run.sites, 3);
//! let est = run.global.estimate(3);
//! assert!((est - 30.0).abs() < 15.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod meter;
mod protocol;

pub use meter::CommMeter;
pub use protocol::{DistributedRun, SiteData};
