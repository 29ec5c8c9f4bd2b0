//! # bias-aware-sketches
//!
//! A from-scratch Rust implementation of **Bias-Aware Sketches**
//! (Jiecao Chen & Qin Zhang, PVLDB 10(9), 2017): linear sketches whose
//! point-query error scales with `min_β Err_p^k(x − β)` — the tail mass
//! *after removing the best common bias* — instead of the classical
//! `Err_p^k(x)`. On data where most coordinates hover around a shared
//! level (per-second request counts, feature magnitudes, degree
//! sequences), that difference is orders of magnitude.
//!
//! The workspace contains, per crate:
//!
//! * [`core`] — the paper's `ℓ1`-S/R and `ℓ2`-S/R sketches
//!   (Algorithms 1–6), the mean heuristics, and exact tail-error
//!   oracles;
//! * [`sketches`] — Count-Median, Count-Sketch, Count-Min
//!   (plain + conservative update), Count-Min-Log, heavy hitters,
//!   dyadic range queries;
//! * [`hashing`] — 2-universal / k-wise / tabulation hash
//!   families over `2^61 − 1`;
//! * [`streaming`] — the Bias-Heap (Algorithm 5), an
//!   order-statistic treap, the `Υ` sampler;
//! * [`distributed`] — the sites-plus-coordinator
//!   protocol with communication metering;
//! * [`pipeline`] — batched, sharded, and concurrent-shared
//!   single-node ingest: per-thread shard sketches merged by
//!   linearity, or one atomic-backed sketch with one writer, plus
//!   the epoch-snapshot machinery for reading it while it is written;
//! * [`serve`] — the live query plane: a `QueryEngine` serving
//!   point / heavy-hitter / range-sum queries over a concurrently-fed
//!   sketch, from lock-free live cells or pinned epoch snapshots;
//! * [`server`] — the multi-tenant serving fabric: many engines
//!   behind one wire protocol, placed across shards by weighted
//!   rendezvous hashing, with admission control (quota shedding +
//!   queue backpressure) and live tenant rebalance by sketch
//!   linearity;
//! * [`data`] — workload generators standing in for the
//!   paper's datasets, plus from-scratch samplers;
//! * [`eval`] — the figure-reproduction harness;
//! * [`bomp`] — the OMP-based prior approach, for comparison.
//!
//! ## Quick start
//!
//! ```
//! use bias_aware_sketches::prelude::*;
//!
//! // A vector biased around 100 with one huge outlier.
//! let n = 10_000u64;
//! let mut x = vec![100.0f64; n as usize];
//! x[42] = 25_000.0;
//!
//! let cfg = L2Config::new(n, 512, 7).with_seed(1);
//! let mut sketch = L2SketchRecover::new(&cfg);
//! sketch.ingest_vector(&x);
//!
//! // The sketch holds ~8·512 words instead of 10 000.
//! assert!(sketch.size_in_words() < 5_000);
//! // Yet point queries resolve both the bias and the outlier.
//! assert!((sketch.bias() - 100.0).abs() < 2.0);
//! assert!((sketch.estimate(42) - 25_000.0).abs() < 250.0);
//! assert!((sketch.estimate(7) - 100.0).abs() < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bas_bomp as bomp;
pub use bas_core as core;
pub use bas_data as data;
pub use bas_distributed as distributed;
pub use bas_eval as eval;
pub use bas_hash as hashing;
pub use bas_pipeline as pipeline;
pub use bas_serve as serve;
pub use bas_server as server;
pub use bas_sketch as sketches;
pub use bas_stream as streaming;

/// The types most applications need.
pub mod prelude {
    pub use bas_core::{
        oracle, BiasStrategy, L1Config, L1SketchRecover, L2BiasMaintenance, L2Config,
        L2SketchRecover, SampleCount,
    };
    pub use bas_data::{StreamDist, TimestampedStreamGen};
    pub use bas_distributed::{DistributedRun, SiteData};
    pub use bas_hash::SeedSchedule;
    pub use bas_pipeline::{
        ConcurrentIngest, EpochCounter, EpochHandle, EpochSketch, ShardedIngest, SnapshotHandle,
        WindowedIngest,
    };
    pub use bas_serve::{
        AuditPolicy, Policy, QueryEngine, QueryError, Sliding, Tumbling, Unbounded, WindowSnapshot,
    };
    pub use bas_server::{
        call, serve_connection, Fabric, FabricConfig, MetricKind, PlacementRing, RebalanceReport,
        Request, Response, ServingMode, TenantSpec, WindowLen, WireError,
    };
    pub use bas_sketch::{
        storage, Atomic, AtomicCountMedian, AtomicCountMin, AtomicCountSketch, CountMedian,
        CountMin, CountMinLog, CountSketch, CounterBackend, CounterMatrix, Dense, HeavyHitter,
        HeavyHitters, MergeableSketch, PlaneBank, PointQuerySketch, RangeSumSketch, Reseedable,
        SealedPlane, SharedSketch, SketchParams, Snapshottable, UpdatePolicy,
    };
    pub use bas_stream::{
        drive_chunked, drive_probed, drive_timestamped, BiasHeap, ChunkedDriver, DriveProgress,
        SortedSampler, StreamUpdate, TimestampedUpdate,
    };
}
