//! # bas-sketch — classical linear and non-linear sketch baselines
//!
//! The substrate under the bias-aware sketches and the comparison set for
//! every experiment in *Bias-Aware Sketches* (Chen & Zhang, VLDB 2017,
//! §5.1). Space is counted in 64-bit words for a width-`s`, depth-`d`
//! configuration over a universe of size `n`:
//!
//! * [`CountMedian`] — the CM-matrix sketch of Cormode & Muthukrishnan
//!   with median recovery. **Space** `s·d` words; **guarantee**
//!   (paper, Theorem 1): with `s = Θ(k/α)`, `d = Θ(log n)`,
//!   `‖x̂ − x‖∞ ≤ (α/k)·Err_1^k(x)` w.p. `1 − 1/n`. Linear; the
//!   building block of the paper's `ℓ1`-S/R and of the `ℓ2` bias
//!   estimator.
//! * [`CountSketch`] — Charikar–Chen–Farach-Colton with pairwise random
//!   signs. **Space** `s·d` words; **guarantee** (paper, Theorem 2):
//!   with `s = Θ(k/α²)`, `d = Θ(log n)`,
//!   `‖x̂ − x‖∞ ≤ (α/√k)·Err_2^k(x)` w.p. `1 − 1/n`. Linear; the
//!   recovery engine of `ℓ2`-S/R.
//! * [`CountMin`] — min-recovery sketch for non-negative vectors.
//!   **Space** `s·d` words; **guarantee** (Cormode–Muthukrishnan, cited
//!   in the paper's §2): `x_j ≤ x̂_j ≤ x_j + (e/s)·‖x‖₁` w.p.
//!   `1 − e^{−d}`. The **conservative update** mode (CM-CU,
//!   Estan–Varghese) is the paper's improved baseline; it only tightens
//!   the upper bound but is not linear.
//! * [`CountMinLog`] — Count-Min-Log with conservative update (CML-CU,
//!   Pitel & Fouquier), log-scale probabilistic counters with the
//!   paper's base of 1.00025. **Space** `s·d/4` words (four 16-bit
//!   levels per word — why it gets 4× the buckets at equal space in
//!   §5.1); approximate counting, no deterministic bound; not linear.
//! * [`HeavyHitters`] — a sketch-plus-candidate-set tracker for the
//!   frequent-elements application the paper's introduction motivates.
//!   Inherits the wrapped sketch's space and error.
//! * [`RangeSumSketch`] — dyadic decomposition over `⌈log₂ n⌉ + 1`
//!   Count-Median levels answering range-sum queries, the intro's
//!   "range query" application. **Space** `O(s·d·log n)` words; each of
//!   the `O(log n)` dyadic point queries inherits Theorem 1's error.
//!
//! All sketches share the [`PointQuerySketch`] trait; the linear ones
//! also implement [`MergeableSketch`], which is what makes them usable in
//! the distributed model (sketch locally, add sketches at the
//! coordinator).
//!
//! ## Storage layer
//!
//! Every sketch stores its counters in one shared abstraction, the
//! [`CounterMatrix`]. The three linear sketches the serving stack runs
//! — Count-Median, Count-Sketch and the range-sum stack — take its
//! storage backend as a type parameter
//! (`CountSketch<B: CounterBackend = Dense>`); the Count-Min baselines
//! are always dense:
//!
//! * [`storage::Dense`] (the default) — contiguous row-major cells,
//!   exclusive access, bit-for-bit the pre-storage-layer semantics and
//!   performance;
//! * [`storage::Atomic`] — one `AtomicU64` per counter; exclusive
//!   access costs the same, and the three served sketches additionally
//!   implement [`SharedSketch`]: single-writer `&self` ingest into
//!   **one** shared sketch that seqlock readers copy while it is
//!   written (see `bas_pipeline::ConcurrentIngest` and
//!   `bas_pipeline::EpochSketch`). Both backends run the same blocked
//!   row-major kernel; they differ only in how one cell is written.
//!
//! The aliases [`AtomicCountMedian`] and [`AtomicCountSketch`] name
//! the shared-ingest configurations.
//!
//! ## Batched ingest
//!
//! Every sketch accepts batches through
//! [`PointQuerySketch::update_batch`]. Count-Median and plain
//! Count-Min override it with a **dispatch-hoisted** pass: all rows
//! share one hash family, so the batch path
//! (`bas_hash::bucket_rows_each`) downcasts the row hashers once per
//! batch and runs the item×row loop fully monomorphized, with no
//! per-item enum dispatch. The result is bit-for-bit equivalent to the
//! one-by-one loop. Count-Sketch keeps the loop off one-hash rows: its
//! per-row sign still dispatches, and the hoisted pass measured slower
//! than the loop there. A *whole-batch* row-major sweep was rejected:
//! re-streaming a multi-MiB batch once per row loses to one pass.
//! `bas-pipeline` builds on this to shard batches across threads and
//! merge by linearity.
//!
//! On one-hash rows (`bas_hash::HashKind::OneHash`) the linear grid
//! sketches go further: `update_batch` routes through the **blocked
//! row-major kernel** [`CounterMatrix::apply_rows_blocked`] — one `mix64`
//! digest per item yields all `d` bucket indices (and Count-Sketch
//! signs) by per-row multiply-shift re-keying, the whole block's
//! indices are precomputed, and the counter writes sweep row by row
//! within the block (L1-resident scratch, so none of the whole-batch
//! sweep's losses). Conservative-update Count-Min stays item-by-item:
//! each bump reads the pre-update minimum across all rows, a state
//! dependence no precomputed schedule can honor.
//!
//! ```
//! use bas_sketch::{CountSketch, PointQuerySketch, SketchParams};
//!
//! let params = SketchParams::new(1_000, 64, 5).with_seed(7);
//! let mut cs = CountSketch::new(&params);
//! cs.update(3, 10.0);
//! cs.update(3, 5.0);
//! cs.update(9, -2.0); // turnstile updates are fine
//! let est = cs.estimate(3);
//! assert!((est - 15.0).abs() < 1e-9 || est != 15.0); // estimate, not exact
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count_median;
mod count_min;
mod count_min_log;
mod count_sketch;
mod heavy_hitters;
mod range_sum;
mod snapshot;
pub mod storage;
mod traits;
pub mod util;

pub use count_median::CountMedian;
pub use count_min::{CountMin, UpdatePolicy};
pub use count_min_log::CountMinLog;
pub use count_sketch::CountSketch;
pub use heavy_hitters::{HeavyHitter, HeavyHitters};
pub use range_sum::{LayoutError, RangeSumSketch};
pub use snapshot::{AbsorbPlane, Snapshottable};
pub use storage::{
    Atomic, CounterBackend, CounterMatrix, CounterValue, Dense, PlaneBank, SealedPlane,
    SharedBackend,
};
pub use traits::{
    MergeError, MergeableSketch, PointQuerySketch, Reseedable, SharedSketch, SketchParams,
};

/// Count-Median over the [`Atomic`] backend: the shared-ingest
/// configuration (implements [`SharedSketch`]).
pub type AtomicCountMedian = CountMedian<Atomic>;

/// Count-Sketch over the [`Atomic`] backend: the shared-ingest
/// configuration (implements [`SharedSketch`]).
pub type AtomicCountSketch = CountSketch<Atomic>;
