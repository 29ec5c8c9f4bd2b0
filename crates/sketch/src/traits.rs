//! Shared configuration, traits and errors for all sketches.

use bas_hash::HashKind;

/// Configuration shared by every sketch in the workspace.
///
/// Mirrors the paper's parameterization: a universe size `n`, a width `s`
/// (buckets per row — `s = c_s·k` for the trade-off parameter `k`), and a
/// depth `d` (number of independent rows — `Θ(log n)` in the theorems,
/// 9–10 in the paper's experiments).
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchParams {
    /// Universe size: items are indices in `[0, n)`.
    pub n: u64,
    /// Width `s`: number of buckets per row.
    pub width: usize,
    /// Depth `d`: number of independent rows.
    pub depth: usize,
    /// Master seed; equal seeds produce identical hash functions, which
    /// is required for merging and for distributed use.
    pub seed: u64,
    /// Hash family used for bucket (and sign) functions.
    pub hash_kind: HashKind,
}

impl SketchParams {
    /// Creates parameters with the default seed (0) and the
    /// Carter–Wegman hash family.
    pub fn new(n: u64, width: usize, depth: usize) -> Self {
        assert!(n > 0, "universe must be non-empty");
        assert!(width > 0, "width must be positive");
        assert!(depth > 0, "depth must be positive");
        Self {
            n,
            width,
            depth,
            seed: 0,
            hash_kind: HashKind::CarterWegman,
        }
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the hash family.
    pub fn with_hash_kind(mut self, kind: HashKind) -> Self {
        self.hash_kind = kind;
        self
    }

    /// Width and depth as used by the paper's sizing discussions: total
    /// counter words `s·d`, one `f64` word per cell.
    pub fn counter_words(&self) -> usize {
        self.width * self.depth
    }

    /// Checks that counter planes built under `self` and `other` may
    /// be combined **in counter space** (added or subtracted cell by
    /// cell): same shape, same universe, and — the part an adaptive-
    /// robustness rotation makes easy to violate — the same hasher
    /// configuration. Two planes whose seeds differ address their
    /// counters through different hash functions; adding them cell by
    /// cell produces the sketch of no meaningful vector, so the
    /// mismatch is a typed error, never a silent blend. This is the one
    /// check behind every merge, subtraction and inner product of the
    /// grid sketches. Heterogeneous-seed planes combine in *estimate
    /// space* instead: a rotating window sums each generation's
    /// estimate, read through its own hashers
    /// (`bas_serve::WindowSnapshot::estimate`).
    ///
    /// # Errors
    /// [`MergeError::ShapeMismatch`] when widths, depths, or universes
    /// differ; [`MergeError::SeedMismatch`] when shapes agree but the
    /// hasher configurations (seed or hash family) do not.
    pub fn check_counter_compatible(&self, other: &SketchParams) -> Result<(), MergeError> {
        if self.width != other.width || self.depth != other.depth {
            return Err(MergeError::ShapeMismatch {
                what: "widths/depths",
            });
        }
        if self.n != other.n {
            return Err(MergeError::ShapeMismatch { what: "universes" });
        }
        if self.seed != other.seed || self.hash_kind != other.hash_kind {
            return Err(MergeError::SeedMismatch);
        }
        Ok(())
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for SketchParams {
    /// Refuses a map with a `cell` key. Only a grid of compact integer
    /// cells ever wrote one, and its cells are not `f64` counters, so
    /// reading it as this params' `f64` grid would misread every cell.
    /// Every sketch, tenant transfer and checkpoint carries its params,
    /// so this one check refuses them all.
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut entries = match deserializer.deserialize_content()? {
            serde::Content::Map(entries) => entries,
            _ => return Err(D::Error::custom("expected a map for SketchParams")),
        };
        if entries.iter().any(|(k, _)| k == "cell") {
            return Err(D::Error::custom(
                "field `cell`: compact counter cells are not supported; \
                 SketchParams describes f64 counters only",
            ));
        }
        let mut take = |key: &str| {
            entries
                .iter()
                .position(|(k, _)| k == key)
                .map(|at| entries.swap_remove(at).1)
        };
        macro_rules! field {
            ($key:literal) => {
                serde::from_content(take($key).ok_or_else(|| {
                    D::Error::custom(concat!("missing field `", $key, "` in SketchParams"))
                })?)
                .map_err(|e| D::Error::custom(format!(concat!("field `", $key, "`: {}"), e)))?
            };
        }
        Ok(SketchParams {
            n: field!("n"),
            width: field!("width"),
            depth: field!("depth"),
            seed: field!("seed"),
            hash_kind: field!("hash_kind"),
        })
    }
}

/// A sketch whose hasher configuration can be read back and replaced —
/// the construction-level primitive under bounded-lifetime seed
/// rotation.
///
/// [`config`](Reseedable::config) exposes the *effective*
/// [`SketchParams`] (after any width normalization the hash family
/// performed), so a second party can reconstruct an identically-hashed
/// sketch, and a sealed plane can carry the configuration it was
/// counted under. [`reseeded`](Reseedable::reseeded) builds a fresh,
/// empty sketch of the same shape under a new seed — same universe,
/// width, depth, backend and policy; new hash functions, zeroed
/// counters. Rotation drivers call it at every interval boundary so no
/// seed's lifetime exceeds the serving window.
///
/// Implemented by the servable grid sketches (Count-Median,
/// Count-Sketch, Count-Min, the dyadic range-sum stack) and delegated
/// by the epoch wrappers in `bas_pipeline`. The non-linear baselines
/// could implement it too, but nothing rotates them today.
pub trait Reseedable: Sized {
    /// The effective parameters this sketch was built with (width may
    /// have been rounded up by the hash family; the stored value is
    /// the rounded one).
    fn config(&self) -> SketchParams;

    /// A fresh, empty sketch identical to `self` in every respect
    /// except the seed: new hash functions, zeroed counters.
    fn reseeded(&self, seed: u64) -> Self;
}

/// A frequency sketch answering point queries: "what is `x_i`?".
///
/// `update` follows the streaming model of the paper's §1: an update
/// `(i, Δ)` performs `x ← x + Δ·e_i`. Linear sketches accept any real
/// `Δ` (the turnstile model); the conservative-update baselines only
/// accept `Δ ≥ 0` (the cash-register model) and say so in their docs.
pub trait PointQuerySketch {
    /// Applies the update `x_item ← x_item + delta`.
    fn update(&mut self, item: u64, delta: f64);

    /// Applies a batch of updates, equivalent to calling [`update`]
    /// once per `(item, delta)` pair in order.
    ///
    /// The default implementation is exactly that loop. Sketches backed
    /// by a counter grid override it with a **dispatch-hoisted** pass
    /// (`bas_hash::bucket_rows_each`): all rows of a sketch share one
    /// hash family, so the batch path downcasts the row hashers to
    /// their concrete family once per batch and runs the item×row loop
    /// fully monomorphized — no per-item enum dispatch. Iteration
    /// order is unchanged, so the overrides are bit-for-bit equivalent
    /// to the one-by-one loop (the property tests in
    /// `tests/batching.rs` assert this for every sketch).
    ///
    /// This is the single-node half of the paper's linearity story: the
    /// same restructuring that lets distributed sites sketch
    /// independently (§5.5) lets one node amortize per-row setup over a
    /// batch.
    ///
    /// ```
    /// use bas_sketch::{CountMedian, PointQuerySketch, SketchParams};
    ///
    /// let params = SketchParams::new(100, 32, 5).with_seed(1);
    /// let mut batched = CountMedian::new(&params);
    /// batched.update_batch(&[(7, 2.0), (9, 1.0), (7, 3.0)]);
    ///
    /// let mut one_by_one = CountMedian::new(&params);
    /// one_by_one.update(7, 2.0);
    /// one_by_one.update(9, 1.0);
    /// one_by_one.update(7, 3.0);
    ///
    /// for j in 0..100 {
    ///     assert_eq!(batched.estimate(j), one_by_one.estimate(j));
    /// }
    /// ```
    ///
    /// [`update`]: PointQuerySketch::update
    fn update_batch(&mut self, items: &[(u64, f64)]) {
        for &(item, delta) in items {
            self.update(item, delta);
        }
    }

    /// Estimates the current value of `x_item`.
    fn estimate(&self, item: u64) -> f64;

    /// Universe size `n`.
    fn universe(&self) -> u64;

    /// Total size of the sketch in 64-bit words, the unit the paper uses
    /// when comparing sketch sizes ("all algorithms use `10s` words").
    fn size_in_words(&self) -> usize;

    /// Short algorithm label used in experiment tables (e.g. `"CS"`).
    fn label(&self) -> &'static str;

    /// Recovers an estimate of the whole vector — the recovery phase
    /// `x̂ = R(Φx)` of the paper.
    fn recover_all(&self) -> Vec<f64> {
        (0..self.universe()).map(|i| self.estimate(i)).collect()
    }

    /// Feeds an entire frequency vector through the sketch, one update
    /// per non-zero coordinate (the offline "sketching phase" `Φx`).
    fn ingest_vector(&mut self, x: &[f64]) {
        assert!(
            x.len() as u64 <= self.universe(),
            "vector longer than the universe"
        );
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                self.update(i as u64, v);
            }
        }
    }
}

/// A sketch whose counters can be fed through a **shared reference**
/// by a single writer while readers copy them — the ingest contract
/// behind `bas_pipeline::ConcurrentIngest` and the served engines,
/// where one plane is written and snapshot readers pin it
/// concurrently.
///
/// Implemented by the linear, matrix-backed sketches when their
/// [`CounterBackend`](crate::storage::CounterBackend) supports shared
/// writes (today: the [`Atomic`](crate::storage::Atomic) backend).
/// Sketches whose updates are state-dependent (CM-CU, CML-CU, the
/// bias-maintaining S/R types) cannot implement this — their
/// cross-counter read-modify-write cycles are the same structural
/// property that already excludes them from merging.
///
/// # Single writer
/// A shared write is a plain load and store per cell, not an atomic
/// read-modify-write (see [`crate::storage`]). Each counter plane takes
/// one writer at a time: every shared write claims the plane first, and
/// a second writer arriving while the claim is held panics before it
/// writes a cell. Under that contract shared ingest is **bit-for-bit**
/// equal to sequential ingest for every delta, integer or fractional.
/// The served plane (`bas_pipeline::EpochSketch`) also wraps each flush
/// in a seqlock write section, which panics on an overlapping second
/// flush.
///
/// # Consistency
/// Readers may copy counters while a write is in flight and then see
/// some rows of an update and not others. Epoch-consistent readers
/// (`bas_pipeline::EpochSketch::pin`) retry across write sections;
/// plain readers quiesce the writer first.
pub trait SharedSketch: PointQuerySketch + Sync {
    /// Applies `x_item ← x_item + delta` through a shared reference.
    fn update_shared(&self, item: u64, delta: f64);

    /// Applies a batch of updates through a shared reference,
    /// equivalent to calling
    /// [`update_shared`](SharedSketch::update_shared) per item. The
    /// matrix-backed sketches override it with the same blocked
    /// row-major kernel as [`update_batch`](PointQuerySketch::update_batch).
    fn update_batch_shared(&self, items: &[(u64, f64)]) {
        for &(item, delta) in items {
            self.update_shared(item, delta);
        }
    }
}

/// Error returned when two sketches cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Widths, depths, or universes differ.
    ShapeMismatch {
        /// Human-readable description of the differing dimension.
        what: &'static str,
    },
    /// Seeds or hash families differ, so the sketches used different
    /// hash functions and their counters are not addressable by the
    /// same indices.
    SeedMismatch,
    /// The operation has no inverse for this sketch — e.g. subtracting
    /// from an S/R sketch whose sampler state cannot un-absorb
    /// contributions.
    NotInvertible {
        /// Human-readable description of the non-invertible state.
        what: &'static str,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::ShapeMismatch { what } => {
                write!(f, "cannot merge sketches: {what} differ")
            }
            MergeError::SeedMismatch => write!(
                f,
                "cannot merge sketches built with different seeds (hash functions differ)"
            ),
            MergeError::NotInvertible { what } => {
                write!(f, "cannot subtract sketches: {what}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// A sketch that can absorb another sketch of the *same configuration*,
/// yielding the sketch of the summed input vectors.
///
/// This is the linearity property `Φx = Φx¹ + … + Φxᵗ` the paper's
/// distributed protocol relies on (§1, §5.5). Non-linear baselines
/// (CM-CU, CML-CU) deliberately do not implement it — the paper calls out
/// that they "cannot be directly used in the distributed setting" (§2).
pub trait MergeableSketch: PointQuerySketch {
    /// Adds `other`'s counters into `self`.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError>;

    /// Subtracts `other`'s counters from `self` — the inverse of
    /// [`merge_from`](MergeableSketch::merge_from), valid by the same
    /// linearity read backwards: if `self` sketches a stream and
    /// `other` sketches a *prefix* of it, the result sketches the
    /// suffix (`Φx^{(a,b]} = Φx^{(0,b]} − Φx^{(0,a]}`). This is the
    /// sketch-level form of the windowed query plane's plane
    /// arithmetic.
    ///
    /// The default returns [`MergeError::NotInvertible`]: sketches
    /// with auxiliary non-counter state (the S/R types' samplers)
    /// cannot un-absorb a contribution. The matrix-backed linear
    /// sketches override it with exact counter subtraction.
    ///
    /// # Errors
    /// Returns a [`MergeError`] when the configurations differ or the
    /// sketch state is not invertible.
    fn subtract_from(&mut self, _other: &Self) -> Result<(), MergeError> {
        Err(MergeError::NotInvertible {
            what: "this sketch keeps non-counter state with no inverse",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal exact sketch that does *not* override `update_batch`,
    /// pinning down the default implementation's semantics.
    struct Exact {
        x: Vec<f64>,
    }

    impl PointQuerySketch for Exact {
        fn update(&mut self, item: u64, delta: f64) {
            self.x[item as usize] += delta;
        }
        fn estimate(&self, item: u64) -> f64 {
            self.x[item as usize]
        }
        fn universe(&self) -> u64 {
            self.x.len() as u64
        }
        fn size_in_words(&self) -> usize {
            self.x.len()
        }
        fn label(&self) -> &'static str {
            "exact"
        }
    }

    #[test]
    fn default_update_batch_is_the_one_by_one_loop() {
        let mut a = Exact { x: vec![0.0; 8] };
        let mut b = Exact { x: vec![0.0; 8] };
        let items = [(3u64, 2.0), (5, -1.5), (3, 0.5)];
        a.update_batch(&items);
        for &(i, d) in &items {
            b.update(i, d);
        }
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn params_builder() {
        let p = SketchParams::new(100, 8, 3)
            .with_seed(9)
            .with_hash_kind(HashKind::Tabulation);
        assert_eq!(p.n, 100);
        assert_eq!(p.width, 8);
        assert_eq!(p.depth, 3);
        assert_eq!(p.seed, 9);
        assert_eq!(p.hash_kind, HashKind::Tabulation);
        assert_eq!(p.counter_words(), 24);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        SketchParams::new(10, 0, 1);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_rejected() {
        SketchParams::new(10, 1, 0);
    }

    #[test]
    fn merge_error_messages() {
        let e = MergeError::ShapeMismatch { what: "widths" };
        assert!(e.to_string().contains("widths"));
        assert!(MergeError::SeedMismatch.to_string().contains("seeds"));
    }

    #[test]
    fn counter_compatibility_checks_shape_before_seed() {
        let base = SketchParams::new(100, 8, 3).with_seed(1);
        assert_eq!(base.check_counter_compatible(&base), Ok(()));
        assert!(matches!(
            base.check_counter_compatible(&SketchParams::new(100, 16, 3).with_seed(1)),
            Err(MergeError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            base.check_counter_compatible(&SketchParams::new(200, 8, 3).with_seed(1)),
            Err(MergeError::ShapeMismatch { what: "universes" })
        ));
        assert_eq!(
            base.check_counter_compatible(&base.with_seed(2)),
            Err(MergeError::SeedMismatch)
        );
        // Same seed, different family: still different hash functions.
        assert_eq!(
            base.check_counter_compatible(&base.with_hash_kind(HashKind::Tabulation)),
            Err(MergeError::SeedMismatch)
        );
    }
}
