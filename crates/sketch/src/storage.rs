//! The counter-storage layer: one `depth × width` matrix abstraction
//! under every sketch in the workspace.
//!
//! Every sketch here — the classical baselines and the paper's
//! bias-aware S/R variants alike — is "`d` rows × `s` buckets of
//! counters" plus hash functions. This module owns that counter plane
//! once, as [`CounterMatrix`], so cross-cutting concerns (batching,
//! merging, serialization, shared ingest) are implemented one time
//! instead of once per sketch.
//!
//! Two backends ship today, selected at the type level through
//! [`CounterBackend`]:
//!
//! * [`Dense`] — a plain contiguous row-major `Box<[T]>`. Exclusive
//!   (`&mut`) access, zero abstraction cost: every operation inlines to
//!   the same slice arithmetic the sketches used before this layer
//!   existed, so single-threaded throughput is unchanged.
//! * [`Atomic`] — one `AtomicU64` per counter holding the value's bit
//!   pattern. Exclusive access behaves exactly like `Dense` (plain
//!   loads/stores through `get_mut`); *shared* (`&self`) access lets
//!   **one writer** add into the cells while any number of readers copy
//!   them ([`SharedBackend`]). This is the served store: ingest drivers
//!   (`bas_pipeline::ConcurrentIngest`) write it inside a write section
//!   of the seqlock in `bas_pipeline::epoch`, and seqlock readers pin
//!   snapshots of it between sections.
//!
//! Both backends run one blocked row-major batch kernel
//! ([`CounterMatrix::apply_rows_blocked`] and its shared form
//! [`CounterMatrix::apply_rows_blocked_shared`]); they differ only in
//! how one cell is written.
//!
//! The backend is a type parameter of every sketch
//! (e.g. `CountSketch<B: CounterBackend = Dense>`), so the choice is
//! made at construction time and the compiler monomorphizes the hot
//! paths for each storage strategy. Future backends (NUMA-aware
//! placement, say) plug in by implementing [`CounterBackend`] +
//! [`CounterStore`].
//!
//! ## The single-writer contract
//!
//! A shared cell write is a Relaxed load plus a Relaxed store, not an
//! atomic read-modify-write: two threads adding into one plane at once
//! could lose updates. Each plane therefore has one writer at a time,
//! and every shared write claims the plane first
//! ([`SharedBackend::claim_writer`]): a second writer arriving while
//! the claim is held panics before it writes a cell, in release builds
//! too. Readers never claim, so they copy cells while the writer runs.
//! Under the contract a shared write is the exclusive one, so shared
//! ingest is bit-for-bit equal to sequential ingest for every delta,
//! integer or fractional — each cell receives its increments in stream
//! order. The property tests in `tests/concurrent_ingest.rs` pin that
//! down.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A primitive that can live in a counter cell: copyable, zeroable,
/// addable, and bit-castable to `u64` for the atomic backend.
pub trait CounterValue:
    Copy + Default + PartialEq + Send + Sync + std::fmt::Debug + 'static
{
    /// The additive identity (fresh matrices are zero-filled).
    const ZERO: Self;

    /// Counter addition: `+` for floats, wrapping for integers (a
    /// counter that wraps was mis-sized; wrapping keeps the operation
    /// total and branch-free).
    fn add(self, rhs: Self) -> Self;

    /// Counter subtraction — the inverse of
    /// [`add`](CounterValue::add): `-` for floats, wrapping for
    /// integers. This is what makes window arithmetic possible: for
    /// linear sketches, the counters of a time window are the
    /// cumulative counters *now* minus the cumulative counters at the
    /// window's start boundary.
    fn sub(self, rhs: Self) -> Self;

    /// Counter multiplication (`*` for floats, wrapping for integers) —
    /// used by dot-product queries such as
    /// [`CounterMatrix::row_dot`].
    fn mul(self, rhs: Self) -> Self;

    /// The value's bit pattern, as stored by the atomic backend.
    fn to_bits(self) -> u64;

    /// Inverse of [`to_bits`](CounterValue::to_bits).
    fn from_bits(bits: u64) -> Self;
}

impl CounterValue for f64 {
    const ZERO: Self = 0.0;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }

    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }

    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl CounterValue for u64 {
    const ZERO: Self = 0;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.wrapping_mul(rhs)
    }

    #[inline]
    fn to_bits(self) -> u64 {
        self
    }

    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl CounterValue for u16 {
    const ZERO: Self = 0;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.wrapping_mul(rhs)
    }

    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }

    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as u16
    }
}

/// Items per block of the batch kernels
/// ([`CounterMatrix::apply_rows_blocked`] and its shared form): large
/// enough to amortize the per-block row loop, small enough that the
/// index + increment scratch (`2 · APPLY_BLOCK · depth` words) stays
/// L1-resident at production depths.
pub const APPLY_BLOCK: usize = 256;

/// Lookahead distance (in items) of the row sweep's speculative read —
/// the safe-Rust stand-in for a prefetch instruction.
pub const APPLY_PREFETCH: usize = 8;

/// Grid size (bytes) above which the row sweep prefetches; below it
/// the grid is cache-resident and speculative reads are pure overhead.
const APPLY_PREFETCH_MIN_BYTES: usize = 2 << 20;

/// Flat storage for a run of counters, behind exclusive access.
///
/// Implementations index a logical `[T; len]`; [`CounterMatrix`] maps
/// `(row, col)` onto it row-major. `Clone`/`Debug` are required so the
/// sketches' derived impls work for every backend.
pub trait CounterStore<T: CounterValue>: Clone + std::fmt::Debug + Send + Sync + Sized {
    /// A zero-filled store of `len` cells.
    fn zeroed(len: usize) -> Self;

    /// A store initialized from explicit cell values (deserialization,
    /// backend conversion).
    fn from_cells(cells: Vec<T>) -> Self;

    /// Number of cells.
    fn len(&self) -> usize;

    /// Whether the store has no cells.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads one cell.
    fn get(&self, idx: usize) -> T;

    /// Overwrites one cell.
    fn set(&mut self, idx: usize, value: T);

    /// `cells[idx] += delta` under exclusive access.
    fn add(&mut self, idx: usize, delta: T);

    /// `cells[idx] -= delta` under exclusive access — the inverse of
    /// [`add`](CounterStore::add), used by subtractive plane merges.
    fn sub(&mut self, idx: usize, delta: T) {
        self.set(idx, self.get(idx).sub(delta));
    }

    /// A dense copy of all cells, in index order — the canonical
    /// (backend-independent) representation used for serialization and
    /// equality.
    fn snapshot(&self) -> Vec<T>;

    /// Copies every cell into `out`, in index order, reusing `out`'s
    /// capacity — the allocation-free form of
    /// [`snapshot`](CounterStore::snapshot) that steady-state query
    /// snapshots are built on.
    fn snapshot_into(&self, out: &mut Vec<T>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(self.get(i));
        }
    }

    /// Sum of `self[i] * other[i]` over `start..start + len` — the
    /// kernel of inner-product queries. The default reads cell by
    /// cell; [`DenseStore`] overrides it with a zipped slice loop the
    /// compiler can vectorize.
    fn dot_range(&self, other: &Self, start: usize, len: usize) -> T {
        let mut acc = T::ZERO;
        for i in start..start + len {
            acc = acc.add(self.get(i).mul(other.get(i)));
        }
        acc
    }
}

/// Marker type selecting a storage strategy for [`CounterMatrix`].
///
/// The generic-associated `Store` is what actually holds cells; the
/// marker itself is a zero-sized type so it can ride along as a sketch
/// type parameter for free.
pub trait CounterBackend:
    Copy + Clone + Default + PartialEq + std::fmt::Debug + Send + Sync + 'static
{
    /// The store this backend uses for cells of type `T`.
    type Store<T: CounterValue>: CounterStore<T>;

    /// Short human label used in diagnostics ("dense", "atomic").
    const LABEL: &'static str;
}

/// Plain contiguous storage (`Box<[T]>`): the default backend, with
/// the exact semantics and performance of the pre-storage-layer grids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dense;

/// One `AtomicU64` per counter: exclusive access costs the same as
/// [`Dense`] (plain `get_mut` loads/stores); shared access lets one
/// writer add into the cells while readers copy them
/// ([`SharedBackend`]).
///
/// Cells narrower than 64 bits (e.g. the `u16` levels of Count-Min-Log)
/// still occupy a full word each under this backend; the bit-packed
/// space accounting only applies to [`Dense`]. That trade-off is
/// irrelevant in practice because the only sketches worth sharing are
/// the linear ones, whose counters are full words anyway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Atomic;

/// The [`Dense`] backend's store.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseStore<T> {
    cells: Box<[T]>,
}

impl<T: CounterValue> CounterStore<T> for DenseStore<T> {
    fn zeroed(len: usize) -> Self {
        Self {
            cells: vec![T::ZERO; len].into_boxed_slice(),
        }
    }

    fn from_cells(cells: Vec<T>) -> Self {
        Self {
            cells: cells.into_boxed_slice(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    fn get(&self, idx: usize) -> T {
        self.cells[idx]
    }

    #[inline]
    fn set(&mut self, idx: usize, value: T) {
        self.cells[idx] = value;
    }

    #[inline]
    fn add(&mut self, idx: usize, delta: T) {
        self.cells[idx] = self.cells[idx].add(delta);
    }

    fn snapshot(&self) -> Vec<T> {
        self.cells.to_vec()
    }

    fn snapshot_into(&self, out: &mut Vec<T>) {
        out.clear();
        out.extend_from_slice(&self.cells);
    }

    fn dot_range(&self, other: &Self, start: usize, len: usize) -> T {
        self.cells[start..start + len]
            .iter()
            .zip(&other.cells[start..start + len])
            .fold(T::ZERO, |acc, (&a, &b)| acc.add(a.mul(b)))
    }
}

impl<T> DenseStore<T> {
    /// The cells as a contiguous slice — dense-only, the layout this
    /// backend guarantees.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.cells
    }

    /// Mutable view of the cells.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.cells
    }
}

impl CounterBackend for Dense {
    type Store<T: CounterValue> = DenseStore<T>;
    const LABEL: &'static str = "dense";
}

/// The [`Atomic`] backend's store: values live as bit patterns inside
/// `AtomicU64` cells, next to the flag that admits one shared writer
/// at a time ([`SharedBackend::claim_writer`]).
pub struct AtomicStore<T> {
    cells: Box<[AtomicU64]>,
    writer: AtomicBool,
    _value: std::marker::PhantomData<T>,
}

impl<T: CounterValue> AtomicStore<T> {
    fn from_bit_iter(bits: impl Iterator<Item = u64>) -> Self {
        Self {
            cells: bits.map(AtomicU64::new).collect(),
            writer: AtomicBool::new(false),
            _value: std::marker::PhantomData,
        }
    }
}

impl<T: CounterValue> Clone for AtomicStore<T> {
    fn clone(&self) -> Self {
        Self::from_bit_iter(self.cells.iter().map(|c| c.load(Ordering::Relaxed)))
    }
}

impl<T: CounterValue> std::fmt::Debug for AtomicStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicStore")
            .field("cells", &self.snapshot())
            .finish()
    }
}

impl<T: CounterValue> CounterStore<T> for AtomicStore<T> {
    fn zeroed(len: usize) -> Self {
        Self::from_bit_iter((0..len).map(|_| T::ZERO.to_bits()))
    }

    fn from_cells(cells: Vec<T>) -> Self {
        Self::from_bit_iter(cells.into_iter().map(T::to_bits))
    }

    #[inline]
    fn len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    fn get(&self, idx: usize) -> T {
        T::from_bits(self.cells[idx].load(Ordering::Relaxed))
    }

    #[inline]
    fn set(&mut self, idx: usize, value: T) {
        // Exclusive access: a plain store through get_mut, no bus lock.
        *self.cells[idx].get_mut() = value.to_bits();
    }

    #[inline]
    fn add(&mut self, idx: usize, delta: T) {
        let cell = self.cells[idx].get_mut();
        *cell = T::from_bits(*cell).add(delta).to_bits();
    }

    fn snapshot(&self) -> Vec<T> {
        self.cells
            .iter()
            .map(|c| T::from_bits(c.load(Ordering::Relaxed)))
            .collect()
    }
}

impl CounterBackend for Atomic {
    type Store<T: CounterValue> = AtomicStore<T>;
    const LABEL: &'static str = "atomic";
}

/// A [`CounterBackend`] whose stores accept writes through a **shared**
/// reference, for every cell type — the bound the shared kernels and
/// the `SharedSketch` impls use. Today this is exactly [`Atomic`].
///
/// Shared writes follow the module's single-writer contract: readers
/// may copy cells at any moment, but each store has one writer at a
/// time, and every shared write holds the store's [`WriterClaim`].
pub trait SharedBackend: CounterBackend {
    /// Claims `store` for one shared write, until the claim drops.
    ///
    /// # Panics
    /// Panics if another writer holds the claim: two writers at once
    /// would lose updates, so the second one stops before it writes.
    fn claim_writer<T: CounterValue>(store: &Self::Store<T>) -> WriterClaim<'_>;

    /// `store[idx] += delta` through a shared reference, by the holder
    /// of the store's [`WriterClaim`].
    fn add_shared_cell<T: CounterValue>(store: &Self::Store<T>, idx: usize, delta: T);
}

impl SharedBackend for Atomic {
    fn claim_writer<T: CounterValue>(store: &AtomicStore<T>) -> WriterClaim<'_> {
        WriterClaim::new(&store.writer)
    }

    /// A Relaxed load plus a Relaxed store: one writer needs no
    /// read-modify-write instruction, and the epoch write section
    /// orders the stores for seqlock readers.
    #[inline]
    fn add_shared_cell<T: CounterValue>(store: &AtomicStore<T>, idx: usize, delta: T) {
        let cell = &store.cells[idx];
        let sum = T::from_bits(cell.load(Ordering::Relaxed)).add(delta);
        cell.store(sum.to_bits(), Ordering::Relaxed);
    }
}

/// A store's single-writer claim: held for the length of one shared
/// write, released on drop.
///
/// Claiming is an Acquire swap and releasing a Release store, so a
/// writer that takes over from another thread also sees every cell
/// its predecessor wrote.
///
/// ```
/// use bas_sketch::storage::WriterClaim;
/// use std::sync::atomic::AtomicBool;
///
/// let flag = AtomicBool::new(false);
/// let first = WriterClaim::new(&flag);
/// // A second writer while `first` is held would lose updates: it panics.
/// assert!(std::panic::catch_unwind(|| WriterClaim::new(&flag)).is_err());
/// drop(first);
/// let _next = WriterClaim::new(&flag); // the plane is free again
/// ```
#[derive(Debug)]
pub struct WriterClaim<'a>(&'a AtomicBool);

impl<'a> WriterClaim<'a> {
    /// Takes the claim `flag` guards.
    ///
    /// # Panics
    /// Panics if the claim is already held.
    pub fn new(flag: &'a AtomicBool) -> Self {
        assert!(
            !flag.swap(true, Ordering::Acquire),
            "concurrent shared writers: a counter plane admits one writer at a time"
        );
        Self(flag)
    }
}

impl Drop for WriterClaim<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// How the blocked sweep writes one cell — the one point where the
/// backends differ.
trait CellWriter<T> {
    /// Reads a cell (the sweep's speculative prefetch read).
    fn peek(&self, idx: usize) -> T;

    /// `cells[idx] += delta`.
    fn add(&mut self, idx: usize, delta: T);
}

/// Exclusive (`&mut`) writes, for every backend.
struct Exclusive<'a, S>(&'a mut S);

impl<T: CounterValue, S: CounterStore<T>> CellWriter<T> for Exclusive<'_, S> {
    #[inline]
    fn peek(&self, idx: usize) -> T {
        self.0.get(idx)
    }

    #[inline]
    fn add(&mut self, idx: usize, delta: T) {
        self.0.add(idx, delta);
    }
}

/// Shared (`&self`) writes by the holder of the store's claim.
struct SingleWriter<'a, T: CounterValue, B: SharedBackend>(&'a B::Store<T>);

impl<T: CounterValue, B: SharedBackend> CellWriter<T> for SingleWriter<'_, T, B> {
    #[inline]
    fn peek(&self, idx: usize) -> T {
        self.0.get(idx)
    }

    #[inline]
    fn add(&mut self, idx: usize, delta: T) {
        B::add_shared_cell(self.0, idx, delta);
    }
}

/// The blocked row-major write sweep behind both batch kernels.
///
/// Per block of [`APPLY_BLOCK`] items, `block_derive(block, cols,
/// vals)` fills scratch of length `n · depth` in **row-major** layout:
/// row `r`'s bucket of item `i` sits at `cols[r·n + i]` and its
/// increment at `vals[r·n + i]` (every bucket must be `< width`). The
/// sweep then walks each row's lane in item order, so every cell
/// receives its increments in stream order.
///
/// For grids that spill past L2 the sweep also issues a speculative
/// read [`APPLY_PREFETCH`] items ahead, pulling the line in before its
/// read-modify-write — a software prefetch in safe Rust.
fn sweep_rows<T, P, W, D>(
    mut cells: W,
    width: usize,
    depth: usize,
    items: &[(u64, P)],
    mut block_derive: D,
) where
    T: CounterValue,
    P: Copy,
    W: CellWriter<T>,
    D: FnMut(&[(u64, P)], &mut [usize], &mut [T]),
{
    if depth == 0 || items.is_empty() {
        return;
    }
    let block_len = APPLY_BLOCK.min(items.len());
    let mut cols = vec![0usize; block_len * depth];
    let mut vals = vec![T::ZERO; block_len * depth];
    // Prefetch only pays once the grid spills past L2; for a
    // cache-resident grid the extra loads are pure overhead.
    let prefetch = width * depth * std::mem::size_of::<T>() > APPLY_PREFETCH_MIN_BYTES;
    for block in items.chunks(APPLY_BLOCK) {
        let n = block.len();
        block_derive(block, &mut cols[..n * depth], &mut vals[..n * depth]);
        for row in 0..depth {
            let base = row * width;
            let lane = row * n..(row + 1) * n;
            let (rc, rv) = (&cols[lane.clone()], &vals[lane]);
            debug_assert!(rc.iter().all(|&c| c < width), "bucket outside the row");
            if prefetch {
                for i in 0..n {
                    if i + APPLY_PREFETCH < n {
                        std::hint::black_box(cells.peek(base + rc[i + APPLY_PREFETCH]));
                    }
                    cells.add(base + rc[i], rv[i]);
                }
            } else {
                for i in 0..n {
                    cells.add(base + rc[i], rv[i]);
                }
            }
        }
    }
}

/// A dense `depth × width` matrix of counters stored row-major behind a
/// pluggable [`CounterBackend`].
///
/// This is the single counter plane shared by every sketch in the
/// workspace: all linear sketches are a `CounterMatrix` plus hash
/// functions, and merging two sketches is one element-wise
/// [`add_matrix`](CounterMatrix::add_matrix). The default parameters
/// (`f64` cells, [`Dense`] backend) are the classical single-threaded
/// configuration; `CounterMatrix<f64, Atomic>` is the shared-ingest
/// one.
///
/// ```
/// use bas_sketch::storage::{Atomic, CounterMatrix};
///
/// let mut dense = CounterMatrix::<f64>::new(4, 2); // width 4, depth 2
/// dense.add(1, 3, 2.5);
/// assert_eq!(dense.get(1, 3), 2.5);
///
/// let shared = CounterMatrix::<f64, Atomic>::new(4, 2);
/// shared.add_shared(1, 3, 2.5); // &self: one writer, any number of readers
/// assert_eq!(shared.get(1, 3), 2.5);
/// ```
#[derive(Debug, Clone)]
pub struct CounterMatrix<T: CounterValue = f64, B: CounterBackend = Dense> {
    store: B::Store<T>,
    width: usize,
    depth: usize,
}

impl<T: CounterValue, B: CounterBackend> CounterMatrix<T, B> {
    /// Creates a zeroed matrix.
    pub fn new(width: usize, depth: usize) -> Self {
        Self {
            store: B::Store::<T>::zeroed(width * depth),
            width,
            depth,
        }
    }

    /// Builds a matrix from row-major cells.
    ///
    /// # Panics
    /// Panics unless `cells.len() == width * depth`.
    pub fn from_cells(width: usize, depth: usize, cells: Vec<T>) -> Self {
        assert_eq!(
            cells.len(),
            width * depth,
            "cell count must equal width * depth"
        );
        Self {
            store: B::Store::<T>::from_cells(cells),
            width,
            depth,
        }
    }

    /// Matrix width (buckets per row).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Matrix depth (number of rows).
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of counter cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the matrix has no cells (never true for valid params).
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.depth && col < self.width);
        row * self.width + col
    }

    /// Reads a cell.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> T {
        self.store.get(self.idx(row, col))
    }

    /// Overwrites a cell (used by conservative update).
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: T) {
        self.store.set(self.idx(row, col), value);
    }

    /// Adds `delta` to a cell under exclusive access.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, delta: T) {
        self.store.add(self.idx(row, col), delta);
    }

    /// Row-major batch kernel with a per-item derivation:
    /// `derive(item, payload, cols, vals)` fills one item's bucket
    /// index and increment per row (`cols.len() == vals.len() ==
    /// depth`; every index must be `< width`). A convenience form of
    /// [`apply_rows_blocked`](CounterMatrix::apply_rows_blocked), which
    /// it runs with each item's rows scattered into the row-major block
    /// scratch — same sweep, same result.
    pub fn apply_rows<P, D>(&mut self, items: &[(u64, P)], mut derive: D)
    where
        P: Copy,
        D: FnMut(u64, P, &mut [usize], &mut [T]),
    {
        let depth = self.depth;
        let (mut item_cols, mut item_vals) = (vec![0usize; depth], vec![T::ZERO; depth]);
        self.apply_rows_blocked(items, |block, cols, vals| {
            let n = block.len();
            for (i, &(x, payload)) in block.iter().enumerate() {
                derive(x, payload, &mut item_cols, &mut item_vals);
                for row in 0..depth {
                    cols[row * n + i] = item_cols[row];
                    vals[row * n + i] = item_vals[row];
                }
            }
        });
    }

    /// The blocked row-major batch kernel: applies items' per-row
    /// increments with the index math hoisted ahead of the write sweep.
    ///
    /// Per block of [`APPLY_BLOCK`] items, `block_derive(block, cols,
    /// vals)` fills the whole block's scratch at once in **row-major**
    /// layout (row `r`'s bucket of item `i` sits at `cols[r·n + i]` and
    /// its increment at `vals[r·n + i]`; every bucket must be
    /// `< width`), which lets it run data-parallel (SIMD) maps over each
    /// row's contiguous lane. The counter writes then sweep **row by row**
    /// within the block, so each row's slice of the grid is touched
    /// once per block instead of being interleaved with `depth − 1`
    /// other rows per item.
    ///
    /// Blocking matters: sweeping rows over the *whole* batch loses
    /// (re-streaming a multi-MiB batch once per row costs more than the
    /// grid misses it saves), while a block's scratch stays
    /// L1-resident.
    ///
    /// Addition is the backend's exclusive-access `add`, and each cell
    /// receives its increments in item order, so the result is
    /// bit-for-bit the per-item loop's for any deltas.
    pub fn apply_rows_blocked<P, D>(&mut self, items: &[(u64, P)], block_derive: D)
    where
        P: Copy,
        D: FnMut(&[(u64, P)], &mut [usize], &mut [T]),
    {
        let (width, depth) = (self.width, self.depth);
        sweep_rows(
            Exclusive(&mut self.store),
            width,
            depth,
            items,
            block_derive,
        );
    }

    /// Element-wise addition of another matrix of identical shape —
    /// the merge step of every linear sketch.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_matrix(&mut self, other: &Self) {
        assert_eq!(self.width, other.width, "matrix widths differ");
        assert_eq!(self.depth, other.depth, "matrix depths differ");
        for i in 0..self.store.len() {
            self.store.add(i, other.store.get(i));
        }
    }

    /// Element-wise **subtraction** of another matrix of identical
    /// shape — the inverse of [`add_matrix`](CounterMatrix::add_matrix).
    ///
    /// For linear sketches this is the window-arithmetic primitive: the
    /// counter plane of the updates between two stream positions is the
    /// cumulative plane at the later position minus the cumulative
    /// plane at the earlier one (`Φx^{(a,b]} = Φx^{(0,b]} − Φx^{(0,a]}`
    /// by linearity).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub_matrix(&mut self, other: &Self) {
        assert_eq!(self.width, other.width, "matrix widths differ");
        assert_eq!(self.depth, other.depth, "matrix depths differ");
        for i in 0..self.store.len() {
            self.store.sub(i, other.store.get(i));
        }
    }

    /// A dense row-major copy of all cells — the backend-independent
    /// canonical form.
    pub fn snapshot(&self) -> Vec<T> {
        self.store.snapshot()
    }

    /// A dense copy of one row.
    pub fn row_snapshot(&self, row: usize) -> Vec<T> {
        (0..self.width).map(|col| self.get(row, col)).collect()
    }

    /// Dot product of one row with the same row of `other` — the
    /// per-row kernel of sketch inner-product estimators. Dense
    /// backends run a vectorizable slice loop.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn row_dot(&self, other: &Self, row: usize) -> T {
        assert_eq!(self.width, other.width, "matrix widths differ");
        assert_eq!(self.depth, other.depth, "matrix depths differ");
        self.store
            .dot_range(&other.store, row * self.width, self.width)
    }

    /// Rebuilds this matrix with a different backend, preserving every
    /// cell value (e.g. an `Atomic` ingest sketch frozen into a `Dense`
    /// query copy).
    pub fn to_backend<B2: CounterBackend>(&self) -> CounterMatrix<T, B2> {
        CounterMatrix::from_cells(self.width, self.depth, self.snapshot())
    }

    /// Copies every cell into a caller-owned [`Dense`] matrix of the
    /// same shape — the allocation-free freeze step behind the query
    /// plane's epoch snapshots: one preallocated dense matrix is
    /// refilled per snapshot, so steady-state reads allocate nothing.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn snapshot_into(&self, dst: &mut CounterMatrix<T, Dense>) {
        assert_eq!(self.width, dst.width, "matrix widths differ");
        assert_eq!(self.depth, dst.depth, "matrix depths differ");
        for (i, slot) in dst.store.as_mut_slice().iter_mut().enumerate() {
            *slot = self.store.get(i);
        }
    }
}

impl<T: CounterValue, B: SharedBackend> CounterMatrix<T, B> {
    /// Adds `delta` to a cell through a **shared** reference, as the
    /// plane's single writer (see the module's single-writer contract).
    ///
    /// # Panics
    /// Panics if another shared write to this matrix is in progress.
    #[inline]
    pub fn add_shared(&self, row: usize, col: usize, delta: T) {
        let _claim = B::claim_writer(&self.store);
        B::add_shared_cell(&self.store, self.idx(row, col), delta);
    }

    /// The shared-reference form of
    /// [`apply_rows_blocked`](CounterMatrix::apply_rows_blocked): the
    /// same sweep, with the same `block_derive` contract, each cell
    /// written by the plane's single writer. Each cell receives its
    /// increments in item order, so the result is bit-for-bit the
    /// exclusive kernel's, for any deltas.
    ///
    /// # Panics
    /// Panics if another shared write to this matrix is in progress.
    pub fn apply_rows_blocked_shared<P, D>(&self, items: &[(u64, P)], block_derive: D)
    where
        P: Copy,
        D: FnMut(&[(u64, P)], &mut [usize], &mut [T]),
    {
        let _claim = B::claim_writer(&self.store);
        let writer = SingleWriter::<T, B>(&self.store);
        sweep_rows(writer, self.width, self.depth, items, block_derive);
    }

    /// Adds every cell of a [`Dense`] matrix of identical shape into
    /// this one through the **shared** single-writer path — the
    /// destination half of a counter-plane transfer. Moving a sketch
    /// between hosts ships only its counters (hashers are rebuilt from
    /// the seed); by linearity, adding the shipped plane into a live
    /// zeroed sketch reproduces the original counters exactly, and on
    /// integer-delta streams the result is bit-for-bit.
    ///
    /// # Panics
    /// Panics on shape mismatch, or if another shared write to this
    /// matrix is in progress.
    pub fn add_matrix_shared(&self, other: &CounterMatrix<T, Dense>) {
        assert_eq!(self.width, other.width, "matrix widths differ");
        assert_eq!(self.depth, other.depth, "matrix depths differ");
        let _claim = B::claim_writer(&self.store);
        for (i, &delta) in other.store.as_slice().iter().enumerate() {
            B::add_shared_cell(&self.store, i, delta);
        }
    }
}

impl<T: CounterValue> CounterMatrix<T, Dense> {
    /// A full row as a contiguous slice — [`Dense`]-only, since only
    /// that backend guarantees the layout.
    #[inline]
    pub fn row(&self, row: usize) -> &[T] {
        &self.store.as_slice()[row * self.width..(row + 1) * self.width]
    }

    /// A full row as a mutable slice, for callers that sweep one row at
    /// a time.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [T] {
        &mut self.store.as_mut_slice()[row * self.width..(row + 1) * self.width]
    }
}

/// Shape + cell-wise equality (cells compared through snapshots, so it
/// works across the `Atomic` backend too).
impl<T: CounterValue, B: CounterBackend, B2: CounterBackend> PartialEq<CounterMatrix<T, B2>>
    for CounterMatrix<T, B>
{
    fn eq(&self, other: &CounterMatrix<T, B2>) -> bool {
        self.width == other.width
            && self.depth == other.depth
            && (0..self.store.len()).all(|i| self.store.get(i) == other.store.get(i))
    }
}

#[cfg(feature = "serde")]
impl<T: CounterValue + serde::Serialize, B: CounterBackend> serde::Serialize
    for CounterMatrix<T, B>
{
    /// Serializes as the dense snapshot `{cells, width, depth}` — the
    /// `Atomic` backend ships its current values, not its atomics, so
    /// the wire format is backend-independent.
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let cells = serde::to_content(&self.snapshot())
            .map_err(|e| <S::Error as serde::ser::Error>::custom(e))?;
        serializer.serialize_content(serde::Content::Map(vec![
            ("cells".to_string(), cells),
            ("width".to_string(), serde::Content::U64(self.width as u64)),
            ("depth".to_string(), serde::Content::U64(self.depth as u64)),
        ]))
    }
}

#[cfg(feature = "serde")]
impl<'de, T: CounterValue + serde::Deserialize<'de>, B: CounterBackend> serde::Deserialize<'de>
    for CounterMatrix<T, B>
{
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let mut entries = match deserializer.deserialize_content()? {
            serde::Content::Map(entries) => entries,
            _ => return Err(D::Error::custom("expected a map for CounterMatrix")),
        };
        let mut take = |key: &str| {
            let at = entries
                .iter()
                .position(|(k, _)| k == key)
                .ok_or_else(|| D::Error::custom(format!("missing field `{key}`")))?;
            Ok(entries.swap_remove(at).1)
        };
        let cells: Vec<T> = serde::from_content(take("cells")?)
            .map_err(|e| D::Error::custom(format!("field `cells`: {e}")))?;
        let width: usize = serde::from_content(take("width")?)
            .map_err(|e| D::Error::custom(format!("field `width`: {e}")))?;
        let depth: usize = serde::from_content(take("depth")?)
            .map_err(|e| D::Error::custom(format!("field `depth`: {e}")))?;
        if width.checked_mul(depth) != Some(cells.len()) {
            return Err(D::Error::custom(format!(
                "CounterMatrix shape mismatch: {width} x {depth} != {} cells",
                cells.len()
            )));
        }
        Ok(Self::from_cells(width, depth, cells))
    }
}

/// One sealed plane in a [`PlaneBank`]: a frozen counter plane plus the
/// stream position it was sealed at.
///
/// The plane type `P` is deliberately open — a single
/// [`CounterMatrix`] for the matrix sketches, a stack of them for the
/// dyadic range-sum sketch, or any other `Snapshot` type a
/// [`Snapshottable`](crate::Snapshottable) sketch defines. Only a
/// fixed-seed sketch seals, so every seal was counted under the live
/// sketch's hasher configuration.
#[derive(Debug, Clone)]
pub struct SealedPlane<P> {
    plane: P,
    interval: u64,
    applied: u64,
    mass: f64,
}

impl<P> SealedPlane<P> {
    /// The frozen counter plane.
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// The interval id this seal closed (seal `t` captures the
    /// cumulative state at the end of interval `t`).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Updates applied as of the seal — the length of the stream
    /// prefix the plane reflects.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Total delta mass applied as of the seal.
    pub fn mass(&self) -> f64 {
        self.mass
    }
}

/// A bank of `K` rotating sealed counter planes: the storage substrate
/// of windowed (tumbling / sliding) serving.
///
/// Any sketch state can be viewed as **current plane + ring of sealed
/// planes**: the live sketch keeps accumulating since boot, and every
/// `advance_interval` the rotation driver seals a copy of the
/// *cumulative* plane into this bank. Because all the sketches here
/// are linear, a window answer never needs per-interval planes kept
/// explicitly — the plane of intervals `(a, t]` is
/// `cumulative(now) − sealed(a)`, one subtractive merge — but the
/// per-interval deltas remain recoverable as differences of adjacent
/// seals (the window conformance tests exercise exactly that
/// identity).
///
/// The ring recycles: once `capacity` planes are sealed, sealing
/// interval `t` reuses the slot of interval `t − capacity`, refilled in
/// place — steady-state rotation allocates nothing. Retention is
/// therefore the **last `capacity` seals**, which is exactly what a
/// window of `K` intervals needs (`capacity = K`).
///
/// ```
/// use bas_sketch::storage::{CounterMatrix, PlaneBank};
///
/// let mut bank: PlaneBank<CounterMatrix<f64>> = PlaneBank::new(2);
/// for t in 0..4u64 {
///     bank.seal_with(
///         t,
///         || CounterMatrix::new(4, 1),
///         |plane| {
///             plane.set(0, 0, t as f64); // stand-in for a counter copy
///             (t + 1, (t + 1) as f64)    // (applied, mass) at the seal
///         },
///     );
/// }
/// assert_eq!(bank.len(), 2);                  // ring recycled
/// assert!(bank.sealed(1).is_none());          // evicted
/// assert_eq!(bank.sealed(3).unwrap().applied(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PlaneBank<P> {
    /// Sealed planes, ordered oldest → newest by rotation (the vec is a
    /// ring only in the recycling sense: `seal_with` pops the oldest
    /// slot and pushes it back refilled, so iteration order stays
    /// chronological).
    ring: std::collections::VecDeque<SealedPlane<P>>,
    capacity: usize,
}

impl<P> PlaneBank<P> {
    /// An empty bank retaining at most `capacity` sealed planes.
    /// Capacity 0 is allowed and makes every `seal_with` a no-op — the
    /// unbounded (no-window) configuration costs nothing. Nothing is
    /// allocated up front: each seal takes its slot when it is sealed,
    /// so a window of 2^40 intervals costs only the seals it holds.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: std::collections::VecDeque::new(),
            capacity,
        }
    }

    /// Number of seals currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no plane has been sealed (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Seals a plane for `interval`: recycles the oldest slot's plane
    /// allocation-free once the ring is full, otherwise allocates one
    /// via `make`. `fill` copies the live counters into the slot and
    /// returns the stream position `(applied, mass)` the copy captured.
    ///
    /// # Panics
    /// Panics if `interval` does not increase monotonically (each
    /// interval is sealed exactly once, in order).
    pub fn seal_with(
        &mut self,
        interval: u64,
        make: impl FnOnce() -> P,
        fill: impl FnOnce(&mut P) -> (u64, f64),
    ) {
        if self.capacity == 0 {
            return;
        }
        if let Some(latest) = self.ring.back() {
            assert!(
                interval > latest.interval,
                "seals must advance: interval {interval} after {}",
                latest.interval
            );
        }
        let mut slot = if self.ring.len() == self.capacity {
            self.ring.pop_front().expect("ring is full, so non-empty")
        } else {
            SealedPlane {
                plane: make(),
                interval: 0,
                applied: 0,
                mass: 0.0,
            }
        };
        let (applied, mass) = fill(&mut slot.plane);
        slot.interval = interval;
        slot.applied = applied;
        slot.mass = mass;
        self.ring.push_back(slot);
    }

    /// The seal for a specific interval, if still retained.
    pub fn sealed(&self, interval: u64) -> Option<&SealedPlane<P>> {
        // The ring is sorted by interval; it is tiny (K slots), so a
        // linear scan from the newest end beats bookkeeping.
        self.ring.iter().rev().find(|s| s.interval == interval)
    }

    /// The most recent seal.
    pub fn latest(&self) -> Option<&SealedPlane<P>> {
        self.ring.back()
    }

    /// Retained seals, oldest first.
    pub fn planes(&self) -> impl Iterator<Item = &SealedPlane<P>> {
        self.ring.iter()
    }
}

/// Implements `serde::Serialize`/`Deserialize` for a backend-generic
/// sketch struct, field by field, mirroring the derive's map format.
///
/// The vendored `serde_derive` intentionally rejects generic types, so
/// the sketches — generic over their [`CounterBackend`] since the
/// storage-layer refactor — spell their impls through this macro
/// instead:
///
/// ```ignore
/// bas_sketch::impl_backend_serde!(CountMedian { params, grid, hashers });
/// ```
///
/// The struct must have exactly one type parameter, the backend.
#[cfg(feature = "serde")]
#[macro_export]
macro_rules! impl_backend_serde {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl<B: $crate::storage::CounterBackend> ::serde::Serialize for $ty<B> {
            fn serialize<S: ::serde::Serializer>(
                &self,
                serializer: S,
            ) -> ::core::result::Result<S::Ok, S::Error> {
                let mut entries = ::std::vec::Vec::new();
                $(entries.push((
                    stringify!($field).to_string(),
                    ::serde::to_content(&self.$field)
                        .map_err(|e| <S::Error as ::serde::ser::Error>::custom(e))?,
                ));)+
                serializer.serialize_content(::serde::Content::Map(entries))
            }
        }

        impl<'de, B: $crate::storage::CounterBackend> ::serde::Deserialize<'de> for $ty<B> {
            fn deserialize<D: ::serde::Deserializer<'de>>(
                deserializer: D,
            ) -> ::core::result::Result<Self, D::Error> {
                let mut entries = match deserializer.deserialize_content()? {
                    ::serde::Content::Map(entries) => entries,
                    _ => {
                        return ::core::result::Result::Err(
                            <D::Error as ::serde::de::Error>::custom(concat!(
                                "expected a map for ",
                                stringify!($ty)
                            )),
                        )
                    }
                };
                $(let $field = {
                    let at = entries
                        .iter()
                        .position(|(k, _)| k == stringify!($field))
                        .ok_or_else(|| <D::Error as ::serde::de::Error>::custom(concat!(
                            "missing field `",
                            stringify!($field),
                            "` in ",
                            stringify!($ty)
                        )))?;
                    ::serde::from_content(entries.swap_remove(at).1).map_err(|e| {
                        <D::Error as ::serde::de::Error>::custom(format!(
                            concat!("field `", stringify!($field), "`: {}"),
                            e
                        ))
                    })?
                };)+
                let _ = &mut entries;
                ::core::result::Result::Ok($ty { $($field),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill<B: CounterBackend>() -> CounterMatrix<f64, B> {
        let mut m = CounterMatrix::<f64, B>::new(4, 3);
        for row in 0..3 {
            for col in 0..4 {
                m.add(row, col, (row * 4 + col) as f64);
            }
        }
        m
    }

    #[test]
    fn dense_accessors() {
        let mut m = CounterMatrix::<f64>::new(4, 2);
        assert_eq!(m.len(), 8);
        assert!(!m.is_empty());
        m.add(1, 3, 2.5);
        m.add(1, 3, 0.5);
        assert_eq!(m.get(1, 3), 3.0);
        m.set(0, 0, -1.0);
        assert_eq!(m.row(0), &[-1.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 0.0, 3.0]);
        m.row_mut(0)[2] = 7.0;
        assert_eq!(m.get(0, 2), 7.0);
        assert_eq!(m.row_snapshot(1), vec![0.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn atomic_exclusive_ops_match_dense() {
        let dense = fill::<Dense>();
        let atomic = fill::<Atomic>();
        assert_eq!(dense.snapshot(), atomic.snapshot());
        assert_eq!(dense, atomic); // cross-backend PartialEq
    }

    #[test]
    fn atomic_shared_add_is_visible() {
        let m = CounterMatrix::<f64, Atomic>::new(3, 2);
        m.add_shared(0, 1, 1.5);
        m.add_shared(0, 1, 2.5);
        m.add_shared(1, 2, -1.0);
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.get(1, 2), -1.0);
    }

    #[test]
    fn add_matrix_is_elementwise() {
        let mut a = CounterMatrix::<f64>::new(3, 2);
        let mut b = CounterMatrix::<f64>::new(3, 2);
        a.add(0, 1, 1.0);
        b.add(0, 1, 2.0);
        b.add(1, 2, 5.0);
        a.add_matrix(&b);
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.get(1, 2), 5.0);
    }

    #[test]
    fn sub_matrix_inverts_add_matrix() {
        let mut cumulative = fill::<Dense>();
        let boundary = {
            let mut m = CounterMatrix::<f64>::new(4, 3);
            m.add(1, 2, 3.0);
            m.add(2, 0, 1.5);
            m
        };
        cumulative.add_matrix(&boundary);
        cumulative.sub_matrix(&boundary);
        assert_eq!(cumulative, fill::<Dense>());
        // And in the atomic backend through the same store API.
        let mut atomic = fill::<Atomic>();
        atomic.sub_matrix(&fill::<Atomic>());
        assert!(atomic.snapshot().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn sub_matrix_shape_mismatch_panics() {
        let mut a = CounterMatrix::<f64>::new(3, 2);
        let b = CounterMatrix::<f64>::new(2, 3);
        a.sub_matrix(&b);
    }

    #[test]
    fn plane_bank_recycles_oldest_slot() {
        let mut bank: PlaneBank<CounterMatrix<f64>> = PlaneBank::new(3);
        assert!(bank.is_empty() && bank.latest().is_none());
        for t in 0..5u64 {
            bank.seal_with(
                t,
                || CounterMatrix::new(2, 1),
                |p| {
                    p.set(0, 0, t as f64);
                    (10 * (t + 1), (t + 1) as f64)
                },
            );
        }
        assert_eq!(bank.len(), 3);
        assert!(bank.sealed(0).is_none() && bank.sealed(1).is_none());
        let intervals: Vec<u64> = bank.planes().map(|s| s.interval()).collect();
        assert_eq!(intervals, vec![2, 3, 4]);
        let latest = bank.latest().unwrap();
        assert_eq!(latest.interval(), 4);
        assert_eq!(latest.applied(), 50);
        assert_eq!(latest.mass(), 5.0);
        assert_eq!(latest.plane().get(0, 0), 4.0);
        // The recycled slot was refilled, not stale.
        assert_eq!(bank.sealed(2).unwrap().plane().get(0, 0), 2.0);
    }

    #[test]
    fn zero_capacity_bank_ignores_seals() {
        let mut bank: PlaneBank<CounterMatrix<f64>> = PlaneBank::new(0);
        bank.seal_with(0, || panic!("must not allocate"), |_| (0, 0.0));
        assert!(bank.is_empty());
    }

    #[test]
    #[should_panic(expected = "seals must advance")]
    fn non_monotone_seal_rejected() {
        let mut bank: PlaneBank<CounterMatrix<f64>> = PlaneBank::new(2);
        bank.seal_with(3, || CounterMatrix::new(1, 1), |_| (0, 0.0));
        bank.seal_with(3, || CounterMatrix::new(1, 1), |_| (0, 0.0));
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn add_matrix_shape_mismatch_panics() {
        let mut a = CounterMatrix::<f64>::new(3, 2);
        let b = CounterMatrix::<f64>::new(2, 3);
        a.add_matrix(&b);
    }

    #[test]
    fn row_dot_matches_manual_sum_in_both_backends() {
        let a_dense = fill::<Dense>();
        let b_dense = {
            let mut m = fill::<Dense>();
            m.add(2, 3, 10.0);
            m
        };
        let a_atomic: CounterMatrix<f64, Atomic> = a_dense.to_backend();
        let b_atomic: CounterMatrix<f64, Atomic> = b_dense.to_backend();
        for row in 0..3 {
            let expect: f64 = (0..4)
                .map(|c| a_dense.get(row, c) * b_dense.get(row, c))
                .sum();
            assert_eq!(a_dense.row_dot(&b_dense, row), expect, "dense row {row}");
            assert_eq!(a_atomic.row_dot(&b_atomic, row), expect, "atomic row {row}");
        }
    }

    #[test]
    fn backend_conversion_preserves_cells() {
        let atomic = fill::<Atomic>();
        let dense: CounterMatrix<f64, Dense> = atomic.to_backend();
        assert_eq!(dense, atomic);
        let back: CounterMatrix<f64, Atomic> = dense.to_backend();
        assert_eq!(back, dense);
    }

    #[test]
    fn u16_cells_work_in_both_backends() {
        let mut d = CounterMatrix::<u16>::new(4, 1);
        let mut a = CounterMatrix::<u16, Atomic>::new(4, 1);
        for (i, delta) in [(0usize, 7u16), (1, 1), (0, 3)] {
            d.add(0, i, delta);
            a.add(0, i, delta);
        }
        assert_eq!(d.snapshot(), vec![10, 1, 0, 0]);
        assert_eq!(d, a);
        // Shared u16 adds wrap at 16 bits, like exclusive ones.
        a.add_shared(0, 0, u16::MAX);
        assert_eq!(a.get(0, 0), 10u16.wrapping_add(u16::MAX));
    }

    #[test]
    fn apply_rows_matches_per_item_adds() {
        // A synthetic derivation (item-dependent columns, row-dependent
        // increments) over enough items to cross several blocks; the
        // kernel must land bit-for-bit where the per-item loop does.
        fn derive(x: u64, delta: f64, cols: &mut [usize], vals: &mut [f64]) {
            for row in 0..cols.len() {
                cols[row] = ((x.wrapping_mul(row as u64 * 2 + 1)) % 16) as usize;
                vals[row] = delta * (row as f64 + 1.0);
            }
        }
        let items: Vec<(u64, f64)> = (0..1000u64).map(|x| (x * 7 + 3, 0.5 + x as f64)).collect();

        let mut kernel = CounterMatrix::<f64>::new(16, 3);
        kernel.apply_rows(&items, derive);

        let mut reference = CounterMatrix::<f64>::new(16, 3);
        let (mut cols, mut vals) = ([0usize; 3], [0f64; 3]);
        for &(x, delta) in &items {
            derive(x, delta, &mut cols, &mut vals);
            for row in 0..3 {
                reference.add(row, cols[row], vals[row]);
            }
        }
        assert_eq!(kernel.snapshot(), reference.snapshot());

        // Same through the Atomic backend's exclusive-access path.
        let mut atomic = CounterMatrix::<f64, Atomic>::new(16, 3);
        atomic.apply_rows(&items, derive);
        assert_eq!(atomic, reference);
    }

    #[test]
    fn apply_rows_prefetch_path_is_exact() {
        // A grid past the prefetch threshold (width 64Ki × depth 4 × 8B
        // = 2 MiB+) exercises the speculative-read sweep.
        let width = 1 << 16;
        let mut kernel = CounterMatrix::<u64>::new(width, 4);
        let mut reference = CounterMatrix::<u64>::new(width, 4);
        let items: Vec<(u64, u64)> = (0..600u64).map(|x| (x, 1 + x % 5)).collect();
        let derive = |x: u64, delta: u64, cols: &mut [usize], vals: &mut [u64]| {
            for row in 0..cols.len() {
                cols[row] =
                    (x.wrapping_mul(0x9E37_79B9_7F4A_7C15 + row as u64) >> 48) as usize % width;
                vals[row] = delta;
            }
        };
        kernel.apply_rows(&items, derive);
        let (mut cols, mut vals) = ([0usize; 4], [0u64; 4]);
        for &(x, delta) in &items {
            derive(x, delta, &mut cols, &mut vals);
            for row in 0..4 {
                reference.add(row, cols[row], vals[row]);
            }
        }
        assert_eq!(kernel.snapshot(), reference.snapshot());
    }

    #[test]
    fn apply_rows_empty_inputs_are_noops() {
        let mut m = CounterMatrix::<f64>::new(8, 2);
        m.apply_rows(&[], |_, _: f64, _, _| panic!("no items, no calls"));
        assert!(m.snapshot().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn from_cells_rejects_bad_shape() {
        let _ = CounterMatrix::<f64>::from_cells(3, 2, vec![0.0; 5]);
    }

    #[test]
    fn backend_labels() {
        assert_eq!(Dense::LABEL, "dense");
        assert_eq!(Atomic::LABEL, "atomic");
    }

    #[test]
    fn snapshot_into_refills_without_reallocating() {
        let src = fill::<Atomic>();
        let mut dst = CounterMatrix::<f64, Dense>::new(4, 3);
        src.snapshot_into(&mut dst);
        assert_eq!(dst, src);
        // Refill after the source moved on: same buffer, new values.
        let mut src2 = src.clone();
        src2.add(2, 1, 100.0);
        src2.snapshot_into(&mut dst);
        assert_eq!(dst.get(2, 1), src2.get(2, 1));
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn snapshot_into_rejects_shape_mismatch() {
        let src = CounterMatrix::<f64, Atomic>::new(4, 2);
        let mut dst = CounterMatrix::<f64, Dense>::new(2, 4);
        src.snapshot_into(&mut dst);
    }

    #[test]
    fn store_snapshot_into_matches_snapshot() {
        let m = fill::<Atomic>();
        let mut buf = Vec::new();
        m.store.snapshot_into(&mut buf);
        assert_eq!(buf, m.snapshot());
        // Dense override agrees with the cell-by-cell default.
        let d = fill::<Dense>();
        let mut buf2 = Vec::with_capacity(32);
        d.store.snapshot_into(&mut buf2);
        assert_eq!(buf2, d.snapshot());
    }

    #[test]
    fn clone_decouples_atomic_storage() {
        let m = fill::<Atomic>();
        let mut c = m.clone();
        c.add(0, 0, 100.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(c.get(0, 0), 100.0);
    }

    /// A synthetic block derivation matching `derive_item` below, in
    /// the row-major layout the blocked kernels expect.
    fn derive_block(block: &[(u64, f64)], cols: &mut [usize], vals: &mut [f64]) {
        let n = block.len();
        for (i, &(x, delta)) in block.iter().enumerate() {
            for row in 0..cols.len() / n {
                cols[row * n + i] = ((x.wrapping_mul(row as u64 * 2 + 1)) % 16) as usize;
                vals[row * n + i] = delta * (row as f64 + 1.0);
            }
        }
    }

    fn derive_item(x: u64, delta: f64, cols: &mut [usize], vals: &mut [f64]) {
        for row in 0..cols.len() {
            cols[row] = ((x.wrapping_mul(row as u64 * 2 + 1)) % 16) as usize;
            vals[row] = delta * (row as f64 + 1.0);
        }
    }

    fn bits(m: &CounterMatrix<f64, impl CounterBackend>) -> Vec<u64> {
        m.snapshot().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn apply_rows_blocked_matches_apply_rows() {
        let items: Vec<(u64, f64)> = (0..1000u64).map(|x| (x * 7 + 3, 1.0 + x as f64)).collect();
        let mut blocked = CounterMatrix::<f64>::new(16, 3);
        blocked.apply_rows_blocked(&items, derive_block);
        let mut per_item = CounterMatrix::<f64>::new(16, 3);
        per_item.apply_rows(&items, derive_item);
        assert_eq!(bits(&blocked), bits(&per_item));
    }

    #[test]
    fn shared_kernel_equals_the_exclusive_kernel() {
        // Fractional deltas, several blocks and a partial tail: one
        // writer gives every cell its increments in item order, so the
        // shared sweep lands bit-for-bit on the exclusive one.
        let items: Vec<(u64, f64)> = (0..777u64)
            .map(|x| (x * 13 + 1, (x % 9) as f64 / 7.0 - 0.3))
            .collect();
        let mut exclusive = CounterMatrix::<f64>::new(16, 3);
        exclusive.apply_rows_blocked(&items, derive_block);
        let shared = CounterMatrix::<f64, Atomic>::new(16, 3);
        shared.apply_rows_blocked_shared(&items, derive_block);
        assert_eq!(bits(&shared), bits(&exclusive));
    }

    #[test]
    fn second_shared_writer_panics_before_writing() {
        let m = CounterMatrix::<f64, Atomic>::new(16, 3);
        let items: Vec<(u64, f64)> = (0..300u64).map(|x| (x, 0.5)).collect();
        let held = Atomic::claim_writer(&m.store);
        let write =
            std::panic::AssertUnwindSafe(|| m.apply_rows_blocked_shared(&items, derive_block));
        assert!(std::panic::catch_unwind(write).is_err());
        assert!(std::panic::catch_unwind(|| m.add_shared(0, 0, 1.0)).is_err());
        assert!(
            std::panic::catch_unwind(|| m.add_matrix_shared(&CounterMatrix::new(16, 3))).is_err()
        );
        // The refused writers wrote nothing.
        assert!(m.snapshot().iter().all(|&v| v == 0.0));
        drop(held);
        m.apply_rows_blocked_shared(&items, derive_block);
        let mut exclusive = CounterMatrix::<f64>::new(16, 3);
        exclusive.apply_rows_blocked(&items, derive_block);
        assert_eq!(bits(&m), bits(&exclusive));
    }
}
