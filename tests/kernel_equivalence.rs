//! Kernel/scalar equivalence for the one-hash batched hot path.
//!
//! `HashKind::OneHash` routes `update_batch` through the blocked
//! row-major kernel (`CounterMatrix::apply_rows`): one strong digest
//! per item, per-row multiply-shift re-keying, block-precomputed
//! indices, row-by-row write sweeps. None of that may be observable:
//! the kernel only reorders work across *different* counters, never
//! the deltas into one counter, so every estimate must equal the
//! one-by-one loop **bit for bit** — for every sketch that takes the
//! kernel, over both storage backends, across block boundaries
//! (streams longer than the 256-item kernel block) and across
//! multiple `update_batch` calls.
//!
//! Conservative-update Count-Min is included too: it deliberately
//! stays item-by-item under OneHash (its read-modify-write cycle is
//! state-dependent), and this suite pins that its batch path still
//! matches the loop.
//!
//! The read-side twin, the blocked heavy-hitter scan behind
//! `Snapshottable::items_at_least_in`, is held to the same rule further
//! down: bit for bit the per-item reference. The last section holds the
//! range-sum stack's exact coarse levels to the oracle and to every
//! ingest path, backend and read path.

use bias_aware_sketches::hashing::HashKind;
use bias_aware_sketches::prelude::*;
use bias_aware_sketches::sketches::{self, AbsorbPlane};
use proptest::prelude::*;

const N: u64 = 128;

fn one_hash_params(seed: u64) -> SketchParams {
    // Width 16 is a power of two already, so OneHash keeps the shape.
    SketchParams::new(N, 16, 3)
        .with_seed(seed)
        .with_hash_kind(HashKind::OneHash)
}

/// Turnstile update streams long enough to cross the kernel's
/// 256-item block boundary.
fn turnstile() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..N, -50.0f64..50.0), 1..600)
}

/// Cash-register (non-negative) streams for the Count-Min policies.
fn cash_register() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..N, 0.0f64..50.0), 1..600)
}

/// Integer-delta streams (exact f64 addition → order-independent).
fn arrivals() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..N, 1u64..5), 1..600)
        .prop_map(|v| v.into_iter().map(|(i, d)| (i, d as f64)).collect())
}

fn assert_estimates_equal<A: PointQuerySketch, B: PointQuerySketch>(
    a: &A,
    b: &B,
) -> Result<(), TestCaseError> {
    for j in 0..N {
        prop_assert_eq!(a.estimate(j), b.estimate(j));
    }
    Ok(())
}

/// Feeds `updates` through `update_batch` in two uneven calls (so at
/// least one call is mid-block) and one-by-one into a second sketch.
fn batch_vs_loop<S: PointQuerySketch>(
    mut batched: S,
    mut looped: S,
    updates: &[(u64, f64)],
) -> (S, S) {
    let split = updates.len() * 2 / 3;
    batched.update_batch(&updates[..split]);
    batched.update_batch(&updates[split..]);
    for &(i, d) in updates {
        looped.update(i, d);
    }
    (batched, looped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_median_kernel_equals_loop(updates in turnstile(), seed in 0u64..500) {
        let p = one_hash_params(seed);
        let (b, l) = batch_vs_loop(CountMedian::new(&p), CountMedian::new(&p), &updates);
        assert_estimates_equal(&b, &l)?;
    }

    #[test]
    fn count_median_kernel_equals_loop_atomic(updates in turnstile(), seed in 0u64..500) {
        let p = one_hash_params(seed);
        let (b, l) = batch_vs_loop(
            AtomicCountMedian::with_backend(&p),
            AtomicCountMedian::with_backend(&p),
            &updates,
        );
        assert_estimates_equal(&b, &l)?;
    }

    #[test]
    fn count_sketch_kernel_equals_loop(updates in turnstile(), seed in 0u64..500) {
        let p = one_hash_params(seed);
        let (b, l) = batch_vs_loop(CountSketch::new(&p), CountSketch::new(&p), &updates);
        assert_estimates_equal(&b, &l)?;
    }

    #[test]
    fn count_sketch_kernel_equals_loop_atomic(updates in turnstile(), seed in 0u64..500) {
        let p = one_hash_params(seed);
        let (b, l) = batch_vs_loop(
            AtomicCountSketch::with_backend(&p),
            AtomicCountSketch::with_backend(&p),
            &updates,
        );
        assert_estimates_equal(&b, &l)?;
    }

    #[test]
    fn count_min_kernel_equals_loop_both_policies(
        updates in cash_register(),
        seed in 0u64..500,
    ) {
        let p = one_hash_params(seed);
        for policy in [UpdatePolicy::Plain, UpdatePolicy::Conservative] {
            let (b, l) = batch_vs_loop(
                CountMin::new(&p, policy),
                CountMin::new(&p, policy),
                &updates,
            );
            assert_estimates_equal(&b, &l)?;
        }
    }

    #[test]
    fn range_sum_kernel_equals_loop(updates in turnstile(), seed in 0u64..500) {
        let p = one_hash_params(seed);
        let (b, l) = batch_vs_loop(
            RangeSumSketch::new(&p),
            RangeSumSketch::new(&p),
            &updates,
        );
        // Point estimates plus a few ranges: every dyadic level took
        // a blocked sweep (the kernel on grid levels, one row on exact
        // ones), so both layers must agree exactly.
        assert_estimates_equal(&b, &l)?;
        for (a, z) in [(0u64, N - 1), (3, 90), (64, 64)] {
            prop_assert_eq!(b.query(a, z), l.query(a, z));
        }
    }

    /// The shared-reference batch kernel (`apply_rows_blocked_shared`:
    /// the exclusive sweep, written by the plane's one writer) against the
    /// exclusive loop — for every sketch the kernel serves over the
    /// Atomic backend.
    #[test]
    fn shared_batch_equals_loop_on_integer_deltas(
        updates in arrivals(),
        seed in 0u64..500,
    ) {
        let p = one_hash_params(seed);

        let shared = AtomicCountMedian::with_backend(&p);
        shared.update_batch_shared(&updates);
        let mut looped = AtomicCountMedian::with_backend(&p);
        for &(i, d) in &updates { looped.update(i, d); }
        assert_estimates_equal(&shared, &looped)?;

        let shared = AtomicCountSketch::with_backend(&p);
        shared.update_batch_shared(&updates);
        let mut looped = AtomicCountSketch::with_backend(&p);
        for &(i, d) in &updates { looped.update(i, d); }
        assert_estimates_equal(&shared, &looped)?;

        let shared = RangeSumSketch::<Atomic>::with_backend(&p);
        shared.update_batch_shared(&updates);
        let mut looped = RangeSumSketch::<Atomic>::with_backend(&p);
        for &(i, d) in &updates { looped.update(i, d); }
        assert_estimates_equal(&shared, &looped)?;
        for (a, z) in [(0u64, N - 1), (3, 90), (64, 64)] {
            prop_assert_eq!(shared.query(a, z), looped.query(a, z));
        }
    }

    /// The shared kernel stays exact when one batch is written in
    /// chunks by writers on different threads, one at a time: each
    /// writer's claim on the plane acquires its predecessor's stores
    /// and every cell still gets its increments in item order, so even
    /// fractional deltas land bit-for-bit on the sequential loop's
    /// counters.
    #[test]
    fn shared_batch_is_exact_across_thread_counts(
        updates in turnstile(),
        seed in 0u64..500,
        threads in 2usize..5,
    ) {
        let p = one_hash_params(seed);
        let shared = AtomicCountMedian::with_backend(&p);
        for part in updates.chunks(updates.len().div_ceil(threads).max(1)) {
            std::thread::scope(|scope| {
                scope.spawn(|| shared.update_batch_shared(part));
            });
        }
        let mut looped = AtomicCountMedian::with_backend(&p);
        for &(i, d) in &updates { looped.update(i, d); }
        assert_estimates_equal(&shared, &looped)?;
    }

    /// OneHash sketches must still merge by linearity: two kernel-fed
    /// halves added together equal one kernel-fed whole.
    #[test]
    fn kernel_fed_sketches_merge_by_linearity(
        updates in arrivals(),
        seed in 0u64..500,
    ) {
        let p = one_hash_params(seed);
        let split = updates.len() / 2;
        let mut left = CountMedian::new(&p);
        left.update_batch(&updates[..split]);
        let mut right = CountMedian::new(&p);
        right.update_batch(&updates[split..]);
        left.merge_from(&right).expect("same config merges");
        let mut whole = CountMedian::new(&p);
        whole.update_batch(&updates);
        assert_estimates_equal(&left, &whole)?;
    }
}

// ---- the heavy-hitter scan kernel ----
//
// `Snapshottable::items_at_least_in` on one-hash Count-Median (and the
// range-sum stack, through level 0) digests each item once, 256 items
// at a time, and counts the item's cells that could reach the
// threshold in a per-row byte mask: its first ⌊d/2⌋ + 1 rows (at most
// eight) in registers, then each later row in a pass over the items
// that can still reach ⌈d/2⌉ such rows. It takes the median only for
// items hot in at least ⌈d/2⌉ rows. The mask is a necessary condition
// only, so the answer must be exactly the per-item reference: the same
// items, estimates equal bit for bit. The head size changes with every
// depth, so one-hash runs at every depth from 1 to 12 and at 16, where
// ⌊d/2⌋ + 1 = 9 outgrows the eight-row head, and at widths 1, 2 and
// 4,096 (shifts 64, 63 and 52). Planes are written cell by cell, so
// they hold what no stream produces in a test this size: ties with the
// threshold, ±0.0, ±inf, NaN payloads of both signs, subnormals and
// values past 2^1023, whose even-depth median overflows to +inf.

/// A small deterministic generator for plane contents.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, k: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % k
    }

    /// One cell: mostly small integers (frequent ties), plus every
    /// special payload the scan must classify like the median does.
    fn cell(&mut self) -> f64 {
        match self.below(20) {
            0..=8 => self.below(7) as f64 - 3.0,
            9 => self.below(8) as f64 * 0.375 - 1.5,
            10 => 0.0,
            11 => -0.0,
            12 => f64::INFINITY,
            13 => f64::NEG_INFINITY,
            14 => f64::from_bits(0x7FF8_0000_0000_0000 | self.below(1 << 40)),
            15 => f64::from_bits(0xFFF8_0000_0000_0000 | self.below(1 << 40)),
            16 => f64::from_bits(1 + self.below(4)) * if self.below(2) == 0 { 1.0 } else { -1.0 },
            _ => [1.0e308, 1.5e308, f64::MAX][self.below(3) as usize],
        }
    }
}

/// Writes every cell of `plane` through `CounterMatrix::set`.
fn fill(plane: &mut CounterMatrix<f64, Dense>, rng: &mut Lcg) {
    for row in 0..plane.depth() {
        for col in 0..plane.width() {
            plane.set(row, col, rng.cell());
        }
    }
}

/// Thresholds that tie with cells of the plane, +inf and a subnormal.
fn scan_thresholds(plane: &CounterMatrix<f64, Dense>, rng: &mut Lcg) -> Vec<f64> {
    let mut out = vec![f64::INFINITY, f64::from_bits(3)];
    for _ in 0..3 {
        let (row, col) = (
            rng.below(plane.depth() as u64) as usize,
            rng.below(plane.width() as u64) as usize,
        );
        out.push(plane.get(row, col));
    }
    out.extend([1.0, 0.0]);
    out
}

/// The scan against the per-item reference, for every threshold.
fn assert_scan_matches_reference<S: Snapshottable>(
    sketch: &S,
    snap: &S::Snapshot,
    thresholds: &[f64],
    what: &str,
) {
    for &t in thresholds {
        let mut got = Vec::new();
        sketch.items_at_least_in(snap, t, &mut got);
        let want: Vec<(u64, u64)> = (0..sketch.universe())
            .map(|i| (i, sketch.estimate_in(snap, i)))
            .filter(|&(_, e)| e >= t)
            .map(|(i, e)| (i, e.to_bits()))
            .collect();
        let got: Vec<(u64, u64)> = got.iter().map(|h| (h.item, h.estimate.to_bits())).collect();
        assert_eq!(got, want, "{what}, threshold {t:e}");
    }
}

const SCAN_KINDS: [HashKind; 4] = [
    HashKind::OneHash,
    HashKind::CarterWegman,
    HashKind::MultiplyShift,
    HashKind::Tabulation,
];

/// Runs `check(params, rng)` over every scan configuration: depths
/// around both parities, block-edge universes, the single-bucket row
/// and a served-size width, one-hash and every classical family.
fn each_scan_config(mut check: impl FnMut(SketchParams, &mut Lcg)) {
    let mut rng = Lcg(0x5CA7);
    for kind in SCAN_KINDS {
        for depth in [1usize, 2, 8, 9] {
            for width in [1usize, 4_096] {
                for n in [1u64, 255, 256, 257, 10_007] {
                    let params = SketchParams::new(n, width, depth)
                        .with_seed(rng.below(1_000))
                        .with_hash_kind(kind);
                    check(params, &mut rng);
                }
            }
        }
    }
}

/// Runs `check(params, rng)` over one-hash configurations at every
/// head size: depths 3–7, 10–12 and 16 beside those of
/// [`each_scan_config`], widths 1, 2 and 4,096, and the same
/// block-edge universes.
fn each_head_size_config(mut check: impl FnMut(SketchParams, &mut Lcg)) {
    let mut rng = Lcg(0x4EAD);
    for depth in [3usize, 4, 5, 6, 7, 10, 11, 12, 16] {
        for width in [1usize, 2, 4_096] {
            for n in [1u64, 255, 256, 257, 10_007] {
                let params = SketchParams::new(n, width, depth)
                    .with_seed(rng.below(1_000))
                    .with_hash_kind(HashKind::OneHash);
                check(params, &mut rng);
            }
        }
    }
    for depth in [1usize, 2, 8, 9] {
        for n in [1u64, 255, 256, 257, 10_007] {
            let params = SketchParams::new(n, 2, depth)
                .with_seed(rng.below(1_000))
                .with_hash_kind(HashKind::OneHash);
            check(params, &mut rng);
        }
    }
}

/// The Count-Median scan of a cell-written plane, checked against the
/// per-item reference at every threshold of [`scan_thresholds`].
fn check_count_median_scan(params: SketchParams, rng: &mut Lcg) {
    let cm = CountMedian::new(&params);
    let mut snap = cm.make_snapshot();
    fill(&mut snap, rng);
    let thresholds = scan_thresholds(&snap, rng);
    assert_scan_matches_reference(&cm, &snap, &thresholds, &format!("{params:?}"));
}

/// The range-sum scan, checked like [`check_count_median_scan`].
fn check_range_sum_scan(params: SketchParams, rng: &mut Lcg) {
    let rs = RangeSumSketch::new(&params);
    let mut snap = rs.make_snapshot();
    // Level 0 answers point estimates; a coarser level holding
    // other values must not leak into the scan.
    fill(&mut snap[0], rng);
    if let Some(level) = snap.get_mut(1) {
        fill(level, rng);
    }
    let thresholds = scan_thresholds(&snap[0], rng);
    assert_scan_matches_reference(&rs, &snap, &thresholds, &format!("{params:?}"));
}

#[test]
fn count_median_scan_equals_per_item_reference() {
    each_scan_config(check_count_median_scan);
}

#[test]
fn range_sum_scan_equals_per_item_reference() {
    each_scan_config(check_range_sum_scan);
}

#[test]
fn count_median_scan_at_every_head_size_equals_per_item_reference() {
    each_head_size_config(check_count_median_scan);
}

#[test]
fn range_sum_scan_at_every_head_size_equals_per_item_reference() {
    each_head_size_config(check_range_sum_scan);
}

/// A stream-fed plane at the served shape, scanned at heavy-hitter
/// thresholds: the common case, where few items survive the mask.
#[test]
fn scan_of_a_stream_fed_plane_equals_reference() {
    let params = SketchParams::new(10_007, 4_096, 9)
        .with_seed(7)
        .with_hash_kind(HashKind::OneHash);
    let mut cm = CountMedian::new(&params);
    let mut rng = Lcg(11);
    let updates: Vec<(u64, f64)> = (0..20_000)
        .map(|_| (rng.below(10_007).min(rng.below(10_007)), 1.0))
        .collect();
    cm.update_batch(&updates);
    let snap = cm.snapshot();
    let thresholds: Vec<f64> = [1e-3, 1e-2, 0.1].iter().map(|phi| phi * 20_000.0).collect();
    assert_scan_matches_reference(&cm, &snap, &thresholds, "stream-fed");
}

// ---- the range-sum stack's exact coarse levels ----
//
// A dyadic level with fewer blocks than the w·d cells of a grid is a
// plain `1 × blocks` vector indexed by `item >> ℓ`. On integer streams
// with deletions every exact cell must equal the oracle's block sum,
// every range that decomposes onto exact
// levels only must equal the oracle, and every ingest path, backend
// and read path must agree bit for bit. Universes sit on the split
// edge (some level with w·d − 1, w·d and w·d + 1 blocks), at d = 1,
// below w·d (every level exact, the level-0 scan a plain filter) and
// in between.

/// `⌈n / 2^level⌉`.
fn blocks_at(n: u64, level: usize) -> u64 {
    ((n - 1) >> level) + 1
}

/// The layout rule, restated: levels with at least `w·d` blocks are
/// grids, the rest exact.
fn expected_grid_levels(n: u64, width: usize, depth: usize) -> usize {
    let levels = 64 - (n.max(2) - 1).leading_zeros() as usize + 1;
    (0..levels)
        .filter(|&l| blocks_at(n, l) >= (width * depth) as u64)
        .count()
}

/// `(n, width, depth)` shapes covering every side of the cut.
fn layout_shapes() -> Vec<(u64, usize, usize)> {
    let mut shapes = Vec::new();
    for (width, depth) in [(16usize, 3usize), (16, 1), (8, 2)] {
        let cells = (width * depth) as u64;
        for scale in [1u64, 4] {
            for n in [cells - 1, cells, cells + 1] {
                shapes.push((n * scale, width, depth));
            }
        }
        shapes.push((cells * 5 / 6, width, depth)); // below w·d
    }
    shapes.extend([(1, 16, 3), (1_000, 16, 3), (1_024, 16, 3)]);
    shapes
}

/// An integer turnstile stream: deltas in `[-300, 300]`.
fn integer_stream(n: u64, len: usize, rng: &mut Lcg) -> Vec<(u64, f64)> {
    (0..len)
        .map(|_| (rng.below(n), rng.below(601) as f64 - 300.0))
        .collect()
}

fn plane_bits(snap: &[CounterMatrix<f64, Dense>]) -> Vec<(usize, usize, Vec<u64>)> {
    snap.iter()
        .map(|m| {
            let bits = (0..m.depth())
                .flat_map(|r| m.row(r).iter().map(|v| v.to_bits()))
                .collect();
            (m.depth(), m.width(), bits)
        })
        .collect()
}

/// Ranges `[k·2^g, m·2^g − 1]` within the universe: the greedy
/// decomposition covers them with blocks of level `g` or coarser.
fn exact_only_ranges(n: u64, g: usize) -> Vec<(u64, u64)> {
    let step = 1u64 << g;
    let ends = n / step;
    (0..ends)
        .flat_map(|k| (k + 1..=ends).map(move |m| (k * step, m * step - 1)))
        .collect()
}

/// Every check of one stack configuration against the oracle and
/// against itself across ingest paths, backends and read paths.
fn check_stack(params: SketchParams, updates: &[(u64, f64)]) {
    let what = format!("{params:?}");
    let n = params.n;
    let mut looped = RangeSumSketch::new(&params);
    for &(i, d) in updates {
        looped.update(i, d);
    }
    let mut batched = RangeSumSketch::new(&params);
    let split = updates.len() * 2 / 3;
    batched.update_batch(&updates[..split]);
    batched.update_batch(&updates[split..]);
    let shared = RangeSumSketch::<Atomic>::with_backend(&params);
    shared.update_batch_shared(updates);
    let single = RangeSumSketch::<Atomic>::with_backend(&params);
    for &(i, d) in updates {
        single.update_shared(i, d);
    }

    let g = expected_grid_levels(n, params.width, params.depth);
    assert_eq!(looped.grid_levels(), g, "{what}");
    let snap = looped.snapshot();
    assert_eq!(
        RangeSumSketch::grid_levels_of(&params, &snap),
        Ok(g),
        "{what}"
    );
    for (l, plane) in snap.iter().enumerate() {
        let shape = if l < g {
            (params.depth, params.width)
        } else {
            (1, blocks_at(n, l) as usize)
        };
        assert_eq!((plane.depth(), plane.width()), shape, "{what} level {l}");
    }
    let bits = plane_bits(&snap);
    assert_eq!(
        plane_bits(&batched.snapshot()),
        bits,
        "{what}: update_batch"
    );
    assert_eq!(plane_bits(&shared.snapshot()), bits, "{what}: shared batch");
    assert_eq!(
        plane_bits(&single.snapshot()),
        bits,
        "{what}: shared update"
    );

    // Exact cells against the oracle's block sums.
    let mut x = vec![0i64; n as usize];
    for &(i, d) in updates {
        x[i as usize] += d as i64;
    }
    for (l, plane) in snap.iter().enumerate().skip(g) {
        for (j, &cell) in plane.row(0).iter().enumerate() {
            let lo = j << l;
            let hi = ((j + 1) << l).min(n as usize);
            let sum: i64 = x[lo..hi].iter().sum();
            assert_eq!(cell, sum as f64, "{what} level {l} block {j}");
        }
    }
    for (a, b) in exact_only_ranges(n, g) {
        let sum: i64 = x[a as usize..=b as usize].iter().sum();
        assert_eq!(looped.query(a, b), sum as f64, "{what} [{a}, {b}]");
    }

    // Live and snapshot answers, every path, bit for bit.
    let mut rng = Lcg(n ^ 0x2A);
    let mut ranges: Vec<(u64, u64)> = (0..40)
        .map(|_| {
            let (a, b) = (rng.below(n), rng.below(n));
            (a.min(b), a.max(b))
        })
        .collect();
    ranges.push((0, n - 1));
    for &(a, b) in &ranges {
        let want = looped.query(a, b).to_bits();
        assert_eq!(looped.query_in(&snap, a, b).to_bits(), want, "{what}");
        assert_eq!(batched.query(a, b).to_bits(), want, "{what}");
        assert_eq!(shared.query(a, b).to_bits(), want, "{what}");
        assert_eq!(single.query(a, b).to_bits(), want, "{what}");
    }
    for i in 0..n {
        let want = looped.estimate(i).to_bits();
        assert_eq!(
            looped.estimate_in(&snap, i).to_bits(),
            want,
            "{what} item {i}"
        );
        assert_eq!(shared.estimate(i).to_bits(), want, "{what} item {i}");
    }
    let thresholds = [f64::NEG_INFINITY, -3.0, 0.0, 1.0, 200.0];
    assert_scan_matches_reference(&looped, &snap, &thresholds, &what);
}

#[test]
fn exact_levels_equal_the_oracle_on_every_path() {
    let mut rng = Lcg(0xE4AC7);
    for (n, width, depth) in layout_shapes() {
        for kind in [HashKind::OneHash, HashKind::CarterWegman] {
            let params = SketchParams::new(n, width, depth)
                .with_seed(rng.below(1_000))
                .with_hash_kind(kind);
            let updates = integer_stream(n, 700, &mut rng);
            check_stack(params, &updates);
        }
    }
}

/// The shapes the cut reads back: the level with exactly `w·d` blocks
/// stays a grid (at d = 1 its plane is `1 × w`, an exact level's shape
/// if the cut were `≤`), while a stack in the older all-grid layout
/// reads back as all grids. Planes that fit no layout are named.
#[test]
fn plane_shapes_name_their_layout() {
    for (n, width, depth) in layout_shapes() {
        let params = SketchParams::new(n, width, depth).with_seed(5);
        let levels = RangeSumSketch::new(&params).num_levels();
        let g = expected_grid_levels(n, width, depth);
        for layout in [g, levels] {
            let rs = RangeSumSketch::<Dense>::with_grid_levels(&params, layout);
            assert_eq!(rs.num_levels(), levels);
            assert_eq!(
                RangeSumSketch::grid_levels_of(&params, &rs.snapshot()),
                Ok(layout),
                "n {n}, {width} x {depth}"
            );
        }
        let mut snap = RangeSumSketch::new(&params).snapshot();
        let last = snap.len() - 1;
        snap[last] = CounterMatrix::new(2, 3);
        assert_eq!(
            RangeSumSketch::grid_levels_of(&params, &snap),
            Err(sketches::LayoutError::Plane {
                level: last,
                depth: 3,
                width: 2
            })
        );
        snap.pop();
        assert_eq!(
            RangeSumSketch::grid_levels_of(&params, &snap),
            Err(sketches::LayoutError::Levels {
                got: levels - 1,
                want: levels
            })
        );
    }
}

/// Merge, snapshot subtraction, plane absorption and window
/// subtraction on mixed stacks: each lands bit for bit on the stack fed
/// the matching stream.
#[test]
fn mixed_stacks_merge_subtract_absorb_and_window_exactly() {
    let mut rng = Lcg(0x11AE);
    for (n, width, depth) in layout_shapes() {
        let params = SketchParams::new(n, width, depth)
            .with_seed(rng.below(1_000))
            .with_hash_kind(HashKind::OneHash);
        let what = format!("{params:?}");
        let (a, b) = (
            integer_stream(n, 300, &mut rng),
            integer_stream(n, 300, &mut rng),
        );
        let fed = |parts: &[&[(u64, f64)]]| {
            let mut rs = RangeSumSketch::new(&params);
            for part in parts {
                rs.update_batch(part);
            }
            rs
        };
        let both = plane_bits(&fed(&[&a, &b]).snapshot());
        let only_b = plane_bits(&fed(&[&b]).snapshot());

        let mut merged = fed(&[&a]);
        merged.merge_from(&fed(&[&b])).unwrap();
        assert_eq!(plane_bits(&merged.snapshot()), both, "{what}: merge");

        let whole = fed(&[&a, &b]);
        let mut snap = whole.snapshot();
        whole.subtract_snapshot(&mut snap, &fed(&[&a]).snapshot());
        assert_eq!(plane_bits(&snap), only_b, "{what}: subtract_snapshot");

        let absorbed = RangeSumSketch::<Atomic>::with_backend(&params);
        absorbed.absorb_plane_shared(&whole.snapshot()).unwrap();
        assert_eq!(plane_bits(&absorbed.snapshot()), both, "{what}: absorb");
        for (lo, hi) in [(0, n - 1), (n / 3, n - 1 - n / 5)] {
            assert_eq!(
                absorbed.query(lo, hi).to_bits(),
                whole.query(lo, hi).to_bits(),
                "{what}"
            );
        }

        // A sliding window of two intervals over three: the window
        // answer is the stack fed only the last two.
        let c = integer_stream(n, 300, &mut rng);
        let mut engine = QueryEngine::with_policy(
            1,
            RangeSumSketch::<Atomic>::with_backend(&params),
            Sliding::new(2).unwrap(),
        );
        for part in [&a, &b] {
            engine.extend_from_slice(part);
            engine.advance_interval();
        }
        engine.extend_from_slice(&c);
        engine.flush();
        let window = fed(&[&b, &c]);
        let mut ranges = vec![(0, n - 1)];
        ranges.extend(
            exact_only_ranges(n, window.grid_levels())
                .into_iter()
                .take(50),
        );
        for (lo, hi) in ranges {
            assert_eq!(
                engine.range_sum_in_window(lo, hi).unwrap().to_bits(),
                window.query(lo, hi).to_bits(),
                "{what}: window [{lo}, {hi}]"
            );
        }
    }
}
