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

use bias_aware_sketches::hashing::HashKind;
use bias_aware_sketches::prelude::*;
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
    fn count_min_plain_kernel_equals_loop_atomic(
        updates in cash_register(),
        seed in 0u64..500,
    ) {
        let p = one_hash_params(seed);
        let (b, l) = batch_vs_loop(
            AtomicCountMin::with_backend(&p, UpdatePolicy::Plain),
            AtomicCountMin::with_backend(&p, UpdatePolicy::Plain),
            &updates,
        );
        assert_estimates_equal(&b, &l)?;
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
        // the kernel, so both layers must agree exactly.
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

        let shared = AtomicCountMin::with_backend(&p, UpdatePolicy::Plain);
        shared.update_batch_shared(&updates);
        let mut looped = AtomicCountMin::with_backend(&p, UpdatePolicy::Plain);
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

    /// Compact cells take the same shared kernel: a `U32` atomic grid
    /// lands where the loop does on in-range integer deltas.
    #[test]
    fn shared_batch_equals_loop_on_compact_cells(
        updates in arrivals(),
        seed in 0u64..500,
    ) {
        let p = one_hash_params(seed).with_cell(storage::CellWidth::U32);
        let shared = AtomicCountMedian::with_backend(&p);
        shared.update_batch_shared(&updates);
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
