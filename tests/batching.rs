//! Property tests for the batched ingest pipeline:
//!
//! 1. `update_batch` ≡ the same updates applied one-by-one, for every
//!    sketch in the workspace (bit-for-bit — the batch fast paths only
//!    reorder work across *different* counters, never the deltas into
//!    one counter, and CML-CU draws from its RNG in the same order);
//! 2. `ShardedIngest` with `k` shards ≡ a single-threaded sketch
//!    (bit-for-bit on integer-delta streams, where `f64` addition is
//!    exact, so linearity holds with no rounding caveat);
//! 3. the chunked driver delivers every update exactly once, in order;
//! 4. storage-layer equivalences: the `Atomic` backend is unobservable
//!    under sequential (exclusive) ingest, and `ConcurrentIngest` into
//!    one shared sketch matches the single-threaded reference exactly
//!    on integer deltas / within 1e-9 relative on fractional ones.

use bias_aware_sketches::core::{
    L1Config, L1SketchRecover, L2BiasMaintenance, L2Config, L2SketchRecover,
};
use bias_aware_sketches::pipeline::ShardedIngest;
use bias_aware_sketches::prelude::*;
use proptest::prelude::*;

const N: u64 = 128;

/// Turnstile update streams over a small universe.
fn turnstile() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..N, -50.0f64..50.0), 1..200)
}

/// Cash-register (non-negative) update streams.
fn cash_register() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..N, 0.0f64..50.0), 1..200)
}

/// Integer-delta arrival streams (CML-CU's model; also what makes the
/// sharded linearity test exact).
fn arrivals() -> impl Strategy<Value = Vec<(u64, f64)>> {
    prop::collection::vec((0u64..N, 1u64..5), 1..200)
        .prop_map(|v| v.into_iter().map(|(i, d)| (i, d as f64)).collect())
}

/// Asserts estimates agree bit-for-bit on the whole universe (the two
/// sketches may differ in type — e.g. Dense- vs Atomic-backed).
fn assert_estimates_equal<A: PointQuerySketch, B: PointQuerySketch>(
    a: &A,
    b: &B,
) -> Result<(), TestCaseError> {
    for j in 0..N {
        prop_assert_eq!(a.estimate(j), b.estimate(j));
    }
    Ok(())
}

/// Feeds `updates` through a `ShardedIngest` of `shards` sketches from
/// `make` and asserts the merge equals one sketch fed item by item.
fn assert_sharded_equals_loop<S: MergeableSketch + Send>(
    make: impl Fn() -> S,
    updates: &[(u64, f64)],
    shards: usize,
    flush_at: usize,
) -> Result<(), TestCaseError> {
    let mut ingest = ShardedIngest::new(shards, &make).with_flush_threshold(flush_at);
    ingest.extend_from_slice(updates);
    let mut reference = make();
    for &(i, d) in updates {
        reference.update(i, d);
    }
    assert_estimates_equal(&ingest.finish(), &reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn count_median_batch_equals_loop(updates in turnstile(), seed in 0u64..500) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let mut batched = CountMedian::new(&p);
        let mut looped = CountMedian::new(&p);
        batched.update_batch(&updates);
        for &(i, d) in &updates { looped.update(i, d); }
        assert_estimates_equal(&batched, &looped)?;
    }

    #[test]
    fn count_sketch_batch_equals_loop(updates in turnstile(), seed in 0u64..500) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let mut batched = CountSketch::new(&p);
        let mut looped = CountSketch::new(&p);
        batched.update_batch(&updates);
        for &(i, d) in &updates { looped.update(i, d); }
        assert_estimates_equal(&batched, &looped)?;
    }

    #[test]
    fn count_min_batch_equals_loop_both_policies(
        updates in cash_register(),
        seed in 0u64..500,
        conservative in prop::bool::ANY,
    ) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let policy = if conservative { UpdatePolicy::Conservative } else { UpdatePolicy::Plain };
        let mut batched = CountMin::new(&p, policy);
        let mut looped = CountMin::new(&p, policy);
        batched.update_batch(&updates);
        for &(i, d) in &updates { looped.update(i, d); }
        assert_estimates_equal(&batched, &looped)?;
    }

    #[test]
    fn count_min_log_batch_equals_loop(updates in arrivals(), seed in 0u64..500) {
        // Same seed => same RNG stream; the batch path draws its
        // geometric variates in identical order.
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let mut batched = CountMinLog::new(&p);
        let mut looped = CountMinLog::new(&p);
        batched.update_batch(&updates);
        for &(i, d) in &updates { looped.update(i, d); }
        assert_estimates_equal(&batched, &looped)?;
    }

    #[test]
    fn range_sum_batch_equals_loop(updates in turnstile(), seed in 0u64..500) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let mut batched = RangeSumSketch::new(&p);
        let mut looped = RangeSumSketch::new(&p);
        batched.update_batch(&updates);
        for &(i, d) in &updates { looped.update(i, d); }
        for (a, b) in [(0u64, N - 1), (5, 90), (17, 17), (100, 127)] {
            prop_assert_eq!(batched.query(a, b), looped.query(a, b));
        }
    }

    #[test]
    fn l1_sketch_batch_equals_loop(updates in turnstile(), seed in 0u64..500) {
        let cfg = L1Config::new(N, 16, 3).with_seed(seed);
        let mut batched = L1SketchRecover::new(&cfg);
        let mut looped = L1SketchRecover::new(&cfg);
        batched.update_batch(&updates);
        for &(i, d) in &updates { looped.update(i, d); }
        prop_assert_eq!(batched.bias(), looped.bias());
        assert_estimates_equal(&batched, &looped)?;
    }

    #[test]
    fn l2_sketch_batch_equals_loop(
        updates in turnstile(),
        seed in 0u64..500,
        mode in 0usize..3,
    ) {
        let maintenance = [
            L2BiasMaintenance::BiasHeap,
            L2BiasMaintenance::OrderStatTree,
            L2BiasMaintenance::Resort,
        ][mode];
        let cfg = L2Config::new(N, 16, 3).with_seed(seed).with_maintenance(maintenance);
        let mut batched = L2SketchRecover::new(&cfg);
        let mut looped = L2SketchRecover::new(&cfg);
        batched.update_batch(&updates);
        for &(i, d) in &updates { looped.update(i, d); }
        prop_assert_eq!(batched.bias(), looped.bias());
        assert_estimates_equal(&batched, &looped)?;
    }

    /// The tentpole linearity claim: k same-seed shards, merged, equal
    /// the single-threaded sketch bit-for-bit (integer deltas), for
    /// Count-Sketch and for Count-Median.
    #[test]
    fn sharded_ingest_equals_single_threaded(
        updates in arrivals(),
        seed in 0u64..200,
        shards in 1usize..5,
        flush_at in 1usize..64,
    ) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        assert_sharded_equals_loop(|| CountSketch::new(&p), &updates, shards, flush_at)?;
        assert_sharded_equals_loop(|| CountMedian::new(&p), &updates, shards, flush_at)?;
    }

    /// Same claim for the paper's own sketch, bias estimate included.
    #[test]
    fn sharded_l2_equals_single_threaded(
        updates in arrivals(),
        seed in 0u64..200,
        shards in 1usize..4,
    ) {
        let cfg = L2Config::new(N, 16, 3).with_seed(seed);
        let mut ingest = ShardedIngest::new(shards, || L2SketchRecover::new(&cfg))
            .with_flush_threshold(32);
        ingest.extend_from_slice(&updates);
        let merged = ingest.finish();
        let mut reference = L2SketchRecover::new(&cfg);
        for &(i, d) in &updates { reference.update(i, d); }
        prop_assert_eq!(merged.bias(), reference.bias());
        assert_estimates_equal(&merged, &reference)?;
    }

    /// General real deltas: linearity up to floating-point rounding.
    #[test]
    fn sharded_ingest_real_deltas_close(
        updates in turnstile(),
        seed in 0u64..200,
        shards in 2usize..5,
    ) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let mut ingest = ShardedIngest::new(shards, || CountMedian::new(&p))
            .with_flush_threshold(16);
        ingest.extend_from_slice(&updates);
        let merged = ingest.finish();
        let mut reference = CountMedian::new(&p);
        reference.update_batch(&updates);
        let scale: f64 = updates.iter().map(|(_, d)| d.abs()).sum::<f64>() + 1.0;
        for j in 0..N {
            let (a, b) = (merged.estimate(j), reference.estimate(j));
            prop_assert!((a - b).abs() <= 1e-12 * scale, "item {}: {} vs {}", j, a, b);
        }
    }

    /// Storage layer: under exclusive access the Atomic backend must
    /// be bit-for-bit indistinguishable from Dense, for every sketch
    /// update path.
    #[test]
    fn atomic_backend_sequential_equals_dense(updates in turnstile(), seed in 0u64..500) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let mut dense = CountSketch::new(&p);
        let mut atomic = AtomicCountSketch::with_backend(&p);
        dense.update_batch(&updates);
        atomic.update_batch(&updates);
        assert_estimates_equal(&dense, &atomic)?;

        let mut dense = CountMedian::new(&p);
        let mut atomic = AtomicCountMedian::with_backend(&p);
        for &(i, d) in &updates {
            dense.update(i, d);
            atomic.update(i, d);
        }
        assert_estimates_equal(&dense, &atomic)?;
    }

    /// Storage layer: shared (`&self`) ingest equals exclusive ingest
    /// when applied sequentially — the single-writer add is exact.
    #[test]
    fn shared_updates_equal_exclusive_updates(updates in turnstile(), seed in 0u64..500) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let mut exclusive = AtomicCountSketch::with_backend(&p);
        let shared = AtomicCountSketch::with_backend(&p);
        for &(i, d) in &updates {
            exclusive.update(i, d);
            shared.update_shared(i, d);
        }
        assert_estimates_equal(&exclusive, &shared)?;
    }

    /// The tentpole claim: one writer flushing ONE shared
    /// atomic-backed sketch, at any flush size, equals the
    /// single-threaded sketch exactly.
    #[test]
    fn concurrent_ingest_equals_single_threaded(
        updates in arrivals(),
        seed in 0u64..200,
        flush_at in 1usize..64,
    ) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let live = EpochHandle::new(AtomicCountSketch::with_backend(&p));
        let mut ingest = ConcurrentIngest::new(live).with_flush_threshold(flush_at);
        ingest.extend_from_slice(&updates);
        let shared = ingest.finish();
        let mut reference = CountSketch::new(&p);
        for &(i, d) in &updates { reference.update(i, d); }
        assert_estimates_equal(shared.sketch(), &reference)?;
    }

    /// General real deltas through the shared path: the one writer
    /// gives every cell its increments in stream order, so the result
    /// is the single-threaded sketch bit for bit, at any flush size.
    #[test]
    fn concurrent_ingest_real_deltas_close(
        updates in turnstile(),
        seed in 0u64..200,
        flush_at in 1usize..64,
    ) {
        let p = SketchParams::new(N, 16, 3).with_seed(seed);
        let live = EpochHandle::new(AtomicCountMedian::with_backend(&p));
        let mut ingest = ConcurrentIngest::new(live).with_flush_threshold(flush_at);
        ingest.extend_from_slice(&updates);
        let shared = ingest.finish();
        let mut reference = CountMedian::new(&p);
        reference.update_batch(&updates);
        for j in 0..N {
            let (a, b) = (shared.sketch().estimate(j), reference.estimate(j));
            prop_assert!(a.to_bits() == b.to_bits(), "item {}: {} vs {}", j, a, b);
        }
    }

    /// The chunked driver is a faithful reordering-free transport.
    #[test]
    fn drive_chunked_delivers_everything_once(
        updates in turnstile(),
        chunk in 1usize..40,
    ) {
        let stream = updates.iter().map(|&(i, d)| StreamUpdate::new(i, d));
        let mut seen = Vec::new();
        let total = drive_chunked(stream, chunk, |c| seen.extend_from_slice(c));
        prop_assert_eq!(total as usize, updates.len());
        prop_assert_eq!(seen, updates);
    }
}

/// Deterministic spot check that batching + sharding compose with the
/// distributed protocol: sites using batched ingest produce the same
/// global sketch as a centralized one.
#[test]
fn distributed_sites_use_batched_path_and_agree() {
    let n = 600u64;
    let sites: Vec<SiteData> = (0..3)
        .map(|s| {
            SiteData::from_updates(
                (0..n)
                    .filter(|i| i % 3 == s)
                    .map(|i| (i, 2.0 + (i % 4) as f64))
                    .collect(),
            )
        })
        .collect();
    let params = SketchParams::new(n, 64, 5).with_seed(13);
    let run = DistributedRun::execute(&sites, || CountSketch::new(&params));
    let mut central = CountSketch::new(&params);
    for i in 0..n {
        central.update(i, 2.0 + (i % 4) as f64);
    }
    for j in 0..n {
        assert_eq!(run.global.estimate(j), central.estimate(j), "item {j}");
    }
}
