//! Linearity across the whole stack: merging sketches must equal
//! sketching the summed stream, the distributed protocol must be
//! exactly equivalent to centralized sketching, and the shared-counter
//! ingest path must commute with both (the one shared writer adds the
//! same sums into each cell in the same order). A shipped plane adds
//! only into a sketch of its own shape.

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::sketches::{AbsorbPlane, MergeError};

fn split_updates(n: u64, parts: usize, seed: u64) -> (Vec<Vec<(u64, f64)>>, Vec<f64>) {
    // Deterministic pseudo-random update streams, split across parts.
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut shards = vec![Vec::new(); parts];
    let mut truth = vec![0.0f64; n as usize];
    // Integer-valued deltas keep f64 sums exact regardless of order, so
    // the merged and centralized paths are bit-identical. (With general
    // reals, summation order can flip near-tied buckets in the sorted
    // bias window — both outcomes are valid estimates, but not equal.)
    for step in 0..(n as usize * 4) {
        let item = rng() % n;
        let delta = (rng() % 100) as f64 - 30.0;
        shards[step % parts].push((item, delta));
        truth[item as usize] += delta;
    }
    (shards, truth)
}

#[test]
fn count_median_merge_is_exact() {
    let n = 500u64;
    let (shards, _) = split_updates(n, 3, 11);
    let params = SketchParams::new(n, 64, 5).with_seed(1);
    let mut merged = CountMedian::new(&params);
    let mut combined = CountMedian::new(&params);
    let mut firsts = Vec::new();
    for shard in &shards {
        let mut local = CountMedian::new(&params);
        for &(i, d) in shard {
            local.update(i, d);
            combined.update(i, d);
        }
        firsts.push(local);
    }
    for local in &firsts {
        merged.merge_from(local).unwrap();
    }
    // Equality up to float summation order (updates hit buckets in a
    // different order on the two paths).
    for j in 0..n {
        assert!(
            (merged.estimate(j) - combined.estimate(j)).abs() < 1e-9,
            "item {j}: {} vs {}",
            merged.estimate(j),
            combined.estimate(j)
        );
    }
}

#[test]
fn l1_and_l2_distributed_equals_centralized() {
    let n = 800u64;
    let (shards, truth) = split_updates(n, 4, 23);
    let sites: Vec<SiteData> = shards
        .iter()
        .map(|s| SiteData::from_updates(s.clone()))
        .collect();

    let l1_cfg = L1Config::new(n, 96, 7).with_seed(19);
    let run1 = DistributedRun::execute(&sites, || L1SketchRecover::new(&l1_cfg));
    let mut central1 = L1SketchRecover::new(&l1_cfg);
    for shard in &shards {
        for &(i, d) in shard {
            central1.update(i, d);
        }
    }
    assert!((run1.global.bias() - central1.bias()).abs() < 1e-6);
    for j in (0..n).step_by(31) {
        assert!(
            (run1.global.estimate(j) - central1.estimate(j)).abs() < 1e-6,
            "l1 item {j}"
        );
    }

    let l2_cfg = L2Config::new(n, 96, 7).with_seed(19);
    let run2 = DistributedRun::execute(&sites, || L2SketchRecover::new(&l2_cfg));
    let mut central2 = L2SketchRecover::new(&l2_cfg);
    for shard in &shards {
        for &(i, d) in shard {
            central2.update(i, d);
        }
    }
    assert!((run2.global.bias() - central2.bias()).abs() < 1e-6);
    for j in (0..n).step_by(31) {
        assert!(
            (run2.global.estimate(j) - central2.estimate(j)).abs() < 1e-6,
            "l2 item {j}"
        );
    }

    // And the protocol actually saves communication.
    assert!(run2.savings_factor() > 1.0);
    let _ = truth;
}

#[test]
fn merge_order_does_not_matter() {
    let n = 300u64;
    let (shards, _) = split_updates(n, 3, 7);
    let cfg = L2Config::new(n, 64, 5).with_seed(3);
    let locals: Vec<L2SketchRecover> = shards
        .iter()
        .map(|shard| {
            let mut sk = L2SketchRecover::new(&cfg);
            for &(i, d) in shard {
                sk.update(i, d);
            }
            sk
        })
        .collect();
    let mut fwd = locals[0].clone();
    fwd.merge_from(&locals[1]).unwrap();
    fwd.merge_from(&locals[2]).unwrap();
    let mut rev = locals[2].clone();
    rev.merge_from(&locals[1]).unwrap();
    rev.merge_from(&locals[0]).unwrap();
    for j in (0..n).step_by(17) {
        assert!((fwd.estimate(j) - rev.estimate(j)).abs() < 1e-6, "item {j}");
    }
    assert!((fwd.bias() - rev.bias()).abs() < 1e-9);
}

#[test]
fn range_sum_sketch_merges() {
    let n = 256u64;
    let params = SketchParams::new(n, 64, 5).with_seed(5);
    let mut a = RangeSumSketch::new(&params);
    let mut b = RangeSumSketch::new(&params);
    let mut c = RangeSumSketch::new(&params);
    for i in 0..n {
        a.update(i, 1.0);
        b.update(i, (i % 2) as f64);
        c.update(i, 1.0 + (i % 2) as f64);
    }
    a.merge_from(&b).unwrap();
    for (lo, hi) in [(0u64, 255u64), (10, 99), (128, 200)] {
        assert!((a.query(lo, hi) - c.query(lo, hi)).abs() < 1e-9);
    }
}

#[test]
fn distributed_run_with_many_sites_scales_communication_linearly() {
    let n = 4096u64;
    let make_sites = |t: usize| -> Vec<SiteData> {
        (0..t)
            .map(|s| SiteData::from_updates(vec![(s as u64, 1.0)]))
            .collect()
    };
    let cfg = L2Config::new(n, 128, 5).with_seed(2);
    let run4 = DistributedRun::execute(&make_sites(4), || L2SketchRecover::new(&cfg));
    let run8 = DistributedRun::execute(&make_sites(8), || L2SketchRecover::new(&cfg));
    assert_eq!(run4.words_per_site, run8.words_per_site);
    // Upload grows linearly in t (seed messages too).
    assert_eq!(
        2 * (run4.total_words),
        run8.total_words,
        "communication should double with twice the sites"
    );
}

#[test]
fn atomic_backed_sketches_merge_like_dense_ones() {
    // Linearity is a property of the counters' values, not their
    // storage: merging Atomic-backed sketches equals merging Dense
    // ones on the same shards.
    let n = 400u64;
    let (shards, _) = split_updates(n, 3, 41);
    let params = SketchParams::new(n, 64, 5).with_seed(5);
    let mut dense_merged = CountSketch::new(&params);
    let mut atomic_merged = AtomicCountSketch::with_backend(&params);
    for shard in &shards {
        let mut dense_local = CountSketch::new(&params);
        let mut atomic_local = AtomicCountSketch::with_backend(&params);
        for &(i, d) in shard {
            dense_local.update(i, d);
            atomic_local.update(i, d);
        }
        dense_merged.merge_from(&dense_local).unwrap();
        atomic_merged.merge_from(&atomic_local).unwrap();
    }
    for j in 0..n {
        assert_eq!(
            dense_merged.estimate(j),
            atomic_merged.estimate(j),
            "item {j}"
        );
    }
}

#[test]
fn concurrent_shared_ingest_is_linear_too() {
    // One shared sketch with one writer == merging per-shard sketches
    // == centralized ingest, on integer-delta streams. The three
    // multi-party stories (shared counters, local merge, distributed
    // protocol) describe the same linear object.
    let n = 500u64;
    let mut shards = vec![Vec::new(); 3];
    for step in 0..4_000u64 {
        // Integer deltas keep all paths bit-for-bit comparable.
        let item = (step * 31 + 7) % n;
        let delta = (step % 6) as f64;
        shards[(step % 3) as usize].push((item, delta));
    }
    let params = SketchParams::new(n, 64, 5).with_seed(11);

    let live = EpochHandle::new(AtomicCountMedian::with_backend(&params));
    let mut concurrent = ConcurrentIngest::new(live).with_flush_threshold(256);
    for shard in &shards {
        concurrent.extend_from_slice(shard);
    }
    let shared = concurrent.finish();
    let shared = shared.sketch();

    let mut merged = CountMedian::new(&params);
    for shard in &shards {
        let mut local = CountMedian::new(&params);
        local.update_batch(shard);
        merged.merge_from(&local).unwrap();
    }

    let sites: Vec<SiteData> = shards
        .iter()
        .map(|s| SiteData::from_updates(s.clone()))
        .collect();
    let run = DistributedRun::execute(&sites, || CountMedian::new(&params));

    for j in 0..n {
        assert_eq!(shared.estimate(j), merged.estimate(j), "shared item {j}");
        assert_eq!(shared.estimate(j), run.global.estimate(j), "dist item {j}");
    }
}

/// Every cell of a plane, as its bits.
fn cell_bits(plane: &CounterMatrix<f64>) -> Vec<u64> {
    plane.snapshot().iter().map(|v| v.to_bits()).collect()
}

/// Absorbs a plane too narrow and one too deep into `sketch`: each must
/// be refused as a shape mismatch with every counter's bits unchanged,
/// and a plane of the sketch's own shape must still add.
fn assert_refuses_misshapen_planes<S>(sketch: &S, label: &str)
where
    S: AbsorbPlane<Snapshot = CounterMatrix<f64>>,
{
    let live = sketch.snapshot();
    let (width, depth) = (live.width(), live.depth());
    for (what, (w, d)) in [("narrow", (width / 2, depth)), ("deep", (width, depth + 1))] {
        let plane = CounterMatrix::<f64>::from_cells(w, d, vec![1.0; w * d]);
        assert_eq!(
            sketch.absorb_plane_shared(&plane),
            Err(MergeError::ShapeMismatch {
                what: "widths/depths"
            }),
            "{label}: {what} plane"
        );
        assert_eq!(
            cell_bits(&sketch.snapshot()),
            cell_bits(&live),
            "{label}: the {what} plane wrote"
        );
    }
    sketch.absorb_plane_shared(&live).unwrap();
    let doubled: Vec<u64> = live
        .snapshot()
        .iter()
        .map(|v| (2.0 * v).to_bits())
        .collect();
    assert_eq!(
        cell_bits(&sketch.snapshot()),
        doubled,
        "{label}: own-shape plane"
    );
}

#[test]
fn misshapen_planes_are_refused_before_any_write() {
    let params = SketchParams::new(100, 8, 2).with_seed(3);
    let updates: Vec<(u64, f64)> = (0..60u64).map(|i| (i * 7 % 100, (i % 5) as f64)).collect();
    let median = AtomicCountMedian::with_backend(&params);
    let sketch = AtomicCountSketch::with_backend(&params);
    median.update_batch_shared(&updates);
    sketch.update_batch_shared(&updates);
    assert_refuses_misshapen_planes(&median, "Count-Median");
    assert_refuses_misshapen_planes(&sketch, "Count-Sketch");
}
