//! Serialization round-trips: a sketch shipped over the wire (the
//! distributed protocol's site → coordinator message) must deserialize
//! into a sketch that answers every query identically and can still be
//! merged.

use bias_aware_sketches::core::{L1Config, L1SketchRecover, L2Config, L2SketchRecover};
use bias_aware_sketches::hashing::{
    BucketHasher, CarterWegman, SignHash, SignHasher, SplitMix64, Tabulation,
};
use bias_aware_sketches::prelude::*;
use bias_aware_sketches::sketches::storage::{self, Atomic, CounterMatrix, Dense};

fn populated<T: PointQuerySketch>(mut sk: T) -> T {
    for i in 0..400u64 {
        sk.update(i, 30.0 + (i % 7) as f64);
    }
    sk.update(9, 5_000.0);
    sk
}

#[test]
fn count_sketch_roundtrip_preserves_estimates() {
    let params = SketchParams::new(400, 64, 5).with_seed(3);
    let original = populated(CountSketch::new(&params));
    let json = serde_json::to_string(&original).expect("serialize");
    let back: CountSketch = serde_json::from_str(&json).expect("deserialize");
    for j in 0..400u64 {
        assert_eq!(original.estimate(j), back.estimate(j), "item {j}");
    }
}

#[test]
fn count_median_roundtrip_and_merge() {
    let params = SketchParams::new(400, 32, 4).with_seed(5);
    let a = populated(CountMedian::new(&params));
    let json = serde_json::to_string(&a).unwrap();
    let mut back: CountMedian = serde_json::from_str(&json).unwrap();
    // A deserialized sketch is a first-class citizen: merging works.
    back.merge_from(&a).unwrap();
    for j in (0..400u64).step_by(13) {
        assert!((back.estimate(j) - 2.0 * a.estimate(j)).abs() < 1e-9);
    }
}

/// The range-sum stack ships its params, its grid levels and its exact
/// levels. Both layouts — the rule's mixed stack and the older
/// all-grid one — come back with the same layout, the same cell width
/// and bit-for-bit answers, and still merge and take updates.
#[test]
fn range_sum_roundtrip_keeps_its_layout_and_answers() {
    let params = SketchParams::new(1_024, 16, 3)
        .with_seed(6)
        .with_cell(storage::CellWidth::U32);
    for layout in [5, 11] {
        let original = populated(RangeSumSketch::<Dense>::with_grid_levels(&params, layout));
        let json = serde_json::to_string(&original).unwrap();
        let mut back: RangeSumSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back.grid_levels(), layout);
        assert_eq!(back.config(), original.config());
        for (a, b) in [(0u64, 1_023u64), (0, 31), (64, 511), (9, 9), (100, 900)] {
            assert_eq!(back.query(a, b).to_bits(), original.query(a, b).to_bits());
        }
        back.merge_from(&original).unwrap();
        back.update(3, 1.0);
        assert_eq!(back.query(0, 1_023), 2.0 * original.query(0, 1_023) + 1.0);
    }
    let atomic = populated(RangeSumSketch::<Atomic>::with_backend(&params));
    let back: RangeSumSketch =
        serde_json::from_str(&serde_json::to_string(&atomic).unwrap()).unwrap();
    assert_eq!(
        back.query(10, 700).to_bits(),
        atomic.query(10, 700).to_bits()
    );
}

#[test]
fn l1_and_l2_roundtrip_preserve_bias_and_estimates() {
    let l1 = populated(L1SketchRecover::new(
        &L1Config::new(400, 64, 5).with_seed(7),
    ));
    let json = serde_json::to_string(&l1).unwrap();
    let back: L1SketchRecover = serde_json::from_str(&json).unwrap();
    assert_eq!(l1.bias(), back.bias());
    for j in (0..400u64).step_by(29) {
        assert_eq!(l1.estimate(j), back.estimate(j));
    }

    let l2 = populated(L2SketchRecover::new(
        &L2Config::new(400, 64, 5).with_seed(7),
    ));
    let json = serde_json::to_string(&l2).unwrap();
    let mut back: L2SketchRecover = serde_json::from_str(&json).unwrap();
    assert_eq!(l2.bias(), back.bias());
    for j in (0..400u64).step_by(29) {
        assert_eq!(l2.estimate(j), back.estimate(j));
    }
    // The deserialized sketch keeps streaming: the Bias-Heap state came
    // across the wire intact.
    back.update(3, 100.0);
    assert!(back.bias().is_finite());
}

#[test]
fn distributed_merge_through_serialization() {
    // Simulate the real wire protocol: each site serializes its local
    // sketch; the coordinator deserializes and adds.
    let cfg = L2Config::new(300, 32, 4).with_seed(11);
    let mut shipped = Vec::new();
    for site in 0..3u64 {
        let mut local = L2SketchRecover::new(&cfg);
        for i in 0..300u64 {
            local.update(i, (site + 1) as f64);
        }
        shipped.push(serde_json::to_string(&local).unwrap());
    }
    let mut global: L2SketchRecover = serde_json::from_str(&shipped[0]).unwrap();
    for wire in &shipped[1..] {
        let local: L2SketchRecover = serde_json::from_str(wire).unwrap();
        global.merge_from(&local).unwrap();
    }
    // Every coordinate saw 1 + 2 + 3 = 6.
    for j in (0..300u64).step_by(17) {
        assert!((global.estimate(j) - 6.0).abs() < 3.0, "item {j}");
    }
}

#[test]
fn hash_functions_roundtrip_bit_exact() {
    let mut seeder = SplitMix64::new(99);
    let cw = CarterWegman::sample(&mut seeder, 1000);
    let back: CarterWegman = serde_json::from_str(&serde_json::to_string(&cw).unwrap()).unwrap();
    let tab = Tabulation::sample(&mut seeder, 777);
    let tab_back: Tabulation = serde_json::from_str(&serde_json::to_string(&tab).unwrap()).unwrap();
    let sign = SignHash::sample(&mut seeder);
    let sign_back: SignHash = serde_json::from_str(&serde_json::to_string(&sign).unwrap()).unwrap();
    for x in 0..2000u64 {
        assert_eq!(cw.bucket(x), back.bucket(x));
        assert_eq!(tab.bucket(x), tab_back.bucket(x));
        assert_eq!(sign.sign(x), sign_back.sign(x));
    }
}

#[test]
fn tabulation_rejects_corrupt_wire_data() {
    let bad = r#"{"tables":[1,2,3],"buckets":8}"#;
    let res: Result<Tabulation, _> = serde_json::from_str(bad);
    assert!(res.is_err());
    let bad_buckets = format!(
        r#"{{"tables":[{}],"buckets":0}}"#,
        vec!["0"; 2048].join(",")
    );
    let res: Result<Tabulation, _> = serde_json::from_str(&bad_buckets);
    assert!(res.is_err());
}

#[test]
fn configs_roundtrip() {
    let cfg = L2Config::new(100, 32, 4).with_seed(9).with_k(5);
    let back: L2Config = serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
    assert_eq!(cfg, back);
    let params = SketchParams::new(10, 4, 2).with_seed(1);
    let back: SketchParams =
        serde_json::from_str(&serde_json::to_string(&params).unwrap()).unwrap();
    assert_eq!(params, back);
}

#[test]
fn counter_matrix_roundtrips_dense() {
    let mut m = CounterMatrix::<f64>::new(5, 3);
    for row in 0..3 {
        for col in 0..5 {
            m.add(row, col, (row * 5 + col) as f64 * 0.5 - 3.0);
        }
    }
    let json = serde_json::to_string(&m).unwrap();
    let back: CounterMatrix<f64> = serde_json::from_str(&json).unwrap();
    assert_eq!(m, back);
    assert_eq!(back.width(), 5);
    assert_eq!(back.depth(), 3);
}

#[test]
fn counter_matrix_atomic_serializes_as_dense_snapshot() {
    // The wire format is backend-independent: an Atomic matrix ships
    // its dense snapshot and can be read back into either backend.
    let atomic = {
        let m = CounterMatrix::<f64, Atomic>::new(4, 2);
        m.add_shared(0, 1, 7.5);
        m.add_shared(1, 3, -2.0);
        m
    };
    let wire_atomic = serde_json::to_string(&atomic).unwrap();
    let dense: CounterMatrix<f64, Dense> = atomic.to_backend();
    let wire_dense = serde_json::to_string(&dense).unwrap();
    assert_eq!(wire_atomic, wire_dense, "identical bytes on the wire");

    let back_dense: CounterMatrix<f64, Dense> = serde_json::from_str(&wire_atomic).unwrap();
    let back_atomic: CounterMatrix<f64, Atomic> = serde_json::from_str(&wire_atomic).unwrap();
    assert_eq!(back_dense, atomic);
    assert_eq!(back_atomic, atomic);
}

#[test]
fn counter_matrix_integer_cells_roundtrip() {
    let mut m = CounterMatrix::<u64>::new(3, 2);
    m.add(1, 2, 41);
    m.add(1, 2, 1);
    let back: CounterMatrix<u64> =
        serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
    assert_eq!(m, back);
}

#[test]
fn counter_matrix_rejects_shape_mismatch_on_the_wire() {
    let bad = r#"{"cells":[1.0,2.0,3.0],"width":2,"depth":2}"#;
    let res: Result<CounterMatrix<f64>, _> = serde_json::from_str(bad);
    assert!(res.is_err());
    let missing = r#"{"cells":[1.0,2.0],"width":2}"#;
    let res: Result<CounterMatrix<f64>, _> = serde_json::from_str(missing);
    assert!(res.is_err());
}

#[test]
fn atomic_backed_sketch_roundtrips_through_dense_wire_format() {
    // An Atomic-backed ingest sketch serializes to exactly the same
    // bytes as its Dense twin and deserializes into either backend —
    // so a ConcurrentIngest site can ship its sketch to a coordinator
    // that knows nothing about storage backends.
    use bias_aware_sketches::prelude::*;
    let params = SketchParams::new(300, 32, 5).with_seed(9);
    let mut atomic = AtomicCountSketch::with_backend(&params);
    let mut dense = CountSketch::new(&params);
    for i in 0..300u64 {
        atomic.update(i, (i % 11) as f64);
        dense.update(i, (i % 11) as f64);
    }
    let wire_atomic = serde_json::to_string(&atomic).unwrap();
    let wire_dense = serde_json::to_string(&dense).unwrap();
    assert_eq!(wire_atomic, wire_dense);

    let back: CountSketch = serde_json::from_str(&wire_atomic).unwrap();
    let mut merged: AtomicCountSketch = serde_json::from_str(&wire_dense).unwrap();
    merged.merge_from(&atomic).unwrap();
    for j in (0..300u64).step_by(7) {
        assert_eq!(back.estimate(j), atomic.estimate(j), "item {j}");
        assert!((merged.estimate(j) - 2.0 * atomic.estimate(j)).abs() < 1e-9);
    }
}
