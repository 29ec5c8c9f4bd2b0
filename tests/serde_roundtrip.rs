//! Serialization round-trips: a sketch shipped over the wire (the
//! distributed protocol's site → coordinator message) must deserialize
//! into a sketch that answers every query identically and can still be
//! merged.

use bias_aware_sketches::core::{L1Config, L1SketchRecover, L2Config, L2SketchRecover};
use bias_aware_sketches::hashing::{
    BucketHasher, CarterWegman, HashKind, SignHash, SignHasher, SplitMix64, Tabulation,
};
use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{IngestFrame, TenantRef};
use bias_aware_sketches::server::{
    Fabric, FabricConfig, Request, Response, ServingMode, TenantSpec, TenantTransfer, WindowLen,
};
use bias_aware_sketches::sketches::storage::{Atomic, CounterMatrix, Dense};

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
/// all-grid one — come back with the same layout and params and
/// bit-for-bit answers, and still merge and take updates.
#[test]
fn range_sum_roundtrip_keeps_its_layout_and_answers() {
    let params = SketchParams::new(1_024, 16, 3).with_seed(6);
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

// ---- the wire format, pinned byte for byte ----
//
// Three values must serialize to these JSON literals byte for byte: a
// sketch, a range-sum stack with grid and exact levels, and a tenant
// transfer. Peers, checkpoints and journals written by earlier builds
// hold this format, so a changed key, field order, number spelling or
// nesting fails here.

/// A small populated Count-Median.
fn golden_count_median() -> CountMedian {
    let mut cm = CountMedian::new(&SketchParams::new(16, 4, 3).with_seed(5));
    cm.update_batch(&[(1, 2.0), (7, -1.5), (12, 4.25), (1, 0.5)]);
    cm
}

/// A range-sum stack with three grid levels and three exact ones.
fn golden_range_sum() -> RangeSumSketch {
    let mut rs = RangeSumSketch::new(&SketchParams::new(32, 4, 2).with_seed(6));
    assert_eq!((rs.grid_levels(), rs.num_levels()), (3, 6));
    rs.update_batch(&[(0, 1.0), (5, 2.5), (17, -3.0), (31, 8.0), (5, 0.25)]);
    rs
}

/// A sliding tenant's export: its cumulative plane and one seal.
fn golden_transfer() -> TenantTransfer {
    let params = SketchParams::new(16, 4, 2).with_hash_kind(HashKind::OneHash);
    let mut fabric = Fabric::new(FabricConfig::new(params));
    fabric.add_shard(0, 1.0).unwrap();
    let spec =
        TenantSpec::frequency(1, 7).with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }));
    fabric.register_tenant(spec).unwrap();
    for (round, updates) in [vec![(3, 1.0), (9, 2.0)], vec![(3, 0.5), (15, 4.0)]]
        .into_iter()
        .enumerate()
    {
        if round > 0 {
            fabric.handle(Request::AdvanceInterval(TenantRef { tenant: 1 }));
        }
        let resp = fabric.handle(Request::Ingest(IngestFrame { tenant: 1, updates }));
        assert!(matches!(resp, Response::Admitted(_)), "{resp:?}");
    }
    match fabric.handle(Request::Export(TenantRef { tenant: 1 })) {
        Response::Exported(transfer) => transfer,
        other => panic!("expected a transfer, got {other:?}"),
    }
}

const GOLDEN_COUNT_MEDIAN: &str = r#"{"params":{"n":16,"width":4,"depth":3,"seed":5,"hash_kind":"CarterWegman"},"grid":{"cells":[4.25,1.0,0.0,0.0,0.0,-1.5,2.5,4.25,4.25,0.0,2.5,-1.5],"width":4,"depth":3},"hashers":[{"CarterWegman":{"a":482206458634632329,"b":1029672902100438905,"buckets":4}},{"CarterWegman":{"a":437750886500886736,"b":1010141448094507259,"buckets":4}},{"CarterWegman":{"a":122358771272486788,"b":31414836621263986,"buckets":4}}]}"#;

const GOLDEN_RANGE_SUM: &str = r#"{"params":{"n":32,"width":4,"depth":2,"seed":6,"hash_kind":"CarterWegman"},"grids":[{"params":{"n":32,"width":4,"depth":2,"seed":40509,"hash_kind":"CarterWegman"},"grid":{"cells":[0.0,-2.0,8.0,2.75,1.0,7.75,0.0,0.0],"width":4,"depth":2},"hashers":[{"CarterWegman":{"a":1243788657944049442,"b":2094797442673839656,"buckets":4}},{"CarterWegman":{"a":2125247347629850044,"b":1634861064430910520,"buckets":4}}]},{"params":{"n":16,"width":4,"depth":2,"seed":81012,"hash_kind":"CarterWegman"},"grid":{"cells":[1.0,0.0,2.75,5.0,0.0,-3.0,1.0,10.75],"width":4,"depth":2},"hashers":[{"CarterWegman":{"a":2166810782506166634,"b":1691064430995733298,"buckets":4}},{"CarterWegman":{"a":1078214029585620775,"b":411633815682022329,"buckets":4}}]},{"params":{"n":8,"width":4,"depth":2,"seed":121515,"hash_kind":"CarterWegman"},"grid":{"cells":[-3.0,8.0,0.0,3.75,0.0,-3.0,10.75,1.0],"width":4,"depth":2},"hashers":[{"CarterWegman":{"a":966999105335583746,"b":629244246398383263,"buckets":4}},{"CarterWegman":{"a":863111819322261725,"b":1538609997934851133,"buckets":4}}]}],"exact":[{"cells":[3.75,0.0,-3.0,8.0],"width":4,"depth":1},{"cells":[3.75,5.0],"width":2,"depth":1},{"cells":[8.75],"width":1,"depth":1}]}"#;

const GOLDEN_TRANSFER: &str = r#"{"spec":{"tenant":1,"seed":7,"metric":"Frequency","mode":{"Sliding":{"intervals":2}},"queue_capacity":1048576,"interval_quota":18446744073709551615,"audit_limit":0},"params":{"n":16,"width":4,"depth":2,"seed":7,"hash_kind":"OneHash"},"interval":1,"applied":4,"mass":7.5,"cumulative":[{"cells":[4.0,3.5,0.0,0.0,0.0,4.0,2.0,1.5],"width":4,"depth":2}],"seals":[{"interval":0,"applied":2,"mass":3.0,"planes":[{"cells":[0.0,3.0,0.0,0.0,0.0,0.0,2.0,1.0],"width":4,"depth":2}]}]}"#;

/// `$value` serializes to `$golden`, and `$golden` reads back into a
/// `$ty` that serializes to the same bytes.
macro_rules! assert_golden {
    ($value:expr, $ty:ty, $golden:expr) => {
        assert_eq!(serde_json::to_string(&$value).unwrap(), $golden);
        let back: $ty = serde_json::from_str($golden).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), $golden);
    };
}

#[test]
fn count_median_wire_format_is_unchanged() {
    assert_golden!(golden_count_median(), CountMedian, GOLDEN_COUNT_MEDIAN);
}

#[test]
fn range_sum_wire_format_is_unchanged() {
    assert_golden!(golden_range_sum(), RangeSumSketch, GOLDEN_RANGE_SUM);
}

#[test]
fn tenant_transfer_wire_format_is_unchanged() {
    assert_golden!(golden_transfer(), TenantTransfer, GOLDEN_TRANSFER);
}

/// Only a grid of compact integer cells ever wrote a `cell` key into
/// its params. Such params are refused, and so is every value that
/// carries them, instead of their cells being read as `f64` counters.
#[test]
fn params_with_a_cell_key_are_refused() {
    let params = r#"{"n":16,"width":4,"depth":3,"seed":5,"hash_kind":"CarterWegman"}"#;
    let read: SketchParams = serde_json::from_str(params).unwrap();
    assert_eq!(read, SketchParams::new(16, 4, 3).with_seed(5));
    for cell in ["\"F64\"", "\"U32\"", "\"U16\"", "7"] {
        let keyed = params.replace('}', &format!(r#","cell":{cell}}}"#));
        let err = serde_json::from_str::<SketchParams>(&keyed).unwrap_err();
        assert!(err.to_string().contains("`cell`"), "{cell}: {err}");
        let sketch = GOLDEN_COUNT_MEDIAN.replacen(params, &keyed, 1);
        assert_ne!(sketch, GOLDEN_COUNT_MEDIAN);
        let err = serde_json::from_str::<CountMedian>(&sketch).unwrap_err();
        assert!(err.to_string().contains("`cell`"), "{cell}: {err}");
    }
}
