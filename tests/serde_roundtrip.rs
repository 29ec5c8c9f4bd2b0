//! Serialization round-trips: a sketch shipped over the wire (the
//! distributed protocol's site → coordinator message) must deserialize
//! into a sketch that answers every query identically and can still be
//! merged.

use bias_aware_sketches::core::{L1Config, L1SketchRecover, L2Config, L2SketchRecover};
use bias_aware_sketches::hashing::{
    BucketHasher, CarterWegman, HashKind, SignHash, SignHasher, SplitMix64, Tabulation,
};
use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{
    AdmitReceipt, BusyReceipt, ErrorReply, FlushReceipt, HeavyHittersQuery, HeavyHittersReply,
    IngestFrame, InstallReceipt, PointQuery, RangeQuery, SealReceipt, ShedReceipt, StatsReply,
    TenantRef, ValueReply, WireBody,
};
use bias_aware_sketches::server::{
    Fabric, FabricConfig, JournalRecord, Request, Response, ServingMode, ShardRecord, TenantSpec,
    TenantTransfer, WindowLen,
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

/// `GOLDEN_TRANSFER` is what the checkpoints of journals written before
/// the binary layouts hold: it still reads, as the same transfer with
/// no updates counted against its interval's quota (the JSON has no
/// such count), and a transfer still writes it, so tests can build
/// such journals.
#[test]
fn tenant_transfer_wire_format_is_unchanged() {
    let transfer = golden_transfer();
    assert_eq!(transfer.admitted_in_interval, 2);
    let read: TenantTransfer = serde_json::from_str(GOLDEN_TRANSFER).unwrap();
    assert_eq!(
        read,
        TenantTransfer {
            admitted_in_interval: 0,
            ..transfer.clone()
        }
    );
    assert_eq!(serde_json::to_string(&transfer).unwrap(), GOLDEN_TRANSFER);
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

// ---- the binary bodies, pinned byte for byte ----
//
// Every request, reply and journal-record kind, and a transfer framed
// on its own, encodes to these bodies (hex), and each body decodes to
// a value that encodes back to the same bytes. The daemon speaks and
// its journal holds exactly these layouts (the `wire` module docs
// tabulate them), so a changed tag, field order or width fails here.

/// The spec of `golden_transfer`'s tenant.
fn golden_spec() -> TenantSpec {
    TenantSpec::frequency(1, 7).with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }))
}

/// `golden_spec`'s fields: tenant 1, seed 7, frequency, sliding over 2
/// intervals, queue capacity 2^20, quota `u64::MAX`, no audit.
const GOLDEN_SPEC_FIELDS: &str = "01000000000000000700000000000000000202000000000000000000100000000000ffffffffffffffff0000000000000000";

/// `golden_transfer`'s fields: the spec, the params (n 16, width 4,
/// depth 2, seed 7, one-hash), interval 1, applied 4, mass 7.5, 2
/// admitted in the interval, one 4 x 2 cumulative plane and one seal.
const GOLDEN_TRANSFER_FIELDS: &str = concat!(
    "0100000000000000070000000000000000020200000000000000000010000000",
    "0000ffffffffffffffff00000000000000001000000000000000040000000000",
    "0000020000000000000007000000000000000301000000000000000400000000",
    "0000000000000000001e40020000000000000001000000040000000000000002",
    "0000000000000000000000000010400000000000000c40000000000000000000",
    "0000000000000000000000000000000000000000001040000000000000004000",
    "0000000000f83f01000000000000000000000002000000000000000000000000",
    "0008400100000004000000000000000200000000000000000000000000000000",
    "0000000000084000000000000000000000000000000000000000000000000000",
    "000000000000000000000000000040000000000000f03f",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `value` encodes to the body `golden` spells, which decodes to a value
/// that encodes to the same bytes.
fn assert_body<T: WireBody + std::fmt::Debug>(value: &T, golden: &str) {
    let mut body = Vec::new();
    value.encode_body(&mut body).unwrap();
    assert_eq!(hex(&body), golden, "{value:?}");
    let mut again = Vec::new();
    T::decode_body(&body)
        .unwrap()
        .encode_body(&mut again)
        .unwrap();
    assert_eq!(again, body, "{value:?}");
}

#[test]
fn request_bodies_are_pinned() {
    let ingest = IngestFrame {
        tenant: 1,
        updates: vec![(3, 1.0), (9, -2.5)],
    };
    let point = PointQuery { tenant: 1, item: 3 };
    let heavy = HeavyHittersQuery {
        tenant: 1,
        phi: 0.25,
    };
    let range = RangeQuery {
        tenant: 2,
        lo: 3,
        hi: 9,
    };
    let one = TenantRef { tenant: 1 };
    let cases = [
        (Request::Ping, "00".to_string()),
        (Request::Ingest(ingest), "010100000000000000020000000300000000000000000000000000f03f090000000000000000000000000004c0".to_string()),
        (Request::Flush(one), "020100000000000000".to_string()),
        (Request::AdvanceInterval(one), "030100000000000000".to_string()),
        (Request::Point(point), "0401000000000000000300000000000000".to_string()),
        (Request::WindowPoint(point), "0501000000000000000300000000000000".to_string()),
        (Request::HeavyHitters(heavy), "060100000000000000000000000000d03f".to_string()),
        (Request::WindowHeavyHitters(heavy), "070100000000000000000000000000d03f".to_string()),
        (Request::RangeSum(range), "08020000000000000003000000000000000900000000000000".to_string()),
        (Request::WindowRangeSum(range), "09020000000000000003000000000000000900000000000000".to_string()),
        (Request::Stats(one), "0a0100000000000000".to_string()),
        (Request::Export(one), "0b0100000000000000".to_string()),
        (
            Request::Install(golden_transfer()),
            format!("0c{GOLDEN_TRANSFER_FIELDS}"),
        ),
        (
            Request::Register(golden_spec()),
            format!("0d{GOLDEN_SPEC_FIELDS}"),
        ),
    ];
    for (request, golden) in &cases {
        assert_body(request, golden);
    }
}

#[test]
fn response_bodies_are_pinned() {
    let cases = [
        (Response::Pong, "00".to_string()),
        (
            Response::Admitted(AdmitReceipt {
                tenant: 1,
                pending: 4,
            }),
            "0101000000000000000400000000000000".to_string(),
        ),
        (
            Response::Busy(BusyReceipt {
                tenant: 1,
                pending: 4,
                capacity: 8,
            }),
            "02010000000000000004000000000000000800000000000000".to_string(),
        ),
        (
            Response::Shed(ShedReceipt {
                tenant: 1,
                admitted: 4,
                quota: 8,
            }),
            "03010000000000000004000000000000000800000000000000".to_string(),
        ),
        (
            Response::Flushed(FlushReceipt {
                tenant: 1,
                applied: 4,
            }),
            "0401000000000000000400000000000000".to_string(),
        ),
        (
            Response::Sealed(SealReceipt {
                tenant: 1,
                sealed_interval: 0,
            }),
            "0501000000000000000000000000000000".to_string(),
        ),
        (
            Response::Value(ValueReply {
                tenant: 1,
                value: 1.5,
            }),
            "060100000000000000000000000000f83f".to_string(),
        ),
        (
            Response::HeavyHitters(HeavyHittersReply {
                tenant: 1,
                items: vec![(15, 4.0), (3, 1.5)],
            }),
            "070100000000000000020000000f0000000000000000000000000010400300000000000000000000000000f83f".to_string(),
        ),
        (
            Response::Stats(StatsReply {
                tenant: 1,
                shard: 0,
                applied: 4,
                mass: 7.5,
                pending: 0,
                admitted_in_interval: 2,
                interval: 1,
            }),
            "080100000000000000000000000000000004000000000000000000000000001e40000000000000000002000000000000000100000000000000".to_string(),
        ),
        (
            Response::Exported(golden_transfer()),
            format!("09{GOLDEN_TRANSFER_FIELDS}"),
        ),
        (
            Response::Installed(InstallReceipt {
                tenant: 1,
                shard: 0,
            }),
            "0a01000000000000000000000000000000".to_string(),
        ),
        (
            Response::Error(ErrorReply::new("bad_query", "phi")),
            "0b090000006261645f717565727903000000706869".to_string(),
        ),
    ];
    for (response, golden) in &cases {
        assert_body(response, golden);
    }
}

#[test]
fn journal_record_and_transfer_bodies_are_pinned() {
    let shard = ShardRecord {
        shard: 0,
        weight: 1.0,
    };
    let cases = [
        (
            JournalRecord::ShardAdded(shard),
            "000000000000000000000000000000f03f".to_string(),
        ),
        (
            JournalRecord::ShardRemoved(shard),
            "010000000000000000000000000000f03f".to_string(),
        ),
        (
            JournalRecord::TenantRegistered(golden_spec()),
            format!("02{GOLDEN_SPEC_FIELDS}"),
        ),
        (
            JournalRecord::IntervalAdvanced(TenantRef { tenant: 1 }),
            "030100000000000000".to_string(),
        ),
        (
            JournalRecord::Checkpoint(golden_transfer()),
            format!("04{GOLDEN_TRANSFER_FIELDS}"),
        ),
    ];
    for (record, golden) in &cases {
        assert_body(record, golden);
    }
    assert_body(&golden_transfer(), &format!("00{GOLDEN_TRANSFER_FIELDS}"));
}
