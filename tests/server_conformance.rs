//! Tenant conformance for the multi-tenant serving fabric: every
//! tenant's answers through the fabric (and through the wire
//! connection loop) must be **bit-for-bit** the answers of a dedicated
//! single-tenant engine fed the same stream — before and after a live
//! rebalance — and one tenant's backpressure must never touch its
//! neighbors.
//!
//! Streams here use integer-valued deltas, so `f64` accumulation is
//! exact and bit-for-bit equality is the honest assertion (the same
//! contract `tests/linearity.rs` pins down for merges).

use bias_aware_sketches::hashing::HashKind;
use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{
    HeavyHittersQuery, IngestFrame, PointQuery, RangeQuery, SealFrame, TenantRef,
};
use bias_aware_sketches::server::{
    call, read_frame, read_journal, recover, serve_connection, write_frame, Fabric, FabricConfig,
    Journal, JournalRecord, Request, Response, ServingMode, ShardRecord, TenantSpec,
    TenantTransfer, WindowLen, WireError, MAX_FRAME_BYTES,
};

const N: u64 = 4_096;

fn params() -> SketchParams {
    SketchParams::new(N, 128, 5)
}

fn config() -> FabricConfig {
    FabricConfig::new(params())
}

/// A deterministic per-tenant stream of integer-valued updates.
fn stream(tenant: u64, len: usize) -> Vec<(u64, f64)> {
    let mut state = tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let item = (state >> 33) % N;
            let delta = ((state >> 11) % 5) as f64 + 1.0;
            (item, delta)
        })
        .collect()
}

fn expect_value(resp: Response) -> f64 {
    match resp {
        Response::Value(v) => v.value,
        other => panic!("expected a value, got {other:?}"),
    }
}

fn expect_hh(resp: Response) -> Vec<(u64, f64)> {
    match resp {
        Response::HeavyHitters(r) => r.items,
        other => panic!("expected heavy hitters, got {other:?}"),
    }
}

fn hh_pairs(items: Vec<HeavyHitter>) -> Vec<(u64, f64)> {
    items.into_iter().map(|h| (h.item, h.estimate)).collect()
}

/// Fabric answers for N tenants with distinct seeds and serving modes
/// are bit-for-bit the answers of dedicated engines, across point,
/// heavy-hitter, range-sum, and window-scoped queries.
#[test]
fn tenants_match_dedicated_engines_bit_for_bit() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();

    let freq_spec = TenantSpec::frequency(1, 101);
    let slide_spec =
        TenantSpec::frequency(2, 202).with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }));
    let range_spec =
        TenantSpec::range_sum(3, 303).with_mode(ServingMode::Tumbling(WindowLen { intervals: 1 }));
    for spec in [freq_spec, slide_spec, range_spec] {
        fabric.register_tenant(spec).unwrap();
    }

    // Dedicated mirrors, built from the same template + per-tenant seed.
    let mut freq = QueryEngine::with_policy(
        1,
        AtomicCountMedian::with_backend(&params().with_seed(101)),
        Unbounded,
    );
    let mut slide = QueryEngine::with_policy(
        1,
        AtomicCountMedian::with_backend(&params().with_seed(202)),
        Sliding::new(2).unwrap(),
    );
    let mut range = QueryEngine::with_policy(
        1,
        RangeSumSketch::<Atomic>::with_backend(&params().with_seed(303)),
        Tumbling::new(1).unwrap(),
    );

    for round in 0..3u64 {
        for (tenant, mirror) in [(1u64, 0usize), (2, 1), (3, 2)] {
            let batch = stream(tenant * 17 + round, 600);
            let resp = fabric.handle(Request::Ingest(IngestFrame {
                tenant,
                updates: batch.clone(),
            }));
            assert!(matches!(resp, Response::Admitted(_)), "{resp:?}");
            match mirror {
                0 => freq.extend_from_slice(&batch),
                1 => slide.extend_from_slice(&batch),
                _ => range.extend_from_slice(&batch),
            }
        }
        for tenant in [1u64, 2, 3] {
            fabric.handle(Request::AdvanceInterval(TenantRef { tenant }));
        }
        freq.advance_interval();
        slide.advance_interval();
        range.advance_interval();
    }

    for item in (0..N).step_by(97) {
        let got = expect_value(fabric.handle(Request::Point(PointQuery { tenant: 1, item })));
        assert_eq!(
            got.to_bits(),
            freq.estimate_live(item).to_bits(),
            "item {item}"
        );

        let got = expect_value(fabric.handle(Request::WindowPoint(PointQuery { tenant: 2, item })));
        assert_eq!(
            got.to_bits(),
            slide.point_in_window(item).to_bits(),
            "item {item}"
        );
    }

    let got = expect_hh(fabric.handle(Request::HeavyHitters(HeavyHittersQuery {
        tenant: 1,
        phi: 0.002,
    })));
    assert_eq!(got, hh_pairs(freq.try_heavy_hitters(0.002).unwrap()));

    let got = expect_hh(
        fabric.handle(Request::WindowHeavyHitters(HeavyHittersQuery {
            tenant: 2,
            phi: 0.002,
        })),
    );
    assert_eq!(got, hh_pairs(slide.heavy_hitters_in_window(0.002).unwrap()));

    for (lo, hi) in [(0u64, N - 1), (100, 900), (2_000, 2_048)] {
        let got = expect_value(fabric.handle(Request::RangeSum(RangeQuery { tenant: 3, lo, hi })));
        assert_eq!(
            got.to_bits(),
            range.range_sum(lo, hi).to_bits(),
            "[{lo},{hi}]"
        );
        let got =
            expect_value(fabric.handle(Request::WindowRangeSum(RangeQuery { tenant: 3, lo, hi })));
        assert_eq!(
            got.to_bits(),
            range.range_sum_in_window(lo, hi).unwrap().to_bits(),
            "[{lo},{hi}]"
        );
    }
}

/// The same conformance holds end-to-end through the wire connection
/// loop: framed requests in, framed responses out.
#[test]
fn wire_connection_loop_matches_dedicated_engine() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(7, 777))
        .unwrap();

    let mut mirror = QueryEngine::with_policy(
        1,
        AtomicCountMedian::with_backend(&params().with_seed(777)),
        Unbounded,
    );
    let batch = stream(7, 2_000);
    mirror.extend_from_slice(&batch);
    mirror.flush();

    // Client side: frame all requests into one buffer up front.
    let mut requests = Vec::new();
    bias_aware_sketches::server::write_frame(
        &mut requests,
        &Request::Ingest(IngestFrame {
            tenant: 7,
            updates: batch,
        }),
    )
    .unwrap();
    bias_aware_sketches::server::write_frame(
        &mut requests,
        &Request::Flush(TenantRef { tenant: 7 }),
    )
    .unwrap();
    for item in (0..N).step_by(131) {
        bias_aware_sketches::server::write_frame(
            &mut requests,
            &Request::Point(PointQuery { tenant: 7, item }),
        )
        .unwrap();
    }

    let mut responses = Vec::new();
    let answered = serve_connection(
        &fabric,
        &mut &requests[..],
        &mut responses,
        bias_aware_sketches::server::MAX_FRAME_BYTES,
    )
    .unwrap();
    assert_eq!(answered, 2 + (0..N).step_by(131).count() as u64);

    let mut cursor = &responses[..];
    let read = |c: &mut &[u8]| {
        bias_aware_sketches::server::read_frame::<_, Response>(
            c,
            bias_aware_sketches::server::MAX_FRAME_BYTES,
        )
        .unwrap()
        .unwrap()
    };
    assert!(matches!(read(&mut cursor), Response::Admitted(_)));
    assert!(matches!(read(&mut cursor), Response::Flushed(_)));
    for item in (0..N).step_by(131) {
        let got = expect_value(read(&mut cursor));
        assert_eq!(
            got.to_bits(),
            mirror.estimate_live(item).to_bits(),
            "item {item}"
        );
    }
    // And the client-side helper speaks the same protocol.
    let mut req_buf = Vec::new();
    let mut resp_buf = Vec::new();
    let mut staged = Vec::new();
    bias_aware_sketches::server::write_frame(&mut staged, &Request::Ping).unwrap();
    drop(staged);
    {
        // call() writes into req_buf; serve it, then let call() read.
        let mut half_done = Vec::new();
        bias_aware_sketches::server::write_frame(&mut half_done, &Request::Ping).unwrap();
        serve_connection(
            &fabric,
            &mut &half_done[..],
            &mut resp_buf,
            bias_aware_sketches::server::MAX_FRAME_BYTES,
        )
        .unwrap();
    }
    let resp = call(
        &mut &resp_buf[..],
        &mut req_buf,
        &Request::Ping,
        bias_aware_sketches::server::MAX_FRAME_BYTES,
    )
    .unwrap();
    assert_eq!(resp, Response::Pong);
}

/// A rebalanced tenant keeps answering bit-for-bit: ingest, grow the
/// ring (tenants ship to the new shard through the wire format), keep
/// ingesting, and compare every answer against never-moved mirrors.
#[test]
fn rebalanced_tenants_answer_bit_for_bit() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();

    let tenants: Vec<u64> = (10..30).collect();
    let mut mirrors: Vec<_> = tenants
        .iter()
        .map(|&t| {
            fabric
                .register_tenant(
                    TenantSpec::frequency(t, t * 1_000 + 7)
                        .with_mode(ServingMode::Sliding(WindowLen { intervals: 3 })),
                )
                .unwrap();
            QueryEngine::with_policy(
                1,
                AtomicCountMedian::with_backend(&params().with_seed(t * 1_000 + 7)),
                Sliding::new(3).unwrap(),
            )
        })
        .collect();

    // Phase 1: ingest + a couple of interval seals.
    for round in 0..2u64 {
        for (i, &t) in tenants.iter().enumerate() {
            let batch = stream(t ^ round, 400);
            fabric.handle(Request::Ingest(IngestFrame {
                tenant: t,
                updates: batch.clone(),
            }));
            mirrors[i].extend_from_slice(&batch);
            fabric.handle(Request::AdvanceInterval(TenantRef { tenant: t }));
            mirrors[i].advance_interval();
        }
    }

    // Grow the ring: some tenants ship to shard 2 by linearity.
    let report = fabric.add_shard(2, 1.0).unwrap();
    assert!(
        !report.moved.is_empty(),
        "expected at least one tenant to move"
    );
    assert!(report.bytes_shipped > 0);
    assert!(
        fabric.meter().total_words() > 0,
        "transfer traffic must be metered"
    );
    for m in &report.moved {
        assert_eq!(m.to, 2, "growth may only move tenants onto the new shard");
        assert_eq!(fabric.shard_of(m.tenant), Some(2));
    }

    // Phase 2: keep ingesting after the move.
    for (i, &t) in tenants.iter().enumerate() {
        let batch = stream(t.wrapping_mul(31), 400);
        fabric.handle(Request::Ingest(IngestFrame {
            tenant: t,
            updates: batch.clone(),
        }));
        mirrors[i].extend_from_slice(&batch);
    }

    for (i, &t) in tenants.iter().enumerate() {
        for item in (0..N).step_by(211) {
            let got = expect_value(fabric.handle(Request::Point(PointQuery { tenant: t, item })));
            assert_eq!(
                got.to_bits(),
                mirrors[i].estimate_live(item).to_bits(),
                "tenant {t} item {item}"
            );
            let got =
                expect_value(fabric.handle(Request::WindowPoint(PointQuery { tenant: t, item })));
            assert_eq!(
                got.to_bits(),
                mirrors[i].point_in_window(item).to_bits(),
                "tenant {t} item {item} (window)"
            );
        }
        let got = expect_hh(
            fabric.handle(Request::WindowHeavyHitters(HeavyHittersQuery {
                tenant: t,
                phi: 0.005,
            })),
        );
        assert_eq!(
            got,
            hh_pairs(mirrors[i].heavy_hitters_in_window(0.005).unwrap())
        );
    }

    // Shrink back: shard 2's tenants return to the survivors, still
    // bit-for-bit.
    let report = fabric.remove_shard(2).unwrap();
    assert!(!report.moved.is_empty());
    for (i, &t) in tenants.iter().enumerate() {
        assert_ne!(fabric.shard_of(t), Some(2));
        // Export flushes the shipped engines; drain both sides so the
        // comparison sees the same applied prefix everywhere.
        fabric.handle(Request::Flush(TenantRef { tenant: t }));
        mirrors[i].flush();
        for item in (0..N).step_by(509) {
            let got = expect_value(fabric.handle(Request::Point(PointQuery { tenant: t, item })));
            assert_eq!(got.to_bits(), mirrors[i].estimate_live(item).to_bits());
        }
    }
}

/// Windowed tenants whose transfers pass the 16 MiB frame cap a peer's
/// frames are held to still move: a rebalance ships inside one
/// process. A `Sliding(16)` tenant that `add_shard(1)` moves and a
/// `Tumbling(16)` tenant that `remove_shard(0)` moves each ship 16
/// seals and a cumulative plane of 16,384 × 9 cells, 20.1 MB. Each call
/// returns `Ok`, leaves every tenant where the ring places it, and
/// changes no answer.
#[test]
fn transfers_past_the_frame_cap_rebalance_bit_for_bit() {
    const K: u64 = 16;
    let mut fabric = Fabric::new(FabricConfig::new(SketchParams::new(N, 16_384, 9)));
    fabric.add_shard(0, 1.0).unwrap();
    let mut grown = PlacementRing::new();
    grown.add_shard(0, 1.0);
    grown.add_shard(1, 1.0);
    let lands_on = |shard| (1..).find(|&t| grown.place(t) == Some(shard)).unwrap();
    let (mover, stayer) = (lands_on(1), lands_on(0));
    let window = WindowLen { intervals: K };
    for (tenant, mode) in [
        (mover, ServingMode::Sliding(window)),
        (stayer, ServingMode::Tumbling(window)),
    ] {
        let spec = TenantSpec::frequency(tenant, tenant * 1_000 + 9).with_mode(mode);
        fabric.register_tenant(spec).unwrap();
        for round in 0..=K {
            fabric.handle(Request::Ingest(IngestFrame {
                tenant,
                updates: stream(tenant * 100 + round, 200),
            }));
            fabric.handle(Request::AdvanceInterval(TenantRef { tenant }));
        }
        fabric.handle(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(tenant + 7, 200),
        }));
        // Export flushes, so the transfer and the answers below see the
        // same applied prefix.
        let Response::Exported(transfer) = fabric.handle(Request::Export(TenantRef { tenant }))
        else {
            panic!("tenant {tenant} exports");
        };
        let bytes = write_frame(&mut Vec::new(), &transfer).unwrap();
        assert!(bytes > MAX_FRAME_BYTES, "tenant {tenant}: {bytes} bytes");
    }
    let tenants = [mover, stayer];
    // Every answer but the hosting shard, which the moves change.
    let answers = |fabric: &mut Fabric| {
        let mut out = Vec::new();
        for tenant in tenants {
            out.extend(answer_bits(fabric, &[tenant]).into_iter().skip(1));
            let (_shard, applied, mass, pending, admitted, interval) = stats_bits(fabric, tenant);
            out.push(format!(
                "{:?}",
                (applied, mass, pending, admitted, interval)
            ));
        }
        out
    };
    let before = answers(&mut fabric);

    let report = fabric.add_shard(1, 1.0).unwrap();
    let moved: Vec<u64> = report.moved.iter().map(|m| m.tenant).collect();
    assert_eq!(moved, [mover]);
    assert!(report.bytes_shipped > MAX_FRAME_BYTES as u64);
    for tenant in tenants {
        assert_eq!(fabric.shard_of(tenant), fabric.ring().place(tenant));
    }
    assert_eq!(answers(&mut fabric), before, "after add_shard(1)");

    let report = fabric.remove_shard(0).unwrap();
    let moved: Vec<u64> = report.moved.iter().map(|m| m.tenant).collect();
    assert_eq!(moved, [stayer]);
    for tenant in tenants {
        assert_eq!(fabric.shard_of(tenant), Some(1));
        assert_eq!(fabric.shard_of(tenant), fabric.ring().place(tenant));
    }
    assert_eq!(answers(&mut fabric), before, "after remove_shard(0)");
}

/// Backpressure and shedding: a saturated tenant gets `Busy`/`Shed`
/// receipts, its queue bound holds, nothing is partially admitted —
/// and its neighbors' answers are untouched.
#[test]
fn backpressure_is_explicit_bounded_and_isolated() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();

    let hog = TenantSpec::frequency(1, 11)
        .with_queue_capacity(64)
        .with_interval_quota(200);
    fabric.register_tenant(hog).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(2, 22))
        .unwrap();

    // The neighbor ingests first; its answers are the baseline.
    let neighbor_batch = stream(2, 1_000);
    fabric.handle(Request::Ingest(IngestFrame {
        tenant: 2,
        updates: neighbor_batch.clone(),
    }));
    fabric.handle(Request::Flush(TenantRef { tenant: 2 }));
    let baseline: Vec<f64> = (0..N)
        .step_by(173)
        .map(|item| expect_value(fabric.handle(Request::Point(PointQuery { tenant: 2, item }))))
        .collect();

    // A batch wider than the queue bound: Busy, nothing admitted.
    let oversized = stream(1, 65);
    match fabric.handle(Request::Ingest(IngestFrame {
        tenant: 1,
        updates: oversized,
    })) {
        Response::Busy(b) => {
            assert_eq!(b.capacity, 64);
            assert_eq!(b.pending, 0, "a rejected batch must admit nothing");
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // Admissible batches up to the quota (flushing between batches to
    // drain the queue): each receipt's pending obeys the queue bound.
    let mut admitted = 0u64;
    for _ in 0..5 {
        match fabric.handle(Request::Ingest(IngestFrame {
            tenant: 1,
            updates: stream(1, 40),
        })) {
            Response::Admitted(a) => {
                admitted += 40;
                assert!(a.pending <= 64, "queue bound violated: {}", a.pending);
            }
            other => panic!("{other:?}"),
        }
        fabric.handle(Request::Flush(TenantRef { tenant: 1 }));
    }
    assert_eq!(admitted, 200, "exactly the quota is admitted");

    // The queue is drained, but the interval quota is spent: even a
    // one-update batch sheds (Shed, not Busy — quota outranks queue).

    // Still over quota → Shed; the quota resets with the interval.
    assert!(matches!(
        fabric.handle(Request::Ingest(IngestFrame {
            tenant: 1,
            updates: stream(1, 1),
        })),
        Response::Shed(_)
    ));
    fabric.handle(Request::AdvanceInterval(TenantRef { tenant: 1 }));
    assert!(matches!(
        fabric.handle(Request::Ingest(IngestFrame {
            tenant: 1,
            updates: stream(1, 1),
        })),
        Response::Admitted(_)
    ));

    // Isolation: the hog's saturation never touched the neighbor.
    let mirror = {
        let mut e = QueryEngine::with_policy(
            1,
            AtomicCountMedian::with_backend(&params().with_seed(22)),
            Unbounded,
        );
        e.extend_from_slice(&neighbor_batch);
        e.flush();
        e
    };
    for (i, item) in (0..N).step_by(173).enumerate() {
        let now = expect_value(fabric.handle(Request::Point(PointQuery { tenant: 2, item })));
        assert_eq!(
            now.to_bits(),
            baseline[i].to_bits(),
            "neighbor answer drifted"
        );
        assert_eq!(now.to_bits(), mirror.estimate_live(item).to_bits());
    }
}

/// Per-tenant audit budgets ride the spec: over-budget point queries
/// are refused with `audit_rejected`, and the budget renews when the
/// interval advances.
#[test]
fn audit_budgets_are_enforced_per_tenant() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(5, 55).with_audit_limit(2))
        .unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(6, 66))
        .unwrap();
    fabric.handle(Request::Ingest(IngestFrame {
        tenant: 5,
        updates: stream(5, 100),
    }));

    for _ in 0..2 {
        assert!(matches!(
            fabric.handle(Request::Point(PointQuery { tenant: 5, item: 1 })),
            Response::Value(_)
        ));
    }
    match fabric.handle(Request::Point(PointQuery { tenant: 5, item: 1 })) {
        Response::Error(e) => assert_eq!(e.code, "audit_rejected"),
        other => panic!("expected audit refusal, got {other:?}"),
    }
    // A different key still has budget; the unaudited tenant is free.
    assert!(matches!(
        fabric.handle(Request::Point(PointQuery { tenant: 5, item: 2 })),
        Response::Value(_)
    ));
    for _ in 0..10 {
        assert!(matches!(
            fabric.handle(Request::Point(PointQuery { tenant: 6, item: 1 })),
            Response::Value(_)
        ));
    }
    // Rotation renews the budget.
    fabric.handle(Request::AdvanceInterval(TenantRef { tenant: 5 }));
    assert!(matches!(
        fabric.handle(Request::Point(PointQuery { tenant: 5, item: 1 })),
        Response::Value(_)
    ));
}

/// Protocol-level rejections are typed responses, never panics:
/// unknown tenants, out-of-universe items, wrong-metric queries and
/// duplicate registration, beside a rotating tenant that serves.
#[test]
fn rejections_are_typed_responses() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(1, 10))
        .unwrap();
    fabric
        .register_tenant(
            TenantSpec::frequency(9, 90)
                .with_mode(ServingMode::Rotating(WindowLen { intervals: 2 })),
        )
        .unwrap();

    let unknown = fabric.handle(Request::Point(PointQuery {
        tenant: 99,
        item: 0,
    }));
    match unknown {
        Response::Error(e) => assert_eq!(e.code, "unknown_tenant"),
        other => panic!("{other:?}"),
    }
    match fabric.handle(Request::Point(PointQuery {
        tenant: 1,
        item: N + 5,
    })) {
        Response::Error(e) => assert_eq!(e.code, "bad_query"),
        other => panic!("{other:?}"),
    }
    match fabric.handle(Request::RangeSum(RangeQuery {
        tenant: 1,
        lo: 0,
        hi: 5,
    })) {
        Response::Error(e) => assert_eq!(e.code, "unsupported"),
        other => panic!("{other:?}"),
    }
    assert_eq!(
        fabric
            .register_tenant(TenantSpec::frequency(1, 10))
            .unwrap_err()
            .code,
        "tenant_exists"
    );
    // Rotating tenants serve.
    fabric.handle(Request::Ingest(IngestFrame {
        tenant: 9,
        updates: stream(9, 50),
    }));
    assert!(matches!(
        fabric.handle(Request::WindowPoint(PointQuery { tenant: 9, item: 3 })),
        Response::Value(_)
    ));
    // Before its first advance a rotating tenant is the sliding tenant
    // with its seed: one generation under the master seed.
    fabric
        .register_tenant(
            TenantSpec::frequency(10, 90)
                .with_mode(ServingMode::Sliding(WindowLen { intervals: 2 })),
        )
        .unwrap();
    fabric.handle(Request::Ingest(IngestFrame {
        tenant: 10,
        updates: stream(9, 50),
    }));
    for tenant in [9, 10] {
        fabric.handle(Request::Flush(TenantRef { tenant }));
    }
    let sliding = answer_bits(&mut fabric, &[10]);
    assert!(sliding[1] != "[]" && sliding[2] != "[]", "{sliding:?}");
    assert_eq!(answer_bits(&mut fabric, &[9])[1..], sliding[1..]);
    assert_eq!(position(&mut fabric, 9), position(&mut fabric, 10));
}

/// One per-key audit budget covers both point verbs: an audited
/// `Sliding` or `Tumbling` tenant refuses the third point read about an
/// item with `audit_rejected`, whichever verb asks, and
/// `AdvanceInterval` renews the budget.
#[test]
fn window_points_count_against_the_audit_budget() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let read = |tenant, item, window: bool| {
        let q = PointQuery { tenant, item };
        if window {
            Request::WindowPoint(q)
        } else {
            Request::Point(q)
        }
    };
    let modes = [
        ServingMode::Sliding(WindowLen { intervals: 2 }),
        ServingMode::Tumbling(WindowLen { intervals: 2 }),
    ];
    for (tenant, mode) in (20u64..).zip(modes) {
        let spec = TenantSpec::frequency(tenant, tenant * 7)
            .with_mode(mode)
            .with_audit_limit(2);
        fabric.register_tenant(spec).unwrap();
        fabric.handle(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(tenant, 200),
        }));
        fabric.handle(Request::Flush(TenantRef { tenant }));
        let orders = [
            [false, false, true],
            [true, true, false],
            [false, true, true],
            [true, false, true],
            [true, true, true],
        ];
        for (item, verbs) in (1u64..).zip(orders) {
            for (k, window) in verbs.into_iter().enumerate() {
                match (k, fabric.handle(read(tenant, item, window))) {
                    (0 | 1, Response::Value(_)) => {}
                    (2, Response::Error(e)) if e.code == "audit_rejected" => {}
                    (k, other) => panic!("{mode:?}, item {item}, read {k}: {other:?}"),
                }
            }
        }
        fabric.handle(Request::AdvanceInterval(TenantRef { tenant }));
        for item in 1..=5u64 {
            for window in [true, false] {
                let resp = fabric.handle(read(tenant, item, window));
                assert!(matches!(resp, Response::Value(_)), "{mode:?}: {resp:?}");
            }
        }
    }
}

/// `Request::Register` is the wire path for tenant creation: the
/// receipt names the same shard the in-process `register_tenant` would
/// pick, and a duplicate registration is a `tenant_exists` error.
#[test]
fn register_frame_creates_a_tenant_over_the_wire() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();
    let spec = TenantSpec::frequency(11, 1111);
    let expected = fabric.ring().place(11).unwrap();
    match fabric.handle(Request::Register(spec)) {
        Response::Installed(r) => {
            assert_eq!(r.tenant, 11);
            assert_eq!(r.shard, expected);
        }
        other => panic!("expected Installed, got {other:?}"),
    }
    match fabric.handle(Request::Register(spec)) {
        Response::Error(e) => assert_eq!(e.code, "tenant_exists"),
        other => panic!("expected tenant_exists, got {other:?}"),
    }
    fabric.handle(Request::Ingest(IngestFrame {
        tenant: 11,
        updates: stream(11, 32),
    }));
    assert!(matches!(
        fabric.handle(Request::Point(PointQuery {
            tenant: 11,
            item: 5
        })),
        Response::Value(_)
    ));
}

/// `Fabric::quiesce` seals every tenant's open interval exactly like
/// per-tenant `AdvanceInterval` frames would, so a post-quiesce fabric
/// answers like one advanced tenant-by-tenant.
#[test]
fn quiesce_matches_per_tenant_interval_advances() {
    let mut a = Fabric::new(config());
    let mut b = Fabric::new(config());
    for f in [&mut a, &mut b] {
        f.add_shard(0, 1.0).unwrap();
        let spec = TenantSpec::frequency(1, 42)
            .with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }));
        f.register_tenant(spec).unwrap();
        f.register_tenant(TenantSpec::frequency(2, 43)).unwrap();
        for t in [1u64, 2] {
            f.handle(Request::Ingest(IngestFrame {
                tenant: t,
                updates: stream(t, 100),
            }));
        }
    }
    let sealed = a.quiesce();
    assert_eq!(sealed.len(), 2);
    for t in [1u64, 2] {
        b.handle(Request::AdvanceInterval(TenantRef { tenant: t }));
    }
    for t in [1u64, 2] {
        for item in 0..32 {
            let qa = expect_value(a.handle(Request::Point(PointQuery { tenant: t, item })));
            let qb = expect_value(b.handle(Request::Point(PointQuery { tenant: t, item })));
            assert_eq!(qa.to_bits(), qb.to_bits());
            if t == 1 {
                // Window queries exist only for the sliding tenant.
                let wa =
                    expect_value(a.handle(Request::WindowPoint(PointQuery { tenant: t, item })));
                let wb =
                    expect_value(b.handle(Request::WindowPoint(PointQuery { tenant: t, item })));
                assert_eq!(wa.to_bits(), wb.to_bits());
            }
        }
    }
}

/// `(pending, admitted_in_interval)` from a tenant's stats reply.
fn admission_state(fabric: &mut Fabric, tenant: u64) -> (u64, u64) {
    match fabric.handle(Request::Stats(TenantRef { tenant })) {
        Response::Stats(s) => (s.pending, s.admitted_in_interval),
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Sends `updates` to `tenant` and expects a `bad_update` rejection
/// naming update `at` that leaves the admission state untouched.
fn expect_bad_update(fabric: &mut Fabric, tenant: u64, updates: Vec<(u64, f64)>, at: usize) {
    let before = admission_state(fabric, tenant);
    match fabric.handle(Request::Ingest(IngestFrame { tenant, updates })) {
        Response::Error(e) => {
            assert_eq!(e.code, "bad_update", "{e:?}");
            assert!(e.detail.contains(&format!("update {at} ")), "{e:?}");
        }
        other => panic!("expected bad_update, got {other:?}"),
    }
    assert_eq!(admission_state(fabric, tenant), before, "tenant {tenant}");
}

/// Hostile updates are refused at admission with a typed `bad_update`
/// that admits nothing: an item past a range-sum tenant's universe
/// (once admitted, then a panic in the next flush), +inf and NaN
/// deltas written into a binary ingest body (+inf once poisoned the
/// tenant). A fractional delta is admitted. A JSON ingest body carrying
/// `1e999` never reaches admission: the codec refuses it. No later
/// Flush, AdvanceInterval or quiesce panics, and every answer stays
/// equal to a twin fabric that never saw the hostile frames.
#[test]
fn hostile_updates_are_rejected_and_admit_nothing() {
    let build = || {
        let mut f = Fabric::new(config());
        f.add_shard(0, 1.0).unwrap();
        f.register_tenant(TenantSpec::frequency(1, 11)).unwrap();
        f.register_tenant(TenantSpec::range_sum(2, 22)).unwrap();
        for t in [1u64, 2] {
            f.handle(Request::Ingest(IngestFrame {
                tenant: t,
                updates: stream(t, 300),
            }));
        }
        f
    };
    let (mut fabric, mut twin) = (build(), build());

    // (u64::MAX, 1.0) into the range-sum tenant, behind good updates.
    let mut overflow = stream(2, 10);
    overflow.push((u64::MAX, 1.0));
    overflow.extend(stream(3, 5));
    expect_bad_update(&mut fabric, 2, overflow, 10);
    expect_bad_update(&mut fabric, 1, vec![(N, 1.0)], 0);

    // Non-finite deltas written straight into a binary ingest body
    // (+inf, and a NaN with a payload) decode bit for bit, so
    // admission is what refuses them.
    let probe = Request::Ingest(IngestFrame {
        tenant: 1,
        updates: vec![(5, 1.0), (6, 0.0625)],
    });
    for hostile in [f64::INFINITY, f64::from_bits(0x7FF8_0000_0000_0001)] {
        let mut raw = Vec::new();
        write_frame(&mut raw, &probe).unwrap();
        // 4-byte prefix, 13-byte head, then 16 bytes per update:
        // update 1's delta sits at 4 + 13 + 16 + 8.
        raw[41..49].copy_from_slice(&hostile.to_le_bytes());
        let decoded: Request = read_frame(&mut &raw[..], MAX_FRAME_BYTES).unwrap().unwrap();
        let Request::Ingest(frame) = decoded else {
            panic!("expected an ingest frame");
        };
        assert_eq!(frame.updates[1].1.to_bits(), hostile.to_bits());
        expect_bad_update(&mut fabric, 1, frame.updates, 1);
    }

    // The old JSON ingest body, whose float parser turns 1e999 into
    // +inf, is refused by the codec before admission sees it.
    let json = serde_json::to_string(&probe)
        .unwrap()
        .replace("0.0625", "1e999");
    assert!(json.contains("1e999"), "{json}");
    let mut raw = (json.len() as u32).to_be_bytes().to_vec();
    raw.extend_from_slice(json.as_bytes());
    match read_frame::<_, Request>(&mut &raw[..], MAX_FRAME_BYTES) {
        Err(e @ WireError::Malformed { .. }) => {
            assert!(e.is_recoverable());
            assert!(e.to_string().contains("binary body"), "{e}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    let before = admission_state(&mut fabric, 1);
    let mut replies = Vec::new();
    serve_connection(&fabric, &mut &raw[..], &mut replies, MAX_FRAME_BYTES).unwrap();
    match read_frame::<_, Response>(&mut &replies[..], MAX_FRAME_BYTES) {
        Ok(Some(Response::Error(e))) => assert_eq!(e.code, "protocol", "{e:?}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(admission_state(&mut fabric, 1), before);
    expect_bad_update(&mut fabric, 1, vec![(3, 2.0), (4, f64::NAN)], 1);
    expect_bad_update(&mut fabric, 2, vec![(3, f64::NEG_INFINITY)], 0);

    // Fractional deltas are admitted: the cells are f64.
    let fractional = vec![(7, 1.0), (8, 2.5)];
    for f in [&mut fabric, &mut twin] {
        assert!(matches!(
            f.handle(Request::Ingest(IngestFrame {
                tenant: 1,
                updates: fractional.clone(),
            })),
            Response::Admitted(_)
        ));
    }

    for f in [&mut fabric, &mut twin] {
        for t in [1u64, 2] {
            assert!(matches!(
                f.handle(Request::Flush(TenantRef { tenant: t })),
                Response::Flushed(_)
            ));
            assert!(matches!(
                f.handle(Request::AdvanceInterval(TenantRef { tenant: t })),
                Response::Sealed(_)
            ));
        }
        assert_eq!(f.quiesce().len(), 2);
    }
    for t in [1u64, 2] {
        assert_eq!(
            admission_state(&mut fabric, t),
            admission_state(&mut twin, t)
        );
    }
    for item in (0..N).step_by(37) {
        let q = Request::Point(PointQuery { tenant: 1, item });
        let (a, b) = (
            expect_value(fabric.handle(q.clone())),
            expect_value(twin.handle(q)),
        );
        assert!(a.is_finite(), "item {item}: {a}");
        assert_eq!(a.to_bits(), b.to_bits(), "item {item}");
    }
    for (lo, hi) in [(0u64, N - 1), (17, 1_200), (N - 64, N - 1)] {
        let q = Request::RangeSum(RangeQuery { tenant: 2, lo, hi });
        let (a, b) = (
            expect_value(fabric.handle(q.clone())),
            expect_value(twin.handle(q)),
        );
        assert_eq!(a.to_bits(), b.to_bits(), "range [{lo},{hi}]");
    }
}

/// An answer that is not finite is refused with a typed `non_finite`
/// error naming the tenant and the item, never sent: JSON has no
/// `inf`, so a `Value` of +inf used to go out as `null` and arrive as
/// NaN. Two admitted deltas of 1e308 overflow an `F64` cell to +inf;
/// the point answer, the heavy-hitter list and a range sum that reach
/// that cell are refused alike, and so is the `Stats` reply, whose
/// `mass` overflows with them: in process and through the wire, while
/// the tenant keeps answering everything that stays finite.
#[test]
fn non_finite_answers_are_typed_errors() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(1, 11))
        .unwrap();
    fabric
        .register_tenant(TenantSpec::range_sum(2, 22))
        .unwrap();
    for tenant in [1u64, 2] {
        for _ in 0..2 {
            assert!(matches!(
                fabric.handle(Request::Ingest(IngestFrame {
                    tenant,
                    updates: vec![(7, 1e308)],
                })),
                Response::Admitted(_)
            ));
        }
        fabric.handle(Request::Flush(TenantRef { tenant }));
    }
    let cases = [
        (
            Request::Point(PointQuery { tenant: 1, item: 7 }),
            "tenant 1: the answer for item 7 is inf",
        ),
        (
            Request::Stats(TenantRef { tenant: 1 }),
            "tenant 1: the answer for mass is inf",
        ),
        (
            Request::HeavyHitters(HeavyHittersQuery {
                tenant: 1,
                phi: 0.5,
            }),
            "tenant 1: the answer for heavy hitter 7 is inf",
        ),
        (
            Request::RangeSum(RangeQuery {
                tenant: 2,
                lo: 0,
                hi: N - 1,
            }),
            "tenant 2: the answer for range [0, 4095] is inf",
        ),
    ];
    for (req, detail) in &cases {
        let resp = fabric.handle(req.clone());
        match &resp {
            Response::Error(e) => {
                assert_eq!(e.code, "non_finite", "{e:?}");
                assert!(e.detail.starts_with(detail), "{e:?}");
            }
            other => panic!("{req:?}: expected non_finite, got {other:?}"),
        }
        // Through the codec: the request reaches the fabric and the
        // rejection comes back exactly as it left.
        let mut frames = Vec::new();
        write_frame(&mut frames, req).unwrap();
        let mut replies = Vec::new();
        serve_connection(&fabric, &mut &frames[..], &mut replies, MAX_FRAME_BYTES).unwrap();
        let wired: Response = read_frame(&mut &replies[..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(wired, resp);
    }
    // Answers that stay finite are still served.
    let finite = expect_value(fabric.handle(Request::Point(PointQuery { tenant: 1, item: 8 })));
    assert!(finite.is_finite(), "{finite}");
}

/// Every answer the fabric gives about `tenants`, as bits: `Stats`,
/// heavy hitters and window heavy hitters, points and window points,
/// and on range-sum tenants range sums and window range sums.
fn answer_bits(fabric: &mut Fabric, tenants: &[u64]) -> Vec<String> {
    let mut out = Vec::new();
    for &tenant in tenants {
        let range = fabric.tenant_spec(tenant).unwrap().metric == MetricKind::RangeSum;
        let phi = 0.002;
        let mut reqs = vec![
            Request::Stats(TenantRef { tenant }),
            Request::HeavyHitters(HeavyHittersQuery { tenant, phi }),
            Request::WindowHeavyHitters(HeavyHittersQuery { tenant, phi }),
        ];
        for item in (0..N).step_by(331) {
            reqs.push(Request::Point(PointQuery { tenant, item }));
            reqs.push(Request::WindowPoint(PointQuery { tenant, item }));
            if range {
                let (lo, hi) = (item / 2, (item + 700).min(N - 1));
                reqs.push(Request::RangeSum(RangeQuery { tenant, lo, hi }));
                reqs.push(Request::WindowRangeSum(RangeQuery { tenant, lo, hi }));
            }
        }
        for req in reqs {
            out.push(match fabric.handle(req) {
                Response::Value(v) => format!("{:x}", v.value.to_bits()),
                Response::HeavyHitters(r) => format!(
                    "{:x?}",
                    r.items
                        .iter()
                        .map(|&(item, v)| (item, v.to_bits()))
                        .collect::<Vec<_>>()
                ),
                other => format!("{other:?}"),
            });
        }
    }
    out
}

/// `Install` checks a transfer before it builds anything. Each frame
/// below once either panicked inside `Fabric::handle` — killing its
/// connection thread with no reply, or `persist::recover` for a
/// journal holding it — or installed a tenant whose next window query
/// panicked. Now each is refused with `incompatible` naming the first
/// bad field, in process and through the wire; nothing is registered,
/// and every other tenant keeps answering bit for bit.
#[test]
fn malformed_transfers_are_refused_and_install_nothing() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();
    let sliding = ServingMode::Sliding(WindowLen { intervals: 2 });
    let specs = [
        TenantSpec::frequency(1, 101).with_mode(sliding),
        TenantSpec::range_sum(2, 202).with_mode(sliding),
        TenantSpec::frequency(3, 303),
    ];
    for spec in specs {
        fabric.register_tenant(spec).unwrap();
        for round in 0..3u64 {
            let updates = stream(spec.tenant * 7 + round, 300);
            fabric.handle(Request::Ingest(IngestFrame {
                tenant: spec.tenant,
                updates,
            }));
            fabric.handle(Request::AdvanceInterval(TenantRef {
                tenant: spec.tenant,
            }));
        }
    }
    let export = |tenant: u64| match fabric.handle(Request::Export(TenantRef { tenant })) {
        Response::Exported(mut transfer) => {
            transfer.spec.tenant = 9; // install it beside the source
            transfer
        }
        other => panic!("{other:?}"),
    };
    let (freq, range) = (export(1), export(2));
    assert_eq!(freq.seals.len(), 2);
    let before = answer_bits(&mut fabric, &[1, 2, 3]);

    let edit = |base: &TenantTransfer, f: &dyn Fn(&mut TenantTransfer)| {
        let mut t = base.clone();
        f(&mut t);
        t
    };
    let cases = [
        (
            edit(&freq, &|t| {
                t.seals[0].planes = vec![CounterMatrix::new(1, 3)]
            }),
            "seals[0].planes",
        ),
        (
            edit(&freq, &|t| t.cumulative = vec![CounterMatrix::new(1, 3)]),
            "cumulative",
        ),
        (edit(&freq, &|t| t.seals.reverse()), "seals[1].interval"),
        (edit(&freq, &|t| t.interval = 0), "interval"),
        (edit(&freq, &|t| t.interval = 4), "seals"),
        (
            edit(&range, &|t| t.cumulative[4] = CounterMatrix::new(3, 1)),
            "cumulative",
        ),
        (
            edit(&range, &|t| {
                t.seals[1].planes[0] = CounterMatrix::new(16, 5)
            }),
            "seals[1].planes",
        ),
    ];
    for (transfer, field) in cases {
        let req = Request::Install(transfer);
        let resp = fabric.handle(req.clone());
        match &resp {
            Response::Error(e) => {
                assert_eq!(e.code, "incompatible", "{field}: {e:?}");
                let prefix = format!("tenant 9: {field}: ");
                assert!(e.detail.starts_with(&prefix), "{field}: {e:?}");
            }
            other => panic!("{field}: expected incompatible, got {other:?}"),
        }
        match fabric.handle(Request::Stats(TenantRef { tenant: 9 })) {
            Response::Error(e) => assert_eq!(e.code, "unknown_tenant", "{field}"),
            other => panic!("{field}: {other:?}"),
        }
        let mut frames = Vec::new();
        write_frame(&mut frames, &req).unwrap();
        let mut replies = Vec::new();
        serve_connection(&fabric, &mut &frames[..], &mut replies, MAX_FRAME_BYTES).unwrap();
        let wired: Response = read_frame(&mut &replies[..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(wired, resp, "{field}");
    }
    assert_eq!(fabric.tenant_count(), 3);
    assert_eq!(answer_bits(&mut fabric, &[1, 2, 3]), before);

    // The untouched transfers install, and answer as their sources do
    // (past the `Stats` line, which names the tenant and its shard).
    let range = edit(&range, &|t| t.spec.tenant = 10);
    for (transfer, source) in [(freq, 1u64), (range, 2)] {
        let copy = transfer.spec.tenant;
        assert!(matches!(
            fabric.handle(Request::Install(transfer)),
            Response::Installed(_)
        ));
        assert_eq!(
            answer_bits(&mut fabric, &[copy])[1..],
            answer_bits(&mut fabric, &[source])[1..]
        );
    }
}

/// A transfer installed at the end of the interval space does not
/// poison its tenant. `Install` accepts a tenant exported at interval
/// 2 and moved, seals and all, to `u64::MAX` or `u64::MAX − 1`, but no
/// interval follows `u64::MAX`. The advance past it once overflowed:
/// a panic in debug builds; in release a wrap to 0, after which a
/// sliding tenant's next seal panicked and an unbounded one's sealed
/// ids ran backwards. Now it is refused with `unsupported` naming the
/// tenant and the interval, in process and through the wire, and
/// nothing changes: `Stats` still reports `u64::MAX`, every query verb
/// answers as before, and `Fabric::quiesce` leaves the tenant out.
#[test]
fn advancing_past_the_last_interval_is_refused() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let sliding = ServingMode::Sliding(WindowLen { intervals: 2 });
    let sources = [
        TenantSpec::frequency(1, 101).with_mode(sliding),
        TenantSpec::range_sum(2, 202).with_mode(sliding),
        TenantSpec::frequency(3, 303),
    ];
    let mut installed = Vec::new();
    for spec in sources {
        let tenant = spec.tenant;
        fabric.register_tenant(spec).unwrap();
        for round in 0..3u64 {
            let updates = stream(tenant * 7 + round, 300);
            fabric.handle(Request::Ingest(IngestFrame { tenant, updates }));
            if round < 2 {
                fabric.handle(Request::AdvanceInterval(TenantRef { tenant }));
            }
        }
        let Response::Exported(transfer) = fabric.handle(Request::Export(TenantRef { tenant }))
        else {
            panic!("tenant {tenant} exports");
        };
        for (copy, interval) in [(10 * tenant, u64::MAX), (10 * tenant + 1, u64::MAX - 1)] {
            let mut transfer = transfer.clone();
            let shift = interval - transfer.interval;
            transfer.spec.tenant = copy;
            transfer.interval = interval;
            for seal in &mut transfer.seals {
                seal.interval += shift;
            }
            assert!(matches!(
                fabric.handle(Request::Install(transfer)),
                Response::Installed(_)
            ));
            installed.push((copy, interval));
        }
    }
    for &(tenant, interval) in &installed {
        if interval == u64::MAX - 1 {
            match fabric.handle(Request::AdvanceInterval(TenantRef { tenant })) {
                Response::Sealed(r) => assert_eq!(r.sealed_interval, interval),
                other => panic!("tenant {tenant}: expected a seal, got {other:?}"),
            }
        }
    }
    let tenants: Vec<u64> = installed.iter().map(|&(t, _)| t).collect();
    let before = answer_bits(&mut fabric, &tenants);

    for &tenant in &tenants {
        let req = Request::AdvanceInterval(TenantRef { tenant });
        let resp = fabric.handle(req.clone());
        match &resp {
            Response::Error(e) => {
                assert_eq!(e.code, "unsupported", "{e:?}");
                let detail = format!("tenant {tenant}: interval {} ", u64::MAX);
                assert!(e.detail.starts_with(&detail), "{e:?}");
            }
            other => panic!("tenant {tenant}: expected unsupported, got {other:?}"),
        }
        let mut frames = Vec::new();
        write_frame(&mut frames, &req).unwrap();
        let mut replies = Vec::new();
        serve_connection(&fabric, &mut &frames[..], &mut replies, MAX_FRAME_BYTES).unwrap();
        let wired: Response = read_frame(&mut &replies[..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(wired, resp);
        match fabric.handle(Request::Stats(TenantRef { tenant })) {
            Response::Stats(s) => assert_eq!(s.interval, u64::MAX),
            other => panic!("tenant {tenant}: {other:?}"),
        }
    }
    assert_eq!(answer_bits(&mut fabric, &tenants), before);

    // Shutdown's quiesce seals the sources and leaves every tenant at
    // the last interval as it was.
    let sealed: Vec<u64> = fabric.quiesce().iter().map(|&(t, _)| t).collect();
    assert_eq!(sealed, [1, 2, 3]);
    assert_eq!(answer_bits(&mut fabric, &tenants), before);
}

/// The range-sum stack as it was before exact coarse levels: every
/// level a Count-Median grid, level `ℓ` built with `n = ⌈n / 2^ℓ⌉`
/// and seed `seed + 0x9E37·(ℓ+1)`, a range answered by the greedy
/// dyadic decomposition. Written out here, independent of
/// `RangeSumSketch`, to stand for the answers such a stack gave.
struct AllGridStack {
    levels: Vec<CountMedian>,
}

impl AllGridStack {
    fn new(params: SketchParams) -> Self {
        let n = params.n;
        let count = 64 - (n - 1).leading_zeros() as usize + 1;
        let levels = (0..count)
            .map(|l| {
                let mut p = params;
                p.n = ((n - 1) >> l) + 1;
                p.seed = params.seed.wrapping_add(0x9E37 * (l as u64 + 1));
                CountMedian::new(&p)
            })
            .collect();
        Self { levels }
    }

    fn update(&mut self, updates: &[(u64, f64)]) {
        for &(item, delta) in updates {
            for (l, level) in self.levels.iter_mut().enumerate() {
                level.update(item >> l, delta);
            }
        }
    }

    fn planes(&self) -> Vec<CounterMatrix<f64, Dense>> {
        self.levels.iter().map(|l| l.snapshot()).collect()
    }

    /// A range over `planes`, block by block as the old stack read it.
    fn range_in(&self, planes: &[CounterMatrix<f64, Dense>], a: u64, b: u64) -> f64 {
        let (mut lo, mut sum) = (a, 0.0);
        while lo <= b {
            let align = if lo == 0 {
                63
            } else {
                lo.trailing_zeros() as usize
            };
            let mut l = align.min(self.levels.len() - 1);
            while l > 0 && lo + (1u64 << l) - 1 > b {
                l -= 1;
            }
            sum += self.levels[l].estimate_in(&planes[l], lo >> l);
            lo += 1u64 << l;
        }
        sum
    }
}

/// A range-sum tenant checkpointed before exact coarse levels existed
/// — every level a grid, sealed under `Sliding(2)` — recovers from its
/// journal in that layout and answers `RangeSum`, `WindowRangeSum` and
/// `Point` bit for bit as the old stack did. So it keeps doing after a
/// rebalance and after a fresh compaction, while a tenant registered
/// beside it gets the new layout (levels 0–4 grids, 5–10 exact).
#[test]
fn all_grid_checkpoints_recover_in_their_layout() {
    let template = SketchParams::new(1_024, 16, 3).with_hash_kind(HashKind::OneHash);
    let config = || FabricConfig::new(template);
    let spec =
        TenantSpec::range_sum(5, 55).with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }));
    let params = template.with_seed(55);

    // Intervals 0–2 sealed, 3 in progress; Sliding(2) keeps seals 1–2.
    let mut old = AllGridStack::new(params);
    let (mut seals, mut applied, mut mass) = (Vec::new(), 0u64, 0.0);
    for interval in 0..4u64 {
        let updates: Vec<(u64, f64)> = stream(interval + 40, 500)
            .into_iter()
            .map(|(item, delta)| (item % 1_024, if item % 7 == 0 { -delta } else { delta }))
            .collect();
        old.update(&updates);
        applied += updates.len() as u64;
        mass += updates.iter().map(|u| u.1).sum::<f64>();
        if interval < 3 {
            seals.push(SealFrame {
                interval,
                applied,
                mass,
                planes: old.planes(),
            });
        }
    }
    let cumulative = old.planes();
    let window: Vec<CounterMatrix<f64, Dense>> = cumulative
        .iter()
        .zip(&seals[1].planes)
        .map(|(c, s)| {
            let mut w = c.clone();
            w.sub_matrix(s);
            w
        })
        .collect();
    let transfer = TenantTransfer {
        spec,
        params,
        interval: 3,
        applied,
        mass,
        admitted_in_interval: 0,
        cumulative: cumulative.clone(),
        seals: seals.split_off(1),
    };

    let dir = std::env::temp_dir();
    let path = dir.join(format!("bas-all-grid-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path).unwrap();
    journal
        .append(&JournalRecord::ShardAdded(ShardRecord {
            shard: 0,
            weight: 1.0,
        }))
        .unwrap();
    journal
        .append(&JournalRecord::Checkpoint(transfer))
        .unwrap();
    drop(journal);

    let ranges: Vec<(u64, u64)> = [(0, 1_023), (0, 31), (32, 1_023), (5, 700), (512, 515)]
        .into_iter()
        .chain((0..30).map(|k| (k * 31, (k * 31 + 97 * (k % 5) + 3).min(1_023))))
        .collect();
    let check = |fabric: &mut Fabric, when: &str| {
        for &(lo, hi) in &ranges {
            let q = RangeQuery { tenant: 5, lo, hi };
            let got = expect_value(fabric.handle(Request::RangeSum(q)));
            let want = old.range_in(&cumulative, lo, hi);
            assert_eq!(got.to_bits(), want.to_bits(), "{when}: [{lo}, {hi}]");
            let got = expect_value(fabric.handle(Request::WindowRangeSum(q)));
            let want = old.range_in(&window, lo, hi);
            assert_eq!(got.to_bits(), want.to_bits(), "{when}: window [{lo}, {hi}]");
        }
        for item in (0..1_024u64).step_by(13) {
            let got = expect_value(fabric.handle(Request::Point(PointQuery { tenant: 5, item })));
            let want = old.levels[0].estimate_in(&cumulative[0], item);
            assert_eq!(got.to_bits(), want.to_bits(), "{when}: item {item}");
        }
        // Exported again, the stack is still all grids.
        match fabric.handle(Request::Export(TenantRef { tenant: 5 })) {
            Response::Exported(t) => assert!(
                t.cumulative
                    .iter()
                    .all(|m| (m.depth(), m.width()) == (3, 16)),
                "{when}: the layout changed"
            ),
            other => panic!("{when}: {other:?}"),
        }
    };

    let mut fabric = recover(&path, config()).unwrap();
    check(&mut fabric, "recovered");

    let mut shard = 1;
    while fabric.shard_of(5) == Some(0) {
        fabric.add_shard(shard, 1.0).unwrap();
        shard += 1;
    }
    check(&mut fabric, "rebalanced");

    let mut journal = Journal::open(&path).unwrap();
    journal.compact(&fabric).unwrap();
    drop(journal);
    let mut fabric = recover(&path, config()).unwrap();
    check(&mut fabric, "compacted");
    std::fs::remove_file(&path).unwrap();

    fabric
        .register_tenant(TenantSpec::range_sum(6, 66))
        .unwrap();
    match fabric.handle(Request::Export(TenantRef { tenant: 6 })) {
        Response::Exported(t) => {
            let shapes: Vec<(usize, usize)> = t
                .cumulative
                .iter()
                .map(|m| (m.depth(), m.width()))
                .collect();
            let mut want = vec![(3, 16); 5];
            want.extend((5..11).map(|l| (1, 1_024 >> l)));
            assert_eq!(shapes, want);
        }
        other => panic!("{other:?}"),
    }
}

/// A window may be as long as the wire can say. Registering or
/// installing a `Sliding` or `Tumbling` tenant of 2^40 or `u64::MAX`
/// intervals once reserved its whole seal ring up front — over 10^14
/// bytes at 2^40 — and aborted the daemon. Seals now take their slots
/// as they are sealed, so every such tenant is `Installed`, and its
/// window, which still reaches back to boot, answers like `Point`.
#[test]
fn huge_windows_register_and_install() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let mut tenants = Vec::new();
    for intervals in [1u64 << 40, u64::MAX] {
        let len = WindowLen { intervals };
        for mode in [ServingMode::Sliding(len), ServingMode::Tumbling(len)] {
            for range in [false, true] {
                let tenant = 100 + 2 * tenants.len() as u64;
                let spec = if range {
                    TenantSpec::range_sum(tenant, tenant * 7)
                } else {
                    TenantSpec::frequency(tenant, tenant * 7)
                }
                .with_mode(mode);
                let installed = |resp: Response, tenant: u64| match resp {
                    Response::Installed(r) => assert_eq!(r.tenant, tenant),
                    other => panic!("{spec:?}: expected Installed, got {other:?}"),
                };
                installed(fabric.handle(Request::Register(spec)), tenant);
                fabric.handle(Request::Ingest(IngestFrame {
                    tenant,
                    updates: stream(tenant, 300),
                }));
                fabric.handle(Request::AdvanceInterval(TenantRef { tenant }));
                let Response::Exported(mut transfer) =
                    fabric.handle(Request::Export(TenantRef { tenant }))
                else {
                    panic!("{spec:?} exports");
                };
                transfer.spec.tenant = tenant + 1;
                installed(fabric.handle(Request::Install(transfer)), tenant + 1);
                tenants.extend([tenant, tenant + 1]);
            }
        }
    }
    for &tenant in &tenants {
        fabric.handle(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(tenant + 1_000, 300),
        }));
        fabric.handle(Request::AdvanceInterval(TenantRef { tenant }));
        for item in (0..N).step_by(191) {
            let point = expect_value(fabric.handle(Request::Point(PointQuery { tenant, item })));
            let window =
                expect_value(fabric.handle(Request::WindowPoint(PointQuery { tenant, item })));
            assert_eq!(
                window.to_bits(),
                point.to_bits(),
                "tenant {tenant}, item {item}"
            );
        }
    }
}

/// The answers an audited rotating tenant gives to one read: the value's
/// bits, or the refusal's code.
fn audited_read(resp: Response) -> Result<u64, String> {
    match resp {
        Response::Value(v) => Ok(v.value.to_bits()),
        Response::Error(e) => Err(e.code),
        other => panic!("expected a value or an error, got {other:?}"),
    }
}

/// Asserts that a rotating tenant answers `Point`, `WindowPoint`,
/// `WindowHeavyHitters` and `Stats` bit for bit like `mirror`. Each
/// item is read three times, so an audit budget of 2 refuses the third
/// read on both sides.
fn assert_rotating_matches(
    fabric: &mut Fabric,
    tenant: u64,
    mirror: &QueryEngine<AtomicCountMedian>,
    round: u64,
) {
    for item in (0..N).step_by(257) {
        let reads = [
            Request::Point(PointQuery { tenant, item }),
            Request::WindowPoint(PointQuery { tenant, item }),
            Request::WindowPoint(PointQuery { tenant, item }),
        ];
        for req in reads {
            let want = match mirror.audited_point_in_window(item) {
                Ok(v) => Ok(v.to_bits()),
                Err(QueryError::AuditRejected { .. }) => Err("audit_rejected".to_string()),
                Err(e) => panic!("mirror: {e}"),
            };
            let got = audited_read(fabric.handle(req));
            assert_eq!(got, want, "tenant {tenant}, round {round}, item {item}");
        }
    }
    let got = expect_hh(
        fabric.handle(Request::WindowHeavyHitters(HeavyHittersQuery {
            tenant,
            phi: 0.002,
        })),
    );
    let want = hh_pairs(mirror.heavy_hitters_in_window(0.002).unwrap());
    assert_eq!(
        got, want,
        "tenant {tenant}, round {round}: window heavy hitters"
    );
    match fabric.handle(Request::Stats(TenantRef { tenant })) {
        Response::Stats(s) => assert_eq!(
            (s.applied, s.mass.to_bits(), s.pending, s.interval),
            (
                mirror.applied(),
                mirror.mass().to_bits(),
                mirror.pending() as u64,
                mirror.interval()
            ),
            "tenant {tenant}, round {round}: stats"
        ),
        other => panic!("tenant {tenant}: {other:?}"),
    }
}

/// Rotating tenants move like every other tenant. Through `add_shard`
/// and then `remove_shard`, `Rotating(3)` tenants, half of them
/// audited, answer bit for bit like dedicated rotating `QueryEngine`s that
/// never moved, and keep doing so across later `AdvanceInterval`s
/// while their generations rotate out of the window. Each generation
/// travels as its own plane and is rebuilt under its own seed.
#[test]
fn rotating_tenants_rebalance_bit_for_bit() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();
    let mode = ServingMode::Rotating(WindowLen { intervals: 3 });
    let tenants: Vec<u64> = (40..56).collect();
    let mut mirrors: Vec<_> = tenants
        .iter()
        .map(|&tenant| {
            let seed = tenant * 1_000 + 3;
            let mut spec = TenantSpec::frequency(tenant, seed).with_mode(mode);
            let mut mirror = QueryEngine::with_policy(
                1,
                AtomicCountMedian::with_backend(&params().with_seed(seed)),
                Policy::Rotating(Sliding::new(3).unwrap()),
            );
            if tenant % 2 == 0 {
                spec = spec.with_audit_limit(2);
                mirror = mirror.with_audit(AuditPolicy::new(2));
            }
            fabric.register_tenant(spec).unwrap();
            mirror
        })
        .collect();

    let mut on_new_shard = Vec::new();
    for round in 0..9u64 {
        for (i, &tenant) in tenants.iter().enumerate() {
            let updates = stream(tenant * 31 + round, 300);
            fabric.handle(Request::Ingest(IngestFrame {
                tenant,
                updates: updates.clone(),
            }));
            mirrors[i].extend_from_slice(&updates);
            fabric.handle(Request::AdvanceInterval(TenantRef { tenant }));
            mirrors[i].advance_interval();
        }
        // Moves land right after an advance, which renewed every audit
        // budget on both sides (an installed tenant's budget starts
        // afresh).
        if round == 2 {
            let report = fabric.add_shard(2, 1.0).unwrap();
            on_new_shard = report.moved.iter().map(|m| m.tenant).collect();
            assert!(
                !on_new_shard.is_empty(),
                "expected rotating tenants to move"
            );
            assert!(report.moved.iter().all(|m| m.to == 2));
            assert_eq!(fabric.tenants_on(2), on_new_shard);
        }
        if round == 5 {
            let report = fabric.remove_shard(2).unwrap();
            let moved: Vec<u64> = report.moved.iter().map(|m| m.tenant).collect();
            assert_eq!(moved, on_new_shard);
            assert!(report.moved.iter().all(|m| m.from == 2));
        }
        for (i, &tenant) in tenants.iter().enumerate() {
            let updates = stream(tenant * 37 + round, 100);
            fabric.handle(Request::Ingest(IngestFrame {
                tenant,
                updates: updates.clone(),
            }));
            mirrors[i].extend_from_slice(&updates);
            fabric.handle(Request::Flush(TenantRef { tenant }));
            mirrors[i].flush();
        }
        for (i, &tenant) in tenants.iter().enumerate() {
            assert_rotating_matches(&mut fabric, tenant, &mirrors[i], round);
        }
    }
    assert!(tenants.iter().all(|&t| fabric.shard_of(t) != Some(2)));
}

/// `Stats` fields that survive a checkpoint: applied, mass (as bits),
/// pending and interval.
fn position(fabric: &mut Fabric, tenant: u64) -> (u64, u64, u64, u64) {
    match fabric.handle(Request::Stats(TenantRef { tenant })) {
        Response::Stats(s) => (s.applied, s.mass.to_bits(), s.pending, s.interval),
        other => panic!("tenant {tenant}: {other:?}"),
    }
}

/// A rotating tenant compacts to one `Checkpoint`, however long it has
/// lived: at interval 500 the journal holds the shard and that
/// checkpoint, not its registration plus 500 `IntervalAdvanced`
/// records. Recovery brings it back answering bit for bit, and it keeps
/// rotating in step with the source. A journal written that old way
/// still recovers, empty, at interval 500.
#[test]
fn rotating_tenants_compact_to_one_checkpoint() {
    let path =
        std::env::temp_dir().join(format!("bas-rotating-compact-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let tenant = 7;
    let spec = TenantSpec::frequency(tenant, 77)
        .with_mode(ServingMode::Rotating(WindowLen { intervals: 3 }));
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.register_tenant(spec).unwrap();
    let ingest = |fabric: &mut Fabric, key: u64, len: usize| {
        fabric.handle(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(key, len),
        }));
    };
    for interval in 0..500u64 {
        ingest(&mut fabric, interval, 20);
        fabric.handle(Request::AdvanceInterval(TenantRef { tenant }));
    }
    ingest(&mut fabric, 500, 200);

    let mut journal = Journal::open(&path).unwrap();
    journal.compact(&fabric).unwrap();
    drop(journal);
    let records = read_journal(&path).unwrap();
    assert_eq!(records.len(), 2, "one shard, one checkpoint");
    assert!(matches!(records[0], JournalRecord::ShardAdded(_)));
    match &records[1] {
        JournalRecord::Checkpoint(t) => {
            assert_eq!(t.interval, 500);
            let generations: Vec<u64> = t.seals.iter().map(|s| s.interval).collect();
            assert_eq!(generations, [498, 499]);
        }
        other => panic!("expected a checkpoint, got {other:?}"),
    }

    let mut recovered = recover(&path, config()).unwrap();
    for round in 0..4u64 {
        assert_eq!(
            answer_bits(&mut recovered, &[tenant])[1..],
            answer_bits(&mut fabric, &[tenant])[1..],
            "round {round}"
        );
        assert_eq!(
            position(&mut recovered, tenant),
            position(&mut fabric, tenant)
        );
        for f in [&mut fabric, &mut recovered] {
            f.handle(Request::AdvanceInterval(TenantRef { tenant }));
            ingest(f, 600 + round, 150);
        }
    }

    // The old compaction: registration plus one advance per interval.
    std::fs::remove_file(&path).unwrap();
    let mut journal = Journal::open(&path).unwrap();
    journal
        .append(&JournalRecord::ShardAdded(ShardRecord {
            shard: 0,
            weight: 1.0,
        }))
        .unwrap();
    journal
        .append(&JournalRecord::TenantRegistered(spec))
        .unwrap();
    for _ in 0..500 {
        journal
            .append(&JournalRecord::IntervalAdvanced(TenantRef { tenant }))
            .unwrap();
    }
    drop(journal);
    let mut old = recover(&path, config()).unwrap();
    assert_eq!(position(&mut old, tenant), (0, 0f64.to_bits(), 0, 500));
    let mut reference = Fabric::new(config());
    reference.add_shard(0, 1.0).unwrap();
    reference.register_tenant(spec).unwrap();
    for _ in 0..500 {
        reference.handle(Request::AdvanceInterval(TenantRef { tenant }));
    }
    for f in [&mut old, &mut reference] {
        ingest(f, 900, 300);
    }
    assert_eq!(
        answer_bits(&mut old, &[tenant]),
        answer_bits(&mut reference, &[tenant])
    );
    std::fs::remove_file(&path).unwrap();
}

/// `Install` checks a rotating transfer before it builds anything: a
/// missing, extra or out-of-order generation, a plane of the wrong
/// shape, and an interval that does not lie past the last generation
/// are each refused with `incompatible` naming the field, in process
/// and through the wire. Nothing is registered, the source answers as
/// before, and the untouched transfer installs and answers as its
/// source does.
#[test]
fn malformed_rotating_transfers_are_refused_and_install_nothing() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let spec =
        TenantSpec::frequency(1, 101).with_mode(ServingMode::Rotating(WindowLen { intervals: 3 }));
    fabric.register_tenant(spec).unwrap();
    for round in 0..4u64 {
        fabric.handle(Request::Ingest(IngestFrame {
            tenant: 1,
            updates: stream(round, 300),
        }));
        fabric.handle(Request::AdvanceInterval(TenantRef { tenant: 1 }));
    }
    fabric.handle(Request::Ingest(IngestFrame {
        tenant: 1,
        updates: stream(4, 150),
    }));
    let Response::Exported(mut good) = fabric.handle(Request::Export(TenantRef { tenant: 1 }))
    else {
        panic!("the rotating tenant exports");
    };
    good.spec.tenant = 9;
    let generations: Vec<u64> = good.seals.iter().map(|s| s.interval).collect();
    assert_eq!((generations, good.interval), (vec![2, 3], 4));
    let before = answer_bits(&mut fabric, &[1]);

    let edit = |f: &dyn Fn(&mut TenantTransfer)| {
        let mut t = good.clone();
        f(&mut t);
        t
    };
    let cases = [
        (edit(&|t| drop(t.seals.remove(0))), "seals"),
        (
            edit(&|t| {
                let mut older = t.seals[0].clone();
                older.interval = 1;
                t.seals.insert(0, older);
            }),
            "seals",
        ),
        (edit(&|t| t.seals.swap(0, 1)), "seals[1].interval"),
        (
            edit(&|t| t.seals[1].planes = vec![CounterMatrix::new(1, 3)]),
            "seals[1].planes",
        ),
        (
            edit(&|t| t.cumulative.push(CounterMatrix::new(1, 3))),
            "cumulative",
        ),
        (edit(&|t| t.interval = 3), "interval"),
    ];
    for (transfer, field) in cases {
        let req = Request::Install(transfer);
        let resp = fabric.handle(req.clone());
        match &resp {
            Response::Error(e) => {
                assert_eq!(e.code, "incompatible", "{field}: {e:?}");
                let prefix = format!("tenant 9: {field}: ");
                assert!(e.detail.starts_with(&prefix), "{field}: {e:?}");
            }
            other => panic!("{field}: expected incompatible, got {other:?}"),
        }
        match fabric.handle(Request::Stats(TenantRef { tenant: 9 })) {
            Response::Error(e) => assert_eq!(e.code, "unknown_tenant", "{field}"),
            other => panic!("{field}: {other:?}"),
        }
        let mut frames = Vec::new();
        write_frame(&mut frames, &req).unwrap();
        let mut replies = Vec::new();
        serve_connection(&fabric, &mut &frames[..], &mut replies, MAX_FRAME_BYTES).unwrap();
        let wired: Response = read_frame(&mut &replies[..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(wired, resp, "{field}");
    }
    assert_eq!(fabric.tenant_count(), 1);
    assert_eq!(answer_bits(&mut fabric, &[1]), before);

    assert!(matches!(
        fabric.handle(Request::Install(good)),
        Response::Installed(_)
    ));
    assert_eq!(
        answer_bits(&mut fabric, &[9])[1..],
        answer_bits(&mut fabric, &[1])[1..]
    );
}

/// A sliding tenant with one seal and live traffic, and its export
/// re-addressed to tenant 9, which does not exist yet.
fn fabric_and_transfer() -> (Fabric, TenantSpec, TenantTransfer) {
    let spec =
        TenantSpec::frequency(1, 101).with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }));
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.register_tenant(spec).unwrap();
    for round in 0..2 {
        fabric.handle(Request::Ingest(IngestFrame {
            tenant: 1,
            updates: stream(round, 500),
        }));
        if round == 0 {
            fabric.handle(Request::AdvanceInterval(TenantRef { tenant: 1 }));
        }
    }
    let Response::Exported(mut transfer) = fabric.handle(Request::Export(TenantRef { tenant: 1 }))
    else {
        panic!("the tenant exports");
    };
    transfer.spec.tenant = 9;
    (fabric, spec, transfer)
}

/// `json` with a `cell` key added to its one `SketchParams` map, the
/// key only a grid of compact integer cells ever wrote.
fn add_cell_key(json: &str, cell: &str) -> String {
    let key = r#""hash_kind":"CarterWegman""#;
    assert_eq!(json.matches(key).count(), 1, "{json}");
    json.replace(key, &format!(r#"{key},"cell":{cell}"#))
}

/// An `Install` frame with a JSON body — whose transfer's params carry
/// a `cell` key, or not — does not decode: `serve_connection` answers
/// it `protocol`, nothing is installed and no stats or answers change.
/// The same transfer in a binary body installs. (A `cell` key is still
/// refused where JSON is read: in an older journal, and in the
/// sketches' serde.)
#[test]
fn install_frames_with_a_cell_key_are_refused_and_install_nothing() {
    let (mut fabric, _, transfer) = fabric_and_transfer();
    let json = serde_json::to_string(&Request::Install(transfer.clone())).unwrap();
    let send = |fabric: &mut Fabric, raw: &[u8]| {
        let mut replies = Vec::new();
        serve_connection(fabric, &mut &raw[..], &mut replies, MAX_FRAME_BYTES).unwrap();
        read_frame::<_, Response>(&mut &replies[..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap()
    };
    let before = answer_bits(&mut fabric, &[1]);
    let bodies = [
        ("U32", add_cell_key(&json, r#""U32""#)),
        ("F64", add_cell_key(&json, r#""F64""#)),
        ("no cell key", json),
    ];
    for (case, body) in bodies {
        let mut raw = (body.len() as u32).to_be_bytes().to_vec();
        raw.extend_from_slice(body.as_bytes());
        match send(&mut fabric, &raw) {
            Response::Error(e) => {
                assert_eq!(e.code, "protocol", "{case}: {e:?}");
                assert!(e.detail.contains("binary body"), "{case}: {e:?}");
            }
            other => panic!("{case}: expected a protocol error, got {other:?}"),
        }
        assert_eq!(fabric.tenant_count(), 1, "{case}");
        match fabric.handle(Request::Stats(TenantRef { tenant: 9 })) {
            Response::Error(e) => assert_eq!(e.code, "unknown_tenant", "{case}"),
            other => panic!("{case}: {other:?}"),
        }
        assert_eq!(answer_bits(&mut fabric, &[1]), before, "{case}");
    }
    let mut raw = Vec::new();
    write_frame(&mut raw, &Request::Install(transfer)).unwrap();
    assert!(matches!(send(&mut fabric, &raw), Response::Installed(_)));
    assert_eq!(answer_bits(&mut fabric, &[9])[1..], before[1..]);
}

/// A journal whose `Checkpoint` line carries a `cell` key does not
/// recover: `recover` returns a typed `InvalidData` error naming the
/// line. The same journal without the key recovers the tenant.
#[test]
fn checkpoints_with_a_cell_key_are_typed_recovery_errors() {
    let (mut fabric, spec, mut transfer) = fabric_and_transfer();
    transfer.spec.tenant = 1;
    let records = [
        JournalRecord::ShardAdded(ShardRecord {
            shard: 0,
            weight: 1.0,
        }),
        JournalRecord::TenantRegistered(spec),
        JournalRecord::Checkpoint(transfer),
    ];
    let lines: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    let path = std::env::temp_dir().join(format!("bas-cell-key-{}.jsonl", std::process::id()));

    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
    let mut recovered = recover(&path, config()).unwrap();
    assert_eq!(
        answer_bits(&mut recovered, &[1])[1..],
        answer_bits(&mut fabric, &[1])[1..]
    );

    let edited = [
        lines[0].clone(),
        lines[1].clone(),
        add_cell_key(&lines[2], r#""U32""#),
    ];
    std::fs::write(&path, format!("{}\n", edited.join("\n"))).unwrap();
    let err = recover(&path, config()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("journal line 3"), "{msg}");
    assert!(msg.contains("`cell`"), "{msg}");
    std::fs::remove_file(&path).unwrap();
}

/// `Stats` as a tuple whose `mass` is its bits, so equality is bit for
/// bit.
fn stats_bits(fabric: &Fabric, tenant: u64) -> (u64, u64, u64, u64, u64, u64) {
    match fabric.handle(Request::Stats(TenantRef { tenant })) {
        Response::Stats(s) => (
            s.shard,
            s.applied,
            s.mass.to_bits(),
            s.pending,
            s.admitted_in_interval,
            s.interval,
        ),
        other => panic!("tenant {tenant}: {other:?}"),
    }
}

/// A tenant's count of updates admitted in its interval travels with
/// it. With a quota of 1,000 and 500 admitted, the tenant recovered
/// from a compacted journal and the tenant installed from its `Export`
/// on a second fabric both report the source's `Stats` bit for bit,
/// and a 600-update frame is `Shed` on all three fabrics.
#[test]
fn interval_quota_count_survives_a_move_and_a_restart() {
    let tenant = 4;
    let spec = TenantSpec::frequency(tenant, 44).with_interval_quota(1_000);
    let mut source = Fabric::new(config());
    source.add_shard(0, 1.0).unwrap();
    source.register_tenant(spec).unwrap();
    let resp = source.handle(Request::Ingest(IngestFrame {
        tenant,
        updates: stream(tenant, 500),
    }));
    assert!(matches!(resp, Response::Admitted(_)), "{resp:?}");

    let path = std::env::temp_dir().join(format!("bas-quota-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path).unwrap();
    journal.compact(&source).unwrap();
    drop(journal);
    let recovered = recover(&path, config()).unwrap();
    std::fs::remove_file(&path).unwrap();

    let Response::Exported(transfer) = source.handle(Request::Export(TenantRef { tenant })) else {
        panic!("the tenant exports");
    };
    assert_eq!(transfer.admitted_in_interval, 500);
    let mut moved = Fabric::new(config());
    moved.add_shard(0, 1.0).unwrap();
    let resp = moved.handle(Request::Install(transfer));
    assert!(matches!(resp, Response::Installed(_)), "{resp:?}");

    let want = stats_bits(&source, tenant);
    assert_eq!(want.4, 500, "admitted in the interval");
    assert_eq!(stats_bits(&recovered, tenant), want, "recovered");
    assert_eq!(stats_bits(&moved, tenant), want, "moved");
    for (name, fabric) in [
        ("source", &source),
        ("recovered", &recovered),
        ("moved", &moved),
    ] {
        match fabric.handle(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(tenant + 1, 600),
        })) {
            Response::Shed(r) => assert_eq!((r.admitted, r.quota), (500, 1_000), "{name}"),
            other => panic!("{name}: expected Shed, got {other:?}"),
        }
    }
}

/// A journal of JSON lines, as releases before the binary layouts
/// wrote it, recovers bit for bit: shards, a checkpoint (which has no
/// quota count) and a registration with its interval advances.
/// Opening it for append rewrites it as frames before anything is
/// appended, and the file then recovers as frames with the appended
/// record.
#[test]
fn json_line_journals_recover_and_are_rewritten_as_frames() {
    let (mut fabric, spec, mut transfer) = fabric_and_transfer();
    transfer.spec.tenant = 1;
    // The JSON has no quota count: the checkpoint as it was written.
    transfer.admitted_in_interval = 0;
    let range = TenantSpec::range_sum(2, 22);
    fabric.register_tenant(range).unwrap();
    let records = [
        JournalRecord::ShardAdded(ShardRecord {
            shard: 0,
            weight: 1.0,
        }),
        JournalRecord::TenantRegistered(spec),
        JournalRecord::Checkpoint(transfer),
        JournalRecord::TenantRegistered(range),
        JournalRecord::IntervalAdvanced(TenantRef { tenant: 2 }),
        JournalRecord::IntervalAdvanced(TenantRef { tenant: 2 }),
    ];
    for _ in 0..2 {
        fabric.handle(Request::AdvanceInterval(TenantRef { tenant: 2 }));
    }
    let lines: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();
    let path = std::env::temp_dir().join(format!("bas-json-lines-{}.journal", std::process::id()));
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

    let mut recovered = recover(&path, config()).unwrap();
    let (want, got) = (
        answer_bits(&mut fabric, &[1, 2]),
        answer_bits(&mut recovered, &[1, 2]),
    );
    // Tenant 1's `Stats` (the first answer) counts the 500 updates the
    // source admitted in its interval; the JSON checkpoint counts none.
    assert_eq!(got[1..], want[1..]);
    assert_eq!(stats_bits(&recovered, 1).4, 0);

    let mut journal = Journal::open(&path).unwrap();
    assert_eq!(journal.records(), records.len() as u64);
    let on_disk = std::fs::read(&path).unwrap();
    assert_ne!(on_disk[0], b'{', "rewritten as frames on open");
    assert_eq!(journal.bytes(), on_disk.len() as u64);
    assert_eq!(read_journal(&path).unwrap(), records);
    let appended = JournalRecord::IntervalAdvanced(TenantRef { tenant: 1 });
    journal.append(&appended).unwrap();
    drop(journal);

    let on_disk = read_journal(&path).unwrap();
    assert_eq!(on_disk[..records.len()], records);
    assert_eq!(on_disk[records.len()..], [appended]);
    let mut after = recover(&path, config()).unwrap();
    recovered.handle(Request::AdvanceInterval(TenantRef { tenant: 1 }));
    assert_eq!(
        answer_bits(&mut after, &[1, 2]),
        answer_bits(&mut recovered, &[1, 2])
    );
    assert!(!path.with_extension("journal.tmp").exists());
    std::fs::remove_file(&path).unwrap();
}
