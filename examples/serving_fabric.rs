//! The multi-tenant serving fabric end to end: many tenants — each
//! with its own seed, serving mode and admission knobs — behind one
//! `Fabric`, fed and queried through the wire protocol, rebalanced
//! live, and gated on bit-exactness against dedicated engines.
//!
//! This example supersedes the "wire several engines by hand" framing
//! of `telemetry_server` (which remains the single-engine deep dive):
//! here placement, admission and tenant isolation are the fabric's
//! job, not the caller's. Four acts:
//!
//! 1. **wire ingest** — framed `Ingest`/`AdvanceInterval` requests
//!    through `serve_connection`, one response frame per request;
//! 2. **queries** — point / heavy-hitter / range-sum / windowed
//!    answers, bit-for-bit against never-fabric mirror engines;
//! 3. **backpressure** — a hog tenant saturates its own queue and
//!    quota (`Busy`/`Shed`, typed), neighbors unaffected;
//! 4. **rebalance** — a new shard joins, the ring relabels the
//!    tenants it moves, answers stay bit-for-bit.

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{
    HeavyHittersQuery, IngestFrame, PointQuery, RangeQuery, TenantRef,
};
use bias_aware_sketches::server::{read_frame, serve_connection, write_frame, MAX_FRAME_BYTES};

/// Universe size shared by every tenant (the fabric's shape template).
const N: u64 = 65_536;
/// Updates per tenant per interval.
const BATCH: usize = 5_000;
/// Sealed intervals before the first queries.
const INTERVALS: u64 = 3;

/// A deterministic per-tenant stream with integer-valued deltas, so
/// `f64` accumulation is exact and bit-for-bit gates are honest.
fn stream(tenant: u64, round: u64, len: usize) -> Vec<(u64, f64)> {
    let mut state = (tenant ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % N, ((state >> 11) % 5) as f64 + 1.0)
        })
        .collect()
}

fn expect_value(resp: Response) -> f64 {
    match resp {
        Response::Value(v) => v.value,
        other => panic!("expected a value, got {other:?}"),
    }
}

fn main() {
    let params = SketchParams::new(N, 1_024, 5);
    let mut fabric = Fabric::new(FabricConfig::new(params));
    fabric.add_shard(1, 1.0).unwrap();
    fabric.add_shard(2, 1.0).unwrap();

    // Four serving tenants plus a hog for the backpressure act. Each
    // gets its own seed (hash isolation) on the shared shape template.
    let specs = [
        TenantSpec::frequency(1, 4_242), // "edge-api": since-boot totals
        TenantSpec::frequency(2, 5_151) // "checkout": rolling window
            .with_mode(ServingMode::Sliding(WindowLen { intervals: 3 })),
        TenantSpec::range_sum(3, 6_161) // "billing": per-bucket reports
            .with_mode(ServingMode::Tumbling(WindowLen { intervals: 2 })),
        TenantSpec::frequency(4, 7_171) // "untrusted": rotated + audited
            .with_mode(ServingMode::Rotating(WindowLen { intervals: 2 }))
            .with_audit_limit(3),
        TenantSpec::frequency(5, 8_181) // "hog": tight admission knobs
            .with_queue_capacity(512)
            .with_interval_quota(2_000),
    ];
    for spec in specs {
        let shard = fabric.register_tenant(spec).unwrap();
        println!("tenant {} placed on shard {shard}", spec.tenant);
    }

    // Never-fabric mirrors for the bit-exactness gates.
    let mut edge = QueryEngine::with_policy(
        1,
        AtomicCountMedian::with_backend(&params.with_seed(4_242)),
        Unbounded,
    );
    let mut checkout = QueryEngine::with_policy(
        1,
        AtomicCountMedian::with_backend(&params.with_seed(5_151)),
        Sliding::new(3).unwrap(),
    );
    let mut billing = QueryEngine::with_policy(
        1,
        RangeSumSketch::<Atomic>::with_backend(&params.with_seed(6_161)),
        Tumbling::new(2).unwrap(),
    );

    // ---- act 1: ingest through the wire ----
    // Frame every request up front (a real deployment would stream
    // them over a socket; the protocol is transport-agnostic).
    let mut requests = Vec::new();
    for round in 0..INTERVALS {
        for tenant in 1u64..=4 {
            let updates = stream(tenant, round, BATCH);
            match tenant {
                1 => edge.extend_from_slice(&updates),
                2 => checkout.extend_from_slice(&updates),
                3 => billing.extend_from_slice(&updates),
                _ => {}
            }
            write_frame(
                &mut requests,
                &Request::Ingest(IngestFrame { tenant, updates }),
            )
            .unwrap();
            write_frame(
                &mut requests,
                &Request::AdvanceInterval(TenantRef { tenant }),
            )
            .unwrap();
        }
        edge.advance_interval();
        checkout.advance_interval();
        billing.advance_interval();
    }
    let mut responses = Vec::new();
    let answered =
        serve_connection(&fabric, &mut &requests[..], &mut responses, MAX_FRAME_BYTES).unwrap();
    let mut cursor = &responses[..];
    while let Some(resp) = read_frame::<_, Response>(&mut cursor, MAX_FRAME_BYTES).unwrap() {
        match resp {
            Response::Admitted(_) | Response::Sealed(_) => {}
            other => panic!("unexpected response on the ingest stream: {other:?}"),
        }
    }
    println!(
        "wire loop: {answered} frames answered ({} updates across 4 tenants x {INTERVALS} intervals)",
        4 * INTERVALS as usize * BATCH
    );
    assert_eq!(answered, 4 * INTERVALS * 2);

    // ---- act 2: queries, gated bit-for-bit ----
    for item in (0..N).step_by(997) {
        let got = expect_value(fabric.handle(Request::Point(PointQuery { tenant: 1, item })));
        assert_eq!(
            got.to_bits(),
            edge.estimate_live(item).to_bits(),
            "tenant 1 item {item}"
        );
        let got = expect_value(fabric.handle(Request::WindowPoint(PointQuery { tenant: 2, item })));
        assert_eq!(
            got.to_bits(),
            checkout.point_in_window(item).to_bits(),
            "tenant 2 item {item}"
        );
    }
    let hot = match fabric.handle(Request::WindowHeavyHitters(HeavyHittersQuery {
        tenant: 2,
        phi: 0.002,
    })) {
        Response::HeavyHitters(r) => r.items,
        other => panic!("{other:?}"),
    };
    println!(
        "tenant 2 window heavy hitters (phi = 0.2%): {} items",
        hot.len()
    );
    let (lo, hi) = (1_000u64, 9_000u64);
    let got =
        expect_value(fabric.handle(Request::WindowRangeSum(RangeQuery { tenant: 3, lo, hi })));
    assert_eq!(
        got.to_bits(),
        billing.range_sum_in_window(lo, hi).unwrap().to_bits()
    );
    println!("tenant 3 window range sum [{lo}, {hi}]: {got:.0}");

    // The audited tenant: three answers per key per generation, then a
    // typed refusal; rotation (AdvanceInterval) renews the budget.
    for _ in 0..3 {
        let resp = fabric.handle(Request::WindowPoint(PointQuery { tenant: 4, item: 7 }));
        assert!(matches!(resp, Response::Value(_)), "{resp:?}");
    }
    match fabric.handle(Request::WindowPoint(PointQuery { tenant: 4, item: 7 })) {
        Response::Error(e) => {
            assert_eq!(e.code, "audit_rejected");
            println!("tenant 4 key 7, 4th query: refused ({})", e.code);
        }
        other => panic!("expected an audit refusal, got {other:?}"),
    }

    // ---- act 3: backpressure, typed and isolated ----
    let baseline: Vec<f64> = (0..N)
        .step_by(1_871)
        .map(|item| expect_value(fabric.handle(Request::Point(PointQuery { tenant: 1, item }))))
        .collect();
    match fabric.handle(Request::Ingest(IngestFrame {
        tenant: 5,
        updates: stream(5, 0, 513), // wider than the 512-slot queue
    })) {
        Response::Busy(b) => println!(
            "tenant 5 oversized batch: Busy (pending {}, capacity {})",
            b.pending, b.capacity
        ),
        other => panic!("expected Busy, got {other:?}"),
    }
    let mut shed_at = None;
    for batch_no in 0..8 {
        let resp = fabric.handle(Request::Ingest(IngestFrame {
            tenant: 5,
            updates: stream(5, batch_no, 500),
        }));
        fabric.handle(Request::Flush(TenantRef { tenant: 5 }));
        match resp {
            Response::Admitted(_) => {}
            Response::Shed(s) => {
                shed_at = Some((batch_no, s.admitted, s.quota));
                break;
            }
            other => panic!("{other:?}"),
        }
    }
    let (batch_no, hog_admitted, quota) = shed_at.expect("the quota must bite");
    println!(
        "tenant 5 batch {batch_no}: Shed (admitted {hog_admitted} of quota {quota} this interval)"
    );
    assert_eq!(hog_admitted, 2_000);
    for (i, item) in (0..N).step_by(1_871).enumerate() {
        let now = expect_value(fabric.handle(Request::Point(PointQuery { tenant: 1, item })));
        assert_eq!(
            now.to_bits(),
            baseline[i].to_bits(),
            "neighbor answer drifted"
        );
    }
    println!("tenant 1 (neighbor): answers unchanged while tenant 5 saturated");

    // ---- act 4: live rebalance ----
    // A double-weight shard joins; rendezvous placement moves ~half
    // the tenants to it. Every shard lives in this process, so a move
    // relabels the tenant and copies no state.
    let report = fabric.add_shard(3, 2.0).unwrap();
    println!(
        "shard 3 joined (weight 2): {} of {} tenants moved",
        report.moved.len(),
        fabric.tenant_count()
    );
    for m in &report.moved {
        assert_eq!(m.to, 3, "growth may only move tenants onto the new shard");
    }

    // Keep ingesting after the move, then gate again: a moved tenant
    // answers exactly like one that never moved.
    for tenant in [1u64, 2] {
        let updates = stream(tenant, 99, BATCH);
        match tenant {
            1 => edge.extend_from_slice(&updates),
            _ => checkout.extend_from_slice(&updates),
        }
        fabric.handle(Request::Ingest(IngestFrame { tenant, updates }));
        fabric.handle(Request::Flush(TenantRef { tenant }));
    }
    edge.flush();
    checkout.flush();
    for item in (0..N).step_by(499) {
        let got = expect_value(fabric.handle(Request::Point(PointQuery { tenant: 1, item })));
        assert_eq!(got.to_bits(), edge.estimate_live(item).to_bits());
        let got = expect_value(fabric.handle(Request::WindowPoint(PointQuery { tenant: 2, item })));
        assert_eq!(got.to_bits(), checkout.point_in_window(item).to_bits());
    }
    println!(
        "exactness gates passed: fabric answers == dedicated engines, before and after rebalance"
    );
    for shard in [1u64, 2, 3] {
        println!("shard {shard} hosts tenants {:?}", fabric.tenants_on(shard));
    }
}
