//! Compact-cell semantics: what `CellWidth::U32`/`U16` grids are
//! allowed to do, pinned as contracts.
//!
//! The compact widths store a two's-complement accumulator per cell —
//! they **wrap** on overflow (no saturation), which is exactly what
//! keeps the sketch linear mod 2^width: merges stay cellwise adds,
//! subtraction stays the exact inverse, and a rebalance that ships
//! planes through the wire format reproduces the source bit-for-bit.
//! On workloads whose per-cell sums stay in range, a compact grid must
//! be indistinguishable — bit-for-bit — from the classical `F64` grid,
//! so the (ε, δ) guarantees transfer unchanged.

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{IngestFrame, PointQuery, TenantRef};
use bias_aware_sketches::server::{Fabric, FabricConfig, Request, Response, TenantSpec};
use storage::CellWidth;

const N: u64 = 4_096;

fn params() -> SketchParams {
    SketchParams::new(N, 128, 5)
}

/// A deterministic stream of integer-valued updates (deltas 1..=5).
fn stream(seed: u64, len: usize) -> Vec<(u64, f64)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
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

fn assert_bitwise_equal<A: PointQuerySketch, B: PointQuerySketch>(a: &A, b: &B, what: &str) {
    for item in 0..N {
        assert_eq!(
            a.estimate(item).to_bits(),
            b.estimate(item).to_bits(),
            "{what}: item {item}"
        );
    }
}

/// U16 cells wrap as 16-bit two's complement — and because wrapping is
/// still addition mod 2^16, turnstile deletions walk the cell straight
/// back into range and the estimate is exact again.
#[test]
fn u16_cells_wrap_and_deletions_unwrap() {
    let p = params().with_cell(CellWidth::U16);
    let mut sk = CountMedian::<Dense>::new(&p);

    // A single hot item keeps every row's cell equal to ±(its count),
    // so the median estimate reads the accumulator exactly.
    sk.update(7, 30_000.0);
    assert_eq!(sk.estimate(7), 30_000.0, "in range: exact");

    // 40 000 exceeds i16::MAX; the accumulator wraps to 40 000 − 2^16.
    sk.update(7, 10_000.0);
    assert_eq!(sk.estimate(7), 40_000.0 - 65_536.0, "overflow wraps");

    // Deleting 20 000 lands back at 20 000 — wrap is not destructive.
    sk.update(7, -20_000.0);
    assert_eq!(sk.estimate(7), 20_000.0, "deletion unwraps");
}

/// Merging compact grids is cellwise addition mod 2^16: two halves
/// merged equal the whole stream, bit-for-bit, even when the whole
/// drove cells through overflow.
#[test]
fn u16_merge_is_linear_across_wrap() {
    let p = params().with_cell(CellWidth::U16);
    // Hot item 3 accumulates 50 × 1 000 = 50 000 > i16::MAX, plus a
    // background stream that collides into some of the same cells.
    let mut updates: Vec<(u64, f64)> = (0..50).map(|_| (3u64, 1_000.0)).collect();
    updates.extend(stream(11, 2_000));

    let split = updates.len() / 2;
    let mut left = CountMedian::<Dense>::new(&p);
    left.update_batch(&updates[..split]);
    let mut right = CountMedian::<Dense>::new(&p);
    right.update_batch(&updates[split..]);
    left.merge_from(&right).expect("same config merges");

    let mut whole = CountMedian::<Dense>::new(&p);
    whole.update_batch(&updates);
    assert_bitwise_equal(&left, &whole, "merged halves vs whole");
}

/// Subtraction is the exact inverse of merge on compact grids:
/// `whole − second_half = first_half` bit-for-bit, even though `whole`
/// wrapped in between. Saturating cells could not satisfy this.
#[test]
fn u16_subtract_inverts_across_wrap() {
    let p = params().with_cell(CellWidth::U16);
    let mut updates: Vec<(u64, f64)> = (0..60).map(|_| (9u64, 900.0)).collect();
    updates.extend(stream(23, 2_000));
    let split = updates.len() / 2;

    let mut whole = CountMedian::<Dense>::new(&p);
    whole.update_batch(&updates);
    let mut second = CountMedian::<Dense>::new(&p);
    second.update_batch(&updates[split..]);
    whole.subtract_from(&second).expect("same config subtracts");

    let mut first = CountMedian::<Dense>::new(&p);
    first.update_batch(&updates[..split]);
    assert_bitwise_equal(&whole, &first, "whole minus second half");
}

/// On in-range integer workloads the compact widths are not an
/// approximation: U32 and U16 grids answer **bit-for-bit** like the
/// classical F64 grid at production geometry, for both the plain grid
/// sketches and Count-Min's min-over-rows read. The paper's (ε, δ)
/// analysis therefore transfers to compact cells verbatim whenever the
/// workload's per-cell mass fits the width.
#[test]
fn in_range_compact_cells_match_f64_bit_for_bit() {
    let updates = stream(42, 20_000); // total mass ≈ 60k: fits i32
    let small = stream(43, 8_000); // total mass ≈ 24k: fits i16

    for cell in [CellWidth::U32, CellWidth::I64, CellWidth::U64] {
        let p = params();
        let mut wide = CountMedian::<Dense>::new(&p);
        wide.update_batch(&updates);
        let mut compact = CountMedian::<Dense>::new(&p.with_cell(cell));
        compact.update_batch(&updates);
        assert_bitwise_equal(&compact, &wide, cell.label());
    }

    let p = params();
    let mut wide = CountMin::<Dense>::new(&p, UpdatePolicy::Plain);
    wide.update_batch(&small);
    let mut compact = CountMin::<Dense>::new(&p.with_cell(CellWidth::U16), UpdatePolicy::Plain);
    compact.update_batch(&small);
    assert_bitwise_equal(&compact, &wide, "count-min u16");
}

/// The Count-Min (ε, δ) contract holds at a compact width on an
/// in-range workload: never an underestimate, and the fraction of
/// items overestimated by more than `(e/width)·‖x‖₁` stays within a
/// generous multiple of `δ = e^{−depth}`.
#[test]
fn u16_count_min_keeps_the_epsilon_delta_bound() {
    let updates = stream(7, 8_000);
    let mut truth = vec![0.0f64; N as usize];
    let mut mass = 0.0;
    for &(i, d) in &updates {
        truth[i as usize] += d;
        mass += d;
    }
    assert!(mass < i16::MAX as f64, "workload must stay in u16 range");

    let p = params().with_cell(CellWidth::U16);
    let mut sk = CountMin::<Dense>::new(&p, UpdatePolicy::Plain);
    sk.update_batch(&updates);

    let epsilon = std::f64::consts::E / 128.0;
    let mut violations = 0usize;
    for item in 0..N {
        let est = sk.estimate(item);
        let true_count = truth[item as usize];
        assert!(est >= true_count, "item {item}: CM may never underestimate");
        if est - true_count > epsilon * mass {
            violations += 1;
        }
    }
    // δ = e^{-5} ≈ 0.0067 per item; allow 3× slack over the expectation.
    let allowed = (3.0 * (-5.0f64).exp() * N as f64).ceil() as usize;
    assert!(
        violations <= allowed,
        "{violations} items above the ε bound (allowed {allowed})"
    );
}

/// A rebalance ships compact-cell planes through the wire format and
/// the moved tenant keeps answering bit-for-bit: `CellWidth` survives
/// the transfer (plane serialization, install validation, rebuild at
/// the destination).
#[test]
fn rebalanced_compact_cell_tenant_answers_bit_for_bit() {
    let template = params().with_cell(CellWidth::U32);
    let mut fabric = Fabric::new(FabricConfig::new(template.clone()));
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();

    let tenants: Vec<u64> = (10..26).collect();
    let mut mirrors: Vec<_> = tenants
        .iter()
        .map(|&t| {
            fabric
                .register_tenant(TenantSpec::frequency(t, t * 1_000 + 7))
                .unwrap();
            let mut mirror = AtomicCountMedian::with_backend(&template.with_seed(t * 1_000 + 7));
            mirror.update_batch(&stream(t, 600));
            fabric.handle(Request::Ingest(IngestFrame {
                tenant: t,
                updates: stream(t, 600),
            }));
            fabric.handle(Request::Flush(TenantRef { tenant: t }));
            mirror
        })
        .collect();

    // Grow the ring: some tenants ship their U32 planes to shard 2.
    let report = fabric.add_shard(2, 1.0).unwrap();
    assert!(!report.moved.is_empty(), "expected at least one move");

    // Keep ingesting after the move, then compare every answer.
    for (i, &t) in tenants.iter().enumerate() {
        let batch = stream(t.wrapping_mul(31), 600);
        fabric.handle(Request::Ingest(IngestFrame {
            tenant: t,
            updates: batch.clone(),
        }));
        fabric.handle(Request::Flush(TenantRef { tenant: t }));
        mirrors[i].update_batch(&batch);
    }
    for (i, &t) in tenants.iter().enumerate() {
        for item in (0..N).step_by(97) {
            let got = match fabric.handle(Request::Point(PointQuery { tenant: t, item })) {
                Response::Value(v) => v.value,
                other => panic!("{other:?}"),
            };
            assert_eq!(
                got.to_bits(),
                mirrors[i].estimate(item).to_bits(),
                "tenant {t} item {item}"
            );
        }
    }
}
