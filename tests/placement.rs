//! Placement properties for the serving fabric's rendezvous ring:
//! balance against the binomial expectation, minimal disruption under
//! shard add/remove (for both uniform and Zipf-shaped tenant-id
//! populations), weighted load proportionality, the jump-hash
//! baseline, and — the operational payoff — moved tenants answering
//! bit-for-bit after a ring-driven rebalance.

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{IngestFrame, PointQuery};
use bias_aware_sketches::server::{
    jump_hash, Fabric, FabricConfig, PlacementRing, Request, Response, TenantSpec,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn ring(shards: u64) -> PlacementRing {
    let mut r = PlacementRing::new();
    for id in 0..shards {
        r.add_shard(id, 1.0);
    }
    r
}

/// Distinct tenant ids shaped from raw 64-bit draws: uniform as-is,
/// or Zipf-ish (small, heavily reused numbers with a long tail) when
/// `zipf` is set — the two populations the placement suite must cover.
fn shape_ids(raw: &[u64], zipf: bool) -> Vec<u64> {
    let set: std::collections::BTreeSet<u64> = raw
        .iter()
        .map(|&r| if zipf { r >> (24 + (r % 36)) } else { r })
        .collect();
    set.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-shard load over a k-shard equal-weight ring stays within a
    /// 6-sigma band of the binomial expectation `n/k`, for uniform and
    /// Zipf-shaped tenant populations alike.
    #[test]
    fn equal_weight_load_matches_the_binomial_expectation(
        raw in prop::collection::vec(1u64..u64::MAX, 400..800),
        zipf in prop::bool::ANY,
        shards in 2u64..8,
    ) {
        let ids = shape_ids(&raw, zipf);
        prop_assume!(ids.len() >= 100);
        let r = ring(shards);
        let mut per_shard: BTreeMap<u64, f64> = BTreeMap::new();
        for &t in &ids {
            *per_shard.entry(r.place(t).unwrap()).or_default() += 1.0;
        }
        let n = ids.len() as f64;
        let p = 1.0 / shards as f64;
        let sigma = (n * p * (1.0 - p)).sqrt();
        for id in 0..shards {
            let got = per_shard.get(&id).copied().unwrap_or(0.0);
            prop_assert!(
                (got - n * p).abs() <= 6.0 * sigma,
                "shard {id}: {got} tenants vs expected {:.1} ± {:.1}",
                n * p,
                6.0 * sigma
            );
        }
    }

    /// Adding a shard moves tenants only onto it, at a rate near its
    /// fair share; removing a shard moves only its own tenants.
    #[test]
    fn ring_changes_are_minimally_disruptive(
        raw in prop::collection::vec(1u64..u64::MAX, 400..800),
        zipf in prop::bool::ANY,
        shards in 2u64..7,
    ) {
        let ids = shape_ids(&raw, zipf);
        prop_assume!(ids.len() >= 100);
        let mut r = ring(shards);
        let before: BTreeMap<u64, u64> = ids.iter().map(|&t| (t, r.place(t).unwrap())).collect();

        // Grow: movers land on the new shard only.
        r.add_shard(shards, 1.0);
        let mut moved = 0usize;
        for (&t, &old) in &before {
            let new = r.place(t).unwrap();
            if new != old {
                prop_assert!(new == shards, "tenant {t} moved between old shards");
                moved += 1;
            }
        }
        let n = ids.len() as f64;
        let p = 1.0 / (shards + 1) as f64;
        let sigma = (n * p * (1.0 - p)).sqrt();
        prop_assert!(
            (moved as f64 - n * p).abs() <= 6.0 * sigma,
            "moved {moved} of {n} vs expected {:.1} ± {:.1}", n * p, 6.0 * sigma
        );

        // Shrink back: only the new shard's tenants return, and every
        // survivor keeps its original placement (rendezvous scores on
        // surviving shards are untouched by membership changes).
        r.remove_shard(shards);
        for (&t, &old) in &before {
            prop_assert!(r.place(t).unwrap() == old, "tenant {t} did not return");
        }
    }

    /// A weight-w shard carries ~w times the tenants of a weight-1
    /// shard.
    #[test]
    fn weighted_load_is_proportional(
        raw in prop::collection::vec(1u64..u64::MAX, 400..800),
        weight in 2.0f64..5.0,
    ) {
        let ids = shape_ids(&raw, false);
        let mut r = PlacementRing::new();
        r.add_shard(0, 1.0);
        r.add_shard(1, weight);
        let heavy = ids.iter().filter(|&&t| r.place(t) == Some(1)).count() as f64;
        let n = ids.len() as f64;
        let p = weight / (1.0 + weight);
        let sigma = (n * p * (1.0 - p)).sqrt();
        prop_assert!(
            (heavy - n * p).abs() <= 6.0 * sigma,
            "heavy shard got {heavy} of {n}, expected {:.1} ± {:.1}", n * p, 6.0 * sigma
        );
    }

    /// The jump-hash baseline: in range, balanced, and minimally
    /// disruptive under bucket growth.
    #[test]
    fn jump_hash_baseline_holds(
        raw in prop::collection::vec(1u64..u64::MAX, 400..800),
        buckets in 2u32..10,
    ) {
        let ids = shape_ids(&raw, false);
        let mut per_bucket: BTreeMap<u32, f64> = BTreeMap::new();
        for &t in &ids {
            let b = jump_hash(t, buckets);
            prop_assert!(b < buckets);
            *per_bucket.entry(b).or_default() += 1.0;
            let grown = jump_hash(t, buckets + 1);
            prop_assert!(
                grown == b || grown == buckets,
                "key {t}: {b} -> {grown} under growth"
            );
        }
        let n = ids.len() as f64;
        let p = 1.0 / buckets as f64;
        let sigma = (n * p * (1.0 - p)).sqrt();
        for b in 0..buckets {
            let got = per_bucket.get(&b).copied().unwrap_or(0.0);
            prop_assert!((got - n * p).abs() <= 6.0 * sigma, "bucket {b}: {got}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: growing a live fabric's ring moves some tenants,
    /// and each mover answers **bit-for-bit** like a dedicated engine
    /// that never moved.
    #[test]
    fn moved_tenants_answer_bit_for_bit_after_rebalance(
        seed_base in 1u64..1_000_000,
        tenant_lo in 0u64..1_000,
    ) {
        const N: u64 = 1_024;
        let params = SketchParams::new(N, 64, 4);
        let mut fabric = Fabric::new(FabricConfig::new(params.clone()));
        fabric.add_shard(0, 1.0).unwrap();
        fabric.add_shard(1, 1.0).unwrap();

        let tenants: Vec<u64> = (tenant_lo..tenant_lo + 12).collect();
        let mut mirrors: BTreeMap<u64, _> = BTreeMap::new();
        for &t in &tenants {
            fabric.register_tenant(TenantSpec::frequency(t, seed_base + t)).unwrap();
            mirrors.insert(
                t,
                QueryEngine::with_policy(
                    1,
                    AtomicCountMedian::with_backend(&params.with_seed(seed_base + t)),
                    Unbounded,
                ),
            );
        }

        // Integer-delta streams keep f64 accumulation exact.
        for &t in &tenants {
            let batch: Vec<(u64, f64)> = (0..300)
                .map(|i| ((t.wrapping_mul(31) + i * 7) % N, ((i % 9) + 1) as f64))
                .collect();
            fabric.handle(Request::Ingest(IngestFrame { tenant: t, updates: batch.clone() }));
            mirrors.get_mut(&t).unwrap().extend_from_slice(&batch);
        }

        let report = fabric.add_shard(2, 1.0).unwrap();
        for m in &report.moved {
            prop_assert_eq!(m.to, 2);
        }

        for &t in &tenants {
            fabric.handle(Request::Flush(
                bias_aware_sketches::server::TenantRef { tenant: t },
            ));
            let mirror = mirrors.get_mut(&t).unwrap();
            mirror.flush();
            for item in (0..N).step_by(41) {
                let got = match fabric.handle(Request::Point(PointQuery { tenant: t, item })) {
                    Response::Value(v) => v.value,
                    other => panic!("{other:?}"),
                };
                prop_assert!(
                    got.to_bits() == mirror.estimate_live(item).to_bits(),
                    "tenant {t} item {item} drifted after the move"
                );
            }
        }
    }
}
