//! The seeded workloads: tenant specs, ingest frame pools, the untimed
//! preload, and one request plan per connection.
//!
//! Everything here is a pure function of the workload's seed, so the
//! daemon only ever sees generated requests and two runs with one seed
//! send the same bytes.

use bas_data::dist::Zipf;
use bas_data::TimestampedStreamGen;
use bas_hash::{mix64, HashKind, SplitMix64};
use bas_server::wire::{HeavyHittersQuery, PointQuery, RangeQuery};
use bas_server::{Request, ServingMode, TenantSpec, WindowLen};
use bas_sketch::SketchParams;
use std::collections::BTreeMap;

/// Universe of every tenant: items are in `[0, 2^17)`.
pub const UNIVERSE: u64 = 1 << 17;
/// Sketch width (columns).
pub const WIDTH: usize = 4_096;
/// Sketch depth (rows).
pub const DEPTH: usize = 9;
/// Updates per `Ingest` frame (the `IngestBatcher` batch size).
pub const FRAME: usize = 4_096;
/// Deltas are integers in `1..=MAX_DELTA`, so every path is bit-exact.
pub const MAX_DELTA: u64 = 4;
/// Zipf exponent of the skewed streams and query items.
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Window length of the `Sliding` tenants, in intervals.
pub const WINDOW: u64 = 8;
/// Heavy-hitter threshold of every scan.
pub const PHI: f64 = 1e-3;
/// Load connections per workload (the host has two cores).
pub const CONNECTIONS: usize = 2;

/// ingest-firehose: unbounded frequency tenants, half per connection.
const FIREHOSE_TENANTS: u64 = 16;
/// ingest-firehose: frames in each tenant's pool (cycled).
const FIREHOSE_POOL: usize = 16;
/// ingest-firehose: a `Flush` per tenant after this many frames to it.
const FIREHOSE_FLUSH_EVERY: usize = 4;
/// ingest-firehose: untimed frames per tenant before the timed phase,
/// so the first timed window does not pay first-touch costs.
const FIREHOSE_WARMUP: usize = 4;

/// query-mix: sliding tenants are preloaded with this many intervals,
/// one frame each, every one closed, so the whole window is sealed.
const QUERY_SLIDING: u64 = 8;
const QUERY_RANGE: u64 = 4;
const QUERY_PRELOAD_INTERVALS: usize = WINDOW as usize + 1;
const QUERY_RANGE_FRAMES: usize = 4;
/// query-mix: decks of queries pregenerated per connection (cycled).
const QUERY_DECKS: usize = 32;
/// query-mix: one deck's `[scans, range sums, window points, points]`,
/// so 0.1 % scans (half `HeavyHitters`, half `WindowHeavyHitters`),
/// 0.5 % `RangeSum`, 5 % `WindowPoint` and 94.4 % `Point`.
const QUERY_DECK: [usize; 4] = [2, 10, 100, 1_888];

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop ingest into 16 unbounded frequency tenants.
    IngestFirehose,
    /// Closed-loop queries against 12 preloaded tenants, no ingest.
    QueryMix,
}

impl Workload {
    /// Every workload the benchmark can run.
    pub const ALL: [Workload; 2] = [Workload::IngestFirehose, Workload::QueryMix];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestFirehose => "ingest-firehose",
            Workload::QueryMix => "query-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The fabric template every tenant is built from (the daemon gets the
/// same shape on its command line).
pub fn template() -> SketchParams {
    SketchParams::new(UNIVERSE, WIDTH, DEPTH).with_hash_kind(HashKind::OneHash)
}

/// A tenant's sketch seed, derived from the workload seed.
pub fn tenant_seed(seed: u64, tenant: u64) -> u64 {
    mix64(seed ^ mix64(tenant.wrapping_add(0x7E4A_0001)))
}

/// One frame of `(item, delta)` updates.
pub type Frame = Vec<(u64, f64)>;

/// One request a connection sends.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Ships pool frame `frame` of `tenant` through its `IngestBatcher`.
    Ingest {
        /// Tenant id.
        tenant: u64,
        /// Index into the tenant's frame pool.
        frame: usize,
    },
    /// `Flush` of one tenant.
    Flush(u64),
    /// `AdvanceInterval` of one tenant.
    Advance(u64),
    /// A query frame, sent as is.
    Query(Request),
}

/// Everything a run sends, generated from the seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Inputs {
    /// Tenants registered at set-up, in id order.
    pub specs: Vec<TenantSpec>,
    /// Each tenant's ingest frames.
    pub pools: BTreeMap<u64, Vec<Frame>>,
    /// Untimed requests sent at set-up, after registration.
    pub preload: Vec<Op>,
    /// One closed loop per load connection: each request goes right
    /// after the previous answer, cycling through the list until the
    /// deadline.
    pub plans: Vec<Vec<Op>>,
    /// Items the exactness gate probes.
    pub probe_items: Vec<u64>,
    /// Inclusive ranges the exactness gate probes.
    pub probe_ranges: Vec<(u64, u64)>,
}

impl Inputs {
    /// Generates a workload's inputs.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut inputs = match workload {
            Workload::IngestFirehose => firehose(seed),
            Workload::QueryMix => query_mix(seed),
        };
        let mut rng = SplitMix64::new(mix64(seed ^ 0x0947_0BE5));
        // Zipf heads carry the mass; random items cover the tail.
        inputs.probe_items = (0..32)
            .chain((0..32).map(|_| rng.next_below(UNIVERSE)))
            .collect();
        inputs.probe_ranges = (0..8).map(|_| random_range(&mut rng)).collect();
        inputs
    }
}

/// `count` frames of `FRAME` Zipf updates for one tenant: a
/// `TimestampedStreamGen` stream with one interval per frame.
pub fn frames(seed: u64, tenant: u64, count: usize) -> Vec<Frame> {
    let stream = TimestampedStreamGen::zipf(UNIVERSE, count as u64, FRAME, ZIPF_EXPONENT)
        .with_max_delta(MAX_DELTA)
        .with_seed(mix64(seed ^ tenant.wrapping_mul(0x5EED_F4A3)))
        .generate();
    stream
        .chunks(FRAME)
        .map(|chunk| chunk.iter().map(|u| (u.item, u.delta)).collect())
        .collect()
}

fn sliding() -> ServingMode {
    ServingMode::Sliding(WindowLen { intervals: WINDOW })
}

/// Deals `decks` decks of card kinds: deck `d` holds `counts[k]` cards
/// of kind `k`, shuffled. Every deck has the exact mix, so a short run
/// sees the same shares as a long one.
fn deal(rng: &mut SplitMix64, counts: &[usize], decks: usize) -> Vec<usize> {
    let deck: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(kind, &n)| std::iter::repeat_n(kind, n))
        .collect();
    let mut out = Vec::with_capacity(deck.len() * decks);
    for _ in 0..decks {
        let mut cards = deck.clone();
        for i in (1..cards.len()).rev() {
            cards.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        out.extend(cards);
    }
    out
}

fn random_range(rng: &mut SplitMix64) -> (u64, u64) {
    let lo = rng.next_below(UNIVERSE);
    let hi = lo + rng.next_below(UNIVERSE - lo);
    (lo, hi)
}

fn firehose(seed: u64) -> Inputs {
    let specs: Vec<TenantSpec> = (0..FIREHOSE_TENANTS)
        .map(|t| TenantSpec::frequency(t, tenant_seed(seed, t)))
        .collect();
    let pools = (0..FIREHOSE_TENANTS)
        .map(|t| (t, frames(seed, t, FIREHOSE_POOL)))
        .collect();
    let preload = (0..FIREHOSE_TENANTS)
        .flat_map(|t| {
            (0..FIREHOSE_WARMUP)
                .map(move |frame| Op::Ingest { tenant: t, frame })
                .chain([Op::Flush(t)])
        })
        .collect();
    let per_conn = FIREHOSE_TENANTS / CONNECTIONS as u64;
    let plans = (0..CONNECTIONS as u64)
        .map(|c| {
            let tenants: Vec<u64> = (c * per_conn..(c + 1) * per_conn).collect();
            let mut ops = Vec::new();
            for round in 0..FIREHOSE_POOL {
                ops.extend(tenants.iter().map(|&tenant| Op::Ingest {
                    tenant,
                    frame: round,
                }));
                if (round + 1) % FIREHOSE_FLUSH_EVERY == 0 {
                    ops.extend(tenants.iter().map(|&t| Op::Flush(t)));
                }
            }
            ops
        })
        .collect();
    Inputs {
        specs,
        pools,
        preload,
        plans,
        probe_items: Vec::new(),
        probe_ranges: Vec::new(),
    }
}

fn query_mix(seed: u64) -> Inputs {
    let sliding_ids = 0..QUERY_SLIDING;
    let range_ids = QUERY_SLIDING..QUERY_SLIDING + QUERY_RANGE;
    let mut specs: Vec<TenantSpec> = sliding_ids
        .clone()
        .map(|t| TenantSpec::frequency(t, tenant_seed(seed, t)).with_mode(sliding()))
        .collect();
    specs.extend(
        range_ids
            .clone()
            .map(|t| TenantSpec::range_sum(t, tenant_seed(seed, t))),
    );
    let mut pools = BTreeMap::new();
    for t in sliding_ids.clone() {
        pools.insert(t, frames(seed, t, QUERY_PRELOAD_INTERVALS));
    }
    for t in range_ids.clone() {
        pools.insert(t, frames(seed, t, QUERY_RANGE_FRAMES));
    }
    let mut preload = Vec::new();
    for interval in 0..QUERY_PRELOAD_INTERVALS {
        for t in sliding_ids.clone() {
            preload.push(Op::Ingest {
                tenant: t,
                frame: interval,
            });
            preload.push(Op::Advance(t));
        }
    }
    for t in range_ids.clone() {
        preload.extend((0..QUERY_RANGE_FRAMES).map(|frame| Op::Ingest { tenant: t, frame }));
        preload.push(Op::Flush(t));
    }
    let zipf = Zipf::new(UNIVERSE, ZIPF_EXPONENT);
    let plans = (0..CONNECTIONS as u64)
        .map(|c| {
            let mut rng = SplitMix64::new(mix64(seed ^ 0x0051_0000 ^ c));
            let mut scans = 0u64;
            deal(&mut rng, &QUERY_DECK, QUERY_DECKS)
                .into_iter()
                .map(|card| {
                    let sliding_tenant = rng.next_below(QUERY_SLIDING);
                    let req = match card {
                        0 => {
                            scans += 1;
                            let q = HeavyHittersQuery {
                                tenant: sliding_tenant,
                                phi: PHI,
                            };
                            if scans.is_multiple_of(2) {
                                Request::HeavyHitters(q)
                            } else {
                                Request::WindowHeavyHitters(q)
                            }
                        }
                        1 => {
                            let (lo, hi) = random_range(&mut rng);
                            Request::RangeSum(RangeQuery {
                                tenant: QUERY_SLIDING + rng.next_below(QUERY_RANGE),
                                lo,
                                hi,
                            })
                        }
                        2 => Request::WindowPoint(PointQuery {
                            tenant: sliding_tenant,
                            item: zipf.sample(&mut rng) - 1,
                        }),
                        _ => Request::Point(PointQuery {
                            tenant: rng.next_below(QUERY_SLIDING + QUERY_RANGE),
                            item: zipf.sample(&mut rng) - 1,
                        }),
                    };
                    Op::Query(req)
                })
                .collect()
        })
        .collect();
    Inputs {
        specs,
        pools,
        preload,
        plans,
        probe_items: Vec::new(),
        probe_ranges: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_generates_identical_inputs() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 42);
            let b = Inputs::generate(workload, 42);
            assert_eq!(a, b, "{}", workload.name());
        }
    }

    #[test]
    fn different_seeds_generate_different_inputs() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 1);
            let b = Inputs::generate(workload, 2);
            assert_ne!(a.pools, b.pools, "{} pools", workload.name());
            assert_ne!(a.specs, b.specs, "{} tenant seeds", workload.name());
            assert_ne!(a.probe_items, b.probe_items, "{} probes", workload.name());
        }
        let a = Inputs::generate(Workload::QueryMix, 1);
        let b = Inputs::generate(Workload::QueryMix, 2);
        assert_ne!(a.plans, b.plans, "query plans");
    }

    #[test]
    fn every_deck_holds_the_exact_mix() {
        let mut rng = SplitMix64::new(5);
        let cards = deal(&mut rng, &QUERY_DECK, 3);
        let size: usize = QUERY_DECK.iter().sum();
        assert_eq!(cards.len(), 3 * size);
        for deck in cards.chunks(size) {
            for (kind, &n) in QUERY_DECK.iter().enumerate() {
                assert_eq!(deck.iter().filter(|&&c| c == kind).count(), n);
            }
        }
        assert_ne!(
            cards[..size],
            cards[size..2 * size],
            "decks are shuffled apart"
        );
    }

    #[test]
    fn updates_are_in_universe_with_integer_deltas() {
        for workload in Workload::ALL {
            let inputs = Inputs::generate(workload, 7);
            for frame in inputs.pools.values().flatten() {
                assert_eq!(frame.len(), FRAME);
                assert!(frame.iter().all(|&(item, delta)| item < UNIVERSE
                    && delta.fract() == 0.0
                    && (1.0..=MAX_DELTA as f64).contains(&delta)));
            }
        }
    }

    #[test]
    fn every_ingest_op_names_a_pool_frame() {
        for workload in Workload::ALL {
            let inputs = Inputs::generate(workload, 3);
            for op in inputs.plans.iter().flatten().chain(&inputs.preload) {
                if let &Op::Ingest { tenant, frame } = op {
                    assert!(frame < inputs.pools[&tenant].len(), "{op:?}");
                    assert!(inputs.specs.iter().any(|s| s.tenant == tenant), "{op:?}");
                }
            }
        }
    }
}
