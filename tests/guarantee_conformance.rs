//! Statistical conformance suite: the paper's per-query guarantees,
//! checked empirically at the query boundary.
//!
//! For each sketch we fix a (bound, δ) pair that the theory promises —
//! "the query error exceeds `bound` with probability at most `δ` over
//! the hash randomness" — run `T = 200` independent trials (same
//! input, fresh sketch seed per trial) over Zipf and uniform streams
//! from `bas_data`, and assert the **observed** failure rate stays
//! within the binomial noise band:
//!
//! ```text
//! observed ≤ δ + 3·√(δ(1−δ)/T)
//! ```
//!
//! The pairs are derived from the cited analyses, not tuned to the
//! implementation:
//!
//! * **Count-Min (plain & CU)** — `x̂_j ≤ x_j + (e/s)·‖x‖₁` fails w.p.
//!   ≤ `e^{−d}` (Cormode–Muthukrishnan; CU only lowers counters, so
//!   the same pair holds, and `x̂_j ≥ x_j` is asserted outright).
//! * **Count-Median** — per row, `E|err| ≤ ‖x‖₁/s`, so by Markov a row
//!   exceeds `3‖x‖₁/s` w.p. < 1/3; the median fails only if ≥ ⌈d/2⌉
//!   independent rows fail: `δ = P[Bin(d, 1/3) ≥ ⌈d/2⌉]` (Theorem 1's
//!   shape with explicit constants).
//! * **Count-Sketch** — per row, `Var ≤ ‖x‖₂²/s`, so by Chebyshev a
//!   row exceeds `3‖x‖₂/√s` w.p. ≤ 1/9: `δ = P[Bin(d, 1/9) ≥ ⌈d/2⌉]`
//!   (Theorem 2's shape).
//! * **Range-sum** — a range decomposes into ≤ `2·levels` dyadic point
//!   queries, each a Count-Median query at `c = 9`: union bound
//!   `δ = 2L·P[Bin(d, 1/9) ≥ ⌈d/2⌉]`, bound `2L·9‖x‖₁/s`.
//! * **CML-CU** — the Count-Min pair plus a log-counter noise margin:
//!   base 1.00025 gives relative std ≈ √((b−1)/2) ≈ 1.1%, so a 20%
//!   (≥ 18σ) relative slack on both sides absorbs the probabilistic
//!   counting; `δ = e^{−d} + 0.002`.
//!
//! Every check runs on a **quiescent** sketch. The sketches the
//! serving stack runs (Count-Median, Count-Sketch) are checked again on
//! an **epoch snapshot pinned mid-ingest** from a `QueryEngine` with a
//! live writer — the guarantee must hold *at the query boundary*,
//! for the exact stream prefix the snapshot captured. Prefixes land on
//! deterministic flush boundaries (the producer pins between pushes),
//! so the whole suite is seed-deterministic and CI-stable.

use bias_aware_sketches::data::dist::{uniform, Zipf};
use bias_aware_sketches::hashing::SplitMix64;
use bias_aware_sketches::prelude::*;

const N: u64 = 512;
const WIDTH: usize = 64;
const DEPTH: usize = 5;
const TRIALS: u64 = 200;
const STREAM_LEN: usize = 6_000;
/// Items queried per trial (deterministic subset of the universe).
const QUERY_STEP: usize = 17;

fn params(seed: u64) -> SketchParams {
    SketchParams::new(N, WIDTH, DEPTH).with_seed(seed)
}

/// The kernel hash kind (PR 8). `WIDTH` is a power of two, so OneHash
/// keeps the exact (bound, δ) geometry of the default family — the
/// reruns below hold it to the same acceptance lines.
fn one_hash_params(seed: u64) -> SketchParams {
    params(seed).with_hash_kind(bias_aware_sketches::hashing::HashKind::OneHash)
}

/// Exact upper tail `P[Bin(n, p) ≥ k]`.
fn binom_tail(n: u64, p: f64, k: u64) -> f64 {
    let mut total = 0.0;
    for i in k..=n {
        let mut term = 1.0;
        for j in 0..i {
            term *= (n - j) as f64 / (j + 1) as f64;
        }
        total += term * p.powi(i as i32) * (1.0 - p).powi((n - i) as i32);
    }
    total
}

/// The empirical acceptance line: `δ + 3·√(δ(1−δ)/T)`.
fn allowed(delta: f64) -> f64 {
    delta + 3.0 * (delta * (1.0 - delta) / TRIALS as f64).sqrt()
}

/// A unit-delta update stream drawn from `bas_data`'s samplers.
fn make_stream(kind: &str) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0xD157_0001 ^ kind.len() as u64);
    match kind {
        "zipf" => {
            let zipf = Zipf::new(N, 1.1);
            (0..STREAM_LEN)
                .map(|_| (zipf.sample(&mut rng) - 1, 1.0))
                .collect()
        }
        "uniform" => (0..STREAM_LEN)
            .map(|_| ((uniform(&mut rng) * N as f64) as u64 % N, 1.0))
            .collect(),
        other => panic!("unknown stream kind {other}"),
    }
}

/// Exact frequency vector of a stream prefix.
fn truth_of(prefix: &[(u64, f64)]) -> Vec<f64> {
    let mut x = vec![0.0f64; N as usize];
    for &(i, d) in prefix {
        x[i as usize] += d;
    }
    x
}

/// Runs `TRIALS` trials of `query_errors(seed, stream) -> per-item
/// failure count / query count` and asserts the aggregate failure rate
/// clears the acceptance line for `delta`.
fn assert_conformance(
    label: &str,
    kind: &str,
    delta: f64,
    mut failures_of_trial: impl FnMut(u64, &[(u64, f64)]) -> (u64, u64),
) {
    let stream = make_stream(kind);
    let (mut failures, mut queries) = (0u64, 0u64);
    for t in 0..TRIALS {
        let (f, q) = failures_of_trial(1_000 + t, &stream);
        failures += f;
        queries += q;
    }
    let observed = failures as f64 / queries as f64;
    assert!(
        observed <= allowed(delta),
        "{label} on {kind}: observed failure rate {observed:.4} > allowed {:.4} \
         (δ = {delta:.4}, {failures}/{queries} failed)",
        allowed(delta)
    );
}

/// Count-Min (both policies): overestimate-only, `(e/s)·mass` bound.
fn count_min_failures(policy: UpdatePolicy, seed: u64, stream: &[(u64, f64)]) -> (u64, u64) {
    let mut sk = CountMin::new(&params(seed), policy);
    sk.update_batch(stream);
    let truth = truth_of(stream);
    let mass: f64 = truth.iter().sum();
    let bound = std::f64::consts::E / WIDTH as f64 * mass;
    let (mut failures, mut queries) = (0, 0);
    for j in (0..N).step_by(QUERY_STEP) {
        let (est, x) = (sk.estimate(j), truth[j as usize]);
        assert!(est >= x - 1e-9, "Count-Min underestimated item {j}");
        queries += 1;
        if est - x > bound {
            failures += 1;
        }
    }
    (failures, queries)
}

#[test]
fn count_min_plain_overestimate_bound() {
    let delta = (-(DEPTH as f64)).exp();
    for kind in ["zipf", "uniform"] {
        assert_conformance("CMin", kind, delta, |seed, stream| {
            count_min_failures(UpdatePolicy::Plain, seed, stream)
        });
    }
}

#[test]
fn count_min_conservative_inherits_the_plain_bound() {
    let delta = (-(DEPTH as f64)).exp();
    for kind in ["zipf", "uniform"] {
        assert_conformance("CM-CU", kind, delta, |seed, stream| {
            count_min_failures(UpdatePolicy::Conservative, seed, stream)
        });
    }
}

#[test]
fn count_median_l1_bound() {
    let delta = binom_tail(DEPTH as u64, 1.0 / 3.0, (DEPTH as u64).div_ceil(2));
    for kind in ["zipf", "uniform"] {
        assert_conformance("CM", kind, delta, |seed, stream| {
            let mut sk = CountMedian::new(&params(seed));
            sk.update_batch(stream);
            let truth = truth_of(stream);
            let bound = 3.0 * truth.iter().sum::<f64>() / WIDTH as f64;
            let (mut failures, mut queries) = (0, 0);
            for j in (0..N).step_by(QUERY_STEP) {
                queries += 1;
                if (sk.estimate(j) - truth[j as usize]).abs() > bound {
                    failures += 1;
                }
            }
            (failures, queries)
        });
    }
}

#[test]
fn count_sketch_l2_bound() {
    let delta = binom_tail(DEPTH as u64, 1.0 / 9.0, (DEPTH as u64).div_ceil(2));
    for kind in ["zipf", "uniform"] {
        assert_conformance("CS", kind, delta, |seed, stream| {
            let mut sk = CountSketch::new(&params(seed));
            sk.update_batch(stream);
            let truth = truth_of(stream);
            let l2 = truth.iter().map(|v| v * v).sum::<f64>().sqrt();
            let bound = 3.0 * l2 / (WIDTH as f64).sqrt();
            let (mut failures, mut queries) = (0, 0);
            for j in (0..N).step_by(QUERY_STEP) {
                queries += 1;
                if (sk.estimate(j) - truth[j as usize]).abs() > bound {
                    failures += 1;
                }
            }
            (failures, queries)
        });
    }
}

#[test]
fn count_min_log_bound_with_counting_noise_margin() {
    let delta = (-(DEPTH as f64)).exp() + 0.002;
    for kind in ["zipf", "uniform"] {
        assert_conformance("CML-CU", kind, delta, |seed, stream| {
            let mut sk = CountMinLog::new(&params(seed));
            sk.update_batch(stream);
            let truth = truth_of(stream);
            let mass: f64 = truth.iter().sum();
            let cm_bound = std::f64::consts::E / WIDTH as f64 * mass;
            let (mut failures, mut queries) = (0, 0);
            for j in (0..N).step_by(QUERY_STEP) {
                let (est, x) = (sk.estimate(j), truth[j as usize]);
                let slack = 0.2 * x.max(150.0);
                queries += 1;
                if est < x - slack || est > x + cm_bound + slack {
                    failures += 1;
                }
            }
            (failures, queries)
        });
    }
}

#[test]
fn range_sum_union_bound() {
    let ranges: &[(u64, u64)] = &[(0, N - 1), (13, 200), (100, 101), (250, 511)];
    let levels = 64 - (N - 1).leading_zeros() as u64 + 1;
    let per_query = binom_tail(DEPTH as u64, 1.0 / 9.0, (DEPTH as u64).div_ceil(2));
    let delta = (2 * levels) as f64 * per_query;
    for kind in ["zipf", "uniform"] {
        assert_conformance("RS", kind, delta, |seed, stream| {
            let mut sk = RangeSumSketch::new(&params(seed));
            sk.update_batch(stream);
            let truth = truth_of(stream);
            let mass: f64 = truth.iter().sum();
            let bound = (2 * levels) as f64 * 9.0 * mass / WIDTH as f64;
            let (mut failures, mut queries) = (0, 0);
            for &(a, b) in ranges {
                let exact: f64 = truth[a as usize..=b as usize].iter().sum();
                queries += 1;
                if (sk.query(a, b) - exact).abs() > bound {
                    failures += 1;
                }
            }
            (failures, queries)
        });
    }
}

// ---- the same (bound, δ) pairs under the one-hash kernel kind ----
//
// `HashKind::OneHash` derives all row buckets (and Count-Sketch
// signs) from one strong digest by per-row multiply-shift re-keying;
// mix64 is a bijection, so each derived row stays a pairwise-
// independent multiply-shift family and the cited analyses apply
// unchanged. These reruns check that empirically: same trials, same
// streams, same acceptance lines — only the hash kind differs (and
// the batch path, which routes through the row-major kernel).

#[test]
fn count_median_l1_bound_under_one_hash() {
    let delta = binom_tail(DEPTH as u64, 1.0 / 3.0, (DEPTH as u64).div_ceil(2));
    for kind in ["zipf", "uniform"] {
        assert_conformance("CM/one-hash", kind, delta, |seed, stream| {
            let mut sk = CountMedian::new(&one_hash_params(seed));
            sk.update_batch(stream);
            let truth = truth_of(stream);
            let bound = 3.0 * truth.iter().sum::<f64>() / WIDTH as f64;
            let (mut failures, mut queries) = (0, 0);
            for j in (0..N).step_by(QUERY_STEP) {
                queries += 1;
                if (sk.estimate(j) - truth[j as usize]).abs() > bound {
                    failures += 1;
                }
            }
            (failures, queries)
        });
    }
}

#[test]
fn count_sketch_l2_bound_under_one_hash() {
    let delta = binom_tail(DEPTH as u64, 1.0 / 9.0, (DEPTH as u64).div_ceil(2));
    for kind in ["zipf", "uniform"] {
        assert_conformance("CS/one-hash", kind, delta, |seed, stream| {
            let mut sk = CountSketch::new(&one_hash_params(seed));
            sk.update_batch(stream);
            let truth = truth_of(stream);
            let l2 = truth.iter().map(|v| v * v).sum::<f64>().sqrt();
            let bound = 3.0 * l2 / (WIDTH as f64).sqrt();
            let (mut failures, mut queries) = (0, 0);
            for j in (0..N).step_by(QUERY_STEP) {
                queries += 1;
                if (sk.estimate(j) - truth[j as usize]).abs() > bound {
                    failures += 1;
                }
            }
            (failures, queries)
        });
    }
}

#[test]
fn count_min_bounds_under_one_hash() {
    let delta = (-(DEPTH as f64)).exp();
    for kind in ["zipf", "uniform"] {
        for policy in [UpdatePolicy::Plain, UpdatePolicy::Conservative] {
            assert_conformance("CMin/one-hash", kind, delta, |seed, stream| {
                let mut sk = CountMin::new(&one_hash_params(seed), policy);
                sk.update_batch(stream);
                let truth = truth_of(stream);
                let mass: f64 = truth.iter().sum();
                let bound = std::f64::consts::E / WIDTH as f64 * mass;
                let (mut failures, mut queries) = (0, 0);
                for j in (0..N).step_by(QUERY_STEP) {
                    let (est, x) = (sk.estimate(j), truth[j as usize]);
                    assert!(
                        est >= x - 1e-9,
                        "one-hash Count-Min underestimated item {j}"
                    );
                    queries += 1;
                    if est - x > bound {
                        failures += 1;
                    }
                }
                (failures, queries)
            });
        }
    }
}

// ---- the same guarantees, on snapshots pinned mid-ingest ----

/// Feeds 60% of the stream through a live `QueryEngine` (flush
/// threshold = len/4), pins a snapshot — which lands on the
/// deterministic flush boundary `len/2` — then finishes the stream
/// while the pinned view is queried. Returns per-trial failures and
/// queries for the captured **prefix**.
fn snapshot_failures<S, F>(sketch: S, stream: &[(u64, f64)], mut fails: F) -> (u64, u64)
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
    F: FnMut(&S, &S::Snapshot, &[f64], f64) -> (u64, u64),
{
    let threshold = stream.len() / 4;
    let mut engine = QueryEngine::new(sketch).with_flush_threshold(threshold);
    let pushed = stream.len() * 6 / 10;
    engine.extend_from_slice(&stream[..pushed]);
    let snap = engine.pin();
    // Pushing 60% with a 25% threshold applies exactly two flushes.
    assert_eq!(
        snap.applied() as usize,
        2 * threshold,
        "nondeterministic prefix"
    );
    engine.extend_from_slice(&stream[pushed..]);
    engine.flush();
    let truth = truth_of(&stream[..snap.applied() as usize]);
    let mass: f64 = truth.iter().sum();
    assert_eq!(snap.mass(), mass, "snapshot mass disagrees with its prefix");
    fails(engine.sketch(), snap.snapshot(), &truth, mass)
}

#[test]
fn count_median_l1_bound_on_mid_ingest_snapshots() {
    let delta = binom_tail(DEPTH as u64, 1.0 / 3.0, (DEPTH as u64).div_ceil(2));
    for kind in ["zipf", "uniform"] {
        assert_conformance("CM/snapshot", kind, delta, |seed, stream| {
            snapshot_failures(
                AtomicCountMedian::with_backend(&params(seed)),
                stream,
                |sk, snap, truth, mass| {
                    let bound = 3.0 * mass / WIDTH as f64;
                    let (mut failures, mut queries) = (0, 0);
                    for j in (0..N).step_by(QUERY_STEP) {
                        queries += 1;
                        if (sk.estimate_in(snap, j) - truth[j as usize]).abs() > bound {
                            failures += 1;
                        }
                    }
                    (failures, queries)
                },
            )
        });
    }
}

#[test]
fn count_sketch_l2_bound_on_mid_ingest_snapshots() {
    let delta = binom_tail(DEPTH as u64, 1.0 / 9.0, (DEPTH as u64).div_ceil(2));
    for kind in ["zipf", "uniform"] {
        assert_conformance("CS/snapshot", kind, delta, |seed, stream| {
            snapshot_failures(
                AtomicCountSketch::with_backend(&params(seed)),
                stream,
                |sk, snap, truth, _mass| {
                    let l2 = truth.iter().map(|v| v * v).sum::<f64>().sqrt();
                    let bound = 3.0 * l2 / (WIDTH as f64).sqrt();
                    let (mut failures, mut queries) = (0, 0);
                    for j in (0..N).step_by(QUERY_STEP) {
                        queries += 1;
                        if (sk.estimate_in(snap, j) - truth[j as usize]).abs() > bound {
                            failures += 1;
                        }
                    }
                    (failures, queries)
                },
            )
        });
    }
}
