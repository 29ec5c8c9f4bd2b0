//! Adversarial and boundary-condition integration tests: degenerate
//! dimensions, extreme magnitudes, hostile bias configurations — the
//! inputs a production deployment will eventually see.
//!
//! The second half is the **attack-loop conformance suite** for the
//! robustness plane: a reusable adaptive adversary (greedy
//! probe-and-keep over served estimates, the classic attack on
//! oblivious sketches under query feedback) is run against
//!
//! 1. a fixed-seed [`QueryEngine`] — the per-query guarantee from
//!    `tests/guarantee_conformance.rs` **breaks**: the observed failure
//!    rate blows past the binomial acceptance line, because the
//!    guarantee only holds for inputs independent of the hash draws;
//! 2. a [`QueryEngine`] under [`Policy::Rotating`] with an
//!    [`AuditPolicy`], fed the *identical* probe schedule — the
//!    windowed guarantee **holds**: per-key query budgets cap the
//!    feedback per generation, and seed rotation expires whatever
//!    leaked.
//!
//! Failure rates are measured over `T` seed-deterministic trials and
//! compared against the same `δ + 3·√(δ(1−δ)/T)` acceptance line the
//! conformance suite uses (for a K-generation window the union bound
//! gives `δ_win = 1 − (1−δ)^K`). Every stream and probe decision is a
//! pure function of the trial seed, so the suite is CI-stable.

use bias_aware_sketches::core::{oracle, L1Config, L1SketchRecover, L2Config, L2SketchRecover};
use bias_aware_sketches::hashing::{mix64, SplitMix64};
use bias_aware_sketches::prelude::*;

#[test]
fn single_element_universe() {
    let l1 = &mut L1SketchRecover::new(&L1Config::new(1, 4, 3).with_seed(1));
    let l2 = &mut L2SketchRecover::new(&L2Config::new(1, 4, 3).with_seed(1));
    l1.update(0, 123.0);
    l2.update(0, 123.0);
    // One coordinate hashed into ≥1 bucket: recovery is exact.
    assert!((l1.estimate(0) - 123.0).abs() < 1e-9);
    assert!((l2.estimate(0) - 123.0).abs() < 1e-9);
}

#[test]
fn width_one_sketch_still_answers() {
    // Everything collides in one bucket: the estimate degenerates to
    // bias-only, but nothing panics and results stay finite.
    let cfg = L2Config::new(100, 1, 3).with_seed(2);
    let mut sk = L2SketchRecover::new(&cfg);
    for i in 0..100u64 {
        sk.update(i, 10.0);
    }
    assert!(sk.bias().is_finite());
    assert!(sk.estimate(5).is_finite());
    // With a constant vector the bias alone reconstructs it.
    assert!((sk.estimate(5) - 10.0).abs() < 1e-6);
}

#[test]
fn depth_one_has_no_median_protection_but_works() {
    let cfg = L1Config::new(1000, 128, 1).with_seed(3);
    let mut sk = L1SketchRecover::new(&cfg);
    for i in 0..1000u64 {
        sk.update(i, 50.0);
    }
    assert!((sk.estimate(7) - 50.0).abs() < 10.0);
}

#[test]
fn huge_magnitudes_do_not_overflow() {
    let cfg = L2Config::new(500, 64, 5).with_seed(4);
    let mut sk = L2SketchRecover::new(&cfg);
    for i in 0..500u64 {
        sk.update(i, 1e15);
    }
    sk.update(3, 1e18);
    let est = sk.estimate(3);
    assert!(est.is_finite());
    assert!((est - (1e15 + 1e18)).abs() < 1e13, "est = {est}");
    assert!((sk.bias() - 1e15).abs() < 1e12);
}

#[test]
fn negative_bias_is_a_bias_too() {
    // Nothing in the theory requires β > 0.
    let n = 2000usize;
    let mut x = vec![-400.0f64; n];
    x[10] = 900.0;
    let t = oracle::min_beta_err_k2(&x, 8);
    assert!((t.beta + 400.0).abs() < 1e-9);
    let cfg = L2Config::new(n as u64, 128, 7).with_seed(5);
    let mut sk = L2SketchRecover::new(&cfg);
    sk.ingest_vector(&x);
    assert!((sk.bias() + 400.0).abs() < 2.0, "bias = {}", sk.bias());
    assert!((sk.estimate(10) - 900.0).abs() < 20.0);
    assert!((sk.estimate(500) + 400.0).abs() < 20.0);
}

#[test]
fn alternating_extreme_signs_around_zero_bias() {
    // Symmetric ±v coordinates: the best bias is 0 and the de-biased
    // tail equals the plain tail — the bias-aware sketch must not be
    // *worse* than its underlying sketch.
    let n = 2000usize;
    let x: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 300.0 } else { -300.0 })
        .collect();
    let t = oracle::min_beta_err_k1(&x, 100);
    assert!(t.beta.abs() <= 300.0);
    let cfg = L2Config::new(n as u64, 256, 9).with_seed(6);
    let mut sk = L2SketchRecover::new(&cfg);
    sk.ingest_vector(&x);
    let params = SketchParams::new(n as u64, 256, 10).with_seed(6);
    let mut cs = CountSketch::new(&params);
    cs.ingest_vector(&x);
    let avg = |est: &dyn Fn(u64) -> f64| {
        (0..n as u64)
            .map(|j| (est(j) - x[j as usize]).abs())
            .sum::<f64>()
            / n as f64
    };
    let bias_aware = avg(&|j| sk.estimate(j));
    let baseline = avg(&|j| cs.estimate(j));
    assert!(
        bias_aware <= baseline * 1.5 + 1.0,
        "bias-aware {bias_aware} should not lose to CS {baseline} when the best bias is ~0"
    );
}

#[test]
fn all_mass_in_one_coordinate() {
    // n−1 zeros + one spike: bias ≈ 0, spike recovered exactly.
    let cfg = L1Config::new(10_000, 256, 7).with_seed(7);
    let mut sk = L1SketchRecover::new(&cfg);
    sk.update(1234, 1e6);
    assert!(sk.bias().abs() < 1.0);
    assert!((sk.estimate(1234) - 1e6).abs() < 1.0);
    assert!(sk.estimate(999).abs() < 1.0);
}

#[test]
fn dense_updates_to_one_bucket_cannot_poison_the_window() {
    // Stream a colossal count into a few coordinates mapping near each
    // other; the 2k-median-bucket estimator must shrug it off.
    let n = 5000u64;
    let cfg = L2Config::new(n, 128, 7).with_seed(8);
    let mut sk = L2SketchRecover::new(&cfg);
    for i in 0..n {
        sk.update(i, 20.0);
    }
    for round in 0..50 {
        sk.update(round % 5, 1e9);
    }
    assert!(
        (sk.bias() - 20.0).abs() < 2.0,
        "bias {} should ignore 5 contaminated coordinates",
        sk.bias()
    );
}

#[test]
fn oracle_handles_constant_vectors() {
    let x = vec![7.0; 100];
    for p in [1u32, 2] {
        let t = oracle::min_beta_err(&x, 3, p);
        assert_eq!(t.beta, 7.0);
        assert_eq!(t.err, 0.0);
    }
    assert_eq!(oracle::err_k_p(&x, 0, 1), 700.0);
}

#[test]
fn oracle_handles_two_point_masses() {
    // Half at 0, half at 1000: best k=0 bias is the median/mean; the
    // error is huge either way, and the sketch degrades gracefully.
    let n = 1000usize;
    let x: Vec<f64> = (0..n)
        .map(|i| if i < n / 2 { 0.0 } else { 1000.0 })
        .collect();
    let t1 = oracle::min_beta_err_k1(&x, 0);
    assert_eq!(t1.err, 500.0 * n as f64);
    let cfg = L2Config::new(n as u64, 64, 7).with_seed(9);
    let mut sk = L2SketchRecover::new(&cfg);
    sk.ingest_vector(&x);
    assert!(sk.estimate(0).is_finite());
    assert!(sk.estimate((n - 1) as u64).is_finite());
}

#[test]
fn repeated_identical_updates_accumulate_exactly() {
    let cfg = L1Config::new(64, 32, 5).with_seed(10);
    let mut sk = L1SketchRecover::new(&cfg);
    for _ in 0..10_000 {
        sk.update(7, 0.5);
    }
    assert!((sk.estimate(7) - 5000.0).abs() < 5.0);
}

#[test]
fn interleaved_insert_delete_storm() {
    // Heavy turnstile churn must leave the sketch exactly at the net
    // state (integer deltas keep float sums exact).
    let n = 256u64;
    let cfg = L2Config::new(n, 64, 5).with_seed(11);
    let mut sk = L2SketchRecover::new(&cfg);
    let mut truth = vec![0.0f64; n as usize];
    let mut state = 7u64;
    for _ in 0..50_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let item = state % n;
        let delta = ((state >> 8) % 21) as f64 - 10.0;
        sk.update(item, delta);
        truth[item as usize] += delta;
    }
    // Drain everything back to zero.
    for (i, v) in truth.iter().enumerate() {
        if *v != 0.0 {
            sk.update(i as u64, -v);
        }
    }
    for j in (0..n).step_by(7) {
        assert!(sk.estimate(j).abs() < 1e-9, "item {j}");
    }
    assert!(sk.bias().abs() < 1e-9);
}

// ---- the attack-loop conformance suite (robustness plane) ----

/// Attack/defence geometry, shared by every loop below.
const AN: u64 = 512;
const AWIDTH: usize = 64;
const ADEPTH: usize = 5;
/// Probe weight: one greedy probe's turnstile delta.
const PROBE: f64 = 64.0;
/// Seed-deterministic trials per measurement.
const ATRIALS: u64 = 40;
/// Base (honest) traffic per interval.
const BASE_LEN: usize = 2_000;
/// Rotating defence: window length in intervals, probes per interval,
/// audited per-key query budget per generation.
const WINDOW: usize = 2;
const ROTATE_EVERY: usize = 128;
const AUDIT_BUDGET: u64 = 6;

fn aparams(seed: u64) -> SketchParams {
    SketchParams::new(AN, AWIDTH, ADEPTH).with_seed(seed)
}

fn victim_of(trial: u64) -> u64 {
    mix64(0xBAD_CAFE ^ trial) % AN
}

/// Exact upper tail `P[Bin(n, p) ≥ k]` (as in guarantee_conformance).
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

/// The conformance acceptance line `δ + 3·√(δ(1−δ)/T)`.
fn allowed(delta: f64) -> f64 {
    delta + 3.0 * (delta * (1.0 - delta) / ATRIALS as f64).sqrt()
}

/// Per-sketch δ for the Theorem-1/-2 bounds at depth 5.
fn delta_l1() -> f64 {
    binom_tail(ADEPTH as u64, 1.0 / 3.0, (ADEPTH as u64).div_ceil(2))
}
fn delta_l2() -> f64 {
    binom_tail(ADEPTH as u64, 1.0 / 9.0, (ADEPTH as u64).div_ceil(2))
}

/// Union-bounded δ for a K-generation window (each generation pays its
/// own per-plane failure probability).
fn delta_window(delta: f64, k: usize) -> f64 {
    1.0 - (1.0 - delta).powi(k as i32)
}

/// Deterministic unit-delta honest traffic for one interval.
fn base_traffic(trial: u64, interval: u64) -> Vec<(u64, f64)> {
    let mut rng = SplitMix64::new(0xA77A_C000 ^ mix64(trial) ^ interval.wrapping_mul(0x9E37));
    (0..BASE_LEN).map(|_| (rng.next_u64() % AN, 1.0)).collect()
}

/// The candidate schedule: every non-victim item, in a fixed order.
/// Both engines face this exact sequence — the comparison is paired.
fn candidates(victim: u64) -> impl Iterator<Item = u64> {
    (0..AN).filter(move |c| *c != victim)
}

/// One adaptive trial against a **fixed-seed** engine: greedy
/// probe-and-keep. Each probe pushes `(c, +PROBE)`, flushes, and asks
/// the served estimate of the victim; if the answer rose the probe is
/// kept (c collides with the victim somewhere pivotal), otherwise it is
/// retracted with `(c, −PROBE)`. Returns `(error, bound)` at the
/// victim for the post-attack state.
fn fixed_engine_attack<S>(sketch: S, trial: u64, bound_of: impl Fn(&[f64]) -> f64) -> (f64, f64)
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
{
    let victim = victim_of(trial);
    let base = base_traffic(trial, 0);
    let mut engine = QueryEngine::new(sketch);
    engine.extend_from_slice(&base);
    engine.flush();
    let handle = engine.handle();

    let mut truth = vec![0.0f64; AN as usize];
    for &(i, d) in &base {
        truth[i as usize] += d;
    }
    let mut prev = handle.estimate_live(victim);
    for c in candidates(victim) {
        engine.push(c, PROBE);
        engine.flush();
        let est = handle.estimate_live(victim);
        if est > prev + 0.5 {
            prev = est;
            truth[c as usize] += PROBE;
        } else {
            engine.push(c, -PROBE);
            engine.flush();
        }
    }
    let err = (handle.estimate_live(victim) - truth[victim as usize]).abs();
    (err, bound_of(&truth))
}

/// The **identical** adaptive trial against the rotating, audited
/// engine: same victim, same candidate schedule, same greedy rule —
/// but reads go through `audited_point_in_window` (budget
/// `AUDIT_BUDGET` per key per generation) and the engine rotates every
/// `ROTATE_EVERY` probes with fresh honest traffic. A rejected read
/// leaves the attacker blind, so the probe is retracted. Returns
/// `(error, bound)` at the victim for the final window.
fn rotating_engine_attack<S>(
    sketch: S,
    trial: u64,
    bound_of: impl Fn(&[Vec<f64>]) -> f64,
) -> (f64, f64)
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
{
    let victim = victim_of(trial);
    // The sketch's seed, 1_000 + trial, is the master of the schedule.
    let policy = Policy::Rotating(Sliding::new(WINDOW).unwrap());
    let mut engine =
        QueryEngine::with_policy(1, sketch, policy).with_audit(AuditPolicy::new(AUDIT_BUDGET));

    // Per-interval exact frequency vectors (the truth ring).
    let mut truths: Vec<Vec<f64>> = Vec::new();
    let open_interval = |engine: &mut QueryEngine<S>, truths: &mut Vec<Vec<f64>>| {
        let base = base_traffic(trial, truths.len() as u64);
        engine.extend_from_slice(&base);
        engine.flush();
        let mut truth = vec![0.0f64; AN as usize];
        for &(i, d) in &base {
            truth[i as usize] += d;
        }
        truths.push(truth);
    };

    open_interval(&mut engine, &mut truths);
    let mut prev = engine
        .audited_point_in_window(victim)
        .expect("fresh budget");
    for (i, c) in candidates(victim).enumerate() {
        if i > 0 && i % ROTATE_EVERY == 0 {
            engine.advance_interval();
            open_interval(&mut engine, &mut truths);
            // Budgets are fresh after rotation; re-baseline the victim.
            prev = engine
                .audited_point_in_window(victim)
                .expect("fresh budget");
        }
        engine.push(c, PROBE);
        engine.flush();
        match engine.audited_point_in_window(victim) {
            Ok(est) if est > prev + 0.5 => {
                prev = est;
                truths.last_mut().unwrap()[c as usize] += PROBE;
            }
            _ => {
                // No rise — or the audit withheld the answer entirely.
                engine.push(c, -PROBE);
                engine.flush();
            }
        }
    }
    engine.flush();

    // The window = the live interval plus WINDOW − 1 retired ones.
    let first = truths.len().saturating_sub(WINDOW);
    let window_truths = &truths[first..];
    let truth_at_victim: f64 = window_truths.iter().map(|t| t[victim as usize]).sum();
    let err = (engine.point_in_window(victim) - truth_at_victim).abs();
    (err, bound_of(window_truths))
}

/// Σ mass bound: `3·‖x‖₁/s` per plane, summed over the window.
fn l1_window_bound(truths: &[Vec<f64>]) -> f64 {
    truths
        .iter()
        .map(|t| 3.0 * t.iter().sum::<f64>() / AWIDTH as f64)
        .sum()
}

/// Σ ℓ2 bound: `3·‖x‖₂/√s` per plane, summed over the window.
fn l2_window_bound(truths: &[Vec<f64>]) -> f64 {
    truths
        .iter()
        .map(|t| 3.0 * t.iter().map(|v| v * v).sum::<f64>().sqrt() / (AWIDTH as f64).sqrt())
        .sum()
}

/// Runs the paired experiment for one sketch family and returns the
/// two observed failure rates `(fixed, rotating)`.
fn paired_failure_rates<S: SharedSketch + Snapshottable + Reseedable + Send>(
    make: impl Fn(u64) -> S,
    fixed_bound: impl Fn(&[f64]) -> f64 + Copy,
    window_bound: impl Fn(&[Vec<f64>]) -> f64 + Copy,
) -> (f64, f64) {
    let (mut fixed_failures, mut rotating_failures) = (0u64, 0u64);
    for trial in 0..ATRIALS {
        let (err, bound) = fixed_engine_attack(make(1_000 + trial), trial, fixed_bound);
        fixed_failures += u64::from(err > bound);
        let (err, bound) = rotating_engine_attack(make(1_000 + trial), trial, window_bound);
        rotating_failures += u64::from(err > bound);
    }
    (
        fixed_failures as f64 / ATRIALS as f64,
        rotating_failures as f64 / ATRIALS as f64,
    )
}

#[test]
fn adaptive_attack_blows_fixed_seed_count_median_but_rotation_holds() {
    let (fixed, rotating) = paired_failure_rates(
        |seed| AtomicCountMedian::with_backend(&aparams(seed)),
        |truth| 3.0 * truth.iter().sum::<f64>() / AWIDTH as f64,
        l1_window_bound,
    );
    // The oblivious guarantee is void under adaptive inputs: the
    // observed failure rate must blow far past the conformance line
    // (δ ≈ 0.21 → allowed ≈ 0.40 at T = 40).
    let line = allowed(delta_l1());
    assert!(
        fixed > line && fixed >= 0.75,
        "fixed-seed CM survived the adaptive attack: observed {fixed:.3}, line {line:.3}"
    );
    // The identical schedule against rotation + audit stays within the
    // window's union-bounded acceptance line.
    let window_line = allowed(delta_window(delta_l1(), WINDOW));
    assert!(
        rotating <= window_line,
        "rotating CM failed under attack: observed {rotating:.3} > allowed {window_line:.3}"
    );
}

#[test]
fn adaptive_attack_blows_fixed_seed_count_sketch_but_rotation_holds() {
    let (fixed, rotating) = paired_failure_rates(
        |seed| AtomicCountSketch::with_backend(&aparams(seed)),
        |truth| 3.0 * truth.iter().map(|v| v * v).sum::<f64>().sqrt() / (AWIDTH as f64).sqrt(),
        l2_window_bound,
    );
    let line = allowed(delta_l2());
    assert!(
        fixed > line && fixed >= 0.75,
        "fixed-seed CS survived the adaptive attack: observed {fixed:.3}, line {line:.3}"
    );
    let window_line = allowed(delta_window(delta_l2(), WINDOW));
    assert!(
        rotating <= window_line,
        "rotating CS failed under attack: observed {rotating:.3} > allowed {window_line:.3}"
    );
}

/// Rotation in isolation (no audit): colliders learned against seed
/// `σ` and **replayed** as heavy keys blow the bound under `σ` but are
/// just ordinary heavy traffic to the next seed in the schedule.
#[test]
fn replayed_colliders_poison_the_trained_seed_but_not_the_next_rotation() {
    const REPLAY: f64 = 256.0;
    let (mut trained_failures, mut rotated_failures) = (0u64, 0u64);
    for trial in 0..ATRIALS {
        let schedule = SeedSchedule::new(5_000 + trial);
        let victim = victim_of(trial);
        let base = base_traffic(trial, 0);

        // Train: greedy probe-and-keep against a plain sketch under
        // the schedule's generation-0 seed.
        let mut probe_target = CountMedian::new(&aparams(schedule.seed_for(0)));
        probe_target.update_batch(&base);
        let mut kept = Vec::new();
        let mut prev = probe_target.estimate(victim);
        for c in candidates(victim) {
            probe_target.update(c, PROBE);
            let est = probe_target.estimate(victim);
            if est > prev + 0.5 {
                prev = est;
                kept.push(c);
            } else {
                probe_target.update(c, -PROBE);
            }
        }

        // Replay the learned keys (queries are over — this is a pure
        // poison stream) into fresh sketches under both seeds.
        let mut truth = vec![0.0f64; AN as usize];
        for &(i, d) in &base {
            truth[i as usize] += d;
        }
        for &c in &kept {
            truth[c as usize] += REPLAY;
        }
        let bound = 3.0 * truth.iter().sum::<f64>() / AWIDTH as f64;
        let replay_into = |seed: u64| {
            let mut sk = CountMedian::new(&aparams(seed));
            sk.update_batch(&base);
            for &c in &kept {
                sk.update(c, REPLAY);
            }
            (sk.estimate(victim) - truth[victim as usize]).abs()
        };
        trained_failures += u64::from(replay_into(schedule.seed_for(0)) > bound);
        rotated_failures += u64::from(replay_into(schedule.seed_for(1)) > bound);
    }
    let trained = trained_failures as f64 / ATRIALS as f64;
    let rotated = rotated_failures as f64 / ATRIALS as f64;
    // Under the trained seed the replay is a targeted collision set;
    // under the rotated seed it is input-independent heavy traffic and
    // the ordinary conformance line applies.
    let line = allowed(delta_l1());
    assert!(
        trained > line && trained >= 0.75,
        "replay under the trained seed should blow the bound: observed {trained:.3}"
    );
    assert!(
        rotated <= line,
        "replay under the rotated seed should be ordinary traffic: \
         observed {rotated:.3} > allowed {line:.3}"
    );
}
