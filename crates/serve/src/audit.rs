//! Query auditing: bounding the adaptive feedback a reader can extract
//! from one plane lifetime.
//!
//! Seed rotation ([`Policy::Rotating`](crate::Policy::Rotating)) bounds
//! how *long* an adversary can exploit a learned hasher configuration;
//! this module bounds how *much* they can learn in the first place. The
//! attack loop in `tests/adversarial.rs` works by asking about the same
//! victim key after every probe and keeping the probes that moved its
//! estimate — every answer leaks one bit about the victim's colliding
//! buckets. An engine built
//! [`with_audit`](crate::QueryEngine::with_audit) throttles exactly
//! that channel:
//!
//! * **per-key query counting** — at most
//!   [`max_queries_per_key`](AuditPolicy::max_queries_per_key) answers
//!   about any one item per interval, whichever point verb asks;
//!   further queries return [`QueryError::AuditRejected`]. Every
//!   advance renews the budget.
//! * **answer coarsening** — optional deterministic per-item noise
//!   ([`with_noise`](AuditPolicy::with_noise)) and/or quantization
//!   ([`with_quantize`](AuditPolicy::with_quantize)). Both blunt the
//!   "did my probe move the estimate?" signal below the probe size.
//!   The noise is a pure function of the *item* (not of the query
//!   count), so repeating a query returns the identical answer —
//!   averaging over repeats buys the adversary nothing, and honest
//!   dashboards see stable numbers.
//!
//! The audit is a serving-side overlay: the sketch, its counters and
//! the unaudited reads are untouched, so trusted readers keep exact
//! answers while untrusted query surfaces get the throttled view.

use std::collections::HashMap;

use crate::error::QueryError;
use bas_hash::{mix64, SplitMix64};
use parking_lot::Mutex;

/// The knobs of a query-audit layer — see the module docs for the
/// threat model each addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditPolicy {
    max_queries_per_key: u64,
    noise_magnitude: f64,
    noise_seed: u64,
    quantize: f64,
}

impl AuditPolicy {
    /// A counting-only policy: at most `max_queries_per_key` answers
    /// about any one item per interval, exact answers until then. A cap of 0 rejects every query (useful as a kill switch).
    pub fn new(max_queries_per_key: u64) -> Self {
        Self {
            max_queries_per_key,
            noise_magnitude: 0.0,
            noise_seed: 0,
            quantize: 0.0,
        }
    }

    /// Adds deterministic per-item noise, uniform in
    /// `[-magnitude, magnitude]`, derived from `seed` and the item
    /// only — repeat queries for the same item get the identical
    /// perturbed answer (no averaging attack; keep `seed` private, or
    /// the adversary subtracts the noise right back off).
    pub fn with_noise(mut self, magnitude: f64, seed: u64) -> Self {
        assert!(
            magnitude >= 0.0 && magnitude.is_finite(),
            "noise magnitude must be finite and non-negative"
        );
        self.noise_magnitude = magnitude;
        self.noise_seed = seed;
        self
    }

    /// Quantizes answers to the nearest multiple of `step` (applied
    /// after noise) — estimates move only in visible jumps, hiding
    /// sub-`step` probe effects entirely.
    pub fn with_quantize(mut self, step: f64) -> Self {
        assert!(
            step >= 0.0 && step.is_finite(),
            "quantize step must be finite and non-negative"
        );
        self.quantize = step;
        self
    }

    /// The per-key, per-interval query cap.
    pub fn max_queries_per_key(&self) -> u64 {
        self.max_queries_per_key
    }

    /// Applies the answer-coarsening half of the policy (noise, then
    /// quantization) to a raw estimate. The counting half is the
    /// engine's per-key budget.
    pub fn apply(&self, item: u64, raw: f64) -> f64 {
        let mut answer = raw;
        if self.noise_magnitude > 0.0 {
            let mut rng = SplitMix64::new(self.noise_seed ^ mix64(item));
            // 53 random mantissa bits → uniform in [0, 1), mapped to
            // [-magnitude, magnitude].
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            answer += (2.0 * unit - 1.0) * self.noise_magnitude;
        }
        if self.quantize > 0.0 {
            answer = (answer / self.quantize).round() * self.quantize;
        }
        answer
    }
}

/// The per-key query budget of one interval: the counting half of an
/// [`AuditPolicy`], held by an audited
/// [`QueryEngine`](crate::QueryEngine).
#[derive(Debug)]
pub(crate) struct AuditBudget {
    policy: AuditPolicy,
    counts: Mutex<HashMap<u64, u64>>,
}

impl AuditBudget {
    pub(crate) fn new(policy: AuditPolicy) -> Self {
        Self {
            policy,
            counts: Mutex::new(HashMap::new()),
        }
    }

    /// Counts one query about `item` against its budget, then answers
    /// `estimate()` through the policy's noise/quantize pipeline.
    pub(crate) fn answer(
        &self,
        item: u64,
        estimate: impl FnOnce() -> f64,
    ) -> Result<f64, QueryError> {
        {
            let mut counts = self.counts.lock();
            let used = counts.entry(item).or_insert(0);
            if *used >= self.policy.max_queries_per_key {
                return Err(QueryError::AuditRejected {
                    item,
                    limit: self.policy.max_queries_per_key,
                });
            }
            *used += 1;
        }
        Ok(self.policy.apply(item, estimate()))
    }

    /// Renews every key's budget.
    pub(crate) fn reset(&self) {
        self.counts.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryEngine;
    use bas_sketch::{AtomicCountMedian, SketchParams};

    fn engine(policy: AuditPolicy) -> QueryEngine<AtomicCountMedian> {
        let params = SketchParams::new(200, 64, 5).with_seed(11);
        let mut engine =
            QueryEngine::new(AtomicCountMedian::with_backend(&params)).with_audit(policy);
        engine.push(7, 40.0);
        engine.push(9, 8.0);
        engine.flush();
        engine
    }

    #[test]
    fn cap_rejects_after_budget_and_advance_restores() {
        let mut audited = engine(AuditPolicy::new(3));
        for _ in 0..3 {
            assert_eq!(audited.audited_estimate_live(7), Ok(40.0));
        }
        assert_eq!(
            audited.audited_estimate_live(7),
            Err(QueryError::AuditRejected { item: 7, limit: 3 })
        );
        // Other keys have their own budgets; rejected queries did not
        // touch them.
        assert_eq!(audited.audited_estimate_live(9), Ok(8.0));
        audited.advance_interval();
        assert_eq!(audited.audited_estimate_live(7), Ok(40.0));
    }

    #[test]
    fn noise_is_deterministic_per_item_and_bounded() {
        let audited = engine(AuditPolicy::new(u64::MAX).with_noise(2.0, 99));
        let first = audited.audited_estimate_live(7).unwrap();
        // Repeats return the identical perturbed answer — averaging
        // over repeats cannot wash the noise out.
        for _ in 0..10 {
            assert_eq!(audited.audited_estimate_live(7).unwrap(), first);
        }
        assert!((first - 40.0).abs() <= 2.0, "answer {first}");
        // Different items get independent perturbations.
        let other = audited.audited_estimate_live(9).unwrap();
        assert!((other - 8.0).abs() <= 2.0, "answer {other}");
        assert_ne!(first - 40.0, other - 8.0);
    }

    #[test]
    fn quantization_rounds_to_the_step() {
        let audited = engine(AuditPolicy::new(u64::MAX).with_quantize(16.0));
        assert_eq!(audited.audited_estimate_live(7), Ok(48.0)); // 40/16 = 2.5 rounds away from zero
        assert_eq!(audited.audited_estimate_live(9), Ok(16.0)); // 8 rounds up
    }

    #[test]
    fn unaudited_reads_stay_exact_and_unthrottled() {
        let audited = engine(AuditPolicy::new(0));
        assert!(audited.audited_estimate_live(7).is_err()); // kill switch
        for _ in 0..5 {
            assert_eq!(audited.estimate_live(7), 40.0);
            assert_eq!(audited.handle().estimate_live(7), 40.0);
        }
    }

    #[test]
    fn apply_composes_noise_then_quantize() {
        let plain = AuditPolicy::new(1);
        assert_eq!(plain.apply(3, 12.34), 12.34);
        let quantized = plain.with_quantize(5.0);
        assert_eq!(quantized.apply(3, 12.34), 10.0);
        let noisy = AuditPolicy::new(1).with_noise(1.0, 7).with_quantize(0.5);
        let out = noisy.apply(3, 12.0);
        assert!((out - 12.0).abs() <= 1.25, "out {out}");
        assert_eq!((out / 0.5).round() * 0.5, out);
    }
}
