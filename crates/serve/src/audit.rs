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
//! that channel by counting queries per key: at most
//! [`max_queries_per_key`](AuditPolicy::max_queries_per_key) answers
//! about any one item per interval, whichever point verb asks. Further
//! queries return [`QueryError::AuditRejected`], and every advance
//! renews the budget. Answers within the budget are the estimates as
//! read.
//!
//! The audit is a serving-side overlay: the sketch, its counters and
//! the unaudited reads are untouched, so trusted readers keep exact
//! answers while untrusted query surfaces get the throttled view.

use std::collections::HashMap;

use crate::error::QueryError;
use parking_lot::Mutex;

/// The one knob of a query-audit layer: the per-key query cap — see
/// the module docs for the threat model it addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditPolicy {
    max_queries_per_key: u64,
}

impl AuditPolicy {
    /// At most `max_queries_per_key` answers about any one item per
    /// interval, exact answers until then. A cap of 0 rejects every
    /// query (useful as a kill switch).
    pub fn new(max_queries_per_key: u64) -> Self {
        Self {
            max_queries_per_key,
        }
    }

    /// The per-key, per-interval query cap.
    pub fn max_queries_per_key(&self) -> u64 {
        self.max_queries_per_key
    }
}

/// The per-key query budget of one interval under an [`AuditPolicy`],
/// held by an audited
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
    /// `estimate()` as read.
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
        Ok(estimate())
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
    use bas_sketch::{AtomicCountMedian, PointQuerySketch, SketchParams};

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
    fn unaudited_reads_stay_exact_and_unthrottled() {
        let audited = engine(AuditPolicy::new(0));
        assert!(audited.audited_estimate_live(7).is_err()); // kill switch
        for _ in 0..5 {
            assert_eq!(audited.estimate_live(7), 40.0);
            assert_eq!(audited.handle().sketch().estimate(7), 40.0);
        }
    }
}
