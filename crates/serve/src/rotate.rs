//! A compatibility shim kept only for the serving benchmark.
//!
//! `servebench/` builds its rotating rung through this type's API.
//! Everything else serves seed rotation through
//! [`QueryEngine`](crate::QueryEngine) with
//! [`Policy::Rotating`](crate::Policy::Rotating); the shim goes with
//! the next change to the benchmark.

use crate::error::QueryError;
use crate::policy::{Policy, Sliding};
use crate::QueryEngine;
use bas_hash::SeedSchedule;
use bas_sketch::{Reseedable, SharedSketch, Snapshottable};

/// A [`QueryEngine`] under [`Policy::Rotating`], behind the
/// constructor and method names `servebench/` calls. Only the
/// benchmark calls it.
#[derive(Debug)]
pub struct RotatingEngine<S: SharedSketch + Snapshottable + Reseedable + Send>(QueryEngine<S>);

impl<S: SharedSketch + Snapshottable + Reseedable + Send> RotatingEngine<S> {
    /// A rotating engine over a sliding window of `window_len`
    /// intervals whose generation `g` runs under
    /// `schedule.seed_for(g)`: the sketch is reseeded to the schedule's
    /// master, which a [`Policy::Rotating`] engine then uses as its
    /// schedule.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidWindowLen`] if `window_len` is 0.
    ///
    /// # Panics
    /// Panics unless `workers` is 1.
    pub fn new(
        workers: usize,
        sketch: S,
        schedule: SeedSchedule,
        window_len: usize,
    ) -> Result<Self, QueryError> {
        let policy = Policy::Rotating(Sliding::new(window_len)?);
        let sketch = sketch.reseeded(schedule.master());
        Ok(Self(QueryEngine::with_policy(workers, sketch, policy)))
    }

    /// See [`QueryEngine::with_flush_threshold`].
    pub fn with_flush_threshold(self, updates: usize) -> Self {
        Self(self.0.with_flush_threshold(updates))
    }

    /// See [`QueryEngine::extend_from_slice`].
    pub fn extend_from_slice(&mut self, updates: &[(u64, f64)]) {
        self.0.extend_from_slice(updates);
    }

    /// See [`QueryEngine::advance_interval`].
    pub fn advance_interval(&mut self) -> u64 {
        self.0.advance_interval()
    }

    /// See [`QueryEngine::audited_point_in_window`].
    ///
    /// # Errors
    /// Returns [`QueryError::AuditRejected`] once `item`'s budget is
    /// used up.
    pub fn audited_window_estimate(&self, item: u64) -> Result<f64, QueryError> {
        self.0.audited_point_in_window(item)
    }
}
