//! Serving policies: how much history a [`QueryEngine`] answers over.
//!
//! A policy is a value, a [`Policy`], chosen at construction:
//!
//! * [`Unbounded`] — the since-boot accumulator. No plane is ever
//!   sealed, so rotation is a flush plus bookkeeping.
//! * [`Tumbling`]`(K)` — time is partitioned into fixed buckets of `K`
//!   intervals; queries cover the current bucket only, and the answer
//!   resets at every bucket boundary (the classic "per-5-minute
//!   report" shape).
//! * [`Sliding`]`(K)` — queries always cover the last `K` intervals,
//!   including the one in progress (the "last 5 minutes, right now"
//!   shape).
//! * [`Policy::Rotating`]`(K)` — the same sliding window, but every
//!   interval runs under its own hasher seed: the defence against
//!   adaptive inputs.
//!
//! The fixed-seed policies answer a window query by **plane
//! arithmetic**, not by keeping per-window counters: the engine's bank
//! holds sealed *cumulative* planes, and the window ending in the
//! in-progress interval `t` is `cumulative(now) − sealed(boundary)`,
//! one subtractive merge. Under rotation every interval is its own
//! generation, and the window sums the estimates of the generations
//! after the boundary. The policy's entire job is to name that boundary
//! and what the engine's ring keeps so the boundary stays reachable:
//! `K` seals for the fixed-seed windows, `K − 1` closed generations
//! under rotation, nothing for [`Unbounded`]. Without a boundary the
//! window reaches back to boot: that is a windowed policy's warm-up,
//! and always so under [`Unbounded`].
//!
//! [`QueryEngine`]: crate::QueryEngine

use crate::error::QueryError;
use bas_hash::SeedSchedule;
use bas_pipeline::WindowedIngest;
use bas_sketch::{Reseedable, SharedSketch, Snapshottable};

/// Since-boot serving: no window boundary, ever.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unbounded;

/// Tumbling windows of `K` intervals: queries cover the current
/// `K`-interval bucket and reset at bucket boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tumbling {
    len: usize,
}

impl Tumbling {
    /// A tumbling policy over buckets of `len` intervals.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidWindowLen`] if `len` is zero.
    pub fn new(len: usize) -> Result<Self, QueryError> {
        QueryError::check_window_len(len)?;
        Ok(Self { len })
    }
}

/// Sliding windows of `K` intervals: queries always cover the last
/// `K` intervals, including the one in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sliding {
    len: usize,
}

impl Sliding {
    /// A sliding policy over the last `len` intervals.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidWindowLen`] if `len` is zero.
    pub fn new(len: usize) -> Result<Self, QueryError> {
        QueryError::check_window_len(len)?;
        Ok(Self { len })
    }
}

/// How a [`QueryEngine`](crate::QueryEngine) scopes its window answers
/// in time: one of the three policies above, as a value (build it from
/// any of them with `into()`), or a rotating sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// See [`Unbounded`].
    Unbounded,
    /// See [`Tumbling`].
    Tumbling(Tumbling),
    /// See [`Sliding`].
    Sliding(Sliding),
    /// A [`Sliding`] window whose every interval, a *generation*, runs
    /// under its own hasher seed: generation `g` under
    /// `SeedSchedule::new(seed).seed_for(g)`, `seed` being the engine
    /// sketch's own. Answers sum the generations' estimates, so a
    /// `K`-interval window pays up to `K` Theorem-1 error terms where
    /// the fixed-seed window pays one; in exchange no seed outlives the
    /// window, which is what keeps an adaptive adversary's learned
    /// collisions from lasting (`tests/adversarial.rs`).
    Rotating(Sliding),
}

impl From<Unbounded> for Policy {
    fn from(_: Unbounded) -> Self {
        Policy::Unbounded
    }
}

impl From<Tumbling> for Policy {
    fn from(p: Tumbling) -> Self {
        Policy::Tumbling(p)
    }
}

impl From<Sliding> for Policy {
    fn from(p: Sliding) -> Self {
        Policy::Sliding(p)
    }
}

impl Policy {
    /// Sealed cumulative planes the engine's bank must retain: `K` for
    /// a fixed-seed window of `K` intervals, 0 for [`Unbounded`] and
    /// [`Policy::Rotating`] (nothing sealed).
    pub(crate) fn bank_capacity(&self) -> usize {
        match self {
            Policy::Unbounded | Policy::Rotating(_) => 0,
            Policy::Tumbling(Tumbling { len }) | Policy::Sliding(Sliding { len }) => *len,
        }
    }

    /// The generation ring this policy serves from: one that seals
    /// [`bank_capacity`](Self::bank_capacity) planes, or under
    /// [`Policy::Rotating`]`(K)` one that closes a generation at every
    /// advance and keeps `K − 1`, seeded from `sketch`'s own seed.
    pub(crate) fn ring<S>(&self, sketch: S) -> WindowedIngest<S>
    where
        S: SharedSketch + Snapshottable + Reseedable + Send,
    {
        match self {
            Policy::Rotating(Sliding { len }) => {
                let schedule = SeedSchedule::new(sketch.config().seed);
                WindowedIngest::rotating(sketch, schedule, len - 1)
            }
            _ => WindowedIngest::new(sketch, self.bank_capacity()),
        }
    }

    /// The sealed interval whose cumulative plane is the window's
    /// start boundary when interval `current` is in progress: the
    /// window covers intervals `boundary + 1 ..= current`. `None`
    /// when the window reaches back to boot (nothing to subtract):
    /// during a windowed policy's warm-up, and always under
    /// [`Unbounded`].
    ///
    /// * Tumbling: the bucket containing `current` starts at
    ///   `current − current % K`; the boundary is the interval just
    ///   before it, at most `K` seals back.
    /// * Sliding and Rotating: the window covers
    ///   `current − K + 1 ..= current`, so the boundary is interval
    ///   `current − K`, exactly `K` seals back.
    ///
    /// Either way a bank of `K` seals retains the boundary, and `K − 1`
    /// closed generations cover every interval after it.
    pub(crate) fn window_boundary(&self, current: u64) -> Option<u64> {
        match self {
            Policy::Unbounded => None,
            Policy::Tumbling(Tumbling { len }) => {
                let bucket_start = current - current % *len as u64;
                bucket_start.checked_sub(1)
            }
            Policy::Sliding(Sliding { len }) | Policy::Rotating(Sliding { len }) => {
                current.checked_sub(*len as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(p: Policy, current: u64) -> u64 {
        p.window_boundary(current).map_or(0, |b| b + 1)
    }

    #[test]
    fn unbounded_needs_no_bank() {
        let p = Policy::from(Unbounded);
        assert_eq!(p.bank_capacity(), 0);
        for current in [0, 1, 7, u64::MAX] {
            assert_eq!(p.window_boundary(current), None);
        }
    }

    #[test]
    fn zero_length_windows_rejected() {
        assert_eq!(
            Tumbling::new(0).unwrap_err(),
            QueryError::InvalidWindowLen { len: 0 }
        );
        assert!(Sliding::new(0).is_err());
    }

    #[test]
    fn sliding_boundary_trails_by_exactly_k() {
        let p = Policy::from(Sliding::new(3).unwrap());
        assert_eq!(p.window_boundary(0), None);
        assert_eq!(p.window_boundary(2), None);
        assert_eq!(p.window_boundary(3), Some(0));
        assert_eq!(p.window_boundary(10), Some(7));
        assert_eq!(start(p, 10), 8);
        assert_eq!(start(p, 1), 0); // warm-up: back to boot
        assert_eq!(p.bank_capacity(), 3);
    }

    #[test]
    fn tumbling_boundary_resets_per_bucket() {
        let p = Policy::from(Tumbling::new(4).unwrap());
        // First bucket (intervals 0..=3): no boundary yet.
        for t in 0..4 {
            assert_eq!(p.window_boundary(t), None, "t = {t}");
            assert_eq!(start(p, t), 0);
        }
        // Second bucket (4..=7): boundary is seal 3 throughout.
        for t in 4..8 {
            assert_eq!(p.window_boundary(t), Some(3), "t = {t}");
            assert_eq!(start(p, t), 4);
        }
        assert_eq!(p.window_boundary(8), Some(7));
        assert_eq!(p.bank_capacity(), 4);
    }

    #[test]
    fn boundaries_stay_within_bank_retention() {
        // The invariant pin_window relies on: boundary ≥ current − K.
        for k in 1..6usize {
            let t_policy = Policy::from(Tumbling::new(k).unwrap());
            let s_policy = Policy::from(Sliding::new(k).unwrap());
            let r_policy = Policy::Rotating(Sliding::new(k).unwrap());
            assert_eq!(r_policy.bank_capacity(), 0);
            for current in 0..40u64 {
                assert_eq!(
                    r_policy.window_boundary(current),
                    s_policy.window_boundary(current)
                );
                for boundary in [
                    t_policy.window_boundary(current),
                    s_policy.window_boundary(current),
                ]
                .into_iter()
                .flatten()
                {
                    assert!(boundary < current);
                    assert!(current - boundary <= k as u64, "k {k}, t {current}");
                }
            }
        }
    }
}
