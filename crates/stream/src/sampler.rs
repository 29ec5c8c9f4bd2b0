//! Streaming view of the sampling matrix `Υ` (paper, Algorithm 1).

use crate::ostree::OrderStatTree;
use bas_hash::SplitMix64;
use std::collections::HashMap;

/// Maintains `S = Υx` under streaming updates and exposes the running
/// median of the sampled coordinates — the `ℓ1` bias estimate `β̂` of
/// Algorithm 2, kept current in `O(log t)` per touched sample as §4.4
/// prescribes ("keep the `Θ(log n)` sampled coordinates sorted … and use
/// their median").
///
/// `Υ` has `t` rows, each with a single 1 at a uniformly random
/// coordinate, sampled *with replacement* (Lemma 3). Rows landing on the
/// same coordinate always hold equal values, so they collapse into one
/// weighted entry in the underlying order-statistic tree.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone)]
pub struct SortedSampler {
    /// coordinate → (multiplicity in Υ, current value).
    slots: HashMap<u64, (u64, f64)>,
    tree: OrderStatTree,
    rows: usize,
}

impl SortedSampler {
    /// Samples a `t`-row matrix `Υ` over universe `[0, n)`.
    ///
    /// # Panics
    /// Panics if `t == 0` or `n == 0`.
    pub fn new(n: u64, t: usize, seed: u64) -> Self {
        assert!(n > 0, "universe must be non-empty");
        assert!(t > 0, "need at least one sample row");
        let mut rng = SplitMix64::new(seed ^ 0x5A3F_11D7);
        let mut slots: HashMap<u64, (u64, f64)> = HashMap::new();
        for _ in 0..t {
            let coord = rng.next_below(n);
            slots.entry(coord).or_insert((0, 0.0)).0 += 1;
        }
        let mut tree = OrderStatTree::new(seed ^ 0x5A3F_11D8);
        for (&coord, &(mult, value)) in &slots {
            tree.insert(value, coord, mult, 0.0, 0.0);
        }
        Self {
            slots,
            tree,
            rows: t,
        }
    }

    /// The paper's default sample count `t = ⌈20·ln n⌉` (Lemma 3 uses
    /// `t = 20 log n` with the Chernoff bound `exp(−t/12) < 1/(2n)`).
    pub fn paper_rows(n: u64) -> usize {
        ((20.0 * (n.max(2) as f64).ln()).ceil() as usize).max(1)
    }

    /// Number of rows `t` of `Υ`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of *distinct* sampled coordinates.
    pub fn distinct_coordinates(&self) -> usize {
        self.slots.len()
    }

    /// Whether the coordinate is sampled by any row (i.e. whether
    /// updates to it affect the sketch `S`).
    pub fn tracks(&self, coordinate: u64) -> bool {
        self.slots.contains_key(&coordinate)
    }

    /// Applies the stream update `x_coordinate ← x_coordinate + delta`.
    /// Cheap no-op for unsampled coordinates.
    pub fn update(&mut self, coordinate: u64, delta: f64) {
        let Some(entry) = self.slots.get_mut(&coordinate) else {
            return;
        };
        let (mult, old) = *entry;
        let new = old + delta;
        entry.1 = new;
        let removed = self.tree.remove(old, coordinate);
        debug_assert!(removed, "tree out of sync with slot map");
        self.tree.insert(new, coordinate, mult, 0.0, 0.0);
    }

    /// The current median of the `t` sample values — the bias `β̂`.
    pub fn median(&self) -> f64 {
        self.tree
            .median_key()
            .expect("sampler always holds at least one row")
    }

    /// Current sample vector `S = Υx` (one entry per row, unsorted
    /// order is by coordinate). Used by the offline recovery tests.
    pub fn sample_values(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows);
        for (&_, &(mult, value)) in &self.slots {
            out.extend(std::iter::repeat(value).take(mult as usize));
        }
        out
    }

    /// Adds another sampler's values into this one. Both samplers must
    /// have been built with the same `(n, t, seed)` so `Υ` is identical;
    /// then `Υx + Υx' = Υ(x + x')` — the linearity the distributed
    /// protocol uses.
    ///
    /// # Errors
    /// Returns an error if the sample matrices differ.
    pub fn merge_from(&mut self, other: &SortedSampler) -> Result<(), &'static str> {
        if self.rows != other.rows || self.slots.len() != other.slots.len() {
            return Err("sample matrices differ (row count mismatch)");
        }
        for (&coord, &(mult, _)) in &other.slots {
            match self.slots.get(&coord) {
                Some(&(m, _)) if m == mult => {}
                _ => return Err("sample matrices differ (coordinate sets mismatch)"),
            }
        }
        for (&coord, &(_, value)) in &other.slots {
            if value != 0.0 {
                self.update(coord, value);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_median_is_zero() {
        let s = SortedSampler::new(1000, 41, 7);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.rows(), 41);
        assert_eq!(s.sample_values().len(), 41);
    }

    #[test]
    fn median_tracks_common_value() {
        // Set every coordinate of the (implicit) vector to 100 by
        // updating each sampled coordinate once.
        let mut s = SortedSampler::new(500, 61, 3);
        let coords: Vec<u64> = (0..500).filter(|&c| s.tracks(c)).collect();
        for c in coords {
            s.update(c, 100.0);
        }
        assert_eq!(s.median(), 100.0);
    }

    #[test]
    fn outlier_updates_barely_move_median() {
        let mut s = SortedSampler::new(100, 81, 11);
        for c in 0..100u64 {
            if s.tracks(c) {
                s.update(c, 50.0);
            }
        }
        // One coordinate explodes; the median must stay at 50 unless that
        // coordinate holds more than half the sample mass (impossible at
        // these sizes with overwhelming probability).
        if s.tracks(3) {
            s.update(3, 1e12);
        }
        assert_eq!(s.median(), 50.0);
    }

    #[test]
    fn unsampled_updates_are_ignored() {
        let mut s = SortedSampler::new(1_000_000, 10, 13);
        // With n = 10^6 and t = 10, coordinate 999_999 is almost surely
        // unsampled; make the test deterministic by finding one.
        let unsampled = (0..1_000_000u64).find(|&c| !s.tracks(c)).unwrap();
        let before = s.median();
        s.update(unsampled, 1e9);
        assert_eq!(s.median(), before);
    }

    #[test]
    fn duplicate_rows_weight_the_median() {
        // Tiny universe forces collisions: t = 64 rows over n = 4.
        let mut s = SortedSampler::new(4, 64, 17);
        assert!(s.distinct_coordinates() <= 4);
        let total_rows: usize = s.sample_values().len();
        assert_eq!(total_rows, 64);
        for c in 0..4u64 {
            if s.tracks(c) {
                s.update(c, (c + 1) as f64 * 10.0);
            }
        }
        // Median is a weighted median over multiplicities; just check it
        // equals one of the set values or their midpoint.
        let m = s.median();
        let valid = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0];
        assert!(valid.contains(&m), "median = {m}");
    }

    #[test]
    fn paper_rows_formula() {
        assert_eq!(
            SortedSampler::paper_rows(2),
            (20.0 * 2f64.ln()).ceil() as usize
        );
        let t = SortedSampler::paper_rows(1_000_000);
        assert!((270..285).contains(&t), "t = {t}");
    }

    #[test]
    fn merge_equals_combined_updates() {
        let mut a = SortedSampler::new(200, 41, 5);
        let mut b = SortedSampler::new(200, 41, 5);
        let mut combined = SortedSampler::new(200, 41, 5);
        for c in 0..200u64 {
            if a.tracks(c) {
                a.update(c, c as f64);
                combined.update(c, c as f64);
                b.update(c, 2.0 * c as f64);
                combined.update(c, 2.0 * c as f64);
            }
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.median(), combined.median());
        let mut av = a.sample_values();
        let mut cv = combined.sample_values();
        av.sort_by(f64::total_cmp);
        cv.sort_by(f64::total_cmp);
        assert_eq!(av, cv);
    }

    #[test]
    fn merge_rejects_different_seed() {
        let mut a = SortedSampler::new(1000, 20, 1);
        let b = SortedSampler::new(1000, 20, 2);
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn incremental_updates_accumulate() {
        let mut s = SortedSampler::new(10, 31, 23);
        let c = (0..10u64).find(|&c| s.tracks(c)).unwrap();
        s.update(c, 5.0);
        s.update(c, 7.0);
        let vals = s.sample_values();
        assert!(vals.iter().any(|&v| (v - 12.0).abs() < 1e-12));
    }
}
