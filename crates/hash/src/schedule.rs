//! Bounded-lifetime seed rotation: the [`SeedSchedule`].
//!
//! Every hash family in this crate is fully determined by one `u64`
//! seed — which is exactly what an *adaptive* adversary exploits: once
//! query answers feed back into the stream, the seed can be learned
//! one probe at a time and the (ε, δ) analysis (which assumes the
//! input is independent of the hash functions) stops applying. The
//! ROADMAP's mitigation is to bound every seed's lifetime: a rotating
//! generation ring (`bas_pipeline::WindowedIngest::rotating`, served as
//! `bas_serve::Policy::Rotating`) reseeds the live plane at every
//! interval boundary, so no hash configuration survives longer than
//! the serving window.
//!
//! A [`SeedSchedule`] is the deterministic half of that story: a pure
//! `rotation → seed` derivation from one master seed, with no state to
//! persist and no coordination to run. Two parties that share the
//! master (a distributed site and its coordinator, a test and its
//! reference) derive identical per-rotation seeds forever — the same
//! "common knowledge" property the master seed itself has, extended
//! along the time axis. The derivations are frozen by golden vectors
//! in `tests/hash_golden.rs`: they are wire format, not an
//! implementation detail.

use crate::seed::mix64;

/// Odd salt separating the rotation-derivation domain from every other
/// use of [`mix64`] in the workspace (sketches derive their families
/// from `seed ^ 0xC0DE_000x`; rotations must not collide with that).
const ROTATION_SALT: u64 = 0x5EED_5EED_0B5E_55ED;

/// A deterministic per-rotation seed derivation from one master seed.
///
/// * `seed_for(0)` **is the master seed**: a rotating engine starts
///   bit-for-bit identical to the fixed-seed engine it hardens, so
///   enabling rotation changes nothing until the first boundary.
/// * `seed_for(k)` for `k > 0` is an `O(1)` [`mix64`] chain — no
///   iteration over earlier rotations, so a reader joining at rotation
///   ten million pays the same as one joining at rotation one.
/// * Distinct rotations get distinct derived seeds: the salt is odd,
///   so `k ↦ k·salt` is a bijection of `u64`, and [`mix64`] is a
///   bijection on top of it. (The master itself could in principle
///   collide with some derived seed — a `2⁻⁶⁴`-per-rotation
///   coincidence, not a structural weakness.)
///
/// ```
/// use bas_hash::SeedSchedule;
///
/// let schedule = SeedSchedule::new(42);
/// assert_eq!(schedule.seed_for(0), 42); // rotation 0 = the master
/// assert_ne!(schedule.seed_for(1), schedule.seed_for(2));
/// // Pure derivation: any party with the master agrees.
/// assert_eq!(SeedSchedule::new(42).seed_for(7), schedule.seed_for(7));
/// ```
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSchedule {
    master: u64,
}

impl SeedSchedule {
    /// A schedule rooted at `master`.
    pub fn new(master: u64) -> Self {
        Self { master }
    }

    /// The master seed (`seed_for(0)`).
    pub fn master(&self) -> u64 {
        self.master
    }

    /// The seed for rotation `rotation`. Rotation 0 returns the master
    /// seed unchanged; later rotations are derived by a fixed
    /// [`mix64`] chain (see the type docs for the properties).
    pub fn seed_for(&self, rotation: u64) -> u64 {
        if rotation == 0 {
            self.master
        } else {
            mix64(self.master ^ mix64(rotation.wrapping_mul(ROTATION_SALT)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_zero_is_the_master() {
        for master in [0u64, 1, 42, u64::MAX] {
            assert_eq!(SeedSchedule::new(master).seed_for(0), master);
        }
    }

    #[test]
    fn derivations_are_deterministic_and_distinct() {
        let schedule = SeedSchedule::new(0xFEED);
        let seeds: Vec<u64> = (0..1_000).map(|k| schedule.seed_for(k)).collect();
        // Deterministic: an independent schedule agrees on every seed.
        let again = SeedSchedule::new(0xFEED);
        for (k, &s) in seeds.iter().enumerate() {
            assert_eq!(again.seed_for(k as u64), s);
        }
        // Distinct: no seed repeats across the first thousand rotations.
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len());
    }

    #[test]
    fn different_masters_diverge_immediately() {
        let a = SeedSchedule::new(1);
        let b = SeedSchedule::new(2);
        for k in 1..100u64 {
            assert_ne!(a.seed_for(k), b.seed_for(k), "rotation {k}");
        }
    }

    #[test]
    fn derivation_is_o1_not_a_chain() {
        // Jumping straight to a huge rotation must agree with the same
        // direct computation — there is no hidden iterative state.
        let schedule = SeedSchedule::new(9);
        let far = schedule.seed_for(u64::MAX);
        assert_eq!(schedule.seed_for(u64::MAX), far);
        assert_ne!(far, schedule.seed_for(u64::MAX - 1));
    }
}
