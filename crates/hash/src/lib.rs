//! # bas-hash — hashing substrate for bias-aware sketches
//!
//! Every sketch in this workspace needs families of cheap, seedable hash
//! functions with provable independence guarantees. The analysis in
//! *Bias-Aware Sketches* (Chen & Zhang, VLDB 2017) — like the analyses of
//! Count-Median and Count-Sketch it builds on — only uses second moments,
//! so **2-universal (pairwise independent)** families suffice (paper,
//! §4.2.1 and §4.4). This crate implements those families from scratch:
//!
//! * [`CarterWegman`] — the classic `((a·x + b) mod p) mod s` family over
//!   the Mersenne prime `p = 2^61 − 1`, for arbitrary bucket counts `s`.
//! * [`PolynomialHash`] — degree-`(t−1)` polynomials over the same prime,
//!   giving `t`-wise independence when more than pairwise is wanted.
//! * [`MultiplyShift`] — Dietzfelbinger's multiply-shift scheme for
//!   power-of-two ranges; the fastest option when `s = 2^m`.
//! * [`Tabulation`] — simple tabulation hashing, 3-wise independent with
//!   strong practical behaviour (Pătraşcu–Thorup).
//! * [`SignHash`] — pairwise-independent `{−1, +1}` signs for
//!   Count-Sketch-style cancellation.
//!
//! Seeding is deterministic and splittable via [`SplitMix64`], so an
//! entire sketch (and its distributed replicas) can be reconstructed from
//! one `u64` master seed — the paper's "common knowledge" hash functions
//! shared between the sketching and recovery phases.
//!
//! ```
//! use bas_hash::{BucketHasher, HashFamily, SplitMix64};
//!
//! let mut seeder = SplitMix64::new(42);
//! let mut family = HashFamily::carter_wegman(&mut seeder, /* buckets = */ 1024);
//! let h = family.sample();
//! assert!(h.bucket(12345) < 1024);
//! ```

// The `simd` module's AVX2 lanes call `core::arch` intrinsics, which are
// `unsafe`; it alone allows unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod carter_wegman;
mod family;
mod multiply_shift;
mod prime;
mod row_deriver;
mod schedule;
mod seed;
mod sign;
pub mod simd;
mod tabulation;

pub use carter_wegman::{CarterWegman, PolynomialHash};
pub use family::{
    bucket_rows_each, AnyBucketHasher, BucketHasher, HashFamily, HashKind, SignHasher,
};
pub use multiply_shift::MultiplyShift;
pub use prime::{add_mod_p61, mul_mod_p61, reduce_p61, P61};
pub use row_deriver::{DerivedRow, RowDeriver, RowHead};
pub use schedule::SeedSchedule;
pub use seed::{mix64, SplitMix64};
pub use sign::SignHash;
pub use simd::{set_force_scalar, simd_active};
pub use tabulation::Tabulation;
