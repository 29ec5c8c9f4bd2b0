//! Vectorized batch kernels for one-hash row derivation.
//!
//! The blocked ingest kernel stages each 256-item block's bucket
//! indices and values in scratch before sweeping the grid row by row.
//! Filling that scratch is three data-parallel maps over the block (the
//! heavy-hitter scan uses only the first, once per block of the
//! universe, and derives each row's bucket from it in registers):
//!
//! 1. `digest_i = mix64(item_i ^ key)` — the shared one-hash digest,
//! 2. `bucket_i = (a·digest_i + b) >> shift` — per-row multiply-shift,
//! 3. `val_i = sign_r(digest_i) · delta_i` — per-row Count-Sketch sign,
//!    computed as a sign-bit XOR (`±1.0 · x` is exactly a sign-bit flip
//!    for every finite or infinite `x`).
//!
//! All three are pure 64-bit integer lane math, so they vectorize with
//! plain AVX2 (4 lanes of `u64`; the missing 64×64 multiply is emulated
//! from `_mm256_mul_epu32` cross products). Every `x86_64` build
//! compiles the AVX2 lanes; each dispatch point takes them when
//! [`simd_active`] holds, that is when the CPU reports AVX2 at run time
//! and [`set_force_scalar`] has not forced the scalar path. Other CPUs
//! and other targets run the scalar fallback below each dispatch point.
//! It performs the *same* wrapping integer operations, so results are
//! bit-for-bit identical: this module's unit tests compare the two
//! paths lane by lane, on the served shape's block and bucket range
//! among others, and the workspace's `kernel_equivalence` suite holds
//! the dispatched kernels and scan to the per-item reference.

#![allow(unsafe_code)]

use core::sync::atomic::{AtomicBool, Ordering};

use crate::seed::mix64;

/// When set, batch kernels take the scalar path even on a CPU with
/// AVX2.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or un-forces) the scalar fallback at runtime.
///
/// The flag is process-wide: it lets tests and benchmarks run both
/// paths in one process, so a test that sets it belongs in a test
/// binary of its own (or must compare only bit-identical results). On
/// a CPU without AVX2, or off `x86_64`, the scalar path is the only one
/// that runs and the flag changes nothing.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Whether the vectorized kernels will actually run: the target is
/// `x86_64`, the CPU reports AVX2 at run time, and scalar mode is not
/// forced.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !FORCE_SCALAR.load(Ordering::Relaxed) && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Fills `out[i] = mix64(items[i] ^ key)` — the family-wide one-hash
/// digest for a whole block.
///
/// # Panics
/// If `items` and `out` differ in length: the AVX2 lanes index both by
/// one count, so the check is a memory-safety condition in every build.
pub(crate) fn mix64_batch(key: u64, items: &[u64], out: &mut [u64]) {
    assert_eq!(items.len(), out.len(), "digest lane lengths");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` detected AVX2 at run time, and the
        // lengths were asserted equal above.
        unsafe { avx2::mix64_batch(key, items, out) };
        return;
    }
    for (o, &x) in out.iter_mut().zip(items) {
        *o = mix64(x ^ key);
    }
}

/// `x >> shift` for a shift in `1..=64`, where 64 leaves 0: the
/// one-bucket row's shift, read as AVX2's `vpsrlq` reads any count past
/// 63.
#[inline]
fn shr(x: u64, shift: u32) -> u64 {
    (x >> 1) >> (shift - 1)
}

/// Fills `out[i] = (a·digests[i] + b) >> shift` (wrapping), the
/// multiply-shift bucket for one derived row. `shift` must be in
/// `1..=64`; at 64 (a one-bucket row) every bucket is 0.
///
/// # Panics
/// If `digests` and `out` differ in length (a memory-safety condition
/// of the AVX2 lanes).
pub(crate) fn multiply_shift_batch(a: u64, b: u64, shift: u32, digests: &[u64], out: &mut [usize]) {
    assert_eq!(digests.len(), out.len(), "bucket lane lengths");
    debug_assert!((1..=64).contains(&shift));
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // usize is 64-bit on x86_64: reinterpret the output slice so the
        // vector store writes bucket indices directly.
        // SAFETY: same length, and u64/usize share size and alignment here.
        let out64 =
            unsafe { core::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u64>(), out.len()) };
        // SAFETY: `simd_active` detected AVX2 at run time, and the
        // lengths were asserted equal above.
        unsafe { avx2::multiply_shift_batch(a, b, shift, digests, out64) };
        return;
    }
    for (o, &d) in out.iter_mut().zip(digests) {
        *o = shr(a.wrapping_mul(d).wrapping_add(b), shift) as usize;
    }
}

/// Fills `out[i] = sign(digests[i]) · deltas[i]` for one derived row,
/// where the sign is the top bit of `sign_a · digest` — computed as a
/// sign-bit XOR, which is bit-identical to multiplying by `±1.0` for
/// every finite or infinite delta.
///
/// # Panics
/// If the three slices differ in length (a memory-safety condition of
/// the AVX2 lanes).
pub(crate) fn signed_delta_batch(sign_a: u64, digests: &[u64], deltas: &[f64], out: &mut [f64]) {
    assert_eq!(digests.len(), deltas.len(), "sign lane lengths");
    assert_eq!(digests.len(), out.len(), "sign lane lengths");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` detected AVX2 at run time, and the
        // lengths were asserted equal above.
        unsafe { avx2::signed_delta_batch(sign_a, digests, deltas, out) };
        return;
    }
    for ((o, &d), &delta) in out.iter_mut().zip(digests).zip(deltas) {
        let sign_bit = sign_a.wrapping_mul(d) & (1u64 << 63);
        *o = f64::from_bits(delta.to_bits() ^ sign_bit);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 lane kernels. Every function here carries
    //! `#[target_feature(enable = "avx2")]` and must only be reached
    //! through the runtime-detected dispatch above.
    //!
    //! # Safety
    //! Each `pub unsafe fn` requires a CPU with AVX2, and every slice
    //! it takes to be as long as the first: the vector loop loads and
    //! stores through raw pointers for `len & !3` lanes.

    use core::arch::x86_64::*;

    use crate::seed::mix64;

    /// Full 64×64→64 wrapping multiply per lane, emulated from the
    /// 32×32→64 `vpmuludq` cross products (AVX2 has no `vpmullq`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul64(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b), _mm256_mul_epu32(a, b_hi));
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// # Safety
    /// The CPU has AVX2, and `out.len() == items.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mix64_batch(key: u64, items: &[u64], out: &mut [u64]) {
        const GOLDEN: i64 = 0x9E37_79B9_7F4A_7C15_u64 as i64;
        const M1: i64 = 0xBF58_476D_1CE4_E5B9_u64 as i64;
        const M2: i64 = 0x94D0_49BB_1331_11EB_u64 as i64;
        let golden = _mm256_set1_epi64x(GOLDEN);
        let m1 = _mm256_set1_epi64x(M1);
        let m2 = _mm256_set1_epi64x(M2);
        let keyv = _mm256_set1_epi64x(key as i64);
        let lanes = items.len() & !3;
        let mut i = 0;
        while i < lanes {
            let x = _mm256_loadu_si256(items.as_ptr().add(i).cast());
            let mut z = _mm256_add_epi64(_mm256_xor_si256(x, keyv), golden);
            z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)), m1);
            z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), m2);
            z = _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z));
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), z);
            i += 4;
        }
        for j in lanes..items.len() {
            out[j] = mix64(items[j] ^ key);
        }
    }

    /// # Safety
    /// The CPU has AVX2, and `out.len() == digests.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn multiply_shift_batch(
        a: u64,
        b: u64,
        shift: u32,
        digests: &[u64],
        out: &mut [u64],
    ) {
        let av = _mm256_set1_epi64x(a as i64);
        let bv = _mm256_set1_epi64x(b as i64);
        let sh = _mm_cvtsi32_si128(shift as i32);
        let lanes = digests.len() & !3;
        let mut i = 0;
        while i < lanes {
            let d = _mm256_loadu_si256(digests.as_ptr().add(i).cast());
            let h = _mm256_srl_epi64(_mm256_add_epi64(mul64(av, d), bv), sh);
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), h);
            i += 4;
        }
        for j in lanes..digests.len() {
            out[j] = super::shr(a.wrapping_mul(digests[j]).wrapping_add(b), shift);
        }
    }

    /// # Safety
    /// The CPU has AVX2, and `deltas` and `out` are as long as
    /// `digests`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn signed_delta_batch(
        sign_a: u64,
        digests: &[u64],
        deltas: &[f64],
        out: &mut [f64],
    ) {
        let sv = _mm256_set1_epi64x(sign_a as i64);
        let sign_mask = _mm256_set1_epi64x(i64::MIN);
        let lanes = digests.len() & !3;
        let mut i = 0;
        while i < lanes {
            let d = _mm256_loadu_si256(digests.as_ptr().add(i).cast());
            let bits = _mm256_and_si256(mul64(sv, d), sign_mask);
            let v = _mm256_loadu_si256(deltas.as_ptr().add(i).cast());
            _mm256_storeu_si256(out.as_mut_ptr().add(i).cast(), _mm256_xor_si256(v, bits));
            i += 4;
        }
        for j in lanes..digests.len() {
            let sign_bit = sign_a.wrapping_mul(digests[j]) & (1u64 << 63);
            out[j] = f64::from_bits(deltas[j].to_bits() ^ sign_bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_digests(n: usize) -> Vec<u64> {
        let mut g = crate::SplitMix64::new(0xD1D1);
        (0..n).map(|_| g.next_u64()).collect()
    }

    #[test]
    fn mix64_batch_matches_scalar_mix() {
        let items: Vec<u64> = (0..261).map(|i| i * i * 2_654_435_761 + 17).collect();
        let mut out = vec![0u64; items.len()];
        mix64_batch(0xC0FFEE, &items, &mut out);
        for (i, &x) in items.iter().enumerate() {
            assert_eq!(out[i], mix64(x ^ 0xC0FFEE), "lane {i}");
        }
    }

    #[test]
    fn multiply_shift_batch_matches_scalar() {
        let digests = sample_digests(259);
        let (a, b, shift) = (0x9E37_79B9_7F4A_7C15 | 1, 0x1234_5678_9ABC_DEF0, 54u32);
        let mut out = vec![0usize; digests.len()];
        multiply_shift_batch(a, b, shift, &digests, &mut out);
        for (i, &d) in digests.iter().enumerate() {
            assert_eq!(
                out[i],
                (a.wrapping_mul(d).wrapping_add(b) >> shift) as usize
            );
        }
    }

    #[test]
    fn signed_delta_batch_matches_sign_multiplication() {
        let digests = sample_digests(258);
        let sign_a = 0xABCD_EF01_2345_6789 | 1;
        let deltas: Vec<f64> = (0..digests.len()).map(|i| (i as f64) - 100.5).collect();
        let mut out = vec![0f64; digests.len()];
        signed_delta_batch(sign_a, &digests, &deltas, &mut out);
        for i in 0..digests.len() {
            let sign = if sign_a.wrapping_mul(digests[i]) >> 63 == 0 {
                1.0
            } else {
                -1.0
            };
            assert_eq!(out[i].to_bits(), (sign * deltas[i]).to_bits(), "lane {i}");
        }
    }

    /// The AVX2 lanes index every slice by one count, so a length
    /// mismatch must panic before any lane runs, in release builds too.
    #[test]
    fn mismatched_lane_lengths_panic() {
        let long = [1u64; 8];
        let calls: [&dyn Fn(); 4] = [
            &|| mix64_batch(7, &long, &mut [0u64; 5]),
            &|| multiply_shift_batch(3, 1, 40, &long, &mut [0usize; 5]),
            &|| signed_delta_batch(5, &long, &[2.0; 5], &mut [0f64; 8]),
            &|| signed_delta_batch(5, &long, &[2.0; 8], &mut [0f64; 5]),
        ];
        for (i, call) in calls.iter().enumerate() {
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).is_err(),
                "call {i} ran with mismatched lengths"
            );
        }
    }

    /// Forced scalar against the dispatched path: 300 items under small
    /// multipliers, the served shape, one 256-item block of a
    /// 4,096-bucket row (shift 52) under sampled 64-bit multipliers, and
    /// a one-bucket row (shift 64, every bucket 0) with a ragged tail.
    #[test]
    fn forced_scalar_is_bit_identical_to_dispatch() {
        let mut g = crate::SplitMix64::new(0x5EED);
        let served = (g.next_u64() | 1, g.next_u64(), g.next_u64() | 1);
        let one_bucket = (g.next_u64() | 1, g.next_u64(), g.next_u64() | 1);
        for (n, shift, (a, b, sign_a)) in [
            (300, 40, (21 | 1, 99, 77 | 1)),
            (256, 52, served),
            (259, 64, one_bucket),
        ] {
            let digests = sample_digests(n);
            let items: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
            let deltas: Vec<f64> = (0..n).map(|i| 0.25 * i as f64 - 31.0).collect();
            let run = || {
                let mut dig = vec![0u64; n];
                let mut buck = vec![0usize; n];
                let mut val = vec![0f64; n];
                mix64_batch(0xFEED, &items, &mut dig);
                multiply_shift_batch(a, b, shift, &digests, &mut buck);
                signed_delta_batch(sign_a, &digests, &deltas, &mut val);
                (
                    dig,
                    buck,
                    val.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                )
            };
            let dispatched = run();
            set_force_scalar(true);
            let scalar = run();
            set_force_scalar(false);
            assert_eq!(dispatched, scalar, "{n} items at shift {shift}");
            if shift == 64 {
                assert!(scalar.1.iter().all(|&bucket| bucket == 0));
            }
        }
    }
}
