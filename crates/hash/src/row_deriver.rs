//! One-hash row derivation: digest each item once, re-key per row.
//!
//! The classical update path evaluates `d` independent hash functions
//! per item — `d` modular reductions over `2^61 − 1` for the default
//! Carter–Wegman family. The one-hash trick replaces that with
//!
//! 1. **one** strong 64-bit digest per item, `g(x) = mix64(x ^ key)`
//!    with a per-family random `key` (so distinct seeds give
//!    independent digest streams), and
//! 2. a Dietzfelbinger multiply-shift **re-keying** per row:
//!    `h_r(x) = (a_r · g(x) + b_r) >> (64 − m)` with independent odd
//!    multipliers `a_r`, plus an independent odd multiplier `s_r`
//!    whose top bit supplies the Count-Sketch sign.
//!
//! Since `mix64` is a bijection, each `h_r` is exactly a multiply-shift
//! function over a permuted key space: pairwise independence (and the
//! second-moment analyses of Theorems 1–2) carry over unchanged. What
//! changes is cost: the `d` field reductions collapse into one mix and
//! `d` integer multiplies — and a batch kernel can hoist the digest out
//! of the row loop entirely, which is what [`RowDeriver`] exists for.
//!
//! [`DerivedRow`] is the per-row hash function (a plain
//! [`BucketHasher`], so every item-at-a-time path works unchanged);
//! [`RowDeriver`] is the batch-side view over a sketch's row slice that
//! exposes the shared digest explicitly.

use crate::family::{AnyBucketHasher, BucketHasher, SignHasher};
use crate::seed::{mix64, SplitMix64};

/// One derived row `h_r(x) = (a·mix64(x ^ key) + b) >> shift`, plus a
/// sign channel from an independent odd multiplier.
///
/// All rows sampled from one [`crate::HashFamily`] share `key` (the
/// digest is computed once per item in batch kernels) while `a`, `b`
/// and `sign_a` are independent per row.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedRow {
    key: u64,
    a: u64,
    b: u64,
    sign_a: u64,
    shift: u32,
    buckets: usize,
}

impl DerivedRow {
    /// Samples one row's re-keying parameters. The `key` is the
    /// family-wide digest key (shared by every row of one sketch).
    ///
    /// # Panics
    /// Panics if `buckets` is zero or not a power of two.
    pub fn sample(seeder: &mut SplitMix64, key: u64, buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "one-hash derivation needs a power-of-two range, got {buckets}"
        );
        let m = buckets.trailing_zeros();
        let a = seeder.next_u64() | 1; // odd multiplier
        let b = seeder.next_u64();
        let sign_a = seeder.next_u64() | 1; // odd sign multiplier
        Self {
            key,
            a,
            b,
            sign_a,
            shift: 64 - m,
            buckets,
        }
    }

    /// The family-wide digest key this row re-keys.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The shared per-item digest `mix64(item ^ key)`.
    #[inline]
    pub fn digest(&self, item: u64) -> u64 {
        mix64(item ^ self.key)
    }

    /// Bucket index from an already-computed digest (the batch-kernel
    /// entry point; [`BucketHasher::bucket`] is `digest` + this).
    ///
    /// Branch-free at every power-of-two width: below 64 the shift
    /// already leaves fewer than `buckets` values, so the mask changes
    /// nothing, and a one-bucket row (shift 64, which `wrapping_shr`
    /// reads as 0) masks to bucket 0.
    #[inline]
    pub fn bucket_of_digest(&self, digest: u64) -> usize {
        multiply_shift(self.a, self.b, self.shift, self.buckets, digest)
    }

    /// Sign (`±1`) from an already-computed digest: the top bit of an
    /// independent odd-multiplier product.
    #[inline]
    pub fn sign_of_digest(&self, digest: u64) -> i8 {
        if (self.sign_a.wrapping_mul(digest)) >> 63 == 0 {
            1
        } else {
            -1
        }
    }
}

/// `(a·digest + b).wrapping_shr(shift) & (buckets − 1)`: one row's
/// bucket, for [`DerivedRow`] and [`RowHead`] alike.
#[inline(always)]
fn multiply_shift(a: u64, b: u64, shift: u32, buckets: usize, digest: u64) -> usize {
    (a.wrapping_mul(digest).wrapping_add(b).wrapping_shr(shift) as usize) & (buckets - 1)
}

impl BucketHasher for DerivedRow {
    #[inline]
    fn bucket(&self, item: u64) -> usize {
        self.bucket_of_digest(self.digest(item))
    }

    fn num_buckets(&self) -> usize {
        self.buckets
    }
}

impl SignHasher for DerivedRow {
    #[inline]
    fn sign(&self, item: u64) -> i8 {
        self.sign_of_digest(self.digest(item))
    }
}

/// Batch-side view over a sketch's row hashers when they are all
/// [`DerivedRow`]s sharing one digest key: computes the digest **once**
/// per item and derives every row's bucket (and sign) from it.
///
/// Built per batch via [`RowDeriver::from_hashers`]; returns `None` for
/// any other family, so callers fall back to the generic path:
///
/// ```
/// use bas_hash::{HashFamily, HashKind, RowDeriver, SplitMix64, BucketHasher};
///
/// let mut seeder = SplitMix64::new(7);
/// let mut fam = HashFamily::new(HashKind::OneHash, &mut seeder, 1024);
/// let rows = fam.sample_many(4);
/// let rd = RowDeriver::from_hashers(&rows).expect("homogeneous derived rows");
/// let digest = rd.digest(12345);
/// for r in 0..rd.depth() {
///     assert_eq!(rd.bucket_of_digest(r, digest), rows[r].bucket(12345));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RowDeriver {
    key: u64,
    rows: Vec<DerivedRow>,
}

impl RowDeriver {
    /// Builds the deriver if (and only if) every hasher in the slice is
    /// a [`DerivedRow`] with the same digest key and bucket count, as
    /// every row sampled from one [`crate::HashFamily`] is.
    pub fn from_hashers(hashers: &[AnyBucketHasher]) -> Option<Self> {
        let first = match hashers.first()? {
            AnyBucketHasher::Derived(r) => r,
            _ => return None,
        };
        let mut rows = Vec::with_capacity(hashers.len());
        for h in hashers {
            match h {
                AnyBucketHasher::Derived(r) if (r.key, r.buckets) == (first.key, first.buckets) => {
                    rows.push(*r)
                }
                _ => return None,
            }
        }
        Some(Self {
            key: first.key,
            rows,
        })
    }

    /// Number of rows `d`.
    #[inline]
    pub fn depth(&self) -> usize {
        self.rows.len()
    }

    /// Rows `0..K` with their multipliers copied out, for a per-item
    /// loop that derives all `K` buckets of a digest in registers.
    ///
    /// # Panics
    /// If `K` is zero or more than [`RowDeriver::depth`].
    pub fn head<const K: usize>(&self) -> RowHead<K> {
        assert!(K > 0 && K <= self.rows.len(), "head of {K} rows");
        RowHead {
            a: std::array::from_fn(|r| self.rows[r].a),
            b: std::array::from_fn(|r| self.rows[r].b),
            shift: self.rows[0].shift,
            buckets: self.rows[0].buckets,
        }
    }

    /// The shared per-item digest.
    #[inline]
    pub fn digest(&self, item: u64) -> u64 {
        mix64(item ^ self.key)
    }

    /// Row `row`'s bucket for a precomputed digest.
    #[inline]
    pub fn bucket_of_digest(&self, row: usize, digest: u64) -> usize {
        self.rows[row].bucket_of_digest(digest)
    }

    /// Row `row`'s sign for a precomputed digest.
    #[inline]
    pub fn sign_of_digest(&self, row: usize, digest: u64) -> i8 {
        self.rows[row].sign_of_digest(digest)
    }

    /// Fills `out[i] = mix64(items[i] ^ key)` for a whole block — the
    /// SIMD entry point of the blocked ingest kernel. Dispatches to the
    /// vectorized path when [`crate::simd_active`] and is bit-for-bit
    /// identical to calling [`RowDeriver::digest`] per item either way.
    ///
    /// # Panics
    /// If `items` and `out` differ in length.
    pub fn digests_into(&self, items: &[u64], out: &mut [u64]) {
        crate::simd::mix64_batch(self.key, items, out);
    }

    /// Fills `out[i]` with row `row`'s bucket for each precomputed
    /// digest (the block-wide form of [`RowDeriver::bucket_of_digest`]).
    ///
    /// # Panics
    /// If `digests` and `out` differ in length.
    pub fn buckets_of_digests(&self, row: usize, digests: &[u64], out: &mut [usize]) {
        let r = &self.rows[row];
        crate::simd::multiply_shift_batch(r.a, r.b, r.shift, digests, out);
    }

    /// Fills `out[i] = sign_row(digests[i]) · deltas[i]` — the
    /// Count-Sketch signed value for each item of a block, computed as
    /// a sign-bit XOR (bit-identical to multiplying by `±1.0` for every
    /// finite or infinite delta).
    ///
    /// # Panics
    /// If `digests`, `deltas` and `out` differ in length.
    pub fn signed_deltas_of_digests(
        &self,
        row: usize,
        digests: &[u64],
        deltas: &[f64],
        out: &mut [f64],
    ) {
        crate::simd::signed_delta_batch(self.rows[row].sign_a, digests, deltas, out);
    }
}

/// The first `K` rows of a [`RowDeriver`] (from [`RowDeriver::head`]):
/// their multipliers and the family's one shift, held by value so that
/// a loop over many digests keeps them in registers.
#[derive(Debug, Clone, Copy)]
pub struct RowHead<const K: usize> {
    a: [u64; K],
    b: [u64; K],
    shift: u32,
    buckets: usize,
}

impl<const K: usize> RowHead<K> {
    /// Rows `0..K`'s buckets for a precomputed digest, equal to
    /// [`RowDeriver::bucket_of_digest`] row by row.
    #[inline]
    pub fn buckets(&self, digest: u64) -> [usize; K] {
        std::array::from_fn(|r| {
            multiply_shift(self.a[r], self.b[r], self.shift, self.buckets, digest)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{HashFamily, HashKind};

    #[test]
    fn derived_row_range_is_respected() {
        let mut seeder = SplitMix64::new(21);
        for m in [0u32, 1, 4, 10, 16] {
            let buckets = 1usize << m;
            let r = DerivedRow::sample(&mut seeder, 0xFEED, buckets);
            for x in 0..2000u64 {
                assert!(r.bucket(x) < buckets, "m = {m}");
            }
            assert_eq!(r.num_buckets(), buckets);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_panics() {
        DerivedRow::sample(&mut SplitMix64::new(0), 0, 100);
    }

    #[test]
    fn rows_from_one_family_share_the_digest_key() {
        let mut seeder = SplitMix64::new(3);
        let mut fam = HashFamily::new(HashKind::OneHash, &mut seeder, 256);
        let rows = fam.sample_many(5);
        let rd = RowDeriver::from_hashers(&rows).expect("homogeneous");
        assert_eq!(rd.depth(), 5);
        for x in [0u64, 1, 42, 1_000_003, u64::MAX] {
            let digest = rd.digest(x);
            for (row, h) in rows.iter().enumerate() {
                assert_eq!(rd.bucket_of_digest(row, digest), h.bucket(x));
            }
        }
    }

    #[test]
    fn rows_are_mutually_independent_in_practice() {
        // Distinct rows must disagree on most items (independent a/b).
        let mut seeder = SplitMix64::new(9);
        let mut fam = HashFamily::new(HashKind::OneHash, &mut seeder, 128);
        let rows = fam.sample_many(2);
        let disagreements = (0..1000u64)
            .filter(|&x| rows[0].bucket(x) != rows[1].bucket(x))
            .count();
        assert!(disagreements > 900, "{disagreements}");
    }

    #[test]
    fn from_hashers_rejects_other_families_and_mixed_keys() {
        let mut seeder = SplitMix64::new(4);
        let mut cw = HashFamily::new(HashKind::CarterWegman, &mut seeder, 64);
        assert!(RowDeriver::from_hashers(&cw.sample_many(3)).is_none());
        assert!(RowDeriver::from_hashers(&[]).is_none());

        let a = AnyBucketHasher::Derived(DerivedRow::sample(&mut seeder, 1, 64));
        let b = AnyBucketHasher::Derived(DerivedRow::sample(&mut seeder, 2, 64));
        assert!(RowDeriver::from_hashers(&[a, b]).is_none());

        // One key, two widths: the rows share no shift.
        let wide = AnyBucketHasher::Derived(DerivedRow::sample(&mut seeder, 1, 64));
        let narrow = AnyBucketHasher::Derived(DerivedRow::sample(&mut seeder, 1, 32));
        assert!(RowDeriver::from_hashers(&[wide, narrow]).is_none());
    }

    #[test]
    fn head_buckets_match_each_row_at_every_width() {
        let mut seeder = SplitMix64::new(12);
        for buckets in [1usize, 2, 4_096, 1 << 40] {
            let mut fam = HashFamily::new(HashKind::OneHash, &mut seeder, buckets);
            let rd = RowDeriver::from_hashers(&fam.sample_many(9)).unwrap();
            let head = rd.head::<5>();
            for x in (0..3_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                let digest = rd.digest(x);
                let want: Vec<usize> = (0..5).map(|r| rd.bucket_of_digest(r, digest)).collect();
                assert_eq!(head.buckets(digest).to_vec(), want, "{buckets} buckets");
            }
        }
    }

    #[test]
    #[should_panic(expected = "head of 3 rows")]
    fn a_head_longer_than_the_deriver_panics() {
        let mut seeder = SplitMix64::new(13);
        let mut fam = HashFamily::new(HashKind::OneHash, &mut seeder, 64);
        RowDeriver::from_hashers(&fam.sample_many(2))
            .unwrap()
            .head::<3>();
    }

    #[test]
    fn signs_are_balanced_and_match_digest_path() {
        let mut seeder = SplitMix64::new(33);
        let r = DerivedRow::sample(&mut seeder, 0xABCD, 2);
        let n = 20_000u64;
        let pos = (0..n).filter(|&x| r.sign(x) == 1).count() as f64;
        let frac = pos / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "positive fraction = {frac}");
        for x in 0..100u64 {
            assert_eq!(r.sign(x), r.sign_of_digest(r.digest(x)));
        }
    }

    #[test]
    fn block_helpers_match_per_item_path() {
        let mut seeder = SplitMix64::new(11);
        let mut fam = HashFamily::new(HashKind::OneHash, &mut seeder, 256);
        let rows = fam.sample_many(4);
        let rd = RowDeriver::from_hashers(&rows).unwrap();
        let items: Vec<u64> = (0..301u64)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .collect();
        let deltas: Vec<f64> = (0..301).map(|i| (i as f64) * 0.5 - 40.0).collect();

        let mut digests = vec![0u64; items.len()];
        rd.digests_into(&items, &mut digests);
        let mut buckets = vec![0usize; items.len()];
        let mut vals = vec![0f64; items.len()];
        for row in 0..rd.depth() {
            rd.buckets_of_digests(row, &digests, &mut buckets);
            rd.signed_deltas_of_digests(row, &digests, &deltas, &mut vals);
            for (i, &x) in items.iter().enumerate() {
                assert_eq!(digests[i], rd.digest(x));
                assert_eq!(buckets[i], rd.bucket_of_digest(row, digests[i]));
                let want = rd.sign_of_digest(row, digests[i]) as f64 * deltas[i];
                assert_eq!(vals[i].to_bits(), want.to_bits(), "row {row} item {i}");
            }
        }
    }

    #[test]
    fn block_helpers_single_bucket_row_is_zero() {
        let mut seeder = SplitMix64::new(2);
        let row = DerivedRow::sample(&mut seeder, 0xAA, 1);
        let rd = RowDeriver::from_hashers(&[AnyBucketHasher::Derived(row)]).unwrap();
        let digests = [1u64, 2, u64::MAX];
        let mut out = [7usize; 3];
        rd.buckets_of_digests(0, &digests, &mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut seeder = SplitMix64::new(77);
            let mut fam = HashFamily::new(HashKind::OneHash, &mut seeder, 1024);
            fam.sample_many(4)
        };
        let (r1, r2) = (mk(), mk());
        for x in 0..512u64 {
            for row in 0..4 {
                assert_eq!(r1[row].bucket(x), r2[row].bucket(x));
            }
        }
    }
}
