//! Common traits and a runtime-selectable hash family.

use crate::carter_wegman::CarterWegman;
use crate::multiply_shift::MultiplyShift;
use crate::row_deriver::{DerivedRow, RowDeriver};
use crate::seed::SplitMix64;
use crate::tabulation::Tabulation;

/// A hash function mapping items to buckets `[0, num_buckets)`.
///
/// Implementations must be pure: the same item always maps to the same
/// bucket for the lifetime of the value. Sketches rely on this to use one
/// function for both updates and queries.
pub trait BucketHasher {
    /// Maps an item to its bucket.
    fn bucket(&self, item: u64) -> usize;
    /// Number of buckets `s` in the range.
    fn num_buckets(&self) -> usize;
}

/// A hash function mapping items to signs `{−1, +1}`.
pub trait SignHasher {
    /// Maps an item to `+1` or `−1`.
    fn sign(&self, item: u64) -> i8;
}

/// Which concrete family a [`HashFamily`] samples from.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashKind {
    /// Carter–Wegman `((a·x+b) mod p) mod s` — the default; matches the
    /// paper's analysis and supports arbitrary `s`.
    CarterWegman,
    /// Multiply-shift; rounds `s` up to a power of two.
    MultiplyShift,
    /// Simple tabulation hashing.
    Tabulation,
    /// One-hash row derivation: one `mix64` digest per item, all rows
    /// re-keyed from it by independent multiply-shifts (the batch
    /// kernels hoist the digest out of the row loop — see
    /// [`crate::RowDeriver`]). Rounds `s` up to a power of two.
    OneHash,
}

impl HashKind {
    /// The bucket count a family of this kind uses when asked for
    /// `want`: multiply-shift and one-hash derivation round it up to
    /// the next power of two, the other kinds keep it.
    pub fn buckets(self, want: usize) -> usize {
        match self {
            HashKind::MultiplyShift | HashKind::OneHash => MultiplyShift::round_up_buckets(want),
            HashKind::CarterWegman | HashKind::Tabulation => want,
        }
    }
}

/// A runtime-dispatched bucket hash, so sketches can be configured with
/// any of the implemented families (exercised by `ablation_hashing`).
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone)]
pub enum AnyBucketHasher {
    /// Carter–Wegman instance.
    CarterWegman(CarterWegman),
    /// Multiply-shift instance.
    MultiplyShift(MultiplyShift),
    /// Tabulation instance.
    Tabulation(Tabulation),
    /// One-hash derived row (shared digest, per-row re-keying).
    Derived(DerivedRow),
}

impl AnyBucketHasher {
    /// Hashes every `(key, payload)` pair, calling
    /// `f(key, bucket(key), payload)` in slice order.
    ///
    /// Dispatches on the concrete family **once per call** instead of
    /// once per key, so the inner loop is monomorphized against the
    /// family's `bucket` implementation. The sketches' `update_batch`
    /// hot path uses the all-rows sibling [`bucket_rows_each`] (one
    /// pass over the batch); this single-row form is the building
    /// block for per-row sweeps — the right shape when one row of
    /// counters is much larger than cache and must be pinned while a
    /// batch streams through.
    #[inline]
    pub fn bucket_each<T, F>(&self, items: &[(u64, T)], f: F)
    where
        T: Copy,
        F: FnMut(u64, usize, T),
    {
        #[inline]
        fn each<H, T, F>(h: &H, items: &[(u64, T)], mut f: F)
        where
            H: BucketHasher,
            T: Copy,
            F: FnMut(u64, usize, T),
        {
            for &(x, payload) in items {
                f(x, h.bucket(x), payload);
            }
        }
        match self {
            AnyBucketHasher::CarterWegman(h) => each(h, items, f),
            AnyBucketHasher::MultiplyShift(h) => each(h, items, f),
            AnyBucketHasher::Tabulation(h) => each(h, items, f),
            AnyBucketHasher::Derived(h) => each(h, items, f),
        }
    }
}

impl BucketHasher for AnyBucketHasher {
    #[inline]
    fn bucket(&self, item: u64) -> usize {
        match self {
            AnyBucketHasher::CarterWegman(h) => h.bucket(item),
            AnyBucketHasher::MultiplyShift(h) => h.bucket(item),
            AnyBucketHasher::Tabulation(h) => h.bucket(item),
            AnyBucketHasher::Derived(h) => h.bucket(item),
        }
    }

    fn num_buckets(&self) -> usize {
        match self {
            AnyBucketHasher::CarterWegman(h) => h.num_buckets(),
            AnyBucketHasher::MultiplyShift(h) => h.num_buckets(),
            AnyBucketHasher::Tabulation(h) => h.num_buckets(),
            AnyBucketHasher::Derived(h) => h.num_buckets(),
        }
    }
}

/// Hashes every `(key, payload)` pair against every row hasher,
/// item-major: for each item in slice order, `f(row, key, bucket,
/// payload)` is called for rows `0..hashers.len()`.
///
/// All of a sketch's rows are sampled from one [`HashFamily`], so the
/// slice is homogeneous in practice; this function downcasts it to the
/// concrete family **once per batch** and runs a fully monomorphized
/// double loop — no enum dispatch in the hot loop at all. (A mixed
/// slice still works through the generic fallback.)
///
/// This is the primitive under the sketches' `update_batch`
/// specializations. Item-major order is deliberate: the counter grids
/// are small enough to stay cache-resident, so sweeping rows over the
/// batch (re-streaming the batch once per row) measurably *loses* to a
/// single pass — the batch win is the hoisted dispatch, not write
/// locality. For per-row sweeps (e.g. grids much larger than cache)
/// use [`AnyBucketHasher::bucket_each`] instead.
#[inline]
pub fn bucket_rows_each<T, F>(hashers: &[AnyBucketHasher], items: &[(u64, T)], mut f: F)
where
    T: Copy,
    F: FnMut(usize, u64, usize, T),
{
    #[inline]
    fn run<H, T, F>(rows: &[&H], items: &[(u64, T)], f: &mut F)
    where
        H: BucketHasher,
        T: Copy,
        F: FnMut(usize, u64, usize, T),
    {
        for &(x, payload) in items {
            for (row, h) in rows.iter().enumerate() {
                f(row, x, h.bucket(x), payload);
            }
        }
    }

    macro_rules! homogeneous {
        ($variant:ident) => {{
            let mut rows = Vec::with_capacity(hashers.len());
            for h in hashers {
                match h {
                    AnyBucketHasher::$variant(x) => rows.push(x),
                    _ => {
                        rows.clear();
                        break;
                    }
                }
            }
            if rows.len() == hashers.len() {
                run(&rows, items, &mut f);
                return;
            }
        }};
    }

    match hashers.first() {
        None => {}
        Some(AnyBucketHasher::CarterWegman(_)) => homogeneous!(CarterWegman),
        Some(AnyBucketHasher::MultiplyShift(_)) => homogeneous!(MultiplyShift),
        Some(AnyBucketHasher::Tabulation(_)) => homogeneous!(Tabulation),
        Some(AnyBucketHasher::Derived(_)) => {
            // One-hash rows: compute the shared digest once per item
            // and derive every row's bucket from it — the whole point
            // of the family (mixed digest keys fall through).
            if let Some(rd) = RowDeriver::from_hashers(hashers) {
                for &(x, payload) in items {
                    let digest = rd.digest(x);
                    for row in 0..rd.depth() {
                        f(row, x, rd.bucket_of_digest(row, digest), payload);
                    }
                }
                return;
            }
        }
    }
    // Mixed families (never produced by one HashFamily): dispatch per
    // call, exactly like the one-by-one update path.
    for &(x, payload) in items {
        for (row, h) in hashers.iter().enumerate() {
            f(row, x, h.bucket(x), payload);
        }
    }
}

/// A factory that samples i.i.d. hash functions of a chosen family with a
/// fixed bucket count — the "d independent random hash functions
/// h_1, …, h_d" of Theorems 1 and 2.
#[derive(Debug)]
pub struct HashFamily {
    kind: HashKind,
    buckets: usize,
    seeder: SplitMix64,
    /// Family-wide digest key for [`HashKind::OneHash`] rows (drawn
    /// once so every sampled row shares it); zero and never drawn for
    /// the other kinds, keeping their sampling streams — and the frozen
    /// golden vectors built on them — untouched.
    derive_key: u64,
}

impl HashFamily {
    /// Creates a Carter–Wegman family with range `[0, buckets)`.
    pub fn carter_wegman(seeder: &mut SplitMix64, buckets: usize) -> Self {
        Self {
            kind: HashKind::CarterWegman,
            buckets,
            seeder: seeder.split(),
            derive_key: 0,
        }
    }

    /// Creates a family of the given kind, with
    /// [`HashKind::buckets`]`(buckets)` buckets.
    pub fn new(kind: HashKind, seeder: &mut SplitMix64, buckets: usize) -> Self {
        let buckets = kind.buckets(buckets);
        let mut seeder = seeder.split();
        let derive_key = match kind {
            HashKind::OneHash => seeder.next_u64(),
            _ => 0,
        };
        Self {
            kind,
            buckets,
            seeder,
            derive_key,
        }
    }

    /// The (possibly rounded) bucket count functions of this family use.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Samples the next independent function from the family.
    pub fn sample(&mut self) -> AnyBucketHasher {
        match self.kind {
            HashKind::CarterWegman => {
                AnyBucketHasher::CarterWegman(CarterWegman::sample(&mut self.seeder, self.buckets))
            }
            HashKind::MultiplyShift => AnyBucketHasher::MultiplyShift(MultiplyShift::sample(
                &mut self.seeder,
                self.buckets,
            )),
            HashKind::Tabulation => {
                AnyBucketHasher::Tabulation(Tabulation::sample(&mut self.seeder, self.buckets))
            }
            HashKind::OneHash => AnyBucketHasher::Derived(DerivedRow::sample(
                &mut self.seeder,
                self.derive_key,
                self.buckets,
            )),
        }
    }

    /// Samples `d` independent functions at once.
    pub fn sample_many(&mut self, d: usize) -> Vec<AnyBucketHasher> {
        (0..d).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_samples_independent_functions() {
        let mut seeder = SplitMix64::new(1);
        let mut fam = HashFamily::carter_wegman(&mut seeder, 128);
        let hs = fam.sample_many(4);
        assert_eq!(hs.len(), 4);
        // Functions should disagree somewhere.
        let disagreements = (0..1000u64)
            .filter(|&x| hs[0].bucket(x) != hs[1].bucket(x))
            .count();
        assert!(disagreements > 900);
    }

    #[test]
    fn multiply_shift_rounds_buckets() {
        let mut seeder = SplitMix64::new(2);
        let fam = HashFamily::new(HashKind::MultiplyShift, &mut seeder, 100);
        assert_eq!(fam.buckets(), 128);
    }

    #[test]
    fn all_kinds_produce_in_range_functions() {
        let mut seeder = SplitMix64::new(3);
        for kind in [
            HashKind::CarterWegman,
            HashKind::MultiplyShift,
            HashKind::Tabulation,
            HashKind::OneHash,
        ] {
            let mut fam = HashFamily::new(kind, &mut seeder, 64);
            let h = fam.sample();
            for x in 0..500u64 {
                assert!(h.bucket(x) < fam.buckets(), "{kind:?}");
            }
        }
    }

    #[test]
    fn bucket_each_matches_bucket() {
        let mut seeder = SplitMix64::new(4);
        for kind in [
            HashKind::CarterWegman,
            HashKind::MultiplyShift,
            HashKind::Tabulation,
            HashKind::OneHash,
        ] {
            let mut fam = HashFamily::new(kind, &mut seeder, 64);
            let h = fam.sample();
            let items: Vec<(u64, f64)> =
                (0..300u64).map(|x| (x * 17 + 3, x as f64 * 0.5)).collect();
            let mut seen = Vec::new();
            h.bucket_each(&items, |key, b, payload| seen.push((key, b, payload)));
            assert_eq!(seen.len(), items.len(), "{kind:?}");
            for (i, &(key, b, payload)) in seen.iter().enumerate() {
                assert_eq!(key, items[i].0, "{kind:?} key order {i}");
                assert_eq!(b, h.bucket(key), "{kind:?} bucket {i}");
                assert_eq!(payload, items[i].1, "{kind:?} payload {i}");
            }
        }
    }

    #[test]
    fn bucket_rows_each_matches_per_row_buckets() {
        let mut seeder = SplitMix64::new(5);
        for kind in [
            HashKind::CarterWegman,
            HashKind::MultiplyShift,
            HashKind::Tabulation,
            HashKind::OneHash,
        ] {
            let mut fam = HashFamily::new(kind, &mut seeder, 32);
            let hashers = fam.sample_many(4);
            let items: Vec<(u64, f64)> = (0..100u64).map(|x| (x * 3, x as f64)).collect();
            let mut calls = Vec::new();
            super::bucket_rows_each(&hashers, &items, |row, key, b, payload: f64| {
                calls.push((row, key, b, payload));
            });
            assert_eq!(calls.len(), items.len() * 4, "{kind:?}");
            for (c, &(row, key, b, payload)) in calls.iter().enumerate() {
                let (item_idx, expect_row) = (c / 4, c % 4);
                assert_eq!(row, expect_row, "{kind:?} call {c}");
                assert_eq!(key, items[item_idx].0, "{kind:?} call {c}");
                assert_eq!(b, hashers[row].bucket(key), "{kind:?} call {c}");
                assert_eq!(payload, items[item_idx].1, "{kind:?} call {c}");
            }
        }
    }

    #[test]
    fn bucket_rows_each_mixed_families_fallback() {
        let mut seeder = SplitMix64::new(6);
        let mut cw = HashFamily::new(HashKind::CarterWegman, &mut seeder, 16);
        let mut tab = HashFamily::new(HashKind::Tabulation, &mut seeder, 16);
        let hashers = vec![cw.sample(), tab.sample()];
        let items = [(5u64, 1.0f64), (9, 2.0)];
        let mut calls = Vec::new();
        super::bucket_rows_each(&hashers, &items, |row, key, b, _| calls.push((row, key, b)));
        assert_eq!(
            calls,
            vec![
                (0, 5, hashers[0].bucket(5)),
                (1, 5, hashers[1].bucket(5)),
                (0, 9, hashers[0].bucket(9)),
                (1, 9, hashers[1].bucket(9)),
            ]
        );
    }

    #[test]
    fn bucket_rows_each_empty_rows_is_noop() {
        let mut calls = 0;
        super::bucket_rows_each(&[], &[(1u64, 1.0f64)], |_, _, _, _| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn reproducible_from_equal_seeders() {
        let mut s1 = SplitMix64::new(10);
        let mut s2 = SplitMix64::new(10);
        let mut f1 = HashFamily::carter_wegman(&mut s1, 32);
        let mut f2 = HashFamily::carter_wegman(&mut s2, 32);
        let h1 = f1.sample();
        let h2 = f2.sample();
        for x in 0..200u64 {
            assert_eq!(h1.bucket(x), h2.bucket(x));
        }
    }
}
