//! Small helpers shared by the sketches: medians over rows, and the
//! block-derive closures the grid sketches hand to the blocked/shared
//! batch kernels.
//!
//! (Counter storage lives in [`crate::storage`]; this module keeps the
//! pure numeric routines and the kernel glue.)

use bas_hash::{AnyBucketHasher, BucketHasher, RowDeriver};

/// Builds a block-derive closure for the blocked batch kernels
/// ([`crate::CounterMatrix::apply_rows_blocked`] /
/// [`crate::CounterMatrix::apply_rows_blocked_shared`]) over **one-hash** rows,
/// broadcasting each item's delta to every row (the unsigned sketches:
/// Count-Median, plain Count-Min).
///
/// Kernel contract: for a block of `n` items the closure fills
/// `cols[row·n + i]` / `vals[row·n + i]`, deriving through the
/// SIMD-dispatched batch helpers of [`RowDeriver`] — one `mix64`
/// digest per item, one multiply-shift lane sweep per row.
pub(crate) fn onehash_block_derive(
    rd: &RowDeriver,
    depth: usize,
) -> impl FnMut(&[(u64, f64)], &mut [usize], &mut [f64]) + '_ {
    let mut keys: Vec<u64> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    move |block, cols, vals| {
        let n = block.len();
        keys.clear();
        keys.extend(block.iter().map(|&(x, _)| x));
        digests.resize(n, 0);
        rd.digests_into(&keys, &mut digests);
        for row in 0..depth {
            rd.buckets_of_digests(row, &digests, &mut cols[row * n..(row + 1) * n]);
        }
        for (slot, &(_, delta)) in vals[..n].iter_mut().zip(block) {
            *slot = delta;
        }
        let (first, rest) = vals.split_at_mut(n);
        for lane in rest.chunks_exact_mut(n) {
            lane.copy_from_slice(first);
        }
    }
}

/// One-hash block-derive with **signs**: the Count-Sketch variant of
/// [`onehash_block_derive`], filling `vals[row·n + i]` with
/// `σ_row(x_i)·δ_i` through the sign-bit XOR lane
/// ([`RowDeriver::signed_deltas_of_digests`]).
pub(crate) fn onehash_signed_block_derive(
    rd: &RowDeriver,
    depth: usize,
) -> impl FnMut(&[(u64, f64)], &mut [usize], &mut [f64]) + '_ {
    let mut keys: Vec<u64> = Vec::new();
    let mut deltas: Vec<f64> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    move |block, cols, vals| {
        let n = block.len();
        keys.clear();
        deltas.clear();
        for &(x, d) in block {
            keys.push(x);
            deltas.push(d);
        }
        digests.resize(n, 0);
        rd.digests_into(&keys, &mut digests);
        for row in 0..depth {
            rd.buckets_of_digests(row, &digests, &mut cols[row * n..(row + 1) * n]);
            rd.signed_deltas_of_digests(row, &digests, &deltas, &mut vals[row * n..(row + 1) * n]);
        }
    }
}

/// Block-derive over arbitrary row hashers (the classical families,
/// which have no shared digest): per-item dynamic dispatch fills the
/// row-major scratch so even non-one-hash sketches ride the blocked
/// kernels.
pub(crate) fn hashed_block_derive(
    hashers: &[AnyBucketHasher],
) -> impl FnMut(&[(u64, f64)], &mut [usize], &mut [f64]) + '_ {
    move |block, cols, vals| {
        let n = block.len();
        for (i, &(x, delta)) in block.iter().enumerate() {
            for (row, h) in hashers.iter().enumerate() {
                cols[row * n + i] = h.bucket(x);
                vals[row * n + i] = delta;
            }
        }
    }
}

/// Returns the median of a slice, averaging the two central elements for
/// even lengths — the `median(x)` of the paper's notation table.
///
/// The slice is reordered in place (selection, not full sort), so the
/// caller passes a scratch buffer it owns.
///
/// # Panics
/// Panics on an empty slice.
pub fn median_in_place(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let n = values.len();
    let mid = n / 2;
    let (_, m, _) = values.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    let upper = *m;
    if n % 2 == 1 {
        upper
    } else {
        // Lower middle = max of the left partition after selection.
        let lower = values[..mid]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        0.5 * (lower + upper)
    }
}

/// Median of a borrowed slice, copying into a scratch `Vec`.
pub fn median(values: &[f64]) -> f64 {
    let mut buf = values.to_vec();
    median_in_place(&mut buf)
}

/// Depths at or below this bound keep the scratch buffer of
/// [`median_of_rows`] on the stack. Every practical configuration
/// qualifies — the paper's experiments use `d ≤ 10`.
pub const MEDIAN_SCRATCH_DEPTH: usize = 64;

/// Computes `median_{row < depth} value_of_row(row)` — the recovery
/// step shared by every median-recovery estimate path — **without a
/// per-query heap allocation** for `depth ≤ `[`MEDIAN_SCRATCH_DEPTH`].
///
/// Rows are evaluated in order (`0, 1, …, depth-1`), so replacing a
/// collect-into-`Vec` loop with this helper is bit-for-bit neutral; it
/// only moves the scratch buffer from the heap to the stack.
///
/// # Panics
/// Panics if `depth` is zero.
///
/// ```
/// use bas_sketch::util::median_of_rows;
///
/// let rows = [5.0, 1.0, 3.0];
/// assert_eq!(median_of_rows(rows.len(), |r| rows[r]), 3.0);
/// ```
#[inline]
pub fn median_of_rows<F: FnMut(usize) -> f64>(depth: usize, mut value_of_row: F) -> f64 {
    assert!(depth > 0, "median of empty slice");
    if depth <= MEDIAN_SCRATCH_DEPTH {
        let mut scratch = [0.0f64; MEDIAN_SCRATCH_DEPTH];
        for (row, slot) in scratch[..depth].iter_mut().enumerate() {
            *slot = value_of_row(row);
        }
        median_in_place(&mut scratch[..depth])
    } else {
        let mut scratch: Vec<f64> = (0..depth).map(value_of_row).collect();
        median_in_place(&mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd() {
        let mut v = vec![5.0, 1.0, 3.0];
        assert_eq!(median_in_place(&mut v), 3.0);
    }

    #[test]
    fn median_even_averages_middle_two() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median_in_place(&mut v), 2.5);
    }

    #[test]
    fn median_single() {
        assert_eq!(median(&[42.0]), 42.0);
    }

    #[test]
    fn median_with_duplicates() {
        assert_eq!(median(&[2.0, 2.0, 2.0, 9.0, 1.0]), 2.0);
    }

    #[test]
    fn median_negative_values() {
        assert_eq!(median(&[-5.0, -1.0, -3.0]), -3.0);
        assert_eq!(median(&[-4.0, -2.0, 2.0, 4.0]), 0.0);
    }

    #[test]
    fn median_matches_sort_based_reference() {
        // Cross-check the selection-based implementation on many sizes.
        let mut state = 12345u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for len in 1..40usize {
            let v: Vec<f64> = (0..len).map(|_| next()).collect();
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            let expect = if len % 2 == 1 {
                sorted[len / 2]
            } else {
                0.5 * (sorted[len / 2 - 1] + sorted[len / 2])
            };
            assert!((median(&v) - expect).abs() < 1e-12, "len = {len}");
        }
    }

    #[test]
    #[should_panic(expected = "median of empty slice")]
    fn median_empty_panics() {
        median_in_place(&mut []);
    }

    #[test]
    fn median_of_rows_matches_vec_path() {
        // Stack path (small depth) and heap path (depth > bound) must
        // agree with the plain median of the same values.
        let mut state = 99u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        for depth in [
            1usize,
            2,
            9,
            MEDIAN_SCRATCH_DEPTH,
            MEDIAN_SCRATCH_DEPTH + 1,
            200,
        ] {
            let vals: Vec<f64> = (0..depth).map(|_| next()).collect();
            assert_eq!(
                median_of_rows(depth, |r| vals[r]),
                median(&vals),
                "depth {depth}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "median of empty slice")]
    fn median_of_rows_empty_panics() {
        median_of_rows(0, |_| 0.0);
    }
}
