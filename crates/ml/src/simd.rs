//! Vectorized inner kernels for the packed bit-domain paths.
//!
//! One kernel carries prediction: `stripe_accumulate` sums the K-float
//! table rows picked out by a stream of row indices — one row per value
//! byte (`pos·256 + byte`) for [`crate::packed::PackedPredictor`], one per
//! set bit for the PCA projector [`crate::pca::BitProjector`]. It and the
//! `u64` popcounts are vectorized with `std::arch::x86_64` intrinsics
//! behind **runtime** feature detection, falling back to the scalar
//! reference on non-x86 targets or older CPUs.
//!
//! **Bit-for-bit contract:** the SIMD stripe kernels keep each output lane
//! in a register and add the rows in exactly the order the stream yields
//! them, as the scalar reference does (each lane is an independent chain of
//! f32 adds). f32 addition per lane is therefore the *same* sequence of
//! operations, so SIMD and scalar results are identical to the last bit —
//! property-tested in [`crate::packed`] and [`crate::pca`]. Popcounts are
//! integer and exact by construction.

/// Whether the vectorized (AVX2) stripe kernels are active on this CPU.
/// `false` means every call takes the scalar reference path.
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("bmi1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Scalar reference for the stripe accumulation: for each row index in
/// `rows`, adds the K-float stripe `table[row·k..(row+1)·k]` into `out`.
/// `out` must be zeroed (or hold a running sum) on entry.
#[inline(always)]
pub(crate) fn stripe_accumulate_scalar(table: &[f32], k: usize, rows: impl Iterator<Item = usize>, out: &mut [f32]) {
    rows.for_each(|row| {
        for (acc, &w) in out.iter_mut().zip(&table[row * k..][..k]) {
            *acc += w;
        }
    });
}

/// Stripe accumulation with runtime SIMD dispatch, bit-for-bit identical
/// to [`stripe_accumulate_scalar`]; widths other than 4, 8, 16, 24, 32 and
/// 64 take the scalar path.
///
/// # Safety
/// Every row index `rows` yields must be below `table.len() / k`: the
/// vector kernels do not bounds-check rows (a per-row check measurably
/// slows the one-register K = 4 loop).
///
/// # Panics
/// Panics if `out.len() != k`.
#[inline]
pub(crate) unsafe fn stripe_accumulate(table: &[f32], k: usize, rows: impl Iterator<Item = usize>, out: &mut [f32]) {
    assert_eq!(out.len(), k, "stripe width mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if simd_active() {
            // SAFETY: AVX2 + BMI1 confirmed at runtime; `out.len() == k`
            // asserted above; rows in range by this function's contract.
            unsafe {
                match k {
                    4 => return stripe_accumulate_sse_k4(table, rows, out),
                    8 => return stripe_accumulate_avx2::<1>(table, rows, out),
                    16 => return stripe_accumulate_avx2::<2>(table, rows, out),
                    24 => return stripe_accumulate_avx2::<3>(table, rows, out),
                    32 => return stripe_accumulate_avx2::<4>(table, rows, out),
                    64 => return stripe_accumulate_avx2::<8>(table, rows, out),
                    _ => {}
                }
            }
        }
    }
    stripe_accumulate_scalar(table, k, rows, out);
}

/// K = 4 specialization: one 128-bit register holds the whole stripe, so
/// each row costs one load + one add.
///
/// # Safety
/// As [`stripe_accumulate`], plus AVX2 + BMI1 verified and `out.len() == 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1")]
unsafe fn stripe_accumulate_sse_k4(table: &[f32], rows: impl Iterator<Item = usize>, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let (base, n_rows) = (table.as_ptr(), table.len() / 4);
    unsafe {
        let mut acc = _mm_loadu_ps(out.as_ptr());
        for row in rows {
            debug_assert!(row < n_rows, "stripe row out of range");
            acc = _mm_add_ps(acc, _mm_loadu_ps(base.add(row * 4)));
        }
        _mm_storeu_ps(out.as_mut_ptr(), acc);
    }
}

/// Generic AVX2 kernel for `k = 8 * N`: N 256-bit accumulators held in
/// registers across the whole row stream, each lane a per-output chain of
/// adds in stream order (same order as the scalar reference, hence
/// bit-identical).
///
/// # Safety
/// As [`stripe_accumulate`], plus AVX2 + BMI1 verified and
/// `out.len() == 8 * N`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1")]
unsafe fn stripe_accumulate_avx2<const N: usize>(table: &[f32], rows: impl Iterator<Item = usize>, out: &mut [f32]) {
    use std::arch::x86_64::*;
    let k = 8 * N;
    let (base, n_rows) = (table.as_ptr(), table.len() / k);
    unsafe {
        let mut acc = [_mm256_setzero_ps(); N];
        for (i, a) in acc.iter_mut().enumerate() {
            *a = _mm256_loadu_ps(out.as_ptr().add(i * 8));
        }
        // A plain loop: a `for_each` closure may be outlined, spilling the
        // accumulators to memory on every row.
        for row in rows {
            debug_assert!(row < n_rows, "stripe row out of range");
            let stripe = base.add(row * k);
            for (i, a) in acc.iter_mut().enumerate() {
                *a = _mm256_add_ps(*a, _mm256_loadu_ps(stripe.add(i * 8)));
            }
        }
        for (i, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.as_mut_ptr().add(i * 8), *a);
        }
    }
}

#[inline(always)]
fn popcount_bytes_impl(bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    let mut total = 0u64;
    for c in &mut chunks {
        total += u64::from_le_bytes(c.try_into().unwrap()).count_ones() as u64;
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut pad = [0u8; 8];
        pad[..rest.len()].copy_from_slice(rest);
        total += u64::from_le_bytes(pad).count_ones() as u64;
    }
    total
}

/// Popcount-instruction variant of the byte kernel: `count_ones` lowers
/// to a real `popcnt` only when the feature is enabled for the function
/// body.
///
/// # Safety
/// Caller must verify `popcnt` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn popcount_bytes_popcnt(bytes: &[u8]) -> u64 {
    popcount_bytes_impl(bytes)
}

/// Total population count of a byte slice (exact; eight bytes per word,
/// hardware `popcnt` selected at runtime on x86_64).
#[inline]
pub fn popcount_bytes(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: feature checked the line above.
            return unsafe { popcount_bytes_popcnt(bytes) };
        }
    }
    popcount_bytes_impl(bytes)
}

/// XOR-popcount (Hamming distance) between two equal-length word slices.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: feature checked the line above.
            return unsafe { hamming_words_popcnt(a, b) };
        }
    }
    hamming_words_impl(a, b)
}

#[inline(always)]
fn hamming_words_impl(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x ^ y).count_ones() as u64)
        .sum()
}

/// Hardware-popcnt variant of [`hamming_words`].
///
/// # Safety
/// Caller must verify `popcnt` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn hamming_words_popcnt(a: &[u64], b: &[u64]) -> u64 {
    hamming_words_impl(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popcount_bytes_matches_naive() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let v: Vec<u8> = (0..len).map(|i| (i * 151 + 3) as u8).collect();
            let naive: u64 = v.iter().map(|b| b.count_ones() as u64).sum();
            assert_eq!(popcount_bytes(&v), naive, "len={len}");
        }
    }

    #[test]
    fn hamming_words_matches_naive() {
        let a: Vec<u64> = (0..13u64).map(|i| i.wrapping_mul(0xABCD_EF01)).collect();
        let b: Vec<u64> = (0..13u64).map(|i| i.wrapping_mul(0x1234_5678)).collect();
        let naive: u64 = a.iter().zip(&b).map(|(&x, &y)| (x ^ y).count_ones() as u64).sum();
        assert_eq!(hamming_words(&a, &b), naive);
    }

    #[test]
    fn lut_accumulate_simd_is_bit_identical_to_scalar() {
        // Every dispatched K, plus off-path Ks, on widths with tails; each
        // under three row streams: the packed LUT's one row per byte, an
        // ascending sparse stream like the set-bit projector's, and an
        // unordered stream with repeats. Outputs start from a running sum.
        for &k in &[1usize, 3, 4, 5, 8, 16, 24, 32, 40, 64] {
            for &n in &[1usize, 7, 8, 13, 64] {
                let table: Vec<f32> = (0..n * 256 * k)
                    .map(|i| ((i as u32).wrapping_mul(2654435761) as f32) * 1e-9)
                    .collect();
                let bytes: Vec<u8> = (0..n).map(|i| (i * 89 + 17) as u8).collect();
                let streams: [Vec<usize>; 4] = [
                    bytes.iter().enumerate().map(|(p, &b)| p * 256 + b as usize).collect(),
                    (0..n * 256).filter(|r| r % 7 == 3).collect(),
                    (0..3 * n).map(|i| (i * 2_654_435_761) % (n * 256)).collect(),
                    Vec::new(),
                ];
                for rows in &streams {
                    let start: Vec<f32> = (0..k).map(|c| c as f32 * 0.25 - 1.0).collect();
                    let (mut simd, mut scalar) = (start.clone(), start);
                    // SAFETY: every stream stays below n·256 = table rows.
                    unsafe { stripe_accumulate(&table, k, rows.iter().copied(), &mut simd) };
                    stripe_accumulate_scalar(&table, k, rows.iter().copied(), &mut scalar);
                    assert_eq!(
                        simd.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        scalar.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                        "k={k} n={n} rows={}",
                        rows.len()
                    );
                }
            }
        }
    }
}
