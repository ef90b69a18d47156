//! Euclidean-distance kernels.
//!
//! All distances in SOFA are *squared* Euclidean distances over
//! already-z-normalized series (`sofa_simd::znorm` handles normalization).
//! Working in squared space avoids a `sqrt` in every candidate evaluation;
//! the square root is taken once when a result is reported.
//!
//! The early-abandoning kernel is the inner loop of both the UCR-suite scan
//! baseline and the MESSI/SOFA leaf refinement step: it processes the series
//! in 8-lane chunks and compares the running sum against the best-so-far
//! (BSF) distance after each chunk, returning early once the candidate can
//! no longer improve on the BSF.
//!
//! Each kernel exists in tiers (scalar reference, portable [`F32x8`], and
//! an AVX2 implementation in the crate's private `arch` module on
//! x86-64); the un-suffixed names are the runtime-dispatched entry points
//! every caller should use ([`crate::dispatch`] picks the tier once per
//! process). The AVX2 tier of `euclidean_sq` /
//! `euclidean_sq_early_abandon` is bit-identical to the portable tier —
//! same operation order, no FMA contraction — so query results cannot
//! depend on which of the two served them.

use crate::dispatch::{active_tier, KernelTier};
use crate::vector::{F32x8, LANES};

/// Plain scalar squared Euclidean distance. Reference implementation used in
/// tests and for series shorter than one vector.
#[inline]
#[must_use]
pub fn euclidean_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Portable 8-lane tier of [`euclidean_sq`].
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[must_use]
pub fn euclidean_sq_portable(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    let mut acc = F32x8::zero();
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let off = c * LANES;
        let va = F32x8::from_slice(&a[off..]);
        let vb = F32x8::from_slice(&b[off..]);
        let d = va - vb;
        acc += d * d;
    }
    let mut sum = acc.horizontal_sum();
    for i in chunks * LANES..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Squared Euclidean distance, dispatched to the fastest available tier.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[inline]
#[must_use]
pub fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    match active_tier() {
        KernelTier::Scalar => euclidean_sq_scalar(a, b),
        KernelTier::Portable => euclidean_sq_portable(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => crate::arch::x86::euclidean_sq_checked(a, b),
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => euclidean_sq_portable(a, b),
    }
}

/// Scalar tier of [`euclidean_sq_early_abandon`]: accumulates in chunks of
/// 16 values and checks the BSF after each chunk (the same cadence as the
/// vector tiers, so pruning behavior stays comparable).
#[must_use]
pub fn euclidean_sq_early_abandon_scalar(a: &[f32], b: &[f32], bsf_sq: f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut sum = 0.0f32;
    for (ca, cb) in a.chunks(2 * LANES).zip(b.chunks(2 * LANES)) {
        for (x, y) in ca.iter().zip(cb.iter()) {
            let d = x - y;
            sum += d * d;
        }
        if sum > bsf_sq {
            return sum;
        }
    }
    sum
}

/// Portable 8-lane tier of [`euclidean_sq_early_abandon`].
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[must_use]
pub fn euclidean_sq_early_abandon_portable(a: &[f32], b: &[f32], bsf_sq: f32) -> f32 {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    let mut sum = 0.0f32;
    let chunks = a.len() / LANES;
    // Check the BSF every two vector chunks: a single check per 16 floats
    // amortizes the horizontal sum while still abandoning early enough.
    let mut c = 0;
    while c + 1 < chunks {
        let off = c * LANES;
        let d0 = F32x8::from_slice(&a[off..]) - F32x8::from_slice(&b[off..]);
        let d1 = F32x8::from_slice(&a[off + LANES..]) - F32x8::from_slice(&b[off + LANES..]);
        sum += (d0 * d0 + d1 * d1).horizontal_sum();
        if sum > bsf_sq {
            return sum;
        }
        c += 2;
    }
    while c < chunks {
        let off = c * LANES;
        let d = F32x8::from_slice(&a[off..]) - F32x8::from_slice(&b[off..]);
        sum += (d * d).horizontal_sum();
        if sum > bsf_sq {
            return sum;
        }
        c += 1;
    }
    for i in chunks * LANES..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

/// Squared Euclidean distance with early abandoning against `bsf_sq`,
/// dispatched to the fastest available tier.
///
/// The running sum is compared to the best-so-far squared distance at a
/// fixed cadence; as soon as the partial sum exceeds `bsf_sq` the
/// candidate cannot be the nearest neighbor and the partial sum (which is
/// already `> bsf_sq`) is returned. Callers must therefore treat any
/// return value `> bsf_sq` as "abandoned", not as the true distance.
///
/// This mirrors the chunked early-abandon loop of the paper's Algorithm 3
/// applied to real distances (§IV-H "Early Abandoning").
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[inline]
#[must_use]
pub fn euclidean_sq_early_abandon(a: &[f32], b: &[f32], bsf_sq: f32) -> f32 {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    match active_tier() {
        KernelTier::Scalar => euclidean_sq_early_abandon_scalar(a, b, bsf_sq),
        KernelTier::Portable => euclidean_sq_early_abandon_portable(a, b, bsf_sq),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => crate::arch::x86::euclidean_sq_early_abandon_checked(a, b, bsf_sq),
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => euclidean_sq_early_abandon_portable(a, b, bsf_sq),
    }
}

/// Scalar reference dot product.
#[inline]
#[must_use]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Portable 8-lane tier of [`dot`].
#[must_use]
pub fn dot_portable(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / LANES;
    let mut acc = F32x8::zero();
    for c in 0..chunks {
        let off = c * LANES;
        acc += F32x8::from_slice(&a[off..]) * F32x8::from_slice(&b[off..]);
    }
    let mut sum = acc.horizontal_sum();
    for i in chunks * LANES..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// Dot product, dispatched to the fastest available tier. The AVX2 tier
/// uses fused multiply-add (more accurate, not bit-identical to the
/// portable tier); it backs the FAISS-flat baseline's
/// `|x|^2 - 2 x.y + |y|^2` GEMM shape.
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "series must have equal length");
    match active_tier() {
        KernelTier::Scalar => dot_scalar(a, b),
        KernelTier::Portable => dot_portable(a, b),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the dispatcher selects Avx2 only when cpuid reports
        // AVX2+FMA; lengths were checked above.
        KernelTier::Avx2 => crate::arch::x86::dot_checked(a, b),
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => dot_portable(a, b),
    }
}

/// Strategy selector for distance computation, letting benchmarks compare
/// the scalar and vector paths on identical inputs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DistanceKernel {
    /// Straight-line scalar loop.
    Scalar,
    /// 8-lane blocked kernel (runtime-dispatched).
    Simd,
    /// 8-lane blocked kernel with early abandoning (runtime-dispatched).
    SimdEarlyAbandon,
}

impl DistanceKernel {
    /// Computes the squared distance between `a` and `b` under this kernel.
    /// `bsf_sq` is only consulted by [`DistanceKernel::SimdEarlyAbandon`].
    #[must_use]
    pub fn distance_sq(self, a: &[f32], b: &[f32], bsf_sq: f32) -> f32 {
        match self {
            DistanceKernel::Scalar => euclidean_sq_scalar(a, b),
            DistanceKernel::Simd => euclidean_sq(a, b),
            DistanceKernel::SimdEarlyAbandon => euclidean_sq_early_abandon(a, b, bsf_sq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    #[test]
    fn matches_scalar_on_vector_multiple_lengths() {
        let a = series(64, |i| (i as f32).sin());
        let b = series(64, |i| (i as f32 * 0.5).cos());
        let s = euclidean_sq_scalar(&a, &b);
        let v = euclidean_sq(&a, &b);
        assert!((s - v).abs() < 1e-3 * s.max(1.0), "scalar={s} simd={v}");
    }

    #[test]
    fn matches_scalar_on_ragged_lengths() {
        for n in [1, 3, 7, 8, 9, 15, 17, 100, 255] {
            let a = series(n, |i| i as f32 * 0.1);
            let b = series(n, |i| (n - i) as f32 * 0.1);
            let s = euclidean_sq_scalar(&a, &b);
            let v = euclidean_sq(&a, &b);
            assert!((s - v).abs() < 1e-3 * s.max(1.0), "n={n}: scalar={s} simd={v}");
        }
    }

    #[test]
    fn dispatched_tiers_match_portable_bitwise() {
        // The exactness contract: whatever tier `euclidean_sq` dispatches
        // to must produce exactly the portable kernel's bits.
        for n in [1usize, 7, 8, 16, 33, 100, 256, 257] {
            let a = series(n, |i| (i as f32 * 0.37).sin() * 3.0);
            let b = series(n, |i| (i as f32 * 0.11).cos() * 2.0);
            if crate::dispatch::active_tier() != KernelTier::Scalar {
                assert_eq!(
                    euclidean_sq(&a, &b).to_bits(),
                    euclidean_sq_portable(&a, &b).to_bits(),
                    "n={n}"
                );
                for bsf in [f32::INFINITY, 50.0, 1.0, 0.0] {
                    assert_eq!(
                        euclidean_sq_early_abandon(&a, &b, bsf).to_bits(),
                        euclidean_sq_early_abandon_portable(&a, &b, bsf).to_bits(),
                        "n={n} bsf={bsf}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_distance_to_self() {
        let a = series(100, |i| (i as f32).sin());
        assert_eq!(euclidean_sq(&a, &a), 0.0);
        assert_eq!(euclidean_sq_early_abandon(&a, &a, f32::INFINITY), 0.0);
    }

    #[test]
    fn early_abandon_exact_when_bsf_infinite() {
        let a = series(96, |i| (i as f32 * 0.3).sin());
        let b = series(96, |i| (i as f32 * 0.3).cos());
        let full = euclidean_sq(&a, &b);
        let ea = euclidean_sq_early_abandon(&a, &b, f32::INFINITY);
        assert!((full - ea).abs() < 1e-3 * full.max(1.0));
    }

    #[test]
    fn early_abandon_returns_excess_when_pruned() {
        let a = series(256, |_| 0.0);
        let b = series(256, |_| 10.0);
        // True distance is 256*100; with a tiny BSF the kernel must abandon
        // and return something strictly greater than the BSF.
        let r = euclidean_sq_early_abandon(&a, &b, 1.0);
        assert!(r > 1.0);
        // It should abandon after the first check, well before the true sum.
        assert!(r < 256.0 * 100.0);
    }

    #[test]
    fn early_abandon_never_underestimates_below_bsf() {
        // If the returned value is <= bsf it must equal the exact distance.
        let a = series(40, |i| (i as f32 * 0.7).sin());
        let b = series(40, |i| (i as f32 * 0.7).sin() + 0.01);
        let exact = euclidean_sq_scalar(&a, &b);
        let r = euclidean_sq_early_abandon(&a, &b, exact * 2.0);
        assert!((r - exact).abs() < 1e-4);
    }

    #[test]
    fn scalar_early_abandon_contract() {
        let a = series(100, |i| (i as f32 * 0.3).sin());
        let b = series(100, |i| (i as f32 * 0.4).cos());
        let exact = euclidean_sq_scalar(&a, &b);
        assert!((euclidean_sq_early_abandon_scalar(&a, &b, f32::INFINITY) - exact).abs() < 1e-4);
        let pruned = euclidean_sq_early_abandon_scalar(&a, &b, exact * 0.01);
        assert!(pruned > exact * 0.01);
    }

    #[test]
    fn kernel_selector_dispatches() {
        let a = series(32, |i| i as f32);
        let b = series(32, |i| i as f32 + 1.0);
        for k in [DistanceKernel::Scalar, DistanceKernel::Simd, DistanceKernel::SimdEarlyAbandon] {
            assert!((k.distance_sq(&a, &b, f32::INFINITY) - 32.0).abs() < 1e-4);
        }
    }

    #[test]
    fn symmetry() {
        let a = series(50, |i| (i as f32).sqrt());
        let b = series(50, |i| (i as f32 * 1.1).sqrt());
        assert!((euclidean_sq(&a, &b) - euclidean_sq(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn dot_tiers_agree() {
        for n in [1usize, 8, 15, 64, 129] {
            let a = series(n, |i| (i as f32 * 0.21).sin());
            let b = series(n, |i| (i as f32 * 0.17).cos());
            let s = dot_scalar(&a, &b);
            let p = dot_portable(&a, &b);
            let d = dot(&a, &b);
            assert!((s - p).abs() <= 1e-4 * s.abs().max(1.0), "n={n}: {s} vs {p}");
            assert!((s - d).abs() <= 1e-4 * s.abs().max(1.0), "n={n}: {s} vs {d}");
        }
    }
}
