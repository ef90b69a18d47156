//! Z-normalization of data series.
//!
//! All similarity in the paper is measured with the *z-normalized* Euclidean
//! distance (Definition 2): each series is shifted to mean 0 and scaled to
//! standard deviation 1 before the plain Euclidean distance is computed.
//! SOFA (like MESSI and the UCR suite) normalizes every series once at
//! ingestion time, so the hot query path only ever sees plain ED over
//! pre-normalized data.

/// Mean and standard deviation of a series, as used for z-normalization.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ZNormStats {
    /// Arithmetic mean of the series values.
    pub mean: f32,
    /// Population standard deviation (`sqrt(E[x^2] - E[x]^2)`).
    pub std: f32,
}

/// Series with standard deviation below this threshold are treated as
/// constant; their normalized form is all zeros (the convention used by the
/// UCR suite and MESSI — a constant series carries no shape information).
pub const MIN_STD: f32 = 1e-8;

impl ZNormStats {
    /// Computes mean and population standard deviation of `series`.
    ///
    /// Uses a single pass accumulating sum and sum of squares in `f64` to
    /// avoid catastrophic cancellation on long, large-magnitude series.
    #[must_use]
    pub fn compute(series: &[f32]) -> Self {
        if series.is_empty() {
            return ZNormStats { mean: 0.0, std: 0.0 };
        }
        let n = series.len() as f64;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for &x in series {
            let x = f64::from(x);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n;
        let var = (sum_sq / n - mean * mean).max(0.0);
        ZNormStats { mean: mean as f32, std: var.sqrt() as f32 }
    }
}

/// Z-normalizes `series` in place. Constant series become all zeros.
pub fn znormalize(series: &mut [f32]) {
    znormalize_finite(series);
}

/// [`znormalize`], reporting whether every value of `series` was finite.
/// A series holding a NaN or ±inf becomes all zeros and returns `false`.
/// The check costs no extra pass: the `f64` sums behind [`ZNormStats`]
/// are finite iff every value is, and so is the mean.
pub fn znormalize_finite(series: &mut [f32]) -> bool {
    let stats = ZNormStats::compute(series);
    let finite = stats.mean.is_finite();
    if !finite || stats.std < MIN_STD {
        series.fill(0.0);
        return finite;
    }
    let inv = 1.0 / stats.std;
    for x in series.iter_mut() {
        *x = (*x - stats.mean) * inv;
    }
    true
}

/// Z-normalizes `series` into `out` (same length), leaving the input intact.
///
/// # Panics
/// Panics if `out.len() != series.len()`.
pub fn znormalize_into(series: &[f32], out: &mut [f32]) {
    assert_eq!(series.len(), out.len());
    let stats = ZNormStats::compute(series);
    if stats.std < MIN_STD {
        out.fill(0.0);
        return;
    }
    let inv = 1.0 / stats.std;
    for (o, &x) in out.iter_mut().zip(series.iter()) {
        *o = (x - stats.mean) * inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_series() {
        let s = [1.0f32, 2.0, 3.0, 4.0];
        let st = ZNormStats::compute(&s);
        assert!((st.mean - 2.5).abs() < 1e-6);
        assert!((st.std - (1.25f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn normalized_has_zero_mean_unit_std() {
        let mut s: Vec<f32> = (0..128).map(|i| (i as f32 * 0.37).sin() * 5.0 + 3.0).collect();
        znormalize(&mut s);
        let st = ZNormStats::compute(&s);
        assert!(st.mean.abs() < 1e-4, "mean={}", st.mean);
        assert!((st.std - 1.0).abs() < 1e-4, "std={}", st.std);
    }

    #[test]
    fn constant_series_becomes_zeros() {
        let mut s = vec![7.5f32; 64];
        znormalize(&mut s);
        assert!(s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn empty_series_is_noop() {
        let mut s: Vec<f32> = vec![];
        znormalize(&mut s);
        assert!(s.is_empty());
        let st = ZNormStats::compute(&s);
        assert_eq!(st.mean, 0.0);
        assert_eq!(st.std, 0.0);
    }

    #[test]
    fn into_variant_matches_in_place() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32).cos() * 2.0 - 1.0).collect();
        let mut a = src.clone();
        znormalize(&mut a);
        let mut b = vec![0.0; src.len()];
        znormalize_into(&src, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn znorm_is_shift_scale_invariant() {
        let base: Vec<f32> = (0..64).map(|i| (i as f32 * 0.2).sin()).collect();
        let shifted: Vec<f32> = base.iter().map(|&x| x * 13.0 + 42.0).collect();
        let mut a = base.clone();
        let mut b = shifted;
        znormalize(&mut a);
        znormalize(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
