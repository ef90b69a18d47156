//! Row predicates for filtered queries.
//!
//! A [`RowFilter`] is a dense bitmap over **original row ids** (the
//! public identifier space: the ids queries return, not internal storage
//! slots). Filtered queries treat it as a hard predicate: a row whose bit
//! is clear can never appear in the answer, exactly as if the query ran
//! over the admitted subset alone.
//!
//! The engine evaluates the predicate *inside* the pruning funnel rather
//! than post-filtering a wider answer: every leaf sweep — the home-leaf
//! seed's and refine's alike — ANDs the bitmap into the SIMD sweep's
//! lane mask (dead lanes price as `+inf` and accelerate whole-group
//! abandons — see [`sofa_simd::lut_lower_bound`]) and never scores a
//! rejected row, so the best-so-far never tightens on a row the caller
//! excluded (which would make results *wrong*, not just slower: an
//! inadmissible near neighbor must not shadow an admissible farther
//! one).

/// A dense row-id bitmap predicate for filtered queries.
///
/// Bits are indexed by original row id; out-of-range ids are rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowFilter {
    /// Little-endian 64-row words; bit `r % 64` of word `r / 64` admits
    /// row `r`.
    bits: Vec<u64>,
    n_rows: usize,
}

impl RowFilter {
    /// Builds a filter over `n_rows` rows from a per-row predicate.
    #[must_use]
    pub fn from_fn(n_rows: usize, mut admit: impl FnMut(usize) -> bool) -> Self {
        let mut bits = vec![0u64; n_rows.div_ceil(64)];
        for (row, word) in (0..n_rows).map(|r| (r, r / 64)) {
            if admit(row) {
                bits[word] |= 1 << (row % 64);
            }
        }
        RowFilter { bits, n_rows }
    }

    /// A filter admitting every one of `n_rows` rows.
    #[must_use]
    pub fn all(n_rows: usize) -> Self {
        Self::from_fn(n_rows, |_| true)
    }

    /// A filter admitting none of `n_rows` rows.
    #[must_use]
    pub fn none(n_rows: usize) -> Self {
        RowFilter { bits: vec![0u64; n_rows.div_ceil(64)], n_rows }
    }

    /// Does the filter admit `row`? Out-of-range rows are rejected, so a
    /// padded SIMD lane beyond the dataset can never sneak through.
    #[inline]
    #[must_use]
    pub fn admits(&self, row: usize) -> bool {
        row < self.n_rows && self.bits[row / 64] & (1 << (row % 64)) != 0
    }

    /// Number of rows the filter covers (must equal the index's
    /// `n_series` to be usable in a query).
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// Whether the filter covers zero rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of admitted rows.
    #[must_use]
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_round_trips_the_predicate() {
        let f = RowFilter::from_fn(131, |r| r % 3 == 0);
        for r in 0..131 {
            assert_eq!(f.admits(r), r % 3 == 0, "row {r}");
        }
        assert_eq!(f.count(), (0..131).filter(|r| r % 3 == 0).count());
        assert_eq!(f.len(), 131);
    }

    #[test]
    fn out_of_range_rows_are_rejected() {
        let f = RowFilter::all(10);
        assert!(f.admits(9));
        assert!(!f.admits(10));
        assert!(!f.admits(64));
        let empty = RowFilter::none(0);
        assert!(empty.is_empty());
        assert!(!empty.admits(0));
    }

    #[test]
    fn all_and_none_are_extremes() {
        assert_eq!(RowFilter::all(77).count(), 77);
        assert_eq!(RowFilter::none(77).count(), 0);
    }
}
