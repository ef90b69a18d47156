//! SAX / iSAX: the static symbolic summarization used by MESSI.
//!
//! A SAX word (paper §IV-D) is the PAA of a series quantized with
//! equal-depth bins of the standard normal distribution — the same fixed
//! breakpoint table for every segment, hard-coding the assumption that
//! z-normalized series values are N(0,1). The indexable variant iSAX reads
//! the symbols as bit strings so that a prefix of a symbol denotes a
//! coarser quantization (half the bins per dropped bit); the tree index
//! keys its subtrees by the top bit of every symbol and splits nodes on
//! single symbol bits. At full cardinality (8 bits = 256 symbols, the
//! paper's default) iSAX and SAX coincide.

use crate::paa::Paa;
use crate::traits::{SeriesTransformer, Summarization, TransformScratch, DEFAULT_ALPHABET};
use sofa_stats::sax_breakpoints;

/// Configuration for an [`ISax`] summarization.
#[derive(Clone, Debug)]
pub struct SaxConfig {
    /// Word length `l` (number of PAA segments). Paper default: 16.
    pub word_len: usize,
    /// Alphabet size; must be a power of two, at most 256. Paper: 256.
    pub alphabet: usize,
}

impl Default for SaxConfig {
    fn default() -> Self {
        SaxConfig { word_len: 16, alphabet: DEFAULT_ALPHABET }
    }
}

/// The iSAX summarization model (fixed N(0,1) quantization of PAA).
#[derive(Clone, Debug)]
pub struct ISax {
    paa: Paa,
    bits: u8,
    /// Shared equal-depth N(0,1) breakpoints (`alphabet - 1` of them).
    breakpoints: Vec<f32>,
    /// Per-segment weights (= segment lengths), cached as `f32`.
    weights: Vec<f32>,
}

impl ISax {
    /// Builds an iSAX model for series of length `n`.
    ///
    /// # Panics
    /// Panics if the alphabet is not a power of two in `[2, 256]`, or if
    /// `word_len` is invalid for `n` (see [`Paa::new`]).
    #[must_use]
    pub fn new(n: usize, config: &SaxConfig) -> Self {
        let alpha = config.alphabet;
        assert!(
            alpha.is_power_of_two() && (2..=256).contains(&alpha),
            "alphabet must be a power of two in [2, 256], got {alpha}"
        );
        let paa = Paa::new(n, config.word_len);
        let weights = (0..config.word_len).map(|j| paa.segment_len(j) as f32).collect();
        ISax {
            paa,
            bits: alpha.trailing_zeros() as u8,
            breakpoints: sax_breakpoints(alpha).into_iter().map(|b| b as f32).collect(),
            weights,
        }
    }

    /// The underlying PAA transform.
    #[must_use]
    pub fn paa(&self) -> &Paa {
        &self.paa
    }

    /// Quantizes one PAA value to its SAX symbol.
    #[inline]
    #[must_use]
    pub fn symbol_of(&self, value: f32) -> u8 {
        // Symbol s covers [bp[s-1], bp[s]); partition_point counts the
        // breakpoints <= value.
        self.breakpoints.partition_point(|&b| b <= value) as u8
    }
}

impl Summarization for ISax {
    fn word_len(&self) -> usize {
        self.paa.segments()
    }

    fn symbol_bits(&self) -> u8 {
        self.bits
    }

    fn series_len(&self) -> usize {
        self.paa.series_len()
    }

    fn breakpoints(&self, _j: usize) -> &[f32] {
        &self.breakpoints
    }

    fn weight(&self, j: usize) -> f32 {
        self.weights[j]
    }

    fn transformer(&self) -> Box<dyn SeriesTransformer + '_> {
        Box::new(SaxTransformer { model: self, paa_buf: vec![0.0; self.paa.segments()] })
    }

    fn query_values_reusing(&self, query: &[f32], scratch: &mut TransformScratch, out: &mut [f32]) {
        // PAA writes straight into `out`; no scratch needed at all.
        let _ = scratch;
        self.paa.transform_into(query, out);
    }

    fn name(&self) -> &str {
        "iSAX"
    }
}

/// Per-thread SAX transformation state.
struct SaxTransformer<'a> {
    model: &'a ISax,
    paa_buf: Vec<f32>,
}

impl SeriesTransformer for SaxTransformer<'_> {
    fn word_into(&mut self, series: &[f32], word: &mut [u8]) {
        self.model.paa.transform_into(series, &mut self.paa_buf);
        for (w, &v) in word.iter_mut().zip(self.paa_buf.iter()) {
            *w = self.model.symbol_of(v);
        }
    }

    fn query_values_into(&mut self, query: &[f32], out: &mut [f32]) {
        self.model.paa.transform_into(query, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize, l: usize, alpha: usize) -> ISax {
        ISax::new(n, &SaxConfig { word_len: l, alphabet: alpha })
    }

    #[test]
    fn symbols_partition_the_reals() {
        let m = model(16, 4, 8);
        // Far left -> symbol 0, far right -> symbol alpha-1.
        assert_eq!(m.symbol_of(-10.0), 0);
        assert_eq!(m.symbol_of(10.0), 7);
        // Zero sits exactly on the middle breakpoint of an even alphabet,
        // and [bp, ...) convention sends it to the upper bin.
        assert_eq!(m.symbol_of(0.0), 4);
        // Monotone in the value.
        let mut prev = 0u8;
        for i in -40..40 {
            let s = m.symbol_of(i as f32 / 10.0);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn word_of_linear_ramp_is_monotone() {
        let m = model(64, 8, 256);
        let mut t = m.transformer();
        let s: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) / 18.0).collect();
        let w = t.word(&s, 8);
        for pair in w.windows(2) {
            assert!(pair[0] <= pair[1], "{w:?}");
        }
    }

    #[test]
    fn known_word_small_alphabet() {
        // A series that spends each quarter at a constant level maps each
        // segment to the bin containing that level.
        let m = model(8, 4, 4);
        let mut t = m.transformer();
        // N(0,1) quartile breakpoints: [-0.674, 0, 0.674]
        let s = [-2.0, -2.0, -0.3, -0.3, 0.3, 0.3, 2.0, 2.0];
        assert_eq!(t.word(&s, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn query_values_are_paa() {
        let m = model(16, 4, 8);
        let mut t = m.transformer();
        let s: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut q = vec![0.0; 4];
        t.query_values_into(&s, &mut q);
        assert_eq!(q, m.paa().transform(&s));
    }

    #[test]
    fn weights_are_segment_lengths() {
        let m = model(100, 16, 256);
        let total: f32 = (0..16).map(|j| m.weight(j)).sum();
        assert_eq!(total, 100.0);
    }

    #[test]
    fn trait_surface() {
        let m = model(128, 16, 256);
        assert_eq!(m.word_len(), 16);
        assert_eq!(m.symbol_bits(), 8);
        assert_eq!(m.alphabet(), 256);
        assert_eq!(m.series_len(), 128);
        assert_eq!(m.breakpoints(0).len(), 255);
        assert_eq!(m.name(), "iSAX");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_alphabet_rejected() {
        let _ = model(16, 4, 100);
    }

    #[test]
    fn breakpoints_shared_across_positions() {
        let m = model(32, 8, 16);
        assert_eq!(m.breakpoints(0), m.breakpoints(7));
    }
}
