//! Structure-of-arrays word storage for the batched lower-bound sweep.
//!
//! The tree index's leaf refinement historically called the per-word
//! mindist kernel once per candidate: a function call, a breakpoint-table
//! gather per position, and an 8-position vector loop per word. A leaf of
//! hundreds of candidates pays that dispatch and gather cost hundreds of
//! times per query.
//!
//! [`WordBlock`] transposes the problem (the FAISS contiguous-per-list
//! idea applied to symbolic summaries): at build time each candidate
//! symbol is resolved to its quantization interval `[lo, hi]` — a
//! query-independent constant — and the intervals are stored
//! **position-major in groups of 8 candidates**, padded by duplicating the
//! last candidate. At query time [`mindist_block`] lower-bounds a whole
//! group per call through the runtime-dispatched
//! [`sofa_simd::block_lower_bound`] kernel: per position, one splat of the
//! query value and weight against two contiguous 8-lane loads — no
//! gathers, no per-candidate calls, and whole-group early abandoning
//! against the best-so-far distance.
//!
//! The memory trade is explicit: 8 bytes per (position, candidate) versus
//! 1 byte for the raw symbol. For the paper's configurations (word length
//! 16, series length ≥ 64 → ≥ 256 bytes of raw data per series) the
//! blocks add at most ~50% on top of the series data in exchange for
//! removing the dominant per-candidate costs from the hottest query loop.

use crate::lbd::{symbols_interval, QueryContext};
use crate::traits::Summarization;
use sofa_simd::{block_lower_bound, BLOCK_LANES, BOUNDS_STRIDE};

/// Per-leaf SoA storage of candidate quantization intervals, laid out for
/// [`sofa_simd::block_lower_bound`].
///
/// Layout: group-major. Group `g` covers candidates `g*8 .. g*8+8` (the
/// last group padded by repeating the final candidate) and occupies
/// `word_len * 16` consecutive floats: for each position `j`, 8 interval
/// lower bounds followed by 8 upper bounds (lane = candidate).
#[derive(Clone, Debug, PartialEq)]
pub struct WordBlock {
    /// Real (un-padded) candidate count.
    n: usize,
    /// Word length of the summarization the block was built from.
    word_len: usize,
    /// `n_groups * word_len * BOUNDS_STRIDE` floats (see struct docs).
    bounds: Vec<f32>,
}

impl WordBlock {
    /// Builds a block from row-major `words` (`n * word_len` symbols),
    /// resolving every symbol to its interval in `summarization`'s
    /// breakpoint tables.
    ///
    /// # Panics
    /// Panics if `words` is not a whole number of words.
    #[must_use]
    pub fn build(summarization: &dyn Summarization, words: &[u8]) -> Self {
        let l = summarization.word_len();
        assert!(l > 0, "word length must be positive");
        assert_eq!(words.len() % l, 0, "words buffer must hold whole words");
        let n = words.len() / l;
        let alphabet = summarization.alphabet();
        // One vtable call per position, hoisted out of the group loop.
        let tables: Vec<&[f32]> = (0..l).map(|j| summarization.breakpoints(j)).collect();
        let bounds = build_bounds(n, l, |cand, j| {
            let s = words[cand * l + j] as usize;
            symbols_interval(tables[j], alphabet, s, s)
        });
        WordBlock { n, word_len: l, bounds }
    }

    /// Real candidate count.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of 8-candidate groups.
    #[must_use]
    pub fn n_groups(&self) -> usize {
        self.n.div_ceil(BLOCK_LANES)
    }

    /// Real (un-padded) candidates in `group`.
    #[must_use]
    pub fn lanes_in(&self, group: usize) -> usize {
        (self.n - group * BLOCK_LANES).min(BLOCK_LANES)
    }

    /// Word length the block was built for.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Heap bytes held by the block (for stats/reports).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.bounds.len() * std::mem::size_of::<f32>()
    }

    /// The full resolved-interval buffer, group-major (see struct docs) —
    /// the block's flat serialization form.
    #[must_use]
    pub fn bounds(&self) -> &[f32] {
        &self.bounds
    }

    /// Rebuilds a block from its flat parts (the inverse of
    /// [`WordBlock::bounds`] + [`WordBlock::n`]), validating the layout
    /// invariant so a corrupted length cannot produce out-of-bounds group
    /// slices later.
    ///
    /// # Errors
    /// A human-readable description when `bounds` does not hold exactly
    /// `ceil(n / 8) * word_len * 16` floats or `word_len` is zero.
    pub fn from_raw_parts(n: usize, word_len: usize, bounds: Vec<f32>) -> Result<Self, String> {
        if word_len == 0 {
            return Err("word length must be positive".to_string());
        }
        let expect = n
            .div_ceil(BLOCK_LANES)
            .checked_mul(word_len)
            .and_then(|v| v.checked_mul(BOUNDS_STRIDE))
            .ok_or_else(|| "bounds shape overflows".to_string())?;
        if bounds.len() != expect {
            return Err(format!(
                "bounds length {} does not match {n} lanes x word_len {word_len} \
                 (expected {expect})",
                bounds.len()
            ));
        }
        Ok(WordBlock { n, word_len, bounds })
    }

    /// The bounds slice of `group` (layout: see struct docs).
    #[inline]
    #[must_use]
    fn group_bounds(&self, group: usize) -> &[f32] {
        let stride = self.word_len * BOUNDS_STRIDE;
        &self.bounds[group * stride..(group + 1) * stride]
    }
}

/// Squared lower bounds between `ctx`'s query and the 8 candidates of
/// `block` group `group`, in one dispatched kernel call.
///
/// Writes one squared lower bound per lane into `out` (pad lanes mirror
/// the last real candidate) and returns `true` when every lane's running
/// sum exceeded `bsf_sq` — the whole group is pruned and `out` holds
/// partial sums, all `> bsf_sq`. Lanes whose value in `out` is `>=` the
/// caller's bound are pruned individually.
///
/// Equivalent to [`crate::mindist_scalar`] per candidate (up to summation
/// order), but with the interval gathers hoisted to build time.
///
/// # Panics
/// Panics if `ctx`'s word length differs from the block's or `group` is
/// out of range.
#[inline]
#[must_use]
pub fn mindist_block(
    ctx: &QueryContext<'_>,
    block: &WordBlock,
    group: usize,
    bsf_sq: f32,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    assert_eq!(ctx.word_len(), block.word_len(), "query context and block disagree on word length");
    block_lower_bound(ctx.values(), ctx.weights(), block.group_bounds(group), bsf_sq, out)
}

/// [`mindist_block`] with a per-lane predicate bitmap — the filtered-query
/// sweep. Bit `i` of `live` set means lane `i` participates; dead lanes
/// (rows the caller's predicate rejected, or pad lanes) report `+inf` and
/// cost nothing, letting a group whose surviving lanes are all pruned
/// abandon earlier. Live lanes are bit-for-bit identical to the unmasked
/// sweep across all kernel tiers (see
/// [`sofa_simd::block_lower_bound_masked`]).
///
/// # Panics
/// Panics if `ctx`'s word length differs from the block's or `group` is
/// out of range.
#[inline]
#[must_use]
pub fn mindist_block_masked(
    ctx: &QueryContext<'_>,
    block: &WordBlock,
    group: usize,
    bsf_sq: f32,
    live: u8,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    assert_eq!(ctx.word_len(), block.word_len(), "query context and block disagree on word length");
    sofa_simd::block_lower_bound_masked(
        ctx.values(),
        ctx.weights(),
        block.group_bounds(group),
        bsf_sq,
        live,
        out,
    )
}

/// The kernel's bounds layout: `resolve(candidate, position)` returns the
/// `(lo, hi)` interval, evaluated exactly once per (lane, position); the last real
/// candidate is repeated into the pad lanes (so group-level abandon
/// decisions are unchanged and no sentinel arithmetic is needed), and
/// each position is written as 8 lows followed by 8 highs.
fn build_bounds(n: usize, l: usize, resolve: impl Fn(usize, usize) -> (f32, f32)) -> Vec<f32> {
    let groups = n.div_ceil(BLOCK_LANES);
    let mut bounds = Vec::with_capacity(groups * l * BOUNDS_STRIDE);
    let mut lows = [0.0f32; BLOCK_LANES];
    let mut highs = [0.0f32; BLOCK_LANES];
    for g in 0..groups {
        for j in 0..l {
            for lane in 0..BLOCK_LANES {
                let cand = (g * BLOCK_LANES + lane).min(n - 1);
                (lows[lane], highs[lane]) = resolve(cand, j);
            }
            bounds.extend_from_slice(&lows);
            bounds.extend_from_slice(&highs);
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbd::mindist_scalar;
    use crate::sax::{ISax, SaxConfig};
    use crate::sfa::{Sfa, SfaConfig};

    fn dataset(count: usize, n: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                let x = t as f32;
                data.push(
                    (x * 0.21 + r as f32).sin()
                        + 0.6 * (x * 0.83 + (r * 7) as f32).cos()
                        + 0.3 * (x * (1.0 + (r % 11) as f32 * 0.13)).sin(),
                );
            }
        }
        for row in data.chunks_mut(n) {
            sofa_simd::znormalize(row);
        }
        data
    }

    fn words_of(summ: &dyn Summarization, data: &[f32], n: usize) -> Vec<u8> {
        let l = summ.word_len();
        let mut t = summ.transformer();
        let mut words = vec![0u8; (data.len() / n) * l];
        for (series, word) in data.chunks(n).zip(words.chunks_mut(l)) {
            t.word_into(series, word);
        }
        words
    }

    #[test]
    fn block_matches_per_word_mindist() {
        let n = 64;
        let data = dataset(67, n); // ragged: last group has 3 real lanes
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        assert_eq!(block.n(), 67);
        assert_eq!(block.n_groups(), 9);
        assert_eq!(block.lanes_in(8), 3);
        let q = &data[5 * n..6 * n];
        let ctx = QueryContext::new(&sfa, q);
        let mut out = [0.0f32; BLOCK_LANES];
        for g in 0..block.n_groups() {
            let abandoned = mindist_block(&ctx, &block, g, f32::INFINITY, &mut out);
            assert!(!abandoned);
            for (lane, &lb) in out.iter().enumerate().take(block.lanes_in(g)) {
                let cand = g * BLOCK_LANES + lane;
                let per_word = mindist_scalar(&ctx, &words[cand * 16..(cand + 1) * 16]);
                assert!(
                    (lb - per_word).abs() <= 1e-4 * per_word.max(1.0),
                    "cand {cand}: block={lb} per-word={per_word}"
                );
            }
        }
    }

    #[test]
    fn pad_lanes_mirror_last_candidate() {
        let n = 64;
        let data = dataset(3, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let words = words_of(&sax, &data, n);
        let block = WordBlock::build(&sax, &words);
        assert_eq!(block.n_groups(), 1);
        assert_eq!(block.lanes_in(0), 3);
        let ctx = QueryContext::new(&sax, &data[..n]);
        let mut out = [0.0f32; BLOCK_LANES];
        let _ = mindist_block(&ctx, &block, 0, f32::INFINITY, &mut out);
        for pad in 3..BLOCK_LANES {
            assert_eq!(out[pad].to_bits(), out[2].to_bits(), "pad lane {pad}");
        }
    }

    #[test]
    fn whole_group_abandons_against_tiny_bsf() {
        let n = 64;
        let data = dataset(40, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 256, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        // Query from a different part of the family: every candidate of
        // some group should have a strictly positive lower bound.
        let mut probe = dataset(41, n)[40 * n..].to_vec();
        sofa_simd::znormalize(&mut probe);
        let ctx = QueryContext::new(&sfa, &probe);
        let mut out = [0.0f32; BLOCK_LANES];
        let mut saw_abandon = false;
        for g in 0..block.n_groups() {
            let all_positive = {
                let _ = mindist_block(&ctx, &block, g, f32::INFINITY, &mut out);
                (0..block.lanes_in(g)).all(|i| out[i] > 0.0)
            };
            if all_positive {
                let abandoned = mindist_block(&ctx, &block, g, 0.0, &mut out);
                assert!(abandoned, "group {g} must abandon with bsf=0");
                saw_abandon = true;
            }
        }
        assert!(saw_abandon, "workload produced no group with all-positive bounds");
    }

    #[test]
    fn block_equals_scalar_reference_bitwise() {
        // The dispatched kernel must agree with the scalar block tier
        // bit-for-bit on real summarization data.
        let n = 96;
        let data = dataset(24, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 12, alphabet: 32, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        let ctx = QueryContext::new(&sfa, &data[7 * n..8 * n]);
        for g in 0..block.n_groups() {
            for bsf in [f32::INFINITY, 1.0] {
                let mut dispatched = [0.0f32; BLOCK_LANES];
                let mut scalar = [0.0f32; BLOCK_LANES];
                let a1 = mindist_block(&ctx, &block, g, bsf, &mut dispatched);
                let a2 = sofa_simd::block_lower_bound_scalar(
                    ctx.values(),
                    ctx.weights(),
                    block.group_bounds(g),
                    bsf,
                    &mut scalar,
                );
                assert_eq!(a1, a2, "group {g} abandon decision");
                for i in 0..BLOCK_LANES {
                    assert_eq!(dispatched[i].to_bits(), scalar[i].to_bits(), "group {g} lane {i}");
                }
            }
        }
    }

    #[test]
    fn masked_block_matches_unmasked_on_live_lanes() {
        let n = 64;
        let data = dataset(30, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        let ctx = QueryContext::new(&sfa, &data[3 * n..4 * n]);
        let mut full = [0.0f32; BLOCK_LANES];
        let mut masked = [0.0f32; BLOCK_LANES];
        for g in 0..block.n_groups() {
            let a_full = mindist_block(&ctx, &block, g, f32::INFINITY, &mut full);
            // Full mask is the unmasked sweep, bit for bit.
            let a_masked = mindist_block_masked(&ctx, &block, g, f32::INFINITY, 0xFF, &mut masked);
            assert_eq!(a_full, a_masked);
            for i in 0..BLOCK_LANES {
                assert_eq!(full[i].to_bits(), masked[i].to_bits(), "group {g} lane {i}");
            }
            // A partial mask keeps live lanes bitwise identical and pins
            // dead lanes to +inf.
            let live = 0b0110_1001u8;
            let _ = mindist_block_masked(&ctx, &block, g, f32::INFINITY, live, &mut masked);
            for i in 0..BLOCK_LANES {
                if live & (1 << i) != 0 {
                    assert_eq!(full[i].to_bits(), masked[i].to_bits(), "group {g} lane {i}");
                } else {
                    assert_eq!(masked[i], f32::INFINITY, "group {g} dead lane {i}");
                }
            }
        }
    }

    #[test]
    fn raw_parts_roundtrip_is_bit_identical() {
        let n = 64;
        let data = dataset(21, n);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let words = words_of(&sfa, &data, n);
        let block = WordBlock::build(&sfa, &words);
        let rebuilt =
            WordBlock::from_raw_parts(block.n(), block.word_len(), block.bounds().to_vec())
                .expect("valid shape");
        assert_eq!(block, rebuilt);
        // Shape violations are rejected, not absorbed.
        assert!(WordBlock::from_raw_parts(21, 16, vec![0.0; 7]).is_err());
        assert!(WordBlock::from_raw_parts(21, 0, vec![]).is_err());
    }

    #[test]
    fn empty_words_build_empty_block() {
        let n = 64;
        let data = dataset(10, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let block = WordBlock::build(&sax, &[]);
        assert_eq!(block.n(), 0);
        assert_eq!(block.n_groups(), 0);
        assert_eq!(block.heap_bytes(), 0);
        let _ = data;
    }
}
