//! Lower-bounding distance (mindist) kernels — paper §IV-E3 and §IV-H.
//!
//! The mindist between a query's exact values and a candidate's word is
//!
//! ```text
//! lbd^2 = sum_j w_j * dist_j(q_j, interval(word_j))^2
//! dist_j(q, [lo, hi)) = lo - q   if q < lo
//!                       q - hi   if q > hi      (paper Eq. 2)
//!                       0        otherwise
//! ```
//!
//! where `interval(word_j)` spans the breakpoints around symbol `word_j`
//! (learned per position for SFA, fixed N(0,1) quantiles for iSAX), and the
//! weights `w_j` make the sum a lower bound of the true squared Euclidean
//! distance (Parseval factors for SFA, segment lengths for SAX).
//!
//! [`mindist_scalar`] is the reference word kernel, with per-position
//! `if`s. Every candidate word the index prices goes through a second, in
//! `sofa-simd`: [`QueryContext::lut_into`] tabulates the per-position
//! term `w_j · dist_j²` for all 256 symbols once per query, and
//! `lut_lower_bound` prices 8 words per call by summing table entries,
//! with no interval arithmetic left in the sweep and an early-abandon
//! check against the best-so-far every 4 positions. This is the paper's
//! Algorithm 3 (8 candidates per SIMD call, branch-free, early
//! abandoning) with the three-way interval test moved into the table.
//! [`QueryContext::envelope_mindist`] prices a whole set of words at once
//! from its per-position min/max symbols (an index node's envelope) with
//! the same operations, so it never exceeds any member's table sum; it is
//! the index's only node bound. [`RootLbd`] prices a subtree's root key —
//! the half-lines its top bits pin — in a few bit operations, equal to
//! the envelope bound of those half-lines.

use crate::traits::Summarization;
use sofa_simd::LUT_STRIDE;
use std::borrow::Cow;

/// Query-*independent* evaluation state for one summarization model:
/// breakpoint tables, every symbol's interval, lower-bound weights and
/// alphabet geometry — everything a [`QueryContext`] needs except the
/// query's own values.
///
/// Built once per index (cloning the model's tables, a few tens of KB) and
/// shared by every query, so constructing a per-query context is
/// allocation-free: the serving path's fixed per-query cost is one
/// transform into a reused buffer instead of three vector allocations plus
/// table gathering.
#[derive(Clone, Debug)]
pub struct QueryEnv {
    /// Breakpoint table per position (cloned from the model once).
    tables: Vec<Vec<f32>>,
    /// Interval of symbol `s` at position `j` at `[j * 256 + s]`: lower
    /// ends in `lo`, upper ends in `hi`. Symbols past the alphabet are
    /// unbounded on both sides.
    lo: Vec<f32>,
    hi: Vec<f32>,
    /// Lower-bound weight per position.
    weights: Vec<f32>,
    /// Alphabet size (shared across positions).
    alphabet: usize,
}

impl QueryEnv {
    /// Captures the model's breakpoint tables and weights, and resolves
    /// every symbol's interval.
    #[must_use]
    pub fn new(summarization: &dyn Summarization) -> Self {
        let l = summarization.word_len();
        let alphabet = summarization.alphabet();
        let tables: Vec<Vec<f32>> = (0..l).map(|j| summarization.breakpoints(j).to_vec()).collect();
        let mut lo = vec![f32::NEG_INFINITY; l * LUT_STRIDE];
        let mut hi = vec![f32::INFINITY; l * LUT_STRIDE];
        for (j, bp) in tables.iter().enumerate() {
            for s in 0..alphabet.min(LUT_STRIDE) {
                (lo[j * LUT_STRIDE + s], hi[j * LUT_STRIDE + s]) =
                    symbols_interval(bp, alphabet, s, s);
            }
        }
        QueryEnv {
            tables,
            lo,
            hi,
            weights: (0..l).map(|j| summarization.weight(j)).collect(),
            alphabet,
        }
    }

    /// Word length of the model this environment was built from.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.weights.len()
    }

    /// Interval `[lo, hi]` covered by symbols `lo_sym ..= hi_sym` at
    /// position `j`, with infinities at the edges.
    #[inline]
    fn interval(&self, j: usize, lo_sym: usize, hi_sym: usize) -> (f32, f32) {
        symbols_interval(&self.tables[j], self.alphabet, lo_sym, hi_sym)
    }
}

/// Interval covered by full-cardinality symbols `lo_sym ..= hi_sym` of a
/// breakpoint table, with infinities at the alphabet edges — the one
/// implementation of the edge rule, shared by the scalar kernels here and
/// [`QueryEnv`]'s per-symbol intervals (the symbol table agrees with the
/// scalar kernels because there is exactly one copy).
#[inline]
#[must_use]
pub(crate) fn symbols_interval(
    bp: &[f32],
    alphabet: usize,
    lo_sym: usize,
    hi_sym: usize,
) -> (f32, f32) {
    let lo = if lo_sym == 0 { f32::NEG_INFINITY } else { bp[lo_sym - 1] };
    let hi = if hi_sym + 1 >= alphabet { f32::INFINITY } else { bp[hi_sym] };
    (lo, hi)
}

/// Precomputed query-side state for mindist evaluation against many words
/// of one summarization model. Built once per query.
///
/// Two constructions exist: [`QueryContext::new`] owns everything (computes
/// the query values through a fresh transformer and clones the model's
/// tables — convenient for tests and one-off evaluation), while
/// [`QueryContext::borrowed`] wraps a shared [`QueryEnv`] and a
/// caller-owned values buffer without allocating — the index's serving
/// path, where contexts are rebuilt per query from pooled scratch.
pub struct QueryContext<'a> {
    /// Exact query values per word position.
    values: Cow<'a, [f32]>,
    /// Tables/weights/alphabet (owned or index-shared).
    env: Cow<'a, QueryEnv>,
}

impl<'a> QueryContext<'a> {
    /// Builds an owning context: computes the query's exact values through
    /// the model's transformer and captures breakpoint tables and weights.
    #[must_use]
    pub fn new(summarization: &'a dyn Summarization, query: &[f32]) -> Self {
        let l = summarization.word_len();
        let mut values = vec![0.0f32; l];
        summarization.transformer().query_values_into(query, &mut values);
        QueryContext { values: Cow::Owned(values), env: Cow::Owned(QueryEnv::new(summarization)) }
    }

    /// Wraps a shared environment and an already-computed values buffer
    /// (see [`crate::Summarization::query_values_reusing`]); performs no
    /// allocation.
    ///
    /// # Panics
    /// Panics if `values` does not match the environment's word length.
    #[must_use]
    pub fn borrowed(env: &'a QueryEnv, values: &'a [f32]) -> Self {
        assert_eq!(values.len(), env.word_len(), "values/environment word length mismatch");
        QueryContext { values: Cow::Borrowed(values), env: Cow::Borrowed(env) }
    }

    /// Word length.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.values.len()
    }

    /// The query's exact values (PAA means or DFT coefficients).
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The query's lower-bound weight per word position (Parseval factors
    /// for SFA, segment lengths for SAX) — the `w_j` fed to the mindist
    /// kernels alongside [`QueryContext::values`].
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.env.weights
    }

    /// The query's *word*: each exact value quantized against its
    /// position's breakpoint table. Identical to running the model's
    /// transformer on the query, but reuses the values already computed
    /// here (saves a second DFT per query on the index's hot path).
    #[must_use]
    pub fn word(&self) -> Vec<u8> {
        let mut w = Vec::new();
        self.word_into(&mut w);
        w
    }

    /// Buffer-reusing variant of [`QueryContext::word`]: clears `out` and
    /// fills it with the query's word, reusing `out`'s allocation. Query
    /// loops that summarize many queries against one model should hold one
    /// buffer and call this instead of allocating per call.
    pub fn word_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend(
            self.values
                .iter()
                .zip(self.env.tables.iter())
                .map(|(&v, bp)| bp.partition_point(|&b| b <= v) as u8),
        );
    }

    /// The query's symbol table for `sofa-simd`'s `lut_lower_bound`:
    /// clears `out` and fills it with `word_len × 256` entries,
    /// `out[j * 256 + s] = (w_j · d) · d` where
    /// `d = max(lo_s − q_j, q_j − hi_s, 0)` for symbol `s`'s interval
    /// `[lo_s, hi_s]` at position `j` — the same operations, in the same
    /// order, as the interval kernel `block_lower_bound`, so sums over the
    /// table are bit-identical to it. Symbols past the alphabet get `0.0`
    /// (an unbounded interval), which is still a valid bound. Performs no
    /// allocation once `out` has that capacity.
    pub fn lut_into(&self, out: &mut Vec<f32>) {
        let env = self.env();
        out.clear();
        for (j, (&q, &w)) in self.values.iter().zip(env.weights.iter()).enumerate() {
            let row = j * LUT_STRIDE..(j + 1) * LUT_STRIDE;
            out.extend(env.lo[row.clone()].iter().zip(&env.hi[row]).map(|(&lo, &hi)| {
                let d = (lo - q).max(q - hi).max(0.0);
                (w * d) * d
            }));
        }
    }

    /// Squared lower bound between the query and every word whose symbol
    /// at each position `j` lies in `min_syms[j] ..= max_syms[j]` (a leaf's
    /// symbol envelope): sums `(w_j · d) · d` in ascending `j` from `0.0`,
    /// with `d = max(lo[min_j] − q_j, q_j − hi[max_j], 0)`. These are the
    /// operations of [`QueryContext::lut_into`], in the same order, on an
    /// interval that contains each member symbol's interval, so the result
    /// is `<=` every member word's symbol-table sum in `f32` — and `>=`
    /// [`RootLbd::eval`] of the root key the members share.
    ///
    /// # Panics
    /// Panics if either slice is shorter than the word length.
    #[must_use]
    pub fn envelope_mindist(&self, min_syms: &[u8], max_syms: &[u8]) -> f32 {
        let env = self.env();
        let mut sum = 0.0f32;
        for (j, (&q, &w)) in self.values.iter().zip(env.weights.iter()).enumerate() {
            let lo = env.lo[j * LUT_STRIDE + usize::from(min_syms[j])];
            let hi = env.hi[j * LUT_STRIDE + usize::from(max_syms[j])];
            let d = (lo - q).max(q - hi).max(0.0);
            sum += (w * d) * d;
        }
        sum
    }

    /// The environment, hoisted once so hot loops skip the per-access
    /// `Cow` discriminant check.
    #[inline]
    fn env(&self) -> &QueryEnv {
        &self.env
    }
}

/// Precomputed lower bounds against *root-level* node summaries.
///
/// A subtree root carries exactly one bit per position (its root key), so
/// its interval at position `j` is one of two half-lines split at the
/// midpoint breakpoint. The query value lies inside one of them
/// (contributing 0) and at some distance from the other. Root mindists
/// therefore reduce to a sum of per-position penalties over the bits where
/// the root key differs from the query's key — evaluated with a couple of
/// bit operations per differing bit instead of a full 16-position loop.
/// The index's collect phase scans *every* subtree root per query, so this
/// is one of its hottest paths.
pub struct RootLbd {
    /// The query's own root key (positions where the penalty is zero).
    qkey: u64,
    /// Penalty at position `j` when the root's bit differs from the
    /// query's: `w_j * dist(q_j, opposite half-line)^2`.
    penalties: Vec<f32>,
}

impl RootLbd {
    /// Builds the table from a query context.
    ///
    /// # Panics
    /// Panics if the word is longer than 64 positions.
    #[must_use]
    pub fn new(ctx: &QueryContext<'_>) -> Self {
        let mut root = RootLbd { qkey: 0, penalties: Vec::with_capacity(ctx.word_len()) };
        root.rebuild(ctx);
        root
    }

    /// An empty table awaiting [`RootLbd::rebuild`] — the shape held in
    /// reusable query scratch.
    #[must_use]
    pub fn empty() -> Self {
        RootLbd { qkey: 0, penalties: Vec::new() }
    }

    /// Recomputes the table for a new query, reusing the penalty buffer
    /// (allocation-free once the buffer has reached the word length).
    ///
    /// # Panics
    /// Panics if the word is longer than 64 positions.
    pub fn rebuild(&mut self, ctx: &QueryContext<'_>) {
        let l = ctx.word_len();
        assert!(l <= 64, "root keys support at most 64 positions");
        let env = ctx.env();
        let half = env.alphabet / 2;
        self.qkey = 0;
        self.penalties.clear();
        for j in 0..l {
            let mid = env.tables[j][half - 1];
            let q = ctx.values[j];
            // Query's side of the midpoint = its key bit.
            let bit = u64::from(q >= mid);
            self.qkey |= bit << j;
            // Distance to the *other* half-line is the distance to `mid`.
            let d = q - mid;
            self.penalties.push(env.weights[j] * d * d);
        }
    }

    /// The query's root key.
    #[must_use]
    pub fn query_key(&self) -> u64 {
        self.qkey
    }

    /// Squared lower bound between the query and the subtree with root
    /// key `key` — bit for bit the [`QueryContext::envelope_mindist`] of
    /// the key's half-lines (position `j` spans the lower half of the
    /// alphabet when key bit `j` is 0, the upper half when it is 1).
    #[inline]
    #[must_use]
    pub fn eval(&self, key: u64) -> f32 {
        let mut diff = key ^ self.qkey;
        let mut sum = 0.0f32;
        while diff != 0 {
            let j = diff.trailing_zeros() as usize;
            sum += self.penalties[j];
            diff &= diff - 1;
        }
        sum
    }
}

/// Distance from `q` to the closed interval `[lo, hi]` (0 inside).
#[inline(always)]
fn interval_dist(q: f32, lo: f32, hi: f32) -> f32 {
    if q < lo {
        lo - q
    } else if q > hi {
        q - hi
    } else {
        0.0
    }
}

/// Reference scalar mindist (squared) between the query and a full-
/// cardinality word.
///
/// # Panics
/// Panics if `word.len() != ctx.word_len()`.
#[must_use]
#[allow(clippy::needless_range_loop)] // parallel indexing into word/values/weights
pub fn mindist_scalar(ctx: &QueryContext<'_>, word: &[u8]) -> f32 {
    assert_eq!(word.len(), ctx.word_len());
    let env = ctx.env();
    let mut sum = 0.0f32;
    for j in 0..word.len() {
        let s = word[j] as usize;
        let (lo, hi) = env.interval(j, s, s);
        let d = interval_dist(ctx.values[j], lo, hi);
        sum += env.weights[j] * d * d;
    }
    sum
}

// ---------------------------------------------------------------------
// Parseval inner-product bounds (cosine / MIPS over z-normalized series)
// ---------------------------------------------------------------------
//
// Over z-normalized series every vector's squared norm is (numerically)
// the series length `n`, so maximizing the inner product is minimizing
// the **IP score**
//
// ```text
// score(q, x) = 2n - dot(q, x)
// ```
//
// which is non-negative (dot <= ||q||·||x|| ~ n <= 2n), ascending-is-better,
// and therefore drops into the same k-best / atomic-bound machinery as a
// squared Euclidean distance. The polarization identity
//
// ```text
// dot(q, x) = (||q||² + ||x||² - ||q - x||²) / 2
// ```
//
// turns any Euclidean *lower* bound into an inner-product *upper* bound —
// and the SFA/iSAX mindist is exactly such a bound (Parseval keeps the
// DFT-domain sum below the time-domain distance). Substituting
// `||q||² = ||x||² = n` and `mindist² <= ||q - x||²`:
//
// ```text
// score(q, x) >= n + mindist²/2 - margin
// ```
//
// where `margin` absorbs how far the float z-normalized norms actually
// sit from `n` (|‖v‖² − n| is a few n·ε after an f32 mean/std pass;
// constant rows z-normalize to all-zeros, whose ‖x‖² = 0 only *raises*
// the true score, so the bound stays valid). [`IP_MARGIN_SCALE`] is ~100×
// the observed residual — slack that costs a negligible amount of pruning
// and is what lets the engine answer IP queries *exactly* (the in-suite
// oracle gate would catch any insufficiency).

/// Safety margin for the IP bounds, as a fraction of the series length:
/// `margin = n * IP_MARGIN_SCALE`. Covers the float residual between a
/// z-normalized vector's true squared norm and `n`.
pub const IP_MARGIN_SCALE: f64 = 1e-3;

/// The IP score `2n - dot` — the minimized quantity of cosine/MIPS
/// queries over z-normalized series. Non-negative, ascending-is-better.
#[inline]
#[must_use]
pub fn ip_score(n: usize, dot: f32) -> f32 {
    2.0 * n as f32 - dot
}

/// Recovers the inner product from an IP score (`dot = 2n - score`).
#[inline]
#[must_use]
pub fn ip_from_score(n: usize, score: f32) -> f32 {
    2.0 * n as f32 - score
}

/// Lower-bounds a candidate's IP score from its Euclidean mindist
/// (squared): `n + mindist²/2 - n·IP_MARGIN_SCALE`. Any candidate whose
/// bound exceeds the current k-th best score cannot enter the result set.
#[inline]
#[must_use]
pub fn ip_bound_from_mindist(n: usize, mindist_sq: f32) -> f32 {
    let nn = n as f64;
    ((nn + f64::from(mindist_sq) * 0.5) - nn * IP_MARGIN_SCALE) as f32
}

/// Converts an IP-score bound `B` into the Euclidean-domain pruning
/// radius the L2 kernels understand: a candidate with
/// `mindist² >= ip_l2_radius(n, B)` has `score >= B` and is prunable.
/// Inverse of [`ip_bound_from_mindist`]; may be negative (nothing can
/// beat `B` — every non-negative mindist prunes) or `+inf` (`B` itself
/// infinite — nothing prunes).
#[inline]
#[must_use]
pub fn ip_l2_radius(n: usize, score_bound: f32) -> f32 {
    if score_bound == f32::INFINITY {
        return f32::INFINITY;
    }
    let nn = n as f64;
    (2.0 * (f64::from(score_bound) - nn + nn * IP_MARGIN_SCALE)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcb::BinningStrategy;
    use crate::sax::{ISax, SaxConfig};
    use crate::sfa::{Sfa, SfaConfig};
    use crate::traits::Summarization;
    use sofa_simd::{euclidean_sq, LANES};

    fn dataset(count: usize, n: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        let mut data = Vec::with_capacity(count * n);
        for r in 0..count {
            for t in 0..n {
                data.push(f(r, t));
            }
        }
        for row in data.chunks_mut(n) {
            sofa_simd::znormalize(row);
        }
        data
    }

    fn mixed_signal(r: usize, t: usize) -> f32 {
        let x = t as f32;
        ((x * 0.21 + r as f32).sin())
            + 0.6 * ((x * 0.83 + (r * 7) as f32).cos())
            + 0.3 * ((x * (1.0 + (r % 11) as f32 * 0.13)).sin())
    }

    #[test]
    fn lut_sums_equal_scalar_mindist_bitwise() {
        let n = 64;
        let data = dataset(40, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        for summ in [&sfa as &dyn Summarization, &sax] {
            let l = summ.word_len();
            let mut t = summ.transformer();
            let mut words = vec![0u8; 40 * l];
            for (series, word) in data.chunks(n).zip(words.chunks_mut(l)) {
                t.word_into(series, word);
            }
            let ctx = QueryContext::new(summ, &data[5 * n..6 * n]);
            let mut lut = Vec::new();
            ctx.lut_into(&mut lut);
            assert_eq!(lut.len(), l * LUT_STRIDE);
            let mut out = [0.0f32; LANES];
            for group in words.chunks_exact(LANES * l) {
                assert!(!sofa_simd::lut_lower_bound(&lut, group, f32::INFINITY, 0xFF, &mut out));
                for (lane, word) in group.chunks_exact(l).enumerate() {
                    let scalar = mindist_scalar(&ctx, word);
                    assert_eq!(out[lane].to_bits(), scalar.to_bits(), "lane {lane}");
                }
            }
            // Symbols past a smaller alphabet price zero.
            if summ.alphabet() < 256 {
                assert!(lut
                    .chunks_exact(LUT_STRIDE)
                    .all(|row| row[summ.alphabet()..].iter().all(|&e| e == 0.0)));
            }
        }
    }

    #[test]
    fn sfa_mindist_lower_bounds_true_distance() {
        let n = 64;
        let data = dataset(400, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 16, ..Default::default() });
        let mut t = sfa.transformer();
        let queries = dataset(20, n, |r, t| mixed_signal(r + 1000, t + 3));
        for q in queries.chunks(n) {
            let ctx = QueryContext::new(&sfa, q);
            for c in data.chunks(n).take(100) {
                let w = t.word(c, 16);
                let lbd = mindist_scalar(&ctx, &w);
                let ed = euclidean_sq(q, c);
                assert!(lbd <= ed * (1.0 + 1e-3) + 1e-3, "lbd={lbd} > ed={ed}");
            }
        }
    }

    #[test]
    fn sax_mindist_lower_bounds_true_distance() {
        let n = 96;
        let data = dataset(300, n, mixed_signal);
        let sax = ISax::new(n, &SaxConfig { word_len: 16, alphabet: 256 });
        let mut t = sax.transformer();
        let queries = dataset(15, n, |r, t| mixed_signal(r + 500, t + 1));
        for q in queries.chunks(n) {
            let ctx = QueryContext::new(&sax, q);
            for c in data.chunks(n).take(100) {
                let w = t.word(c, 16);
                let lbd = mindist_scalar(&ctx, &w);
                let ed = euclidean_sq(q, c);
                assert!(lbd <= ed * (1.0 + 1e-3) + 1e-3, "lbd={lbd} > ed={ed}");
            }
        }
    }

    #[test]
    fn mindist_to_own_word_is_zero() {
        let n = 64;
        let data = dataset(300, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 32, ..Default::default() });
        let mut t = sfa.transformer();
        for c in data.chunks(n).take(50) {
            let ctx = QueryContext::new(&sfa, c);
            let w = t.word(c, 16);
            assert_eq!(mindist_scalar(&ctx, &w), 0.0);
        }
    }

    /// The envelope of every symbol sharing each of `word`'s top `bits`
    /// bits (of `symbol_bits`): what a tree node knows of the word when
    /// it has split that deep at every position.
    fn prefix_envelope(word: &[u8], bits: u8, symbol_bits: u8) -> (Vec<u8>, Vec<u8>) {
        let span = (1usize << (symbol_bits - bits)) - 1;
        let min: Vec<u8> = word.iter().map(|&s| (usize::from(s) & !span) as u8).collect();
        let max = min.iter().map(|&s| (usize::from(s) | span) as u8).collect();
        (min, max)
    }

    #[test]
    fn node_mindist_lower_bounds_leaf_mindist() {
        // Widening a node's envelope must never increase the distance.
        let n = 64;
        let data = dataset(300, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 8, alphabet: 256, ..Default::default() });
        let mut t = sfa.transformer();
        let q = &data[3 * n..4 * n];
        let ctx = QueryContext::new(&sfa, q);
        for c in data.chunks(n).take(100) {
            let w = t.word(c, 8);
            let leaf = mindist_scalar(&ctx, &w);
            for bits in 0u8..=8 {
                let (min, max) = prefix_envelope(&w, bits, 8);
                let node = ctx.envelope_mindist(&min, &max);
                assert!(
                    node <= leaf * (1.0 + 1e-4) + 1e-5,
                    "bits={bits}: node={node} > leaf={leaf}"
                );
            }
        }
    }

    #[test]
    fn root_lbd_matches_envelope_mindist_on_half_lines() {
        let n = 64;
        let data = dataset(300, n, mixed_signal);
        let queries = dataset(12, n, |r, t| mixed_signal(r + 900, t + 3));
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 256, ..Default::default() });
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 16 });
        for summ in [&sfa as &dyn Summarization, &sax] {
            let l = summ.word_len();
            let mut t = summ.transformer();
            let top = summ.symbol_bits() - 1;
            for q in queries.chunks(n) {
                let ctx = QueryContext::new(summ, q);
                let root = RootLbd::new(&ctx);
                for c in data.chunks(n).take(100) {
                    // Each row's root key, and the half-lines it pins:
                    // `prefix_envelope` at one bit per position.
                    let w = t.word(c, l);
                    let key =
                        w.iter().enumerate().fold(0u64, |k, (j, &s)| k | u64::from(s >> top) << j);
                    let (min, max) = prefix_envelope(&w, 1, summ.symbol_bits());
                    let fast = root.eval(key);
                    let envelope = ctx.envelope_mindist(&min, &max);
                    assert_eq!(
                        fast.to_bits(),
                        envelope.to_bits(),
                        "fast={fast} envelope={envelope}"
                    );
                }
            }
        }
    }

    #[test]
    fn root_lbd_query_key_matches_query_word() {
        let n = 64;
        let data = dataset(300, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 8, alphabet: 64, ..Default::default() });
        let q = &data[n..2 * n];
        let ctx = QueryContext::new(&sfa, q);
        let root = RootLbd::new(&ctx);
        let qword = ctx.word();
        let mut expect = 0u64;
        for (j, &s) in qword.iter().enumerate() {
            expect |= u64::from(s >> 5) << j;
        }
        assert_eq!(root.query_key(), expect);
        // Zero penalty against the query's own key.
        assert_eq!(root.eval(expect), 0.0);
    }

    #[test]
    fn ctx_word_matches_transformer_word() {
        let n = 96;
        let data = dataset(200, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 12, alphabet: 32, ..Default::default() });
        let mut t = sfa.transformer();
        for c in data.chunks(n).take(40) {
            let ctx = QueryContext::new(&sfa, c);
            assert_eq!(ctx.word(), t.word(c, 12));
        }
    }

    #[test]
    fn node_mindist_zero_bits_is_zero() {
        let n = 32;
        let data = dataset(300, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 4, alphabet: 16, ..Default::default() });
        let q = &data[..n];
        let ctx = QueryContext::new(&sfa, q);
        // No known bit at any position: the envelope spans the alphabet.
        assert_eq!(ctx.envelope_mindist(&[0; 4], &[15; 4]), 0.0);
    }

    #[test]
    fn node_mindist_full_bits_equals_leaf() {
        let n = 64;
        let data = dataset(300, n, mixed_signal);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 256 });
        let mut t = sax.transformer();
        let q = &data[2 * n..3 * n];
        let ctx = QueryContext::new(&sax, q);
        for c in data.chunks(n).take(30) {
            let w = t.word(c, 8);
            let leaf = mindist_scalar(&ctx, &w);
            let node = ctx.envelope_mindist(&w, &w);
            assert!((leaf - node).abs() < 1e-5);
        }
    }

    #[test]
    fn ip_bound_lower_bounds_true_score() {
        // The Parseval IP bound must never exceed the true IP score, for
        // both SFA and iSAX summaries, across leaf words and coarse node
        // prefixes (any valid L2 mindist admits the conversion).
        let n = 64;
        let data = dataset(400, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let mut t = sfa.transformer();
        let queries = dataset(20, n, |r, t| mixed_signal(r + 700, t + 5));
        for q in queries.chunks(n) {
            let ctx = QueryContext::new(&sfa, q);
            for c in data.chunks(n).take(150) {
                let w = t.word(c, 16);
                let score = ip_score(n, sofa_simd::dot(q, c));
                assert!(score >= 0.0, "IP score must stay non-negative: {score}");
                let leaf_bound = ip_bound_from_mindist(n, mindist_scalar(&ctx, &w));
                assert!(leaf_bound <= score, "leaf bound {leaf_bound} > score {score}");
                // Coarser (node envelope) mindists give looser, still-valid
                // bounds.
                let (min, max) = prefix_envelope(&w, 2, 6);
                let node_bound = ip_bound_from_mindist(n, ctx.envelope_mindist(&min, &max));
                assert!(node_bound <= score, "node bound {node_bound} > score {score}");
            }
        }
    }

    #[test]
    fn ip_bound_holds_for_constant_rows() {
        // A constant row z-normalizes to all zeros: ||x||² = 0, dot = 0,
        // score = 2n. The bound (built assuming ||x||² ~ n) must still sit
        // below it.
        let n = 64;
        let mut data = dataset(200, n, mixed_signal);
        for v in data.iter_mut().take(n) {
            *v = 0.0; // row 0: an already-z-normalized constant row
        }
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 8, alphabet: 32, ..Default::default() });
        let mut t = sfa.transformer();
        let q = &data[5 * n..6 * n];
        let ctx = QueryContext::new(&sfa, q);
        let zero_row = &data[..n];
        let w = t.word(zero_row, 8);
        let score = ip_score(n, sofa_simd::dot(q, zero_row));
        let bound = ip_bound_from_mindist(n, mindist_scalar(&ctx, &w));
        assert!(bound <= score, "constant row: bound {bound} > score {score}");
    }

    #[test]
    fn ip_radius_inverts_ip_bound() {
        // Consistency: a candidate prunes via the radius exactly when its
        // converted bound meets the score bound (up to f64 rounding, which
        // the margin dwarfs).
        let n = 96;
        for b in [f32::INFINITY, 250.0, 192.5, 96.0, 10.0] {
            let r = ip_l2_radius(n, b);
            if b == f32::INFINITY {
                assert_eq!(r, f32::INFINITY);
                continue;
            }
            if r > 0.0 {
                // mindist just below the radius must not certify pruning…
                assert!(ip_bound_from_mindist(n, r * 0.999) < b);
            }
            // …while one at/above it must.
            assert!(ip_bound_from_mindist(n, r.max(0.0) * 1.001 + 1e-3) >= b * 0.999_999);
        }
        assert_eq!(ip_from_score(64, ip_score(64, 13.25)), 13.25);
    }

    /// SplitMix64: a seeded stream for the randomized envelope cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random set of words sharing one prefix label: per position, the
    /// members keep the anchor symbol's top `bits[j]` bits (at least the
    /// root bit) and draw the rest, often landing on the label's edge
    /// symbols. The anchor itself is often the alphabet's edge symbol
    /// `0` or `alphabet - 1`.
    fn shared_label_words(
        rng: &mut Rng,
        l: usize,
        symbol_bits: u8,
        members: usize,
    ) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let alphabet = 1usize << symbol_bits;
        let mut prefixes = vec![0u8; l];
        let mut bits = vec![0u8; l];
        for j in 0..l {
            let anchor = match rng.below(4) {
                0 => 0,
                1 => alphabet - 1,
                _ => rng.below(alphabet),
            };
            bits[j] = 1 + rng.below(usize::from(symbol_bits)) as u8;
            prefixes[j] = (anchor >> (symbol_bits - bits[j])) as u8;
        }
        let mut words = vec![0u8; members * l];
        for word in words.chunks_exact_mut(l) {
            for j in 0..l {
                let shift = symbol_bits - bits[j];
                let base = usize::from(prefixes[j]) << shift;
                let span = 1usize << shift;
                let offset = match rng.below(4) {
                    0 => 0,
                    1 => span - 1,
                    _ => rng.below(span),
                };
                word[j] = (base + offset) as u8;
            }
        }
        (words, prefixes, bits)
    }

    #[test]
    fn envelope_bound_is_sandwiched_between_node_and_member_bounds() {
        let mut rng = Rng(0x5EED_E17E);
        let n = 64;
        for case in 0..24 {
            let data = dataset(120, n, |r, t| mixed_signal(r + case * 131, t));
            let symbol_bits = [2u8, 3, 5, 8][case % 4];
            let alphabet = 1usize << symbol_bits;
            let word_len = [4usize, 8, 13, 16][rng.below(4)];
            let binning = if rng.below(2) == 0 {
                BinningStrategy::EquiWidth
            } else {
                BinningStrategy::EquiDepth
            };
            let summ: Box<dyn Summarization> = if case % 2 == 0 {
                let config = SfaConfig { word_len, alphabet, binning, ..Default::default() };
                Box::new(Sfa::learn(&data, n, &config))
            } else {
                let word_len = if word_len == 13 { 16 } else { word_len };
                Box::new(ISax::new(n, &SaxConfig { word_len, alphabet }))
            };
            let l = summ.word_len();
            // Queries: data rows, a scaled row that falls past the edge
            // breakpoints, and a constant one.
            let mut queries: Vec<Vec<f32>> =
                (0..3).map(|_| data[rng.below(120) * n..][..n].to_vec()).collect();
            queries.push(queries[0].iter().map(|v| v * 40.0).collect());
            queries.push(vec![0.5; n]);
            for q in &queries {
                let ctx = QueryContext::new(summ.as_ref(), q);
                let root = RootLbd::new(&ctx);
                let mut lut = Vec::new();
                ctx.lut_into(&mut lut);
                for _ in 0..12 {
                    let members = 1 + rng.below(20);
                    let (words, prefixes, bits) =
                        shared_label_words(&mut rng, l, summ.symbol_bits(), members);
                    let mut min = vec![u8::MAX; l];
                    let mut max = vec![0u8; l];
                    for word in words.chunks_exact(l) {
                        for j in 0..l {
                            min[j] = min[j].min(word[j]);
                            max[j] = max[j].max(word[j]);
                        }
                    }
                    let env = ctx.envelope_mindist(&min, &max);
                    let key = prefixes
                        .iter()
                        .zip(&bits)
                        .enumerate()
                        .fold(0u64, |k, (j, (&p, &b))| k | (u64::from(p >> (b - 1)) << j));
                    let gate = root.eval(key);
                    assert!(env >= gate, "case {case}: envelope {env} < root gate {gate}");
                    // Every member, on every kernel tier, in 8-lane groups
                    // padded by repeating the last word.
                    let mut padded = words.clone();
                    while padded.len() % (LANES * l) != 0 {
                        padded.extend_from_within(padded.len() - l..);
                    }
                    for group in padded.chunks_exact(LANES * l) {
                        let mut scalar = [0.0f32; LANES];
                        let mut dispatched = [0.0f32; LANES];
                        sofa_simd::lut_lower_bound_scalar(
                            &lut,
                            group,
                            f32::INFINITY,
                            0xFF,
                            &mut scalar,
                        );
                        sofa_simd::lut_lower_bound(
                            &lut,
                            group,
                            f32::INFINITY,
                            0xFF,
                            &mut dispatched,
                        );
                        for lane in 0..LANES {
                            assert!(
                                env <= scalar[lane] && env <= dispatched[lane],
                                "case {case}: envelope {env} > member sums {} / {}",
                                scalar[lane],
                                dispatched[lane]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tighter_alphabet_tightens_bound() {
        // Larger alphabets give narrower intervals, so mindist grows (or
        // stays equal) with alphabet size on average.
        let n = 64;
        let data = dataset(400, n, mixed_signal);
        let q = &data[9 * n..10 * n];
        let mut means = Vec::new();
        for alpha in [4usize, 16, 64, 256] {
            let sfa = Sfa::learn(
                &data,
                n,
                &SfaConfig { word_len: 8, alphabet: alpha, ..Default::default() },
            );
            let mut t = sfa.transformer();
            let ctx = QueryContext::new(&sfa, q);
            let mut total = 0.0f64;
            let mut count = 0usize;
            for c in data.chunks(n).skip(10).take(200) {
                let w = t.word(c, 8);
                total += f64::from(mindist_scalar(&ctx, &w));
                count += 1;
            }
            means.push(total / count as f64);
        }
        for pair in means.windows(2) {
            assert!(pair[1] >= pair[0] * 0.99, "means not monotone: {means:?}");
        }
    }
}
