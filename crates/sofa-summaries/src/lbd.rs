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
//! Three kernels are provided:
//!
//! * [`mindist_scalar`] — reference implementation with per-position `if`s;
//! * [`mindist_simd`] — Algorithm 3: 8-lane blocks, the three conditions
//!   evaluated as comparison masks and blended branchlessly, partial sums
//!   checked against the best-so-far distance after every block (early
//!   abandoning);
//! * [`mindist_node`] — variable-cardinality variant for tree nodes, where
//!   each position carries only a bit-prefix of its symbol and the interval
//!   is the union of all bins sharing that prefix.

use crate::traits::Summarization;
use sofa_simd::{F32x8, LANES};
use std::borrow::Cow;

/// Query-*independent* evaluation state for one summarization model:
/// breakpoint tables, lower-bound weights and alphabet geometry — everything
/// a [`QueryContext`] needs except the query's own values.
///
/// Built once per index (cloning the model's tables, a few KB) and shared
/// by every query, so constructing a per-query context is allocation-free:
/// the serving path's fixed per-query cost is one transform into a reused
/// buffer instead of three vector allocations plus table gathering.
#[derive(Clone, Debug)]
pub struct QueryEnv {
    /// Breakpoint table per position (cloned from the model once).
    tables: Vec<Vec<f32>>,
    /// Lower-bound weight per position.
    weights: Vec<f32>,
    /// Alphabet size (shared across positions).
    alphabet: usize,
    /// Bits per symbol.
    bits: u8,
}

impl QueryEnv {
    /// Captures the model's breakpoint tables and weights.
    #[must_use]
    pub fn new(summarization: &dyn Summarization) -> Self {
        let l = summarization.word_len();
        QueryEnv {
            tables: (0..l).map(|j| summarization.breakpoints(j).to_vec()).collect(),
            weights: (0..l).map(|j| summarization.weight(j)).collect(),
            alphabet: summarization.alphabet(),
            bits: summarization.symbol_bits(),
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
/// the SoA block builder in [`crate::block`] (the bit-for-bit
/// block-vs-scalar guarantee rests on there being exactly one copy).
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

/// Interval covered by a node's `bits`-bit `prefix` at one position: the
/// union of all full-cardinality symbols sharing the prefix, unbounded
/// for zero-bit (unconstrained) positions.
#[inline]
#[must_use]
pub(crate) fn prefix_interval(
    prefix: u8,
    bits: u8,
    symbol_bits: u8,
    alphabet: usize,
    bp: &[f32],
) -> (f32, f32) {
    debug_assert!(bits <= symbol_bits);
    if bits == 0 {
        return (f32::NEG_INFINITY, f32::INFINITY);
    }
    let shift = symbol_bits - bits;
    let lo_sym = (prefix as usize) << shift;
    let hi_sym = (((prefix as usize) + 1) << shift) - 1;
    symbols_interval(bp, alphabet, lo_sym, hi_sym)
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
    /// key `key` — equal to `mindist_node` over the root's 1-bit prefixes.
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

/// SIMD mindist (squared) with early abandoning — the paper's Algorithm 3.
///
/// Processes the word in 8-lane blocks. Per block: gather the lower/upper
/// breakpoints of each candidate symbol, compute the three candidate
/// distances (to the lower breakpoint, to the upper breakpoint, zero),
/// build the `below`/`above` comparison masks, blend branchlessly, square,
/// weight, and accumulate. After each block the partial sum is compared to
/// `bsf_sq`; once it exceeds the best-so-far the word can be pruned and the
/// partial sum is returned (callers treat any value `> bsf_sq` as
/// "pruned").
///
/// # Panics
/// Panics if `word.len() != ctx.word_len()`.
#[must_use]
pub fn mindist_simd(ctx: &QueryContext<'_>, word: &[u8], bsf_sq: f32) -> f32 {
    assert_eq!(word.len(), ctx.word_len());
    let env = ctx.env();
    let l = word.len();
    let mut sum = 0.0f32;
    let chunks = l / LANES;
    for c in 0..chunks {
        let base = c * LANES;
        // Scalar gathers of the interval bounds for the 8 candidate
        // symbols (the paper's Gather_bound step).
        let mut lo = [0.0f32; LANES];
        let mut hi = [0.0f32; LANES];
        for i in 0..LANES {
            let j = base + i;
            let s = word[j] as usize;
            let (l_, h_) = env.interval(j, s, s);
            lo[i] = l_;
            hi[i] = h_;
        }
        let vq = F32x8::from_slice(&ctx.values[base..]);
        let vlo = F32x8::from_array(lo);
        let vhi = F32x8::from_array(hi);
        let vw = F32x8::from_slice(&env.weights[base..]);
        // Caldist: the two non-zero branch results.
        let d_below = vlo - vq; // positive where q < lo
        let d_above = vq - vhi; // positive where q > hi
                                // Genmask: the branch conditions.
        let m_below = vq.lt(vlo);
        let m_above = vq.gt(vhi);
        // Blend instead of branching; the zero branch is the fallthrough.
        let d = F32x8::select(m_below, d_below, F32x8::select(m_above, d_above, F32x8::zero()));
        sum += (vw * d * d).horizontal_sum();
        // Early abandoning against the best-so-far (per-block check).
        if sum > bsf_sq {
            return sum;
        }
    }
    // Scalar tail for word lengths that are not a multiple of 8.
    #[allow(clippy::needless_range_loop)] // parallel indexing into word/values
    for j in chunks * LANES..l {
        let s = word[j] as usize;
        let (lo, hi) = env.interval(j, s, s);
        let d = interval_dist(ctx.values[j], lo, hi);
        sum += env.weights[j] * d * d;
    }
    sum
}

/// Mindist (squared) between the query and a *node* summary with variable
/// cardinality: position `j` stores only the `bits[j]` most significant
/// bits of its symbol, so the symbol is known only up to the range of
/// full-cardinality symbols sharing that prefix. Used to order and prune
/// index subtrees (a superset interval can only shrink the distance, so the
/// bound stays valid).
///
/// # Panics
/// Panics if slice lengths disagree with the context's word length.
#[must_use]
#[allow(clippy::needless_range_loop)] // parallel indexing into prefixes/bits/values
pub fn mindist_node(ctx: &QueryContext<'_>, prefixes: &[u8], bits: &[u8]) -> f32 {
    assert_eq!(prefixes.len(), ctx.word_len());
    assert_eq!(bits.len(), ctx.word_len());
    let env = ctx.env();
    let full_bits = env.bits;
    let mut sum = 0.0f32;
    for j in 0..prefixes.len() {
        let b = bits[j];
        if b == 0 {
            continue; // interval covers everything: distance 0
        }
        let (lo, hi) = prefix_interval(prefixes[j], b, full_bits, env.alphabet, &env.tables[j]);
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
    use crate::sax::{ISax, SaxConfig};
    use crate::sfa::{Sfa, SfaConfig};
    use crate::traits::Summarization;
    use sofa_simd::euclidean_sq;

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
    fn simd_matches_scalar_without_abandoning() {
        let n = 64;
        let data = dataset(300, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 64, ..Default::default() });
        let mut t = sfa.transformer();
        let q = &data[7 * n..8 * n];
        let ctx = QueryContext::new(&sfa, q);
        for c in data.chunks(n).take(200) {
            let w = t.word(c, 16);
            let s = mindist_scalar(&ctx, &w);
            let v = mindist_simd(&ctx, &w, f32::INFINITY);
            assert!((s - v).abs() <= 1e-4 * s.max(1.0), "scalar={s} simd={v}");
        }
    }

    #[test]
    fn simd_handles_ragged_word_lengths() {
        let n = 64;
        let data = dataset(300, n, mixed_signal);
        for l in [3usize, 7, 9, 12, 15] {
            let sfa =
                Sfa::learn(&data, n, &SfaConfig { word_len: l, alphabet: 8, ..Default::default() });
            let mut t = sfa.transformer();
            let q = &data[n..2 * n];
            let ctx = QueryContext::new(&sfa, q);
            for c in data.chunks(n).take(50) {
                let w = t.word(c, l);
                let s = mindist_scalar(&ctx, &w);
                let v = mindist_simd(&ctx, &w, f32::INFINITY);
                assert!((s - v).abs() <= 1e-4 * s.max(1.0), "l={l}: {s} vs {v}");
            }
        }
    }

    #[test]
    fn simd_early_abandon_returns_excess() {
        let n = 64;
        let data = dataset(200, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 256, ..Default::default() });
        let mut t = sfa.transformer();
        // A query very different from a candidate: tiny BSF forces pruning.
        let q = &data[..n];
        let ctx = QueryContext::new(&sfa, q);
        let c = &data[50 * n..51 * n];
        let w = t.word(c, 16);
        let full = mindist_scalar(&ctx, &w);
        if full > 0.0 {
            let r = mindist_simd(&ctx, &w, full * 1e-6);
            assert!(r > full * 1e-6, "must signal pruning");
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
            assert_eq!(mindist_simd(&ctx, &w, f32::INFINITY), 0.0);
        }
    }

    #[test]
    fn node_mindist_lower_bounds_leaf_mindist() {
        // Coarsening the cardinality must never increase the distance.
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
                let prefixes: Vec<u8> = if bits == 0 {
                    vec![0; 8]
                } else {
                    w.iter().map(|&s| s >> (8 - bits)).collect()
                };
                let bvec = vec![bits; 8];
                let node = mindist_node(&ctx, &prefixes, &bvec);
                assert!(
                    node <= leaf * (1.0 + 1e-4) + 1e-5,
                    "bits={bits}: node={node} > leaf={leaf}"
                );
            }
        }
    }

    #[test]
    fn root_lbd_matches_mindist_node_on_one_bit_prefixes() {
        let n = 64;
        let data = dataset(300, n, mixed_signal);
        let sfa =
            Sfa::learn(&data, n, &SfaConfig { word_len: 16, alphabet: 256, ..Default::default() });
        let mut t = sfa.transformer();
        let q = &data[4 * n..5 * n];
        let ctx = QueryContext::new(&sfa, q);
        let root = RootLbd::new(&ctx);
        for c in data.chunks(n).take(100) {
            let w = t.word(c, 16);
            // Root key: top bit of each symbol; compare the fast XOR
            // evaluation with the generic node mindist at bits = 1.
            let mut key = 0u64;
            let prefixes: Vec<u8> = w.iter().map(|&s| s >> 7).collect();
            for (j, &p) in prefixes.iter().enumerate() {
                key |= u64::from(p) << j;
            }
            let fast = root.eval(key);
            let generic = mindist_node(&ctx, &prefixes, &[1u8; 16]);
            assert!(
                (fast - generic).abs() <= 1e-4 * generic.max(1.0),
                "fast={fast} generic={generic}"
            );
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
        assert_eq!(mindist_node(&ctx, &[0, 0, 0, 0], &[0, 0, 0, 0]), 0.0);
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
            let node = mindist_node(&ctx, &w, &[8; 8]);
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
                // Coarser (node-prefix) mindists give looser, still-valid
                // bounds.
                let prefixes: Vec<u8> = w.iter().map(|&s| s >> 4).collect();
                let node_bound =
                    ip_bound_from_mindist(n, mindist_node(&ctx, &prefixes, &[2u8; 16]));
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
