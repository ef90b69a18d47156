//! The 8-candidates-at-a-time word lower-bound kernels.
//!
//! The per-word mindist kernel (paper Algorithm 3) vectorizes *within* one
//! candidate word: 8 word positions per step, with scalar gathers of each
//! symbol's quantization interval — one function call and one bound-table
//! walk per candidate. The kernels here take the transposed shape the
//! index's leaf sweep needs: **8 candidates per call, one position at a
//! time**, with whole-group early abandoning. Both add, per lane and
//! position, the term `(w_j·d)·d` with `d = max(lo − q_j, q_j − hi, 0)`
//! for the candidate's symbol interval `[lo, hi]`.
//!
//! * [`lut_lower_bound`] — what the index calls. The caller builds a
//!   per-query **symbol table** once (`lut[j*256 + s]` is the term for
//!   symbol `s` at position `j`), and the kernel sums table entries
//!   indexed by 8 candidates' raw `u8` words, read row-major straight
//!   from the index's word arena: 16 bytes of words per candidate where
//!   resolved `f32` intervals would be 128.
//! * [`block_lower_bound`] — the same sum over intervals resolved ahead of
//!   time into a structure-of-arrays layout. The index no longer calls it;
//!   it is the reference [`lut_lower_bound`] is tested against, and the
//!   benchmark's `simd.block_lb_ns` times it.
//!
//! ## Layout contracts
//!
//! [`block_lower_bound`]: for a group of 8 candidates and `l` word
//! positions, `bounds` holds `l * 16` floats: position `j` occupies
//! `bounds[j*16 .. j*16+16]` as 8 lower bounds followed by 8 upper bounds
//! (lane = candidate). `values` and `weights` hold the query's `l` exact
//! values and lower-bound weights.
//!
//! [`lut_lower_bound`]: `words` holds 8 row-major words (`8 * l` bytes,
//! lane `i`'s word at `words[i*l .. i*l+l]`) and `lut` holds `l * 256`
//! floats ([`LUT_STRIDE`] per position).
//!
//! ## Early abandoning
//!
//! After every 4 positions the 8 running sums are compared against
//! `bsf_sq`; once *every* lane exceeds the best-so-far the whole group is
//! abandoned (`true` is returned and `out` holds partial sums, all
//! `> bsf_sq`). Individual lanes cannot be retired early — they ride along
//! in the vector — but the caller skips them by comparing `out` against
//! its bound.
//!
//! Every tier performs identical operations in identical order (separate
//! multiply and add, no FMA), and a table entry is exactly the term the
//! interval kernel adds, so all tiers of both kernels produce bit-identical
//! sums; the property tests assert exactly that.

use crate::dispatch::{active_tier, KernelTier};
use crate::vector::{F32x8, LANES};

/// Candidates per block group (one 8-lane vector).
pub const BLOCK_LANES: usize = LANES;

/// `f32`s per word position in the bounds layout (8 lows + 8 highs).
pub const BOUNDS_STRIDE: usize = 2 * LANES;

/// `f32`s per word position in a symbol table: one per `u8` symbol.
pub const LUT_STRIDE: usize = 256;

fn check_layout(values: &[f32], weights: &[f32], bounds: &[f32]) {
    assert_eq!(weights.len(), values.len(), "one weight per word position");
    assert_eq!(
        bounds.len(),
        values.len() * BOUNDS_STRIDE,
        "bounds must hold 8 lows + 8 highs per word position"
    );
}

/// Reference scalar tier of the block lower bound. Same op order as the
/// vector tiers (position-major, `(w*d)*d`, abandon check every 4
/// positions) so results are bit-identical.
pub fn block_lower_bound_scalar(
    values: &[f32],
    weights: &[f32],
    bounds: &[f32],
    bsf_sq: f32,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    check_layout(values, weights, bounds);
    *out = [0.0; BLOCK_LANES];
    for (j, (&q, &w)) in values.iter().zip(weights.iter()).enumerate() {
        let pos = &bounds[j * BOUNDS_STRIDE..(j + 1) * BOUNDS_STRIDE];
        for lane in 0..BLOCK_LANES {
            let lo = pos[lane];
            let hi = pos[LANES + lane];
            let d = (lo - q).max(q - hi).max(0.0);
            out[lane] += (w * d) * d;
        }
        if j % 4 == 3 && out.iter().all(|&s| s > bsf_sq) {
            return true;
        }
    }
    out.iter().all(|&s| s > bsf_sq)
}

/// Portable [`F32x8`] tier of the block lower bound.
pub fn block_lower_bound_portable(
    values: &[f32],
    weights: &[f32],
    bounds: &[f32],
    bsf_sq: f32,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    check_layout(values, weights, bounds);
    let vbsf = F32x8::splat(bsf_sq);
    let zero = F32x8::zero();
    let mut acc = zero;
    for (j, (&q, &w)) in values.iter().zip(weights.iter()).enumerate() {
        let lo = F32x8::from_slice(&bounds[j * BOUNDS_STRIDE..]);
        let hi = F32x8::from_slice(&bounds[j * BOUNDS_STRIDE + LANES..]);
        let vq = F32x8::splat(q);
        let vw = F32x8::splat(w);
        let d = (lo - vq).max(vq - hi).max(zero);
        acc += (vw * d) * d;
        if j % 4 == 3 && acc.gt(vbsf).all() {
            *out = acc.to_array();
            return true;
        }
    }
    *out = acc.to_array();
    acc.gt(vbsf).all()
}

/// Lower-bounds 8 candidates against one query in a single sweep,
/// dispatched to the fastest available tier
/// ([`crate::dispatch::active_tier`]).
///
/// Writes each lane's squared lower bound (or a partial sum `> bsf_sq`
/// when the group was abandoned) into `out`; returns `true` when every
/// lane exceeds `bsf_sq` (whole group pruned). See the module docs for
/// the `bounds` layout.
///
/// # Panics
/// Panics if the slice lengths violate the layout contract.
#[inline]
pub fn block_lower_bound(
    values: &[f32],
    weights: &[f32],
    bounds: &[f32],
    bsf_sq: f32,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    match active_tier() {
        KernelTier::Scalar => block_lower_bound_scalar(values, weights, bounds, bsf_sq, out),
        KernelTier::Portable => block_lower_bound_portable(values, weights, bounds, bsf_sq, out),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            check_layout(values, weights, bounds);
            // SAFETY: the dispatcher selects Avx2 only when cpuid reports
            // AVX2+FMA, and the layout was checked above.
            crate::arch::x86::block_lower_bound_checked(values, weights, bounds, bsf_sq, out)
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => block_lower_bound_portable(values, weights, bounds, bsf_sq, out),
    }
}

fn check_lut_layout(lut: &[f32], words: &[u8]) -> usize {
    assert_eq!(words.len() % BLOCK_LANES, 0, "words must hold 8 whole words");
    let l = words.len() / BLOCK_LANES;
    assert_eq!(lut.len(), l * LUT_STRIDE, "symbol table must hold 256 entries per word position");
    l
}

/// Reference tier of the symbol-table lower bound, serving the Scalar and
/// Portable tiers. Same op order as the AVX2 tier (dead lanes seeded
/// `+inf`, one add per position, abandon check every 4 positions), so
/// results are bit-identical.
pub fn lut_lower_bound_scalar(
    lut: &[f32],
    words: &[u8],
    bsf_sq: f32,
    live: u8,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    let l = check_lut_layout(lut, words);
    for (lane, sum) in out.iter_mut().enumerate() {
        *sum = if live & (1 << lane) == 0 { f32::INFINITY } else { 0.0 };
    }
    for (j, row) in lut.chunks_exact(LUT_STRIDE).enumerate() {
        let row: &[f32; LUT_STRIDE] = row.try_into().expect("chunks_exact yields whole rows");
        for (lane, sum) in out.iter_mut().enumerate() {
            *sum += row[usize::from(words[lane * l + j])];
        }
        if j % 4 == 3 && out.iter().all(|&s| s > bsf_sq) {
            return true;
        }
    }
    out.iter().all(|&s| s > bsf_sq)
}

/// Lower-bounds 8 candidate words against one query through its symbol
/// table, dispatched to the fastest available tier.
///
/// Lane `i` sums `lut[j*256 + words[i*l + j]]` over positions `j`. Bit `i`
/// of `live` set means lane `i` participates; dead lanes (rows a filter
/// rejected) start at `+inf` and stay there (every table entry is finite),
/// so they satisfy every abandon checkpoint and fail the caller's
/// per-lane bound — a group whose live lanes are all pruned abandons
/// early. Writes each lane's squared lower bound (or a partial sum
/// `> bsf_sq` when the group was abandoned) into `out`; returns `true`
/// when every lane exceeds `bsf_sq`. See the module docs for the layout.
///
/// # Panics
/// Panics if the slice lengths violate the layout contract.
#[inline]
pub fn lut_lower_bound(
    lut: &[f32],
    words: &[u8],
    bsf_sq: f32,
    live: u8,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            crate::arch::x86::lut_lower_bound_checked(lut, words, bsf_sq, live, out)
        }
        _ => lut_lower_bound_scalar(lut, words, bsf_sq, live, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a bounds buffer for 8 candidates whose interval at position
    /// `j`, lane `i` is `[centers[i][j] - 0.5, centers[i][j] + 0.5]`.
    fn bounds_from_centers(centers: &[[f32; BLOCK_LANES]]) -> Vec<f32> {
        let mut b = Vec::with_capacity(centers.len() * BOUNDS_STRIDE);
        for row in centers {
            for c in row {
                b.push(c - 0.5);
            }
            for c in row {
                b.push(c + 0.5);
            }
        }
        b
    }

    #[test]
    fn zero_distance_inside_intervals() {
        let l = 6;
        let centers: Vec<[f32; 8]> = (0..l).map(|j| [j as f32; 8]).collect();
        let bounds = bounds_from_centers(&centers);
        let values: Vec<f32> = (0..l).map(|j| j as f32).collect();
        let weights = vec![1.0f32; l];
        let mut out = [f32::NAN; 8];
        let abandoned = block_lower_bound(&values, &weights, &bounds, f32::INFINITY, &mut out);
        assert!(!abandoned);
        assert_eq!(out, [0.0; 8]);
    }

    #[test]
    fn tiers_agree_bit_for_bit() {
        let l = 13; // ragged: exercises the non-multiple-of-4 tail
        let centers: Vec<[f32; 8]> = (0..l)
            .map(|j| {
                let mut row = [0.0f32; 8];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = ((j * 7 + i * 3) as f32 * 0.37).sin() * 2.0;
                }
                row
            })
            .collect();
        let bounds = bounds_from_centers(&centers);
        let values: Vec<f32> = (0..l).map(|j| (j as f32 * 0.61).cos() * 2.5).collect();
        let weights: Vec<f32> = (0..l).map(|j| 1.0 + (j % 3) as f32).collect();
        for bsf in [f32::INFINITY, 10.0, 0.5, 0.0] {
            let mut scalar = [0.0f32; 8];
            let mut portable = [0.0f32; 8];
            let a1 = block_lower_bound_scalar(&values, &weights, &bounds, bsf, &mut scalar);
            let a2 = block_lower_bound_portable(&values, &weights, &bounds, bsf, &mut portable);
            assert_eq!(a1, a2, "abandon decision diverged at bsf={bsf}");
            for i in 0..8 {
                assert_eq!(
                    scalar[i].to_bits(),
                    portable[i].to_bits(),
                    "lane {i} diverged at bsf={bsf}"
                );
            }
            let mut dispatched = [0.0f32; 8];
            let a3 = block_lower_bound(&values, &weights, &bounds, bsf, &mut dispatched);
            assert_eq!(a1, a3);
            for i in 0..8 {
                assert_eq!(scalar[i].to_bits(), dispatched[i].to_bits(), "lane {i} (dispatched)");
            }
        }
    }

    #[test]
    fn abandons_when_all_lanes_exceed_bsf() {
        let l = 8;
        let centers: Vec<[f32; 8]> = (0..l).map(|_| [100.0; 8]).collect();
        let bounds = bounds_from_centers(&centers);
        let values = vec![0.0f32; l];
        let weights = vec![1.0f32; l];
        let mut out = [0.0f32; 8];
        let abandoned = block_lower_bound(&values, &weights, &bounds, 1.0, &mut out);
        assert!(abandoned);
        assert!(out.iter().all(|&s| s > 1.0));
    }

    #[test]
    fn unbounded_edges_contribute_nothing() {
        // A position whose interval is (-inf, +inf) adds 0 to every lane.
        let l = 2;
        let mut bounds = vec![0.0f32; l * BOUNDS_STRIDE];
        for lane in 0..8 {
            bounds[lane] = f32::NEG_INFINITY; // pos 0 lows
            bounds[LANES + lane] = f32::INFINITY; // pos 0 highs
            bounds[BOUNDS_STRIDE + lane] = 2.0; // pos 1 lows
            bounds[BOUNDS_STRIDE + LANES + lane] = 3.0; // pos 1 highs
        }
        let values = [1000.0f32, 1.0];
        let weights = [5.0f32, 2.0];
        let mut out = [0.0f32; 8];
        block_lower_bound(&values, &weights, &bounds, f32::INFINITY, &mut out);
        // Only position 1 contributes: d = 2 - 1 = 1, w = 2.
        assert_eq!(out, [2.0; 8]);
    }

    /// A synthetic symbolic model: per-position breakpoint tables for
    /// `alphabet` symbols, lower-bound weights and one query.
    struct Model {
        bp: Vec<Vec<f32>>,
        weights: Vec<f32>,
        values: Vec<f32>,
        alphabet: usize,
    }

    impl Model {
        fn new(l: usize, alphabet: usize) -> Self {
            let bp = (0..l)
                .map(|j| {
                    let step = 4.0 / alphabet as f32 * (1.0 + (j % 5) as f32 * 0.2);
                    (1..alphabet).map(|s| (s as f32 - alphabet as f32 / 2.0) * step).collect()
                })
                .collect();
            let weights = (0..l).map(|j| 1.0 + (j % 3) as f32 * 0.5).collect();
            let values = (0..l).map(|j| (j as f32 * 0.61).cos() * 2.5).collect();
            Model { bp, weights, values, alphabet }
        }

        /// Interval of symbol `s` at position `j`, unbounded at the
        /// alphabet edges.
        fn interval(&self, j: usize, s: usize) -> (f32, f32) {
            let lo = if s == 0 { f32::NEG_INFINITY } else { self.bp[j][s - 1] };
            let hi = if s + 1 >= self.alphabet { f32::INFINITY } else { self.bp[j][s] };
            (lo, hi)
        }

        /// The query's symbol table: the interval kernel's term per
        /// (position, symbol), `0.0` past the alphabet.
        fn lut(&self) -> Vec<f32> {
            let mut lut = vec![0.0; self.values.len() * LUT_STRIDE];
            for (j, row) in lut.chunks_exact_mut(LUT_STRIDE).enumerate() {
                let (q, w) = (self.values[j], self.weights[j]);
                for (s, e) in row.iter_mut().enumerate().take(self.alphabet) {
                    let (lo, hi) = self.interval(j, s);
                    let d = (lo - q).max(q - hi).max(0.0);
                    *e = (w * d) * d;
                }
            }
            lut
        }

        /// 8 row-major words resolved into the interval kernel's layout.
        fn bounds(&self, words: &[u8]) -> Vec<f32> {
            let l = self.values.len();
            let mut b = Vec::with_capacity(l * BOUNDS_STRIDE);
            for j in 0..l {
                b.extend((0..LANES).map(|i| self.interval(j, usize::from(words[i * l + j])).0));
                b.extend((0..LANES).map(|i| self.interval(j, usize::from(words[i * l + j])).1));
            }
            b
        }

        /// Per-word mindist with per-position branches.
        fn per_word(&self, word: &[u8]) -> f32 {
            let mut sum = 0.0f32;
            for (j, &s) in word.iter().enumerate() {
                let (lo, hi) = self.interval(j, usize::from(s));
                let q = self.values[j];
                let d = if q < lo {
                    lo - q
                } else if q > hi {
                    q - hi
                } else {
                    0.0
                };
                sum += self.weights[j] * d * d;
            }
            sum
        }
    }

    /// 8 row-major `l`-symbol words over `alphabet` symbols.
    fn words(l: usize, alphabet: usize, salt: usize) -> Vec<u8> {
        (0..LANES * l).map(|i| ((i * 37 + salt * 11 + (i / l) * 5) % alphabet) as u8).collect()
    }

    #[test]
    fn block_matches_per_word_mindist() {
        for l in [4, 13, 16, 20] {
            let m = Model::new(l, 64);
            let lut = m.lut();
            for salt in 0..4 {
                let w = words(l, 64, salt);
                let mut out = [0.0f32; 8];
                assert!(!lut_lower_bound(&lut, &w, f32::INFINITY, 0xFF, &mut out));
                for (lane, &lb) in out.iter().enumerate() {
                    let per_word = m.per_word(&w[lane * l..(lane + 1) * l]);
                    assert_eq!(lb.to_bits(), per_word.to_bits(), "l={l} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn pad_lanes_mirror_last_candidate() {
        let l = 8;
        let m = Model::new(l, 256);
        let mut w = words(l, 256, 3);
        // Three real words; the pad lanes repeat the last one.
        let last = w[2 * l..3 * l].to_vec();
        for lane in 3..LANES {
            w[lane * l..(lane + 1) * l].copy_from_slice(&last);
        }
        let mut out = [0.0f32; 8];
        let _ = lut_lower_bound(&m.lut(), &w, f32::INFINITY, 0xFF, &mut out);
        for pad in 3..LANES {
            assert_eq!(out[pad].to_bits(), out[2].to_bits(), "pad lane {pad}");
        }
    }

    #[test]
    fn whole_group_abandons_against_tiny_bsf() {
        let l = 16;
        let mut m = Model::new(l, 256);
        // A query far below every breakpoint: every symbol but 0 (whose
        // interval is unbounded below) sits at a positive distance.
        m.values = vec![-50.0; l];
        let w: Vec<u8> = words(l, 256, 1).iter().map(|&s| s.max(1)).collect();
        let lut = m.lut();
        let mut out = [0.0f32; 8];
        assert!(!lut_lower_bound(&lut, &w, f32::INFINITY, 0xFF, &mut out));
        assert!(out.iter().all(|&s| s > 0.0));
        assert!(lut_lower_bound(&lut, &w, 0.0, 0xFF, &mut out), "must abandon with bsf=0");
        assert!(out.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn block_equals_scalar_reference_bitwise() {
        let l = 12;
        let m = Model::new(l, 32);
        let lut = m.lut();
        let w = words(l, 32, 5);
        for bsf in [f32::INFINITY, 1.0, 0.0] {
            for live in [0xFF, 0x81, 0x3C] {
                let mut dispatched = [0.0f32; 8];
                let mut scalar = [0.0f32; 8];
                let a1 = lut_lower_bound(&lut, &w, bsf, live, &mut dispatched);
                let a2 = lut_lower_bound_scalar(&lut, &w, bsf, live, &mut scalar);
                assert_eq!(a1, a2, "abandon decision at bsf={bsf} live={live:#04x}");
                for i in 0..8 {
                    assert_eq!(dispatched[i].to_bits(), scalar[i].to_bits(), "lane {i}");
                }
            }
        }
    }

    #[test]
    fn masked_block_matches_unmasked_on_live_lanes() {
        let l = 16;
        let m = Model::new(l, 64);
        let lut = m.lut();
        let w = words(l, 64, 2);
        let mut full = [0.0f32; 8];
        let mut masked = [0.0f32; 8];
        let _ = lut_lower_bound(&lut, &w, f32::INFINITY, 0xFF, &mut full);
        let live = 0b0110_1001u8;
        let _ = lut_lower_bound(&lut, &w, f32::INFINITY, live, &mut masked);
        for i in 0..8 {
            if live & (1 << i) != 0 {
                assert_eq!(full[i].to_bits(), masked[i].to_bits(), "lane {i}");
            } else {
                assert_eq!(masked[i], f32::INFINITY, "dead lane {i}");
            }
        }
    }

    #[test]
    fn masked_live_lanes_match_unmasked_bit_for_bit_all_256_masks() {
        // Every lane bitmap, both tiers, several bounds: live lanes equal
        // the full sweep's sums, dead lanes report +inf.
        let l = 11;
        let m = Model::new(l, 64);
        let lut = m.lut();
        let w = words(l, 64, 7);
        let mut full = [0.0f32; 8];
        lut_lower_bound_scalar(&lut, &w, f32::INFINITY, 0xFF, &mut full);
        for bsf in [f32::INFINITY, 25.0, 1.0] {
            for live in 0u8..=255 {
                let mut scalar = [0.0f32; 8];
                let mut dispatched = [0.0f32; 8];
                let a1 = lut_lower_bound_scalar(&lut, &w, bsf, live, &mut scalar);
                let a2 = lut_lower_bound(&lut, &w, bsf, live, &mut dispatched);
                assert_eq!(a1, a2, "abandon diverged live={live:#04x} bsf={bsf}");
                for lane in 0..8 {
                    assert_eq!(scalar[lane].to_bits(), dispatched[lane].to_bits());
                    if live & (1 << lane) == 0 {
                        assert_eq!(scalar[lane], f32::INFINITY, "dead lane {lane} not +inf");
                    } else if !a1 {
                        assert_eq!(scalar[lane].to_bits(), full[lane].to_bits(), "lane {lane}");
                    }
                }
            }
        }
    }

    #[test]
    fn masked_full_mask_matches_unmasked_exactly() {
        // The table kernel with every lane live is the interval kernel
        // over the same symbols, bit for bit, abandon points included.
        let l = 13;
        let m = Model::new(l, 32);
        let lut = m.lut();
        let w = words(l, 32, 4);
        let bounds = m.bounds(&w);
        for bsf in [f32::INFINITY, 10.0, 0.5, 0.0] {
            let mut plain = [0.0f32; 8];
            let mut table = [0.0f32; 8];
            let a = block_lower_bound(&m.values, &m.weights, &bounds, bsf, &mut plain);
            let b = lut_lower_bound(&lut, &w, bsf, 0xFF, &mut table);
            assert_eq!(a, b, "bsf={bsf}");
            for lane in 0..8 {
                assert_eq!(plain[lane].to_bits(), table[lane].to_bits(), "lane {lane} bsf={bsf}");
            }
        }
    }

    #[test]
    fn masked_dead_lanes_speed_up_abandon() {
        // Lane 0 far, lanes 1-7 at distance 0. With every lane live the
        // group never abandons; with only lane 0 live it abandons at the
        // first checkpoint.
        let l = 8;
        let mut lut = vec![0.0f32; l * LUT_STRIDE];
        for row in lut.chunks_exact_mut(LUT_STRIDE) {
            row[1] = 100.0;
        }
        let mut w = vec![0u8; LANES * l];
        w[..l].fill(1);
        let mut out = [0.0f32; 8];
        assert!(!lut_lower_bound(&lut, &w, 1.0, 0xFF, &mut out));
        assert!(lut_lower_bound(&lut, &w, 1.0, 0x01, &mut out));
        assert!(out[0] > 1.0);
        assert_eq!(out[1], f32::INFINITY);
        // All-dead group: abandons immediately for any finite bsf.
        assert!(lut_lower_bound(&lut, &w, 1.0, 0x00, &mut out));
        assert!(out.iter().all(|&s| s == f32::INFINITY));
    }

    #[test]
    fn masked_handles_unbounded_collect_intervals_without_nan() {
        // Symbols past the alphabet price 0.0, like an unbounded interval;
        // a dead lane stays +inf (inf + 0 = inf, never NaN).
        let l = 4;
        let lut = Model::new(l, 8).lut();
        let w = vec![200u8; LANES * l];
        let mut out = [0.0f32; 8];
        lut_lower_bound(&lut, &w, f32::INFINITY, 0xA5, &mut out);
        for (lane, &lb) in out.iter().enumerate() {
            if 0xA5 & (1 << lane) != 0 {
                assert_eq!(lb, 0.0, "live lane {lane}");
            } else {
                assert_eq!(lb, f32::INFINITY, "dead lane {lane}");
            }
        }
    }
}
