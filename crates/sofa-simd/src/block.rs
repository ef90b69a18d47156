//! The 8-candidates-at-a-time lower-bound kernel.
//!
//! The per-word mindist kernel (paper Algorithm 3) vectorizes *within* one
//! candidate word: 8 word positions per step, with scalar gathers of each
//! symbol's quantization interval. That shape is gather- and
//! dispatch-bound — one function call and one bound-table walk per
//! candidate. This module provides the transposed shape the paper's
//! throughput numbers need: **8 candidates per step, one position at a
//! time**, over a structure-of-arrays layout in which the candidates'
//! interval bounds were resolved *at index-build time* (symbols never
//! change after quantization, so `[lo, hi]` per (position, candidate) is a
//! constant). The query side contributes one splat of `q_j` and one splat
//! of `w_j` per position; the candidate side is two contiguous 8-lane
//! loads. No gathers, no per-candidate calls.
//!
//! ## Layout contract
//!
//! For a group of 8 candidates and `l` word positions, `bounds` holds
//! `l * 16` floats: position `j` occupies `bounds[j*16 .. j*16+16]` as 8
//! lower bounds followed by 8 upper bounds (lane = candidate). `values`
//! and `weights` hold the query's `l` exact values and lower-bound
//! weights.
//!
//! A "candidate" is anything with one quantization interval per position;
//! the kernel serves leaf refinement (`sofa-summaries`' `WordBlock`,
//! full-cardinality symbol intervals, unbounded at the alphabet edges).
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
//! All three tiers (scalar / portable / AVX2) perform identical operations
//! in identical order, so their outputs are bit-for-bit equal; the
//! property tests assert exactly that.

use crate::dispatch::{active_tier, KernelTier};
use crate::vector::{F32x8, LANES};

/// Candidates per block group (one 8-lane vector).
pub const BLOCK_LANES: usize = LANES;

/// `f32`s per word position in the bounds layout (8 lows + 8 highs).
pub const BOUNDS_STRIDE: usize = 2 * LANES;

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

/// Per-lane accumulator initializer for the masked block kernels: live
/// lanes start at `0.0`, dead lanes at `+inf`. A dead lane's sum stays
/// `+inf` through the sweep (`inf + finite = inf`; the per-position `d` is
/// always finite, even for `(-inf, +inf)` intervals, so no NaN can
/// form), which makes dead lanes (a) automatically `> bsf_sq` at every
/// abandon checkpoint — a mostly-dead group abandons *sooner* — and (b)
/// automatically rejected by the caller's per-lane bound comparison. Live
/// lanes see exactly the op sequence of the unmasked kernel, so they stay
/// bit-identical to it.
fn masked_init(live: u8) -> [f32; BLOCK_LANES] {
    let mut init = [0.0f32; BLOCK_LANES];
    for (lane, v) in init.iter_mut().enumerate() {
        if live & (1 << lane) == 0 {
            *v = f32::INFINITY;
        }
    }
    init
}

/// Reference scalar tier of the *masked* block lower bound: `live` is a
/// lane bitmap (bit `i` ⇒ lane `i` participates). Dead lanes report
/// `+inf`; live lanes are bit-identical to
/// [`block_lower_bound_scalar`].
pub fn block_lower_bound_masked_scalar(
    values: &[f32],
    weights: &[f32],
    bounds: &[f32],
    bsf_sq: f32,
    live: u8,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    check_layout(values, weights, bounds);
    *out = masked_init(live);
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

/// Portable [`F32x8`] tier of the masked block lower bound.
pub fn block_lower_bound_masked_portable(
    values: &[f32],
    weights: &[f32],
    bounds: &[f32],
    bsf_sq: f32,
    live: u8,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    check_layout(values, weights, bounds);
    let vbsf = F32x8::splat(bsf_sq);
    let zero = F32x8::zero();
    let mut acc = F32x8::from_slice(&masked_init(live));
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

/// [`block_lower_bound`] with a per-lane predicate bitmap (the filtered
/// query path): bit `i` of `live` set means lane `i` participates. Dead
/// lanes cost nothing — their sums are pinned at `+inf`, so they satisfy
/// every abandon checkpoint and a group whose survivors are all pruned
/// abandons *earlier* than the unmasked sweep would. Live lanes are
/// bit-for-bit identical to the unmasked kernel across all tiers.
///
/// `live == 0xFF` is exactly [`block_lower_bound`]; `live == 0` abandons
/// at the first checkpoint for any finite `bsf_sq` (callers normally skip
/// fully-dead groups before reaching the kernel).
///
/// # Panics
/// Panics if the slice lengths violate the layout contract.
#[inline]
pub fn block_lower_bound_masked(
    values: &[f32],
    weights: &[f32],
    bounds: &[f32],
    bsf_sq: f32,
    live: u8,
    out: &mut [f32; BLOCK_LANES],
) -> bool {
    match active_tier() {
        KernelTier::Scalar => {
            block_lower_bound_masked_scalar(values, weights, bounds, bsf_sq, live, out)
        }
        KernelTier::Portable => {
            block_lower_bound_masked_portable(values, weights, bounds, bsf_sq, live, out)
        }
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            check_layout(values, weights, bounds);
            crate::arch::x86::block_lower_bound_masked_checked(
                values,
                weights,
                bounds,
                bsf_sq,
                masked_init(live),
                out,
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => {
            block_lower_bound_masked_portable(values, weights, bounds, bsf_sq, live, out)
        }
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
    fn masked_live_lanes_match_unmasked_bit_for_bit_all_256_masks() {
        // Property sweep: for every possible lane bitmap, every tier, and
        // several bounds, live lanes must be bitwise equal to the unmasked
        // kernel and dead lanes must report +inf.
        let l = 11;
        let centers: Vec<[f32; 8]> = (0..l)
            .map(|j| {
                let mut row = [0.0f32; 8];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = ((j * 5 + i * 11) as f32 * 0.29).sin() * 3.0;
                }
                row
            })
            .collect();
        let bounds = bounds_from_centers(&centers);
        let values: Vec<f32> = (0..l).map(|j| (j as f32 * 0.47).cos() * 2.0).collect();
        let weights: Vec<f32> = (0..l).map(|j| 1.0 + (j % 4) as f32 * 0.5).collect();
        for bsf in [f32::INFINITY, 25.0, 1.0] {
            // The unmasked sweep may abandon early (partial sums); compare
            // against an unabandoned full sweep so per-lane values are
            // well-defined for every mask.
            let mut full = [0.0f32; 8];
            block_lower_bound_scalar(&values, &weights, &bounds, f32::INFINITY, &mut full);
            for live in 0u16..=255 {
                let live = live as u8;
                let mut scalar = [0.0f32; 8];
                let mut portable = [0.0f32; 8];
                let mut dispatched = [0.0f32; 8];
                let a1 = block_lower_bound_masked_scalar(
                    &values,
                    &weights,
                    &bounds,
                    bsf,
                    live,
                    &mut scalar,
                );
                let a2 = block_lower_bound_masked_portable(
                    &values,
                    &weights,
                    &bounds,
                    bsf,
                    live,
                    &mut portable,
                );
                let a3 = block_lower_bound_masked(
                    &values,
                    &weights,
                    &bounds,
                    bsf,
                    live,
                    &mut dispatched,
                );
                assert_eq!(a1, a2, "abandon diverged live={live:#04x} bsf={bsf}");
                assert_eq!(a1, a3, "dispatched abandon diverged live={live:#04x} bsf={bsf}");
                for lane in 0..8 {
                    assert_eq!(scalar[lane].to_bits(), portable[lane].to_bits());
                    assert_eq!(scalar[lane].to_bits(), dispatched[lane].to_bits());
                    if live & (1 << lane) == 0 {
                        assert_eq!(scalar[lane], f32::INFINITY, "dead lane {lane} not +inf");
                    } else if !a1 {
                        // No abandon: live lanes carry the exact full sum.
                        assert_eq!(
                            scalar[lane].to_bits(),
                            full[lane].to_bits(),
                            "live lane {lane} diverged from unmasked, live={live:#04x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn masked_full_mask_matches_unmasked_exactly() {
        let l = 13;
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
            let mut plain = [0.0f32; 8];
            let mut masked = [0.0f32; 8];
            let a = block_lower_bound(&values, &weights, &bounds, bsf, &mut plain);
            let b = block_lower_bound_masked(&values, &weights, &bounds, bsf, 0xFF, &mut masked);
            assert_eq!(a, b, "bsf={bsf}");
            for lane in 0..8 {
                assert_eq!(plain[lane].to_bits(), masked[lane].to_bits(), "lane {lane} bsf={bsf}");
            }
        }
    }

    #[test]
    fn masked_dead_lanes_speed_up_abandon() {
        // Lane 0 far, lanes 1-7 at distance 0. Unmasked never abandons
        // (seven lanes sit below any positive bsf); with only lane 0 live
        // the group abandons at the first checkpoint.
        let l = 8;
        let centers: Vec<[f32; 8]> = (0..l)
            .map(|_| {
                let mut row = [0.0f32; 8];
                row[0] = 100.0;
                row
            })
            .collect();
        let bounds = bounds_from_centers(&centers);
        let values = vec![0.0f32; l];
        let weights = vec![1.0f32; l];
        let mut out = [0.0f32; 8];
        assert!(!block_lower_bound(&values, &weights, &bounds, 1.0, &mut out));
        assert!(block_lower_bound_masked(&values, &weights, &bounds, 1.0, 0x01, &mut out));
        assert!(out[0] > 1.0);
        assert_eq!(out[1], f32::INFINITY);
        // All-dead group: abandons immediately for any finite bsf.
        assert!(block_lower_bound_masked(&values, &weights, &bounds, 1.0, 0x00, &mut out));
        assert!(out.iter().all(|&s| s == f32::INFINITY));
    }

    #[test]
    fn masked_handles_unbounded_collect_intervals_without_nan() {
        // (-inf, +inf) intervals contribute 0; a dead lane must stay +inf
        // (inf + 0 = inf, never NaN).
        let l = 4;
        let mut bounds = vec![0.0f32; l * BOUNDS_STRIDE];
        for j in 0..l {
            for lane in 0..8 {
                bounds[j * BOUNDS_STRIDE + lane] = f32::NEG_INFINITY;
                bounds[j * BOUNDS_STRIDE + LANES + lane] = f32::INFINITY;
            }
        }
        let values = vec![1.0f32; l];
        let weights = vec![1.0f32; l];
        let mut out = [0.0f32; 8];
        block_lower_bound_masked(&values, &weights, &bounds, f32::INFINITY, 0xA5, &mut out);
        for (lane, &lb) in out.iter().enumerate() {
            if 0xA5 & (1 << lane) != 0 {
                assert_eq!(lb, 0.0, "live lane {lane}");
            } else {
                assert_eq!(lb, f32::INFINITY, "dead lane {lane}");
            }
        }
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
}
