//! The 8-candidates-at-a-time *quantized* lower-bound kernel.
//!
//! [`crate::lut_lower_bound`] prices candidates from their symbolic
//! summaries; survivors historically paid a full `f32` scan (4 bytes per
//! value) right away. This kernel powers the compressed middle tier in
//! between: candidates are stored as affine-quantized `u8` codes (1 byte
//! per value, quantization owned by the caller), and the kernel
//! accumulates the **integer** squared code distance
//! `S[lane] = Σ_j (qcode[j] - code[j][lane])²` for 8 candidates per call.
//! The caller turns `S` into a valid lower bound on the true `f32`
//! distance with one floating-point fixup per lane (scale + reconstruction
//! error terms — see `sofa-summaries`' quant block); this module only owns
//! the bandwidth-bound integer sweep.
//!
//! ## Layout contract
//!
//! For a group of 8 candidates and `p` positions, `codes` holds `p * 8`
//! bytes: position `j` occupies `codes[j*8 .. j*8+8]` (lane = candidate) —
//! the position-major SoA shape of the interval bounds in
//! [`crate::block`], at 1/16th the bytes per (position, lane). `qcodes`
//! holds the query's `p` codes under the same quantizer.
//!
//! ## Early abandoning
//!
//! `thr` carries one precomputed integer threshold per lane: the smallest
//! code-distance sum at which the lane's fixed-up lower bound is known to
//! meet the caller's best-so-far (the caller inverts its fixup once per
//! group; `i32::MAX` disables abandoning for a lane). Every 16 positions
//! the 8 running sums are compared against `thr`; once every lane exceeds
//! its threshold the group is abandoned (`true` is returned and `out`
//! holds partial sums, each `> thr`). Partial sums are monotonically
//! non-decreasing, so abandoning on a partial sum is sound.
//!
//! All three tiers perform pure integer arithmetic, which is exact in any
//! evaluation order — the tiers are bit-identical **by construction**, not
//! merely by matching operation order as the `f32` kernels must.

use crate::dispatch::{active_tier, KernelTier};
use crate::vector::LANES;

/// Maximum positions per quantized sweep: `32768 * 255²` still fits `i32`,
/// one more position could overflow the lane accumulators.
pub const QUANT_MAX_POSITIONS: usize = 32_768;

fn check_quant_layout(qcodes: &[u8], codes: &[u8]) {
    assert!(
        qcodes.len() <= QUANT_MAX_POSITIONS,
        "quantized sweep over {} positions could overflow i32 accumulators",
        qcodes.len()
    );
    assert_eq!(codes.len(), qcodes.len() * LANES, "codes must hold 8 lanes per query position");
}

/// Reference scalar tier of the quantized lower-bound sweep. Integer
/// arithmetic is exact, so every tier returns identical sums.
pub fn quant_lower_bound_scalar(
    qcodes: &[u8],
    codes: &[u8],
    thr: &[i32; LANES],
    out: &mut [i32; LANES],
) -> bool {
    check_quant_layout(qcodes, codes);
    *out = [0i32; LANES];
    for (j, &qc) in qcodes.iter().enumerate() {
        let q = i32::from(qc);
        let pos = &codes[j * LANES..(j + 1) * LANES];
        for lane in 0..LANES {
            let d = q - i32::from(pos[lane]);
            out[lane] += d * d;
        }
        if j % 16 == 15 && out.iter().zip(thr.iter()).all(|(&s, &t)| s > t) {
            return true;
        }
    }
    out.iter().zip(thr.iter()).all(|(&s, &t)| s > t)
}

/// Portable tier: the same integer sweep with the 8-lane inner loop kept
/// free of cross-lane dependencies so it auto-vectorizes. Bit-identical to
/// the scalar tier (integer arithmetic is order-independent).
pub fn quant_lower_bound_portable(
    qcodes: &[u8],
    codes: &[u8],
    thr: &[i32; LANES],
    out: &mut [i32; LANES],
) -> bool {
    check_quant_layout(qcodes, codes);
    let mut acc = [0i32; LANES];
    for (j, &qc) in qcodes.iter().enumerate() {
        let q = i32::from(qc);
        let pos = &codes[j * LANES..(j + 1) * LANES];
        let mut d = [0i32; LANES];
        for lane in 0..LANES {
            d[lane] = q - i32::from(pos[lane]);
        }
        for lane in 0..LANES {
            acc[lane] += d[lane] * d[lane];
        }
        if j % 16 == 15 && acc.iter().zip(thr.iter()).all(|(&s, &t)| s > t) {
            *out = acc;
            return true;
        }
    }
    *out = acc;
    acc.iter().zip(thr.iter()).all(|(&s, &t)| s > t)
}

/// Integer squared code distances between one quantized query and 8
/// quantized candidates in a single sweep, dispatched to the fastest
/// available tier ([`crate::dispatch::active_tier`]).
///
/// Writes each lane's sum `Σ_j (qcode[j] - code[j][lane])²` (or a partial
/// sum `> thr[lane]` when the group was abandoned) into `out`; returns
/// `true` when every lane exceeds its threshold (whole group pruned). See
/// the module docs for the `codes` layout and threshold semantics.
///
/// # Panics
/// Panics if the slice lengths violate the layout contract or the
/// position count exceeds [`QUANT_MAX_POSITIONS`].
#[inline]
pub fn quant_lower_bound(
    qcodes: &[u8],
    codes: &[u8],
    thr: &[i32; LANES],
    out: &mut [i32; LANES],
) -> bool {
    match active_tier() {
        KernelTier::Scalar => quant_lower_bound_scalar(qcodes, codes, thr, out),
        KernelTier::Portable => quant_lower_bound_portable(qcodes, codes, thr, out),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => {
            check_quant_layout(qcodes, codes);
            crate::arch::x86::quant_lower_bound_checked(qcodes, codes, thr, out)
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2 => quant_lower_bound_portable(qcodes, codes, thr, out),
    }
}

/// [`quant_lower_bound`] with a per-lane predicate bitmap (the filtered
/// query path): bit `i` of `live` set means lane `i` participates.
///
/// Implemented as a threshold override: a dead lane's threshold becomes
/// `-1`, so its (always non-negative) integer sum exceeds it from position
/// zero — the lane auto-satisfies every abandon checkpoint and the
/// caller's `sum > thr` rejection alike. Because the sweep itself is
/// untouched, live lanes are bit-identical to the unmasked kernel on
/// every tier *by construction*, and a group whose survivors are all
/// pruned abandons earlier than the unmasked sweep would.
///
/// # Panics
/// Panics if the slice lengths violate the layout contract or the
/// position count exceeds [`QUANT_MAX_POSITIONS`].
#[inline]
pub fn quant_lower_bound_masked(
    qcodes: &[u8],
    codes: &[u8],
    thr: &[i32; LANES],
    live: u8,
    out: &mut [i32; LANES],
) -> bool {
    let mut t = *thr;
    for (lane, tl) in t.iter_mut().enumerate() {
        if live & (1 << lane) == 0 {
            *tl = -1;
        }
    }
    quant_lower_bound(qcodes, codes, &t, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEVER: [i32; LANES] = [i32::MAX; LANES];

    /// Position-major codes for 8 candidates: `lanes[j][lane]`.
    fn codes_of(lanes: &[[u8; LANES]]) -> Vec<u8> {
        lanes.iter().flatten().copied().collect()
    }

    fn reference_sums(qcodes: &[u8], lanes: &[[u8; LANES]]) -> [i64; LANES] {
        let mut s = [0i64; LANES];
        for (j, &qc) in qcodes.iter().enumerate() {
            for lane in 0..LANES {
                let d = i64::from(qc) - i64::from(lanes[j][lane]);
                s[lane] += d * d;
            }
        }
        s
    }

    #[test]
    fn zero_distance_for_identical_codes() {
        let p = 20;
        let lanes: Vec<[u8; LANES]> = (0..p).map(|j| [(j * 7 % 251) as u8; LANES]).collect();
        let qcodes: Vec<u8> = (0..p).map(|j| (j * 7 % 251) as u8).collect();
        let mut out = [-1i32; LANES];
        let abandoned = quant_lower_bound(&qcodes, &codes_of(&lanes), &NEVER, &mut out);
        assert!(!abandoned);
        assert_eq!(out, [0; LANES]);
    }

    #[test]
    fn sums_match_wide_reference() {
        // Extreme codes at a ragged length: the maximal per-position
        // contribution (255²) across a non-multiple-of-16 sweep.
        let p = 37;
        let lanes: Vec<[u8; LANES]> = (0..p)
            .map(|j| {
                let mut row = [0u8; LANES];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = ((j * 31 + i * 97) % 256) as u8;
                }
                row
            })
            .collect();
        let qcodes: Vec<u8> = (0..p).map(|j| if j % 2 == 0 { 255 } else { 0 }).collect();
        let mut out = [0i32; LANES];
        let abandoned = quant_lower_bound(&qcodes, &codes_of(&lanes), &NEVER, &mut out);
        assert!(!abandoned);
        let expect = reference_sums(&qcodes, &lanes);
        for lane in 0..LANES {
            assert_eq!(i64::from(out[lane]), expect[lane], "lane {lane}");
        }
    }

    #[test]
    fn tiers_agree_exactly() {
        for p in [1usize, 7, 16, 17, 48, 129] {
            let lanes: Vec<[u8; LANES]> = (0..p)
                .map(|j| {
                    let mut row = [0u8; LANES];
                    for (i, r) in row.iter_mut().enumerate() {
                        *r = ((j * 13 + i * 5 + 11) % 256) as u8;
                    }
                    row
                })
                .collect();
            let codes = codes_of(&lanes);
            let qcodes: Vec<u8> = (0..p).map(|j| ((j * 29 + 3) % 256) as u8).collect();
            for thr_val in [i32::MAX, 500_000, 1_000, 0] {
                let thr = [thr_val; LANES];
                let mut scalar = [0i32; LANES];
                let mut portable = [0i32; LANES];
                let mut dispatched = [0i32; LANES];
                let a1 = quant_lower_bound_scalar(&qcodes, &codes, &thr, &mut scalar);
                let a2 = quant_lower_bound_portable(&qcodes, &codes, &thr, &mut portable);
                let a3 = quant_lower_bound(&qcodes, &codes, &thr, &mut dispatched);
                assert_eq!(a1, a2, "p={p} thr={thr_val}: abandon decision diverged");
                assert_eq!(a1, a3, "p={p} thr={thr_val}: dispatched abandon diverged");
                assert_eq!(scalar, portable, "p={p} thr={thr_val}");
                assert_eq!(scalar, dispatched, "p={p} thr={thr_val}");
            }
        }
    }

    #[test]
    fn abandons_only_when_every_lane_exceeds_its_threshold() {
        let p = 32;
        // Lane 0 stays at distance 0; the rest are far away.
        let lanes: Vec<[u8; LANES]> = (0..p)
            .map(|_| {
                let mut row = [255u8; LANES];
                row[0] = 0;
                row
            })
            .collect();
        let qcodes = vec![0u8; p];
        let codes = codes_of(&lanes);
        let mut out = [0i32; LANES];
        // Per-lane thresholds: lane 0's can never be met.
        let mut thr = [0i32; LANES];
        thr[0] = i32::MAX;
        assert!(!quant_lower_bound(&qcodes, &codes, &thr, &mut out));
        assert_eq!(out[0], 0);
        // Once lane 0's threshold is meetable, the group abandons at the
        // first checkpoint with partial sums.
        thr[0] = -1;
        let abandoned = quant_lower_bound(&qcodes, &codes, &thr, &mut out);
        assert!(abandoned);
        for lane in 0..LANES {
            assert!(out[lane] > thr[lane], "lane {lane}: {} <= {}", out[lane], thr[lane]);
        }
    }

    #[test]
    fn masked_live_lanes_match_unmasked_all_256_masks() {
        let p = 33;
        let lanes: Vec<[u8; LANES]> = (0..p)
            .map(|j| {
                let mut row = [0u8; LANES];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = ((j * 17 + i * 41 + 7) % 256) as u8;
                }
                row
            })
            .collect();
        let codes = codes_of(&lanes);
        let qcodes: Vec<u8> = (0..p).map(|j| ((j * 53 + 19) % 256) as u8).collect();
        let mut full = [0i32; LANES];
        assert!(!quant_lower_bound(&qcodes, &codes, &NEVER, &mut full));
        for thr_val in [i32::MAX, 400_000, 0] {
            let thr = [thr_val; LANES];
            for live in 0u16..=255 {
                let live = live as u8;
                let mut out = [0i32; LANES];
                let abandoned = quant_lower_bound_masked(&qcodes, &codes, &thr, live, &mut out);
                if !abandoned {
                    for lane in 0..LANES {
                        if live & (1 << lane) != 0 {
                            assert_eq!(out[lane], full[lane], "live lane {lane}");
                        }
                    }
                }
                // A fully-dead group must abandon at the first checkpoint.
                if live == 0 {
                    assert!(abandoned, "all-dead group must abandon (thr={thr_val})");
                }
                // Abandoning requires every live lane past its threshold.
                if abandoned && thr_val == i32::MAX {
                    assert_eq!(live, 0, "thr=MAX can only abandon all-dead groups");
                }
            }
        }
    }

    #[test]
    fn masked_full_mask_matches_unmasked() {
        let p = 19;
        let lanes: Vec<[u8; LANES]> = (0..p)
            .map(|j| {
                let mut row = [0u8; LANES];
                for (i, r) in row.iter_mut().enumerate() {
                    *r = ((j * 13 + i * 5 + 11) % 256) as u8;
                }
                row
            })
            .collect();
        let codes = codes_of(&lanes);
        let qcodes: Vec<u8> = (0..p).map(|j| ((j * 29 + 3) % 256) as u8).collect();
        for thr_val in [i32::MAX, 1_000, 0] {
            let thr = [thr_val; LANES];
            let mut plain = [0i32; LANES];
            let mut masked = [0i32; LANES];
            let a = quant_lower_bound(&qcodes, &codes, &thr, &mut plain);
            let b = quant_lower_bound_masked(&qcodes, &codes, &thr, 0xFF, &mut masked);
            assert_eq!(a, b, "thr={thr_val}");
            assert_eq!(plain, masked, "thr={thr_val}");
        }
    }

    #[test]
    #[should_panic(expected = "8 lanes per query position")]
    fn rejects_mismatched_layout() {
        let mut out = [0i32; LANES];
        let _ = quant_lower_bound(&[0u8; 4], &[0u8; 4 * LANES - 1], &NEVER, &mut out);
    }
}
