//! Property tests of the SIMD kernels: every tier (scalar reference,
//! portable 8-lane, and whatever the dispatcher selects — AVX2 on capable
//! x86-64) must agree on arbitrary inputs, including ragged lengths
//! (1..=257), denormal values, and arbitrary early-abandon points.
//!
//! Two strengths of agreement are asserted:
//!
//! * the **dispatched** kernels match the **portable** tier **bit for
//!   bit** for `euclidean_sq` / `euclidean_sq_early_abandon`, all three
//!   tiers match bit for bit for the block lower bound, and the
//!   symbol-table lower bound matches the block lower bound over the same
//!   symbols bit for bit on every tier (those kernels are written with
//!   identical operation order precisely so query answers cannot depend
//!   on the tier or the kernel);
//! * the scalar reference (different summation order) matches within a
//!   relative tolerance.

use proptest::prelude::*;
use sofa_simd::{
    active_tier, block_lower_bound, block_lower_bound_portable, block_lower_bound_scalar,
    euclidean_sq, euclidean_sq_early_abandon, euclidean_sq_early_abandon_portable,
    euclidean_sq_early_abandon_scalar, euclidean_sq_portable, euclidean_sq_scalar, lut_lower_bound,
    lut_lower_bound_scalar, znormalize, F32x8, KernelTier, Mask8, BLOCK_LANES, BOUNDS_STRIDE,
    LUT_STRIDE,
};

fn pair_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..=257).prop_flat_map(|n| {
        (proptest::collection::vec(-50.0f32..50.0, n), proptest::collection::vec(-50.0f32..50.0, n))
    })
}

/// Pairs whose differences are denormal-scale: exercises gradual
/// underflow in every tier.
fn denormal_pair_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..=64).prop_flat_map(|n| {
        (
            proptest::collection::vec(-1.0e-40f32..1.0e-40, n),
            proptest::collection::vec(-1.0e-40f32..1.0e-40, n),
        )
    })
}

/// A block-kernel input: l positions, 8 candidates with valid intervals
/// (lo <= hi), query values and positive weights.
#[allow(clippy::type_complexity)]
fn block_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>)> {
    (1usize..=33).prop_flat_map(|l| {
        (
            proptest::collection::vec(-10.0f32..10.0, l),
            proptest::collection::vec(0.5f32..4.0, l),
            // Interval midpoints and half-widths per (position, lane).
            proptest::collection::vec((-10.0f32..10.0, 0.0f32..3.0), l * BLOCK_LANES),
        )
            .prop_map(|(values, weights, intervals)| {
                let l = values.len();
                let mut bounds = Vec::with_capacity(l * BOUNDS_STRIDE);
                for j in 0..l {
                    for lane in 0..BLOCK_LANES {
                        let (mid, half) = intervals[j * BLOCK_LANES + lane];
                        bounds.push(mid - half);
                    }
                    for lane in 0..BLOCK_LANES {
                        let (mid, half) = intervals[j * BLOCK_LANES + lane];
                        bounds.push(mid + half);
                    }
                }
                (values, weights, bounds)
            })
    })
}

/// Raw material for one symbolic model per (word length, alphabet)
/// pair: breakpoint draws for 16 positions × 255 breakpoints, 8 words of
/// 16 symbols, query values and weights, a lane mask and a bound scale.
#[allow(clippy::type_complexity)]
fn symbolic_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<u8>, Vec<f32>, Vec<f32>, (u8, f32))>
{
    (
        proptest::collection::vec(-5.0f32..5.0, 16 * 255),
        proptest::collection::vec(0u8..=255, BLOCK_LANES * 16),
        proptest::collection::vec(-6.0f32..6.0, 16),
        proptest::collection::vec(0.5f32..4.0, 16),
        (0u8..=255, 0.0f32..1.5),
    )
}

/// One model cut from the raw draws: `l` positions, `alphabet` symbols.
/// Returns the symbol table, the 8 row-major words and the same words
/// resolved into the block kernel's interval layout.
fn symbolic_model(
    raw_bp: &[f32],
    raw_words: &[u8],
    values: &[f32],
    weights: &[f32],
    l: usize,
    alphabet: usize,
) -> (Vec<f32>, Vec<u8>, Vec<f32>) {
    let tables: Vec<Vec<f32>> = (0..l)
        .map(|j| {
            let mut bp = raw_bp[j * 255..j * 255 + alphabet - 1].to_vec();
            bp.sort_by(f32::total_cmp);
            bp
        })
        .collect();
    // Full-cardinality interval edge rule: unbounded at the alphabet ends.
    let interval = |j: usize, s: usize| {
        let lo = if s == 0 { f32::NEG_INFINITY } else { tables[j][s - 1] };
        let hi = if s + 1 >= alphabet { f32::INFINITY } else { tables[j][s] };
        (lo, hi)
    };
    let mut lut = vec![0.0f32; l * LUT_STRIDE];
    for (j, row) in lut.chunks_exact_mut(LUT_STRIDE).enumerate() {
        for (s, e) in row.iter_mut().enumerate().take(alphabet) {
            let (lo, hi) = interval(j, s);
            let d = (lo - values[j]).max(values[j] - hi).max(0.0);
            *e = (weights[j] * d) * d;
        }
    }
    let words: Vec<u8> = (0..BLOCK_LANES * l)
        .map(|i| (usize::from(raw_words[(i / l) * 16 + i % l]) % alphabet) as u8)
        .collect();
    let mut bounds = Vec::with_capacity(l * BOUNDS_STRIDE);
    for j in 0..l {
        bounds.extend((0..BLOCK_LANES).map(|i| interval(j, usize::from(words[i * l + j])).0));
        bounds.extend((0..BLOCK_LANES).map(|i| interval(j, usize::from(words[i * l + j])).1));
    }
    (lut, words, bounds)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The symbol-table kernel against the interval kernel over the same
    /// symbols, for every word length and alphabet listed, on the
    /// dispatched and scalar tiers, unmasked and masked, with an infinite,
    /// a tight and a zero bound.
    #[test]
    fn lut_kernel_matches_block_reference_bitwise(
        (raw_bp, raw_words, values, weights, (live, frac)) in symbolic_strategy(),
    ) {
        for l in [4usize, 8, 13, 16] {
            for alphabet in [8usize, 64, 256] {
                let (lut, words, bounds) =
                    symbolic_model(&raw_bp, &raw_words, &values, &weights, l, alphabet);
                let (values, weights) = (&values[..l], &weights[..l]);
                let mut full = [0.0f32; BLOCK_LANES];
                block_lower_bound(values, weights, &bounds, f32::INFINITY, &mut full);
                let tight = full.iter().fold(f32::INFINITY, |m, &x| m.min(x)) * (0.5 + frac);
                for bsf in [f32::INFINITY, tight, 0.0] {
                    let mut reference = [0.0f32; BLOCK_LANES];
                    let verdict = block_lower_bound(values, weights, &bounds, bsf, &mut reference);
                    let mut dispatched = [0.0f32; BLOCK_LANES];
                    let mut scalar = [0.0f32; BLOCK_LANES];
                    // Unmasked: identical sums and verdicts.
                    let a1 = lut_lower_bound(&lut, &words, bsf, 0xFF, &mut dispatched);
                    let a2 = lut_lower_bound_scalar(&lut, &words, bsf, 0xFF, &mut scalar);
                    prop_assert_eq!(a1, verdict, "l={} alphabet={} bsf={}", l, alphabet, bsf);
                    prop_assert_eq!(a2, verdict, "scalar l={} alphabet={}", l, alphabet);
                    for i in 0..BLOCK_LANES {
                        prop_assert_eq!(dispatched[i].to_bits(), reference[i].to_bits(), "lane {}", i);
                        prop_assert_eq!(scalar[i].to_bits(), reference[i].to_bits(), "lane {}", i);
                    }
                    // Masked: tiers agree; without an abandon, live lanes
                    // carry the reference's full sums and dead lanes +inf;
                    // an abandon leaves every live lane's full sum > bsf.
                    let a1 = lut_lower_bound(&lut, &words, bsf, live, &mut dispatched);
                    let a2 = lut_lower_bound_scalar(&lut, &words, bsf, live, &mut scalar);
                    prop_assert_eq!(a1, a2, "masked verdict live={}", live);
                    for i in 0..BLOCK_LANES {
                        prop_assert_eq!(dispatched[i].to_bits(), scalar[i].to_bits(), "lane {}", i);
                        if live & (1 << i) == 0 {
                            prop_assert_eq!(scalar[i], f32::INFINITY, "dead lane {}", i);
                        } else if a1 {
                            prop_assert!(full[i] > bsf, "unsound abandon, lane {}", i);
                        } else {
                            prop_assert_eq!(scalar[i].to_bits(), full[i].to_bits(), "lane {}", i);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn simd_distance_matches_scalar((a, b) in pair_strategy()) {
        let s = euclidean_sq_scalar(&a, &b);
        let v = euclidean_sq(&a, &b);
        prop_assert!((s - v).abs() <= 1e-3 * s.max(1.0), "scalar={s} simd={v}");
    }

    #[test]
    fn dispatched_distance_matches_portable_bitwise((a, b) in pair_strategy()) {
        // On the scalar tier the dispatched kernel IS the scalar one; on
        // every other tier it must reproduce the portable bits exactly.
        if active_tier() != KernelTier::Scalar {
            prop_assert_eq!(
                euclidean_sq(&a, &b).to_bits(),
                euclidean_sq_portable(&a, &b).to_bits()
            );
        } else {
            prop_assert_eq!(
                euclidean_sq(&a, &b).to_bits(),
                euclidean_sq_scalar(&a, &b).to_bits()
            );
        }
    }

    #[test]
    fn dispatched_early_abandon_matches_portable_bitwise(
        (a, b) in pair_strategy(),
        frac in 0.0f32..2.0,
    ) {
        let exact = euclidean_sq_scalar(&a, &b);
        for bsf in [f32::INFINITY, exact * frac, 0.0] {
            if active_tier() != KernelTier::Scalar {
                prop_assert_eq!(
                    euclidean_sq_early_abandon(&a, &b, bsf).to_bits(),
                    euclidean_sq_early_abandon_portable(&a, &b, bsf).to_bits(),
                    "bsf={}", bsf
                );
            } else {
                prop_assert_eq!(
                    euclidean_sq_early_abandon(&a, &b, bsf).to_bits(),
                    euclidean_sq_early_abandon_scalar(&a, &b, bsf).to_bits(),
                    "bsf={}", bsf
                );
            }
        }
    }

    #[test]
    fn tiers_agree_on_denormals((a, b) in denormal_pair_strategy()) {
        // Denormal inputs must not diverge the tiers (flush-to-zero would).
        if active_tier() != KernelTier::Scalar {
            prop_assert_eq!(
                euclidean_sq(&a, &b).to_bits(),
                euclidean_sq_portable(&a, &b).to_bits()
            );
        }
        let s = euclidean_sq_scalar(&a, &b);
        let v = euclidean_sq(&a, &b);
        prop_assert!((s - v).abs() <= 1e-3 * s.max(1e-30), "scalar={s} simd={v}");
    }

    #[test]
    fn early_abandon_exact_under_infinite_bound((a, b) in pair_strategy()) {
        let s = euclidean_sq_scalar(&a, &b);
        let v = euclidean_sq_early_abandon(&a, &b, f32::INFINITY);
        prop_assert!((s - v).abs() <= 1e-3 * s.max(1.0));
    }

    /// The early-abandon contract: a return value <= bsf is the exact
    /// distance; a value > bsf means "pruned" and the exact distance is
    /// also > bsf (no false prunes).
    #[test]
    fn early_abandon_contract((a, b) in pair_strategy(), frac in 0.0f32..2.0) {
        let exact = euclidean_sq_scalar(&a, &b);
        let bsf = exact * frac;
        let r = euclidean_sq_early_abandon(&a, &b, bsf);
        if r <= bsf {
            prop_assert!((r - exact).abs() <= 1e-3 * exact.max(1.0));
        } else {
            prop_assert!(exact > bsf - 1e-3 * exact.max(1.0), "false prune: exact={exact} bsf={bsf}");
        }
    }

    #[test]
    fn block_tiers_agree_bitwise(
        (values, weights, bounds) in block_strategy(),
        frac in 0.0f32..2.0,
    ) {
        let mut reference = [0.0f32; BLOCK_LANES];
        block_lower_bound_scalar(
            &values, &weights, &bounds, f32::INFINITY, &mut reference,
        );
        let max_lb = reference.iter().fold(0.0f32, |m, &x| m.max(x));
        for bsf in [f32::INFINITY, max_lb * frac, 0.0] {
            let mut scalar = [0.0f32; BLOCK_LANES];
            let mut portable = [0.0f32; BLOCK_LANES];
            let mut dispatched = [0.0f32; BLOCK_LANES];
            let a1 = block_lower_bound_scalar(&values, &weights, &bounds, bsf, &mut scalar);
            let a2 = block_lower_bound_portable(&values, &weights, &bounds, bsf, &mut portable);
            let a3 = block_lower_bound(&values, &weights, &bounds, bsf, &mut dispatched);
            prop_assert_eq!(a1, a2, "abandon decision (portable) at bsf={}", bsf);
            prop_assert_eq!(a1, a3, "abandon decision (dispatched) at bsf={}", bsf);
            for i in 0..BLOCK_LANES {
                prop_assert_eq!(scalar[i].to_bits(), portable[i].to_bits(), "lane {}", i);
                prop_assert_eq!(scalar[i].to_bits(), dispatched[i].to_bits(), "lane {}", i);
            }
        }
    }

    /// The block kernel's abandon signal is conservative: whenever it
    /// reports `true`, every lane's full lower bound really exceeds bsf.
    #[test]
    fn block_abandon_is_sound(
        (values, weights, bounds) in block_strategy(),
        frac in 0.0f32..1.5,
    ) {
        let mut full = [0.0f32; BLOCK_LANES];
        block_lower_bound(&values, &weights, &bounds, f32::INFINITY, &mut full);
        let min_full = full.iter().fold(f32::INFINITY, |m, &x| m.min(x));
        let bsf = min_full * frac;
        let mut out = [0.0f32; BLOCK_LANES];
        if block_lower_bound(&values, &weights, &bounds, bsf, &mut out) {
            // Partial sums only grow, so sums > bsf at abandon time imply
            // full sums > bsf.
            prop_assert!(out.iter().all(|&s| s > bsf));
            prop_assert!(min_full > bsf - 1e-3 * min_full.abs().max(1.0));
        }
    }

    #[test]
    fn znorm_idempotent(series in proptest::collection::vec(-100.0f32..100.0, 2..200)) {
        let mut once = series.clone();
        znormalize(&mut once);
        let mut twice = once.clone();
        znormalize(&mut twice);
        for (x, y) in once.iter().zip(twice.iter()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn select_blend_is_lanewise(
        a in proptest::collection::vec(-10.0f32..10.0, 8),
        b in proptest::collection::vec(-10.0f32..10.0, 8),
        mask in proptest::collection::vec(proptest::bool::ANY, 8),
    ) {
        let va = F32x8::from_slice(&a);
        let vb = F32x8::from_slice(&b);
        let mut m = [false; 8];
        m.copy_from_slice(&mask);
        let r = F32x8::select(Mask8::from_bools(m), va, vb).to_array();
        for i in 0..8 {
            prop_assert_eq!(r[i], if mask[i] { a[i] } else { b[i] });
        }
    }

    #[test]
    fn horizontal_sum_matches_iter(vals in proptest::collection::vec(-100.0f32..100.0, 8)) {
        let v = F32x8::from_slice(&vals);
        let expect: f32 = vals.iter().sum();
        prop_assert!((v.horizontal_sum() - expect).abs() < 1e-2 * expect.abs().max(1.0));
    }
}
