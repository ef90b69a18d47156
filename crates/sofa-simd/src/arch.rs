//! Explicit ISA kernels behind the runtime dispatcher (x86-64 AVX2+FMA).
//!
//! These are the only functions in the workspace's compute layer that use
//! `unsafe`: `std::arch` intrinsics plus raw-pointer loads. Safety is
//! confined to two facts, checked at the call boundary:
//!
//! 1. the dispatcher ([`crate::dispatch::active_tier`]) only selects this
//!    module when `cpuid` reports AVX2 and FMA, and
//! 2. every load stays inside the bounds of the slices passed in (the
//!    loops below only touch whole 8-lane chunks; tails are scalar or
//!    staged through a stack buffer, and table gathers are indexed by
//!    `u8` symbols into one 256-entry row).
//!
//! **Bit-compatibility contract.** The exactness tests run the full query
//! suite under every tier and require identical answers, so the AVX2
//! kernels for `euclidean_sq`, `euclidean_sq_early_abandon` and the two
//! word lower bounds perform *exactly* the same floating-point operations
//! in the same association order as their reference tiers: the same
//! 8-lane vertical accumulation, the same pairwise horizontal reduction
//! `(s01+s23)+(s45+s67)`, and separate multiply/add (no FMA contraction,
//! which would change rounding). FMA is used only in [`dot`], whose
//! callers (the FAISS-flat baseline) never feed results into
//! exactness-sensitive pruning against another tier's arithmetic.
#![allow(unsafe_code)] // the one ISA-kernel module; crate denies elsewhere

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    /// `true` when the AVX2+FMA kernels may run. `is_x86_feature_detected!`
    /// caches its answer in a static, so this is one relaxed atomic load —
    /// the safe wrappers below re-verify it instead of trusting callers,
    /// which keeps them sound (not just "safe if the dispatcher behaved").
    #[inline(always)]
    fn supported() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// Safe entry points: verify CPU support, then call the
    /// `#[target_feature]` kernels.
    pub(crate) fn euclidean_sq_checked(a: &[f32], b: &[f32]) -> f32 {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        // SAFETY: AVX2+FMA verified above; slice bounds are respected by
        // the kernel (whole 8-lane chunks + scalar tail).
        unsafe { euclidean_sq(a, b) }
    }

    /// Safe wrapper over the early-abandoning AVX2 distance kernel.
    pub(crate) fn euclidean_sq_early_abandon_checked(a: &[f32], b: &[f32], bsf_sq: f32) -> f32 {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        // SAFETY: as above.
        unsafe { euclidean_sq_early_abandon(a, b, bsf_sq) }
    }

    /// Safe wrapper over the AVX2+FMA dot-product kernel.
    pub(crate) fn dot_checked(a: &[f32], b: &[f32]) -> f32 {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        // SAFETY: as above.
        unsafe { dot(a, b) }
    }

    /// Safe wrapper over the AVX2 block lower-bound kernel. Re-checks the
    /// layout itself (this wrapper is the soundness boundary — it must
    /// not rely on callers having validated the slices).
    pub(crate) fn block_lower_bound_checked(
        values: &[f32],
        weights: &[f32],
        bounds: &[f32],
        bsf_sq: f32,
        out: &mut [f32; 8],
    ) -> bool {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        assert_eq!(bounds.len(), values.len() * crate::block::BOUNDS_STRIDE);
        assert_eq!(weights.len(), values.len());
        // SAFETY: AVX2+FMA verified above; the layout asserts guarantee
        // every load stays in bounds.
        unsafe { block_lower_bound(values, weights, bounds, bsf_sq, out) }
    }

    /// Safe wrapper over the AVX2 symbol-table lower-bound kernel.
    /// Re-checks the layout itself (soundness boundary, as above).
    pub(crate) fn lut_lower_bound_checked(
        lut: &[f32],
        words: &[u8],
        bsf_sq: f32,
        live: u8,
        out: &mut [f32; 8],
    ) -> bool {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        assert_eq!(words.len() % 8, 0);
        assert_eq!(lut.len(), words.len() / 8 * crate::block::LUT_STRIDE);
        // SAFETY: AVX2 verified above; the layout asserts guarantee every
        // word load stays inside `words` and every gather inside `lut`.
        unsafe { lut_lower_bound(lut, words, bsf_sq, live, out) }
    }

    /// Safe wrapper over the AVX2 quantized lower-bound kernel. Re-checks
    /// the layout itself (soundness boundary, as above).
    pub(crate) fn quant_lower_bound_checked(
        qcodes: &[u8],
        codes: &[u8],
        thr: &[i32; 8],
        out: &mut [i32; 8],
    ) -> bool {
        assert!(supported(), "AVX2 kernels dispatched on a CPU without AVX2+FMA");
        assert_eq!(codes.len(), qcodes.len() * 8);
        // SAFETY: AVX2 verified above; the layout assert guarantees every
        // 8-byte lane load stays in bounds.
        unsafe { quant_lower_bound(qcodes, codes, thr, out) }
    }

    /// Pairwise horizontal sum matching `F32x8::horizontal_sum` exactly:
    /// `(a0+a1 + (a2+a3)) + (a4+a5 + (a6+a7))`.
    ///
    /// # Safety
    /// Requires AVX2 support (guaranteed by the dispatcher).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum_pairwise(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        // [a0+a1, a2+a3, a4+a5, a6+a7]
        let pairs = _mm_hadd_ps(lo, hi);
        // [s01+s23, s45+s67, s01+s23, s45+s67]
        let quads = _mm_hadd_ps(pairs, pairs);
        // (s01+s23) + (s45+s67)
        _mm_cvtss_f32(_mm_add_ss(quads, _mm_movehdup_ps(quads)))
    }

    /// AVX2 squared Euclidean distance; bit-identical to the portable
    /// 8-lane kernel.
    ///
    /// # Safety
    /// Requires AVX2+FMA support and `a.len() == b.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c * 8));
            let d = _mm256_sub_ps(va, vb);
            // mul+add (not FMA): matches the portable kernel's rounding.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        let mut sum = hsum_pairwise(acc);
        for i in chunks * 8..n {
            let d = a.get_unchecked(i) - b.get_unchecked(i);
            sum += d * d;
        }
        sum
    }

    /// AVX2 early-abandoning squared Euclidean distance; bit-identical to
    /// the portable kernel (same two-chunk check cadence, same reduction
    /// order, same abandon points).
    ///
    /// # Safety
    /// Requires AVX2+FMA support and `a.len() == b.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn euclidean_sq_early_abandon(a: &[f32], b: &[f32], bsf_sq: f32) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut sum = 0.0f32;
        let mut c = 0;
        while c + 1 < chunks {
            let off = c * 8;
            let d0 = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(off)),
                _mm256_loadu_ps(b.as_ptr().add(off)),
            );
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(off + 8)),
                _mm256_loadu_ps(b.as_ptr().add(off + 8)),
            );
            let sq = _mm256_add_ps(_mm256_mul_ps(d0, d0), _mm256_mul_ps(d1, d1));
            sum += hsum_pairwise(sq);
            if sum > bsf_sq {
                return sum;
            }
            c += 2;
        }
        while c < chunks {
            let off = c * 8;
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(off)),
                _mm256_loadu_ps(b.as_ptr().add(off)),
            );
            sum += hsum_pairwise(_mm256_mul_ps(d, d));
            if sum > bsf_sq {
                return sum;
            }
            c += 1;
        }
        for i in chunks * 8..n {
            let d = a.get_unchecked(i) - b.get_unchecked(i);
            sum += d * d;
        }
        sum
    }

    /// AVX2+FMA dot product (the flat-baseline GEMM kernel). Uses fused
    /// multiply-add, so it is *not* bit-identical to the portable path —
    /// it is strictly more accurate.
    ///
    /// # Safety
    /// Requires AVX2+FMA support and `a.len() == b.len()`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            let va = _mm256_loadu_ps(a.as_ptr().add(c * 8));
            let vb = _mm256_loadu_ps(b.as_ptr().add(c * 8));
            acc = _mm256_fmadd_ps(va, vb, acc);
        }
        let mut sum = hsum_pairwise(acc);
        for i in chunks * 8..n {
            sum += a.get_unchecked(i) * b.get_unchecked(i);
        }
        sum
    }

    /// AVX2 block lower bound: 8 candidates per call, position-major
    /// bounds layout (see [`crate::block`]). Bit-identical to the scalar
    /// and portable block kernels (same op order, same every-4-positions
    /// whole-group abandon cadence). Returns `true` when every lane's
    /// (possibly partial) sum exceeds `bsf_sq`.
    ///
    /// # Safety
    /// Requires AVX2+FMA support; slice lengths must satisfy the layout
    /// contract (`bounds.len() == values.len() * 16`,
    /// `weights.len() == values.len()`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn block_lower_bound(
        values: &[f32],
        weights: &[f32],
        bounds: &[f32],
        bsf_sq: f32,
        out: &mut [f32; 8],
    ) -> bool {
        debug_assert_eq!(bounds.len(), values.len() * crate::block::BOUNDS_STRIDE);
        debug_assert_eq!(weights.len(), values.len());
        let zero = _mm256_setzero_ps();
        let vbsf = _mm256_set1_ps(bsf_sq);
        let mut acc = zero;
        for j in 0..values.len() {
            let lo = _mm256_loadu_ps(bounds.as_ptr().add(j * 16));
            let hi = _mm256_loadu_ps(bounds.as_ptr().add(j * 16 + 8));
            let vq = _mm256_set1_ps(*values.get_unchecked(j));
            let vw = _mm256_set1_ps(*weights.get_unchecked(j));
            // dist(q, [lo, hi]) = max(lo - q, q - hi, 0): at most one of
            // the two differences is positive because lo <= hi.
            let d_below = _mm256_sub_ps(lo, vq);
            let d_above = _mm256_sub_ps(vq, hi);
            let d = _mm256_max_ps(_mm256_max_ps(d_below, d_above), zero);
            let wd = _mm256_mul_ps(vw, d);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(wd, d));
            // Whole-group early abandon every 4 positions: one compare +
            // movemask amortized over 4 * 8 lane updates.
            if j % 4 == 3 {
                let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(acc, vbsf);
                if _mm256_movemask_ps(gt) == 0xFF {
                    _mm256_storeu_ps(out.as_mut_ptr(), acc);
                    return true;
                }
            }
        }
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
        let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(acc, vbsf);
        _mm256_movemask_ps(gt) == 0xFF
    }

    /// AVX2 symbol-table lower bound over 8 row-major words (see
    /// [`crate::block`]). Each run of 16 positions loads 16 bytes per
    /// lane, transposes the 8×16 bytes in registers (three rounds of
    /// unpacks leave two positions' 8 lane symbols per register), then
    /// prices each position with one 8-lane gather from that position's
    /// 256-entry table row. Bit-identical to the scalar tier: dead lanes
    /// seeded `+inf`, one add per position in position order, the abandon
    /// check every 4 positions.
    ///
    /// # Safety
    /// Requires AVX2 support, `words.len() == 8 * l` and
    /// `lut.len() == l * 256`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn lut_lower_bound(
        lut: &[f32],
        words: &[u8],
        bsf_sq: f32,
        live: u8,
        out: &mut [f32; 8],
    ) -> bool {
        let l = words.len() / 8;
        debug_assert_eq!(lut.len(), l * crate::block::LUT_STRIDE);
        let vbsf = _mm256_set1_ps(bsf_sq);
        // Lane i is dead iff bit i of `live` is clear: seed it +inf.
        let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let dead = _mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_set1_epi32(i32::from(live)), bits),
            _mm256_setzero_si256(),
        );
        let mut acc = _mm256_and_ps(_mm256_castsi256_ps(dead), _mm256_set1_ps(f32::INFINITY));
        let mut j0 = 0;
        while j0 < l {
            let w = (l - j0).min(16);
            let mut r = [_mm_setzero_si128(); 8];
            if w == 16 {
                for (lane, reg) in r.iter_mut().enumerate() {
                    *reg = _mm_loadu_si128(words.as_ptr().add(lane * l + j0).cast());
                }
            } else {
                // Short final run: stage it so no load crosses the end of
                // a lane's word (or of `words`).
                let mut tail = [0u8; 128];
                for (lane, reg) in r.iter_mut().enumerate() {
                    let src = &words[lane * l + j0..lane * l + j0 + w];
                    tail[lane * 16..lane * 16 + w].copy_from_slice(src);
                    *reg = _mm_loadu_si128(tail.as_ptr().add(lane * 16).cast());
                }
            }
            // Bytes → lane pairs → lane quads → all 8 lanes per position.
            let a0 = _mm_unpacklo_epi8(r[0], r[1]);
            let a1 = _mm_unpackhi_epi8(r[0], r[1]);
            let a2 = _mm_unpacklo_epi8(r[2], r[3]);
            let a3 = _mm_unpackhi_epi8(r[2], r[3]);
            let a4 = _mm_unpacklo_epi8(r[4], r[5]);
            let a5 = _mm_unpackhi_epi8(r[4], r[5]);
            let a6 = _mm_unpacklo_epi8(r[6], r[7]);
            let a7 = _mm_unpackhi_epi8(r[6], r[7]);
            let b0 = _mm_unpacklo_epi16(a0, a2);
            let b1 = _mm_unpackhi_epi16(a0, a2);
            let b2 = _mm_unpacklo_epi16(a1, a3);
            let b3 = _mm_unpackhi_epi16(a1, a3);
            let b4 = _mm_unpacklo_epi16(a4, a6);
            let b5 = _mm_unpackhi_epi16(a4, a6);
            let b6 = _mm_unpacklo_epi16(a5, a7);
            let b7 = _mm_unpackhi_epi16(a5, a7);
            // c[k] holds positions 2k (low 8 bytes) and 2k+1 (high 8).
            let c = [
                _mm_unpacklo_epi32(b0, b4),
                _mm_unpackhi_epi32(b0, b4),
                _mm_unpacklo_epi32(b1, b5),
                _mm_unpackhi_epi32(b1, b5),
                _mm_unpacklo_epi32(b2, b6),
                _mm_unpackhi_epi32(b2, b6),
                _mm_unpacklo_epi32(b3, b7),
                _mm_unpackhi_epi32(b3, b7),
            ];
            for p in 0..w {
                let pair = c[p / 2];
                let sym = if p % 2 == 0 { pair } else { _mm_unpackhi_epi64(pair, pair) };
                let idx = _mm256_cvtepu8_epi32(sym);
                let j = j0 + p;
                // Indices are u8 symbols, so the gather stays inside
                // position j's 256-entry row.
                let row = lut.as_ptr().add(j * crate::block::LUT_STRIDE);
                acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(row, idx));
                if j % 4 == 3 {
                    let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(acc, vbsf);
                    if _mm256_movemask_ps(gt) == 0xFF {
                        _mm256_storeu_ps(out.as_mut_ptr(), acc);
                        return true;
                    }
                }
            }
            j0 += w;
        }
        _mm256_storeu_ps(out.as_mut_ptr(), acc);
        let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(acc, vbsf);
        _mm256_movemask_ps(gt) == 0xFF
    }

    /// AVX2 quantized lower-bound sweep: 8 candidates per call over
    /// position-major `u8` codes (see `crate::quant`), two positions per
    /// step. The two 8-lane rows are interleaved bytewise
    /// (`unpacklo_epi8`: `[p₀l₀, p₁l₀, p₀l₁, p₁l₁, …]`) so that after an
    /// unsigned absolute difference against the pair-splatted query codes
    /// and a `u8 → i16` widening, `madd_epi16(v, v)` pairs *same-lane
    /// adjacent-position* squares — one multiply-add covers 16 code bytes
    /// where a naive per-position `mullo_epi32` covers 8 (and at twice the
    /// instruction cost), which is what lets this sweep beat the `f32`
    /// kernel per byte. `|d| ≤ 255`, so `d² ≤ 65025` and each i16 product
    /// pair fits i32 exactly. Integer arithmetic is exact, so this tier is
    /// bit-identical to the scalar/portable tiers by construction. Whole-
    /// group early abandon every 16 positions against the per-lane
    /// thresholds `thr`; returns `true` when every lane's (possibly
    /// partial) sum exceeds its threshold.
    ///
    /// # Safety
    /// Requires AVX2 support and `codes.len() == qcodes.len() * 8`
    /// (accumulator overflow is prevented by the dispatcher's
    /// `QUANT_MAX_POSITIONS` layout check).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn quant_lower_bound(
        qcodes: &[u8],
        codes: &[u8],
        thr: &[i32; 8],
        out: &mut [i32; 8],
    ) -> bool {
        debug_assert_eq!(codes.len(), qcodes.len() * 8);
        let vthr = _mm256_loadu_si256(thr.as_ptr().cast());
        let mut acc = _mm256_setzero_si256();
        let p = qcodes.len();
        let mut j = 0usize;
        while j + 2 <= p {
            // 16 lane codes for positions j, j+1, interleaved per lane.
            let a = _mm_loadl_epi64(codes.as_ptr().add(j * 8).cast());
            let b = _mm_loadl_epi64(codes.as_ptr().add((j + 1) * 8).cast());
            let c = _mm_unpacklo_epi8(a, b);
            // The query pair in the same interleaving: [qⱼ, qⱼ₊₁] × 8.
            let q = _mm_set1_epi16(i16::from_le_bytes([qcodes[j], qcodes[j + 1]]));
            // Unsigned |c - q| via saturating subtractions in both orders.
            let ad = _mm_or_si128(_mm_subs_epu8(c, q), _mm_subs_epu8(q, c));
            let v = _mm256_cvtepu8_epi16(ad);
            // Low 128 bits hold lanes 0–3, high bits lanes 4–7 — `out`'s
            // natural i32 order.
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(v, v));
            j += 2;
            // Same checkpoint positions as the scalar tier (after 16, 32,
            // … positions), so partial sums — and therefore the abandon
            // decision — stay bit-identical.
            if j % 16 == 0 {
                let gt = _mm256_cmpgt_epi32(acc, vthr);
                if _mm256_movemask_ps(_mm256_castsi256_ps(gt)) == 0xFF {
                    _mm256_storeu_si256(out.as_mut_ptr().cast(), acc);
                    return true;
                }
            }
        }
        if j < p {
            // Odd trailing position: widen to i32 and square directly.
            let lanes8 = _mm_loadl_epi64(codes.as_ptr().add(j * 8).cast());
            let lanes = _mm256_cvtepu8_epi32(lanes8);
            let vq = _mm256_set1_epi32(i32::from(qcodes[j]));
            let d = _mm256_sub_epi32(vq, lanes);
            acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(d, d));
        }
        _mm256_storeu_si256(out.as_mut_ptr().cast(), acc);
        let gt = _mm256_cmpgt_epi32(acc, vthr);
        _mm256_movemask_ps(_mm256_castsi256_ps(gt)) == 0xFF
    }
}
