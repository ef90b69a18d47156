//! Property-based tests of the system's core invariants.
//!
//! 1. Lower-bounding: for arbitrary data, every summarization's mindist
//!    never exceeds the true z-normalized Euclidean distance (the property
//!    GEMINI's exactness rests on).
//! 2. Index exactness: the SOFA index returns the same 1-NN distance as a
//!    brute-force scan for arbitrary datasets.
//! 3. Z-normalization: output has mean ~0 / std ~1 and is shift/scale
//!    invariant.

use proptest::prelude::*;
use sofa::baselines::UcrScan;
use sofa::simd::{
    euclidean_sq, quant_lower_bound, quant_lower_bound_portable, quant_lower_bound_scalar,
    znormalize, BLOCK_LANES,
};
use sofa::summaries::{
    mindist_scalar, mindist_simd, ISax, QuantBlock, QuantGrid, QueryContext, SaxConfig, Sfa,
    SfaConfig, Summarization,
};
use sofa::Builder;

/// Arbitrary dataset: `rows` series of length `n`, values in [-10, 10],
/// with enough per-row structure to avoid constant series.
fn dataset_strategy(max_rows: usize, n: usize) -> impl Strategy<Value = Vec<f32>> {
    (8..max_rows).prop_flat_map(move |rows| proptest::collection::vec(-10.0f32..10.0, rows * n))
}

fn znorm_rows(data: &[f32], n: usize) -> Vec<f32> {
    let mut out = data.to_vec();
    for row in out.chunks_mut(n) {
        znormalize(row);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn sfa_mindist_is_a_lower_bound(data in dataset_strategy(40, 32)) {
        let n = 32;
        let z = znorm_rows(&data, n);
        let sfa = Sfa::learn(
            &z,
            n,
            &SfaConfig { word_len: 8, alphabet: 16, sample_ratio: 1.0, ..Default::default() },
        );
        let mut tr = sfa.transformer();
        let query = &z[..n];
        let ctx = QueryContext::new(&sfa, query);
        for cand in z.chunks(n) {
            let word = tr.word(cand, 8);
            let lbd = mindist_scalar(&ctx, &word);
            let ed = euclidean_sq(query, cand);
            prop_assert!(lbd <= ed * (1.0 + 1e-3) + 1e-3, "lbd={lbd} > ed={ed}");
        }
    }

    #[test]
    fn sax_mindist_is_a_lower_bound(data in dataset_strategy(40, 32)) {
        let n = 32;
        let z = znorm_rows(&data, n);
        let sax = ISax::new(n, &SaxConfig { word_len: 8, alphabet: 64 });
        let mut tr = sax.transformer();
        let query = &z[n..2 * n];
        let ctx = QueryContext::new(&sax, query);
        for cand in z.chunks(n) {
            let word = tr.word(cand, 8);
            let lbd = mindist_scalar(&ctx, &word);
            let ed = euclidean_sq(query, cand);
            prop_assert!(lbd <= ed * (1.0 + 1e-3) + 1e-3, "lbd={lbd} > ed={ed}");
        }
    }

    #[test]
    fn simd_mindist_matches_scalar(data in dataset_strategy(30, 32)) {
        let n = 32;
        let z = znorm_rows(&data, n);
        let sfa = Sfa::learn(
            &z,
            n,
            &SfaConfig { word_len: 16, alphabet: 32, sample_ratio: 1.0, ..Default::default() },
        );
        let mut tr = sfa.transformer();
        let query = &z[..n];
        let ctx = QueryContext::new(&sfa, query);
        for cand in z.chunks(n) {
            let word = tr.word(cand, 16);
            let s = mindist_scalar(&ctx, &word);
            let v = mindist_simd(&ctx, &word, f32::INFINITY);
            prop_assert!((s - v).abs() <= 1e-4 * s.max(1.0), "scalar={s} simd={v}");
        }
    }

    #[test]
    fn index_matches_scan_exactly(data in dataset_strategy(60, 32)) {
        let n = 32;
        let index = Builder::default()
            .word_len(8)
            .leaf_capacity(8)
            .threads(2)
            .sample_ratio(1.0)
            .build_sofa(&data, n);
        // Constant series degrade to all-zero rows; the index must still
        // build and agree with the scan.
        let index = index.expect("build should not fail on valid shapes");
        let scan = UcrScan::new(&data, n, 2);
        let query = &data[..n];
        let a = index.nn(query).expect("query").dist_sq;
        let b = scan.nn(query).dist_sq;
        prop_assert!((a - b).abs() <= 2e-3 * a.max(1.0), "index={a} scan={b}");
    }

    #[test]
    fn quant_lower_bound_is_sound_and_bit_identical_across_tiers(
        raw in proptest::collection::vec(-10.0f32..10.0, 2 * 257..42 * 257),
        len_sel in 0usize..6,
        // Scale the rows down to (and past) the denormal range: the
        // quantizer must stay conservative (or bow out) on tiny values.
        scale_sel in 0usize..4,
        bsf_frac in 0.05f64..1.5,
    ) {
        // Ragged lengths around the group and checkpoint boundaries.
        let n = [1usize, 7, 8, 64, 129, 257][len_sel];
        let scale = 10f32.powi([0i32, -20, -38, -44][scale_sel]);
        let rows = (raw.len() / n).clamp(1, 41);
        let data: Vec<f32> = raw[..rows * n].iter().map(|&v| v * scale).collect();
        let query: Vec<f32> = raw[raw.len() - n..].iter().map(|&v| v * scale).collect();
        let Some(grid) = QuantGrid::train(&data, n) else {
            // Degenerate (constant / underflowed) data: the tier bows
            // out and the index keeps the word -> f32 path. Nothing to
            // check.
            return;
        };
        let qb = QuantBlock::build(&grid, &data, n).expect("grid was trained on this data");
        prop_assert_eq!(qb.n(), rows);
        let mut qcodes = vec![0u8; n];
        let err_q = grid.quantize_query(&query, &mut qcodes);
        // f64 exact-distance reference: at denormal scales the f32 sum
        // underflows to 0 while the (valid) quant bound stays positive.
        // The index never sees that band — z-normalized f32 rows make
        // distances either exactly 0 or far above it — so the math is
        // checked against the un-underflowed value.
        let ed64 = |r: usize| -> f64 {
            query
                .iter()
                .zip(&data[r * n..(r + 1) * n])
                .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                .sum()
        };
        let bsf = f64::from(euclidean_sq(&query, &data[..n])) * bsf_frac;
        let nothr = [i32::MAX; BLOCK_LANES];
        let mut thr = [0i32; BLOCK_LANES];
        let mut sums = [0i32; BLOCK_LANES];
        for g in 0..qb.n_groups() {
            let codes = qb.group_codes(g);
            let errs = qb.group_errs(g);
            // Tier agreement is exact: integer sums, bit for bit.
            let mut s_scalar = [0i32; BLOCK_LANES];
            let mut s_portable = [0i32; BLOCK_LANES];
            quant_lower_bound_scalar(&qcodes, codes, &nothr, &mut s_scalar);
            quant_lower_bound_portable(&qcodes, codes, &nothr, &mut s_portable);
            let abandoned = quant_lower_bound(&qcodes, codes, &nothr, &mut sums);
            prop_assert!(!abandoned, "nothing abandons against MAX thresholds");
            prop_assert_eq!(&sums, &s_scalar);
            prop_assert_eq!(&sums, &s_portable);
            // The reconstructed bound never exceeds the exact distance.
            for lane in 0..BLOCK_LANES {
                let r = (g * BLOCK_LANES + lane).min(rows - 1);
                let ed = ed64(r);
                let lb = qb.lane_bound(sums[lane], errs[lane], err_q);
                prop_assert!(
                    lb <= ed * (1.0 + 1e-9),
                    "group {} lane {}: quant bound {} > exact {}", g, lane, lb, ed
                );
            }
            // Threshold soundness end-to-end: a whole-group abandon at
            // `bsf` means every lane's exact distance is at least `bsf`.
            qb.thresholds(g, bsf as f32, err_q, &mut thr);
            if quant_lower_bound(&qcodes, codes, &thr, &mut sums) {
                for lane in 0..BLOCK_LANES {
                    let r = (g * BLOCK_LANES + lane).min(rows - 1);
                    prop_assert!(
                        ed64(r) >= bsf * (1.0 - 1e-6),
                        "abandoned lane below bsf: {} < {}", ed64(r), bsf
                    );
                }
            }
        }
    }

    #[test]
    fn znormalization_invariants(
        series in proptest::collection::vec(-100.0f32..100.0, 16..128),
        shift in -50.0f32..50.0,
        scale in 0.1f32..20.0,
    ) {
        let mut a = series.clone();
        znormalize(&mut a);
        // mean ~ 0, std ~ 1 (or all zeros for constant input)
        let mean: f32 = a.iter().sum::<f32>() / a.len() as f32;
        prop_assert!(mean.abs() < 1e-3, "mean={mean}");
        let var: f32 = a.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / a.len() as f32;
        prop_assert!(var < 1e-3 || (var - 1.0).abs() < 1e-2, "var={var}");

        // shift/scale invariance
        let mut b: Vec<f32> = series.iter().map(|&x| x * scale + shift).collect();
        znormalize(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
        }
    }

    #[test]
    fn knn_results_sorted_and_bounded(data in dataset_strategy(50, 32), k in 1usize..12) {
        let n = 32;
        let index = Builder::default()
            .word_len(8)
            .leaf_capacity(10)
            .threads(2)
            .sample_ratio(1.0)
            .build_sofa(&data, n)
            .expect("build");
        let query = &data[..n];
        let got = index.knn(query, k).expect("query");
        prop_assert_eq!(got.len(), k.min(data.len() / n));
        for w in got.windows(2) {
            prop_assert!(w[0].dist_sq <= w[1].dist_sq);
            prop_assert!(w[0].row != w[1].row);
        }
    }
}
